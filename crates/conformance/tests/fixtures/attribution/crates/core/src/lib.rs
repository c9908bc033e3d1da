//! Synthetic crate exercising the attribution-totality lint. Never compiled.

pub struct StageBreakdown;

impl StageBreakdown {
    pub fn charge(&mut self, _bucket: usize) {}
}

/// A stage whose early return forgets to charge its cycle.
pub struct Stage {
    attribution: StageBreakdown,
    backlog: usize,
}

impl Stage {
    pub fn tick(&mut self) {
        if self.backlog == 0 {
            return;
        }
        self.backlog -= 1;
        self.attribution.charge(0);
    }
}

/// A stage whose tick intentionally defers charging to a helper.
pub struct Helper {
    attribution: StageBreakdown,
}

impl Helper {
    // conformance:allow(attribution-totality): charging happens in the drain helper, once per cycle by construction
    pub fn tick(&mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.attribution.charge(0);
    }
}

/// A stage whose stall replay skips its charge on one path.
pub struct Replayer {
    attribution: StageBreakdown,
    quiet: bool,
}

impl Replayer {
    pub fn tick(&mut self) {
        self.attribution.charge(0);
    }

    pub fn replay_stall(&mut self) {
        if !self.quiet {
            return;
        }
        self.attribution.charge(0);
    }
}
