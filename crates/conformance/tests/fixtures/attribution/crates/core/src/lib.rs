//! Synthetic crate exercising the attribution-totality lint. Never compiled.

pub struct StageBreakdown;

impl StageBreakdown {
    pub fn charge(&mut self, _bucket: usize) {}
    pub fn charge_cycles(&mut self, _bucket: usize, _n: u64) {}
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

    pub fn replay_stall(&mut self, n: u64) {
        if !self.quiet {
            return;
        }
        self.attribution.charge_cycles(0, n);
    }
}

/// A stage whose bulk replay bumps a counter but charges no bucket.
pub struct Uncharged {
    attribution: StageBreakdown,
    slept: u64,
}

impl Uncharged {
    pub fn tick(&mut self) {
        self.attribution.charge(0);
    }

    pub fn replay_stall(&mut self, n: u64) {
        self.slept += n;
    }
}

/// A stage whose bulk replay charges one cycle, not the `n` it owes.
pub struct Single {
    attribution: StageBreakdown,
}

impl Single {
    pub fn tick(&mut self) {
        self.attribution.charge(0);
    }

    pub fn replay_stall(&mut self, _n: u64) {
        self.attribution.charge(0);
    }
}

/// A stage whose bulk replay charges the owed cycles to two buckets.
pub struct Twice {
    attribution: StageBreakdown,
}

impl Twice {
    pub fn tick(&mut self) {
        self.attribution.charge(0);
    }

    pub fn replay_stall(&mut self, n: u64) {
        self.attribution.charge_cycles(0, n);
        self.attribution.charge_cycles(1, n);
    }
}
