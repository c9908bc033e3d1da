//! Host-speed probe: a fixed piece of work, timed between the units of
//! measured work, that tells how fast the host runs at that moment.
//!
//! On a shared host the same single-threaded pass of the simulator takes
//! from ~3.0 to ~4.9 s within minutes, with no stolen time and no page
//! faults to account for it: the CPU itself runs slower. Whole runs land in
//! slow or fast phases, so no median inside a run removes it. The probe
//! slows with the host, and the bounded rates are scaled by
//! [`REF_S`]` / the run's median probe time`, which turns host seconds into
//! seconds of a host running at the reference speed ("calibrated
//! seconds").
//!
//! The probe is binary searches of random keys in a 256 KB sorted table:
//! branchy and L2-resident, as the simulator's per-cycle work is. Over 34
//! suite passes on the 2-core host its time correlated 0.93 with the pass
//! time, against 0.74–0.79 for a multiply chain, an 8 MB pointer chase and
//! a small Gustavson product. It is part of the benchmark and never calls
//! the program, so a change to the program cannot move it.

use std::time::Instant;

/// Probe seconds on the reference host: the 2-core host this benchmark was
/// written on, in one of its fast phases. Only the scale of the calibrated
/// rates depends on it.
pub const REF_S: f64 = 0.0025;

const TABLE_LEN: u32 = 65_536;
const LOOKUPS: u32 = 60_000;
const REPEATS: usize = 3;

/// The probe's table.
pub struct Probe {
    table: Vec<u32>,
}

impl Probe {
    /// Builds the table.
    pub fn new() -> Probe {
        Probe { table: (0..TABLE_LEN).map(|i| i * 3).collect() }
    }

    /// One probe on this thread: the median of [`REPEATS`] timed rounds of
    /// [`LOOKUPS`] searches, so one preemption does not count.
    fn time(&self) -> f64 {
        let mut times = [0.0; REPEATS];
        let mut key = 0x2545_f491_4f6c_dd1d_u64;
        for t in &mut times {
            let start = Instant::now();
            let mut hits = 0u32;
            for _ in 0..LOOKUPS {
                key ^= key << 13;
                key ^= key >> 7;
                key ^= key << 17;
                let k = (key % u64::from(3 * TABLE_LEN)) as u32;
                hits += u32::from(self.table.binary_search(&k).is_ok());
            }
            std::hint::black_box(hits);
            *t = start.elapsed().as_secs_f64();
        }
        times.sort_by(f64::total_cmp);
        times[REPEATS / 2]
    }

    /// Mean probe seconds over `threads` threads probing at once, so a
    /// workload that keeps several CPUs busy is calibrated on all of them.
    pub fn seconds(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return self.time();
        }
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| self.time())).collect();
            handles.into_iter().map(|h| h.join().unwrap_or(f64::NAN)).collect()
        });
        times.iter().sum::<f64>() / threads as f64
    }
}

/// Host seconds turned into calibrated seconds, given the probe seconds
/// measured around them.
pub fn calibrated(host_s: f64, probe_s: f64) -> f64 {
    host_s * REF_S / probe_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_host_speed() {
        assert_eq!(calibrated(2.0, REF_S), 2.0);
        // A host twice as slow takes twice the host seconds and twice the
        // probe time: the same calibrated seconds.
        assert!((calibrated(4.0, 2.0 * REF_S) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn probe_times_are_positive() {
        let p = Probe::new();
        assert!(p.seconds(1) > 0.0);
        assert!(p.seconds(2) > 0.0);
    }
}
