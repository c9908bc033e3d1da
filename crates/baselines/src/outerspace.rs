//! OuterSPACE (HPCA'18) baseline model.

use matraptor_energy::DramEnergy;

use crate::{ModeledRun, Workload};

/// Analytic model of OuterSPACE, the outer-product SpGEMM accelerator the
/// paper compares against (its numbers came from the OuterSPACE authors;
/// we model the algorithm's traffic structure instead).
///
/// Outer-product SpGEMM runs in two phases (Section II-B):
///
/// 1. **multiply** — stream each column of A against each row of B once,
///    producing `flops` partial products of 16 B each. Partials that
///    exceed the 0.5 MB of on-chip storage spill to DRAM.
/// 2. **merge** — re-read every (spilled) partial product, sort-merge by
///    coordinate, write C.
///
/// The O(flops) spill round-trip is the structural disadvantage MatRaptor
/// exploits; conversely, when the whole partial-sum set fits on chip
/// (tiny matrices like `wiki-Vote`), both phases run from SRAM and
/// OuterSPACE pulls even with MatRaptor — exactly the crossover Fig. 8a
/// shows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OuterSpaceModel {
    /// On-chip storage available for partial sums, bytes (scratchpads +
    /// L0 + victim caches ≈ 0.5 MB per the paper's Section II-B).
    pub on_chip_bytes: u64,
    /// Bytes per materialised partial product (value + row + col).
    pub partial_entry_bytes: u64,
    /// Peak bandwidth of its HBM in GB/s (same part as MatRaptor).
    pub peak_bw_gbs: f64,
    /// Achieved fraction of peak in the streaming multiply phase.
    pub multiply_phase_eff: f64,
    /// Achieved fraction of peak in the scatter/merge phase.
    pub merge_phase_eff: f64,
    /// Compute power in watts at 28 nm (the paper scales OuterSPACE's
    /// published 32 nm numbers down; Section V-C).
    pub power_w: f64,
    /// DRAM interface energy.
    pub dram: DramEnergy,
}

impl Default for OuterSpaceModel {
    fn default() -> Self {
        // Power: the paper reports MatRaptor consuming 7.2x less power
        // than OuterSPACE at matched 28 nm, i.e. ≈ 9.7 W.
        OuterSpaceModel {
            on_chip_bytes: 512 << 10,
            partial_entry_bytes: 16,
            peak_bw_gbs: 128.0,
            multiply_phase_eff: 0.40,
            merge_phase_eff: 0.18,
            power_w: 9.7,
            dram: DramEnergy::hbm2(),
        }
    }
}

impl OuterSpaceModel {
    /// Bytes of partial products materialised by the multiply phase.
    pub fn partial_bytes(&self, w: &Workload) -> u64 {
        w.flops * self.partial_entry_bytes
    }

    /// DRAM traffic for both phases.
    pub fn dram_traffic(&self, w: &Workload) -> u64 {
        let partials = self.partial_bytes(w);
        let spilled = partials.saturating_sub(self.on_chip_bytes);
        // Multiply: read A and B once each, write the spilled partials.
        // Merge: re-read the spilled partials, write C.
        w.bytes_a() + w.bytes_b() + 2 * spilled + w.bytes_c()
    }

    /// Evaluates the model.
    pub fn run(&self, w: &Workload) -> ModeledRun {
        let partials = self.partial_bytes(w);
        let spilled = partials.saturating_sub(self.on_chip_bytes);
        let mult_bytes = w.bytes_a() + w.bytes_b() + spilled;
        let merge_bytes = spilled + w.bytes_c();
        let time_s = mult_bytes as f64 / (self.peak_bw_gbs * self.multiply_phase_eff * 1e9)
            + merge_bytes as f64 / (self.peak_bw_gbs * self.merge_phase_eff * 1e9);
        let traffic = self.dram_traffic(w);
        ModeledRun {
            time_s,
            energy_j: self.power_w * time_s + self.dram.energy_j(traffic),
            dram_bytes: traffic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_sparse::gen;

    #[test]
    fn spill_traffic_dominates_large_products() {
        let a = gen::uniform(2_000, 2_000, 30_000, 12);
        let w = Workload::measure(&a, &a);
        let m = OuterSpaceModel::default();
        assert!(m.partial_bytes(&w) > m.on_chip_bytes, "precondition: spills");
        assert!(m.dram_traffic(&w) > 2 * (w.bytes_a() + w.bytes_b() + w.bytes_c()));
    }

    #[test]
    fn small_products_stay_on_chip() {
        let a = gen::uniform(100, 100, 600, 13);
        let w = Workload::measure(&a, &a);
        let m = OuterSpaceModel::default();
        assert!(m.partial_bytes(&w) <= m.on_chip_bytes, "precondition: fits");
        assert_eq!(m.dram_traffic(&w), w.bytes_a() + w.bytes_b() + w.bytes_c());
    }

    #[test]
    fn on_chip_runs_are_much_faster_per_flop() {
        let small =
            Workload::measure(&gen::uniform(100, 100, 600, 14), &gen::uniform(100, 100, 600, 14));
        let large = {
            let a = gen::uniform(2_000, 2_000, 30_000, 15);
            Workload::measure(&a, &a)
        };
        let m = OuterSpaceModel::default();
        let t_small = m.run(&small).time_s / small.flops as f64;
        let t_large = m.run(&large).time_s / large.flops as f64;
        assert!(t_small < t_large, "per-flop time should grow once spilling starts");
    }
}
