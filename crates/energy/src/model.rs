//! End-to-end energy for a run: compute power × time + DRAM traffic.

use crate::{DramEnergy, MatRaptorFloorplan};

/// Energy model for one platform (the accelerator or a baseline).
///
/// `energy = power_w × time_s + dram.energy(traffic)` — the same
/// decomposition the paper uses (McPAT/measured core power plus the DRAM
/// energy-per-bit figures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Compute (core/accelerator) power in watts, already at the node
    /// where the comparison happens.
    pub compute_power_w: f64,
    /// DRAM interface energy.
    pub dram: DramEnergy,
}

impl EnergyModel {
    /// MatRaptor at 28 nm with the default floorplan over HBM2.
    pub fn matraptor() -> Self {
        EnergyModel {
            compute_power_w: MatRaptorFloorplan::default().power_w(),
            dram: DramEnergy::hbm2(),
        }
    }

    /// Total energy in joules for a run of `time_s` seconds moving
    /// `dram_bytes` of DRAM traffic.
    pub fn energy_j(&self, time_s: f64, dram_bytes: u64) -> f64 {
        self.compute_power_w * time_s + self.dram.energy_j(dram_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matraptor_power_matches_table1() {
        let m = EnergyModel::matraptor();
        assert!((m.compute_power_w - 1.34495).abs() < 0.001);
    }

    #[test]
    fn energy_combines_compute_and_dram() {
        let m = EnergyModel { compute_power_w: 2.0, dram: DramEnergy { pj_per_bit: 10.0 } };
        // 1 s at 2 W + 1e9 bytes * 8 bits * 10 pJ = 2 + 0.08 J.
        let e = m.energy_j(1.0, 1_000_000_000);
        assert!((e - 2.08).abs() < 1e-9);
    }
}
