//! DRAM energy figures.

/// Energy per bit for the memory technologies in the evaluation.
///
/// The paper takes HBM energy from the JEDEC HBM2 announcement it cites
/// (\[45\]) and GDDR5X figures from \[3\]; DDR4 comes from the memory-wall
/// lecture notes it cites (\[6\]). The constants below are the commonly
/// quoted pJ/bit values from those sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramEnergy {
    /// Energy per bit in picojoules.
    pub pj_per_bit: f64,
}

impl DramEnergy {
    /// HBM2: ~3.9 pJ/bit.
    pub fn hbm2() -> Self {
        DramEnergy { pj_per_bit: 3.9 }
    }

    /// DDR4: ~20 pJ/bit including the channel.
    pub fn ddr4() -> Self {
        DramEnergy { pj_per_bit: 20.0 }
    }

    /// GDDR5X: ~7 pJ/bit.
    pub fn gddr5x() -> Self {
        DramEnergy { pj_per_bit: 7.0 }
    }

    /// Energy in joules for moving `bytes` across the interface.
    pub fn energy_j(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 * self.pj_per_bit * 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_linearly() {
        let h = DramEnergy::hbm2();
        assert!((h.energy_j(2_000) - 2.0 * h.energy_j(1_000)).abs() < 1e-15);
    }

    #[test]
    fn one_gigabyte_hbm_costs_tens_of_millijoules() {
        let j = DramEnergy::hbm2().energy_j(1 << 30);
        assert!(j > 0.02 && j < 0.05, "{j} J");
    }

    #[test]
    fn ddr4_costs_more_than_hbm() {
        assert!(DramEnergy::ddr4().energy_j(100) > DramEnergy::hbm2().energy_j(100));
    }
}
