//! O/E–E/O conversion energy accounting.

use rip_units::{DataRate, DataSize, Energy, Power};
use serde::{Deserialize, Serialize};

/// One optical↔electrical conversion stage with pJ/bit energy metering.
///
/// §4 of the paper budgets ≈1.15 pJ/bit for commercially available
/// silicon photonics; the SPS architecture's entire point (§2.1 Idea 3)
/// is that a packet pays this exactly twice (one O/E on ingress, one E/O
/// on egress) instead of six times in a three-stage design.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OeoConverter {
    energy_per_bit: Energy,
    bits_converted: u64,
    conversions: u64,
}

impl OeoConverter {
    /// Commercial silicon photonics figure used by the paper (§4).
    pub const REFERENCE_PJ_PER_BIT: f64 = 1.15;

    /// A converter with the given energy figure.
    pub fn new(energy_per_bit: Energy) -> Self {
        OeoConverter {
            energy_per_bit,
            bits_converted: 0,
            conversions: 0,
        }
    }

    /// The paper's reference converter (1.15 pJ/bit).
    pub fn reference() -> Self {
        OeoConverter::new(Energy::from_pj_per_bit(Self::REFERENCE_PJ_PER_BIT))
    }

    /// Record the conversion of `size` through this stage.
    pub fn convert(&mut self, size: DataSize) {
        self.bits_converted += size.bits();
        self.conversions += 1;
    }

    /// Total data converted.
    pub fn total_converted(&self) -> DataSize {
        DataSize::from_bits(self.bits_converted)
    }

    /// Number of conversion events recorded.
    pub fn conversions(&self) -> u64 {
        self.conversions
    }

    /// Total energy dissipated so far, in joules.
    pub fn energy_joules(&self) -> f64 {
        self.energy_per_bit.pj_per_bit() * self.bits_converted as f64 * 1e-12
    }

    /// Sustained power when converting a stream at `rate`.
    pub fn power_at(&self, rate: DataRate) -> Power {
        self.energy_per_bit.power_at(rate)
    }

    /// The energy figure of this stage.
    pub fn energy_per_bit(&self) -> Energy {
        self.energy_per_bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_power_matches_paper() {
        // 81.92 Tb/s of OEO at 1.15 pJ/bit ~= 94 W per HBM switch.
        let c = OeoConverter::reference();
        let p = c.power_at(DataRate::from_gbps(81_920));
        assert!((p.watts() - 94.2).abs() < 0.2, "{}", p.watts());
    }

    #[test]
    fn energy_accumulates() {
        let mut c = OeoConverter::reference();
        c.convert(DataSize::from_bytes(1500));
        c.convert(DataSize::from_bytes(64));
        assert_eq!(c.conversions(), 2);
        assert_eq!(c.total_converted(), DataSize::from_bytes(1564));
        let expect = 1.15 * 1564.0 * 8.0 * 1e-12;
        assert!((c.energy_joules() - expect).abs() < 1e-18);
    }
}
