//! The package-level optical front end (§2.2 "Modules"/"Operation").

use rip_units::DataRate;
use serde::{Deserialize, Serialize};

use crate::split::{SplitMap, SplitPattern};

/// The optical front end of one router package: `N` fiber ribbons of `F`
/// fibers, each fiber carrying `W` WDM wavelengths of `R` each, passively
/// coupled into waveguides and spatially split over `H` HBM switches.
///
/// The same `N` ribbons also serve as the egress (each fiber carries a
/// separate set of `W` output wavelengths), so total package I/O is
/// `2·N·F·W·R`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontEnd {
    /// N — fiber ribbons (and ports per HBM switch).
    pub ribbons: usize,
    /// F — fibers per ribbon.
    pub fibers_per_ribbon: usize,
    /// W — WDM wavelengths per fiber, per direction.
    pub wavelengths_per_fiber: usize,
    /// R — rate per wavelength.
    pub rate_per_wavelength: DataRate,
    split: SplitMap,
}

impl FrontEnd {
    /// Build a front end splitting over `switches` with `pattern`.
    pub fn new(
        ribbons: usize,
        fibers_per_ribbon: usize,
        wavelengths_per_fiber: usize,
        rate_per_wavelength: DataRate,
        switches: usize,
        pattern: SplitPattern,
    ) -> Result<Self, String> {
        if wavelengths_per_fiber == 0 || rate_per_wavelength.is_zero() {
            return Err("wavelength count and rate must be positive".into());
        }
        let split = SplitMap::new(ribbons, fibers_per_ribbon, switches, pattern)?;
        Ok(FrontEnd {
            ribbons,
            fibers_per_ribbon,
            wavelengths_per_fiber,
            rate_per_wavelength,
            split,
        })
    }

    /// The paper's reference front end: N=16 ribbons, F=64 fibers, W=16
    /// wavelengths at R=40 Gb/s, split over H=16 switches.
    pub fn reference(pattern: SplitPattern) -> Self {
        FrontEnd::new(16, 64, 16, DataRate::from_gbps(40), 16, pattern)
            .expect("reference front end is valid")
    }

    /// The fiber split map.
    pub fn split(&self) -> &SplitMap {
        &self.split
    }

    /// H — the number of HBM switches behind this front end.
    pub fn switches(&self) -> usize {
        self.split.switches()
    }

    /// α — fibers per (ribbon, switch) pair.
    pub fn alpha(&self) -> usize {
        self.split.alpha()
    }

    /// Nominal rate of one fiber (`W · R`).
    pub fn fiber_rate(&self) -> DataRate {
        self.rate_per_wavelength * self.wavelengths_per_fiber as u64
    }

    /// Rate of one HBM switch port (`α · W · R` — the paper's P).
    pub fn port_rate(&self) -> DataRate {
        self.fiber_rate() * self.alpha() as u64
    }

    /// Total ingress rate (`N · F · W · R`); egress is the same again.
    pub fn total_ingress(&self) -> DataRate {
        self.fiber_rate() * (self.ribbons * self.fibers_per_ribbon) as u64
    }

    /// Total package I/O, both directions (`2 · N · F · W · R`).
    pub fn total_io(&self) -> DataRate {
        self.total_ingress() * 2
    }

    /// Per-switch I/O (ingress + egress) — what each HBM switch's memory
    /// system must sustain (`2·N·F·W·R / H`).
    pub fn per_switch_io(&self) -> DataRate {
        self.total_io() / self.switches() as u64
    }

    /// The split rebuilt with dead switch planes excluded — see
    /// [`SplitMap::degraded`].
    pub fn degraded_split(&self, alive: &[bool]) -> Result<SplitMap, String> {
        self.split.degraded(alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_paper_rates() {
        let fe = FrontEnd::reference(SplitPattern::Sequential);
        assert_eq!(fe.alpha(), 4);
        // Fiber: 16 x 40 = 640 Gb/s. Port P = 4 x 640 = 2.56 Tb/s.
        assert_eq!(fe.fiber_rate(), DataRate::from_gbps(640));
        assert_eq!(fe.port_rate(), DataRate::from_gbps(2560));
        // Total ingress 655.36 Tb/s; total I/O 1.31 Pb/s.
        assert_eq!(fe.total_ingress().bps(), 655_360_000_000_000);
        assert_eq!(fe.total_io().bps(), 1_310_720_000_000_000);
        // Per-switch memory I/O: 81.92 Tb/s, matching 4 HBM4 stacks.
        assert_eq!(fe.per_switch_io().tbps(), 81.92);
    }

    #[test]
    fn degraded_split_excludes_dead_plane() {
        let fe = FrontEnd::new(2, 8, 4, DataRate::from_gbps(10), 4, SplitPattern::Striped).unwrap();
        let d = fe.degraded_split(&[true, false, true, true]).unwrap();
        for r in 0..2 {
            assert!(d.fibers_for(r, 1).is_empty());
            let total: usize = [0, 2, 3].iter().map(|&s| d.fibers_for(r, s).len()).sum();
            assert_eq!(total, 8);
        }
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(FrontEnd::new(1, 8, 0, DataRate::from_gbps(40), 4, SplitPattern::Striped).is_err());
        assert!(FrontEnd::new(1, 8, 16, DataRate::ZERO, 4, SplitPattern::Striped).is_err());
        assert!(
            FrontEnd::new(1, 9, 16, DataRate::from_gbps(40), 4, SplitPattern::Striped).is_err()
        );
    }
}
