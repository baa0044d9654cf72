//! Data rates in bits per second, with exact transfer-time arithmetic.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, Div, Mul};
use serde::{Deserialize, Serialize};

use crate::{DataSize, TimeDelta, PS_PER_S};

/// A data rate, stored in **bits per second**.
///
/// Transfer times are computed exactly with 128-bit intermediates and
/// round **up** to the next picosecond: a device is never credited with
/// finishing earlier than physically possible, which keeps simulated
/// utilization conservative.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct DataRate {
    bps: u64,
}

impl DataRate {
    /// Zero rate.
    pub const ZERO: DataRate = DataRate { bps: 0 };

    /// Construct from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        DataRate { bps }
    }

    /// Construct from gigabits per second (decimal, as in "40 Gb/s").
    pub const fn from_gbps(gbps: u64) -> Self {
        DataRate {
            bps: gbps * 1_000_000_000,
        }
    }

    /// Construct from terabits per second (decimal).
    pub const fn from_tbps(tbps: u64) -> Self {
        DataRate {
            bps: tbps * 1_000_000_000_000,
        }
    }

    /// Construct from megabits per second (decimal).
    pub const fn from_mbps(mbps: u64) -> Self {
        DataRate {
            bps: mbps * 1_000_000,
        }
    }

    /// The rate in bits per second.
    pub const fn bps(self) -> u64 {
        self.bps
    }

    /// The rate in gigabits per second.
    pub fn gbps(self) -> f64 {
        self.bps as f64 / 1e9
    }

    /// The rate in terabits per second.
    pub fn tbps(self) -> f64 {
        self.bps as f64 / 1e12
    }

    /// True if zero.
    pub const fn is_zero(self) -> bool {
        self.bps == 0
    }

    /// Exact time to transfer `size` at this rate, rounded **up** to the
    /// next picosecond.
    ///
    /// # Panics
    /// Panics if the rate is zero and the size is non-zero.
    pub fn transfer_time(self, size: DataSize) -> TimeDelta {
        if size.is_zero() {
            return TimeDelta::ZERO;
        }
        assert!(self.bps > 0, "cannot transfer data at zero rate");
        // `bits × 10¹²` fits a u64 up to ~1.84·10⁷ bits (every packet
        // and frame); only larger volumes need the 128-bit quotient.
        let ps = match size.bits().checked_mul(PS_PER_S) {
            Some(num) => num.div_ceil(self.bps),
            None => wide_transfer_ps(size.bits(), self.bps),
        };
        TimeDelta::from_ps(ps)
    }

    /// How much data this rate delivers in `dt` (rounded down to whole bits).
    pub fn data_in(self, dt: TimeDelta) -> DataSize {
        let bits = self.bps as u128 * dt.as_ps() as u128 / PS_PER_S as u128;
        DataSize::from_bits(u64::try_from(bits).expect("data volume overflows u64 bits"))
    }

    /// Scale the rate by a (speedup) factor, rounding to the nearest b/s.
    pub fn scale(self, factor: f64) -> DataRate {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid rate scale factor"
        );
        DataRate {
            bps: (self.bps as f64 * factor).round() as u64,
        }
    }

    /// Fraction `self / total`, as f64.
    pub fn fraction_of(self, total: DataRate) -> f64 {
        self.bps as f64 / total.bps as f64
    }
}

impl Add for DataRate {
    type Output = DataRate;
    fn add(self, rhs: DataRate) -> DataRate {
        DataRate {
            bps: self.bps + rhs.bps,
        }
    }
}

impl Mul<u64> for DataRate {
    type Output = DataRate;
    fn mul(self, rhs: u64) -> DataRate {
        DataRate {
            bps: self.bps * rhs,
        }
    }
}

impl Mul<DataRate> for u64 {
    type Output = DataRate;
    fn mul(self, rhs: DataRate) -> DataRate {
        rhs * self
    }
}

impl Div<u64> for DataRate {
    type Output = DataRate;
    fn div(self, rhs: u64) -> DataRate {
        DataRate {
            bps: self.bps / rhs,
        }
    }
}

impl Div<DataRate> for DataRate {
    type Output = f64;
    fn div(self, rhs: DataRate) -> f64 {
        self.bps as f64 / rhs.bps as f64
    }
}

impl Sum for DataRate {
    fn sum<I: Iterator<Item = DataRate>>(iter: I) -> DataRate {
        iter.fold(DataRate::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bps = self.bps;
        if bps >= 1_000_000_000_000 {
            write!(f, "{:.2} Tb/s", self.tbps())
        } else if bps >= 1_000_000_000 {
            write!(f, "{:.2} Gb/s", self.gbps())
        } else if bps >= 1_000_000 {
            write!(f, "{:.2} Mb/s", bps as f64 / 1e6)
        } else {
            write!(f, "{bps} b/s")
        }
    }
}

/// `⌈bits × 10¹² / bps⌉` with a 128-bit intermediate.
///
/// # Panics
/// Panics if the quotient overflows u64 picoseconds.
fn wide_transfer_ps(bits: u64, bps: u64) -> u64 {
    let ps = (bits as u128 * PS_PER_S as u128).div_ceil(bps as u128);
    u64::try_from(ps).expect("transfer time overflows u64 picoseconds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_rates() {
        // Per-wavelength rate R = 40 Gb/s; per-port P = alpha*W*R = 2.56 Tb/s.
        let r = DataRate::from_gbps(40);
        let p = r * (4 * 16);
        assert_eq!(p, DataRate::from_gbps(2560));
        // Total I/O per direction: N*F*W*R = 655.36 Tb/s.
        let total = r * (16 * 64 * 16);
        assert_eq!(total.bps(), 655_360_000_000_000);
        // HBM4 stack: 2048 bits * 10 Gb/s = 20.48 Tb/s; group of 4 = 81.92.
        let stack = DataRate::from_gbps(10) * 2048;
        assert_eq!(stack.tbps(), 20.48);
        assert_eq!((stack * 4).tbps(), 81.92);
    }

    #[test]
    fn transfer_times_are_exact() {
        // 1 KiB over one 80 GB/s HBM channel = 12.8 ns.
        let ch = DataRate::from_gbps(640);
        assert_eq!(
            ch.transfer_time(DataSize::from_kib(1)),
            TimeDelta::from_ps(12_800)
        );
        // 64 B over the same channel = 0.8 ns.
        assert_eq!(
            ch.transfer_time(DataSize::from_bytes(64)),
            TimeDelta::from_ps(800)
        );
        // 1500 B = 18.75 ns.
        assert_eq!(
            ch.transfer_time(DataSize::from_bytes(1500)),
            TimeDelta::from_ps(18_750)
        );
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 1 bit at 3 bps = 1/3 s -> rounds up, never down.
        let r = DataRate::from_bps(3);
        let t = r.transfer_time(DataSize::from_bits(1));
        assert_eq!(t.as_ps(), 333_333_333_334);
    }

    #[test]
    fn zero_size_takes_zero_time() {
        assert_eq!(
            DataRate::ZERO.transfer_time(DataSize::ZERO),
            TimeDelta::ZERO
        );
    }

    /// The largest bit count whose `bits × 10¹²` still fits a u64.
    const FAST_PATH_MAX_BITS: u64 = u64::MAX / PS_PER_S;

    #[test]
    fn fast_path_matches_the_wide_division_around_the_overflow_boundary() {
        assert_eq!(FAST_PATH_MAX_BITS, 18_446_744);
        for bits in FAST_PATH_MAX_BITS - 64..=FAST_PATH_MAX_BITS + 64 {
            for bps in [1_000, 3_000_000_007, 40_000_000_000, 2_560_000_000_000] {
                let t = DataRate::from_bps(bps).transfer_time(DataSize::from_bits(bits));
                assert_eq!(
                    t.as_ps(),
                    wide_transfer_ps(bits, bps),
                    "{bits} b at {bps} b/s"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn fast_path_matches_the_wide_division(
            bits in 1u64..(FAST_PATH_MAX_BITS * 4),
            bps in 1_000u64..u64::MAX,
        ) {
            let t = DataRate::from_bps(bps).transfer_time(DataSize::from_bits(bits));
            proptest::prop_assert_eq!(t.as_ps(), wide_transfer_ps(bits, bps));
        }
    }

    #[test]
    #[should_panic(expected = "zero rate")]
    fn zero_rate_panics() {
        DataRate::ZERO.transfer_time(DataSize::from_bytes(1));
    }

    #[test]
    fn data_in_inverts_transfer_time() {
        let r = DataRate::from_gbps(40);
        let size = DataSize::from_bytes(1500);
        let t = r.transfer_time(size);
        let back = r.data_in(t);
        // Round-trip can only over-deliver by < 1 bit worth of time rounding.
        assert!(back.bits() >= size.bits());
        assert!(back.bits() - size.bits() <= 1);
    }

    #[test]
    fn scaling_and_fractions() {
        let r = DataRate::from_gbps(100);
        assert_eq!(r.scale(1.5), DataRate::from_gbps(150));
        assert!((DataRate::from_gbps(50).fraction_of(r) - 0.5).abs() < 1e-12);
        let total: DataRate = vec![r, r, r].into_iter().sum();
        assert_eq!(total, DataRate::from_gbps(300));
    }

    #[test]
    fn display_formats() {
        assert_eq!(DataRate::from_tbps(2).to_string(), "2.00 Tb/s");
        assert_eq!(DataRate::from_gbps(40).to_string(), "40.00 Gb/s");
        assert_eq!(DataRate::from_mbps(5).to_string(), "5.00 Mb/s");
        assert_eq!(DataRate::from_bps(12).to_string(), "12 b/s");
    }
}
