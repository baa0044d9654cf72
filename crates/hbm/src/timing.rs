//! HBM timing parameter sets.

use rip_units::{DataRate, DataSize, TimeDelta};
use serde::{Deserialize, Serialize};

/// The timing rule set enforced by every [`crate::Channel`].
///
/// The reference values ([`HbmTiming::hbm4`]) are chosen to match the two
/// quantities the paper pins down about HBM4 (\[34\] in the paper):
///
/// * "about 30 ns just to activate and close (precharge) banks" —
///   `t_rcd + t_rp = 16 + 14 = 30 ns`. `t_ras` is set equal to `t_rcd`
///   so that the full ACT→PRE envelope of a short access is exactly that
///   30 ns figure: the paper gives the random-access baselines the
///   benefit of the doubt, and a longer (more realistic, ~29 ns) tRAS
///   would only make those baselines worse while leaving PFI unaffected
///   (PFI's 1 KiB segments keep rows open past tRAS anyway);
/// * write/read phase transitions totalling "about 2 % of the cycle
///   duration" — turnaround penalties of ~1 ns against a 51.2 ns frame
///   phase per direction.
///
/// Everything else (tFAW, refresh) is set to representative HBM-class
/// values; the PFI schedule is *validated* against all of them on every
/// simulated command, so any inconsistency would fail loudly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HbmTiming {
    /// ACT → first column access (row open latency).
    pub t_rcd: TimeDelta,
    /// PRE duration (row close latency).
    pub t_rp: TimeDelta,
    /// Minimum time a row must stay open (ACT → PRE).
    pub t_ras: TimeDelta,
    /// Four-activation window: at most 4 ACTs per channel in any window
    /// of this length (instantaneous-current limit).
    pub t_faw: TimeDelta,
    /// Extra bus gap when a read follows a write on the same channel.
    pub t_wtr: TimeDelta,
    /// Extra bus gap when a write follows a read on the same channel.
    pub t_rtw: TimeDelta,
    /// Single-bank refresh (REFsb) duration; the bank is unusable while
    /// refreshing.
    pub t_rfc_sb: TimeDelta,
    /// Average interval at which *each bank* must be refreshed once.
    pub t_refi_sb: TimeDelta,
}

impl HbmTiming {
    /// Reference HBM4 timing set (see type-level docs for provenance).
    pub const fn hbm4() -> Self {
        HbmTiming {
            t_rcd: TimeDelta::from_ns(16),
            t_rp: TimeDelta::from_ns(14),
            t_ras: TimeDelta::from_ns(16),
            t_faw: TimeDelta::from_ns(40),
            t_wtr: TimeDelta::from_ns(1),
            t_rtw: TimeDelta::from_ns(1),
            t_rfc_sb: TimeDelta::from_ns(120),
            // 64 banks share a 3.9 us all-bank REFI budget -> each bank
            // roughly every 3.9 us in steady state; REFsb gives slack.
            t_refi_sb: TimeDelta::from_ns(3_900),
        }
    }

    /// The worst-case random-access overhead the paper quotes: the cost
    /// of opening and closing a row around an access (tRCD + tRP).
    pub fn random_access_overhead(&self) -> TimeDelta {
        self.t_rcd + self.t_rp
    }

    /// Minimum ACT-to-ACT interval for the *same* bank (tRC = tRAS + tRP).
    pub fn t_rc(&self) -> TimeDelta {
        self.t_ras + self.t_rp
    }

    /// Validate internal consistency (e.g. tRAS ≥ tRCD).
    pub fn validate(&self) -> Result<(), String> {
        if self.t_ras < self.t_rcd {
            return Err(format!(
                "tRAS ({}) must be at least tRCD ({})",
                self.t_ras, self.t_rcd
            ));
        }
        if self.t_faw.is_zero() {
            return Err("tFAW must be positive".into());
        }
        if self.t_refi_sb < self.t_rfc_sb {
            return Err(format!(
                "tREFIsb ({}) must exceed tRFCsb ({})",
                self.t_refi_sb, self.t_rfc_sb
            ));
        }
        Ok(())
    }
}

impl Default for HbmTiming {
    fn default() -> Self {
        Self::hbm4()
    }
}

/// Convenience: exact transfer time of `size` on a channel of `rate`.
pub(crate) fn bus_time(rate: DataRate, size: DataSize) -> TimeDelta {
    rate.transfer_time(size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm4_matches_paper_random_access_penalty() {
        let t = HbmTiming::hbm4();
        assert_eq!(t.random_access_overhead(), TimeDelta::from_ns(30));
        t.validate().expect("reference timing must be valid");
    }

    #[test]
    fn t_rc_is_ras_plus_rp() {
        let t = HbmTiming::hbm4();
        assert_eq!(t.t_rc(), TimeDelta::from_ns(30));
    }

    #[test]
    fn validation_rejects_inconsistent_sets() {
        let mut t = HbmTiming::hbm4();
        t.t_ras = TimeDelta::from_ns(1);
        assert!(t.validate().is_err());

        let mut t = HbmTiming::hbm4();
        t.t_faw = TimeDelta::ZERO;
        assert!(t.validate().is_err());

        let mut t = HbmTiming::hbm4();
        t.t_refi_sb = TimeDelta::from_ns(1);
        assert!(t.validate().is_err());
    }
}
