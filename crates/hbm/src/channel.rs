//! One HBM channel: banks + shared data bus + command legality rules.

use rip_sim::stats::{BusyTime, Counter};
use rip_units::{DataRate, DataSize, SimTime, TimeDelta};
use serde::{Deserialize, Serialize};

use crate::bank::{Bank, BankState};
use crate::timing::{bus_time, HbmTiming};

/// Direction of a column access on the data bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Memory read (data leaves the device).
    Read,
    /// Memory write (data enters the device).
    Write,
}

/// A command was issued in violation of a timing or state rule.
///
/// Controllers are expected to *query* the `earliest_*` methods and never
/// trigger these; the checks exist so that a buggy schedule fails loudly
/// instead of silently over-reporting bandwidth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimingError {
    /// ACT issued before the bank finished precharging or refreshing.
    BankNotIdleYet {
        /// Offending bank.
        bank: usize,
        /// When the bank becomes usable.
        idle_at: SimTime,
    },
    /// ACT issued to a bank that already has a row open.
    RowAlreadyOpen {
        /// Offending bank.
        bank: usize,
    },
    /// ACT would be the 5th activation within the tFAW window.
    FawViolation {
        /// Earliest legal ACT time.
        earliest: SimTime,
    },
    /// Column access to an idle bank or with a row mismatch.
    RowNotOpen {
        /// Offending bank.
        bank: usize,
        /// Row requested by the access.
        want_row: u64,
        /// Row actually open, if any.
        open_row: Option<u64>,
    },
    /// Column access before ACT → CAS latency (tRCD) elapsed.
    CasTooEarly {
        /// Earliest legal CAS time.
        earliest: SimTime,
    },
    /// Column access while the data bus is still busy (incl. turnaround).
    BusBusy {
        /// Earliest legal CAS time.
        earliest: SimTime,
    },
    /// PRE issued before tRAS or before the last transfer completed.
    PreTooEarly {
        /// Earliest legal PRE time.
        earliest: SimTime,
    },
    /// PRE issued to an idle bank.
    PreOnIdleBank {
        /// Offending bank.
        bank: usize,
    },
    /// REFsb issued to a non-idle or not-yet-idle bank.
    RefreshNotIdle {
        /// Offending bank.
        bank: usize,
    },
    /// Bank index out of range.
    NoSuchBank {
        /// Offending bank.
        bank: usize,
        /// Number of banks in this channel.
        banks: usize,
    },
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingError::BankNotIdleYet { bank, idle_at } => {
                write!(f, "bank {bank} not idle until {idle_at}")
            }
            TimingError::RowAlreadyOpen { bank } => write!(f, "bank {bank} already has a row open"),
            TimingError::FawViolation { earliest } => {
                write!(f, "tFAW violation; earliest legal ACT at {earliest}")
            }
            TimingError::RowNotOpen {
                bank,
                want_row,
                open_row,
            } => write!(
                f,
                "bank {bank}: access wants row {want_row} but open row is {open_row:?}"
            ),
            TimingError::CasTooEarly { earliest } => {
                write!(f, "CAS before tRCD elapsed; earliest {earliest}")
            }
            TimingError::BusBusy { earliest } => write!(f, "data bus busy until {earliest}"),
            TimingError::PreTooEarly { earliest } => {
                write!(f, "PRE too early; earliest {earliest}")
            }
            TimingError::PreOnIdleBank { bank } => write!(f, "PRE issued to idle bank {bank}"),
            TimingError::RefreshNotIdle { bank } => {
                write!(f, "REFsb issued to non-idle bank {bank}")
            }
            TimingError::NoSuchBank { bank, banks } => {
                write!(f, "bank {bank} out of range (channel has {banks})")
            }
        }
    }
}

impl std::error::Error for TimingError {}

/// Sliding tFAW window: issue times of up to the last 4 ACTs, stored in
/// a fixed in-struct ring (no heap indirection on the command hot
/// path). ACTs are pushed in non-decreasing time order, so the oldest
/// entry is always the tFAW anchor.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct ActWindow {
    times: [SimTime; 4],
    /// Index of the oldest entry when full.
    head: u8,
    len: u8,
}

impl ActWindow {
    /// Whether 4 ACTs are already in the window.
    fn is_full(&self) -> bool {
        self.len == 4
    }

    /// The oldest ACT time (only meaningful when full).
    fn oldest(&self) -> SimTime {
        debug_assert!(self.is_full());
        self.times[self.head as usize]
    }

    /// Record an ACT, evicting the oldest entry once full.
    fn push(&mut self, t: SimTime) {
        if self.is_full() {
            self.times[self.head as usize] = t;
            self.head = (self.head + 1) % 4;
        } else {
            self.times[self.len as usize] = t;
            self.len += 1;
        }
    }
}

/// One command as issued on a channel, for replay by an independent
/// timing-conformance checker (recording is off by default; see
/// [`Channel::set_record_commands`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HbmCommand {
    /// Issue time of the command.
    pub at: SimTime,
    /// Target bank.
    pub bank: usize,
    /// Which command, with its operands.
    pub kind: HbmCommandKind,
}

/// The command kinds a [`Channel`] can issue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HbmCommandKind {
    /// ACT — open `row`.
    Activate {
        /// Row opened.
        row: u64,
    },
    /// RD column access occupying the data bus until `end`.
    Read {
        /// Transfer size.
        size: DataSize,
        /// Bus-release time.
        end: SimTime,
    },
    /// WR column access occupying the data bus until `end`.
    Write {
        /// Transfer size.
        size: DataSize,
        /// Bus-release time.
        end: SimTime,
    },
    /// PRE — close the open row.
    Precharge,
    /// REFsb — single-bank refresh.
    RefreshSb,
}

/// Command and bandwidth accounting for one channel.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChannelStats {
    /// ACT commands issued.
    pub activates: Counter,
    /// PRE commands issued.
    pub precharges: Counter,
    /// RD column accesses issued.
    pub reads: Counter,
    /// WR column accesses issued.
    pub writes: Counter,
    /// REFsb commands issued.
    pub refreshes: Counter,
    /// Column accesses that reused the row opened by a prior access
    /// (any CAS after the first one under the same ACT).
    pub row_hits: Counter,
    /// Column accesses that paid a fresh ACT (the first CAS under each
    /// ACT).
    pub row_misses: Counter,
    /// Bits read off the device.
    pub bits_read: u64,
    /// Bits written into the device.
    pub bits_written: u64,
    /// Total data-bus occupancy (transfers only, not turnaround gaps).
    pub bus_busy: BusyTime,
    /// Bus time lost to read↔write turnaround gaps.
    pub turnaround: BusyTime,
    /// Time ACTs spent stalled behind the tFAW window beyond every
    /// other constraint (bank idle-at and ACT ordering).
    pub faw_stall: BusyTime,
}

impl ChannelStats {
    /// Total data moved in either direction.
    pub fn total_data(&self) -> DataSize {
        DataSize::from_bits(self.bits_read + self.bits_written)
    }

    /// Fraction of column accesses that hit an already-open row
    /// (`None` before any access).
    pub fn row_hit_ratio(&self) -> Option<f64> {
        let total = self.row_hits.get() + self.row_misses.get();
        if total == 0 {
            None
        } else {
            Some(self.row_hits.get() as f64 / total as f64)
        }
    }
}

/// One 64-bit HBM channel with its banks, data bus and rule checker.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Channel {
    timing: HbmTiming,
    rate: DataRate,
    banks: Vec<Bank>,
    /// When the data bus frees up.
    bus_free_at: SimTime,
    /// Direction of the last column access (for turnaround penalties).
    last_dir: Option<Direction>,
    /// Times of up to the last 4 ACTs (sliding tFAW window).
    recent_acts: ActWindow,
    /// Issue time of the most recent ACT (ACTs must be issued in
    /// non-decreasing time order for the tFAW window to be sound).
    last_act: SimTime,
    stats: ChannelStats,
    /// Busy time (ACT → end of PRE/REFsb) accumulated per bank.
    bank_busy: Vec<TimeDelta>,
    /// When `true`, every issued command is appended to `commands`.
    record_commands: bool,
    /// With a window set, only commands issued inside `[start, end)`
    /// are kept — the capture-time filter behind bounded trace exports.
    record_window: Option<(SimTime, SimTime)>,
    commands: Vec<HbmCommand>,
}

impl Channel {
    /// A channel with `banks` banks, transferring at `rate`.
    pub fn new(timing: HbmTiming, rate: DataRate, banks: usize) -> Self {
        timing.validate().expect("invalid HBM timing set");
        assert!(banks > 0, "channel must have at least one bank");
        Channel {
            timing,
            rate,
            banks: vec![Bank::new(); banks],
            bus_free_at: SimTime::ZERO,
            last_dir: None,
            recent_acts: ActWindow::default(),
            last_act: SimTime::ZERO,
            stats: ChannelStats::default(),
            bank_busy: vec![TimeDelta::ZERO; banks],
            record_commands: false,
            record_window: None,
            commands: Vec::new(),
        }
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Peak transfer rate of the data bus.
    pub fn rate(&self) -> DataRate {
        self.rate
    }

    /// The timing rule set in force.
    pub fn timing(&self) -> &HbmTiming {
        &self.timing
    }

    /// Read-only view of a bank.
    pub fn bank(&self, bank: usize) -> &Bank {
        &self.banks[bank]
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// When the data bus frees up.
    pub fn bus_free_at(&self) -> SimTime {
        self.bus_free_at
    }

    /// Busy time (ACT until PRE/REFsb completion) accumulated by `bank`.
    pub fn bank_busy(&self, bank: usize) -> TimeDelta {
        self.bank_busy[bank]
    }

    /// Toggle command recording. When on, every ACT/RD/WR/PRE/REFsb is
    /// appended to an in-order log for replay by an external
    /// timing-conformance checker. Off by default (zero cost).
    pub fn set_record_commands(&mut self, on: bool) {
        self.record_commands = on;
    }

    /// The recorded command stream, in issue order.
    pub fn commands(&self) -> &[HbmCommand] {
        &self.commands
    }

    /// Restrict recording to commands issued inside `[start, end)`.
    /// Commands have derived completion spans (ACT covers tRCD, REFsb
    /// covers tRFCsb), so a caller wanting every command *overlapping*
    /// an interval should widen `start` by its own slack. `None` by
    /// default: record everything.
    pub fn set_record_window(&mut self, window: Option<(SimTime, SimTime)>) {
        self.record_window = window;
    }

    fn log(&mut self, at: SimTime, bank: usize, kind: HbmCommandKind) {
        if self.record_commands {
            if let Some((start, end)) = self.record_window {
                if at < start || at >= end {
                    return;
                }
            }
            self.commands.push(HbmCommand { at, bank, kind });
        }
    }

    fn check_bank(&self, bank: usize) -> Result<(), TimingError> {
        if bank >= self.banks.len() {
            Err(TimingError::NoSuchBank {
                bank,
                banks: self.banks.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Earliest time an ACT to `bank` may be issued: the bank's idle-at,
    /// the tFAW four-activation window, and the channel's ACT-order gate
    /// (ACTs are issued in non-decreasing time order so the sliding
    /// window stays sound).
    pub fn earliest_activate(&self, bank: usize) -> SimTime {
        let b = &self.banks[bank];
        let faw_gate = if self.recent_acts.is_full() {
            self.recent_acts.oldest() + self.timing.t_faw
        } else {
            SimTime::ZERO
        };
        b.idle_at().max(faw_gate).max(self.last_act)
    }

    /// Issue an ACT: open `row` in `bank` at time `now`.
    ///
    /// Returns when the row is ready for column accesses (now + tRCD).
    pub fn activate(
        &mut self,
        now: SimTime,
        bank: usize,
        row: u64,
    ) -> Result<SimTime, TimingError> {
        self.check_bank(bank)?;
        let b = &self.banks[bank];
        if !b.is_idle() {
            return Err(TimingError::RowAlreadyOpen { bank });
        }
        if now < b.idle_at() {
            return Err(TimingError::BankNotIdleYet {
                bank,
                idle_at: b.idle_at(),
            });
        }
        if self.recent_acts.is_full() {
            let earliest = self.recent_acts.oldest() + self.timing.t_faw;
            if now < earliest {
                return Err(TimingError::FawViolation { earliest });
            }
        }
        assert!(
            now >= self.last_act,
            "ACT issued out of time order: {now} < last ACT {}",
            self.last_act
        );
        // How long the tFAW window held this ACT back beyond every
        // other constraint — the "stall" the telemetry layer reports.
        if self.recent_acts.is_full() {
            let faw_gate = self.recent_acts.oldest() + self.timing.t_faw;
            let other_gate = b.idle_at().max(self.last_act);
            if faw_gate > other_gate {
                self.stats.faw_stall.add(faw_gate - other_gate);
            }
        }
        let ready = now + self.timing.t_rcd;
        self.banks[bank].do_activate(now, row, ready);
        self.recent_acts.push(now);
        self.last_act = now;
        self.stats.activates.inc();
        self.log(now, bank, HbmCommandKind::Activate { row });
        Ok(ready)
    }

    /// Earliest time a column access of `dir` to `bank` may start: the
    /// later of tRCD-readiness and the bus gate (busy + turnaround).
    pub fn earliest_cas(&self, bank: usize, dir: Direction) -> SimTime {
        let b = &self.banks[bank];
        b.ready_for_cas().max(self.bus_gate(dir))
    }

    /// The bus-side gate for a new access of `dir` (turnaround included).
    pub fn bus_gate(&self, dir: Direction) -> SimTime {
        let gap = match (self.last_dir, dir) {
            (Some(Direction::Write), Direction::Read) => self.timing.t_wtr,
            (Some(Direction::Read), Direction::Write) => self.timing.t_rtw,
            _ => TimeDelta::ZERO,
        };
        self.bus_free_at + gap
    }

    /// Issue a column access (`dir`) of `size` to the open `row` of
    /// `bank`, starting at `now`. Returns the transfer end time.
    pub fn access(
        &mut self,
        now: SimTime,
        bank: usize,
        row: u64,
        size: DataSize,
        dir: Direction,
    ) -> Result<SimTime, TimingError> {
        self.check_bank(bank)?;
        let b = &self.banks[bank];
        match b.state() {
            BankState::Active { row: open } if open == row => {}
            BankState::Active { row: open } => {
                return Err(TimingError::RowNotOpen {
                    bank,
                    want_row: row,
                    open_row: Some(open),
                })
            }
            BankState::Idle => {
                return Err(TimingError::RowNotOpen {
                    bank,
                    want_row: row,
                    open_row: None,
                })
            }
        }
        if now < b.ready_for_cas() {
            return Err(TimingError::CasTooEarly {
                earliest: b.ready_for_cas(),
            });
        }
        let gate = self.bus_gate(dir);
        if now < gate {
            return Err(TimingError::BusBusy { earliest: gate });
        }
        // Account turnaround idle time (gap between raw bus-free and gate)
        // only when the access actually starts at/after the gate.
        let raw_free = self.bus_free_at;
        if gate > raw_free && now >= gate {
            self.stats.turnaround.add(gate - raw_free);
        }
        // Row hit/miss: the first CAS under an ACT paid the row
        // opening (miss); any further CAS reuses the open row (hit).
        if b.last_cas_end() > b.act_issued() {
            self.stats.row_hits.inc();
        } else {
            self.stats.row_misses.inc();
        }
        let dt = bus_time(self.rate, size);
        let end = now + dt;
        self.bus_free_at = end;
        self.last_dir = Some(dir);
        self.banks[bank].do_cas_end(end);
        self.stats.bus_busy.add(dt);
        match dir {
            Direction::Read => {
                self.stats.reads.inc();
                self.stats.bits_read += size.bits();
                self.log(now, bank, HbmCommandKind::Read { size, end });
            }
            Direction::Write => {
                self.stats.writes.inc();
                self.stats.bits_written += size.bits();
                self.log(now, bank, HbmCommandKind::Write { size, end });
            }
        }
        Ok(end)
    }

    /// Earliest time `bank` may be precharged: after tRAS from ACT and
    /// after its last column transfer finished.
    pub fn earliest_precharge(&self, bank: usize) -> SimTime {
        let b = &self.banks[bank];
        (b.act_issued() + self.timing.t_ras).max(b.last_cas_end())
    }

    /// Issue a PRE to `bank` at `now`. Returns when the bank is idle
    /// (now + tRP).
    pub fn precharge(&mut self, now: SimTime, bank: usize) -> Result<SimTime, TimingError> {
        self.check_bank(bank)?;
        let b = &self.banks[bank];
        if b.is_idle() {
            return Err(TimingError::PreOnIdleBank { bank });
        }
        let earliest = self.earliest_precharge(bank);
        if now < earliest {
            return Err(TimingError::PreTooEarly { earliest });
        }
        let idle_at = now + self.timing.t_rp;
        self.bank_busy[bank] += idle_at - b.act_issued();
        self.banks[bank].do_precharge(idle_at);
        self.stats.precharges.inc();
        self.log(now, bank, HbmCommandKind::Precharge);
        Ok(idle_at)
    }

    /// Issue a single-bank refresh (REFsb) to an idle `bank` at `now`.
    /// The bank is unusable until the returned time (now + tRFCsb).
    ///
    /// REFsb commands to *different* banks may overlap (they use no data
    /// bus time); the minimum command spacing between same-channel REFsb
    /// commands (tRREFD, ~8 ns) is not modeled — at PFI's refresh rate of
    /// one REFsb per ≈61 ns per channel it is never binding.
    pub fn refresh_bank(&mut self, now: SimTime, bank: usize) -> Result<SimTime, TimingError> {
        self.check_bank(bank)?;
        let b = &self.banks[bank];
        if !b.is_idle() || now < b.idle_at() {
            return Err(TimingError::RefreshNotIdle { bank });
        }
        let idle_at = now + self.timing.t_rfc_sb;
        self.bank_busy[bank] += self.timing.t_rfc_sb;
        self.banks[bank].do_refresh(now, idle_at);
        self.stats.refreshes.inc();
        self.log(now, bank, HbmCommandKind::RefreshSb);
        Ok(idle_at)
    }

    /// The bank whose last refresh is oldest, with that refresh time
    /// (refresh-scheduling helper for controllers).
    pub fn most_refresh_starved(&self) -> (usize, SimTime) {
        self.banks
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| b.last_refresh())
            .map(|(i, b)| (i, b.last_refresh()))
            .expect("channel has at least one bank")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_channel() -> Channel {
        // 80 GB/s channel, 8 banks, HBM4 timing.
        Channel::new(HbmTiming::hbm4(), DataRate::from_gbps(640), 8)
    }

    fn seg() -> DataSize {
        DataSize::from_kib(1)
    }

    #[test]
    fn act_window_slides_oldest_out() {
        let mut w = ActWindow::default();
        assert!(!w.is_full());
        for i in 1..=4u64 {
            w.push(SimTime::from_ns(i));
        }
        assert!(w.is_full());
        assert_eq!(w.oldest(), SimTime::from_ns(1));
        w.push(SimTime::from_ns(9));
        assert_eq!(w.oldest(), SimTime::from_ns(2));
        for i in 10..=13u64 {
            w.push(SimTime::from_ns(i));
        }
        assert_eq!(w.oldest(), SimTime::from_ns(10));
    }

    #[test]
    fn act_cas_pre_sequence_times() {
        let mut ch = test_channel();
        let t0 = SimTime::ZERO;
        let ready = ch.activate(t0, 0, 5).unwrap();
        assert_eq!(ready, SimTime::from_ns(16)); // tRCD
        let end = ch.access(ready, 0, 5, seg(), Direction::Write).unwrap();
        assert_eq!(end, SimTime::from_ps(16_000 + 12_800)); // + 12.8 ns
        let earliest_pre = ch.earliest_precharge(0);
        assert_eq!(earliest_pre, end.max(SimTime::from_ns(16))); // tRAS gate
        let idle = ch.precharge(earliest_pre, 0).unwrap();
        assert_eq!(idle, earliest_pre + TimeDelta::from_ns(14)); // tRP
        assert_eq!(ch.stats().activates.get(), 1);
        assert_eq!(ch.stats().writes.get(), 1);
        assert_eq!(ch.stats().precharges.get(), 1);
    }

    #[test]
    fn cas_requires_open_matching_row() {
        let mut ch = test_channel();
        let err = ch
            .access(SimTime::from_ns(50), 0, 5, seg(), Direction::Read)
            .unwrap_err();
        assert!(matches!(
            err,
            TimingError::RowNotOpen { open_row: None, .. }
        ));

        ch.activate(SimTime::from_ns(50), 0, 5).unwrap();
        let err = ch
            .access(SimTime::from_ns(100), 0, 6, seg(), Direction::Read)
            .unwrap_err();
        assert!(matches!(
            err,
            TimingError::RowNotOpen {
                open_row: Some(5),
                ..
            }
        ));
    }

    #[test]
    fn cas_before_trcd_rejected() {
        let mut ch = test_channel();
        ch.activate(SimTime::ZERO, 0, 1).unwrap();
        let err = ch
            .access(SimTime::from_ns(10), 0, 1, seg(), Direction::Write)
            .unwrap_err();
        assert_eq!(
            err,
            TimingError::CasTooEarly {
                earliest: SimTime::from_ns(16)
            }
        );
    }

    #[test]
    fn bus_serializes_accesses() {
        let mut ch = test_channel();
        ch.activate(SimTime::ZERO, 0, 1).unwrap();
        ch.activate(SimTime::ZERO + TimeDelta::from_ns(1), 1, 1)
            .unwrap();
        let end0 = ch
            .access(SimTime::from_ns(16), 0, 1, seg(), Direction::Write)
            .unwrap();
        // Bank 1 is CAS-ready at 17 ns but the bus is busy until end0.
        let err = ch
            .access(SimTime::from_ns(20), 1, 1, seg(), Direction::Write)
            .unwrap_err();
        assert_eq!(err, TimingError::BusBusy { earliest: end0 });
        ch.access(end0, 1, 1, seg(), Direction::Write).unwrap();
        assert_eq!(ch.stats().writes.get(), 2);
    }

    #[test]
    fn turnaround_gap_enforced_and_accounted() {
        let mut ch = test_channel();
        ch.activate(SimTime::ZERO, 0, 1).unwrap();
        let wr_end = ch
            .access(SimTime::from_ns(16), 0, 1, seg(), Direction::Write)
            .unwrap();
        // Read after write: must wait tWTR = 1 ns beyond bus-free.
        let gate = ch.earliest_cas(0, Direction::Read);
        assert_eq!(gate, wr_end + TimeDelta::from_ns(1));
        let err = ch.access(wr_end, 0, 1, seg(), Direction::Read).unwrap_err();
        assert!(matches!(err, TimingError::BusBusy { .. }));
        ch.access(gate, 0, 1, seg(), Direction::Read).unwrap();
        assert_eq!(ch.stats().turnaround.total(), TimeDelta::from_ns(1));
        // Same-direction follow-up has no gap.
        let gate2 = ch.bus_gate(Direction::Read);
        assert_eq!(gate2, ch.bus_free_at());
    }

    #[test]
    fn tfaw_limits_activation_rate() {
        let mut ch = test_channel();
        // 4 ACTs spaced 5 ns apart: fine.
        for i in 0..4 {
            ch.activate(SimTime::from_ns(i * 5), i as usize, 0).unwrap();
        }
        // 5th ACT at 20 ns: would be 5 ACTs in [0, 40 ns) -> violation.
        let err = ch.activate(SimTime::from_ns(20), 4, 0).unwrap_err();
        assert_eq!(
            err,
            TimingError::FawViolation {
                earliest: SimTime::from_ns(40)
            }
        );
        assert_eq!(ch.earliest_activate(4), SimTime::from_ns(40));
        ch.activate(SimTime::from_ns(40), 4, 0).unwrap();
        assert_eq!(ch.stats().activates.get(), 5);
    }

    #[test]
    fn pfi_stagger_satisfies_tfaw() {
        // The PFI schedule issues ACTs every 12.8 ns (segment time).
        // Any 5 consecutive ACTs then span 51.2 ns > tFAW = 40 ns.
        let mut ch = test_channel();
        let seg_ps = 12_800u64;
        for i in 0..8u64 {
            let bank = (i % 8) as usize;
            ch.activate(SimTime::from_ps(i * seg_ps), bank, 0).unwrap();
            // Close it promptly so the bank can cycle.
            let pre_t = ch.earliest_precharge(bank);
            ch.precharge(pre_t, bank).unwrap();
        }
        assert_eq!(ch.stats().activates.get(), 8);
    }

    #[test]
    fn act_on_non_idle_bank_rejected() {
        let mut ch = test_channel();
        ch.activate(SimTime::ZERO, 0, 1).unwrap();
        let err = ch.activate(SimTime::from_ns(100), 0, 2).unwrap_err();
        assert_eq!(err, TimingError::RowAlreadyOpen { bank: 0 });
        // And re-ACT before tRP completes is rejected.
        let pre_t = ch.earliest_precharge(0);
        let idle = ch.precharge(pre_t, 0).unwrap();
        let err = ch.activate(idle - TimeDelta::from_ns(1), 0, 2).unwrap_err();
        assert!(matches!(err, TimingError::BankNotIdleYet { .. }));
        ch.activate(idle, 0, 2).unwrap();
    }

    #[test]
    fn pre_before_tras_rejected() {
        let mut ch = test_channel();
        ch.activate(SimTime::ZERO, 0, 1).unwrap();
        let err = ch.precharge(SimTime::from_ns(10), 0).unwrap_err();
        assert_eq!(
            err,
            TimingError::PreTooEarly {
                earliest: SimTime::from_ns(16)
            }
        );
        let err = ch.precharge(SimTime::from_ns(50), 1).unwrap_err();
        assert_eq!(err, TimingError::PreOnIdleBank { bank: 1 });
    }

    #[test]
    fn refresh_needs_idle_bank() {
        let mut ch = test_channel();
        ch.activate(SimTime::ZERO, 0, 1).unwrap();
        let err = ch.refresh_bank(SimTime::from_ns(100), 0).unwrap_err();
        assert_eq!(err, TimingError::RefreshNotIdle { bank: 0 });
        let done = ch.refresh_bank(SimTime::from_ns(100), 1).unwrap();
        assert_eq!(done, SimTime::from_ns(220)); // +tRFCsb = 120 ns
                                                 // Bank unusable while refreshing.
        let err = ch.activate(SimTime::from_ns(150), 1, 0).unwrap_err();
        assert!(matches!(err, TimingError::BankNotIdleYet { .. }));
        assert_eq!(ch.stats().refreshes.get(), 1);
    }

    #[test]
    fn most_refresh_starved_tracks_oldest() {
        let mut ch = test_channel();
        assert_eq!(ch.most_refresh_starved().0, 0);
        ch.refresh_bank(SimTime::from_ns(10), 0).unwrap();
        ch.refresh_bank(SimTime::from_ns(10), 2).unwrap();
        // Bank 1 (never refreshed) is now the most starved.
        assert_eq!(ch.most_refresh_starved(), (1, SimTime::ZERO));
    }

    #[test]
    fn out_of_range_bank_is_an_error() {
        let mut ch = test_channel();
        assert!(matches!(
            ch.activate(SimTime::ZERO, 99, 0),
            Err(TimingError::NoSuchBank { bank: 99, banks: 8 })
        ));
    }

    #[test]
    fn stats_accumulate_data_volumes() {
        let mut ch = test_channel();
        ch.activate(SimTime::ZERO, 0, 1).unwrap();
        let e1 = ch
            .access(SimTime::from_ns(16), 0, 1, seg(), Direction::Write)
            .unwrap();
        let gate = ch.earliest_cas(0, Direction::Read);
        ch.access(gate, 0, 1, seg(), Direction::Read).unwrap();
        assert_eq!(ch.stats().bits_written, seg().bits());
        assert_eq!(ch.stats().bits_read, seg().bits());
        assert_eq!(ch.stats().total_data(), DataSize::from_kib(2));
        assert_eq!(ch.stats().bus_busy.total(), TimeDelta::from_ps(2 * 12_800));
        assert!(e1 < ch.bus_free_at());
    }
}
