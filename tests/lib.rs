//! Shared helpers for the cross-crate integration tests.

use std::collections::VecDeque;
use std::path::PathBuf;

use rip_bench::spec::SimSpec;
use rip_core::RouterConfig;
use rip_hbm::{HbmCommand, HbmCommandKind, HbmTiming};
use rip_traffic::{
    ArrivalProcess, BoundedSource, MergedSource, Packet, PacketGenerator, SizeDistribution,
    TrafficMatrix,
};
use rip_units::{DataRate, SimTime};

/// Every shipped config file in `configs/`, by file name, decoded as
/// the `ripsim` spec it is.
pub fn shipped_configs() -> Vec<(String, SimSpec)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../configs");
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("configs/ directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 4,
        "expected the shipped configs in {}",
        dir.display()
    );
    names
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&p).expect("config readable");
            let spec: SimSpec = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("{name} does not decode as a SimSpec: {e}"));
            (name, spec)
        })
        .collect()
}

/// Merge per-port packet streams into one arrival-ordered vector with a
/// stable sort by `(arrival, input, id)`: the materialized oracle the
/// streaming [`MergedSource`] is checked against.
pub fn merge_streams(streams: Vec<Vec<Packet>>) -> Vec<Packet> {
    let mut all: Vec<Packet> = streams.into_iter().flatten().collect();
    all.sort_by_key(|p| (p.arrival, p.input, p.id));
    all
}

/// Build an arrival-ordered trace for an HBM switch.
pub fn trace_for(
    cfg: &RouterConfig,
    tm: &TrafficMatrix,
    load: f64,
    horizon: SimTime,
    seed: u64,
) -> Vec<Packet> {
    let streams: Vec<Vec<Packet>> = (0..cfg.ribbons)
        .map(|i| {
            let row = (load * tm.row_load(i)).min(1.0);
            if row <= 0.0 {
                return Vec::new();
            }
            let mut g = PacketGenerator::new(
                i,
                cfg.port_rate(),
                row,
                tm.row(i).to_vec(),
                SizeDistribution::Imix,
                ArrivalProcess::Poisson,
                128,
                rip_sim::rng::derive_seed(seed, i as u64),
            )
            .expect("valid generator");
            g.generate_until(horizon)
        })
        .collect();
    merge_streams(streams)
}

/// Pull-based counterpart of [`trace_for`]: yields the identical packet
/// sequence lazily (one bounded generator per non-idle port, merged
/// deterministically), never holding the trace in memory.
pub fn source_for(
    cfg: &RouterConfig,
    tm: &TrafficMatrix,
    load: f64,
    horizon: SimTime,
    seed: u64,
) -> MergedSource<BoundedSource<PacketGenerator>> {
    let lanes: Vec<BoundedSource<PacketGenerator>> = (0..cfg.ribbons)
        .filter_map(|i| {
            let row = (load * tm.row_load(i)).min(1.0);
            if row <= 0.0 {
                return None;
            }
            let g = PacketGenerator::new(
                i,
                cfg.port_rate(),
                row,
                tm.row(i).to_vec(),
                SizeDistribution::Imix,
                ArrivalProcess::Poisson,
                128,
                rip_sim::rng::derive_seed(seed, i as u64),
            )
            .expect("valid generator");
            Some(BoundedSource::new(g, horizon))
        })
        .collect();
    MergedSource::new(lanes)
}

// --------------------------------------------------------------------
// Independent HBM timing-conformance oracle
// --------------------------------------------------------------------

/// Per-bank replay state for [`TimingChecker`].
#[derive(Debug, Clone, Copy)]
struct BankReplay {
    /// Open row, if any.
    open: Option<u64>,
    /// Issue time of the ACT that opened the current row.
    act_at: SimTime,
    /// When the bank becomes usable after PRE / REFsb.
    idle_at: SimTime,
    /// End of the bank's last column transfer.
    last_cas_end: SimTime,
    /// Issue time of the last REFsb (None before the first).
    last_refresh: Option<SimTime>,
}

/// Replays a recorded per-channel HBM command stream and independently
/// re-derives every timing rule — tRCD, tRP, tRAS, tFAW, tWTR/tRTW,
/// data-bus serialization (the tCCD-equivalent in this transfer-level
/// model) and, optionally, the per-bank refresh interval. It shares no
/// scheduling state with [`rip_hbm::Channel`]: the only inputs are the
/// command log, the [`HbmTiming`] parameter set and the channel rate,
/// so a controller bug that silently over-drives the device shows up
/// as a violation here even if the controller believed its schedule.
#[derive(Debug, Clone)]
pub struct TimingChecker {
    timing: HbmTiming,
    rate: DataRate,
    banks: usize,
    refresh_interval: bool,
}

impl TimingChecker {
    /// A checker for a channel with `banks` banks at `rate`, enforcing
    /// `timing`.
    pub fn new(timing: HbmTiming, rate: DataRate, banks: usize) -> Self {
        TimingChecker {
            timing,
            rate,
            banks,
            refresh_interval: false,
        }
    }

    /// Also require every bank to be refreshed at least once per
    /// `2 x tREFIsb` between consecutive REFsb commands (only sound for
    /// sustained workloads that run the refresh engine throughout).
    pub fn with_refresh_interval(mut self) -> Self {
        self.refresh_interval = true;
        self
    }

    /// Replay `commands` (one channel) and return every rule violation
    /// found, as human-readable descriptions. An empty vector means
    /// the stream is conformant. Commands are replayed in issue-time
    /// order (the log records controller *call* order, which may run
    /// ahead of or behind the clock — schedules are computed, not
    /// event-stepped); ties keep log order.
    pub fn replay(&self, commands: &[HbmCommand]) -> Vec<String> {
        let mut commands = commands.to_vec();
        commands.sort_by_key(|c| c.at);
        let t = &self.timing;
        let mut violations = Vec::new();
        let mut banks = vec![
            BankReplay {
                open: None,
                act_at: SimTime::ZERO,
                idle_at: SimTime::ZERO,
                last_cas_end: SimTime::ZERO,
                last_refresh: None,
            };
            self.banks
        ];
        let mut bus_free_at = SimTime::ZERO;
        let mut last_dir: Option<rip_hbm::Direction> = None;
        let mut recent_acts: VecDeque<SimTime> = VecDeque::with_capacity(4);

        for cmd in &commands {
            let at = cmd.at;
            if cmd.bank >= self.banks {
                violations.push(format!(
                    "bank {} out of range (channel has {})",
                    cmd.bank, self.banks
                ));
                continue;
            }
            let b = &mut banks[cmd.bank];
            match cmd.kind {
                HbmCommandKind::Activate { row } => {
                    if b.open.is_some() {
                        violations.push(format!("ACT at {at}: bank {} already open", cmd.bank));
                    }
                    if at < b.idle_at {
                        violations.push(format!(
                            "ACT at {at}: bank {} not idle until {} (tRP/tRFCsb)",
                            cmd.bank, b.idle_at
                        ));
                    }
                    if recent_acts.len() == 4 {
                        let window_open = recent_acts[0] + t.t_faw;
                        if at < window_open {
                            violations.push(format!(
                                "ACT at {at}: 5th activation inside tFAW window (open at {window_open})"
                            ));
                        }
                        recent_acts.pop_front();
                    }
                    recent_acts.push_back(at);
                    b.open = Some(row);
                    b.act_at = at;
                }
                HbmCommandKind::Read { size, end } | HbmCommandKind::Write { size, end } => {
                    let dir = match cmd.kind {
                        HbmCommandKind::Read { .. } => rip_hbm::Direction::Read,
                        _ => rip_hbm::Direction::Write,
                    };
                    if b.open.is_none() {
                        violations.push(format!("CAS at {at}: bank {} has no open row", cmd.bank));
                    }
                    let cas_ready = b.act_at + t.t_rcd;
                    if b.open.is_some() && at < cas_ready {
                        violations.push(format!(
                            "CAS at {at}: tRCD not elapsed (ready at {cas_ready})"
                        ));
                    }
                    let gap = match (last_dir, dir) {
                        (Some(rip_hbm::Direction::Write), rip_hbm::Direction::Read) => t.t_wtr,
                        (Some(rip_hbm::Direction::Read), rip_hbm::Direction::Write) => t.t_rtw,
                        _ => rip_units::TimeDelta::ZERO,
                    };
                    let bus_gate = bus_free_at + gap;
                    if at < bus_gate {
                        violations.push(format!(
                            "CAS at {at}: data bus not free until {bus_gate} (serialization/turnaround)"
                        ));
                    }
                    let expect_end = at + self.rate.transfer_time(size);
                    if end != expect_end {
                        violations.push(format!(
                            "CAS at {at}: transfer end {end} inconsistent with {size} at {} (expected {expect_end})",
                            self.rate
                        ));
                    }
                    bus_free_at = bus_free_at.max(end);
                    last_dir = Some(dir);
                    b.last_cas_end = b.last_cas_end.max(end);
                }
                HbmCommandKind::Precharge => {
                    if b.open.is_none() {
                        violations.push(format!("PRE at {at}: bank {} is idle", cmd.bank));
                    } else {
                        let ras_gate = b.act_at + t.t_ras;
                        if at < ras_gate {
                            violations.push(format!(
                                "PRE at {at}: tRAS not elapsed (open since {}, gate {ras_gate})",
                                b.act_at
                            ));
                        }
                        if at < b.last_cas_end {
                            violations.push(format!(
                                "PRE at {at}: last transfer still in flight until {}",
                                b.last_cas_end
                            ));
                        }
                    }
                    b.open = None;
                    b.idle_at = at + t.t_rp;
                }
                HbmCommandKind::RefreshSb => {
                    if b.open.is_some() || at < b.idle_at {
                        violations.push(format!(
                            "REFsb at {at}: bank {} not idle (idle at {})",
                            cmd.bank, b.idle_at
                        ));
                    }
                    if self.refresh_interval {
                        if let Some(prev) = b.last_refresh {
                            let deadline = prev + t.t_refi_sb + t.t_refi_sb;
                            if at > deadline {
                                violations.push(format!(
                                    "REFsb at {at}: bank {} starved (previous at {prev}, deadline {deadline})",
                                    cmd.bank
                                ));
                            }
                        }
                    }
                    b.last_refresh = Some(at);
                    b.idle_at = at + t.t_rfc_sb;
                }
            }
        }
        violations
    }
}
