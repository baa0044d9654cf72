//! The HBM switch (§3.2, Fig. 3): the full discrete-event composition of
//! input ports, cyclical crossbars, tail SRAM, the PFI-driven HBM group,
//! head SRAM and output ports.

use std::collections::hash_map::RandomState;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault};

use rip_hbm::{HbmCommandKind, HbmGroup, PfiController};
use rip_sim::snapshot::SnapshotError;
use rip_sim::stats::Histogram;
use rip_sim::{EventQueue, VecPool};
use rip_telemetry::{
    prof_add, prof_lap, prof_now, prof_now_sampled, prof_renew, EngineProfiler, EpochClock,
    MetricsRegistry, Phase, ProfileHub, Record, Snapshot, SpanEvent, TelemetrySink, TraceRecorder,
    TraceWindow, PID_FRAMES, PID_HBM,
};
use rip_traffic::{Packet, PacketSource, ReplaySource, StatefulSource};
use rip_units::{DataRate, DataSize, SimTime, TimeDelta};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::batch::{Batch, BatchAssembler, Chunk};
use crate::config::RouterConfig;
use crate::departures::DepartureLog;
use crate::error::ConfigError;
use crate::output::OutputPort;
use crate::resilience::{FaultAction, FaultEvent, FaultKind, FaultPlan};
use crate::sram::{Frame, HeadSram, TailSram};

/// Registry name the switch publishes live records under (the SPS
/// layer renames per-plane streams to `plane00`, `plane01`, …).
const LIVE_SOURCE: &str = "switch";

/// Live-streaming state, present only when
/// [`HbmSwitch::enable_live_telemetry`] was called. Everything here is
/// driven by sim time and the packet's own flow hash, so enabling it
/// never perturbs the simulation itself — two same-seed runs stream
/// byte-identical records, and the silent path is untouched.
struct LiveTelemetry {
    state: LiveState,
    sink: Box<dyn TelemetrySink + Send>,
}

/// The checkpointed part of [`LiveTelemetry`]: everything but the sink
/// (a resuming run supplies its own; the record counters carry over so
/// the merged stream is byte-identical).
#[derive(Clone, Serialize, Deserialize)]
struct LiveState {
    clock: EpochClock,
    /// Registry state at the last flushed boundary.
    prev: Snapshot,
    /// Lifecycle sampling: packets whose flow hash satisfies
    /// `fnv1a(flow) % sample_one_in == 0` get span events (0 = off).
    sample_one_in: u64,
    /// Ids of sampled packets currently inside the switch.
    sampled: IdSet<BuildHasherDefault<PacketIdHasher>>,
    epochs_emitted: u64,
    spans_emitted: u64,
    /// `run_source` finished and the terminal records were emitted.
    finished: bool,
}

impl LiveTelemetry {
    fn samples_flow(&self, flow: &rip_traffic::FlowKey) -> bool {
        self.state.sample_one_in > 0
            && rip_traffic::hash::fnv1a(&flow.to_bytes()).is_multiple_of(self.state.sample_one_in)
    }

    /// Emit one span record and count it.
    fn span(&mut self, packet: u64, stage: &'static str, at: SimTime, port: usize) {
        self.state.spans_emitted += 1;
        let span = SpanEvent {
            packet,
            stage,
            at,
            port,
        };
        self.sink.record(LIVE_SOURCE, Record::Span(&span));
    }
}

/// A packet-id set that serializes as an ascending list, so two
/// snapshots of the same state are byte-identical whatever the hash
/// iteration order.
#[derive(Clone, Default)]
struct IdSet<S>(HashSet<u64, S>);

impl<S> std::ops::Deref for IdSet<S> {
    type Target = HashSet<u64, S>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<S> std::ops::DerefMut for IdSet<S> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<S> Serialize for IdSet<S> {
    fn to_value(&self) -> Value {
        let mut ids: Vec<u64> = self.0.iter().copied().collect();
        ids.sort_unstable();
        ids.to_value()
    }
}

impl<S: BuildHasher + Default> Deserialize for IdSet<S> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(IdSet(Vec::<u64>::from_value(v)?.into_iter().collect()))
    }
}

/// Track lane offsets of the per-output frame-lifecycle quartet on
/// [`PID_FRAMES`] (tid = `output * 4 + lane`).
const FRAME_LANE_FILL: u64 = 0;
const FRAME_LANE_WRITE: u64 = 1;
const FRAME_LANE_READ: u64 = 2;
const FRAME_LANE_DRAIN: u64 = 3;

/// Chrome trace-event capture state, present only when
/// [`HbmSwitch::enable_chrome_trace`] was called. Frame-lifecycle
/// spans are recorded as the run executes; the per-bank HBM command
/// tracks are post-processed from the device command log by
/// [`HbmSwitch::take_chrome_trace`]. Purely passive: it observes sim
/// times the pipeline already computes, so enabling it never perturbs
/// the simulation.
struct ChromeTrace {
    rec: TraceRecorder,
    /// Sim time the currently forming frame of each output started
    /// filling (first batch at the tail SRAM), `None` when no frame is
    /// forming.
    fill_start: Vec<Option<SimTime>>,
}

impl ChromeTrace {
    /// Record one frame-lifecycle span if it overlaps the window.
    fn frame_span(&mut self, o: usize, lane: u64, name: &str, start: SimTime, end: SimTime) {
        if self.rec.window().overlaps(start, end) {
            self.rec
                .complete(PID_FRAMES, o as u64 * 4 + lane, name, start, end);
        }
    }
}

/// Hasher for the sampled-packet id set. The set is probed once per
/// chunk on the live path, so SipHash would be measurable overhead; a
/// single Fibonacci multiply mixes the (near-sequential) packet ids
/// well enough for membership tests.
#[derive(Default)]
struct PacketIdHasher(u64);

impl std::hash::Hasher for PacketIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Events of the switch simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Ev {
    /// A packet arrives at an input port.
    Arrival(Packet),
    /// The last event of the trace was delivered.
    ArrivalsDone,
    /// A batch finished striping across the tail SRAM modules.
    BatchAtTail(Batch),
    /// A partial batch waited too long at an input port.
    FlushTimeout {
        /// Input port.
        input: usize,
        /// Output VOQ.
        output: usize,
    },
    /// The cyclical read engine's next turn.
    ReadTurn,
    /// A frame arrived at the head SRAM (HBM read or bypass).
    FrameAtHead(Frame),
    /// An output port pulls its next batch.
    Drain(usize),
    /// A component fails or recovers ([`FaultPlan`]).
    Fault(FaultEvent),
}

/// How a checkpointed run ([`HbmSwitch::run_source_checkpointed`])
/// ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The source drained (or the horizon was reached) and the terminal
    /// telemetry records were emitted — same end state as
    /// [`HbmSwitch::run_source`].
    Completed,
    /// The stop flag was observed at an epoch boundary: a final
    /// snapshot was persisted and the run returned early. Resume it
    /// with the persisted state to continue byte-identically.
    Interrupted,
}

/// Why [`HbmSwitch::run_source_checkpointed`] failed.
#[derive(Debug)]
pub enum CheckpointedRunError {
    /// A fresh run's fault plan failed validation before anything ran.
    Config(ConfigError),
    /// A snapshot could not be restored or persisted.
    Snapshot(SnapshotError),
}

impl fmt::Display for CheckpointedRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointedRunError::Config(e) => write!(f, "{e}"),
            CheckpointedRunError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckpointedRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointedRunError::Config(e) => Some(e),
            CheckpointedRunError::Snapshot(e) => Some(e),
        }
    }
}

impl From<ConfigError> for CheckpointedRunError {
    fn from(e: ConfigError) -> Self {
        CheckpointedRunError::Config(e)
    }
}

impl From<SnapshotError> for CheckpointedRunError {
    fn from(e: SnapshotError) -> Self {
        CheckpointedRunError::Snapshot(e)
    }
}

/// The run loop's single-packet arrival lookahead. It holds the source
/// by value, so a checkpoint can save the source position together
/// with the buffered packet. It pulls on demand, asserts that arrival
/// times never decrease, and counts pulled packets as a source-progress
/// gauge (the lookahead packet included).
struct Feeder<S> {
    source: S,
    buf: Option<(SimTime, Packet)>,
    source_done: bool,
    last_pulled: SimTime,
    pulled: u64,
}

impl<S: PacketSource> Feeder<S> {
    fn new(source: S) -> Self {
        Feeder {
            source,
            buf: None,
            source_done: false,
            last_pulled: SimTime::ZERO,
            pulled: 0,
        }
    }

    fn fill(&mut self) {
        if self.buf.is_none() && !self.source_done {
            match self.source.next_packet() {
                Some(p) => {
                    assert!(
                        p.arrival >= self.last_pulled,
                        "source must yield non-decreasing times"
                    );
                    self.last_pulled = p.arrival;
                    self.pulled += 1;
                    self.buf = Some((p.arrival, p));
                }
                None => self.source_done = true,
            }
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.fill();
        self.buf.map(|(t, _)| t)
    }

    fn pop(&mut self) -> Option<(SimTime, Packet)> {
        self.fill();
        self.buf.take()
    }

    fn is_exhausted(&mut self) -> bool {
        self.fill();
        self.source_done && self.buf.is_none()
    }

    fn pulled(&self) -> u64 {
        self.pulled
    }
}

impl<S: PacketSource + StatefulSource> Feeder<S> {
    fn save(&self) -> FeederState {
        FeederState {
            buf: self.buf,
            source_done: self.source_done,
            last_pulled: self.last_pulled,
            pulled: self.pulled,
            source: self.source.save_state(),
        }
    }

    /// Rebuild from a snapshot: rewind `source` to its saved position,
    /// then overwrite the lookahead so the already-pulled packet is not
    /// pulled twice.
    fn restore(mut source: S, st: &FeederState) -> Result<Self, DeError> {
        source.restore_state(&st.source)?;
        Ok(Feeder {
            source,
            buf: st.buf,
            source_done: st.source_done,
            last_pulled: st.last_pulled,
            pulled: st.pulled,
        })
    }
}

/// The per-epoch hook of the run loop: it sees the switch, the pending
/// events and the feeder at an epoch boundary and returns `Ok(true)` to
/// stop the run there.
type EpochHook<'a, S> =
    dyn FnMut(&HbmSwitch, &EventQueue<Ev>, &Feeder<S>) -> Result<bool, SnapshotError> + 'a;

/// Serialized [`Feeder`]: the lookahead packet plus the source's
/// own position (via [`StatefulSource`]).
#[derive(Serialize, Deserialize)]
struct FeederState {
    buf: Option<(SimTime, Packet)>,
    source_done: bool,
    last_pulled: SimTime,
    pulled: u64,
    source: Value,
}

/// The complete mutable state of a mid-run [`HbmSwitch`], as written
/// into a snapshot by [`HbmSwitch::run_source_checkpointed`]. The
/// configuration rides along as a [`Value`] echo so a resume under a
/// different config is rejected instead of silently diverging.
#[derive(Serialize, Deserialize)]
struct SwitchState {
    cfg: Value,
    run: RunState,
    live: Option<LiveState>,
    /// Pending events in pop order with their original tie-break
    /// sequence numbers.
    queue: Vec<(SimTime, u64, Ev)>,
    queue_next_seq: u64,
    queue_last_popped: SimTime,
    feeder: FeederState,
}

/// Everything a run changes in an [`HbmSwitch`]: the pipeline, the
/// device model and the statistics. A checkpoint saves it whole and a
/// resume restores it whole.
#[derive(Clone, Serialize, Deserialize)]
struct RunState {
    group: HbmGroup,
    pfi: PfiController,
    assemblers: Vec<BatchAssembler>,
    input_xbar_free: Vec<SimTime>,
    flush_pending: Vec<Vec<bool>>,
    tail: TailSram,
    /// Simulator-side mirror of the HBM per-output FIFOs: frame
    /// contents + write-completion time. (The switch itself needs no
    /// such bookkeeping — the controller's two counters per output are
    /// its whole state, the paper's "no bookkeeping" claim.)
    hbm_frames: Vec<VecDeque<(Frame, SimTime)>>,
    head: HeadSram,
    pending_to_head: Vec<usize>,
    outputs: Vec<OutputPort>,
    drain_scheduled: Vec<bool>,
    read_cursor: usize,
    /// Batches striping toward the tail SRAM (scheduled BatchAtTail
    /// events) — tracked so the read engine does not shut down while
    /// data is still in flight.
    batches_in_flight: usize,
    arrivals_done: bool,
    dropped_ids: IdSet<RandomState>,
    // Statistics.
    offered_packets: u64,
    offered_bytes: DataSize,
    delivered_packets: u64,
    delivered_bytes: DataSize,
    dropped_input: u64,
    dropped_frames: u64,
    dropped_bytes: DataSize,
    padded_bytes: DataSize,
    /// Packets accepted but not yet delivered or dropped, and the
    /// high-water mark — the streaming engine's O(in-flight) memory
    /// argument, measured.
    live_packets: u64,
    peak_in_flight: u64,
    // Fault / degraded-mode accounting.
    active_faults: usize,
    dead_channels: usize,
    last_roll: SimTime,
    time_degraded: TimeDelta,
    capacity_lost: DataSize,
    baseline_occupancy: Option<u64>,
    pending_recovery: Option<SimTime>,
    recovery_drain: Option<TimeDelta>,
    dropped_packets_fault: u64,
    dropped_packets_congestion: u64,
    departures: DepartureLog,
    first_arrival: Option<SimTime>,
    last_departure: SimTime,
    input_peak: DataSize,
    /// Always-on deterministic telemetry accumulated during the run
    /// (completed by device/photonic aggregates in [`HbmSwitch::report`]).
    metrics: MetricsRegistry,
}

/// End-of-run report of one HBM switch.
///
/// Serializes with declaration-order fields and `BTreeMap`-ordered
/// metrics, so two same-seed runs produce byte-identical JSON (the
/// golden-report snapshot tests rely on this).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwitchReport {
    /// Packets offered by the trace.
    pub offered_packets: u64,
    /// Bytes offered.
    pub offered_bytes: DataSize,
    /// Packets fully delivered.
    pub delivered_packets: u64,
    /// Payload bytes drained at outputs.
    pub delivered_bytes: DataSize,
    /// Packets dropped at full input VOQs.
    pub dropped_input: u64,
    /// Frames dropped at full per-output HBM regions.
    pub dropped_frames: u64,
    /// Bytes dropped (input + frame drops).
    pub dropped_bytes: DataSize,
    /// Padding bytes injected (timeout flushes and padded/bypass frames).
    pub padded_bytes: DataSize,
    /// Peak number of packets simultaneously inside the switch
    /// (accepted at an input but not yet delivered or dropped). This is
    /// the streaming engine's memory high-water mark: it depends on
    /// load and congestion, not on the simulated horizon.
    pub peak_in_flight_packets: u64,
    /// Every delivered packet's departure, in delivery order: the
    /// mimicking comparisons read it, and [`SwitchReport::delays_ns`]
    /// derives the delay distribution from it.
    pub departures: DepartureLog,
    /// Simulated span from first arrival to last departure.
    pub span: TimeDelta,
    /// Delivered aggregate rate over the span.
    pub delivered_rate: DataRate,
    /// `delivered_bytes / offered_bytes`.
    pub delivery_fraction: f64,
    /// HBM utilization over the span (moved data vs peak).
    pub hbm_utilization: f64,
    /// Peak input VOQ bytes over all ports.
    pub input_peak: DataSize,
    /// Peak tail SRAM bytes.
    pub tail_peak: DataSize,
    /// Peak head SRAM bytes.
    pub head_peak: DataSize,
    /// Mean egress lane-spread CV across outputs.
    pub lane_spread_cv: f64,
    /// Packets lost while a fault was active (input + frame drops).
    pub dropped_packets_fault: u64,
    /// Packets lost with no fault active — plain congestion.
    pub dropped_packets_congestion: u64,
    /// Total time at least one fault was active.
    pub time_degraded: TimeDelta,
    /// HBM bandwidth-time lost to dead channels (integrated
    /// `channel_rate × dead channels` over the run).
    pub capacity_lost: DataSize,
    /// Time from the last recovery until the HBM frame occupancy first
    /// returned to its pre-fault baseline (`None` if no fault ran or
    /// the backlog never drained within the run).
    pub recovery_drain: Option<TimeDelta>,
    /// Deterministic sim-time telemetry: frame path/fill metrics, HBM
    /// command mix and stall accounting, photonic lane/energy totals.
    pub metrics: MetricsRegistry,
}

impl SwitchReport {
    /// Per-packet delay histogram in nanoseconds: one sample per entry
    /// of [`SwitchReport::departures`], `time - arrival`, in delivery
    /// order. Built on each call, so keep the result when querying it
    /// more than once.
    pub fn delays_ns(&self) -> Histogram {
        let mut h = Histogram::new();
        for d in &self.departures {
            h.record(d.time.since(d.arrival).as_ns_f64());
        }
        h
    }
}

/// The HBM switch simulator.
///
/// Feed an arrival-ordered packet trace (`input`/`output` are switch
/// port indices `0..N`) to [`HbmSwitch::run`]; the switch plays the
/// complete §3.2 pipeline against the cycle-exact HBM device model and
/// reports throughput, delay, loss, occupancy and utilization.
pub struct HbmSwitch {
    cfg: RouterConfig,
    run: RunState,
    /// Chrome trace-event capture (None = off).
    chrome: Option<ChromeTrace>,
    /// Live epoch streaming + lifecycle sampling (None = silent).
    live: Option<LiveTelemetry>,
    /// Cached next epoch boundary in ps; `u64::MAX` when live telemetry
    /// is off or finished. Keeps the per-event flush check to one
    /// integer compare.
    live_boundary_ps: u64,
    /// Precomputed `switch.outNN.queue_depth_frames` metric names, so
    /// the per-frame depth sample does not format a fresh string.
    out_depth_keys: Vec<String>,
    /// Reusable buffer for batches completed by one arrival (hot-loop
    /// scratch; always drained back to empty before reuse).
    batch_scratch: Vec<Batch>,
    /// Bytes queued in each input's VOQs (`total_queued` of its
    /// assembler), kept up to date per packet instead of summed over
    /// the N VOQs. Not part of the run state: empty until the first
    /// arrival and after a restore, which rebuild it.
    input_queued: Vec<DataSize>,
    /// Recycled chunk vectors: batches formed at inputs retire their
    /// chunk storage here when drained or dropped, so steady-state
    /// batch formation allocates nothing.
    chunk_pool: VecPool<Chunk>,
    /// Wall-clock self-profiler (`None` = off; the run loops then never
    /// read the monotonic clock). Profile records travel on the hub's
    /// own stream and never touch reports, telemetry, traces or
    /// checkpoints — profiled runs are byte-identical to silent ones.
    prof: Option<EngineProfiler>,
}

impl HbmSwitch {
    /// Build a switch from a validated configuration.
    pub fn new(cfg: RouterConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let n = cfg.ribbons;
        let group = HbmGroup::new(cfg.stacks_per_switch, cfg.hbm_geometry, cfg.hbm_timing);
        let pfi = PfiController::new(cfg.pfi(), &group)?;
        let k = cfg.batch_size();
        let run = RunState {
            assemblers: (0..n).map(|i| BatchAssembler::new(i, n, k)).collect(),
            input_xbar_free: vec![SimTime::ZERO; n],
            flush_pending: vec![vec![false; n]; n],
            tail: TailSram::new(n, cfg.batches_per_frame()),
            hbm_frames: vec![VecDeque::new(); n],
            head: HeadSram::new(n, cfg.head_frames),
            pending_to_head: vec![0; n],
            outputs: (0..n)
                .map(|o| {
                    let mut port =
                        OutputPort::new(o, cfg.port_rate(), cfg.alpha(), cfg.wavelengths);
                    if cfg.per_lane_egress {
                        port.set_lane_rate(Some(cfg.rate_per_wavelength));
                    }
                    port
                })
                .collect(),
            drain_scheduled: vec![false; n],
            read_cursor: 0,
            batches_in_flight: 0,
            arrivals_done: false,
            dropped_ids: IdSet::default(),
            offered_packets: 0,
            offered_bytes: DataSize::ZERO,
            delivered_packets: 0,
            delivered_bytes: DataSize::ZERO,
            dropped_input: 0,
            dropped_frames: 0,
            dropped_bytes: DataSize::ZERO,
            padded_bytes: DataSize::ZERO,
            live_packets: 0,
            peak_in_flight: 0,
            active_faults: 0,
            dead_channels: 0,
            last_roll: SimTime::ZERO,
            time_degraded: TimeDelta::ZERO,
            capacity_lost: DataSize::ZERO,
            baseline_occupancy: None,
            pending_recovery: None,
            recovery_drain: None,
            dropped_packets_fault: 0,
            dropped_packets_congestion: 0,
            departures: DepartureLog::default(),
            first_arrival: None,
            last_departure: SimTime::ZERO,
            input_peak: DataSize::ZERO,
            metrics: MetricsRegistry::new(),
            group,
            pfi,
        };
        Ok(HbmSwitch {
            run,
            chrome: None,
            live: None,
            live_boundary_ps: u64::MAX,
            out_depth_keys: (0..n)
                .map(|o| format!("switch.out{o:02}.queue_depth_frames"))
                .collect(),
            batch_scratch: Vec::new(),
            input_queued: Vec::new(),
            chunk_pool: VecPool::default(),
            prof: None,
            cfg,
        })
    }

    /// Attach the wall-clock self-profiler: the run loops lap a
    /// monotonic clock across kernel pops, dispatch phases and
    /// telemetry export, flushing one record per telemetry epoch into
    /// `hub` under source `engine`. Profiling never alters simulation
    /// state or any deterministic output surface.
    pub fn enable_profiler(&mut self, hub: ProfileHub) {
        self.enable_profiler_as(hub, "engine");
    }

    /// [`Self::enable_profiler`] under a caller-chosen source label —
    /// fleet plane workers profile as `planeNN` so the collector's
    /// merged exposition can tell planes apart.
    pub fn enable_profiler_as(&mut self, hub: ProfileHub, source: &str) {
        self.prof = Some(EngineProfiler::new(hub, source));
    }

    /// The configuration in force.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Capture a Chrome trace-event timeline of the run, gated by
    /// `window`: per-output frame-lifecycle spans
    /// (fill → write → read → drain) recorded live, plus per-bank HBM
    /// command tracks post-processed from the device command log when
    /// [`HbmSwitch::take_chrome_trace`] is called. Also turns on HBM
    /// command recording (the same hook the timing-conformance checker
    /// replays).
    pub fn enable_chrome_trace(&mut self, window: TraceWindow) {
        self.run.group.set_record_commands(true);
        // Capture-time bound: keep only commands that can overlap the
        // window once their derived spans (ACT covers tRCD, PRE tRP,
        // REFsb tRFCsb) are attached — widen the start by the longest
        // such span so `take_chrome_trace`'s precise overlap filter
        // still sees every candidate.
        let t = self.run.group.timing();
        let timing_slack = t
            .t_rcd
            .as_ps()
            .max(t.t_rp.as_ps())
            .max(t.t_rfc_sb.as_ps())
            .max(t.t_faw.as_ps());
        // RD/WR spans run to bus release, which trails the issue time by
        // queueing + transfer; 100 ns dwarfs both on every geometry.
        let slack = timing_slack + 100_000;
        self.run.group.set_record_window(Some((
            SimTime::from_ps(window.start().as_ps().saturating_sub(slack)),
            window.end(),
        )));
        let mut rec = TraceRecorder::new(window);
        rec.set_process_name(PID_HBM, "hbm");
        rec.set_process_name(PID_FRAMES, "frames");
        for o in 0..self.cfg.ribbons {
            for (lane, name) in [
                (FRAME_LANE_FILL, "fill"),
                (FRAME_LANE_WRITE, "write"),
                (FRAME_LANE_READ, "read"),
                (FRAME_LANE_DRAIN, "drain"),
            ] {
                rec.set_thread_name(
                    PID_FRAMES,
                    o as u64 * 4 + lane,
                    &format!("out{o:02} {name}"),
                );
            }
        }
        self.chrome = Some(ChromeTrace {
            rec,
            fill_start: vec![None; self.cfg.ribbons],
        });
    }

    /// Take the recorded Chrome trace, folding the HBM command log
    /// into per-bank duration tracks: one track per `(channel, bank)`
    /// carrying ACT (shown over its tRCD window), RD/WR (to bus
    /// release), PRE (tRP) and REFsb (tRFCsb), plus one `tFAW` lane per
    /// channel where every ACT opens its rolling four-activate window.
    /// Commands strictly outside the trace window are skipped; track
    /// names are emitted only for banks that recorded at least one
    /// in-window command.
    pub fn take_chrome_trace(&mut self) -> Option<TraceRecorder> {
        let mut ct = self.chrome.take()?;
        let window = ct.rec.window();
        let timing = *self.run.group.timing();
        let bpc = self.run.group.geometry().banks_per_channel;
        let lanes = bpc as u64 + 1;
        for (c, ch) in self.run.group.channels().enumerate() {
            let mut named = vec![false; bpc + 1];
            for cmd in ch.commands() {
                let (name, start, end) = match cmd.kind {
                    HbmCommandKind::Activate { .. } => ("ACT", cmd.at, cmd.at + timing.t_rcd),
                    HbmCommandKind::Read { end, .. } => ("RD", cmd.at, end),
                    HbmCommandKind::Write { end, .. } => ("WR", cmd.at, end),
                    HbmCommandKind::Precharge => ("PRE", cmd.at, cmd.at + timing.t_rp),
                    HbmCommandKind::RefreshSb => ("REFsb", cmd.at, cmd.at + timing.t_rfc_sb),
                };
                if window.overlaps(start, end) {
                    let tid = c as u64 * lanes + cmd.bank as u64;
                    if !named[cmd.bank] {
                        named[cmd.bank] = true;
                        ct.rec
                            .set_thread_name(PID_HBM, tid, &format!("ch{c:02}/b{:02}", cmd.bank));
                    }
                    ct.rec.complete(PID_HBM, tid, name, start, end);
                }
                if matches!(cmd.kind, HbmCommandKind::Activate { .. }) {
                    let faw_end = cmd.at + timing.t_faw;
                    if window.overlaps(cmd.at, faw_end) {
                        let tid = c as u64 * lanes + bpc as u64;
                        if !named[bpc] {
                            named[bpc] = true;
                            ct.rec
                                .set_thread_name(PID_HBM, tid, &format!("ch{c:02}/tFAW"));
                        }
                        ct.rec.complete(PID_HBM, tid, "tFAW", cmd.at, faw_end);
                    }
                }
            }
        }
        Some(ct.rec)
    }

    /// Stream live telemetry into `sink` while [`HbmSwitch::run_source`]
    /// executes: one [`rip_telemetry::EpochDelta`] per `period` of sim
    /// time, plus sampled packet-lifecycle span events when
    /// `sample_one_in > 0` (a packet is sampled when
    /// `fnv1a(flow) % sample_one_in == 0` — keyed on the flow hash, not
    /// an RNG, so the sampled set is identical across same-seed runs).
    ///
    /// Determinism rules: epoch boundaries are exact multiples of
    /// `period` in sim time (never wall-clock), all record maps are
    /// `BTreeMap`-ordered, and streaming never alters the simulation —
    /// a live run's report is the silent run's report plus the live
    /// gauge series. The final epoch delta is taken against the full
    /// end-of-run registry (device + photonic aggregates included), so
    /// replaying every emitted delta reconstructs
    /// [`SwitchReport::metrics`] byte-identically.
    ///
    /// Only the streaming runs ([`HbmSwitch::run_source`] and
    /// [`HbmSwitch::run_source_checkpointed`]) flush;
    /// [`HbmSwitch::run_preloaded`] (the batch oracle) stays silent.
    pub fn enable_live_telemetry(
        &mut self,
        period: TimeDelta,
        sample_one_in: u64,
        sink: Box<dyn TelemetrySink + Send>,
    ) {
        let clock = EpochClock::new(period);
        self.live_boundary_ps = clock.next_boundary().as_ps();
        self.live = Some(LiveTelemetry {
            state: LiveState {
                clock,
                prev: Snapshot::empty(),
                sample_one_in,
                sampled: IdSet::default(),
                epochs_emitted: 0,
                spans_emitted: 0,
                finished: false,
            },
            sink,
        });
    }

    /// Epoch records emitted so far (0 when live telemetry is off).
    pub fn live_epochs_emitted(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.state.epochs_emitted)
    }

    /// Span records emitted so far (0 when live telemetry is off).
    pub fn live_spans_emitted(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.state.spans_emitted)
    }

    /// True when an epoch boundary lies at or before the next event
    /// time `t` (an event exactly at a boundary belongs to the next
    /// epoch). Checked before every event dispatch, so it is one
    /// integer compare: `live_boundary_ps` caches the next boundary and
    /// is `u64::MAX` whenever live telemetry is off or finished.
    #[inline]
    fn live_epoch_due(&self, t: SimTime) -> bool {
        t.as_ps() >= self.live_boundary_ps
    }

    /// Flush every epoch that [`Self::live_epoch_due`] reports closed
    /// before `t`. `pulled` is the feeder's source-progress counter.
    fn live_flush_epochs(&mut self, t: SimTime, pulled: u64) {
        while self.live_epoch_due(t) {
            self.live_flush_one(pulled);
        }
    }

    /// Close the currently accumulating epoch and emit its delta.
    fn live_flush_one(&mut self, pulled: u64) {
        let t0 = prof_now(&self.prof);
        // Take `live` out so the sink call can borrow `self.run.metrics`
        // without aliasing.
        let mut live = self.live.take().expect("live checked by caller");
        let (epoch, _from, to) = live.state.clock.advance();
        self.live_boundary_ps = live.state.clock.next_boundary().as_ps();
        self.stamp_live_gauges(to, pulled);
        let snap = self.run.metrics.snapshot(to);
        let delta = snap.delta_since(&live.state.prev);
        live.sink.record(
            LIVE_SOURCE,
            Record::Epoch {
                epoch,
                delta: &delta,
            },
        );
        live.state.prev = snap;
        live.state.epochs_emitted += 1;
        self.live = Some(live);
        prof_add(&mut self.prof, Phase::TelemetryExport, t0);
        // One profile record per telemetry epoch, emitted after the
        // epoch's own export time was attributed.
        if let Some(p) = self.prof.as_mut() {
            p.flush();
        }
    }

    /// The per-epoch gauge series: working-set and source progress,
    /// stamped at the epoch boundary so soak runs can watch growth live.
    fn stamp_live_gauges(&mut self, at: SimTime, pulled: u64) {
        self.run
            .metrics
            .set_gauge("switch.packets.in_flight", at, self.run.live_packets as f64);
        self.run.metrics.set_gauge(
            "switch.packets.peak_in_flight",
            at,
            self.run.peak_in_flight as f64,
        );
        self.run.metrics.set_gauge(
            "switch.packets.delivered",
            at,
            self.run.delivered_packets as f64,
        );
        self.run
            .metrics
            .set_gauge("switch.feeder.pulled_packets", at, pulled as f64);
        // Watchdog inputs: drop/offered/capacity state visible every
        // epoch, not just at run end.
        self.run.metrics.set_gauge(
            "switch.packets.offered",
            at,
            self.run.offered_packets as f64,
        );
        self.run.metrics.set_gauge(
            "switch.packets.dropped",
            at,
            (self.run.dropped_packets_fault + self.run.dropped_packets_congestion) as f64,
        );
        self.run.metrics.set_gauge(
            "switch.capacity.dead_channels",
            at,
            self.run.dead_channels as f64,
        );
    }

    /// Emit the terminal records: a final epoch delta taken against the
    /// complete end-of-run registry (so merged deltas reconstruct
    /// [`SwitchReport::metrics`] exactly), then `run_end` with the
    /// totals.
    fn live_finish(&mut self, pulled: u64) {
        if self.live.as_ref().is_none_or(|l| l.state.finished) {
            return;
        }
        // Same end-of-run instant the report derives.
        let first = self.run.first_arrival.unwrap_or(SimTime::ZERO);
        let span = self.run.last_departure.saturating_since(first);
        let end = first + span;
        let t0 = prof_now(&self.prof);
        let mut live = self.live.take().expect("checked above");
        let epoch = live.state.clock.epoch();
        self.stamp_live_gauges(end, pulled);
        let final_metrics = self.final_metrics(end, span);
        let snap = final_metrics.snapshot(end);
        let delta = snap.delta_since(&live.state.prev);
        live.sink.record(
            LIVE_SOURCE,
            Record::Epoch {
                epoch,
                delta: &delta,
            },
        );
        live.state.epochs_emitted += 1;
        live.sink.record(
            LIVE_SOURCE,
            Record::RunEnd {
                at: end,
                totals: &final_metrics,
            },
        );
        live.state.prev = snap;
        live.state.finished = true;
        self.live_boundary_ps = u64::MAX;
        self.live = Some(live);
        prof_add(&mut self.prof, Phase::TelemetryExport, t0);
    }

    /// Flush whatever the profiler accumulated since the last epoch
    /// record — the end-of-run catch-all (and the only flush for runs
    /// without live telemetry).
    fn prof_finish(&mut self) {
        if let Some(p) = self.prof.as_mut() {
            p.flush_nonempty();
        }
    }

    /// The profile phase an event's handling is attributed to.
    fn phase_of(ev: &Ev) -> Phase {
        match ev {
            Ev::Arrival(_) | Ev::FlushTimeout { .. } => Phase::BatchAssembly,
            Ev::BatchAtTail(_) | Ev::ReadTurn | Ev::FrameAtHead(_) => Phase::HbmTiming,
            Ev::Drain(_) => Phase::BatchDrain,
            Ev::ArrivalsDone | Ev::Fault(_) => Phase::Dispatch,
        }
    }

    /// Emit a terminal `stage` for `packet` and stop sampling it.
    fn live_span_end(&mut self, packet: u64, stage: &'static str, at: SimTime, port: usize) {
        if let Some(live) = self.live.as_mut() {
            if live.state.sampled.remove(&packet) {
                live.span(packet, stage, at, port);
            }
        }
    }

    /// Emit `stage` for each sampled packet in `chunks`, once per run
    /// of adjacent chunks of that packet. A packet's chunks are
    /// contiguous within a batch, so a batch yields one span per packet.
    fn live_chunk_spans<'c>(
        &mut self,
        chunks: impl IntoIterator<Item = &'c Chunk>,
        stage: &'static str,
        at: SimTime,
        port: usize,
    ) {
        let Some(live) = self.live.as_mut() else {
            return;
        };
        let mut last = u64::MAX;
        for c in chunks {
            if c.packet != last {
                last = c.packet;
                if live.state.sampled.contains(&c.packet) {
                    live.span(c.packet, stage, at, port);
                }
            }
        }
    }

    /// Time for one batch to cross an internal (sped-up) interface.
    fn batch_time(&self) -> TimeDelta {
        self.cfg
            .internal_rate()
            .transfer_time(self.cfg.batch_size())
    }

    /// Interval between cyclical read turns: one frame per output per
    /// `K / internal rate`, round-robin over N outputs.
    fn read_interval(&self) -> TimeDelta {
        self.cfg
            .internal_rate()
            .transfer_time(self.cfg.frame_size())
            / self.cfg.ribbons as u64
    }

    /// Tail→head bypass transit time: one frame over the full HBM-width
    /// path.
    fn bypass_latency(&self) -> TimeDelta {
        self.cfg.hbm_peak().transfer_time(self.cfg.frame_size())
    }

    fn send_batch(&mut self, q: &mut EventQueue<Ev>, now: SimTime, batch: Batch) {
        let i = batch.input;
        let dt = self.batch_time();
        let t0 = now.max(self.run.input_xbar_free[i]);
        self.run.input_xbar_free[i] = t0 + dt;
        self.run.batches_in_flight += 1;
        // Serialization over N crossbar slots plus worst-case alignment
        // until the input faces module 0.
        q.schedule(t0 + dt + dt, Ev::BatchAtTail(batch));
    }

    fn write_frame(&mut self, now: SimTime, frame: Frame) {
        let o = frame.output;
        self.live_chunk_spans(frame.chunks(), "hbm_write", now, o);
        // Frame fill efficiency: payload actually carried vs. the fixed
        // frame capacity the HBM write pays for.
        self.run.metrics.inc(
            "switch.frame.payload_bytes",
            frame.payload_in(self.cfg.batch_size()).bytes(),
        );
        self.run
            .metrics
            .inc("switch.frame.capacity_bytes", self.cfg.frame_size().bytes());
        self.run.metrics.inc("switch.frames.written", 1);
        let op = self.run.pfi.write_frame(&mut self.run.group, now, o);
        if let Some(ct) = self.chrome.as_mut() {
            ct.frame_span(o, FRAME_LANE_WRITE, "write", now, op.end);
        }
        self.run.hbm_frames[o].push_back((frame, op.end));
        self.observe_queue_depth(o);
    }

    /// Sample output `o`'s HBM queue depth (frames) into its depth
    /// histogram.
    fn observe_queue_depth(&mut self, o: usize) {
        let depth = self.run.pfi.frames_buffered(o) as f64;
        self.run.metrics.observe(&self.out_depth_keys[o], depth);
    }

    /// Total frames currently buffered in the HBM across outputs.
    fn hbm_frames_total(&self) -> u64 {
        (0..self.cfg.ribbons)
            .map(|o| self.run.pfi.frames_buffered(o))
            .sum()
    }

    /// Integrate degraded-time and lost-capacity up to `now`.
    fn roll_capacity(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.run.last_roll);
        if !dt.is_zero() {
            if self.run.active_faults > 0 {
                self.run.time_degraded += dt;
            }
            if self.run.dead_channels > 0 {
                let lost = self.cfg.hbm_geometry.channel_rate() * self.run.dead_channels as u64;
                self.run.capacity_lost += lost.data_in(dt);
            }
        }
        self.run.last_roll = self.run.last_roll.max(now);
    }

    fn on_fault(&mut self, q: &mut EventQueue<Ev>, now: SimTime, f: FaultEvent) {
        if f.kind.is_photonic() {
            return; // front-end scope; applied by the SPS layer
        }
        self.roll_capacity(now);
        if self.run.baseline_occupancy.is_none() && matches!(f.action, FaultAction::Inject) {
            self.run.baseline_occupancy = Some(self.hbm_frames_total());
        }
        match (f.kind, f.action) {
            (FaultKind::HbmChannelDown { channel }, FaultAction::Inject) => {
                self.run.group.fail_channel(channel);
                self.run.dead_channels += 1;
                self.run.active_faults += 1;
            }
            (FaultKind::HbmChannelDown { channel }, FaultAction::Recover) => {
                self.run.group.recover_channel(channel);
                self.run.dead_channels -= 1;
                self.run.active_faults -= 1;
            }
            (FaultKind::HbmBankStuck { channel, bank }, FaultAction::Inject) => {
                self.run.group.stick_bank(channel, bank);
                self.run.active_faults += 1;
            }
            (FaultKind::HbmBankStuck { channel, bank }, FaultAction::Recover) => {
                self.run.group.unstick_bank(channel, bank);
                self.run.active_faults -= 1;
            }
            (FaultKind::RefreshStorm { duration }, FaultAction::Inject) => {
                self.run.pfi.set_refresh_storm(now + duration);
                self.run.active_faults += 1;
                // Storms self-recover: schedule the bookkeeping event.
                q.schedule(
                    now + duration,
                    Ev::Fault(FaultEvent {
                        at: now + duration,
                        kind: f.kind,
                        action: FaultAction::Recover,
                    }),
                );
            }
            (FaultKind::RefreshStorm { .. }, FaultAction::Recover) => {
                self.run.active_faults -= 1;
            }
            (FaultKind::WavelengthLoss { .. } | FaultKind::PlaneDown { .. }, _) => {
                unreachable!("photonic faults returned above")
            }
        }
        if let Err(e) = self.run.pfi.check_degraded(&self.run.group) {
            panic!("fault plan drives the PFI engine past redistribution limits: {e}");
        }
        if self.run.active_faults == 0
            && self.run.pending_recovery.is_none()
            && self.run.recovery_drain.is_none()
        {
            self.run.pending_recovery = Some(now);
        }
    }

    fn system_empty(&self) -> bool {
        self.run.arrivals_done
            && self.run.batches_in_flight == 0
            && self
                .run
                .assemblers
                .iter()
                .all(|a| a.total_queued().is_zero())
            && self.run.tail.occupancy().bytes.is_zero()
            && (0..self.cfg.ribbons).all(|o| {
                self.run.pfi.frames_buffered(o) == 0
                    && self.run.pending_to_head[o] == 0
                    && !self.run.head.has_data(o)
                    && !self.run.drain_scheduled[o]
            })
    }

    fn handle(&mut self, q: &mut EventQueue<Ev>, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrival(p) => self.on_arrival(q, now, p),
            Ev::ArrivalsDone => self.run.arrivals_done = true,
            Ev::BatchAtTail(b) => {
                self.run.batches_in_flight -= 1;
                self.on_batch_at_tail(now, b);
            }
            Ev::FlushTimeout { input, output } => {
                self.run.flush_pending[input][output] = false;
                if !self.run.assemblers[input].queued(output).is_zero() {
                    if let Some(b) =
                        self.run.assemblers[input].flush_with(output, &mut self.chunk_pool)
                    {
                        if let Some(queued) = self.input_queued.get_mut(input) {
                            *queued -= b.payload_in(self.cfg.batch_size());
                        }
                        self.run.padded_bytes += b.padding;
                        self.send_batch(q, now, b);
                    }
                }
            }
            Ev::ReadTurn => self.on_read_turn(q, now),
            Ev::FrameAtHead(frame) => {
                let o = frame.output;
                self.run.pending_to_head[o] -= 1;
                self.run.head.push_frame(frame, self.cfg.batch_size());
                if !self.run.drain_scheduled[o] && self.run.head.has_data(o) {
                    self.run.drain_scheduled[o] = true;
                    q.schedule(now, Ev::Drain(o));
                }
            }
            Ev::Drain(o) => self.on_drain(q, now, o),
            Ev::Fault(f) => self.on_fault(q, now, f),
        }
        // After the last recovery, watch for the HBM backlog returning
        // to its pre-fault level — the time-to-drain metric.
        if let (Some(t0), Some(base)) = (self.run.pending_recovery, self.run.baseline_occupancy) {
            if self.hbm_frames_total() <= base {
                self.run.recovery_drain = Some(now.saturating_since(t0));
                self.run.pending_recovery = None;
            }
        }
    }

    fn on_arrival(&mut self, q: &mut EventQueue<Ev>, now: SimTime, p: Packet) {
        self.run.offered_packets += 1;
        self.run.offered_bytes += p.size;
        self.run.first_arrival.get_or_insert(now);
        if self.input_queued.is_empty() {
            let totals = self.run.assemblers.iter().map(|a| a.total_queued());
            self.input_queued = totals.collect();
        }
        let total = self.input_queued[p.input];
        if total + p.size > self.cfg.input_queue_limit {
            self.run.dropped_input += 1;
            self.run.dropped_bytes += p.size;
            self.run.dropped_ids.insert(p.id);
            if self.run.active_faults > 0 {
                self.run.dropped_packets_fault += 1;
            } else {
                self.run.dropped_packets_congestion += 1;
            }
            // A would-be-sampled packet's drop is still visible in the
            // span stream (it was never admitted, so it is not tracked).
            if let Some(live) = self.live.as_mut() {
                if live.samples_flow(&p.flow) {
                    live.span(p.id, "input_drop", now, p.input);
                }
            }
            return;
        }
        self.run.live_packets += 1;
        self.run.peak_in_flight = self.run.peak_in_flight.max(self.run.live_packets);
        if let Some(live) = self.live.as_mut() {
            if live.samples_flow(&p.flow) {
                live.state.sampled.insert(p.id);
                live.span(p.id, "arrival", now, p.input);
            }
        }
        let was_empty = self.run.assemblers[p.input].queued(p.output).is_zero();
        let mut batches = std::mem::take(&mut self.batch_scratch);
        debug_assert!(batches.is_empty());
        self.run.assemblers[p.input].push_into(&p, &mut self.chunk_pool, &mut batches);
        // Every batch `push_into` emits took exactly k queued bytes.
        let queued = total + p.size - self.cfg.batch_size() * batches.len() as u64;
        debug_assert_eq!(queued, self.run.assemblers[p.input].total_queued());
        self.input_queued[p.input] = queued;
        self.run.input_peak = self.run.input_peak.max(queued);
        if was_empty
            && self.cfg.batch_timeout_batches > 0
            && !self.run.assemblers[p.input].queued(p.output).is_zero()
            && !self.run.flush_pending[p.input][p.output]
        {
            self.run.flush_pending[p.input][p.output] = true;
            let timeout = self.batch_time() * self.cfg.batch_timeout_batches;
            q.schedule(
                now + timeout,
                Ev::FlushTimeout {
                    input: p.input,
                    output: p.output,
                },
            );
        }
        for b in batches.drain(..) {
            self.send_batch(q, now, b);
        }
        self.batch_scratch = batches;
    }

    fn on_batch_at_tail(&mut self, now: SimTime, b: Batch) {
        self.live_chunk_spans(&b.chunks, "sram_enqueue", now, b.output);
        let batch_output = b.output;
        if let Some(ct) = self.chrome.as_mut() {
            ct.fill_start[batch_output].get_or_insert(now);
        }
        if let Some(frame) = self.run.tail.push_batch(b, self.cfg.batch_size()) {
            let o = frame.output;
            if let Some(ct) = self.chrome.as_mut() {
                if let Some(start) = ct.fill_start[o].take() {
                    ct.frame_span(o, FRAME_LANE_FILL, "fill", start, now);
                }
            }
            if !self.run.pfi.can_accept_frame(&self.run.group, o) {
                // Per-output HBM region full: the frame is lost.
                self.run.dropped_frames += 1;
                self.run.dropped_bytes += frame.payload_in(self.cfg.batch_size());
                for c in frame.chunks() {
                    if self.run.dropped_ids.insert(c.packet) {
                        self.run.live_packets -= 1;
                        if self.run.active_faults > 0 {
                            self.run.dropped_packets_fault += 1;
                        } else {
                            self.run.dropped_packets_congestion += 1;
                        }
                        self.live_span_end(c.packet, "frame_drop", now, o);
                    }
                }
                for batch in frame.batches {
                    self.chunk_pool.put(batch.chunks);
                }
            } else {
                self.write_frame(now, frame);
            }
        }
    }

    fn on_read_turn(&mut self, q: &mut EventQueue<Ev>, now: SimTime) {
        let o = self.run.read_cursor;
        self.run.read_cursor = (self.run.read_cursor + 1) % self.cfg.ribbons;
        let room =
            self.run.head.frames_buffered(o) + self.run.pending_to_head[o] < self.cfg.head_frames;
        if room {
            let hbm_ready = self.run.hbm_frames[o]
                .front()
                .is_some_and(|&(_, ready)| ready <= now);
            if self.run.pfi.frames_buffered(o) > 0 && hbm_ready {
                let op = self
                    .run
                    .pfi
                    .read_frame(&mut self.run.group, now, o)
                    .expect("frames_buffered > 0");
                let (frame, written) = self.run.hbm_frames[o].pop_front().expect("mirror in sync");
                self.run.pending_to_head[o] += 1;
                if let Some(ct) = self.chrome.as_mut() {
                    ct.frame_span(o, FRAME_LANE_READ, "read", now, op.end);
                }
                self.live_chunk_spans(frame.chunks(), "hbm_read", now, o);
                // HBM-path latency: write completion → head arrival.
                self.run
                    .metrics
                    .observe("switch.path.hbm_ns", op.end.since(written).as_ns_f64());
                self.run.metrics.inc("switch.frames.read", 1);
                self.observe_queue_depth(o);
                q.schedule(op.end, Ev::FrameAtHead(frame));
            } else if self.cfg.padding_and_bypass
                && self.run.pfi.frames_buffered(o) == 0
                && self.run.tail.forming_len(o) > 0
            {
                // HBM empty for this output: pad the partial frame and
                // bypass the HBM straight into the head SRAM (§4).
                let frame = self
                    .run
                    .tail
                    .take_padded_frame(o, self.cfg.batch_size())
                    .expect("forming_len > 0");
                self.run.padded_bytes += self.cfg.batch_size() * frame.padded_batches;
                self.run.pending_to_head[o] += 1;
                let bypass_end = now + self.bypass_latency();
                if let Some(ct) = self.chrome.as_mut() {
                    // A padded frame ends its fill here and bypasses the
                    // HBM, so its "read" lane carries the bypass hop.
                    if let Some(start) = ct.fill_start[o].take() {
                        ct.frame_span(o, FRAME_LANE_FILL, "fill", start, now);
                    }
                    ct.frame_span(o, FRAME_LANE_READ, "bypass", now, bypass_end);
                }
                self.live_chunk_spans(frame.chunks(), "hbm_bypass", now, o);
                self.run
                    .metrics
                    .observe("switch.path.bypass_ns", self.bypass_latency().as_ns_f64());
                self.run.metrics.inc("switch.frames.bypass", 1);
                q.schedule(now + self.bypass_latency(), Ev::FrameAtHead(frame));
            }
        }
        if !self.system_empty() {
            q.schedule(now + self.read_interval(), Ev::ReadTurn);
        }
    }

    fn on_drain(&mut self, q: &mut EventQueue<Ev>, now: SimTime, o: usize) {
        let k = self.cfg.batch_size();
        match self.run.head.pop_batch(o, k) {
            Some(batch) => {
                let payload = batch.payload_in(k);
                // Departures land straight in the log; the ones of
                // partially dropped packets are compacted out below.
                let first = self.run.departures.len();
                let end =
                    self.run.outputs[o].drain_batch_into(&batch, now, &mut self.run.departures);
                if let Some(ct) = self.chrome.as_mut() {
                    ct.frame_span(o, FRAME_LANE_DRAIN, "drain", now, end);
                }
                self.run.delivered_bytes += payload;
                // Loss-free runs keep the drop set empty; skip the
                // per-departure probe entirely then.
                let check_drops = !self.run.dropped_ids.is_empty();
                let mut kept = first;
                for i in first..self.run.departures.len() {
                    let d = self.run.departures[i];
                    if check_drops && self.run.dropped_ids.contains(&d.packet) {
                        continue; // partially dropped packet: not delivered
                    }
                    self.run.delivered_packets += 1;
                    self.run.live_packets -= 1;
                    self.run.last_departure = self.run.last_departure.max(d.time);
                    self.live_span_end(d.packet, "departure", d.time, o);
                    self.run.departures[kept] = d;
                    kept += 1;
                }
                self.run.departures.truncate(kept);
                // The batch's payload left the switch; recycle its
                // chunk storage for future batch formation.
                self.chunk_pool.put(batch.chunks);
                q.schedule(end, Ev::Drain(o));
            }
            None => {
                self.run.drain_scheduled[o] = false;
            }
        }
    }

    /// Run an arrival-ordered trace to completion (or `horizon`,
    /// whichever comes first) and report. Consumes the switch: the
    /// report takes ownership of the departure log instead of cloning
    /// it. Use [`HbmSwitch::run_source`] to keep the switch alive for
    /// post-run inspection.
    pub fn run(mut self, trace: &[Packet], horizon: SimTime) -> SwitchReport {
        self.run_source(ReplaySource::new(trace), horizon, &FaultPlan::default())
            .expect("an empty fault plan is valid");
        self.into_report()
    }

    /// Run a trace while applying `plan` mid-flight: channels fail and
    /// recover, banks stick, refresh storms rage — and the report's
    /// degraded-mode fields account for it. Channel indices in the plan
    /// are switch-local (`0..T`); wavelength events are ignored here
    /// (the SPS layer applies them at the front end). An empty plan is
    /// byte-identical to [`HbmSwitch::run`].
    ///
    /// Internally this replays the trace through the streaming engine
    /// ([`HbmSwitch::run_source`]), which checks the plan first; same-seed
    /// results are byte-identical to the materialized batch engine
    /// ([`HbmSwitch::run_preloaded`]).
    pub fn run_with_faults(
        mut self,
        trace: &[Packet],
        horizon: SimTime,
        plan: &FaultPlan,
    ) -> Result<SwitchReport, ConfigError> {
        self.run_source(ReplaySource::new(trace), horizon, plan)?;
        Ok(self.into_report())
    }

    /// The materialized-trace reference engine: pre-schedules every
    /// arrival into the event queue before running, exactly like the
    /// original batch pipeline (O(horizon) memory). Kept as the
    /// byte-identity oracle for the streaming engine — the equivalence
    /// property suite runs both and compares serialized reports. The
    /// plan is checked first, as in [`HbmSwitch::run_source`].
    pub fn run_preloaded(
        mut self,
        trace: &[Packet],
        horizon: SimTime,
        plan: &FaultPlan,
    ) -> Result<SwitchReport, ConfigError> {
        plan.validate_switch(&self.cfg)
            .map_err(ConfigError::FaultPlan)?;
        let mut q: EventQueue<Ev> = EventQueue::new();
        let mut last_arrival = SimTime::ZERO;
        for p in trace {
            assert!(p.arrival >= last_arrival, "trace must be arrival-ordered");
            last_arrival = p.arrival;
            q.schedule(p.arrival, Ev::Arrival(*p));
        }
        for ev in plan.events() {
            if !ev.kind.is_photonic() {
                q.schedule(ev.at, Ev::Fault(*ev));
            }
        }
        q.schedule(last_arrival, Ev::ArrivalsDone);
        q.schedule(SimTime::ZERO, Ev::ReadTurn);
        while let Some(t) = q.peek_time() {
            if t > horizon {
                break;
            }
            let (now, ev) = q.pop().expect("peeked");
            self.handle(&mut q, now, ev);
        }
        self.roll_capacity(self.run.last_departure);
        Ok(self.into_report())
    }

    /// The streaming engine: pull arrivals incrementally from `source`
    /// as simulated time advances, instead of pre-scheduling the whole
    /// trace. Memory is O(in-flight packets + event queue), independent
    /// of the horizon, so soak runs can extend arbitrarily.
    ///
    /// Determinism / equivalence argument (the equivalence suite checks
    /// this byte-for-byte): the batch engine's only use of the
    /// pre-scheduled arrivals is that, at any instant `t`, arrivals pop
    /// before every other event at `t` (they were scheduled first, so
    /// they hold the lowest tie-break sequence numbers). This loop
    /// reproduces that order with a one-packet feeder lookahead: the
    /// pending arrival is dispatched whenever its time is `<=` the
    /// queue's next event time, and static faults are scheduled before
    /// the initial `ReadTurn` just as the batch path orders them. The
    /// `arrivals_done` flag (batch: an `ArrivalsDone` event at the last
    /// arrival time) is set as soon as the source is exhausted; the
    /// flag is only read by the read engine's shutdown check, which in
    /// the batch order always runs after `ArrivalsDone` at equal times,
    /// so the earlier set is unobservable.
    ///
    /// The plan is checked first with [`FaultPlan::validate_switch`]; a
    /// plan this switch cannot run (a channel outside `0..T`, or faults
    /// that leave the PFI engine unable to place frames) is
    /// [`ConfigError::FaultPlan`] and nothing runs.
    ///
    /// Does not consume the switch — inspect it afterwards, then call
    /// [`HbmSwitch::into_report`].
    pub fn run_source<S: PacketSource>(
        &mut self,
        source: S,
        horizon: SimTime,
        plan: &FaultPlan,
    ) -> Result<(), ConfigError> {
        plan.validate_switch(&self.cfg)
            .map_err(ConfigError::FaultPlan)?;
        let mut q = self.initial_queue(plan);
        let outcome = self.drive(&mut q, &mut Feeder::new(source), horizon, None);
        debug_assert!(matches!(outcome, Ok(RunOutcome::Completed)));
        Ok(())
    }

    /// A fresh run's event queue: the plan's switch-level faults, then
    /// the first read turn.
    fn initial_queue(&self, plan: &FaultPlan) -> EventQueue<Ev> {
        let mut q = EventQueue::new();
        for ev in plan.events() {
            if !ev.kind.is_photonic() {
                q.schedule(ev.at, Ev::Fault(*ev));
            }
        }
        q.schedule(SimTime::ZERO, Ev::ReadTurn);
        q
    }

    /// The run loop behind [`HbmSwitch::run_source`] and
    /// [`HbmSwitch::run_source_checkpointed`]. It merges `feeder`'s
    /// arrivals with `q`'s events (arrival first on a tie), flushes
    /// the live-telemetry epochs that end before each dispatch, and
    /// calls `on_epoch` whenever that flush closed an epoch. The hook
    /// runs after the flush and before the dispatch, where the whole
    /// run state is consistent; `Ok(true)` from it ends the run as
    /// [`RunOutcome::Interrupted`].
    fn drive<S: PacketSource>(
        &mut self,
        q: &mut EventQueue<Ev>,
        feeder: &mut Feeder<S>,
        horizon: SimTime,
        mut on_epoch: Option<&mut EpochHook<'_, S>>,
    ) -> Result<RunOutcome, SnapshotError> {
        loop {
            if feeder.is_exhausted() {
                self.run.arrivals_done = true;
            }
            // Lap structure when the profiler is attached: peeks and
            // pops are one `KernelPop` lap, the epoch flush
            // self-attributes to `TelemetryExport` inside
            // `live_flush_one`, the epoch hook is `CheckpointSave`, and
            // the dispatch is attributed by event kind. Laps chain
            // without overlap, so summed phase time stays below wall
            // time. The lap starters are 1-in-64 sampled (see
            // `prof_now_sampled`), and a sampled iteration reads the
            // clock three times unless an epoch closes in it: each read
            // costs about half a simulated event.
            let mut t0 = prof_now_sampled(&mut self.prof);
            let (take_arrival, next) = match (feeder.peek_time(), q.peek_time()) {
                (Some(a), Some(t)) if a <= t => (true, a),
                (Some(a), None) => (true, a),
                (_, Some(t)) => (false, t),
                (None, None) => break,
            };
            if next > horizon {
                break;
            }
            if self.live_epoch_due(next) {
                // The flush closes the profile window: end the kernel
                // lap before it and restart it after.
                prof_lap(&mut self.prof, Phase::KernelPop, &mut t0);
                self.live_flush_epochs(next, feeder.pulled());
                if let Some(hook) = on_epoch.as_deref_mut() {
                    let tck = prof_now(&self.prof);
                    let stop = hook(&*self, &*q, &*feeder)?;
                    prof_add(&mut self.prof, Phase::CheckpointSave, tck);
                    if stop {
                        self.prof_finish();
                        return Ok(RunOutcome::Interrupted);
                    }
                }
                t0 = prof_renew(t0);
            }
            let (now, ev) = if take_arrival {
                let (at, p) = feeder.pop().expect("peeked");
                (at, Ev::Arrival(p))
            } else {
                q.pop().expect("peeked")
            };
            prof_lap(&mut self.prof, Phase::KernelPop, &mut t0);
            let phase = Self::phase_of(&ev);
            self.handle(q, now, ev);
            prof_add(&mut self.prof, phase, t0);
        }
        self.roll_capacity(self.run.last_departure);
        self.live_finish(feeder.pulled());
        self.prof_finish();
        Ok(RunOutcome::Completed)
    }

    /// Serialize the complete mid-run state (plus the pending event
    /// queue and feeder position) into a [`Value`] for a snapshot.
    ///
    /// The Chrome trace recorder exists for post-run inspection and is
    /// not checkpointable; a run with it enabled is rejected here
    /// rather than resumed with a silently truncated capture.
    fn save_state(&self, q: &EventQueue<Ev>, feeder: FeederState) -> Result<Value, SnapshotError> {
        if self.chrome.is_some() {
            return Err(SnapshotError::Unsupported(
                "chrome trace capture cannot be checkpointed".into(),
            ));
        }
        Ok(SwitchState {
            cfg: self.cfg.to_value(),
            run: self.run.clone(),
            live: self.live.as_ref().map(|l| l.state.clone()),
            queue: q.entries(),
            queue_next_seq: q.next_seq(),
            queue_last_popped: q.now(),
            feeder,
        }
        .to_value())
    }

    /// Overwrite this (freshly built, same-config) switch with a
    /// snapshotted mid-run state, and rebuild the event queue and the
    /// feeder with `source` rewound to the checkpointed position. The snapshot's config
    /// echo must match `self.cfg` and the live-telemetry shape (period,
    /// sampling rate, on/off) must match how this switch was set up —
    /// anything else is a [`SnapshotError::Mismatch`].
    fn restore_from<S: PacketSource + StatefulSource>(
        &mut self,
        st: SwitchState,
        source: S,
    ) -> Result<(EventQueue<Ev>, Feeder<S>), SnapshotError> {
        if self.cfg.to_value() != st.cfg {
            return Err(SnapshotError::Mismatch(
                "router configuration differs from the checkpointed run".into(),
            ));
        }
        // Rebuild the queue and the feeder before any field of the
        // switch is overwritten, so a corrupt snapshot leaves it intact.
        let q = EventQueue::from_entries(st.queue, st.queue_next_seq, st.queue_last_popped)
            .map_err(|e| SnapshotError::Mismatch(format!("event queue does not restore: {e}")))?;
        let feeder = Feeder::restore(source, &st.feeder)
            .map_err(|e| SnapshotError::Mismatch(format!("feeder state does not decode: {e}")))?;
        match (self.live.as_mut(), st.live) {
            (None, None) => {}
            (Some(live), Some(ls)) => {
                if live.state.clock.period() != ls.clock.period() {
                    return Err(SnapshotError::Mismatch(format!(
                        "telemetry epoch period differs: run has {}, snapshot has {}",
                        live.state.clock.period(),
                        ls.clock.period()
                    )));
                }
                if live.state.sample_one_in != ls.sample_one_in {
                    return Err(SnapshotError::Mismatch(format!(
                        "span sampling rate differs: run has 1-in-{}, snapshot has 1-in-{}",
                        live.state.sample_one_in, ls.sample_one_in
                    )));
                }
                self.live_boundary_ps = if ls.finished {
                    u64::MAX
                } else {
                    ls.clock.next_boundary().as_ps()
                };
                live.state = ls;
            }
            (Some(_), None) => {
                return Err(SnapshotError::Mismatch(
                    "run streams live telemetry but the snapshot was taken without it".into(),
                ));
            }
            (None, Some(_)) => {
                return Err(SnapshotError::Mismatch(
                    "snapshot streams live telemetry but this run has it off".into(),
                ));
            }
        }
        self.run = st.run;
        self.input_queued.clear();
        Ok((q, feeder))
    }

    /// [`HbmSwitch::run_source`] with crash-safe checkpointing: every
    /// `every_epochs` closed telemetry epochs (and whenever
    /// `should_stop` returns true at an epoch boundary) the complete
    /// mid-run state — switch, pending event queue, feeder/source
    /// position, telemetry clock and record counters — is handed to
    /// `persist` as a [`Value`], together with the epoch and span
    /// record counts emitted so far.
    ///
    /// Pass `resume: Some(state)` (a previously persisted value) to
    /// continue an interrupted run: the final report and every
    /// telemetry record emitted after the checkpoint are byte-identical
    /// to the uninterrupted same-seed run, because snapshots are taken
    /// at the loop's idempotent point — after the epoch flush, before
    /// the next dispatch — and capture the exact pop order of the event
    /// queue. On resume the fault `plan` is ignored: pending fault
    /// events live in the snapshotted queue. A fresh run checks the
    /// plan first with [`FaultPlan::validate_switch`]; one this switch
    /// cannot run is [`ConfigError::FaultPlan`] and nothing runs.
    ///
    /// Checkpoints ride the telemetry epoch clock, so live telemetry
    /// must be enabled ([`HbmSwitch::enable_live_telemetry`]) with the
    /// same period and sampling rate as the checkpointed run; the
    /// driver-facing validation for that is
    /// [`ConfigError::CheckpointNeedsEpochs`].
    ///
    /// # Panics
    /// Panics if `every_epochs` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn run_source_checkpointed<S, FStop, FPersist>(
        &mut self,
        source: S,
        horizon: SimTime,
        plan: &FaultPlan,
        resume: Option<&Value>,
        every_epochs: u64,
        mut should_stop: FStop,
        mut persist: FPersist,
    ) -> Result<RunOutcome, CheckpointedRunError>
    where
        S: PacketSource + StatefulSource,
        FStop: FnMut() -> bool,
        FPersist: FnMut(&Value, u64, u64) -> Result<(), SnapshotError>,
    {
        assert!(every_epochs > 0, "checkpoint interval must be positive");
        let (mut q, mut feeder) = match resume {
            Some(v) => {
                let t0 = prof_now(&self.prof);
                let st = SwitchState::from_value(v).map_err(|e| {
                    SnapshotError::Mismatch(format!(
                        "snapshot does not decode as a switch state: {e}"
                    ))
                })?;
                let restored = self.restore_from(st, source)?;
                prof_add(&mut self.prof, Phase::CheckpointRestore, t0);
                restored
            }
            None => {
                plan.validate_switch(&self.cfg)
                    .map_err(ConfigError::FaultPlan)?;
                (self.initial_queue(plan), Feeder::new(source))
            }
        };
        // Snapshot when `every_epochs` epochs have closed since the last
        // one, or when the stop flag is up (then end the run).
        let mut last_ckpt = self.live_epochs_emitted();
        let mut checkpoint = |sw: &HbmSwitch, q: &EventQueue<Ev>, feeder: &Feeder<S>| {
            let epochs = sw.live_epochs_emitted();
            let stop = should_stop();
            if !stop && epochs - last_ckpt < every_epochs {
                return Ok(false);
            }
            let state = sw.save_state(q, feeder.save())?;
            persist(&state, epochs, sw.live_spans_emitted())?;
            last_ckpt = epochs;
            Ok(stop)
        };
        Ok(self.drive(&mut q, &mut feeder, horizon, Some(&mut checkpoint))?)
    }

    /// Build the end-of-run report, consuming the switch: the
    /// (potentially very large) departure log moves into the report.
    pub fn into_report(mut self) -> SwitchReport {
        let departures = std::mem::take(&mut self.run.departures);
        let first = self.run.first_arrival.unwrap_or(SimTime::ZERO);
        let span = self.run.last_departure.saturating_since(first);
        let delivered_rate = if span.is_zero() {
            DataRate::ZERO
        } else {
            DataRate::from_bps(
                u64::try_from(
                    self.run.delivered_bytes.bits() as u128 * rip_units::PS_PER_S as u128
                        / span.as_ps() as u128,
                )
                .expect("rate overflow"),
            )
        };
        let end = first + span;
        let lane_cv = if self.run.outputs.is_empty() {
            0.0
        } else {
            self.run
                .outputs
                .iter()
                .map(|p| p.lane_spread_cv())
                .sum::<f64>()
                / self.run.outputs.len() as f64
        };
        let metrics = self.final_metrics(end, span);
        SwitchReport {
            offered_packets: self.run.offered_packets,
            offered_bytes: self.run.offered_bytes,
            delivered_packets: self.run.delivered_packets,
            delivered_bytes: self.run.delivered_bytes,
            dropped_input: self.run.dropped_input,
            dropped_frames: self.run.dropped_frames,
            dropped_bytes: self.run.dropped_bytes,
            padded_bytes: self.run.padded_bytes,
            peak_in_flight_packets: self.run.peak_in_flight,
            departures,
            span,
            delivered_rate,
            delivery_fraction: if self.run.offered_bytes.is_zero() {
                1.0
            } else {
                self.run.delivered_bytes.bits() as f64 / self.run.offered_bytes.bits() as f64
            },
            hbm_utilization: if span.is_zero() {
                0.0
            } else {
                self.run.group.utilization(first, end)
            },
            input_peak: self.run.input_peak,
            tail_peak: self.run.tail.occupancy().peak,
            head_peak: self.run.head.occupancy().peak,
            lane_spread_cv: lane_cv,
            dropped_packets_fault: self.run.dropped_packets_fault,
            dropped_packets_congestion: self.run.dropped_packets_congestion,
            time_degraded: self.run.time_degraded,
            capacity_lost: self.run.capacity_lost,
            recovery_drain: self.run.recovery_drain,
            metrics,
        }
    }

    /// The run-time registry plus the end-of-run aggregates pulled from
    /// the HBM device model and the photonic egress stages. Every value
    /// derives from sim time and deterministic counters — never
    /// wall-clock — so repeated same-seed runs serialize identically.
    fn final_metrics(&self, end: SimTime, span: TimeDelta) -> MetricsRegistry {
        let mut m = self.run.metrics.clone();
        // HBM command mix, row locality and stall accounting.
        let (mut act, mut pre, mut rd, mut wr, mut refr) = (0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut hits, mut misses) = (0u64, 0u64);
        let (mut faw_ps, mut turn_ps, mut bus_ps) = (0u64, 0u64, 0u64);
        for ch in self.run.group.channels() {
            let s = ch.stats();
            act += s.activates.get();
            pre += s.precharges.get();
            rd += s.reads.get();
            wr += s.writes.get();
            refr += s.refreshes.get();
            hits += s.row_hits.get();
            misses += s.row_misses.get();
            faw_ps += s.faw_stall.total().as_ps();
            turn_ps += s.turnaround.total().as_ps();
            bus_ps += s.bus_busy.total().as_ps();
            if !span.is_zero() {
                for b in 0..ch.num_banks() {
                    m.observe(
                        "hbm.bank_busy_frac",
                        ch.bank_busy(b).as_ps() as f64 / span.as_ps() as f64,
                    );
                }
            }
        }
        m.inc("hbm.cmd.act", act);
        m.inc("hbm.cmd.pre", pre);
        m.inc("hbm.cmd.rd", rd);
        m.inc("hbm.cmd.wr", wr);
        m.inc("hbm.cmd.ref", refr);
        m.inc("hbm.row_hits", hits);
        m.inc("hbm.row_misses", misses);
        m.inc("hbm.faw_stall_ps", faw_ps);
        m.inc("hbm.wtr_turnaround_ps", turn_ps);
        m.inc("hbm.bus_busy_ps", bus_ps);
        if hits + misses > 0 {
            m.set_gauge(
                "hbm.row_hit_ratio",
                end,
                hits as f64 / (hits + misses) as f64,
            );
        }
        // Streaming-memory high-water mark; summed across planes when
        // SPS merges registries, giving an upper bound on the router's
        // total in-flight footprint.
        m.inc("switch.packets.peak_in_flight", self.run.peak_in_flight);
        // Run totals as counters (additive across planes under the SPS
        // merge; the live gauge series of the same names carries the
        // per-epoch view).
        m.inc("switch.packets.offered", self.run.offered_packets);
        m.inc("switch.packets.delivered", self.run.delivered_packets);
        m.inc(
            "switch.packets.dropped",
            self.run.dropped_packets_fault + self.run.dropped_packets_congestion,
        );
        // Frame fill efficiency over everything written to the HBM.
        let cap = m.counter("switch.frame.capacity_bytes");
        if cap > 0 {
            m.set_gauge(
                "switch.frame.fill_efficiency",
                end,
                m.counter("switch.frame.payload_bytes") as f64 / cap as f64,
            );
        }
        // Photonic egress: per-lane utilization and E/O energy totals.
        let mut oeo_bits = 0u64;
        let mut oeo_events = 0u64;
        let mut oeo_joules = 0.0f64;
        let lane_bps = self.cfg.rate_per_wavelength.bps();
        for p in &self.run.outputs {
            oeo_bits += p.oeo().total_converted().bits();
            oeo_events += p.oeo().conversions();
            oeo_joules += p.oeo_energy_joules();
            if !span.is_zero() && lane_bps > 0 {
                let span_s = span.as_ps() as f64 * 1e-12;
                for &bytes in p.lane_bytes() {
                    m.observe(
                        "phy.lane_util",
                        bytes as f64 * 8.0 / (lane_bps as f64 * span_s),
                    );
                }
            }
        }
        m.inc("phy.oeo_bits", oeo_bits);
        m.inc("phy.oeo_conversions", oeo_events);
        m.set_gauge("phy.oeo_energy_j", end, oeo_joules);
        m
    }

    /// Access to the HBM group (device-level stats).
    pub fn hbm(&self) -> &HbmGroup {
        &self.run.group
    }

    /// The live telemetry registry (run-time metrics only; the full
    /// set including device/photonic aggregates is in
    /// [`SwitchReport::metrics`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.run.metrics
    }

    /// Toggle HBM command recording on every channel, so a run's
    /// complete ACT/RD/WR/PRE/REFsb stream can be replayed through an
    /// independent timing-conformance checker afterwards.
    pub fn set_hbm_command_recording(&mut self, on: bool) {
        self.run.group.set_record_commands(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rip_traffic::{
        ArrivalProcess, BoundedSource, MergedSource, PacketGenerator, SizeDistribution,
        TrafficMatrix,
    };

    /// Build an arrival-ordered trace for the small config.
    fn trace(load: f64, tm: &TrafficMatrix, horizon: SimTime, seed: u64) -> Vec<Packet> {
        let cfg = RouterConfig::small();
        let sources: Vec<_> = (0..cfg.ribbons)
            .map(|i| {
                let g = PacketGenerator::new(
                    i,
                    cfg.port_rate(),
                    load * tm.row_load(i),
                    tm.row(i).to_vec(),
                    SizeDistribution::Imix,
                    ArrivalProcess::Poisson,
                    256,
                    seed,
                )
                .unwrap();
                BoundedSource::new(g, horizon)
            })
            .collect();
        MergedSource::new(sources).packets().collect()
    }

    fn horizon_us(us: u64) -> SimTime {
        SimTime::from_ns(us * 1000)
    }

    #[test]
    fn delivers_everything_at_moderate_uniform_load() {
        let cfg = RouterConfig::small();
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.7, &tm, horizon_us(100), 42);
        assert!(!t.is_empty());
        let r = sw.run(&t, horizon_us(400));
        assert_eq!(r.dropped_input, 0, "input drops at moderate load");
        assert_eq!(r.dropped_frames, 0, "frame drops at moderate load");
        assert!(
            r.delivery_fraction > 0.999,
            "delivered only {}",
            r.delivery_fraction
        );
        assert_eq!(r.delivered_packets + r.dropped_input, r.offered_packets);
    }

    #[test]
    fn high_admissible_load_sustains_throughput() {
        let cfg = RouterConfig::small();
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.92, &tm, horizon_us(150), 7);
        let offered: u64 = t.iter().map(|p| p.size.bits()).sum();
        let r = sw.run(&t, horizon_us(600));
        // E3: ~100% throughput for admissible traffic.
        assert!(
            r.delivery_fraction > 0.995,
            "delivered {} of offered",
            r.delivery_fraction
        );
        let offered_rate = offered as f64 / (150e-6) / 1e9; // Gb/s
        assert!(offered_rate > 0.8 * 0.92 * 4.0 * 640.0 * 0.9 / 1.0); // sanity
    }

    #[test]
    fn departures_per_output_are_fifo_per_flow_pair() {
        let cfg = RouterConfig::small();
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(60), 3);
        let r = sw.run(&t, horizon_us(400));
        // Packets of the same (input, output) pair must depart in
        // arrival (id) order — PFI's frame ordering guarantee.
        use std::collections::HashMap;
        let mut key_of: HashMap<u64, (usize, usize)> = HashMap::new();
        for p in &t {
            key_of.insert(p.id, (p.input, p.output));
        }
        let mut last_id: HashMap<(usize, usize), u64> = HashMap::new();
        let mut by_time = r.departures.clone();
        by_time.sort_by_key(|d| (d.time, d.packet));
        for d in &by_time {
            let key = key_of[&d.packet];
            if let Some(&prev) = last_id.get(&key) {
                assert!(
                    d.packet > prev,
                    "pair {key:?}: packet {} departed after {}",
                    prev,
                    d.packet
                );
            }
            last_id.insert(key, d.packet);
        }
        assert!(r.delivered_packets > 100);
    }

    #[test]
    fn hotspot_inadmissible_load_drops_but_keeps_hot_output_saturated() {
        // Shrink the HBM so the per-output region (stack/4/32 KiB
        // frames) fills within a short run — at the real 64 GB stack the
        // router would absorb ~50 ms of oversubscription, the paper's
        // §4 buffering headline.
        let mut cfg = RouterConfig::small();
        cfg.hbm_geometry.stack_capacity = rip_units::DataSize::from_mib(32);
        cfg.validate().unwrap();
        assert_eq!(cfg.region_frames(), 256);
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        // Every input sends 60% of its traffic to output 0: column load
        // 4 x 0.9 x 0.6 = 2.16 -> inadmissible.
        let tm = TrafficMatrix::hotspot(cfg.ribbons, 1.0, 0, 0.6);
        let t = trace(0.9, &tm, horizon_us(500), 5);
        let r = sw.run(&t, horizon_us(650));
        assert!(
            r.dropped_input + r.dropped_frames > 0,
            "oversubscription must drop"
        );
        // A packet whose frame was lost leaves no departure, even when
        // its last chunk went in a later frame that was kept.
        assert_eq!(r.departures.len() as u64, r.delivered_packets);
        // The hot output's line stays busy: delivered >= what output 0
        // can carry, i.e. delivery fraction ~ capacity/offered.
        assert!(r.delivery_fraction > 0.5, "{}", r.delivery_fraction);
        assert!(r.delivery_fraction < 0.95, "{}", r.delivery_fraction);
    }

    #[test]
    fn low_load_latency_is_bounded_by_padding_and_bypass() {
        let cfg = RouterConfig::small();
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.05, &tm, horizon_us(50), 9);
        let r = sw.run(&t, horizon_us(4000));
        assert!(
            r.delivery_fraction > 0.999,
            "padding/bypass must flush everything: {}",
            r.delivery_fraction
        );
        assert!(r.padded_bytes.bytes() > 0, "padding must have been used");
        // Delay bounded by the flush timeout + pipeline, far below the
        // horizon.
        let p99 = r.delays_ns().quantile(0.99).unwrap();
        assert!(p99 < 200_000.0, "p99 delay {p99} ns too large");
    }

    #[test]
    fn without_padding_low_load_strands_data() {
        let mut cfg = RouterConfig::small();
        cfg.padding_and_bypass = false;
        cfg.batch_timeout_batches = 0;
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.05, &tm, horizon_us(50), 9);
        let r = sw.run(&t, horizon_us(4000));
        // Partial frames and partial batches strand without padding;
        // full frames do still fill eventually at 5% load, so the loss
        // is partial but must be visible.
        assert!(
            r.delivery_fraction < 0.99,
            "expected stranding, delivered {}",
            r.delivery_fraction
        );
        // And the padded run of the sibling test delivers everything,
        // strictly more than this run.
        let mut padded_cfg = RouterConfig::small();
        padded_cfg.padding_and_bypass = true;
        let padded = HbmSwitch::new(padded_cfg).unwrap();
        let rp = padded.run(&t, horizon_us(4000));
        assert!(rp.delivery_fraction > r.delivery_fraction);
    }

    #[test]
    fn hbm_utilization_tracks_load() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let lo = HbmSwitch::new(cfg.clone()).unwrap();
        let r_lo = lo.run(&trace(0.3, &tm, horizon_us(100), 11), horizon_us(500));
        let hi = HbmSwitch::new(cfg.clone()).unwrap();
        let r_hi = hi.run(&trace(0.9, &tm, horizon_us(100), 11), horizon_us(500));
        assert!(
            r_hi.hbm_utilization > r_lo.hbm_utilization,
            "hi {} vs lo {}",
            r_hi.hbm_utilization,
            r_lo.hbm_utilization
        );
        // At 90% offered, both directions cross the HBM: utilization
        // approaches 0.9 (of the 2NP-rated group).
        assert!(r_hi.hbm_utilization > 0.6, "{}", r_hi.hbm_utilization);
    }

    #[test]
    fn dynamic_pages_absorb_hotspots_better_than_static_regions() {
        // Same tiny memory, same inadmissible hotspot: dynamic pages let
        // the hot output borrow idle outputs' buffer and drop less.
        let mk = |mode| {
            let mut cfg = RouterConfig::small();
            cfg.hbm_geometry.stack_capacity = rip_units::DataSize::from_mib(32);
            cfg.region_mode = mode;
            cfg
        };
        let tm = TrafficMatrix::hotspot(4, 1.0, 0, 0.6);
        let t = trace(0.9, &tm, horizon_us(500), 5);
        let s = HbmSwitch::new(mk(rip_hbm::RegionMode::Static)).unwrap();
        let rs = s.run(&t, horizon_us(650));
        let d = HbmSwitch::new(mk(rip_hbm::RegionMode::DynamicPages { page_rows: 8 })).unwrap();
        let rd = d.run(&t, horizon_us(650));
        assert!(rs.dropped_bytes.bytes() > 0, "static must drop here");
        assert!(
            rd.dropped_bytes < rs.dropped_bytes,
            "dynamic {} !< static {}",
            rd.dropped_bytes,
            rs.dropped_bytes
        );
        assert!(rd.delivery_fraction > rs.delivery_fraction);
    }

    #[test]
    fn per_lane_egress_adds_wavelength_serialization_delay() {
        let tm = TrafficMatrix::uniform(4, 1.0);
        let base = RouterConfig::small();
        let t = trace(0.6, &tm, horizon_us(80), 31);
        let agg = HbmSwitch::new(base.clone()).unwrap();
        let ra = agg.run(&t, horizon_us(400));
        let mut cfg = base;
        cfg.per_lane_egress = true;
        let lane = HbmSwitch::new(cfg).unwrap();
        let rl = lane.run(&t, horizon_us(400));
        // Both deliver everything at moderate load...
        assert!(ra.delivery_fraction > 0.999);
        assert!(rl.delivery_fraction > 0.999, "{}", rl.delivery_fraction);
        // ...but the lane model pays per-wavelength serialization.
        let ma = ra.delays_ns().mean().unwrap();
        let ml = rl.delays_ns().mean().unwrap();
        assert!(ml > ma, "lane mean {ml} !> aggregate mean {ma}");
    }

    #[test]
    fn streaming_engine_matches_preloaded_engine() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(80), 19);
        let rb = HbmSwitch::new(cfg.clone())
            .unwrap()
            .run_preloaded(&t, horizon_us(400), &FaultPlan::default())
            .unwrap();
        let rs = HbmSwitch::new(cfg).unwrap().run(&t, horizon_us(400));
        assert_eq!(
            format!("{rb:?}"),
            format!("{rs:?}"),
            "streaming run must be indistinguishable from the batch engine"
        );
    }

    #[test]
    fn in_flight_telemetry_balances() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.7, &tm, horizon_us(100), 23);
        let r = HbmSwitch::new(cfg).unwrap().run(&t, horizon_us(400));
        assert!(r.peak_in_flight_packets > 0);
        assert!(r.peak_in_flight_packets <= r.offered_packets);
        // The run drained fully, so the peak is far below the horizon's
        // total packet count — the O(in-flight) memory claim.
        assert!(
            r.peak_in_flight_packets < r.offered_packets / 2,
            "peak {} vs offered {}",
            r.peak_in_flight_packets,
            r.offered_packets
        );
        assert_eq!(
            r.metrics.counter("switch.packets.peak_in_flight"),
            r.peak_in_flight_packets
        );
    }

    #[test]
    fn empty_trace_is_safe() {
        let cfg = RouterConfig::small();
        let sw = HbmSwitch::new(cfg).unwrap();
        let r = sw.run(&[], horizon_us(1));
        assert_eq!(r.offered_packets, 0);
        assert_eq!(r.delivery_fraction, 1.0);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.6, &tm, horizon_us(40), 21);
        let a = HbmSwitch::new(cfg.clone()).unwrap();
        let ra = a.run(&t, horizon_us(200));
        let b = HbmSwitch::new(cfg).unwrap();
        let rb = b.run(&t, horizon_us(200));
        assert_eq!(ra.delivered_packets, rb.delivered_packets);
        assert_eq!(ra.delivered_bytes, rb.delivered_bytes);
        assert_eq!(ra.departures.len(), rb.departures.len());
        assert_eq!(
            ra.departures.last().map(|d| (d.packet, d.time)),
            rb.departures.last().map(|d| (d.packet, d.time))
        );
    }

    /// 64 B packets arriving at `times_ns`, ids in order.
    fn arrivals_at(times_ns: &[u64]) -> Vec<Packet> {
        times_ns
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                Packet::new(
                    i as u64,
                    0,
                    0,
                    rip_units::DataSize::from_bytes(64),
                    SimTime::from_ns(t),
                )
            })
            .collect()
    }

    #[test]
    fn feeder_yields_packets_in_order() {
        let v = arrivals_at(&[1, 2, 2, 5]);
        let mut f = Feeder::new(ReplaySource::new(&v));
        assert_eq!(f.peek_time(), Some(SimTime::from_ns(1)));
        let mut got = Vec::new();
        while let Some((_, p)) = f.pop() {
            got.push(p.id);
        }
        assert_eq!(got, [0, 1, 2, 3]);
        assert!(f.is_exhausted());
    }

    #[test]
    fn feeder_buffers_one_packet_of_lookahead() {
        let v = arrivals_at(&[1, 2, 3, 4, 5]);
        let mut f = Feeder::new(ReplaySource::new(&v));
        // A peek pulls exactly one packet, not the whole stream.
        assert!(f.peek_time().is_some());
        assert!(f.peek_time().is_some());
        assert_eq!(f.pulled(), 1);
        assert_eq!(f.pop().map(|(_, p)| p.id), Some(0));
    }

    #[test]
    fn feeder_pulled_counts_source_progress() {
        let v = arrivals_at(&[1, 2, 3]);
        let mut f = Feeder::new(ReplaySource::new(&v));
        assert_eq!(f.pulled(), 0);
        f.peek_time();
        assert_eq!(f.pulled(), 1);
        while f.pop().is_some() {}
        assert_eq!(f.pulled(), 3);
    }

    #[test]
    fn feeder_on_empty_source_is_exhausted_immediately() {
        let mut f = Feeder::new(ReplaySource::new(&[]));
        assert!(f.is_exhausted());
        assert_eq!(f.peek_time(), None);
        assert!(f.pop().is_none());
        assert_eq!(f.pulled(), 0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn feeder_panics_on_out_of_order_source() {
        let v = arrivals_at(&[5, 1]);
        let mut f = Feeder::new(ReplaySource::new(&v));
        while f.pop().is_some() {}
    }

    const CKPT_PERIOD: TimeDelta = TimeDelta::from_ns(2_000);

    /// A live-streaming switch for the checkpoint tests, with the
    /// staged sink handle to read records back out.
    fn ckpt_switch() -> (HbmSwitch, rip_telemetry::SharedSink) {
        let staged = rip_telemetry::SharedSink::new();
        let mut sw = HbmSwitch::new(RouterConfig::small()).unwrap();
        sw.enable_live_telemetry(CKPT_PERIOD, 64, Box::new(staged.clone()));
        (sw, staged)
    }

    #[test]
    fn checkpointing_does_not_perturb_the_run() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(40), 42);
        let (mut plain, plain_sink) = ckpt_switch();
        plain
            .run_source(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
            )
            .unwrap();
        let (mut ck, ck_sink) = ckpt_switch();
        let mut snapshots = 0u64;
        let outcome = ck
            .run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                None,
                1,
                || false,
                |_, _, _| {
                    snapshots += 1;
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(outcome, RunOutcome::Completed);
        assert!(snapshots >= 3, "expected one snapshot per epoch");
        assert_eq!(
            format!("{:?}", plain.into_report()),
            format!("{:?}", ck.into_report()),
            "taking checkpoints changed the simulation"
        );
        assert_eq!(plain_sink.take().records(), ck_sink.take().records());
    }

    #[test]
    fn checkpoint_payloads_read_identically_into_the_switch_state() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(40), 42);
        let (mut sw, _) = ckpt_switch();
        let mut payloads: Vec<String> = Vec::new();
        sw.run_source_checkpointed(
            ReplaySource::new(&t),
            horizon_us(200),
            &FaultPlan::default(),
            None,
            3,
            || false,
            |state, _, _| {
                payloads.push(serde_json::to_string(state).expect("state serializes"));
                Ok(())
            },
        )
        .unwrap();
        assert!(payloads.len() >= 2);
        // Straight into the typed state, and through the tree: the same
        // value, re-serializing to the payload's own bytes.
        for text in &payloads {
            let direct: SwitchState = serde_json::from_str(text).expect("direct decode");
            let tree = SwitchState::from_value(&serde_json::parse(text).expect("parses"))
                .expect("tree decode");
            let direct = serde_json::to_string(&direct).expect("serializes");
            assert!(direct == serde_json::to_string(&tree).expect("serializes"));
            assert!(
                direct == *text,
                "the payload does not re-serialize to itself"
            );
        }
    }

    /// A mid-run checkpoint payload of the small config whose
    /// departure log is not empty, shared by the mutation properties.
    fn real_payload() -> &'static str {
        static PAYLOAD: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        PAYLOAD.get_or_init(|| {
            let cfg = RouterConfig::small();
            let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
            let t = trace(0.8, &tm, horizon_us(40), 42);
            let (mut sw, _) = ckpt_switch();
            let mut payloads = Vec::new();
            sw.run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                None,
                3,
                || false,
                |state, _, _| {
                    payloads.push(serde_json::to_string(state).expect("state serializes"));
                    Ok(())
                },
            )
            .unwrap();
            let text = payloads.swap_remove(payloads.len() / 2);
            assert!(text.is_ascii() && !text.contains("\"departures\":\"\""));
            text
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A real checkpoint payload, truncated, spliced or with bytes
        /// replaced, anywhere or inside its departure log: the direct
        /// and the tree decode of `SwitchState` each return a value or
        /// a typed error, never a panic, and agree on which.
        #[test]
        fn mutated_checkpoint_payloads_decode_or_fail_alike(
            in_log in any::<bool>(),
            cut in any::<prop::sample::Index>(),
            at in any::<prop::sample::Index>(),
            subs in prop::collection::vec(
                (
                    any::<prop::sample::Index>(),
                    prop::sample::select(b"0A/=\"]}-,9 ".to_vec()),
                ),
                1..4,
            ),
        ) {
            let text = real_payload();
            let (lo, hi) = if in_log {
                let key = "\"departures\":\"";
                let lo = text.find(key).expect("the payload has a log") + key.len();
                (lo, lo + text[lo..].find('"').expect("the log string ends"))
            } else {
                (0, text.len())
            };
            let pick = |i: &prop::sample::Index| lo + i.index(hi - lo);
            let mut subbed = text.as_bytes().to_vec();
            for (i, c) in &subs {
                subbed[pick(i)] = *c;
            }
            let subbed = String::from_utf8(subbed).expect("ASCII");
            let spliced = [&text[..pick(&cut)], &text[pick(&at)..]].concat();
            for t in [&text[..pick(&cut)], &subbed[..], &spliced[..]] {
                let direct = serde_json::from_str::<SwitchState>(t).is_ok();
                match serde_json::parse(t) {
                    Ok(tree) => prop_assert_eq!(
                        direct,
                        SwitchState::from_value(&tree).is_ok()
                    ),
                    Err(_) => prop_assert!(!direct),
                }
            }
        }
    }

    #[test]
    fn resume_from_any_checkpoint_continues_byte_identically() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(40), 42);
        let (mut base, base_sink) = ckpt_switch();
        let mut snaps: Vec<(Value, u64, u64)> = Vec::new();
        base.run_source_checkpointed(
            ReplaySource::new(&t),
            horizon_us(200),
            &FaultPlan::default(),
            None,
            1,
            || false,
            |v, epochs, spans| {
                snaps.push((v.clone(), epochs, spans));
                Ok(())
            },
        )
        .unwrap();
        let base_report = format!("{:?}", base.into_report());
        let base_records = base_sink.take();
        let base_records = base_records.records();
        assert!(snaps.len() >= 3);
        for (snap, epochs, spans) in &snaps {
            let (mut sw, sink) = ckpt_switch();
            let outcome = sw
                .run_source_checkpointed(
                    ReplaySource::new(&t),
                    horizon_us(200),
                    &FaultPlan::default(),
                    Some(snap),
                    1,
                    || false,
                    |_, _, _| Ok(()),
                )
                .unwrap();
            assert_eq!(outcome, RunOutcome::Completed);
            assert_eq!(
                format!("{:?}", sw.into_report()),
                base_report,
                "report diverged resuming from epoch {epochs}"
            );
            // Stream records emitted before the checkpoint plus the
            // resumed stream must equal the uninterrupted stream.
            let keep = (epochs + spans) as usize;
            let resumed = sink.take();
            let merged: Vec<_> = base_records
                .iter()
                .take(keep)
                .chain(resumed.records().iter())
                .cloned()
                .collect();
            let expect = base_records.to_vec();
            assert_eq!(
                merged, expect,
                "stream diverged resuming from epoch {epochs}"
            );
        }
    }

    #[test]
    fn stop_flag_snapshots_at_the_next_boundary_and_resumes() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(40), 42);
        let (mut base, base_sink) = ckpt_switch();
        base.run_source(
            ReplaySource::new(&t),
            horizon_us(200),
            &FaultPlan::default(),
        )
        .unwrap();
        let base_report = format!("{:?}", base.into_report());
        let base_records = base_sink.take();

        let (mut sw, sink) = ckpt_switch();
        let mut snap = None;
        let mut boundaries = 0u32;
        let outcome = sw
            .run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                None,
                1_000_000, // interval never fires; only the stop flag snapshots
                || {
                    boundaries += 1;
                    boundaries >= 3
                },
                |v, epochs, spans| {
                    snap = Some((v.clone(), epochs, spans));
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(outcome, RunOutcome::Interrupted);
        let (snap, epochs, spans) = snap.expect("stop must have persisted a snapshot");
        // Nothing is emitted after the final snapshot, so the partial
        // stream is exactly the first epochs+spans records.
        let partial = sink.take();
        assert_eq!(partial.records().len() as u64, epochs + spans);

        let (mut resumed_sw, resumed_sink) = ckpt_switch();
        let outcome = resumed_sw
            .run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                Some(&snap),
                1_000_000,
                || false,
                |_, _, _| Ok(()),
            )
            .unwrap();
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(format!("{:?}", resumed_sw.into_report()), base_report);
        let resumed = resumed_sink.take();
        let merged: Vec<_> = partial
            .records()
            .iter()
            .chain(resumed.records().iter())
            .cloned()
            .collect();
        let expect = base_records.records().to_vec();
        assert_eq!(merged, expect);
    }

    #[test]
    fn resume_rejects_a_different_configuration() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(40), 42);
        let (mut sw, _sink) = ckpt_switch();
        let mut snap = None;
        sw.run_source_checkpointed(
            ReplaySource::new(&t),
            horizon_us(200),
            &FaultPlan::default(),
            None,
            1,
            || false,
            |v, _, _| {
                snap = Some(v.clone());
                Ok(())
            },
        )
        .unwrap();
        let snap = snap.unwrap();

        // Different config: rejected before any state is overwritten.
        let mut other_cfg = RouterConfig::small();
        other_cfg.head_frames += 1;
        let staged = rip_telemetry::SharedSink::new();
        let mut other = HbmSwitch::new(other_cfg).unwrap();
        other.enable_live_telemetry(CKPT_PERIOD, 64, Box::new(staged.clone()));
        let err = other
            .run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                Some(&snap),
                1,
                || false,
                |_, _, _| Ok(()),
            )
            .unwrap_err();
        assert!(
            format!("{err}").contains("configuration differs"),
            "unexpected error: {err}"
        );

        // Live telemetry off: the snapshot carries a stream position
        // the run could not continue.
        let mut silent = HbmSwitch::new(RouterConfig::small()).unwrap();
        let err = silent
            .run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                Some(&snap),
                1,
                || false,
                |_, _, _| Ok(()),
            )
            .unwrap_err();
        assert!(
            format!("{err}").contains("live telemetry"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn diagnostic_captures_cannot_be_checkpointed() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(40), 42);
        let (mut sw, _sink) = ckpt_switch();
        sw.enable_chrome_trace(TraceWindow::all());
        let err = sw
            .run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                None,
                1,
                || false,
                |_, _, _| Ok(()),
            )
            .unwrap_err();
        assert!(
            format!("{err}").contains("chrome trace capture"),
            "unexpected error: {err}"
        );
    }
}
