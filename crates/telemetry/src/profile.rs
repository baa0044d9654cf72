//! Wall-clock self-profiling of the simulator itself.
//!
//! Everything else in this crate is deterministic *simulation*
//! telemetry — stamped with [`SimTime`](rip_units::SimTime), never
//! wall-clock, so same-seed runs are byte-identical. This module is the
//! one deliberate exception: it measures where the *simulator's own*
//! host time goes (event-kernel pops, HBM timing arithmetic, batch
//! assembly, telemetry export, checkpoint I/O,
//! fleet framing), so optimization work can be aimed at the real hot
//! spots instead of guesses.
//!
//! The invariant that keeps the two worlds separate: **wall-clock data
//! never touches a deterministic surface.** Profile records travel on
//! their own stream (a [`ProfileHub`] writer, `ripsim_profile_*`
//! Prometheus families, the flight-recorder ring) and are never mixed
//! into reports, JSONL telemetry, traces or checkpoints — the
//! differential suite runs every shipped config with the profiler on
//! and off and byte-compares all four surfaces.
//!
//! Cost model: phases are an enum indexing two fixed `u64` arrays, so
//! recording a span is two array adds and one monotonic-clock read —
//! no allocation, no map lookup, no lock. The hot loops read the clock
//! only when a profiler is attached (an `Option` check otherwise), and
//! records are flushed once per telemetry epoch, not per event. Even
//! so, an unconditional clock read per simulated event costs several
//! times the event's own work, so per-event phases go through
//! [`prof_now_sampled`] — a systematic 1-in-[`SAMPLE_STRIDE`] sample
//! of loop iterations; coarse once-per-epoch phases (telemetry export,
//! checkpoints, fleet framing) are always timed. The
//! `repro profile-overhead` bench holds the end-to-end overhead under
//! 3 %.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::sink::Exposition;

/// One profiled phase of simulator execution. Adding a variant is
/// cheap: extend [`Phase::ALL`] and [`Phase::name`] and every table
/// resizes at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Event-queue peeks/pops and the arrival-vs-event tie decision.
    KernelPop = 0,
    /// Arrival handling: VOQ push, batch formation, flush replay.
    BatchAssembly,
    /// HBM/SRAM timing arithmetic: `BatchAtTail`, read turns,
    /// `FrameAtHead` admission.
    HbmTiming,
    /// Output drain scheduling and egress serialization.
    BatchDrain,
    /// Everything else the dispatcher handles (faults, shutdown).
    Dispatch,
    /// Epoch snapshot/delta extraction and sink export.
    TelemetryExport,
    /// Fleet collector: wire-frame decode and line parsing.
    FrameDecode,
    /// Fleet collector: staging records until their worker commits.
    Staging,
    /// Fleet collector: replaying committed planes through the sink.
    MergeReplay,
    /// Snapshot serialization and persistence.
    CheckpointSave,
    /// Snapshot decode and state restoration.
    CheckpointRestore,
}

impl Phase {
    /// Number of phases (the fixed accumulator-table size).
    pub const COUNT: usize = 11;

    /// Every phase, in index order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::KernelPop,
        Phase::BatchAssembly,
        Phase::HbmTiming,
        Phase::BatchDrain,
        Phase::Dispatch,
        Phase::TelemetryExport,
        Phase::FrameDecode,
        Phase::Staging,
        Phase::MergeReplay,
        Phase::CheckpointSave,
        Phase::CheckpointRestore,
    ];

    /// Stable snake_case name, used as the record map key and the
    /// Prometheus `phase` label.
    pub fn name(self) -> &'static str {
        match self {
            Phase::KernelPop => "kernel_pop",
            Phase::BatchAssembly => "batch_assembly",
            Phase::HbmTiming => "hbm_timing",
            Phase::BatchDrain => "batch_drain",
            Phase::Dispatch => "dispatch",
            Phase::TelemetryExport => "telemetry_export",
            Phase::FrameDecode => "frame_decode",
            Phase::Staging => "staging",
            Phase::MergeReplay => "merge_replay",
            Phase::CheckpointSave => "checkpoint_save",
            Phase::CheckpointRestore => "checkpoint_restore",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated time and span count for one phase within one record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSample {
    /// Wall-clock nanoseconds accumulated.
    pub ns: u64,
    /// Number of spans that contributed.
    pub count: u64,
}

/// Fixed-size per-phase accumulator: two `u64` arrays indexed by
/// [`Phase`], plus the wall-clock instant of the last flush. Recording
/// never allocates; flushing produces one [`ProfileRecord`].
///
/// Double-entry is impossible by construction: spans are recorded
/// either through the borrow-exclusive [`PhaseAcc::scope`] guard or
/// through explicit `add_since` laps whose start instants are taken
/// *after* the previous span ended — the phase-accounting proptest
/// checks that summed phase time never exceeds the record's wall time.
#[derive(Debug)]
pub struct PhaseAcc {
    ns: [u64; Phase::COUNT],
    count: [u64; Phase::COUNT],
    started: Instant,
}

impl Default for PhaseAcc {
    fn default() -> Self {
        PhaseAcc::new()
    }
}

impl PhaseAcc {
    /// A zeroed accumulator whose wall clock starts now.
    pub fn new() -> Self {
        PhaseAcc {
            ns: [0; Phase::COUNT],
            count: [0; Phase::COUNT],
            started: Instant::now(),
        }
    }

    /// Time a scope: the returned guard attributes its lifetime to
    /// `phase` on drop. The `&mut` borrow makes overlapping scopes a
    /// compile error — no phase can be double-counted.
    pub fn scope(&mut self, phase: Phase) -> PhaseScope<'_> {
        PhaseScope {
            t0: Instant::now(),
            acc: self,
            phase,
        }
    }

    /// Attribute the time since `t0` to `phase` (one span).
    #[inline]
    pub fn add_since(&mut self, phase: Phase, t0: Instant) {
        self.add_ns_n(phase, duration_ns(t0, Instant::now()), 1);
    }

    /// Attribute externally measured nanoseconds (`n` spans) to
    /// `phase` — for time accumulated on another thread or in a
    /// structure that cannot hold the accumulator.
    #[inline]
    pub fn add_ns_n(&mut self, phase: Phase, ns: u64, n: u64) {
        let i = phase.index();
        self.ns[i] += ns;
        self.count[i] += n;
    }

    /// True when no span was recorded since the last flush.
    pub fn is_idle(&self) -> bool {
        self.count.iter().all(|&c| c == 0)
    }

    /// Close the accumulation window: produce a record carrying every
    /// phase with at least one span, stamped with the wall time since
    /// the last flush (or construction), then reset.
    pub fn flush(&mut self, source: &str, epoch: u64) -> ProfileRecord {
        let now = Instant::now();
        let wall_ns = duration_ns(self.started, now);
        let mut phases = BTreeMap::new();
        for p in Phase::ALL {
            let i = p.index();
            if self.count[i] > 0 {
                phases.insert(
                    p.name().to_string(),
                    PhaseSample {
                        ns: self.ns[i],
                        count: self.count[i],
                    },
                );
            }
        }
        self.ns = [0; Phase::COUNT];
        self.count = [0; Phase::COUNT];
        self.started = now;
        ProfileRecord {
            source: source.to_string(),
            epoch,
            wall_ns,
            phases,
        }
    }
}

#[inline]
fn duration_ns(t0: Instant, t1: Instant) -> u64 {
    u64::try_from(t1.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// RAII guard from [`PhaseAcc::scope`]: attributes its lifetime to the
/// phase on drop.
pub struct PhaseScope<'a> {
    acc: &'a mut PhaseAcc,
    phase: Phase,
    t0: Instant,
}

impl Drop for PhaseScope<'_> {
    fn drop(&mut self) {
        self.acc.add_since(self.phase, self.t0);
    }
}

/// One flushed accumulation window (normally one telemetry epoch) of
/// one source. Serialized onto the profile stream as the `data` field
/// of a `{"record":"profile", ...}` JSONL line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileRecord {
    /// Who measured: `engine`, `plane03`, `collect`, `w1/engine`, ...
    pub source: String,
    /// Flush sequence number; aligned with telemetry epoch indices when
    /// the run streams live epochs.
    pub epoch: u64,
    /// Wall-clock nanoseconds covered by this window.
    pub wall_ns: u64,
    /// Per-phase accumulations, keyed by [`Phase::name`]; phases with
    /// zero spans are omitted.
    pub phases: BTreeMap<String, PhaseSample>,
}

struct HubInner {
    out: Option<Box<dyn Write + Send>>,
    /// Cumulative per-source, per-phase totals for Prometheus.
    totals: BTreeMap<String, BTreeMap<&'static str, PhaseSample>>,
    /// Records accepted, per source.
    records: BTreeMap<String, u64>,
    /// Most recent records, for the flight recorder.
    ring: VecDeque<ProfileRecord>,
    ring_cap: usize,
    /// Output-stream write failures (the profile stream is best-effort:
    /// a full disk must not kill the simulation it is observing).
    write_errors: u64,
}

/// The collection point for profile records from every instrumented
/// component: engines, SPS planes, the fleet collector, checkpoint
/// paths. Cloning shares the hub (it is an `Arc` around the state), so
/// one hub can fan in from worker threads.
///
/// A hub does three things with each record: writes it as a JSONL line
/// to the attached output stream (if any), folds it into cumulative
/// per-source/per-phase totals for the `ripsim_profile_*` Prometheus
/// families, and keeps it in a bounded recent-records ring for the
/// flight recorder.
#[derive(Clone)]
pub struct ProfileHub {
    inner: Arc<Mutex<HubInner>>,
}

impl Default for ProfileHub {
    fn default() -> Self {
        ProfileHub::new()
    }
}

impl ProfileHub {
    /// A hub with no output stream and a 64-record ring.
    pub fn new() -> Self {
        ProfileHub {
            inner: Arc::new(Mutex::new(HubInner {
                out: None,
                totals: BTreeMap::new(),
                records: BTreeMap::new(),
                ring: VecDeque::new(),
                ring_cap: 64,
                write_errors: 0,
            })),
        }
    }

    /// Survive a poisoned lock: a panicking instrumented thread must
    /// not stop the flight recorder from reading the ring post-mortem.
    fn lock(&self) -> MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attach the JSONL output stream (e.g. stderr or a file). Records
    /// seen before this call still count in totals and the ring.
    pub fn set_output(&self, out: Box<dyn Write + Send>) {
        self.lock().out = Some(out);
    }

    /// Accept one record: write, fold into totals, push onto the ring.
    pub fn record(&self, rec: ProfileRecord) {
        let mut inner = self.lock();
        if inner.out.is_some() {
            let line = serde_json::to_string(&rec)
                .map(|data| format!("{{\"record\":\"profile\",\"data\":{data}}}\n"));
            match line {
                Ok(line) => {
                    let out = inner.out.as_mut().expect("checked above");
                    if out.write_all(line.as_bytes()).is_err() {
                        inner.write_errors += 1;
                    }
                }
                Err(_) => inner.write_errors += 1,
            }
        }
        let by_phase = inner.totals.entry(rec.source.clone()).or_default();
        for (name, sample) in &rec.phases {
            // Map the string key back to the static phase name so the
            // totals table never allocates per record for known phases.
            if let Some(p) = Phase::ALL.iter().find(|p| p.name() == name.as_str()) {
                let t = by_phase.entry(p.name()).or_default();
                t.ns += sample.ns;
                t.count += sample.count;
            }
        }
        *inner.records.entry(rec.source.clone()).or_insert(0) += 1;
        if inner.ring.len() == inner.ring_cap {
            inner.ring.pop_front();
        }
        inner.ring.push_back(rec);
    }

    /// Records accepted so far, across all sources.
    pub fn records_total(&self) -> u64 {
        self.lock().records.values().sum()
    }

    /// Output-stream write failures so far.
    pub fn write_errors(&self) -> u64 {
        self.lock().write_errors
    }

    /// The most recent records (oldest first), for post-mortem dumps.
    pub fn recent(&self) -> Vec<ProfileRecord> {
        self.lock().ring.iter().cloned().collect()
    }

    /// Flush the attached output stream.
    pub fn flush_output(&self) {
        let mut inner = self.lock();
        if let Some(out) = inner.out.as_mut() {
            if out.flush().is_err() {
                inner.write_errors += 1;
            }
        }
    }

    /// Render the cumulative totals as Prometheus exposition text:
    /// `<prefix>_profile_phase_seconds_total{source,phase}`,
    /// `<prefix>_profile_phase_events_total{source,phase}` and
    /// `<prefix>_profile_records_total{source}` counters. `prefix` must
    /// be a valid metric-name prefix (e.g. `ripsim`); sources are
    /// escaped label values (a fleet collector's `wNN/<source>` names
    /// come from its workers).
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let mut out = Exposition::default();
        self.write_prometheus(prefix, &mut out);
        out.into_string()
    }

    /// [`ProfileHub::render_prometheus`] into an exposition in progress.
    pub(crate) fn write_prometheus(&self, prefix: &str, out: &mut Exposition) {
        let inner = self.lock();
        if inner.records.is_empty() {
            return;
        }
        let seconds = format!("{prefix}_profile_phase_seconds_total");
        out.family(
            &seconds,
            "counter",
            "Wall-clock seconds the simulator spent in each profiled phase",
        );
        for (source, phases) in &inner.totals {
            for (phase, s) in phases {
                let labels = [("source", source.as_str()), ("phase", *phase)];
                out.sample(&seconds, &labels, format_args!("{:.9}", s.ns as f64 / 1e9));
            }
        }
        let events = format!("{prefix}_profile_phase_events_total");
        out.family(
            &events,
            "counter",
            "Spans attributed to each profiled phase",
        );
        for (source, phases) in &inner.totals {
            for (phase, s) in phases {
                let labels = [("source", source.as_str()), ("phase", *phase)];
                out.sample(&events, &labels, s.count);
            }
        }
        let records = format!("{prefix}_profile_records_total");
        out.family(&records, "counter", "Profile records accepted per source");
        for (source, n) in &inner.records {
            out.sample(&records, &[("source", source.as_str())], n);
        }
    }
}

/// A [`PhaseAcc`] bound to a hub and a source name, flushing one
/// record per telemetry epoch. This is what instrumented components
/// hold (`Option<EngineProfiler>` — `None` means profiling off and the
/// hot paths never read the clock).
pub struct EngineProfiler {
    acc: PhaseAcc,
    hub: ProfileHub,
    source: String,
    next_epoch: u64,
    /// Calls into [`prof_now_sampled`] since binding — drives the
    /// 1-in-[`SAMPLE_STRIDE`] hot-path sample.
    tick: u64,
}

impl EngineProfiler {
    /// Bind a fresh accumulator for `source` to `hub`.
    pub fn new(hub: ProfileHub, source: &str) -> Self {
        EngineProfiler {
            acc: PhaseAcc::new(),
            hub,
            source: source.to_string(),
            next_epoch: 0,
            tick: 0,
        }
    }

    /// The shared hub (to record into it directly, e.g. forwarded worker
    /// records).
    pub fn hub(&self) -> &ProfileHub {
        &self.hub
    }

    /// The raw accumulator, for bulk `add_ns_n` attribution.
    pub fn acc_mut(&mut self) -> &mut PhaseAcc {
        &mut self.acc
    }

    /// Close the current window and send its record to the hub.
    pub fn flush(&mut self) {
        let rec = self.acc.flush(&self.source, self.next_epoch);
        self.next_epoch += 1;
        self.hub.record(rec);
    }

    /// [`EngineProfiler::flush`], skipped when nothing was recorded —
    /// the end-of-run catch-all that avoids empty trailing records.
    pub fn flush_nonempty(&mut self) {
        if !self.acc.is_idle() {
            self.flush();
        }
    }
}

/// Start a lap timer iff a profiler is attached — the profiling-off hot
/// path is one `Option` discriminant check, zero clock reads.
#[inline]
pub fn prof_now(p: &Option<EngineProfiler>) -> Option<Instant> {
    p.as_ref().map(|_| Instant::now())
}

/// Per-event lap starters sample one loop iteration in this many.
pub const SAMPLE_STRIDE: u64 = 64;

/// Start a *sampled* lap timer: reads the clock on one call in
/// [`SAMPLE_STRIDE`], and only when a profiler is attached. Per-event
/// instrumentation in the engine hot loops must use this — an
/// unconditional monotonic-clock read per simulated event costs
/// several times the <3% overhead budget — so hot-phase `ns` and
/// `count` are a systematic 1-in-64 sample: relative weight between
/// phases and per-span means are unbiased, absolute totals are ~1/64
/// of the true time. Coarse spans (epoch export, checkpoints, fleet
/// framing) keep using [`prof_now`] and are exact.
#[inline]
pub fn prof_now_sampled(p: &mut Option<EngineProfiler>) -> Option<Instant> {
    match p.as_mut() {
        Some(prof) => {
            prof.tick = prof.tick.wrapping_add(1);
            if prof.tick.is_multiple_of(SAMPLE_STRIDE) {
                Some(Instant::now())
            } else {
                None
            }
        }
        None => None,
    }
}

/// Restart a lap *within* an iteration already admitted by
/// [`prof_now_sampled`]: reads the clock iff the previous lap was
/// sampled, without touching the sample counter — so one iteration
/// makes exactly one sampling decision however many laps it chains.
#[inline]
pub fn prof_renew(prev: Option<Instant>) -> Option<Instant> {
    prev.map(|_| Instant::now())
}

/// Attribute the time since `t0` to `phase` (no-op when off).
#[inline]
pub fn prof_add(p: &mut Option<EngineProfiler>, phase: Phase, t0: Option<Instant>) {
    if let (Some(prof), Some(t0)) = (p.as_mut(), t0) {
        prof.acc.add_since(phase, t0);
    }
}

/// Attribute the time since `*t0` to `phase` and restart the lap at
/// now, so consecutive loop sections chain without gaps or overlap.
#[inline]
pub fn prof_lap(p: &mut Option<EngineProfiler>, phase: Phase, t0: &mut Option<Instant>) {
    if let (Some(prof), Some(start)) = (p.as_mut(), *t0) {
        let now = Instant::now();
        prof.acc.add_ns_n(phase, duration_ns(start, now), 1);
        *t0 = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        v.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    #[test]
    fn phase_table_is_complete_and_names_unique() {
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::COUNT, "phase names must be unique");
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "ALL must be in index order");
        }
    }

    #[test]
    fn scoped_spans_accumulate_and_flush_resets() {
        let mut acc = PhaseAcc::new();
        {
            let _s = acc.scope(Phase::KernelPop);
        }
        acc.add_ns_n(Phase::MergeReplay, 1234, 2);
        assert!(!acc.is_idle());
        let rec = acc.flush("engine", 0);
        assert_eq!(rec.source, "engine");
        assert_eq!(rec.epoch, 0);
        assert_eq!(rec.phases["kernel_pop"].count, 1);
        assert_eq!(rec.phases["merge_replay"].ns, 1234);
        assert_eq!(rec.phases["merge_replay"].count, 2);
        assert!(acc.is_idle(), "flush must reset the accumulator");
        let empty = acc.flush("engine", 1);
        assert!(empty.phases.is_empty());
    }

    #[test]
    fn phase_sum_never_exceeds_wall_time() {
        let mut acc = PhaseAcc::new();
        for _ in 0..100 {
            let _a = acc.scope(Phase::BatchAssembly);
        }
        for _ in 0..100 {
            let _b = acc.scope(Phase::HbmTiming);
        }
        let rec = acc.flush("engine", 0);
        let sum: u64 = rec.phases.values().map(|s| s.ns).sum();
        assert!(
            sum <= rec.wall_ns,
            "disjoint scopes must sum to at most the wall time ({sum} > {})",
            rec.wall_ns
        );
    }

    #[test]
    fn record_round_trips_through_serde() {
        let mut acc = PhaseAcc::new();
        acc.add_ns_n(Phase::FrameDecode, 55, 3);
        let rec = acc.flush("collect", 7);
        let json = serde_json::to_string(&rec).unwrap();
        let back: ProfileRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn hub_totals_ring_and_exposition() {
        let hub = ProfileHub::new();
        let mut prof = EngineProfiler::new(hub.clone(), "engine");
        prof.acc_mut().add_ns_n(Phase::KernelPop, 1_000_000_000, 4);
        prof.flush();
        prof.acc_mut().add_ns_n(Phase::KernelPop, 500_000_000, 1);
        prof.flush();
        assert_eq!(hub.records_total(), 2);
        let recent = hub.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[1].epoch, 1);
        let text = hub.render_prometheus("ripsim");
        assert!(text.contains(
            "ripsim_profile_phase_seconds_total{source=\"engine\",phase=\"kernel_pop\"} 1.500000000"
        ));
        assert!(text.contains(
            "ripsim_profile_phase_events_total{source=\"engine\",phase=\"kernel_pop\"} 5"
        ));
        assert!(text.contains("ripsim_profile_records_total{source=\"engine\"} 2"));
        // One HELP/TYPE per family.
        assert_eq!(
            text.matches("# TYPE ripsim_profile_phase_seconds_total")
                .count(),
            1
        );
    }

    #[test]
    fn exposition_escapes_hostile_sources() {
        // A fleet collector renders worker-supplied `wNN/<source>`
        // names: a quote, a backslash or a newline in one must stay
        // inside its label value.
        let hub = ProfileHub::new();
        let mut acc = PhaseAcc::new();
        acc.add_ns_n(Phase::KernelPop, 7, 1);
        hub.record(acc.flush("w00/\"p\\x\nrip_fake 1", 0));
        let text = hub.render_prometheus("ripsim");
        assert!(
            text.contains(
                "ripsim_profile_records_total{source=\"w00/\\\"p\\\\x\\nrip_fake 1\"} 1\n"
            ),
            "{text}"
        );
        assert!(!text.lines().any(|l| l.starts_with("rip_fake")), "{text}");
    }

    #[test]
    fn hub_output_stream_carries_profile_lines() {
        // A Vec<u8> behind the writer via a small adapter.
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let bytes: Arc<Mutex<Vec<u8>>> = Arc::default();
        let hub = ProfileHub::new();
        hub.set_output(Box::new(Buf(bytes.clone())));
        let mut acc = PhaseAcc::new();
        acc.add_ns_n(Phase::Staging, 10, 1);
        hub.record(acc.flush("collect", 0));
        hub.flush_output();
        let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        let line = text.lines().next().unwrap();
        let v: Value = serde_json::parse(line).unwrap();
        assert_eq!(get(&v, "record").and_then(Value::as_str), Some("profile"));
        use serde::Deserialize;
        let rec = ProfileRecord::from_value(get(&v, "data").unwrap()).unwrap();
        assert_eq!(rec.source, "collect");
        assert_eq!(rec.phases["staging"].ns, 10);
        assert_eq!(hub.write_errors(), 0);
    }
}
