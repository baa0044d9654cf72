//! Chrome trace-event export: the simulator's timeline view.
//!
//! A [`TraceRecorder`] collects span/instant/counter events on
//! `(process, track)` lanes and serializes them as Chrome trace-event
//! JSON (`{"traceEvents": [...]}`), the format Perfetto and
//! `chrome://tracing` load directly. Everything is stamped with
//! [`SimTime`] (integer picoseconds) and all ordering is derived from
//! `BTreeMap` iteration plus a stable sort, so two same-seed runs write
//! byte-identical files — CI diffs them with `cmp`.
//!
//! Unit convention: the trace-event `ts`/`dur` fields are nominally
//! microseconds, but this exporter writes **integer picoseconds of sim
//! time** into them (floats would make byte-stability depend on
//! formatting). One microsecond on the Perfetto timeline therefore
//! equals one picosecond of simulated time; timelines stay fully
//! zoomable and exact.
//!
//! Recording is gated by a [`TraceWindow`] so multi-hour soaks can
//! export a narrow slice: emitters consult [`TraceRecorder::window`]
//! before recording (the recorder itself never filters, because
//! higher-level policies differ — a packet admitted inside the window
//! is followed to its departure even past the window's end, while an
//! HBM command strictly outside it is skipped).
//!
//! Well-known process ids: [`PID_HBM`] carries one track per HBM bank
//! (plus one tFAW lane per channel), [`PID_FRAMES`] one
//! fill/write/read/drain track quartet per output. [`ChromeTraceSink`]
//! allocates dynamic pids from [`PID_DYNAMIC_BASE`] upward for
//! packet-lifecycle spans and per-source activity lanes.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::io::{self, Write};

use rip_units::SimTime;

use crate::{EpochDelta, Record, SpanEvent, TelemetrySink};

/// Process id of the per-bank HBM command timeline.
pub const PID_HBM: u32 = 1;
/// Process id of the per-output PFI frame-lifecycle tracks.
pub const PID_FRAMES: u32 = 2;
/// First process id handed out dynamically by [`ChromeTraceSink`].
pub const PID_DYNAMIC_BASE: u32 = 16;

/// Why a `--trace-window` specification was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceWindowError {
    /// `end <= start`: the window selects nothing.
    Empty {
        /// Requested start, picoseconds.
        start_ps: u64,
        /// Requested end, picoseconds.
        end_ps: u64,
    },
    /// The textual form did not parse as `<start_ps>:<end_ps>` with two
    /// non-negative integers.
    Malformed(String),
}

impl fmt::Display for TraceWindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceWindowError::Empty { start_ps, end_ps } => write!(
                f,
                "trace window [{start_ps}, {end_ps}) ps is empty (end must exceed start)"
            ),
            TraceWindowError::Malformed(s) => write!(
                f,
                "trace window {s:?} must be <start_ps>:<end_ps> with non-negative integers"
            ),
        }
    }
}

impl Error for TraceWindowError {}

/// A half-open sim-time interval `[start, end)` gating trace recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceWindow {
    start_ps: u64,
    end_ps: u64,
}

impl TraceWindow {
    /// A window covering `[start, end)`; rejects empty and inverted
    /// ranges.
    pub fn new(start: SimTime, end: SimTime) -> Result<Self, TraceWindowError> {
        if end <= start {
            return Err(TraceWindowError::Empty {
                start_ps: start.as_ps(),
                end_ps: end.as_ps(),
            });
        }
        Ok(TraceWindow {
            start_ps: start.as_ps(),
            end_ps: end.as_ps(),
        })
    }

    /// The window covering all of sim time.
    pub fn all() -> Self {
        TraceWindow {
            start_ps: 0,
            end_ps: u64::MAX,
        }
    }

    /// Parse the `--trace-window` CLI form `<start_ps>:<end_ps>`.
    /// Negative or non-numeric components are rejected as
    /// [`TraceWindowError::Malformed`], zero-length or inverted ranges
    /// as [`TraceWindowError::Empty`].
    pub fn parse(s: &str) -> Result<Self, TraceWindowError> {
        let (a, b) = s
            .split_once(':')
            .ok_or_else(|| TraceWindowError::Malformed(s.to_string()))?;
        let start: u64 = a
            .trim()
            .parse()
            .map_err(|_| TraceWindowError::Malformed(s.to_string()))?;
        let end: u64 = b
            .trim()
            .parse()
            .map_err(|_| TraceWindowError::Malformed(s.to_string()))?;
        TraceWindow::new(SimTime::from_ps(start), SimTime::from_ps(end))
    }

    /// Window start (inclusive).
    pub fn start(&self) -> SimTime {
        SimTime::from_ps(self.start_ps)
    }

    /// Window end (exclusive).
    pub fn end(&self) -> SimTime {
        SimTime::from_ps(self.end_ps)
    }

    /// Whether instant `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        let ps = t.as_ps();
        self.start_ps <= ps && ps < self.end_ps
    }

    /// Whether the closed span `[a, b]` overlaps the window.
    pub fn overlaps(&self, a: SimTime, b: SimTime) -> bool {
        a.as_ps() < self.end_ps && b.as_ps() >= self.start_ps
    }
}

impl Default for TraceWindow {
    fn default() -> Self {
        TraceWindow::all()
    }
}

/// Trace-event phase of one recorded event.
#[derive(Debug, Clone, PartialEq)]
enum Ph {
    /// A complete duration event (`"X"`): may overlap others on the
    /// same track, which is why device-command and frame spans use it.
    Complete {
        /// Duration, picoseconds.
        dur_ps: u64,
    },
    /// Span begin (`"B"`); must be balanced by an `End` on its track.
    Begin,
    /// Span end (`"E"`).
    End,
    /// A thread-scoped instant (`"i"`).
    Instant,
    /// A counter sample (`"C"`): renders as a filled activity lane.
    Counter {
        /// Sampled value.
        value: f64,
    },
}

/// One recorded event on `(pid, tid)` at `ts_ps`.
#[derive(Debug, Clone, PartialEq)]
struct TraceEvent {
    pid: u32,
    tid: u64,
    ts_ps: u64,
    name: String,
    ph: Ph,
}

/// Deterministic recorder for Chrome trace-event JSON.
///
/// Events accumulate in insertion order; serialization stable-sorts by
/// `(pid, tid, ts)` so every track is monotonically non-decreasing in
/// `ts` while same-timestamp events keep their recording order (a `B`
/// recorded before its zero-length `E` stays before it).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecorder {
    window: TraceWindow,
    events: Vec<TraceEvent>,
    process_names: BTreeMap<u32, String>,
    thread_names: BTreeMap<(u32, u64), String>,
}

impl TraceRecorder {
    /// An empty recorder gated by `window`.
    pub fn new(window: TraceWindow) -> Self {
        TraceRecorder {
            window,
            events: Vec::new(),
            process_names: BTreeMap::new(),
            thread_names: BTreeMap::new(),
        }
    }

    /// The recording window emitters must consult.
    pub fn window(&self) -> TraceWindow {
        self.window
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name a process (one Perfetto process group).
    pub fn set_process_name(&mut self, pid: u32, name: &str) {
        self.process_names.insert(pid, name.to_string());
    }

    /// Name a track within a process.
    pub fn set_thread_name(&mut self, pid: u32, tid: u64, name: &str) {
        self.thread_names.insert((pid, tid), name.to_string());
    }

    /// Record a complete duration event spanning `[start, end]`.
    pub fn complete(&mut self, pid: u32, tid: u64, name: &str, start: SimTime, end: SimTime) {
        self.events.push(TraceEvent {
            pid,
            tid,
            ts_ps: start.as_ps(),
            name: name.to_string(),
            ph: Ph::Complete {
                dur_ps: end.as_ps().saturating_sub(start.as_ps()),
            },
        });
    }

    /// Record a span begin.
    pub fn begin(&mut self, pid: u32, tid: u64, name: &str, at: SimTime) {
        self.events.push(TraceEvent {
            pid,
            tid,
            ts_ps: at.as_ps(),
            name: name.to_string(),
            ph: Ph::Begin,
        });
    }

    /// Record a span end (balancing an earlier begin on the track).
    pub fn end(&mut self, pid: u32, tid: u64, name: &str, at: SimTime) {
        self.events.push(TraceEvent {
            pid,
            tid,
            ts_ps: at.as_ps(),
            name: name.to_string(),
            ph: Ph::End,
        });
    }

    /// Record an instant event.
    pub fn instant(&mut self, pid: u32, tid: u64, name: &str, at: SimTime) {
        self.events.push(TraceEvent {
            pid,
            tid,
            ts_ps: at.as_ps(),
            name: name.to_string(),
            ph: Ph::Instant,
        });
    }

    /// Record a counter sample (an activity lane point).
    pub fn counter(&mut self, pid: u32, tid: u64, name: &str, at: SimTime, value: f64) {
        self.events.push(TraceEvent {
            pid,
            tid,
            ts_ps: at.as_ps(),
            name: name.to_string(),
            ph: Ph::Counter { value },
        });
    }

    /// Absorb another recorder's events and names (its window is
    /// dropped; windows are an emitter-side policy).
    pub fn merge(&mut self, other: TraceRecorder) {
        self.events.extend(other.events);
        self.process_names.extend(other.process_names);
        self.thread_names.extend(other.thread_names);
    }

    /// Serialize as Chrome trace-event JSON: metadata first (process
    /// and track names in id order), then all events stable-sorted by
    /// `(pid, tid, ts)`. Byte-identical for identical recordings.
    pub fn write_chrome_json<W: Write>(&self, out: &mut W) -> io::Result<()> {
        let jstr = |s: &str| serde_json::to_string(&s.to_string()).expect("string serializes");
        let jnum = |v: f64| serde_json::to_string(&v).expect("number serializes");
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| {
            let e = &self.events[i];
            (e.pid, e.tid, e.ts_ps)
        });
        write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        let mut first = true;
        let sep = |out: &mut W, first: &mut bool| -> io::Result<()> {
            if *first {
                *first = false;
                writeln!(out)
            } else {
                writeln!(out, ",")
            }
        };
        for (&pid, name) in &self.process_names {
            sep(out, &mut first)?;
            write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
                jstr(name)
            )?;
        }
        for (&(pid, tid), name) in &self.thread_names {
            sep(out, &mut first)?;
            write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                jstr(name)
            )?;
        }
        for &i in &order {
            let e = &self.events[i];
            sep(out, &mut first)?;
            let head = format!(
                "\"pid\":{},\"tid\":{},\"ts\":{},\"name\":{}",
                e.pid,
                e.tid,
                e.ts_ps,
                jstr(&e.name)
            );
            match e.ph {
                Ph::Complete { dur_ps } => {
                    write!(out, "{{\"ph\":\"X\",{head},\"dur\":{dur_ps}}}")?;
                }
                Ph::Begin => write!(out, "{{\"ph\":\"B\",{head}}}")?,
                Ph::End => write!(out, "{{\"ph\":\"E\",{head}}}")?,
                Ph::Instant => write!(out, "{{\"ph\":\"i\",\"s\":\"t\",{head}}}")?,
                Ph::Counter { value } => {
                    write!(
                        out,
                        "{{\"ph\":\"C\",{head},\"args\":{{\"value\":{}}}}}",
                        jnum(value)
                    )?;
                }
            }
        }
        writeln!(out, "\n]}}")
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new(TraceWindow::all())
    }
}

/// A [`TelemetrySink`] that turns the live record stream into trace
/// events: sampled packet lifecycles become one B/E span per packet
/// (tid = packet id) with instants for intermediate stages, and every
/// source's per-epoch gauges become counter activity lanes — fed
/// per-plane SPS streams, this yields one activity lane per plane.
///
/// Windowing policy: a packet is admitted when its `arrival` falls
/// inside the recording window and is then followed to its terminal
/// stage (even past the window's end) so every begun span is balanced;
/// `run_end` force-closes spans the run itself cut short. Lane samples
/// are kept only when their epoch boundary lies inside the window.
pub struct ChromeTraceSink {
    rec: TraceRecorder,
    next_pid: u32,
    pids: BTreeMap<String, u32>,
    open: BTreeSet<(u32, u64)>,
}

impl ChromeTraceSink {
    /// A sink recording into a fresh recorder gated by `window`.
    pub fn new(window: TraceWindow) -> Self {
        ChromeTraceSink {
            rec: TraceRecorder::new(window),
            next_pid: PID_DYNAMIC_BASE,
            pids: BTreeMap::new(),
            open: BTreeSet::new(),
        }
    }

    /// The pid carrying `source`'s packet spans and activity lane,
    /// allocated (and named) on first use. Sources arrive in
    /// deterministic stream order, so pid assignment is deterministic.
    fn pid_for(&mut self, source: &str) -> u32 {
        if let Some(&pid) = self.pids.get(source) {
            return pid;
        }
        let pid = self.next_pid;
        self.next_pid += 1;
        self.pids.insert(source.to_string(), pid);
        self.rec.set_process_name(pid, source);
        pid
    }

    /// `source`'s per-epoch activity lane samples.
    fn epoch_lanes(&mut self, source: &str, delta: &EpochDelta) {
        let at = delta.to();
        if !self.rec.window().contains(at) {
            return;
        }
        let pid = self.pid_for(source);
        for (lane, gauge) in [
            ("delivered", "switch.packets.delivered"),
            ("in_flight", "switch.packets.in_flight"),
        ] {
            if let Some(g) = delta.gauges().get(gauge) {
                self.rec.counter(pid, 0, lane, at, g.value);
            }
        }
    }

    /// Open, annotate or close `source`'s span track for one event.
    fn span(&mut self, source: &str, span: &SpanEvent) {
        let pid = self.pid_for(source);
        let key = (pid, span.packet);
        match span.stage {
            "arrival" => {
                if self.rec.window().contains(span.at) {
                    // Per-plane SPS streams can reuse a packet id (the
                    // per-fiber generators share one (input, sequence)
                    // id space, and several fibers of a ribbon land on
                    // the same plane); the source also stops sampling a
                    // reused id at its first terminal stage. Truncate
                    // the open span here so every track stays balanced.
                    if self.open.contains(&key) {
                        self.rec.end(pid, span.packet, "pkt", span.at);
                    }
                    self.rec.begin(pid, span.packet, "pkt", span.at);
                    self.open.insert(key);
                }
            }
            "departure" | "frame_drop" => {
                if self.open.remove(&key) {
                    self.rec.instant(pid, span.packet, span.stage, span.at);
                    self.rec.end(pid, span.packet, "pkt", span.at);
                }
            }
            // `input_drop` arrives for packets never admitted (no open
            // span); intermediate stages only annotate open spans.
            "input_drop" => {
                if self.rec.window().contains(span.at) {
                    self.rec.instant(pid, span.packet, span.stage, span.at);
                }
            }
            stage => {
                if self.open.contains(&key) {
                    self.rec.instant(pid, span.packet, stage, span.at);
                }
            }
        }
    }

    /// Finish recording and hand the recorder over (merge it with the
    /// device-side recorder before writing).
    pub fn into_recorder(self) -> TraceRecorder {
        self.rec
    }
}

impl TelemetrySink for ChromeTraceSink {
    fn record(&mut self, source: &str, rec: Record<'_>) {
        match rec {
            Record::Epoch { delta, .. } => self.epoch_lanes(source, delta),
            Record::Span(span) => self.span(source, span),
            Record::RunEnd { at, .. } => {
                // Balance spans the run cut short (packets still in
                // flight at the deadline).
                let pid = self.pid_for(source);
                let stuck: Vec<(u32, u64)> = self
                    .open
                    .iter()
                    .copied()
                    .filter(|&(p, _)| p == pid)
                    .collect();
                for (p, tid) in stuck {
                    self.open.remove(&(p, tid));
                    self.rec.end(p, tid, "pkt", at);
                }
            }
            Record::Watchdog(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;
    use serde::Value;

    fn parse(bytes: &[u8]) -> Value {
        serde_json::parse(std::str::from_utf8(bytes).unwrap()).unwrap()
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, val)| val)
            .unwrap_or_else(|| panic!("missing field {key}"))
    }

    fn num_u64(v: &Value) -> u64 {
        match v {
            Value::Number(serde::Number::U64(n)) => *n,
            other => panic!("expected u64, got {other:?}"),
        }
    }

    #[test]
    fn window_rejects_empty_and_inverted() {
        assert!(matches!(
            TraceWindow::new(SimTime::from_ps(5), SimTime::from_ps(5)),
            Err(TraceWindowError::Empty { .. })
        ));
        assert!(matches!(
            TraceWindow::new(SimTime::from_ps(9), SimTime::from_ps(3)),
            Err(TraceWindowError::Empty { .. })
        ));
        let w = TraceWindow::new(SimTime::from_ps(10), SimTime::from_ps(20)).unwrap();
        assert!(w.contains(SimTime::from_ps(10)));
        assert!(!w.contains(SimTime::from_ps(20)));
        assert!(w.overlaps(SimTime::from_ps(0), SimTime::from_ps(10)));
        assert!(w.overlaps(SimTime::from_ps(19), SimTime::from_ps(100)));
        assert!(!w.overlaps(SimTime::from_ps(0), SimTime::from_ps(9)));
        assert!(!w.overlaps(SimTime::from_ps(20), SimTime::from_ps(30)));
    }

    #[test]
    fn window_parse_accepts_range_and_rejects_garbage() {
        let w = TraceWindow::parse("100:2000").unwrap();
        assert_eq!(w.start().as_ps(), 100);
        assert_eq!(w.end().as_ps(), 2000);
        for bad in ["", "100", "a:b", "-5:10", "10:-5", "3:3", "9:1"] {
            assert!(TraceWindow::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn recorder_output_is_deterministic_and_track_sorted() {
        let render = || {
            let mut rec = TraceRecorder::new(TraceWindow::all());
            rec.set_process_name(PID_HBM, "hbm");
            rec.set_thread_name(PID_HBM, 3, "ch00/b03");
            // Recorded out of time order on purpose: serialization
            // sorts per track.
            rec.complete(
                PID_HBM,
                3,
                "RD",
                SimTime::from_ps(500),
                SimTime::from_ps(900),
            );
            rec.complete(
                PID_HBM,
                3,
                "ACT",
                SimTime::from_ps(100),
                SimTime::from_ps(116),
            );
            rec.counter(PID_FRAMES, 0, "lane", SimTime::from_ps(50), 1.5);
            let mut buf = Vec::new();
            rec.write_chrome_json(&mut buf).unwrap();
            buf
        };
        let a = render();
        assert_eq!(
            a,
            render(),
            "identical recordings must serialize identically"
        );
        let v = parse(&a);
        let events = field(&v, "traceEvents").as_array().unwrap();
        assert_eq!(events.len(), 5); // 2 metadata + 3 events
        let acts: Vec<&str> = events
            .iter()
            .filter(|e| field(e, "ph").as_str() == Some("X"))
            .map(|e| field(e, "name").as_str().unwrap())
            .collect();
        assert_eq!(acts, ["ACT", "RD"], "track must be ts-sorted");
    }

    #[test]
    fn chrome_sink_balances_packet_spans() {
        let mut sink = ChromeTraceSink::new(TraceWindow::all());
        let span = |packet, stage, ps| SpanEvent {
            packet,
            stage,
            at: SimTime::from_ps(ps),
            port: 0,
        };
        sink.record("switch", Record::Span(&span(1, "arrival", 10)));
        sink.record("switch", Record::Span(&span(1, "hbm_write", 20)));
        sink.record("switch", Record::Span(&span(1, "departure", 30)));
        sink.record("switch", Record::Span(&span(2, "arrival", 15)));
        // Packet 2 never departs; run_end must close it.
        sink.record(
            "switch",
            Record::RunEnd {
                at: SimTime::from_ps(99),
                totals: &MetricsRegistry::new(),
            },
        );
        let rec = sink.into_recorder();
        let mut buf = Vec::new();
        rec.write_chrome_json(&mut buf).unwrap();
        let v = parse(&buf);
        let (mut b, mut e) = (0, 0);
        for ev in field(&v, "traceEvents").as_array().unwrap() {
            match field(ev, "ph").as_str().unwrap() {
                "B" => b += 1,
                "E" => e += 1,
                _ => {}
            }
        }
        assert_eq!((b, e), (2, 2), "every begin must be balanced");
    }

    #[test]
    fn chrome_sink_window_admits_at_arrival_only() {
        let w = TraceWindow::new(SimTime::from_ps(100), SimTime::from_ps(200)).unwrap();
        let mut sink = ChromeTraceSink::new(w);
        let span = |packet, stage, ps| SpanEvent {
            packet,
            stage,
            at: SimTime::from_ps(ps),
            port: 0,
        };
        // Arrived before the window: fully ignored, even its departure.
        sink.record("switch", Record::Span(&span(1, "arrival", 50)));
        sink.record("switch", Record::Span(&span(1, "departure", 150)));
        // Arrived inside: followed past the window's end.
        sink.record("switch", Record::Span(&span(2, "arrival", 150)));
        sink.record("switch", Record::Span(&span(2, "departure", 900)));
        let rec = sink.into_recorder();
        let mut buf = Vec::new();
        rec.write_chrome_json(&mut buf).unwrap();
        let v = parse(&buf);
        let events = field(&v, "traceEvents").as_array().unwrap();
        let spans: Vec<(&str, u64)> = events
            .iter()
            .filter(|e| matches!(field(e, "ph").as_str().unwrap(), "B" | "E"))
            .map(|e| (field(e, "ph").as_str().unwrap(), num_u64(field(e, "tid"))))
            .collect();
        assert_eq!(spans, [("B", 2), ("E", 2)]);
    }
}
