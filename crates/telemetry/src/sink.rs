//! Telemetry sinks: where live epoch deltas and span events go.
//!
//! Engines push four kinds of [`Record`] into a [`TelemetrySink`]
//! while they run, all through its one method: per-epoch registry
//! deltas, sampled packet-lifecycle span events, watchdog alarms, and
//! one terminal `run_end` carrying the final cumulative registry.
//! Everything a sink receives is derived
//! from sim time and seeded state only, so any sink that serializes
//! records in arrival order produces a byte-identical stream across
//! same-seed runs.
//!
//! Provided sinks:
//!
//! * [`JsonlSink`] — one JSON object per line, the format diffed
//!   byte-for-byte by CI;
//! * [`MemorySink`] — buffers records as [`SinkRecord`]s, for tests
//!   and as the one per-plane staging buffer replayed in plane order;
//! * [`SharedSink`] — a clonable, thread-safe handle over a
//!   [`MemorySink`], used by per-plane worker threads whose buffered
//!   records are replayed into the caller's sink in plane order;
//! * [`FanoutSink`] — forwards every record to several sinks (e.g.
//!   stdout JSONL plus a [`crate::MetricsEndpoint`]).

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::io::Write;
use std::sync::{Arc, Mutex};

use rip_units::SimTime;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::{bucket_upper_edge, EpochDelta, MetricsRegistry, WatchdogEvent};

/// One sampled packet-lifecycle event: packet `packet` reached `stage`
/// at sim time `at` on port `port` (input port for arrival-side stages,
/// output port afterwards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SpanEvent {
    /// Packet id (unique within a run, per plane).
    pub packet: u64,
    /// Lifecycle stage, e.g. `"arrival"`, `"sram_enqueue"`,
    /// `"hbm_write"`, `"hbm_read"`, `"hbm_bypass"`, `"departure"`.
    pub stage: &'static str,
    /// Sim time the packet reached the stage.
    pub at: SimTime,
    /// Port the stage happened on.
    pub port: usize,
}

/// Every lifecycle stage an engine can emit. Stage labels are
/// `&'static str` so spans stay `Copy` and allocation-free on the hot
/// path; snapshot restore maps a serialized stage string back onto the
/// static label through this table.
pub const SPAN_STAGES: &[&str] = &[
    "arrival",
    "input_drop",
    "sram_enqueue",
    "hbm_write",
    "hbm_read",
    "hbm_bypass",
    "frame_drop",
    "departure",
];

/// Resolve a serialized stage name to its interned `&'static str`, or
/// `None` for a stage no engine emits (a corrupt or foreign snapshot).
pub fn intern_stage(stage: &str) -> Option<&'static str> {
    SPAN_STAGES.iter().find(|&&s| s == stage).copied()
}

impl Deserialize for SpanEvent {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        #[derive(Deserialize)]
        struct Mirror {
            packet: u64,
            stage: String,
            at: SimTime,
            port: usize,
        }
        let m = Mirror::from_value(v)?;
        let stage = intern_stage(&m.stage)
            .ok_or_else(|| DeError::custom(format!("unknown span stage {:?}", m.stage)))?;
        Ok(SpanEvent {
            packet: m.packet,
            stage,
            at: m.at,
            port: m.port,
        })
    }
}

/// One live telemetry record, borrowed from the engine that emits it —
/// what a [`TelemetrySink`] receives. [`SinkRecord`] is its owned form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Record<'a> {
    /// One closed epoch.
    Epoch {
        /// Epoch index.
        epoch: u64,
        /// The epoch's registry delta.
        delta: &'a EpochDelta,
    },
    /// One sampled packet-lifecycle event.
    Span(&'a SpanEvent),
    /// A watchdog alarm raised while consuming the stream.
    Watchdog(&'a WatchdogEvent),
    /// The run finished at sim time `at`; `totals` is the final
    /// cumulative registry (what the end-of-run report serializes).
    RunEnd {
        /// Sim time of the end of the run.
        at: SimTime,
        /// Final cumulative registry.
        totals: &'a MetricsRegistry,
    },
}

/// Receiver for live telemetry records. Engines own their sink (or a
/// clonable handle) for the duration of a run.
pub trait TelemetrySink {
    /// One record from registry `source`.
    fn record(&mut self, source: &str, rec: Record<'_>);
}

/// Deterministic JSONL exporter: one compact JSON object per record,
/// one record per line, flushed on drop. Two same-seed runs produce
/// byte-identical streams (all maps are `BTreeMap`-ordered, all
/// timestamps sim time).
pub struct JsonlSink<W: Write> {
    out: W,
    records: u64,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink { out, records: 0 }
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Seed the record counter — used when resuming a checkpointed run,
    /// so the `records` field of the eventual `run_end` line counts the
    /// records of the whole logical run, not just the lines written
    /// since resume.
    pub fn set_records(&mut self, records: u64) {
        self.records = records;
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) {
        self.out.flush().expect("telemetry sink flush");
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serializes")
}

impl<W: Write> TelemetrySink for JsonlSink<W> {
    // The vendored serde_derive cannot derive on lifetime-generic
    // structs, so record lines are composed from individually
    // serialized parts (each part is itself serde-serialized, so
    // escaping and map ordering stay correct).
    fn record(&mut self, source: &str, rec: Record<'_>) {
        let source = json_str(source);
        let line = match rec {
            Record::Epoch { epoch, delta } => format!(
                "{{\"record\":\"epoch\",\"source\":{source},\"epoch\":{epoch},\"delta\":{}}}",
                serde_json::to_string(delta).expect("delta serializes"),
            ),
            Record::Span(span) => format!(
                "{{\"record\":\"span\",\"source\":{source},\"packet\":{},\"stage\":{},\"t_ps\":{},\"port\":{}}}",
                span.packet,
                json_str(span.stage),
                span.at.as_ps(),
                span.port,
            ),
            Record::Watchdog(event) => format!(
                "{{\"record\":\"watchdog\",\"source\":{source},\"epoch\":{},\"t_ps\":{},\"kind\":{}}}",
                event.epoch,
                event.at.as_ps(),
                serde_json::to_string(&event.kind).expect("watchdog kind serializes"),
            ),
            Record::RunEnd { at, totals } => format!(
                "{{\"record\":\"run_end\",\"source\":{source},\"t_ps\":{},\"records\":{},\"totals\":{}}}",
                at.as_ps(),
                self.records,
                serde_json::to_string(totals).expect("registry serializes"),
            ),
        };
        self.out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .expect("telemetry sink write");
        self.records += 1;
        if let Record::RunEnd { .. } = rec {
            self.flush();
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        // Best-effort: never panic in drop (the run may already be
        // unwinding).
        let _ = self.out.flush();
    }
}

// --------------------------------------------------------------------
// Prometheus text exposition
// --------------------------------------------------------------------

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escape exposition text per the grammar: backslash and newline
/// become `\\` and `\n` everywhere, and a double quote becomes `\"`
/// inside a label value (`# HELP` text keeps it).
fn escape(text: &str, label: bool) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' if label => out.push_str("\\\""),
            c => out.push(c),
        }
    }
    out
}

/// The one Prometheus text-exposition writer: the registry, profiler
/// and build-info families all render through it, so every label value
/// is escaped the same way wherever it came from (a worker-supplied
/// profile source arrives over TCP).
#[derive(Default)]
pub(crate) struct Exposition {
    text: String,
}

impl Exposition {
    /// Open a family: its `# HELP <name> <help> (<kind>)` and
    /// `# TYPE <name> <kind>` lines.
    pub(crate) fn family(&mut self, name: &str, kind: &str, help: &str) {
        let help = escape(help, false);
        let _ = write!(
            self.text,
            "# HELP {name} {help} ({kind})\n# TYPE {name} {kind}\n"
        );
    }

    /// One sample line, `name{label="value",...} value` (no braces
    /// without labels).
    pub(crate) fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl Display) {
        self.text.push_str(name);
        for (i, (key, v)) in labels.iter().enumerate() {
            let open = if i == 0 { "{" } else { "," };
            let _ = write!(self.text, "{open}{key}=\"{}\"", escape(v, true));
        }
        if !labels.is_empty() {
            self.text.push('}');
        }
        let _ = writeln!(self.text, " {value}");
    }

    /// The rendered text.
    pub(crate) fn into_string(self) -> String {
        self.text
    }
}

/// Render every source's cumulative registry into `out`: each metric
/// family appears exactly once (`# HELP` + `# TYPE`, then one sample
/// per source), histograms carry cumulative `_bucket` lines with a
/// single `+Inf` bucket equal to `_count`. Sources become a
/// `source="..."` label, so per-plane registries share families.
pub(crate) fn render_registries(regs: &BTreeMap<String, MetricsRegistry>, out: &mut Exposition) {
    // Group samples by family across sources (BTreeMaps keep both the
    // family order and the per-family source order deterministic).
    let mut counters: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
    let mut gauges: BTreeMap<&str, Vec<(&str, f64)>> = BTreeMap::new();
    let mut histograms: BTreeMap<&str, Vec<(&str, &crate::LogHistogram)>> = BTreeMap::new();
    for (source, reg) in regs {
        for (name, &v) in reg.counters() {
            counters.entry(name).or_default().push((source, v));
        }
        for (name, g) in reg.gauges() {
            gauges.entry(name).or_default().push((source, g.value));
        }
        for (name, h) in reg.histograms() {
            histograms.entry(name).or_default().push((source, h));
        }
    }
    for (name, samples) in &counters {
        let family = format!("rip_{}_total", sanitize(name));
        out.family(&family, "counter", name);
        for &(source, v) in samples {
            out.sample(&family, &[("source", source)], v);
        }
    }
    for (name, samples) in &gauges {
        let family = format!("rip_{}", sanitize(name));
        out.family(&family, "gauge", name);
        for &(source, v) in samples {
            out.sample(&family, &[("source", source)], v);
        }
    }
    for (name, samples) in &histograms {
        let family = format!("rip_{}", sanitize(name));
        let (bucket, count) = (format!("{family}_bucket"), format!("{family}_count"));
        out.family(&family, "histogram", name);
        for &(source, h) in samples {
            let mut cum = 0u64;
            for &(idx, n) in &h.buckets {
                cum += n;
                let le = bucket_upper_edge(idx);
                // Non-finite edges fold into the single +Inf bucket
                // below (one +Inf sample per series, as the grammar
                // requires).
                if le.is_finite() {
                    out.sample(&bucket, &[("source", source), ("le", &le.to_string())], cum);
                }
            }
            out.sample(&bucket, &[("source", source), ("le", "+Inf")], h.count());
            out.sample(&count, &[("source", source)], h.count());
        }
    }
    // Rejected-sample tallies are their own counter family (they are
    // not histogram samples).
    for (name, samples) in &histograms {
        let rejected: Vec<(&str, u64)> = samples
            .iter()
            .filter(|(_, h)| h.rejected() > 0)
            .map(|&(source, h)| (source, h.rejected()))
            .collect();
        if rejected.is_empty() {
            continue;
        }
        let family = format!("rip_{}_rejected_total", sanitize(name));
        out.family(
            &family,
            "counter",
            &format!("NaN samples rejected by {name}"),
        );
        for (source, n) in rejected {
            out.sample(&family, &[("source", source)], n);
        }
    }
}

/// One buffered record, as received by a [`MemorySink`]: the owned form
/// of a [`Record`] plus its source. Its serde layout is what SPS
/// checkpoints carry for a plane's staged records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SinkRecord {
    /// A closed epoch delta.
    Epoch {
        /// Registry the epoch came from.
        source: String,
        /// Epoch index.
        epoch: u64,
        /// The delta.
        delta: EpochDelta,
    },
    /// A sampled lifecycle event.
    Span {
        /// Registry the span came from.
        source: String,
        /// The event.
        span: SpanEvent,
    },
    /// A watchdog alarm.
    Watchdog {
        /// Stream the alarm was raised on.
        source: String,
        /// The alarm.
        event: WatchdogEvent,
    },
    /// End of a source's run.
    RunEnd {
        /// Registry that finished.
        source: String,
        /// Sim time of the end of the run.
        at: SimTime,
        /// Final cumulative registry.
        totals: MetricsRegistry,
    },
}

impl SinkRecord {
    /// The owned copy of `rec`, attributed to `source`.
    pub fn new(source: &str, rec: Record<'_>) -> Self {
        let source = source.to_string();
        match rec {
            Record::Epoch { epoch, delta } => SinkRecord::Epoch {
                source,
                epoch,
                delta: delta.clone(),
            },
            Record::Span(span) => SinkRecord::Span {
                source,
                span: *span,
            },
            Record::Watchdog(event) => SinkRecord::Watchdog {
                source,
                event: event.clone(),
            },
            Record::RunEnd { at, totals } => SinkRecord::RunEnd {
                source,
                at,
                totals: totals.clone(),
            },
        }
    }

    /// The record's source and its borrowed view.
    pub fn view(&self) -> (&str, Record<'_>) {
        match self {
            SinkRecord::Epoch {
                source,
                epoch,
                delta,
            } => (
                source,
                Record::Epoch {
                    epoch: *epoch,
                    delta,
                },
            ),
            SinkRecord::Span { source, span } => (source, Record::Span(span)),
            SinkRecord::Watchdog { source, event } => (source, Record::Watchdog(event)),
            SinkRecord::RunEnd { source, at, totals } => {
                (source, Record::RunEnd { at: *at, totals })
            }
        }
    }
}

/// Buffers every record in arrival order — for tests, and as the
/// per-plane staging buffer whose contents are replayed into the real
/// sink in deterministic plane order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemorySink {
    records: Vec<SinkRecord>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The buffered records, in arrival order.
    pub fn records(&self) -> &[SinkRecord] {
        &self.records
    }

    /// Consume the sink, returning its records.
    pub fn into_records(self) -> Vec<SinkRecord> {
        self.records
    }

    /// Append a previously captured record — how the fleet collector
    /// stages a parsed worker line.
    pub fn push_record(&mut self, rec: SinkRecord) {
        self.records.push(rec);
    }

    /// Replay every buffered record into `sink`, preserving sources.
    pub fn replay_into(&self, sink: &mut dyn TelemetrySink) {
        self.replay(None, sink);
    }

    /// Replay every buffered record into `sink` under a new source
    /// name — how per-plane buffers become `plane00`, `plane01`, …
    /// streams in the caller's sink.
    pub fn replay_renamed(&self, source: &str, sink: &mut dyn TelemetrySink) {
        self.replay(Some(source), sink);
    }

    fn replay(&self, rename: Option<&str>, sink: &mut dyn TelemetrySink) {
        for rec in &self.records {
            let (source, view) = rec.view();
            sink.record(rename.unwrap_or(source), view);
        }
    }
}

impl TelemetrySink for MemorySink {
    fn record(&mut self, source: &str, rec: Record<'_>) {
        self.records.push(SinkRecord::new(source, rec));
    }
}

/// A clonable, `Send` handle over a shared [`MemorySink`] — handed to
/// per-plane worker threads so each can record concurrently; the owner
/// [`SharedSink::take`]s the buffer back after joining.
#[derive(Debug, Clone, Default)]
pub struct SharedSink {
    inner: Arc<Mutex<MemorySink>>,
}

impl SharedSink {
    /// A fresh, empty shared sink.
    pub fn new() -> Self {
        SharedSink::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemorySink> {
        self.inner.lock().expect("telemetry sink lock")
    }

    /// Take the buffered records out, leaving the sink empty.
    pub fn take(&self) -> MemorySink {
        std::mem::take(&mut *self.lock())
    }
}

impl TelemetrySink for SharedSink {
    fn record(&mut self, source: &str, rec: Record<'_>) {
        self.lock().record(source, rec);
    }
}

/// Forwards every record to each of several sinks, in push order —
/// composition glue for e.g. "JSONL to stdout *and* the scrape
/// endpoint".
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Box<dyn TelemetrySink + Send>>,
}

impl FanoutSink {
    /// An empty fanout.
    pub fn new() -> Self {
        FanoutSink::default()
    }

    /// Add a downstream sink.
    pub fn push(&mut self, sink: Box<dyn TelemetrySink + Send>) {
        self.sinks.push(sink);
    }

    /// Number of downstream sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no downstream sink was added.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl TelemetrySink for FanoutSink {
    fn record(&mut self, source: &str, rec: Record<'_>) {
        for sink in &mut self.sinks {
            sink.record(source, rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Snapshot, WatchdogKind};

    const SPAN: SpanEvent = SpanEvent {
        packet: 42,
        stage: "hbm_read",
        at: SimTime::from_ns(5),
        port: 3,
    };

    fn stall() -> WatchdogEvent {
        WatchdogEvent {
            source: "switch".into(),
            epoch: 0,
            at: SimTime::from_ns(100),
            kind: WatchdogKind::Stall { epochs: 3 },
        }
    }

    /// One record of each kind, in stream order.
    fn sample_records<'a>(
        delta: &'a EpochDelta,
        totals: &'a MetricsRegistry,
        event: &'a WatchdogEvent,
    ) -> [Record<'a>; 4] {
        [
            Record::Epoch { epoch: 0, delta },
            Record::Span(&SPAN),
            Record::Watchdog(event),
            Record::RunEnd {
                at: SimTime::from_ns(100),
                totals,
            },
        ]
    }

    #[test]
    fn jsonl_stream_is_deterministic_and_newline_terminated() {
        let mut reg = MetricsRegistry::new();
        let run = |reg: &mut MetricsRegistry| {
            let mut buf = Vec::new();
            {
                let mut sink = JsonlSink::new(&mut buf);
                let prev = reg.snapshot(SimTime::ZERO);
                reg.inc("pkts", 7);
                reg.observe("lat", 3.5);
                let snap = reg.snapshot(SimTime::from_ns(100));
                let delta = snap.delta_since(&prev);
                for rec in sample_records(&delta, reg, &stall()) {
                    sink.record("switch", rec);
                }
                assert_eq!(sink.records(), 4);
            }
            buf
        };
        let a = run(&mut MetricsRegistry::new());
        let b = run(&mut reg);
        assert_eq!(a, b, "same inputs must stream byte-identically");
        let text = String::from_utf8(a).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.ends_with('\n'));
        assert!(text.starts_with("{\"record\":\"epoch\""));
        assert!(text.contains("\"record\":\"span\""));
        assert!(text.contains("\"record\":\"watchdog\""));
        assert!(text.contains("\"record\":\"run_end\""));
    }

    fn render(regs: &BTreeMap<String, MetricsRegistry>) -> String {
        let mut out = Exposition::default();
        render_registries(regs, &mut out);
        out.into_string()
    }

    #[test]
    fn prometheus_renders_counters_gauges_histograms() {
        let mut reg = MetricsRegistry::new();
        reg.inc("switch.packets", 9);
        reg.set_gauge("queue.depth", SimTime::from_ns(10), 4.5);
        reg.observe("lat.ns", 100.0);
        reg.observe("lat.ns", 200.0);
        let text = render(&BTreeMap::from([("switch".to_string(), reg)]));
        assert!(text.contains("rip_switch_packets_total{source=\"switch\"} 9"));
        assert!(text.contains("rip_queue_depth{source=\"switch\"} 4.5"));
        assert!(text.contains("rip_lat_ns_count{source=\"switch\"} 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
    }

    /// The exposition grammar contract: one `# HELP` + `# TYPE` per
    /// family (ahead of all its samples, grouped), a single `+Inf`
    /// bucket per histogram series, cumulative bucket counts, and
    /// escaped label values.
    #[test]
    fn prometheus_exposition_follows_the_grammar() {
        let mut a = MetricsRegistry::new();
        a.inc("switch.packets", 9);
        a.observe("lat.ns", 100.0);
        a.observe("lat.ns", f64::INFINITY); // lands in the +Inf bucket
        a.observe("lat.ns", f64::NAN); // rejected tally
        let mut b = MetricsRegistry::new();
        b.inc("switch.packets", 4);
        b.set_gauge("queue.depth", SimTime::from_ns(10), 1.0);
        let mut regs = BTreeMap::new();
        // A hostile source name: every escapable character.
        regs.insert("pla\\ne\"0\n0".to_string(), a);
        regs.insert("plane01".to_string(), b);
        let text = render(&regs);

        // Label escaping: backslash, quote and newline are escaped.
        assert!(
            text.contains("source=\"pla\\\\ne\\\"0\\n0\""),
            "label not escaped: {text}"
        );
        assert!(!text.contains('\u{0}'));

        // Parse line-by-line: every line is a comment or a sample whose
        // family has already announced HELP and TYPE.
        let mut helped: Vec<String> = Vec::new();
        let mut typed: Vec<String> = Vec::new();
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines inside an exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let family = rest.split(' ').next().unwrap().to_string();
                assert!(!helped.contains(&family), "duplicate HELP for {family}");
                helped.push(family);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let family = parts.next().unwrap().to_string();
                let kind = parts.next().unwrap();
                assert!(["counter", "gauge", "histogram"].contains(&kind));
                assert!(!typed.contains(&family), "duplicate TYPE for {family}");
                assert_eq!(helped.last(), Some(&family), "HELP must precede TYPE");
                typed.push(family);
            } else {
                let name = line
                    .split(['{', ' '])
                    .next()
                    .expect("sample line has a name");
                let family = typed
                    .iter()
                    .find(|f| {
                        name == f.as_str()
                            || (name
                                .strip_prefix(f.as_str())
                                .is_some_and(|suffix| suffix == "_bucket" || suffix == "_count"))
                    })
                    .unwrap_or_else(|| panic!("sample {name} has no TYPE"));
                assert_eq!(
                    typed.last(),
                    Some(family),
                    "samples of {family} must be contiguous after its TYPE"
                );
                // The value parses as a number.
                let value = line.rsplit(' ').next().unwrap();
                assert!(value.parse::<f64>().is_ok(), "bad sample value {value}");
            }
        }

        // Exactly one +Inf bucket per histogram series, equal to _count.
        // Only the hostile source recorded a histogram, so exactly one
        // series — and exactly one +Inf bucket for it, equal to _count
        // (the infinite sample lands there; the NaN does not).
        let inf_lines: Vec<&str> = text.lines().filter(|l| l.contains("le=\"+Inf\"")).collect();
        assert_eq!(inf_lines.len(), 1, "single +Inf per series: {inf_lines:?}");
        assert!(inf_lines[0].ends_with(" 2"), "{inf_lines:?}");
        // The rejected NaN shows up as its own counter family.
        assert!(text.contains("rip_lat_ns_rejected_total"));
    }

    #[test]
    fn sink_records_roundtrip_through_snapshot_values() {
        let mut reg = MetricsRegistry::new();
        reg.inc("pkts", 3);
        let delta = reg
            .snapshot(SimTime::from_ns(100))
            .delta_since(&Snapshot::empty());
        let mut sink = MemorySink::new();
        let event = stall();
        let recs = sample_records(&delta, &reg, &event);
        for rec in recs {
            sink.record("switch", rec);
        }
        for (rec, view) in sink.records().iter().zip(recs) {
            let v = rec.to_value();
            let back = SinkRecord::from_value(&v).expect("record roundtrips");
            assert_eq!(&back, rec);
            // The owned form views back as the record it was made from.
            assert_eq!(rec.view(), ("switch", view));
        }
        // An unknown stage is rejected, not silently interned.
        let mut bad = SinkRecord::Span {
            source: "switch".into(),
            span: SpanEvent {
                packet: 1,
                stage: "arrival",
                at: SimTime::ZERO,
                port: 0,
            },
        }
        .to_value();
        // Rewrite the stage string inside the serialized tree.
        fn poison(v: &mut Value) {
            match v {
                Value::String(s) if s == "arrival" => *s = "no_such_stage".into(),
                Value::Array(items) => items.iter_mut().for_each(poison),
                Value::Object(fields) => fields.iter_mut().for_each(|(_, v)| poison(v)),
                _ => {}
            }
        }
        poison(&mut bad);
        let err = SinkRecord::from_value(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown span stage"), "{err}");
    }

    #[test]
    fn memory_sink_keeps_every_record_in_arrival_order() {
        let mut sink = MemorySink::new();
        for packet in 0..1000u64 {
            let span = SpanEvent { packet, ..SPAN };
            sink.record("switch", Record::Span(&span));
        }
        let packets: Vec<u64> = sink
            .records()
            .iter()
            .map(|r| match r.view() {
                ("switch", Record::Span(span)) => span.packet,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(packets, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn shared_sink_replays_renamed() {
        let shared = SharedSink::new();
        let mut handle = shared.clone();
        let reg = MetricsRegistry::new();
        let snap = reg.snapshot(SimTime::from_ns(50));
        let delta = snap.delta_since(&Snapshot::empty());
        handle.record(
            "switch",
            Record::Epoch {
                epoch: 0,
                delta: &delta,
            },
        );
        handle.record(
            "switch",
            Record::RunEnd {
                at: SimTime::from_ns(50),
                totals: &reg,
            },
        );
        let mem = shared.take();
        assert_eq!(mem.records().len(), 2);
        let mut renamed = MemorySink::new();
        mem.replay_renamed("plane00", &mut renamed);
        match &renamed.records()[0] {
            SinkRecord::Epoch { source, .. } => assert_eq!(source, "plane00"),
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn fanout_forwards_to_every_sink() {
        let a = SharedSink::new();
        let b = SharedSink::new();
        let mut fan = FanoutSink::new();
        fan.push(Box::new(a.clone()));
        fan.push(Box::new(b.clone()));
        assert_eq!(fan.len(), 2);
        let reg = MetricsRegistry::new();
        let snap = reg.snapshot(SimTime::from_ns(10));
        let delta = snap.delta_since(&Snapshot::empty());
        fan.record(
            "switch",
            Record::Epoch {
                epoch: 0,
                delta: &delta,
            },
        );
        fan.record(
            "switch",
            Record::RunEnd {
                at: SimTime::from_ns(10),
                totals: &reg,
            },
        );
        assert_eq!(a.take().records().len(), 2);
        assert_eq!(b.take().records().len(), 2);
    }
}
