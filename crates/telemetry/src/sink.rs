//! Telemetry sinks: where live epoch deltas and span events go.
//!
//! Engines push four kinds of records into a [`TelemetrySink`] while
//! they run: per-epoch registry deltas, sampled packet-lifecycle span
//! events, watchdog alarms, and one terminal `run_end` carrying the
//! final cumulative registry. Everything a sink receives is derived
//! from sim time and seeded state only, so any sink that serializes
//! records in arrival order produces a byte-identical stream across
//! same-seed runs.
//!
//! Provided sinks:
//!
//! * [`JsonlSink`] — one JSON object per line, the format diffed
//!   byte-for-byte by CI;
//! * [`MemorySink`] — buffers records for tests and for replay, with
//!   an optional ring capacity so soaks cannot grow it unboundedly;
//! * [`SharedSink`] — a clonable, thread-safe handle over a
//!   [`MemorySink`], used by per-plane worker threads whose buffered
//!   records are replayed into the caller's sink in plane order;
//! * [`FanoutSink`] — forwards every record to several sinks (e.g.
//!   stdout JSONL plus a [`crate::MetricsEndpoint`]).

use std::collections::{BTreeMap, VecDeque};
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

/// Receiver for live telemetry records. All methods take `&mut self`;
/// engines own their sink (or a clonable handle) for the duration of a
/// run.
pub trait TelemetrySink {
    /// One closed epoch from registry `source`.
    fn on_epoch(&mut self, source: &str, epoch: u64, delta: &EpochDelta);

    /// One sampled packet-lifecycle event from `source`.
    fn on_span(&mut self, source: &str, span: &SpanEvent) {
        let _ = (source, span);
    }

    /// A watchdog alarm raised while consuming `source`'s stream.
    fn on_watchdog(&mut self, source: &str, event: &WatchdogEvent) {
        let _ = (source, event);
    }

    /// The run finished at sim time `at`; `totals` is the final
    /// cumulative registry (what the end-of-run report serializes).
    fn on_run_end(&mut self, source: &str, at: SimTime, totals: &MetricsRegistry) {
        let _ = (source, at, totals);
    }
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

    // The vendored serde_derive cannot derive on lifetime-generic
    // structs, so record lines are composed from individually
    // serialized parts (each part is itself serde-serialized, so
    // escaping and map ordering stay correct).
    fn write_line(&mut self, line: &str) {
        self.out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
            .expect("telemetry sink write");
        self.records += 1;
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serializes")
}

impl<W: Write> TelemetrySink for JsonlSink<W> {
    fn on_epoch(&mut self, source: &str, epoch: u64, delta: &EpochDelta) {
        let line = format!(
            "{{\"record\":\"epoch\",\"source\":{},\"epoch\":{},\"delta\":{}}}",
            json_str(source),
            epoch,
            serde_json::to_string(delta).expect("delta serializes"),
        );
        self.write_line(&line);
    }

    fn on_span(&mut self, source: &str, span: &SpanEvent) {
        let line = format!(
            "{{\"record\":\"span\",\"source\":{},\"packet\":{},\"stage\":{},\"t_ps\":{},\"port\":{}}}",
            json_str(source),
            span.packet,
            json_str(span.stage),
            span.at.as_ps(),
            span.port,
        );
        self.write_line(&line);
    }

    fn on_watchdog(&mut self, source: &str, event: &WatchdogEvent) {
        let line = format!(
            "{{\"record\":\"watchdog\",\"source\":{},\"epoch\":{},\"t_ps\":{},\"kind\":{}}}",
            json_str(source),
            event.epoch,
            event.at.as_ps(),
            serde_json::to_string(&event.kind).expect("watchdog kind serializes"),
        );
        self.write_line(&line);
    }

    fn on_run_end(&mut self, source: &str, at: SimTime, totals: &MetricsRegistry) {
        let line = format!(
            "{{\"record\":\"run_end\",\"source\":{},\"t_ps\":{},\"records\":{},\"totals\":{}}}",
            json_str(source),
            at.as_ps(),
            self.records,
            serde_json::to_string(totals).expect("registry serializes"),
        );
        self.write_line(&line);
        self.flush();
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

/// Escape a label value per the exposition grammar: backslash, double
/// quote and newline must be `\\`, `\"` and `\n`.
pub(crate) fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a `# HELP` text: backslash and newline only.
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render every source's cumulative registry as one grammar-valid
/// Prometheus text exposition: each metric family appears exactly once
/// (`# HELP` + `# TYPE`, then one sample per source, label-escaped),
/// histograms carry cumulative `_bucket` lines with a single `+Inf`
/// bucket equal to `_count`. Sources become a `source="..."` label, so
/// per-plane registries share families.
pub(crate) fn render_exposition<W: Write>(
    regs: &BTreeMap<String, MetricsRegistry>,
    out: &mut W,
) -> std::io::Result<()> {
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
        let n = sanitize(name);
        writeln!(out, "# HELP rip_{n}_total {} (counter)", escape_help(name))?;
        writeln!(out, "# TYPE rip_{n}_total counter")?;
        for (source, v) in samples {
            writeln!(
                out,
                "rip_{n}_total{{source=\"{}\"}} {v}",
                escape_label(source)
            )?;
        }
    }
    for (name, samples) in &gauges {
        let n = sanitize(name);
        writeln!(out, "# HELP rip_{n} {} (gauge)", escape_help(name))?;
        writeln!(out, "# TYPE rip_{n} gauge")?;
        for (source, v) in samples {
            writeln!(out, "rip_{n}{{source=\"{}\"}} {v}", escape_label(source))?;
        }
    }
    for (name, samples) in &histograms {
        let n = sanitize(name);
        writeln!(out, "# HELP rip_{n} {} (histogram)", escape_help(name))?;
        writeln!(out, "# TYPE rip_{n} histogram")?;
        for (source, h) in samples {
            let source = escape_label(source);
            let mut cum = 0u64;
            for &(idx, count) in &h.buckets {
                cum += count;
                let le = bucket_upper_edge(idx);
                // Non-finite edges fold into the single +Inf bucket
                // below (one +Inf sample per series, as the grammar
                // requires).
                if le.is_finite() {
                    writeln!(
                        out,
                        "rip_{n}_bucket{{source=\"{source}\",le=\"{le}\"}} {cum}"
                    )?;
                }
            }
            writeln!(
                out,
                "rip_{n}_bucket{{source=\"{source}\",le=\"+Inf\"}} {}",
                h.count()
            )?;
            writeln!(out, "rip_{n}_count{{source=\"{source}\"}} {}", h.count())?;
        }
    }
    // Rejected-sample tallies are their own counter family (they are
    // not histogram samples).
    let rejected: Vec<(&str, &str, u64)> = histograms
        .iter()
        .flat_map(|(name, samples)| {
            samples
                .iter()
                .filter(|(_, h)| h.rejected() > 0)
                .map(move |&(source, h)| (*name, source, h.rejected()))
        })
        .collect();
    let mut seen: Vec<&str> = Vec::new();
    for &(name, _, _) in &rejected {
        if !seen.contains(&name) {
            seen.push(name);
        }
    }
    for family in seen {
        let n = sanitize(family);
        writeln!(
            out,
            "# HELP rip_{n}_rejected_total NaN samples rejected by {} (counter)",
            escape_help(family)
        )?;
        writeln!(out, "# TYPE rip_{n}_rejected_total counter")?;
        for &(name, source, count) in &rejected {
            if name == family {
                writeln!(
                    out,
                    "rip_{n}_rejected_total{{source=\"{}\"}} {count}",
                    escape_label(source)
                )?;
            }
        }
    }
    Ok(())
}

/// One buffered record, as received by a [`MemorySink`].
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

/// Buffers every record in arrival order — for tests, and as the
/// per-plane staging buffer whose contents are replayed into the real
/// sink in deterministic plane order. An optional ring capacity
/// ([`MemorySink::with_capacity`]) bounds the buffer for multi-hour
/// soaks: the oldest records are evicted and counted in
/// [`MemorySink::dropped_records`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemorySink {
    records: VecDeque<SinkRecord>,
    /// Ring capacity (`None` = unbounded).
    capacity: Option<usize>,
    dropped: u64,
}

impl MemorySink {
    /// An unbounded sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A sink keeping only the most recent `capacity` records.
    ///
    /// # Panics
    /// Panics when `capacity` is zero (a sink that can hold nothing).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        MemorySink {
            records: VecDeque::with_capacity(capacity),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// The buffered records, in arrival order.
    pub fn records(&self) -> &VecDeque<SinkRecord> {
        &self.records
    }

    /// Records evicted by the ring capacity.
    pub fn dropped_records(&self) -> u64 {
        self.dropped
    }

    /// Consume the sink, returning its records.
    pub fn into_records(self) -> Vec<SinkRecord> {
        self.records.into()
    }

    fn push(&mut self, rec: SinkRecord) {
        if let Some(cap) = self.capacity {
            while self.records.len() >= cap {
                self.records.pop_front();
                self.dropped += 1;
            }
        }
        self.records.push_back(rec);
    }

    /// Append a previously captured record — how a resumed run
    /// re-seeds a staging buffer from a checkpoint.
    pub fn push_record(&mut self, rec: SinkRecord) {
        self.push(rec);
    }

    /// Replay every buffered record into `sink`, preserving sources.
    pub fn replay_into(&self, sink: &mut dyn TelemetrySink) {
        for rec in &self.records {
            match rec {
                SinkRecord::Epoch {
                    source,
                    epoch,
                    delta,
                } => sink.on_epoch(source, *epoch, delta),
                SinkRecord::Span { source, span } => sink.on_span(source, span),
                SinkRecord::Watchdog { source, event } => sink.on_watchdog(source, event),
                SinkRecord::RunEnd { source, at, totals } => sink.on_run_end(source, *at, totals),
            }
        }
    }

    /// Replay every buffered record into `sink` under a new source
    /// name — how per-plane buffers become `plane00`, `plane01`, …
    /// streams in the caller's sink.
    pub fn replay_renamed(&self, source: &str, sink: &mut dyn TelemetrySink) {
        for rec in &self.records {
            match rec {
                SinkRecord::Epoch { epoch, delta, .. } => sink.on_epoch(source, *epoch, delta),
                SinkRecord::Span { span, .. } => sink.on_span(source, span),
                SinkRecord::Watchdog { event, .. } => sink.on_watchdog(source, event),
                SinkRecord::RunEnd { at, totals, .. } => sink.on_run_end(source, *at, totals),
            }
        }
    }
}

impl TelemetrySink for MemorySink {
    fn on_epoch(&mut self, source: &str, epoch: u64, delta: &EpochDelta) {
        self.push(SinkRecord::Epoch {
            source: source.to_string(),
            epoch,
            delta: delta.clone(),
        });
    }

    fn on_span(&mut self, source: &str, span: &SpanEvent) {
        self.push(SinkRecord::Span {
            source: source.to_string(),
            span: *span,
        });
    }

    fn on_watchdog(&mut self, source: &str, event: &WatchdogEvent) {
        self.push(SinkRecord::Watchdog {
            source: source.to_string(),
            event: event.clone(),
        });
    }

    fn on_run_end(&mut self, source: &str, at: SimTime, totals: &MetricsRegistry) {
        self.push(SinkRecord::RunEnd {
            source: source.to_string(),
            at,
            totals: totals.clone(),
        });
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

    /// Take the buffered records out, leaving the sink empty.
    pub fn take(&self) -> MemorySink {
        std::mem::take(&mut *self.inner.lock().expect("telemetry sink lock"))
    }

    /// Clone the buffered records without draining them — how a
    /// checkpoint captures a staging buffer mid-run.
    pub fn peek_records(&self) -> Vec<SinkRecord> {
        self.inner
            .lock()
            .expect("telemetry sink lock")
            .records()
            .iter()
            .cloned()
            .collect()
    }

    /// Append a previously captured record (checkpoint restore).
    pub fn push_record(&self, rec: SinkRecord) {
        self.inner
            .lock()
            .expect("telemetry sink lock")
            .push_record(rec);
    }
}

impl TelemetrySink for SharedSink {
    fn on_epoch(&mut self, source: &str, epoch: u64, delta: &EpochDelta) {
        self.inner
            .lock()
            .expect("telemetry sink lock")
            .on_epoch(source, epoch, delta);
    }

    fn on_span(&mut self, source: &str, span: &SpanEvent) {
        self.inner
            .lock()
            .expect("telemetry sink lock")
            .on_span(source, span);
    }

    fn on_watchdog(&mut self, source: &str, event: &WatchdogEvent) {
        self.inner
            .lock()
            .expect("telemetry sink lock")
            .on_watchdog(source, event);
    }

    fn on_run_end(&mut self, source: &str, at: SimTime, totals: &MetricsRegistry) {
        self.inner
            .lock()
            .expect("telemetry sink lock")
            .on_run_end(source, at, totals);
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
    fn on_epoch(&mut self, source: &str, epoch: u64, delta: &EpochDelta) {
        for sink in &mut self.sinks {
            sink.on_epoch(source, epoch, delta);
        }
    }

    fn on_span(&mut self, source: &str, span: &SpanEvent) {
        for sink in &mut self.sinks {
            sink.on_span(source, span);
        }
    }

    fn on_watchdog(&mut self, source: &str, event: &WatchdogEvent) {
        for sink in &mut self.sinks {
            sink.on_watchdog(source, event);
        }
    }

    fn on_run_end(&mut self, source: &str, at: SimTime, totals: &MetricsRegistry) {
        for sink in &mut self.sinks {
            sink.on_run_end(source, at, totals);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Snapshot, WatchdogKind};

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
                sink.on_epoch("switch", 0, &snap.delta_since(&prev));
                sink.on_span(
                    "switch",
                    &SpanEvent {
                        packet: 42,
                        stage: "arrival",
                        at: SimTime::from_ns(5),
                        port: 1,
                    },
                );
                sink.on_watchdog(
                    "switch",
                    &WatchdogEvent {
                        source: "switch".into(),
                        epoch: 0,
                        at: SimTime::from_ns(100),
                        kind: WatchdogKind::Stall { epochs: 3 },
                    },
                );
                sink.on_run_end("switch", SimTime::from_ns(100), reg);
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

    #[test]
    fn prometheus_renders_counters_gauges_histograms() {
        let mut reg = MetricsRegistry::new();
        reg.inc("switch.packets", 9);
        reg.set_gauge("queue.depth", SimTime::from_ns(10), 4.5);
        reg.observe("lat.ns", 100.0);
        reg.observe("lat.ns", 200.0);
        let mut buf = Vec::new();
        render_exposition(&BTreeMap::from([("switch".to_string(), reg)]), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
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
        let mut buf = Vec::new();
        render_exposition(&regs, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();

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
    fn memory_sink_ring_bounds_and_counts_drops() {
        let mut sink = MemorySink::with_capacity(3);
        let reg = MetricsRegistry::new();
        let span = |packet| SpanEvent {
            packet,
            stage: "arrival",
            at: SimTime::from_ns(packet),
            port: 0,
        };
        for packet in 0..10u64 {
            sink.on_span("switch", &span(packet));
        }
        sink.on_run_end("switch", SimTime::from_ns(99), &reg);
        assert_eq!(sink.records().len(), 3, "ring must cap the buffer");
        assert_eq!(sink.dropped_records(), 8);
        // The newest records survive.
        match &sink.records()[2] {
            SinkRecord::RunEnd { .. } => {}
            other => panic!("expected the run_end to survive, got {other:?}"),
        }
        match &sink.records()[0] {
            SinkRecord::Span { span, .. } => assert_eq!(span.packet, 8),
            other => panic!("unexpected record {other:?}"),
        }
        // Unbounded default never drops.
        let mut unbounded = MemorySink::new();
        for packet in 0..10u64 {
            unbounded.on_span("switch", &span(packet));
        }
        assert_eq!(unbounded.records().len(), 10);
        assert_eq!(unbounded.dropped_records(), 0);
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn memory_sink_rejects_zero_capacity() {
        MemorySink::with_capacity(0);
    }

    #[test]
    fn memory_sink_capacity_one_keeps_only_the_newest() {
        let mut sink = MemorySink::with_capacity(1);
        let span = |packet| SpanEvent {
            packet,
            stage: "arrival",
            at: SimTime::from_ns(packet),
            port: 0,
        };
        sink.on_span("switch", &span(0));
        assert_eq!(sink.records().len(), 1);
        assert_eq!(sink.dropped_records(), 0);
        for packet in 1..5u64 {
            sink.on_span("switch", &span(packet));
        }
        assert_eq!(sink.records().len(), 1);
        assert_eq!(sink.dropped_records(), 4);
        match &sink.records()[0] {
            SinkRecord::Span { span, .. } => assert_eq!(span.packet, 4),
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn memory_sink_exact_wraparound_boundary() {
        // Filling to exactly capacity drops nothing; one more record
        // evicts exactly the oldest.
        let mut sink = MemorySink::with_capacity(4);
        let span = |packet| SpanEvent {
            packet,
            stage: "arrival",
            at: SimTime::from_ns(packet),
            port: 0,
        };
        for packet in 0..4u64 {
            sink.on_span("switch", &span(packet));
        }
        assert_eq!(sink.records().len(), 4);
        assert_eq!(sink.dropped_records(), 0);
        sink.on_span("switch", &span(4));
        assert_eq!(sink.records().len(), 4);
        assert_eq!(sink.dropped_records(), 1);
        let ids: Vec<u64> = sink
            .records()
            .iter()
            .map(|r| match r {
                SinkRecord::Span { span, .. } => span.packet,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn memory_sink_overflow_accounting_is_cumulative() {
        let mut sink = MemorySink::with_capacity(2);
        let span = |packet| SpanEvent {
            packet,
            stage: "departure",
            at: SimTime::from_ns(packet),
            port: 1,
        };
        for packet in 0..100u64 {
            sink.on_span("switch", &span(packet));
        }
        assert_eq!(sink.records().len(), 2);
        assert_eq!(sink.dropped_records(), 98);
        // Eviction count + retained count always equals pushes.
        assert_eq!(sink.dropped_records() + sink.records().len() as u64, 100);
    }

    #[test]
    fn sink_records_roundtrip_through_snapshot_values() {
        let mut reg = MetricsRegistry::new();
        reg.inc("pkts", 3);
        let snap = reg.snapshot(SimTime::from_ns(100));
        let mut sink = MemorySink::new();
        sink.on_epoch("switch", 0, &snap.delta_since(&Snapshot::empty()));
        sink.on_span(
            "switch",
            &SpanEvent {
                packet: 7,
                stage: "hbm_read",
                at: SimTime::from_ns(42),
                port: 3,
            },
        );
        sink.on_watchdog(
            "switch",
            &WatchdogEvent {
                source: "switch".into(),
                epoch: 0,
                at: SimTime::from_ns(100),
                kind: WatchdogKind::Stall { epochs: 3 },
            },
        );
        sink.on_run_end("switch", SimTime::from_ns(100), &reg);
        for rec in sink.records() {
            let v = rec.to_value();
            let back = SinkRecord::from_value(&v).expect("record roundtrips");
            assert_eq!(&back, rec);
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
    fn shared_sink_replays_renamed() {
        let shared = SharedSink::new();
        let mut handle = shared.clone();
        let reg = MetricsRegistry::new();
        let snap = reg.snapshot(SimTime::from_ns(50));
        handle.on_epoch("switch", 0, &snap.delta_since(&Snapshot::empty()));
        handle.on_run_end("switch", SimTime::from_ns(50), &reg);
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
        fan.on_epoch("switch", 0, &snap.delta_since(&Snapshot::empty()));
        fan.on_run_end("switch", SimTime::from_ns(10), &reg);
        assert_eq!(a.take().records().len(), 2);
        assert_eq!(b.take().records().len(), 2);
    }
}
