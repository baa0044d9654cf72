//! Fleet-side telemetry reassembly: parse worker JSONL lines back into
//! [`SinkRecord`]s for per-plane staging and deterministic replay.
//!
//! A plane worker serializes its telemetry with a [`crate::JsonlSink`]
//! (sources renamed to `planeNN`), so the wire format *is* the sink's
//! line format. The collector parses every line back into the typed
//! record it came from — [`parse_sink_line`] is the exact inverse of
//! the sink's serializer — and stages it in the plane's
//! [`crate::MemorySink`]. Replaying the staged planes in ascending
//! plane order through a fresh `JsonlSink` reproduces the
//! single-process stream byte-for-byte:
//!
//! * the sink's float formatting is parse-stable (vendored serde_json
//!   prints whole floats as `x.0` and everything else via shortest
//!   round-trip, and parses with `str::parse::<f64>`), so
//!   parse-then-reserialize is the identity on every line;
//! * the `records` field of a `run_end` line is *sink-side* state (the
//!   number of lines the sink wrote before it), so it is deliberately
//!   not part of [`SinkRecord`] — the collector's own sink recomputes
//!   it, which is what makes the count correct even though no single
//!   worker knows how many lines the other workers contributed;
//! * everything else in a line is plane-local and sim-time-stamped, so
//!   per-plane record order is independent of which worker ran the
//!   plane or when its stream arrived.

use std::fmt;

use rip_units::SimTime;
use serde::{Deserialize, Value};

use crate::sink::{intern_stage, SinkRecord, SpanEvent};
use crate::{EpochDelta, MetricsRegistry, WatchdogEvent, WatchdogKind};

/// The canonical source name a plane's telemetry is renamed to when it
/// leaves its staging buffer: `plane00`, `plane01`, ... Matches the
/// names `SpsRouter` uses for single-process streaming, which is what
/// makes worker streams byte-compatible with the oracle.
pub fn plane_source_name(plane: usize) -> String {
    format!("plane{plane:02}")
}

/// Inverse of [`plane_source_name`]: `plane07` → `Some(7)`. Returns
/// `None` for sources that are not plane streams (e.g. `sps`, `mimic`).
pub fn parse_plane_source(source: &str) -> Option<usize> {
    let digits = source.strip_prefix("plane")?;
    let plane: usize = digits.parse().ok()?;
    // Round-trip check rejects aliases like "plane007" that would let
    // two distinct source strings collide on one plane id.
    if plane_source_name(plane) == source || plane.to_string() == digits {
        Some(plane)
    } else {
        None
    }
}

/// A line that failed to parse back into a record.
#[derive(Debug, Clone, PartialEq)]
pub enum LineError {
    /// Not valid JSON at all.
    Json(String),
    /// Valid JSON but not an object with a string `record` field.
    NotARecord(String),
    /// A known record kind with a missing or ill-typed field.
    Field {
        /// The record kind being parsed.
        record: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineError::Json(e) => write!(f, "line is not valid JSON: {e}"),
            LineError::NotARecord(kind) => {
                write!(f, "line is not a telemetry record (found {kind})")
            }
            LineError::Field { record, detail } => {
                write!(f, "bad `{record}` record: {detail}")
            }
        }
    }
}

impl std::error::Error for LineError {}

/// One parsed worker line.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedLine {
    /// A telemetry record a [`crate::JsonlSink`] emitted.
    Telemetry(SinkRecord),
    /// A non-telemetry control line (`fleet_hello`, `plane_done`,
    /// `fleet_end`, ...): the `record` value plus the whole object for
    /// the protocol layer to interpret.
    Control {
        /// The `record` field value.
        kind: String,
        /// The full parsed line.
        value: Value,
    },
}

fn field<'a>(obj: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn typed<T: Deserialize>(
    obj: &[(String, Value)],
    name: &str,
    record: &str,
) -> Result<T, LineError> {
    let v = field(obj, name).ok_or_else(|| LineError::Field {
        record: record.to_string(),
        detail: format!("missing field `{name}`"),
    })?;
    T::from_value(v).map_err(|e| LineError::Field {
        record: record.to_string(),
        detail: format!("field `{name}`: {e}"),
    })
}

/// Parse one JSONL line back into the record a [`crate::JsonlSink`]
/// serialized it from. Telemetry kinds (`epoch`, `span`, `watchdog`,
/// `run_end`) become [`SinkRecord`]s; any other `record` value is
/// returned as a [`ParsedLine::Control`] line for the fleet protocol
/// layer. The `records` field of a `run_end` line is intentionally
/// dropped: it is sink-side state the consumer's own sink recomputes.
pub fn parse_sink_line(line: &str) -> Result<ParsedLine, LineError> {
    let value = serde_json::parse(line).map_err(|e| LineError::Json(e.to_string()))?;
    let obj = value
        .as_object()
        .ok_or_else(|| LineError::NotARecord(value.kind().to_string()))?;
    let kind = field(obj, "record")
        .and_then(Value::as_str)
        .ok_or_else(|| LineError::NotARecord("object without `record` string".to_string()))?
        .to_string();
    let record = match kind.as_str() {
        "epoch" => SinkRecord::Epoch {
            source: typed(obj, "source", "epoch")?,
            epoch: typed(obj, "epoch", "epoch")?,
            delta: typed::<EpochDelta>(obj, "delta", "epoch")?,
        },
        "span" => {
            // The sink writes the timestamp as `t_ps` and the stage as
            // a plain string; `SpanEvent`'s own Deserialize expects an
            // `at` field, so the line is decoded field by field here.
            let stage: String = typed(obj, "stage", "span")?;
            let stage = intern_stage(&stage).ok_or_else(|| LineError::Field {
                record: "span".to_string(),
                detail: format!("unknown span stage {stage:?}"),
            })?;
            SinkRecord::Span {
                source: typed(obj, "source", "span")?,
                span: SpanEvent {
                    packet: typed(obj, "packet", "span")?,
                    stage,
                    at: SimTime::from_ps(typed(obj, "t_ps", "span")?),
                    port: typed(obj, "port", "span")?,
                },
            }
        }
        "watchdog" => {
            // The event's `source` is not repeated inside the line; it
            // is the line's own source.
            let source: String = typed(obj, "source", "watchdog")?;
            let epoch: u64 = typed(obj, "epoch", "watchdog")?;
            let at = SimTime::from_ps(typed(obj, "t_ps", "watchdog")?);
            let kind: WatchdogKind = typed(obj, "kind", "watchdog")?;
            SinkRecord::Watchdog {
                source: source.clone(),
                event: WatchdogEvent {
                    source,
                    epoch,
                    at,
                    kind,
                },
            }
        }
        "run_end" => SinkRecord::RunEnd {
            source: typed(obj, "source", "run_end")?,
            at: SimTime::from_ps(typed::<u64>(obj, "t_ps", "run_end")?),
            totals: typed::<MetricsRegistry>(obj, "totals", "run_end")?,
        },
        _ => return Ok(ParsedLine::Control { kind, value }),
    };
    Ok(ParsedLine::Telemetry(record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JsonlSink, MemorySink, Snapshot, TelemetrySink};

    fn sample_registry(at: SimTime) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc("switch.packets.delivered", 7);
        reg.set_gauge("switch.depth", at, 3.5);
        reg.observe("switch.latency_ns", 412.0);
        reg
    }

    /// Serialize records through a JsonlSink, parse every line back,
    /// and re-serialize: the streams must be byte-identical and the
    /// parsed records must equal the originals.
    #[test]
    fn parse_is_the_inverse_of_the_sink() {
        let reg = sample_registry(SimTime::from_ns(10));
        let records = vec![
            SinkRecord::Epoch {
                source: "plane00".to_string(),
                epoch: 0,
                delta: reg
                    .snapshot(SimTime::from_ns(5))
                    .delta_since(&Snapshot::empty()),
            },
            SinkRecord::Span {
                source: "plane00".to_string(),
                span: SpanEvent {
                    packet: 42,
                    stage: "hbm_write",
                    at: SimTime::from_ns(6),
                    port: 3,
                },
            },
            SinkRecord::Watchdog {
                source: "plane01".to_string(),
                event: WatchdogEvent {
                    source: "plane01".to_string(),
                    epoch: 2,
                    at: SimTime::from_ns(12),
                    kind: WatchdogKind::DropRate { fraction: 0.75 },
                },
            },
            SinkRecord::Watchdog {
                source: "plane01".to_string(),
                event: WatchdogEvent {
                    source: "plane01".to_string(),
                    epoch: 3,
                    at: SimTime::from_ns(14),
                    kind: WatchdogKind::WorkerLost { worker: 1 },
                },
            },
            SinkRecord::RunEnd {
                source: "sps".to_string(),
                at: SimTime::from_ns(20),
                totals: reg.clone(),
            },
        ];
        let mut bytes = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut bytes);
            let mut staging = MemorySink::default();
            for rec in &records {
                staging.push_record(rec.clone());
            }
            staging.replay_into(&mut sink);
        }
        let text = String::from_utf8(bytes).expect("utf8");
        let mut parsed = Vec::new();
        for line in text.lines() {
            match parse_sink_line(line).expect("line parses") {
                ParsedLine::Telemetry(rec) => parsed.push(rec),
                ParsedLine::Control { kind, .. } => panic!("unexpected control line {kind}"),
            }
        }
        assert_eq!(parsed, records);
        // Re-serialize the parsed records: byte-identical stream.
        let mut again = Vec::new();
        let mut sink2 = JsonlSink::new(&mut again);
        for rec in &parsed {
            let (source, view) = rec.view();
            sink2.record(source, view);
        }
        drop(sink2);
        assert_eq!(String::from_utf8(again).expect("utf8"), text);
    }

    #[test]
    fn control_lines_pass_through() {
        let line = "{\"record\":\"fleet_hello\",\"schema\":\"rip-fleet/v1\",\"worker\":0}";
        match parse_sink_line(line).expect("parses") {
            ParsedLine::Control { kind, value } => {
                assert_eq!(kind, "fleet_hello");
                let obj = value.as_object().expect("object");
                assert!(obj.iter().any(|(k, _)| k == "schema"));
            }
            other => panic!("want control, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_typed() {
        assert!(matches!(
            parse_sink_line("not json"),
            Err(LineError::Json(_))
        ));
        assert!(matches!(
            parse_sink_line("[1,2]"),
            Err(LineError::NotARecord(_))
        ));
        assert!(matches!(
            parse_sink_line("{\"record\":\"epoch\",\"source\":\"p\"}"),
            Err(LineError::Field { .. })
        ));
        assert!(matches!(
            parse_sink_line(
                "{\"record\":\"span\",\"source\":\"p\",\"packet\":1,\"stage\":\"bogus\",\"t_ps\":1,\"port\":0}"
            ),
            Err(LineError::Field { .. })
        ));
    }

    #[test]
    fn plane_source_names_round_trip() {
        for plane in [0usize, 1, 9, 10, 63, 99, 100, 128] {
            assert_eq!(
                parse_plane_source(&plane_source_name(plane)),
                Some(plane),
                "plane {plane}"
            );
        }
        assert_eq!(parse_plane_source("sps"), None);
        assert_eq!(parse_plane_source("plane"), None);
        assert_eq!(parse_plane_source("plane007"), None);
        assert_eq!(parse_plane_source("plane-1"), None);
    }
}
