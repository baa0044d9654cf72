//! Fleet-side telemetry reassembly: parse worker JSONL lines back into
//! [`SinkRecord`]s for per-plane staging and deterministic replay.
//!
//! A plane worker serializes its telemetry with a [`crate::JsonlSink`]
//! (sources renamed to `planeNN`), so the wire format *is* the sink's
//! line format. [`SinkRecord::from_line`], the exact inverse of the
//! sink's serializer, decodes a line back into its record for the
//! plane's [`crate::MemorySink`]. Replaying the staged planes in
//! ascending plane order through a fresh `JsonlSink` reproduces the
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

use rip_units::SimTime;
use serde::Deserialize;

use crate::envelope::{LineError, RecordLine};
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

/// One parsed worker line.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedLine {
    /// A telemetry record a [`crate::JsonlSink`] emitted.
    Telemetry(SinkRecord),
    /// A well-formed record of another kind (`fleet_hello`,
    /// `plane_done`, `fleet_end`, ...), for the protocol layer to
    /// decode into its own type.
    Control {
        /// The `record` field value.
        kind: String,
    },
}

// The fields of each telemetry line, as `JsonlSink` writes them.

#[derive(Deserialize)]
struct EpochLine {
    source: String,
    epoch: u64,
    delta: EpochDelta,
}

#[derive(Deserialize)]
struct SpanLine {
    source: String,
    packet: u64,
    stage: String,
    t_ps: u64,
    port: usize,
}

#[derive(Deserialize)]
struct WatchdogLine {
    source: String,
    epoch: u64,
    t_ps: u64,
    kind: WatchdogKind,
}

/// `records` is sink-side state and is not read back.
#[derive(Deserialize)]
struct RunEndLine {
    source: String,
    t_ps: u64,
    totals: MetricsRegistry,
}

/// Any record: checks the line's syntax and reads nothing.
#[derive(Deserialize)]
struct AnyLine {}

impl SinkRecord {
    /// Decode `line` back into the record a [`crate::JsonlSink`]
    /// serialized it from, or `None` when its kind is not one of the
    /// four telemetry kinds (`epoch`, `span`, `watchdog`, `run_end`).
    pub fn from_line(line: &RecordLine<'_>) -> Result<Option<Self>, LineError> {
        Ok(Some(match line.kind() {
            "epoch" => {
                let l: EpochLine = line.decode()?;
                SinkRecord::Epoch {
                    source: l.source,
                    epoch: l.epoch,
                    delta: l.delta,
                }
            }
            "span" => {
                let l: SpanLine = line.decode()?;
                let stage = intern_stage(&l.stage).ok_or_else(|| LineError::Field {
                    record: "span".to_string(),
                    detail: format!("unknown span stage {:?}", l.stage),
                })?;
                SinkRecord::Span {
                    source: l.source,
                    span: SpanEvent {
                        packet: l.packet,
                        stage,
                        at: SimTime::from_ps(l.t_ps),
                        port: l.port,
                    },
                }
            }
            "watchdog" => {
                // The event's `source` is not repeated inside the line;
                // it is the line's own source.
                let l: WatchdogLine = line.decode()?;
                SinkRecord::Watchdog {
                    source: l.source.clone(),
                    event: WatchdogEvent {
                        source: l.source,
                        epoch: l.epoch,
                        at: SimTime::from_ps(l.t_ps),
                        kind: l.kind,
                    },
                }
            }
            "run_end" => {
                let l: RunEndLine = line.decode()?;
                SinkRecord::RunEnd {
                    source: l.source,
                    at: SimTime::from_ps(l.t_ps),
                    totals: l.totals,
                }
            }
            _ => return Ok(None),
        }))
    }
}

/// Parse one JSONL line back into the record a [`crate::JsonlSink`]
/// serialized it from. Telemetry kinds become [`SinkRecord`]s; any
/// other well-formed record is a [`ParsedLine::Control`] line for the
/// fleet protocol layer. The `records` field of a `run_end` line is
/// intentionally dropped: it is sink-side state the consumer's own
/// sink recomputes.
pub fn parse_sink_line(text: &str) -> Result<ParsedLine, LineError> {
    let line = RecordLine::read(text)?;
    if let Some(rec) = SinkRecord::from_line(&line)? {
        return Ok(ParsedLine::Telemetry(rec));
    }
    line.decode::<AnyLine>()?;
    let kind = line.kind().to_string();
    Ok(ParsedLine::Control { kind })
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
                ParsedLine::Control { kind } => panic!("unexpected control line {kind}"),
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
        let line = "{\"record\":\"fleet_hello\",\"schema\":\"rip-fleet/v3\",\"worker\":0}";
        assert_eq!(
            parse_sink_line(line),
            Ok(ParsedLine::Control {
                kind: "fleet_hello".into()
            })
        );
        // A control line is checked whole, though none of it is read.
        assert!(matches!(
            parse_sink_line(&line[..line.len() - 1]),
            Err(LineError::Field { .. })
        ));
    }

    #[test]
    fn parse_errors_are_typed() {
        assert!(matches!(
            parse_sink_line("not json"),
            Err(LineError::NotARecord(_))
        ));
        assert!(matches!(
            parse_sink_line("[1,2]"),
            Err(LineError::NotARecord(_))
        ));
        assert!(matches!(
            parse_sink_line("{\"source\":\"p\",\"record\":\"epoch\"}"),
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
