//! Post-mortem flight recorder: a bounded ring of the most recent
//! telemetry, dumped as a `flight_*.json` bundle when a run ends
//! abnormally.
//!
//! Long soaks die in three ways: a watchdog alarm (the run completed
//! but unhealthy), a delivered signal (operator or scheduler
//! interrupted it), or a panic. In all three cases the JSONL stream on
//! stdout is either truncated or too large to sift, and what the
//! operator actually needs is the *recent past*: the last N epoch
//! deltas, any watchdog events, the most recent self-profile records,
//! plus enough identity (build info, config echo) to reproduce. The
//! [`FlightRecorder`] keeps exactly that in bounded memory. It is a
//! plain [`TelemetrySink`], fanned out next to the run's other outputs,
//! and [`FlightRecorder::dump`] serializes it once — the first trigger
//! wins, so a watchdog alarm followed by a SIGTERM produces one bundle.
//!
//! Like the profiler, the recorder observes and never participates: it
//! only receives records, so enabling it cannot perturb reports,
//! telemetry streams, traces or checkpoints.

use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::Serialize;
use serde_json::Value;

use crate::profile::{ProfileHub, ProfileRecord};
use crate::{EpochDelta, Record, TelemetrySink, WatchdogEvent};

/// One remembered epoch: the delta plus the stream identity the sink
/// saw it under.
#[derive(Debug, Clone, Serialize)]
pub struct FlightEpoch {
    /// Stream source of the delta.
    pub source: String,
    /// Epoch index.
    pub epoch: u64,
    /// The epoch delta itself.
    pub delta: EpochDelta,
}

struct FlightInner {
    service: String,
    version: String,
    config_echo: Option<Value>,
    cap: usize,
    epochs: VecDeque<FlightEpoch>,
    watchdogs: Vec<WatchdogEvent>,
    epochs_seen: u64,
    run_ended: bool,
    profile: Option<ProfileHub>,
    dumped: bool,
}

/// Bounded retention of the recent past, shared by clone (`Arc`
/// inside) so the signal/panic hooks and the sink chain see one state.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<FlightInner>>,
}

impl FlightRecorder {
    /// A recorder identifying the dumping binary as `service`
    /// `version`, retaining the last `cap` epoch deltas (watchdog
    /// events are rare and kept unbounded within a run).
    pub fn new(service: &str, version: &str, cap: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(Mutex::new(FlightInner {
                service: service.to_string(),
                version: version.to_string(),
                config_echo: None,
                cap: cap.max(1),
                epochs: VecDeque::new(),
                watchdogs: Vec::new(),
                epochs_seen: 0,
                run_ended: false,
                profile: None,
                dumped: false,
            })),
        }
    }

    /// Survive a poisoned lock: the panic hook is a primary caller.
    fn lock(&self) -> MutexGuard<'_, FlightInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attach the parsed run configuration, echoed into the bundle.
    pub fn set_config_echo(&self, config: Value) {
        self.lock().config_echo = Some(config);
    }

    /// Attach a profile hub whose recent records join the bundle.
    pub fn attach_profile_hub(&self, hub: ProfileHub) {
        self.lock().profile = Some(hub);
    }

    /// Write the post-mortem bundle `flight_<reason>.json` into `dir`.
    ///
    /// Only the first dump of a recorder writes (later triggers return
    /// `Ok(None)`), so stacked triggers — watchdog alarm, then SIGTERM,
    /// then the panic hook — produce exactly one bundle naming the
    /// first cause.
    pub fn dump(&self, dir: &Path, reason: &str) -> io::Result<Option<PathBuf>> {
        let mut inner = self.lock();
        if inner.dumped {
            return Ok(None);
        }
        let profiles = inner
            .profile
            .as_ref()
            .map(|hub| hub.recent())
            .unwrap_or_default();
        let bundle = Bundle {
            record: "flight".to_string(),
            reason: reason.to_string(),
            service: inner.service.clone(),
            version: inner.version.clone(),
            run_ended: inner.run_ended,
            epochs_seen: inner.epochs_seen,
            epochs_retained: inner.epochs.len() as u64,
            config_echo: inner.config_echo.clone(),
            epochs: inner.epochs.iter().cloned().collect(),
            watchdogs: inner.watchdogs.clone(),
            profiles,
        };
        let body = serde_json::to_string(&bundle)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // The reason strings are internal identifiers (watchdog /
        // signal / panic); a defensive filter keeps the filename sane
        // if one ever carries punctuation.
        let slug: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("flight_{slug}.json"));
        fs::write(&path, body + "\n")?;
        inner.dumped = true;
        Ok(Some(path))
    }
}

#[derive(Serialize)]
struct Bundle {
    record: String,
    reason: String,
    service: String,
    version: String,
    run_ended: bool,
    epochs_seen: u64,
    epochs_retained: u64,
    config_echo: Option<Value>,
    epochs: Vec<FlightEpoch>,
    watchdogs: Vec<WatchdogEvent>,
    profiles: Vec<ProfileRecord>,
}

/// Remembers epoch deltas (evicting the oldest past the cap) and
/// watchdog events, and marks a `run_end` (recorded in the bundle so a
/// post-run watchdog dump is distinguishable from a mid-run death).
impl TelemetrySink for FlightRecorder {
    fn record(&mut self, source: &str, rec: Record<'_>) {
        let mut inner = self.lock();
        match rec {
            Record::Epoch { epoch, delta } => {
                inner.epochs_seen += 1;
                if inner.epochs.len() == inner.cap {
                    inner.epochs.pop_front();
                }
                inner.epochs.push_back(FlightEpoch {
                    source: source.to_string(),
                    epoch,
                    delta: delta.clone(),
                });
            }
            Record::Watchdog(event) => inner.watchdogs.push(event.clone()),
            Record::RunEnd { .. } => inner.run_ended = true,
            Record::Span(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PhaseAcc;
    use crate::{FanoutSink, MetricsRegistry, SharedSink, Snapshot, WatchdogKind};
    use rip_units::SimTime;
    use serde::Deserialize;

    fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        v.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn get_u64(v: &Value, key: &str) -> Option<u64> {
        u64::from_value(get(v, key)?).ok()
    }

    fn delta(n: u64) -> EpochDelta {
        let mut reg = MetricsRegistry::new();
        reg.inc("pkts", n);
        reg.snapshot(SimTime::from_ns(n))
            .delta_since(&Snapshot::empty())
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let mut rec = FlightRecorder::new("ripsim", "0.0.0", 3);
        for i in 0..10 {
            let delta = delta(i + 1);
            rec.record(
                "sps",
                Record::Epoch {
                    epoch: i,
                    delta: &delta,
                },
            );
        }
        let dir = std::env::temp_dir().join("rip_flight_ring_test");
        fs::create_dir_all(&dir).unwrap();
        let path = rec.dump(&dir, "watchdog").unwrap().expect("first dump");
        let text = fs::read_to_string(&path).unwrap();
        let v: Value = serde_json::parse(&text).unwrap();
        assert_eq!(get(&v, "record").and_then(Value::as_str), Some("flight"));
        assert_eq!(get_u64(&v, "epochs_seen"), Some(10));
        let epochs = get(&v, "epochs").and_then(Value::as_array).unwrap();
        assert_eq!(epochs.len(), 3);
        assert_eq!(get_u64(&epochs[0], "epoch"), Some(7));
        assert_eq!(get_u64(&epochs[2], "epoch"), Some(9));
        // Second trigger: no second bundle.
        assert!(rec.dump(&dir, "signal").unwrap().is_none());
        assert!(!dir.join("flight_signal.json").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tee_forwards_and_records() {
        // The recorder is one plain sink of a fanout: its neighbour
        // still gets every record.
        let rec = FlightRecorder::new("ripsim", "0.0.0", 8);
        let stream = SharedSink::new();
        let mut tee = FanoutSink::new();
        tee.push(Box::new(stream.clone()));
        tee.push(Box::new(rec.clone()));
        tee.record(
            "sps",
            Record::Epoch {
                epoch: 0,
                delta: &delta(1),
            },
        );
        tee.record(
            "sps",
            Record::Watchdog(&WatchdogEvent {
                source: "sps".to_string(),
                epoch: 0,
                at: SimTime::from_ns(5),
                kind: WatchdogKind::Stall { epochs: 2 },
            }),
        );
        tee.record(
            "sps",
            Record::RunEnd {
                at: SimTime::from_ns(9),
                totals: &MetricsRegistry::new(),
            },
        );
        assert_eq!(stream.take().records().len(), 3);
        let dir = std::env::temp_dir().join("rip_flight_tee_test");
        fs::create_dir_all(&dir).unwrap();
        let path = rec.dump(&dir, "panic").unwrap().expect("dump");
        let v: Value = serde_json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            get(&v, "run_ended").and_then(|b| bool::from_value(b).ok()),
            Some(true)
        );
        assert_eq!(
            get(&v, "watchdogs")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            1
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bundle_carries_config_echo_and_profiles() {
        let rec = FlightRecorder::new("ripsim", "1.2.3", 4);
        rec.set_config_echo(serde_json::parse("{\"ribbons\":4}").unwrap());
        let hub = ProfileHub::new();
        let mut acc = PhaseAcc::new();
        acc.add_ns_n(crate::Phase::KernelPop, 42, 1);
        hub.record(acc.flush("engine", 0));
        rec.attach_profile_hub(hub);
        let dir = std::env::temp_dir().join("rip_flight_bundle_test");
        fs::create_dir_all(&dir).unwrap();
        let path = rec.dump(&dir, "signal").unwrap().expect("dump");
        let v: Value = serde_json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(get(&v, "version").and_then(Value::as_str), Some("1.2.3"));
        assert_eq!(
            get(&v, "config_echo").and_then(|c| get_u64(c, "ribbons")),
            Some(4)
        );
        let profiles = get(&v, "profiles").and_then(Value::as_array).unwrap();
        assert_eq!(profiles.len(), 1);
        assert_eq!(
            get(&profiles[0], "source").and_then(Value::as_str),
            Some("engine")
        );
        fs::remove_dir_all(&dir).ok();
    }
}
