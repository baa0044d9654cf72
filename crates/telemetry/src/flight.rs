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
//!
//! A bundle file is one `{"record":"flight",…}` envelope line holding a
//! [`FlightBundle`]; [`FlightBundle::read`] decodes it back.

use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::envelope::{read_record, write_record, LineError};
use crate::profile::{ProfileHub, ProfileRecord};
use crate::{EpochDelta, Record, TelemetrySink, WatchdogEvent};

/// One remembered epoch: the delta plus the stream identity the sink
/// saw it under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEpoch {
    /// Stream source of the delta.
    pub source: String,
    /// Epoch index.
    pub epoch: u64,
    /// The epoch delta itself.
    pub delta: EpochDelta,
}

struct FlightInner {
    /// The bundle as it stands; a dump fills in its reason, its
    /// retained count and its profiles.
    bundle: FlightBundle,
    cap: usize,
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
        let bundle = FlightBundle {
            service: service.to_string(),
            version: version.to_string(),
            ..FlightBundle::default()
        };
        FlightRecorder {
            inner: Arc::new(Mutex::new(FlightInner {
                bundle,
                cap: cap.max(1),
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
        self.lock().bundle.config_echo = Some(config);
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
        let inner = &mut *inner;
        let bundle = &mut inner.bundle;
        bundle.reason = reason.to_string();
        bundle.epochs_retained = bundle.epochs.len() as u64;
        bundle.profiles = inner
            .profile
            .as_ref()
            .map(ProfileHub::recent)
            .unwrap_or_default();
        // The reason strings are internal identifiers (watchdog /
        // signal / panic); a defensive filter keeps the filename sane
        // if one ever carries punctuation.
        let slug: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("flight_{slug}.json"));
        fs::write(&path, bundle.to_text())?;
        inner.dumped = true;
        Ok(Some(path))
    }
}

/// A post-mortem bundle: what a `flight_<reason>.json` file holds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightBundle {
    /// The trigger: `watchdog`, `signal` or `panic`.
    pub reason: String,
    /// The dumping binary.
    pub service: String,
    /// Its version.
    pub version: String,
    /// Whether a `run_end` record arrived before the dump.
    pub run_ended: bool,
    /// Epoch deltas seen over the whole run.
    pub epochs_seen: u64,
    /// Epoch deltas retained in [`FlightBundle::epochs`].
    pub epochs_retained: u64,
    /// The parsed run configuration, when one was attached.
    pub config_echo: Option<Value>,
    /// The most recent epoch deltas, oldest first.
    pub epochs: VecDeque<FlightEpoch>,
    /// Every watchdog alarm of the run.
    pub watchdogs: Vec<WatchdogEvent>,
    /// The profile hub's most recent records, oldest first.
    pub profiles: Vec<ProfileRecord>,
}

impl FlightBundle {
    /// The bundle file's text: one `flight` record and a newline.
    pub fn to_text(&self) -> String {
        let mut text = String::new();
        write_record(&mut text, "flight", self);
        text.push('\n');
        text
    }

    /// Decode a bundle file's text.
    pub fn read(text: &str) -> Result<Self, LineError> {
        read_record(text, "flight")
    }
}

/// Remembers epoch deltas (evicting the oldest past the cap) and
/// watchdog events, and marks a `run_end` (recorded in the bundle so a
/// post-run watchdog dump is distinguishable from a mid-run death).
impl TelemetrySink for FlightRecorder {
    fn record(&mut self, source: &str, rec: Record<'_>) {
        let mut inner = self.lock();
        let cap = inner.cap;
        let bundle = &mut inner.bundle;
        match rec {
            Record::Epoch { epoch, delta } => {
                bundle.epochs_seen += 1;
                if bundle.epochs.len() == cap {
                    bundle.epochs.pop_front();
                }
                bundle.epochs.push_back(FlightEpoch {
                    source: source.to_string(),
                    epoch,
                    delta: delta.clone(),
                });
            }
            Record::Watchdog(event) => bundle.watchdogs.push(event.clone()),
            Record::RunEnd { .. } => bundle.run_ended = true,
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

    /// Dump `rec` into a fresh directory `name` and read the bundle
    /// back; the file is the bundle's own text.
    fn dump_and_read(rec: &FlightRecorder, name: &str, reason: &str) -> FlightBundle {
        let dir = std::env::temp_dir().join(name);
        fs::create_dir_all(&dir).unwrap();
        let path = rec.dump(&dir, reason).unwrap().expect("first dump");
        let text = fs::read_to_string(&path).unwrap();
        fs::remove_dir_all(&dir).ok();
        let bundle = FlightBundle::read(&text).expect("bundle decodes");
        assert_eq!(bundle.to_text(), text);
        bundle
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
        let bundle = dump_and_read(&rec, "rip_flight_ring_test", "watchdog");
        assert_eq!((bundle.epochs_seen, bundle.epochs_retained), (10, 3));
        let epochs: Vec<u64> = bundle.epochs.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, [7, 8, 9]);
        // Second trigger: no second bundle.
        let dir = std::env::temp_dir().join("rip_flight_ring_test");
        assert!(rec.dump(&dir, "signal").unwrap().is_none());
        assert!(!dir.join("flight_signal.json").exists());
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
        let bundle = dump_and_read(&rec, "rip_flight_tee_test", "panic");
        assert!(bundle.run_ended);
        assert_eq!(bundle.watchdogs.len(), 1);
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
        let bundle = dump_and_read(&rec, "rip_flight_bundle_test", "signal");
        assert_eq!(
            (bundle.reason.as_str(), bundle.version.as_str()),
            ("signal", "1.2.3")
        );
        assert_eq!(
            bundle.config_echo,
            Some(serde_json::parse("{\"ribbons\":4}").unwrap())
        );
        assert_eq!(bundle.profiles.len(), 1);
        assert_eq!(bundle.profiles[0].source, "engine");
    }
}
