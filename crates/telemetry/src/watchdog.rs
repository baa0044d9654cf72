//! Live SLO watchdogs over the epoch-delta stream.
//!
//! A [`Watchdog`] wraps any inner [`TelemetrySink`] and evaluates each
//! source's per-epoch gauge series as it streams through: stalls (the
//! feeder keeps pulling but deliveries stop), drop-rate breaches,
//! degraded HBM capacity (dead channels, PR 1's fault accounting), and
//! mimic-lag violations reported post-run. Alarms become typed
//! [`WatchdogEvent`]s, forwarded to the inner sink as
//! [`Record::Watchdog`] records (JSONL streams grow a
//! `{"record":"watchdog",...}` line) and retained behind a shared
//! [`WatchdogHandle`] so the driving binary can turn them into a
//! nonzero exit code after the sink was consumed by the engine.
//!
//! Everything the watchdog consumes is sim-time-deterministic, so a
//! same-seed run alarms (or stays silent) identically every time.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use rip_units::SimTime;
use serde::{Deserialize, Serialize};

use crate::{EpochDelta, Record, TelemetrySink};

/// Alarm thresholds. `Default` gives conservative values that stay
/// silent on healthy runs: stalls need 16 quiet epochs after delivery
/// has begun, drops alarm above 50 % of an epoch's offered packets,
/// and any dead HBM channel alarms immediately.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Consecutive epochs with feeder progress but zero new deliveries
    /// before a [`WatchdogKind::Stall`] fires (0 disables). The rule
    /// arms only after the source's first delivery, so pipeline fill
    /// latency can never false-alarm.
    pub stall_epochs: u64,
    /// Epoch drop fraction (`dropped / offered`, both per-epoch deltas)
    /// above which [`WatchdogKind::DropRate`] fires.
    pub max_drop_fraction: Option<f64>,
    /// Minimum per-epoch offered packets before the drop-rate rule is
    /// evaluated — keeps one drop out of two packets from reading as
    /// "50 % loss".
    pub min_epoch_offered: u64,
    /// Dead-HBM-channel count above which
    /// [`WatchdogKind::DegradedCapacity`] fires.
    pub max_dead_channels: Option<f64>,
    /// Mimic lag bound, nanoseconds, checked by
    /// [`Watchdog::observe_mimic_lag`].
    pub max_mimic_lag_ns: Option<f64>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_epochs: 16,
            max_drop_fraction: Some(0.5),
            min_epoch_offered: 64,
            max_dead_channels: Some(0.0),
            max_mimic_lag_ns: None,
        }
    }
}

/// What tripped.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WatchdogKind {
    /// No deliveries for `epochs` consecutive epochs while the feeder
    /// kept offering traffic.
    Stall {
        /// Quiet epochs counted.
        epochs: u64,
    },
    /// An epoch dropped more than the configured fraction of its
    /// offered packets.
    DropRate {
        /// Observed per-epoch `dropped / offered`.
        fraction: f64,
    },
    /// Dead HBM channels exceed the configured bound.
    DegradedCapacity {
        /// Dead channels reported by the capacity gauge.
        dead_channels: f64,
    },
    /// A mimicking comparison exceeded its lag bound.
    MimicMismatch {
        /// Observed worst lag, nanoseconds.
        max_lag_ns: f64,
        /// The configured bound, nanoseconds.
        bound_ns: f64,
    },
    /// A fleet worker disconnected, timed out or never completed its
    /// stream. Raised by the collector, not by epoch evaluation.
    WorkerLost {
        /// Worker id from the stream's `fleet_hello`.
        worker: u64,
    },
}

/// One fired alarm: which source, at which epoch boundary, and why.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchdogEvent {
    /// Stream source the alarm belongs to.
    pub source: String,
    /// Epoch index the breach was observed at (the mimic check, which
    /// runs post-run, reports the last seen epoch).
    pub epoch: u64,
    /// Sim time of the observation.
    pub at: SimTime,
    /// The breach.
    pub kind: WatchdogKind,
}

/// Per-source evaluation state.
#[derive(Debug, Default)]
struct SourceState {
    prev_delivered: f64,
    prev_pulled: f64,
    prev_dropped: f64,
    prev_offered: f64,
    delivered_once: bool,
    quiet_epochs: u64,
    drop_alarmed: bool,
    degraded_alarmed: bool,
    last_epoch: u64,
}

/// Shared view of fired alarms, usable after the [`Watchdog`] itself
/// was boxed into an engine.
#[derive(Debug, Clone, Default)]
pub struct WatchdogHandle {
    events: Arc<Mutex<Vec<WatchdogEvent>>>,
}

impl WatchdogHandle {
    /// All alarms fired so far, in stream order.
    pub fn events(&self) -> Vec<WatchdogEvent> {
        self.events.lock().expect("watchdog lock").clone()
    }

    /// True once any alarm fired.
    pub fn fired(&self) -> bool {
        !self.events.lock().expect("watchdog lock").is_empty()
    }
}

/// The watchdog tee: forwards every record to `inner` unchanged and
/// raises [`WatchdogEvent`]s on threshold breaches. Alarms use episode
/// semantics — each rule fires once when breached and re-arms when the
/// condition clears — so a sustained fault produces one alarm, not one
/// per epoch.
pub struct Watchdog<S: TelemetrySink> {
    cfg: WatchdogConfig,
    inner: S,
    state: BTreeMap<String, SourceState>,
    events: Arc<Mutex<Vec<WatchdogEvent>>>,
}

impl<S: TelemetrySink> Watchdog<S> {
    /// Wrap `inner`, returning the tee and the handle that outlives it.
    pub fn new(cfg: WatchdogConfig, inner: S) -> (Self, WatchdogHandle) {
        let events: Arc<Mutex<Vec<WatchdogEvent>>> = Arc::default();
        let handle = WatchdogHandle {
            events: events.clone(),
        };
        (
            Watchdog {
                cfg,
                inner,
                state: BTreeMap::new(),
                events,
            },
            handle,
        )
    }

    fn raise(&mut self, source: &str, epoch: u64, at: SimTime, kind: WatchdogKind) {
        let event = WatchdogEvent {
            source: source.to_string(),
            epoch,
            at,
            kind,
        };
        self.events
            .lock()
            .expect("watchdog lock")
            .push(event.clone());
        self.inner.record(source, Record::Watchdog(&event));
    }

    /// Post-run mimic check: alarm when the mimicking comparison's
    /// worst lag exceeds the configured bound. (The mimic checker
    /// produces its lag statistics at end of run, outside the epoch
    /// stream, so the caller feeds them in explicitly.)
    pub fn observe_mimic_lag(&mut self, source: &str, at: SimTime, max_lag_ns: f64) {
        if let Some(bound_ns) = self.cfg.max_mimic_lag_ns {
            if max_lag_ns > bound_ns {
                let epoch = self.state.get(source).map_or(0, |s| s.last_epoch);
                self.raise(
                    source,
                    epoch,
                    at,
                    WatchdogKind::MimicMismatch {
                        max_lag_ns,
                        bound_ns,
                    },
                );
            }
        }
    }

    fn evaluate(&mut self, source: &str, epoch: u64, delta: &EpochDelta) {
        let at = delta.to();
        let gauge = |name: &str| delta.gauges().get(name).map(|g| g.value);
        let st = self.state.entry(source.to_string()).or_default();
        st.last_epoch = epoch;
        let mut alarms: Vec<WatchdogKind> = Vec::new();

        // Stall: feeder progressed, deliveries did not — after the
        // pipeline has proven it can deliver at all.
        if let (Some(pulled), Some(delivered)) = (
            gauge("switch.feeder.pulled_packets"),
            gauge("switch.packets.delivered"),
        ) {
            if delivered > st.prev_delivered {
                st.delivered_once = true;
                st.quiet_epochs = 0;
            } else if st.delivered_once && pulled > st.prev_pulled {
                st.quiet_epochs += 1;
                if self.cfg.stall_epochs > 0 && st.quiet_epochs == self.cfg.stall_epochs {
                    alarms.push(WatchdogKind::Stall {
                        epochs: st.quiet_epochs,
                    });
                }
            }
            st.prev_pulled = pulled;
            st.prev_delivered = delivered;
        }

        // Drop rate over this epoch's offered packets.
        if let (Some(limit), Some(dropped), Some(offered)) = (
            self.cfg.max_drop_fraction,
            gauge("switch.packets.dropped"),
            gauge("switch.packets.offered"),
        ) {
            let epoch_offered = offered - st.prev_offered;
            let epoch_dropped = dropped - st.prev_dropped;
            if epoch_offered >= self.cfg.min_epoch_offered as f64 {
                let fraction = epoch_dropped / epoch_offered;
                if fraction > limit {
                    if !st.drop_alarmed {
                        st.drop_alarmed = true;
                        alarms.push(WatchdogKind::DropRate { fraction });
                    }
                } else {
                    st.drop_alarmed = false;
                }
            }
            st.prev_offered = offered;
            st.prev_dropped = dropped;
        }

        // Degraded capacity: dead channels over the bound.
        if let (Some(limit), Some(dead)) = (
            self.cfg.max_dead_channels,
            gauge("switch.capacity.dead_channels"),
        ) {
            if dead > limit {
                if !st.degraded_alarmed {
                    st.degraded_alarmed = true;
                    alarms.push(WatchdogKind::DegradedCapacity {
                        dead_channels: dead,
                    });
                }
            } else {
                st.degraded_alarmed = false;
            }
        }

        for kind in alarms {
            self.raise(source, epoch, at, kind);
        }
    }
}

impl<S: TelemetrySink> TelemetrySink for Watchdog<S> {
    fn record(&mut self, source: &str, rec: Record<'_>) {
        self.inner.record(source, rec);
        match rec {
            Record::Epoch { epoch, delta } => self.evaluate(source, epoch, delta),
            // A replayed watchdog record (e.g. a staged stream) counts
            // as this watchdog's own observation too.
            Record::Watchdog(event) => self
                .events
                .lock()
                .expect("watchdog lock")
                .push(event.clone()),
            Record::Span(_) | Record::RunEnd { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySink, MetricsRegistry, Snapshot};
    use rip_units::TimeDelta;

    /// Build an epoch delta carrying the live gauge series.
    fn delta_at(
        epoch: u64,
        period: TimeDelta,
        reg: &mut MetricsRegistry,
        prev: &mut Snapshot,
        gauges: &[(&str, f64)],
    ) -> EpochDelta {
        let at = SimTime::from_ps(period.as_ps() * (epoch + 1));
        for &(name, v) in gauges {
            reg.set_gauge(name, at, v);
        }
        let snap = reg.snapshot(at);
        let d = snap.delta_since(prev);
        *prev = snap;
        d
    }

    #[test]
    fn healthy_progress_never_alarms() {
        let (mut wd, handle) = Watchdog::new(WatchdogConfig::default(), MemorySink::new());
        let period = TimeDelta::from_ns(1000);
        let mut reg = MetricsRegistry::new();
        let mut prev = Snapshot::empty();
        for epoch in 0..100u64 {
            let d = delta_at(
                epoch,
                period,
                &mut reg,
                &mut prev,
                &[
                    ("switch.feeder.pulled_packets", (epoch * 100) as f64),
                    ("switch.packets.delivered", (epoch * 90) as f64),
                    ("switch.packets.offered", (epoch * 100) as f64),
                    ("switch.packets.dropped", 0.0),
                    ("switch.capacity.dead_channels", 0.0),
                ],
            );
            wd.record("switch", Record::Epoch { epoch, delta: &d });
        }
        assert!(
            !handle.fired(),
            "healthy run alarmed: {:?}",
            handle.events()
        );
    }

    #[test]
    fn stall_fires_once_after_k_quiet_epochs() {
        let cfg = WatchdogConfig {
            stall_epochs: 4,
            ..WatchdogConfig::default()
        };
        let (mut wd, handle) = Watchdog::new(cfg, MemorySink::new());
        let period = TimeDelta::from_ns(1000);
        let mut reg = MetricsRegistry::new();
        let mut prev = Snapshot::empty();
        // Delivery happens, then freezes while the feeder keeps going.
        for epoch in 0..20u64 {
            let delivered = if epoch < 5 { epoch * 10 } else { 50 };
            let d = delta_at(
                epoch,
                period,
                &mut reg,
                &mut prev,
                &[
                    ("switch.feeder.pulled_packets", (epoch * 100) as f64),
                    ("switch.packets.delivered", delivered as f64),
                ],
            );
            wd.record("switch", Record::Epoch { epoch, delta: &d });
        }
        let events = handle.events();
        assert_eq!(events.len(), 1, "stall must fire exactly once: {events:?}");
        assert!(matches!(events[0].kind, WatchdogKind::Stall { epochs: 4 }));
        // Last delivery increment at epoch 5; quiet epochs 6..=9.
        assert_eq!(events[0].epoch, 9);
    }

    #[test]
    fn pipeline_fill_does_not_false_stall() {
        let cfg = WatchdogConfig {
            stall_epochs: 2,
            ..WatchdogConfig::default()
        };
        let (mut wd, handle) = Watchdog::new(cfg, MemorySink::new());
        let period = TimeDelta::from_ns(1000);
        let mut reg = MetricsRegistry::new();
        let mut prev = Snapshot::empty();
        // 10 epochs of arrivals before the first delivery: no alarm.
        for epoch in 0..10u64 {
            let d = delta_at(
                epoch,
                period,
                &mut reg,
                &mut prev,
                &[
                    ("switch.feeder.pulled_packets", (epoch * 100) as f64),
                    ("switch.packets.delivered", 0.0),
                ],
            );
            wd.record("switch", Record::Epoch { epoch, delta: &d });
        }
        assert!(!handle.fired(), "fill latency must not alarm");
    }

    #[test]
    fn drop_rate_and_degraded_capacity_alarm_per_episode() {
        let (mut wd, handle) = Watchdog::new(WatchdogConfig::default(), MemorySink::new());
        let period = TimeDelta::from_ns(1000);
        let mut reg = MetricsRegistry::new();
        let mut prev = Snapshot::empty();
        for epoch in 0..6u64 {
            // Epochs 2..4: a dead channel and 80 % epoch loss.
            let degraded = (2..4).contains(&epoch);
            let offered = (epoch + 1) * 1000;
            let dropped = if degraded { (epoch - 1) * 800 } else { 0 };
            let d = delta_at(
                epoch,
                period,
                &mut reg,
                &mut prev,
                &[
                    ("switch.packets.offered", offered as f64),
                    ("switch.packets.dropped", dropped as f64),
                    (
                        "switch.capacity.dead_channels",
                        if degraded { 1.0 } else { 0.0 },
                    ),
                ],
            );
            wd.record("switch", Record::Epoch { epoch, delta: &d });
        }
        let kinds: Vec<WatchdogKind> = handle.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds.len(), 2, "one alarm per rule per episode: {kinds:?}");
        let events = handle.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, WatchdogKind::DropRate { fraction } if fraction > 0.5)));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, WatchdogKind::DegradedCapacity { dead_channels } if dead_channels == 1.0)));
    }

    #[test]
    fn mimic_lag_over_bound_alarms() {
        let cfg = WatchdogConfig {
            max_mimic_lag_ns: Some(500.0),
            ..WatchdogConfig::default()
        };
        let (mut wd, handle) = Watchdog::new(cfg, MemorySink::new());
        wd.observe_mimic_lag("mimic", SimTime::from_ns(100), 499.0);
        assert!(!handle.fired());
        wd.observe_mimic_lag("mimic", SimTime::from_ns(100), 501.0);
        let events = handle.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, WatchdogKind::MimicMismatch { .. }));
    }
}
