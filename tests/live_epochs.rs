//! Live epoch-streaming integration suite.
//!
//! The live telemetry path must satisfy three cross-crate contracts:
//!
//! * **Determinism** — two same-seed live runs emit byte-identical
//!   JSONL streams (switch-level and through the threaded SPS router,
//!   whose per-plane buffers are replayed in plane order regardless of
//!   thread schedule).
//! * **Losslessness** — replaying every emitted epoch delta onto an
//!   empty registry reconstructs the end-of-run report metrics
//!   byte-identically, per plane and merged.
//! * **Non-interference** — enabling streaming never changes what the
//!   simulation computes: the live run's report is the silent run's
//!   report plus the per-epoch live gauge series.

use rip_core::{FaultPlan, HbmSwitch, LiveOptions, RouterConfig, SpsRouter, SpsWorkload};
use rip_integration_tests::source_for;
use rip_photonics::SplitPattern;
use rip_telemetry::{JsonlSink, MemorySink, MetricsRegistry, SharedSink, SinkRecord};
use rip_traffic::TrafficMatrix;
use rip_units::{SimTime, TimeDelta};

const PERIOD: TimeDelta = TimeDelta::from_ns(2_000);

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

/// One live switch run at the standard test workload; returns the
/// staged records and the report.
fn live_switch_run(seed: u64) -> (MemorySink, rip_core::SwitchReport) {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(40_000);
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    sw.enable_live_telemetry(PERIOD, 64, Box::new(staged.clone()));
    sw.run_source(
        source_for(&cfg, &tm, 0.8, horizon, seed),
        cfg.drain.deadline(horizon),
        &FaultPlan::default(),
    )
    .expect("valid fault plan");
    (staged.take(), sw.into_report())
}

/// Rebuild a registry from the `Epoch` records of one source.
fn rebuild(records: &[SinkRecord], source: &str) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for rec in records {
        if let SinkRecord::Epoch {
            source: s, delta, ..
        } = rec
        {
            if s == source {
                reg.apply_delta(delta);
            }
        }
    }
    reg
}

/// The `run_end` totals of one source.
fn totals<'a>(records: &'a [SinkRecord], source: &str) -> &'a MetricsRegistry {
    records
        .iter()
        .find_map(|rec| match rec {
            SinkRecord::RunEnd {
                source: s, totals, ..
            } if s == source => Some(totals),
            _ => None,
        })
        .expect("stream has a run_end record")
}

#[test]
fn switch_stream_is_deterministic_and_reconstructs_report() {
    let (m1, r1) = live_switch_run(42);
    let (m2, r2) = live_switch_run(42);
    assert_eq!(m1.records(), m2.records(), "same-seed streams diverged");
    assert_eq!(json(&r1), json(&r2));

    let epochs = m1
        .records()
        .iter()
        .filter(|r| matches!(r, SinkRecord::Epoch { .. }))
        .count();
    let spans = m1
        .records()
        .iter()
        .filter(|r| matches!(r, SinkRecord::Span { .. }))
        .count();
    assert!(epochs >= 4, "expected several epochs, got {epochs}");
    assert!(spans > 0, "expected sampled lifecycle spans");

    // Replaying every epoch delta reconstructs the report registry
    // byte-identically; the run_end totals agree.
    let rebuilt = rebuild(m1.records(), "switch");
    assert_eq!(json(&rebuilt), json(&r1.metrics));
    assert_eq!(json(totals(m1.records(), "switch")), json(&r1.metrics));
}

/// The live stamp re-stamps `switch.packets.peak_in_flight` at every
/// epoch boundary, so it is a per-epoch gauge series. It is a running
/// peak, so it never falls. The streaming engine holds only in-flight
/// packets, so on this 40 us run (4x a 10 us base horizon) the series
/// has plateaued by the quarter mark and ends at the report's value.
#[test]
fn peak_in_flight_series_is_monotone_flat_and_ends_at_the_report() {
    let (m, r) = live_switch_run(42);
    let series: Vec<f64> = m
        .records()
        .iter()
        .filter_map(|rec| match rec {
            SinkRecord::Epoch { delta, .. } => delta
                .gauges()
                .get("switch.packets.peak_in_flight")
                .map(|g| g.value),
            _ => None,
        })
        .collect();
    assert!(series.len() >= 4, "only {} epochs", series.len());
    assert!(
        series.windows(2).all(|w| w[0] <= w[1]),
        "peak series falls: {series:?}"
    );
    let quarter = series[series.len() / 4];
    let last = series[series.len() - 1];
    assert!(
        last <= 2.0 * quarter + 64.0,
        "peak grew from {quarter} at the quarter mark to {last}"
    );
    assert_eq!(last, r.peak_in_flight_packets as f64);
}

#[test]
fn switch_jsonl_stream_is_byte_identical_across_runs() {
    let render = || {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let horizon = SimTime::from_ns(30_000);
        let mut buf: Vec<u8> = Vec::new();
        {
            let staged = SharedSink::new();
            let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
            sw.enable_live_telemetry(PERIOD, 64, Box::new(staged.clone()));
            sw.run_source(
                source_for(&cfg, &tm, 0.8, horizon, 7),
                cfg.drain.deadline(horizon),
                &FaultPlan::default(),
            )
            .expect("valid fault plan");
            let mut sink = JsonlSink::new(&mut buf);
            staged.take().replay_into(&mut sink);
        }
        buf
    };
    let a = render();
    let b = render();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed JSONL streams are not byte-identical");
}

#[test]
fn live_report_is_silent_report_plus_gauge_series() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(40_000);
    let run = |live: bool| {
        let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
        if live {
            sw.enable_live_telemetry(PERIOD, 64, Box::new(SharedSink::new()));
        }
        sw.run_source(
            source_for(&cfg, &tm, 0.8, horizon, 42),
            cfg.drain.deadline(horizon),
            &FaultPlan::default(),
        )
        .expect("valid fault plan");
        sw.into_report()
    };
    let silent = run(false);
    let live = run(true);

    // The simulation outcome is untouched...
    assert_eq!(silent.offered_packets, live.offered_packets);
    assert_eq!(silent.delivered_packets, live.delivered_packets);
    assert_eq!(
        json(silent.metrics.counters()),
        json(live.metrics.counters())
    );
    assert_eq!(
        json(silent.metrics.histograms()),
        json(live.metrics.histograms())
    );
    // ...and the only registry additions are the live gauge series.
    for (name, g) in silent.metrics.gauges() {
        assert_eq!(
            live.metrics.gauge(name),
            Some(*g),
            "live run changed gauge {name}"
        );
    }
    let extra: Vec<&str> = live
        .metrics
        .gauges()
        .keys()
        .filter(|n| !silent.metrics.gauges().contains_key(*n))
        .map(String::as_str)
        .collect();
    assert_eq!(
        extra,
        [
            "switch.capacity.dead_channels",
            "switch.feeder.pulled_packets",
            "switch.packets.delivered",
            "switch.packets.dropped",
            "switch.packets.in_flight",
            "switch.packets.offered",
            "switch.packets.peak_in_flight",
        ]
    );
}

#[test]
fn sps_per_plane_deltas_reconstruct_merged_report() {
    let cfg = RouterConfig::small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.8, 19);
    let horizon = SimTime::from_ns(40_000);
    let opts = LiveOptions {
        period: PERIOD,
        sample_one_in: 64,
    };

    let mut sink = MemorySink::new();
    let r = router
        .run(&w, horizon, &FaultPlan::default(), Some((opts, &mut sink)))
        .expect("healthy run");
    let mut sink2 = MemorySink::new();
    let r2 = router
        .run(&w, horizon, &FaultPlan::default(), Some((opts, &mut sink2)))
        .expect("healthy run");
    assert_eq!(
        sink.records(),
        sink2.records(),
        "threaded SPS stream is not schedule-independent"
    );
    assert_eq!(json(&r), json(&r2));

    // Per plane: the delta replay equals both the plane's own run_end
    // totals and the per-switch report registry.
    let mut merged = MetricsRegistry::new();
    for plane in 0..cfg.switches {
        let source = format!("plane{plane:02}");
        let rebuilt = rebuild(sink.records(), &source);
        assert_eq!(json(&rebuilt), json(totals(sink.records(), &source)));
        assert_eq!(
            json(&rebuilt),
            json(&r.switches[plane].report.metrics),
            "{source} delta replay diverged from its report"
        );
        merged.merge(&rebuilt);
    }
    // Merging the plane rebuilds in plane order equals the router-level
    // registry and the terminal `sps` run_end record.
    assert_eq!(json(&merged), json(&r.metrics));
    assert_eq!(json(totals(sink.records(), "sps")), json(&r.metrics));
}
