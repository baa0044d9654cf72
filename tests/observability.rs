//! Observability integration suite: the Chrome trace export and the
//! live SLO watchdogs.
//!
//! The trace export contract: `write_chrome_json` emits well-formed
//! trace-event JSON whose tracks are individually time-ordered and
//! whose B/E span pairs are balanced, carrying per-bank HBM command
//! timelines, per-output frame lifecycles, sampled packet spans and
//! per-plane SPS activity lanes — byte-identically across same-seed
//! runs. The watchdog contract: silent on a healthy run, guaranteed to
//! alarm when a `FaultPlan` kills an HBM channel without recovery.

use std::collections::BTreeMap;

use rip_core::{
    FaultKind, FaultPlan, HbmSwitch, LiveOptions, RouterConfig, SpsRouter, SpsWorkload,
};
use rip_integration_tests::source_for;
use rip_photonics::SplitPattern;
use rip_telemetry::{
    ChromeTraceSink, MemorySink, SharedSink, TraceWindow, Watchdog, WatchdogConfig, WatchdogKind,
};
use rip_traffic::TrafficMatrix;
use rip_units::{SimTime, TimeDelta};
use serde::Value;

const PERIOD: TimeDelta = TimeDelta::from_ns(2_000);

/// Render the full Chrome export for one same-seed switch + SPS run.
fn export(seed: u64, window: TraceWindow) -> Vec<u8> {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(20_000);

    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    sw.enable_chrome_trace(window);
    let staged = SharedSink::new();
    sw.enable_live_telemetry(PERIOD, 64, Box::new(staged.clone()));
    sw.run_source(
        source_for(&cfg, &tm, 0.8, horizon, seed),
        cfg.drain.deadline(horizon),
        &FaultPlan::default(),
    );
    let mut rec = sw.take_chrome_trace().expect("chrome trace enabled");
    let mut chrome = ChromeTraceSink::new(window);
    staged.take().replay_into(&mut chrome);

    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.8, seed);
    let opts = LiveOptions {
        period: PERIOD,
        sample_one_in: 64,
    };
    let mut sps = MemorySink::new();
    router
        .run(&w, horizon, &FaultPlan::default(), Some((opts, &mut sps)))
        .expect("healthy run");
    sps.replay_into(&mut chrome);

    rec.merge(chrome.into_recorder());
    let mut out = Vec::new();
    rec.write_chrome_json(&mut out).expect("export serializes");
    out
}

fn parse(bytes: &[u8]) -> Value {
    let text = std::str::from_utf8(bytes).expect("export is UTF-8");
    serde_json::parse(text).expect("export is well-formed JSON")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .expect("object")
        .iter()
        .find_map(|(k, val)| (k == key).then_some(val))
        .unwrap_or_else(|| panic!("missing field {key}"))
}

fn opt_field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find_map(|(k, val)| (k == key).then_some(val))
}

fn num_u64(v: &Value) -> u64 {
    match v {
        Value::Number(serde::Number::U64(n)) => *n,
        Value::Number(serde::Number::I64(n)) if *n >= 0 => *n as u64,
        other => panic!("expected unsigned number, got {:?}", other.kind()),
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key).as_str().expect("string field")
}

/// The trace-event validator: well-formed JSON, every track's
/// timestamps non-decreasing, every B/E pair balanced. Returns the
/// events array for content checks.
fn validate(v: &Value) -> &[Value] {
    assert_eq!(str_of(v, "displayTimeUnit"), "ns");
    let events = field(v, "traceEvents").as_array().expect("events array");
    let mut last_ts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    for e in events {
        let ph = str_of(e, "ph");
        if ph == "M" {
            continue;
        }
        let key = (num_u64(field(e, "pid")), num_u64(field(e, "tid")));
        let ts = num_u64(field(e, "ts"));
        if let Some(&prev) = last_ts.get(&key) {
            assert!(
                ts >= prev,
                "track {key:?} went backwards: {prev} -> {ts} ({ph})"
            );
        }
        last_ts.insert(key, ts);
        match ph {
            "B" => *depth.entry(key).or_insert(0) += 1,
            "E" => {
                let d = depth.entry(key).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "track {key:?} has an E with no open B");
            }
            "X" => {
                // Complete events also carry a non-negative duration.
                let _ = num_u64(field(e, "dur"));
            }
            "C" | "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    for (key, d) in &depth {
        assert_eq!(*d, 0, "track {key:?} ends with {d} unbalanced B spans");
    }
    events
}

/// The set of track/process names announced by metadata events.
fn metadata_names(events: &[Value]) -> Vec<(String, String)> {
    events
        .iter()
        .filter(|e| str_of(e, "ph") == "M")
        .map(|e| {
            let kind = str_of(e, "name").to_string();
            let name = str_of(field(e, "args"), "name").to_string();
            (kind, name)
        })
        .collect()
}

#[test]
fn chrome_export_is_valid_and_byte_identical_across_same_seed_runs() {
    let a = export(42, TraceWindow::all());
    let b = export(42, TraceWindow::all());
    assert!(!a.is_empty());
    assert_eq!(a, b, "same-seed Chrome exports are not byte-identical");

    let doc = parse(&a);
    let events = validate(&doc);
    let names = metadata_names(events);
    let has = |kind: &str, name: &str| names.iter().any(|(k, n)| k == kind && n == name);

    // Process groups: the HBM command timeline, the frame lifecycles,
    // the switch's packet spans, and one process per SPS plane.
    for p in ["hbm", "frames", "switch", "plane00", "plane01"] {
        assert!(has("process_name", p), "missing process {p}");
    }
    // Per-bank HBM tracks plus the per-channel tFAW lane.
    for t in ["ch00/b00", "ch00/b01", "ch01/b00", "ch00/tFAW"] {
        assert!(has("thread_name", t), "missing HBM track {t}");
    }
    // Frame-lifecycle lanes for the first output.
    for t in ["out00 fill", "out00 write", "out00 read", "out00 drain"] {
        assert!(has("thread_name", t), "missing frame lane {t}");
    }

    // HBM command spans (X events) actually landed on bank tracks.
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| str_of(e, "ph") == "X")
        .map(|e| str_of(e, "name"))
        .collect();
    for cmd in ["ACT", "RD", "WR", "PRE"] {
        assert!(
            span_names.contains(&cmd),
            "no {cmd} command span in the export"
        );
    }
    for stage in ["fill", "write", "read", "drain"] {
        assert!(
            span_names.contains(&stage),
            "no frame {stage} span in the export"
        );
    }
    // Sampled packet lifecycles arrive as balanced B/E pairs named pkt.
    let pkt_begins = events
        .iter()
        .filter(|e| str_of(e, "ph") == "B" && str_of(e, "name") == "pkt")
        .count();
    assert!(pkt_begins > 0, "no packet lifecycle spans in the export");
    // Per-plane SPS activity lanes arrive as counter samples.
    assert!(
        events.iter().any(|e| str_of(e, "ph") == "C"),
        "no activity-lane counter samples in the export"
    );
}

#[test]
fn windowed_export_only_records_overlapping_device_spans() {
    let window =
        TraceWindow::new(SimTime::from_ns(5_000), SimTime::from_ns(10_000)).expect("valid window");
    let bytes = export(42, window);
    let doc = parse(&bytes);
    let events = validate(&doc);
    let mut device_spans = 0;
    for e in events {
        if str_of(e, "ph") != "X" {
            continue;
        }
        // Device-side pids (hbm = 1, frames = 2) are window-filtered at
        // capture: every complete span must overlap [start, end).
        if num_u64(field(e, "pid")) > 2 {
            continue;
        }
        let ts = num_u64(field(e, "ts"));
        let end = ts + num_u64(field(e, "dur"));
        assert!(
            ts < window.end().as_ps() && end >= window.start().as_ps(),
            "span [{ts}, {end}] lies outside the recording window"
        );
        device_spans += 1;
    }
    assert!(device_spans > 0, "window recorded no device spans at all");
    // The windowed export is also deterministic.
    assert_eq!(bytes, export(42, window));
}

#[test]
fn trace_window_rejects_malformed_specs() {
    assert!(TraceWindow::parse("1000:2000").is_ok());
    for bad in ["", ":", "5", "2000:1000", "7:7", "a:b", "10:twenty"] {
        assert!(
            TraceWindow::parse(bad).is_err(),
            "window spec {bad:?} should be rejected"
        );
    }
}

/// Run the switch live with the watchdogs teed in, under `plan`.
fn watched_run(plan: &FaultPlan) -> Vec<rip_telemetry::WatchdogEvent> {
    let cfg = RouterConfig::resilience_small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(60_000);
    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    let (wd, handle) = Watchdog::new(WatchdogConfig::default(), SharedSink::new());
    sw.enable_live_telemetry(PERIOD, 64, Box::new(wd));
    sw.run_source(
        source_for(&cfg, &tm, 0.5, horizon, 42),
        cfg.drain.deadline(horizon),
        plan,
    );
    handle.events()
}

#[test]
fn watchdog_is_silent_on_a_healthy_run() {
    let events = watched_run(&FaultPlan::default());
    assert!(
        events.is_empty(),
        "healthy run tripped watchdogs: {events:?}"
    );
}

#[test]
fn watchdog_alarms_under_an_unrecovered_channel_fault() {
    let plan = FaultPlan::new().inject(
        SimTime::from_ns(15_000),
        FaultKind::HbmChannelDown { channel: 0 },
    );
    let events = watched_run(&plan);
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, WatchdogKind::DegradedCapacity { dead_channels } if dead_channels > 0.0)),
        "channel fault did not raise a degraded-capacity alarm: {events:?}"
    );
}

#[test]
fn opt_field_distinguishes_missing_from_present() {
    // Guard for the validator helpers themselves: `dur` is present on X
    // events and absent on B/E events.
    let mut rec = rip_telemetry::TraceRecorder::new(TraceWindow::all());
    rec.complete(1, 0, "span", SimTime::from_ns(1), SimTime::from_ns(2));
    rec.begin(1, 1, "pair", SimTime::from_ns(1));
    rec.end(1, 1, "pair", SimTime::from_ns(3));
    let mut bytes = Vec::new();
    rec.write_chrome_json(&mut bytes).expect("serializes");
    let doc = parse(&bytes);
    let events = validate(&doc);
    let x = events
        .iter()
        .find(|e| str_of(e, "ph") == "X")
        .expect("an X event");
    let b = events
        .iter()
        .find(|e| str_of(e, "ph") == "B")
        .expect("a B event");
    assert!(opt_field(x, "dur").is_some());
    assert!(opt_field(b, "dur").is_none());
}
