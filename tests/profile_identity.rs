//! Self-profiler non-interference differential suite.
//!
//! The profiler observes and must never participate: enabling it may
//! not change one byte of any deterministic output surface. This suite
//! runs every shipped config through both entry points twice
//! — once silent, once with a [`ProfileHub`] attached — and demands
//! byte-identical final reports and JSONL telemetry streams. The same
//! contract is checked for the two remaining deterministic surfaces:
//! Chrome trace exports and checkpoint snapshot containers. Each
//! comparison also asserts the profiled run actually recorded phases,
//! so a regression that silently disables the profiler cannot make the
//! identity claims vacuous.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use rip_bench::spec::SimSpec;
use rip_core::{FaultPlan, HbmSwitch, RouterConfig, RunOutcome};
use rip_integration_tests::{shipped_configs, source_for};
use rip_telemetry::{JsonlSink, Phase, ProfileHub, ProfileRecord, SharedSink, TraceWindow};
use rip_traffic::TrafficMatrix;
use rip_units::{SimTime, TimeDelta};

fn epoch_period(spec: &SimSpec) -> TimeDelta {
    TimeDelta::from_ps(spec.epoch_ps.unwrap_or(2_000_000))
}

/// Debug-profile cap on arrival horizons — identity needs identical
/// event sequences, not full-length soaks.
const HORIZON_CAP_US: u64 = 20;

/// The switch's two entry points into its run loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    /// `run_source`.
    Plain,
    /// `run_source_checkpointed`, with a snapshot due at every epoch.
    Checkpointed,
}

/// Run `spec` through `entry`, optionally with a profiler attached, and return the serialized final report plus the rendered
/// JSONL telemetry stream.
fn run_spec(
    spec: &SimSpec,
    entry: Entry,
    horizon: SimTime,
    hub: Option<&ProfileHub>,
) -> (String, Vec<u8>) {
    let deadline = spec.router.drain.deadline(horizon);
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(spec.router.clone()).expect("shipped config is valid");
    if let Some(h) = hub {
        sw.enable_profiler(h.clone());
    }
    sw.enable_live_telemetry(epoch_period(spec), 64, Box::new(staged.clone()));
    let source = spec.build_source(horizon).expect("shipped config builds");
    match entry {
        Entry::Plain => sw
            .run_source(source, deadline, &FaultPlan::default())
            .expect("valid fault plan"),
        Entry::Checkpointed => {
            let outcome = sw
                .run_source_checkpointed(
                    source,
                    deadline,
                    &FaultPlan::default(),
                    None,
                    1,
                    || false,
                    |_, _, _| Ok(()),
                )
                .expect("checkpointed run");
            assert_eq!(outcome, RunOutcome::Completed);
        }
    }
    let report = serde_json::to_string(&sw.into_report()).expect("report serializes");
    let mut jsonl: Vec<u8> = Vec::new();
    {
        let mut sink = JsonlSink::new(&mut jsonl);
        staged.take().replay_into(&mut sink);
    }
    (report, jsonl)
}

#[test]
fn profiler_leaves_every_engine_and_kernel_byte_identical() {
    let entries = [Entry::Plain, Entry::Checkpointed];
    for (name, spec) in &shipped_configs() {
        let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
        for entry in entries {
            let silent = run_spec(spec, entry, horizon, None);
            // A ring-only hub, exactly what `--profile` without an
            // output stream attaches.
            let hub = ProfileHub::new();
            let profiled = run_spec(spec, entry, horizon, Some(&hub));
            assert_eq!(
                silent.0, profiled.0,
                "{name}: {entry:?} report changed under profiling"
            );
            assert_eq!(
                silent.1, profiled.1,
                "{name}: {entry:?} JSONL stream changed under profiling"
            );
            assert!(!silent.1.is_empty(), "{name}: comparison was vacuous");
            assert!(
                hub.records_total() > 0,
                "{name}: {entry:?} profiled run recorded nothing"
            );
        }
    }
}

/// A `Write` handle on a shared buffer, so a hub's full record stream
/// can be read back after the run (its in-memory ring keeps only the
/// newest records).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn checkpointed_runs_record_the_same_engine_phases() {
    // Both entry points share one run loop, so the same profiled input
    // must sample the same per-event laps: lap sampling is a
    // deterministic 1-in-64 tick, so the summed span counts of the
    // engine phases match exactly.
    let (name, spec) = shipped_configs().remove(0);
    let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
    let engine_phases = [
        Phase::KernelPop,
        Phase::BatchAssembly,
        Phase::HbmTiming,
        Phase::BatchDrain,
        Phase::Dispatch,
    ];
    let counts = |entry: Entry| -> Vec<u64> {
        let hub = ProfileHub::new();
        let out = SharedBuf::default();
        hub.set_output(Box::new(out.clone()));
        run_spec(&spec, entry, horizon, Some(&hub));
        hub.flush_output();
        let text = String::from_utf8(out.0.lock().expect("buffer lock").clone())
            .expect("profile stream is UTF-8");
        let records: Vec<ProfileRecord> = text
            .lines()
            .map(|l| ProfileRecord::read_line(l).expect("profile line decodes"))
            .collect();
        assert_eq!(records.len() as u64, hub.records_total());
        engine_phases
            .iter()
            .map(|p| {
                records
                    .iter()
                    .filter_map(|r| r.phases.get(p.name()))
                    .map(|s| s.count)
                    .sum()
            })
            .collect()
    };
    let plain = counts(Entry::Plain);
    let checkpointed = counts(Entry::Checkpointed);
    // `Dispatch` covers faults only, and this run has none.
    assert!(
        plain[..4].iter().all(|&c| c > 0),
        "{name}: plain run sampled no laps for some phase: {plain:?}"
    );
    assert_eq!(
        checkpointed, plain,
        "{name}: checkpointed run sampled different engine laps (phases {engine_phases:?})"
    );
}

#[test]
fn profiler_leaves_chrome_traces_byte_identical() {
    let (name, spec) = shipped_configs().remove(0);
    let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
    let deadline = spec.router.drain.deadline(horizon);
    let run = |hub: Option<&ProfileHub>| -> (String, Vec<u8>) {
        let mut sw = HbmSwitch::new(spec.router.clone()).expect("valid config");
        if let Some(h) = hub {
            sw.enable_profiler(h.clone());
        }
        sw.enable_chrome_trace(TraceWindow::all());
        let source = spec.build_source(horizon).expect("shipped config builds");
        sw.run_source(source, deadline, &FaultPlan::default())
            .expect("valid fault plan");
        let rec = sw.take_chrome_trace().expect("trace enabled");
        let mut json: Vec<u8> = Vec::new();
        rec.write_chrome_json(&mut json).expect("trace serializes");
        let report = serde_json::to_string(&sw.into_report()).expect("report serializes");
        (report, json)
    };
    let silent = run(None);
    let hub = ProfileHub::new();
    let profiled = run(Some(&hub));
    assert_eq!(
        silent.0, profiled.0,
        "{name}: traced report changed under profiling"
    );
    assert_eq!(
        silent.1, profiled.1,
        "{name}: Chrome trace changed under profiling"
    );
    assert!(silent.1.len() > 2, "{name}: trace comparison was vacuous");
    assert!(hub.records_total() > 0, "{name}: profiler recorded nothing");
}

#[test]
fn profiler_leaves_checkpoint_snapshots_byte_identical() {
    // The checkpoint path is itself instrumented (CheckpointSave
    // spans), so the snapshot payloads it persists are the surface most
    // at risk: compare every snapshot a checkpointed run writes, plus
    // its outcome, report, and telemetry stream.
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(20_000);
    let run = |hub: Option<&ProfileHub>| -> (Vec<String>, RunOutcome, String, Vec<u8>) {
        let staged = SharedSink::new();
        let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
        if let Some(h) = hub {
            sw.enable_profiler(h.clone());
        }
        sw.enable_live_telemetry(TimeDelta::from_ns(2_000), 64, Box::new(staged.clone()));
        let snaps = RefCell::new(Vec::new());
        let outcome = sw
            .run_source_checkpointed(
                source_for(&cfg, &tm, 0.8, horizon, 0xF11D),
                cfg.drain.deadline(horizon),
                &FaultPlan::default(),
                None,
                2,
                || false,
                |state, _epochs, _spans| {
                    let body = serde_json::to_string(state).expect("snapshot serializes");
                    snaps.borrow_mut().push(body);
                    Ok(())
                },
            )
            .expect("checkpointed run");
        let report = serde_json::to_string(&sw.into_report()).expect("report serializes");
        let mut jsonl: Vec<u8> = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut jsonl);
            staged.take().replay_into(&mut sink);
        }
        (snaps.into_inner(), outcome, report, jsonl)
    };
    let (snaps_off, outcome_off, report_off, jsonl_off) = run(None);
    let hub = ProfileHub::new();
    let (snaps_on, outcome_on, report_on, jsonl_on) = run(Some(&hub));
    assert!(!snaps_off.is_empty(), "run wrote no snapshots — vacuous");
    assert_eq!(
        snaps_off, snaps_on,
        "snapshot payloads changed under profiling"
    );
    assert_eq!(
        outcome_off, outcome_on,
        "run outcome changed under profiling"
    );
    assert_eq!(report_off, report_on, "report changed under profiling");
    assert_eq!(jsonl_off, jsonl_on, "JSONL stream changed under profiling");
    assert!(hub.records_total() > 0, "profiler recorded nothing");
    // The checkpoint path must actually have been attributed.
    let saved: u64 = hub
        .recent()
        .iter()
        .filter_map(|r| r.phases.get(Phase::CheckpointSave.name()))
        .map(|s| s.count)
        .sum();
    assert!(saved > 0, "no CheckpointSave spans were recorded");
}

#[test]
fn profile_records_are_well_formed() {
    // Structural contract of the records the identity tests rely on:
    // every phase key is a known `Phase` name, every entry carries at
    // least one span, and per-source epoch stamps never run backwards.
    let (name, spec) = shipped_configs().remove(0);
    let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
    let hub = ProfileHub::new();
    run_spec(&spec, Entry::Plain, horizon, Some(&hub));
    let records = hub.recent();
    assert!(!records.is_empty(), "{name}: no records to validate");
    let known: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    let mut last_epoch: std::collections::BTreeMap<&str, u64> = Default::default();
    for rec in &records {
        assert!(!rec.phases.is_empty(), "{name}: empty record was flushed");
        for (phase, s) in &rec.phases {
            assert!(
                known.contains(&phase.as_str()),
                "{name}: unknown phase {phase}"
            );
            assert!(s.count > 0, "{name}: zero-span phase {phase} emitted");
        }
        if let Some(prev) = last_epoch.get(rec.source.as_str()) {
            assert!(
                rec.epoch >= *prev,
                "{name}: {} epochs ran backwards",
                rec.source
            );
        }
        last_epoch.insert(rec.source.as_str(), rec.epoch);
    }
    assert!(
        records.iter().any(|r| r.source == "engine"),
        "{name}: no engine-source records"
    );
    let rendered = hub.render_prometheus("ripsim");
    assert!(rendered.contains("ripsim_profile_phase_seconds_total{source=\"engine\""));
    assert!(rendered.contains("ripsim_profile_records_total{source=\"engine\"}"));
}
