//! Crash-safe checkpoint/resume integration suite.
//!
//! The checkpoint subsystem must satisfy three cross-crate contracts:
//!
//! * **Byte-identical continuation** — a run interrupted at any
//!   checkpoint and resumed from the on-disk snapshot produces the
//!   same final report and the same telemetry stream as the
//!   uninterrupted same-seed run, through the real container on disk
//!   (CRC envelope, atomic rename, two-slot rotation) and the real
//!   pull-based sources `ripsim` uses.
//! * **Rotation resilience** — truncating the newest snapshot slot
//!   falls back to `.prev`, and resuming from that older checkpoint
//!   still converges to the identical end state.
//! * **SPS plane ordering** — the sequential checkpointed SPS runner
//!   emits the exact stream and report of the threaded `run`,
//!   interrupted mid-plane or not.

use std::cell::{Cell, RefCell};
use std::path::PathBuf;

use rip_core::{
    CheckpointedRunError, ConfigError, FaultKind, FaultPlan, FaultPlanError, HbmSwitch,
    LiveOptions, RouterConfig, RunOutcome, SpsRouter, SpsWorkload,
};
use rip_hbm::PfiConfigError;
use rip_integration_tests::source_for;
use rip_photonics::SplitPattern;
use rip_sim::snapshot::{load_latest, prev_slot, write_snapshot, SnapshotError};
use rip_telemetry::{MemorySink, SharedSink, SinkRecord};
use rip_traffic::TrafficMatrix;
use rip_units::{SimTime, TimeDelta};
use serde::Value;

const PERIOD: TimeDelta = TimeDelta::from_ns(2_000);

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rip-checkpoint-resume-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_slot(&path));
    path
}

/// The standard single-switch live workload of this suite.
fn live_setup() -> (RouterConfig, TrafficMatrix, SimTime) {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    (cfg, tm, SimTime::from_ns(40_000))
}

/// Uninterrupted live baseline: the stream and report every
/// checkpointed variant must reproduce byte-for-byte.
fn baseline(seed: u64) -> (Vec<SinkRecord>, String) {
    let (cfg, tm, horizon) = live_setup();
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    sw.enable_live_telemetry(PERIOD, 64, Box::new(staged.clone()));
    sw.run_source(
        source_for(&cfg, &tm, 0.8, horizon, seed),
        cfg.drain.deadline(horizon),
        &FaultPlan::default(),
    );
    let records = staged.take().into_records();
    (records, json(&sw.into_report()))
}

/// Run the checkpointed engine against the real on-disk container,
/// stopping after `stop_after` snapshots; returns the partial stream,
/// the outcome, and the `(epochs, spans)` counts of every snapshot
/// written (in order).
fn run_until(
    seed: u64,
    path: &std::path::Path,
    every: u64,
    stop_after: u64,
) -> (Vec<SinkRecord>, RunOutcome, Vec<(u64, u64)>) {
    let (cfg, tm, horizon) = live_setup();
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    sw.enable_live_telemetry(PERIOD, 64, Box::new(staged.clone()));
    let written = Cell::new(0u64);
    let counts = RefCell::new(Vec::new());
    let outcome = sw
        .run_source_checkpointed(
            source_for(&cfg, &tm, 0.8, horizon, seed),
            cfg.drain.deadline(horizon),
            &FaultPlan::default(),
            None,
            every,
            || written.get() >= stop_after,
            |state: &Value, epochs: u64, spans: u64| {
                write_snapshot(path, json(state).as_bytes())?;
                written.set(written.get() + 1);
                counts.borrow_mut().push((epochs, spans));
                Ok(())
            },
        )
        .expect("checkpointed run");
    let partial = staged.take().into_records();
    (partial, outcome, counts.into_inner())
}

/// Resume the engine from an on-disk snapshot payload and run to
/// completion; returns the continuation stream and the report JSON.
fn resume_from(seed: u64, payload: &[u8]) -> (Vec<SinkRecord>, String) {
    let text = std::str::from_utf8(payload).expect("snapshot payload is JSON");
    let state = serde_json::parse(text).expect("snapshot payload parses");
    try_resume(seed, &state).expect("resumed run")
}

/// Resume the engine from a decoded snapshot and run to completion, or
/// return the restore error.
fn try_resume(seed: u64, state: &Value) -> Result<(Vec<SinkRecord>, String), CheckpointedRunError> {
    let (cfg, tm, horizon) = live_setup();
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    sw.enable_live_telemetry(PERIOD, 64, Box::new(staged.clone()));
    let outcome = sw.run_source_checkpointed(
        source_for(&cfg, &tm, 0.8, horizon, seed),
        cfg.drain.deadline(horizon),
        &FaultPlan::default(),
        Some(state),
        1_000_000,
        || false,
        |_, _, _| Ok(()),
    )?;
    assert_eq!(outcome, RunOutcome::Completed);
    let records = staged.take().into_records();
    Ok((records, json(&sw.into_report())))
}

#[test]
fn killed_and_resumed_run_is_byte_identical_through_the_disk_container() {
    let seed = 11;
    let path = scratch("engine.snap");
    let (base_records, base_report) = baseline(seed);

    let (partial, outcome, counts) = run_until(seed, &path, 2, 3);
    assert_eq!(outcome, RunOutcome::Interrupted);
    assert!(counts.len() >= 3, "expected at least 3 snapshots");

    // The newest slot resumes to the identical end state.
    let (payload, slot) = load_latest(&path).expect("snapshot loads");
    assert_eq!(slot, path);
    let (resumed, report) = resume_from(seed, &payload);
    assert_eq!(report, base_report, "resumed report diverged");

    // Stream: baseline prefix up to the last snapshot, then the
    // continuation. The partial stream must cover at least that prefix
    // (records after the snapshot are cut by the resume bookkeeping).
    let &(epochs, spans) = counts.last().unwrap();
    let keep = (epochs + spans) as usize;
    assert!(partial.len() >= keep);
    assert_eq!(partial[..keep], base_records[..keep]);
    let merged: Vec<SinkRecord> = base_records[..keep]
        .iter()
        .cloned()
        .chain(resumed)
        .collect();
    assert_eq!(merged, base_records, "merged stream diverged");
}

#[test]
fn truncated_newest_slot_falls_back_to_prev_and_still_converges() {
    let seed = 23;
    let path = scratch("rotated.snap");
    let (base_records, base_report) = baseline(seed);

    let (_, outcome, counts) = run_until(seed, &path, 2, 3);
    assert_eq!(outcome, RunOutcome::Interrupted);
    assert!(prev_slot(&path).exists(), "rotation left no .prev slot");

    // Crash mid-write: the newest slot is cut short. Loading must fall
    // back to the previous rotation slot...
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let (payload, slot) = load_latest(&path).expect("fallback loads");
    assert_eq!(slot, prev_slot(&path));

    // ...and resuming from that older checkpoint still reproduces the
    // uninterrupted run exactly.
    let (resumed, report) = resume_from(seed, &payload);
    assert_eq!(report, base_report);
    let &(epochs, spans) = &counts[counts.len() - 2];
    let keep = (epochs + spans) as usize;
    let merged: Vec<SinkRecord> = base_records[..keep]
        .iter()
        .cloned()
        .chain(resumed)
        .collect();
    assert_eq!(merged, base_records);
}

#[test]
fn a_snapshot_with_a_lowered_queue_seq_is_a_typed_error() {
    // A hand-edited snapshot (its CRC recomputed by whoever edited it)
    // whose next queue sequence number is not above every pending
    // entry's would let a later event tie with a restored one. Restore
    // must refuse it with a typed error, not panic.
    let seed = 43;
    let path = scratch("lowered-seq.snap");
    let (_, outcome, _) = run_until(seed, &path, 2, 1);
    assert_eq!(outcome, RunOutcome::Interrupted);
    let (payload, _) = load_latest(&path).expect("snapshot loads");
    let text = std::str::from_utf8(&payload).expect("snapshot payload is JSON");
    let mut state = serde_json::parse(text).expect("snapshot payload parses");
    let Value::Array(queue) = field_mut(&mut state, "queue") else {
        panic!("snapshot queue is not an array");
    };
    assert!(
        !queue.is_empty(),
        "no pending events — the edit would be vacuous"
    );
    *field_mut(&mut state, "queue_next_seq") = serde::Serialize::to_value(&0u64);
    match try_resume(seed, &state) {
        Err(CheckpointedRunError::Snapshot(SnapshotError::Mismatch(msg))) => assert!(
            msg.contains("event queue does not restore"),
            "unexpected message: {msg}"
        ),
        Err(other) => panic!("want SnapshotError::Mismatch, got {other}"),
        Ok(_) => panic!("a corrupt queue was resumed"),
    }
}

#[test]
fn a_switch_snapshot_in_the_flat_layout_is_refused() {
    // A switch snapshot keeps the run state in one `run` member. One
    // written with those members at its top level (the layout before
    // `run` existed) must be refused with a typed error, and the
    // refusing switch must be left exactly as it was built.
    let seed = 47;
    let path = scratch("flat-layout.snap");
    let (_, outcome, _) = run_until(seed, &path, 2, 1);
    assert_eq!(outcome, RunOutcome::Interrupted);
    let (payload, _) = load_latest(&path).expect("snapshot loads");
    let text = std::str::from_utf8(&payload).expect("snapshot payload is JSON");
    let mut state = serde_json::parse(text).expect("snapshot payload parses");
    let Value::Object(fields) = &mut state else {
        panic!("snapshot is not an object");
    };
    let at = fields
        .iter()
        .position(|(k, _)| k == "run")
        .expect("snapshot has a `run` member");
    let Value::Object(members) = fields.remove(at).1 else {
        panic!("`run` is not an object");
    };
    fields.splice(at..at, members);

    let (cfg, tm, horizon) = live_setup();
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    sw.enable_live_telemetry(PERIOD, 64, Box::new(staged.clone()));
    let err = sw
        .run_source_checkpointed(
            source_for(&cfg, &tm, 0.8, horizon, seed),
            cfg.drain.deadline(horizon),
            &FaultPlan::default(),
            Some(&state),
            1_000_000,
            || false,
            |_, _, _| Ok(()),
        )
        .expect_err("a flat-layout snapshot must be refused");
    match err {
        CheckpointedRunError::Snapshot(SnapshotError::Mismatch(msg)) => assert!(
            msg.contains("does not decode as a switch state"),
            "unexpected message: {msg}"
        ),
        other => panic!("want SnapshotError::Mismatch, got {other}"),
    }
    assert!(
        staged.take().records().is_empty(),
        "a refused resume emitted records"
    );
    // Nothing was overwritten: the same switch still runs the fresh
    // workload to the baseline's report and stream.
    sw.run_source(
        source_for(&cfg, &tm, 0.8, horizon, seed),
        cfg.drain.deadline(horizon),
        &FaultPlan::default(),
    );
    let (base_records, base_report) = baseline(seed);
    assert_eq!(json(&sw.into_report()), base_report);
    assert_eq!(*staged.take().records(), base_records);
}

#[test]
fn a_switch_snapshot_with_the_old_queue_depth_series_still_resumes() {
    // Switch snapshots once carried a per-output queue-depth series as
    // `run.output_depth`. The snapshot decoder ignores members it does
    // not know, so a snapshot that still has one resumes to the
    // uninterrupted run's stream and report.
    let seed = 53;
    let path = scratch("output-depth.snap");
    let (_, outcome, counts) = run_until(seed, &path, 2, 1);
    assert_eq!(outcome, RunOutcome::Interrupted);
    let (payload, _) = load_latest(&path).expect("snapshot loads");
    let text = std::str::from_utf8(&payload).expect("snapshot payload is JSON");
    let mut state = serde_json::parse(text).expect("snapshot payload parses");
    let Value::Object(run) = field_mut(&mut state, "run") else {
        panic!("`run` is not an object");
    };
    // The old layout: one series per output, each a list of
    // `(time, value)` points plus its decimation state.
    let series = r#"{"points": [[1000, 0.0], [2000, 1.0]], "max_points": 1024,
        "stride": 1, "seen": 2}"#;
    let series = serde_json::parse(series).expect("series parses");
    let ports = RouterConfig::small().ribbons;
    run.push((
        "output_depth".to_string(),
        Value::Array(vec![series; ports]),
    ));

    let (resumed, report) = try_resume(seed, &state).expect("resume with `output_depth`");
    let (base_records, base_report) = baseline(seed);
    assert_eq!(report, base_report);
    let &(epochs, spans) = counts.last().expect("one snapshot");
    let keep = (epochs + spans) as usize;
    let merged: Vec<SinkRecord> = base_records[..keep]
        .iter()
        .cloned()
        .chain(resumed)
        .collect();
    assert_eq!(merged, base_records);
}

#[test]
fn switch_checkpointed_runner_rejects_an_unservable_plan() {
    // The switch twin of the SPS test below: with one channel per
    // stripe subset, losing channel 0 leaves subset 0 with no live
    // channel. A fresh checkpointed run must refuse the plan with a
    // typed error before it runs anything.
    let mut cfg = RouterConfig::small();
    cfg.stripe_channels = Some(1);
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(40_000);
    let at = SimTime::from_ns(5_000);
    let plan = FaultPlan::new().inject(at, FaultKind::HbmChannelDown { channel: 0 });
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    sw.enable_live_telemetry(PERIOD, 64, Box::new(staged.clone()));
    let persisted = Cell::new(0u64);
    let err = sw
        .run_source_checkpointed(
            source_for(&cfg, &tm, 0.8, horizon, 59),
            cfg.drain.deadline(horizon),
            &plan,
            None,
            1,
            || false,
            |_, _, _| {
                persisted.set(persisted.get() + 1);
                Ok(())
            },
        )
        .expect_err("an unservable plan must be rejected");
    match err {
        CheckpointedRunError::Config(ConfigError::FaultPlan(e)) => assert_eq!(
            e,
            FaultPlanError::Unservable {
                at,
                switch: 0,
                reason: PfiConfigError::SubsetDead { subset: 0 },
            }
        ),
        other => panic!("want a typed fault-plan error, got {other}"),
    }
    assert!(
        staged.take().records().is_empty(),
        "a rejected run emitted records"
    );
    assert_eq!(persisted.get(), 0, "a rejected run persisted a snapshot");
}

// ------------------------------------------------------------------
// SPS router: sequential checkpointed runner vs threaded run.
// ------------------------------------------------------------------

fn sps_setup() -> (SpsRouter, SpsWorkload, SimTime, LiveOptions) {
    let cfg = RouterConfig::small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.8, 0xC0FF);
    let opts = LiveOptions {
        period: PERIOD,
        sample_one_in: 64,
    };
    (router, w, SimTime::from_ns(40_000), opts)
}

#[test]
fn sps_checkpointed_runner_matches_threaded_stream_and_report() {
    let (router, w, horizon, opts) = sps_setup();
    let mut base = MemorySink::new();
    let base_report = router
        .run(&w, horizon, &FaultPlan::default(), Some((opts, &mut base)))
        .expect("healthy run");

    let mut sink = MemorySink::new();
    let snapshots = Cell::new(0u64);
    let report = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut sink,
            None,
            4,
            &mut || false,
            &mut |_, _| {
                snapshots.set(snapshots.get() + 1);
                Ok(())
            },
        )
        .expect("checkpointed run")
        .expect("ran to completion");
    assert!(snapshots.get() > 0, "no snapshots were taken");
    assert_eq!(json(&report), json(&base_report), "reports diverged");
    assert_eq!(
        sink.records(),
        base.records(),
        "checkpointed stream diverged from the threaded stream"
    );
}

#[test]
fn sps_interrupted_mid_run_resumes_byte_identically() {
    let (router, w, horizon, opts) = sps_setup();
    let mut base = MemorySink::new();
    let base_report = router
        .run(&w, horizon, &FaultPlan::default(), Some((opts, &mut base)))
        .expect("healthy run");

    // Interrupt after a few snapshots; keep the last snapshot and the
    // count of records already replayed into the driver sink.
    let mut partial = MemorySink::new();
    let taken = Cell::new(0u64);
    let last: RefCell<Option<(Value, u64)>> = RefCell::new(None);
    let outcome = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut partial,
            None,
            3,
            &mut || taken.get() >= 4,
            &mut |state, records_done| {
                taken.set(taken.get() + 1);
                *last.borrow_mut() = Some((state.clone(), records_done));
                Ok(())
            },
        )
        .expect("interruptible run");
    assert!(outcome.is_none(), "run was not interrupted");
    let (state, records_done) = last.into_inner().expect("a snapshot was taken");

    // The partial driver sink holds exactly the completed planes'
    // replayed records.
    assert_eq!(partial.records().len() as u64, records_done);

    let mut cont = MemorySink::new();
    let report = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut cont,
            Some(&state),
            1_000_000,
            &mut || false,
            &mut |_, _| Ok(()),
        )
        .expect("resumed run")
        .expect("ran to completion");
    assert_eq!(json(&report), json(&base_report), "resumed report diverged");

    let merged: Vec<SinkRecord> = partial
        .records()
        .iter()
        .chain(cont.records().iter())
        .cloned()
        .collect();
    let expected = base.records().to_vec();
    assert_eq!(merged, expected, "merged SPS stream diverged");
}

#[test]
fn sps_resume_rejects_a_different_configuration() {
    let (router, w, horizon, opts) = sps_setup();
    let mut sink = MemorySink::new();
    let taken = Cell::new(0u64);
    let last: RefCell<Option<Value>> = RefCell::new(None);
    let outcome = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut sink,
            None,
            3,
            &mut || taken.get() >= 2,
            &mut |state, _| {
                taken.set(taken.get() + 1);
                *last.borrow_mut() = Some(state.clone());
                Ok(())
            },
        )
        .expect("interruptible run");
    assert!(outcome.is_none());
    let state = last.into_inner().expect("a snapshot was taken");

    let mut other_cfg = RouterConfig::small();
    other_cfg.head_frames += 1;
    let other = SpsRouter::new(other_cfg, SplitPattern::Striped).expect("valid config");
    let mut cont = MemorySink::new();
    let err = other
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut cont,
            Some(&state),
            1_000_000,
            &mut || false,
            &mut |_, _| Ok(()),
        )
        .expect_err("a different configuration must be rejected");
    assert!(
        err.to_string().contains("configuration differs"),
        "unexpected error: {err}"
    );
}

/// The value under `key` of a snapshot object.
fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Object(fields) => fields
            .iter_mut()
            .find_map(|(k, v)| (k == key).then_some(v))
            .unwrap_or_else(|| panic!("snapshot object lacks `{key}`")),
        other => panic!("expected an object around `{key}`, found {}", other.kind()),
    }
}

#[test]
fn sps_resume_rejects_a_plane_source_with_a_different_lane_count() {
    // A plane source holds only the fibers its split reaches, so a
    // striped `small` plane merges 16 lanes. A mid-plane snapshot whose
    // lane array has some other length — here the 64 lanes of a source
    // that held every fiber of every ribbon — must be refused with a
    // typed error, not resumed and not a panic.
    let (router, w, horizon, opts) = sps_setup();
    let mut sink = MemorySink::new();
    let taken = Cell::new(0u64);
    let last: RefCell<Option<Value>> = RefCell::new(None);
    let outcome = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut sink,
            None,
            3,
            &mut || taken.get() >= 2,
            &mut |state, _| {
                taken.set(taken.get() + 1);
                *last.borrow_mut() = Some(state.clone());
                Ok(())
            },
        )
        .expect("interruptible run");
    assert!(outcome.is_none());
    let mut state = last.into_inner().expect("a snapshot was taken");

    let source = field_mut(
        field_mut(field_mut(&mut state, "engine"), "feeder"),
        "source",
    );
    let Value::Array(lanes) = field_mut(field_mut(source, "merged"), "lanes") else {
        panic!("plane-source lanes are not an array");
    };
    let cfg = RouterConfig::small();
    assert_eq!(
        lanes.len(),
        cfg.ribbons * cfg.fibers_per_ribbon / cfg.switches
    );
    let all_fibers = cfg.ribbons * cfg.fibers_per_ribbon;
    let old: Vec<Value> = lanes.iter().cycle().take(all_fibers).cloned().collect();
    *lanes = old;

    let mut cont = MemorySink::new();
    let err = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut cont,
            Some(&state),
            1_000_000,
            &mut || false,
            &mut |_, _| Ok(()),
        )
        .expect_err("a lane-count mismatch must be rejected");
    match err {
        CheckpointedRunError::Snapshot(SnapshotError::Mismatch(msg)) => assert!(
            msg.contains("16 lanes, snapshot has 64"),
            "unexpected message: {msg}"
        ),
        other => panic!("want SnapshotError::Mismatch, got {other}"),
    }
    assert!(
        cont.records().is_empty(),
        "a refused resume emitted records"
    );
}

#[test]
fn sps_resume_rejects_finished_planes_in_the_old_layout() {
    // A finished plane inside an SPS snapshot is a `PlaneResult`
    // (`plane`, `fe_packets`, `fe_bytes`, `report`), and the replayed
    // record count is one top-level `records`. A snapshot in the older
    // layout — per-plane `{report, fe_packets, fe_bytes, records}` with
    // no plane index — must be refused with a typed error.
    let (router, w, horizon, opts) = sps_setup();
    let mut sink = MemorySink::new();
    let first_done: RefCell<Option<Value>> = RefCell::new(None);
    router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut sink,
            None,
            3,
            &mut || false,
            &mut |state, _| {
                let mut state = state.clone();
                let finished =
                    matches!(field_mut(&mut state, "done"), Value::Array(d) if !d.is_empty());
                if finished && first_done.borrow().is_none() {
                    *first_done.borrow_mut() = Some(state);
                }
                Ok(())
            },
        )
        .expect("checkpointed run")
        .expect("ran to completion");
    let mut state = first_done
        .into_inner()
        .expect("a snapshot after the first plane was taken");

    let records = field_mut(&mut state, "records").clone();
    let Value::Object(fields) = &mut state else {
        panic!("snapshot is not an object");
    };
    fields.retain(|(k, _)| k != "records");
    let Value::Array(done) = field_mut(&mut state, "done") else {
        panic!("`done` is not an array");
    };
    for plane in done.iter_mut() {
        let Value::Object(members) = plane else {
            panic!("a finished plane is not an object");
        };
        members.retain(|(k, _)| k != "plane");
        members.push(("records".to_string(), records.clone()));
    }

    let mut cont = MemorySink::new();
    let err = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut cont,
            Some(&state),
            1_000_000,
            &mut || false,
            &mut |_, _| Ok(()),
        )
        .expect_err("an old-layout snapshot must be refused");
    match err {
        CheckpointedRunError::Snapshot(SnapshotError::Mismatch(msg)) => assert!(
            msg.contains("does not decode as an SPS router state") && msg.contains("`plane`"),
            "unexpected message: {msg}"
        ),
        other => panic!("want SnapshotError::Mismatch, got {other}"),
    }
    assert!(
        cont.records().is_empty(),
        "a refused resume emitted records"
    );
}

#[test]
fn sps_checkpointed_runner_rejects_an_unservable_plan() {
    // One channel per stripe subset: losing channel 0 leaves subset 0
    // with no live channel, which plan validation must report as a
    // typed error before any plane runs.
    let mut cfg = RouterConfig::small();
    cfg.stripe_channels = Some(1);
    let router = SpsRouter::new(cfg, SplitPattern::Striped).expect("valid config");
    let (_, w, horizon, opts) = sps_setup();
    let at = SimTime::from_ns(5_000);
    let plan = FaultPlan::new().inject(at, FaultKind::HbmChannelDown { channel: 0 });
    let mut sink = MemorySink::new();
    let err = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &plan,
            opts,
            &mut sink,
            None,
            1,
            &mut || false,
            &mut |_, _| Ok(()),
        )
        .expect_err("an unservable plan must be rejected");
    match err {
        CheckpointedRunError::Config(ConfigError::FaultPlan(e)) => assert_eq!(
            e,
            FaultPlanError::Unservable {
                at,
                switch: 0,
                reason: PfiConfigError::SubsetDead { subset: 0 },
            }
        ),
        other => panic!("want a typed fault-plan error, got {other}"),
    }
    assert!(sink.records().is_empty(), "a rejected run emitted records");
}
