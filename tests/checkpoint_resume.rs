//! Crash-safe checkpoint/resume integration suite.
//!
//! The checkpoint subsystem must satisfy two cross-crate contracts:
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

use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use rip_core::{
    CheckpointedRunError, ConfigError, DepartureLog, FaultKind, FaultPlan, FaultPlanError,
    HbmSwitch, RouterConfig, RunOutcome,
};
use rip_hbm::PfiConfigError;
use rip_integration_tests::source_for;
use rip_sim::snapshot::{load_latest, prev_slot, read_snapshot, write_snapshot, SnapshotError};
use rip_telemetry::{SharedSink, SinkRecord};
use rip_traffic::TrafficMatrix;
use rip_units::{SimTime, TimeDelta};
use serde::{Deserialize, Value};

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
    )
    .expect("valid fault plan");
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
    )
    .expect("valid fault plan");
    let (base_records, base_report) = baseline(seed);
    assert_eq!(json(&sw.into_report()), base_report);
    assert_eq!(*staged.take().records(), base_records);
}

#[test]
fn a_switch_snapshot_with_its_departures_as_an_array_is_refused() {
    // Snapshots once held the departure log as a JSON array of
    // departures; it is now one base64 string. A snapshot in the old
    // layout must be refused with a typed error, not misread.
    let seed = 61;
    let path = scratch("departure-array.snap");
    let (_, outcome, _) = run_until(seed, &path, 2, 1);
    assert_eq!(outcome, RunOutcome::Interrupted);
    let (payload, _) = load_latest(&path).expect("snapshot loads");
    let text = std::str::from_utf8(&payload).expect("snapshot payload is JSON");
    let mut state = serde_json::parse(text).expect("snapshot payload parses");
    let log = field_mut(field_mut(&mut state, "run"), "departures");
    let decoded = DepartureLog::from_value(log).expect("the snapshot's log decodes");
    assert!(!decoded.is_empty(), "the snapshot has departures");
    *log = serde_json::to_value(&decoded.to_vec()).expect("departures convert");
    match try_resume(seed, &state) {
        Err(CheckpointedRunError::Snapshot(SnapshotError::Mismatch(msg))) => assert!(
            msg.contains("does not decode as a switch state"),
            "unexpected message: {msg}"
        ),
        Err(other) => panic!("want SnapshotError::Mismatch, got {other}"),
        Ok(_) => panic!("a snapshot with an array departure log resumed"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A real snapshot file with bytes replaced, truncated or spliced:
    /// the container reader returns a typed error or, when the damage
    /// spares the header fields it checks and the payload, exactly the
    /// payload that was written. Never a panic.
    #[test]
    fn mutated_snapshot_files_are_typed_errors(
        cut in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        subs in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..4),
    ) {
        let (file, payload) = real_snapshot_file();
        let mut subbed = file.clone();
        for (i, b) in &subs {
            subbed[i.index(file.len())] = *b;
        }
        let cut = cut.index(file.len());
        let spliced = [&file[..cut], &file[at.index(file.len())..]].concat();
        let path = scratch("mutated.snap");
        for bytes in [&file[..cut], &subbed[..], &spliced[..]] {
            std::fs::write(&path, bytes).expect("scratch file writes");
            if let Ok(read) = read_snapshot(&path) {
                prop_assert!(read == *payload, "a damaged snapshot read as another payload");
            }
        }
    }
}

/// A real snapshot file of this suite's workload and its payload.
fn real_snapshot_file() -> &'static (Vec<u8>, Vec<u8>) {
    static FILE: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    FILE.get_or_init(|| {
        let path = scratch("real.snap");
        let (_, outcome, _) = run_until(67, &path, 2, 1);
        assert_eq!(outcome, RunOutcome::Interrupted);
        let file = std::fs::read(&path).expect("snapshot file reads");
        let payload = read_snapshot(&path).expect("snapshot reads");
        (file, payload)
    })
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
    // With one channel per stripe subset, losing channel 0 leaves
    // subset 0 with no live channel. A fresh checkpointed run must
    // refuse the plan with a typed error before it runs anything.
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
