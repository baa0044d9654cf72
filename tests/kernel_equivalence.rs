//! Entry-point equivalence differential suite.
//!
//! The switch has two entry points into its one run loop, and they must
//! be observably indistinguishable: for every shipped config in
//! `configs/*.json`, a checkpointing run (snapshot at every epoch) must
//! produce a byte-identical serialized final report AND a byte-identical
//! JSONL live-telemetry stream to the plain streaming run. Horizons are
//! capped so the suite stays fast in debug builds — the runs dispatch
//! identical event sequences from the first pop, so a capped run that
//! diverges would diverge at full length too.

use std::path::PathBuf;

use rip_bench::spec::SimSpec;
use rip_core::{FaultPlan, HbmSwitch, RunOutcome};
use rip_integration_tests::shipped_configs;
use rip_telemetry::{JsonlSink, SharedSink};
use rip_units::{SimTime, TimeDelta};

/// Live-telemetry epoch period for a config: its own `epoch_ps`, or a
/// 2 us default so silent configs still exercise the JSONL comparison.
fn epoch_period(spec: &SimSpec) -> TimeDelta {
    TimeDelta::from_ps(spec.epoch_ps.unwrap_or(2_000_000))
}

/// Run `spec` to completion through `run_source` and return the
/// serialized final report plus the rendered JSONL telemetry stream.
fn run_plain(spec: &SimSpec, horizon: SimTime) -> (String, Vec<u8>) {
    let deadline = SimTime::from_ps(horizon.as_ps() * (1 + spec.drain_factor));
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(spec.router.clone()).expect("shipped config is valid");
    sw.enable_live_telemetry(epoch_period(spec), 64, Box::new(staged.clone()));
    let source = spec.build_source(horizon).expect("shipped config builds");
    sw.run_source(source, deadline, &FaultPlan::default());
    let report = serde_json::to_string(&sw.into_report()).expect("report serializes");
    let mut jsonl: Vec<u8> = Vec::new();
    {
        let mut sink = JsonlSink::new(&mut jsonl);
        staged.take().replay_into(&mut sink);
    }
    (report, jsonl)
}

/// [`run_plain`] through the checkpointing entry point, with a
/// snapshot due at every epoch (the snapshots themselves are dropped).
fn run_checkpointed(spec: &SimSpec, horizon: SimTime) -> (String, Vec<u8>) {
    let deadline = SimTime::from_ps(horizon.as_ps() * (1 + spec.drain_factor));
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(spec.router.clone()).expect("shipped config is valid");
    sw.enable_live_telemetry(epoch_period(spec), 64, Box::new(staged.clone()));
    let mut snapshots = 0u64;
    let outcome = sw
        .run_source_checkpointed(
            spec.build_source(horizon).expect("shipped config builds"),
            deadline,
            &FaultPlan::default(),
            None,
            1,
            || false,
            |_, _, _| {
                snapshots += 1;
                Ok(())
            },
        )
        .expect("checkpointed run");
    assert_eq!(outcome, RunOutcome::Completed);
    assert!(snapshots > 0, "no checkpoint was due — comparison vacuous");
    let report = serde_json::to_string(&sw.into_report()).expect("report serializes");
    let mut jsonl: Vec<u8> = Vec::new();
    {
        let mut sink = JsonlSink::new(&mut jsonl);
        staged.take().replay_into(&mut sink);
    }
    (report, jsonl)
}

/// Debug-profile cap on arrival horizons: equivalence needs identical
/// event sequences, not full-length soaks.
const HORIZON_CAP_US: u64 = 30;

#[test]
fn every_engine_and_kernel_agrees_on_every_shipped_config() {
    // {plain, checkpointing}, every shipped config, byte-identical
    // reports and JSONL streams. Taking snapshots must not perturb the
    // run.
    for (name, spec) in &shipped_configs() {
        let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
        let (base_report, base_jsonl) = run_plain(spec, horizon);
        assert!(!base_jsonl.is_empty(), "{name}: comparison was vacuous");
        // The reports carry real traffic — a config that moved no
        // packets would make the equivalence claim vacuous too.
        assert!(
            base_report.contains("\"offered_packets\":")
                && !base_report.contains("\"offered_packets\":0,"),
            "{name}: run offered no packets"
        );
        let (report, jsonl) = run_checkpointed(spec, horizon);
        assert_eq!(
            report, base_report,
            "{name}: checkpointed report diverged from plain"
        );
        assert_eq!(
            jsonl, base_jsonl,
            "{name}: checkpointed JSONL stream diverged from plain"
        );
    }
}

#[test]
fn legacy_engine_block_loads_and_changes_nothing() {
    // Specs written while the switch had a selectable engine carry a
    // `router.engine` block. The decoder ignores unknown keys and every
    // engine produced identical output, so such a spec must still load
    // and run to the same bytes as the spec without the block.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../configs/soak_live.json");
    let text = std::fs::read_to_string(&path).expect("config readable");
    let legacy = text.replacen(
        "\"router\": {",
        "\"router\": {\n    \"engine\": {\"kind\": \"sharded\", \"shards\": 2},",
        1,
    );
    assert_ne!(legacy, text, "engine block was not inserted");
    let spec: SimSpec = serde_json::from_str(&text).expect("current spec decodes");
    let old: SimSpec = serde_json::from_str(&legacy).expect("legacy spec decodes");
    let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
    let (report, jsonl) = run_plain(&spec, horizon);
    assert!(!jsonl.is_empty(), "comparison was vacuous");
    assert_eq!(
        run_plain(&old, horizon),
        (report, jsonl),
        "a legacy engine block changed the run"
    );
}

#[test]
fn same_seed_runs_are_deterministic() {
    // Differential equivalence is only meaningful if each run is itself
    // reproducible: two same-seed runs must match bytewise.
    let (name, spec) = &shipped_configs()[0];
    let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
    let a = run_plain(spec, horizon);
    let b = run_plain(spec, horizon);
    assert_eq!(a, b, "{name}: same-seed runs diverged");
}
