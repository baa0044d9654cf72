//! Byte identity of the direct JSON writer on the workspace's real
//! output types.
//!
//! `serde_json::to_string` writes JSON straight from each type through
//! `Serialize::write_json`; the contract is that the bytes equal
//! printing the type's `Value` tree. This suite checks that contract,
//! on every shipped `configs/*.json`, for every output surface the
//! simulator serializes: the `SwitchReport`, the `SpsReport`, a
//! checkpoint state payload, the live-telemetry records (and the JSONL
//! lines rendered from them) and the self-profiler's `ProfileRecord`s.
//! It also checks that the parser's nesting limit admits every shipped
//! config and a real checkpoint snapshot. Horizons are capped so the
//! suite stays fast in debug builds.

use std::cell::RefCell;
use std::path::PathBuf;

use rip_core::{FaultPlan, HbmSwitch, RouterConfig, RunOutcome, SpsRouter, SpsWorkload};
use rip_integration_tests::{shipped_configs, source_for};
use rip_photonics::SplitPattern;
use rip_telemetry::{JsonlSink, ProfileHub, SharedSink};
use rip_traffic::TrafficMatrix;
use rip_units::{SimTime, TimeDelta};
use serde::{Serialize, Value};

const HORIZON: SimTime = SimTime::from_ns(20_000);

/// Assert that the direct writer and the value-tree printer produce
/// the same bytes for `x` (reporting the first difference, not two
/// multi-megabyte strings).
fn assert_identical<T: Serialize>(what: &str, x: &T) {
    let direct = serde_json::to_string(x).expect("serializes");
    let tree = serde_json::to_value(x).expect("converts to a tree");
    let printed = serde_json::to_string(&tree).expect("tree prints");
    if direct != printed {
        let at = direct
            .bytes()
            .zip(printed.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(direct.len().min(printed.len()));
        let ctx = |s: &str| {
            s.get(at.saturating_sub(40)..(at + 40).min(s.len()))
                .map(str::to_owned)
        };
        panic!(
            "{what}: direct JSON differs from the value tree at byte {at} \
             (lengths {} vs {}): direct {:?}, tree {:?}",
            direct.len(),
            printed.len(),
            ctx(&direct),
            ctx(&printed),
        );
    }
}

#[test]
fn switch_outputs_serialize_identically_on_every_shipped_config() {
    for (name, spec) in shipped_configs() {
        let cfg = spec.router.clone();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let staged = SharedSink::new();
        let hub = ProfileHub::new();
        let mut sw = HbmSwitch::new(cfg.clone()).expect("shipped config is valid");
        let period = TimeDelta::from_ps(spec.epoch_ps.unwrap_or(2_000_000));
        sw.enable_live_telemetry(period, 64, Box::new(staged.clone()));
        sw.enable_profiler(hub.clone());
        let checkpoint: RefCell<Option<Value>> = RefCell::new(None);
        let outcome = sw
            .run_source_checkpointed(
                source_for(&cfg, &tm, spec.load, HORIZON, spec.seed),
                cfg.drain.deadline(HORIZON),
                &FaultPlan::default(),
                None,
                2,
                || false,
                |state: &Value, _, _| {
                    checkpoint.borrow_mut().get_or_insert_with(|| state.clone());
                    Ok(())
                },
            )
            .expect("checkpointed run");
        assert_eq!(outcome, RunOutcome::Completed, "{name}");

        let report = sw.into_report();
        assert!(!report.departures.is_empty(), "{name}: no departures");
        assert_identical(&format!("{name}: SwitchReport"), &report);

        let state = checkpoint.into_inner().expect("at least one checkpoint");
        assert_identical(&format!("{name}: checkpoint state"), &state);
        let payload = serde_json::to_string(&state).expect("state serializes");
        let reparsed = serde_json::parse(&payload)
            .unwrap_or_else(|e| panic!("{name}: checkpoint payload does not parse: {e}"));
        assert!(
            reparsed == state,
            "{name}: checkpoint payload does not round-trip"
        );

        let records = staged.take();
        assert!(!records.records().is_empty(), "{name}: no telemetry");
        for rec in records.records() {
            assert_identical(&format!("{name}: telemetry record"), rec);
        }
        // The JSONL lines are assembled from directly written parts;
        // re-printing each line's tree must give the line back.
        let mut jsonl = Vec::new();
        records.replay_into(&mut JsonlSink::new(&mut jsonl));
        for line in String::from_utf8(jsonl).expect("JSONL is UTF-8").lines() {
            let tree = serde_json::parse(line).expect("JSONL line parses");
            assert_eq!(
                serde_json::to_string(&tree).expect("prints"),
                line,
                "{name}"
            );
        }

        let profiles = hub.recent();
        assert!(!profiles.is_empty(), "{name}: no profile records");
        for rec in &profiles {
            assert_identical(&format!("{name}: ProfileRecord"), rec);
        }
    }
}

#[test]
fn sps_report_serializes_identically_on_every_shipped_config() {
    for (name, spec) in shipped_configs() {
        let router = SpsRouter::new(spec.router.clone(), SplitPattern::Striped)
            .expect("shipped config is valid");
        let w = SpsWorkload::uniform(spec.router.ribbons, spec.load, spec.seed);
        let report = router
            .run(&w, HORIZON, &FaultPlan::default(), None)
            .expect("healthy run");
        assert_identical(&format!("{name}: SpsReport"), &report);
    }
}

#[test]
fn every_shipped_config_parses_within_the_nesting_limit() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../configs");
    for (name, _) in shipped_configs() {
        let text = std::fs::read_to_string(dir.join(&name)).expect("config readable");
        let tree = serde_json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let compact = serde_json::to_string(&tree).expect("prints");
        assert!(
            serde_json::parse(&compact).expect("re-parses") == tree,
            "{name}"
        );
    }
    let deep = "[".repeat(100_000);
    assert!(serde_json::parse(&deep).is_err());
    assert!(serde_json::from_str::<RouterConfig>(&deep).is_err());
}
