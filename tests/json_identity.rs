//! Identity of the direct JSON writer and reader on the workspace's
//! real types.
//!
//! `serde_json::to_string` writes JSON straight from each type through
//! `Serialize::write_json`; the contract is that the bytes equal
//! printing the type's `Value` tree. This suite checks that contract,
//! on every shipped `configs/*.json`, for every output surface the
//! simulator serializes: the `SwitchReport`, the `SpsReport`, a
//! checkpoint state payload, the live-telemetry JSONL lines and the
//! self-profiler's `ProfileRecord`s.
//!
//! `serde_json::from_str` reads straight into each type through
//! `Deserialize::read_json`; the contract is that the value equals
//! `from_value` of the parsed tree. The suite checks that in the read
//! direction for the `SwitchReport`, the `SpsReport`, each plane's
//! `PlaneResult`, the checkpoint payload and the `ripsim` spec, and
//! that each decoded report re-serializes to the bytes it was read
//! from and gives back the run's departure logs. (The checkpoint's
//! typed `SwitchState` is private to `rip-core`; its own unit tests
//! check it the same way.)
//!
//! It also checks that the parser's nesting limit admits every shipped
//! config and a real checkpoint snapshot. Horizons are capped so the
//! suite stays fast in debug builds.

use std::cell::RefCell;
use std::path::PathBuf;

use rip_bench::spec::SimSpec;
use rip_core::{
    FaultPlan, HbmSwitch, PlaneResult, RouterConfig, RunOutcome, SpsReport, SpsRouter, SpsWorkload,
    SwitchReport,
};
use rip_integration_tests::{shipped_configs, source_for};
use rip_photonics::SplitPattern;
use rip_telemetry::{JsonlSink, ProfileHub, SharedSink};
use rip_traffic::TrafficMatrix;
use rip_units::{SimTime, TimeDelta};
use serde::{Deserialize, Serialize, Value};

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

/// Assert that reading `text` straight into `T` and reading its value
/// tree give the same value, shown by both re-serializing to the same
/// bytes; with `round_trip`, those bytes must be `text` itself.
fn assert_reads_identically<T: Serialize + Deserialize>(what: &str, text: &str, round_trip: bool) {
    let direct: T =
        serde_json::from_str(text).unwrap_or_else(|e| panic!("{what}: direct decode failed: {e}"));
    let tree = serde_json::parse(text).expect("parses");
    let tree = T::from_value(&tree).unwrap_or_else(|e| panic!("{what}: tree decode failed: {e}"));
    let (direct, tree) = (
        serde_json::to_string(&direct).expect("serializes"),
        serde_json::to_string(&tree).expect("serializes"),
    );
    assert!(
        direct == tree,
        "{what}: direct decode differs from the tree decode"
    );
    assert!(
        !round_trip || direct == text,
        "{what}: decoding does not re-serialize to the bytes read"
    );
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
        let text = serde_json::to_string(&report).expect("report serializes");
        assert_reads_identically::<SwitchReport>(&format!("{name}: SwitchReport"), &text, true);
        let back: SwitchReport = serde_json::from_str(&text).expect("report decodes");
        assert!(
            back.departures == report.departures,
            "{name}: the decoded departure log differs from the run's"
        );

        let state = checkpoint.into_inner().expect("at least one checkpoint");
        assert_identical(&format!("{name}: checkpoint state"), &state);
        let payload = serde_json::to_string(&state).expect("state serializes");
        let reparsed = serde_json::parse(&payload)
            .unwrap_or_else(|e| panic!("{name}: checkpoint payload does not parse: {e}"));
        assert!(
            reparsed == state,
            "{name}: checkpoint payload does not round-trip"
        );
        assert_reads_identically::<Value>(&format!("{name}: checkpoint state"), &payload, true);

        let records = staged.take();
        assert!(!records.records().is_empty(), "{name}: no telemetry");
        // The JSONL lines are written field by field from the records'
        // parts; re-printing each line's tree must give the line back.
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
        let text = serde_json::to_string(&report).expect("report serializes");
        assert_reads_identically::<SpsReport>(&format!("{name}: SpsReport"), &text, true);
        let back: SpsReport = serde_json::from_str(&text).expect("report decodes");
        for (b, s) in back.switches.iter().zip(&report.switches) {
            assert!(
                b.report.departures == s.report.departures,
                "{name}: a decoded plane's departure log differs from the run's"
            );
        }
        let planes: Vec<usize> = (0..spec.router.switches).collect();
        let runs = router
            .run_planes(&w, HORIZON, &FaultPlan::default(), None, &planes)
            .expect("healthy run");
        for (result, _) in &runs {
            let what = format!("{name}: PlaneResult {}", result.plane);
            let text = serde_json::to_string(result).expect("result serializes");
            assert_reads_identically::<PlaneResult>(&what, &text, true);
        }
    }
}

#[test]
fn every_shipped_spec_reads_identically() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../configs");
    for (name, spec) in shipped_configs() {
        let text = std::fs::read_to_string(dir.join(&name)).expect("config readable");
        assert_reads_identically::<SimSpec>(&name, &text, false);
        // Its own compact text reads back to itself.
        let compact = serde_json::to_string(&spec).expect("spec serializes");
        assert_reads_identically::<SimSpec>(&name, &compact, true);
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
