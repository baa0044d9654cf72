//! Golden-report snapshot tests: the serialized reports must be
//! byte-stable across repeated same-seed runs — including the
//! multi-threaded SPS run, where per-plane results are produced on
//! worker threads and merged deterministically in plane order. Any
//! wall-clock timestamp, iteration-order dependence or float
//! accumulation-order difference would show up here as a diff.
//! Each report is also pinned across commits by an FNV-1a digest of
//! its bytes: a change that alters one byte of either serialized
//! report — the simulation or the JSON writer — must update the
//! digest on purpose.

use rip_core::{FaultPlan, HbmSwitch, RouterConfig, SpsRouter, SpsWorkload};
use rip_integration_tests::trace_for;
use rip_photonics::SplitPattern;
use rip_traffic::hash::fnv1a;
use rip_traffic::TrafficMatrix;
use rip_units::SimTime;

/// FNV-1a digest of [`switch_report_json`] (`RouterConfig::small`).
const SWITCH_REPORT_FNV1A: u64 = 0xa0ed_86a8_5487_2dfb;

/// FNV-1a digest of [`sps_report_json`] (`RouterConfig::resilience_small`).
const SPS_REPORT_FNV1A: u64 = 0xed02_bb94_8ad1_5ec1;

/// One quickstart-style switch run, serialized.
fn switch_report_json() -> String {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let trace = trace_for(&cfg, &tm, 0.8, SimTime::from_ns(100_000), 42);
    let sw = HbmSwitch::new(cfg).expect("valid config");
    let r = sw.run(&trace, SimTime::from_ns(400_000));
    serde_json::to_string(&r).expect("report serializes")
}

/// One resilience-small SPS run (per-plane crossbeam threads),
/// serialized.
fn sps_report_json() -> String {
    let cfg = RouterConfig::resilience_small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.8, 7);
    let r = router
        .run(&w, SimTime::from_ns(100_000), &FaultPlan::default(), None)
        .expect("healthy run");
    serde_json::to_string(&r).expect("report serializes")
}

#[test]
fn switch_report_snapshot_is_byte_stable() {
    let a = switch_report_json();
    let b = switch_report_json();
    assert_eq!(a, b, "same-seed switch reports must serialize identically");
    assert_eq!(
        fnv1a(a.as_bytes()),
        SWITCH_REPORT_FNV1A,
        "switch report bytes changed"
    );
    // Schema sanity: the telemetry surface made it into the snapshot.
    for key in [
        "switch.frame.fill_efficiency",
        "hbm.row_hit_ratio",
        "switch.frames.written",
        "phy.oeo_energy_j",
    ] {
        assert!(a.contains(key), "snapshot should contain metric {key}");
    }
}

#[test]
fn sps_report_snapshot_is_byte_stable_across_thread_schedules() {
    let a = sps_report_json();
    let b = sps_report_json();
    assert_eq!(
        a, b,
        "same-seed SPS reports must serialize identically regardless of \
         worker-thread scheduling"
    );
    assert_eq!(
        fnv1a(a.as_bytes()),
        SPS_REPORT_FNV1A,
        "SPS report bytes changed"
    );
    assert!(a.contains("metrics"), "merged registry must be present");
}

#[test]
fn switch_report_round_trips_through_json() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let trace = trace_for(&cfg, &tm, 0.5, SimTime::from_ns(50_000), 3);
    let sw = HbmSwitch::new(cfg).expect("valid config");
    let r = sw.run(&trace, SimTime::from_ns(200_000));
    let json = serde_json::to_string(&r).expect("serializes");
    let back: rip_core::SwitchReport = serde_json::from_str(&json).expect("deserializes");
    let json2 = serde_json::to_string(&back).expect("re-serializes");
    assert_eq!(json, json2, "decode/encode must be the identity on reports");
}
