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
//!
//! The departure logs are written as base64 strings of their varint
//! encoding; before that they were JSON arrays. The digests of those
//! earlier bytes stay pinned too, over a legacy rendering that
//! splices each log back in as an array: the simulation and every
//! other field are unchanged by the encoding.

use rip_core::{
    DepartureLog, FaultPlan, HbmSwitch, RouterConfig, SpsReport, SpsRouter, SpsWorkload,
    SwitchReport,
};
use rip_integration_tests::trace_for;
use rip_photonics::SplitPattern;
use rip_traffic::hash::fnv1a;
use rip_traffic::TrafficMatrix;
use rip_units::SimTime;

/// FNV-1a digest of [`switch_report`]'s JSON (`RouterConfig::small`).
const SWITCH_REPORT_B64_FNV1A: u64 = 0x6ccf_11f5_3123_bb28;

/// FNV-1a digest of [`sps_report`]'s JSON
/// (`RouterConfig::resilience_small`).
const SPS_REPORT_B64_FNV1A: u64 = 0x5afa_5276_5943_cc1a;

/// FNV-1a digest of [`switch_report`]'s [`legacy_rendering`].
const SWITCH_REPORT_FNV1A: u64 = 0xa0ed_86a8_5487_2dfb;

/// FNV-1a digest of [`sps_report`]'s [`legacy_rendering`].
const SPS_REPORT_FNV1A: u64 = 0xed02_bb94_8ad1_5ec1;

/// One quickstart-style switch run.
fn switch_report() -> SwitchReport {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let trace = trace_for(&cfg, &tm, 0.8, SimTime::from_ns(100_000), 42);
    let sw = HbmSwitch::new(cfg).expect("valid config");
    sw.run(&trace, SimTime::from_ns(400_000))
}

/// One resilience-small SPS run (per-plane crossbeam threads).
fn sps_report() -> SpsReport {
    let cfg = RouterConfig::resilience_small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.8, 7);
    router
        .run(&w, SimTime::from_ns(100_000), &FaultPlan::default(), None)
        .expect("healthy run")
}

/// `json` with each of `logs`, in order, spliced back in as the JSON
/// array of its departures in place of its base64 string: the bytes
/// the report had before departure logs were encoded.
fn legacy_rendering<'a>(json: &str, logs: impl IntoIterator<Item = &'a DepartureLog>) -> String {
    let mut out = String::new();
    let mut rest = json;
    for log in logs {
        let encoded = format!(
            "\"departures\":{}",
            serde_json::to_string(log).expect("log serializes")
        );
        let at = rest.find(&encoded).expect("the report holds each log");
        out.push_str(&rest[..at]);
        out.push_str("\"departures\":");
        out.push_str(&serde_json::to_string(&log.to_vec()).expect("departures serialize"));
        rest = &rest[at + encoded.len()..];
    }
    out.push_str(rest);
    out
}

#[test]
fn switch_report_snapshot_is_byte_stable() {
    let r = switch_report();
    let a = serde_json::to_string(&r).expect("report serializes");
    let b = serde_json::to_string(&switch_report()).expect("report serializes");
    assert_eq!(a, b, "same-seed switch reports must serialize identically");
    assert_eq!(
        fnv1a(a.as_bytes()),
        SWITCH_REPORT_B64_FNV1A,
        "switch report bytes changed"
    );
    assert_eq!(
        fnv1a(legacy_rendering(&a, [&r.departures]).as_bytes()),
        SWITCH_REPORT_FNV1A,
        "switch report bytes changed outside the departure log"
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
    let r = sps_report();
    let a = serde_json::to_string(&r).expect("report serializes");
    let b = serde_json::to_string(&sps_report()).expect("report serializes");
    assert_eq!(
        a, b,
        "same-seed SPS reports must serialize identically regardless of \
         worker-thread scheduling"
    );
    assert_eq!(
        fnv1a(a.as_bytes()),
        SPS_REPORT_B64_FNV1A,
        "SPS report bytes changed"
    );
    let logs = r.switches.iter().map(|s| &s.report.departures);
    assert_eq!(
        fnv1a(legacy_rendering(&a, logs).as_bytes()),
        SPS_REPORT_FNV1A,
        "SPS report bytes changed outside the departure logs"
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
    let back: SwitchReport = serde_json::from_str(&json).expect("deserializes");
    assert!(
        back.departures == r.departures,
        "the log must decode exactly"
    );
    let json2 = serde_json::to_string(&back).expect("re-serializes");
    assert_eq!(json, json2, "decode/encode must be the identity on reports");
}
