//! End-to-end integration: the full SPS router (photonic front end →
//! per-switch traces → HBM-switch DES → egress) across split patterns
//! and loads. Fault plans are covered by `resilience.rs`.

use rip_core::{FaultPlan, HbmSwitch, RouterConfig, SpsRouter, SpsWorkload};
use rip_integration_tests::trace_for;
use rip_photonics::SplitPattern;
use rip_traffic::{FiberFill, TrafficMatrix};
use rip_units::SimTime;

#[test]
fn sps_uniform_traffic_is_lossless_across_patterns() {
    let cfg = RouterConfig::small();
    for pattern in [
        SplitPattern::Sequential,
        SplitPattern::Striped,
        SplitPattern::PseudoRandom { seed: 11 },
    ] {
        let router = SpsRouter::new(cfg.clone(), pattern).unwrap();
        let w = SpsWorkload::uniform(cfg.ribbons, 0.5, 21);
        let r = router
            .run(&w, SimTime::from_ns(30_000), &FaultPlan::default(), None)
            .unwrap();
        assert!(r.offered.bytes() > 0);
        assert!(
            r.loss_fraction < 1e-3,
            "{pattern:?}: loss {}",
            r.loss_fraction
        );
    }
}

#[test]
fn sequential_split_concentrates_fill_skew_pseudo_random_spreads_it() {
    let cfg = RouterConfig::small();
    let mut w = SpsWorkload::uniform(cfg.ribbons, 0.25, 5);
    w.fill = FiberFill::FirstFilled {
        used: cfg.fibers_per_ribbon / 4,
    };
    let seq = SpsRouter::new(cfg.clone(), SplitPattern::Sequential).unwrap();
    let rnd = SpsRouter::new(cfg.clone(), SplitPattern::PseudoRandom { seed: 3 }).unwrap();
    let horizon = SimTime::from_ns(25_000);
    let r_seq = seq.run(&w, horizon, &FaultPlan::default(), None).unwrap();
    let r_rnd = rnd.run(&w, horizon, &FaultPlan::default(), None).unwrap();
    // Sequential: the lit fibers all feed switch 0 -> imbalance = H.
    assert!(
        r_seq.load_imbalance > cfg.switches as f64 * 0.95,
        "sequential imbalance {}",
        r_seq.load_imbalance
    );
    assert!(
        r_rnd.load_imbalance < r_seq.load_imbalance,
        "pseudo-random {} !< sequential {}",
        r_rnd.load_imbalance,
        r_seq.load_imbalance
    );
}

#[test]
fn every_delivered_packet_was_offered_exactly_once() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let trace = trace_for(&cfg, &tm, 0.8, SimTime::from_ns(60_000), 9);
    let sw = HbmSwitch::new(cfg).unwrap();
    let r = sw.run(&trace, SimTime::from_ns(400_000));
    use std::collections::HashSet;
    let offered: HashSet<u64> = trace.iter().map(|p| p.id).collect();
    let mut seen = HashSet::new();
    for d in &r.departures {
        assert!(offered.contains(&d.packet), "unknown packet {}", d.packet);
        assert!(seen.insert(d.packet), "packet {} departed twice", d.packet);
    }
    assert_eq!(seen.len() as u64, r.delivered_packets);
}

#[test]
fn departures_exit_on_the_right_output_in_flow_order() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let trace = trace_for(&cfg, &tm, 0.7, SimTime::from_ns(50_000), 13);
    let sw = HbmSwitch::new(cfg.clone()).unwrap();
    let r = sw.run(&trace, SimTime::from_ns(400_000));
    // Check output correctness and per-(input,output) FIFO order.
    use std::collections::HashMap;
    let by_id: HashMap<u64, &rip_traffic::Packet> = trace.iter().map(|p| (p.id, p)).collect();
    let mut deps = r.departures.clone();
    deps.sort_by_key(|d| (d.time, d.packet));
    let mut last: HashMap<(usize, usize), u64> = HashMap::new();
    for d in &deps {
        let p = by_id[&d.packet];
        assert!(d.fiber < cfg.alpha() && d.wavelength < cfg.wavelengths);
        if let Some(&prev) = last.get(&(p.input, p.output)) {
            assert!(
                d.packet > prev,
                "FIFO violated for pair ({}, {})",
                p.input,
                p.output
            );
        }
        last.insert((p.input, p.output), d.packet);
    }
}

#[test]
fn reference_configuration_is_internally_consistent() {
    let cfg = RouterConfig::reference();
    cfg.validate().expect("reference config");
    // The HBM group exactly covers the per-switch memory I/O.
    assert_eq!(cfg.hbm_peak(), cfg.per_switch_memory_io());
    // The full-size switch constructs. The whole 16-plane router also
    // simulates, but a 20 us horizon is 3.7 M packets and about 2 s
    // even in a release build, too long for this debug-build test.
    let sw = HbmSwitch::new(cfg).expect("reference switch constructs");
    assert_eq!(sw.config().ribbons, 16);
}

#[test]
fn fib_routed_traffic_flows_through_the_switch() {
    // The §3.2 ➀ forwarding step: outputs come from real LPM lookups
    // against a synthetic core RIB instead of the generator's TM row.
    let cfg = RouterConfig::small();
    let rib = rip_fib::SyntheticRib::generate(20_000, cfg.ribbons, 77);
    let table = rib.stride_table(16);
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let raw = trace_for(&cfg, &tm, 0.6, SimTime::from_ns(40_000), 23);
    let routed = rip_fib::assign_outputs(&raw, &table);
    assert_eq!(routed.len(), raw.len(), "default route resolves everything");
    // Outputs agree with the reference trie.
    let trie = rib.trie();
    for p in routed.iter().take(500) {
        assert_eq!(p.output, trie.lookup(p.flow.dst_ip).unwrap().1 as usize);
    }
    let sw = HbmSwitch::new(cfg).unwrap();
    let r = sw.run(&routed, SimTime::from_ns(400_000));
    assert!(r.delivery_fraction > 0.995, "{}", r.delivery_fraction);
}

#[test]
fn striped_datacenter_variant_runs_end_to_end() {
    let mut cfg = RouterConfig::small();
    cfg.stripe_channels = Some(4);
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let trace = trace_for(&cfg, &tm, 0.8, SimTime::from_ns(60_000), 17);
    let sw = HbmSwitch::new(cfg).unwrap();
    let r = sw.run(&trace, SimTime::from_ns(400_000));
    assert!(r.delivery_fraction > 0.995, "{}", r.delivery_fraction);
}
