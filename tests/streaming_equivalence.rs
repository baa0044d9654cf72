//! Streaming-engine equivalence suite.
//!
//! The pull-based simulation engine must be a drop-in replacement for
//! the materialized-trace pipeline: for the same seed, the serialized
//! reports of both engines must be byte-identical — across uniform,
//! hotspot and faulted workloads, at the single-switch level, through
//! the SPS front end (live generators, no trace) and in the OQ-mimic
//! comparison. A final soak property
//! checks the payoff: the streaming engine's working set (peak
//! in-flight packets) stays flat as the horizon grows.

use proptest::prelude::*;
use rip_baselines::IdealOqSwitch;
use rip_core::{
    FaultAction, FaultKind, FaultPlan, HbmSwitch, MimicChecker, RouterConfig, SpsRouter,
    SpsWorkload,
};
use rip_integration_tests::{source_for, trace_for};
use rip_photonics::SplitPattern;
use rip_traffic::hash::{lane_for, HashKind};
use rip_traffic::{Packet, PacketGenerator, PacketSource, ReplaySource, TrafficMatrix};
use rip_units::{DataSize, SimTime};

fn report_json(r: &rip_core::SwitchReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

/// Batch oracle vs streaming engine on the same replayed trace.
fn assert_engines_agree(cfg: &RouterConfig, trace: &[Packet], horizon: SimTime, plan: &FaultPlan) {
    let mut batch = HbmSwitch::new(cfg.clone()).expect("valid config");
    let rb = batch.run_preloaded(trace, horizon, plan);

    let mut streaming = HbmSwitch::new(cfg.clone()).expect("valid config");
    streaming.run_source(ReplaySource::new(trace), horizon, plan);
    let rs = streaming.into_report();

    assert_eq!(
        report_json(&rb),
        report_json(&rs),
        "streaming and batch engines diverged"
    );
}

#[test]
fn streaming_matches_batch_on_uniform_traffic() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(60_000);
    let trace = trace_for(&cfg, &tm, 0.8, horizon, 42);
    assert!(!trace.is_empty());
    assert_engines_agree(
        &cfg,
        &trace,
        cfg.drain.deadline(horizon),
        &FaultPlan::default(),
    );
}

#[test]
fn streaming_matches_batch_on_hotspot_traffic() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::hotspot(cfg.ribbons, 1.0, 0, 0.5);
    let horizon = SimTime::from_ns(60_000);
    let trace = trace_for(&cfg, &tm, 0.9, horizon, 7);
    assert_engines_agree(
        &cfg,
        &trace,
        cfg.drain.deadline(horizon),
        &FaultPlan::default(),
    );
}

#[test]
fn streaming_matches_batch_under_faults() {
    let cfg = RouterConfig::resilience_small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(80_000);
    let trace = trace_for(&cfg, &tm, 0.7, horizon, 17);
    let plan = FaultPlan::new()
        .inject(
            SimTime::from_ns(20_000),
            FaultKind::HbmChannelDown { channel: 1 },
        )
        .recover(
            SimTime::from_ns(50_000),
            FaultKind::HbmChannelDown { channel: 1 },
        )
        .inject(
            SimTime::from_ns(30_000),
            FaultKind::HbmBankStuck {
                channel: 0,
                bank: 2,
            },
        );
    plan.validate(&cfg).expect("plan valid");
    assert_engines_agree(&cfg, &trace, SimTime::from_ns(400_000), &plan);
}

#[test]
fn live_source_matches_materialized_trace_end_to_end() {
    // The strongest single-switch form: the streaming run never sees a
    // trace at all — packets come straight out of the generators.
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(60_000);
    let deadline = cfg.drain.deadline(horizon);

    let trace = trace_for(&cfg, &tm, 0.8, horizon, 42);
    let mut batch = HbmSwitch::new(cfg.clone()).expect("valid config");
    let rb = batch.run_preloaded(&trace, deadline, &FaultPlan::default());

    let src = source_for(&cfg, &tm, 0.8, horizon, 42);
    let mut streaming = HbmSwitch::new(cfg.clone()).expect("valid config");
    streaming.run_source(src, deadline, &FaultPlan::default());
    let rs = streaming.into_report();

    assert_eq!(report_json(&rb), report_json(&rs));
}

/// The materialized reference for [`SpsRouter::plane_source`]: every
/// fiber's whole trace generated up front, each packet routed by the
/// split map of its arrival's photonic epoch or dropped at the front end
/// when its flow hashes onto a lost wavelength, and each plane's trace
/// sorted by `(arrival, input, id)`. The epochs are derived here from
/// the public [`FaultPlan::events`] and `FrontEnd::degraded_split`, not
/// from the library's own epoch table; an empty plan is the healthy
/// split. Returns the per-plane traces and the front-end drop totals.
fn reference_split(
    router: &SpsRouter,
    cfg: &RouterConfig,
    w: &SpsWorkload,
    horizon: SimTime,
    plan: &FaultPlan,
) -> (Vec<Vec<Packet>>, u64, DataSize) {
    let fe = router.front_end();
    // (start, split, lost[ribbon][lambda]) per epoch; events at one
    // instant collapse into a single epoch.
    let mut alive = vec![true; cfg.switches];
    let mut lost = vec![vec![false; cfg.wavelengths]; cfg.ribbons];
    let mut epochs = vec![(SimTime::ZERO, fe.split().clone(), lost.clone())];
    for ev in plan.events().iter().filter(|e| e.kind.is_photonic()) {
        let inject = matches!(ev.action, FaultAction::Inject);
        match ev.kind {
            FaultKind::WavelengthLoss { ribbon, lambda } => lost[ribbon][lambda] = inject,
            FaultKind::PlaneDown { switch } => alive[switch] = !inject,
            _ => unreachable!("filtered to photonic events"),
        }
        let split = if alive.iter().all(|&a| a) {
            fe.split().clone()
        } else {
            fe.degraded_split(&alive)
                .expect("a validated plan keeps a plane alive")
        };
        if epochs.last().is_some_and(|e| e.0 == ev.at) {
            epochs.pop();
        }
        epochs.push((ev.at, split, lost.clone()));
    }
    let f = cfg.fibers_per_ribbon;
    let mut per_switch: Vec<Vec<Packet>> = vec![Vec::new(); cfg.switches];
    let mut dropped_packets = 0u64;
    let mut dropped = DataSize::ZERO;
    for ribbon in 0..cfg.ribbons {
        let fiber_loads = w.fill.loads(f, w.load * f as f64);
        for (fiber, &load) in fiber_loads.iter().enumerate() {
            if load <= 0.0 {
                continue;
            }
            let mut g = PacketGenerator::new(
                ribbon,
                fe.fiber_rate(),
                load.min(1.0),
                w.tm.row(ribbon).to_vec(),
                w.sizes.clone(),
                w.process,
                w.flows,
                rip_sim::rng::derive_seed(w.seed, (ribbon * f + fiber) as u64),
            )
            .expect("valid generator");
            for p in g.generate_until(horizon) {
                let (_, split, lost) = &epochs[epochs.partition_point(|e| e.0 <= p.arrival) - 1];
                if lost[ribbon][lane_for(p.flow, cfg.wavelengths, HashKind::Crc32c)] {
                    dropped_packets += 1;
                    dropped += p.size;
                    continue;
                }
                per_switch[split.switch_for(ribbon, fiber)].push(p);
            }
        }
    }
    for t in per_switch.iter_mut() {
        t.sort_by_key(|p| (p.arrival, p.input, p.id));
    }
    (per_switch, dropped_packets, dropped)
}

#[test]
fn reference_split_routes_fibers_to_the_right_switch() {
    let cfg = RouterConfig::small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Sequential).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.5, 1);
    let horizon = SimTime::from_ns(20_000);
    let (traces, drops, _) = reference_split(&router, &cfg, &w, horizon, &FaultPlan::default());
    assert_eq!(traces.len(), 4);
    assert_eq!(drops, 0);
    // All traces non-empty and arrival-ordered.
    for t in &traces {
        assert!(!t.is_empty());
        assert!(t.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(t.iter().all(|p| p.input < 4 && p.output < 4));
    }
}

#[test]
fn plane_source_yields_exactly_the_reference_split() {
    let cfg = RouterConfig::resilience_small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.6, 11);
    let horizon = SimTime::from_ns(50_000);
    let (per_switch, _, _) = reference_split(&router, &cfg, &w, horizon, &FaultPlan::default());
    for (plane, batch) in per_switch.iter().enumerate() {
        let mut src = router.plane_source(&w, horizon, &FaultPlan::default(), plane);
        let mut streamed = Vec::new();
        while let Some(p) = src.next_packet() {
            streamed.push(p);
        }
        assert_eq!(
            &streamed, batch,
            "plane {plane} stream diverged from the reference split"
        );
        assert_eq!(src.front_end_dropped_packets(), 0);
    }
}

/// Every plane's streaming source against the faulted reference split:
/// identical per-plane packet sequences, and per-plane front-end drops
/// summing to the reference totals. Returns the reference traces and
/// drop count.
fn assert_plane_sources_match_faulted_split(
    router: &SpsRouter,
    cfg: &RouterConfig,
    w: &SpsWorkload,
    horizon: SimTime,
    plan: &FaultPlan,
) -> (Vec<Vec<Packet>>, u64) {
    let (per_switch, batch_drops, batch_dropped_bytes) =
        reference_split(router, cfg, w, horizon, plan);
    let mut fe_drops = 0u64;
    let mut fe_bytes = DataSize::ZERO;
    for (plane, batch) in per_switch.iter().enumerate() {
        let mut src = router.plane_source(w, horizon, plan, plane);
        let mut streamed = Vec::new();
        while let Some(p) = src.next_packet() {
            streamed.push(p);
        }
        assert_eq!(
            &streamed, batch,
            "plane {plane} faulted stream diverged from the reference split"
        );
        fe_drops += src.front_end_dropped_packets();
        fe_bytes += src.front_end_dropped();
    }
    assert_eq!(fe_drops, batch_drops);
    assert_eq!(fe_bytes, batch_dropped_bytes);
    (per_switch, batch_drops)
}

#[test]
fn plane_source_matches_faulted_split_including_drop_totals() {
    let cfg = RouterConfig::resilience_small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.6, 13);
    let horizon = SimTime::from_ns(60_000);
    let plan = FaultPlan::new()
        .inject(
            SimTime::from_ns(15_000),
            FaultKind::WavelengthLoss {
                ribbon: 0,
                lambda: 1,
            },
        )
        .recover(
            SimTime::from_ns(40_000),
            FaultKind::WavelengthLoss {
                ribbon: 0,
                lambda: 1,
            },
        );
    plan.validate(&cfg).expect("plan valid");
    let (_, drops) = assert_plane_sources_match_faulted_split(&router, &cfg, &w, horizon, &plan);
    assert!(drops > 0, "fault window should drop something");
}

#[test]
fn plane_source_follows_a_plane_down_re_splice_on_every_split() {
    // A plane that goes down and comes back re-splices its fibers onto
    // the survivors for one epoch: those fibers reach the survivors in
    // only that epoch, and reach the dead plane in only the others. A
    // wavelength loss across the re-splice makes the drop attribution
    // follow the moved fibers too.
    let cfg = RouterConfig::resilience_small();
    let w = SpsWorkload::uniform(cfg.ribbons, 0.6, 29);
    let horizon = SimTime::from_ns(60_000);
    let (down, up) = (SimTime::from_ns(20_000), SimTime::from_ns(40_000));
    let lost = FaultKind::WavelengthLoss {
        ribbon: 2,
        lambda: 0,
    };
    let plan = FaultPlan::new()
        .inject(down, FaultKind::PlaneDown { switch: 1 })
        .recover(up, FaultKind::PlaneDown { switch: 1 })
        .inject(SimTime::from_ns(10_000), lost)
        .recover(SimTime::from_ns(30_000), lost);
    plan.validate(&cfg).expect("plan valid");
    for pattern in [
        SplitPattern::Striped,
        SplitPattern::PseudoRandom { seed: 41 },
    ] {
        let router = SpsRouter::new(cfg.clone(), pattern).expect("valid config");
        let (per_switch, drops) =
            assert_plane_sources_match_faulted_split(&router, &cfg, &w, horizon, &plan);
        assert!(
            drops > 0,
            "{pattern:?}: the lost wavelength should drop something"
        );
        assert!(
            per_switch[1]
                .iter()
                .all(|p| p.arrival < down || p.arrival >= up),
            "{pattern:?}: the dead plane received traffic while down"
        );
        let (healthy, _, _) = reference_split(&router, &cfg, &w, horizon, &FaultPlan::default());
        let while_down =
            |t: &[Packet]| t.iter().filter(|p| (down..up).contains(&p.arrival)).count();
        for plane in [0, 2, 3] {
            assert!(
                while_down(&per_switch[plane]) > while_down(&healthy[plane]),
                "{pattern:?}: plane {plane} did not take over any of plane 1's fibers"
            );
        }
    }
}

#[test]
fn sps_streaming_run_matches_per_plane_batch_runs() {
    // The full router path (crossbeam threads fed by PlaneSource) must
    // equal running each plane's batch trace through the batch engine.
    let cfg = RouterConfig::resilience_small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.7, 19);
    let horizon = SimTime::from_ns(40_000);
    let r = router
        .run(&w, horizon, &FaultPlan::default(), None)
        .expect("healthy run");

    let (per_switch, _, _) = reference_split(&router, &cfg, &w, horizon, &FaultPlan::default());
    let deadline = cfg.drain.deadline(horizon);
    for (plane, trace) in per_switch.iter().enumerate() {
        let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
        let batch = sw.run_preloaded(trace, deadline, &FaultPlan::default());
        assert_eq!(
            report_json(&batch),
            report_json(&r.switches[plane].report),
            "plane {plane} SPS report diverged from its batch run"
        );
    }
}

#[test]
fn mimic_checker_matches_inline_batch_reference() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(40_000);
    let deadline = SimTime::from_ns(300_000);
    let trace = trace_for(&cfg, &tm, 0.7, horizon, 23);

    let streamed = MimicChecker::new(cfg.clone()).run(&trace, deadline);

    // Inline batch reference: ideal shadow over the trace, batch engine
    // for the HBM side, same lag definition.
    let mut ideal_sw = IdealOqSwitch::new(cfg.ribbons, cfg.port_rate());
    ideal_sw.run(&trace);
    let ideal = ideal_sw.departure_map();
    let mut sw = HbmSwitch::new(cfg).expect("valid config");
    let report = sw.run_preloaded(&trace, deadline, &FaultPlan::default());
    let mut compared = 0u64;
    let mut max_lag = rip_units::TimeDelta::ZERO;
    for d in &report.departures {
        let Some(&idep) = ideal.get(&d.packet) else {
            continue;
        };
        max_lag = max_lag.max(d.time.saturating_since(idep));
        compared += 1;
    }
    assert!(compared > 100);
    assert_eq!(streamed.compared, compared);
    assert_eq!(streamed.max_lag, max_lag);
}

#[test]
fn peak_in_flight_stays_flat_as_horizon_grows() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let run_at = |h: SimTime| {
        let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
        sw.run_source(
            source_for(&cfg, &tm, 0.8, h, 31),
            cfg.drain.deadline(h),
            &FaultPlan::default(),
        );
        sw.into_report()
    };
    let short = run_at(SimTime::from_ns(30_000));
    let long = run_at(SimTime::from_ns(90_000));
    assert!(
        long.offered_packets > 2 * short.offered_packets,
        "offered did not scale: {} -> {}",
        short.offered_packets,
        long.offered_packets
    );
    assert!(
        long.peak_in_flight_packets <= 2 * short.peak_in_flight_packets + 64,
        "in-flight working set grew with the horizon: {} -> {}",
        short.peak_in_flight_packets,
        long.peak_in_flight_packets
    );
    assert!(short.peak_in_flight_packets > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Byte identity holds for arbitrary seeds, loads and hotspot
    /// skews, not just the hand-picked cases above.
    #[test]
    fn streaming_equals_batch_for_random_workloads(
        seed in any::<u64>(),
        load in 0.3f64..0.95,
        hot in 0usize..2,
    ) {
        let cfg = RouterConfig::small();
        let tm = if hot == 0 {
            TrafficMatrix::uniform(cfg.ribbons, 1.0)
        } else {
            TrafficMatrix::hotspot(cfg.ribbons, 1.0, 0, 0.4)
        };
        let horizon = SimTime::from_ns(25_000);
        let deadline = cfg.drain.deadline(horizon);
        let trace = trace_for(&cfg, &tm, load, horizon, seed);

        let mut batch = HbmSwitch::new(cfg.clone()).expect("valid config");
        let rb = batch.run_preloaded(&trace, deadline, &FaultPlan::default());
        let mut streaming = HbmSwitch::new(cfg.clone()).expect("valid config");
        streaming.run_source(source_for(&cfg, &tm, load, horizon, seed), deadline, &FaultPlan::default());
        let rs = streaming.into_report();
        prop_assert_eq!(report_json(&rb), report_json(&rs));
    }
}
