//! Deterministic fault-injection acceptance test: with 1-of-4 HBM
//! channels down between `T` and `2T`, the switch (a) sustains ~3/4 of
//! its healthy delivered rate while degraded, (b) loses nothing to the
//! fault at offered loads at or below 0.7 of the degraded capacity, and
//! (c) returns to the healthy baseline after recovery.
//!
//! The operating point (uniform IMIX/Poisson at load 0.75, `T` =
//! 150 us) was calibrated against `RouterConfig::resilience_small()`:
//! one dead channel is exactly 1/4 of a plane's HBM bandwidth, and 0.75
//! sits above the degraded capacity so the cliff is visible without
//! driving the healthy switch into saturation.

use std::collections::HashMap;

use rip_core::{
    ConfigError, FaultKind, FaultPlan, FaultPlanError, HbmSwitch, RouterConfig, SwitchReport,
};
use rip_hbm::PfiConfigError;
use rip_integration_tests::merge_streams;
use rip_sim::rng::derive_seed;
use rip_traffic::{ArrivalProcess, Packet, PacketGenerator, SizeDistribution, TrafficMatrix};
use rip_units::{DataSize, SimTime, TimeDelta};

const T: u64 = 150; // us; fault at T, recover at 2T, horizon 4T

fn uniform_trace(cfg: &RouterConfig, load: f64, horizon: SimTime, seed: u64) -> Vec<Packet> {
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let streams: Vec<_> = (0..cfg.ribbons)
        .map(|port| {
            let mut g = PacketGenerator::new(
                port,
                cfg.port_rate(),
                load * tm.row_load(port),
                tm.row(port).to_vec(),
                SizeDistribution::Imix,
                ArrivalProcess::Poisson,
                256,
                derive_seed(seed, port as u64),
            )
            .expect("valid generator");
            g.generate_until(horizon)
        })
        .collect();
    merge_streams(streams)
}

/// Delivered bits within `[from, to)`, from the departure log.
fn window_bits(
    r: &SwitchReport,
    sizes: &HashMap<u64, DataSize>,
    from: SimTime,
    to: SimTime,
) -> u64 {
    r.departures
        .iter()
        .filter(|d| d.time >= from && d.time < to)
        .map(|d| sizes[&d.packet].bits())
        .sum()
}

fn channel_down_plan() -> FaultPlan {
    FaultPlan::new()
        .inject(
            SimTime::from_ns(T * 1000),
            FaultKind::HbmChannelDown { channel: 3 },
        )
        .recover(
            SimTime::from_ns(2 * T * 1000),
            FaultKind::HbmChannelDown { channel: 3 },
        )
}

#[test]
fn degraded_rate_tracks_surviving_channels_and_recovers() {
    let cfg = RouterConfig::resilience_small();
    let plan = channel_down_plan();
    plan.validate(&cfg).expect("plan valid");

    let horizon = SimTime::from_ns(4 * T * 1000);
    let drain = SimTime::from_ns(16 * T * 1000);
    let trace = uniform_trace(&cfg, 0.75, horizon, 42);
    let sizes: HashMap<u64, DataSize> = trace.iter().map(|p| (p.id, p.size)).collect();

    let sw = HbmSwitch::new(cfg).expect("valid config");
    let r = sw
        .run_with_faults(&trace, drain, &plan)
        .expect("plan valid for one switch");

    let w = |i: u64| {
        window_bits(
            &r,
            &sizes,
            SimTime::from_ns(i * T * 1000),
            SimTime::from_ns((i + 1) * T * 1000),
        )
    };
    let healthy = w(0);
    let degraded = w(1);
    let settled = w(3);
    assert!(healthy > 0);

    // (a) With 1 of 4 channels dead, the sustained delivered rate drops
    // to roughly 3/4 of the healthy rate.
    let r_degraded = degraded as f64 / healthy as f64;
    assert!(
        (0.68..=0.82).contains(&r_degraded),
        "degraded/healthy = {r_degraded:.3}, expected ~0.75"
    );

    // (c) After recovery and catch-up, the delivered rate settles back
    // to the healthy baseline.
    let r_settled = settled as f64 / healthy as f64;
    assert!(
        (0.9..=1.1).contains(&r_settled),
        "settled/healthy = {r_settled:.3}, expected ~1.0"
    );

    // Occupancy drains back to the pre-fault baseline well within
    // another fault period of the recovery.
    let drain_time = r.recovery_drain.expect("recovery drain recorded");
    assert!(
        drain_time < TimeDelta::from_us(2 * T),
        "recovery drain {drain_time:?} too slow"
    );

    // Exact degraded-mode accounting: one 640 Gb/s channel dead for
    // exactly 150 us is 12,000,000 bytes of forgone HBM bandwidth.
    assert_eq!(r.time_degraded, TimeDelta::from_us(T));
    assert_eq!(r.capacity_lost, DataSize::from_bytes(12_000_000));
}

#[test]
fn no_fault_loss_below_degraded_capacity() {
    // (b) At offered load 0.5 (<= 0.7 of the 3/4 degraded capacity) the
    // fault causes zero loss of either kind: the input queues absorb
    // the transient and everything is delivered.
    let cfg = RouterConfig::resilience_small();
    let plan = channel_down_plan();

    let horizon = SimTime::from_ns(4 * T * 1000);
    let drain = SimTime::from_ns(16 * T * 1000);
    let trace = uniform_trace(&cfg, 0.5, horizon, 42);

    let sw = HbmSwitch::new(cfg).expect("valid config");
    let r = sw
        .run_with_faults(&trace, drain, &plan)
        .expect("plan valid for one switch");

    assert_eq!(r.dropped_packets_fault, 0, "fault-attributed drops");
    assert_eq!(r.dropped_packets_congestion, 0, "congestion drops");
    assert_eq!(r.delivered_packets, trace.len() as u64);
    assert_eq!(r.time_degraded, TimeDelta::from_us(T));
}

#[test]
fn unservable_channel_fault_is_a_typed_plan_error() {
    // With one channel per stripe subset, losing channel 0 leaves
    // subset 0 with no live channel. Validation must say so, at the
    // instant of the fault, instead of letting the switch panic there.
    let mut cfg = RouterConfig::small();
    cfg.stripe_channels = Some(1);
    cfg.validate()
        .expect("one-channel stripes are a valid config");
    let at = SimTime::from_ns(5_000);
    let plan = FaultPlan::new().inject(at, FaultKind::HbmChannelDown { channel: 0 });
    let err = plan
        .validate(&cfg)
        .expect_err("subset 0 has no live channel left");
    assert_eq!(
        err,
        FaultPlanError::Unservable {
            at,
            switch: 0,
            reason: PfiConfigError::SubsetDead { subset: 0 },
        }
    );
    assert!(
        err.to_string().contains("cannot be served"),
        "untyped message: {err}"
    );

    // The same fault on another plane's channel is reported on that
    // plane, and a recovery before the second fault keeps the plan
    // servable.
    let t = cfg.channels();
    let on_plane_1 = FaultPlan::new().inject(at, FaultKind::HbmChannelDown { channel: t });
    assert!(matches!(
        on_plane_1.validate(&cfg),
        Err(FaultPlanError::Unservable { switch: 1, .. })
    ));
    let mut wide = RouterConfig::small();
    wide.stripe_channels = None;
    let sequential = FaultPlan::new()
        .inject(at, FaultKind::HbmChannelDown { channel: 0 })
        .recover(
            SimTime::from_ns(10_000),
            FaultKind::HbmChannelDown { channel: 0 },
        )
        .inject(
            SimTime::from_ns(15_000),
            FaultKind::HbmChannelDown { channel: 1 },
        );
    sequential
        .validate(&wide)
        .expect("one dead channel at a time is servable");
}

#[test]
fn one_switch_run_checks_its_plan_against_switch_local_channels() {
    // Router-wide, channel T names plane 1's first channel and the plan
    // is valid. One switch has only channels 0..T, so running the same
    // plan on it is a typed error before anything runs — not an index
    // panic inside the HBM group.
    let cfg = RouterConfig::resilience_small();
    let t = cfg.channels();
    let at = SimTime::from_ns(T * 1000);
    let plan = FaultPlan::new().inject(at, FaultKind::HbmChannelDown { channel: t });
    plan.validate(&cfg)
        .expect("router-wide, channel T is on plane 1");
    let local = FaultPlanError::ChannelOutOfRange {
        channel: t,
        channels: t,
    };
    assert_eq!(plan.validate_switch(&cfg), Err(local.clone()));

    let trace = uniform_trace(&cfg, 0.5, SimTime::from_ns(2 * T * 1000), 42);
    let sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    let err = sw
        .run_with_faults(&trace, SimTime::from_ns(8 * T * 1000), &plan)
        .expect_err("channel T is outside one switch");
    assert_eq!(err, ConfigError::FaultPlan(local));
    assert!(
        err.to_string().contains("out of range"),
        "untyped message: {err}"
    );

    // An unservable plan is the same typed error on the one-switch path.
    let mut one_stripe = RouterConfig::small();
    one_stripe.stripe_channels = Some(1);
    let dead = FaultPlan::new().inject(at, FaultKind::HbmChannelDown { channel: 0 });
    let sw = HbmSwitch::new(one_stripe).expect("valid config");
    assert!(matches!(
        sw.run_with_faults(&trace, SimTime::from_ns(8 * T * 1000), &dead),
        Err(ConfigError::FaultPlan(FaultPlanError::Unservable {
            switch: 0,
            ..
        }))
    ));
}
