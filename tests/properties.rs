//! Property-based tests on the workspace's core invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rip_baselines::IdealOqSwitch;
use rip_core::{BatchAssembler, CyclicalCrossbar, FaultKind, FaultPlan, HbmSwitch, RouterConfig};
use rip_integration_tests::trace_for;
use rip_photonics::{SplitMap, SplitPattern};
use rip_sim::stats::Histogram;
use rip_sim::EventQueue;
use rip_traffic::hash::{lane_for, HashKind};
use rip_traffic::{FlowKey, Packet, TrafficMatrix};
use rip_units::{DataRate, DataSize, SimTime};

proptest! {
    /// Batch assembly never loses, duplicates or reorders a byte, for
    /// arbitrary packet-size sequences, including jumbos that straddle
    /// several batches.
    #[test]
    fn batch_assembly_conserves_bytes(
        sizes in prop::collection::vec(1u64..9000, 1..200),
        outputs in 1usize..8,
    ) {
        let k = DataSize::from_kib(1);
        let mut a = BatchAssembler::new(0, outputs, k);
        let mut batches = Vec::new();
        let mut offered = 0u64;
        for (i, &s) in sizes.iter().enumerate() {
            offered += s;
            let p = Packet::new(i as u64, 0, i % outputs, DataSize::from_bytes(s), SimTime::ZERO);
            batches.extend(a.push(&p));
        }
        for o in 0..outputs {
            while let Some(b) = a.flush(o) {
                batches.push(b);
            }
        }
        // Conservation.
        let out: u64 = batches.iter().map(|b| b.payload().bytes()).sum();
        prop_assert_eq!(out, offered);
        // Every full batch is exactly k; every batch is k with padding.
        for b in &batches {
            prop_assert_eq!(b.size(), k);
        }
        // Per-output chunk streams reconstruct whole packets in order.
        for o in 0..outputs {
            let mut expected: Vec<(u64, u64)> = Vec::new(); // (id, size)
            for (i, &s) in sizes.iter().enumerate() {
                if i % outputs == o {
                    expected.push((i as u64, s));
                }
            }
            let mut iter = expected.into_iter();
            let mut cur: Option<(u64, u64, u64)> = iter.next().map(|(id, s)| (id, s, 0));
            for b in batches.iter().filter(|b| b.output == o) {
                for c in &b.chunks {
                    let (id, size, off) = cur.take().expect("chunk beyond expected packets");
                    prop_assert_eq!(c.packet, id);
                    prop_assert_eq!(c.offset, off);
                    let new_off = off + c.len.bytes();
                    prop_assert!(new_off <= size);
                    if c.is_last {
                        prop_assert_eq!(new_off, size);
                        cur = iter.next().map(|(id, s)| (id, s, 0));
                    } else {
                        cur = Some((id, size, new_off));
                    }
                }
            }
            prop_assert!(cur.is_none() || cur.map(|c| c.2) == Some(0) || cur.is_some());
        }
    }

    /// The cyclical crossbar is a permutation at every slot, and every
    /// input's slice walk starting at its start slot visits modules
    /// 0..n in order.
    #[test]
    fn crossbar_is_always_a_permutation(n in 1usize..64, slot in 0u64..10_000) {
        let xb = CyclicalCrossbar::new(n);
        let mut seen = vec![false; n];
        for i in 0..n {
            let m = xb.module_for(i, slot);
            prop_assert!(!seen[m]);
            seen[m] = true;
            prop_assert_eq!(xb.input_for(m, slot), i);
        }
        let input = (slot as usize) % n;
        let start = xb.next_start_slot(input, slot);
        for j in 0..n as u64 {
            prop_assert_eq!(xb.module_for(input, start + j), j as usize);
        }
    }

    /// Every split pattern assigns exactly alpha fibers of every ribbon
    /// to every switch.
    #[test]
    fn split_maps_are_alpha_regular(
        ribbons in 1usize..12,
        alpha in 1usize..6,
        switches in 1usize..12,
        seed in any::<u64>(),
    ) {
        let fibers = alpha * switches;
        for pattern in [
            SplitPattern::Sequential,
            SplitPattern::Striped,
            SplitPattern::PseudoRandom { seed },
        ] {
            let m = SplitMap::new(ribbons, fibers, switches, pattern).unwrap();
            for r in 0..ribbons {
                for s in 0..switches {
                    prop_assert_eq!(m.fibers_for(r, s).len(), alpha);
                }
            }
        }
    }

    /// Event queues deliver in non-decreasing time order and FIFO
    /// within equal times.
    #[test]
    fn event_queue_orders_deliveries(times in prop::collection::vec(0u64..1000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated among equal times");
                }
            }
            last = Some((t, i));
        }
    }

    /// Exact transfer-time arithmetic: ceil-rounded, monotone in size,
    /// and the inverse (data_in) never under-delivers.
    #[test]
    fn rate_arithmetic_is_consistent(
        bps in 1u64..10_000_000_000_000,
        bytes in 1u64..1_000_000,
    ) {
        let r = DataRate::from_bps(bps);
        let s = DataSize::from_bytes(bytes);
        let t = r.transfer_time(s);
        prop_assert!(t.as_ps() > 0);
        // Monotone.
        let t2 = r.transfer_time(s + DataSize::from_bytes(1));
        prop_assert!(t2 >= t);
        // data_in(t) >= s (ceil rounding can only over-cover).
        prop_assert!(r.data_in(t).bits() >= s.bits());
    }

    /// Histogram quantiles are monotone in q and bounded by min/max.
    #[test]
    fn histogram_quantiles_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= prev);
            prev = v;
        }
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(h.quantile(0.0).unwrap(), min);
        prop_assert_eq!(h.quantile(1.0).unwrap(), max);
    }

    /// Flow hashing always lands within the lane count and is stable.
    #[test]
    fn hash_lanes_in_range(
        src in any::<u32>(), dst in any::<u32>(),
        sp in any::<u16>(), dp in any::<u16>(),
        proto in any::<u8>(), lanes in 1usize..256,
    ) {
        let f = FlowKey { src_ip: src, dst_ip: dst, src_port: sp, dst_port: dp, proto };
        for kind in [HashKind::Fnv1a, HashKind::Crc32c] {
            let lane = lane_for(f, lanes, kind);
            prop_assert!(lane < lanes);
            prop_assert_eq!(lane, lane_for(f, lanes, kind));
        }
    }

    /// The ideal OQ switch is work-conserving and FIFO per output:
    /// departures are non-decreasing per output, each at least
    /// arrival + serialization.
    #[test]
    fn ideal_oq_invariants(
        arrivals in prop::collection::vec((0u64..10_000, 0usize..4, 64u64..1500), 1..100),
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort_by_key(|&(t, _, _)| t);
        let rate = DataRate::from_gbps(100);
        let mut sw = IdealOqSwitch::new(4, rate);
        let mut last_dep = [SimTime::ZERO; 4];
        for (i, &(t, o, s)) in sorted.iter().enumerate() {
            let p = Packet::new(i as u64, 0, o, DataSize::from_bytes(s), SimTime::from_ns(t));
            let d = sw.offer(&p);
            let min_dep = p.arrival + rate.transfer_time(p.size);
            prop_assert!(d.departure >= min_dep);
            prop_assert!(d.departure >= last_dep[o]);
            last_dep[o] = d.departure;
        }
    }

    /// Uniform and permutation matrices are admissible at load <= 1.
    #[test]
    fn canonical_matrices_admissible(n in 1usize..32, load in 0.0f64..1.0) {
        prop_assert!(TrafficMatrix::uniform(n, load).is_admissible());
        let perm: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
        prop_assert!(TrafficMatrix::permutation(&perm, load).unwrap().is_admissible());
    }
}

/// Generate a small, always-valid fault plan against
/// `RouterConfig::resilience_small()` (4 channels, 16 banks/channel):
/// one inject within the horizon, with an optional recover after it.
fn small_fault_plan(horizon_ns: u64) -> impl Strategy<Value = FaultPlan> {
    (
        (0usize..3, 0usize..4, 0usize..16), // fault kind, channel, bank
        1u64..20,                           // storm duration, us (for RefreshStorm)
        1..horizon_ns,                      // inject time, ns
        0..horizon_ns,                      // recover delay, ns; 0 = never recover
    )
        .prop_map(
            move |((which, channel, bank), storm_us, t_inject, recover_after)| {
                let kind = match which {
                    0 => FaultKind::HbmChannelDown { channel },
                    1 => FaultKind::HbmBankStuck { channel, bank },
                    _ => FaultKind::RefreshStorm {
                        duration: rip_units::TimeDelta::from_us(storm_us),
                    },
                };
                let mut plan = FaultPlan::new().inject(SimTime::from_ns(t_inject), kind);
                // Refresh storms schedule their own recovery; an explicit
                // Recover for them is rejected by validation.
                if recover_after > 0 && !matches!(kind, FaultKind::RefreshStorm { .. }) {
                    plan = plan.recover(SimTime::from_ns(t_inject + recover_after), kind);
                }
                plan
            },
        )
}

// Whole-switch properties run full discrete-event simulations, so they
// get far fewer cases than the cheap structural properties above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Packet conservation under any valid fault plan: once the switch
    /// drains, every offered packet was either delivered, dropped
    /// because of the fault, or dropped by ordinary congestion.
    #[test]
    fn faulted_switch_conserves_packets(
        plan in small_fault_plan(60_000),
        load in 0.3f64..0.8,
        seed in any::<u64>(),
    ) {
        let cfg = RouterConfig::resilience_small();
        plan.validate(&cfg).expect("strategy only builds valid plans");
        let horizon = SimTime::from_ns(60_000);
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let trace = trace_for(&cfg, &tm, load, horizon, seed);
        let sw = HbmSwitch::new(cfg).unwrap();
        let r = sw
            .run_with_faults(&trace, SimTime::from_ns(600_000), &plan)
            .expect("strategy only builds valid plans");
        prop_assert_eq!(
            r.delivered_packets + r.dropped_packets_fault + r.dropped_packets_congestion,
            trace.len() as u64,
            "delivered {} + fault {} + congestion {} != offered {}",
            r.delivered_packets,
            r.dropped_packets_fault,
            r.dropped_packets_congestion,
            trace.len(),
        );
    }

    /// A zero-event fault plan is byte-identical to the plain run: same
    /// deliveries, same departure times, no degraded accounting.
    #[test]
    fn empty_fault_plan_is_identity(seed in any::<u64>(), load in 0.3f64..0.9) {
        let cfg = RouterConfig::resilience_small();
        let horizon = SimTime::from_ns(30_000);
        let drain = SimTime::from_ns(300_000);
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let trace = trace_for(&cfg, &tm, load, horizon, seed);
        let plain = HbmSwitch::new(cfg.clone()).unwrap().run(&trace, drain);
        let faulted = HbmSwitch::new(cfg)
            .unwrap()
            .run_with_faults(&trace, drain, &FaultPlan::new())
            .expect("an empty plan is valid");
        prop_assert_eq!(plain.delivered_packets, faulted.delivered_packets);
        prop_assert_eq!(&plain.departures, &faulted.departures);
        prop_assert_eq!(faulted.time_degraded, rip_units::TimeDelta::ZERO);
        prop_assert_eq!(faulted.dropped_packets_fault, 0);
        prop_assert!(faulted.recovery_drain.is_none());
    }

    /// Fail-then-recover returns the sustained delivered rate to the
    /// healthy baseline: with 1-of-4 channels down for one window, the
    /// post-catch-up window delivers within 10% of the pre-fault one.
    #[test]
    fn recovery_restores_sustained_rate(seed in prop::sample::select(vec![7u64, 21, 42])) {
        let cfg = RouterConfig::resilience_small();
        let t = 150_000u64; // ns; window length, fault at t, recover 2t
        let plan = FaultPlan::new()
            .inject(SimTime::from_ns(t), FaultKind::HbmChannelDown { channel: 3 })
            .recover(SimTime::from_ns(2 * t), FaultKind::HbmChannelDown { channel: 3 });
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let trace = trace_for(&cfg, &tm, 0.75, SimTime::from_ns(4 * t), seed);
        let sizes: std::collections::HashMap<u64, u64> =
            trace.iter().map(|p| (p.id, p.size.bits())).collect();
        let sw = HbmSwitch::new(cfg).unwrap();
        let r = sw
            .run_with_faults(&trace, SimTime::from_ns(16 * t), &plan)
            .expect("plan valid for one switch");
        let window = |i: u64| -> u64 {
            r.departures
                .iter()
                .filter(|d| {
                    d.time >= SimTime::from_ns(i * t) && d.time < SimTime::from_ns((i + 1) * t)
                })
                .map(|d| sizes[&d.packet])
                .sum()
        };
        let healthy = window(0) as f64;
        let degraded = window(1) as f64 / healthy;
        let settled = window(3) as f64 / healthy;
        prop_assert!((0.6..=0.9).contains(&degraded), "degraded ratio {degraded:.3}");
        prop_assert!((0.9..=1.1).contains(&settled), "settled ratio {settled:.3}");
        prop_assert!(r.recovery_drain.is_some());
    }
}

/// `random_range(0..n)` as the vendored `rand` drew it before Lemire's
/// early-accept test: the `2⁶⁴ mod n` threshold division on every draw.
fn uniform_below_oracle(rng: &mut StdRng, n: u64) -> u64 {
    loop {
        let m = (rng.next_u64() as u128).wrapping_mul(n as u128);
        if m as u64 >= n.wrapping_neg() % n {
            return (m >> 64) as u64;
        }
    }
}

/// Draw 256 values below `n` through `random_range` and through the
/// oracle from identically seeded generators: every value and the
/// number of raw draws consumed must agree.
fn uniform_below_streams_agree(n: u64, seed: u64) -> Result<(), TestCaseError> {
    let mut fast = StdRng::seed_from_u64(seed);
    let mut oracle = StdRng::seed_from_u64(seed);
    for _ in 0..256 {
        prop_assert_eq!(
            fast.random_range(0..n),
            uniform_below_oracle(&mut oracle, n),
            "n = {}",
            n
        );
    }
    prop_assert_eq!(fast.state(), oracle.state(), "n = {}: draws consumed", n);
    Ok(())
}

#[test]
fn uniform_below_keeps_every_draw_at_the_edge_cases() {
    let mut ns: Vec<u64> = vec![1, 3, 5, 7, 100, 1_000_003, u64::MAX];
    ns.extend((0..64).map(|k| 1u64 << k));
    // Near 2⁶³ about half of all raw draws are rejected.
    ns.extend((0..32).flat_map(|k| [(1u64 << 63) - k, (1u64 << 63) + k]));
    for (i, &n) in ns.iter().enumerate() {
        uniform_below_streams_agree(n, i as u64).unwrap();
    }
}

proptest! {
    #[test]
    fn uniform_below_keeps_every_draw_of_the_old_formula(
        raw in 1u64..u64::MAX, shift in 0u32..64, seed in any::<u64>(),
    ) {
        uniform_below_streams_agree((raw >> shift).max(1), seed)?;
    }
}
