//! HBM timing-conformance suite.
//!
//! Every test records the command stream actually issued on each HBM
//! channel during a workload and replays it through the independent
//! [`TimingChecker`] oracle, which re-derives tRCD/tRP/tRAS/tFAW/
//! tWTR/tRTW, data-bus serialization and (for sustained schedules)
//! the per-bank refresh interval from nothing but the log, the timing
//! parameter set and the channel rate. A final negative test corrupts
//! a timing parameter and asserts the oracle catches the now-illegal
//! stream — proving the suite has teeth.

use rip_core::{FaultKind, FaultPlan, HbmSwitch, RouterConfig};
use rip_hbm::{HbmCommandKind, HbmGeometry, HbmGroup, HbmTiming, PfiConfig, PfiController};
use rip_integration_tests::{trace_for, TimingChecker};
use rip_traffic::{ReplaySource, TrafficMatrix};
use rip_units::{SimTime, TimeDelta};

/// Replay every channel's recorded stream; panic on any violation.
fn assert_conformant(sw: &HbmSwitch, what: &str) {
    let mut total = 0usize;
    for (i, ch) in sw.hbm().channels().enumerate() {
        let checker = TimingChecker::new(*ch.timing(), ch.rate(), ch.num_banks());
        let v = checker.replay(ch.commands());
        assert!(
            v.is_empty(),
            "{what}: channel {i}: {} violations, first: {:?}",
            v.len(),
            &v[..v.len().min(3)]
        );
        total += ch.commands().len();
    }
    assert!(total > 0, "{what}: no HBM commands recorded");
}

#[test]
fn uniform_workload_is_conformant() {
    let cfg = RouterConfig::resilience_small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let trace = trace_for(&cfg, &tm, 0.8, SimTime::from_ns(120_000), 11);
    let mut sw = HbmSwitch::new(cfg).expect("valid config");
    sw.set_hbm_command_recording(true);
    sw.run_source(
        ReplaySource::new(&trace),
        SimTime::from_ns(500_000),
        &FaultPlan::default(),
    )
    .expect("valid fault plan");
    assert_conformant(&sw, "uniform");
}

#[test]
fn hotspot_workload_is_conformant() {
    let cfg = RouterConfig::resilience_small();
    let tm = TrafficMatrix::hotspot(cfg.ribbons, 1.0, 0, 0.6);
    let trace = trace_for(&cfg, &tm, 0.8, SimTime::from_ns(120_000), 13);
    let mut sw = HbmSwitch::new(cfg).expect("valid config");
    sw.set_hbm_command_recording(true);
    sw.run_source(
        ReplaySource::new(&trace),
        SimTime::from_ns(500_000),
        &FaultPlan::default(),
    )
    .expect("valid fault plan");
    assert_conformant(&sw, "hotspot");
}

#[test]
fn faulted_workload_is_conformant() {
    // A channel dies mid-run and recovers, and a bank sticks: the
    // degraded-mode schedule must still obey every device timing rule.
    let cfg = RouterConfig::resilience_small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let trace = trace_for(&cfg, &tm, 0.6, SimTime::from_ns(160_000), 17);
    let plan = FaultPlan::new()
        .inject(
            SimTime::from_ns(40_000),
            FaultKind::HbmChannelDown { channel: 1 },
        )
        .recover(
            SimTime::from_ns(90_000),
            FaultKind::HbmChannelDown { channel: 1 },
        )
        .inject(
            SimTime::from_ns(60_000),
            FaultKind::HbmBankStuck {
                channel: 0,
                bank: 2,
            },
        );
    plan.validate(&cfg).expect("plan valid");
    let mut sw = HbmSwitch::new(cfg).expect("valid config");
    sw.set_hbm_command_recording(true);
    sw.run_source(ReplaySource::new(&trace), SimTime::from_ns(700_000), &plan)
        .expect("valid fault plan");
    assert_conformant(&sw, "faulted");
}

#[test]
fn pfi_sustained_schedule_is_conformant_including_refresh() {
    let mut group = HbmGroup::new(1, HbmGeometry::hbm4(), HbmTiming::hbm4());
    group.set_record_commands(true);
    let mut pfi = PfiController::new(PfiConfig::reference(), &group).expect("valid");
    pfi.run_sustained(&mut group, 600);
    for (i, ch) in group.channels().enumerate() {
        let checker =
            TimingChecker::new(*ch.timing(), ch.rate(), ch.num_banks()).with_refresh_interval();
        let v = checker.replay(ch.commands());
        assert!(
            v.is_empty(),
            "pfi: channel {i}: {} violations, first: {:?}",
            v.len(),
            &v[..v.len().min(3)]
        );
        assert!(
            !ch.commands().is_empty(),
            "pfi: channel {i} recorded nothing"
        );
    }
}

#[test]
fn reference_switch_is_conformant_including_refresh() {
    // The paper-scale plane the hidden-refresh claim is made on: 16
    // ports, 4 HBM4 stacks, 512 KiB frames, uniform IMIX at 0.8. Its
    // every REFsb comes from the PFI refresh pump, so the oracle checks
    // the pump's picks against tRFCsb and the refresh interval.
    let cfg = RouterConfig::reference();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(10_000);
    let trace = trace_for(&cfg, &tm, 0.8, horizon, 19);
    let deadline = cfg.drain.deadline(horizon);
    let mut sw = HbmSwitch::new(cfg).expect("valid config");
    sw.set_hbm_command_recording(true);
    sw.run_source(ReplaySource::new(&trace), deadline, &FaultPlan::default())
        .expect("valid fault plan");
    let mut refreshes = 0;
    for (i, ch) in sw.hbm().channels().enumerate() {
        let checker =
            TimingChecker::new(*ch.timing(), ch.rate(), ch.num_banks()).with_refresh_interval();
        let v = checker.replay(ch.commands());
        assert!(
            v.is_empty(),
            "reference: channel {i}: {} violations, first: {:?}",
            v.len(),
            &v[..v.len().min(3)]
        );
        refreshes += ch
            .commands()
            .iter()
            .filter(|c| c.kind == HbmCommandKind::RefreshSb)
            .count();
    }
    assert!(refreshes > 0, "reference: the refresh pump issued no REFsb");
}

#[test]
fn corrupted_timing_parameter_is_caught() {
    // Record a conformant PFI stream, then replay it against rule sets
    // with one deliberately tightened parameter each: the oracle must
    // reject the stream. This is the proof the suite can actually fail.
    let mut group = HbmGroup::new(1, HbmGeometry::hbm4(), HbmTiming::hbm4());
    group.set_record_commands(true);
    let mut pfi = PfiController::new(PfiConfig::reference(), &group).expect("valid");
    pfi.run_sustained(&mut group, 200);

    let mut slow_rcd = HbmTiming::hbm4();
    slow_rcd.t_rcd += TimeDelta::from_ns(16); // 32 ns
    let mut wide_faw = HbmTiming::hbm4();
    wide_faw.t_faw = TimeDelta::from_ns(80);
    for (name, corrupted) in [("tRCD doubled", slow_rcd), ("tFAW doubled", wide_faw)] {
        let violations: usize = group
            .channels()
            .map(|ch| {
                TimingChecker::new(corrupted, ch.rate(), ch.num_banks())
                    .replay(ch.commands())
                    .len()
            })
            .sum();
        assert!(
            violations > 0,
            "{name}: recorded stream should be illegal under the corrupted rule set"
        );
    }
}
