//! Cross-checks between the closed-form analysis (`rip-analysis`) and
//! the device/switch simulators: the same numbers must emerge from both
//! sides, or one of them is wrong.

use rip_analysis::{datacenter, random_access};
use rip_baselines::MeshFabric;
use rip_hbm::{
    AccessPattern, Direction, HbmGeometry, HbmGroup, HbmTiming, PfiConfig, PfiController,
    RandomAccessController,
};
use rip_units::{DataRate, DataSize, TimeDelta};

fn one_stack() -> HbmGroup {
    HbmGroup::new(1, HbmGeometry::hbm4(), HbmTiming::hbm4())
}

#[test]
fn e1_simulated_reductions_match_the_closed_form() {
    for bytes in [64u64, 256, 1500] {
        let size = DataSize::from_bytes(bytes);
        let analytic = random_access::with_parallel_channels(size).reduction;
        let mut group = one_stack();
        let mut ctl = RandomAccessController::new(AccessPattern::ParallelChannels, 1);
        let sim = ctl.run(&mut group, 6400, size, Direction::Write).reduction;
        let err = (sim - analytic).abs() / analytic;
        assert!(
            err < 0.10,
            "{bytes} B: simulated {sim:.1} vs analytic {analytic:.1} ({err:.3})"
        );
    }
}

#[test]
fn e1_single_interface_matches_closed_form() {
    let size = DataSize::from_bytes(64);
    let analytic = random_access::single_logical_interface(size).reduction;
    let mut group = one_stack();
    let mut ctl = RandomAccessController::new(AccessPattern::SingleLogicalInterface, 1);
    let sim = ctl.run(&mut group, 400, size, Direction::Write).reduction;
    assert!(
        (sim - analytic).abs() / analytic < 0.05,
        "sim {sim:.0} vs analytic {analytic:.0}"
    );
}

#[test]
fn e2_pfi_utilization_exceeds_95_percent_on_the_device_model() {
    let mut group = one_stack();
    let mut pfi = PfiController::new(PfiConfig::reference(), &group).unwrap();
    let rep = pfi.run_sustained(&mut group, 600);
    assert!(rep.utilization > 0.95, "{}", rep.utilization);
    // Transitions land near the paper's ~2%.
    assert!(
        rep.turnaround_fraction > 0.005 && rep.turnaround_fraction < 0.03,
        "{}",
        rep.turnaround_fraction
    );
    // Hidden refresh: issued, and every bank within 2x the period.
    assert!(rep.refreshes > 0);
    assert!(rep.max_refresh_gap <= group.timing().t_refi_sb * 2);
}

#[test]
fn e6_mesh_bound_matches_measured_worst_case() {
    for k in [4, 6, 8, 10] {
        let m = MeshFabric::new(k, 1.0);
        let bound = m.worst_case_bound();
        let measured = m.throughput_factor(&m.bisection_tm());
        assert!(
            (measured - bound).abs() < 0.02,
            "k={k}: measured {measured} vs bound {bound}"
        );
    }
}

#[test]
fn e16_min_frame_floor_is_respected_by_the_pfi_validator() {
    // The closed-form floor says a full-stripe frame below
    // T·tRC·channel_rate cannot run at peak; the PFI validator must
    // reject the gamma/segment pair that would produce it.
    let group = one_stack();
    let floor = datacenter::min_frame(
        group.num_channels(),
        DataRate::from_gbps(640),
        TimeDelta::from_ns(30),
    );
    // gamma=2, S=1 KiB gives a frame of 64 KiB < floor (75 KiB): the
    // group span 2 x 12.8 ns < tRC 30 ns -> invalid.
    let cfg = PfiConfig {
        gamma: 2,
        segment: DataSize::from_kib(1),
        num_outputs: 4,
        stripe_channels: None,
        region_mode: rip_hbm::RegionMode::Static,
    };
    assert!(cfg.frame_size(group.num_channels()) < floor);
    assert!(cfg.validate(&group).is_err());
    // gamma=4 clears the floor and validates.
    let cfg = PfiConfig {
        gamma: 4,
        segment: DataSize::from_kib(1),
        num_outputs: 4,
        stripe_channels: None,
        region_mode: rip_hbm::RegionMode::Static,
    };
    assert!(cfg.frame_size(group.num_channels()) >= floor);
    cfg.validate(&group).expect("gamma=4 validates");
}

#[test]
fn e14_measured_delay_brackets_the_first_order_model() {
    // With padding off, the measured mean delay should sit within a
    // small factor of the fill/2 + HBM + drain/2 model.
    use rip_core::{HbmSwitch, RouterConfig};
    use rip_integration_tests::merge_streams;
    use rip_traffic::{ArrivalProcess, PacketGenerator, SizeDistribution, TrafficMatrix};
    use rip_units::SimTime;
    let mut cfg = RouterConfig::small();
    cfg.padding_and_bypass = false;
    cfg.batch_timeout_batches = 0;
    let load = 0.6;
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(150_000);
    let streams: Vec<_> = (0..cfg.ribbons)
        .map(|i| {
            let mut g = PacketGenerator::new(
                i,
                cfg.port_rate(),
                load,
                tm.row(i).to_vec(),
                SizeDistribution::Imix,
                ArrivalProcess::Poisson,
                128,
                rip_sim::rng::derive_seed(51, i as u64),
            )
            .unwrap();
            g.generate_until(horizon)
        })
        .collect();
    let sw = HbmSwitch::new(cfg.clone()).unwrap();
    let r = sw.run(&merge_streams(streams), SimTime::from_ns(900_000));
    let measured_ns = r.delays_ns().mean().unwrap();
    let hbm_frame_time = cfg.hbm_peak().transfer_time(cfg.frame_size());
    let model =
        datacenter::expected_switch_delay(cfg.frame_size(), cfg.port_rate(), load, hbm_frame_time);
    let model_ns = model.as_ns_f64();
    let ratio = measured_ns / model_ns;
    assert!(
        (0.5..3.0).contains(&ratio),
        "measured {measured_ns:.0} ns vs model {model_ns:.0} ns (ratio {ratio:.2})"
    );
}

#[test]
fn reference_energy_bookkeeping_is_consistent() {
    // OEO power computed from the converter equals the §4 figure used
    // by the analysis crate.
    let oeo = rip_photonics::OeoConverter::reference();
    let p = oeo.power_at(DataRate::from_gbps(81_920));
    let analysis = rip_analysis::power::reference().per_switch.oeo;
    assert!((p.watts() - analysis.watts()).abs() < 1e-9);
}
