//! Regenerates every quantitative claim in the paper (experiments
//! E1–E20 of DESIGN.md) and prints paper-vs-measured tables.
//!
//! Usage: `repro [--quick] [E1 E5 ...]`
//!   --quick   shrink simulation horizons (CI-friendly)
//!   `E<n>`    run only the listed experiments
//!
//! An unknown experiment id, or a flag the mode does not take, is a
//! usage error (exit 2).
//!
//! `repro bench [--quick] [--live-epochs]` instead runs the
//! perf-trajectory benchmarks and writes `BENCH_sps_throughput.json`,
//! `BENCH_hbm_access.json`, `BENCH_streaming_memory.json` and
//! `BENCH_telemetry_overhead.json` (stable schema; all values except
//! the overhead bench's on-CPU-time fields are sim-time-derived, so two
//! same-seed runs are byte-identical). With `--live-epochs` the SPS
//! throughput run also streams per-plane epoch deltas and sampled
//! packet-lifecycle spans to `BENCH_sps_epochs.jsonl`.
//!
//! `repro profile-overhead [--quick]` measures the self-profiler's
//! cost: interleaved same-seed soak runs with the phase profiler off
//! and on (hub recording to its in-memory ring), timed by the thread's
//! on-CPU time, asserting the report and the live epoch stream stay
//! byte-identical either way. It writes `BENCH_profile_overhead.json`
//! and exits non-zero if the median paired overhead reaches 3%.
//!
//! `repro --version` prints the workspace build line (the same string
//! the metrics endpoints expose as their `_build_info` gauge).

use rip_analysis::{
    area, buffering, capacity, datacenter, internal_traffic, modularity, power, random_access,
    roadmap, sram,
};
use rip_baselines::{
    DesignPoint, LoadBalancedRouter, MeshFabric, ParallelPacketSwitch, SprayingHbmSwitch,
};
use rip_bench::{f, switch_trace, uniform_source, uniform_trace, version_line, Table};
use rip_core::{
    DrainPolicy, FaultPlan, HbmSwitch, LiveOptions, MimicChecker, RouterConfig, SpsRouter,
    SpsWorkload,
};
use rip_hbm::{
    AccessPattern, Direction, HbmGeometry, HbmGroup, HbmTiming, OpenPageController, PfiConfig,
    PfiController, RandomAccessController, RegionMode,
};
use rip_photonics::SplitPattern;
use rip_telemetry::TelemetrySink;
use rip_traffic::{ArrivalProcess, Attacker, FiberFill, SizeDistribution, TrafficMatrix};
use rip_units::{DataRate, DataSize, SimTime, TimeDelta};

struct Opts {
    quick: bool,
}

/// One experiment's table printer.
type Experiment = fn(&Opts);

/// Every experiment, in run order: `repro E<n>...` runs the named ones
/// (case-insensitive), bare `repro` runs them all.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("E1", e1),
    ("E2", e2),
    ("E3", e3),
    ("E4", e4),
    ("E5", e5),
    ("E6", e6),
    ("E7", e7),
    ("E8", e8),
    ("E9", e9),
    ("E10", e10),
    ("E11", e11),
    ("E12", e12),
    ("E13", e13),
    ("E14", e14),
    ("E15", e15),
    ("E16", e16),
    ("E17", e17),
    ("E18", e18),
    ("E19", e19),
    ("E20", e20),
];

/// The subcommands and the flags each accepts; the experiment run
/// (no subcommand) accepts `--quick` only.
const MODES: &[(&str, &[&str])] = &[
    ("bench", &["--quick", "--live-epochs"]),
    ("profile-overhead", &["--quick"]),
];

/// The usage text, built from [`EXPERIMENTS`] and [`MODES`].
fn usage() -> String {
    let first = EXPERIMENTS.first().map_or("", |e| e.0);
    let last = EXPERIMENTS.last().map_or("", |e| e.0);
    let mut text = format!("usage: repro [--quick] [{first}..{last} ...]");
    for (mode, flags) in MODES {
        text.push_str(&format!("\n       repro {mode}"));
        for flag in *flags {
            text.push_str(&format!(" [{flag}]"));
        }
    }
    text.push_str("\n       repro --version");
    text
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version") {
        println!("{}", version_line("repro"));
        return;
    }
    let (mode, accepted, rest) = match MODES
        .iter()
        .find(|m| args.first().is_some_and(|a| a == m.0))
    {
        Some(&(mode, flags)) => (mode, flags, &args[1..]),
        None => ("", &["--quick"][..], &args[..]),
    };
    let mut only = Vec::new();
    for a in rest {
        let (known, what) = if a.starts_with("--") {
            (accepted.contains(&a.as_str()), "flag")
        } else if mode.is_empty() {
            only.push(a.as_str());
            let known = EXPERIMENTS.iter().any(|e| e.0.eq_ignore_ascii_case(a));
            (known, "experiment")
        } else {
            (false, "argument")
        };
        if !known {
            eprintln!("repro: unknown {what} {a}\n{}", usage());
            std::process::exit(2);
        }
    }
    let quick = rest.iter().any(|a| a == "--quick");
    let live = rest.iter().any(|a| a == "--live-epochs");
    match mode {
        "bench" => return run_bench(quick, live),
        "profile-overhead" => return run_profile_overhead(quick),
        _ => {}
    }
    println!("Petabit Router-in-a-Package — experiment reproduction");
    println!("mode: {}", if quick { "quick" } else { "full" });
    let opts = Opts { quick };
    for (id, run) in EXPERIMENTS {
        if only.is_empty() || only.iter().any(|a| a.eq_ignore_ascii_case(id)) {
            run(&opts);
        }
    }
    println!("\ndone.");
}

/// A one-stack HBM4 group (32 channels) — big enough to reproduce the
/// full-interface numbers, small enough to simulate quickly.
fn one_stack() -> HbmGroup {
    HbmGroup::new(1, HbmGeometry::hbm4(), HbmTiming::hbm4())
}

// --------------------------------------------------------------------
// E1 — random-access throughput reduction (§3.1 Challenge 6)
// --------------------------------------------------------------------
fn e1(o: &Opts) {
    let n_acc: u64 = if o.quick { 2_000 } else { 20_000 };
    let mut t = Table::new(&["variant", "packet", "analytic x", "simulated x", "paper"]);
    let cases = [
        (
            "parallel channels",
            DataSize::from_bytes(1500),
            AccessPattern::ParallelChannels,
            "2.6x",
        ),
        (
            "parallel channels",
            DataSize::from_bytes(64),
            AccessPattern::ParallelChannels,
            "39x",
        ),
        (
            "single logical interface",
            DataSize::from_bytes(64),
            AccessPattern::SingleLogicalInterface,
            "up to 1,250x",
        ),
    ];
    for (name, size, pattern, paper) in cases {
        let analytic = match pattern {
            AccessPattern::ParallelChannels => random_access::with_parallel_channels(size),
            AccessPattern::SingleLogicalInterface => random_access::single_logical_interface(size),
        };
        let mut group = one_stack();
        let mut ctl = RandomAccessController::new(pattern, 0xE1);
        let acc = if pattern == AccessPattern::SingleLogicalInterface {
            n_acc / 10
        } else {
            n_acc
        };
        let rep = ctl.run(&mut group, acc, size, Direction::Write);
        t.row(&[
            name.into(),
            format!("{size}"),
            f(analytic.reduction, 1),
            f(rep.reduction, 1),
            paper.into(),
        ]);
    }
    t.print("E1  Worst-case random access: throughput reduction vs peak");
    println!("(PFI instead runs at peak — see E2.)");

    // E1b ablation: how much row locality would a demand-oblivious
    // open-page design need? (Pipelined, i.e. more generous than the
    // paper's model.)
    let mut t = Table::new(&["row-hit probability", "reduction vs peak (64 B)"]);
    for locality in [0.0, 0.5, 0.9, 0.99] {
        let mut group = one_stack();
        let mut op = OpenPageController::new(locality, 0xE1B);
        let rep = op.run(
            &mut group,
            n_acc / 2,
            DataSize::from_bytes(64),
            Direction::Write,
        );
        t.row(&[f(locality, 2), format!("{:.1}x", rep.reduction)]);
    }
    t.print("E1b Open-page ablation: locality needed to approach peak (PFI manufactures 1.0)");
}

// --------------------------------------------------------------------
// E2 — PFI reaches peak HBM rate; ~2% transitions; hidden refresh
// --------------------------------------------------------------------
fn e2(o: &Opts) {
    let frames = if o.quick { 400 } else { 4_000 };
    let mut group = one_stack();
    let cfg = PfiConfig::reference();
    let mut pfi = PfiController::new(cfg, &group).expect("valid");
    let rep = pfi.run_sustained(&mut group, frames);
    let mut t = Table::new(&["metric", "measured", "paper"]);
    t.row(&[
        "sustained utilization".into(),
        format!("{:.1}%", rep.utilization * 100.0),
        "peak (100% baseline)".into(),
    ]);
    t.row(&[
        "write/read transition loss".into(),
        format!("{:.2}%", rep.turnaround_fraction * 100.0),
        "~2% of cycle".into(),
    ]);
    t.row(&[
        "achieved rate (1 stack)".into(),
        format!("{}", rep.achieved),
        "20.48 Tb/s peak".into(),
    ]);
    t.row(&[
        "REFsb issued / max gap".into(),
        format!("{} / {}", rep.refreshes, rep.max_refresh_gap),
        "hidden, no cycle impact".into(),
    ]);
    t.print("E2  PFI sustained duty cycle on the HBM4 device model");

    // Ablation: refresh disabled (shows the engine is doing real work).
    let mut group2 = one_stack();
    let mut pfi2 = PfiController::new(cfg, &group2).expect("valid");
    pfi2.set_refresh_enabled(false);
    let rep2 = pfi2.run_sustained(&mut group2, frames);
    println!(
        "ablation: refresh off -> utilization {:.1}% (refresh costs {:.2}% of peak)",
        rep2.utilization * 100.0,
        (rep2.utilization - rep.utilization) * 100.0
    );
}

// --------------------------------------------------------------------
// E3 — 100% throughput for admissible traffic
// --------------------------------------------------------------------
fn e3(o: &Opts) {
    let cfg = RouterConfig::small();
    let horizon_us = if o.quick { 60 } else { 200 };
    let horizon = SimTime::from_ns(horizon_us * 1000);
    let drain = SimTime::from_ns(horizon_us * 4000);
    let mut t = Table::new(&["traffic matrix", "load", "delivered", "drops"]);
    let perm: Vec<usize> = (0..cfg.ribbons).map(|i| (i + 1) % cfg.ribbons).collect();
    let tms: Vec<(String, TrafficMatrix)> = vec![
        ("uniform".into(), TrafficMatrix::uniform(cfg.ribbons, 1.0)),
        (
            "permutation".into(),
            TrafficMatrix::permutation(&perm, 1.0).unwrap(),
        ),
        (
            "hotspot (admissible)".into(),
            TrafficMatrix::hotspot(cfg.ribbons, 1.0, 0, 1.0 / cfg.ribbons as f64),
        ),
        (
            "log-normal skew".into(),
            TrafficMatrix::log_normal(cfg.ribbons, 1.0, 1.0, 3),
        ),
    ];
    // The 12 (matrix, load) cells are independent simulations: fan them
    // out over scoped threads.
    let cells: Vec<(usize, f64)> = (0..tms.len())
        .flat_map(|i| [0.5, 0.8, 0.95].into_iter().map(move |l| (i, l)))
        .collect();
    let results: Vec<(String, f64, String, String)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .iter()
            .map(|&(i, load)| {
                let (name, tm) = &tms[i];
                let cfg = cfg.clone();
                scope.spawn(move |_| {
                    let trace = switch_trace(
                        &cfg,
                        tm,
                        load,
                        SizeDistribution::Imix,
                        ArrivalProcess::Poisson,
                        horizon,
                        0xE3,
                    );
                    let sw = HbmSwitch::new(cfg).unwrap();
                    let r = sw.run(&trace, drain);
                    (
                        name.clone(),
                        load,
                        format!("{:.3}%", r.delivery_fraction * 100.0),
                        format!("{}", r.dropped_input + r.dropped_frames),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cell"))
            .collect()
    })
    .expect("scope");
    for (name, load, delivered, drops) in results {
        t.row(&[name, f(load, 2), delivered, drops]);
    }
    t.print("E3  HBM switch throughput under admissible traffic (paper: 100%)");
}

// --------------------------------------------------------------------
// E4 — OQ mimicking lag vs speedup
// --------------------------------------------------------------------
fn e4(o: &Opts) {
    let mut cfg = RouterConfig::small();
    cfg.hbm_geometry.channels_per_stack = 16; // headroom for speedup
    cfg.drain = DrainPolicy::HorizonFactor { factor: 8 };
    let horizon_us: u64 = if o.quick { 40 } else { 120 };
    let horizon = SimTime::from_ns(horizon_us * 1000);
    let trace = uniform_trace(&cfg, 0.85, horizon, 0xE4);
    let deadline = cfg.drain.deadline(horizon);
    let mut t = Table::new(&["speedup", "mean lag", "p99 lag", "max lag", "compared"]);
    for speedup in [1.0, 1.25, 1.5, 2.0] {
        let mut c = cfg.clone();
        c.speedup = speedup;
        let r = MimicChecker::new(c).run(&trace, deadline);
        t.row(&[
            f(speedup, 2),
            format!("{}", r.mean_lag),
            format!("{}", r.p99_lag),
            format!("{}", r.max_lag),
            format!("{}", r.compared),
        ]);
    }
    t.print(
        "E4  OQ-mimicking: departure lag vs ideal OQ switch (paper: finite with small speedup)",
    );
}

// --------------------------------------------------------------------
// E5 — fiber splitting patterns under fill-order skew
// --------------------------------------------------------------------
fn e5(o: &Opts) {
    let cfg = RouterConfig::small();
    let fills: Vec<(String, FiberFill)> = vec![
        ("uniform (hashed)".into(), FiberFill::Uniform),
        (
            "first-filled 25%".into(),
            FiberFill::FirstFilled {
                used: cfg.fibers_per_ribbon / 4,
            },
        ),
        ("linear decay".into(), FiberFill::Linear),
        ("geometric 0.7".into(), FiberFill::Geometric { ratio: 0.7 }),
    ];
    let patterns: Vec<(String, SplitPattern)> = vec![
        ("sequential".into(), SplitPattern::Sequential),
        ("striped".into(), SplitPattern::Striped),
        (
            "pseudo-random".into(),
            SplitPattern::PseudoRandom { seed: 0xE5 },
        ),
    ];
    let mut t = Table::new(&["fiber fill", "split", "max switch load", "fluid loss"]);
    for (fname, fill) in &fills {
        for (pname, pattern) in &patterns {
            let router = SpsRouter::new(cfg.clone(), *pattern).unwrap();
            let mut w = SpsWorkload::uniform(cfg.ribbons, 0.25, 0xE5);
            w.fill = *fill;
            let loads = router.fluid_loads(&w);
            let max = loads.iter().flatten().cloned().fold(0.0, f64::max);
            t.row(&[
                fname.clone(),
                pname.clone(),
                f(max, 3),
                format!("{:.2}%", router.fluid_loss(&w) * 100.0),
            ]);
        }
    }
    t.print("E5  SPS split patterns vs fill-order skew (paper: sequential overloads switch 0)");

    // Packet-level confirmation on the worst case.
    let horizon_us: u64 = if o.quick { 30 } else { 100 };
    let horizon = SimTime::from_ns(horizon_us * 1000);
    for (pname, pattern) in [
        ("sequential", SplitPattern::Sequential),
        ("pseudo-random", SplitPattern::PseudoRandom { seed: 0xE5 }),
    ] {
        let router = SpsRouter::new(cfg.clone(), pattern).unwrap();
        let mut w = SpsWorkload::uniform(cfg.ribbons, 0.22, 0xE5);
        w.fill = FiberFill::FirstFilled {
            used: cfg.fibers_per_ribbon / 4,
        };
        let r = router
            .run(&w, horizon, &FaultPlan::default(), None)
            .expect("healthy run");
        println!(
            "DES check [{pname}]: offered {}, loss {:.2}%, switch-load imbalance {:.2}x",
            r.offered,
            r.loss_fraction * 100.0,
            r.load_imbalance
        );
    }
}

// --------------------------------------------------------------------
// E6 — mesh guaranteed capacity (§2.1 Challenge 2)
// --------------------------------------------------------------------
fn e6(_: &Opts) {
    let mut t = Table::new(&[
        "mesh",
        "bound 2c/k",
        "measured worst case",
        "mean hops",
        "pass-through work",
    ]);
    for k in [4, 6, 8, 10, 12] {
        let m = MeshFabric::new(k, 1.0);
        let tm = m.bisection_tm();
        t.row(&[
            format!("{k}x{k}"),
            format!("{:.0}%", m.worst_case_bound() * 100.0),
            format!("{:.0}%", m.throughput_factor(&tm) * 100.0),
            f(m.mean_hops_uniform(), 2),
            format!("{:.0}%", m.pass_through_fraction() * 100.0),
        ]);
    }
    t.print("E6  Mesh of smaller switches: guaranteed capacity (paper: 20% for 10x10, 80% wasted)");
}

// --------------------------------------------------------------------
// E7 — OEO conversions across the design space (§2.1 Challenge 3)
// --------------------------------------------------------------------
fn e7(_: &Opts) {
    let total_io = DataRate::from_bps(1_310_720_000_000_000);
    let mut t = Table::new(&[
        "design",
        "OEO conversions/packet",
        "OEO power @1.31 Pb/s",
        "guaranteed throughput",
    ]);
    for (name, conv, p) in power::oeo_design_space(total_io) {
        let design = match name.as_str() {
            s if s.contains("SPS") => DesignPoint::Sps,
            s if s.contains("centralized") => DesignPoint::Centralized,
            s if s.contains("Clos") => DesignPoint::ThreeStage,
            _ => DesignPoint::Mesh { k: 10 },
        };
        t.row(&[
            name,
            f(conv, 2),
            format!("{p}"),
            format!("{:.0}%", design.guaranteed_throughput() * 100.0),
        ]);
    }
    t.print("E7  Design space: OEO conversion cost (paper: 3 stages => 3x conversions; SPS = 1)");
}

// --------------------------------------------------------------------
// E8 — buffer sizing (§4)
// --------------------------------------------------------------------
fn e8(_: &Opts) {
    let r = buffering::reference();
    let mut t = Table::new(&["quantity", "value", "paper"]);
    t.row(&[
        "total buffering".into(),
        format!("{}", r.total),
        "4.096 TB".into(),
    ]);
    t.row(&[
        "ms of buffering at 655.36 Tb/s".into(),
        f(r.milliseconds, 1),
        "~51.2 ms".into(),
    ]);
    t.row(&[
        "vs Van Jacobson 1xBDP (100 ms RTT)".into(),
        format!("{:.2}x", r.vs_van_jacobson),
        "in line".into(),
    ]);
    t.row(&[
        "vs Stanford rule (100k flows)".into(),
        format!("{:.0}x", r.vs_stanford),
        "much more".into(),
    ]);
    t.print("E8  Router buffer sizing");
    let mut c = Table::new(&["buffering datapoint", "ms"]);
    for (name, ms) in buffering::comparison_rows() {
        c.row(&[name, f(ms, 1)]);
    }
    c.print("E8b Industry comparison (§4)");
}

// --------------------------------------------------------------------
// E9 — SRAM budget vs reordering alternative (§4)
// --------------------------------------------------------------------
fn e9(o: &Opts) {
    let (worst, exp) = sram::reference();
    let mut t = Table::new(&["component", "worst case", "expected occupancy"]);
    t.row(&[
        "input ports".into(),
        format!("{}", worst.input_ports),
        format!("{}", exp.input_ports),
    ]);
    t.row(&[
        "tail SRAM".into(),
        format!("{}", worst.tail),
        format!("{}", exp.tail),
    ]);
    t.row(&[
        "head SRAM".into(),
        format!("{}", worst.head),
        format!("{}", exp.head),
    ]);
    t.row(&[
        "total".into(),
        format!("{}", worst.total),
        format!("{}", exp.total),
    ]);
    t.print("E9  SRAM budget per HBM switch (paper total: 14.5 MB, between our two models)");

    // Measured: frame-forming SRAM (PFI) vs resequencing buffer
    // (spraying) at the same scaled configuration and load.
    let cfg = RouterConfig::small();
    let horizon_us: u64 = if o.quick { 50 } else { 150 };
    let horizon = SimTime::from_ns(horizon_us * 1000);
    let trace = uniform_trace(&cfg, 0.9, horizon, 0xE9);
    let sw = HbmSwitch::new(cfg.clone()).unwrap();
    let r = sw.run(&trace, SimTime::from_ns(horizon_us * 4000));
    let pfi_sram = r.tail_peak + r.head_peak + r.input_peak;
    let spray = SprayingHbmSwitch::new(
        cfg.channels(),
        cfg.hbm_geometry.channel_rate(),
        TimeDelta::from_ns(30),
        0xE9,
    );
    let sr = spray.run(&trace, cfg.ribbons);
    println!(
        "measured @small config, load 0.9: PFI staging SRAM peak {} vs spraying reorder buffer peak {} \
         (and spraying only delivers 1/{:.1} of peak)",
        pfi_sram, sr.peak_reorder, sr.reduction
    );
}

// --------------------------------------------------------------------
// E10 — power estimate (§4)
// --------------------------------------------------------------------
fn e10(_: &Opts) {
    let r = power::reference();
    let p = r.per_switch;
    let mut t = Table::new(&["component", "per HBM switch", "paper"]);
    t.row(&[
        "processing + SRAM (Tomahawk-5 scaled)".into(),
        format!("{}", p.processing),
        "400 W".into(),
    ]);
    t.row(&[
        "4 x HBM4 stacks".into(),
        format!("{}", p.hbm),
        "300 W".into(),
    ]);
    t.row(&[
        "OEO @81.92 Tb/s".into(),
        format!("{}", p.oeo),
        "94 W".into(),
    ]);
    t.row(&[
        "total per switch".into(),
        format!("{}", p.total()),
        "794 W".into(),
    ]);
    t.row(&[
        "router total (16 switches)".into(),
        format!("{}", r.total()),
        "12.7 kW".into(),
    ]);
    t.row(&[
        "vs Cerebras WSE-3 (23 kW)".into(),
        format!("{:.2}x", r.vs_cerebras()),
        "just above half".into(),
    ]);
    t.row(&[
        "shares proc/HBM/OEO".into(),
        format!(
            "{:.0}% / {:.0}% / {:.0}%",
            r.processing_share() * 100.0,
            r.hbm_share() * 100.0,
            r.oeo_share() * 100.0
        ),
        "~50% / 40% / rest".into(),
    ]);
    t.print("E10 Power estimate");

    // Bottom-up cross-check: activity-based HBM power measured from the
    // commands the device model executed under sustained PFI.
    let mut group = one_stack();
    let mut pfi = PfiController::new(PfiConfig::reference(), &group).expect("valid");
    let rep = pfi.run_sustained(&mut group, 2_000);
    let model = rip_hbm::HbmEnergyModel::hbm4();
    println!(
        "cross-check: activity-based HBM power at peak duty = {} per stack \
         (datasheet figure used above: 75 W)",
        model.stack_power(&group, rep.elapsed)
    );
}

// --------------------------------------------------------------------
// E11 — area estimate (§4)
// --------------------------------------------------------------------
fn e11(_: &Opts) {
    let a = area::reference();
    let mut t = Table::new(&["quantity", "value", "paper"]);
    t.row(&[
        "per switch".into(),
        format!("{}", a.per_switch),
        "1,284 mm^2".into(),
    ]);
    t.row(&[
        "16 switches".into(),
        format!("{}", a.total),
        "20,544 mm^2".into(),
    ]);
    t.row(&[
        "fraction of 500x500 mm panel".into(),
        format!("{:.1}%", a.panel_fraction * 100.0),
        "under 10%".into(),
    ]);
    t.print("E11 Area estimate");
}

// --------------------------------------------------------------------
// E12 — capacity increase (§5)
// --------------------------------------------------------------------
fn e12(_: &Opts) {
    let c = capacity::reference();
    let mut t = Table::new(&["quantity", "value", "paper"]);
    t.row(&[
        "router ingress".into(),
        format!("{}", c.router_ingress),
        "655.36 Tb/s".into(),
    ]);
    t.row(&[
        "Cisco 8201-32FH (1RU)".into(),
        format!("{}", c.cisco_ingress),
        "12.8 Tb/s".into(),
    ]);
    t.row(&[
        "ratio".into(),
        format!("{:.1}x", c.ratio),
        "over 50x; 1-2 orders of magnitude per area".into(),
    ]);
    t.print("E12 Capacity per space vs today's routers");
}

// --------------------------------------------------------------------
// E13 — memory roadmap (§5)
// --------------------------------------------------------------------
fn e13(_: &Opts) {
    let mut t = Table::new(&[
        "generation",
        "stacks needed per switch",
        "memory area",
        "memory power",
        "I/O with 4 stacks",
    ]);
    for p in roadmap::table() {
        t.row(&[
            p.generation.name().into(),
            format!("{}", p.stacks_per_switch),
            format!("{}", p.memory_area_per_switch),
            format!("{}", p.memory_power_per_switch),
            format!("{}", p.io_with_four_stacks),
        ]);
    }
    t.print("E13 Router evolution with future memories (paper: 4x / 10x)");
}

// --------------------------------------------------------------------
// E14 — latency: padding and bypass (§4)
// --------------------------------------------------------------------
fn e14(o: &Opts) {
    let horizon_us: u64 = if o.quick { 40 } else { 120 };
    let horizon = SimTime::from_ns(horizon_us * 1000);
    let drain = SimTime::from_ns(horizon_us * 30_000);
    let mut t = Table::new(&[
        "load",
        "padding+bypass",
        "mean delay",
        "p99 delay",
        "delivered",
        "padding overhead",
    ]);
    for load in [0.05, 0.2, 0.5, 0.8] {
        for pb in [true, false] {
            let mut cfg = RouterConfig::small();
            cfg.padding_and_bypass = pb;
            if !pb {
                cfg.batch_timeout_batches = 0;
            }
            let trace = uniform_trace(&cfg, load, horizon, 0xE14);
            let sw = HbmSwitch::new(cfg).unwrap();
            let r = sw.run(&trace, drain);
            let mean = r.delays_ns().mean().unwrap_or(f64::NAN) / 1000.0;
            let p99 = r.delays_ns().quantile(0.99).unwrap_or(f64::NAN) / 1000.0;
            t.row(&[
                f(load, 2),
                if pb { "on" } else { "off" }.into(),
                format!("{mean:.2} us"),
                format!("{p99:.2} us"),
                format!("{:.1}%", r.delivery_fraction * 100.0),
                format!(
                    "{:.1}%",
                    r.padded_bytes.bytes() as f64 / r.offered_bytes.bytes().max(1) as f64 * 100.0
                ),
            ]);
        }
    }
    t.print("E14 Frame-fill latency: padding & HBM bypass (paper: they cut low-load latency)");
}

// --------------------------------------------------------------------
// E15 — ECMP/LAG hashing evens the per-switch TMs (§4)
// --------------------------------------------------------------------
fn e15(o: &Opts) {
    let cfg = RouterConfig::small();
    // Fluid: per-switch load CV under hashed (uniform) vs skewed fills.
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Sequential).unwrap();
    let mut t = Table::new(&["fiber loading", "per-switch load CV"]);
    for (name, fill) in [
        ("ECMP/LAG-hashed (uniform)", FiberFill::Uniform),
        ("unhashed, first-filled", FiberFill::FirstFilled { used: 4 }),
    ] {
        let mut w = SpsWorkload::uniform(cfg.ribbons, 0.25, 0xE15);
        w.fill = fill;
        let loads = router.fluid_loads(&w);
        let flat: Vec<f64> = loads.iter().flatten().cloned().collect();
        let mean = flat.iter().sum::<f64>() / flat.len() as f64;
        let var = flat.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / flat.len() as f64;
        t.row(&[name.into(), f(var.sqrt() / mean, 3)]);
    }
    t.print("E15 Traffic evenness at HBM switches (paper: hashing => even TMs)");

    // Egress side: output ports hash flows over alpha x W lanes.
    let horizon = SimTime::from_ns(if o.quick { 40_000 } else { 120_000 });
    let trace = uniform_trace(&cfg, 0.8, horizon, 0xE15);
    let sw = HbmSwitch::new(cfg).unwrap();
    let r = sw.run(&trace, SimTime::from_ps(horizon.as_ps() * 4));
    println!(
        "egress lane spread CV across fibers x wavelengths: {:.3} (0 = perfectly even)",
        r.lane_spread_cv
    );
}

// --------------------------------------------------------------------
// E16 — datacenter variant: smaller frames (§5)
// --------------------------------------------------------------------
fn e16(_: &Opts) {
    let rows = datacenter::sweep(
        128,
        4,
        DataSize::from_kib(1),
        DataRate::from_gbps(2560),
        0.5,
    );
    let mut t = Table::new(&[
        "stripe T'",
        "frame K'",
        "fill @50%",
        "drain",
        "total latency",
    ]);
    for r in rows.iter().take(6) {
        t.row(&[
            format!("{}", r.stripe_channels),
            format!("{}", r.frame),
            format!("{}", r.fill_latency),
            format!("{}", r.drain_latency),
            format!("{}", r.total_latency),
        ]);
    }
    t.print("E16 Datacenter variant: smaller frames => lower latency (paper §5)");
    let floor = datacenter::min_frame(128, DataRate::from_gbps(640), TimeDelta::from_ns(30));
    println!("full-stripe frame floor at peak rate: {floor} (gamma*S >= tRC x channel rate)");
}

// --------------------------------------------------------------------
// E17 — adversarial exploitation of the split pattern (§2.1)
// --------------------------------------------------------------------
fn e17(_: &Opts) {
    let (ribbons, fibers, switches) = (16usize, 64usize, 16usize);
    let mk = |p: SplitPattern| {
        rip_photonics::SplitMap::new(ribbons, fibers, switches, p).expect("valid split")
    };
    let seq = mk(SplitPattern::Sequential);
    let striped = mk(SplitPattern::Striped);
    let secret = mk(SplitPattern::PseudoRandom { seed: 0x5EC1 });
    let wrong = mk(SplitPattern::PseudoRandom { seed: 0xBAD });
    let atk = Attacker::new(32.0);
    let mut t = Table::new(&[
        "true split",
        "attacker belief",
        "victim load",
        "concentration (1=diffuse, H=perfect)",
    ]);
    let cases: [(
        &str,
        &str,
        &rip_photonics::SplitMap,
        &rip_photonics::SplitMap,
    ); 4] = [
        ("sequential", "sequential (correct)", &seq, &seq),
        ("striped", "striped (correct)", &striped, &striped),
        ("pseudo-random", "sequential (wrong)", &seq, &secret),
        (
            "pseudo-random",
            "pseudo-random, wrong seed",
            &wrong,
            &secret,
        ),
    ];
    for (truth_name, belief_name, believed, truth) in cases {
        let out = atk.evaluate(believed, truth, 0);
        t.row(&[
            truth_name.to_string(),
            belief_name.to_string(),
            f(out.victim_load, 2),
            f(out.concentration, 2),
        ]);
    }
    t.print("E17 Adversarial split exploitation (paper: pseudo-random pattern resists)");
}

// --------------------------------------------------------------------
// E18 — buffer sharing: static regions vs dynamic pages (§3.2)
// --------------------------------------------------------------------
fn e18(o: &Opts) {
    let horizon_us: u64 = if o.quick { 200 } else { 500 };
    let mut t = Table::new(&["region allocation", "dropped", "delivered", "pointer SRAM"]);
    for (name, mode) in [
        ("static 1/N regions", RegionMode::Static),
        (
            "dynamic pages (8 rows)",
            RegionMode::DynamicPages { page_rows: 8 },
        ),
    ] {
        let mut cfg = RouterConfig::small();
        cfg.hbm_geometry.stack_capacity = DataSize::from_mib(32);
        cfg.region_mode = mode;
        let tm = TrafficMatrix::hotspot(cfg.ribbons, 1.0, 0, 0.6);
        let trace = switch_trace(
            &cfg,
            &tm,
            0.9,
            SizeDistribution::Imix,
            ArrivalProcess::Poisson,
            SimTime::from_ns(horizon_us * 1000),
            0xE18,
        );
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        let r = sw.run(&trace, SimTime::from_ns(horizon_us * 1300));
        let pfi = PfiController::new(
            cfg.pfi(),
            &rip_hbm::HbmGroup::new(cfg.stacks_per_switch, cfg.hbm_geometry, cfg.hbm_timing),
        )
        .unwrap();
        t.row(&[
            name.into(),
            format!("{}", r.dropped_bytes),
            format!("{:.1}%", r.delivery_fraction * 100.0),
            format!("{}", pfi.pointer_sram()),
        ]);
    }
    t.print(
        "E18 Buffer sharing under an inadmissible hotspot, 32 MiB stack \
         (paper §3.2: dynamic pages need only a small pointer SRAM)",
    );
}

// --------------------------------------------------------------------
// E19 — internal traffic savings + modularity (§5, §2.2)
// --------------------------------------------------------------------
fn e19(_: &Opts) {
    let mut t = Table::new(&[
        "PoP composition",
        "port capacity bought per unit served",
        "internal-traffic share",
    ]);
    for (name, mult, frac) in internal_traffic::table() {
        t.row(&[name, format!("{mult:.2}x"), format!("{:.0}%", frac * 100.0)]);
    }
    t.print("E19 WAN capacity spent interconnecting smaller routers (§5)");
    let (frac, freed) = internal_traffic::reference_savings();
    let boxes = internal_traffic::boxes_needed(
        DataRate::from_bps(655_360_000_000_000),
        DataRate::from_gbps(12_800),
        3,
    );
    println!(
        "serving 655.36 Tb/s with 12.8 Tb/s boxes in a 3-stage Clos: {boxes} boxes, \
         {:.0}% of their ports carrying internal traffic ({freed} of port capacity freed \
         by one package)",
        frac * 100.0
    );

    let mut t = Table::new(&[
        "deployment",
        "switches/package",
        "I/O per package",
        "power per package",
        "area per package",
    ]);
    for d in modularity::table() {
        t.row(&[
            format!("{} package(s)", d.packages),
            format!("{}", d.switches_per_package),
            format!("{}", d.io_per_package),
            format!("{}", d.power_per_package),
            format!("{}", d.area_per_package),
        ]);
    }
    t.print("E19b Modularity: one dense package vs 16 parallel packages (§2.2)");
}

// --------------------------------------------------------------------
// E20 — what SPS avoids: per-packet balancing designs measured
// --------------------------------------------------------------------
fn e20(o: &Opts) {
    let cfg = RouterConfig::small();
    let n = cfg.ribbons;
    let rate = cfg.port_rate();
    let horizon = SimTime::from_ns(if o.quick { 60_000 } else { 200_000 });
    let trace = uniform_trace(&cfg, 0.9, horizon, 0xE20);

    let mut t = Table::new(&[
        "design",
        "OEO stages",
        "mean delay",
        "reordered",
        "peak reorder buffer",
    ]);

    let lb = LoadBalancedRouter::new(n, rate).run(&trace);
    t.row(&[
        "load-balanced router [38]".into(),
        format!("{}", lb.oeo_stages),
        format!("{}", lb.mean_delay),
        format!("{:.1}%", lb.reordered_fraction * 100.0),
        format!("{}", lb.peak_reorder),
    ]);
    let pps = ParallelPacketSwitch::new(n, 4, rate, 2.0).run(&trace);
    t.row(&[
        "parallel packet switch [31] (s=2)".into(),
        format!("{}", pps.oeo_stages),
        format!("{}", pps.mean_delay),
        format!("{:.1}%", pps.reordered_fraction * 100.0),
        format!("{}", pps.peak_reorder),
    ]);
    let sw = HbmSwitch::new(cfg.clone()).unwrap();
    let r = sw.run(&trace, SimTime::from_ps(horizon.as_ps() * 4));
    let mean = r
        .delays_ns()
        .mean()
        .map(|ns| format!("{:.3} us", ns / 1000.0))
        .unwrap_or_default();
    t.row(&[
        "SPS HBM switch (this paper)".into(),
        "1".into(),
        mean,
        "0.0% (frame FIFO)".into(),
        "0 B (no resequencer)".into(),
    ]);
    t.print("E20 Per-packet balancing designs vs SPS at 0.9 load (paper §2.1 Design 3)");
}

// --------------------------------------------------------------------
// `repro bench` — the perf trajectory (BENCH_*.json emission)
// --------------------------------------------------------------------

/// `BENCH_sps_throughput.json`: end-to-end SPS throughput/latency on
/// the scaled router. Every value is derived from sim time and
/// deterministic counters — never wall-clock.
#[derive(serde::Serialize)]
struct SpsThroughputBench {
    schema: &'static str,
    config: &'static str,
    seed: u64,
    load: f64,
    horizon_ns: u64,
    offered_bytes: u64,
    delivered_bytes: u64,
    loss_fraction: f64,
    load_imbalance: f64,
    delivered_gbps: f64,
    delay_mean_ns: f64,
    delay_p50_ns: f64,
    delay_p99_ns: f64,
    frame_fill_efficiency: f64,
    frames_written: u64,
    frames_bypassed: u64,
    hbm_row_hit_ratio: f64,
    hbm_faw_stall_ps: u64,
    hbm_wtr_turnaround_ps: u64,
    oeo_energy_joules: f64,
}

/// `BENCH_hbm_access.json`: device-level sustained PFI + random-access
/// baselines on one HBM4 stack.
#[derive(serde::Serialize)]
struct HbmAccessBench {
    schema: &'static str,
    frames: u64,
    pfi_utilization: f64,
    pfi_achieved_gbps: f64,
    pfi_turnaround_fraction: f64,
    pfi_refreshes: u64,
    pfi_row_hit_ratio: f64,
    pfi_faw_stall_ps: u64,
    cmd_act: u64,
    cmd_pre: u64,
    cmd_rd: u64,
    cmd_wr: u64,
    cmd_ref: u64,
    random_1500b_reduction: f64,
    random_64b_reduction: f64,
}

/// `BENCH_streaming_memory.json`: the E22 long-horizon soak sweep. The
/// streaming engine's working set is its peak in-flight packet count;
/// `batch_trace_bytes` is the documented counterfactual — what a
/// materialized trace of the same run would occupy, growing linearly
/// with the horizon while `peak_in_flight_packets` stays flat.
#[derive(serde::Serialize)]
struct StreamingMemoryBench {
    schema: &'static str,
    config: &'static str,
    seed: u64,
    load: f64,
    /// The run's `DrainPolicy` factor: simulated time as a multiple of
    /// the arrival horizon.
    drain_horizon_factor: u64,
    horizons_ns: Vec<u64>,
    offered_packets: Vec<u64>,
    delivered_packets: Vec<u64>,
    peak_in_flight_packets: Vec<u64>,
    batch_trace_bytes: Vec<u64>,
}

/// `BENCH_telemetry_overhead.json` (E23): on-CPU cost of the live
/// epoch/span stream vs the silent path on the standard SPS config, and
/// of an armed but out-of-window Chrome trace vs no trace, each the
/// median of `pairs` interleaved off/on pairs ([`paired_overhead`]).
/// The `*_cpu_ms` and overhead fields are the only non-deterministic
/// values any BENCH file carries — they are what "overhead" means — and
/// CI pins only the schema keys, never values, so they stay outside the
/// byte-diff contract. The stream-shape fields (`epochs_emitted`, `span_events`,
/// `epoch_stream_bytes`) are fully deterministic.
#[derive(serde::Serialize)]
struct TelemetryOverheadBench {
    schema: &'static str,
    config: &'static str,
    seed: u64,
    load: f64,
    horizon_ns: u64,
    epoch_ns: u64,
    sample_one_in: u64,
    epochs_emitted: u64,
    span_events: u64,
    epoch_stream_bytes: u64,
    pairs: u64,
    silent_cpu_ms: f64,
    live_cpu_ms: f64,
    overhead_fraction: f64,
    /// On-CPU time of the HBM switch with no tracing at all.
    trace_silent_cpu_ms: f64,
    /// Same run with the Chrome command trace enabled but its recording
    /// window entirely outside the simulated interval: the hook cost of
    /// command capture with zero events exported.
    trace_outwindow_cpu_ms: f64,
    trace_outwindow_overhead_fraction: f64,
}

/// Run the streaming engine at `load` over `horizon` and return its
/// consuming report (no trace is ever materialized).
fn stream_run(
    cfg: &RouterConfig,
    load: f64,
    horizon: SimTime,
    seed: u64,
) -> rip_core::SwitchReport {
    let src = uniform_source(cfg, load, horizon, seed);
    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    sw.run_source(src, cfg.drain.deadline(horizon), &FaultPlan::default())
        .expect("an empty fault plan is valid");
    sw.into_report()
}

fn write_json<T: serde::Serialize>(path: &str, value: &T) {
    // Serialization and I/O failures are reporting problems, not
    // simulation bugs: report them and exit nonzero instead of
    // panicking with a backtrace.
    let mut body = match serde_json::to_string_pretty(value) {
        Ok(body) => body,
        Err(e) => {
            eprintln!("repro: cannot serialize {path}: {e}");
            std::process::exit(1);
        }
    };
    body.push('\n');
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("repro: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

fn run_bench(quick: bool, live: bool) {
    println!("Petabit Router-in-a-Package — benchmark emission");
    println!("mode: {}", if quick { "quick" } else { "full" });

    // SPS end-to-end throughput at 0.8 load on the scaled router.
    let cfg = RouterConfig::small();
    let seed = 0xBE7C;
    let load = 0.8;
    let horizon = SimTime::from_ns(if quick { 40_000 } else { 200_000 });
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, load, seed);
    let r = if live {
        // Same run, but every plane streams epoch deltas and sampled
        // lifecycle spans; the merged stream lands in a JSONL file.
        let f = match std::fs::File::create("BENCH_sps_epochs.jsonl") {
            Ok(f) => f,
            Err(e) => {
                eprintln!("repro: cannot create BENCH_sps_epochs.jsonl: {e}");
                std::process::exit(1);
            }
        };
        let mut sink = rip_telemetry::JsonlSink::new(std::io::BufWriter::new(f));
        let opts = LiveOptions {
            period: TimeDelta::from_ns(2_000),
            sample_one_in: 64,
        };
        let r = router
            .run(&w, horizon, &FaultPlan::default(), Some((opts, &mut sink)))
            .expect("healthy run");
        sink.flush();
        println!("wrote BENCH_sps_epochs.jsonl ({} records)", sink.records());
        r
    } else {
        router
            .run(&w, horizon, &FaultPlan::default(), None)
            .expect("healthy run")
    };
    // Merge per-plane delay histograms in plane order (deterministic).
    let mut delays = rip_sim::stats::Histogram::new();
    for s in &r.switches {
        delays.merge_from(&s.report.delays_ns());
    }
    let span_ps: u64 = r
        .switches
        .iter()
        .map(|s| s.report.span.as_ps())
        .max()
        .unwrap_or(0);
    let delivered_gbps = if span_ps == 0 {
        0.0
    } else {
        r.delivered.bits() as f64 / (span_ps as f64 * 1e-12) / 1e9
    };
    let m = &r.metrics;
    let sps = SpsThroughputBench {
        schema: "rip-bench/sps_throughput/v1",
        config: "small",
        seed,
        load,
        horizon_ns: horizon.as_ps() / 1000,
        offered_bytes: r.offered.bytes(),
        delivered_bytes: r.delivered.bytes(),
        loss_fraction: r.loss_fraction,
        load_imbalance: r.load_imbalance,
        delivered_gbps,
        delay_mean_ns: delays.mean().unwrap_or(0.0),
        delay_p50_ns: delays.quantile(0.5).unwrap_or(0.0),
        delay_p99_ns: delays.quantile(0.99).unwrap_or(0.0),
        frame_fill_efficiency: m
            .gauge("switch.frame.fill_efficiency")
            .map_or(0.0, |g| g.value),
        frames_written: m.counter("switch.frames.written"),
        frames_bypassed: m.counter("switch.frames.bypass"),
        hbm_row_hit_ratio: m.gauge("hbm.row_hit_ratio").map_or(0.0, |g| g.value),
        hbm_faw_stall_ps: m.counter("hbm.faw_stall_ps"),
        hbm_wtr_turnaround_ps: m.counter("hbm.wtr_turnaround_ps"),
        oeo_energy_joules: r
            .switches
            .iter()
            .filter_map(|s| s.report.metrics.gauge("phy.oeo_energy_j"))
            .map(|g| g.value)
            .sum(),
    };
    write_json("BENCH_sps_throughput.json", &sps);

    // Device-level: sustained PFI duty cycle + random-access baselines.
    let frames: u64 = if quick { 400 } else { 4_000 };
    let mut group = one_stack();
    let mut pfi = PfiController::new(PfiConfig::reference(), &group).expect("valid");
    let rep = pfi.run_sustained(&mut group, frames);
    let (mut hits, mut misses, mut faw_ps) = (0u64, 0u64, 0u64);
    let (mut act, mut pre, mut rd, mut wr, mut refr) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for ch in group.channels() {
        let s = ch.stats();
        hits += s.row_hits.get();
        misses += s.row_misses.get();
        faw_ps += s.faw_stall.total().as_ps();
        act += s.activates.get();
        pre += s.precharges.get();
        rd += s.reads.get();
        wr += s.writes.get();
        refr += s.refreshes.get();
    }
    let n_acc: u64 = if quick { 1_000 } else { 10_000 };
    let mut g1 = one_stack();
    let r1500 = RandomAccessController::new(AccessPattern::ParallelChannels, 0xBE7C).run(
        &mut g1,
        n_acc,
        DataSize::from_bytes(1500),
        Direction::Write,
    );
    let mut g64 = one_stack();
    let r64 = RandomAccessController::new(AccessPattern::ParallelChannels, 0xBE7C).run(
        &mut g64,
        n_acc,
        DataSize::from_bytes(64),
        Direction::Write,
    );
    let hbm = HbmAccessBench {
        schema: "rip-bench/hbm_access/v1",
        frames,
        pfi_utilization: rep.utilization,
        pfi_achieved_gbps: rep.achieved.bps() as f64 / 1e9,
        pfi_turnaround_fraction: rep.turnaround_fraction,
        pfi_refreshes: rep.refreshes,
        pfi_row_hit_ratio: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        pfi_faw_stall_ps: faw_ps,
        cmd_act: act,
        cmd_pre: pre,
        cmd_rd: rd,
        cmd_wr: wr,
        cmd_ref: refr,
        random_1500b_reduction: r1500.reduction,
        random_64b_reduction: r64.reduction,
    };
    write_json("BENCH_hbm_access.json", &hbm);

    // E22 — streaming-engine memory vs horizon: offered work grows with
    // the horizon, the engine's in-flight working set does not.
    let soak_cfg = RouterConfig::small();
    let soak_seed = 0x50AC;
    let soak_load = 0.8;
    let base_ns: u64 = if quick { 20_000 } else { 100_000 };
    let horizons_ns: Vec<u64> = vec![base_ns, base_ns * 2, base_ns * 4];
    let mut offered = Vec::new();
    let mut delivered = Vec::new();
    let mut peaks = Vec::new();
    let mut batch_bytes = Vec::new();
    for &h_ns in &horizons_ns {
        let r = stream_run(&soak_cfg, soak_load, SimTime::from_ns(h_ns), soak_seed);
        offered.push(r.offered_packets);
        delivered.push(r.delivered_packets);
        peaks.push(r.peak_in_flight_packets);
        batch_bytes.push(r.offered_packets * std::mem::size_of::<rip_traffic::Packet>() as u64);
    }
    let streaming = StreamingMemoryBench {
        schema: "rip-bench/streaming_memory/v2",
        config: "small",
        seed: soak_seed,
        load: soak_load,
        drain_horizon_factor: match soak_cfg.drain {
            DrainPolicy::HorizonFactor { factor } => factor,
        },
        horizons_ns,
        offered_packets: offered,
        delivered_packets: delivered,
        peak_in_flight_packets: peaks,
        batch_trace_bytes: batch_bytes,
    };
    write_json("BENCH_streaming_memory.json", &streaming);

    // E23 — telemetry overhead: the live epoch/span stream vs the
    // silent path, identical seed and horizon.
    let tel_seed = 0x0B5E;
    let tel_load = 0.8;
    let tel_horizon = SimTime::from_ns(if quick { 20_000 } else { 60_000 });
    let tel_opts = LiveOptions {
        period: TimeDelta::from_ns(5_000),
        sample_one_in: 256,
    };
    let tel_router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let tel_w = SpsWorkload::uniform(cfg.ribbons, tel_load, tel_seed);
    // Nothing gates these two figures, so a few dozen pairs will do.
    let tel_pairs = if quick { 25 } else { 100 };
    let mut stream = Vec::new();
    let live_cost = paired_overhead(tel_pairs, |live| {
        let mut buf: Vec<u8> = Vec::with_capacity(1 << 20);
        let mut sink = rip_telemetry::JsonlSink::new(&mut buf);
        let opts = live.then_some((tel_opts, &mut sink as &mut dyn TelemetrySink));
        let (r, ns) = on_cpu(|| sps_run_here(&tel_router, &tel_w, tel_horizon, cfg.switches, opts));
        drop(sink);
        assert!(r.offered.bytes() > 0);
        if live {
            stream = buf;
        }
        ns
    });
    let (mut epochs, mut spans) = (0u64, 0u64);
    for line in stream.split(|&b| b == b'\n') {
        if line.starts_with(b"{\"record\":\"epoch\"") {
            epochs += 1;
        } else if line.starts_with(b"{\"record\":\"span\"") {
            spans += 1;
        }
    }

    // The same question for the command-level Chrome trace: an HBM
    // switch run with tracing enabled but the recording window entirely
    // past the simulated interval must stay within the <5% budget too —
    // the per-command capture hook is the whole cost, no events export.
    let far =
        rip_telemetry::TraceWindow::new(SimTime::from_ps(u64::MAX - 1), SimTime::from_ps(u64::MAX))
            .expect("valid out-of-range window");
    let trace_cost = paired_overhead(tel_pairs, |traced| {
        let src = uniform_source(&cfg, tel_load, tel_horizon, tel_seed);
        let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
        if traced {
            sw.enable_chrome_trace(far);
        }
        let deadline = cfg.drain.deadline(tel_horizon);
        let ((), ns) = on_cpu(|| {
            sw.run_source(src, deadline, &FaultPlan::default())
                .expect("an empty fault plan is valid")
        });
        let rec = sw.take_chrome_trace().unwrap_or_default();
        assert!(
            rec.is_empty(),
            "out-of-window trace exported {} events",
            rec.len()
        );
        assert!(sw.into_report().offered_packets > 0);
        ns
    });

    let tel = TelemetryOverheadBench {
        schema: "rip-bench/telemetry_overhead/v3",
        config: "small",
        seed: tel_seed,
        load: tel_load,
        horizon_ns: tel_horizon.as_ps() / 1000,
        epoch_ns: tel_opts.period.as_ps() / 1000,
        sample_one_in: tel_opts.sample_one_in,
        epochs_emitted: epochs,
        span_events: spans,
        epoch_stream_bytes: stream.len() as u64,
        pairs: tel_pairs,
        silent_cpu_ms: live_cost.off_ms,
        live_cpu_ms: live_cost.on_ms,
        overhead_fraction: live_cost.frac,
        trace_silent_cpu_ms: trace_cost.off_ms,
        trace_outwindow_cpu_ms: trace_cost.on_ms,
        trace_outwindow_overhead_fraction: trace_cost.frac,
    };
    write_json("BENCH_telemetry_overhead.json", &tel);
    println!(
        "telemetry overhead: silent {:.1} ms, live {:.1} ms on CPU \
         ({:+.1}%, target < 5%), {epochs} epochs + {spans} spans = {} bytes",
        live_cost.off_ms,
        live_cost.on_ms,
        live_cost.frac * 100.0,
        stream.len()
    );
    println!(
        "trace overhead (out-of-window): silent {:.1} ms, traced {:.1} ms on CPU \
         ({:+.1}%, target < 5%)",
        trace_cost.off_ms,
        trace_cost.on_ms,
        trace_cost.frac * 100.0
    );
    println!("\ndone.");
}

// --------------------------------------------------------------------
// Overhead measurement — the one statistic behind every on/off figure
// --------------------------------------------------------------------

/// The calling thread's on-CPU time in ns: the first field of
/// `/proc/thread-self/schedstat`. The kernel folds a running thread's
/// time into that field only at scheduler events (otherwise once a
/// tick, several ms), so yield first to bring it up to date.
fn thread_cpu_ns() -> u64 {
    std::thread::yield_now();
    let ns = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok());
    ns.unwrap_or_else(|| {
        eprintln!("repro: cannot read the thread's on-CPU time from /proc/thread-self/schedstat");
        std::process::exit(1);
    })
}

/// Run `f` and return its result with the calling thread's on-CPU time
/// over it, in ns. Unlike wall time it leaves out the time the thread
/// waits for a core, which on a shared host is most of the noise.
fn on_cpu<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = thread_cpu_ns();
    let r = f();
    (r, thread_cpu_ns().saturating_sub(t0))
}

/// The cost of the "on" arm of a comparison over its "off" arm.
struct Overhead {
    /// Median on-CPU time of the off arm, ms.
    off_ms: f64,
    /// Median on-CPU time of the on arm, ms.
    on_ms: f64,
    /// Median over the pairs of on/off − 1.
    frac: f64,
}

/// Run `pairs` off/on pairs of `arm(on)`, alternating which arm goes
/// first, and take the median of the per-pair time ratios. Each call
/// returns the on-CPU ns of the work under test (from [`on_cpu`], so
/// setup and checks stay out of the timing). Pairing cancels host drift
/// slower than one pair, and the median discards the pairs that a
/// burst of contention hit.
fn paired_overhead(pairs: u64, mut arm: impl FnMut(bool) -> u64) -> Overhead {
    let (mut offs, mut ons, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pairs {
        let (off, on) = if i % 2 == 0 {
            let off = arm(false);
            (off, arm(true))
        } else {
            let on = arm(true);
            (arm(false), on)
        };
        offs.push(off as f64 / 1e6);
        ons.push(on as f64 / 1e6);
        ratios.push(on as f64 / off.max(1) as f64);
    }
    Overhead {
        off_ms: median(offs),
        on_ms: median(ons),
        frac: median(ratios) - 1.0,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// [`SpsRouter::run`] with the planes run one after another on the
/// calling thread instead of one thread each, so [`on_cpu`] sees the
/// whole router's work. The report and stream are byte-identical to
/// `run`'s: a plane's result does not depend on where it ran.
fn sps_run_here(
    router: &SpsRouter,
    w: &SpsWorkload,
    horizon: SimTime,
    planes: usize,
    live: Option<(LiveOptions, &mut dyn TelemetrySink)>,
) -> rip_core::SpsReport {
    let (opts, sink) = live.unzip();
    let results = (0..planes).flat_map(|p| {
        router
            .run_planes(w, horizon, &FaultPlan::default(), opts, &[p])
            .expect("healthy run")
    });
    router.finish_run(results, horizon, sink)
}

// --------------------------------------------------------------------
// `repro profile-overhead` — self-profiler cost
// --------------------------------------------------------------------

/// `BENCH_profile_overhead.json` (E30): on-CPU cost of the phase
/// profiler on the streaming soak workload, the median of `pairs`
/// interleaved off/on pairs ([`paired_overhead`]). `cpu_off_ms`,
/// `cpu_on_ms` and `overhead_frac` are the measurement (the only
/// non-deterministic fields); `byte_identical` records the assertion the run makes before
/// writing anything — the switch report and the live epoch stream are
/// byte-for-byte the same with the profiler off and on, across every
/// run. CI pins the schema keys and gates `overhead_frac < 0.03`.
#[derive(serde::Serialize)]
struct ProfileOverheadBench {
    schema: &'static str,
    config: &'static str,
    seed: u64,
    load: f64,
    horizon_ns: u64,
    epoch_ns: u64,
    pairs: u64,
    cpu_off_ms: f64,
    cpu_on_ms: f64,
    overhead_frac: f64,
    byte_identical: bool,
    profile_records: u64,
}

/// One live-telemetry soak run, profiler optionally attached; returns
/// the serialized report, the replayed epoch/span stream bytes (the
/// deterministic surfaces the byte-identity assert compares), and the
/// on-CPU ns of the event loop itself.
fn profile_overhead_run(
    cfg: &RouterConfig,
    load: f64,
    horizon: SimTime,
    seed: u64,
    period: TimeDelta,
    hub: Option<&rip_telemetry::ProfileHub>,
) -> (String, Vec<u8>, u64) {
    let src = uniform_source(cfg, load, horizon, seed);
    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    if let Some(h) = hub {
        sw.enable_profiler(h.clone());
    }
    let staged = rip_telemetry::SharedSink::new();
    sw.enable_live_telemetry(period, 64, Box::new(staged.clone()));
    let deadline = cfg.drain.deadline(horizon);
    let ((), ns) = on_cpu(|| {
        sw.run_source(src, deadline, &FaultPlan::default())
            .expect("an empty fault plan is valid")
    });
    let report = sw.into_report();
    let json = serde_json::to_string(&report).expect("report serializes");
    let mut stream = Vec::new();
    {
        let mut sink = rip_telemetry::JsonlSink::new(&mut stream);
        staged.take().replay_into(&mut sink);
        sink.flush();
    }
    (json, stream, ns)
}

fn run_profile_overhead(quick: bool) {
    println!("Petabit Router-in-a-Package — self-profiler overhead check");
    println!("mode: {}", if quick { "quick" } else { "full" });
    let cfg = RouterConfig::small();
    let seed = 0x0F11;
    let load = 0.8;
    // Paired on-CPU times need no long runs: a quick arm takes about
    // 4 ms, and the median of 400 pairs lands within a few tenths of a
    // percent of the profiler's cost (EXPERIMENTS.md E30).
    let horizon = SimTime::from_ns(if quick { 10_000 } else { 40_000 });
    let period = TimeDelta::from_ns(2_000);
    let pairs = 400;

    // The profiled arm's hub records into its in-memory ring only: the
    // cost under measurement is the phase timers and the per-epoch
    // flush, not output I/O (which `--profile-out` buffers separately
    // and the soak path pays off the hot loop).
    let hub = rip_telemetry::ProfileHub::new();

    let mut baseline: Option<(String, Vec<u8>)> = None;
    let mut identical = true;
    let cost = paired_overhead(pairs, |on| {
        let (json, stream, ns) =
            profile_overhead_run(&cfg, load, horizon, seed, period, on.then_some(&hub));
        match &baseline {
            Some((bj, bs)) => identical &= *bj == json && *bs == stream,
            None => baseline = Some((json, stream)),
        }
        ns
    });
    let profile_records = hub.records_total();
    if !identical {
        eprintln!("profile-overhead FAILED: deterministic outputs diverged with the profiler on");
        std::process::exit(1);
    }
    if profile_records == 0 {
        eprintln!("profile-overhead FAILED: profiled arm recorded no profile records");
        std::process::exit(1);
    }

    let bench = ProfileOverheadBench {
        schema: "rip-bench/profile_overhead/v2",
        config: "small",
        seed,
        load,
        horizon_ns: horizon.as_ps() / 1000,
        epoch_ns: period.as_ps() / 1000,
        pairs,
        cpu_off_ms: cost.off_ms,
        cpu_on_ms: cost.on_ms,
        overhead_frac: cost.frac,
        byte_identical: identical,
        profile_records,
    };
    write_json("BENCH_profile_overhead.json", &bench);
    println!(
        "profiler overhead: off {:.1} ms, on {:.1} ms on CPU ({:+.2}% median of {pairs} pairs, \
         target < 3%), {profile_records} profile records, outputs byte-identical",
        cost.off_ms,
        cost.on_ms,
        cost.frac * 100.0
    );
    if cost.frac >= 0.03 {
        eprintln!(
            "profile-overhead FAILED: overhead {:.2}% >= 3%",
            cost.frac * 100.0
        );
        std::process::exit(1);
    }
    println!("\ndone.");
}
