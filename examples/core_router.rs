//! Core-router scenario: the full Split-Parallel Switch under the
//! workload §2.1 worries about — incrementally provisioned ribbons
//! where the first fibers carry most of the load — comparing the naive
//! sequential split against the paper's pseudo-random split, and
//! printing the reference package's headline figures.
//!
//! ```text
//! cargo run -p rip-examples --bin core_router
//! ```

use rip_analysis::{buffering, power};
use rip_core::{FaultPlan, RouterConfig, SpsRouter, SpsWorkload};
use rip_photonics::SplitPattern;
use rip_traffic::FiberFill;
use rip_units::SimTime;

fn main() {
    let cfg = RouterConfig::small();
    println!(
        "SPS router: {} ribbons x {} fibers, {} HBM switches (alpha = {})",
        cfg.ribbons,
        cfg.fibers_per_ribbon,
        cfg.switches,
        cfg.alpha()
    );

    // Incremental provisioning: only the first quarter of each ribbon's
    // fibers is lit, all near line rate. Offered load per ribbon is
    // moderate; the *placement* is what stresses the split.
    let mut workload = SpsWorkload::uniform(cfg.ribbons, 0.22, 7);
    workload.fill = FiberFill::FirstFilled {
        used: cfg.fibers_per_ribbon / 4,
    };
    let horizon = SimTime::from_ns(100_000);

    for (name, pattern) in [
        ("sequential split", SplitPattern::Sequential),
        ("striped split", SplitPattern::Striped),
        (
            "pseudo-random split",
            SplitPattern::PseudoRandom { seed: 2026 },
        ),
    ] {
        let router = SpsRouter::new(cfg.clone(), pattern).expect("valid router");
        let fluid = router.fluid_loads(&workload);
        let max_load = fluid.iter().flatten().cloned().fold(0.0, f64::max);
        let report = router
            .run(&workload, horizon, &FaultPlan::default(), None)
            .expect("healthy run");
        println!(
            "\n[{name}]\n  peak per-switch output load (fluid): {max_load:.3}\n  \
             measured loss: {:.3}%  |  per-switch offered imbalance: {:.2}x",
            report.loss_fraction * 100.0,
            report.load_imbalance
        );
        for (i, s) in report.switches.iter().enumerate() {
            println!(
                "  switch {i}: offered {} delivered {} dropped {}",
                s.report.offered_bytes, s.report.delivered_bytes, s.report.dropped_bytes
            );
        }
    }

    // The reference package this scales up to (§2.2/§4).
    let reference = RouterConfig::reference();
    println!("\n--- reference package (paper §2.2/§4) ---");
    println!("total I/O          : {}", reference.total_io());
    println!("per-switch memory  : {}", reference.per_switch_memory_io());
    let b = buffering::reference();
    println!(
        "buffering          : {} ({:.1} ms at full ingress)",
        b.total, b.milliseconds
    );
    let p = power::reference();
    println!(
        "power              : {} per switch, {} total ({:.2}x Cerebras WSE-3)",
        p.per_switch.total(),
        p.total(),
        p.vs_cerebras()
    );
}
