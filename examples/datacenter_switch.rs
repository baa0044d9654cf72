//! Datacenter-switch variant (§5 "Designing datacenter switches"):
//! latency matters more than buffering, so the HBM switch is rebuilt
//! with smaller frames (narrower channel stripes) — and this example
//! measures the latency difference on the packet-level simulator, next
//! to the closed-form sweep.
//!
//! ```text
//! cargo run -p rip-examples --bin datacenter_switch
//! ```

use rip_analysis::datacenter;
use rip_core::{HbmSwitch, RouterConfig};
use rip_traffic::{
    ArrivalProcess, BoundedSource, MergedSource, PacketGenerator, PacketSource, SizeDistribution,
    TrafficMatrix,
};
use rip_units::{DataRate, DataSize, SimTime};

fn trace(cfg: &RouterConfig, load: f64, horizon: SimTime, seed: u64) -> Vec<rip_traffic::Packet> {
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let sources: Vec<_> = (0..cfg.ribbons)
        .map(|port| {
            let g = PacketGenerator::new(
                port,
                cfg.port_rate(),
                load,
                tm.row(port).to_vec(),
                SizeDistribution::Fixed(DataSize::from_bytes(1500)),
                ArrivalProcess::Poisson,
                256,
                seed + port as u64,
            )
            .expect("valid generator");
            BoundedSource::new(g, horizon)
        })
        .collect();
    MergedSource::new(sources).packets().collect()
}

fn run_variant(name: &str, cfg: RouterConfig, load: f64) {
    let horizon = SimTime::from_ns(120_000);
    let t = trace(&cfg, load, horizon, 99);
    let sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    let r = sw.run(&t, SimTime::from_ns(900_000));
    println!(
        "{name}: frame {} | mean delay {:.2} us | p99 {:.2} us | delivered {:.2}% | HBM util {:.0}%",
        cfg.frame_size(),
        r.delays_ns().mean().unwrap_or(0.0) / 1e3,
        r.delays_ns().quantile(0.99).unwrap_or(0.0) / 1e3,
        r.delivery_fraction * 100.0,
        r.hbm_utilization * 100.0
    );
}

fn main() {
    println!("--- closed-form frame-size sweep (reference design, 50% load) ---");
    for row in datacenter::sweep(
        128,
        4,
        DataSize::from_kib(1),
        DataRate::from_gbps(2560),
        0.5,
    )
    .iter()
    .take(5)
    {
        println!(
            "stripe {:>3} channels -> frame {:>8} : fill {} + drain {} = {}",
            row.stripe_channels,
            format!("{}", row.frame),
            row.fill_latency,
            row.drain_latency,
            row.total_latency
        );
    }
    let floor = datacenter::min_frame(
        128,
        DataRate::from_gbps(640),
        rip_units::TimeDelta::from_ns(30),
    );
    println!("(full-stripe frame floor at peak rate: {floor})\n");

    println!("--- measured on the packet-level simulator, 60% load ---");
    // WAN-style switch: 8 channels -> K = 32 KiB frames.
    let wan = RouterConfig::small();
    run_variant("WAN   (K = 32 KiB)", wan, 0.6);

    // Datacenter variant: stripe frames over half the channels
    // (T' = 4) -> K = 16 KiB frames at the same port rate; the two
    // channel subsets serve disjoint output sets concurrently, so the
    // memory still covers 2NP in aggregate.
    let mut dc = RouterConfig::small();
    dc.stripe_channels = Some(4);
    dc.validate().expect("valid datacenter variant");
    run_variant("DC    (K = 16 KiB)", dc, 0.6);

    // And quarter-width stripes: K = 8 KiB.
    let mut dc2 = RouterConfig::small();
    dc2.stripe_channels = Some(2);
    dc2.validate().expect("valid datacenter variant");
    run_variant("DC    (K =  8 KiB)", dc2, 0.6);

    println!(
        "\nsmaller frames fill and drain faster at the same load - the §5 trade \
         (radix and buffering shrink with them)."
    );
}
