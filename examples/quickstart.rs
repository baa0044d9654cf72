//! Quickstart: simulate one HBM switch on a uniform workload and print
//! its report.
//!
//! ```text
//! cargo run -p rip-examples --bin quickstart
//! ```

use rip_core::{HbmSwitch, RouterConfig};
use rip_traffic::{
    ArrivalProcess, BoundedSource, MergedSource, PacketGenerator, PacketSource, SizeDistribution,
    TrafficMatrix,
};
use rip_units::SimTime;

fn main() {
    // A ratio-preserving scaled-down configuration: N = 4 ports of
    // 640 Gb/s, one 8-channel HBM stack (2·N·P of memory bandwidth),
    // gamma = 4, S = 1 KiB, k = 1 KiB batches, K = 32 KiB frames.
    let cfg = RouterConfig::small();
    println!("HBM switch: {} ports x {}", cfg.ribbons, cfg.port_rate());
    println!(
        "memory: {} channels, peak {}, frame {}",
        cfg.channels(),
        cfg.hbm_peak(),
        cfg.frame_size()
    );

    // 80% offered load, uniform destinations, IMIX sizes, Poisson
    // arrivals, for 200 us of simulated time.
    let horizon = SimTime::from_ns(200_000);
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let sources: Vec<_> = (0..cfg.ribbons)
        .map(|port| {
            let generator = PacketGenerator::new(
                port,
                cfg.port_rate(),
                0.8,
                tm.row(port).to_vec(),
                SizeDistribution::Imix,
                ArrivalProcess::Poisson,
                256,
                42 + port as u64,
            )
            .expect("valid generator");
            BoundedSource::new(generator, horizon)
        })
        .collect();
    let trace: Vec<_> = MergedSource::new(sources).packets().collect();
    println!("offered: {} packets", trace.len());

    let switch = HbmSwitch::new(cfg).expect("valid config");
    let report = switch.run(&trace, SimTime::from_ns(800_000));

    println!("\n--- report ---");
    println!("delivered packets : {}", report.delivered_packets);
    println!(
        "delivery fraction : {:.3}%",
        report.delivery_fraction * 100.0
    );
    println!("delivered rate    : {}", report.delivered_rate);
    println!(
        "drops (input/HBM) : {}/{}",
        report.dropped_input, report.dropped_frames
    );
    println!("HBM utilization   : {:.1}%", report.hbm_utilization * 100.0);
    println!(
        "delay mean/p99    : {:.2} us / {:.2} us",
        report.delays_ns().mean().unwrap_or(0.0) / 1e3,
        report.delays_ns().quantile(0.99).unwrap_or(0.0) / 1e3
    );
    println!(
        "SRAM peaks        : input {} | tail {} | head {}",
        report.input_peak, report.tail_peak, report.head_peak
    );
    println!("egress lane CV    : {:.3}", report.lane_spread_cv);
}
