//! Forwarding-plane scenario (§3.2 ➀): the processing chiplet's
//! destination lookup. Generates a core-BGP-like synthetic RIB, compiles
//! it into a linecard-style stride table, routes a packet trace by
//! destination address, and runs the routed trace through the HBM
//! switch.
//!
//! ```text
//! cargo run -p rip-examples --bin fib_forwarding
//! ```

use rip_core::{HbmSwitch, RouterConfig};
use rip_fib::{assign_outputs, SyntheticRib};
use rip_traffic::{
    ArrivalProcess, BoundedSource, MergedSource, PacketGenerator, PacketSource, SizeDistribution,
    TrafficMatrix,
};
use rip_units::SimTime;

fn main() {
    let cfg = RouterConfig::small();

    // A synthetic core table: 100k routes over the N egress ribbons.
    let rib = SyntheticRib::generate(100_000, cfg.ribbons, 2026);
    let trie = rib.trie();
    // The classic hardware configuration: DIR-24-8 (16M-entry first
    // level, 256-entry chunks).
    let table = rib.stride_table(24);
    println!(
        "RIB: {} routes over {} outputs; trie nodes: {}; DIR-24-8 table: {} MiB, {} L2 chunks",
        rib.len(),
        rib.outputs(),
        trie.node_count(),
        table.memory_bytes() / (1024 * 1024),
        table.level2_tables()
    );

    // Generate traffic whose destinations are real addresses; the TM
    // row only shapes per-port load here, outputs come from the FIB.
    let horizon = SimTime::from_ns(100_000);
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let sources: Vec<_> = (0..cfg.ribbons)
        .map(|port| {
            let g = PacketGenerator::new(
                port,
                cfg.port_rate(),
                0.7,
                tm.row(port).to_vec(),
                SizeDistribution::Imix,
                ArrivalProcess::Poisson,
                512,
                99 + port as u64,
            )
            .expect("valid generator");
            BoundedSource::new(g, horizon)
        })
        .collect();
    let raw: Vec<_> = MergedSource::new(sources).packets().collect();
    let routed = assign_outputs(&raw, &table);
    println!("trace: {} packets routed by LPM", routed.len());

    // Per-output demand after routing (FIB-driven skew).
    let mut per_output = vec![0u64; cfg.ribbons];
    for p in &routed {
        per_output[p.output] += p.size.bytes();
    }
    let total: u64 = per_output.iter().sum();
    for (o, b) in per_output.iter().enumerate() {
        println!(
            "  output {o}: {:5.1}% of bytes",
            *b as f64 / total as f64 * 100.0
        );
    }

    // Spot-check: stride table vs trie agree on this trace.
    let disagreements = routed
        .iter()
        .filter(|p| trie.lookup(p.flow.dst_ip).map(|(_, h)| h as usize) != Some(p.output))
        .count();
    assert_eq!(disagreements, 0, "trie and stride table must agree");

    let sw = HbmSwitch::new(cfg).expect("valid config");
    let r = sw.run(&routed, SimTime::from_ns(500_000));
    println!(
        "\nswitch run: delivered {:.2}% ({} packets), mean delay {:.2} us",
        r.delivery_fraction * 100.0,
        r.delivered_packets,
        r.delays_ns().mean().unwrap_or(0.0) / 1e3
    );
}
