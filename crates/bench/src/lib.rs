//! Shared helpers for the `repro` and `ripsim` binaries: workload
//! builders, the soak acceptance check and table printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod spec;

use rip_core::RouterConfig;

/// The workspace version every binary reports — the same string
/// `MetricsEndpoint::set_build_info` exposes as the `_build_info` gauge's
/// `version` label, so a scrape and a `--version` invocation can be
/// cross-checked against each other.
pub const SERVICE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// The one-line `--version` banner for `service` (`ripsim`, `repro`).
/// Keep this the single source of the format: the CLIs print it and the
/// metrics endpoints derive their build-info labels from the same
/// [`SERVICE_VERSION`].
pub fn version_line(service: &str) -> String {
    format!("{service} {SERVICE_VERSION} (rip-bench workspace build)")
}
use rip_traffic::{
    ArrivalProcess, BoundedSource, MergedSource, Packet, PacketGenerator, PacketSource,
    SizeDistribution, TrafficMatrix,
};
use rip_units::SimTime;

/// Build an arrival-ordered per-port trace for an HBM switch: one
/// generator per port, loads scaled by `load` on top of the matrix's
/// own row loads — [`switch_source`]'s packets, materialized.
pub fn switch_trace(
    cfg: &RouterConfig,
    tm: &TrafficMatrix,
    load: f64,
    sizes: SizeDistribution,
    process: ArrivalProcess,
    horizon: SimTime,
    seed: u64,
) -> Vec<Packet> {
    switch_source(cfg, tm, load, sizes, process, horizon, seed)
        .packets()
        .collect()
}

/// Convenience: a uniform IMIX Poisson trace.
pub fn uniform_trace(cfg: &RouterConfig, load: f64, horizon: SimTime, seed: u64) -> Vec<Packet> {
    switch_trace(
        cfg,
        &TrafficMatrix::uniform(cfg.ribbons, 1.0),
        load,
        SizeDistribution::Imix,
        ArrivalProcess::Poisson,
        horizon,
        seed,
    )
}

/// A merged source over one generator per port (see [`switch_trace`])
/// that pulls packets in arrival order without materializing the
/// trace. One generator per port makes `(arrival, input, id)` unique,
/// so the merge order equals a sort of the trace by that key.
pub fn switch_source(
    cfg: &RouterConfig,
    tm: &TrafficMatrix,
    load: f64,
    sizes: SizeDistribution,
    process: ArrivalProcess,
    horizon: SimTime,
    seed: u64,
) -> MergedSource<BoundedSource<PacketGenerator>> {
    let ports = (0..cfg.ribbons)
        .filter_map(|i| {
            let row_load = (load * tm.row_load(i)).min(1.0);
            if row_load <= 0.0 {
                return None;
            }
            let g = PacketGenerator::new(
                i,
                cfg.port_rate(),
                row_load,
                tm.row(i).to_vec(),
                sizes.clone(),
                process,
                256,
                rip_sim::rng::derive_seed(seed, i as u64),
            )
            .expect("valid generator");
            Some(BoundedSource::new(g, horizon))
        })
        .collect();
    MergedSource::new(ports)
}

/// Pull-based counterpart of [`uniform_trace`].
pub fn uniform_source(
    cfg: &RouterConfig,
    load: f64,
    horizon: SimTime,
    seed: u64,
) -> MergedSource<BoundedSource<PacketGenerator>> {
    switch_source(
        cfg,
        &TrafficMatrix::uniform(cfg.ribbons, 1.0),
        load,
        SizeDistribution::Imix,
        ArrivalProcess::Poisson,
        horizon,
        seed,
    )
}

/// Which half of the streaming soak's acceptance check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakFailure {
    /// The 4x-horizon run offered fewer than 3x the packets.
    OfferedDidNotScale,
    /// Peak in-flight packets grew past 2x + 64.
    PeakGrew,
}

/// The streaming soak's acceptance check between a run at the arrival
/// horizon and one at 4x it, each given as `[1x, 4x]`: offered packets
/// scale at least 3x (a Poisson noise margin under the 4x) while the
/// engine's peak in-flight packet count stays flat — within 2x plus 64
/// packets, nowhere near the 4x a materialized trace pays.
pub fn soak_scales(offered: [u64; 2], peak_in_flight: [u64; 2]) -> Result<(), SoakFailure> {
    if offered[1] < 3 * offered[0] {
        return Err(SoakFailure::OfferedDidNotScale);
    }
    if peak_in_flight[1] > 2 * peak_in_flight[0] + 64 {
        return Err(SoakFailure::PeakGrew);
    }
    Ok(())
}

/// A fixed-width text table writer for the repro binary's output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render the table to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            let mut s = String::from("| ");
            for i in 0..cols {
                s.push_str(&format!("{:w$}", cells[i], w = widths[i]));
                s.push_str(" | ");
            }
            s.trim_end().to_string()
        };
        let mut out = line(&self.headers);
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        out.push_str(&line(&sep));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Print with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        print!("{}", self.render());
    }
}

/// Format a float with the given precision.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_builder_produces_ordered_traffic() {
        let cfg = RouterConfig::small();
        let t = uniform_trace(&cfg, 0.5, SimTime::from_ns(20_000), 1);
        assert!(!t.is_empty());
        assert!(t.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn source_builder_matches_trace_builder() {
        use rip_traffic::PacketSource as _;
        let cfg = RouterConfig::small();
        let h = SimTime::from_ns(20_000);
        let batch = uniform_trace(&cfg, 0.5, h, 1);
        let streamed: Vec<Packet> = uniform_source(&cfg, 0.5, h, 1).packets().collect();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn soak_scaling_bounds_are_inclusive() {
        assert_eq!(soak_scales([100, 300], [50, 164]), Ok(()));
        let short = soak_scales([100, 299], [50, 50]);
        assert_eq!(short, Err(SoakFailure::OfferedDidNotScale));
        assert_eq!(
            soak_scales([100, 400], [50, 165]),
            Err(SoakFailure::PeakGrew)
        );
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("name"));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["a"]);
        t.row(&["x".into(), "y".into()]);
    }
}
