//! The `ripsim` simulation spec: one JSON file describing a router
//! configuration and a workload. The shipped `configs/*.json` are
//! specs; `ripsim` and the integration tests decode them through the
//! types here.

use rip_core::{DrainPolicy, RouterConfig, SpsWorkload};
use rip_traffic::{
    ArrivalProcess, BoundedSource, FiberFill, MergedSource, PacketGenerator, SizeDistribution,
    TrafficMatrix,
};
use rip_units::{DataSize, SimTime};
use serde::{Deserialize, Serialize};

/// Destination mix of the workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum MatrixSpec {
    /// Uniform over all outputs.
    Uniform,
    /// A fraction of each input's traffic targets one output.
    Hotspot {
        /// The hot output.
        output: usize,
        /// Share of each input's traffic sent to it.
        fraction: f64,
    },
    /// Input `i` sends to output `(i + shift) mod N`.
    Permutation {
        /// The rotation.
        shift: usize,
    },
    /// Log-normally skewed demands.
    LogNormal {
        /// Log-normal shape.
        sigma: f64,
        /// Seed of the demand draw.
        seed: u64,
    },
}

impl MatrixSpec {
    /// The `n`-port traffic matrix, or why the spec cannot build one.
    pub fn build(&self, n: usize) -> Result<TrafficMatrix, String> {
        Ok(match *self {
            MatrixSpec::Uniform => TrafficMatrix::uniform(n, 1.0),
            MatrixSpec::Hotspot { output, fraction } => {
                if output >= n || !(0.0..=1.0).contains(&fraction) {
                    return Err("bad hotspot spec".into());
                }
                TrafficMatrix::hotspot(n, 1.0, output, fraction)
            }
            MatrixSpec::Permutation { shift } => {
                let perm: Vec<usize> = (0..n).map(|i| (i + shift) % n).collect();
                TrafficMatrix::permutation(&perm, 1.0)?
            }
            MatrixSpec::LogNormal { sigma, seed } => TrafficMatrix::log_normal(n, 1.0, sigma, seed),
        })
    }
}

/// Packet-size mix.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum SizeSpec {
    /// Every packet has the same size.
    Fixed {
        /// Packet size in bytes.
        bytes: u64,
    },
    /// Sizes uniform in `[min, max]` bytes.
    Uniform {
        /// Smallest size in bytes.
        min: u64,
        /// Largest size in bytes.
        max: u64,
    },
    /// The IMIX mix.
    Imix,
}

impl SizeSpec {
    /// The size distribution.
    pub fn build(&self) -> SizeDistribution {
        match *self {
            SizeSpec::Fixed { bytes } => SizeDistribution::Fixed(DataSize::from_bytes(bytes)),
            SizeSpec::Uniform { min, max } => SizeDistribution::Uniform { min, max },
            SizeSpec::Imix => SizeDistribution::Imix,
        }
    }
}

/// Arrival process.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ProcessSpec {
    /// Poisson arrivals.
    Poisson,
    /// Constant bit rate.
    Cbr,
    /// On/off bursts.
    OnOff {
        /// Mean burst length in packets.
        mean_burst_packets: f64,
    },
}

impl ProcessSpec {
    /// The arrival process.
    pub fn build(&self) -> ArrivalProcess {
        match *self {
            ProcessSpec::Poisson => ArrivalProcess::Poisson,
            ProcessSpec::Cbr => ArrivalProcess::Cbr,
            ProcessSpec::OnOff { mean_burst_packets } => {
                ArrivalProcess::OnOff { mean_burst_packets }
            }
        }
    }
}

/// The complete simulation specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimSpec {
    /// The switch configuration (every §2.2/§3.2 parameter).
    pub router: RouterConfig,
    /// Offered load per port, 0..=1.
    pub load: f64,
    /// Destination mix.
    pub matrix: MatrixSpec,
    /// Packet sizes.
    pub sizes: SizeSpec,
    /// Arrival process.
    pub process: ProcessSpec,
    /// Flows per port.
    pub flows: usize,
    /// RNG seed.
    pub seed: u64,
    /// Simulated arrival horizon, microseconds. Every mode simulates on
    /// to the deadline `router.drain` sets from it.
    pub horizon_us: u64,
    /// Live-telemetry epoch period in picoseconds (`ripsim soak`):
    /// when set, epoch deltas and sampled lifecycle spans stream to
    /// stdout as JSONL while the run executes. `--epoch <ps>` on the
    /// command line overrides it. Absent/null = silent.
    #[serde(default)]
    pub epoch_ps: Option<u64>,
}

impl SimSpec {
    /// The top-level fields of a spec file.
    const FIELDS: [&'static str; 9] = [
        "router",
        "load",
        "matrix",
        "sizes",
        "process",
        "flows",
        "seed",
        "horizon_us",
        "epoch_ps",
    ];

    /// Decode a spec file. Unlike plain deserialization, a top-level
    /// field the spec does not have is an error rather than silently
    /// ignored, so a stale or misspelt setting cannot change a run
    /// unnoticed.
    pub fn from_json(text: &str) -> Result<SimSpec, String> {
        let value = serde_json::parse(text).map_err(|e| e.to_string())?;
        for (key, _) in value.as_object().unwrap_or_default() {
            if Self::FIELDS.contains(&key.as_str()) {
                continue;
            }
            let hint = if key.contains("drain") {
                "the drain deadline is `router.drain`, e.g. \
                 {\"kind\": \"horizon_factor\", \"factor\": 5}"
                    .to_string()
            } else {
                format!("the fields are {}", Self::FIELDS.join(", "))
            };
            return Err(format!("unknown spec field `{key}`: {hint}"));
        }
        serde_json::from_value(value).map_err(|e| e.to_string())
    }

    /// The sample spec `ripsim --example-spec` prints.
    pub fn example() -> Self {
        SimSpec {
            router: RouterConfig {
                drain: DrainPolicy::HorizonFactor { factor: 5 },
                ..RouterConfig::small()
            },
            load: 0.8,
            matrix: MatrixSpec::Uniform,
            sizes: SizeSpec::Imix,
            process: ProcessSpec::Poisson,
            flows: 256,
            seed: 42,
            horizon_us: 100,
            epoch_ps: None,
        }
    }

    /// Validate the spec and build its single-switch packet source up to
    /// `horizon`: one bounded generator per port, merged into one
    /// arrival-ordered stream.
    pub fn build_source(
        &self,
        horizon: SimTime,
    ) -> Result<MergedSource<BoundedSource<PacketGenerator>>, String> {
        self.router.validate().map_err(|e| e.to_string())?;
        if !(0.0..=1.0).contains(&self.load) {
            return Err(format!("load {} out of [0, 1]", self.load));
        }
        if self.horizon_us == 0 {
            return Err("horizon must be positive".into());
        }
        let n = self.router.ribbons;
        let tm = self.matrix.build(n)?;
        let lanes: Vec<BoundedSource<PacketGenerator>> = (0..n)
            .map(|port| {
                let g = PacketGenerator::new(
                    port,
                    self.router.port_rate(),
                    (self.load * tm.row_load(port)).min(1.0),
                    tm.row(port).to_vec(),
                    self.sizes.build(),
                    self.process.build(),
                    self.flows,
                    rip_sim::rng::derive_seed(self.seed, port as u64),
                )?;
                Ok(BoundedSource::new(g, horizon))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(MergedSource::new(lanes))
    }

    /// The spec's workload for an SPS router of `router.switches`
    /// planes: its matrix over the ribbons, load spread uniformly over
    /// each ribbon's fibers.
    pub fn sps_workload(&self) -> Result<SpsWorkload, String> {
        Ok(SpsWorkload {
            tm: self.matrix.build(self.router.ribbons)?,
            load: self.load,
            fill: FiberFill::Uniform,
            sizes: self.sizes.build(),
            process: self.process.build(),
            flows: self.flows,
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_json_refuses_fields_the_spec_does_not_have() {
        let text = serde_json::to_string(&SimSpec::example()).expect("spec serializes");
        let spec = SimSpec::from_json(&text).expect("the example decodes");
        assert_eq!(spec.router.drain, DrainPolicy::HorizonFactor { factor: 5 });
        // A drain setting outside `router` points at `router.drain`.
        let misplaced = text.replacen('{', "{\"drain\":4,", 1);
        let err = SimSpec::from_json(&misplaced).unwrap_err();
        assert!(
            err.contains("`drain`") && err.contains("router.drain"),
            "{err}"
        );
        let misspelt = text.replacen('{', "{\"horizon_usec\":4,", 1);
        let err = SimSpec::from_json(&misspelt).unwrap_err();
        assert!(
            err.contains("`horizon_usec`: the fields are router,"),
            "{err}"
        );
    }
}
