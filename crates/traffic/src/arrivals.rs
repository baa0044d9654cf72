//! Arrival processes and the per-port packet generator.

use rand::rngs::StdRng;
use rand::Rng;
use rip_sim::rng::{exp_ps, rng_for, weighted_index};
use rip_units::{DataRate, SimTime, TimeDelta};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::packet::{FlowKey, Packet};
use crate::size::SizeDistribution;
use crate::source::StatefulSource;

/// The inter-arrival process of a packet generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival times at the target
    /// rate.
    Poisson,
    /// Constant bit rate: deterministic spacing at the target rate.
    Cbr,
    /// Markov-modulated on–off bursts: during ON periods packets arrive
    /// back-to-back at line rate; OFF periods are silent. Mean period
    /// lengths are chosen so the long-run average hits the target load.
    OnOff {
        /// Mean number of packets per burst.
        mean_burst_packets: f64,
    },
}

/// Generates a packet stream on one ingress port at a target load.
///
/// Destinations are drawn from a per-output weight vector (a traffic
/// matrix row); sizes from a [`SizeDistribution`]; flows from a pool of
/// `flows` persistent 5-tuples so ECMP/LAG hashing sees realistic flow
/// reuse. Fully deterministic given the seed.
#[derive(Debug, Clone)]
pub struct PacketGenerator {
    input: usize,
    line_rate: DataRate,
    load: f64,
    dest_weights: Vec<f64>,
    sizes: SizeDistribution,
    process: ArrivalProcess,
    flows: Vec<FlowKey>,
    rng: StdRng,
    next_id: u64,
    clock: SimTime,
    /// Remaining packets in the current ON burst (OnOff only).
    burst_left: u64,
}

impl PacketGenerator {
    /// Create a generator for `input`, emitting `load` × `line_rate` of
    /// traffic split over `dest_weights`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        input: usize,
        line_rate: DataRate,
        load: f64,
        dest_weights: Vec<f64>,
        sizes: SizeDistribution,
        process: ArrivalProcess,
        flows: usize,
        seed: u64,
    ) -> Result<Self, String> {
        if !(0.0..=1.0).contains(&load) {
            return Err(format!("load {load} out of [0, 1]"));
        }
        if line_rate.is_zero() {
            return Err("line rate must be positive".into());
        }
        sizes.validate()?;
        if dest_weights.is_empty() || dest_weights.iter().all(|&w| w <= 0.0) {
            return Err("destination weights must contain a positive entry".into());
        }
        if flows == 0 {
            return Err("need at least one flow".into());
        }
        let mut flow_rng = rng_for(seed, 0xF10 + input as u64);
        let flow_pool = (0..flows)
            .map(|_| FlowKey {
                src_ip: flow_rng.random(),
                dst_ip: flow_rng.random(),
                src_port: flow_rng.random(),
                dst_port: *[80u16, 443, 8080, 53][flow_rng.random_range(0..4)..][..1]
                    .first()
                    .expect("non-empty"),
                proto: if flow_rng.random_bool(0.8) { 6 } else { 17 },
            })
            .collect();
        Ok(PacketGenerator {
            input,
            line_rate,
            load,
            dest_weights,
            sizes,
            process,
            flows: flow_pool,
            rng: rng_for(seed, 0x9E4 + input as u64),
            next_id: (input as u64) << 40,
            clock: SimTime::ZERO,
            burst_left: 0,
        })
    }

    /// The ingress port this generator feeds.
    pub fn input(&self) -> usize {
        self.input
    }

    /// The configured load fraction.
    pub fn load(&self) -> f64 {
        self.load
    }

    /// Mean inter-arrival time at the target load for the mean packet.
    fn mean_gap_ps(&self, size_bytes: f64) -> f64 {
        // time to serialize `size` at `load × rate`.
        let bits = size_bytes * 8.0;
        bits * 1e12 / (self.line_rate.bps() as f64 * self.load)
    }

    /// Generate the next packet. Returns `None` if the load is zero.
    pub fn next_packet(&mut self) -> Option<Packet> {
        if self.load == 0.0 {
            return None;
        }
        let size = self.sizes.sample(&mut self.rng);
        let mean_gap = self.mean_gap_ps(size.bytes_f64());
        let gap = match self.process {
            ArrivalProcess::Poisson => TimeDelta::from_ps(exp_ps(&mut self.rng, mean_gap)),
            ArrivalProcess::Cbr => TimeDelta::from_ps(mean_gap as u64),
            ArrivalProcess::OnOff { mean_burst_packets } => {
                if self.burst_left == 0 {
                    // Draw a new burst; the OFF gap balances the load:
                    // E[off] = E[burst bytes serialization] x (1/load - 1).
                    let burst = (exp_ps(&mut self.rng, mean_burst_packets * 1000.0) / 1000).max(1);
                    self.burst_left = burst;
                    let mean_off = mean_gap * mean_burst_packets * (1.0 - self.load);
                    self.burst_left -= 1;
                    TimeDelta::from_ps(exp_ps(&mut self.rng, mean_off.max(1.0)))
                } else {
                    // Back-to-back at line rate within the burst.
                    self.burst_left -= 1;
                    self.line_rate.transfer_time(size)
                }
            }
        };
        self.clock += gap;
        let output = weighted_index(&mut self.rng, &self.dest_weights)
            .expect("weights validated at construction");
        let flow_idx = self.rng.random_range(0..self.flows.len());
        let id = self.next_id;
        self.next_id += 1;
        Some(Packet {
            id,
            input: self.input,
            output,
            size,
            arrival: self.clock,
            flow: self.flows[flow_idx],
        })
    }

    /// Generate packets until `horizon`, in arrival order.
    ///
    /// The first packet drawn beyond the horizon is discarded (its RNG
    /// draws are consumed, not rewound) — callers use fresh generators
    /// per run. This is a materializing convenience wrapper over
    /// [`BoundedSource`](crate::BoundedSource); the streaming engines
    /// pull the same sequence incrementally instead.
    pub fn generate_until(&mut self, horizon: SimTime) -> Vec<Packet> {
        use crate::source::PacketSource as _;
        crate::source::BoundedSource::new(&mut *self, horizon)
            .packets()
            .collect()
    }
}

/// The mutable slice of a [`PacketGenerator`]: everything its pulls
/// advance. The flow pool, weights and size model are rebuilt from the
/// run spec on resume, so only the position needs to persist.
#[derive(Serialize, Deserialize)]
struct GeneratorState {
    rng: [u64; 4],
    next_id: u64,
    clock: SimTime,
    burst_left: u64,
}

impl StatefulSource for PacketGenerator {
    fn save_state(&self) -> Value {
        GeneratorState {
            rng: self.rng.state(),
            next_id: self.next_id,
            clock: self.clock,
            burst_left: self.burst_left,
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let s = GeneratorState::from_value(state)?;
        self.rng = StdRng::from_state(s.rng);
        self.next_id = s.next_id;
        self.clock = s.clock;
        self.burst_left = s.burst_left;
        Ok(())
    }
}

/// Merge several per-port packet streams into one arrival-ordered vector:
/// the sort oracle [`MergedSource`](crate::MergedSource) is checked
/// against.
#[cfg(test)]
pub(crate) fn merge_streams(mut streams: Vec<Vec<Packet>>) -> Vec<Packet> {
    let mut all: Vec<Packet> = streams.drain(..).flatten().collect();
    all.sort_by_key(|p| (p.arrival, p.input, p.id));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_units::DataSize;

    fn gen(load: f64, process: ArrivalProcess, seed: u64) -> PacketGenerator {
        PacketGenerator::new(
            0,
            DataRate::from_gbps(100),
            load,
            vec![1.0; 4],
            SizeDistribution::Fixed(DataSize::from_bytes(1000)),
            process,
            64,
            seed,
        )
        .unwrap()
    }

    #[test]
    fn poisson_hits_target_load() {
        let mut g = gen(0.6, ArrivalProcess::Poisson, 1);
        let horizon = SimTime::from_ns(2_000_000); // 2 ms
        let pkts = g.generate_until(horizon);
        let bits: u64 = pkts.iter().map(|p| p.size.bits()).sum();
        let load = bits as f64 / (100e9 * 2e-3);
        assert!((load - 0.6).abs() < 0.03, "observed load {load}");
    }

    #[test]
    fn cbr_is_evenly_spaced() {
        let mut g = gen(0.5, ArrivalProcess::Cbr, 2);
        let p1 = g.next_packet().unwrap();
        let p2 = g.next_packet().unwrap();
        let p3 = g.next_packet().unwrap();
        let gap1 = p2.arrival.since(p1.arrival);
        let gap2 = p3.arrival.since(p2.arrival);
        assert_eq!(gap1, gap2);
        // 1000 B at 50 Gb/s effective = 160 ns spacing.
        assert_eq!(gap1, TimeDelta::from_ns(160));
    }

    #[test]
    fn onoff_hits_target_load_and_bursts() {
        let mut g = gen(
            0.4,
            ArrivalProcess::OnOff {
                mean_burst_packets: 16.0,
            },
            3,
        );
        let horizon = SimTime::from_ns(4_000_000);
        let pkts = g.generate_until(horizon);
        let bits: u64 = pkts.iter().map(|p| p.size.bits()).sum();
        let load = bits as f64 / (100e9 * 4e-3);
        assert!((load - 0.4).abs() < 0.08, "observed load {load}");
        // Bursty: many consecutive gaps equal the wire time (80 ns).
        let wire = TimeDelta::from_ns(80);
        let back_to_back = pkts
            .windows(2)
            .filter(|w| w[1].arrival.since(w[0].arrival) == wire)
            .count();
        assert!(
            back_to_back as f64 > pkts.len() as f64 * 0.5,
            "only {back_to_back}/{} back-to-back",
            pkts.len()
        );
    }

    #[test]
    fn destinations_follow_weights() {
        let mut g = PacketGenerator::new(
            1,
            DataRate::from_gbps(100),
            0.9,
            vec![0.0, 1.0, 3.0, 0.0],
            SizeDistribution::Fixed(DataSize::from_bytes(500)),
            ArrivalProcess::Poisson,
            32,
            9,
        )
        .unwrap();
        let mut counts = [0u32; 4];
        for _ in 0..8000 {
            counts[g.next_packet().unwrap().output] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[3], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = gen(0.7, ArrivalProcess::Poisson, 42);
        let mut b = gen(0.7, ArrivalProcess::Poisson, 42);
        for _ in 0..100 {
            assert_eq!(a.next_packet(), b.next_packet());
        }
        let mut c = gen(0.7, ArrivalProcess::Poisson, 43);
        let diff = (0..100).any(|_| a.next_packet() != c.next_packet());
        assert!(diff);
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut g = gen(0.9, ArrivalProcess::Poisson, 5);
        let mut last = None;
        for _ in 0..100 {
            let p = g.next_packet().unwrap();
            if let Some(l) = last {
                assert!(p.id > l);
            }
            last = Some(p.id);
        }
    }

    #[test]
    fn zero_load_generates_nothing() {
        let mut g = gen(0.0, ArrivalProcess::Poisson, 5);
        assert!(g.next_packet().is_none());
        assert!(g.generate_until(SimTime::from_ns(100)).is_empty());
    }

    #[test]
    fn constructor_validation() {
        let mk = |load, weights: Vec<f64>, flows| {
            PacketGenerator::new(
                0,
                DataRate::from_gbps(10),
                load,
                weights,
                SizeDistribution::Imix,
                ArrivalProcess::Poisson,
                flows,
                1,
            )
        };
        assert!(mk(1.5, vec![1.0], 4).is_err());
        assert!(mk(0.5, vec![], 4).is_err());
        assert!(mk(0.5, vec![0.0], 4).is_err());
        assert!(mk(0.5, vec![1.0], 0).is_err());
    }

    #[test]
    fn merge_streams_orders_by_arrival() {
        let mut g1 = gen(0.5, ArrivalProcess::Poisson, 11);
        let mut g2 = gen(0.5, ArrivalProcess::Poisson, 12);
        let h = SimTime::from_ns(100_000);
        let merged = merge_streams(vec![g1.generate_until(h), g2.generate_until(h)]);
        assert!(merged.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(!merged.is_empty());
    }
}
