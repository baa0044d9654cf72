//! The ideal output-queued shared-memory switch.

use std::collections::HashMap;

use rip_traffic::Packet;
use rip_units::{DataRate, DataSize, SimTime, TimeDelta};
use serde::{Deserialize, Serialize};

/// One packet departure from the ideal switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Departure {
    /// The packet id.
    pub packet: u64,
    /// Output port it left from.
    pub output: usize,
    /// When its last bit left the switch.
    pub departure: SimTime,
}

/// The ideal output-queued (OQ) shared-memory switch — "the holy grail
/// of router architectures that can handle arbitrary admissible traffic
/// at 100 % throughput with work conservation" (§1).
///
/// Memory bandwidth is unbounded: a packet is instantly available at its
/// output queue on arrival, and each output drains its FIFO at line rate
/// whenever it is non-empty (work conservation). Departure times from
/// this switch are the reference both for throughput experiments and for
/// the OQ-mimicking lag measurement of E4.
#[derive(Debug, Clone)]
pub struct IdealOqSwitch {
    num_ports: usize,
    port_rate: DataRate,
    /// Per-output: when the output line becomes free.
    line_free: Vec<SimTime>,
    /// Per-output: bytes currently queued (for occupancy stats).
    queued: Vec<DataSize>,
    /// Peak per-output occupancy observed.
    peak_queued: Vec<DataSize>,
    /// Pending (not yet drained) departures per output, used to update
    /// occupancy lazily.
    in_flight: Vec<Vec<(SimTime, DataSize)>>,
    departures: Vec<Departure>,
    total_in: DataSize,
}

impl IdealOqSwitch {
    /// A switch with `num_ports` ports of `port_rate` each.
    pub fn new(num_ports: usize, port_rate: DataRate) -> Self {
        assert!(num_ports > 0 && !port_rate.is_zero());
        IdealOqSwitch {
            num_ports,
            port_rate,
            line_free: vec![SimTime::ZERO; num_ports],
            queued: vec![DataSize::ZERO; num_ports],
            peak_queued: vec![DataSize::ZERO; num_ports],
            in_flight: vec![Vec::new(); num_ports],
            departures: Vec::new(),
            total_in: DataSize::ZERO,
        }
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.num_ports
    }

    /// Per-port line rate.
    pub fn port_rate(&self) -> DataRate {
        self.port_rate
    }

    /// Offer one packet (arrivals must be fed in non-decreasing arrival
    /// order). Returns its departure record.
    pub fn offer(&mut self, p: &Packet) -> Departure {
        assert!(
            p.output < self.num_ports,
            "output {} out of range",
            p.output
        );
        // Drain bookkeeping: anything that left before this arrival.
        let now = p.arrival;
        let fl = &mut self.in_flight[p.output];
        let mut drained = DataSize::ZERO;
        fl.retain(|&(t, s)| {
            if t <= now {
                drained += s;
                false
            } else {
                true
            }
        });
        self.queued[p.output] = self.queued[p.output].saturating_sub(drained);

        let start = self.line_free[p.output].max(p.arrival);
        let dep = start + self.port_rate.transfer_time(p.size);
        self.line_free[p.output] = dep;
        self.queued[p.output] += p.size;
        self.peak_queued[p.output] = self.peak_queued[p.output].max(self.queued[p.output]);
        self.in_flight[p.output].push((dep, p.size));
        self.total_in += p.size;
        let d = Departure {
            packet: p.id,
            output: p.output,
            departure: dep,
        };
        self.departures.push(d);
        d
    }

    /// Offer a whole arrival-ordered trace and return all departures.
    pub fn run(&mut self, packets: &[Packet]) -> Vec<Departure> {
        packets.iter().map(|p| self.offer(p)).collect()
    }

    /// Offer every packet a pull-based source yields, in order, and
    /// return the departures — the streaming counterpart of
    /// [`IdealOqSwitch::run`], byte-identical for the same sequence.
    pub fn run_source<S: rip_traffic::PacketSource>(&mut self, mut source: S) -> Vec<Departure> {
        let mut out = Vec::new();
        while let Some(p) = source.next_packet() {
            out.push(self.offer(&p));
        }
        out
    }

    /// All departures so far, in offer order.
    pub fn departures(&self) -> &[Departure] {
        &self.departures
    }

    /// Map of packet id → departure time (for mimic comparisons).
    pub fn departure_map(&self) -> HashMap<u64, SimTime> {
        self.departures
            .iter()
            .map(|d| (d.packet, d.departure))
            .collect()
    }

    /// Peak queued bytes at `output`.
    pub fn peak_occupancy(&self, output: usize) -> DataSize {
        self.peak_queued[output]
    }

    /// The time the last bit leaves the switch.
    pub fn last_departure(&self) -> Option<SimTime> {
        self.departures.iter().map(|d| d.departure).max()
    }

    /// Delivered throughput over the span from the first arrival to the
    /// last departure.
    pub fn delivered_rate(&self, first_arrival: SimTime) -> DataRate {
        match self.last_departure() {
            Some(end) if end > first_arrival => {
                let dt = end.since(first_arrival);
                DataRate::from_bps(
                    u64::try_from(
                        self.total_in.bits() as u128 * rip_units::PS_PER_S as u128
                            / dt.as_ps() as u128,
                    )
                    .expect("rate overflow"),
                )
            }
            _ => DataRate::ZERO,
        }
    }

    /// Mean per-packet delay (departure − arrival) of a run.
    pub fn mean_delay(&self, packets: &[Packet]) -> TimeDelta {
        assert_eq!(packets.len(), self.departures.len());
        if packets.is_empty() {
            return TimeDelta::ZERO;
        }
        let total: u64 = packets
            .iter()
            .zip(&self.departures)
            .map(|(p, d)| d.departure.since(p.arrival).as_ps())
            .sum();
        TimeDelta::from_ps(total / packets.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_units::DataSize;

    fn pkt(id: u64, output: usize, bytes: u64, arrival_ns: u64) -> Packet {
        Packet::new(
            id,
            0,
            output,
            DataSize::from_bytes(bytes),
            SimTime::from_ns(arrival_ns),
        )
    }

    #[test]
    fn empty_output_departs_after_serialization() {
        // 1000 B at 100 Gb/s = 80 ns.
        let mut sw = IdealOqSwitch::new(4, DataRate::from_gbps(100));
        let d = sw.offer(&pkt(1, 2, 1000, 50));
        assert_eq!(d.departure, SimTime::from_ns(130));
        assert_eq!(d.output, 2);
    }

    #[test]
    fn fifo_order_per_output() {
        let mut sw = IdealOqSwitch::new(2, DataRate::from_gbps(100));
        let d1 = sw.offer(&pkt(1, 0, 1000, 0));
        let d2 = sw.offer(&pkt(2, 0, 1000, 10));
        // Second packet waits for the first: departs at 80 + 80 = 160.
        assert_eq!(d1.departure, SimTime::from_ns(80));
        assert_eq!(d2.departure, SimTime::from_ns(160));
    }

    #[test]
    fn outputs_are_independent() {
        let mut sw = IdealOqSwitch::new(2, DataRate::from_gbps(100));
        sw.offer(&pkt(1, 0, 1000, 0));
        let d = sw.offer(&pkt(2, 1, 1000, 0));
        assert_eq!(d.departure, SimTime::from_ns(80));
    }

    #[test]
    fn work_conservation_idle_line_restarts_immediately() {
        let mut sw = IdealOqSwitch::new(1, DataRate::from_gbps(100));
        sw.offer(&pkt(1, 0, 1000, 0)); // departs 80
        let d = sw.offer(&pkt(2, 0, 1000, 500)); // line idle since 80
        assert_eq!(d.departure, SimTime::from_ns(580));
    }

    #[test]
    fn occupancy_tracks_queue_build_up() {
        let mut sw = IdealOqSwitch::new(1, DataRate::from_gbps(100));
        for i in 0..5 {
            sw.offer(&pkt(i, 0, 1000, 0));
        }
        // All five queued at t=0 before any drain.
        assert_eq!(sw.peak_occupancy(0), DataSize::from_bytes(5000));
        // A late packet sees earlier ones drained.
        sw.offer(&pkt(9, 0, 1000, 1_000_000));
        assert_eq!(sw.peak_occupancy(0), DataSize::from_bytes(5000));
    }

    #[test]
    fn full_load_delivers_full_rate() {
        // Saturate one output: back-to-back 1000 B packets.
        let mut sw = IdealOqSwitch::new(1, DataRate::from_gbps(100));
        let pkts: Vec<Packet> = (0..1000).map(|i| pkt(i, 0, 1000, i * 80)).collect();
        sw.run(&pkts);
        let rate = sw.delivered_rate(SimTime::ZERO);
        assert!(
            (rate.gbps() - 100.0).abs() / 100.0 < 0.01,
            "{}",
            rate.gbps()
        );
        assert_eq!(sw.mean_delay(&pkts), TimeDelta::from_ns(80));
    }

    #[test]
    fn departure_map_contains_all_packets() {
        let mut sw = IdealOqSwitch::new(2, DataRate::from_gbps(40));
        let pkts = vec![pkt(10, 0, 64, 0), pkt(11, 1, 64, 1)];
        sw.run(&pkts);
        let m = sw.departure_map();
        assert_eq!(m.len(), 2);
        assert!(m.contains_key(&10) && m.contains_key(&11));
        assert_eq!(sw.last_departure(), m.values().copied().max());
    }
}
