//! Output ports (§3.2 ➅): batches are cut back into variable-length
//! packets, converted E/O, and hashed over the α fibers × W wavelengths
//! of the egress ribbon, "as in ECMP or dynamic link aggregation".

use rip_photonics::OeoConverter;
use rip_traffic::hash::{fiber_wavelength_for, HashKind};
use rip_units::{DataRate, DataSize, SimTime};
use serde::{Deserialize, Serialize};

use crate::batch::Batch;

/// One packet departure from an output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketDeparture {
    /// The packet id.
    pub packet: u64,
    /// When its last byte left the port.
    pub time: SimTime,
    /// When it arrived at the router (for delay computation).
    pub arrival: SimTime,
    /// Egress fiber picked by the flow hash.
    pub fiber: u32,
    /// Egress wavelength picked by the flow hash.
    pub wavelength: u32,
}

/// One output port: drains batches at the external line rate, tracks
/// per-lane byte counts, and meters E/O conversion energy.
///
/// Two egress models are supported:
/// * **aggregate** (default): the port serializes at `α·W·R` and a
///   packet departs when its last byte clears the aggregate — the
///   port-level abstraction used by the throughput experiments;
/// * **per-lane** ([`OutputPort::set_lane_rate`]): each packet is
///   additionally serialized on its hashed (fiber, wavelength) lane at
///   the wavelength rate `R`, so flow-hash collisions congest
///   individual lanes — the real behaviour of ECMP/LAG spreading that
///   §3.2 ➅ inherits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OutputPort {
    output: usize,
    rate: DataRate,
    fibers: usize,
    wavelengths: usize,
    hash: HashKind,
    /// Per-lane wavelength rate; `None` = aggregate model.
    lane_rate: Option<DataRate>,
    /// Per-lane line frontiers (per-lane model only).
    lane_free: Vec<SimTime>,
    /// Bytes sent per (fiber, wavelength) lane, row-major.
    lane_bytes: Vec<u64>,
    oeo: OeoConverter,
    /// When the port line frees up.
    busy_until: SimTime,
    /// Payload delivered.
    delivered: DataSize,
}

impl OutputPort {
    /// A port for `output` at `rate`, spreading over `fibers ×
    /// wavelengths` egress lanes.
    pub fn new(output: usize, rate: DataRate, fibers: usize, wavelengths: usize) -> Self {
        assert!(fibers > 0 && wavelengths > 0 && !rate.is_zero());
        // Departures log their lane as `u32`.
        assert!(u32::try_from(fibers).is_ok() && u32::try_from(wavelengths).is_ok());
        OutputPort {
            output,
            rate,
            fibers,
            wavelengths,
            hash: HashKind::Crc32c,
            lane_rate: None,
            lane_free: vec![SimTime::ZERO; fibers * wavelengths],
            lane_bytes: vec![0; fibers * wavelengths],
            oeo: OeoConverter::reference(),
            busy_until: SimTime::ZERO,
            delivered: DataSize::ZERO,
        }
    }

    /// Enable the per-lane egress model with the given wavelength rate
    /// (`None` restores the aggregate model).
    pub fn set_lane_rate(&mut self, lane_rate: Option<DataRate>) {
        self.lane_rate = lane_rate;
    }

    /// The port index.
    pub fn output(&self) -> usize {
        self.output
    }

    /// When the line frees up.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Drain one batch starting no earlier than `start`. Only payload is
    /// serialized (padding is discarded before E/O). Returns the drain
    /// end time and the departures of packets whose last chunk was in
    /// this batch.
    ///
    /// Convenience wrapper over [`OutputPort::drain_batch_into`] that
    /// allocates a fresh departure vector — use `drain_batch_into` on
    /// hot paths.
    pub fn drain_batch(
        &mut self,
        batch: &Batch,
        start: SimTime,
    ) -> (SimTime, Vec<PacketDeparture>) {
        let mut departures = Vec::new();
        let end = self.drain_batch_into(batch, start, &mut departures);
        (end, departures)
    }

    /// Drain one batch starting no earlier than `start`, appending the
    /// departures of packets whose last chunk was in this batch to
    /// `departures`. Returns the drain end time.
    pub fn drain_batch_into(
        &mut self,
        batch: &Batch,
        start: SimTime,
        departures: &mut Vec<PacketDeparture>,
    ) -> SimTime {
        let start = start.max(self.busy_until);
        let mut pos = DataSize::ZERO;
        for chunk in &batch.chunks {
            pos += chunk.len;
            let (fiber, wavelength) =
                fiber_wavelength_for(chunk.flow, self.fibers, self.wavelengths, self.hash);
            self.lane_bytes[fiber * self.wavelengths + wavelength] += chunk.len.bytes();
            if chunk.is_last {
                // When the last byte clears the aggregate port...
                let avail = start + self.rate.transfer_time(pos);
                let time = match self.lane_rate {
                    None => avail,
                    Some(r) => {
                        // ...the whole packet is then serialized on its
                        // hashed wavelength lane at R.
                        let lane = fiber * self.wavelengths + wavelength;
                        let size = DataSize::from_bytes(chunk.offset + chunk.len.bytes());
                        let begin = avail.max(self.lane_free[lane]);
                        let dep = begin + r.transfer_time(size);
                        self.lane_free[lane] = dep;
                        dep
                    }
                };
                departures.push(PacketDeparture {
                    packet: chunk.packet,
                    time,
                    arrival: chunk.arrival,
                    fiber: fiber as u32,
                    wavelength: wavelength as u32,
                });
            }
        }
        // `pos` has run over every chunk: it is the batch's payload.
        let payload = pos;
        let end = start + self.rate.transfer_time(payload);
        self.busy_until = end;
        self.delivered += payload;
        self.oeo.convert(payload);
        end
    }

    /// Per-lane byte counts (row-major `[fiber][wavelength]`).
    pub fn lane_bytes(&self) -> &[u64] {
        &self.lane_bytes
    }

    /// Coefficient of variation of the per-lane byte spread (0 = perfectly
    /// even; the §4 "hashing leads to even TMs" check).
    pub fn lane_spread_cv(&self) -> f64 {
        let n = self.lane_bytes.len() as f64;
        let mean = self.lane_bytes.iter().sum::<u64>() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .lane_bytes
            .iter()
            .map(|&b| (b as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }

    /// Total payload delivered.
    pub fn delivered(&self) -> DataSize {
        self.delivered
    }

    /// E/O conversion energy spent so far, joules.
    pub fn oeo_energy_joules(&self) -> f64 {
        self.oeo.energy_joules()
    }

    /// The E/O conversion stage itself (bits converted, event counts).
    pub fn oeo(&self) -> &OeoConverter {
        &self.oeo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Chunk;
    use rip_traffic::FlowKey;

    fn flow(i: u32) -> FlowKey {
        FlowKey {
            src_ip: i,
            dst_ip: i.wrapping_mul(2654435761),
            src_port: (i % 60000) as u16,
            dst_port: 443,
            proto: 6,
        }
    }

    fn chunk(pkt: u64, bytes: u64, is_last: bool, f: u32) -> Chunk {
        Chunk {
            packet: pkt,
            offset: 0,
            len: DataSize::from_bytes(bytes),
            is_last,
            arrival: SimTime::ZERO,
            flow: flow(f),
        }
    }

    #[test]
    fn departure_time_is_position_dependent() {
        // 100 Gb/s port: 1000 B = 80 ns.
        let mut port = OutputPort::new(0, DataRate::from_gbps(100), 4, 4);
        let batch = Batch {
            input: 0,
            output: 0,
            seq: 0,
            chunks: vec![chunk(1, 1000, true, 1), chunk(2, 1000, true, 2)],
            padding: DataSize::ZERO,
        };
        let (end, deps) = port.drain_batch(&batch, SimTime::from_ns(10));
        assert_eq!(deps.len(), 2);
        assert_eq!(deps[0].time, SimTime::from_ns(90));
        assert_eq!(deps[1].time, SimTime::from_ns(170));
        assert_eq!(end, SimTime::from_ns(170));
        assert_eq!(port.delivered(), DataSize::from_bytes(2000));
    }

    #[test]
    fn padding_is_not_serialized() {
        let mut port = OutputPort::new(0, DataRate::from_gbps(100), 2, 2);
        let batch = Batch {
            input: 0,
            output: 0,
            seq: 0,
            chunks: vec![chunk(1, 500, true, 1)],
            padding: DataSize::from_bytes(524),
        };
        let (end, _) = port.drain_batch(&batch, SimTime::ZERO);
        assert_eq!(end, SimTime::from_ns(40)); // 500 B only
    }

    #[test]
    fn line_serializes_back_to_back_batches() {
        let mut port = OutputPort::new(0, DataRate::from_gbps(100), 2, 2);
        let b = Batch {
            input: 0,
            output: 0,
            seq: 0,
            chunks: vec![chunk(1, 1000, true, 1)],
            padding: DataSize::ZERO,
        };
        let (end1, _) = port.drain_batch(&b, SimTime::ZERO);
        // Requested earlier than the line frees: starts at end1.
        let (end2, deps) = port.drain_batch(&b, SimTime::from_ns(1));
        assert_eq!(end2, end1 + rip_units::TimeDelta::from_ns(80));
        assert_eq!(deps[0].time, end2);
    }

    #[test]
    fn non_final_chunks_do_not_depart() {
        let mut port = OutputPort::new(0, DataRate::from_gbps(100), 2, 2);
        let batch = Batch {
            input: 0,
            output: 0,
            seq: 0,
            chunks: vec![chunk(7, 600, false, 1)],
            padding: DataSize::ZERO,
        };
        let (_, deps) = port.drain_batch(&batch, SimTime::ZERO);
        assert!(deps.is_empty());
    }

    #[test]
    fn many_flows_spread_evenly_over_lanes() {
        let mut port = OutputPort::new(0, DataRate::from_gbps(100), 4, 16);
        for i in 0..16_000u32 {
            let batch = Batch {
                input: 0,
                output: 0,
                seq: i as u64,
                chunks: vec![chunk(i as u64, 1000, true, i)],
                padding: DataSize::ZERO,
            };
            port.drain_batch(&batch, SimTime::ZERO);
        }
        let cv = port.lane_spread_cv();
        assert!(cv < 0.15, "lane spread CV {cv} too uneven");
        assert!(port.lane_bytes().iter().all(|&b| b > 0));
    }

    #[test]
    fn single_flow_sticks_to_one_lane() {
        // Flow affinity: all packets of one flow use the same lane (no
        // intra-flow reordering across lanes).
        let mut port = OutputPort::new(0, DataRate::from_gbps(100), 4, 16);
        for i in 0..100u64 {
            let batch = Batch {
                input: 0,
                output: 0,
                seq: i,
                chunks: vec![chunk(i, 1000, true, 42)],
                padding: DataSize::ZERO,
            };
            port.drain_batch(&batch, SimTime::ZERO);
        }
        let used = port.lane_bytes().iter().filter(|&&b| b > 0).count();
        assert_eq!(used, 1);
    }

    #[test]
    fn per_lane_model_serializes_at_wavelength_rate() {
        // Aggregate 640 Gb/s port, 40 Gb/s lanes.
        let mut port = OutputPort::new(0, DataRate::from_gbps(640), 4, 4);
        port.set_lane_rate(Some(DataRate::from_gbps(40)));
        let batch = Batch {
            input: 0,
            output: 0,
            seq: 0,
            chunks: vec![chunk(1, 1500, true, 7)],
            padding: DataSize::ZERO,
        };
        let (_, deps) = port.drain_batch(&batch, SimTime::ZERO);
        // 1500 B: 18.75 ns on the aggregate + 300 ns on the lane.
        assert_eq!(deps[0].time, SimTime::from_ps(18_750 + 300_000));
    }

    #[test]
    fn elephant_flow_congests_one_lane() {
        let mut port = OutputPort::new(0, DataRate::from_gbps(640), 4, 4);
        port.set_lane_rate(Some(DataRate::from_gbps(40)));
        // 20 packets of one flow arrive back-to-back at aggregate rate;
        // their shared lane serializes them at R, queueing each behind
        // the previous: last departure ~ 20 x 300 ns.
        let mut last = SimTime::ZERO;
        for i in 0..20 {
            let batch = Batch {
                input: 0,
                output: 0,
                seq: i,
                chunks: vec![chunk(i, 1500, true, 42)],
                padding: DataSize::ZERO,
            };
            let (_, deps) = port.drain_batch(&batch, SimTime::ZERO);
            last = deps[0].time;
        }
        assert!(
            last >= SimTime::from_ns(20 * 300),
            "elephant flow must queue on its lane: {last}"
        );
        // The same 20 packets across many flows spread over lanes and
        // finish far earlier.
        let mut spread = OutputPort::new(0, DataRate::from_gbps(640), 4, 4);
        spread.set_lane_rate(Some(DataRate::from_gbps(40)));
        let mut last_spread = SimTime::ZERO;
        for i in 0..20u64 {
            let batch = Batch {
                input: 0,
                output: 0,
                seq: i,
                chunks: vec![chunk(i, 1500, true, i as u32)],
                padding: DataSize::ZERO,
            };
            let (_, deps) = spread.drain_batch(&batch, SimTime::ZERO);
            last_spread = last_spread.max(deps[0].time);
        }
        assert!(last_spread < last, "{last_spread} !< {last}");
    }

    #[test]
    fn straddled_packet_uses_full_size_on_the_lane() {
        let mut port = OutputPort::new(0, DataRate::from_gbps(640), 2, 2);
        port.set_lane_rate(Some(DataRate::from_gbps(40)));
        // Last chunk of a 1000 B packet whose first 600 B went in an
        // earlier batch: lane serialization covers the full 1000 B.
        let c = Chunk {
            packet: 9,
            offset: 600,
            len: DataSize::from_bytes(400),
            is_last: true,
            arrival: SimTime::ZERO,
            flow: flow(3),
        };
        let batch = Batch {
            input: 0,
            output: 0,
            seq: 0,
            chunks: vec![c],
            padding: DataSize::ZERO,
        };
        let (_, deps) = port.drain_batch(&batch, SimTime::ZERO);
        // 400 B at 640 Gb/s = 5 ns to the port, then 1000 B at 40 Gb/s
        // = 200 ns on the lane.
        assert_eq!(deps[0].time, SimTime::from_ps(5_000 + 200_000));
    }

    #[test]
    fn oeo_energy_tracks_payload() {
        let mut port = OutputPort::new(0, DataRate::from_gbps(100), 2, 2);
        let batch = Batch {
            input: 0,
            output: 0,
            seq: 0,
            chunks: vec![chunk(1, 1000, true, 1)],
            padding: DataSize::from_bytes(24),
        };
        port.drain_batch(&batch, SimTime::ZERO);
        let expect = 1.15 * 1000.0 * 8.0 * 1e-12;
        assert!((port.oeo_energy_joules() - expect).abs() < 1e-15);
    }
}
