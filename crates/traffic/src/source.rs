//! Pull-based packet sources.
//!
//! The batch pipeline materializes a complete `Vec<Packet>` before the
//! first event fires, so memory grows linearly with the simulated
//! horizon. A [`PacketSource`] instead yields packets one at a time in
//! non-decreasing arrival order, letting the event loops pull arrivals
//! as simulated time advances and keeping memory proportional to the
//! number of packets actually in flight.
//!
//! Determinism contract: a source is a pure function of its
//! construction parameters (seed included). Pulling the same source
//! twice yields the same packet sequence, and the adapters here
//! ([`BoundedSource`], [`MergedSource`], [`ReplaySource`]) are written
//! so that collecting a source reproduces, byte for byte, the vector
//! the batch helpers ([`PacketGenerator::generate_until`],
//! [`merge_streams`]) would have built:
//!
//! * [`BoundedSource`] stops exactly like `generate_until` — the first
//!   packet beyond the horizon is generated (consuming the same RNG
//!   draws) and then discarded.
//! * [`MergedSource`] breaks ties with the same `(arrival, input, id)`
//!   key as `merge_streams`'s stable sort, falling back to lane
//!   insertion order on full ties.
//!
//! [`PacketGenerator::generate_until`]: crate::PacketGenerator::generate_until
//! [`merge_streams`]: crate::merge_streams

use rip_units::SimTime;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::packet::Packet;
use crate::PacketGenerator;

/// A pull-based stream of packets in non-decreasing arrival order.
///
/// `next_packet` returns `None` once the stream is exhausted; after
/// that it must keep returning `None`. Implementations must be
/// deterministic: the yielded sequence depends only on construction
/// parameters, never on wall-clock time or pull timing.
pub trait PacketSource {
    /// The next packet, or `None` when the stream has ended.
    fn next_packet(&mut self) -> Option<Packet>;

    /// Adapt this source into a plain [`Iterator`] over packets.
    fn packets(self) -> Packets<Self>
    where
        Self: Sized,
    {
        Packets { source: self }
    }
}

impl<S: PacketSource + ?Sized> PacketSource for &mut S {
    fn next_packet(&mut self) -> Option<Packet> {
        (**self).next_packet()
    }
}

/// A source whose mutable position can be checkpointed and restored.
///
/// `save_state` captures everything that changes as packets are pulled
/// (RNG state, stream position, lookahead buffers) as a [`Value`]
/// tree; `restore_state` rewinds a *freshly constructed, identically
/// configured* source to that position. The static configuration
/// (seed, load, weights, flow pool) is **not** part of the state — the
/// resuming process rebuilds it from the run spec, exactly as the
/// original process did, then restores the position on top.
///
/// Contract: for any source `s`, `save_state` → pull k packets →
/// construct an identical source → `restore_state` must yield the same
/// next k packets (and the same exhaustion point). The checkpoint
/// equivalence suite holds every implementation to it.
pub trait StatefulSource {
    /// Capture the mutable pull position.
    fn save_state(&self) -> Value;

    /// Restore a previously captured position onto a freshly built,
    /// identically configured source.
    fn restore_state(&mut self, state: &Value) -> Result<(), DeError>;
}

impl<S: StatefulSource + ?Sized> StatefulSource for &mut S {
    fn save_state(&self) -> Value {
        (**self).save_state()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        (**self).restore_state(state)
    }
}

impl<S: StatefulSource + ?Sized> StatefulSource for Box<S> {
    fn save_state(&self) -> Value {
        (**self).save_state()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        (**self).restore_state(state)
    }
}

impl<S: PacketSource + ?Sized> PacketSource for Box<S> {
    fn next_packet(&mut self) -> Option<Packet> {
        (**self).next_packet()
    }
}

impl PacketSource for PacketGenerator {
    fn next_packet(&mut self) -> Option<Packet> {
        PacketGenerator::next_packet(self)
    }
}

/// Iterator adapter returned by [`PacketSource::packets`].
#[derive(Debug)]
pub struct Packets<S> {
    source: S,
}

impl<S: PacketSource> Iterator for Packets<S> {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        self.source.next_packet()
    }
}

/// Truncates an inner source at an arrival horizon.
///
/// Matches [`PacketGenerator::generate_until`] exactly: the first
/// packet whose arrival exceeds `horizon` is pulled from the inner
/// source (so any RNG state it consumed is consumed here too) and then
/// discarded; the stream ends and the inner source is never pulled
/// again.
///
/// [`PacketGenerator::generate_until`]: crate::PacketGenerator::generate_until
#[derive(Debug)]
pub struct BoundedSource<S> {
    inner: S,
    horizon: SimTime,
    done: bool,
}

impl<S: PacketSource> BoundedSource<S> {
    /// Bound `inner` to packets arriving at or before `horizon`.
    pub fn new(inner: S, horizon: SimTime) -> Self {
        Self {
            inner,
            horizon,
            done: false,
        }
    }
}

impl<S: PacketSource> PacketSource for BoundedSource<S> {
    fn next_packet(&mut self) -> Option<Packet> {
        if self.done {
            return None;
        }
        match self.inner.next_packet() {
            Some(p) if p.arrival <= self.horizon => Some(p),
            _ => {
                // First overshoot (or inner exhaustion) ends the
                // stream; the overshooting packet is dropped, exactly
                // like `generate_until`'s final partial gap.
                self.done = true;
                None
            }
        }
    }
}

#[derive(Serialize, Deserialize)]
struct BoundedState {
    inner: Value,
    done: bool,
}

impl<S: StatefulSource> StatefulSource for BoundedSource<S> {
    fn save_state(&self) -> Value {
        BoundedState {
            inner: self.inner.save_state(),
            done: self.done,
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let s = BoundedState::from_value(state)?;
        self.inner.restore_state(&s.inner)?;
        self.done = s.done;
        Ok(())
    }
}

/// Deterministic k-way merge of packet sources.
///
/// Yields the globally arrival-ordered interleaving of its lanes,
/// breaking ties by `(arrival, input, id)` — the same key
/// [`merge_streams`] sorts by — and, on full key ties, by lane
/// insertion order (which is what `merge_streams`'s stable sort
/// preserves). Each lane buffers at most one pending packet, so the
/// merge runs in O(lanes) memory regardless of horizon.
///
/// [`merge_streams`]: crate::merge_streams
#[derive(Debug)]
pub struct MergedSource<S> {
    lanes: Vec<Lane<S>>,
}

#[derive(Debug)]
struct Lane<S> {
    source: S,
    /// One-packet lookahead; `None` once the lane is exhausted and the
    /// buffered packet has been yielded.
    pending: Option<Packet>,
    /// Whether the underlying source has ended (stop pulling it).
    done: bool,
}

impl<S: PacketSource> MergedSource<S> {
    /// Merge `sources`; lane order is the tie-break of last resort.
    pub fn new(sources: Vec<S>) -> Self {
        let lanes = sources
            .into_iter()
            .map(|source| Lane {
                source,
                pending: None,
                done: false,
            })
            .collect();
        Self { lanes }
    }

    /// The next packet together with the index of the lane (in
    /// construction order) it came from, or `None` once every lane is
    /// exhausted. [`PacketSource::next_packet`] is this without the
    /// lane index.
    pub fn next_with_lane(&mut self) -> Option<(usize, Packet)> {
        // Refill lookaheads, then take the lane whose pending packet
        // has the smallest (arrival, input, id); strict `<` keeps the
        // earliest lane on full ties.
        let mut best: Option<usize> = None;
        for i in 0..self.lanes.len() {
            if self.lanes[i].pending.is_none() && !self.lanes[i].done {
                match self.lanes[i].source.next_packet() {
                    Some(p) => self.lanes[i].pending = Some(p),
                    None => self.lanes[i].done = true,
                }
            }
            if let Some(p) = &self.lanes[i].pending {
                let better = match best {
                    None => true,
                    Some(b) => {
                        let q = self.lanes[b].pending.as_ref().expect("best has pending");
                        (p.arrival, p.input, p.id) < (q.arrival, q.input, q.id)
                    }
                };
                if better {
                    best = Some(i);
                }
            }
        }
        let i = best?;
        self.lanes[i].pending.take().map(|p| (i, p))
    }
}

impl<S: PacketSource> PacketSource for MergedSource<S> {
    fn next_packet(&mut self) -> Option<Packet> {
        self.next_with_lane().map(|(_, p)| p)
    }
}

#[derive(Serialize, Deserialize)]
struct LaneState {
    inner: Value,
    pending: Option<Packet>,
    done: bool,
}

#[derive(Serialize, Deserialize)]
struct MergedState {
    lanes: Vec<LaneState>,
}

impl<S: StatefulSource> StatefulSource for MergedSource<S> {
    fn save_state(&self) -> Value {
        MergedState {
            lanes: self
                .lanes
                .iter()
                .map(|l| LaneState {
                    inner: l.source.save_state(),
                    pending: l.pending,
                    done: l.done,
                })
                .collect(),
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let s = MergedState::from_value(state)?;
        if s.lanes.len() != self.lanes.len() {
            return Err(DeError::custom(format!(
                "merged source has {} lanes, snapshot has {}",
                self.lanes.len(),
                s.lanes.len()
            )));
        }
        for (lane, ls) in self.lanes.iter_mut().zip(&s.lanes) {
            lane.source.restore_state(&ls.inner)?;
            lane.pending = ls.pending;
            lane.done = ls.done;
        }
        Ok(())
    }
}

/// Replays a materialized, arrival-ordered slice as a source.
///
/// Back-compat shim: it lets the batch entry points (`run(&[Packet])`)
/// drive the streaming engine, and lets equivalence tests feed the
/// exact same trace to both engines.
#[derive(Debug, Clone)]
pub struct ReplaySource<'a> {
    trace: &'a [Packet],
    next: usize,
}

impl<'a> ReplaySource<'a> {
    /// Replay `trace` front to back.
    pub fn new(trace: &'a [Packet]) -> Self {
        Self { trace, next: 0 }
    }
}

impl PacketSource for ReplaySource<'_> {
    fn next_packet(&mut self) -> Option<Packet> {
        let p = self.trace.get(self.next)?;
        self.next += 1;
        Some(*p)
    }
}

impl StatefulSource for ReplaySource<'_> {
    fn save_state(&self) -> Value {
        (self.next as u64).to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let next = u64::from_value(state)? as usize;
        if next > self.trace.len() {
            return Err(DeError::custom(format!(
                "replay position {next} beyond trace length {}",
                self.trace.len()
            )));
        }
        self.next = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{merge_streams, ArrivalProcess};
    use crate::size::SizeDistribution;
    use rip_units::DataRate;

    fn gen(input: usize, load: f64, seed: u64) -> PacketGenerator {
        PacketGenerator::new(
            input,
            DataRate::from_gbps(100),
            load,
            vec![1.0; 4],
            SizeDistribution::Imix,
            ArrivalProcess::Poisson,
            64,
            seed,
        )
        .expect("valid generator")
    }

    #[test]
    fn bounded_source_matches_generate_until() {
        let h = SimTime::from_ns(200_000);
        let batch = gen(0, 0.7, 9).generate_until(h);
        let streamed: Vec<Packet> = BoundedSource::new(gen(0, 0.7, 9), h).packets().collect();
        assert_eq!(batch, streamed);
        assert!(!batch.is_empty());
    }

    #[test]
    fn bounded_source_consumes_the_overshoot_like_generate_until() {
        let h = SimTime::from_ns(50_000);
        // After exhaustion both paths must leave the generator in the
        // same RNG state: the next packet drawn from each matches.
        let mut a = gen(1, 0.6, 17);
        let _ = a.generate_until(h);
        let mut bounded = BoundedSource::new(gen(1, 0.6, 17), h);
        while bounded.next_packet().is_some() {}
        assert_eq!(a.next_packet(), bounded.inner.next_packet());
    }

    #[test]
    fn bounded_source_of_zero_load_is_empty() {
        let mut s = BoundedSource::new(gen(0, 0.0, 1), SimTime::from_ns(1_000_000));
        assert_eq!(s.next_packet(), None);
        assert_eq!(s.next_packet(), None);
    }

    #[test]
    fn merged_source_matches_merge_streams() {
        let h = SimTime::from_ns(100_000);
        let batch = merge_streams(vec![
            gen(0, 0.5, 11).generate_until(h),
            gen(1, 0.5, 12).generate_until(h),
            gen(2, 0.8, 13).generate_until(h),
        ]);
        let streamed: Vec<Packet> = MergedSource::new(vec![
            BoundedSource::new(gen(0, 0.5, 11), h),
            BoundedSource::new(gen(1, 0.5, 12), h),
            BoundedSource::new(gen(2, 0.8, 13), h),
        ])
        .packets()
        .collect();
        assert_eq!(batch, streamed);
        assert!(!batch.is_empty());
    }

    #[test]
    fn merged_source_breaks_full_ties_by_lane_order() {
        // Two lanes with identical (arrival, input, id) packets: the
        // earlier lane must win, matching merge_streams' stable sort.
        let a = [Packet::new(
            5,
            0,
            1,
            rip_units::DataSize::from_bytes(100),
            SimTime::from_ns(10),
        )];
        let b = [Packet::new(
            5,
            0,
            2,
            rip_units::DataSize::from_bytes(200),
            SimTime::from_ns(10),
        )];
        let merged: Vec<Packet> =
            MergedSource::new(vec![ReplaySource::new(&a), ReplaySource::new(&b)])
                .packets()
                .collect();
        assert_eq!(merged[0].output, 1, "lane 0 wins the full tie");
        assert_eq!(merged[1].output, 2);
        let batch = merge_streams(vec![a.to_vec(), b.to_vec()]);
        assert_eq!(merged, batch);

        let mut laned = MergedSource::new(vec![ReplaySource::new(&a), ReplaySource::new(&b)]);
        assert_eq!(laned.next_with_lane(), Some((0, a[0])));
        assert_eq!(laned.next_with_lane(), Some((1, b[0])));
        assert_eq!(laned.next_with_lane(), None);
    }

    #[test]
    fn save_restore_resumes_the_exact_stream() {
        let h = SimTime::from_ns(150_000);
        let mk = || {
            MergedSource::new(vec![
                BoundedSource::new(gen(0, 0.6, 31), h),
                BoundedSource::new(gen(1, 0.5, 32), h),
                BoundedSource::new(gen(2, 0.7, 33), h),
            ])
        };
        let mut live = mk();
        // Pull partway, snapshot, then drain the live source.
        let mut prefix = Vec::new();
        for _ in 0..200 {
            prefix.push(live.next_packet().expect("stream longer than 200"));
        }
        let state = live.save_state();
        let json = serde_json::to_string(&state.to_value()).unwrap();
        let tail: Vec<Packet> = live.packets().collect();
        // A fresh, identically configured source restored from the
        // serialized state must continue byte-identically.
        let mut resumed = mk();
        let v: Value = serde_json::from_str(&json).unwrap();
        resumed.restore_state(&v).unwrap();
        let resumed_tail: Vec<Packet> = resumed.packets().collect();
        assert!(!tail.is_empty());
        assert_eq!(tail, resumed_tail);
    }

    #[test]
    fn restore_rejects_lane_count_mismatch() {
        let h = SimTime::from_ns(1_000);
        let two = MergedSource::new(vec![
            BoundedSource::new(gen(0, 0.5, 1), h),
            BoundedSource::new(gen(1, 0.5, 2), h),
        ]);
        let state = two.save_state();
        let mut one = MergedSource::new(vec![BoundedSource::new(gen(0, 0.5, 1), h)]);
        let err = one.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("lanes"));
    }

    #[test]
    fn replay_source_yields_the_slice() {
        let h = SimTime::from_ns(20_000);
        let trace = gen(3, 0.4, 21).generate_until(h);
        let replayed: Vec<Packet> = ReplaySource::new(&trace).packets().collect();
        assert_eq!(trace, replayed);
    }
}
