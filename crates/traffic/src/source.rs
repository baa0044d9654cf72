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
//! so that collecting a source reproduces, byte for byte, the vector a
//! materializing helper would have built:
//!
//! * [`BoundedSource`] stops exactly like
//!   [`PacketGenerator::generate_until`] — the first packet beyond the
//!   horizon is generated (consuming the same RNG draws) and then
//!   discarded.
//! * [`MergedSource`] yields the order of a stable sort of all its
//!   lanes' packets by `(arrival, input, id)`: full key ties fall back
//!   to lane insertion order.
//!
//! [`PacketGenerator::generate_until`]: crate::PacketGenerator::generate_until

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// breaking ties by `(arrival, input, id)` and, on full key ties, by
/// lane insertion order — the order a stable sort of every lane's
/// packets by `(arrival, input, id)` gives. Each lane buffers at most
/// one pending packet, so the merge runs in O(lanes) memory regardless
/// of horizon.
///
/// The pending packets sit in a min-heap keyed `(arrival, input, id,
/// lane)`, so a pull costs O(log lanes). A lane is refilled lazily, on
/// the pull after the one that yielded from it, so the pull position
/// [`StatefulSource::save_state`] captures is exactly that of a merge
/// that refills every empty lane at the start of each pull.
#[derive(Debug)]
pub struct MergedSource<S> {
    lanes: Vec<Lane<S>>,
    /// The merge key of every lane holding a pending packet.
    heap: BinaryHeap<Reverse<MergeKey>>,
    /// Which lanes to refill at the start of the next pull.
    refill: Refill,
}

/// `(arrival, input, id, lane)`: the merge order of a pending packet.
type MergeKey = (SimTime, usize, u64, usize);

#[derive(Debug, Clone, Copy)]
enum Refill {
    /// Every lane: the heap is empty and must be built (first pull,
    /// or the first pull after a restore).
    All,
    /// Only this lane: it yielded the previous packet.
    Lane(usize),
    /// None: the merge is exhausted.
    Nothing,
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
        // The heap allocates on the first pull, which builds it.
        Self {
            lanes,
            heap: BinaryHeap::new(),
            refill: Refill::All,
        }
    }

    /// Pull lane `i` if its lookahead is empty and it has not ended;
    /// the merge key of its pending packet, if any.
    fn fill(&mut self, i: usize) -> Option<MergeKey> {
        let lane = &mut self.lanes[i];
        if lane.pending.is_none() && !lane.done {
            lane.pending = lane.source.next_packet();
            lane.done = lane.pending.is_none();
        }
        lane.pending.map(|p| (p.arrival, p.input, p.id, i))
    }

    /// The next packet together with the index of the lane (in
    /// construction order) it came from, or `None` once every lane is
    /// exhausted. [`PacketSource::next_packet`] is this without the
    /// lane index.
    pub fn next_with_lane(&mut self) -> Option<(usize, Packet)> {
        let fresh = match std::mem::replace(&mut self.refill, Refill::Nothing) {
            Refill::All => {
                for i in 0..self.lanes.len() {
                    if let Some(key) = self.fill(i) {
                        self.heap.push(Reverse(key));
                    }
                }
                None
            }
            Refill::Lane(i) => self.fill(i),
            Refill::Nothing => None,
        };
        // A refilled lane that still leads is yielded without touching
        // the heap; otherwise it replaces the heap top in one sift.
        let key = match fresh {
            Some(key) => match self.heap.peek_mut() {
                Some(mut top) if top.0 < key => std::mem::replace(&mut *top, Reverse(key)).0,
                _ => key,
            },
            None => self.heap.pop()?.0,
        };
        let i = key.3;
        self.refill = Refill::Lane(i);
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
        // Rebuild the heap from the lanes on the next pull, also when a
        // lane below fails to restore and leaves the earlier ones
        // restored: the keys held now may name any lane's old packet.
        self.heap.clear();
        self.refill = Refill::All;
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
    use proptest::prelude::*;
    use rip_units::{DataRate, DataSize};

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

    /// The linear-scan merge the heap replaced, kept as the oracle: at
    /// every pull, refill every empty lane, then take the lane whose
    /// pending packet has the smallest `(arrival, input, id)`; strict
    /// `<` keeps the earliest lane on full ties. It runs on the lanes
    /// of a `MergedSource` (whose heap it leaves unused), so that
    /// source's `save_state` reports the scan's pull position.
    fn scan_next<S: PacketSource>(m: &mut MergedSource<S>) -> Option<(usize, Packet)> {
        let mut best: Option<usize> = None;
        for i in 0..m.lanes.len() {
            let lane = &mut m.lanes[i];
            if lane.pending.is_none() && !lane.done {
                lane.pending = lane.source.next_packet();
                lane.done = lane.pending.is_none();
            }
            if let Some(p) = &m.lanes[i].pending {
                let better = best.is_none_or(|b| {
                    let q = m.lanes[b].pending.as_ref().expect("best has pending");
                    (p.arrival, p.input, p.id) < (q.arrival, q.input, q.id)
                });
                if better {
                    best = Some(i);
                }
            }
        }
        let i = best?;
        m.lanes[i].pending.take().map(|p| (i, p))
    }

    /// Lanes of packets from `(arrival_ns, input, id)` triples, each
    /// lane sorted by that key. The small key ranges force full key
    /// ties within and across lanes; `output` and `size` record the
    /// lane and position so tied packets stay distinguishable.
    fn lanes_of(keys: &[Vec<(u64, usize, u64)>]) -> Vec<Vec<Packet>> {
        keys.iter()
            .enumerate()
            .map(|(lane, ks)| {
                let mut ks = ks.clone();
                ks.sort();
                ks.iter()
                    .enumerate()
                    .map(|(j, &(t, input, id))| {
                        let size = DataSize::from_bytes(j as u64 + 1);
                        Packet::new(id, input, lane, size, SimTime::from_ns(t))
                    })
                    .collect()
            })
            .collect()
    }

    fn merged(lanes: &[Vec<Packet>]) -> MergedSource<ReplaySource<'_>> {
        MergedSource::new(lanes.iter().map(|l| ReplaySource::new(l)).collect())
    }

    fn lane_keys() -> impl Strategy<Value = Vec<Vec<(u64, usize, u64)>>> {
        prop::collection::vec(
            prop::collection::vec((0u64..6, 0usize..3, 0u64..4), 0..12),
            0..7,
        )
    }

    proptest! {
        /// Pull for pull, the heap merge yields what the linear scan
        /// yields and leaves the same saved state behind; collected, it
        /// is the stable sort of all lanes.
        #[test]
        fn heap_merge_matches_the_scan_and_sort_oracles(keys in lane_keys()) {
            let lanes = lanes_of(&keys);
            let mut heap = merged(&lanes);
            let mut scan = merged(&lanes);
            let mut out = Vec::new();
            loop {
                prop_assert_eq!(heap.save_state(), scan.save_state());
                let next = heap.next_with_lane();
                prop_assert_eq!(next, scan_next(&mut scan));
                let Some((lane, p)) = next else { break };
                prop_assert_eq!(lane, p.output);
                out.push(p);
            }
            prop_assert_eq!(heap.next_with_lane(), None);
            prop_assert_eq!(heap.save_state(), scan.save_state());
            prop_assert_eq!(out, merge_streams(lanes));
        }

        /// A snapshot taken after any number of pulls restores onto a
        /// fresh merge that saves the same state and continues with
        /// the same packets.
        #[test]
        fn restore_at_any_point_continues_identically(keys in lane_keys(), cut in 0usize..80) {
            let lanes = lanes_of(&keys);
            let mut live = merged(&lanes);
            let mut prefix = Vec::new();
            for _ in 0..cut {
                match live.next_packet() {
                    Some(p) => prefix.push(p),
                    None => break,
                }
            }
            let saved = live.save_state();
            let json = serde_json::to_string(&saved).unwrap();
            let tail: Vec<Packet> = live.packets().collect();
            let mut resumed = merged(&lanes);
            resumed.restore_state(&serde_json::from_str(&json).unwrap()).unwrap();
            prop_assert_eq!(resumed.save_state(), saved);
            let resumed_tail: Vec<Packet> = resumed.packets().collect();
            prop_assert_eq!(&resumed_tail, &tail);
            prefix.extend(tail);
            prop_assert_eq!(prefix, merge_streams(lanes));
        }
    }

    #[test]
    fn a_failed_restore_leaves_the_merge_consistent_with_its_lanes() {
        let lanes = lanes_of(&[
            (0..10).map(|t| (2 * t, 0, t)).collect(),
            (0..10).map(|t| (2 * t + 1, 1, t)).collect(),
            (0..10).map(|t| (3 * t, 2, t)).collect(),
        ]);
        // Snapshot after `cut` pulls, make its second lane unrestorable
        // (a replay position past the trace), pull `more` packets and
        // restore it: lane 0 goes back, lanes 1 and 2 stay where they
        // are. The heap merge must go on exactly like the scan oracle
        // given the same lanes, and so end only with every lane empty.
        for cut in 0..8 {
            for more in 1..12 {
                let mut heap = merged(&lanes);
                let mut scan = merged(&lanes);
                for _ in 0..cut {
                    assert_eq!(heap.next_with_lane(), scan_next(&mut scan));
                }
                let mut bad = MergedState::from_value(&heap.save_state()).unwrap();
                bad.lanes[1].inner = 1_000u64.to_value();
                let bad = bad.to_value();
                for _ in 0..more {
                    assert_eq!(heap.next_with_lane(), scan_next(&mut scan));
                }
                assert!(heap.restore_state(&bad).is_err());
                assert!(scan.restore_state(&bad).is_err());
                loop {
                    assert_eq!(
                        heap.save_state(),
                        scan.save_state(),
                        "cut {cut}, more {more}"
                    );
                    let next = heap.next_with_lane();
                    assert_eq!(next, scan_next(&mut scan), "cut {cut}, more {more}");
                    if next.is_none() {
                        assert!(heap.lanes.iter().all(|l| l.pending.is_none() && l.done));
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn replay_source_yields_the_slice() {
        let h = SimTime::from_ns(20_000);
        let trace = gen(3, 0.4, 21).generate_until(h);
        let replayed: Vec<Packet> = ReplaySource::new(&trace).packets().collect();
        assert_eq!(trace, replayed);
    }
}
