//! Model-based property tests: `EventQueue` must realize the `(time,
//! seq)` total order of a sorted reference `Vec` for arbitrary
//! schedule/pop scripts — including same-timestamp tie-breaks,
//! u64-extreme times, and draining after a snapshot/`from_entries`
//! rebuild mid-script.

use proptest::prelude::*;
use rip_sim::EventQueue;
use rip_units::SimTime;

/// One scripted queue operation, decoded from a `(selector, raw)` pair
/// (the vendored proptest has no weighted-union combinator).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule an event `delta_ps` after the last popped time.
    Schedule(u64),
    /// Pop one event and compare with the model.
    Pop,
    /// Snapshot the queue, rebuild it with `from_entries`, and continue.
    Snapshot,
}

/// Decode a raw draw into an op. The schedule deltas span zero (FIFO
/// tie-break), sub-nanosecond, microsecond and millisecond offsets, and
/// u64-extreme offsets.
fn decode(sel: u8, raw: u64) -> Op {
    match sel % 13 {
        0 | 1 => Op::Schedule(0),
        2 | 3 => Op::Schedule(raw % 1024),
        4 | 5 => Op::Schedule(raw % 262_144),
        6 => Op::Schedule(raw % 67_108_864),
        7 => Op::Schedule(raw % 17_179_869_184),
        8 => Op::Schedule(u64::MAX / 2 + raw % (u64::MAX / 2)),
        9..=11 => Op::Pop,
        _ => Op::Snapshot,
    }
}

/// The reference: pending `(time, seq, tag)` kept sorted, so the
/// earliest entry is always at the front.
#[derive(Default)]
struct Model {
    pending: Vec<(SimTime, u64, u32)>,
    next_seq: u64,
    now: SimTime,
}

impl Model {
    fn schedule(&mut self, at: SimTime, tag: u32) {
        let entry = (at, self.next_seq, tag);
        self.next_seq += 1;
        let i = self.pending.partition_point(|e| *e < entry);
        self.pending.insert(i, entry);
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        if self.pending.is_empty() {
            return None;
        }
        let (t, _, tag) = self.pending.remove(0);
        self.now = t;
        Some((t, tag))
    }
}

/// Pop the queue and the model once and require identical `(time,
/// event)` results plus identical post-pop observables.
fn pop_both(q: &mut EventQueue<u32>, model: &mut Model) {
    assert_eq!(q.peek_time(), model.pending.first().map(|e| e.0));
    assert_eq!(q.pop(), model.pop(), "queue diverged from the model on pop");
    assert_eq!(q.now(), model.now);
    assert_eq!(q.len(), model.pending.len());
}

proptest! {
    /// Arbitrary scripts pop exactly as the sorted model does, at every
    /// intermediate step and in the final drain.
    #[test]
    fn queue_matches_sorted_vec_model(
        raw_ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut model = Model::default();
        let mut tag = 0u32;
        for &(sel, raw) in &raw_ops {
            match decode(sel, raw) {
                Op::Schedule(d) => {
                    let at = SimTime::from_ps(q.now().as_ps().saturating_add(d));
                    q.schedule(at, tag);
                    model.schedule(at, tag);
                    tag += 1;
                    prop_assert_eq!(q.peek_time(), model.pending.first().map(|e| e.0));
                }
                Op::Pop => pop_both(&mut q, &mut model),
                Op::Snapshot => {
                    // Snapshots hold the pending entries in pop order
                    // with their original sequence numbers.
                    let entries = q.entries();
                    prop_assert_eq!(&entries, &model.pending, "snapshot entries diverged");
                    prop_assert_eq!(q.next_seq(), model.next_seq);
                    q = EventQueue::from_entries(entries, q.next_seq(), q.now())
                        .expect("the queue's own snapshot rebuilds");
                }
            }
        }
        // Whatever the script left pending must pop identically to
        // exhaustion.
        while !q.is_empty() || !model.pending.is_empty() {
            pop_both(&mut q, &mut model);
        }
    }

    /// Bursts at one instant with a rebuild mid-burst: restored seqs keep
    /// the burst FIFO, and schedules after the rebuild pop after it.
    #[test]
    fn same_time_bursts_stay_fifo(
        burst in 1usize..64,
        t_ps in 0u64..1_000_000,
        split in 0usize..64,
    ) {
        let t = SimTime::from_ps(t_ps);
        let mut q = EventQueue::new();
        for i in 0..burst as u32 {
            q.schedule(t, i);
        }
        let split = split % (burst + 1);
        for _ in 0..split {
            q.pop();
        }
        let mut rebuilt = EventQueue::from_entries(q.entries(), q.next_seq(), q.now())
            .expect("the queue's own snapshot rebuilds");
        for i in 0..4u32 {
            rebuilt.schedule(t, 1000 + i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| rebuilt.pop()).map(|(_, e)| e).collect();
        let expected: Vec<u32> = (split as u32..burst as u32).chain(1000..1004).collect();
        prop_assert_eq!(order, expected);
    }
}
