//! Time-ordered event queue with deterministic tie-breaking.
//!
//! One `BinaryHeap` realizes the total order `(time, seq)`: events pop
//! by firing time, and among equal times in insertion order. The
//! streaming engine feeds arrivals from a one-packet lookahead instead
//! of pre-scheduling them, so the queue holds only the in-flight device
//! events (O(hundreds)), where a heap's logarithmic cost is small.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use rip_units::SimTime;

/// One scheduled entry: fires at `time`; among equal times, entries fire
/// in insertion order (`seq`).
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq)
        // pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Why [`EventQueue::from_entries`] refused checkpointed parts: both
/// cases mean a corrupt or hand-edited snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueRestoreError {
    /// An entry fires before the restored "now".
    EntryPredatesNow {
        /// The entry's firing time.
        time: SimTime,
        /// The restored last popped time.
        last_popped: SimTime,
    },
    /// An entry's sequence number is at or beyond the restored next one,
    /// so a later `schedule` could tie with it.
    SeqNotBelowNext {
        /// The entry's sequence number.
        seq: u64,
        /// The restored next sequence number.
        next_seq: u64,
    },
}

impl fmt::Display for QueueRestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueRestoreError::EntryPredatesNow { time, last_popped } => {
                write!(
                    f,
                    "snapshot entry at {time} predates last popped {last_popped}"
                )
            }
            QueueRestoreError::SeqNotBelowNext { seq, next_seq } => {
                write!(f, "snapshot entry seq {seq} >= next {next_seq}")
            }
        }
    }
}

impl std::error::Error for QueueRestoreError {}

/// A time-ordered event queue.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled, which makes whole simulations reproducible bit-for-bit.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `event` to fire at `time`.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the last popped event — scheduling
    /// into the past is always a simulation bug.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.last_popped,
            "scheduling into the past: {time} < last popped {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Remove and return the earliest event, with its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.last_popped);
        self.last_popped = entry.time;
        Some((entry.time, entry.event))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// The pending entries in pop order — `(time, seq, event)` sorted by
    /// `(time, seq)` — for checkpointing. Pop order is a total order, so
    /// the heap's internal layout never leaks into a snapshot.
    pub fn entries(&self) -> Vec<(SimTime, u64, E)>
    where
        E: Clone,
    {
        let mut v: Vec<(SimTime, u64, E)> = self
            .heap
            .iter()
            .map(|e| (e.time, e.seq, e.event.clone()))
            .collect();
        v.sort_by_key(|&(t, s, _)| (t, s));
        v
    }

    /// The sequence number the next `schedule` call will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rebuild a queue from checkpointed parts: the pending entries
    /// (with their original insertion sequence numbers, so FIFO
    /// tie-breaks replay identically), the next sequence number, and
    /// the last popped time. An entry that predates `last_popped` or
    /// carries a sequence number at or beyond `next_seq` is a
    /// [`QueueRestoreError`].
    pub fn from_entries(
        entries: Vec<(SimTime, u64, E)>,
        next_seq: u64,
        last_popped: SimTime,
    ) -> Result<Self, QueueRestoreError> {
        let mut heap = BinaryHeap::with_capacity(entries.len());
        for (time, seq, event) in entries {
            if time < last_popped {
                return Err(QueueRestoreError::EntryPredatesNow { time, last_popped });
            }
            if seq >= next_seq {
                return Err(QueueRestoreError::SeqNotBelowNext { seq, next_seq });
            }
            heap.push(Entry { time, seq, event });
        }
        Ok(EventQueue {
            heap,
            next_seq,
            last_popped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_units::TimeDelta;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(9), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 1);
        q.pop();
        q.schedule(SimTime::from_ns(10), 2);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn run_until_respects_horizon() {
        // The engine's loop shape: peek, stop past the horizon, pop.
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule(SimTime::from_ns(i * 10), i);
        }
        let horizon = SimTime::from_ns(40);
        let mut seen = Vec::new();
        while q.peek_time().is_some_and(|t| t <= horizon) {
            seen.push(q.pop().unwrap().1);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]); // events at 0,10,20,30,40
        assert_eq!(q.len(), 5);
        assert_eq!(q.now(), SimTime::from_ns(40));
    }

    #[test]
    fn cascading_schedules() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0u32);
        let mut count = 0;
        while let Some((now, n)) = q.pop() {
            count += 1;
            if n < 99 {
                q.schedule(now + TimeDelta::from_ns(1), n + 1);
            }
        }
        assert_eq!(count, 100);
        assert_eq!(q.now(), SimTime::from_ns(99));
    }

    #[test]
    fn entries_roundtrip_preserves_pop_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        q.schedule(SimTime::from_ns(9), 100);
        for i in 0..10 {
            q.schedule(t, i);
        }
        q.schedule(SimTime::from_ns(1), 200);
        assert_eq!(q.pop().unwrap().1, 200);
        let mut rebuilt = EventQueue::from_entries(q.entries(), q.next_seq(), q.now()).unwrap();
        let expected: Vec<i32> = (0..10).chain(std::iter::once(100)).collect();
        assert_eq!(drain(&mut rebuilt), expected);
    }

    #[test]
    fn from_entries_rejects_corrupt_parts() {
        let stale =
            EventQueue::from_entries(vec![(SimTime::from_ns(1), 0, ())], 1, SimTime::from_ns(5));
        assert_eq!(
            stale.err(),
            Some(QueueRestoreError::EntryPredatesNow {
                time: SimTime::from_ns(1),
                last_popped: SimTime::from_ns(5),
            })
        );
        let ahead = EventQueue::from_entries(vec![(SimTime::from_ns(9), 3, ())], 3, SimTime::ZERO);
        assert_eq!(
            ahead.err(),
            Some(QueueRestoreError::SeqNotBelowNext {
                seq: 3,
                next_seq: 3
            })
        );
    }

    #[test]
    fn now_tracks_last_popped() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_ns(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
        assert!(q.is_empty());
    }

    /// Insertion-sequence numbers restored from a snapshot must keep
    /// steering FIFO tie-breaks, including against events scheduled
    /// *after* the resume (which get fresh, larger sequence numbers).
    #[test]
    fn from_entries_restores_resume_ordering() {
        // Interleave two times so seq ordering matters at both.
        let t5 = SimTime::from_ns(5);
        let t9 = SimTime::from_ns(9);
        let mut q = EventQueue::new();
        q.schedule(t9, "i9-a");
        q.schedule(t5, "i5-a");
        q.schedule(t9, "i9-b");
        q.schedule(t5, "i5-b");
        // Snapshot entries arrive in pop order; feed them reversed to
        // prove the stored seqs (not insertion order into from_entries)
        // decide the tie-breaks.
        let mut entries = q.entries();
        entries.reverse();
        let mut rebuilt = EventQueue::from_entries(entries, q.next_seq(), q.now()).unwrap();
        assert_eq!(rebuilt.next_seq(), q.next_seq());
        // Post-resume schedules at the same instants must land after
        // the restored entries at those instants.
        rebuilt.schedule(t5, "p5");
        rebuilt.schedule(t9, "p9");
        assert_eq!(
            drain(&mut rebuilt),
            vec!["i5-a", "i5-b", "p5", "i9-a", "i9-b", "p9"]
        );
    }

    /// Near-term and u64-extreme times interleave in time order, with
    /// FIFO among the two `u64::MAX` entries.
    #[test]
    fn far_future_overflow_bucket() {
        let times = [
            SimTime::from_ps(u64::MAX),
            SimTime::from_ps(1),
            SimTime::from_ps(u64::MAX - 1),
            SimTime::from_ns(1_000_000_000), // 1 s
            SimTime::ZERO,
            SimTime::from_ps(u64::MAX),
            SimTime::from_ns(3),
        ];
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        assert_eq!(drain(&mut q), vec![4, 1, 6, 3, 2, 0, 5]);
    }

    /// A schedule earlier than a pending far event, made after a pop,
    /// still pops first.
    #[test]
    fn schedule_behind_advanced_wheel() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(1_000_000), "far");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_ns(20), "b");
        q.schedule(SimTime::from_ns(999_999), "c");
        assert_eq!(drain(&mut q), vec!["b", "c", "far"]);
    }
}
