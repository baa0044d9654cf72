//! Time-ordered event queue with deterministic tie-breaking.
//!
//! Two interchangeable kernels implement the same total order
//! `(time, seq)`:
//!
//! * [`QueueKind::TimingWheel`] (the default) — a hierarchical timing
//!   wheel keyed on picosecond buckets. Eight levels of 256 slots cover
//!   the full 64-bit tick space; the bucket width is 2^10 ps ≈ 1 ns,
//!   the finest HBM timing step (tWTR/tRTW), so one level-0 rotation
//!   (≈262 ns) spans every intra-frame HBM constraint (tRCD, tRP,
//!   tRAS, tFAW, tRFCsb), level 1 (≈67 µs) spans refresh intervals
//!   (tREFIsb) and telemetry epochs, and level 2 (≈17 ms) spans run
//!   horizons and drain deadlines. Inserts are O(1); pops drain a tiny
//!   per-bucket heap, so the cost no longer grows with the number of
//!   pending events the way a binary heap's does.
//! * [`QueueKind::BinaryHeap`] — the original `BinaryHeap` kernel, kept
//!   as the differential oracle: the equivalence and property suites
//!   run both kernels side by side and assert identical pop sequences.
//!
//! Bucket width affects performance only, never order: entries that
//! share a bucket are popped from an exact `(time, seq)` heap, so the
//! wheel is byte-identical to the oracle by construction. Compiling
//! `rip-sim` with the `heap-kernel` feature flips the default kernel
//! back to the heap oracle for whole-suite differential runs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// Which event-kernel backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Hierarchical timing wheel on picosecond buckets (the default).
    TimingWheel,
    /// The original binary-heap kernel, kept as a differential oracle.
    BinaryHeap,
}

impl QueueKind {
    /// The kernel [`EventQueue::new`] builds: the timing wheel, unless
    /// the `heap-kernel` feature flips the default to the oracle.
    pub fn default_kind() -> Self {
        if cfg!(feature = "heap-kernel") {
            QueueKind::BinaryHeap
        } else {
            QueueKind::TimingWheel
        }
    }
}

/// log2 of the wheel bucket width in picoseconds: 2^10 ps ≈ 1 ns, the
/// finest HBM timing step (tWTR/tRTW ≈ 1 ns), so same-bucket collisions
/// stay rare at device-model event densities.
const GRANULARITY_LOG2: u32 = 10;
/// log2 of the slots per wheel level.
const SLOT_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels: 8 x 8 bits covers the entire 64-bit tick space, so the top
/// levels double as the far-future overflow buckets — no separate
/// overflow list is needed.
const LEVELS: usize = 8;
/// 64-bit occupancy words per level.
const WORDS: usize = SLOTS / 64;

/// Hierarchical timing-wheel kernel.
///
/// Invariants:
/// * `current` holds every pending entry whose tick is `<= current_tick`
///   in an exact `(time, seq)` min-heap; the wheel slots hold entries
///   with strictly greater ticks.
/// * whenever the queue is non-empty, `current` is non-empty (the wheel
///   eagerly advances), so `peek` is one heap peek.
struct Wheel<E> {
    /// Tick of the bucket currently being drained.
    current_tick: u64,
    /// Exact-order heap over the entries at or before `current_tick`.
    current: BinaryHeap<Entry<E>>,
    /// `LEVELS * SLOTS` buckets of future entries.
    slots: Vec<Vec<Entry<E>>>,
    /// One bit per slot: which buckets are non-empty.
    occupancy: [[u64; WORDS]; LEVELS],
    /// Entries held in `slots` (excludes `current`).
    in_slots: usize,
}

#[inline]
fn tick_of(time: SimTime) -> u64 {
    time.as_ps() >> GRANULARITY_LOG2
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            current_tick: 0,
            current: BinaryHeap::new(),
            slots: std::iter::repeat_with(Vec::new)
                .take(LEVELS * SLOTS)
                .collect(),
            occupancy: [[0; WORDS]; LEVELS],
            in_slots: 0,
        }
    }

    fn len(&self) -> usize {
        self.current.len() + self.in_slots
    }

    fn insert(&mut self, entry: Entry<E>) {
        let tick = tick_of(entry.time);
        if self.current.is_empty() && self.in_slots == 0 {
            // Empty queue: restart the wheel at the entry's bucket.
            self.current_tick = tick;
            self.current.push(entry);
        } else {
            self.place(entry, tick);
        }
    }

    /// Insert with `current_tick` already authoritative (no empty-queue
    /// restart) — the re-insert path `advance` uses.
    fn place(&mut self, entry: Entry<E>, tick: u64) {
        if tick <= self.current_tick {
            // At or before the bucket being drained (schedule-at-now,
            // or behind an eagerly advanced wheel): the exact-order
            // heap keeps (time, seq) order regardless.
            self.current.push(entry);
            return;
        }
        let level = (63 - (tick ^ self.current_tick).leading_zeros()) / SLOT_BITS;
        let slot = ((tick >> (SLOT_BITS * level)) & (SLOTS as u64 - 1)) as usize;
        let (level, slot) = (level as usize, slot);
        self.slots[level * SLOTS + slot].push(entry);
        self.occupancy[level][slot / 64] |= 1 << (slot % 64);
        self.in_slots += 1;
    }

    fn peek(&self) -> Option<&Entry<E>> {
        self.current.peek()
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        let entry = self.current.pop()?;
        if self.current.is_empty() && self.in_slots > 0 {
            self.advance();
        }
        Some(entry)
    }

    /// Move `current_tick` to the next occupied bucket and refill
    /// `current`. Levels below the found slot are empty (that is what
    /// made us climb), so redistributing the one slot we take is enough
    /// to restore the invariants.
    fn advance(&mut self) {
        for level in 0..LEVELS {
            let cur_idx =
                ((self.current_tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            let Some(slot) = self.next_occupied(level, cur_idx) else {
                continue;
            };
            let mut entries = std::mem::take(&mut self.slots[level * SLOTS + slot]);
            self.occupancy[level][slot / 64] &= !(1 << (slot % 64));
            self.in_slots -= entries.len();
            let min_tick = entries
                .iter()
                .map(|e| tick_of(e.time))
                .min()
                .expect("occupied slot is non-empty");
            self.current_tick = min_tick;
            for e in entries.drain(..) {
                let tick = tick_of(e.time);
                self.place(e, tick);
            }
            // The slot's minimum-tick entries landed in `current`.
            debug_assert!(!self.current.is_empty());
            return;
        }
        debug_assert_eq!(self.in_slots, 0, "occupancy bitmaps out of sync");
    }

    /// The first occupied slot strictly after `after` at `level`, if
    /// any. All live slots at a level sit after the current index (they
    /// hold strictly future ticks), so one forward scan suffices.
    fn next_occupied(&self, level: usize, after: usize) -> Option<usize> {
        let words = &self.occupancy[level];
        let start_word = (after + 1) / 64;
        for (w, &word) in words.iter().enumerate().skip(start_word) {
            let mut bits = word;
            if w == start_word {
                let offset = (after + 1) % 64;
                bits &= !0u64 << offset;
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    fn into_entries(self) -> Vec<Entry<E>> {
        let mut v: Vec<Entry<E>> = self.current.into_iter().collect();
        for slot in self.slots {
            v.extend(slot);
        }
        v
    }

    fn iter(&self) -> impl Iterator<Item = &Entry<E>> {
        self.current.iter().chain(self.slots.iter().flatten())
    }
}

// The wheel is the default kernel and there is one queue per engine:
// keeping it inline spares every hot-path op a pointer chase, at the
// cost of a fat heap-kernel variant that never matters.
#[allow(clippy::large_enum_variant)]
enum Kernel<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<Entry<E>>),
}

/// A time-ordered event queue.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled, which makes whole simulations reproducible bit-for-bit
/// regardless of kernel internals: both the timing-wheel and the heap
/// kernel realize the same `(time, seq)` total order.
pub struct EventQueue<E> {
    kernel: Kernel<E>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero, on the default kernel
    /// ([`QueueKind::default_kind`]).
    pub fn new() -> Self {
        Self::with_kind(QueueKind::default_kind())
    }

    /// An empty queue at time zero on an explicit kernel — how the
    /// differential suites run the oracle and the wheel side by side.
    pub fn with_kind(kind: QueueKind) -> Self {
        let kernel = match kind {
            QueueKind::TimingWheel => Kernel::Wheel(Wheel::new()),
            QueueKind::BinaryHeap => Kernel::Heap(BinaryHeap::new()),
        };
        EventQueue {
            kernel,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// The kernel backing this queue.
    pub fn kind(&self) -> QueueKind {
        match self.kernel {
            Kernel::Wheel(_) => QueueKind::TimingWheel,
            Kernel::Heap(_) => QueueKind::BinaryHeap,
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
        let entry = Entry { time, seq, event };
        match &mut self.kernel {
            Kernel::Wheel(w) => w.insert(entry),
            Kernel::Heap(h) => h.push(entry),
        }
    }

    /// Remove and return the earliest event, with its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = match &mut self.kernel {
            Kernel::Wheel(w) => w.pop()?,
            Kernel::Heap(h) => h.pop()?,
        };
        debug_assert!(entry.time >= self.last_popped);
        self.last_popped = entry.time;
        Some((entry.time, entry.event))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.kernel {
            Kernel::Wheel(w) => w.peek().map(|e| e.time),
            Kernel::Heap(h) => h.peek().map(|e| e.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.kernel {
            Kernel::Wheel(w) => w.len(),
            Kernel::Heap(h) => h.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Drain the queue into pop order — `(time, seq, event)` sorted by
    /// `(time, seq)` — for checkpointing. Pop order is a total order,
    /// so neither kernel's internal layout ever leaks into a snapshot:
    /// a snapshot taken under one kernel resumes under the other.
    pub fn into_entries(self) -> Vec<(SimTime, u64, E)> {
        let mut v: Vec<(SimTime, u64, E)> = match self.kernel {
            Kernel::Wheel(w) => w
                .into_entries()
                .into_iter()
                .map(|e| (e.time, e.seq, e.event))
                .collect(),
            Kernel::Heap(h) => h.into_iter().map(|e| (e.time, e.seq, e.event)).collect(),
        };
        v.sort_by_key(|&(t, s, _)| (t, s));
        v
    }

    /// Pop order without consuming the queue (events are cloned).
    pub fn entries(&self) -> Vec<(SimTime, u64, E)>
    where
        E: Clone,
    {
        let mut v: Vec<(SimTime, u64, E)> = match &self.kernel {
            Kernel::Wheel(w) => w.iter().map(|e| (e.time, e.seq, e.event.clone())).collect(),
            Kernel::Heap(h) => h.iter().map(|e| (e.time, e.seq, e.event.clone())).collect(),
        };
        v.sort_by_key(|&(t, s, _)| (t, s));
        v
    }

    /// The sequence number the next `schedule` call will assign.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rebuild a queue from checkpointed parts on the default kernel:
    /// the pending entries (with their original insertion sequence
    /// numbers, so FIFO tie-breaks replay identically), the next
    /// sequence number, and the last popped time.
    ///
    /// # Panics
    /// Panics if any entry predates `last_popped` or carries a sequence
    /// number at or beyond `next_seq` — both indicate a corrupt or
    /// hand-edited snapshot.
    pub fn from_entries(
        entries: Vec<(SimTime, u64, E)>,
        next_seq: u64,
        last_popped: SimTime,
    ) -> Self {
        Self::from_entries_in(QueueKind::default_kind(), entries, next_seq, last_popped)
    }

    /// [`EventQueue::from_entries`] on an explicit kernel. Snapshots
    /// store kernel-agnostic pop order, so entries written under the
    /// heap oracle rebuild under the wheel (and vice versa) with
    /// byte-identical continuation.
    pub fn from_entries_in(
        kind: QueueKind,
        entries: Vec<(SimTime, u64, E)>,
        next_seq: u64,
        last_popped: SimTime,
    ) -> Self {
        let mut q = Self::with_kind(kind);
        q.next_seq = next_seq;
        q.last_popped = last_popped;
        for (time, seq, event) in entries {
            assert!(
                time >= last_popped,
                "snapshot entry at {time} predates last popped {last_popped}"
            );
            assert!(
                seq < next_seq,
                "snapshot entry seq {seq} >= next {next_seq}"
            );
            let entry = Entry { time, seq, event };
            match &mut q.kernel {
                Kernel::Wheel(w) => w.insert(entry),
                Kernel::Heap(h) => h.push(entry),
            }
        }
        q
    }
}

/// A minimal simulation driver around an [`EventQueue`].
///
/// The handler receives the current time, the event, and the queue (to
/// schedule follow-ups). `run` drains the queue; `run_until` stops at a
/// horizon, leaving later events pending.
pub struct Simulation<E> {
    queue: EventQueue<E>,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// A fresh simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            queue: EventQueue::new(),
        }
    }

    /// Schedule an initial event.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        self.queue.schedule(time, event);
    }

    /// Current simulation time (time of the last handled event).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Run until the queue is empty.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(SimTime, E, &mut EventQueue<E>),
    {
        while let Some((now, ev)) = self.queue.pop() {
            handler(now, ev, &mut self.queue);
        }
    }

    /// Run until the queue is empty or the next event is after `horizon`.
    ///
    /// Events at exactly `horizon` are handled; later ones stay queued.
    /// Returns the number of events handled.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F) -> u64
    where
        F: FnMut(SimTime, E, &mut EventQueue<E>),
    {
        let mut handled = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked event must pop");
            handler(now, ev, &mut self.queue);
            handled += 1;
        }
        handled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_units::TimeDelta;

    const KINDS: [QueueKind; 2] = [QueueKind::TimingWheel, QueueKind::BinaryHeap];

    #[test]
    fn pops_in_time_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(SimTime::from_ns(30), "c");
            q.schedule(SimTime::from_ns(10), "a");
            q.schedule(SimTime::from_ns(20), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"]);
        }
    }

    #[test]
    fn equal_times_are_fifo() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_ns(5);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }
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
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(SimTime::from_ns(10), 1);
            q.pop();
            q.schedule(SimTime::from_ns(10), 2);
            assert_eq!(q.pop().unwrap().1, 2);
        }
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new();
        for i in 0..10u64 {
            sim.schedule(SimTime::from_ns(i * 10), i);
        }
        let mut seen = Vec::new();
        let n = sim.run_until(SimTime::from_ns(40), |_, e, _| seen.push(e));
        assert_eq!(n, 5); // events at 0,10,20,30,40
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.pending(), 5);
        assert_eq!(sim.now(), SimTime::from_ns(40));
    }

    #[test]
    fn cascading_schedules() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, 0u32);
        let mut count = 0;
        sim.run(|now, n, q| {
            count += 1;
            if n < 99 {
                q.schedule(now + TimeDelta::from_ns(1), n + 1);
            }
        });
        assert_eq!(count, 100);
        assert_eq!(sim.now(), SimTime::from_ns(99));
    }

    #[test]
    fn entries_roundtrip_preserves_pop_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_ns(5);
            q.schedule(SimTime::from_ns(9), 100);
            for i in 0..10 {
                q.schedule(t, i);
            }
            q.schedule(SimTime::from_ns(1), 200);
            assert_eq!(q.pop().unwrap().1, 200);
            let (next_seq, now) = (q.next_seq(), q.now());
            let entries = q.entries();
            let mut rebuilt = EventQueue::from_entries_in(kind, entries, next_seq, now);
            let order: Vec<_> = std::iter::from_fn(|| rebuilt.pop())
                .map(|(_, e)| e)
                .collect();
            let expected: Vec<i32> = (0..10).chain(std::iter::once(100)).collect();
            assert_eq!(order, expected);
        }
    }

    #[test]
    #[should_panic(expected = "predates last popped")]
    fn from_entries_rejects_stale_entries() {
        let _ =
            EventQueue::from_entries(vec![(SimTime::from_ns(1), 0, ())], 1, SimTime::from_ns(5));
    }

    #[test]
    fn now_tracks_last_popped() {
        for kind in KINDS {
            let mut q: EventQueue<()> = EventQueue::with_kind(kind);
            assert_eq!(q.now(), SimTime::ZERO);
            q.schedule(SimTime::from_ns(7), ());
            assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
            q.pop();
            assert_eq!(q.now(), SimTime::from_ns(7));
            assert!(q.is_empty());
        }
    }

    /// Satellite check for `from_entries`: insertion-sequence numbers
    /// restored from a snapshot must keep steering FIFO tie-breaks,
    /// including against events scheduled *after* the resume (which get
    /// fresh, larger sequence numbers).
    #[test]
    fn from_entries_restores_resume_ordering() {
        for kind in KINDS {
            // Interleave two times so seq ordering matters at both.
            let t5 = SimTime::from_ns(5);
            let t9 = SimTime::from_ns(9);
            let mut q = EventQueue::with_kind(kind);
            q.schedule(t9, "i9-a");
            q.schedule(t5, "i5-a");
            q.schedule(t9, "i9-b");
            q.schedule(t5, "i5-b");
            let (next_seq, now) = (q.next_seq(), q.now());
            // Snapshot entries arrive in pop order; feed them shuffled
            // to prove the stored seqs (not insertion order into
            // from_entries) decide the tie-breaks.
            let mut entries = q.entries();
            entries.reverse();
            let mut rebuilt = EventQueue::from_entries_in(kind, entries, next_seq, now);
            assert_eq!(rebuilt.next_seq(), next_seq);
            // Post-resume schedules at the same instants must land
            // after the restored entries at those instants.
            rebuilt.schedule(t5, "p5");
            rebuilt.schedule(t9, "p9");
            let order: Vec<_> = std::iter::from_fn(|| rebuilt.pop())
                .map(|(_, e)| e)
                .collect();
            assert_eq!(order, vec!["i5-a", "i5-b", "p5", "i9-a", "i9-b", "p9"]);
        }
    }

    /// The wheel's top levels double as the far-future overflow bucket:
    /// near-term and u64-extreme times interleave correctly.
    #[test]
    fn far_future_overflow_bucket() {
        let mut wheel = EventQueue::with_kind(QueueKind::TimingWheel);
        let mut heap = EventQueue::with_kind(QueueKind::BinaryHeap);
        let times = [
            SimTime::from_ps(u64::MAX),
            SimTime::from_ps(1),
            SimTime::from_ps(u64::MAX - 1),
            SimTime::from_ns(1_000_000_000), // 1 s
            SimTime::ZERO,
            SimTime::from_ps(u64::MAX),
            SimTime::from_ns(3),
        ];
        for (i, &t) in times.iter().enumerate() {
            wheel.schedule(t, i);
            heap.schedule(t, i);
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Popping must re-sync the wheel after an eager advance overshoots
    /// a later schedule: schedule far, pop nothing, schedule near.
    #[test]
    fn schedule_behind_advanced_wheel() {
        let mut q = EventQueue::with_kind(QueueKind::TimingWheel);
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(1_000_000), "far");
        assert_eq!(q.pop().unwrap().1, "a");
        // The wheel has advanced its current bucket to "far"'s tick;
        // a schedule earlier than that bucket must still pop first.
        q.schedule(SimTime::from_ns(20), "b");
        q.schedule(SimTime::from_ns(999_999), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.pop().is_none());
    }
}
