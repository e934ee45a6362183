//! Cancellable, deterministic event queue.
//!
//! Implemented as a hierarchical calendar queue: a fixed wheel of 256
//! buckets, each 1024 µs wide, absorbs the
//! dominant short-horizon timers (engine steps, MAC backoffs, frame
//! arrivals) with O(1) scheduling, while events beyond the wheel's horizon
//! wait in an overflow heap and are re-bucketed when the window advances.
//! Cancellation is O(1) through a slab of generation-tagged slots — no
//! tombstone set to hash into, and stale entries are compacted away when
//! they outnumber live ones, so a cancel/reschedule-heavy workload (MAC
//! retransmit timers) cannot grow the queue without bound.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Buckets in the calendar wheel (one window spans ~262 ms of virtual time).
const WHEEL_BUCKETS: usize = 256;
/// log2 of the bucket width in microseconds (1024 µs per bucket).
const BUCKET_SHIFT: u64 = 10;
/// Wheel horizon in microseconds: events this far past the window base
/// overflow into the far heap.
const HORIZON_US: u64 = (WHEEL_BUCKETS as u64) << BUCKET_SHIFT;
/// Minimum physical size before tombstone compaction is considered.
const COMPACT_MIN: usize = 128;

/// Handle to a scheduled event, usable for cancellation.
///
/// Encodes a slab slot and its generation; handles from fired or cancelled
/// events never alias a newer event in the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, generation: u32) -> Self {
        EventId(u64::from(generation) << 32 | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One slab slot: the generation tag plus whether an event is pending.
#[derive(Debug, Clone, Copy)]
struct Slot {
    generation: u32,
    pending: bool,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    slot: u32,
    generation: u32,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A deterministic discrete-event priority queue.
///
/// Events at equal timestamps pop in the order they were scheduled (FIFO),
/// which keeps whole-network simulations reproducible regardless of hash-map
/// iteration order or platform. The contract is total: pops are ordered by
/// `(time, schedule order)`, nothing else.
///
/// Cancellation is O(1): the handle's slab slot is released, and the stale
/// physical entry is skipped when reached (or swept by compaction before
/// that, if tombstones come to outnumber live events).
///
/// # Examples
///
/// ```
/// use wsn_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let id = q.schedule(SimTime::from_micros(10), "a");
/// q.schedule(SimTime::from_micros(10), "b");
/// q.cancel(id);
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "b")));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Entries of the bucket the cursor points at, sorted by `(at, seq)`.
    current: VecDeque<Entry<E>>,
    /// Unsorted future buckets of the active window.
    wheel: Vec<Vec<Entry<E>>>,
    /// Occupancy bitmap over `wheel` (bit per bucket).
    occupied: [u64; WHEEL_BUCKETS / 64],
    /// Events at or past `base + HORIZON`, ordered by `(at, seq)`.
    far: BinaryHeap<Reverse<Entry<E>>>,
    /// Virtual time of bucket 0 of the active window, µs.
    base_us: u64,
    /// Bucket index `current` corresponds to.
    cursor: usize,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Pending (live) events.
    live: usize,
    /// Physical entries whose event was cancelled but not yet reached.
    tombstones: usize,
    next_seq: u64,
    now: SimTime,
    dispatched: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            current: VecDeque::new(),
            wheel: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_BUCKETS / 64],
            far: BinaryHeap::new(),
            base_us: 0,
            cursor: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            tombstones: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// The virtual clock: the timestamp of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far (a cheap progress / runaway indicator).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Schedules `payload` at absolute time `at` and returns its handle.
    ///
    /// Scheduling in the past is clamped to `now`; the simulated world has no
    /// way to act retroactively, and clamping (rather than panicking) mirrors
    /// how a mote timer that "should have fired already" fires immediately.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].pending = true;
                s
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    pending: true,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.live += 1;
        self.place(Entry {
            at,
            seq,
            slot,
            generation,
            payload,
        });
        EventId::new(slot, generation)
    }

    /// Cancels a scheduled event. Returns `true` if the event had not yet
    /// fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let slot = id.slot();
        match self.slots.get(slot) {
            Some(s) if s.pending && s.generation == id.generation() => {
                self.release(slot);
                self.live -= 1;
                self.tombstones += 1;
                self.maybe_compact();
                true
            }
            _ => false,
        }
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            while let Some(entry) = self.current.pop_front() {
                if !self.entry_live(&entry) {
                    self.tombstones -= 1;
                    continue;
                }
                self.release(entry.slot as usize);
                self.live -= 1;
                debug_assert!(entry.at >= self.now, "event queue time regression");
                self.now = entry.at;
                self.dispatched += 1;
                return Some((entry.at, entry.payload));
            }
            if !self.advance_window() {
                // Queue drained: re-anchor the window at the clock so the
                // window-never-ahead-of-`now` invariant holds for whatever
                // gets scheduled next.
                self.base_us = (self.now.as_micros() >> BUCKET_SHIFT) << BUCKET_SHIFT;
                self.cursor = 0;
                return None;
            }
        }
    }

    /// Timestamp of the next live event without popping it.
    ///
    /// Peeking never promotes a wheel bucket into the current bucket: the
    /// window must not run ahead of `now` when the caller decides not to
    /// pop and schedules an earlier event instead. Stale (cancelled)
    /// entries encountered at the head are discarded on the way, so
    /// peeking is also how tombstones ahead of the clock get reclaimed
    /// without waiting for their timestamps.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            match self.current.front() {
                Some(e) if self.entry_live(e) => return Some(e.at),
                Some(_) => {
                    self.current.pop_front();
                    self.tombstones -= 1;
                }
                None => break,
            }
        }
        // The wheel: the lowest occupied bucket holds the next event. Drop
        // stale entries while scanning so the bucket's emptiness is real.
        while let Some(b) = self.lowest_occupied() {
            let slots = &self.slots;
            let bucket = &mut self.wheel[b];
            let before = bucket.len();
            bucket.retain(|e| {
                let s = slots[e.slot as usize];
                s.pending && s.generation == e.generation
            });
            self.tombstones -= before - bucket.len();
            if let Some(min) = bucket.iter().map(|e| e.at).min() {
                return Some(min);
            }
            self.clear_occupied(b);
        }
        // The far heap: discard stale tops, peek the first live one.
        while let Some(Reverse(e)) = self.far.peek() {
            if self.entry_live(e) {
                return Some(e.at);
            }
            self.far.pop();
            self.tombstones -= 1;
        }
        None
    }

    /// Whether no live events remain. Mutable because peeking discards
    /// cancelled tombstones (see [`EventQueue::peek_time`]).
    pub fn has_no_live_events(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Number of physical entries held, including not-yet-reclaimed
    /// tombstones. Compaction keeps this within 2× the live count (plus a
    /// small constant), so it is a fair memory gauge.
    pub fn len(&self) -> usize {
        self.live + self.tombstones
    }

    /// Whether the queue holds no entries at all (live or tombstoned).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // --- internals --------------------------------------------------------

    fn entry_live(&self, e: &Entry<E>) -> bool {
        let s = self.slots[e.slot as usize];
        s.pending && s.generation == e.generation
    }

    /// Frees a slab slot, bumping its generation so outstanding handles and
    /// stale physical entries can never match a future occupant.
    fn release(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        s.pending = false;
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot as u32);
    }

    fn bucket_of(&self, at: SimTime) -> u64 {
        (at.as_micros() - self.base_us) >> BUCKET_SHIFT
    }

    fn place(&mut self, entry: Entry<E>) {
        // `at >= now >= base + cursor * width` (the schedule clamp plus the
        // window invariant), so the index never lands before the cursor.
        let idx = self.bucket_of(entry.at);
        if idx == self.cursor as u64 {
            let pos = self
                .current
                .partition_point(|e| (e.at, e.seq) < (entry.at, entry.seq));
            self.current.insert(pos, entry);
        } else if idx < WHEEL_BUCKETS as u64 {
            self.wheel[idx as usize].push(entry);
            self.set_occupied(idx as usize);
        } else {
            self.far.push(Reverse(entry));
        }
    }

    fn set_occupied(&mut self, b: usize) {
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    fn clear_occupied(&mut self, b: usize) {
        self.occupied[b / 64] &= !(1 << (b % 64));
    }

    fn lowest_occupied(&self) -> Option<usize> {
        for (w, bits) in self.occupied.iter().enumerate() {
            if *bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Promotes the next non-empty bucket into `current`, refilling the
    /// window from the far heap when the wheel runs dry. Returns `false`
    /// when no physical entries remain anywhere.
    fn advance_window(&mut self) -> bool {
        loop {
            if let Some(b) = self.lowest_occupied() {
                self.cursor = b;
                self.clear_occupied(b);
                let mut bucket = std::mem::take(&mut self.wheel[b]);
                bucket.sort_unstable_by_key(|e| (e.at, e.seq));
                debug_assert!(self.current.is_empty());
                self.current = bucket.into();
                return true;
            }
            if self.far.is_empty() {
                return false;
            }
            // Jump the window to the far heap's earliest entry and pull
            // everything within one horizon of it back into buckets.
            let min_at = self.far.peek().map(|Reverse(e)| e.at).expect("non-empty");
            self.base_us = (min_at.as_micros() >> BUCKET_SHIFT) << BUCKET_SHIFT;
            self.cursor = 0;
            let limit = self.base_us + HORIZON_US;
            while let Some(Reverse(e)) = self.far.peek() {
                if e.at.as_micros() >= limit {
                    break;
                }
                let Reverse(entry) = self.far.pop().expect("peeked");
                let idx = self.bucket_of(entry.at) as usize;
                self.wheel[idx].push(entry);
                self.set_occupied(idx);
            }
        }
    }

    /// Sweeps stale entries out of every structure once they outnumber the
    /// live events, bounding memory under cancel-heavy workloads.
    fn maybe_compact(&mut self) {
        if self.tombstones <= self.live || self.live + self.tombstones < COMPACT_MIN {
            return;
        }
        let slots = &self.slots;
        let live_in = |e: &Entry<E>| {
            let s = slots[e.slot as usize];
            s.pending && s.generation == e.generation
        };
        self.current.retain(|e| live_in(e));
        for (b, bucket) in self.wheel.iter_mut().enumerate() {
            bucket.retain(|e| live_in(e));
            if bucket.is_empty() {
                self.occupied[b / 64] &= !(1 << (b % 64));
            }
        }
        let far = std::mem::take(&mut self.far).into_vec();
        self.far = far
            .into_iter()
            .filter(|Reverse(e)| live_in(e))
            .collect::<Vec<_>>()
            .into();
        self.tombstones = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tiebreak_at_same_time() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(42));
        assert_eq!(q.dispatched(), 1);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), "first");
        q.pop();
        q.schedule(SimTime::from_micros(1), "late");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "late");
        assert_eq!(t, SimTime::from_micros(100));
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        let b = q.schedule(SimTime::from_micros(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(!q.cancel(b), "cancel after fire reports false");
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(999)));
    }

    #[test]
    fn stale_handle_cannot_cancel_reused_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.pop();
        // The slot is recycled for a new event; the old handle must not
        // reach it.
        let b = q.schedule(SimTime::from_micros(2), "b");
        assert!(!q.cancel(a), "fired handle is dead forever");
        assert!(q.cancel(b));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_never_promotes_the_window() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), "near");
        q.schedule(SimTime::from_micros(200_000), "mid");
        q.schedule(SimTime::from_micros(3_600_000_000), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        // The head is now in a future wheel bucket (inside the ~262 ms
        // horizon). Peeking must not promote it: an event scheduled after
        // the peek but before the peeked head still pops first.
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(200_000)));
        q.schedule(SimTime::from_micros(100_000), "earlier");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(100_000)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("earlier"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("mid"));
        // Same for a head that lives in the far heap.
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3_600_000_000)));
        q.schedule(SimTime::from_micros(600_000), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(600_000)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("late"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_skips_cancelled_heads() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(2), "b");
        let c = q.schedule(SimTime::from_micros(900_000), "c");
        q.schedule(SimTime::from_micros(900_001), "d");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
        q.pop();
        q.cancel(c);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(900_001)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("d"));
    }

    #[test]
    fn far_future_events_cross_the_wheel_horizon() {
        let mut q = EventQueue::new();
        // Beyond one window (262 ms), into the far heap, plus a near event.
        q.schedule(SimTime::from_micros(3_600_000_000), "beacon");
        q.schedule(SimTime::from_micros(5), "near");
        q.schedule(SimTime::from_micros(500_000), "mid");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(500_000)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("mid"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("beacon"));
        assert_eq!(q.now(), SimTime::from_micros(3_600_000_000));
        // Scheduling after a long idle jump still works (window re-anchors).
        q.schedule(SimTime::from_micros(1), "clamped");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "clamped");
        assert_eq!(t, SimTime::from_micros(3_600_000_000));
    }

    #[test]
    fn fifo_preserved_across_far_heap_refill() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(10_000_000);
        for i in 0..50 {
            q.schedule(t, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(i));
        }
    }

    #[test]
    fn cancel_heavy_workload_has_bounded_memory() {
        // The MAC retransmit pattern: schedule a timer, cancel it on ack,
        // reschedule. Before compaction landed, every cancelled entry sat in
        // the heap until its timestamp was reached.
        let mut q = EventQueue::new();
        for round in 0..10_000u64 {
            let id = q.schedule(SimTime::from_micros(round * 10 + 2_000_000), round);
            q.cancel(id);
        }
        assert_eq!(q.peek_time(), None);
        assert!(
            q.len() < COMPACT_MIN,
            "tombstones must be compacted, len = {}",
            q.len()
        );
        // And with a live population, physical size stays proportional.
        let mut q = EventQueue::new();
        let keep: Vec<_> = (0..100u64)
            .map(|i| q.schedule(SimTime::from_micros(i + 5_000_000), i))
            .collect();
        for round in 0..10_000u64 {
            let id = q.schedule(SimTime::from_micros(round * 10 + 2_000_000), round);
            q.cancel(id);
        }
        assert!(
            q.len() <= 2 * keep.len() + COMPACT_MIN,
            "len = {} for 100 live events",
            q.len()
        );
        drop(keep);
    }

    /// The pre-refactor queue, kept as a behavioural oracle.
    struct ModelQueue<E> {
        entries: Vec<(u64, u64, bool, Option<E>)>, // (at, seq, live, payload)
        next_seq: u64,
        now: u64,
    }

    impl<E> ModelQueue<E> {
        fn new() -> Self {
            ModelQueue {
                entries: Vec::new(),
                next_seq: 0,
                now: 0,
            }
        }

        fn schedule(&mut self, at: u64, payload: E) -> u64 {
            let at = at.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.push((at, seq, true, Some(payload)));
            seq
        }

        fn cancel(&mut self, seq: u64) -> bool {
            for e in &mut self.entries {
                if e.1 == seq && e.2 {
                    e.2 = false;
                    return true;
                }
            }
            false
        }

        fn pop(&mut self) -> Option<(u64, E)> {
            let idx = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.2)
                .min_by_key(|(_, e)| (e.0, e.1))
                .map(|(i, _)| i)?;
            let mut e = self.entries.remove(idx);
            self.now = e.0;
            Some((e.0, e.3.take().expect("payload")))
        }

        fn peek_time(&self) -> Option<u64> {
            self.entries
                .iter()
                .filter(|e| e.2)
                .map(|e| (e.0, e.1))
                .min()
                .map(|(at, _)| at)
        }
    }

    proptest! {
        #[test]
        fn prop_pops_are_monotone(times in proptest::collection::vec(0u64..10_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
            }
        }

        #[test]
        fn prop_equal_times_preserve_fifo(n in 1usize..100) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime::from_micros(7), i);
            }
            let mut seen = Vec::new();
            while let Some((_, e)) = q.pop() {
                seen.push(e);
            }
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }

        #[test]
        fn prop_cancelled_never_pop(
            times in proptest::collection::vec(0u64..1000, 1..100),
            cancel_mask in proptest::collection::vec(proptest::bool::ANY, 1..100),
        ) {
            let mut q = EventQueue::new();
            let ids: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, t)| (i, q.schedule(SimTime::from_micros(*t), i)))
                .collect();
            let mut cancelled = std::collections::HashSet::new();
            for ((i, id), c) in ids.iter().zip(cancel_mask.iter()) {
                if *c {
                    q.cancel(*id);
                    cancelled.insert(*i);
                }
            }
            while let Some((_, e)) = q.pop() {
                prop_assert!(!cancelled.contains(&e));
            }
        }

        /// Random interleavings of schedule / cancel / pop / peek match the
        /// pre-refactor heap queue operation for operation — the contract
        /// every figure's byte-identity rests on. Times spread across three
        /// orders of magnitude so the wheel, the current bucket, and the far
        /// heap all participate. A bare peek leaves the head queued, so
        /// later schedules land between a peek and the pop that follows.
        #[test]
        fn prop_matches_reference_queue(
            ops in proptest::collection::vec((0u8..5, 0u64..3_000_000), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut m = ModelQueue::new();
            let mut ids: Vec<(EventId, u64)> = Vec::new();
            for (op, x) in ops {
                match op {
                    0 | 3 => {
                        let at = SimTime::from_micros(x);
                        let id = q.schedule(at, x);
                        let seq = m.schedule(x, x);
                        ids.push((id, seq));
                    }
                    1 => {
                        if !ids.is_empty() {
                            let (id, seq) = ids[x as usize % ids.len()];
                            prop_assert_eq!(q.cancel(id), m.cancel(seq));
                        }
                    }
                    2 => {
                        prop_assert_eq!(q.peek_time().map(SimTime::as_micros), m.peek_time());
                    }
                    _ => {
                        prop_assert_eq!(q.peek_time().map(SimTime::as_micros), m.peek_time());
                        let got = q.pop();
                        let want = m.pop();
                        prop_assert_eq!(
                            got.map(|(t, e)| (t.as_micros(), e)),
                            want
                        );
                    }
                }
            }
            while let Some((t, e)) = q.pop() {
                prop_assert_eq!(m.pop(), Some((t.as_micros(), e)));
            }
            prop_assert!(m.pop().is_none());
        }
    }
}
