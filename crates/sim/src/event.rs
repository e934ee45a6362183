//! Cancellable, deterministic event queue.
//!
//! A binary min-heap of small `(time, sequence)` keys; payloads live in a
//! slab of generation-tagged slots. Cancellation is O(1): the slot drops its
//! payload and bumps its generation, so the key left in the heap goes stale
//! and is skipped when reached. Stale keys are compacted away once they
//! outnumber live ones, so a cancel/reschedule-heavy workload (MAC
//! retransmit timers) cannot grow the queue without bound.
//!
//! The earliest key may wait in a head slot outside the heap. An agent's
//! engine reschedules itself for a time later than the clock but earlier
//! than every queued timer, over and over; such a key becomes the head and
//! pops without touching the heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

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

/// One slab slot: the generation tag plus the pending event's payload.
/// The generation is bumped every time the slot is released, so a key or
/// handle is live only while its generation matches.
#[derive(Debug)]
struct Slot<E> {
    generation: u32,
    payload: Option<E>,
}

/// A heap entry. The derived order compares fields top to bottom, and `seq`
/// is unique, so keys order by `(at, seq)` alone.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
    generation: u32,
}

impl Key {
    /// Whether the key's event is still pending: its slot has not been
    /// released since the key was pushed.
    fn is_live<E>(&self, slots: &[Slot<E>]) -> bool {
        slots[self.slot as usize].generation == self.generation
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
/// key is skipped when reached (or swept by compaction before that, if
/// tombstones come to outnumber live events).
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
    /// The earliest key, held outside `heap` while it orders before every
    /// key in it. It may be stale (its event cancelled).
    head: Option<Key>,
    heap: BinaryHeap<Reverse<Key>>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Keys in `head` or `heap` whose event was cancelled but not yet
    /// reached.
    tombstones: usize,
    next_seq: u64,
    now: SimTime,
    dispatched: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            head: None,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
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
                self.slots[s as usize].payload = Some(payload);
                s
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    payload: Some(payload),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        let key = Key {
            at,
            seq,
            slot,
            generation,
        };
        // `seq` is the largest yet, so a key orders before another only if
        // it is strictly earlier in time.
        match &mut self.head {
            Some(head) if at < head.at => {
                let displaced = std::mem::replace(head, key);
                self.heap.push(Reverse(displaced));
            }
            None if self.heap.peek().is_none_or(|Reverse(top)| at < top.at) => {
                self.head = Some(key);
            }
            _ => self.heap.push(Reverse(key)),
        }
        EventId::new(slot, generation)
    }

    /// Cancels a scheduled event. Returns `true` if the event had not yet
    /// fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get(id.slot()) {
            Some(s) if s.generation == id.generation() => {
                drop(self.release(id.slot()));
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
            let key = match self.head.take() {
                Some(head) => head,
                None => self.heap.pop()?.0,
            };
            if !key.is_live(&self.slots) {
                self.tombstones -= 1;
                continue;
            }
            let payload = self.release(key.slot as usize);
            debug_assert!(key.at >= self.now, "event queue time regression");
            self.now = key.at;
            self.dispatched += 1;
            return Some((key.at, payload));
        }
    }

    /// Timestamp of the next live event without popping it.
    ///
    /// Stale (cancelled) keys at the head are discarded on the way, so
    /// peeking is also how tombstones ahead of the clock get reclaimed
    /// without waiting for their timestamps.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if let Some(head) = &self.head {
            if head.is_live(&self.slots) {
                return Some(head.at);
            }
            self.head = None;
            self.tombstones -= 1;
        }
        while let Some(Reverse(key)) = self.heap.peek() {
            if key.is_live(&self.slots) {
                return Some(key.at);
            }
            self.heap.pop();
            self.tombstones -= 1;
        }
        None
    }

    /// Number of physical entries held, including not-yet-reclaimed
    /// tombstones. Compaction keeps this within 2× the live count (plus a
    /// small constant), so it is a fair memory gauge.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.head.is_some())
    }

    /// Whether the queue holds no entries at all (live or tombstoned).
    pub fn is_empty(&self) -> bool {
        self.head.is_none() && self.heap.is_empty()
    }

    // --- internals --------------------------------------------------------

    /// Frees a slab slot and hands back its payload, bumping the generation
    /// so outstanding handles and stale keys can never match a future
    /// occupant.
    fn release(&mut self, slot: usize) -> E {
        let s = &mut self.slots[slot];
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot as u32);
        s.payload.take().expect("a live slot holds its payload")
    }

    /// Sweeps stale keys out of the heap once they outnumber the live
    /// events, bounding memory under cancel-heavy workloads.
    fn maybe_compact(&mut self) {
        let len = self.len();
        if self.tombstones <= len - self.tombstones || len < COMPACT_MIN {
            return;
        }
        let slots = &self.slots;
        self.head = self.head.take().filter(|key| key.is_live(slots));
        self.heap.retain(|Reverse(key)| key.is_live(slots));
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
    fn peek_time_leaves_the_head_queued() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(5), "near");
        q.schedule(SimTime::from_micros(200_000), "mid");
        q.schedule(SimTime::from_micros(3_600_000_000), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        // Peeking must not commit to the head: an event scheduled after the
        // peek but before the peeked head still pops first.
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(200_000)));
        q.schedule(SimTime::from_micros(100_000), "earlier");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(100_000)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("earlier"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("mid"));
        // Same for a head an hour away.
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
    fn far_future_events_pop_after_near_ones() {
        let mut q = EventQueue::new();
        // An hour-away beacon scheduled before a near and a mid event.
        q.schedule(SimTime::from_micros(3_600_000_000), "beacon");
        q.schedule(SimTime::from_micros(5), "near");
        q.schedule(SimTime::from_micros(500_000), "mid");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(500_000)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("mid"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("beacon"));
        assert_eq!(q.now(), SimTime::from_micros(3_600_000_000));
        // Scheduling in the past after a long idle jump clamps to `now`.
        q.schedule(SimTime::from_micros(1), "clamped");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "clamped");
        assert_eq!(t, SimTime::from_micros(3_600_000_000));
    }

    #[test]
    fn fifo_preserved_for_distant_equal_times() {
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

    #[test]
    fn earlier_key_displaces_the_head_which_keeps_its_fifo_place() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(10);
        q.schedule(t, "a"); // the head
        q.schedule(t, "b"); // after the head: into the heap
        q.schedule(SimTime::from_micros(5), "c"); // displaces "a" into the heap
        q.schedule(t, "d");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["c", "a", "b", "d"]);
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_head_is_counted_until_skipped() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_micros(5), "a"); // the head
        q.schedule(SimTime::from_micros(9), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 2, "a stale head is held until reached");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
        assert_eq!(q.len(), 1);
        let c = q.schedule(SimTime::from_micros(3), "c"); // a new head
        assert!(q.cancel(c));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_micros(9), "b")));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn compaction_drops_a_stale_head() {
        let mut q = EventQueue::new();
        let head = q.schedule(SimTime::from_micros(1), 0u64);
        let ids: Vec<_> = (0..200u64)
            .map(|i| q.schedule(SimTime::from_micros(1_000 + i), i))
            .collect();
        assert!(q.cancel(head));
        for id in &ids[..100] {
            assert!(q.cancel(*id));
        }
        // 101 tombstones against 100 live events: compaction ran, and the
        // stale head went with the heap's stale keys.
        assert_eq!(q.len(), 100);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1_100)));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, (100..200).collect::<Vec<_>>());
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
        /// orders of magnitude, and cancels leave stale keys at every depth
        /// of the heap. A bare peek leaves the head queued, so later
        /// schedules land between a peek and the pop that follows. Keys
        /// just after the last popped time displace and refill the head
        /// slot, as an agent's engine rescheduling itself does.
        #[test]
        fn prop_matches_reference_queue(
            ops in proptest::collection::vec((0u8..6, 0u64..3_000_000), 1..300),
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
                    5 => {
                        let at = m.now + x % 3;
                        let id = q.schedule(SimTime::from_micros(at), x);
                        let seq = m.schedule(at, x);
                        ids.push((id, seq));
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
