//! The shared reliable-unicast session layer.
//!
//! Both of Agilla's acknowledged protocols — hop-by-hop agent migration and
//! remote tuple-space operations — are stop-and-wait state machines over the
//! same lossy links: send, arm a retransmit timer, retry a bounded number of
//! times, and (on the passive side) answer duplicates of already-completed
//! work from a cache instead of re-executing it. This module owns that
//! machinery once, so the two protocols cannot drift apart again:
//!
//! * [`SessionIdGen`] — wrapping, never-zero id allocation for sessions,
//!   operations, and agents.
//! * [`RetxState`] — sender-side retransmission bookkeeping (tries, the
//!   pending timer, and whether the exchange ever needed a retransmission).
//! * [`CompletedCache`] — a TTL'd completed-session cache for duplicate
//!   suppression and re-acking. Entries live for the full retransmit window
//!   of the peer (never evicted early by capacity pressure), then expire so
//!   a wrapped-around id cannot match a stale record.
//!
//! The paper motivates exactly this layering: "reliability \[is\] addressed
//! within the network" (Section 3.2) — robust delivery belongs to reusable
//! middleware infrastructure, not to each protocol separately. Georouted
//! forwarding ([`wsn_net::next_hop_candidates`]) exposes an ordered failover
//! list so hop-level retries can hook in here later without another
//! hand-rolled timer loop.

use std::collections::VecDeque;

use wsn_common::NodeId;
use wsn_sim::{EventId, SimDuration, SimTime};

/// Candidate failover for a reliable session whose retransmission budget
/// toward one next hop is exhausted: records the hop as tried, enforces the
/// shared switch cap ([`crate::config::MAX_HOP_FAILOVERS`]), and returns the
/// best untried candidate, or `None` when the session must fail.
///
/// Both protocols route their failover decisions through here so the cap —
/// which the server-side reply-cache TTL
/// ([`crate::config::AgillaConfig::remote_reply_ttl`]) depends on — cannot
/// drift between them. `candidates` is the
/// [`wsn_net::next_hop_candidates`] ordering at decision time.
pub fn pick_failover_hop(
    tried: &mut Vec<NodeId>,
    exhausted: NodeId,
    candidates: &[NodeId],
) -> Option<NodeId> {
    if !tried.contains(&exhausted) {
        tried.push(exhausted);
    }
    if tried.len() > crate::config::MAX_HOP_FAILOVERS {
        return None;
    }
    candidates.iter().copied().find(|c| !tried.contains(c))
}

/// Allocates wrapping `u16` identifiers that are never zero (zero is
/// reserved as "unassigned" across the wire formats).
#[derive(Debug, Clone)]
pub struct SessionIdGen {
    next: u16,
}

impl SessionIdGen {
    /// Starts the sequence at 1.
    pub fn new() -> Self {
        SessionIdGen { next: 1 }
    }

    /// Returns the next id, wrapping past `u16::MAX` back to 1.
    pub fn allocate(&mut self) -> u16 {
        let id = self.next;
        self.next = self.next.wrapping_add(1).max(1);
        id
    }
}

impl Default for SessionIdGen {
    fn default() -> Self {
        SessionIdGen::new()
    }
}

/// What a retransmit timeout means for the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetxVerdict {
    /// Retries remain: retransmit the in-flight message.
    Retry,
    /// The retry budget is exhausted: declare the exchange failed.
    GiveUp,
}

/// Sender-side retransmission state for one stop-and-wait exchange.
///
/// Owned by every migration sender session and every pending remote
/// operation; the owning protocol decides *what* to retransmit, this type
/// decides *whether*.
#[derive(Debug, Default)]
pub struct RetxState {
    /// Timeouts of the current in-flight message so far.
    tries: u32,
    /// The pending retransmit/timeout timer, if armed.
    timer: Option<EventId>,
    /// Whether any message of this exchange was ever retransmitted (the
    /// first-attempt latency filter for Fig. 10).
    retransmitted: bool,
}

impl RetxState {
    /// Fresh state: no tries, no timer, nothing retransmitted.
    pub fn new() -> Self {
        RetxState::default()
    }

    /// Arms the retransmit timer for the in-flight message. The previous
    /// timer, if any, must have fired or been cancelled already.
    pub fn arm(&mut self, timer: EventId) {
        self.timer = Some(timer);
    }

    /// The in-flight message was acknowledged: the per-message try counter
    /// resets and the pending timer (returned for cancellation) is disarmed.
    #[must_use = "cancel the returned timer on the event queue"]
    pub fn acked(&mut self) -> Option<EventId> {
        self.tries = 0;
        self.timer.take()
    }

    /// Disarms without resetting (session teardown). Returns the timer to
    /// cancel, if one was armed.
    #[must_use = "cancel the returned timer on the event queue"]
    pub fn take_timer(&mut self) -> Option<EventId> {
        self.timer.take()
    }

    /// A retransmit timer fired: counts the attempt against `max_retx`
    /// retransmissions and says whether to retry or give up.
    pub fn on_timeout(&mut self, max_retx: u32) -> RetxVerdict {
        self.timer = None;
        self.tries += 1;
        self.retransmitted = true;
        if self.tries > max_retx {
            RetxVerdict::GiveUp
        } else {
            RetxVerdict::Retry
        }
    }

    /// Whether any message of this exchange timed out at least once.
    pub fn retransmitted(&self) -> bool {
        self.retransmitted
    }

    /// The session failed over to a new next-hop candidate: the fresh link
    /// gets a full retransmission budget, but the fact that the exchange
    /// needed recovery stays sticky (first-attempt latency filters must
    /// still exclude it). Any pending timer must already be gone — failover
    /// decisions are made inside the timeout handler.
    pub fn reset_for_failover(&mut self) {
        debug_assert!(self.timer.is_none(), "failover with a live timer");
        self.tries = 0;
    }
}

/// A TTL'd completed-session cache: duplicate suppression plus re-ack state
/// for the passive side of a reliable exchange.
///
/// When a request is retransmitted after the responder already completed the
/// work (the final ack was lost), re-executing would duplicate the effect —
/// a second copy of a migrated agent, a second tuple from a `rout`. The
/// responder instead answers from this cache. Two properties make that
/// sound:
///
/// * **Entries outlive the peer's retransmit window.** Eviction is purely
///   TTL-based — capacity pressure never drops a live entry, so a duplicate
///   arriving at the very end of the window still finds its record. (The
///   cache is bounded in practice by completions-per-TTL.)
/// * **Entries die long before id wrap-around.** Ids wrap at 65 535; with
///   TTLs of seconds, a new exchange that reuses an old id cannot collide
///   with a stale record and steal its cached result.
#[derive(Debug)]
pub struct CompletedCache<K, V> {
    ttl: SimDuration,
    /// Insertion-ordered (time-ordered) live entries.
    entries: VecDeque<(K, V, SimTime)>,
}

impl<K: PartialEq, V> CompletedCache<K, V> {
    /// An empty cache whose entries live for `ttl`.
    pub fn new(ttl: SimDuration) -> Self {
        CompletedCache {
            ttl,
            entries: VecDeque::new(),
        }
    }

    /// Records a completed exchange, replacing any previous record under the
    /// same key and dropping expired entries.
    pub fn insert(&mut self, key: K, value: V, now: SimTime) {
        self.prune(now);
        if let Some(pos) = self.entries.iter().position(|(k, _, _)| *k == key) {
            self.entries.remove(pos);
        }
        self.entries.push_back((key, value, now));
    }

    /// Looks up a live record for `key`.
    pub fn lookup(&self, key: &K, now: SimTime) -> Option<&V> {
        self.entries
            .iter()
            .find(|(k, _, at)| k == key && now.saturating_since(*at) <= self.ttl)
            .map(|(_, v, _)| v)
    }

    /// The configured time-to-live.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Number of entries currently stored (live and not-yet-pruned).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops expired entries (they are time-ordered, so this pops from the
    /// front).
    fn prune(&mut self, now: SimTime) {
        while let Some((_, _, at)) = self.entries.front() {
            if now.saturating_since(*at) > self.ttl {
                self.entries.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn id_gen_skips_zero_on_wrap() {
        let mut gen = SessionIdGen::new();
        assert_eq!(gen.allocate(), 1);
        assert_eq!(gen.allocate(), 2);
        let mut gen = SessionIdGen { next: u16::MAX };
        assert_eq!(gen.allocate(), u16::MAX);
        assert_eq!(gen.allocate(), 1, "wraps past zero");
    }

    #[test]
    fn retx_retries_then_gives_up() {
        let mut r = RetxState::new();
        assert!(!r.retransmitted());
        assert_eq!(r.on_timeout(2), RetxVerdict::Retry);
        assert_eq!(r.on_timeout(2), RetxVerdict::Retry);
        assert_eq!(r.on_timeout(2), RetxVerdict::GiveUp);
        assert!(r.retransmitted());
    }

    #[test]
    fn failover_pick_walks_candidates_and_respects_the_cap() {
        let mut tried = Vec::new();
        let candidates = [NodeId(1), NodeId(2), NodeId(3), NodeId(4), NodeId(5)];
        // Exhausting hop 1 yields hop 2, and so on, best-first.
        assert_eq!(
            pick_failover_hop(&mut tried, NodeId(1), &candidates),
            Some(NodeId(2))
        );
        assert_eq!(
            pick_failover_hop(&mut tried, NodeId(2), &candidates),
            Some(NodeId(3))
        );
        assert_eq!(
            pick_failover_hop(&mut tried, NodeId(3), &candidates),
            Some(NodeId(4))
        );
        // Cap reached: MAX_HOP_FAILOVERS switches granted, no fourth —
        // this bound is what remote_reply_ttl's window math relies on.
        assert_eq!(pick_failover_hop(&mut tried, NodeId(4), &candidates), None);
        assert_eq!(tried.len(), crate::config::MAX_HOP_FAILOVERS + 1);
        // Double-exhausting the same hop is not double-counted.
        let mut tried = vec![NodeId(7)];
        assert_eq!(pick_failover_hop(&mut tried, NodeId(7), &[NodeId(9)]), {
            Some(NodeId(9))
        });
        assert_eq!(tried, vec![NodeId(7)]);
    }

    #[test]
    fn failover_pick_none_without_fresh_candidates() {
        let mut tried = Vec::new();
        assert_eq!(pick_failover_hop(&mut tried, NodeId(1), &[]), None);
        assert_eq!(
            pick_failover_hop(&mut tried, NodeId(2), &[NodeId(1), NodeId(2)]),
            None,
            "every candidate already exhausted"
        );
    }

    #[test]
    fn failover_reset_refreshes_the_budget_but_stays_retransmitted() {
        let mut r = RetxState::new();
        assert_eq!(r.on_timeout(1), RetxVerdict::Retry);
        assert_eq!(r.on_timeout(1), RetxVerdict::GiveUp);
        r.reset_for_failover();
        // The new candidate link gets the full budget again…
        assert_eq!(r.on_timeout(1), RetxVerdict::Retry);
        assert_eq!(r.on_timeout(1), RetxVerdict::GiveUp);
        // …and the exchange still counts as retransmitted.
        assert!(r.retransmitted());
    }

    #[test]
    fn retx_ack_resets_the_per_message_counter() {
        let mut r = RetxState::new();
        assert_eq!(r.on_timeout(1), RetxVerdict::Retry);
        let _ = r.acked();
        // A fresh message gets the full budget again…
        assert_eq!(r.on_timeout(1), RetxVerdict::Retry);
        // …but the session-level retransmission fact is sticky.
        assert!(r.retransmitted());
    }

    #[test]
    fn cache_hits_inside_ttl_and_expires_after() {
        let mut c: CompletedCache<u16, &str> = CompletedCache::new(SimDuration::from_secs(5));
        c.insert(7, "done", t(10));
        assert_eq!(
            c.lookup(&7, t(15)),
            Some(&"done"),
            "alive at exactly the TTL"
        );
        assert_eq!(c.lookup(&7, t(16)), None, "expired past the TTL");
        assert_eq!(c.lookup(&8, t(11)), None, "unknown key");
    }

    #[test]
    fn cache_capacity_never_evicts_live_entries() {
        // The lost-ack duplication class: a live entry must survive the full
        // retransmit window no matter how many other sessions complete.
        let mut c: CompletedCache<u16, u16> = CompletedCache::new(SimDuration::from_secs(5));
        c.insert(1, 100, t(10));
        for k in 2..200u16 {
            c.insert(k, k, t(11));
        }
        assert_eq!(
            c.lookup(&1, t(14)),
            Some(&100),
            "capacity pressure cannot evict"
        );
    }

    #[test]
    fn cache_prunes_expired_entries_on_insert() {
        let mut c: CompletedCache<u16, u16> = CompletedCache::new(SimDuration::from_secs(5));
        for k in 0..50u16 {
            c.insert(k, k, t(1));
        }
        assert_eq!(c.len(), 50);
        c.insert(99, 99, t(20));
        assert_eq!(
            c.len(),
            1,
            "expired entries dropped, memory bounded by rate x TTL"
        );
    }

    #[test]
    fn cache_insert_replaces_same_key() {
        let mut c: CompletedCache<u16, &str> = CompletedCache::new(SimDuration::from_secs(5));
        c.insert(3, "old", t(1));
        c.insert(3, "new", t(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&3, t(2)), Some(&"new"));
    }

    #[test]
    fn wrapped_id_cannot_match_a_stale_entry() {
        // An id that wraps around after the TTL gets a clean slate — the
        // stale record is dead, so a new exchange cannot be handed someone
        // else's cached result.
        let mut c: CompletedCache<u16, &str> = CompletedCache::new(SimDuration::from_secs(5));
        c.insert(42, "someone else's reply", t(0));
        assert_eq!(c.lookup(&42, t(100)), None);
    }
}
