//! The acquaintance list: continuously-updated one-hop neighbor table.

use wsn_common::{Location, NodeId};
use wsn_sim::{RngStream, SimDuration, SimTime};

/// One neighbor record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    node: NodeId,
    loc: Location,
    last_heard: SimTime,
}

/// The per-node neighbor table fed by beacons.
///
/// "The one-hop neighbor information is stored in an acquaintance list and is
/// continuously updated by Agilla. Agents can access this list using special
/// instructions" (Section 2.2). Entries expire after [`AcquaintanceList::ttl`]
/// without a beacon, so departed or crashed neighbors disappear.
///
/// Entries are kept sorted by location so `getnbr i` is deterministic across
/// runs — important for reproducible experiments.
///
/// # Examples
///
/// ```
/// use wsn_net::AcquaintanceList;
/// use wsn_common::{Location, NodeId};
/// use wsn_sim::{SimDuration, SimTime};
///
/// let mut list = AcquaintanceList::new(SimDuration::from_secs(3));
/// list.heard(NodeId(2), Location::new(1, 2), SimTime::ZERO);
/// assert_eq!(list.len(SimTime::ZERO), 1);
/// // Three seconds of silence and the neighbor is gone.
/// let later = SimTime::ZERO + SimDuration::from_secs(4);
/// assert_eq!(list.len(later), 0);
/// ```
#[derive(Debug, Clone)]
pub struct AcquaintanceList {
    entries: Vec<Entry>,
    ttl: SimDuration,
}

impl AcquaintanceList {
    /// Creates a list whose entries expire `ttl` after their last beacon.
    pub fn new(ttl: SimDuration) -> Self {
        AcquaintanceList {
            entries: Vec::new(),
            ttl,
        }
    }

    /// The eviction timeout.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Records a beacon from `node` claiming `loc` at time `now`.
    pub fn heard(&mut self, node: NodeId, loc: Location, now: SimTime) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.node == node) {
            e.loc = loc;
            e.last_heard = now;
        } else {
            self.entries.push(Entry {
                node,
                loc,
                last_heard: now,
            });
            self.entries.sort_by_key(|e| (e.loc.x, e.loc.y, e.node));
        }
    }

    /// Drops expired entries; called lazily by the accessors.
    fn prune(&self, now: SimTime) -> impl Iterator<Item = &Entry> {
        let ttl = self.ttl;
        self.entries
            .iter()
            .filter(move |e| now.saturating_since(e.last_heard) <= ttl)
    }

    /// Live neighbor count (`numnbrs`).
    pub fn len(&self, now: SimTime) -> usize {
        self.prune(now).count()
    }

    /// Whether no live neighbors remain.
    pub fn is_empty(&self, now: SimTime) -> bool {
        self.len(now) == 0
    }

    /// Location of the `index`-th live neighbor (`getnbr`), in deterministic
    /// location order.
    pub fn get(&self, index: usize, now: SimTime) -> Option<Location> {
        self.prune(now).nth(index).map(|e| e.loc)
    }

    /// A uniformly random live neighbor (`randnbr`).
    pub fn random(&self, rng: &mut RngStream, now: SimTime) -> Option<Location> {
        let live: Vec<_> = self.prune(now).collect();
        if live.is_empty() {
            return None;
        }
        Some(live[rng.index(live.len())].loc)
    }

    /// The live `(node, location)` pairs in location order, without
    /// collecting them: what [`next_hop`](crate::next_hop) consumes on the
    /// per-message routing path.
    pub fn iter_live(&self, now: SimTime) -> impl Iterator<Item = (NodeId, Location)> + '_ {
        self.prune(now).map(|e| (e.node, e.loc))
    }

    /// All live `(node, location)` pairs, for the routing layer's failover
    /// plans ([`next_hop_candidates`](crate::next_hop_candidates)).
    pub fn live(&self, now: SimTime) -> Vec<(NodeId, Location)> {
        self.iter_live(now).collect()
    }

    /// The node id currently claiming a location, if any (link addressing).
    pub fn node_at(&self, loc: Location, now: SimTime) -> Option<NodeId> {
        self.prune(now).find(|e| e.loc == loc).map(|e| e.node)
    }

    /// Drops every entry, expired or not. Neighbor state is relative to
    /// where this node stands, so a mote that changes address (mobility)
    /// must not keep routing through acquaintances it could only hear from
    /// the old cell — the caller re-seeds discovery for the new position.
    pub fn forget_all(&mut self) {
        self.entries.clear();
    }

    /// Permanently removes expired entries to bound memory. The accessors
    /// already ignore them; this is housekeeping for long runs.
    pub fn compact(&mut self, now: SimTime) {
        let ttl = self.ttl;
        self.entries
            .retain(|e| now.saturating_since(e.last_heard) <= ttl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn list() -> AcquaintanceList {
        AcquaintanceList::new(SimDuration::from_secs(3))
    }

    #[test]
    fn heard_inserts_and_updates() {
        let mut l = list();
        l.heard(NodeId(1), Location::new(1, 1), t(0));
        l.heard(NodeId(1), Location::new(1, 2), t(1));
        assert_eq!(l.len(t(1)), 1);
        assert_eq!(l.get(0, t(1)), Some(Location::new(1, 2)));
    }

    #[test]
    fn entries_expire_after_ttl() {
        let mut l = list();
        l.heard(NodeId(1), Location::new(1, 1), t(0));
        assert_eq!(l.len(t(3)), 1, "exactly at ttl still alive");
        assert_eq!(l.len(t(4)), 0, "past ttl expired");
        // A fresh beacon resurrects it.
        l.heard(NodeId(1), Location::new(1, 1), t(5));
        assert_eq!(l.len(t(5)), 1);
    }

    #[test]
    fn deterministic_order_by_location() {
        let mut l = list();
        l.heard(NodeId(9), Location::new(2, 1), t(0));
        l.heard(NodeId(3), Location::new(1, 1), t(0));
        l.heard(NodeId(5), Location::new(1, 2), t(0));
        assert_eq!(l.get(0, t(0)), Some(Location::new(1, 1)));
        assert_eq!(l.get(1, t(0)), Some(Location::new(1, 2)));
        assert_eq!(l.get(2, t(0)), Some(Location::new(2, 1)));
        assert_eq!(l.get(3, t(0)), None);
    }

    #[test]
    fn random_draws_from_live_only() {
        let mut l = list();
        l.heard(NodeId(1), Location::new(1, 1), t(0));
        l.heard(NodeId(2), Location::new(2, 2), t(10));
        let mut rng = RngStream::derive(1, "n");
        // At t=10 only node 2 is live.
        for _ in 0..20 {
            assert_eq!(l.random(&mut rng, t(10)), Some(Location::new(2, 2)));
        }
        assert_eq!(l.random(&mut rng, t(20)), None);
    }

    #[test]
    fn node_at_and_live() {
        let mut l = list();
        l.heard(NodeId(4), Location::new(3, 3), t(0));
        assert_eq!(l.node_at(Location::new(3, 3), t(0)), Some(NodeId(4)));
        assert_eq!(l.node_at(Location::new(9, 9), t(0)), None);
        assert_eq!(l.live(t(0)), vec![(NodeId(4), Location::new(3, 3))]);
    }

    #[test]
    fn iter_live_yields_exactly_live_in_order() {
        let mut l = list();
        l.heard(NodeId(7), Location::new(3, 1), t(0));
        l.heard(NodeId(2), Location::new(1, 1), t(2));
        l.heard(NodeId(5), Location::new(2, 2), t(0));
        l.heard(NodeId(4), Location::new(1, 3), t(2));
        // At t=2 all four are live, in location order.
        let all: Vec<_> = l.iter_live(t(2)).collect();
        assert_eq!(all, l.live(t(2)));
        assert_eq!(
            all.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec![NodeId(2), NodeId(4), NodeId(5), NodeId(7)]
        );
        // At t=4 the two heard at t=0 have expired (ttl 3 s).
        let fresh: Vec<_> = l.iter_live(t(4)).collect();
        assert_eq!(fresh, l.live(t(4)));
        assert_eq!(
            fresh,
            vec![
                (NodeId(2), Location::new(1, 1)),
                (NodeId(4), Location::new(1, 3))
            ]
        );
        assert_eq!(l.iter_live(t(9)).count(), 0);
        assert!(l.live(t(9)).is_empty());
    }

    #[test]
    fn forget_all_empties_the_list() {
        let mut l = list();
        l.heard(NodeId(1), Location::new(1, 1), t(0));
        l.heard(NodeId(2), Location::new(2, 2), t(0));
        l.forget_all();
        assert!(l.is_empty(t(0)));
        // Discovery restarts cleanly afterwards.
        l.heard(NodeId(3), Location::new(3, 3), t(1));
        assert_eq!(l.live(t(1)), vec![(NodeId(3), Location::new(3, 3))]);
    }

    #[test]
    fn compact_removes_dead_entries() {
        let mut l = list();
        l.heard(NodeId(1), Location::new(1, 1), t(0));
        l.heard(NodeId(2), Location::new(2, 2), t(10));
        l.compact(t(10));
        assert_eq!(l.entries.len(), 1);
        assert_eq!(l.len(t(10)), 1);
    }
}
