//! Greedy geographic forwarding.
//!
//! "For geographic routing, we implemented a simple best-effort
//! greedy-forwarding algorithm that forwards messages to the neighbor closest
//! to the destination." (Section 4). Greedy forwarding can reach a local
//! minimum (no neighbor closer than the current node); being best-effort, the
//! packet is then dropped — the retransmission policies above recover or the
//! operation reports failure via the condition code.

use wsn_common::{Location, NodeId};

/// Whether `here` should be treated as the destination `dest` under the
/// paper's ε-tolerant location addressing.
pub fn reached(here: Location, dest: Location, epsilon: u16) -> bool {
    here.matches_within(dest, epsilon)
}

/// Chooses the next hop for a packet at `here` headed to `dest`.
///
/// Returns the neighbor strictly closer to `dest` than `here`, minimizing
/// remaining distance; ties break on node id for determinism. `None` means a
/// local minimum (or no neighbors) — the packet cannot make progress.
///
/// This is the allocation-free hot path (it runs per message per hop): it
/// takes the neighbors as any iterator, such as
/// [`AcquaintanceList::iter_live`](crate::AcquaintanceList::iter_live), and
/// always equals the head of [`next_hop_candidates`].
pub fn next_hop(
    here: Location,
    neighbors: impl IntoIterator<Item = (NodeId, Location)>,
    dest: Location,
) -> Option<NodeId> {
    let my_dist = here.distance_sq(dest);
    neighbors
        .into_iter()
        .map(|(node, loc)| (loc.distance_sq(dest), node))
        .filter(|&(dist, _)| dist < my_dist)
        .min()
        .map(|(_, node)| node)
}

/// All neighbors that make geographic progress toward `dest`, ordered
/// best-first (remaining distance, then node id for determinism).
///
/// [`next_hop`] is the head of this list. Reliability layers that retry at
/// the hop level — the middleware's reliable-unicast session engine — can
/// consume the tail as an ordered failover plan when the primary hop keeps
/// timing out, instead of re-running the routing decision from scratch.
pub fn next_hop_candidates(
    here: Location,
    neighbors: &[(NodeId, Location)],
    dest: Location,
) -> Vec<NodeId> {
    let my_dist = here.distance_sq(dest);
    let mut making_progress: Vec<(i64, NodeId)> = neighbors
        .iter()
        .filter(|(_, loc)| loc.distance_sq(dest) < my_dist)
        .map(|(node, loc)| (loc.distance_sq(dest), *node))
        .collect();
    making_progress.sort_unstable();
    making_progress.into_iter().map(|(_, node)| node).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nb(id: u16, x: i16, y: i16) -> (NodeId, Location) {
        (NodeId(id), Location::new(x, y))
    }

    #[test]
    fn forwards_to_closest_neighbor() {
        let here = Location::new(1, 1);
        let neighbors = [nb(2, 2, 1), nb(6, 1, 2)];
        // Destination (5,1): (2,1) is closer than (1,2).
        assert_eq!(
            next_hop(here, neighbors, Location::new(5, 1)),
            Some(NodeId(2))
        );
        // Destination (1,5): (1,2) wins.
        assert_eq!(
            next_hop(here, neighbors, Location::new(1, 5)),
            Some(NodeId(6))
        );
    }

    #[test]
    fn refuses_to_move_away() {
        let here = Location::new(1, 1);
        // Both neighbors are farther from the destination than we are.
        let neighbors = [nb(2, 0, 1), nb(3, 1, 0)];
        assert_eq!(next_hop(here, neighbors, Location::new(5, 1)), None);
    }

    #[test]
    fn no_neighbors_no_hop() {
        assert_eq!(next_hop(Location::new(0, 0), [], Location::new(1, 1)), None);
    }

    #[test]
    fn tie_breaks_on_node_id() {
        let here = Location::new(0, 0);
        // Two neighbors equidistant from the destination (2,0): (1,1) & (1,-1).
        let neighbors = [nb(9, 1, 1), nb(4, 1, -1)];
        assert_eq!(
            next_hop(here, neighbors, Location::new(2, 0)),
            Some(NodeId(4))
        );
    }

    #[test]
    fn candidates_are_ordered_best_first() {
        let here = Location::new(1, 1);
        let dest = Location::new(5, 1);
        // (2,1) beats (2,2); (0,1) moves away and is excluded entirely.
        let neighbors = [nb(8, 2, 2), nb(2, 2, 1), nb(5, 0, 1)];
        let plan = next_hop_candidates(here, &neighbors, dest);
        assert_eq!(plan, vec![NodeId(2), NodeId(8)]);
        assert_eq!(
            next_hop(here, neighbors, dest),
            Some(NodeId(2)),
            "head of the plan"
        );
    }

    #[test]
    fn candidates_tie_break_on_node_id() {
        let here = Location::new(0, 0);
        let neighbors = [nb(9, 1, 1), nb(4, 1, -1)];
        let plan = next_hop_candidates(here, &neighbors, Location::new(2, 0));
        assert_eq!(
            plan,
            vec![NodeId(4), NodeId(9)],
            "equidistant hops sorted by id"
        );
    }

    #[test]
    fn reached_uses_epsilon() {
        assert!(reached(Location::new(5, 1), Location::new(5, 1), 0));
        assert!(reached(Location::new(5, 2), Location::new(5, 1), 1));
        assert!(!reached(Location::new(5, 3), Location::new(5, 1), 1));
    }

    #[test]
    fn grid_route_terminates_at_destination() {
        // Walk a 5x5 grid from (1,1) to (5,5) using only 4-adjacent hops.
        let mut here = Location::new(1, 1);
        let dest = Location::new(5, 5);
        let mut hops = 0;
        while !reached(here, dest, 0) {
            let mut neighbors = Vec::new();
            let mut id = 0u16;
            for (dx, dy) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                let x = here.x + dx;
                let y = here.y + dy;
                if (1..=5).contains(&x) && (1..=5).contains(&y) {
                    neighbors.push((NodeId(id), Location::new(x, y)));
                    id += 1;
                }
            }
            let hop = next_hop(here, neighbors.iter().copied(), dest)
                .expect("greedy stuck on a full grid");
            here = neighbors[hop.index()].1;
            hops += 1;
            assert!(hops <= 8, "route is too long");
        }
        assert_eq!(hops, 8, "Manhattan-optimal route on the grid");
    }

    proptest! {
        /// Greedy progress invariant: every hop strictly reduces distance, so
        /// routes never loop.
        #[test]
        fn prop_hops_strictly_reduce_distance(
            hx in -20i16..20, hy in -20i16..20,
            dx in -20i16..20, dy in -20i16..20,
            nbrs in proptest::collection::vec(((-20i16..20), (-20i16..20)), 0..8),
        ) {
            let here = Location::new(hx, hy);
            let dest = Location::new(dx, dy);
            let neighbors: Vec<_> = nbrs
                .iter()
                .enumerate()
                .map(|(i, (x, y))| (NodeId(i as u16), Location::new(*x, *y)))
                .collect();
            if let Some(n) = next_hop(here, neighbors.iter().copied(), dest) {
                let chosen = neighbors.iter().find(|(id, _)| *id == n).unwrap().1;
                prop_assert!(chosen.distance_sq(dest) < here.distance_sq(dest));
            }
        }

        /// `next_hop` is the head of `next_hop_candidates`, ties included:
        /// ids repeat across neighbors and locations collide, so equal
        /// distances and equal ids both occur.
        #[test]
        fn prop_next_hop_heads_the_candidates(
            hx in -4i16..4, hy in -4i16..4,
            dx in -4i16..4, dy in -4i16..4,
            nbrs in proptest::collection::vec(((0u16..6), (-4i16..4), (-4i16..4)), 0..10),
        ) {
            let here = Location::new(hx, hy);
            let dest = Location::new(dx, dy);
            let neighbors: Vec<_> = nbrs
                .iter()
                .map(|&(id, x, y)| (NodeId(id), Location::new(x, y)))
                .collect();
            let plan = next_hop_candidates(here, &neighbors, dest);
            prop_assert_eq!(
                next_hop(here, neighbors.iter().copied(), dest),
                plan.first().copied()
            );
        }
    }
}
