//! Property tests for the spatial index under motion.
//!
//! The cell grid answers neighbor queries from a 3×3 cell neighborhood, and
//! [`Topology::move_node`] keeps a mover in exactly one cell per transition.
//! Mobility is precisely the workload that could break those books — a mote
//! leaving its cell for a neighboring one, wandering outside the boot-time
//! bounding box onto the clamped border cells, or dying mid-journey. These
//! properties drive random topologies through random move sequences and
//! check the index against the full-scan oracle after every step.

use proptest::prelude::*;
use std::collections::BTreeSet;
use wsn_common::{Location, NodeId};
use wsn_radio::{Connectivity, Topology};

/// Distinct boot positions in a compact band, as a strategy.
fn positions() -> impl Strategy<Value = Vec<Location>> {
    prop::collection::btree_set((-6i16..=6, -6i16..=6), 2..=16)
        .prop_map(|set| set.into_iter().map(|(x, y)| Location::new(x, y)).collect())
}

/// A move script: which node (by index modulo the node count) goes where.
/// Targets deliberately overshoot the boot bounding box so movers exercise
/// the clamped border cells of the index.
fn moves() -> impl Strategy<Value = Vec<(usize, i16, i16)>> {
    prop::collection::vec((0usize..64, -14i16..=14, -14i16..=14), 0..=12)
}

/// The O(N) oracle the cell grid must agree with: every other node, judged
/// by the public pairwise relation.
fn brute_force_neighbors(topo: &Topology, node: NodeId) -> Vec<NodeId> {
    topo.nodes()
        .filter(|&m| topo.are_neighbors(node, m))
        .collect()
}

proptest! {
    /// After any move sequence, indexed neighbor queries match the full
    /// scan for every node — i.e. the 3×3 fringe never misses a candidate
    /// (a mote in zero cells) and never double-counts one (a mote in two).
    #[test]
    fn indexed_neighbors_match_full_scan_under_motion(
        boot in positions(),
        radius in 1.0f64..3.0,
        script in moves(),
    ) {
        let n = boot.len();
        let mut topo = Topology::new(boot, Connectivity::Range(radius));
        for (pick, x, y) in script {
            topo.move_node(NodeId((pick % n) as u16), Location::new(x, y));
            for node in topo.nodes().collect::<Vec<_>>() {
                let indexed = topo.neighbors(node);
                prop_assert_eq!(
                    &indexed,
                    &brute_force_neighbors(&topo, node),
                    "node {:?} at {:?}", node, topo.location(node)
                );
                // Sorted, self-free, duplicate-free — the query contract.
                prop_assert!(indexed.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(!indexed.contains(&node));
            }
        }
    }

    /// The neighbor relation stays symmetric through motion, and a removed
    /// mote vanishes from every answer even while its carcass keeps moving.
    #[test]
    fn symmetry_and_removal_hold_through_motion(
        boot in positions(),
        radius in 1.0f64..3.0,
        script in moves(),
        victim in 0usize..64,
    ) {
        let n = boot.len();
        let mut topo = Topology::new(boot, Connectivity::Range(radius));
        let dead = NodeId((victim % n) as u16);
        topo.remove_node(dead);
        for (pick, x, y) in script {
            topo.move_node(NodeId((pick % n) as u16), Location::new(x, y));
            let sets: Vec<BTreeSet<NodeId>> = topo
                .nodes()
                .map(|node| topo.neighbors(node).into_iter().collect())
                .collect();
            for (i, set) in sets.iter().enumerate() {
                prop_assert!(!set.contains(&dead), "dead mote answered a query");
                for m in set {
                    prop_assert!(
                        sets[m.index()].contains(&NodeId(i as u16)),
                        "asymmetric link {:?} -> {:?}", i, m
                    );
                }
            }
        }
    }

    /// Moving every wanderer back to its boot address restores the exact
    /// boot-time neighbor sets: transitions are lossless round trips, not
    /// accumulating index damage.
    #[test]
    fn returning_home_restores_boot_neighbor_sets(
        boot in positions(),
        radius in 1.0f64..3.0,
        script in moves(),
    ) {
        let n = boot.len();
        let homes = boot.clone();
        let mut topo = Topology::new(boot, Connectivity::Range(radius));
        let before: Vec<Vec<NodeId>> =
            topo.nodes().map(|node| topo.neighbors(node)).collect();
        for &(pick, x, y) in &script {
            topo.move_node(NodeId((pick % n) as u16), Location::new(x, y));
        }
        for (i, home) in homes.iter().enumerate() {
            topo.move_node(NodeId(i as u16), *home);
        }
        let after: Vec<Vec<NodeId>> =
            topo.nodes().map(|node| topo.neighbors(node)).collect();
        prop_assert_eq!(before, after);
    }
}
