//! Node placement and connectivity.

use std::collections::BTreeSet;

use wsn_common::{Location, NodeId};

/// How two nodes are judged to be radio neighbors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Connectivity {
    /// In range iff Euclidean distance ≤ the given radius (grid units).
    Range(f64),
    /// The paper's testbed rule: neighbors iff Manhattan-adjacent on the grid
    /// ("we modified TinyOS's network stack to filter out all messages except
    /// those from immediate neighbors based on the grid topology", Section 4).
    GridAdjacent,
}

/// Spatial index over node positions: square cells sized by the maximum
/// radio range, so any neighbor of a node lives in the 3×3 cell
/// neighborhood around it (the node's own cell plus the cross-cell fringe).
/// This is what keeps neighbor queries O(local density) instead of O(N) —
/// the difference between a 26-mote desk and a 10k-mote city block.
#[derive(Debug, Clone)]
struct CellGrid {
    /// Cell edge length in grid units (at least 1; ≥ the max radio range).
    cell: i32,
    min_x: i32,
    min_y: i32,
    cols: usize,
    rows: usize,
    /// Active node ids per cell (row-major `cy * cols + cx`), each kept in
    /// ascending id order so candidate scans stay deterministic.
    members: Vec<Vec<NodeId>>,
}

impl CellGrid {
    fn build(positions: &[Location], connectivity: Connectivity) -> Self {
        let cell = match connectivity {
            // Two nodes within Euclidean range r differ by at most ⌈r⌉ on
            // each axis, so a ⌈r⌉-wide cell makes the 3×3 scan exhaustive.
            Connectivity::Range(r) => (r.ceil().max(1.0) as i64).min(1 << 18) as i32,
            // Manhattan-adjacent neighbors differ by at most 1 per axis.
            Connectivity::GridAdjacent => 1,
        };
        let min_x = positions.iter().map(|p| i32::from(p.x)).min().unwrap_or(0);
        let min_y = positions.iter().map(|p| i32::from(p.y)).min().unwrap_or(0);
        let max_x = positions.iter().map(|p| i32::from(p.x)).max().unwrap_or(0);
        let max_y = positions.iter().map(|p| i32::from(p.y)).max().unwrap_or(0);
        let cols = ((max_x - min_x) / cell + 1) as usize;
        let rows = ((max_y - min_y) / cell + 1) as usize;
        let mut grid = CellGrid {
            cell,
            min_x,
            min_y,
            cols,
            rows,
            members: vec![Vec::new(); cols * rows],
        };
        for (i, p) in positions.iter().enumerate() {
            let idx = grid.cell_of(*p);
            grid.members[idx].push(NodeId(i as u16)); // i ascending ⇒ sorted
        }
        grid
    }

    /// Clamped cell coordinates of `p`. Euclidean (floor) division keeps
    /// negative offsets correct, and clamping maps positions that wander
    /// outside the boot-time bounding box onto the nearest border cell.
    /// Clamping is monotone and 1-Lipschitz, so two in-range nodes still
    /// land within one cell of each other on each axis — the 3×3 fringe
    /// scan stays exhaustive even for out-of-bounds movers.
    fn cell_coords(&self, p: Location) -> (i64, i64) {
        let cell = i64::from(self.cell);
        let cx = (i64::from(p.x) - i64::from(self.min_x)).div_euclid(cell);
        let cy = (i64::from(p.y) - i64::from(self.min_y)).div_euclid(cell);
        (
            cx.clamp(0, self.cols as i64 - 1),
            cy.clamp(0, self.rows as i64 - 1),
        )
    }

    fn cell_of(&self, p: Location) -> usize {
        let (cx, cy) = self.cell_coords(p);
        cy as usize * self.cols + cx as usize
    }

    fn remove(&mut self, node: NodeId, p: Location) {
        let idx = self.cell_of(p);
        self.members[idx].retain(|&n| n != node);
    }

    /// Inserts `node` into the cell holding `p`, preserving ascending id
    /// order so candidate scans stay deterministic after any move sequence.
    fn insert(&mut self, node: NodeId, p: Location) {
        let idx = self.cell_of(p);
        let cell = &mut self.members[idx];
        if let Err(pos) = cell.binary_search(&node) {
            cell.insert(pos, node);
        }
    }

    /// Calls `f` for members of the 3×3 cell neighborhood around `p`, cell
    /// by cell in row-major order (ids ascend within a cell but not across
    /// cells — callers wanting global id order must sort), stopping at the
    /// first member for which `f` returns true. Returns whether any did.
    fn any_nearby(&self, p: Location, mut f: impl FnMut(NodeId) -> bool) -> bool {
        let (cx, cy) = self.cell_coords(p);
        for dy in -1..=1i64 {
            let y = cy + dy;
            if y < 0 || y >= self.rows as i64 {
                continue;
            }
            for dx in -1..=1i64 {
                let x = cx + dx;
                if x < 0 || x >= self.cols as i64 {
                    continue;
                }
                for &n in &self.members[y as usize * self.cols + x as usize] {
                    if f(n) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Positions of every node plus the connectivity rule.
///
/// # Examples
///
/// ```
/// use wsn_radio::Topology;
/// use wsn_common::{Location, NodeId};
///
/// // The paper's testbed: 5x5 grid with a base station at (0,0).
/// let topo = Topology::grid_with_base(5, 5);
/// assert_eq!(topo.len(), 26);
/// assert_eq!(topo.node_at(Location::new(1, 1)), Some(NodeId(1)));
/// assert!(topo.are_neighbors(NodeId(0), NodeId(1))); // base <-> (1,1)
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Location>,
    connectivity: Connectivity,
    /// Nodes removed from the radio graph (battery depletion, destruction).
    /// Ids stay stable; an inactive node is simply never anyone's neighbor.
    inactive: Vec<bool>,
    /// Links severed by fault injection, stored as unordered (min, max)
    /// pairs. A severed pair is never a neighbor relation in either
    /// direction, whatever the connectivity rule says.
    severed: BTreeSet<(NodeId, NodeId)>,
    /// Range-sized spatial index accelerating neighbor queries.
    grid: CellGrid,
}

impl Topology {
    /// Builds a topology from explicit positions.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty or contains duplicate locations
    /// (locations are addresses; duplicates would be ambiguous).
    pub fn new(positions: Vec<Location>, connectivity: Connectivity) -> Self {
        assert!(
            !positions.is_empty(),
            "topology must contain at least one node"
        );
        let unique: BTreeSet<_> = positions.iter().copied().collect();
        assert_eq!(
            unique.len(),
            positions.len(),
            "duplicate node locations are not allowed (locations are addresses)"
        );
        let inactive = vec![false; positions.len()];
        let grid = CellGrid::build(&positions, connectivity);
        Topology {
            positions,
            connectivity,
            inactive,
            severed: BTreeSet::new(),
            grid,
        }
    }

    /// Drops `node` out of the radio graph: it stops being anyone's neighbor
    /// (so the medium neither delivers to it nor counts its carrier), while
    /// ids and locations stay stable for lookups. Used when a battery hits
    /// zero or a mote is destroyed.
    ///
    /// The deactivation flag and the spatial index update atomically in this
    /// one call: by the time it returns, the mote is out of its cell's
    /// member set and the cross-cell fringe, so no later neighbor query —
    /// including one resolving a frame already in the air — can see a
    /// half-removed node. Removing an already-removed node is a no-op.
    pub fn remove_node(&mut self, node: NodeId) {
        if self.inactive[node.index()] {
            return;
        }
        self.inactive[node.index()] = true;
        self.grid.remove(node, self.positions[node.index()]);
    }

    /// Whether `node` is still part of the radio graph.
    pub fn is_active(&self, node: NodeId) -> bool {
        !self.inactive[node.index()]
    }

    /// Permanently severs the link between `a` and `b` in both directions
    /// (fault injection: a wall goes up, an antenna breaks). Both nodes
    /// stay in the graph; only this pairwise relation is cut.
    pub fn drop_link(&mut self, a: NodeId, b: NodeId) {
        self.severed.insert((a.min(b), a.max(b)));
    }

    /// Whether the `a`–`b` link has been severed by [`Topology::drop_link`].
    pub fn link_dropped(&self, a: NodeId, b: NodeId) -> bool {
        self.severed.contains(&(a.min(b), a.max(b)))
    }

    /// Restores a link previously severed by [`Topology::drop_link`] (fault
    /// healing: the wall comes down, the antenna is repaired). A no-op if
    /// the pair was never severed; the connectivity rule decides afresh
    /// whether the two are actually in range.
    pub fn heal_link(&mut self, a: NodeId, b: NodeId) {
        self.severed.remove(&(a.min(b), a.max(b)));
    }

    /// Moves `node` to `to`, keeping the spatial index coherent: the mote
    /// leaves its old cell and joins the new one in this single call, so a
    /// neighbor query issued at any point sees it in exactly one cell —
    /// never zero, never two. Moving to the current location is a no-op; a
    /// removed mote still tracks its position (so `node_at` follows the
    /// carcass) without ever rejoining the member sets.
    ///
    /// Unlike boot time, motion may carry a mote onto a location another
    /// mote occupies; address lookups resolve ties to the lowest id.
    pub fn move_node(&mut self, node: NodeId, to: Location) {
        let from = self.positions[node.index()];
        if from == to {
            return;
        }
        self.positions[node.index()] = to;
        if self.inactive[node.index()] {
            return;
        }
        if self.grid.cell_of(from) != self.grid.cell_of(to) {
            self.grid.remove(node, from);
            self.grid.insert(node, to);
        }
    }

    /// The paper's experimental arrangement: a `w x h` grid with the
    /// lower-left mote at (1,1), plus a base-station node 0 on the western
    /// edge. The paper injects test agents "into node (0,0)" and measures 1–5
    /// hops to targets along the bottom row; for those hop counts to hold
    /// under Manhattan adjacency the base must sit at (0,1) — distance to
    /// (k,1) is exactly k hops. We place it there (the paper's "(0,0)" label
    /// predates its own convention that the grid origin is (1,1)).
    pub fn grid_with_base(w: i16, h: i16) -> Self {
        let mut positions = vec![Location::new(0, 1)];
        for y in 1..=h {
            for x in 1..=w {
                positions.push(Location::new(x, y));
            }
        }
        Topology::new(positions, Connectivity::GridAdjacent)
    }

    /// A `w x h` grid without a base station, lower-left at (1,1).
    pub fn grid(w: i16, h: i16) -> Self {
        let mut positions = Vec::new();
        for y in 1..=h {
            for x in 1..=w {
                positions.push(Location::new(x, y));
            }
        }
        Topology::new(positions, Connectivity::GridAdjacent)
    }

    /// A straight line of `n` nodes at y=1, x=1..=n — handy for hop-count
    /// experiments.
    pub fn line(n: i16) -> Self {
        let positions = (1..=n).map(|x| Location::new(x, 1)).collect();
        Topology::new(positions, Connectivity::GridAdjacent)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the topology is empty (never true: the constructor rejects it).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Location of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn location(&self, node: NodeId) -> Location {
        self.positions[node.index()]
    }

    /// The node whose location exactly equals `loc`, if any.
    pub fn node_at(&self, loc: Location) -> Option<NodeId> {
        self.positions
            .iter()
            .position(|&p| p == loc)
            .map(|i| NodeId(i as u16))
    }

    /// The node matching `loc` within Chebyshev tolerance `epsilon`,
    /// preferring the closest match. Supports the paper's ε-addressing.
    pub fn node_near(&self, loc: Location, epsilon: u16) -> Option<NodeId> {
        self.positions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.matches_within(loc, epsilon))
            .min_by_key(|(_, p)| p.distance_sq(loc))
            .map(|(i, _)| NodeId(i as u16))
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len()).map(|i| NodeId(i as u16))
    }

    /// Whether `a` and `b` are radio neighbors under the connectivity rule.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || self.inactive[a.index()] || self.inactive[b.index()] {
            return false;
        }
        if !self.severed.is_empty() && self.link_dropped(a, b) {
            return false;
        }
        let pa = self.location(a);
        let pb = self.location(b);
        match self.connectivity {
            Connectivity::Range(r) => pa.distance(pb) <= r,
            Connectivity::GridAdjacent => pa.grid_hops(pb) == 1,
        }
    }

    /// Neighbor ids of `node`, in ascending id order.
    ///
    /// Candidates come from the cell grid's 3×3 neighborhood (the node's
    /// cell plus the fringe), so the cost scales with local density, not
    /// network size; [`Topology::are_neighbors`] stays the single oracle
    /// for the actual relation, so severed links and inactive nodes are
    /// filtered exactly as a full scan would.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbors_into(node, &mut out);
        out
    }

    /// [`Topology::neighbors`] into a caller-owned buffer: `out` is cleared
    /// and refilled, so a hot loop can reuse one allocation per query.
    pub(crate) fn neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        self.grid.any_nearby(self.positions[node.index()], |n| {
            if self.are_neighbors(node, n) {
                out.push(n);
            }
            false
        });
        out.sort_unstable();
    }

    /// Whether some neighbor `c` of `node` satisfies `pred(c)`, scanning the
    /// same 3×3 cell neighborhood as [`Topology::neighbors`] and stopping at
    /// the first hit. `pred` runs before the neighbor test, so a cheap
    /// predicate that rejects most candidates skips most distance checks.
    pub(crate) fn any_neighbor(&self, node: NodeId, mut pred: impl FnMut(NodeId) -> bool) -> bool {
        self.grid.any_nearby(self.positions[node.index()], |c| {
            pred(c) && self.are_neighbors(node, c)
        })
    }

    /// Minimum hop count between two nodes (BFS over the neighbor relation),
    /// or `None` if disconnected. Used by tests and the bench harness to
    /// label experiments by hop distance.
    pub fn hops_between(&self, a: NodeId, b: NodeId) -> Option<u32> {
        if a == b {
            return Some(0);
        }
        let n = self.len();
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[a.index()] = 0;
        queue.push_back(a);
        while let Some(cur) = queue.pop_front() {
            for nb in self.neighbors(cur) {
                if dist[nb.index()] == u32::MAX {
                    dist[nb.index()] = dist[cur.index()] + 1;
                    if nb == b {
                        return Some(dist[nb.index()]);
                    }
                    queue.push_back(nb);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn grid_with_base_layout() {
        let t = Topology::grid_with_base(5, 5);
        assert_eq!(t.len(), 26);
        assert_eq!(t.location(NodeId(0)), Location::new(0, 1));
        assert_eq!(t.node_at(Location::new(1, 1)), Some(NodeId(1)));
        assert_eq!(t.node_at(Location::new(5, 5)), Some(NodeId(25)));
        assert_eq!(t.node_at(Location::new(9, 9)), None);
    }

    #[test]
    fn base_is_n_hops_from_targets() {
        let t = Topology::grid_with_base(5, 5);
        for k in 1..=5i16 {
            let target = t.node_at(Location::new(k, 1)).unwrap();
            assert_eq!(
                t.hops_between(NodeId(0), target),
                Some(k as u32),
                "target ({k},1)"
            );
        }
    }

    #[test]
    fn grid_adjacency_excludes_diagonals() {
        let t = Topology::grid(3, 3);
        let center = t.node_at(Location::new(2, 2)).unwrap();
        let diag = t.node_at(Location::new(3, 3)).unwrap();
        let side = t.node_at(Location::new(2, 3)).unwrap();
        assert!(!t.are_neighbors(center, diag));
        assert!(t.are_neighbors(center, side));
        assert_eq!(t.neighbors(center).len(), 4);
    }

    #[test]
    fn corner_has_two_neighbors() {
        let t = Topology::grid(3, 3);
        let corner = t.node_at(Location::new(1, 1)).unwrap();
        assert_eq!(t.neighbors(corner).len(), 2);
    }

    #[test]
    fn range_connectivity() {
        let t = Topology::new(
            vec![
                Location::new(0, 0),
                Location::new(3, 4),
                Location::new(10, 0),
            ],
            Connectivity::Range(6.0),
        );
        assert!(t.are_neighbors(NodeId(0), NodeId(1))); // distance 5
        assert!(!t.are_neighbors(NodeId(0), NodeId(2))); // distance 10
    }

    #[test]
    fn node_near_uses_epsilon_and_prefers_closest() {
        let t = Topology::grid(3, 3);
        assert_eq!(
            t.node_near(Location::new(2, 2), 0),
            t.node_at(Location::new(2, 2))
        );
        // No node at (0,0); (1,1) is within eps=1.
        assert_eq!(
            t.node_near(Location::new(0, 0), 1),
            t.node_at(Location::new(1, 1))
        );
        assert_eq!(t.node_near(Location::new(0, 0), 0), None);
    }

    #[test]
    fn removed_nodes_leave_the_radio_graph_but_keep_their_address() {
        let mut t = Topology::grid(3, 3);
        let center = t.node_at(Location::new(2, 2)).unwrap();
        let side = t.node_at(Location::new(2, 3)).unwrap();
        assert!(t.are_neighbors(center, side));
        t.remove_node(center);
        assert!(!t.is_active(center));
        assert!(!t.are_neighbors(center, side));
        assert!(!t.are_neighbors(side, center));
        assert!(t.neighbors(center).is_empty());
        assert!(!t.neighbors(side).contains(&center));
        // Identity lookups still resolve: the mote is dead, not unaddressed.
        assert_eq!(t.node_at(Location::new(2, 2)), Some(center));
        // Routing around the hole: BFS now detours (2 -> 4 hops).
        let a = t.node_at(Location::new(2, 1)).unwrap();
        let b = t.node_at(Location::new(2, 3)).unwrap();
        assert_eq!(t.hops_between(a, b), Some(4));
    }

    #[test]
    fn dropped_links_cut_both_directions_and_force_detours() {
        let mut t = Topology::grid(3, 1);
        let a = t.node_at(Location::new(1, 1)).unwrap();
        let b = t.node_at(Location::new(2, 1)).unwrap();
        assert!(t.are_neighbors(a, b));
        t.drop_link(b, a); // argument order must not matter
        assert!(t.link_dropped(a, b));
        assert!(!t.are_neighbors(a, b));
        assert!(!t.are_neighbors(b, a));
        // Both endpoints stay active; only the pairwise relation is cut.
        assert!(t.is_active(a) && t.is_active(b));
        assert_eq!(t.hops_between(a, b), None, "line has no detour");
        let mut grid = Topology::grid(3, 3);
        let a = grid.node_at(Location::new(1, 1)).unwrap();
        let b = grid.node_at(Location::new(2, 1)).unwrap();
        grid.drop_link(a, b);
        assert_eq!(grid.hops_between(a, b), Some(3), "grid detours around");
    }

    #[test]
    fn nodes_are_never_their_own_neighbor() {
        let t = Topology::grid(2, 2);
        for n in t.nodes() {
            assert!(!t.are_neighbors(n, n));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate node locations")]
    fn duplicate_locations_rejected() {
        Topology::new(
            vec![Location::new(1, 1), Location::new(1, 1)],
            Connectivity::GridAdjacent,
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_topology_rejected() {
        Topology::new(vec![], Connectivity::GridAdjacent);
    }

    #[test]
    fn line_hops() {
        let t = Topology::line(6);
        assert_eq!(t.hops_between(NodeId(0), NodeId(5)), Some(5));
    }

    #[test]
    fn disconnected_pairs_return_none() {
        let t = Topology::new(
            vec![Location::new(0, 0), Location::new(100, 100)],
            Connectivity::GridAdjacent,
        );
        assert_eq!(t.hops_between(NodeId(0), NodeId(1)), None);
    }

    /// The pre-index behaviour: a full scan over every node.
    fn neighbors_full_scan(t: &Topology, node: NodeId) -> Vec<NodeId> {
        t.nodes().filter(|&n| t.are_neighbors(node, n)).collect()
    }

    /// Every indexed query about `node` agrees with the full scan:
    /// `neighbors`, `neighbors_into` over a buffer holding stale ids, and
    /// `any_neighbor` probed for each node id in turn.
    fn check_queries_match_full_scan(t: &Topology, node: NodeId) -> Result<(), TestCaseError> {
        let want = neighbors_full_scan(t, node);
        prop_assert_eq!(t.neighbors(node), want.clone(), "neighbors({:?})", node);
        let mut buf = vec![node, NodeId(u16::MAX), node];
        t.neighbors_into(node, &mut buf);
        prop_assert_eq!(&buf, &want, "neighbors_into({:?})", node);
        for x in t.nodes() {
            prop_assert_eq!(
                t.any_neighbor(node, |c| c == x),
                want.contains(&x),
                "any_neighbor({:?}, == {:?})",
                node,
                x
            );
        }
        Ok(())
    }

    #[test]
    fn grid_neighbors_match_full_scan_after_faults() {
        let mut t = Topology::grid_with_base(5, 5);
        t.remove_node(t.node_at(Location::new(3, 3)).unwrap());
        let a = t.node_at(Location::new(2, 2)).unwrap();
        let b = t.node_at(Location::new(2, 3)).unwrap();
        t.drop_link(a, b);
        for n in t.nodes() {
            assert_eq!(t.neighbors(n), neighbors_full_scan(&t, n), "node {n:?}");
        }
    }

    #[test]
    fn remove_node_leaves_cell_and_fringe_atomically() {
        let mut t = Topology::grid(4, 4);
        // A border mote of the left column: its removal must vanish from
        // both its own cell's member set and every fringe scan at once.
        let border = t.node_at(Location::new(1, 2)).unwrap();
        assert!(t.grid.members.iter().any(|cell| cell.contains(&border)));
        t.remove_node(border);
        assert!(
            t.grid.members.iter().all(|cell| !cell.contains(&border)),
            "removed mote must leave the spatial index in the same call"
        );
        for n in t.nodes() {
            assert!(!t.neighbors(n).contains(&border));
            assert_eq!(t.neighbors(n), neighbors_full_scan(&t, n));
        }
        // Idempotent: a second removal must not disturb anything.
        t.remove_node(border);
        assert_eq!(t.node_at(Location::new(1, 2)), Some(border));
    }

    #[test]
    fn heal_link_restores_the_relation() {
        let mut t = Topology::grid(3, 1);
        let a = t.node_at(Location::new(1, 1)).unwrap();
        let b = t.node_at(Location::new(2, 1)).unwrap();
        t.drop_link(a, b);
        assert!(!t.are_neighbors(a, b));
        t.heal_link(b, a); // argument order must not matter
        assert!(!t.link_dropped(a, b));
        assert!(t.are_neighbors(a, b));
        assert!(t.are_neighbors(b, a));
        // Healing a never-severed (or already-healed) pair is a no-op.
        t.heal_link(a, b);
        assert!(t.are_neighbors(a, b));
    }

    #[test]
    fn heal_link_defers_to_the_connectivity_rule() {
        let mut t = Topology::new(
            vec![Location::new(0, 0), Location::new(10, 0)],
            Connectivity::Range(6.0),
        );
        t.drop_link(NodeId(0), NodeId(1));
        t.heal_link(NodeId(0), NodeId(1));
        assert!(
            !t.are_neighbors(NodeId(0), NodeId(1)),
            "healing removes the severance, it does not teleport nodes into range"
        );
    }

    #[test]
    fn move_node_forms_and_severs_links_by_distance() {
        let mut t = Topology::new(
            vec![Location::new(0, 0), Location::new(10, 0)],
            Connectivity::Range(3.0),
        );
        assert!(!t.are_neighbors(NodeId(0), NodeId(1)));
        t.move_node(NodeId(0), Location::new(8, 0));
        assert_eq!(t.location(NodeId(0)), Location::new(8, 0));
        assert!(
            t.are_neighbors(NodeId(0), NodeId(1)),
            "link forms as the mover arrives in range"
        );
        // Wander far outside the boot-time bounding box: the clamped border
        // cell keeps indexing coherent and the link severs by distance.
        t.move_node(NodeId(0), Location::new(-20, 0));
        assert!(!t.are_neighbors(NodeId(0), NodeId(1)));
        assert_eq!(t.node_at(Location::new(-20, 0)), Some(NodeId(0)));
        for n in t.nodes() {
            assert_eq!(t.neighbors(n), neighbors_full_scan(&t, n));
        }
    }

    #[test]
    fn moving_a_removed_mote_tracks_position_without_rejoining() {
        let mut t = Topology::grid(3, 3);
        let n = t.node_at(Location::new(2, 2)).unwrap();
        t.remove_node(n);
        t.move_node(n, Location::new(3, 3));
        assert_eq!(t.location(n), Location::new(3, 3));
        assert!(
            t.grid.members.iter().all(|c| !c.contains(&n)),
            "a dead mote must never rejoin the spatial index"
        );
        for other in t.nodes() {
            assert!(!t.neighbors(other).contains(&n));
        }
    }

    proptest! {
        #[test]
        fn prop_grid_neighbors_match_full_scan(
            w in 2i16..7,
            h in 2i16..7,
            kill in 0u16..16,
            sever in 0u16..16,
        ) {
            let mut t = Topology::grid(w, h);
            let n = t.len() as u16;
            t.remove_node(NodeId(kill % n));
            t.drop_link(NodeId(sever % n), NodeId((sever + 1) % n));
            for node in t.nodes() {
                check_queries_match_full_scan(&t, node)?;
            }
        }

        #[test]
        fn prop_range_neighbors_match_full_scan(
            seed in 0u64..5_000,
            count in 2usize..24,
            radius in 1u8..12,
        ) {
            // Scatter nodes pseudo-randomly (deterministic per seed) and
            // check the cell index against the full scan under Range
            // connectivity, where fringe coverage is the risky part.
            let mut s = seed;
            let mut positions = Vec::new();
            let mut taken = std::collections::BTreeSet::new();
            while positions.len() < count {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let x = ((s >> 16) % 40) as i16;
                let y = ((s >> 40) % 40) as i16;
                if taken.insert((x, y)) {
                    positions.push(Location::new(x, y));
                }
            }
            let t = Topology::new(positions, Connectivity::Range(f64::from(radius)));
            for node in t.nodes() {
                check_queries_match_full_scan(&t, node)?;
            }
        }

        #[test]
        fn prop_motion_transition_invariants(
            seed in 0u64..5_000,
            count in 2usize..16,
            radius in 1u8..8,
            kill_at in 0usize..24,
        ) {
            // Random-walk motes (including out of the boot bounding box) and
            // kill one mid-walk. After every single step: each active node
            // occupies exactly one cell (dead ones zero — no ghosts), every
            // neighbor query equals the O(N) full scan, and member lists
            // stay strictly sorted.
            let mut s = seed;
            let next = |s: &mut u64| {
                *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *s
            };
            let mut positions = Vec::new();
            let mut taken = std::collections::BTreeSet::new();
            while positions.len() < count {
                let r = next(&mut s);
                let x = ((r >> 16) % 30) as i16;
                let y = ((r >> 40) % 30) as i16;
                if taken.insert((x, y)) {
                    positions.push(Location::new(x, y));
                }
            }
            let mut t = Topology::new(positions, Connectivity::Range(f64::from(radius)));
            let n = t.len() as u64;
            for step in 0..24usize {
                let r = next(&mut s);
                let mover = NodeId((r % n) as u16);
                let dx = ((r >> 8) % 9) as i16 - 4;
                let dy = ((r >> 24) % 9) as i16 - 4;
                if step == kill_at {
                    t.remove_node(mover);
                }
                let from = t.location(mover);
                t.move_node(mover, Location::new(from.x + dx, from.y + dy));
                for node in t.nodes() {
                    let cells = t.grid.members.iter().filter(|c| c.contains(&node)).count();
                    prop_assert_eq!(
                        cells,
                        usize::from(t.is_active(node)),
                        "node {:?} after step {}", node, step
                    );
                    check_queries_match_full_scan(&t, node)?;
                }
                for cell in &t.grid.members {
                    prop_assert!(cell.windows(2).all(|w| w[0] < w[1]), "cells stay sorted");
                }
            }
        }

        #[test]
        fn prop_neighbor_relation_symmetric(w in 2i16..5, h in 2i16..5) {
            let t = Topology::grid(w, h);
            for a in t.nodes() {
                for b in t.nodes() {
                    prop_assert_eq!(t.are_neighbors(a, b), t.are_neighbors(b, a));
                }
            }
        }

        #[test]
        fn prop_hops_symmetric_on_grid(w in 2i16..5, h in 2i16..5, ai in 0u16..8, bi in 0u16..8) {
            let t = Topology::grid(w, h);
            let a = NodeId(ai % t.len() as u16);
            let b = NodeId(bi % t.len() as u16);
            prop_assert_eq!(t.hops_between(a, b), t.hops_between(b, a));
        }

        #[test]
        fn prop_grid_hops_equals_manhattan(w in 2i16..6, h in 2i16..6, ai in 0u16..16, bi in 0u16..16) {
            // On a full rectangular grid, BFS hops == Manhattan distance.
            let t = Topology::grid(w, h);
            let a = NodeId(ai % t.len() as u16);
            let b = NodeId(bi % t.len() as u16);
            let expected = t.location(a).grid_hops(t.location(b));
            prop_assert_eq!(t.hops_between(a, b), Some(expected));
        }
    }
}
