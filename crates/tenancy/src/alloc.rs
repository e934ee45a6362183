//! Base-station admission and allocation.
//!
//! Incoming applications present a *demand* — a deployment-wide load
//! estimate derived from `agilla-analysis` static cost bounds — and the
//! allocator places them onto topology *regions* (contiguous node-index
//! runs). An app that fits nowhere is rejected.
//!
//! Every choice is deterministic: regions are scored by (load, index), so
//! the same arrival sequence always yields the same placements.

use agilla_analysis::CostBounds;

/// Fallback per-agent instruction estimate when a program has no static
/// cost bound (unverified code, or a cyclic control-flow graph whose
/// per-path bound does not bound whole-program cost).
pub const DEFAULT_INSTR_ESTIMATE: u64 = 256;

/// One allocatable region: a contiguous run of node indices with a load
/// capacity in estimated instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Region index (dense, 0-based).
    pub index: u32,
    /// First node index in the region.
    pub first_node: u32,
    /// Number of nodes in the region.
    pub node_count: u32,
    /// Load capacity (estimated instructions) of the whole region.
    pub capacity: u64,
    /// Load currently placed on the region.
    pub load: u64,
}

impl Region {
    /// Capacity still unclaimed.
    pub fn free(&self) -> u64 {
        self.capacity - self.load.min(self.capacity)
    }
}

/// The allocator's verdict on one incoming app.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Placed onto the region with this index.
    Placed {
        /// Index of the chosen region.
        region: u32,
    },
    /// No region has enough free capacity.
    Rejected,
}

/// The base-station admission/allocation policy.
///
/// # Examples
///
/// ```
/// use agilla_tenancy::{Allocator, Decision};
///
/// // 25 motes, 5 regions, capacity 1000 instructions per node.
/// let mut alloc = Allocator::new(25, 5, 1000);
/// let d = alloc.place(4000);
/// assert_eq!(d, Decision::Placed { region: 0 });
/// // The next app goes to the least-loaded region (ties break low).
/// assert_eq!(alloc.place(100), Decision::Placed { region: 1 });
/// // A demand larger than any region's free capacity is refused.
/// assert_eq!(alloc.place(6000), Decision::Rejected);
/// ```
#[derive(Debug, Clone)]
pub struct Allocator {
    regions: Vec<Region>,
}

impl Allocator {
    /// Builds an allocator over `num_nodes` motes split into
    /// `num_regions` contiguous regions (remainder nodes go to the
    /// earliest regions),
    /// each node contributing `capacity_per_node` estimated instructions.
    ///
    /// # Panics
    ///
    /// Panics if `num_regions` is zero or exceeds `num_nodes`.
    pub fn new(num_nodes: u32, num_regions: u32, capacity_per_node: u64) -> Self {
        assert!(num_regions > 0, "at least one region");
        assert!(num_regions <= num_nodes, "more regions than nodes");
        let base = num_nodes / num_regions;
        let extra = num_nodes % num_regions;
        let mut regions = Vec::with_capacity(num_regions as usize);
        let mut first = 0u32;
        for index in 0..num_regions {
            let node_count = base + u32::from(index < extra);
            regions.push(Region {
                index,
                first_node: first,
                node_count,
                capacity: capacity_per_node * u64::from(node_count),
                load: 0,
            });
            first += node_count;
        }
        Allocator { regions }
    }

    /// Deployment-wide demand estimate for an app: `agents` concurrent
    /// agents, each bounded by the static per-path instruction count.
    /// Programs without a usable bound (unverified, or cyclic — where the
    /// per-path bound does not bound whole-program cost) fall back to
    /// [`DEFAULT_INSTR_ESTIMATE`].
    pub fn demand(cost: Option<&CostBounds>, agents: u32) -> u64 {
        let per_agent = match cost {
            Some(c) if !c.has_cycles => c.instructions.max(1),
            _ => DEFAULT_INSTR_ESTIMATE,
        };
        per_agent.saturating_mul(u64::from(agents.max(1)))
    }

    /// Places an app with the given demand: the least-loaded region with
    /// enough free capacity wins, ties broken by lowest region index.
    pub fn place(&mut self, demand: u64) -> Decision {
        let best = self
            .regions
            .iter_mut()
            .filter(|r| r.free() >= demand)
            .min_by_key(|r| (r.load, r.index));
        match best {
            Some(region) => {
                region.load += demand;
                Decision::Placed {
                    region: region.index,
                }
            }
            None => Decision::Rejected,
        }
    }

    /// All regions, in index order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_partition_nodes_with_remainder_up_front() {
        let a = Allocator::new(25, 4, 100);
        let shapes: Vec<(u32, u32)> = a
            .regions()
            .iter()
            .map(|r| (r.first_node, r.node_count))
            .collect();
        assert_eq!(shapes, vec![(0, 7), (7, 6), (13, 6), (19, 6)]);
        assert_eq!(a.regions()[0].capacity, 700);
    }

    #[test]
    fn placement_is_least_loaded_then_lowest_index() {
        let mut a = Allocator::new(20, 2, 100);
        assert_eq!(a.place(300), Decision::Placed { region: 0 });
        assert_eq!(a.place(100), Decision::Placed { region: 1 });
        assert_eq!(a.place(200), Decision::Placed { region: 1 });
        // Tie at 300/300 breaks to the lower index.
        assert_eq!(a.place(100), Decision::Placed { region: 0 });
    }

    #[test]
    fn oversubscription_rejects_without_queueing() {
        let mut a = Allocator::new(10, 1, 100);
        assert_eq!(a.place(900), Decision::Placed { region: 0 });
        assert_eq!(a.place(200), Decision::Rejected);
        // The failed placement did not change region load.
        assert_eq!(a.regions()[0].load, 900);
    }

    #[test]
    fn demand_uses_static_bounds_and_falls_back() {
        assert_eq!(Allocator::demand(None, 3), 3 * DEFAULT_INSTR_ESTIMATE);
        let acyclic = CostBounds {
            max_stack: 1,
            max_heap_slots: 0,
            wire_bytes: 10,
            instructions: 40,
            cpu_us: 0,
            sensing_us: 0,
            radio_us: 0,
            total_us: 0,
            joules: 0.0,
            has_cycles: false,
        };
        assert_eq!(Allocator::demand(Some(&acyclic), 2), 80);
        let cyclic = CostBounds {
            has_cycles: true,
            ..acyclic
        };
        assert_eq!(
            Allocator::demand(Some(&cyclic), 2),
            2 * DEFAULT_INSTR_ESTIMATE
        );
    }

    #[test]
    #[should_panic(expected = "more regions than nodes")]
    fn too_many_regions_panics() {
        let _ = Allocator::new(2, 3, 100);
    }
}
