//! Base-station admission and allocation.
//!
//! Incoming applications present a *demand* — a deployment-wide load
//! estimate derived from `agilla-analysis` static cost bounds — and the
//! allocator places them onto topology *regions* (contiguous node-index
//! runs). An app that fits nowhere is rejected, or queued when the
//! allocator was built with queueing; queued apps are retried in arrival
//! order whenever capacity is released.
//!
//! Every choice is deterministic: regions are scored by (load, index), so
//! the same arrival sequence always yields the same placements.

use std::collections::VecDeque;

use agilla_analysis::CostBounds;

use crate::AppId;

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
    /// No region fits now; the app waits in arrival order for released
    /// capacity (queueing allocators only).
    Queued,
    /// No region fits and the allocator does not queue.
    Rejected,
}

/// The base-station admission/allocation policy.
///
/// # Examples
///
/// ```
/// use agilla_tenancy::{Allocator, AppId, Decision};
///
/// // 25 motes, 5 regions, capacity 1000 instructions per node.
/// let mut alloc = Allocator::new(25, 5, 1000);
/// let d = alloc.place(AppId(0), 4000);
/// assert_eq!(d, Decision::Placed { region: 0 });
/// // The next app goes to the least-loaded region (ties break low).
/// assert_eq!(alloc.place(AppId(1), 100), Decision::Placed { region: 1 });
/// // A demand larger than any region's free capacity is refused.
/// assert_eq!(alloc.place(AppId(2), 6000), Decision::Rejected);
/// ```
#[derive(Debug, Clone)]
pub struct Allocator {
    regions: Vec<Region>,
    /// Apps waiting for capacity, in arrival order (queueing mode only).
    queue: VecDeque<(AppId, u64)>,
    queueing: bool,
    /// Where each placed app sits: (app, region, demand).
    placements: Vec<(AppId, u32, u64)>,
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
        Allocator {
            regions,
            queue: VecDeque::new(),
            queueing: false,
            placements: Vec::new(),
        }
    }

    /// Enables queueing: apps that do not fit wait for released capacity
    /// instead of being rejected.
    pub fn with_queueing(mut self) -> Self {
        self.queueing = true;
        self
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

    /// Places `app` with the given demand: the least-loaded region with
    /// enough free capacity wins, ties broken by lowest region index.
    ///
    /// In queueing mode admission is strict FIFO: while apps are waiting,
    /// a new arrival queues behind them even if it would fit right now —
    /// small late apps cannot starve a large early one.
    pub fn place(&mut self, app: AppId, demand: u64) -> Decision {
        if self.queueing && !self.queue.is_empty() {
            self.queue.push_back((app, demand));
            return Decision::Queued;
        }
        match self.best_fit(demand) {
            Some(region) => {
                self.commit(app, region, demand);
                Decision::Placed { region }
            }
            None if self.queueing => {
                self.queue.push_back((app, demand));
                Decision::Queued
            }
            None => Decision::Rejected,
        }
    }

    fn best_fit(&self, demand: u64) -> Option<u32> {
        self.regions
            .iter()
            .filter(|r| r.free() >= demand)
            .min_by_key(|r| (r.load, r.index))
            .map(|r| r.index)
    }

    fn commit(&mut self, app: AppId, region: u32, demand: u64) {
        self.regions[region as usize].load += demand;
        self.placements.push((app, region, demand));
    }

    /// Releases a finished app's demand back to its region, then retries
    /// the queue in arrival order. Returns the apps placed by the retry.
    pub fn release(&mut self, app: AppId) -> Vec<(AppId, u32)> {
        if let Some(pos) = self.placements.iter().position(|(a, _, _)| *a == app) {
            let (_, region, demand) = self.placements.remove(pos);
            let r = &mut self.regions[region as usize];
            r.load -= demand.min(r.load);
        }
        self.retry_queued()
    }

    /// Retries queued apps in arrival order; each either places or stays
    /// at its queue position (strict FIFO — a later small app does not
    /// jump an earlier large one, so queue order is a fairness guarantee).
    pub fn retry_queued(&mut self) -> Vec<(AppId, u32)> {
        let mut placed = Vec::new();
        while let Some(&(app, demand)) = self.queue.front() {
            match self.best_fit(demand) {
                Some(region) => {
                    self.queue.pop_front();
                    self.commit(app, region, demand);
                    placed.push((app, region));
                }
                None => break,
            }
        }
        placed
    }

    /// The region an app is currently placed on, if any.
    pub fn placement(&self, app: AppId) -> Option<&Region> {
        self.placements
            .iter()
            .find(|(a, _, _)| *a == app)
            .map(|&(_, region, _)| &self.regions[region as usize])
    }

    /// All regions, in index order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Apps still waiting, in arrival order.
    pub fn queued(&self) -> impl Iterator<Item = AppId> + '_ {
        self.queue.iter().map(|&(app, _)| app)
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
        assert_eq!(a.place(AppId(0), 300), Decision::Placed { region: 0 });
        assert_eq!(a.place(AppId(1), 100), Decision::Placed { region: 1 });
        assert_eq!(a.place(AppId(2), 200), Decision::Placed { region: 1 });
        // Tie at 300/300 breaks to the lower index.
        assert_eq!(a.place(AppId(3), 100), Decision::Placed { region: 0 });
    }

    #[test]
    fn oversubscription_rejects_without_queueing() {
        let mut a = Allocator::new(10, 1, 100);
        assert_eq!(a.place(AppId(0), 900), Decision::Placed { region: 0 });
        assert_eq!(a.place(AppId(1), 200), Decision::Rejected);
        // The failed placement did not change region load.
        assert_eq!(a.regions()[0].load, 900);
    }

    #[test]
    fn queueing_is_fifo_and_drains_on_release() {
        let mut a = Allocator::new(10, 1, 100).with_queueing();
        assert_eq!(a.place(AppId(0), 900), Decision::Placed { region: 0 });
        assert_eq!(a.place(AppId(1), 500), Decision::Queued);
        assert_eq!(a.place(AppId(2), 50), Decision::Queued);
        // App 2 would fit right now, but strict FIFO holds it behind 1.
        assert_eq!(a.retry_queued(), vec![]);
        let placed = a.release(AppId(0));
        assert_eq!(placed, vec![(AppId(1), 0), (AppId(2), 0)]);
        assert!(a.queued().next().is_none());
        assert_eq!(a.regions()[0].load, 550);
    }

    #[test]
    fn placement_lookup_and_release_of_unknown_app() {
        let mut a = Allocator::new(10, 2, 100);
        a.place(AppId(0), 100);
        assert_eq!(a.placement(AppId(0)).unwrap().index, 0);
        assert!(a.placement(AppId(7)).is_none());
        // Releasing an app that was never placed is a no-op.
        assert_eq!(a.release(AppId(7)), vec![]);
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
