//! Static cost bounds: worst-case instructions / µs / joules per acyclic
//! path, and the worst-case migration image size.
//!
//! The flow graph is condensed into strongly connected components
//! (iterative Kosaraju), each component is priced once with the MICA2
//! per-instruction costs ([`Opcode::cost_us`](agilla_vm::Opcode::cost_us)),
//! and a longest-path DP over the acyclic condensation yields a bound that
//! holds for every execution path that does not repeat a loop.
//! Cycles are reported via [`CostBounds::has_cycles`] instead of being
//! unrolled.

use std::collections::{BTreeMap, BTreeSet};

use agilla_tuplespace::FieldType;
use agilla_vm::EnergyClass;
use wsn_radio::energy::{joules, CPU_ACTIVE_MA};
use wsn_sim::SimDuration;

use crate::interp::Flow;
use crate::report::CostBounds;

/// Per-component cost: µs split by energy class, plus instruction count.
#[derive(Debug, Clone, Copy, Default)]
struct Weight {
    cpu_us: u64,
    sensing_us: u64,
    radio_us: u64,
    instructions: u64,
}

impl Weight {
    fn total_us(self) -> u64 {
        self.cpu_us + self.sensing_us + self.radio_us
    }

    fn add(self, other: Weight) -> Weight {
        Weight {
            cpu_us: self.cpu_us + other.cpu_us,
            sensing_us: self.sensing_us + other.sensing_us,
            radio_us: self.radio_us + other.radio_us,
            instructions: self.instructions + other.instructions,
        }
    }
}

/// Largest wire encoding of one stack/heap slot: a type tag plus the widest
/// field payload (a location).
fn max_slot_bytes() -> usize {
    [
        FieldType::Value,
        FieldType::Str,
        FieldType::Location,
        FieldType::Reading,
        FieldType::AgentId,
        FieldType::SensorType,
    ]
    .into_iter()
    .map(|t| 2 + t.payload_len())
    .max()
    .unwrap_or(2)
}

/// Kosaraju SCC over the node list; returns a component id per node, with
/// ids assigned in reverse-finish order (sources of the condensation first).
fn sccs(n: usize, adj: &[Vec<usize>], radj: &[Vec<usize>]) -> Vec<usize> {
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    for start in 0..n {
        if visited[start] {
            continue;
        }
        // Iterative DFS computing a post-order: (node, next child index).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        visited[start] = true;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < adj[v].len() {
                let w = adj[v][*i];
                *i += 1;
                if !visited[w] {
                    visited[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut next_comp = 0usize;
    for &root in order.iter().rev() {
        if comp[root] != usize::MAX {
            continue;
        }
        let mut stack = vec![root];
        comp[root] = next_comp;
        while let Some(v) = stack.pop() {
            for &w in &radj[v] {
                if comp[w] == usize::MAX {
                    comp[w] = next_comp;
                    stack.push(w);
                }
            }
        }
        next_comp += 1;
    }
    comp
}

/// Computes the cost bounds for a verified program.
pub(crate) fn cost_bounds(code: &[u8], flow: &Flow) -> CostBounds {
    let nodes: Vec<u16> = flow.insns.keys().copied().collect();
    let idx: BTreeMap<u16, usize> = nodes.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let n = nodes.len();

    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut self_loop = vec![false; n];
    for (&p, targets) in &flow.edges {
        let Some(&i) = idx.get(&p) else { continue };
        for &t in targets {
            let Some(&j) = idx.get(&t) else { continue };
            if i == j {
                self_loop[i] = true;
            }
            adj[i].push(j);
            radj[j].push(i);
        }
    }

    let comp = sccs(n, &adj, &radj);
    let ncomp = comp.iter().map(|&c| c + 1).max().unwrap_or(0);

    // Price each component once.
    let mut weight = vec![Weight::default(); ncomp];
    let mut comp_size = vec![0usize; ncomp];
    let mut cyclic = vec![false; ncomp];
    for (i, &p) in nodes.iter().enumerate() {
        let op = flow.insns[&p];
        let us = op.cost_us();
        let w = &mut weight[comp[i]];
        match op.energy_class() {
            EnergyClass::Cpu => w.cpu_us += us,
            EnergyClass::Sensing => w.sensing_us += us,
            EnergyClass::Radio => w.radio_us += us,
        }
        w.instructions += 1;
        comp_size[comp[i]] += 1;
        if self_loop[i] {
            cyclic[comp[i]] = true;
        }
    }
    for (c, &size) in comp_size.iter().enumerate() {
        if size > 1 {
            cyclic[c] = true;
        }
    }

    // Condensation edges, then Kahn's algorithm for a topological order.
    let mut cedges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (i, out) in adj.iter().enumerate() {
        for &j in out {
            if comp[i] != comp[j] {
                cedges.insert((comp[i], comp[j]));
            }
        }
    }
    let mut indeg = vec![0usize; ncomp];
    for &(_, b) in &cedges {
        indeg[b] += 1;
    }
    let mut topo: Vec<usize> = (0..ncomp).filter(|&c| indeg[c] == 0).collect();
    let mut head = 0usize;
    while head < topo.len() {
        let c = topo[head];
        head += 1;
        for &(a, b) in cedges.range((c, 0)..(c + 1, 0)) {
            debug_assert_eq!(a, c);
            indeg[b] -= 1;
            if indeg[b] == 0 {
                topo.push(b);
            }
        }
    }

    // Longest path through the condensation, by total µs.
    let mut best: Vec<Weight> = weight.clone();
    for &c in &topo {
        let mut incoming = Weight::default();
        let mut any = false;
        for &(a, b) in &cedges {
            if b == c && (!any || best[a].total_us() > incoming.total_us()) {
                incoming = best[a];
                any = true;
            }
        }
        if any {
            best[c] = incoming.add(weight[c]);
        }
    }
    let worst = best
        .iter()
        .copied()
        .max_by_key(|w| (w.total_us(), w.instructions))
        .unwrap_or_default();

    // Migration image: register header (id, pc, cond, code length), the
    // code, then length-prefixed stack and heap images at their maximal
    // observed sizes with the widest slot encoding.
    let slot = max_slot_bytes();
    let wire_bytes = 8 + code.len() + 1 + flow.max_stack * slot + 1 + flow.max_heap * (1 + slot);

    let total_us = worst.total_us();
    CostBounds {
        max_stack: flow.max_stack,
        max_heap_slots: flow.max_heap,
        wire_bytes,
        instructions: worst.instructions,
        cpu_us: worst.cpu_us,
        sensing_us: worst.sensing_us,
        radio_us: worst.radio_us,
        total_us,
        joules: joules(CPU_ACTIVE_MA, SimDuration::from_micros(total_us)),
        has_cycles: cyclic.iter().any(|&c| c),
    }
}
