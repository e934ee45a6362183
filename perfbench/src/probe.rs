//! Probes: direct calls to four public functions on the workload's own
//! programs, topologies and loss models, timed one call class at a time.
//! Multiplied by the exact call counts of a pass, a probe time estimates a
//! layer's share of the run.

use crate::clock::now_ns;
use std::collections::HashMap;
use std::hint::black_box;

use agilla::{AgillaNetwork, TopologySpec, TrialStep};
use wsn_radio::{EnergyLedger, Frame, LossModel, Medium, Topology};
use wsn_sim::{SimDuration, SimTime};

use crate::workloads::TrialDef;

/// Per-call probe times.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `agilla_vm::asm::assemble`, µs per call over the workload's arrivals.
    pub asm_us: f64,
    /// `agilla_analysis::verify`, µs per call over the same programs.
    pub verify_us: f64,
    /// `Medium::transmit` of a beacon, ns per call, frame-weighted across
    /// the workload's substrates.
    pub transmit_ns: f64,
    /// `Topology::neighbors`, ns per call, weighted the same way.
    pub neighbors_ns: f64,
}

/// Median of three timed repetitions of `f`, ns per call over `calls`.
fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut reps: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = now_ns();
            f();
            (now_ns() - t0) as f64 / calls.max(1) as f64
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    reps[1]
}

/// The topology and loss model a substrate builds, as `TrialSpec::build`
/// would.
fn substrate(topology: &TopologySpec) -> (Topology, LossModel) {
    match topology {
        TopologySpec::Lossy5x5 => (
            Topology::grid_with_base(5, 5),
            AgillaNetwork::testbed_loss(),
        ),
        TopologySpec::Reliable5x5 => (Topology::grid_with_base(5, 5), LossModel::perfect()),
        TopologySpec::ReliableLine(n) => (Topology::line(*n), LossModel::perfect()),
        TopologySpec::Custom { topology, loss } => ((**topology).clone(), loss.clone()),
    }
}

/// A beacon frame from `node`, as the network builds one.
fn beacon(topology: &Topology, node: wsn_common::NodeId) -> Frame {
    let payload = wsn_net::encode_beacon(topology.location(node));
    Frame::broadcast(
        node,
        agilla::wire::message(agilla::wire::am::BEACON, payload).encode(),
    )
}

/// Runs every probe. `frames` maps each substrate label to the frames a
/// pass transmitted on it, which weights the radio probes.
pub fn run(batch: &[TrialDef], frames: &HashMap<&'static str, u64>) -> Probes {
    // The programs every inject call assembles, in batch order.
    let mut sources: Vec<&str> = Vec::new();
    let compiled: Vec<_> = batch.iter().map(|d| d.spec.compile()).collect();
    for spec in &compiled {
        for step in &spec.steps {
            if let TrialStep::Inject { source, .. }
            | TrialStep::TryInject { source, .. }
            | TrialStep::TryInjectAs { source, .. } = step
            {
                sources.push(source);
            }
        }
        sources.extend(spec.clients.iter().map(|c| c.source.as_str()));
    }
    let asm_us = per_call_ns(sources.len(), || {
        for s in &sources {
            let _ = black_box(agilla_vm::asm::assemble(black_box(s)));
        }
    }) / 1e3;
    let mut codes: HashMap<&str, Vec<u8>> = HashMap::new();
    for s in &sources {
        codes.entry(s).or_insert_with(|| {
            agilla_vm::asm::assemble(s)
                .map(|p| p.into_code())
                .unwrap_or_default()
        });
    }
    let programs: Vec<&[u8]> = sources.iter().map(|s| codes[s].as_slice()).collect();
    let verify_us = per_call_ns(programs.len(), || {
        for code in &programs {
            let _ = black_box(agilla_analysis::verify(black_box(code)));
        }
    }) / 1e3;

    let (mut transmit, mut neighbors, mut weight) = (0.0, 0.0, 0.0);
    let mut seen: Vec<&str> = Vec::new();
    for def in batch {
        if seen.contains(&def.substrate) {
            continue;
        }
        seen.push(def.substrate);
        let w = frames.get(def.substrate).copied().unwrap_or(0) as f64;
        let (topology, loss) = substrate(&def.spec.topology);
        let nodes: Vec<_> = topology.nodes().collect();
        // At least 20k calls, whole rounds over every mote.
        let rounds = 20_000usize.div_ceil(nodes.len()).max(1);
        let calls = rounds * nodes.len();
        let frames_out: Vec<Frame> = nodes.iter().map(|&n| beacon(&topology, n)).collect();
        neighbors += w * per_call_ns(calls, || {
            for _ in 0..rounds {
                for &n in &nodes {
                    black_box(topology.neighbors(black_box(n)));
                }
            }
        });
        let energy = &def.spec.config.energy;
        let mut medium = Medium::new(topology.clone(), loss, def.spec.seed);
        if energy.enabled {
            medium.attach_energy(EnergyLedger::new(nodes.len(), energy.battery_joules, 1.0));
        }
        // Spaced wider than a frame's air time, so no copy collides.
        let gap = SimDuration::from_millis(50);
        let mut now = SimTime::ZERO;
        transmit += w * per_call_ns(calls, || {
            for _ in 0..rounds {
                for f in &frames_out {
                    black_box(medium.transmit(now, black_box(f)));
                    now += gap;
                }
            }
        });
        weight += w;
    }
    let weight = if weight > 0.0 { weight } else { 1.0 };
    Probes {
        asm_us,
        verify_us,
        transmit_ns: transmit / weight,
        neighbors_ns: neighbors / weight,
    }
}
