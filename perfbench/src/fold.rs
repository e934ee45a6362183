//! One pass over a finished trial: every per-trial statistic, the digest of
//! every simulated statistic, and the per-trial output checks.
//!
//! The experiment log's own queries (`finished_at`, `remote_completion`,
//! `arrivals`, ...) each scan the whole log, so a fold built from them is
//! quadratic in a 50k-record clone-storm trial and would time the benchmark
//! instead of the program. Everything here reads `ExperimentLog::records()`
//! exactly once, keeping first-occurrence semantics where those queries
//! have them.

use std::collections::{HashMap, HashSet};

use agilla::stats::OpRecord;
use agilla::{Rejections, Trial, TrialSpec, TrialStep};
use agilla_tuplespace::{Field, Tuple};
use agilla_vm::MigrateKind;
use wsn_common::{AgentId, Location, NodeId};
use wsn_sim::{SimDuration, SimTime};

use crate::workloads::{Kind, TrialDef, FIG11_OPS};

/// What one Fig. 9/10/11 trial contributes to its figure, by the figure
/// binaries' own definitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperSample {
    /// The measured operation succeeded.
    pub ok: bool,
    /// The latency the figure averages, when this trial contributes one.
    pub latency: Option<SimDuration>,
}

/// Counters read from the network's metrics registry, in this order.
pub const COUNTERS: [&str; 14] = [
    "migration.started",
    "migration.arrived",
    "migration.failed",
    "migration.retx",
    "migration.reack",
    "migration.rxabort",
    "migration.failover",
    "migration.clone_sessions",
    "remote.retx",
    "remote.reack",
    "remote.failover",
    "radio.frames_lost",
    "radio.beacons",
    "motion.moves",
];

/// Everything one trial measured.
#[derive(Debug, Clone, Default)]
pub struct TrialStats {
    /// Digest of every simulated statistic of the trial.
    pub digest: u64,
    /// Simulated time the trial covered, µs.
    pub sim_us: u64,
    /// Motes the trial built.
    pub nodes: u64,
    /// Compiled steps of the trial's script.
    pub steps: u64,
    /// Arrivals offered: every inject call, closed-loop issues included.
    pub offered: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals refused, by reason.
    pub rejected: Rejections,
    /// Operations attempted: the op a paper trial measures, else the remote
    /// ops and migrations of the agents the trial injected.
    pub ops: u64,
    /// Operations that succeeded.
    pub ops_ok: u64,
    /// Injection-to-halt times of the trial's own agents that halted, µs.
    pub agent_us: Vec<u64>,
    /// Events the network dispatched.
    pub events: u64,
    /// Frames the medium transmitted.
    pub frames_sent: u64,
    /// Remote tuple-space operations issued.
    pub remote_issued: u64,
    /// Remote tuple-space operations that completed successfully.
    pub remote_ok: u64,
    /// Tuples resident in every tuple space at the horizon.
    pub resident_tuples: u64,
    /// Energy drained network-wide, mJ (0 with meters off).
    pub energy_mj: u64,
    /// Tenant agents evicted by priority preemption.
    pub tenancy_evicted: u64,
    /// Tenant arrivals refused.
    pub tenancy_rejected: u64,
    /// The [`COUNTERS`], in order.
    pub counters: [u64; COUNTERS.len()],
    /// The trial's contribution to a paper figure.
    pub paper: Option<PaperSample>,
    /// Output checks the trial failed.
    pub failures: Vec<String>,
}

impl TrialStats {
    /// The counter named `name` (one of [`COUNTERS`]).
    pub fn counter(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("a listed counter");
        self.counters[i]
    }
}

/// A 64-bit digest that mixes one word per step (multiply-rotate, as in
/// FxHash): fast enough to run over every log record of a 50k-record trial
/// without the fold timing the benchmark instead of the program.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in one word.
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// Mixes in bytes, eight at a time, then their length.
    pub fn bytes(&mut self, b: &[u8]) {
        for chunk in b.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
        self.u64(b.len() as u64);
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Arrivals the compiled script offers (closed-loop issues excluded).
pub fn scripted_arrivals(spec: &TrialSpec) -> u64 {
    spec.steps
        .iter()
        .filter(|s| {
            matches!(
                s,
                TrialStep::Inject { .. }
                    | TrialStep::TryInject { .. }
                    | TrialStep::TryInjectAs { .. }
            )
        })
        .count() as u64
}

fn node_of(trial: &Trial, loc: Location) -> NodeId {
    trial
        .net
        .node_at(loc)
        .unwrap_or_else(|| panic!("no mote at {loc}"))
}

fn kind_code(k: MigrateKind) -> u64 {
    match k {
        MigrateKind::StrongMove => 0,
        MigrateKind::WeakMove => 1,
        MigrateKind::StrongClone => 2,
        MigrateKind::WeakClone => 3,
    }
}

/// Per-agent first injection and first halt, for the trial's own agents.
#[derive(Debug, Default, Clone, Copy)]
struct AgentTimes {
    injected: Option<SimTime>,
    halted: Option<SimTime>,
}

/// The trial's own agents, sorted by id: a clone storm looks up every one
/// of its records here, and a binary search over a handful of ids beats
/// hashing each.
struct Own(Vec<(u16, AgentTimes)>);

impl Own {
    fn new(agents: &[AgentId]) -> Self {
        let mut v: Vec<(u16, AgentTimes)> = agents
            .iter()
            .map(|a| (a.0, AgentTimes::default()))
            .collect();
        v.sort_unstable_by_key(|e| e.0);
        v.dedup_by_key(|e| e.0);
        Own(v)
    }

    fn get_mut(&mut self, a: AgentId) -> Option<&mut AgentTimes> {
        let i = self.0.binary_search_by_key(&a.0, |e| e.0).ok()?;
        Some(&mut self.0[i].1)
    }

    fn get(&self, a: AgentId) -> Option<&AgentTimes> {
        let i = self.0.binary_search_by_key(&a.0, |e| e.0).ok()?;
        Some(&self.0[i].1)
    }

    fn contains(&self, a: AgentId) -> bool {
        self.get(a).is_some()
    }
}

/// Folds a finished trial. `client_issues` is the number of closed-loop
/// issues when the caller counted them (the traced runner does); without it
/// the offered-arrivals identity is checked only for client-free scripts.
pub fn fold(
    def: &TrialDef,
    spec: &TrialSpec,
    trial: &mut Trial,
    client_issues: Option<u64>,
) -> TrialStats {
    trial.net.record_energy_metrics();
    let trial = &*trial;
    let net = &trial.net;
    let mut h = Digest::default();
    let mut s = TrialStats {
        sim_us: net.now().as_micros(),
        nodes: net.medium().topology().len() as u64,
        steps: spec.steps.len() as u64,
        admitted: trial.agents.len() as u64,
        rejected: trial.rejected,
        events: net.events_dispatched(),
        frames_sent: net.medium().frames_sent(),
        ..TrialStats::default()
    };
    s.offered = s.admitted + u64::from(s.rejected.total());

    // Which agent and which nodes the trial's own measurement follows.
    let base = net.base();
    let tracked: Option<AgentId> = match def.kind {
        Kind::PaperSmove { .. } | Kind::PaperRout { .. } | Kind::Crossing => {
            trial.agents.first().copied()
        }
        Kind::Fig11(_) => trial.agents.last().copied(),
        _ => None,
    };
    let target: Option<NodeId> = match def.kind {
        Kind::PaperSmove { hops, .. } | Kind::PaperRout { hops, .. } => {
            Some(node_of(trial, Location::new(hops, 1)))
        }
        Kind::Fig11(_) => Some(node_of(trial, Location::new(1, 1))),
        _ => None,
    };

    let mut times = Own::new(&trial.agents);
    let mut first_issue: HashMap<u16, SimTime> = HashMap::new();
    let mut first_completion: HashMap<u16, (bool, bool, SimTime)> = HashMap::new();
    let mut tracked_ops: Vec<u16> = Vec::new();
    let mut reached_target = false;
    let mut last_at_base: Option<SimTime> = None;
    let mut first_at_target: Option<SimTime> = None;
    // Remote ops issued by the trial's own agents, and their migrations.
    let mut own_ops: HashSet<u16> = HashSet::new();
    let (mut own_remote, mut own_remote_ok) = (0u64, 0u64);
    let (mut own_arrived, mut own_failed) = (0u64, 0u64);

    for r in net.log().records() {
        match *r {
            OpRecord::AgentInjected { agent, node, at } => {
                h.u64(1);
                h.u64(u64::from(agent.0));
                h.u64(u64::from(node.0));
                h.u64(at.as_micros());
                if let Some(t) = times.get_mut(agent) {
                    t.injected.get_or_insert(at);
                }
            }
            OpRecord::MigrationArrived {
                agent,
                node,
                kind,
                at,
            } => {
                h.u64(2);
                h.u64(u64::from(agent.0));
                h.u64(u64::from(node.0));
                h.u64(kind_code(kind));
                h.u64(at.as_micros());
                if times.contains(agent) {
                    own_arrived += 1;
                }
                if Some(node) == target {
                    first_at_target.get_or_insert(at);
                    if Some(agent) == tracked {
                        reached_target = true;
                    }
                }
                if node == base && Some(agent) == tracked {
                    last_at_base = Some(at);
                }
            }
            OpRecord::MigrationFailed { agent, node, at } => {
                h.u64(3);
                h.u64(u64::from(agent.0));
                h.u64(u64::from(node.0));
                h.u64(at.as_micros());
                if times.contains(agent) {
                    own_failed += 1;
                }
            }
            OpRecord::AgentHalted { agent, node, at } => {
                h.u64(4);
                h.u64(u64::from(agent.0));
                h.u64(u64::from(node.0));
                h.u64(at.as_micros());
                if let Some(t) = times.get_mut(agent) {
                    t.halted.get_or_insert(at);
                }
            }
            OpRecord::AgentFaulted { agent, node, at } => {
                h.u64(5);
                h.u64(u64::from(agent.0));
                h.u64(u64::from(node.0));
                h.u64(at.as_micros());
            }
            OpRecord::AgentEvicted { agent, node, at } => {
                h.u64(6);
                h.u64(u64::from(agent.0));
                h.u64(u64::from(node.0));
                h.u64(at.as_micros());
            }
            OpRecord::RemoteIssued {
                op_id,
                agent,
                dest,
                at,
            } => {
                h.u64(7);
                h.u64(u64::from(op_id));
                h.u64(u64::from(agent.0));
                h.u64(dest.x as u16 as u64);
                h.u64(dest.y as u16 as u64);
                h.u64(at.as_micros());
                s.remote_issued += 1;
                first_issue.entry(op_id).or_insert(at);
                if times.contains(agent) {
                    own_remote += 1;
                    own_ops.insert(op_id);
                }
                if Some(agent) == tracked {
                    tracked_ops.push(op_id);
                }
            }
            OpRecord::NodeDied { node, at } => {
                h.u64(8);
                h.u64(u64::from(node.0));
                h.u64(at.as_micros());
            }
            OpRecord::RemoteCompleted {
                op_id,
                agent,
                success,
                retransmitted,
                at,
            } => {
                h.u64(9);
                h.u64(u64::from(op_id));
                h.u64(u64::from(agent.0));
                h.u64(u64::from(success));
                h.u64(u64::from(retransmitted));
                h.u64(at.as_micros());
                if success {
                    s.remote_ok += 1;
                    if own_ops.remove(&op_id) {
                        own_remote_ok += 1;
                    }
                }
                first_completion
                    .entry(op_id)
                    .or_insert((success, retransmitted, at));
            }
        }
    }

    let metrics = net.metrics();
    for (name, v) in metrics.counters() {
        h.bytes(name.as_bytes());
        h.u64(v);
        if let Some(app) = name.strip_prefix("tenancy.") {
            if app.ends_with(".evicted") {
                s.tenancy_evicted += v;
            } else if app.ends_with(".rejected") {
                s.tenancy_rejected += v;
            }
        }
    }
    for (name, hist) in metrics.histograms() {
        h.bytes(name.as_bytes());
        for (bucket, n) in hist.buckets() {
            h.u64(bucket);
            h.u64(n);
        }
    }
    for (i, name) in COUNTERS.iter().enumerate() {
        s.counters[i] = metrics.counter(name);
    }
    s.energy_mj = metrics.counter("energy.total_mj");
    for id in net.medium().topology().nodes() {
        let n = net.node(id).space.len() as u64;
        h.u64(n);
        s.resident_tuples += n;
    }
    for a in &trial.agents {
        h.u64(u64::from(a.0));
    }
    for v in [
        s.sim_us,
        s.events,
        s.frames_sent,
        net.medium().frames_lost(),
        u64::from(s.rejected.no_slots),
        u64::from(s.rejected.unverifiable),
        u64::from(s.rejected.quota),
        u64::from(s.rejected.dead_mote),
    ] {
        h.u64(v);
    }

    for a in &trial.agents {
        if let Some(AgentTimes {
            injected: Some(i),
            halted: Some(t),
        }) = times.get(*a)
        {
            if t >= i {
                s.agent_us.push(t.since(*i).as_micros());
            }
        }
    }

    // Operations: a paper trial counts only the op its figure measures;
    // every other trial counts the remote ops and migrations of the agents
    // it injected. Clones are left out: an `sclone` retry loop toward an
    // unreachable address spawns a fresh clone id per attempt, and would
    // swamp the ratio.
    let completion = |op: u16| first_completion.get(&op).copied();
    match def.kind {
        Kind::PaperSmove { .. } => {
            let ok = reached_target && last_at_base.is_some();
            let injected = tracked.and_then(|a| times.get(a)).and_then(|t| t.injected);
            let latency = match (ok, injected, last_at_base) {
                (true, Some(i), Some(back)) => {
                    // Halved: the figures report one-way latency.
                    Some(SimDuration::from_micros(back.since(i).as_micros() / 2))
                }
                _ => None,
            };
            s.paper = Some(PaperSample { ok, latency });
        }
        Kind::PaperRout { .. } => {
            s.paper = Some(remote_sample(&tracked_ops, &first_issue, completion, false));
        }
        Kind::Fig11(op) => {
            s.paper = Some(if FIG11_OPS[op].starts_with('r') {
                remote_sample(&tracked_ops, &first_issue, completion, true)
            } else {
                let injected = tracked.and_then(|a| times.get(a)).and_then(|t| t.injected);
                let latency = match (injected, first_at_target) {
                    (Some(i), Some(a)) => Some(a.since(i)),
                    _ => None,
                };
                PaperSample {
                    ok: latency.is_some(),
                    latency,
                }
            });
        }
        _ => {}
    }
    (s.ops, s.ops_ok) = match s.paper {
        Some(p) => (1, u64::from(p.ok)),
        None => (
            own_remote + own_arrived + own_failed,
            own_remote_ok + own_arrived,
        ),
    };
    h.u64(s.ops);
    h.u64(s.ops_ok);
    s.digest = h.finish();

    // Output checks.
    let r = s.rejected;
    if r.no_slots + r.unverifiable + r.quota + r.dead_mote != r.total() {
        s.failures
            .push("refusal reasons do not sum to the total".into());
    }
    let expected_offered = match client_issues {
        Some(c) => Some(scripted_arrivals(spec) + c),
        None if spec.clients.is_empty() => Some(scripted_arrivals(spec)),
        None => None,
    };
    if let Some(e) = expected_offered {
        if s.offered != e {
            s.failures.push(format!(
                "admitted {} + refused {} != offered {e}",
                s.admitted,
                r.total()
            ));
        }
    }
    let rout_target = match def.kind {
        Kind::PaperRout { hops, .. } => Some(Location::new(hops, 1)),
        Kind::Fig11(0) => Some(Location::new(1, 1)),
        _ => None,
    };
    if let Some(loc) = rout_target {
        let one = Tuple::new(vec![Field::value(1)]).expect("one-field tuple");
        let copies = net
            .node(node_of(trial, loc))
            .space
            .iter()
            .filter(|t| *t == one)
            .count();
        if copies > 1 {
            s.failures
                .push(format!("{copies} copies of <1> at rout target {loc}"));
        }
    }
    match def.kind {
        Kind::Field => {
            let topo = net.medium().topology();
            let now = net.now();
            let silent = topo
                .nodes()
                .filter(|&v| {
                    let loc = topo.location(v);
                    !topo
                        .neighbors(v)
                        .into_iter()
                        .any(|u| net.node(u).acq.node_at(loc, now) == Some(v))
                })
                .count();
            if silent > 0 {
                s.failures.push(format!(
                    "{silent} motes went unheard by every neighbour within the beacon TTL"
                ));
            }
        }
        Kind::Crossing => {
            let acked = tracked_ops
                .iter()
                .filter(|op| matches!(completion(**op), Some((true, _, _))))
                .count() as u64;
            let veh = Field::str("veh");
            let landed = net
                .node(base)
                .space
                .iter()
                .filter(|t| t.fields().contains(&veh))
                .count() as u64;
            if acked > landed {
                s.failures
                    .push(format!("{acked} reports acked but only {landed} landed"));
            }
        }
        _ => {}
    }
    s
}

/// A remote-op trial's sample: the tracked agent's first op, and its
/// latency when it succeeded (without a retransmission, for Fig. 10's rout
/// curve; any success, for Fig. 11).
fn remote_sample(
    tracked_ops: &[u16],
    first_issue: &HashMap<u16, SimTime>,
    completion: impl Fn(u16) -> Option<(bool, bool, SimTime)>,
    retransmitted_counts: bool,
) -> PaperSample {
    let Some(&op) = tracked_ops.first() else {
        return PaperSample::default();
    };
    match completion(op) {
        Some((true, retransmitted, done)) => PaperSample {
            ok: true,
            latency: (retransmitted_counts || !retransmitted).then(|| done.since(first_issue[&op])),
        },
        _ => PaperSample::default(),
    }
}
