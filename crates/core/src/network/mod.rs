//! The simulated Agilla network: event loop, engine, and protocol drivers.
//!
//! One [`AgillaNetwork`] owns the event queue, the radio medium, and every
//! node; all middleware behaviour — the round-robin engine, the hop-by-hop
//! migration protocol, remote tuple-space operations, beacons — is driven by
//! the deterministic event dispatch loop, so identical seeds give identical
//! runs.
//!
//! The module is split by protocol, with the reliability machinery they
//! share factored into one place:
//!
//! * [`session`] — the reliable-unicast session layer: retransmission
//!   bookkeeping, wrap-safe id allocation, and the TTL'd completed-session
//!   caches that make both protocols exactly-once under lost acks.
//! * [`migration`](self) (private submodule) — the hop-by-hop acknowledged
//!   agent transfer protocol of Section 3.2, plus the end-to-end ablation.
//! * [`remote`](self) (private submodule) — remote tuple-space operations
//!   (`rout`/`rinp`/`rrdp`) over geographic routing.
//! * [`tenancy`](self) (private submodule) — multi-tenancy: per-app quotas,
//!   byte attribution and preemption, present once an app registers.

pub mod session;

mod migration;
mod remote;
mod tenancy;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use agilla_tenancy::{AppId, AppProfile, QuotaLedger};
use agilla_tuplespace::{Reaction, Template, Tuple, TupleSpaceError};
use agilla_vm::exec::{self, StepResult};
use agilla_vm::isa::{EnergyClass, Instruction, REACTION_DISPATCH_US};
use agilla_vm::{asm, AgentState, Host, VmError};
use wsn_common::{AgentId, Location, NodeId, SensorType};
use wsn_net::{decode_beacon, encode_beacon, ActiveMessage, CsmaMac, LplConfig};
use wsn_radio::{
    DeliveryOutcome, EnergyLedger, EnergyMeter, EnergyState, Frame, GilbertElliott, LossModel,
    Medium, Motion, MotionPlan, Topology,
};
use wsn_sim::{CounterId, EventQueue, Metrics, RngStream, SimDuration, SimTime, Tracer};

use crate::config::{AgillaConfig, CODE_BUDGET, ENGINE_SLICE, TX_TURNAROUND};
use crate::env::Environment;
use crate::error::{AdmissionReason, AgillaError};
use crate::node::{AgentStatus, Node};
use crate::stats::{ExperimentLog, OpRecord};
use crate::wire::{self, am, Envelope, MigAck, MigData, MigHeader, MigNack, RtsReply, RtsRequest};

use session::SessionIdGen;
use tenancy::Tenancy;

/// Simulation events.
#[derive(Debug, Clone)]
enum Event {
    /// Execute one instruction (or deliver one pending reaction) on a node.
    EngineInstr { node: NodeId },
    /// The MAC is ready to attempt transmitting the head-of-queue frame.
    TxReady { node: NodeId },
    /// A transmitted frame's copies complete at every in-range receiver —
    /// one fanout event per frame rather than one event per receiver, which
    /// halves-or-better the event population in dense networks and shares
    /// the frame allocation across receivers. Receivers are processed in
    /// the batch's deterministic neighbor order, exactly the order the
    /// per-receiver events used to pop at this same timestamp.
    RxFanout {
        frame: Frame,
        outcomes: Vec<(NodeId, DeliveryOutcome)>,
    },
    /// Periodic neighbor beacon.
    Beacon { node: NodeId },
    /// A sleeping agent's wake-up.
    AgentWake { node: NodeId, slot: usize },
    /// Migration sender retransmit check.
    MigRetx { node: NodeId, session: u16 },
    /// Migration receiver stall watchdog.
    MigAbort { node: NodeId, session: u16 },
    /// Remote tuple-space operation timeout.
    RemoteTimeout { node: NodeId, op_id: u16 },
    /// Advance a mobile mote along its motion model (see
    /// [`AgillaNetwork::set_motion`]). Never scheduled when every node is
    /// static, so pre-mobility timelines are untouched event for event.
    MotionTick { node: NodeId },
}

/// What one engine unit did (see [`AgillaNetwork::engine_step`]).
enum EngineStep {
    /// Nothing ran; the engine goes quiet without rescheduling.
    Idle,
    /// A reaction delivery or instruction ran, costing `cost` CPU time.
    Ran {
        /// Virtual CPU time the unit consumed.
        cost: SimDuration,
    },
}

/// Why an agent's stay on a mote ends for good (see
/// [`AgillaNetwork::depart`]).
enum Departure {
    /// It executed `halt`.
    Halted,
    /// The VM faulted it.
    Faulted(VmError),
    /// Its app's per-mote instruction budget is spent: it is killed before
    /// any migration, remote session or sleep timer it requested is set up.
    OverBudget,
    /// An arriving agent of a higher-priority app preempted it.
    Preempted,
}

/// Pre-registered [`CounterId`] handles for every counter the event loop
/// bumps while the simulation runs. Registering once at construction moves
/// the string-name resolution out of the hot path: a bump is a single
/// indexed add into the metrics registry's flat array. Report-time series
/// (the `energy.*` gauges) keep using the named API.
///
/// The registration sequence is fixed, so re-running it against a fresh
/// registry (see [`AgillaNetwork::take_metrics`]) yields identical ids.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetCounters {
    frames_sent: CounterId,
    frames_lost: CounterId,
    beacons: CounterId,
    nodes_killed: CounterId,
    energy_nodes_dead: CounterId,
    pub(crate) mig_started: CounterId,
    pub(crate) mig_clone_sessions: CounterId,
    pub(crate) mig_retx: CounterId,
    pub(crate) mig_failover: CounterId,
    pub(crate) mig_failed: CounterId,
    pub(crate) mig_reack: CounterId,
    pub(crate) mig_rxabort: CounterId,
    pub(crate) mig_arrived: CounterId,
    pub(crate) remote_retx: CounterId,
    pub(crate) remote_failover: CounterId,
    pub(crate) remote_reack: CounterId,
}

impl NetCounters {
    fn register(m: &mut Metrics) -> Self {
        NetCounters {
            frames_sent: m.register("radio.frames_sent"),
            frames_lost: m.register("radio.frames_lost"),
            beacons: m.register("radio.beacons"),
            nodes_killed: m.register("faults.nodes_killed"),
            energy_nodes_dead: m.register("energy.nodes_dead"),
            mig_started: m.register("migration.started"),
            mig_clone_sessions: m.register("migration.clone_sessions"),
            mig_retx: m.register("migration.retx"),
            mig_failover: m.register("migration.failover"),
            mig_failed: m.register("migration.failed"),
            mig_reack: m.register("migration.reack"),
            mig_rxabort: m.register("migration.rxabort"),
            mig_arrived: m.register("migration.arrived"),
            remote_retx: m.register("remote.retx"),
            remote_failover: m.register("remote.failover"),
            remote_reack: m.register("remote.reack"),
        }
    }
}

/// Network-global mobility state: each mobile node's boot origin, motion
/// model, and start time. Fully inert — no events, no per-step cost beyond
/// one empty-`Vec` check — until [`AgillaNetwork::set_motion`] installs a
/// non-static plan.
///
/// Positions are a pure function of elapsed time (never integrated state),
/// so a tick lands the mote on the same cell however ticks interleave with
/// other events.
#[derive(Debug, Default)]
struct MotionState {
    /// Per node: boot origin, motion model, and when the plan was installed.
    /// Empty (not all-`None`) when no plan is installed.
    paths: Vec<Option<(Location, Motion, SimTime)>>,
}

impl MotionState {
    /// Heading/speed navigation readings for `idx` at `now`; `None` for
    /// static or plan-less nodes (a parked vehicle has no heading).
    fn nav(&self, idx: usize, now: SimTime) -> Option<(i16, i16)> {
        let (origin, motion, start) = self.paths.get(idx)?.as_ref()?;
        motion.heading_speed(*origin, now.saturating_since(*start))
    }
}

/// The complete simulated network (see module docs).
#[derive(Debug)]
pub struct AgillaNetwork {
    config: AgillaConfig,
    env: Environment,
    queue: EventQueue<Event>,
    medium: Medium,
    nodes: Vec<Node>,
    tracer: Tracer,
    metrics: Metrics,
    ctr: NetCounters,
    log: ExperimentLog,
    mac: CsmaMac,
    /// Per-node RNG substreams (`derive(seed, name).substream(node)`): MAC
    /// backoff/jitter, VM `random()`, and sensor noise. Each node's draw
    /// order is a function of its own event order alone, so cross-node
    /// event interleaving cannot change any outcome.
    rng_mac: Vec<RngStream>,
    rng_vm: Vec<RngStream>,
    rng_env: Vec<RngStream>,
    base: NodeId,
    clock: SimTime,
    agent_ids: SessionIdGen,
    session_ids: SessionIdGen,
    op_ids: SessionIdGen,
    /// Bytecode of every source text that assembled, so each distinct
    /// program injected by source is assembled once per network, and its
    /// agents share one copy.
    assembled: HashMap<String, Arc<[u8]>>,
    /// Bytecodes `agilla_analysis::verify` accepted on this network.
    /// Verification is a pure function of the code, so each distinct
    /// program is analyzed once; refusals are not kept and re-run.
    verified: HashSet<Arc<[u8]>>,
    /// Multi-tenancy state: `None` until an application registers.
    tenancy: Option<Box<Tenancy>>,
    /// Mobility state; inert until a motion plan is installed.
    motion: MotionState,
}

impl AgillaNetwork {
    /// Builds a network over `topology` with explicit radio loss and
    /// environment models. `seed` drives every random stream.
    pub fn new(
        topology: Topology,
        loss: LossModel,
        config: AgillaConfig,
        env: Environment,
        seed: u64,
    ) -> Self {
        let mut medium = Medium::new(topology, loss, seed);
        // LPL stretches every preamble; the config widens the protocol
        // timeouts to match.
        let lpl = config.lpl_interval().map(LplConfig::with_interval);
        if config.energy.enabled {
            let duty = lpl.as_ref().map_or(1.0, |l| l.listen_duty());
            let n = medium.topology().len();
            medium.attach_energy(EnergyLedger::new(n, config.energy.battery_joules, duty));
            if let Some(lpl) = &lpl {
                medium.set_preamble_stretch(lpl.preamble_stretch());
            }
        }
        let n = medium.topology().len();
        // Per-node state (acquaintances, capability tuples) is a pure
        // function of (id, topology, config, env), built in one pass.
        let sensors: Vec<SensorType> = env.sensors().collect();
        let nodes: Vec<Node> = (0..n)
            .map(|i| {
                let id = NodeId(i as u16);
                let topo = medium.topology();
                let mut node = Node::new(id, topo.location(id), &config);
                // The testbed has been up long enough for neighbor discovery to
                // have converged; seed the acquaintance lists, then let beacons
                // keep them fresh (a node that dies would age out naturally).
                for nb in topo.neighbors(id) {
                    node.acq.heard(nb, topo.location(nb), SimTime::ZERO);
                }
                // Capability tuples: "Agilla places special tuples into each
                // node's tuple space indicating what type of sensors are
                // available".
                for s in &sensors {
                    let t = Tuple::new(vec![agilla_tuplespace::Field::SensorType(*s)])
                        .expect("capability tuple");
                    node.space
                        .out(t)
                        .expect("capability tuple fits an empty space");
                }
                node
            })
            .collect();
        let derive_all = |name: &str| -> Vec<RngStream> {
            let root = RngStream::derive(seed, name);
            (0..n).map(|i| root.substream(i as u64)).collect()
        };
        let mut metrics = Metrics::new();
        let ctr = NetCounters::register(&mut metrics);
        let mut net = AgillaNetwork {
            config,
            env,
            queue: EventQueue::new(),
            medium,
            nodes,
            tracer: Tracer::new(),
            metrics,
            ctr,
            log: ExperimentLog::new(),
            mac: CsmaMac::new(),
            rng_mac: derive_all("net.mac"),
            rng_vm: derive_all("net.vm"),
            rng_env: derive_all("net.env"),
            base: NodeId(0),
            clock: SimTime::ZERO,
            agent_ids: SessionIdGen::new(),
            session_ids: SessionIdGen::new(),
            op_ids: SessionIdGen::new(),
            assembled: HashMap::new(),
            verified: HashSet::new(),
            tenancy: None,
            motion: MotionState::default(),
        };
        net.boot();
        net
    }

    /// The paper's testbed: 5×5 grid plus a base station, the calibrated
    /// MICA2 loss profile (BER + burst fading), and an ambient environment.
    pub fn testbed_5x5(config: AgillaConfig, seed: u64) -> Self {
        AgillaNetwork::new(
            Topology::grid_with_base(5, 5),
            Self::testbed_loss(),
            config,
            Environment::ambient(),
            seed,
        )
    }

    /// The calibrated testbed loss profile (MICA2 BER plus Gilbert-Elliott
    /// burst fading) behind [`AgillaNetwork::testbed_5x5`], exposed so the
    /// [`crate::testbed`] driver can rebuild the same substrate.
    pub fn testbed_loss() -> LossModel {
        let mut loss = LossModel::mica2_testbed();
        loss.bursts = Some(GilbertElliott::new(50.0, 0.55, 0.95));
        loss
    }

    /// A lossless variant of the testbed for functional tests and examples.
    pub fn reliable_5x5(config: AgillaConfig, seed: u64) -> Self {
        AgillaNetwork::new(
            Topology::grid_with_base(5, 5),
            LossModel::perfect(),
            config,
            Environment::ambient(),
            seed,
        )
    }

    fn boot(&mut self) {
        // Per-node state (acquaintances, capability tuples) was built with
        // the nodes themselves; all that remains is kicking off staggered
        // beacons, each jittered from its own node's MAC substream.
        let period = self.config.beacon_period.as_micros();
        for id in self.medium.topology().nodes() {
            let jitter = self.rng_mac[id.index()].range_u64(0, period);
            self.queue.schedule(
                SimTime::ZERO + SimDuration::from_micros(jitter),
                Event::Beacon { node: id },
            );
        }
    }

    // --- public API -------------------------------------------------------

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.max(self.queue.now())
    }

    /// Runs the simulation until `deadline` (events after it stay queued).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(next) = self.queue.peek_time() {
            if next > deadline {
                break;
            }
            let (at, ev) = self.queue.pop().expect("peeked event exists");
            self.dispatch(at, ev, deadline);
        }
        self.clock = self.clock.max(deadline);
    }

    /// Runs the simulation for `d` from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Assembles `source` and injects the agent at the base station.
    ///
    /// # Errors
    ///
    /// As [`AgillaNetwork::inject_source_as`], less the quota refusals.
    pub fn inject_source(&mut self, source: &str) -> Result<AgentId, AgillaError> {
        let code = self.assemble(source)?;
        self.inject_at_as(self.base, code, None)
    }

    /// Assembles `source` and injects at the node addressed by `loc`.
    ///
    /// # Errors
    ///
    /// As [`AgillaNetwork::inject_source`], plus unknown locations.
    pub fn inject_source_at(
        &mut self,
        loc: Location,
        source: &str,
    ) -> Result<AgentId, AgillaError> {
        let code = self.assemble(source)?;
        let node = self.mote_near(loc)?;
        self.inject_at_as(node, code, None)
    }

    /// Assembles `source` and injects the agent at the base station on
    /// behalf of an application registered with
    /// [`AgillaNetwork::register_app`].
    ///
    /// App-tagged injections are quota-checked: the app is charged one
    /// agent slot on the mote, refused with
    /// [`AdmissionReason::QuotaExceeded`] when its per-mote cap (or the
    /// app registration) is missing or full. When the mote itself is full,
    /// a higher-priority app may first preempt one resident agent of a
    /// strictly lower-priority app ([`OpRecord::AgentEvicted`]) before
    /// admission is retried.
    ///
    /// # Errors
    ///
    /// Assembly errors, admission failure (dead mote, no slot, quota), an
    /// over-budget program, or (with
    /// [`AgillaConfig::verify_on_inject`](crate::AgillaConfig::verify_on_inject))
    /// a program the static verifier cannot prove fault-free.
    pub fn inject_source_as(&mut self, source: &str, app: AppId) -> Result<AgentId, AgillaError> {
        let code = self.assemble(source)?;
        self.inject_at_as(self.base, code, Some(app))
    }

    /// Assembles `source` and injects at the node addressed by `loc` on
    /// behalf of a registered application.
    ///
    /// # Errors
    ///
    /// As [`AgillaNetwork::inject_source_as`], plus unknown locations.
    pub fn inject_source_at_as(
        &mut self,
        loc: Location,
        source: &str,
        app: AppId,
    ) -> Result<AgentId, AgillaError> {
        let code = self.assemble(source)?;
        let node = self.mote_near(loc)?;
        self.inject_at_as(node, code, Some(app))
    }

    /// The node addressed by `loc`, within the configured epsilon.
    fn mote_near(&self, loc: Location) -> Result<NodeId, AgillaError> {
        self.medium
            .topology()
            .node_near(loc, self.config.epsilon)
            .ok_or_else(|| AgillaError::UnknownLocation(loc.to_string()))
    }

    /// The bytecode of `source`, assembled on its first injection into this
    /// network. Assembly errors are not kept, so each failing arrival
    /// reports its own error.
    fn assemble(&mut self, source: &str) -> Result<Arc<[u8]>, AgillaError> {
        if let Some(code) = self.assembled.get(source) {
            return Ok(Arc::clone(code));
        }
        let code: Arc<[u8]> = asm::assemble(source)
            .map_err(|e| AgillaError::BadAgent(e.to_string()))?
            .into_code()
            .into();
        self.assembled.insert(source.to_owned(), Arc::clone(&code));
        Ok(code)
    }

    /// Injects bytecode as a new agent on `node`, on behalf of `app` when
    /// tagged (see [`AgillaNetwork::inject_source_as`]). A refused tagged
    /// arrival counts under `tenancy.<app>.rejected`.
    fn inject_at_as(
        &mut self,
        node: NodeId,
        code: Arc<[u8]>,
        app: Option<AppId>,
    ) -> Result<AgentId, AgillaError> {
        let result = self.inject_at_as_inner(node, code, app);
        if result.is_err() {
            if let Some(a) = app {
                self.metrics.incr(format!("tenancy.{a}.rejected"));
            }
        }
        result
    }

    /// Admission in its fixed order — dead mote, slot (with preemption),
    /// app charge, verifier — and only then an agent id, so a refused
    /// arrival consumes none.
    fn inject_at_as_inner(
        &mut self,
        node: NodeId,
        code: Arc<[u8]>,
        app: Option<AppId>,
    ) -> Result<AgentId, AgillaError> {
        let idx = node.index();
        if self.nodes[idx].dead {
            // A fault-injected or depleted mote admits nothing; without
            // this, the agent would be counted as injected yet never run
            // (dead nodes' engine events fall on the floor).
            return Err(AgillaError::Admission {
                reason: AdmissionReason::DeadMote,
            });
        }
        let now = self.now();
        if !self.nodes[idx].can_admit(code.len()) {
            // Priority preemption: before turning a registered app away,
            // try evicting one agent of a strictly lower-priority app.
            let victim = app.and_then(|a| {
                self.tenancy
                    .as_ref()?
                    .preempt_victim(a, &mut self.nodes[idx])
            });
            if let Some(v) = victim {
                self.depart(idx, v, Departure::Preempted, now);
            }
            if victim.is_none() || !self.nodes[idx].can_admit(code.len()) {
                return Err(AgillaError::Admission {
                    reason: AdmissionReason::NoSlots,
                });
            }
        }
        // With no app registered there is no ledger to charge: a tagged
        // arrival is refused like one from an unknown app.
        if let Some(a) = app {
            if !self.tenancy.as_mut().is_some_and(|t| t.charge_slot(a, idx)) {
                return Err(AgillaError::Admission {
                    reason: AdmissionReason::QuotaExceeded,
                });
            }
        }
        if self.config.verify_on_inject && !self.verified.contains(&*code) {
            if let Err(e) = agilla_analysis::verify(&code) {
                if let (Some(a), Some(t)) = (app, self.tenancy.as_mut()) {
                    t.refund_slot(a, idx);
                }
                return Err(e.into());
            }
            self.verified.insert(Arc::clone(&code));
        }
        let id = AgentId(self.agent_ids.allocate());
        let mut agent = AgentState::with_code_budget(id, code, CODE_BUDGET)
            .expect("can_admit bounds the code by CODE_BUDGET");
        if self.config.verify_on_inject {
            agent.mark_verified();
        }
        self.nodes[idx].admit(agent).expect("can_admit checked");
        if let (Some(a), Some(t)) = (app, self.tenancy.as_mut()) {
            t.adopt(id, a);
            self.metrics.incr(format!("tenancy.{a}.injected"));
        }
        self.log.push(OpRecord::AgentInjected {
            agent: id,
            node,
            at: now,
        });
        self.tracer
            .record_with(now, Some(node), "agent.inject", || format!("{id}"));
        // Historical behaviour: the first engine step lands at the queue's
        // internal clock (the last popped event), not the run deadline.
        let qnow = self.queue.now();
        self.schedule_engine(idx, qnow, SimDuration::ZERO);
        Ok(id)
    }

    /// Registers a multi-tenant application: its quota enters the ledger
    /// and its priority governs preemption. Until the first registration
    /// the network holds no tenancy state at all — untagged injections and
    /// all existing figures behave exactly as before, byte for byte.
    pub fn register_app(&mut self, profile: AppProfile) {
        let nodes = self.nodes.len();
        self.tenancy
            .get_or_insert_with(|| Box::new(Tenancy::new(nodes)))
            .register(profile);
    }

    /// The per-(app, mote) quota ledger, read-only; empty until an
    /// application registers.
    pub fn quota_ledger(&self) -> &QuotaLedger {
        static NO_APPS: QuotaLedger = QuotaLedger::new();
        self.tenancy.as_ref().map_or(&NO_APPS, |t| &t.ledger)
    }

    /// The base-station node (agents are injected here by default).
    pub fn base(&self) -> NodeId {
        self.base
    }

    /// The node addressed by `loc` (exact match).
    pub fn node_at(&self, loc: Location) -> Option<NodeId> {
        self.medium.topology().node_at(loc)
    }

    /// Immutable view of a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The node currently hosting `agent`, if any.
    pub fn find_agent(&self, agent: AgentId) -> Option<NodeId> {
        self.nodes
            .iter()
            .find(|n| n.slot_of(agent).is_some())
            .map(|n| n.id)
    }

    /// A read-only view of a resident agent's execution state (registers,
    /// stack, heap) — the debugging window the paper's base-station UI
    /// offered over RMI.
    pub fn agent_state(&self, agent: AgentId) -> Option<&AgentState> {
        self.nodes.iter().find_map(|n| {
            let slot = n.slot_of(agent)?;
            n.slots[slot].as_ref().map(|s| &s.agent)
        })
    }

    /// The scheduling status of a resident agent.
    pub fn agent_status(&self, agent: AgentId) -> Option<AgentStatus> {
        self.nodes.iter().find_map(|n| {
            let slot = n.slot_of(agent)?;
            n.slots[slot].as_ref().map(|s| s.status)
        })
    }

    /// The structured experiment log.
    pub fn log(&self) -> &ExperimentLog {
        &self.log
    }

    /// Clears the experiment log (between trials).
    pub fn clear_log(&mut self) {
        self.log.clear();
    }

    /// The diagnostic trace.
    pub fn trace(&self) -> &Tracer {
        &self.tracer
    }

    /// Enables or disables diagnostic trace capture (on by default; see
    /// [`Tracer::set_capture`]). The [`crate::testbed`] trial driver turns
    /// it off: figure measurements come from the experiment log and the
    /// metrics registry, and skipping per-record `format!` allocations is a
    /// measurable win in migration-heavy trials.
    pub fn set_trace_capture(&mut self, capture: bool) {
        self.tracer.set_capture(capture);
    }

    /// Metrics counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Moves the metrics registry out of the network (leaving an empty
    /// one), so a trial executor can fold per-trial metrics into a batch
    /// total without cloning the maps. The replacement registry re-runs
    /// the same counter registration sequence, so the network's
    /// pre-resolved [`CounterId`] handles stay valid.
    pub fn take_metrics(&mut self) -> Metrics {
        let mut fresh = Metrics::new();
        self.ctr = NetCounters::register(&mut fresh);
        std::mem::replace(&mut self.metrics, fresh)
    }

    /// The radio medium (frame statistics).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Total events dispatched since construction.
    pub fn events_dispatched(&self) -> u64 {
        self.queue.dispatched()
    }

    /// The middleware configuration.
    pub fn config(&self) -> &AgillaConfig {
        &self.config
    }

    /// The environment model.
    pub fn environment(&self) -> &Environment {
        &self.env
    }

    /// Replaces the environment (e.g. to ignite a fire mid-run).
    pub fn set_environment(&mut self, env: Environment) {
        self.env = env;
    }

    /// Fault injection: permanently fails a mote. Dead nodes stop executing
    /// agents, transmitting (including beacons), and receiving; their
    /// neighbors age them out of acquaintance lists after the beacon TTL,
    /// after which routing detours around the hole.
    pub fn kill_node(&mut self, node: NodeId) {
        let idx = node.index();
        if self.nodes[idx].dead {
            // Already dead (battery depletion, or a duplicate scheduled
            // kill): one mote must not produce two NodeDied records.
            return;
        }
        self.nodes[idx].dead = true;
        self.nodes[idx].tx_queue.clear();
        let now = self.now();
        self.log.push(OpRecord::NodeDied { node, at: now });
        self.tracer
            .record_with(now, Some(node), "node.dead", || "fault injected".into());
        self.metrics.bump(self.ctr.nodes_killed);
    }

    /// Fault injection: permanently severs the radio link between two
    /// motes in both directions (a wall goes up, an antenna breaks). Both
    /// motes stay up; frames between them stop arriving immediately, and
    /// the acquaintance lists age the pairing out after the beacon TTL.
    pub fn drop_link(&mut self, a: NodeId, b: NodeId) {
        self.medium.drop_link(a, b);
        let now = self.now();
        self.tracer
            .record_with(now, Some(a), "link.dropped", || format!("{a} -x- {b}"));
        self.metrics.incr("faults.links_dropped");
    }

    /// Fault healing: restores a link previously severed by
    /// [`AgillaNetwork::drop_link`] (the wall comes down, the antenna is
    /// repaired). The connectivity rule decides afresh whether the motes
    /// are in range; frames flow again immediately, and beacons rebuild
    /// the acquaintance pairing within one period.
    pub fn heal_link(&mut self, a: NodeId, b: NodeId) {
        self.medium.heal_link(a, b);
        let now = self.now();
        self.tracer
            .record_with(now, Some(a), "link.healed", || format!("{a} -=- {b}"));
        self.metrics.incr("faults.links_healed");
    }

    /// Installs a motion plan: each entry's node (addressed by its boot
    /// location) starts advancing along its motion model every
    /// [`MotionPlan::DEFAULT_TICK`], from now. Installing a static plan is
    /// a no-op — no events are scheduled and every pre-mobility timeline
    /// stays byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if an entry's origin addresses no node.
    pub fn set_motion(&mut self, plan: &MotionPlan) {
        if plan.is_static() {
            return;
        }
        let now = self.now();
        self.motion.paths = vec![None; self.nodes.len()];
        for (origin, motion) in &plan.entries {
            let node = self
                .medium
                .topology()
                .node_at(*origin)
                .unwrap_or_else(|| panic!("motion entry at {origin} addresses no node"));
            self.motion.paths[node.index()] = Some((*origin, motion.clone(), now));
            self.queue
                .schedule(now + MotionPlan::DEFAULT_TICK, Event::MotionTick { node });
        }
    }

    /// Advances one mobile mote: recompute its position as a pure function
    /// of elapsed time, update the radio topology (links form and sever by
    /// the connectivity rule; a distance ramp sees the new geometry on the
    /// next transmission), and re-arm the tick. Dead motes stop ticking —
    /// the dispatcher drops their events before this handler runs.
    fn handle_motion_tick(&mut self, idx: usize, now: SimTime) {
        let new_loc = {
            let Some((origin, motion, start)) = self.motion.paths[idx].as_ref() else {
                return;
            };
            motion.location_at(*origin, now.saturating_since(*start))
        };
        let node_id = self.nodes[idx].id;
        if new_loc != self.nodes[idx].loc {
            self.medium.move_node(node_id, new_loc);
            self.nodes[idx].loc = new_loc;
            // A crossing invalidates position-relative soft state: the
            // mover's acquaintance list says who was audible from the *old*
            // cell, and greedy routing through a stale entry unicasts frames
            // at motes no longer in range (a base station heard two cells
            // ago looks like the perfect first hop until the beacon TTL
            // fires — seconds of guaranteed timeouts per crossing). Replay
            // the boot-time seeding for the new cell, both directions.
            // Everyone else's memory of the mover's *old* address still ages
            // out on the TTL, so replies chasing a departed issuer stay
            // lossy — the mobility cost the crossing figures measure.
            self.nodes[idx].acq.forget_all();
            let nbs: Vec<NodeId> = self.medium.topology().neighbors(node_id);
            for nb in nbs {
                if self.nodes[nb.index()].dead {
                    continue;
                }
                let nb_loc = self.medium.topology().location(nb);
                self.nodes[idx].acq.heard(nb, nb_loc, now);
                self.nodes[nb.index()].acq.heard(node_id, new_loc, now);
            }
            self.metrics.incr("motion.moves");
            self.tracer
                .record_with(now, Some(node_id), "motion.move", || {
                    format!("-> {new_loc}")
                });
        }
        self.queue.schedule(
            now + MotionPlan::DEFAULT_TICK,
            Event::MotionTick { node: node_id },
        );
    }

    /// Fault injection: replaces the channel loss model mid-run — a
    /// scenario stepping the loss rate to model interference coming and
    /// going. Per-link burst channels restart under the new model.
    pub fn set_loss_model(&mut self, loss: LossModel) {
        self.medium.set_loss(loss);
        let now = self.now();
        self.tracer
            .record_with(now, None, "loss.stepped", || "loss model replaced".into());
        self.metrics.incr("faults.loss_steps");
    }

    /// Whether `node` has been failed by fault injection or battery death.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.nodes[node.index()].dead
    }

    /// Nodes still alive (not fault-injected, battery not depleted).
    pub fn alive_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    // --- energy -----------------------------------------------------------

    /// The battery meter of `node`, when energy accounting is enabled.
    pub fn energy_meter(&self, node: NodeId) -> Option<&EnergyMeter> {
        self.medium.energy().map(|l| l.meter(node))
    }

    /// Replaces `node`'s battery capacity — e.g. an effectively infinite
    /// battery for a mains-powered base station. No-op when accounting is
    /// off.
    pub fn set_battery(&mut self, node: NodeId, joules: f64) {
        if let Some(l) = self.medium.energy_mut() {
            l.meter_mut(node).set_capacity(joules);
        }
    }

    /// Brings every meter's idle baseline up to the current time and
    /// publishes the `energy.*` metrics: network-wide totals per power
    /// state (millijoules) plus one `energy.nodeNN.drained_mj` gauge per
    /// node. No-op when accounting is off.
    pub fn record_energy_metrics(&mut self) {
        let now = self.now();
        let Some(ledger) = self.medium.energy_mut() else {
            return;
        };
        ledger.advance_all(now);
        let totals = ledger.totals();
        let per_node: Vec<(u16, f64)> = (0..ledger.len())
            .map(|i| {
                let id = NodeId(i as u16);
                (id.0, ledger.meter(id).drained_j())
            })
            .collect();
        let mj = |j: f64| (j * 1e3).round() as u64;
        self.metrics.set("energy.total_mj", mj(totals.total()));
        for s in EnergyState::ALL {
            self.metrics
                .set(format!("energy.{}_mj", s.name()), mj(totals.state(s)));
        }
        for (id, j) in per_node {
            self.metrics
                .set(format!("energy.node{id:02}.drained_mj"), mj(j));
        }
    }

    /// Integrates `node`'s idle baseline up to `now` and, if that pushed
    /// the battery to zero, takes the node out of the network for good:
    /// stop computing and transmitting, drop out of the radio topology (so
    /// routing detours once neighbors age it out), and record the death.
    fn account_idle(&mut self, node: NodeId, now: SimTime) {
        let Some(ledger) = self.medium.energy_mut() else {
            return;
        };
        let meter = ledger.meter_mut(node);
        meter.advance(now);
        if meter.is_depleted() && !self.nodes[node.index()].dead {
            self.node_battery_died(node, now);
        }
    }

    /// Charges `us` microseconds of CPU-active time to `node`.
    fn charge_cpu(&mut self, node: NodeId, us: u64) {
        if let Some(ledger) = self.medium.energy_mut() {
            ledger
                .meter_mut(node)
                .charge(EnergyState::Cpu, SimDuration::from_micros(us));
        }
    }

    fn node_battery_died(&mut self, node: NodeId, now: SimTime) {
        let idx = node.index();
        self.nodes[idx].dead = true;
        self.nodes[idx].tx_queue.clear();
        self.medium.remove_node(node);
        self.log.push(OpRecord::NodeDied { node, at: now });
        self.tracer
            .record_with(now, Some(node), "node.dead", || "battery depleted".into());
        self.metrics.bump(self.ctr.energy_nodes_dead);
    }

    // --- event dispatch ---------------------------------------------------

    fn dispatch(&mut self, at: SimTime, ev: Event, deadline: SimTime) {
        // A frame fanout touches several receivers: each settles its own
        // idle-energy / battery-death bookkeeping in turn before handling
        // its copy, in the same deterministic order the per-receiver
        // events used to pop at this timestamp.
        if let Event::RxFanout { frame, outcomes } = ev {
            let energy = self.medium.energy().is_some();
            for (node, outcome) in outcomes {
                if energy {
                    self.account_idle(node, at);
                }
                if self.nodes[node.index()].dead {
                    continue;
                }
                self.handle_frame(node.index(), &frame, outcome, at);
            }
            return;
        }
        // Dead motes neither compute nor communicate; their queued timers
        // and frames fall on the floor.
        let owner = match &ev {
            Event::EngineInstr { node }
            | Event::TxReady { node }
            | Event::Beacon { node }
            | Event::AgentWake { node, .. }
            | Event::MigRetx { node, .. }
            | Event::MigAbort { node, .. }
            | Event::RemoteTimeout { node, .. }
            | Event::MotionTick { node } => *node,
            Event::RxFanout { .. } => unreachable!("handled above"),
        };
        // Energy accounting: the owner pays its idle baseline up to this
        // instant, and a battery that just hit zero kills the node before
        // the event runs (its queued timers and frames fall on the floor).
        if self.medium.energy().is_some() {
            self.account_idle(owner, at);
        }
        if self.nodes[owner.index()].dead {
            return;
        }
        match ev {
            Event::EngineInstr { node } => self.handle_engine_instr(node.index(), at, deadline),
            Event::TxReady { node } => self.handle_tx_ready(node.index(), at),
            Event::RxFanout { .. } => unreachable!("handled above"),
            Event::Beacon { node } => self.handle_beacon(node.index(), at),
            Event::AgentWake { node, slot } => self.handle_wake(node.index(), slot, at),
            Event::MigRetx { node, session } => self.handle_mig_retx(node.index(), session, at),
            Event::MigAbort { node, session } => self.handle_mig_abort(node.index(), session, at),
            Event::RemoteTimeout { node, op_id } => {
                self.handle_remote_timeout(node.index(), op_id, at)
            }
            Event::MotionTick { node } => self.handle_motion_tick(node.index(), at),
        }
    }

    // --- engine -----------------------------------------------------------

    /// Schedules the next engine step `delay` after `now` (the caller's
    /// current event time — every caller is inside a handler, so the
    /// timestamp is explicit rather than read back from the queue, which
    /// keeps inline instruction batching exact).
    fn schedule_engine(&mut self, idx: usize, now: SimTime, delay: SimDuration) {
        if self.nodes[idx].engine_scheduled || !self.nodes[idx].has_ready_agent() {
            return;
        }
        self.nodes[idx].engine_scheduled = true;
        let node = self.nodes[idx].id;
        self.queue
            .schedule(now + delay, Event::EngineInstr { node });
    }

    /// Runs engine steps on `idx` starting at `now`, batching consecutive
    /// steps inline for as long as doing so is provably equivalent to
    /// round-tripping each step through the event queue: the next step's
    /// time must not pass `deadline`, no queued event may fire at or
    /// before it (strictly — an equal-time event would pop first under the
    /// FIFO contract, since our continuation would carry a younger
    /// sequence number), and no handler may have queued an engine event
    /// mid-step (local migrations and tuple insertions do; the queued
    /// event then governs). The batch replicates the dispatcher's
    /// per-event energy bookkeeping, so byte-identical output holds with
    /// accounting on or off — while busy agents stop paying a queue
    /// round-trip per instruction.
    fn handle_engine_instr(&mut self, idx: usize, at: SimTime, deadline: SimTime) {
        let mut now = at;
        self.nodes[idx].engine_scheduled = false;
        loop {
            let EngineStep::Ran { cost } = self.engine_step(idx, now) else {
                return;
            };
            if self.nodes[idx].engine_scheduled {
                // A step side effect queued an engine event (same-time
                // wake-ups); the queued event governs from here.
                return;
            }
            let next = now + cost;
            let inline = next <= deadline && self.queue.peek_time().is_none_or(|t| t > next);
            if !inline {
                self.schedule_engine(idx, now, cost);
                return;
            }
            now = next;
            // What the dispatcher would have done when popping the event.
            if self.medium.energy().is_some() {
                let node = self.nodes[idx].id;
                self.account_idle(node, now);
                if self.nodes[idx].dead {
                    return;
                }
            }
        }
    }

    /// Executes one engine unit (a pending reaction delivery or one
    /// instruction) at time `now`, returning its CPU cost — or
    /// [`EngineStep::Idle`] when the engine goes quiet (no ready agent, or
    /// a reaction entry fault that kills the agent without rescheduling).
    fn engine_step(&mut self, idx: usize, now: SimTime) -> EngineStep {
        let Some(slot_idx) = self.nodes[idx].pick_ready(ENGINE_SLICE) else {
            return EngineStep::Idle;
        };

        // Deliver a pending reaction before the next instruction.
        let pending = {
            let slot = self.nodes[idx].slots[slot_idx]
                .as_mut()
                .expect("picked slot");
            slot.pending_reactions.pop_front()
        };
        if let Some((tuple, pc)) = pending {
            let node_id = self.nodes[idx].id;
            let slot = self.nodes[idx].slots[slot_idx]
                .as_mut()
                .expect("picked slot");
            return match exec::enter_reaction(&mut slot.agent, &tuple, pc) {
                Ok(()) => {
                    let agent_id = slot.agent.id();
                    self.tracer
                        .record_with(now, Some(node_id), "reaction.dispatch", || {
                            format!("{agent_id} -> pc {pc}")
                        });
                    self.charge_cpu(node_id, REACTION_DISPATCH_US);
                    EngineStep::Ran {
                        cost: SimDuration::from_micros(REACTION_DISPATCH_US),
                    }
                }
                Err(e) => {
                    self.depart(idx, slot_idx, Departure::Faulted(e), now);
                    EngineStep::Idle
                }
            };
        }

        // Execute exactly one instruction.
        let (op_cost, op_class, result, inserted, removed, sensed, owner) = {
            let AgillaNetwork {
                nodes,
                env,
                rng_vm,
                rng_env,
                tenancy,
                motion,
                ..
            } = self;
            let node = &mut nodes[idx];
            let Node {
                loc,
                acq,
                space,
                registry,
                slots,
                leds,
                ..
            } = node;
            let slot = slots[slot_idx].as_mut().expect("picked slot");
            let owner = slot.agent.id();
            // Tenancy: an app-owned agent sees its remaining per-mote byte
            // quota as extra back-pressure on `out` (indistinguishable, to
            // the agent, from a full arena).
            let byte_budget = tenancy.as_ref().and_then(|t| t.byte_budget(owner, idx));
            // One decode serves both the cost model and execution.
            let decoded = Instruction::decode(slot.agent.code(), slot.agent.pc());
            let (op_cost, op_class) = decoded
                .as_ref()
                .map(|(ins, _)| (ins.op.cost_us(), ins.op.energy_class()))
                .unwrap_or((60, EnergyClass::Cpu));
            let mut host = HostView {
                loc: *loc,
                now,
                space,
                registry,
                acq,
                leds,
                env,
                rng: &mut rng_vm[idx],
                rng_env: &mut rng_env[idx],
                owner,
                inserted: Vec::new(),
                removed: Vec::new(),
                sensed: Vec::new(),
                byte_budget,
                track_removals: tenancy.is_some(),
                motion,
                idx,
            };
            let result = match decoded {
                Ok((ins, len)) => exec::step_decoded(&mut slot.agent, &mut host, ins, len),
                Err(e) => Err(e),
            };
            slot.slice_used += 1;
            (
                op_cost,
                op_class,
                result,
                host.inserted,
                host.removed,
                host.sensed,
                owner,
            )
        };

        // Tenancy: settle the ledger for tuples this step inserted into or
        // removed from the local space (FIFO ownership attribution).
        if let Some(t) = self.tenancy.as_mut() {
            t.commit_tuples(owner, idx, &inserted, &removed);
        }

        // Energy: the instruction's execution time, attributed by its
        // energy class — `sense` keeps the CPU awake for the sensor board,
        // so its time lands in the Sensor state; everything else (including
        // the local slice of the radio ops, whose real cost is the frames
        // charged by the medium) is plain CPU. Each reading additionally
        // pays the board's ADC window.
        if self.medium.energy().is_some() {
            let node_id = self.nodes[idx].id;
            let op_state = match op_class {
                EnergyClass::Sensing => EnergyState::Sensor,
                EnergyClass::Cpu | EnergyClass::Radio => EnergyState::Cpu,
            };
            if let Some(ledger) = self.medium.energy_mut() {
                let meter = ledger.meter_mut(node_id);
                meter.charge(op_state, SimDuration::from_micros(op_cost));
                for s in &sensed {
                    let window = SimDuration::from_micros(s.sample_time_us());
                    meter.charge(EnergyState::Sensor, window);
                    meter.charge_current(EnergyState::Sensor, s.sample_current_ma(), window);
                }
            }
        }

        // Side effects of local tuple insertion (reactions, blocked wakeups).
        if !inserted.is_empty() {
            self.after_insertions(idx, inserted, now);
        }

        let cost = SimDuration::from_micros(op_cost);
        // Tenancy: charge the executed instruction against the app's
        // per-mote budget. The instruction's side effects stand (it ran);
        // an over-budget app's agent is killed before any migration,
        // remote session, or sleep timer it requested is set up.
        if self
            .tenancy
            .as_mut()
            .is_some_and(|t| !t.charge_instruction(owner, idx))
        {
            self.depart(idx, slot_idx, Departure::OverBudget, now);
            return EngineStep::Ran { cost };
        }
        match result {
            Ok(StepResult::Continue) => {}
            Ok(StepResult::Halted) => {
                self.depart(idx, slot_idx, Departure::Halted, now);
            }
            Ok(StepResult::Sleep { ticks }) => {
                // One tick is 1/8 s (Fig. 13's 4800 ticks = 10 minutes).
                let until = now + SimDuration::from_micros(u64::from(ticks) * 125_000);
                let node_id = self.nodes[idx].id;
                self.set_status(idx, slot_idx, AgentStatus::Sleeping { until });
                self.queue.schedule(
                    until,
                    Event::AgentWake {
                        node: node_id,
                        slot: slot_idx,
                    },
                );
            }
            Ok(StepResult::WaitForReaction) => {
                self.set_status(idx, slot_idx, AgentStatus::Waiting);
            }
            Ok(StepResult::Blocked) => {
                self.set_status(idx, slot_idx, AgentStatus::Blocked);
            }
            Ok(StepResult::Migrate { kind, dest }) => {
                self.start_migration(idx, slot_idx, kind, dest, now);
            }
            Ok(StepResult::Remote(op)) => {
                self.issue_remote(idx, slot_idx, op, now);
            }
            Err(e) => {
                self.depart(idx, slot_idx, Departure::Faulted(e), now);
            }
        }
        EngineStep::Ran { cost }
    }

    fn set_status(&mut self, idx: usize, slot_idx: usize, status: AgentStatus) {
        if let Some(slot) = self.nodes[idx].slots[slot_idx].as_mut() {
            slot.status = status;
        }
    }

    fn handle_wake(&mut self, idx: usize, slot_idx: usize, now: SimTime) {
        if let Some(slot) = self.nodes[idx].slots[slot_idx].as_mut() {
            // The deadline check makes stale timers harmless: if the slot's
            // sleeper was preempted and a *different* agent now sleeps here,
            // its own deadline is later and its own wake event is still
            // queued — this one must not rouse it early.
            if matches!(slot.status, AgentStatus::Sleeping { until } if until <= now) {
                slot.status = AgentStatus::Ready;
                self.schedule_engine(idx, now, SimDuration::ZERO);
            }
        }
    }

    /// Fires reactions and wakes blocked agents after tuples land in `idx`'s
    /// space.
    fn after_insertions(&mut self, idx: usize, tuples: Vec<Tuple>, now: SimTime) {
        let node_id = self.nodes[idx].id;
        for tuple in tuples {
            let fired: Vec<Reaction> = self.nodes[idx].registry.matching(&tuple);
            for r in fired {
                if let Some(slot_idx) = self.nodes[idx].slot_of(r.owner) {
                    let slot = self.nodes[idx].slots[slot_idx].as_mut().expect("slot_of");
                    slot.pending_reactions.push_back((tuple.clone(), r.pc));
                    if slot.status == AgentStatus::Waiting {
                        slot.status = AgentStatus::Ready;
                    }
                    self.tracer
                        .record_with(now, Some(node_id), "reaction.fire", || {
                            format!("{} on {tuple}", r.owner)
                        });
                }
            }
            // Blocking in/rd retry on any insertion.
            for slot in self.nodes[idx].slots.iter_mut().flatten() {
                if slot.status == AgentStatus::Blocked {
                    slot.status = AgentStatus::Ready;
                }
            }
        }
        self.schedule_engine(idx, now, SimDuration::ZERO);
    }

    /// Ends the stay of the agent in `slot_idx` for good: the slot is
    /// cleared in place, the agent's reactions are deregistered, its app
    /// releases the slot and forgets it, and the departure is logged and
    /// traced. The agent's tuples stay in the space (tuples outlive agents
    /// in Linda) and remain charged to its app until consumed.
    // Inlined into each caller, like the per-kind copies it replaces: every
    // link of Fig. 11's `wclone` chain ends in a halt, and as an out-of-line
    // call this cost `paper_testbed` trials/s (EXPERIMENTS.md, "One way in,
    // one way out").
    #[inline(always)]
    fn depart(&mut self, idx: usize, slot_idx: usize, why: Departure, now: SimTime) {
        let node = self.nodes[idx].id;
        let Some(agent) = self.nodes[idx].slots[slot_idx]
            .as_ref()
            .map(|s| s.agent.id())
        else {
            return;
        };
        self.nodes[idx].slots[slot_idx] = None;
        self.nodes[idx].registry.remove_all(agent);
        if let Some(app) = self.tenancy.as_mut().and_then(|t| t.depart(agent, idx)) {
            match why {
                Departure::Halted => {
                    self.metrics.incr(format!("tenancy.{app}.completed"));
                    // Per-app completion latency (injection to halt), for
                    // the fig_tenancy SLO table. Clones have no injection
                    // record and are skipped. Saturating: an injection
                    // during a Run step is stamped at the run deadline
                    // while its first engine step lands at the queue's
                    // (earlier) internal clock, so a trivial agent can halt
                    // marginally "before" its injection record.
                    if let Some(t0) = self.log.injected_at(agent) {
                        let ms = now.saturating_since(t0).as_micros() / 1000;
                        self.metrics
                            .observe_named(format!("tenancy.{app}.latency_ms"), ms);
                    }
                }
                Departure::Faulted(_) => {}
                Departure::OverBudget => self.metrics.incr(format!("tenancy.{app}.over_budget")),
                Departure::Preempted => self.metrics.incr(format!("tenancy.{app}.evicted")),
            }
        }
        let at = now;
        let (record, kind) = match why {
            Departure::Halted => (OpRecord::AgentHalted { agent, node, at }, "agent.halt"),
            Departure::Faulted(_) => (OpRecord::AgentFaulted { agent, node, at }, "agent.fault"),
            Departure::OverBudget => (
                OpRecord::AgentFaulted { agent, node, at },
                "agent.quota_kill",
            ),
            Departure::Preempted => (OpRecord::AgentEvicted { agent, node, at }, "agent.evict"),
        };
        self.log.push(record);
        self.tracer
            .record_with(now, Some(node), kind, || match why {
                Departure::Faulted(err) => format!("{agent}: {err}"),
                _ => format!("{agent}"),
            });
    }

    /// Admits `agent`, which already exists — a local clone, a failed
    /// migration resuming, an arrival — on `idx` together with its
    /// `reactions`, charging its app one slot. False when the mote or the
    /// app's per-mote cap has no room: the agent is then dropped for good.
    // Inlined for the same reason as `depart`: each `wclone` link runs one
    // local-clone re-admission.
    #[inline(always)]
    fn readmit(&mut self, idx: usize, mut agent: AgentState, reactions: Vec<Reaction>) -> bool {
        let room = self.nodes[idx].can_admit(agent.code().len());
        let id = agent.id();
        if !self
            .tenancy
            .as_mut()
            .map_or(room, |t| t.readmit(id, idx, room))
        {
            return false;
        }
        if self.config.verify_on_inject {
            // Migration never alters code, so the program is the one the
            // verifier accepted at injection; re-arm the runtime's
            // verified-jump assertions for it.
            agent.mark_verified();
        }
        self.nodes[idx].admit(agent);
        for r in reactions {
            let _ = self.nodes[idx].registry.register(r);
        }
        true
    }

    // --- radio / MAC ------------------------------------------------------

    /// The greedy geographic next hop from node `idx` toward `dest` over
    /// its live acquaintances (`None` at a local minimum). Single-hop
    /// decisions route here without collecting the list; failover plans
    /// still collect it for [`wsn_net::next_hop_candidates`].
    fn greedy_hop(&self, idx: usize, dest: Location, now: SimTime) -> Option<NodeId> {
        let node = &self.nodes[idx];
        wsn_net::next_hop(node.loc, node.acq.iter_live(now), dest)
    }

    fn enqueue_frame(&mut self, idx: usize, frame: Frame, now: SimTime, extra_delay: SimDuration) {
        self.nodes[idx].tx_queue.push_back(frame);
        if !self.nodes[idx].tx_scheduled {
            self.nodes[idx].tx_scheduled = true;
            self.nodes[idx].tx_attempt = 0;
            let delay = extra_delay
                + self.mac.tx_processing()
                + self.mac.initial_backoff(&mut self.rng_mac[idx]);
            let node = self.nodes[idx].id;
            self.queue.schedule(now + delay, Event::TxReady { node });
        }
    }

    /// One CC1000 clear-channel assessment: radio start-up + RSSI settle.
    const CCA_SAMPLE: SimDuration = SimDuration::from_micros(350);

    fn handle_tx_ready(&mut self, idx: usize, now: SimTime) {
        let node_id = self.nodes[idx].id;
        if self.nodes[idx].tx_queue.is_empty() {
            self.nodes[idx].tx_scheduled = false;
            return;
        }
        // Carrier sense keeps the radio on for one CCA sample, whether or
        // not the channel turns out busy.
        if let Some(ledger) = self.medium.energy_mut() {
            ledger
                .meter_mut(node_id)
                .charge(EnergyState::Listen, Self::CCA_SAMPLE);
        }
        if self.medium.channel_busy(now, node_id) {
            self.nodes[idx].tx_attempt += 1;
            let attempt = self.nodes[idx].tx_attempt;
            let delay = self.mac.congestion_backoff(&mut self.rng_mac[idx], attempt);
            self.queue
                .schedule(now + delay, Event::TxReady { node: node_id });
            return;
        }
        let frame = self.nodes[idx]
            .tx_queue
            .pop_front()
            .expect("non-empty queue");
        self.nodes[idx].tx_attempt = 0;
        let air = self.medium.effective_air_time(&frame);
        self.metrics.bump(self.ctr.frames_sent);
        let batch = self.medium.transmit(now, &frame);
        for (_, outcome) in &batch.outcomes {
            if *outcome != DeliveryOutcome::Delivered {
                self.metrics.bump(self.ctr.frames_lost);
            }
        }
        if !batch.outcomes.is_empty() {
            self.queue.schedule(
                batch.arrive_at + self.mac.rx_processing(),
                Event::RxFanout {
                    frame,
                    outcomes: batch.outcomes,
                },
            );
        }
        if self.nodes[idx].tx_queue.is_empty() {
            self.nodes[idx].tx_scheduled = false;
        } else {
            let delay = air + TX_TURNAROUND + self.mac.initial_backoff(&mut self.rng_mac[idx]);
            self.queue
                .schedule(now + delay, Event::TxReady { node: node_id });
        }
    }

    fn handle_beacon(&mut self, idx: usize, now: SimTime) {
        let node_id = self.nodes[idx].id;
        let loc = self.nodes[idx].loc;
        self.metrics.bump(self.ctr.beacons);
        let msg = wire::message(am::BEACON, encode_beacon(loc));
        self.enqueue_frame(
            idx,
            Frame::broadcast(node_id, msg.encode()),
            now,
            SimDuration::ZERO,
        );
        let jitter = self.rng_mac[idx].range_u64(0, 100_000);
        self.queue.schedule(
            now + self.config.beacon_period + SimDuration::from_micros(jitter),
            Event::Beacon { node: node_id },
        );
    }

    fn handle_frame(&mut self, idx: usize, frame: &Frame, outcome: DeliveryOutcome, now: SimTime) {
        if outcome != DeliveryOutcome::Delivered {
            return;
        }
        let me = self.nodes[idx].id;
        if !frame.accepts(me) {
            return;
        }
        let Some((am_type, payload)) = ActiveMessage::decode_ref(&frame.payload) else {
            return;
        };
        match am_type {
            t if t == am::BEACON => {
                if let Some(loc) = decode_beacon(payload) {
                    self.nodes[idx].acq.heard(frame.src, loc, now);
                }
            }
            t if t == am::MIG_HDR => {
                if let Some(h) = MigHeader::decode(payload) {
                    self.handle_mig_header(idx, frame.src, None, h, now);
                }
            }
            t if t == am::MIG_DATA => {
                if let Some(d) = MigData::decode(payload) {
                    self.handle_mig_data(idx, frame.src, d, now);
                }
            }
            t if t == am::MIG_E2E => {
                if let Some(env) = Envelope::decode(payload) {
                    self.handle_envelope(idx, frame.src, env, now);
                }
            }
            t if t == am::MIG_ACK => {
                if let Some(a) = MigAck::decode(payload) {
                    self.handle_mig_ack(idx, Some(frame.src), a, now);
                }
            }
            t if t == am::MIG_NACK => {
                if let Some(n) = MigNack::decode(payload) {
                    self.handle_mig_nack(idx, Some(frame.src), n.session, now);
                }
            }
            t if t == am::RTS_REQ => {
                if let Some(r) = RtsRequest::decode(payload) {
                    self.handle_rts_request(idx, r, now);
                }
            }
            t if t == am::RTS_REP => {
                if let Some(r) = RtsReply::decode(payload) {
                    self.handle_rts_reply(idx, r, now);
                }
            }
            _ => {}
        }
    }
}

/// The [`Host`] implementation backing one instruction step: disjoint
/// borrows of the node's managers plus the network-level environment.
struct HostView<'a> {
    loc: Location,
    now: SimTime,
    space: &'a mut agilla_tuplespace::TupleSpace,
    registry: &'a mut agilla_tuplespace::ReactionRegistry,
    acq: &'a wsn_net::AcquaintanceList,
    leds: &'a mut i16,
    env: &'a Environment,
    rng: &'a mut RngStream,
    rng_env: &'a mut RngStream,
    owner: AgentId,
    /// Tuples inserted during this step (reaction firing happens after the
    /// step, once the agent borrow is released).
    inserted: Vec<Tuple>,
    /// Tuples removed during this step, for quota crediting (only tracked
    /// when tenancy is active).
    removed: Vec<Tuple>,
    /// Sensor readings taken during this step, for energy accounting (the
    /// ADC window is charged after the step, like insertions).
    sensed: Vec<SensorType>,
    /// Remaining tuple-space bytes the owning app may store on this mote
    /// (`None`: owner untenanted or tenancy inactive — no extra limit).
    byte_budget: Option<u32>,
    /// Whether removals need recording for the quota ledger.
    track_removals: bool,
    /// The network's motion models, read by the navigation sensors.
    motion: &'a MotionState,
    /// This mote's index into `motion`.
    idx: usize,
}

impl Host for HostView<'_> {
    fn location(&self) -> Location {
        self.loc
    }

    fn random(&mut self) -> i16 {
        self.rng.next_u64() as i16
    }

    fn sense(&mut self, sensor: SensorType) -> Option<i16> {
        self.sensed.push(sensor);
        // Navigation "sensors" read the host's motion model, not the
        // environment: heading in whole degrees CCW from +x, speed in
        // hundredths of a grid unit per second. A static mote reads as
        // sensor-absent, exactly like a board without the hardware.
        match sensor {
            SensorType::Heading => self.motion.nav(self.idx, self.now).map(|(h, _)| h),
            SensorType::Speed => self.motion.nav(self.idx, self.now).map(|(_, s)| s),
            _ => self.env.sample(sensor, self.loc, self.now, self.rng_env),
        }
    }

    fn set_leds(&mut self, v: i16) {
        *self.leds = v;
    }

    fn num_neighbors(&self) -> usize {
        self.acq.len(self.now)
    }

    fn neighbor(&self, index: usize) -> Option<Location> {
        self.acq.get(index, self.now)
    }

    fn random_neighbor(&mut self) -> Option<Location> {
        self.acq.random(self.rng, self.now)
    }

    fn ts_out(&mut self, tuple: Tuple) -> Result<(), TupleSpaceError> {
        if let Some(budget) = self.byte_budget {
            let needed = tuple.encoded_len();
            if needed > budget as usize {
                // App quota exhaustion presents to the agent exactly like
                // a full arena: same error, same block-and-retry path.
                return Err(TupleSpaceError::SpaceFull {
                    needed,
                    available: budget as usize,
                });
            }
        }
        self.space.out(tuple.clone())?;
        if let Some(b) = &mut self.byte_budget {
            *b = b.saturating_sub(tuple.encoded_len() as u32);
        }
        self.inserted.push(tuple);
        Ok(())
    }

    fn ts_inp(&mut self, template: &Template) -> Option<Tuple> {
        let found = self.space.inp(template);
        if self.track_removals {
            if let Some(t) = &found {
                self.removed.push(t.clone());
            }
        }
        found
    }

    fn ts_rdp(&mut self, template: &Template) -> Option<Tuple> {
        self.space.rdp(template)
    }

    fn ts_count(&mut self, template: &Template) -> usize {
        self.space.count(template)
    }

    fn register_reaction(
        &mut self,
        owner: AgentId,
        template: Template,
        pc: u16,
    ) -> Result<(), TupleSpaceError> {
        debug_assert_eq!(owner, self.owner);
        self.registry
            .register(Reaction::new(owner, template, pc))
            .map(|_| ())
    }

    fn deregister_reaction(&mut self, owner: AgentId, template: &Template) -> bool {
        self.registry.deregister(owner, template).is_some()
    }
}
