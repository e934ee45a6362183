//! One entry point for constructing and driving evaluation trials.
//!
//! Every figure of the paper's evaluation is some number of *independent,
//! seeded, run-to-completion* trials: build a network, inject one or two
//! agents, advance virtual time, read the experiment log. Before this
//! module each figure binary carried its own copy of that loop; now they
//! all describe trials as data — a [`ScenarioSpec`] minted by a
//! [`Testbed`], compiled to a [`TrialSpec`] step script — and execute them
//! with [`TrialSpec::execute`].
//!
//! A spec is `Clone + Send + Sync` and a trial's outcome is a pure function
//! of its spec, so an executor is free to run specs in any order on any
//! thread — `agilla-bench`'s `TrialExecutor::sweep` fans them across
//! worker threads and hands each figure its results in trial order,
//! byte-identical to the serial path.
//!
//! Trials run with diagnostic trace capture off: measurements come from the
//! experiment log and the metrics registry, and skipping per-record trace
//! formatting is a measurable win in migration-heavy workloads.
//!
//! # Examples
//!
//! ```
//! use agilla::scenario::OneShot;
//! use agilla::testbed::Testbed;
//! use agilla::{workload, AgillaConfig};
//! use wsn_common::Location;
//! use wsn_sim::SimDuration;
//!
//! let bed = Testbed::reliable_5x5(AgillaConfig::default(), 42);
//! let spec = bed
//!     .scenario(7)
//!     .traffic(OneShot::at_base(workload::rout_test_agent(Location::new(1, 1))))
//!     .horizon(SimDuration::from_secs(5));
//! let trial = spec.execute();
//! assert_eq!(trial.agents.len(), 1);
//! assert!(trial.net.log().remote_ops_of(trial.agents[0]).len() <= 1);
//! ```

use std::sync::Arc;

use agilla_tenancy::{AppId, AppProfile};
use wsn_common::{AgentId, Location};
use wsn_radio::{LossModel, MotionPlan, Topology};
use wsn_sim::{SimDuration, SimTime};

use crate::config::AgillaConfig;
use crate::env::Environment;
use crate::error::{AdmissionReason, AgillaError};
use crate::network::AgillaNetwork;
use crate::scenario::{ClosedLoop, InjectionSite, ScenarioSpec};

/// The radio substrate a trial runs on.
#[derive(Debug, Clone)]
pub enum TopologySpec {
    /// The paper's testbed: 5×5 grid plus base station over the calibrated
    /// lossy MICA2 link profile ([`AgillaNetwork::testbed_5x5`]).
    Lossy5x5,
    /// The same grid with lossless links (latency and energy measurements).
    Reliable5x5,
    /// A lossless line of `n` motes (quiet-link micro-measurements).
    ReliableLine(i16),
    /// Any other substrate. The topology is shared: every scenario and
    /// trial spec cloned from this one points at the same `Topology` (which
    /// carries its whole `CellGrid`), and only building a network copies
    /// it, because the network's radio medium mutates its own.
    Custom {
        /// Node placement and connectivity.
        topology: Arc<Topology>,
        /// Link loss model.
        loss: LossModel,
    },
}

impl TopologySpec {
    /// A [`TopologySpec::Custom`] from any topology and loss model.
    pub fn custom(topology: Topology, loss: LossModel) -> Self {
        TopologySpec::Custom {
            topology: Arc::new(topology),
            loss,
        }
    }
}

/// One scripted step of a trial.
#[derive(Debug, Clone)]
pub enum TrialStep {
    /// Assemble `source` and inject the agent at the base station
    /// (`at == None`) or at the node addressed by a location.
    Inject {
        /// Where to inject; the base station when `None`.
        at: Option<Location>,
        /// Agilla assembly source.
        source: String,
    },
    /// Like [`TrialStep::Inject`], but an admission refusal (no free agent
    /// slot or code block) is an *outcome*, counted in [`Trial::rejected`],
    /// not a harness bug. Open-loop scenario traffic
    /// ([`crate::scenario::TrafficGen`]) compiles to this step: under load
    /// the network is allowed to turn arrivals away.
    TryInject {
        /// Where to inject; the base station when `None`.
        at: Option<Location>,
        /// Agilla assembly source.
        source: String,
    },
    /// Register a tenant application with the network before its arrivals
    /// ([`AgillaNetwork::register_app`]). Compiled from
    /// [`crate::scenario::TenantApp`] entries.
    RegisterApp(AppProfile),
    /// Like [`TrialStep::TryInject`], but the arrival runs on behalf of a
    /// registered application: quota-checked, priority-preempting, refusals
    /// counted per reason in [`Trial::rejected`].
    TryInjectAs {
        /// Where to inject; the base station when `None`.
        at: Option<Location>,
        /// Agilla assembly source.
        source: String,
        /// The owning application.
        app: AppId,
    },
    /// Advance the simulation.
    Run(SimDuration),
    /// Clear the experiment log (separating setup from measurement).
    ClearLog,
    /// Apply a mid-run fault-injection perturbation
    /// ([`crate::scenario::Perturbation`]).
    Perturb(crate::scenario::Perturbation),
}

/// A self-contained recipe for one deterministic trial: substrate, config,
/// environment, seed, and the scripted steps to run to completion.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    /// Radio substrate.
    pub topology: TopologySpec,
    /// Middleware configuration.
    pub config: AgillaConfig,
    /// Sensing environment.
    pub env: Environment,
    /// Seed for every random stream in the trial.
    pub seed: u64,
    /// Steps executed in order by [`TrialSpec::execute`].
    pub steps: Vec<TrialStep>,
    /// Per-node motion: installed by [`TrialSpec::build`] before any step
    /// runs. An empty (all-static) plan installs nothing — the network is
    /// bit-for-bit the one a motion-free spec builds.
    pub motion: MotionPlan,
    /// Closed-loop clients driven *during* `Run` steps: each keeps exactly
    /// one agent outstanding, re-issuing a think time after the previous
    /// one finishes ([`crate::stats::ExperimentLog::finished_at`]).
    pub clients: Vec<ClosedLoop>,
}

impl TrialSpec {
    /// Constructs the network without running any steps — for scenarios
    /// that need custom driving (stepped sampling, early exit on a
    /// predicate) on top of the standard substrate.
    pub fn build(&self) -> AgillaNetwork {
        let mut net = match &self.topology {
            TopologySpec::Lossy5x5 => AgillaNetwork::new(
                Topology::grid_with_base(5, 5),
                AgillaNetwork::testbed_loss(),
                self.config.clone(),
                self.env.clone(),
                self.seed,
            ),
            TopologySpec::Reliable5x5 => AgillaNetwork::new(
                Topology::grid_with_base(5, 5),
                LossModel::perfect(),
                self.config.clone(),
                self.env.clone(),
                self.seed,
            ),
            TopologySpec::ReliableLine(n) => AgillaNetwork::new(
                Topology::line(*n),
                LossModel::perfect(),
                self.config.clone(),
                self.env.clone(),
                self.seed,
            ),
            TopologySpec::Custom { topology, loss } => AgillaNetwork::new(
                (**topology).clone(),
                loss.clone(),
                self.config.clone(),
                self.env.clone(),
                self.seed,
            ),
        };
        net.set_trace_capture(false);
        net.set_motion(&self.motion);
        net
    }

    /// Builds the network and runs every step to completion.
    ///
    /// # Panics
    ///
    /// Panics if an `Inject` step fails to assemble or be admitted, if a
    /// `TryInject` step or closed-loop client source fails to assemble, or
    /// if a perturbation addresses a location with no node — trial scripts
    /// are fixed, vetted workloads, so those failures are harness bugs, not
    /// experimental outcomes. (A `TryInject` or client *admission or
    /// verification* refusal is an outcome; see [`Trial::rejected`].)
    pub fn execute(&self) -> Trial {
        let mut net = self.build();
        let mut agents = Vec::new();
        let mut rejected = Rejections::default();
        let mut clients: Vec<ClientState> = self
            .clients
            .iter()
            .map(|c| ClientState {
                spec: c.clone(),
                issued: 0,
                outstanding: None,
                ready_at: SimTime::ZERO + c.start,
            })
            .collect();
        for step in &self.steps {
            match step {
                TrialStep::Inject { at: None, source } => {
                    agents.push(net.inject_source(source).expect("trial agent injects"));
                }
                TrialStep::Inject {
                    at: Some(loc),
                    source,
                } => {
                    agents.push(
                        net.inject_source_at(*loc, source)
                            .expect("trial agent injects"),
                    );
                }
                TrialStep::TryInject { at, source } => {
                    let outcome = match at {
                        None => net.inject_source(source),
                        Some(loc) => net.inject_source_at(*loc, source),
                    };
                    match outcome {
                        Ok(id) => agents.push(id),
                        Err(e) => {
                            if !rejected.absorb(&e) {
                                panic!("scenario arrival failed to assemble: {e}");
                            }
                        }
                    }
                }
                TrialStep::RegisterApp(profile) => net.register_app(profile.clone()),
                TrialStep::TryInjectAs { at, source, app } => {
                    let outcome = match at {
                        None => net.inject_source_as(source, *app),
                        Some(loc) => net.inject_source_at_as(*loc, source, *app),
                    };
                    match outcome {
                        Ok(id) => agents.push(id),
                        Err(e) => {
                            if !rejected.absorb(&e) {
                                panic!("scenario arrival failed to assemble: {e}");
                            }
                        }
                    }
                }
                TrialStep::Run(d) => {
                    run_with_clients(&mut net, *d, &mut clients, &mut agents, &mut rejected);
                }
                TrialStep::ClearLog => net.clear_log(),
                TrialStep::Perturb(p) => p.apply(&mut net),
            }
        }
        Trial {
            net,
            agents,
            rejected,
        }
    }
}

/// Live state of one closed-loop client during [`TrialSpec::execute`].
#[derive(Debug)]
struct ClientState {
    spec: ClosedLoop,
    issued: u32,
    outstanding: Option<AgentId>,
    ready_at: SimTime,
}

/// Advances the simulation by `d`. With no clients this is exactly
/// `net.run_for(d)` — the pre-mobility execution path, bit for bit. With
/// clients, time advances in 50 ms polling quanta: at each boundary every
/// client checks its outstanding agent against the experiment log and
/// re-issues once the think time after completion has elapsed.
fn run_with_clients(
    net: &mut AgillaNetwork,
    d: SimDuration,
    clients: &mut [ClientState],
    agents: &mut Vec<AgentId>,
    rejected: &mut Rejections,
) {
    if clients.is_empty() {
        net.run_for(d);
        return;
    }
    let quantum = SimDuration::from_millis(50);
    let end = net.now() + d;
    loop {
        poll_clients(net, clients, agents, rejected);
        let now = net.now();
        if now >= end {
            break;
        }
        let remaining = SimDuration::from_micros(end.as_micros() - now.as_micros());
        net.run_for(if remaining < quantum {
            remaining
        } else {
            quantum
        });
    }
}

/// One closed-loop poll: observe completions, issue where due. A refusal
/// (admission, quota, verifier) counts as an issue and schedules the next
/// attempt one think time later — a closed-loop client never hammers.
fn poll_clients(
    net: &mut AgillaNetwork,
    clients: &mut [ClientState],
    agents: &mut Vec<AgentId>,
    rejected: &mut Rejections,
) {
    let now = net.now();
    for c in clients.iter_mut() {
        if let Some(agent) = c.outstanding {
            if net.log().finished_at(agent).is_some() {
                c.outstanding = None;
                c.ready_at = now + c.spec.think;
            }
        }
        if c.outstanding.is_none() && c.issued < c.spec.max_issues && now >= c.ready_at {
            let outcome = match c.spec.site {
                InjectionSite::Base => net.inject_source(&c.spec.source),
                InjectionSite::At(loc) => net.inject_source_at(loc, &c.spec.source),
            };
            c.issued += 1;
            match outcome {
                Ok(id) => {
                    agents.push(id);
                    c.outstanding = Some(id);
                }
                Err(e) => {
                    if !rejected.absorb(&e) {
                        panic!("closed-loop client agent failed to assemble: {e}");
                    }
                    c.ready_at = now + c.spec.think;
                }
            }
        }
    }
}

/// Refused `TryInject`/`TryInjectAs` arrivals, broken out by reason.
///
/// The aggregate [`Rejections::total`] is the historical `Trial::rejected`
/// column; figures that printed it keep printing the same number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rejections {
    /// Admission refusals: no free agent slot or code blocks.
    pub no_slots: u32,
    /// The static verifier rejected the agent's bytecode.
    pub unverifiable: u32,
    /// The owning application's per-mote quota refused the agent.
    pub quota: u32,
    /// The target mote was dead.
    pub dead_mote: u32,
}

impl Rejections {
    /// Total refusals across every reason.
    pub fn total(&self) -> u32 {
        self.no_slots + self.unverifiable + self.quota + self.dead_mote
    }

    /// Counts `e` if it is a refusal outcome (admission or verification);
    /// false means the error is a harness bug the caller must surface.
    fn absorb(&mut self, e: &AgillaError) -> bool {
        match e {
            AgillaError::Admission { reason } => {
                match reason {
                    AdmissionReason::NoSlots => self.no_slots += 1,
                    AdmissionReason::QuotaExceeded => self.quota += 1,
                    AdmissionReason::DeadMote => self.dead_mote += 1,
                }
                true
            }
            AgillaError::Unverifiable { .. } => {
                self.unverifiable += 1;
                true
            }
            _ => false,
        }
    }
}

/// A finished (or custom-drivable) trial: the network plus the agents the
/// scripted steps injected, in injection order.
#[derive(Debug)]
pub struct Trial {
    /// The network after all scripted steps ran.
    pub net: AgillaNetwork,
    /// Agent ids from `Inject`/`TryInject` steps that were admitted, in
    /// order.
    pub agents: Vec<AgentId>,
    /// `TryInject`/`TryInjectAs` arrivals the network refused, broken out
    /// by reason (the open-loop load-shedding count plus verifier and
    /// quota refusals).
    pub rejected: Rejections,
}

impl Trial {
    /// The id from the `i`-th `Inject` step.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `i + 1` injections ran.
    pub fn agent(&self, i: usize) -> AgentId {
        self.agents[i]
    }
}

/// A family of trials sharing a substrate, a configuration, and a base
/// seed — one per figure, typically. Individual trials derive their seed
/// by mixing a per-trial value into the base seed, reproducing the
/// figure binaries' historical seed derivations exactly.
#[derive(Debug, Clone)]
pub struct Testbed {
    topology: TopologySpec,
    config: AgillaConfig,
    base_seed: u64,
}

impl Testbed {
    /// A testbed over an explicit substrate.
    pub fn new(topology: TopologySpec, config: AgillaConfig, base_seed: u64) -> Self {
        Testbed {
            topology,
            config,
            base_seed,
        }
    }

    /// The paper's lossy 5×5 testbed.
    pub fn lossy_5x5(config: AgillaConfig, base_seed: u64) -> Self {
        Testbed::new(TopologySpec::Lossy5x5, config, base_seed)
    }

    /// The lossless 5×5 testbed.
    pub fn reliable_5x5(config: AgillaConfig, base_seed: u64) -> Self {
        Testbed::new(TopologySpec::Reliable5x5, config, base_seed)
    }

    /// A lossless line of `n` motes.
    pub fn line(n: i16, config: AgillaConfig, base_seed: u64) -> Self {
        Testbed::new(TopologySpec::ReliableLine(n), config, base_seed)
    }

    /// The shared middleware configuration.
    pub fn config(&self) -> &AgillaConfig {
        &self.config
    }

    /// Mints an empty [`ScenarioSpec`] with seed `base_seed ^ seed_mix`.
    pub fn scenario(&self, seed_mix: u64) -> ScenarioSpec {
        ScenarioSpec {
            topology: self.topology.clone(),
            config: self.config.clone(),
            env: Environment::ambient(),
            seed: self.base_seed ^ seed_mix,
            horizon: SimDuration::ZERO,
            traffic: Vec::new(),
            apps: Vec::new(),
            app_alloc: None,
            events: Vec::new(),
            motion: MotionPlan::new(),
            clients: Vec::new(),
            measure_from: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::OneShot;
    use crate::workload;

    #[test]
    fn spec_execution_matches_hand_built_network() {
        let config = AgillaConfig::default();
        let seed = 0xBEEF;
        let src = workload::rout_test_agent(Location::new(2, 1));

        let mut hand = AgillaNetwork::testbed_5x5(config.clone(), seed);
        let hand_id = hand.inject_source(&src).unwrap();
        hand.run_for(SimDuration::from_secs(10));

        let trial = Testbed::lossy_5x5(config, seed)
            .scenario(0)
            .traffic(OneShot::at_base(&src))
            .horizon(SimDuration::from_secs(10))
            .execute();

        assert_eq!(trial.agent(0), hand_id);
        assert_eq!(trial.net.now(), hand.now());
        assert_eq!(
            trial.net.medium().frames_sent(),
            hand.medium().frames_sent()
        );
        assert_eq!(trial.net.log().records(), hand.log().records());
        let snapshot = |m: &wsn_sim::Metrics| {
            m.counters()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(snapshot(trial.net.metrics()), snapshot(hand.metrics()));
    }

    #[test]
    fn specs_are_pure_same_spec_same_outcome() {
        let spec = Testbed::lossy_5x5(AgillaConfig::default(), 7)
            .scenario(99)
            .traffic(OneShot::at_base(workload::SMOVE_TEST_AGENT))
            .horizon(SimDuration::from_secs(8));
        let a = spec.clone().execute();
        let b = spec.execute();
        assert_eq!(a.net.log().records(), b.net.log().records());
        assert_eq!(a.net.medium().frames_sent(), b.net.medium().frames_sent());
    }

    #[test]
    fn clear_log_separates_setup_from_measurement() {
        let target = Location::new(1, 1);
        let setup = SimDuration::from_secs(1);
        let trial = Testbed::reliable_5x5(AgillaConfig::default(), 3)
            .scenario(0)
            .traffic(OneShot::at(target, "pushc 1\npushc 1\nout\nhalt"))
            .traffic(OneShot::at_base(workload::rout_test_agent(target)).delayed(setup))
            .measure_from(setup)
            .horizon(SimDuration::from_secs(6))
            .execute();
        // Setup activity is gone; only the measured agent's records remain.
        assert!(trial
            .net
            .log()
            .injected_at(trial.agent(0))
            .is_none_or(|t| t > SimTime::ZERO));
        assert!(trial.net.log().injected_at(trial.agent(1)).is_some());
    }

    #[test]
    fn rejections_classify_and_sum() {
        let mut r = Rejections::default();
        assert!(r.absorb(&AgillaError::Admission {
            reason: AdmissionReason::NoSlots
        }));
        assert!(r.absorb(&AgillaError::Admission {
            reason: AdmissionReason::DeadMote
        }));
        assert!(r.absorb(&AgillaError::Admission {
            reason: AdmissionReason::QuotaExceeded
        }));
        assert!(r.absorb(&AgillaError::Unverifiable {
            pc: 0,
            reason: "x".into()
        }));
        assert!(!r.absorb(&AgillaError::BadAgent("y".into())));
        assert_eq!(
            (r.no_slots, r.unverifiable, r.quota, r.dead_mote),
            (1, 1, 1, 1)
        );
        assert_eq!(r.total(), 4);
    }

    #[test]
    fn trials_run_with_trace_capture_off() {
        let config = AgillaConfig::default();
        let seed = 0x7ACE;
        for src in [workload::SMOVE_TEST_AGENT, workload::ROUT_TEST_AGENT] {
            let trial = Testbed::lossy_5x5(config.clone(), seed)
                .scenario(0)
                .traffic(crate::scenario::OneShot::at_base(src))
                .horizon(SimDuration::from_secs(10))
                .compile()
                .execute();
            assert_eq!(trial.agents.len(), 1);
            assert!(trial.net.trace().is_empty(), "{src}");
            assert_eq!(trial.net.trace().dropped(), 0, "{src}");

            // The same substrate built by hand keeps the default capture.
            let mut hand = AgillaNetwork::testbed_5x5(config.clone(), seed);
            hand.inject_source(src).unwrap();
            hand.run_for(SimDuration::from_secs(10));
            assert!(!hand.trace().is_empty(), "{src}");
        }
    }

    #[test]
    fn line_topology_builds_quiet_two_node_link() {
        let trial = Testbed::line(2, AgillaConfig::default(), 5)
            .scenario(1)
            .horizon(SimDuration::from_secs(1))
            .execute();
        assert_eq!(trial.net.medium().topology().len(), 2);
        assert!(trial.agents.is_empty());
    }
}
