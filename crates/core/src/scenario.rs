//! Declarative experiment scenarios: traffic generators, scheduled
//! perturbations, and the [`ScenarioSpec`] that ties them together.
//!
//! The paper evaluates Agilla with a handful of hand-rolled workloads —
//! one agent injected at t = 0, run to completion, read the log. The
//! [`crate::testbed`] driver made that *shape* data; this module makes the
//! *workload* data too:
//!
//! * a [`TrafficGen`] describes **when and where agents arrive** — one
//!   shot, periodic, Poisson arrivals, or a weighted multi-application mix
//!   (shared sensor networks run many applications side by side) — drawing
//!   every random choice from the trial's deterministic seed;
//! * a [`ClosedLoop`] client describes **feedback-driven arrivals**: one
//!   agent outstanding at a time, re-issued a think time after the
//!   previous one finishes — load that self-throttles to what the network
//!   (mobile relays included) can actually serve;
//! * a [`ScheduledEvent`] describes a **mid-run perturbation** — kill a
//!   mote, sever a link, step the channel loss model — so churn and
//!   lifetime scenarios are rows in a table, not bespoke driver loops;
//! * a [`ScenarioSpec`] combines a substrate, a horizon, generators, and
//!   events, and **compiles** to a plain [`TrialSpec`] step script.
//!
//! Compilation is the trick that keeps the figure pipeline trustworthy: a
//! scenario executes through exactly the same `TrialSpec::execute` path
//! the figures have always used, so a scenario that expresses an existing
//! figure's workload (a one-shot injection at t = 0, run for 20 s)
//! produces byte-identical results to the hand-written step script it
//! replaced — and the executor (`agilla-bench`'s `TrialExecutor`) needs no
//! changes to fan scenarios across worker threads.
//!
//! # Determinism
//!
//! Every generator draws from an [`RngStream`] derived from the scenario
//! seed and the generator's *position* in [`ScenarioSpec::traffic`]
//! (stream `"scenario.traffic"`, substream *i*). Two executions of the
//! same spec therefore schedule identical arrivals, whatever thread they
//! run on; changing one generator's draw count never reshuffles another's.
//!
//! # Examples
//!
//! ```
//! use agilla::scenario::{AppMix, AppSpec, Perturbation, Poisson};
//! use agilla::testbed::Testbed;
//! use agilla::{workload, AgillaConfig};
//! use wsn_common::Location;
//! use wsn_sim::SimDuration;
//!
//! // A multi-app mix arriving at ~0.5 agents/s while a mote dies mid-run.
//! let bed = Testbed::lossy_5x5(AgillaConfig::default(), 7);
//! let spec = bed
//!     .scenario(3)
//!     .traffic(AppMix::new(
//!         0.5,
//!         vec![
//!             AppSpec::at_base(2, workload::rout_test_agent(Location::new(2, 2))),
//!             AppSpec::at_base(1, workload::SMOVE_TEST_AGENT),
//!         ],
//!     ))
//!     .event(
//!         SimDuration::from_secs(10),
//!         Perturbation::KillNode(Location::new(3, 1)),
//!     )
//!     .horizon(SimDuration::from_secs(30));
//! let trial = spec.execute();
//! assert!(trial.net.log().node_deaths().len() == 1);
//! # let _ = Poisson::new(1.0, workload::SMOVE_TEST_AGENT); // link the family
//! ```

use std::fmt;

use agilla_tenancy::{Allocator, AppProfile, Decision};
use wsn_common::Location;
use wsn_radio::{LossModel, Motion, MotionPlan};
use wsn_sim::{RngStream, SimDuration};

use crate::config::AgillaConfig;
use crate::env::Environment;
use crate::network::AgillaNetwork;
use crate::testbed::{TopologySpec, Trial, TrialSpec, TrialStep};

/// Where an arriving agent enters the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionSite {
    /// The base station (the paper's default injection point).
    Base,
    /// The node addressed by a location.
    At(Location),
}

/// One agent arrival produced by a [`TrafficGen`]: at `at` (an offset from
/// the scenario start), assemble `source` and inject it at `site`.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// When the agent arrives, as an offset from the scenario start.
    pub at: SimDuration,
    /// Where it is injected.
    pub site: InjectionSite,
    /// Agilla assembly source.
    pub source: String,
}

/// A pluggable traffic generator: asked once per trial for its full
/// arrival schedule over the scenario horizon.
///
/// Implementations must be pure functions of `(rng, horizon)` — all
/// randomness comes from the provided stream, which the scenario derives
/// from its seed and the generator's position, so identical specs schedule
/// identical arrivals on any thread.
pub trait TrafficGen: fmt::Debug + Send + Sync {
    /// The arrivals this generator contributes, in nondecreasing time
    /// order. Arrivals after `horizon` are discarded by the compiler.
    fn arrivals(&self, rng: &mut RngStream, horizon: SimDuration) -> Vec<Arrival>;

    /// Clones the generator behind the object (scenario specs are `Clone`
    /// so executors can hand them across threads).
    fn boxed_clone(&self) -> Box<dyn TrafficGen>;
}

impl Clone for Box<dyn TrafficGen> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Injects one agent at a fixed time — the paper's workloads, expressed
/// as traffic.
#[derive(Debug, Clone)]
pub struct OneShot {
    /// Injection time (offset from scenario start).
    pub at: SimDuration,
    /// Injection site.
    pub site: InjectionSite,
    /// Agilla assembly source.
    pub source: String,
}

impl OneShot {
    /// One agent at the base station at t = 0.
    pub fn at_base(source: impl Into<String>) -> Self {
        OneShot {
            at: SimDuration::ZERO,
            site: InjectionSite::Base,
            source: source.into(),
        }
    }

    /// One agent at the node addressed by `loc` at t = 0.
    pub fn at(loc: Location, source: impl Into<String>) -> Self {
        OneShot {
            at: SimDuration::ZERO,
            site: InjectionSite::At(loc),
            source: source.into(),
        }
    }

    /// Moves the injection to `at`.
    #[must_use]
    pub fn delayed(mut self, at: SimDuration) -> Self {
        self.at = at;
        self
    }
}

impl TrafficGen for OneShot {
    fn arrivals(&self, _rng: &mut RngStream, _horizon: SimDuration) -> Vec<Arrival> {
        vec![Arrival {
            at: self.at,
            site: self.site,
            source: self.source.clone(),
        }]
    }

    fn boxed_clone(&self) -> Box<dyn TrafficGen> {
        Box::new(self.clone())
    }
}

/// Injects the same agent on a fixed period — a sampling or patrol
/// workload re-dispatched on a schedule.
#[derive(Debug, Clone)]
pub struct Periodic {
    /// First injection time.
    pub start: SimDuration,
    /// Spacing between injections.
    pub period: SimDuration,
    /// Number of injections (further capped by the horizon).
    pub count: u32,
    /// Injection site.
    pub site: InjectionSite,
    /// Agilla assembly source.
    pub source: String,
}

impl Periodic {
    /// `count` agents at the base station, one every `period` from t = 0.
    pub fn at_base(period: SimDuration, count: u32, source: impl Into<String>) -> Self {
        Periodic {
            start: SimDuration::ZERO,
            period,
            count,
            site: InjectionSite::Base,
            source: source.into(),
        }
    }

    /// `count` agents at `loc`, one every `period` from t = 0.
    pub fn at(loc: Location, period: SimDuration, count: u32, source: impl Into<String>) -> Self {
        Periodic {
            start: SimDuration::ZERO,
            period,
            count,
            site: InjectionSite::At(loc),
            source: source.into(),
        }
    }

    /// Moves the first injection to `start`.
    #[must_use]
    pub fn starting_at(mut self, start: SimDuration) -> Self {
        self.start = start;
        self
    }
}

impl TrafficGen for Periodic {
    fn arrivals(&self, _rng: &mut RngStream, horizon: SimDuration) -> Vec<Arrival> {
        (0..self.count)
            .map(|k| self.start + SimDuration::from_micros(u64::from(k) * self.period.as_micros()))
            .take_while(|&at| at <= horizon)
            .map(|at| Arrival {
                at,
                site: self.site,
                source: self.source.clone(),
            })
            .collect()
    }

    fn boxed_clone(&self) -> Box<dyn TrafficGen> {
        Box::new(self.clone())
    }
}

/// Poisson arrivals of one agent program: exponentially-distributed
/// inter-arrival times at a mean rate, the standard open-loop load model.
#[derive(Debug, Clone)]
pub struct Poisson {
    /// Mean arrival rate, agents per simulated second.
    pub rate_per_s: f64,
    /// Injection site.
    pub site: InjectionSite,
    /// Agilla assembly source.
    pub source: String,
}

impl Poisson {
    /// Arrivals at the base station at `rate_per_s` agents per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_s` is positive and finite.
    pub fn new(rate_per_s: f64, source: impl Into<String>) -> Self {
        assert!(
            rate_per_s > 0.0 && rate_per_s.is_finite(),
            "arrival rate must be positive, got {rate_per_s}"
        );
        Poisson {
            rate_per_s,
            site: InjectionSite::Base,
            source: source.into(),
        }
    }

    /// Moves the injection site to `loc`.
    #[must_use]
    pub fn at(mut self, loc: Location) -> Self {
        self.site = InjectionSite::At(loc);
        self
    }
}

/// Draws successive Poisson event times at `rate_per_s` into `out`,
/// calling `pick` for each to produce the item.
fn poisson_times<T>(
    rate_per_s: f64,
    rng: &mut RngStream,
    horizon: SimDuration,
    mut pick: impl FnMut(&mut RngStream, SimDuration) -> T,
) -> Vec<T> {
    let mean_gap_s = 1.0 / rate_per_s;
    let mut out = Vec::new();
    let mut t_s = 0.0f64;
    loop {
        t_s += rng.exponential(mean_gap_s);
        let at = SimDuration::from_secs_f64(t_s);
        if at > horizon {
            return out;
        }
        let item = pick(rng, at);
        out.push(item);
    }
}

impl TrafficGen for Poisson {
    fn arrivals(&self, rng: &mut RngStream, horizon: SimDuration) -> Vec<Arrival> {
        poisson_times(self.rate_per_s, rng, horizon, |_, at| Arrival {
            at,
            site: self.site,
            source: self.source.clone(),
        })
    }

    fn boxed_clone(&self) -> Box<dyn TrafficGen> {
        Box::new(self.clone())
    }
}

/// One application in an [`AppMix`]: a relative weight plus the agent it
/// injects.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Relative arrival weight within the mix.
    pub weight: u32,
    /// Injection site.
    pub site: InjectionSite,
    /// Agilla assembly source.
    pub source: String,
}

impl AppSpec {
    /// An app injected at the base station.
    pub fn at_base(weight: u32, source: impl Into<String>) -> Self {
        AppSpec {
            weight,
            site: InjectionSite::Base,
            source: source.into(),
        }
    }

    /// An app injected at `loc`.
    pub fn at(weight: u32, loc: Location, source: impl Into<String>) -> Self {
        AppSpec {
            weight,
            site: InjectionSite::At(loc),
            source: source.into(),
        }
    }
}

/// A weighted multi-application arrival mix: one Poisson process at the
/// aggregate rate whose each arrival is one of several applications,
/// chosen by relative weight — the shared-sensor-network workload where
/// independent applications contend for the same motes.
#[derive(Debug, Clone)]
pub struct AppMix {
    /// Aggregate arrival rate, agents per simulated second.
    pub rate_per_s: f64,
    /// The applications and their relative weights.
    pub apps: Vec<AppSpec>,
}

impl AppMix {
    /// A mix arriving at `rate_per_s` agents per second in aggregate.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is positive and finite, `apps` is non-empty,
    /// and at least one weight is nonzero.
    pub fn new(rate_per_s: f64, apps: Vec<AppSpec>) -> Self {
        assert!(
            rate_per_s > 0.0 && rate_per_s.is_finite(),
            "arrival rate must be positive, got {rate_per_s}"
        );
        assert!(
            apps.iter().map(|a| u64::from(a.weight)).sum::<u64>() > 0,
            "app mix needs at least one positive weight"
        );
        AppMix { rate_per_s, apps }
    }
}

impl TrafficGen for AppMix {
    fn arrivals(&self, rng: &mut RngStream, horizon: SimDuration) -> Vec<Arrival> {
        let total: u64 = self.apps.iter().map(|a| u64::from(a.weight)).sum();
        poisson_times(self.rate_per_s, rng, horizon, |rng, at| {
            let mut ticket = rng.range_u64(0, total);
            let app = self
                .apps
                .iter()
                .find(|a| {
                    let w = u64::from(a.weight);
                    if ticket < w {
                        true
                    } else {
                        ticket -= w;
                        false
                    }
                })
                .expect("ticket < total weight");
            Arrival {
                at,
                site: app.site,
                source: app.source.clone(),
            }
        })
    }

    fn boxed_clone(&self) -> Box<dyn TrafficGen> {
        Box::new(self.clone())
    }
}

/// One tenant application in a multi-tenant scenario: a registered
/// profile (identity, per-mote quota, priority class) plus the traffic
/// arriving on its behalf.
///
/// Unlike plain [`ScenarioSpec::traffic`], a tenant's arrivals are
/// quota-checked and priority-preempting: they compile to
/// [`TrialStep::TryInjectAs`] after a [`TrialStep::RegisterApp`], and the
/// per-app `tenancy.*` metrics attribute everything the app's agents do.
#[derive(Debug, Clone)]
pub struct TenantApp {
    /// The app's registered profile.
    pub profile: AppProfile,
    /// Traffic arriving on the app's behalf.
    pub traffic: Box<dyn TrafficGen>,
}

impl TenantApp {
    /// A tenant app with the given profile and traffic.
    pub fn new(profile: AppProfile, traffic: impl TrafficGen + 'static) -> Self {
        TenantApp {
            profile,
            traffic: Box::new(traffic),
        }
    }
}

/// A closed-loop traffic client: keeps exactly **one** agent outstanding,
/// waiting for the previous agent to leave the network (halt, fault, or
/// eviction — [`crate::stats::ExperimentLog::finished_at`]) plus a think
/// time before issuing the next. The classic interactive-client load
/// model, complementary to the open-loop [`TrafficGen`]s: an open-loop
/// generator keeps arriving into a partitioned or overloaded network,
/// while a closed-loop client self-throttles to the network's actual
/// service rate — which is what makes it the right probe for mobility
/// scenarios, where service capacity changes as motes move.
///
/// Unlike a [`TrafficGen`], completion feedback cannot be precompiled
/// into a step script, so clients live beside the script in
/// [`TrialSpec::clients`] and are polled (every 50 ms of simulated time)
/// while `Run` steps advance the clock.
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    /// Injection site for every issue.
    pub site: InjectionSite,
    /// Agilla assembly source issued each time.
    pub source: String,
    /// Pause between observing a completion and the next issue.
    pub think: SimDuration,
    /// Earliest issue time (offset from the scenario start).
    pub start: SimDuration,
    /// Cap on issues. A refused issue counts: a refusal is an observed
    /// outcome, and the client waits a think time before trying again.
    pub max_issues: u32,
}

impl ClosedLoop {
    /// A client issuing at the base station from t = 0.
    pub fn at_base(think: SimDuration, max_issues: u32, source: impl Into<String>) -> Self {
        ClosedLoop {
            site: InjectionSite::Base,
            source: source.into(),
            think,
            start: SimDuration::ZERO,
            max_issues,
        }
    }

    /// A client issuing at the node addressed by `loc` from t = 0.
    pub fn at(
        loc: Location,
        think: SimDuration,
        max_issues: u32,
        source: impl Into<String>,
    ) -> Self {
        ClosedLoop {
            site: InjectionSite::At(loc),
            ..ClosedLoop::at_base(think, max_issues, source)
        }
    }

    /// Delays the first issue to `start`.
    #[must_use]
    pub fn starting_at(mut self, start: SimDuration) -> Self {
        self.start = start;
        self
    }
}

/// A mid-run fault injection applied by a [`ScheduledEvent`].
#[derive(Debug, Clone)]
pub enum Perturbation {
    /// Permanently fail the mote addressed by a location.
    KillNode(Location),
    /// Permanently sever the link between the motes at two locations.
    DropLink(Location, Location),
    /// Undo a [`Perturbation::DropLink`] between the motes at two
    /// locations: the link is again governed by the connectivity rule and
    /// the loss model, as if never severed. A no-op on an intact link.
    HealLink(Location, Location),
    /// Replace the channel loss model (step the loss rate up or down).
    SetLoss(LossModel),
}

impl Perturbation {
    /// Applies the perturbation to a running network.
    ///
    /// # Panics
    ///
    /// Panics when a location addresses no node — scenario scripts are
    /// fixed, vetted descriptions, so a dangling address is a harness bug.
    pub(crate) fn apply(&self, net: &mut AgillaNetwork) {
        let resolve = |net: &AgillaNetwork, loc: Location| {
            net.node_at(loc)
                .unwrap_or_else(|| panic!("perturbation addresses no node at {loc}"))
        };
        match self {
            Perturbation::KillNode(loc) => {
                let node = resolve(net, *loc);
                net.kill_node(node);
            }
            Perturbation::DropLink(a, b) => {
                let a = resolve(net, *a);
                let b = resolve(net, *b);
                net.drop_link(a, b);
            }
            Perturbation::HealLink(a, b) => {
                let a = resolve(net, *a);
                let b = resolve(net, *b);
                net.heal_link(a, b);
            }
            Perturbation::SetLoss(loss) => net.set_loss_model(loss.clone()),
        }
    }
}

/// A perturbation scheduled at an offset from the scenario start.
#[derive(Debug, Clone)]
pub struct ScheduledEvent {
    /// When the perturbation fires.
    pub at: SimDuration,
    /// What happens.
    pub what: Perturbation,
}

/// A declarative experiment: substrate + configuration + seed (as in a
/// [`TrialSpec`]), plus a horizon, traffic generators, scheduled
/// perturbations, and an optional measurement boundary. Compiles to a
/// [`TrialSpec`] step script ([`ScenarioSpec::compile`]) and executes
/// through the standard trial path ([`ScenarioSpec::execute`]).
///
/// Ordering contract at equal times: the measurement boundary's log clear
/// first, then scheduled events (in declaration order), then arrivals (in
/// generator order, then arrival order). All are followed by the `Run`
/// that advances to the next action time.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Radio substrate.
    pub topology: TopologySpec,
    /// Middleware configuration.
    pub config: AgillaConfig,
    /// Sensing environment.
    pub env: Environment,
    /// Seed for every random stream in the trial, including traffic.
    pub seed: u64,
    /// How long the scenario runs.
    pub horizon: SimDuration,
    /// Traffic generators; arrivals from all of them interleave.
    pub traffic: Vec<Box<dyn TrafficGen>>,
    /// Tenant applications; their arrivals are quota-checked, interleaving
    /// after plain traffic at equal times.
    pub apps: Vec<TenantApp>,
    /// Base-station allocation knob: `(regions, capacity_per_node)`. When
    /// set, tenant apps are placed onto topology regions by an
    /// [`Allocator`] using static cost bounds as the load estimate; an app
    /// that fits nowhere is *not registered*, so its every arrival is
    /// refused as a quota rejection. `None` registers every tenant app.
    pub app_alloc: Option<(u32, u64)>,
    /// Mid-run perturbations.
    pub events: Vec<ScheduledEvent>,
    /// Per-node motion plan, installed when the trial's network is built.
    /// The empty (all-static) plan is the default and installs nothing.
    pub motion: MotionPlan,
    /// Closed-loop clients, polled while the compiled script's `Run`
    /// steps advance time.
    pub clients: Vec<ClosedLoop>,
    /// Clear the experiment log at this offset, separating setup from
    /// measurement (the declarative form of [`TrialStep::ClearLog`]).
    pub measure_from: Option<SimDuration>,
}

impl ScenarioSpec {
    /// Adds a traffic generator. Generator order is part of the spec: it
    /// seeds each generator's random substream and breaks arrival ties.
    #[must_use]
    pub fn traffic(mut self, gen: impl TrafficGen + 'static) -> Self {
        self.traffic.push(Box::new(gen));
        self
    }

    /// Adds a tenant application. App order is part of the spec: it seeds
    /// each app's random substream (stream `"scenario.apps"`, substream
    /// *i*), fixes allocation order, and breaks arrival ties after plain
    /// traffic.
    #[must_use]
    pub fn tenant(mut self, app: TenantApp) -> Self {
        self.apps.push(app);
        self
    }

    /// Enables base-station allocation of tenant apps onto `regions`
    /// contiguous topology regions, each node contributing
    /// `capacity_per_node` estimated instructions of capacity. Apps are
    /// placed in declaration order by static-cost-bound demand; an app
    /// that fits nowhere is left unregistered and all of its arrivals are
    /// refused as quota rejections.
    #[must_use]
    pub fn allocate_apps(mut self, regions: u32, capacity_per_node: u64) -> Self {
        self.app_alloc = Some((regions, capacity_per_node));
        self
    }

    /// Schedules a perturbation at `at`.
    #[must_use]
    pub fn event(mut self, at: SimDuration, what: Perturbation) -> Self {
        self.events.push(ScheduledEvent { at, what });
        self
    }

    /// Puts the mote that boots at `origin` in motion. Entries accumulate;
    /// a [`Motion::Static`] entry is dropped (every mote is static by
    /// default, and a scenario with no moving motes builds a network
    /// bit-for-bit identical to one with no motion plan at all).
    #[must_use]
    pub fn motion(mut self, origin: Location, motion: Motion) -> Self {
        self.motion = self.motion.clone().with(origin, motion);
        self
    }

    /// Adds a closed-loop client. Client order is part of the spec: it
    /// fixes polling order at each 50 ms boundary.
    #[must_use]
    pub fn client(mut self, client: ClosedLoop) -> Self {
        self.clients.push(client);
        self
    }

    /// Sets the scenario horizon (total simulated run length).
    #[must_use]
    pub fn horizon(mut self, d: SimDuration) -> Self {
        self.horizon = d;
        self
    }

    /// Clears the experiment log at `at`, separating setup traffic from
    /// the measured window.
    #[must_use]
    pub fn measure_from(mut self, at: SimDuration) -> Self {
        self.measure_from = Some(at);
        self
    }

    /// Replaces the environment model.
    #[must_use]
    pub fn with_env(mut self, env: Environment) -> Self {
        self.env = env;
        self
    }

    /// Compiles the scenario to a [`TrialSpec`] step script: draw every
    /// generator's arrivals, merge them with the scheduled events and the
    /// measurement boundary, and emit `Run` steps between consecutive
    /// action times up to the horizon. Actions scheduled past the horizon
    /// — arrivals, events, and the measurement boundary alike — are
    /// dropped: the horizon is a hard end, and the simulation never
    /// advances beyond it.
    ///
    /// A scenario whose only action is a t = 0 one-shot compiles to
    /// exactly the `[Inject, Run(horizon)]` script the figure harnesses
    /// used to write by hand — same steps, same execution path, same
    /// bytes out.
    pub fn compile(&self) -> TrialSpec {
        // (time, class, tiebreak) orders the action list; class encodes
        // the equal-time contract documented on the type.
        #[derive(Debug)]
        enum Action {
            ClearLog,
            Perturb(Perturbation),
            Arrive(InjectionSite, String),
            ArriveAs(InjectionSite, String, agilla_tenancy::AppId),
        }
        let mut actions: Vec<(SimDuration, u8, usize, Action)> = Vec::new();
        if let Some(at) = self.measure_from {
            if at <= self.horizon {
                actions.push((at, 0, 0, Action::ClearLog));
            }
        }
        for (i, ev) in self.events.iter().enumerate() {
            if ev.at <= self.horizon {
                actions.push((ev.at, 1, i, Action::Perturb(ev.what.clone())));
            }
        }
        let root = RngStream::derive(self.seed, "scenario.traffic");
        let mut tiebreak = 0usize;
        for (i, gen) in self.traffic.iter().enumerate() {
            let mut rng = root.substream(i as u64);
            for a in gen.arrivals(&mut rng, self.horizon) {
                if a.at <= self.horizon {
                    actions.push((a.at, 2, tiebreak, Action::Arrive(a.site, a.source)));
                    tiebreak += 1;
                }
            }
        }
        // Tenant apps: each draws its own substream, then the base-station
        // allocator (when enabled) decides which apps are registered at
        // all. Rejected apps keep their arrivals — every one is refused at
        // run time as a quota rejection, which is exactly the accounting
        // the figures report.
        let app_root = RngStream::derive(self.seed, "scenario.apps");
        let mut allocator = self.app_alloc.map(|(regions, cap)| {
            let num_nodes = match &self.topology {
                TopologySpec::Lossy5x5 | TopologySpec::Reliable5x5 => 26,
                TopologySpec::ReliableLine(n) => (*n).max(1) as u32,
                TopologySpec::Custom { topology, .. } => topology.len().max(1) as u32,
            };
            Allocator::new(num_nodes, regions.clamp(1, num_nodes), cap)
        });
        let mut registered = Vec::new();
        let mut app_tiebreak = 0usize;
        for (i, app) in self.apps.iter().enumerate() {
            let mut rng = app_root.substream(i as u64);
            let arrivals: Vec<Arrival> = app
                .traffic
                .arrivals(&mut rng, self.horizon)
                .into_iter()
                .filter(|a| a.at <= self.horizon)
                .collect();
            let placed = match &mut allocator {
                Some(alloc) => {
                    let cost = arrivals.first().and_then(|a| {
                        let program = agilla_vm::asm::assemble(&a.source).ok()?;
                        agilla_analysis::analyze(&program.into_code()).cost
                    });
                    let demand = Allocator::demand(cost.as_ref(), arrivals.len() as u32);
                    matches!(alloc.place(demand), Decision::Placed { .. })
                }
                None => true,
            };
            if placed {
                registered.push(app.profile.clone());
            }
            for a in arrivals {
                actions.push((
                    a.at,
                    3,
                    app_tiebreak,
                    Action::ArriveAs(a.site, a.source, app.profile.id),
                ));
                app_tiebreak += 1;
            }
        }
        actions.sort_by_key(|a| (a.0, a.1, a.2));

        let mut steps = Vec::with_capacity(registered.len() + actions.len() + 1);
        for profile in registered {
            steps.push(TrialStep::RegisterApp(profile));
        }
        let mut cursor = SimDuration::ZERO;
        for (at, _, _, action) in actions {
            if at > cursor {
                steps.push(TrialStep::Run(SimDuration::from_micros(
                    at.as_micros() - cursor.as_micros(),
                )));
                cursor = at;
            }
            steps.push(match action {
                Action::ClearLog => TrialStep::ClearLog,
                Action::Perturb(p) => TrialStep::Perturb(p),
                Action::Arrive(site, source) => TrialStep::TryInject {
                    at: match site {
                        InjectionSite::Base => None,
                        InjectionSite::At(loc) => Some(loc),
                    },
                    source,
                },
                Action::ArriveAs(site, source, app) => TrialStep::TryInjectAs {
                    at: match site {
                        InjectionSite::Base => None,
                        InjectionSite::At(loc) => Some(loc),
                    },
                    source,
                    app,
                },
            });
        }
        if self.horizon > cursor {
            steps.push(TrialStep::Run(SimDuration::from_micros(
                self.horizon.as_micros() - cursor.as_micros(),
            )));
        }
        TrialSpec {
            topology: self.topology.clone(),
            config: self.config.clone(),
            env: self.env.clone(),
            seed: self.seed,
            steps,
            motion: self.motion.clone(),
            clients: self.clients.clone(),
        }
    }

    /// Compiles the scenario like [`compile`](Self::compile), but first
    /// checks that every injected program in the compiled script actually
    /// assembles, returning
    /// [`AgillaError::BadAgent`](crate::AgillaError::BadAgent) (with the
    /// assembler's `line:col` diagnosis) instead of deferring the failure
    /// to a panic inside [`TrialSpec::execute`]. Use this when the agent
    /// sources are user-supplied rather than vetted workloads.
    ///
    /// # Errors
    ///
    /// [`AgillaError::BadAgent`](crate::AgillaError::BadAgent) naming the
    /// first step whose source fails to assemble.
    pub fn try_compile(&self) -> Result<TrialSpec, crate::AgillaError> {
        let spec = self.compile();
        for (i, step) in spec.steps.iter().enumerate() {
            let (TrialStep::Inject { source, .. }
            | TrialStep::TryInject { source, .. }
            | TrialStep::TryInjectAs { source, .. }) = step
            else {
                continue;
            };
            agilla_vm::asm::assemble(source)
                .map_err(|e| crate::AgillaError::BadAgent(format!("scenario step {i}: {e}")))?;
        }
        for (i, c) in spec.clients.iter().enumerate() {
            agilla_vm::asm::assemble(&c.source).map_err(|e| {
                crate::AgillaError::BadAgent(format!("closed-loop client {i}: {e}"))
            })?;
        }
        Ok(spec)
    }

    /// Compiles and executes the scenario to completion.
    ///
    /// # Panics
    ///
    /// As [`TrialSpec::execute`].
    pub fn execute(&self) -> Trial {
        self.compile().execute()
    }

    /// Builds the scenario's network without running any steps — for
    /// drivers that need stepped sampling or early-exit predicates on top
    /// of the declared substrate. Only the substrate fields (including the
    /// motion plan) matter here, so no traffic is drawn, no step script is
    /// assembled, and closed-loop clients never poll.
    pub fn build(&self) -> AgillaNetwork {
        TrialSpec {
            topology: self.topology.clone(),
            config: self.config.clone(),
            env: self.env.clone(),
            seed: self.seed,
            steps: Vec::new(),
            motion: self.motion.clone(),
            clients: Vec::new(),
        }
        .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;
    use crate::workload;
    use wsn_sim::SimTime;

    const BED_SEED: u64 = 0xC0FFEE;

    fn bed() -> Testbed {
        Testbed::lossy_5x5(AgillaConfig::default(), BED_SEED)
    }

    /// A step script written out by hand on [`bed`]'s substrate, with the
    /// seed its scenario `seed_mix` derives.
    fn hand_script(seed_mix: u64, steps: Vec<TrialStep>) -> TrialSpec {
        TrialSpec {
            topology: TopologySpec::Lossy5x5,
            config: AgillaConfig::default(),
            env: Environment::ambient(),
            seed: BED_SEED ^ seed_mix,
            steps,
            motion: MotionPlan::new(),
            clients: Vec::new(),
        }
    }

    #[test]
    fn try_compile_reports_bad_sources_as_typed_errors() {
        let horizon = SimDuration::from_secs(1);
        let good = bed()
            .scenario(1)
            .traffic(OneShot::at_base("halt"))
            .horizon(horizon);
        assert!(good.try_compile().is_ok());

        let bad = bed()
            .scenario(1)
            .traffic(OneShot::at_base("pushc banana\nhalt"))
            .horizon(horizon);
        match bad.try_compile() {
            Err(crate::AgillaError::BadAgent(msg)) => {
                assert!(msg.contains("line 1"), "span surfaces in {msg:?}");
                assert!(msg.contains("banana"), "offending token in {msg:?}");
            }
            other => panic!("expected a typed build error, got {other:?}"),
        }
    }

    #[test]
    fn one_shot_scenario_compiles_to_the_hand_written_script() {
        let src = workload::rout_test_agent(Location::new(2, 1));
        let run = SimDuration::from_secs(20);
        let scenario = bed()
            .scenario(5)
            .traffic(OneShot::at_base(&src))
            .horizon(run)
            .compile();
        let hand = hand_script(
            5,
            vec![
                TrialStep::Inject {
                    at: None,
                    source: src.clone(),
                },
                TrialStep::Run(run),
            ],
        );
        // TryInject vs Inject is the one deliberate difference in shape
        // (scenario arrivals may be refused admission under load).
        assert_eq!(
            format!("{:?}", scenario.steps).replace("TryInject", "Inject"),
            format!("{:?}", hand.steps)
        );
        assert_eq!(scenario.seed, hand.seed);
        // Same script, same path, same outcome.
        let a = scenario.execute();
        let b = hand.execute();
        assert_eq!(a.net.log().records(), b.net.log().records());
        assert_eq!(a.net.medium().frames_sent(), b.net.medium().frames_sent());
        assert_eq!(a.rejected.total(), 0);
    }

    #[test]
    fn setup_then_measure_compiles_like_fig11s_seeded_script() {
        let target = Location::new(1, 1);
        let seed_src = "pushc 1\npushc 1\nout\nhalt";
        let probe = format!(
            "pusht value\npushc 1\npushloc {} {}\nrinp\nhalt",
            target.x, target.y
        );
        let one = SimDuration::from_secs(1);
        let scenario = bed()
            .scenario(9)
            .traffic(OneShot::at(target, seed_src))
            .traffic(OneShot::at_base(&probe).delayed(one))
            .measure_from(one)
            .horizon(SimDuration::from_secs(11))
            .compile();
        let hand = hand_script(
            9,
            vec![
                TrialStep::Inject {
                    at: Some(target),
                    source: seed_src.to_string(),
                },
                TrialStep::Run(one),
                TrialStep::ClearLog,
                TrialStep::Inject {
                    at: None,
                    source: probe.clone(),
                },
                TrialStep::Run(SimDuration::from_secs(10)),
            ],
        );
        // TryInject vs Inject is the one deliberate difference; compare the
        // rest of the shape via Debug.
        let canon = |steps: &[TrialStep]| {
            format!("{steps:?}")
                .replace("TryInject", "Inject")
                .to_string()
        };
        assert_eq!(canon(&scenario.steps), canon(&hand.steps));
        let a = scenario.execute();
        let b = hand.execute();
        assert_eq!(a.net.log().records(), b.net.log().records());
    }

    #[test]
    fn periodic_traffic_injects_on_schedule() {
        let trial = bed()
            .scenario(1)
            .traffic(Periodic::at_base(
                SimDuration::from_secs(2),
                3,
                "pushc 1\nputled\nhalt",
            ))
            .horizon(SimDuration::from_secs(10))
            .execute();
        assert_eq!(trial.agents.len(), 3);
        let times: Vec<u64> = trial
            .agents
            .iter()
            .map(|&id| {
                trial
                    .net
                    .log()
                    .injected_at(id)
                    .expect("injected")
                    .as_micros()
            })
            .collect();
        assert_eq!(times, vec![0, 2_000_000, 4_000_000]);
    }

    #[test]
    fn poisson_arrivals_are_seed_deterministic_and_rate_shaped() {
        let gen = Poisson::new(2.0, "halt");
        let horizon = SimDuration::from_secs(100);
        let mut a = RngStream::derive(42, "t").substream(0);
        let mut b = RngStream::derive(42, "t").substream(0);
        let first = gen.arrivals(&mut a, horizon);
        let second = gen.arrivals(&mut b, horizon);
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        // ~200 arrivals expected at rate 2/s over 100 s.
        assert!((120..=280).contains(&first.len()), "{}", first.len());
        assert!(first.windows(2).all(|w| w[0].at <= w[1].at));
        let mut c = RngStream::derive(43, "t").substream(0);
        let other = gen.arrivals(&mut c, horizon);
        assert_ne!(format!("{first:?}"), format!("{other:?}"));
    }

    #[test]
    fn app_mix_draws_every_app_by_weight() {
        let mix = AppMix::new(
            5.0,
            vec![
                AppSpec::at_base(3, "pushc 1\nhalt"),
                AppSpec::at_base(1, "pushc 2\nhalt"),
            ],
        );
        let mut rng = RngStream::derive(7, "mix").substream(0);
        let arrivals = mix.arrivals(&mut rng, SimDuration::from_secs(200));
        let ones = arrivals
            .iter()
            .filter(|a| a.source.contains("pushc 1"))
            .count();
        let twos = arrivals.len() - ones;
        assert!(ones > twos, "weight 3 should dominate: {ones} vs {twos}");
        assert!(twos > 0, "weight 1 still appears");
    }

    #[test]
    fn scheduled_kill_fires_at_the_declared_time() {
        let at = SimDuration::from_secs(5);
        let trial = bed()
            .scenario(11)
            .event(at, Perturbation::KillNode(Location::new(3, 1)))
            // A duplicate kill of the same mote must not double-record.
            .event(
                SimDuration::from_secs(6),
                Perturbation::KillNode(Location::new(3, 1)),
            )
            .horizon(SimDuration::from_secs(8))
            .execute();
        let deaths = trial.net.log().node_deaths();
        assert_eq!(deaths.len(), 1);
        assert_eq!(deaths[0].1, SimTime::ZERO + at);
        assert_eq!(trial.net.alive_nodes(), 25);
    }

    #[test]
    fn arrivals_at_a_killed_mote_are_rejected_not_ghost_admitted() {
        let victim = Location::new(2, 2);
        let trial = bed()
            .scenario(13)
            .event(SimDuration::from_secs(1), Perturbation::KillNode(victim))
            .traffic(
                Periodic::at(
                    victim,
                    SimDuration::from_secs(1),
                    2,
                    "pushc 1\nputled\nhalt",
                )
                .starting_at(SimDuration::from_secs(3)),
            )
            .horizon(SimDuration::from_secs(6))
            .execute();
        // Neither post-kill arrival lands: both are admission refusals,
        // not phantom agents parked on a dead mote.
        assert!(trial.agents.is_empty());
        assert_eq!(trial.rejected.dead_mote, 2);
        assert_eq!(trial.rejected.total(), 2);
    }

    #[test]
    fn dropped_link_and_loss_step_perturb_the_running_network() {
        let bed = Testbed::reliable_5x5(AgillaConfig::default(), 3);
        // Sever every bottom-row link around (1,1) at t=1 s, then send a
        // rout through at t=2 s: georouting must fail or detour, proving
        // the perturbation landed in the radio graph.
        let trial = bed
            .scenario(0)
            .event(
                SimDuration::from_secs(1),
                Perturbation::DropLink(Location::new(0, 1), Location::new(1, 1)),
            )
            .event(
                SimDuration::from_secs(1),
                Perturbation::SetLoss(LossModel::uniform(0.0)),
            )
            .traffic(
                OneShot::at_base(workload::rout_test_agent(Location::new(1, 1)))
                    .delayed(SimDuration::from_secs(2)),
            )
            .horizon(SimDuration::from_secs(12))
            .execute();
        let medium_topology = trial.net.medium().topology();
        let a = medium_topology.node_at(Location::new(0, 1)).unwrap();
        let b = medium_topology.node_at(Location::new(1, 1)).unwrap();
        assert!(!medium_topology.are_neighbors(a, b));
        assert_eq!(trial.net.metrics().counter("faults.links_dropped"), 1);
        assert_eq!(trial.net.metrics().counter("faults.loss_steps"), 1);
    }

    #[test]
    fn healed_link_carries_traffic_the_drop_refused() {
        // Sever the base's only grid link at t=1 s, try a rout at t=2 s
        // (fails into the void), heal at t=8 s, rout again at t=9 s: the
        // second rout must land, proving HealLink re-admits real traffic.
        let bed = Testbed::reliable_5x5(AgillaConfig::default(), 3);
        let target = Location::new(1, 1);
        let trial = bed
            .scenario(0)
            .event(
                SimDuration::from_secs(1),
                Perturbation::DropLink(Location::new(0, 1), target),
            )
            .event(
                SimDuration::from_secs(8),
                Perturbation::HealLink(Location::new(0, 1), target),
            )
            .traffic(
                OneShot::at_base(workload::rout_test_agent(target))
                    .delayed(SimDuration::from_secs(9)),
            )
            .horizon(SimDuration::from_secs(19))
            .execute();
        let medium_topology = trial.net.medium().topology();
        let a = medium_topology.node_at(Location::new(0, 1)).unwrap();
        let b = medium_topology.node_at(target).unwrap();
        assert!(medium_topology.are_neighbors(a, b), "heal landed");
        assert_eq!(trial.net.metrics().counter("faults.links_dropped"), 1);
        assert_eq!(trial.net.metrics().counter("faults.links_healed"), 1);
        // The post-heal rout completed successfully over the healed link.
        let op = trial.net.log().remote_ops_of(trial.agents[0])[0];
        let (success, _, _) = trial.net.log().remote_completion(op).unwrap();
        assert!(success, "rout succeeds once the link is healed");
    }

    #[test]
    fn closed_loop_client_waits_for_completion_plus_think_time() {
        let think = SimDuration::from_millis(500);
        let trial = Testbed::reliable_5x5(AgillaConfig::default(), 19)
            .scenario(0)
            .client(ClosedLoop::at_base(think, 3, "pushc 1\nputled\nhalt"))
            .horizon(SimDuration::from_secs(10))
            .execute();
        // All three issues ran, strictly sequentially: each next injection
        // comes after the previous agent's finish plus the think time.
        assert_eq!(trial.agents.len(), 3);
        let log = trial.net.log();
        for pair in trial.agents.windows(2) {
            let finished = log.finished_at(pair[0]).expect("prior agent finished");
            let next = log.injected_at(pair[1]).expect("next issue recorded");
            assert!(
                next >= finished + think,
                "issue at {next:?} ran before {finished:?} + think"
            );
        }
    }

    #[test]
    fn closed_loop_client_never_overlaps_its_own_agents() {
        // A slow agent (sleeps 16 ticks = 2 s) under a tiny think time: the
        // client may never have two agents alive at once, so 6 s fits at
        // most 3 issues of a 4-issue budget.
        let trial = Testbed::reliable_5x5(AgillaConfig::default(), 23)
            .scenario(0)
            .client(ClosedLoop::at_base(
                SimDuration::from_millis(50),
                4,
                "pushc 16\nsleep\nhalt",
            ))
            .horizon(SimDuration::from_secs(6))
            .execute();
        assert!(trial.agents.len() <= 3, "{} overlapped", trial.agents.len());
        assert!(trial.agents.len() >= 2, "client made progress");
        let log = trial.net.log();
        for pair in trial.agents.windows(2) {
            assert!(log.finished_at(pair[0]).unwrap() <= log.injected_at(pair[1]).unwrap());
        }
    }

    #[test]
    fn mobile_scenario_moves_motes() {
        let trial = Testbed::lossy_5x5(AgillaConfig::default(), 41)
            .scenario(5)
            .motion(
                Location::new(2, 2),
                Motion::ConstantVelocity { vx: 0.4, vy: 0.0 },
            )
            .motion(
                Location::new(4, 4),
                Motion::Circle {
                    radius: 1.5,
                    period_s: 6.0,
                },
            )
            .traffic(Poisson::new(1.0, workload::SMOVE_TEST_AGENT))
            .horizon(SimDuration::from_secs(8))
            .execute();
        assert!(
            trial.net.metrics().counter("motion.moves") > 0,
            "motes actually moved"
        );
    }

    #[test]
    fn static_motion_plan_leaves_the_trial_bit_identical() {
        // Declaring only Static motions is the same as declaring none: the
        // plan stays empty, no tick is scheduled, and the run matches a
        // motion-free execution record for record.
        let base = bed()
            .scenario(8)
            .traffic(OneShot::at_base(workload::SMOVE_TEST_AGENT))
            .horizon(SimDuration::from_secs(6));
        let with_static = base
            .clone()
            .motion(Location::new(2, 2), Motion::Static)
            .execute();
        let without = base.execute();
        assert_eq!(with_static.net.log().records(), without.net.log().records());
        assert_eq!(with_static.net.metrics().counter("motion.moves"), 0);
        assert_eq!(
            with_static.net.medium().frames_sent(),
            without.net.medium().frames_sent()
        );
    }

    #[test]
    fn actions_past_the_horizon_are_dropped_and_time_stops_at_the_horizon() {
        let horizon = SimDuration::from_secs(6);
        let trial = bed()
            .scenario(4)
            .traffic(OneShot::at_base("halt").delayed(SimDuration::from_secs(9)))
            .event(
                SimDuration::from_secs(100),
                Perturbation::KillNode(Location::new(3, 1)),
            )
            .measure_from(SimDuration::from_secs(50))
            .horizon(horizon)
            .execute();
        // None of the late actions happened…
        assert!(trial.agents.is_empty());
        assert!(trial.net.log().node_deaths().is_empty());
        // …and the clock stopped at the declared horizon.
        assert_eq!(trial.net.now(), SimTime::ZERO + horizon);
    }

    #[test]
    fn overload_counts_rejections_instead_of_panicking() {
        // Five long-sleeping agents at one mote with 4 slots: the fifth
        // arrival must be turned away, not crash the trial.
        let sleeper = "pushcl 4000\nsleep\nhalt";
        let trial = bed()
            .scenario(2)
            .traffic(Periodic::at(
                Location::new(1, 1),
                SimDuration::from_millis(100),
                5,
                sleeper,
            ))
            .horizon(SimDuration::from_secs(2))
            .execute();
        assert_eq!(trial.agents.len(), 4);
        assert_eq!(trial.rejected.no_slots, 1);
        assert_eq!(trial.rejected.total(), 1);
    }

    #[test]
    fn tenant_quota_caps_agents_per_mote() {
        use agilla_tenancy::{AppId, AppQuota};
        let mote = Location::new(1, 1);
        let sleeper = "pushcl 4000\nsleep\nhalt";
        // Per-mote cap of 1 agent; three arrivals at the same mote while
        // the first sleeps: the second and third are quota refusals even
        // though the mote itself has free slots.
        let trial = Testbed::reliable_5x5(AgillaConfig::default(), 17)
            .scenario(0)
            .tenant(TenantApp::new(
                AppProfile::new(AppId(1), "habitat").quota(AppQuota::new(1, 200, u64::MAX)),
                Periodic::at(mote, SimDuration::from_millis(100), 3, sleeper),
            ))
            .horizon(SimDuration::from_secs(2))
            .execute();
        assert_eq!(trial.agents.len(), 1);
        assert_eq!(trial.rejected.quota, 2);
        assert_eq!(trial.rejected.no_slots, 0);
        assert_eq!(trial.net.metrics().counter("tenancy.app01.injected"), 1);
        assert_eq!(trial.net.metrics().counter("tenancy.app01.rejected"), 2);
        // The ledger shows exactly one slot held on the target mote.
        let node = trial.net.node_at(mote).unwrap();
        assert_eq!(
            trial
                .net
                .quota_ledger()
                .usage(AppId(1), node.index() as u32)
                .slots,
            1
        );
    }

    #[test]
    fn high_priority_app_preempts_a_low_priority_agent() {
        use agilla_tenancy::{AppId, Priority};
        let mote = Location::new(2, 2);
        let sleeper = "pushcl 4000\nsleep\nhalt";
        // Fill all 4 slots of one mote with a low-priority app, then a
        // high-priority agent arrives at the full mote: one low-priority
        // agent is evicted to make room.
        let trial = Testbed::reliable_5x5(AgillaConfig::default(), 23)
            .scenario(0)
            .tenant(TenantApp::new(
                AppProfile::new(AppId(1), "habitat").priority(Priority::Low),
                Periodic::at(mote, SimDuration::from_millis(50), 4, sleeper),
            ))
            .tenant(TenantApp::new(
                AppProfile::new(AppId(2), "fire").priority(Priority::High),
                OneShot::at(mote, sleeper).delayed(SimDuration::from_secs(1)),
            ))
            .horizon(SimDuration::from_secs(2))
            .execute();
        // All five arrivals were admitted: four low-priority plus the
        // preempting high-priority one.
        assert_eq!(trial.agents.len(), 5);
        assert_eq!(trial.rejected.total(), 0);
        let evictions = trial.net.log().evictions();
        assert_eq!(evictions.len(), 1);
        // The victim is the earliest low-priority agent (lowest slot).
        assert_eq!(evictions[0].0, trial.agents[0]);
        assert_eq!(trial.net.metrics().counter("tenancy.app01.evicted"), 1);
        assert_eq!(trial.net.metrics().counter("tenancy.app02.injected"), 1);
        // The eviction freed the victim's slot charge: 3 remain.
        let node = trial.net.node_at(mote).unwrap();
        let ledger = trial.net.quota_ledger();
        assert_eq!(ledger.usage(AppId(1), node.index() as u32).slots, 3);
        assert_eq!(ledger.usage(AppId(2), node.index() as u32).slots, 1);
    }

    #[test]
    fn normal_priority_never_preempts_equal_priority() {
        use agilla_tenancy::AppId;
        let mote = Location::new(3, 3);
        let sleeper = "pushcl 4000\nsleep\nhalt";
        // Both apps Normal: a full mote refuses the late arrival instead
        // of evicting anyone.
        let trial = Testbed::reliable_5x5(AgillaConfig::default(), 29)
            .scenario(0)
            .tenant(TenantApp::new(
                AppProfile::new(AppId(1), "a"),
                Periodic::at(mote, SimDuration::from_millis(50), 4, sleeper),
            ))
            .tenant(TenantApp::new(
                AppProfile::new(AppId(2), "b"),
                OneShot::at(mote, sleeper).delayed(SimDuration::from_secs(1)),
            ))
            .horizon(SimDuration::from_secs(2))
            .execute();
        assert_eq!(trial.agents.len(), 4);
        assert_eq!(trial.rejected.no_slots, 1);
        assert!(trial.net.log().evictions().is_empty());
    }

    #[test]
    fn allocator_rejects_apps_that_fit_nowhere() {
        use agilla_tenancy::AppId;
        // One node per region at 4 instructions of capacity: the 1-instr
        // halt app fits, but the 4-instr out agent times 3 arrivals
        // (demand 12) fits nowhere, so that app is never registered and
        // its arrivals are all quota refusals.
        let trial = bed()
            .scenario(31)
            .tenant(TenantApp::new(
                AppProfile::new(AppId(1), "small"),
                OneShot::at_base("halt"),
            ))
            .tenant(TenantApp::new(
                AppProfile::new(AppId(2), "big"),
                Periodic::at_base(
                    SimDuration::from_millis(100),
                    3,
                    "pushc 1\npushc 1\nout\nhalt",
                ),
            ))
            .allocate_apps(26, 4)
            .horizon(SimDuration::from_secs(2))
            .execute();
        assert_eq!(trial.agents.len(), 1);
        assert_eq!(trial.rejected.quota, 3);
        assert_eq!(trial.net.metrics().counter("tenancy.app01.injected"), 1);
        assert_eq!(trial.net.metrics().counter("tenancy.app02.injected"), 0);
    }

    #[test]
    fn preemption_heavy_scenario_evicts_low_priority_residents() {
        use agilla_tenancy::{AppId, AppQuota, Priority};
        let sleeper = "pushcl 4000\nsleep\nhalt";
        let trial = Testbed::lossy_5x5(AgillaConfig::default(), 37)
            .scenario(7)
            .tenant(TenantApp::new(
                AppProfile::new(AppId(1), "habitat")
                    .priority(Priority::Low)
                    .quota(AppQuota::new(4, 400, 100_000)),
                Poisson::new(3.0, sleeper),
            ))
            .tenant(TenantApp::new(
                AppProfile::new(AppId(2), "fire").priority(Priority::High),
                Periodic::at_base(SimDuration::from_millis(500), 6, sleeper)
                    .starting_at(SimDuration::from_secs(1)),
            ))
            .horizon(SimDuration::from_secs(4))
            .execute();
        assert!(!trial.net.log().evictions().is_empty(), "preemption ran");
    }

    #[test]
    fn same_spec_same_outcome_across_executions() {
        let spec = bed()
            .scenario(21)
            .traffic(AppMix::new(
                1.0,
                vec![
                    AppSpec::at_base(1, workload::rout_test_agent(Location::new(2, 1))),
                    AppSpec::at_base(1, workload::SMOVE_TEST_AGENT),
                ],
            ))
            .horizon(SimDuration::from_secs(15));
        let a = spec.clone().execute();
        let b = spec.execute();
        assert_eq!(a.net.log().records(), b.net.log().records());
        assert_eq!(a.agents, b.agents);
        assert_eq!(a.rejected, b.rejected);
    }
}
