//! Running a batch: the untraced path through `TrialSpec::execute`, and the
//! traced path, which drives each trial step by step through the public
//! API and wraps every call into the program in a span.
//!
//! `Perturbation::apply` and closed-loop polling are private to the
//! `agilla` crate, so the traced runner reproduces them here; the digest
//! check in `main` proves the reproduction matches `TrialSpec::execute`
//! bit for bit.

use std::panic::{catch_unwind, AssertUnwindSafe};

use agilla::scenario::{ClosedLoop, InjectionSite, Perturbation};
use agilla::{AdmissionReason, AgillaError, AgillaNetwork, Rejections, Trial, TrialStep};
use wsn_common::{AgentId, Location};
use wsn_sim::{SimDuration, SimTime};

use crate::clock::now_ns;
use crate::fold::{fold, scripted_arrivals, TrialStats};
use crate::workloads::TrialDef;

/// One pass over a batch.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per-trial statistics, in batch order.
    pub stats: Vec<TrialStats>,
    /// Per-trial host time of the program's work (compile, execute, drop),
    /// ns.
    pub trial_ns: Vec<u64>,
    /// Host time of the whole pass, fold included, ns.
    pub pass_ns: u64,
}

/// Stats for a trial that panicked: its scripted arrivals all count as
/// attempted and failed.
fn panicked(def: &TrialDef) -> TrialStats {
    let offered = scripted_arrivals(&def.spec.compile());
    TrialStats {
        offered,
        ops: offered,
        failures: vec!["the trial panicked".into()],
        ..TrialStats::default()
    }
}

/// Runs every trial through `ScenarioSpec::compile` and
/// `TrialSpec::execute` — the path the figure binaries take.
pub fn untraced(batch: &[TrialDef]) -> Pass {
    let start = now_ns();
    let mut pass = Pass::default();
    for def in batch {
        let t0 = now_ns();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let spec = def.spec.compile();
            let trial = spec.execute();
            (spec, trial)
        }));
        let work = now_ns() - t0;
        match run {
            Ok((spec, mut trial)) => {
                pass.stats.push(fold(def, &spec, &mut trial, None));
                let t1 = now_ns();
                drop(trial);
                pass.trial_ns.push(work + now_ns() - t1);
            }
            Err(_) => {
                pass.stats.push(panicked(def));
                pass.trial_ns.push(work);
            }
        }
    }
    pass.pass_ns = now_ns() - start;
    pass
}

/// Compiles and builds every trial without running it: the set-up the
/// `setup_s` metric times. Returns the summed host time, ns.
pub fn setup_only(batch: &[TrialDef]) -> u64 {
    let mut total = 0;
    for def in batch {
        let t0 = now_ns();
        let net = def.spec.compile().build();
        total += now_ns() - t0;
        drop(net);
    }
    total
}

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One whole trial; the parent of every other span.
    Trial,
    /// `ScenarioSpec::compile`.
    Compile,
    /// `TrialSpec::build`.
    Build,
    /// One inject call (scripted or closed-loop).
    Inject,
    /// One `AgillaNetwork::run_for`.
    Run,
    /// One closed-loop completion check.
    Poll,
    /// Any other step: app registration, log clear, perturbation.
    OtherStep,
    /// Result extraction: the one-pass fold.
    Extract,
}

impl SpanName {
    /// Every span name, in report order.
    pub const ALL: [SpanName; 8] = [
        SpanName::Trial,
        SpanName::Compile,
        SpanName::Build,
        SpanName::Inject,
        SpanName::Run,
        SpanName::Poll,
        SpanName::OtherStep,
        SpanName::Extract,
    ];

    /// The span's printed name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Trial => "trial",
            SpanName::Compile => "compile",
            SpanName::Build => "build",
            SpanName::Inject => "inject",
            SpanName::Run => "run",
            SpanName::Poll => "poll",
            SpanName::OtherStep => "other_step",
            SpanName::Extract => "extract",
        }
    }
}

/// One recorded span. Every span but a trial's has that trial as parent;
/// `id` is the trial's index in the run (pass × batch length + index).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What it wraps.
    pub name: SpanName,
    /// The trial it belongs to.
    pub id: u32,
    /// Start, host-clock ns.
    pub start_ns: u64,
    /// End, host-clock ns.
    pub end_ns: u64,
}

/// In-memory span store, written out when the run ends.
#[derive(Debug, Default)]
pub struct Spans {
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// Runs `f` inside a span.
    fn time<T>(&mut self, name: SpanName, id: u32, f: impl FnOnce() -> T) -> T {
        let start_ns = now_ns();
        let out = f();
        let end_ns = now_ns();
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns,
        });
        out
    }

    /// Self time per span name, ns: a span's duration minus the part its
    /// children cover. Only trials have children here.
    pub fn self_ns(spans: &[Span]) -> [u64; SpanName::ALL.len()] {
        let mut out = [0i64; SpanName::ALL.len()];
        for s in spans {
            let i = SpanName::ALL
                .iter()
                .position(|n| *n == s.name)
                .expect("a known span");
            let d = (s.end_ns - s.start_ns) as i64;
            out[i] += d;
            if s.name != SpanName::Trial {
                out[0] -= d;
            }
        }
        out.map(|v| v.max(0) as u64)
    }
}

/// Counts `e` as a refusal, or returns false when it is a harness bug —
/// the rule `TrialSpec::execute` applies.
fn absorb(rejected: &mut Rejections, e: &AgillaError) -> bool {
    match e {
        AgillaError::Admission { reason } => {
            match reason {
                AdmissionReason::NoSlots => rejected.no_slots += 1,
                AdmissionReason::QuotaExceeded => rejected.quota += 1,
                AdmissionReason::DeadMote => rejected.dead_mote += 1,
            }
            true
        }
        AgillaError::Unverifiable { .. } => {
            rejected.unverifiable += 1;
            true
        }
        _ => false,
    }
}

/// `Perturbation::apply`, reproduced.
fn perturb(net: &mut AgillaNetwork, p: &Perturbation) {
    let resolve = |net: &AgillaNetwork, loc: Location| {
        net.node_at(loc)
            .unwrap_or_else(|| panic!("perturbation addresses no node at {loc}"))
    };
    match p {
        Perturbation::KillNode(loc) => {
            let node = resolve(net, *loc);
            net.kill_node(node);
        }
        Perturbation::DropLink(a, b) => {
            let (a, b) = (resolve(net, *a), resolve(net, *b));
            net.drop_link(a, b);
        }
        Perturbation::HealLink(a, b) => {
            let (a, b) = (resolve(net, *a), resolve(net, *b));
            net.heal_link(a, b);
        }
        Perturbation::SetLoss(loss) => net.set_loss_model(loss.clone()),
    }
}

/// A closed-loop client's live state.
struct Client {
    spec: ClosedLoop,
    issued: u32,
    outstanding: Option<AgentId>,
    ready_at: SimTime,
}

/// One traced trial: the state `TrialSpec::execute` keeps, plus the span
/// store and the trial's id.
struct Traced<'a> {
    spans: &'a mut Spans,
    id: u32,
    net: AgillaNetwork,
    agents: Vec<AgentId>,
    rejected: Rejections,
    clients: Vec<Client>,
    client_issues: u64,
}

impl Traced<'_> {
    fn inject(&mut self, at: Option<Location>, source: &str, app: Option<agilla::AppId>) {
        let net = &mut self.net;
        let outcome = self
            .spans
            .time(SpanName::Inject, self.id, || match (at, app) {
                (None, None) => net.inject_source(source),
                (Some(loc), None) => net.inject_source_at(loc, source),
                (None, Some(a)) => net.inject_source_as(source, a),
                (Some(loc), Some(a)) => net.inject_source_at_as(loc, source, a),
            });
        match outcome {
            Ok(id) => self.agents.push(id),
            Err(e) => {
                if !absorb(&mut self.rejected, &e) {
                    panic!("scenario arrival failed to assemble: {e}");
                }
            }
        }
    }

    fn run_for(&mut self, d: SimDuration) {
        let net = &mut self.net;
        self.spans.time(SpanName::Run, self.id, || net.run_for(d));
    }

    /// `run_with_clients`, reproduced: with clients, time advances in 50 ms
    /// quanta with a completion poll at each boundary.
    fn run(&mut self, d: SimDuration) {
        if self.clients.is_empty() {
            self.run_for(d);
            return;
        }
        let quantum = SimDuration::from_millis(50);
        let end = self.net.now() + d;
        loop {
            self.poll();
            let now = self.net.now();
            if now >= end {
                break;
            }
            let remaining = SimDuration::from_micros(end.as_micros() - now.as_micros());
            self.run_for(if remaining < quantum {
                remaining
            } else {
                quantum
            });
        }
    }

    /// `poll_clients`, reproduced.
    fn poll(&mut self) {
        let now = self.net.now();
        for i in 0..self.clients.len() {
            if let Some(agent) = self.clients[i].outstanding {
                let net = &self.net;
                let done = self.spans.time(SpanName::Poll, self.id, || {
                    net.log().finished_at(agent).is_some()
                });
                if done {
                    let c = &mut self.clients[i];
                    c.outstanding = None;
                    c.ready_at = now + c.spec.think;
                }
            }
            let c = &self.clients[i];
            if c.outstanding.is_none() && c.issued < c.spec.max_issues && now >= c.ready_at {
                let (site, source) = (c.spec.site, c.spec.source.clone());
                let net = &mut self.net;
                let outcome = self.spans.time(SpanName::Inject, self.id, || match site {
                    InjectionSite::Base => net.inject_source(&source),
                    InjectionSite::At(loc) => net.inject_source_at(loc, &source),
                });
                self.client_issues += 1;
                let c = &mut self.clients[i];
                c.issued += 1;
                match outcome {
                    Ok(id) => {
                        self.agents.push(id);
                        c.outstanding = Some(id);
                    }
                    Err(e) => {
                        if !absorb(&mut self.rejected, &e) {
                            panic!("closed-loop client agent failed to assemble: {e}");
                        }
                        c.ready_at = now + c.spec.think;
                    }
                }
            }
        }
    }
}

/// Runs every trial step by step, each call into the program wrapped in a
/// span whose parent is the trial. `first_id` numbers the pass's trials.
pub fn traced(batch: &[TrialDef], spans: &mut Spans, first_id: u32) -> Pass {
    let start = now_ns();
    let mut pass = Pass::default();
    for (i, def) in batch.iter().enumerate() {
        let id = first_id + i as u32;
        let trial_start = now_ns();
        let run = catch_unwind(AssertUnwindSafe(|| traced_trial(def, spans, id)));
        match run {
            Ok((stats, work_ns)) => {
                pass.stats.push(stats);
                pass.trial_ns.push(work_ns);
            }
            Err(_) => {
                pass.stats.push(panicked(def));
                pass.trial_ns.push(now_ns() - trial_start);
            }
        }
        let end_ns = now_ns();
        spans.spans.push(Span {
            name: SpanName::Trial,
            id,
            start_ns: trial_start,
            end_ns,
        });
    }
    pass.pass_ns = now_ns() - start;
    pass
}

/// One traced trial; returns its stats and the host time of the program's
/// work (every span but the fold), ns.
fn traced_trial(def: &TrialDef, spans: &mut Spans, id: u32) -> (TrialStats, u64) {
    let first_span = spans.spans.len();
    let spec = spans.time(SpanName::Compile, id, || def.spec.compile());
    let net = spans.time(SpanName::Build, id, || spec.build());
    let mut t = Traced {
        spans: &mut *spans,
        id,
        net,
        agents: Vec::new(),
        rejected: Rejections::default(),
        clients: spec
            .clients
            .iter()
            .map(|c| Client {
                spec: c.clone(),
                issued: 0,
                outstanding: None,
                ready_at: SimTime::ZERO + c.start,
            })
            .collect(),
        client_issues: 0,
    };
    for step in &spec.steps {
        match step {
            TrialStep::Inject { at, source } => {
                let before = t.agents.len();
                t.inject(*at, source, None);
                assert!(t.agents.len() > before, "trial agent injects");
            }
            TrialStep::TryInject { at, source } => t.inject(*at, source, None),
            TrialStep::TryInjectAs { at, source, app } => t.inject(*at, source, Some(*app)),
            TrialStep::Run(d) => t.run(*d),
            TrialStep::RegisterApp(profile) => {
                let net = &mut t.net;
                t.spans.time(SpanName::OtherStep, id, || {
                    net.register_app(profile.clone())
                });
            }
            TrialStep::ClearLog => {
                let net = &mut t.net;
                t.spans.time(SpanName::OtherStep, id, || net.clear_log());
            }
            TrialStep::Perturb(p) => {
                let net = &mut t.net;
                t.spans.time(SpanName::OtherStep, id, || perturb(net, p));
            }
        }
    }
    let client_issues = t.client_issues;
    let mut trial = Trial {
        net: t.net,
        agents: t.agents,
        rejected: t.rejected,
    };
    let stats = spans.time(SpanName::Extract, id, || {
        fold(def, &spec, &mut trial, Some(client_issues))
    });
    let work: u64 = spans.spans[first_span..]
        .iter()
        .filter(|s| s.name != SpanName::Extract)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let t1 = now_ns();
    drop(trial);
    (stats, work + now_ns() - t1)
}
