//! Trial runners for the paper's experiments, built on the SimEngine:
//! every figure is a [`TrialExecutor::sweep`] over a few points (hop
//! counts, rates, speeds), whose trial builds one
//! `agilla::scenario::ScenarioSpec` — substrate + seed + traffic +
//! scheduled events — executes it, and returns what the figure reads from
//! it. Each point's results come back in trial order and fold into one
//! row, so any thread count produces byte-identical figures (a tier-1
//! test asserts exactly that), and because a scenario compiles to the
//! same `TrialSpec` step script the figures always ran, the port from
//! hand-written step scripts changed no output byte.

use agilla::scenario::{
    AppMix, AppSpec, ClosedLoop, OneShot, Periodic, Perturbation, Poisson, ScenarioSpec,
};
use agilla::workload;
use agilla::{
    AgillaConfig, AgillaNetwork, AppId, AppProfile, AppQuota, DistanceLoss, EnergyConfig,
    Environment, FireModel, Motion, Priority, TenantApp, Testbed, TopologySpec, Trial,
};
use agilla_vm::exec::{run_to_effect, StepResult, TestHost};
use agilla_vm::isa::Opcode;
use agilla_vm::{asm, AgentState};
use wsn_common::{AgentId, Location};
use wsn_radio::{Connectivity, EnergyBreakdown, EnergyState, LossModel, Topology};
use wsn_sim::{Histogram, LatencyRecorder, SimDuration, SimTime};

use crate::engine::TrialExecutor;

/// Results for one hop count in the Fig. 9/10 experiments.
#[derive(Debug, Clone)]
pub struct HopResult {
    /// Hop distance from the base station.
    pub hops: u32,
    /// `smove` success fraction (failures halved, per the paper's protocol).
    pub smove_success: f64,
    /// Mean one-way `smove` latency over successful round trips, ms.
    pub smove_latency_ms: f64,
    /// Standard deviation of the one-way latency, ms.
    pub smove_latency_sd_ms: f64,
    /// `rout` success fraction (including retransmission rescues).
    pub rout_success: f64,
    /// Mean `rout` completion latency over first-attempt successes, ms.
    pub rout_latency_ms: f64,
    /// Standard deviation of the first-attempt latency, ms.
    pub rout_latency_sd_ms: f64,
    /// Total `rout` request retransmissions across the trials (how hard the
    /// reliable-session layer worked at this hop count).
    pub rout_retx: u64,
    /// Total duplicate requests answered from the server's completed-op
    /// cache across the trials (each one a suppressed duplicate execution).
    pub rout_reacks: u64,
}

/// What one Fig. 9/10 trial measured, extracted on the worker thread.
#[derive(Debug)]
struct Fig9Outcome {
    ok: bool,
    retransmitted: bool,
    latency: Option<SimDuration>,
    /// `remote.retx` and `remote.reack` (zero for smove trials).
    retx: u64,
    reacks: u64,
}

fn run_smove_trial(spec: &ScenarioSpec, target: Location) -> Fig9Outcome {
    let trial = spec.execute();
    let net = &trial.net;
    let id = trial.agent(0);
    let target_node = net.node_at(target).expect("target exists");
    let reached = net.log().arrived(id, target_node);
    let returned = reached && net.log().arrived(id, net.base());
    let latency = if reached && returned {
        let injected = net.log().injected_at(id).expect("injected");
        let back = *net
            .log()
            .arrivals(id, net.base())
            .last()
            .expect("return arrival");
        // Halve: one-way latency.
        Some(SimDuration::from_micros(
            back.since(injected).as_micros() / 2,
        ))
    } else {
        None
    };
    Fig9Outcome {
        ok: reached && returned,
        retransmitted: false,
        latency,
        retx: 0,
        reacks: 0,
    }
}

fn run_rout_trial(spec: &ScenarioSpec) -> Fig9Outcome {
    let trial = spec.execute();
    let net = &trial.net;
    let id = trial.agent(0);
    let ops = net.log().remote_ops_of(id);
    let (ok, retransmitted, latency) =
        match ops.first().and_then(|op| net.log().remote_completion(*op)) {
            Some((true, retransmitted, done)) => {
                let latency = if retransmitted {
                    None
                } else {
                    let issued = net.log().remote_issued_at(ops[0]).expect("issued");
                    Some(done.since(issued))
                };
                (true, retransmitted, latency)
            }
            _ => (false, false, None),
        };
    Fig9Outcome {
        ok,
        retransmitted,
        latency,
        retx: net.metrics().counter("remote.retx"),
        reacks: net.metrics().counter("remote.reack"),
    }
}

/// Runs the paper's Fig. 8 test agents `trials` times per hop count on the
/// lossy 5×5 testbed, reproducing Figs. 9 and 10, fanning independent
/// trials across the executor's workers.
///
/// The protocol follows Section 4: agents are injected at the base station;
/// the smove agent moves to `(h,1)` and back (results halved "to account for
/// the double migration"); the rout agent drops a tuple at `(h,1)`.
pub fn fig9_fig10(
    trials: u32,
    base_seed: u64,
    config: &AgillaConfig,
    engine: &mut TrialExecutor,
) -> Vec<HopResult> {
    const RUN: SimDuration = SimDuration::from_micros(20_000_000);
    let bed = Testbed::lossy_5x5(config.clone(), base_seed);
    // Two points per hop count: smove, then rout.
    let points: Vec<(i16, bool)> = (1..=5i16).flat_map(|h| [(h, true), (h, false)]).collect();
    let outcomes = engine.sweep(&points, trials, |_, &(h, smove), t| {
        let target = Location::new(h, 1);
        if smove {
            let home = Location::new(0, 1);
            let spec = bed
                .scenario(u64::from(t) * 65_537 + h as u64)
                .traffic(OneShot::at_base(workload::smove_test_agent(target, home)))
                .horizon(RUN);
            run_smove_trial(&spec, target)
        } else {
            let spec = bed
                .scenario(u64::from(t) * 131_071 + 7 * h as u64 + 3)
                .traffic(OneShot::at_base(workload::rout_test_agent(target)))
                .horizon(RUN);
            run_rout_trial(&spec)
        }
    });

    outcomes
        .chunks(2)
        .zip(1..=5u32)
        .map(|(pair, h)| {
            let (smoves, routs) = (&pair[0], &pair[1]);
            let mut round_trip_failures = 0u32;
            let mut smove_lat = LatencyRecorder::new();
            for o in smoves {
                match o.latency {
                    Some(d) if o.ok => smove_lat.record(d),
                    _ => round_trip_failures += 1,
                }
            }
            // "smove results are halved to account for the double migration."
            let smove_success = 1.0 - (f64::from(round_trip_failures) / 2.0) / f64::from(trials);

            let mut rout_ok = 0u32;
            let mut rout_lat = LatencyRecorder::new();
            for o in routs {
                if o.ok {
                    rout_ok += 1;
                    if !o.retransmitted {
                        if let Some(d) = o.latency {
                            rout_lat.record(d);
                        }
                    }
                }
            }

            HopResult {
                hops: h,
                smove_success: smove_success.clamp(0.0, 1.0),
                smove_latency_ms: smove_lat.mean().as_micros() as f64 / 1e3,
                smove_latency_sd_ms: smove_lat.stddev().as_micros() as f64 / 1e3,
                rout_success: f64::from(rout_ok) / f64::from(trials),
                rout_latency_ms: rout_lat.mean().as_micros() as f64 / 1e3,
                rout_latency_sd_ms: rout_lat.stddev().as_micros() as f64 / 1e3,
                rout_retx: total(routs, |o| o.retx),
                rout_reacks: total(routs, |o| o.reacks),
            }
        })
        .collect()
}

/// The seven remote operations of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteOpKind {
    /// `rout` to a one-hop neighbor.
    Rout,
    /// `rinp` from a one-hop neighbor.
    Rinp,
    /// `rrdp` from a one-hop neighbor.
    Rrdp,
    /// `smove` one hop.
    Smove,
    /// `wmove` one hop.
    Wmove,
    /// `sclone` one hop.
    Sclone,
    /// `wclone` one hop.
    Wclone,
}

impl RemoteOpKind {
    /// All of Fig. 11's operations, in plot order.
    pub const ALL: [RemoteOpKind; 7] = [
        RemoteOpKind::Rout,
        RemoteOpKind::Rinp,
        RemoteOpKind::Rrdp,
        RemoteOpKind::Smove,
        RemoteOpKind::Wmove,
        RemoteOpKind::Sclone,
        RemoteOpKind::Wclone,
    ];

    /// The operation's display name.
    pub fn name(self) -> &'static str {
        match self {
            RemoteOpKind::Rout => "rout",
            RemoteOpKind::Rinp => "rinp",
            RemoteOpKind::Rrdp => "rrdp",
            RemoteOpKind::Smove => "smove",
            RemoteOpKind::Wmove => "wmove",
            RemoteOpKind::Sclone => "sclone",
            RemoteOpKind::Wclone => "wclone",
        }
    }

    fn is_migration(self) -> bool {
        matches!(
            self,
            RemoteOpKind::Smove | RemoteOpKind::Wmove | RemoteOpKind::Sclone | RemoteOpKind::Wclone
        )
    }
}

/// One bar of Fig. 11.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// The operation.
    pub op: RemoteOpKind,
    /// Mean one-hop latency, ms.
    pub mean_ms: f64,
    /// Standard deviation, ms.
    pub sd_ms: f64,
    /// Successful trials used.
    pub samples: usize,
}

/// Builds the scenario for one Fig. 11 trial: the measured operation as a
/// one-shot, with tuple pre-seeding expressed as setup traffic before the
/// measurement boundary where the operation probes a tuple.
fn fig11_spec(bed: &Testbed, op: RemoteOpKind, op_idx: usize, t: u32) -> ScenarioSpec {
    let target = Location::new(1, 1);
    let spec = bed.scenario((u64::from(t) * 2_097_143) ^ (op_idx as u64 * 7_919));
    let src = match op {
        RemoteOpKind::Rout => workload::rout_test_agent(target),
        RemoteOpKind::Rinp => format!(
            "pusht value\npushc 1\npushloc {} {}\nrinp\nhalt",
            target.x, target.y
        ),
        RemoteOpKind::Rrdp => format!(
            "pusht value\npushc 1\npushloc {} {}\nrrdp\nhalt",
            target.x, target.y
        ),
        _ => workload::one_way_agent(op.name(), target),
    };
    const MEASURED: SimDuration = SimDuration::from_micros(10_000_000);
    if matches!(op, RemoteOpKind::Rinp | RemoteOpKind::Rrdp) {
        // Seed the target space with the probed tuple, then measure.
        const SETUP: SimDuration = SimDuration::from_micros(1_000_000);
        spec.traffic(OneShot::at(target, "pushc 1\npushc 1\nout\nhalt"))
            .traffic(OneShot::at_base(src).delayed(SETUP))
            .measure_from(SETUP)
            .horizon(SETUP + MEASURED)
    } else {
        spec.traffic(OneShot::at_base(src)).horizon(MEASURED)
    }
}

fn fig11_latency(op: RemoteOpKind, spec: &ScenarioSpec) -> Option<SimDuration> {
    let target = Location::new(1, 1);
    let trial = spec.execute();
    let net = &trial.net;
    let id = *trial.agents.last().expect("op agent injected");
    if op.is_migration() {
        let target_node = net.node_at(target).expect("target");
        // For clones the arriving agent has a fresh id: take the first
        // arrival at the target.
        let arrival = net.log().records().iter().find_map(|r| match r {
            agilla::stats::OpRecord::MigrationArrived { node, at, .. } if *node == target_node => {
                Some(*at)
            }
            _ => None,
        });
        match (net.log().injected_at(id), arrival) {
            (Some(injected), Some(arrived)) => Some(arrived.since(injected)),
            _ => None,
        }
    } else {
        let ops = net.log().remote_ops_of(id);
        match ops.first().and_then(|o| net.log().remote_completion(*o)) {
            Some((true, _, done)) => {
                let issued = net.log().remote_issued_at(ops[0]).expect("issued");
                Some(done.since(issued))
            }
            _ => None,
        }
    }
}

/// Measures the one-hop latency of every remote operation (Fig. 11):
/// `trials` runs each on the lossless testbed (the paper's bars measure
/// execution time, not loss), fanned across the executor's workers.
pub fn fig11_one_hop(
    trials: u32,
    base_seed: u64,
    config: &AgillaConfig,
    engine: &mut TrialExecutor,
) -> Vec<Fig11Row> {
    let bed = Testbed::reliable_5x5(config.clone(), base_seed);
    let latencies = engine.sweep(&RemoteOpKind::ALL, trials, |op_idx, &op, t| {
        fig11_latency(op, &fig11_spec(&bed, op, op_idx, t))
    });

    RemoteOpKind::ALL
        .iter()
        .zip(&latencies)
        .map(|(&op, op_latencies)| {
            let mut lat = LatencyRecorder::new();
            for &d in op_latencies.iter().flatten() {
                lat.record(d);
            }
            Fig11Row {
                op,
                mean_ms: lat.mean().as_micros() as f64 / 1e3,
                sd_ms: lat.stddev().as_micros() as f64 / 1e3,
                samples: lat.len(),
            }
        })
        .collect()
}

/// One bar of Fig. 12.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Instruction name as the figure labels it.
    pub name: &'static str,
    /// Simulated mote cost from the calibrated model, µs.
    pub model_us: u64,
    /// Wall-clock cost of our implementation executing it, ns/instr —
    /// `None` when wall timing was suppressed (`--no-wall`), which keeps
    /// the figure's output deterministic for cross-run diffs.
    pub wall_ns: Option<f64>,
}

/// Fig. 12's instruction list, with a closure building a one-shot agent that
/// executes the instruction in a steady state.
fn fig12_programs() -> Vec<(&'static str, Opcode, String)> {
    vec![
        ("loc", Opcode::Loc, "loc\npop".into()),
        ("aid", Opcode::Aid, "aid\npop".into()),
        ("numnbrs", Opcode::Numnbrs, "numnbrs\npop".into()),
        ("randnbr", Opcode::Randnbr, "randnbr\nclear".into()),
        ("getnbr", Opcode::Getnbr, "pushc 0\ngetnbr\npop".into()),
        ("pushrt", Opcode::Pushrt, "pushrt temperature\npop".into()),
        ("pusht", Opcode::Pusht, "pusht value\npop".into()),
        ("pushn", Opcode::Pushn, "pushn fir\npop".into()),
        ("pushcl", Opcode::Pushcl, "pushcl 300\npop".into()),
        ("pushloc", Opcode::Pushloc, "pushloc 1 1\npop".into()),
        (
            "regrxn",
            Opcode::Regrxn,
            "pushn fir\npushc 1\npushc 0\nregrxn".into(),
        ),
        (
            "deregrxn",
            Opcode::Deregrxn,
            "pushn fir\npushc 1\nderegrxn".into(),
        ),
        ("out", Opcode::Out, "pushc 1\npushc 1\nout".into()),
        (
            "inp (empty TS)",
            Opcode::Inp,
            "pusht location\npushc 1\ninp".into(),
        ),
        (
            "rdp (empty TS)",
            Opcode::Rdp,
            "pusht location\npushc 1\nrdp".into(),
        ),
        (
            "in",
            Opcode::In,
            "pushc 1\npushc 1\nout\npusht value\npushc 1\nin\npop\npop".into(),
        ),
        (
            "rd",
            Opcode::Rd,
            "pushc 1\npushc 1\nout\npusht value\npushc 1\nrd\npop\npop".into(),
        ),
        (
            "tcount",
            Opcode::Tcount,
            "pusht value\npushc 1\ntcount\npop".into(),
        ),
    ]
}

/// Reproduces Fig. 12: per-instruction latency. The *model* column is what
/// drives the simulator's virtual clock (calibrated to the paper's three
/// classes); the *wall* column times this crate's real interpreter, the
/// analogue of the paper timing its mote interpreter. Wall timing is
/// inherently serial (parallel workers would contend for the core and skew
/// it) and is skipped entirely when `measure_wall` is false.
pub fn fig12_local_ops(reps: u32, measure_wall: bool) -> Vec<Fig12Row> {
    fig12_programs()
        .into_iter()
        .map(|(name, op, snippet)| {
            // Build an agent that repeats the snippet in a loop; time many
            // full program executions.
            let src = format!("{snippet}\nhalt");
            let program = asm::assemble(&src).expect("fig12 snippet assembles");
            // Instructions per execution, for the per-instruction average.
            let per_run = {
                let code = program.code();
                let mut n = 0u64;
                let mut pc = 0usize;
                while pc < code.len() {
                    let (_, len) = agilla_vm::isa::Instruction::decode(code, pc as u16)
                        .expect("valid program");
                    n += 1;
                    pc += len;
                }
                n
            };
            let wall_ns = measure_wall.then(|| {
                let start = std::time::Instant::now();
                let mut instrs = 0u64;
                for _ in 0..reps {
                    // Fresh host per repetition: reaction registrations and
                    // inserted tuples must not accumulate across runs.
                    let mut host = TestHost::at(Location::new(1, 1));
                    host.neighbors = vec![Location::new(1, 2), Location::new(2, 1)];
                    host.sensor_values
                        .insert(wsn_common::SensorType::Temperature, 70);
                    let mut agent =
                        AgentState::with_code(AgentId(1), program.code().to_vec()).expect("agent");
                    loop {
                        match run_to_effect(&mut agent, &mut host, 64).expect("fig12 agent runs") {
                            StepResult::Halted => break,
                            StepResult::Blocked => unreachable!("snippets never block"),
                            _ => {}
                        }
                    }
                    instrs += per_run;
                }
                start.elapsed().as_nanos() as f64 / instrs as f64
            });
            Fig12Row {
                name,
                model_us: op.cost_us(),
                wall_ns,
            }
        })
        .collect()
}

// --- fig_energy: the energy & lifetime benchmark family ---------------------

/// One row of the joules-per-operation table: the marginal network-wide
/// energy one operation costs on the lossless testbed, split by where the
/// charge landed.
#[derive(Debug, Clone)]
pub struct EnergyOpRow {
    /// Operation name.
    pub op: &'static str,
    /// Mean marginal energy per completed operation, millijoules.
    pub total_mj: f64,
    /// Radio share (tx + rx + carrier sensing), mJ.
    pub radio_mj: f64,
    /// Compute share (cpu + sensor), mJ.
    pub cpu_mj: f64,
    /// Trials where the operation completed and was measured.
    pub samples: usize,
}

fn radio_j(b: &EnergyBreakdown) -> f64 {
    b.state(EnergyState::Tx) + b.state(EnergyState::Rx) + b.state(EnergyState::Listen)
}

fn cpu_j(b: &EnergyBreakdown) -> f64 {
    b.state(EnergyState::Cpu) + b.state(EnergyState::Sensor)
}

fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// The four measured operations of the joules-per-op table.
fn energy_ops(target: Location) -> [(&'static str, String); 4] {
    [
        ("smove (1 hop)", workload::one_way_agent("smove", target)),
        ("sclone (1 hop)", workload::one_way_agent("sclone", target)),
        ("rout (1 hop)", workload::rout_test_agent(target)),
        (
            "rrdp (1 hop, miss)",
            format!(
                "pusht value\npushc 1\npushloc {} {}\nrrdp\nhalt",
                target.x, target.y
            ),
        ),
    ]
}

/// Measures joules per migration and per remote tuple-space operation
/// (fig_energy, left table): for each trial, a control run (no agent) and an
/// op run share the seed and duration on a quiet two-node link, so the idle
/// baseline — identical in both — cancels out of the difference, leaving the
/// marginal cost of the operation's frames and execution. Beacons are
/// stretched out of the measurement window entirely (they would otherwise
/// jitter across the boundary and drown a ~2 mJ operation in ±1-beacon
/// noise); the median over trials guards whatever residue remains. One
/// worker handles a whole trial (control + all four ops share its seed), so
/// trials parallelize freely across the executor's workers.
pub fn fig_energy_per_op(
    trials: u32,
    base_seed: u64,
    engine: &mut TrialExecutor,
) -> Vec<EnergyOpRow> {
    const RUN: SimDuration = SimDuration::from_micros(10_000_000);
    let target = Location::new(2, 1);
    let config = AgillaConfig {
        energy: EnergyConfig::with_battery(1_000.0),
        beacon_period: SimDuration::from_secs(3_600),
        ..AgillaConfig::default()
    };
    let bed = Testbed::line(2, config, base_seed);
    let trial_indices: Vec<u32> = (0..trials).collect();

    // Per trial: for each op, the (total, radio, cpu) mJ deltas over the
    // shared-seed control run — or `None` when the op did not complete.
    type OpDeltas = [Option<(f64, f64, f64)>; 4];
    let per_trial: Vec<OpDeltas> = engine.run(&trial_indices, |&t| {
        let mix = u64::from(t) * 514_229 + 1;
        // Control: the same network idling for the same duration. Meters
        // integrate idle drain lazily (on events), so bring every meter up
        // to the horizon before reading — without this, both runs' idle
        // baselines would be cut off at their last *event* rather than the
        // shared deadline, and the difference would smuggle in idle drain.
        let mut control = bed.scenario(mix).horizon(RUN).execute();
        control.net.record_energy_metrics();
        let baseline = control
            .net
            .medium()
            .energy()
            .expect("energy enabled")
            .totals();

        let ops = energy_ops(target);
        let mut deltas: OpDeltas = [None; 4];
        for (i, (_, src)) in ops.iter().enumerate() {
            let mut trial = bed
                .scenario(mix)
                .traffic(OneShot::at_base(src.clone()))
                .horizon(RUN)
                .execute();
            let net = &trial.net;
            let id = trial.agent(0);
            let completed = if i < 2 {
                // Clones arrive under a fresh id: any arrival at the target
                // counts.
                let target_node = net.node_at(target).expect("target");
                net.log().records().iter().any(|r| {
                    matches!(r, agilla::stats::OpRecord::MigrationArrived { node, .. }
                        if *node == target_node)
                })
            } else {
                // A probe miss (rrdp on an empty space) still completes a
                // full request/reply exchange; on the lossless link,
                // completion is the measurement criterion.
                let op_ids = net.log().remote_ops_of(id);
                op_ids
                    .first()
                    .and_then(|o| net.log().remote_completion(*o))
                    .is_some()
            };
            if !completed {
                continue;
            }
            trial.net.record_energy_metrics(); // advance meters to the horizon
            let totals = trial
                .net
                .medium()
                .energy()
                .expect("energy enabled")
                .totals();
            deltas[i] = Some((
                (totals.total() - baseline.total()) * 1e3,
                (radio_j(&totals) - radio_j(&baseline)) * 1e3,
                (cpu_j(&totals) - cpu_j(&baseline)) * 1e3,
            ));
        }
        deltas
    });

    // Deterministic fold in trial order, exactly as the serial loop pushed.
    let ops = energy_ops(target);
    let mut samples: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> =
        ops.iter().map(|_| Default::default()).collect();
    for deltas in &per_trial {
        for (i, d) in deltas.iter().enumerate() {
            if let Some((total, radio, cpu)) = d {
                samples[i].0.push(*total);
                samples[i].1.push(*radio);
                samples[i].2.push(*cpu);
            }
        }
    }
    ops.iter()
        .zip(&mut samples)
        .map(|((name, _), (total, radio, cpu))| EnergyOpRow {
            op: name,
            total_mj: median(total),
            radio_mj: median(radio),
            cpu_mj: median(cpu),
            samples: total.len(),
        })
        .collect()
}

/// One row of the lifetime-vs-LPL-interval sweep.
#[derive(Debug, Clone)]
pub struct LifetimeRow {
    /// LPL check interval in ms; `None` is the always-listening baseline.
    pub lpl_interval_ms: Option<u64>,
    /// When the first battery died, seconds (the classic lifetime metric).
    pub first_death_s: Option<f64>,
    /// When half the network (13 of 26 motes) was dead, seconds.
    pub half_dead_s: Option<f64>,
    /// Deaths within the horizon.
    pub deaths: usize,
}

/// Sweeps network lifetime against the LPL check interval (fig_energy,
/// middle table): the 26-mote testbed idles on `battery_j` joules per mote
/// with beacons running, for up to `horizon_s` simulated seconds. Short
/// intervals cut idle listening ~40×; long intervals make every beacon pay a
/// preamble longer than its payload — the B-MAC optimum sits in between.
/// Each interval's run is independent, so the sweep fans across the
/// executor's workers.
pub fn fig_energy_lifetime(
    intervals_ms: &[Option<u64>],
    battery_j: f64,
    horizon_s: u64,
    seed: u64,
    engine: &mut TrialExecutor,
) -> Vec<LifetimeRow> {
    engine.run(intervals_ms, |&interval| {
        let energy = match interval {
            None => EnergyConfig::with_battery(battery_j),
            Some(ms) => EnergyConfig::with_lpl(battery_j, SimDuration::from_millis(ms)),
        };
        let config = AgillaConfig {
            energy,
            ..AgillaConfig::default()
        };
        // Stepped driving with an early exit predicate: build from the
        // scenario's substrate, then drive by hand.
        let mut net = Testbed::reliable_5x5(config, seed).scenario(0).build();
        let half = 13;
        let mut elapsed = 0u64;
        while elapsed < horizon_s {
            let step = (horizon_s - elapsed).min(20);
            net.run_for(SimDuration::from_micros(step * 1_000_000));
            elapsed += step;
            if net.log().node_deaths().len() >= half {
                break;
            }
        }
        let deaths = net.log().node_deaths();
        LifetimeRow {
            lpl_interval_ms: interval,
            first_death_s: deaths.first().map(|(_, at)| at.as_secs_f64()),
            half_dead_s: deaths.get(half - 1).map(|(_, at)| at.as_secs_f64()),
            deaths: deaths.len(),
        }
    })
}

/// One sample of the agents-alive-over-time curve.
#[derive(Debug, Clone, Copy)]
pub struct AliveSample {
    /// Simulated time, seconds.
    pub t_s: u64,
    /// Motes with charge left.
    pub nodes_alive: usize,
    /// Agents resident on living motes.
    pub agents_alive: usize,
    /// Batteries depleted so far.
    pub deaths: usize,
}

/// The depletion case study (fig_energy, right table): FIREDETECTOR agents
/// patrol on small batteries while a FIRETRACKER waits on the mains-powered
/// base station; a fire ignites at t=30 s. As motes brown out, the network
/// loses nodes but the application outlives them — the tracker re-clones to
/// each new alert (`hop_failover` carries its sessions around fresh holes).
/// One continuous sampled run: inherently serial.
pub fn fig_energy_agents_alive(
    battery_j: f64,
    horizon_s: u64,
    step_s: u64,
    seed: u64,
) -> Vec<AliveSample> {
    let config = AgillaConfig {
        hop_failover: true,
        energy: EnergyConfig::with_battery(battery_j),
        ..AgillaConfig::default()
    };
    let mut net: AgillaNetwork = Testbed::reliable_5x5(config, seed).scenario(0).build();
    // The base station is mains-powered: the application's anchor survives.
    net.set_battery(net.base(), 1e12);
    net.inject_source(workload::FIRE_TRACKER)
        .expect("inject tracker");
    let detector = workload::fire_detector(Location::new(0, 1), 16);
    for x in 1..=5i16 {
        net.inject_source_at(Location::new(x, 3), &detector)
            .expect("inject detector");
    }
    let ignition = SimTime::ZERO + SimDuration::from_micros(30_000_000);
    net.set_environment(Environment::with_fire(FireModel::new(
        Location::new(3, 3),
        ignition,
    )));

    let mut samples = Vec::new();
    let mut t = 0u64;
    while t < horizon_s {
        let step = step_s.min(horizon_s - t);
        net.run_for(SimDuration::from_micros(step * 1_000_000));
        t += step;
        let agents_alive: usize = net
            .medium()
            .topology()
            .nodes()
            .filter(|&id| !net.is_dead(id))
            .map(|id| net.node(id).agents().len())
            .sum();
        samples.push(AliveSample {
            t_s: t,
            nodes_alive: net.alive_nodes(),
            agents_alive,
            deaths: net.log().node_deaths().len(),
        });
    }
    samples
}

// --- fig_mix: multi-application arrival mixes under load --------------------

/// One row of the fig_mix load sweep: what the testbed did while a
/// weighted multi-application mix arrived at `rate_per_s`, averaged over
/// the sweep's trials.
#[derive(Debug, Clone)]
pub struct MixRow {
    /// Aggregate arrival rate of the mix, agents per simulated second.
    pub rate_per_s: f64,
    /// Agents admitted, summed across trials.
    pub injected: u64,
    /// Arrivals the middleware refused admission (all slots busy) —
    /// open-loop load shedding.
    pub rejected: u64,
    /// Hop migrations that completed (`migration.arrived`).
    pub migrations: u64,
    /// Remote tuple-space operations that completed successfully.
    pub remote_ok: u64,
    /// Agents that ran to completion (halted).
    pub halted: u64,
    /// Protocol frames per trial (beacons excluded), mean.
    pub frames_per_trial: f64,
}

/// What one fig_mix or loss-ramp trial measured, extracted on the worker
/// thread.
#[derive(Debug)]
struct MixOutcome {
    injected: u64,
    rejected: u64,
    /// `migration.arrived`.
    migrations: u64,
    /// `migration.retx`.
    mig_retx: u64,
    remote_ok: u64,
    halted: u64,
    /// Protocol frames (beacons excluded).
    frames: u64,
}

impl MixOutcome {
    fn of(trial: &Trial) -> Self {
        let net = &trial.net;
        let m = net.metrics();
        let mut remote_ok = 0u64;
        let mut halted = 0u64;
        for rec in net.log().records() {
            match rec {
                agilla::stats::OpRecord::RemoteCompleted { success: true, .. } => remote_ok += 1,
                agilla::stats::OpRecord::AgentHalted { .. } => halted += 1,
                _ => {}
            }
        }
        MixOutcome {
            injected: trial.agents.len() as u64,
            rejected: u64::from(trial.rejected.total()),
            migrations: m.counter("migration.arrived"),
            mig_retx: m.counter("migration.retx"),
            remote_ok,
            halted,
            frames: protocol_frames(net),
        }
    }
}

/// Frames a trial transmitted, beacons excluded.
fn protocol_frames(net: &AgillaNetwork) -> u64 {
    net.metrics().counter("radio.frames_sent") - net.metrics().counter("radio.beacons")
}

/// Sums one count over a point's trials.
fn total<O>(outcomes: &[O], count: impl Fn(&O) -> u64) -> u64 {
    outcomes.iter().map(count).sum()
}

/// Builds one fig_mix scenario: a Poisson multi-application mix — smove
/// round-trips, rout drops, and FIRETRACKER instances — arriving at the
/// base station at `rate_per_s`, while FIREDETECTOR patrols land near the
/// fire site, a fire ignites at t = 20 s (so trackers have alerts to chase),
/// and a mote on the bottom row dies at t = 30 s (mid-run churn the mix must
/// route around).
fn fig_mix_scenario(bed: &Testbed, rate_per_s: f64, seed_mix: u64) -> ScenarioSpec {
    const HORIZON: SimDuration = SimDuration::from_micros(60_000_000);
    let fire_at = Location::new(4, 3);
    let base = Location::new(0, 1);
    let ignition = SimTime::ZERO + SimDuration::from_micros(20_000_000);
    bed.scenario(seed_mix)
        .with_env(Environment::with_fire(FireModel::new(fire_at, ignition)))
        .traffic(AppMix::new(
            rate_per_s,
            vec![
                AppSpec::at_base(2, workload::smove_test_agent(Location::new(2, 1), base)),
                AppSpec::at_base(2, workload::rout_test_agent(Location::new(3, 2))),
                AppSpec::at_base(1, workload::FIRE_TRACKER),
            ],
        ))
        .traffic(Periodic::at(
            fire_at,
            SimDuration::from_micros(25_000_000),
            2,
            workload::fire_detector(base, 16),
        ))
        .event(
            SimDuration::from_micros(30_000_000),
            Perturbation::KillNode(Location::new(3, 1)),
        )
        .horizon(HORIZON)
}

/// Runs the multi-application mix sweep (fig_mix): for each arrival rate,
/// `trials` independent 60 s scenarios on the lossy testbed, fanned across
/// the executor's workers and summed in trial order.
pub fn fig_mix(
    trials: u32,
    base_seed: u64,
    config: &AgillaConfig,
    engine: &mut TrialExecutor,
) -> Vec<MixRow> {
    const RATES: [f64; 4] = [0.2, 0.5, 1.0, 2.0];
    let bed = Testbed::lossy_5x5(config.clone(), base_seed);
    let outcomes = engine.sweep(&RATES, trials, |r, &rate, t| {
        let seed_mix = u64::from(t) * 524_287 + r as u64 * 31;
        MixOutcome::of(&fig_mix_scenario(&bed, rate, seed_mix).execute())
    });
    RATES
        .iter()
        .zip(&outcomes)
        .map(|(&rate, o)| MixRow {
            rate_per_s: rate,
            injected: total(o, |o| o.injected),
            rejected: total(o, |o| o.rejected),
            migrations: total(o, |o| o.migrations),
            remote_ok: total(o, |o| o.remote_ok),
            halted: total(o, |o| o.halted),
            frames_per_trial: total(o, |o| o.frames) as f64 / f64::from(trials.max(1)),
        })
        .collect()
}

// --- fig_mix loss ramp: reliability while the channel degrades mid-run ------

/// One row of the fig_mix loss ramp: a fixed-rate application mix on the
/// calibrated testbed whose channel is swapped mid-run to a uniform loss
/// floor, summed across trials.
#[derive(Debug, Clone)]
pub struct LossRampRow {
    /// Uniform per-frame loss probability applied at the ramp point
    /// (the first row, 0.0, is the undisturbed calibrated channel).
    pub loss: f64,
    /// Agents admitted, summed across trials.
    pub injected: u64,
    /// Hop migrations that completed (`migration.arrived`).
    pub migrations: u64,
    /// Remote tuple-space operations that completed successfully.
    pub remote_ok: u64,
    /// Agents that ran to completion (halted).
    pub halted: u64,
    /// Migration retransmissions — how hard the protocol fought the loss.
    pub mig_retx: u64,
}

/// Runs the loss-ramp reliability sweep: the fig_mix application mix at a
/// fixed 0.5 agents/s on the calibrated lossy testbed, except that at
/// t = 20 s a [`Perturbation::SetLoss`] swaps the channel for a uniform
/// per-frame loss floor — 0 %, 10 %, 25 %, 50 % across rows. The first
/// row keeps the calibrated channel untouched, so it doubles as the
/// control: how much work survives as the channel degrades under the
/// *same* seeds and arrival process.
pub fn fig_mix_loss_ramp(
    trials: u32,
    base_seed: u64,
    config: &AgillaConfig,
    engine: &mut TrialExecutor,
) -> Vec<LossRampRow> {
    const LOSSES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];
    const RATE: f64 = 0.5;
    let bed = Testbed::lossy_5x5(config.clone(), base_seed);
    let outcomes = engine.sweep(&LOSSES, trials, |_, &loss, t| {
        // Same seed schedule for every loss level: the rows differ only in
        // the channel the perturbation installs.
        let mut spec = fig_mix_scenario(&bed, RATE, u64::from(t) * 524_287);
        if loss > 0.0 {
            spec = spec.event(
                SimDuration::from_micros(20_000_000),
                Perturbation::SetLoss(LossModel::uniform(loss)),
            );
        }
        MixOutcome::of(&spec.execute())
    });
    LOSSES
        .iter()
        .zip(&outcomes)
        .map(|(&loss, o)| LossRampRow {
            loss,
            injected: total(o, |o| o.injected),
            migrations: total(o, |o| o.migrations),
            remote_ok: total(o, |o| o.remote_ok),
            halted: total(o, |o| o.halted),
            mig_retx: total(o, |o| o.mig_retx),
        })
        .collect()
}

// --- fig_tenancy: per-app quotas, allocation, and priority preemption ------

/// One application's row in the fig_tenancy SLO table, summed (counters)
/// or folded (latency histograms) across trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenancyRow {
    /// App label, e.g. `app01 habitat`.
    pub app: String,
    /// Priority class the app registered with.
    pub priority: &'static str,
    /// Arrivals admitted (`tenancy.appNN.injected`), summed across trials.
    pub admitted: u64,
    /// Arrivals refused — quota, no slot, or unregistered after an
    /// allocation rejection (`tenancy.appNN.rejected`).
    pub rejected: u64,
    /// Resident agents evicted by a higher-priority arrival
    /// (`tenancy.appNN.evicted`).
    pub evicted: u64,
    /// Agents that ran to completion (`tenancy.appNN.completed`).
    pub completed: u64,
    /// Injection-to-halt latency p50, ms (histogram bucket upper bound).
    pub p50_ms: Option<u64>,
    /// Injection-to-halt latency p95, ms.
    pub p95_ms: Option<u64>,
    /// Injection-to-halt latency p99, ms.
    pub p99_ms: Option<u64>,
}

/// The fig_tenancy application set: `(id, name, priority label)` in
/// registration order. Shared by the harness fold and the table printer.
const TENANCY_APPS: [(u16, &str, &str); 4] = [
    (1, "habitat", "low"),
    (2, "telemetry", "normal"),
    (3, "fire", "high"),
    (4, "bulk", "normal"),
];

/// Builds one fig_tenancy scenario: four tenant applications sharing the
/// lossy 5×5 testbed through the base station, exercising each tenancy
/// mechanism.
///
/// * **habitat** (low priority, 2 agent slots per mote): Poisson sleeper
///   arrivals — the per-mote quota sheds roughly half the offered load,
///   and its residents are the preemption victims.
/// * **telemetry** (normal): periodic remote-`out` agents — short-lived
///   work whose latency the SLO table tracks.
/// * **fire** (high priority): a burst of sleeper arrivals from t = 10 s
///   hits the already-full base mote and preempts lower-priority
///   residents instead of being turned away.
/// * **bulk** (normal): a long straight-line program whose static cost
///   bound exceeds every region's capacity — the base-station allocator
///   leaves it unregistered, so all of its arrivals are refused.
fn fig_tenancy_scenario(bed: &Testbed, seed_mix: u64) -> ScenarioSpec {
    const HORIZON: SimDuration = SimDuration::from_micros(30_000_000);
    // One sleep tick is 1/8 s: a 32-tick sleeper occupies its slot for
    // 4 s, then halts — long enough to contend, short enough to complete
    // within the 30 s horizon.
    let sleeper = "pushcl 32\nsleep\nhalt";
    let bulk = "pushc 1\npop\n".repeat(60) + "halt";
    bed.scenario(seed_mix)
        .tenant(TenantApp::new(
            AppProfile::new(AppId(1), "habitat")
                .priority(Priority::Low)
                .quota(AppQuota::new(2, 400, u64::MAX)),
            Poisson::new(1.5, sleeper),
        ))
        .tenant(TenantApp::new(
            AppProfile::new(AppId(2), "telemetry"),
            Periodic::at_base(
                SimDuration::from_micros(2_000_000),
                10,
                workload::rout_test_agent(Location::new(3, 2)),
            ),
        ))
        .tenant(TenantApp::new(
            AppProfile::new(AppId(3), "fire").priority(Priority::High),
            Periodic::at_base(SimDuration::from_micros(1_000_000), 10, sleeper)
                .starting_at(SimDuration::from_micros(10_000_000)),
        ))
        .tenant(TenantApp::new(AppProfile::new(AppId(4), "bulk"), {
            Periodic::at_base(SimDuration::from_micros(2_000_000), 8, bulk)
        }))
        .allocate_apps(2, 40)
        .horizon(HORIZON)
}

/// Runs the multi-tenancy SLO experiment (fig_tenancy): `trials`
/// independent 30 s four-app scenarios on the lossy testbed, fanned
/// across the executor's workers, folded into one row per application.
/// Counters sum across trials; latency histograms merge, so the
/// percentiles describe the whole population.
pub fn fig_tenancy(
    trials: u32,
    base_seed: u64,
    config: &AgillaConfig,
    engine: &mut TrialExecutor,
) -> Vec<TenancyRow> {
    const COUNTERS: [&str; 4] = ["injected", "rejected", "evicted", "completed"];
    let bed = Testbed::lossy_5x5(config.clone(), base_seed);
    // One point: every trial runs the same four apps. Each trial reports,
    // per app, its counters and its latency histogram.
    let per_trial = engine
        .sweep(&[()], trials, |_, _, t| {
            let trial = fig_tenancy_scenario(&bed, u64::from(t) * 524_287).execute();
            let m = trial.net.metrics();
            TENANCY_APPS.map(|(id, ..)| {
                let id = AppId(id);
                let counts = COUNTERS.map(|k| m.counter(&format!("tenancy.{id}.{k}")));
                let latency = m.histogram(&format!("tenancy.{id}.latency_ms"));
                (counts, latency.cloned().unwrap_or_default())
            })
        })
        .remove(0);
    TENANCY_APPS
        .iter()
        .enumerate()
        .map(|(a, &(id, name, priority))| {
            let mut counts = [0u64; 4];
            let mut latency = Histogram::new();
            for (trial_counts, trial_latency) in per_trial.iter().map(|apps| &apps[a]) {
                for (sum, n) in counts.iter_mut().zip(trial_counts) {
                    *sum += n;
                }
                latency.merge(trial_latency);
            }
            let [admitted, rejected, evicted, completed] = counts;
            TenancyRow {
                app: format!("{} {name}", AppId(id)),
                priority,
                admitted,
                rejected,
                evicted,
                completed,
                p50_ms: latency.percentile(0.50),
                p95_ms: latency.percentile(0.95),
                p99_ms: latency.percentile(0.99),
            }
        })
        .collect()
}

// --- fig_mobile: moving motes on a position-driven channel ------------------

/// One row of the vehicle-crossing sweep: a mote driving across a static
/// field row while an on-board agent reports position fixes to the base.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossingRow {
    /// Vehicle speed, grid units per second.
    pub speed: f64,
    /// Position reports the on-board agent issued, summed across trials.
    pub reports: u64,
    /// Reports whose `veh` tuple landed in the base's tuple space — the
    /// ground truth, counted at the horizon.
    pub landed: u64,
    /// Reports whose completion reply also caught the vehicle
    /// (`RemoteCompleted` success). Locations are addresses in Agilla, so
    /// a reply chases the cell the vehicle issued from — crossing a cell
    /// boundary mid-operation orphans the ack even when the report landed.
    pub acked: u64,
    /// Grid-cell crossings the motion subsystem performed (`motion.moves`).
    pub moves: u64,
    /// Protocol frames per trial (beacons excluded), mean.
    pub frames_per_trial: f64,
}

/// The vehicle-crossing substrate: a base station and a five-mote field
/// row on `y = 1`, with the vehicle booting one row south at `(0, 2)` so
/// its path never lands on a static mote's address. Links exist within
/// 1.5 grid units and soften with live distance: zero extra loss up close,
/// ramping toward 30 % at the connectivity edge — so the diagonal hops the
/// vehicle leans on cost retransmissions, and range, not luck, decides
/// when its reports stop landing.
fn crossing_testbed(config: &AgillaConfig, base_seed: u64) -> Testbed {
    let mut positions = vec![Location::new(0, 1)];
    positions.extend((1..=5).map(|x| Location::new(x, 1)));
    positions.push(Location::new(0, 2)); // the vehicle's boot address
    let topology = Topology::new(positions, Connectivity::Range(1.5));
    let loss = LossModel::perfect().with_distance(DistanceLoss::new(1.0, 1.6, 0.3));
    Testbed::new(
        TopologySpec::custom(topology, loss),
        config.clone(),
        base_seed,
    )
}

/// One vehicle-crossing trial: the vehicle drives east at `speed` while its
/// reporter samples the navigation sensor and routs six position fixes back
/// to the base, two seconds apart.
fn fig_mobile_crossing_scenario(bed: &Testbed, speed: f64, seed_mix: u64) -> ScenarioSpec {
    const HORIZON: SimDuration = SimDuration::from_micros(20_000_000);
    let base = Location::new(0, 1);
    let vehicle = Location::new(0, 2);
    bed.scenario(seed_mix)
        .motion(vehicle, Motion::ConstantVelocity { vx: speed, vy: 0.0 })
        .traffic(OneShot::at(
            vehicle,
            workload::vehicle_reporter(base, 6, 16),
        ))
        .horizon(HORIZON)
}

/// Runs the vehicle-crossing sweep (fig_mobile, first table): the same
/// six-report mission at three speeds. A slow vehicle stays over the field
/// and lands every fix; a fast one outruns the field's radio coverage
/// mid-mission, so delivery decays with speed — the position-driven channel
/// made visible in one column.
pub fn fig_mobile_crossing(
    trials: u32,
    base_seed: u64,
    config: &AgillaConfig,
    engine: &mut TrialExecutor,
) -> Vec<CrossingRow> {
    const SPEEDS: [f64; 3] = [0.25, 0.5, 1.0];
    let bed = crossing_testbed(config, base_seed);
    struct CrossingOutcome {
        reports: u64,
        landed: u64,
        acked: u64,
        moves: u64,
        frames: u64,
    }
    let outcomes = engine.sweep(&SPEEDS, trials, |s, &speed, t| {
        let seed_mix = u64::from(t) * 524_287 + s as u64 * 97;
        let trial = fig_mobile_crossing_scenario(&bed, speed, seed_mix).execute();
        let net = &trial.net;
        let id = trial.agent(0);
        let ops = net.log().remote_ops_of(id);
        let acked = ops
            .iter()
            .filter(|op| matches!(net.log().remote_completion(**op), Some((true, _, _))))
            .count() as u64;
        let veh = agilla_tuplespace::Field::str("veh");
        let landed = net
            .node(net.base())
            .space
            .iter()
            .filter(|t| t.fields().contains(&veh))
            .count() as u64;
        CrossingOutcome {
            reports: ops.len() as u64,
            landed,
            acked,
            moves: net.metrics().counter("motion.moves"),
            frames: protocol_frames(net),
        }
    });
    SPEEDS
        .iter()
        .zip(&outcomes)
        .map(|(&speed, o)| CrossingRow {
            speed,
            reports: total(o, |o| o.reports),
            landed: total(o, |o| o.landed),
            acked: total(o, |o| o.acked),
            moves: total(o, |o| o.moves),
            frames_per_trial: total(o, |o| o.frames) as f64 / f64::from(trials.max(1)),
        })
        .collect()
}

/// One row of the mobile-relay experiment: how much closed-loop round-trip
/// traffic crosses a partitioned network before and after a moving relay
/// bridges the gap.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayRow {
    /// Relay travel speed, grid units per second (0 = the relay never
    /// leaves its parking spot — the partition persists).
    pub relay_speed: f64,
    /// When the relay's parked position first bridges the clusters,
    /// seconds; `None` for the static control.
    pub bridge_s: Option<f64>,
    /// Agents the closed-loop client issued, summed across trials.
    pub issued: u64,
    /// Arrivals at the far cluster before the bridge formed.
    pub far_arrivals_before: u64,
    /// Arrivals at the far cluster after the bridge formed.
    pub far_arrivals_after: u64,
    /// Round trips completed: agents that reached the far mote and made it
    /// back to the base station.
    pub round_trips: u64,
}

/// The relay substrate: two two-mote clusters on `y = 1` separated by a
/// three-unit gap no 2.0-unit radio can cross, plus the relay's boot
/// address far to the south. Lossless links isolate the topology effect.
fn relay_testbed(config: &AgillaConfig, base_seed: u64) -> Testbed {
    let positions = vec![
        Location::new(0, 1), // base station — west cluster
        Location::new(1, 1),
        Location::new(4, 1), // east cluster
        Location::new(5, 1),
        Location::new(2, -5), // the relay's boot address
    ];
    let topology = Topology::new(positions, Connectivity::Range(2.0));
    Testbed::new(
        TopologySpec::custom(topology, LossModel::perfect()),
        config.clone(),
        base_seed,
    )
}

/// Travel distance before the relay's *quantized* position first reads its
/// parking cell `(2, 1)` — one unit from the west cluster, two from the
/// east, so a parked relay is the bridge. The full boot-to-park path is six
/// units, but positions round to the nearest cell, so the relay's address
/// flips to the bridge half a unit early.
const RELAY_BRIDGE_UNITS: f64 = 5.5;

/// One mobile-relay trial: a closed-loop client at the base keeps one
/// round-trip agent outstanding toward the unreachable east cluster while
/// the relay walks north and parks in the gap.
fn fig_mobile_relay_scenario(bed: &Testbed, relay_speed: f64, seed_mix: u64) -> ScenarioSpec {
    const HORIZON: SimDuration = SimDuration::from_micros(30_000_000);
    bed.scenario(seed_mix)
        .motion(
            Location::new(2, -5),
            Motion::LinearWaypoints {
                waypoints: vec![Location::new(2, 1)],
                speed: relay_speed,
            },
        )
        .client(ClosedLoop::at_base(
            SimDuration::from_millis(500),
            40,
            workload::smove_test_agent(Location::new(5, 1), Location::new(0, 1)),
        ))
        .horizon(HORIZON)
}

/// Runs the mobile-relay experiment (fig_mobile, second table): with the
/// relay static the partition holds and no agent ever reaches the far
/// cluster; once it parks in the gap the same closed-loop traffic starts
/// completing round trips — and a faster relay heals the partition sooner.
pub fn fig_mobile_relay(
    trials: u32,
    base_seed: u64,
    config: &AgillaConfig,
    engine: &mut TrialExecutor,
) -> Vec<RelayRow> {
    const SPEEDS: [f64; 3] = [0.0, 0.5, 1.0];
    let bed = relay_testbed(config, base_seed);
    let bridge_s =
        |speed: f64| -> Option<f64> { (speed > 0.0).then(|| RELAY_BRIDGE_UNITS / speed) };
    struct RelayOutcome {
        issued: u64,
        before: u64,
        after: u64,
        round_trips: u64,
    }
    let outcomes = engine.sweep(&SPEEDS, trials, |s, &speed, t| {
        let seed_mix = u64::from(t) * 524_287 + s as u64 * 131;
        let trial = fig_mobile_relay_scenario(&bed, speed, seed_mix).execute();
        let net = &trial.net;
        let far = net.node_at(Location::new(5, 1)).expect("far mote");
        let split = bridge_s(speed).unwrap_or(f64::INFINITY);
        let mut before = 0u64;
        let mut after = 0u64;
        let mut far_agents: Vec<AgentId> = Vec::new();
        for rec in net.log().records() {
            if let agilla::stats::OpRecord::MigrationArrived {
                agent, node, at, ..
            } = rec
            {
                if *node == far {
                    if at.as_secs_f64() < split {
                        before += 1;
                    } else {
                        after += 1;
                    }
                    far_agents.push(*agent);
                }
            }
        }
        far_agents.dedup();
        let round_trips = far_agents
            .iter()
            .filter(|a| net.log().arrived(**a, net.base()))
            .count() as u64;
        RelayOutcome {
            issued: trial.agents.len() as u64,
            before,
            after,
            round_trips,
        }
    });
    SPEEDS
        .iter()
        .zip(&outcomes)
        .map(|(&speed, o)| RelayRow {
            relay_speed: speed,
            bridge_s: bridge_s(speed),
            issued: total(o, |o| o.issued),
            far_arrivals_before: total(o, |o| o.before),
            far_arrivals_after: total(o, |o| o.after),
            round_trips: total(o, |o| o.round_trips),
        })
        .collect()
}

/// One row of the fire-front experiment: a spreading fire sweeps a field
/// watched by static detectors and one orbiting sentinel.
#[derive(Debug, Clone, PartialEq)]
pub struct FireFrontRow {
    /// Fire front speed, grid units per second.
    pub spread_per_sec: f64,
    /// First successful fire alert, seconds after boot, averaged over the
    /// trials that produced one.
    pub first_alert_s: Option<f64>,
    /// Fire alerts that completed at the base, summed across trials.
    pub alerts_ok: u64,
    /// Tracker-clone arrivals chasing the alerts, summed across trials.
    pub tracker_arrivals: u64,
    /// Grid-cell crossings the sentinel performed (`motion.moves`).
    pub moves: u64,
}

/// The fire-front substrate: the 5×5 grid plus base under 1.5-unit range
/// links (diagonals connect), with the sentinel's boot address south of the
/// field. Its one-unit orbit sweeps along the grid's bottom edge, joining
/// the network near the top of each revolution and dropping off the bottom.
fn fire_testbed(config: &AgillaConfig, base_seed: u64) -> Testbed {
    let mut positions = vec![Location::new(0, 1)];
    for y in 1..=5i16 {
        for x in 1..=5i16 {
            positions.push(Location::new(x, y));
        }
    }
    positions.push(Location::new(4, -1)); // the sentinel's boot address
    let topology = Topology::new(positions, Connectivity::Range(1.5));
    Testbed::new(
        TopologySpec::custom(topology, LossModel::perfect()),
        config.clone(),
        base_seed,
    )
}

/// One fire-front trial: a fire ignites mid-field at t = 5 s and spreads at
/// `spread_per_sec`; FIREDETECTORs sit at `(2,3)` and `(4,3)` with a third
/// riding the orbiting sentinel, and a FIRETRACKER waits at the base to
/// clone toward every alert.
fn fig_mobile_fire_scenario(bed: &Testbed, spread_per_sec: f64, seed_mix: u64) -> ScenarioSpec {
    const HORIZON: SimDuration = SimDuration::from_micros(40_000_000);
    let base = Location::new(0, 1);
    let sentinel = Location::new(4, -1);
    let ignition = SimTime::ZERO + SimDuration::from_micros(5_000_000);
    let mut fire = FireModel::new(Location::new(3, 3), ignition);
    fire.spread_per_sec = spread_per_sec;
    bed.scenario(seed_mix)
        .with_env(Environment::with_fire(fire))
        .motion(
            sentinel,
            Motion::Circle {
                radius: 1.0,
                period_s: 12.0,
            },
        )
        .traffic(OneShot::at_base(workload::FIRE_TRACKER))
        .traffic(OneShot::at(
            Location::new(2, 3),
            workload::fire_detector(base, 8),
        ))
        .traffic(OneShot::at(
            Location::new(4, 3),
            workload::fire_detector(base, 8),
        ))
        .traffic(OneShot::at(sentinel, workload::fire_detector(base, 8)))
        .horizon(HORIZON)
}

/// Runs the fire-front experiment (fig_mobile, third table): the moving
/// front reaches the static detectors first and the orbiting sentinel
/// later — and a faster front compresses both the first alert and the
/// tracker's response window.
pub fn fig_mobile_fire(
    trials: u32,
    base_seed: u64,
    config: &AgillaConfig,
    engine: &mut TrialExecutor,
) -> Vec<FireFrontRow> {
    const SPREADS: [f64; 2] = [0.2, 0.4];
    let bed = fire_testbed(config, base_seed);
    struct FireOutcome {
        first_alert_s: Option<f64>,
        alerts_ok: u64,
        tracker_arrivals: u64,
        moves: u64,
    }
    let outcomes = engine.sweep(&SPREADS, trials, |s, &spread, t| {
        let seed_mix = u64::from(t) * 524_287 + s as u64 * 193;
        let trial = fig_mobile_fire_scenario(&bed, spread, seed_mix).execute();
        let net = &trial.net;
        let mut first_alert_s = None;
        let mut alerts_ok = 0u64;
        let mut tracker_arrivals = 0u64;
        for rec in net.log().records() {
            match rec {
                agilla::stats::OpRecord::RemoteCompleted {
                    success: true, at, ..
                } => {
                    alerts_ok += 1;
                    if first_alert_s.is_none() {
                        first_alert_s = Some(at.as_secs_f64());
                    }
                }
                agilla::stats::OpRecord::MigrationArrived { .. } => tracker_arrivals += 1,
                _ => {}
            }
        }
        FireOutcome {
            first_alert_s,
            alerts_ok,
            tracker_arrivals,
            moves: net.metrics().counter("motion.moves"),
        }
    });
    SPREADS
        .iter()
        .zip(&outcomes)
        .map(|(&spread, o)| {
            let alerts: Vec<f64> = o.iter().filter_map(|o| o.first_alert_s).collect();
            FireFrontRow {
                spread_per_sec: spread,
                first_alert_s: (!alerts.is_empty())
                    .then(|| alerts.iter().sum::<f64>() / alerts.len() as f64),
                alerts_ok: total(o, |o| o.alerts_ok),
                tracker_arrivals: total(o, |o| o.tracker_arrivals),
                moves: total(o, |o| o.moves),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_snippets_assemble_and_run() {
        let rows = fig12_local_ops(2, true);
        assert_eq!(rows.len(), 18, "all Fig. 12 instructions present");
        for r in &rows {
            assert!(r.model_us >= 50, "{}: {}", r.name, r.model_us);
            assert!(r.wall_ns.expect("wall timing on") > 0.0);
        }
    }

    #[test]
    fn fig12_no_wall_skips_timing() {
        let rows = fig12_local_ops(2, false);
        assert!(rows.iter().all(|r| r.wall_ns.is_none()));
        assert_eq!(rows.len(), 18);
    }

    #[test]
    fn fig12_classes_ordered() {
        let rows = fig12_local_ops(2, true);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().model_us;
        assert!(get("loc") < get("pushn"));
        assert!(get("pushn") < get("out"));
        assert!(get("inp (empty TS)") < get("in"));
    }

    #[test]
    fn fig11_runs_with_tiny_trials() {
        let rows = fig11_one_hop(2, 5, &AgillaConfig::default(), &mut TrialExecutor::new(1));
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(r.samples > 0, "{} produced no samples", r.op.name());
            assert!(r.mean_ms > 1.0, "{}: {}ms", r.op.name(), r.mean_ms);
        }
        // Tuple-space ops are much cheaper than migrations.
        let rout = rows
            .iter()
            .find(|r| r.op == RemoteOpKind::Rout)
            .unwrap()
            .mean_ms;
        let smove = rows
            .iter()
            .find(|r| r.op == RemoteOpKind::Smove)
            .unwrap()
            .mean_ms;
        assert!(smove > 2.0 * rout, "smove {smove} vs rout {rout}");
    }

    #[test]
    fn fig9_runs_with_tiny_trials() {
        let rows = fig9_fig10(3, 42, &AgillaConfig::default(), &mut TrialExecutor::new(1));
        assert_eq!(rows.len(), 5);
        assert!(rows[0].smove_success > 0.5);
        assert!(rows[0].rout_success > 0.5);
    }

    #[test]
    fn fig_energy_per_op_migrations_cost_more_than_tuple_ops() {
        let rows = fig_energy_per_op(2, 99, &mut TrialExecutor::new(1));
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.samples > 0, "{} never completed", r.op);
            assert!(r.total_mj > 0.0, "{}: {} mJ", r.op, r.total_mj);
            assert!(
                r.radio_mj > r.cpu_mj,
                "{}: radio should dominate ({} vs {})",
                r.op,
                r.radio_mj,
                r.cpu_mj
            );
        }
        let smove = rows[0].total_mj;
        let rout = rows[2].total_mj;
        assert!(
            smove > rout,
            "a migration ships more frames than a rout: {smove} vs {rout}"
        );
    }

    #[test]
    fn fig_energy_lifetime_lpl_beats_always_on() {
        let rows =
            fig_energy_lifetime(&[None, Some(100)], 0.4, 400, 17, &mut TrialExecutor::new(1));
        assert_eq!(rows.len(), 2);
        let on = rows[0].first_death_s.expect("always-on dies fast");
        assert!(rows[0].deaths > 0);
        match rows[1].first_death_s {
            // Either the LPL network outlived always-on…
            Some(lpl) => assert!(lpl > on, "lpl {lpl} vs always-on {on}"),
            // …or it survived the whole horizon.
            None => assert_eq!(rows[1].deaths, 0),
        }
    }

    #[test]
    fn fig_mix_load_grows_with_rate() {
        let rows = fig_mix(
            2,
            0xA11,
            &AgillaConfig::default(),
            &mut TrialExecutor::new(1),
        );
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.injected > 0, "rate {} injected nothing", r.rate_per_s);
            assert!(r.frames_per_trial > 0.0);
        }
        // More offered load, more admitted agents (2/s vs 0.2/s is 10x).
        assert!(rows[3].injected > rows[0].injected);
        // The mix completes real work at every rate.
        assert!(rows.iter().all(|r| r.halted > 0));
        assert!(rows.iter().any(|r| r.migrations > 0));
        assert!(rows.iter().any(|r| r.remote_ok > 0));
    }

    #[test]
    fn fig_tenancy_enforces_quotas_allocation_and_preemption() {
        let rows = fig_tenancy(
            2,
            0xF1A,
            &AgillaConfig::default(),
            &mut TrialExecutor::new(1),
        );
        assert_eq!(rows.len(), 4);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.app.ends_with(name))
                .unwrap_or_else(|| panic!("no row for {name}"))
        };
        let (habitat, telemetry, fire, bulk) =
            (get("habitat"), get("telemetry"), get("fire"), get("bulk"));
        // The per-mote quota sheds habitat load without starving it.
        assert!(habitat.admitted > 0 && habitat.rejected > 0);
        // High priority preempts low: habitat loses residents, fire never
        // does (nothing outranks it).
        assert!(habitat.evicted > 0, "{habitat:?}");
        assert_eq!(fire.evicted, 0);
        assert!(fire.admitted > 0);
        // The allocator refused bulk outright: every arrival rejected.
        assert_eq!(bulk.admitted, 0);
        assert_eq!(bulk.rejected, 2 * 8, "8 arrivals per trial, 2 trials");
        assert_eq!(bulk.completed, 0);
        // Admitted apps complete work and report latency percentiles.
        for r in [habitat, telemetry, fire] {
            assert!(r.completed > 0, "{r:?}");
            assert!(r.p50_ms.is_some() && r.p99_ms >= r.p50_ms, "{r:?}");
        }
    }

    #[test]
    fn loss_ramp_scenario_recovers_when_a_dropped_link_heals() {
        // The loss-ramp family's perturbation path, extended with the
        // inverse fault: drop the base's only bottom-row link mid-run, then
        // heal it. Both events must land, and the healed network still
        // completes work after the repair.
        let bed = Testbed::lossy_5x5(AgillaConfig::default(), 0xF1A);
        let trial = fig_mix_scenario(&bed, 0.5, 524_287)
            .event(
                SimDuration::from_micros(10_000_000),
                Perturbation::DropLink(Location::new(0, 1), Location::new(1, 1)),
            )
            .event(
                SimDuration::from_micros(25_000_000),
                Perturbation::HealLink(Location::new(0, 1), Location::new(1, 1)),
            )
            .execute();
        let m = trial.net.metrics();
        assert_eq!(m.counter("faults.links_dropped"), 1);
        assert_eq!(m.counter("faults.links_healed"), 1);
        let base = trial.net.base();
        let neighbor = trial.net.node_at(Location::new(1, 1)).unwrap();
        assert!(
            trial.net.medium().topology().are_neighbors(base, neighbor),
            "healed link is live again"
        );
        // Work completed after the heal (the log keeps everything).
        assert!(trial.net.log().records().iter().any(|r| matches!(
            r,
            agilla::stats::OpRecord::AgentHalted { at, .. }
                if at.as_secs_f64() > 25.0
        )));
    }

    #[test]
    fn fig_mobile_crossing_delivery_decays_with_speed() {
        let rows = fig_mobile_crossing(
            2,
            0x30B,
            &AgillaConfig::default(),
            &mut TrialExecutor::new(1),
        );
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.reports > 0, "{} u/s issued no reports", r.speed);
            assert!(r.moves > 0, "{} u/s never moved", r.speed);
            // A success reply implies the tuple was inserted first.
            assert!(r.acked <= r.landed && r.landed <= r.reports, "{r:?}");
        }
        // The slow vehicle stays over the field: nearly every fix lands.
        // The fast one outruns the field's radio coverage mid-mission and
        // loses fixes outright.
        assert!(rows[0].landed * 4 >= rows[0].reports * 3, "{rows:?}");
        assert!(rows[2].landed < rows[2].reports, "{rows:?}");
        assert!(rows[0].landed > rows[2].landed, "{rows:?}");
        // A faster vehicle crosses more cells within the same horizon.
        assert!(rows[2].moves > rows[0].moves);
    }

    #[test]
    fn fig_mobile_relay_bridges_the_partition() {
        let rows = fig_mobile_relay(
            2,
            0x30B,
            &AgillaConfig::default(),
            &mut TrialExecutor::new(1),
        );
        assert_eq!(rows.len(), 3);
        let (control, slow, fast) = (&rows[0], &rows[1], &rows[2]);
        // The static control never reaches the far cluster.
        assert_eq!(control.bridge_s, None);
        assert_eq!(
            control.far_arrivals_before + control.far_arrivals_after,
            0,
            "{control:?}"
        );
        assert_eq!(control.round_trips, 0);
        assert!(control.issued > 0, "the client kept trying regardless");
        // A moving relay heals the partition: traffic flows only after the
        // bridge forms, and round trips complete.
        for r in [slow, fast] {
            assert_eq!(r.far_arrivals_before, 0, "{r:?}");
            assert!(r.far_arrivals_after > 0, "{r:?}");
            assert!(r.round_trips > 0, "{r:?}");
        }
        // A faster relay bridges sooner, buying a longer service window.
        assert!(fast.bridge_s < slow.bridge_s);
        assert!(fast.round_trips >= slow.round_trips, "{rows:?}");
    }

    #[test]
    fn fig_mobile_fire_front_reaches_detectors_and_trackers_respond() {
        let rows = fig_mobile_fire(
            2,
            0x30B,
            &AgillaConfig::default(),
            &mut TrialExecutor::new(1),
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.alerts_ok > 0, "{r:?}");
            assert!(r.tracker_arrivals > 0, "{r:?}");
            assert!(r.moves > 0, "the sentinel orbits");
            assert!(r.first_alert_s.is_some(), "{r:?}");
        }
        // A faster front reaches the detectors sooner.
        assert!(rows[1].first_alert_s < rows[0].first_alert_s, "{rows:?}");
    }

    #[test]
    fn fig_energy_agents_alive_declines_as_nodes_die() {
        let samples = fig_energy_agents_alive(2.0, 120, 30, 23);
        assert_eq!(samples.len(), 4);
        assert!(samples[0].nodes_alive == 26, "everyone starts alive");
        assert!(samples[0].agents_alive >= 6, "tracker + 5 detectors");
        let last = samples.last().unwrap();
        assert!(last.deaths > 0, "0.6 J batteries deplete within 2 min");
        assert!(last.nodes_alive >= 1, "the mains-powered base survives");
        assert!(last.nodes_alive < 26);
    }
}
