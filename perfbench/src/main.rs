//! Four-workload benchmark of the Agilla simulator (host time) and of the
//! network it models (simulated time).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_testbed|agent_mix|field_10k|mobile|all> \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! One workload runs in one process on one thread. The run builds the
//! workload's batch of scenarios from the seed, runs it once as the
//! reference (whose simulated statistics and digest the report gives), times
//! set-up alone three times, then repeats the batch untraced for `--seconds`
//! with a set-up-only pass and host-speed calibration samples before each
//! pass (see `calib`).
//! With `--trace 1` half the time goes to untraced passes and half to
//! traced ones, after which probes time four public functions directly.
//! The last line of stdout is a JSON object: the end-to-end metrics
//! untraced, the per-layer metrics traced. The exit code is 1 when any
//! output check fails and 2 on a usage error.

mod calib;
mod clock;
mod drive;
mod fold;
mod paper;
mod probe;
mod workloads;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use wsn_sim::RngStream;

use drive::{Pass, Span, SpanName, Spans};
use fold::{Digest, TrialStats};
use workloads::{TrialDef, Workload};

/// The seed used when `--seed` is absent. Seed 0 gives every workload the
/// figure binaries' own trials.
const DEFAULT_SEED: u64 = 0;
/// Set-up-only passes before the timed passes; one more precedes each
/// untraced pass, so the `setup_s` median sees the same host as the passes.
const SETUP_PASSES: usize = 3;
/// Trials the seed check regenerates.
const SEED_CHECK_TRIALS: usize = 8;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = match v.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload paper_testbed|agent_mix|field_10k|mobile|all] \
                 [--seed N] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// Runs each workload in a child process of its own (so each reports its
/// own peak memory) and ends with one JSON line whose metrics are prefixed
/// by workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable's path");
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("the benchmark re-runs itself");
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        println!();
        correct &= out.status.success();
        match parse_result(last) {
            Some((c, a, f, m)) => {
                correct &= c;
                attempted += a;
                failed += f;
                metrics.extend(m.into_iter().map(|(k, v)| (format!("{}.{k}", w.name()), v)));
            }
            None => correct = false,
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A result line's `correct`, `attempted`, `failed` and metrics, the metric
/// values kept as JSON text.
type ResultLine = (bool, u64, u64, Vec<(String, String)>);

/// Splits a child's result line into its fields.
fn parse_result(line: &str) -> Option<ResultLine> {
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(rest[..rest.find([',', '}'])?].trim().to_string())
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let start = line.find("\"metrics\": {")? + "\"metrics\": {".len();
    let mut metrics = Vec::new();
    let mut rest = &line[start..];
    while let Some(q) = rest.find('"') {
        let end = q + 1 + rest[q + 1..].find('"')?;
        let name = rest[q + 1..end].to_string();
        let obj_end = end + rest[end..].find('}')? + 1;
        metrics.push((name, rest[end + 3..obj_end].to_string()));
        rest = &rest[obj_end..];
    }
    Some((correct, attempted, failed, metrics))
}

// --- statistics ------------------------------------------------------------

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

/// Whether `n` samples support percentile `q`: at least ten lie beyond it.
fn supports(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0 - 1e-9
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Digest of a pass: the per-trial digests, mixed in order.
fn pass_digest(stats: &[TrialStats]) -> u64 {
    let mut h = Digest::default();
    for s in stats {
        h.u64(s.digest);
    }
    h.finish()
}

// --- one workload ----------------------------------------------------------

/// The outcome of every pass of one run.
struct Run {
    batch: Vec<TrialDef>,
    reference: Pass,
    /// Peak resident memory once the reference pass has run, MiB.
    peak_rss_mib: f64,
    /// Calibration kernel samples taken next to the untraced passes, ns.
    calib_ns: Vec<u64>,
    setup_ns: Vec<u64>,
    untraced: Vec<Pass>,
    traced: Vec<Pass>,
    spans: Spans,
}

/// Runs passes until `budget` of wall time has elapsed, at least `min` of
/// them, and stops early rather than start one that would overrun the
/// budget by more than a tenth.
fn timed_passes(budget: Duration, min: usize, mut pass: impl FnMut(usize) -> Pass) -> Vec<Pass> {
    let since = Instant::now();
    let mut out: Vec<Pass> = Vec::new();
    loop {
        let p = pass(out.len());
        let last = Duration::from_nanos(p.pass_ns);
        out.push(p);
        let elapsed = since.elapsed();
        if out.len() >= min && (elapsed >= budget || elapsed + last > budget.mul_f64(1.1)) {
            return out;
        }
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let batch = workload.batch(args.seed);
    let reference = drive::untraced(&batch);
    // Read before the repeats: they need no more memory than the first
    // pass, but heap fragmentation grows with their number, which depends
    // on host speed.
    let peak_rss_mib = peak_rss_mib();
    let mut setup_ns: Vec<u64> = (0..SETUP_PASSES)
        .map(|_| drive::setup_only(&batch))
        .collect();
    let total = Duration::from_secs(args.seconds);
    let untraced_budget = if args.trace { total / 2 } else { total };
    // About a tenth of the untraced time goes to calibration samples, taken
    // before each pass so they see the same host phase as the pass.
    let mut calib_ns: Vec<u64> = (0..5).map(|_| calib::kernel_ns()).collect();
    let mut last_pass_ns = reference.pass_ns;
    let untraced = timed_passes(untraced_budget, if args.trace { 1 } else { 2 }, |_| {
        let samples = (last_pass_ns as f64 * 0.1 / calib::REFERENCE_NS).clamp(1.0, 50.0);
        calib_ns.extend((0..samples as usize).map(|_| calib::kernel_ns()));
        setup_ns.push(drive::setup_only(&batch));
        let pass = drive::untraced(&batch);
        last_pass_ns = pass.pass_ns;
        pass
    });
    let mut spans = Spans::default();
    let traced = if args.trace {
        timed_passes(total - untraced_budget, 1, |i| {
            drive::traced(&batch, &mut spans, (i * batch.len()) as u32)
        })
    } else {
        Vec::new()
    };
    let run = Run {
        batch,
        reference,
        peak_rss_mib,
        calib_ns,
        setup_ns,
        untraced,
        traced,
        spans,
    };
    report(workload, args, &run)
}

/// Sums a per-trial quantity over a pass.
fn total(stats: &[TrialStats], f: impl Fn(&TrialStats) -> u64) -> u64 {
    stats.iter().map(f).sum()
}

/// Ops attempted by one trial: its offered arrivals plus its measured ops.
fn attempted(s: &TrialStats) -> u64 {
    s.offered + s.ops
}

/// A named metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

fn json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("  {:<32} {:>16.6} {:<9}{note}", m.name, m.value, m.unit);
    }
}

/// Arrivals `ScenarioSpec::compile` assembles itself: one per tenant app
/// with arrivals, when base-station allocation is on.
fn compile_assembles(batch: &[TrialDef]) -> u64 {
    let mut n = 0;
    for def in batch {
        let spec = &def.spec;
        if spec.app_alloc.is_none() {
            continue;
        }
        let root = RngStream::derive(spec.seed, "scenario.apps");
        for (i, app) in spec.apps.iter().enumerate() {
            let mut rng = root.substream(i as u64);
            let arrivals = app.traffic.arrivals(&mut rng, spec.horizon);
            if arrivals.iter().any(|a| a.at <= spec.horizon) {
                n += 1;
            }
        }
    }
    n
}

fn report(workload: Workload, args: &Args, run: &Run) -> ExitCode {
    let batch = &run.batch;
    let refs = &run.reference.stats;
    let digest = pass_digest(refs);
    let mut checks: Vec<(String, bool)> = Vec::new();

    // One walk over every pass: operations, failures, trials that differ
    // from the reference, and per-trial check failures grouped by message.
    let (mut attempted_ops, mut failed, mut mismatched) = (0u64, 0u64, 0usize);
    let mut by_check: Vec<(String, usize)> = Vec::new();
    let passes = std::iter::once(&run.reference)
        .chain(&run.untraced)
        .chain(&run.traced);
    for pass in passes {
        for (s, r) in pass.stats.iter().zip(refs) {
            attempted_ops += attempted(s);
            let differs = s.digest != r.digest;
            mismatched += usize::from(differs);
            if differs || !s.failures.is_empty() {
                failed += attempted(s);
            }
            for f in &s.failures {
                match by_check.iter_mut().find(|(m, _)| m == f) {
                    Some((_, c)) => *c += 1,
                    None => by_check.push((f.clone(), 1)),
                }
            }
        }
    }
    checks.push((
        format!(
            "same seed, same digest: {} untraced and {} traced pass(es) reproduce the reference \
             trial by trial ({mismatched} trial runs differ)",
            run.untraced.len(),
            run.traced.len()
        ),
        mismatched == 0,
    ));
    if !run.traced.is_empty() {
        let traced_digest = pass_digest(&run.traced[0].stats);
        checks.push((
            format!("traced run digest {traced_digest:#018x} equals the untraced {digest:#018x}"),
            run.traced.iter().all(|p| pass_digest(&p.stats) == digest),
        ));
    }
    let n = SEED_CHECK_TRIALS.min(batch.len());
    let prefix = |defs: &[TrialDef]| pass_digest(&drive::untraced(&defs[..n]).stats);
    let again = prefix(&workload.batch(args.seed));
    let other_seed = args.seed.wrapping_add(1);
    let other = prefix(&workload.batch(other_seed));
    let ours = pass_digest(&refs[..n]);
    checks.push((
        format!(
            "seed check over the first {n} trials: seed {} regenerated gives {again:#018x} \
             (reference {ours:#018x}); seed {other_seed} gives {other:#018x}",
            args.seed
        ),
        again == ours && other != ours,
    ));

    let named = match workload {
        Workload::PaperTestbed => "exactly-once: at most one <1> tuple at every rout target",
        Workload::AgentMix => "refusal reasons sum to the refusal total",
        Workload::Field10k => "every mote beacons: each is live in a neighbour's acquaintance list",
        Workload::Mobile => "acked reports never exceed landed ones",
    };
    checks.push((
        format!("{named}; admitted + refused = offered on every trial"),
        by_check.is_empty(),
    ));
    for (msg, count) in &by_check {
        checks.push((format!("{count} trial run(s): {msg}"), false));
    }
    let correct = checks.iter().all(|(_, ok)| *ok);

    // --- end-to-end, untraced ---------------------------------------------
    let trials = batch.len() as f64;
    let pass_host: Vec<f64> = run.untraced.iter().map(|p| p.pass_ns as f64).collect();
    let pass_work: Vec<f64> = run
        .untraced
        .iter()
        .map(|p| p.trial_ns.iter().sum::<u64>() as f64)
        .collect();
    let mut trial_ns: Vec<u64> = run
        .untraced
        .iter()
        .flat_map(|p| p.trial_ns.iter().copied())
        .collect();
    trial_ns.sort_unstable();
    let setup_ns = median(&run.setup_ns.iter().map(|&v| v as f64).collect::<Vec<_>>());
    // End-to-end host times are scaled to the calibration kernel's
    // reference speed; see `calib`.
    let kernel_ns = median(&run.calib_ns.iter().map(|&v| v as f64).collect::<Vec<_>>());
    let scale = calib::REFERENCE_NS / kernel_ns;
    let raw_tps = trials / (median(&pass_host) / 1e9);
    let sim_s = total(refs, |s| s.sim_us) as f64 / 1e6;
    let offered = total(refs, |s| s.offered);
    let admitted = total(refs, |s| s.admitted);
    let ops = total(refs, |s| s.ops);
    let ops_ok = total(refs, |s| s.ops_ok);
    let mut agent_us: Vec<u64> = refs
        .iter()
        .flat_map(|s| s.agent_us.iter().copied())
        .collect();
    agent_us.sort_unstable();
    let na = agent_us.len();
    let nt = trial_ns.len();
    let raw_sim_rate = sim_s / ((median(&pass_work) - setup_ns) / 1e9);
    let raw_p50_ms = percentile(&trial_ns, 0.5) / 1e6;
    let end_to_end = vec![
        metric("trials_per_s", raw_tps / scale, "trials/s").note(format!(
            "raw {raw_tps:.3}; {} trials per pass, median of {} pass(es)",
            batch.len(),
            run.untraced.len()
        )),
        metric("sim_s_per_wall_s", raw_sim_rate / scale, "s/s").note(format!(
            "raw {raw_sim_rate:.3}; {sim_s:.0} simulated s per pass, set-up excluded"
        )),
        metric("setup_s", setup_ns / 1e9 * scale, "s").note(format!(
            "raw {:.6}; compile + build summed over the batch, median of {}",
            setup_ns / 1e9,
            run.setup_ns.len()
        )),
        metric("trial_ms_p50", raw_p50_ms * scale, "ms")
            .note(format!("raw {raw_p50_ms:.6}; n={nt}")),
        metric("peak_rss_mib", run.peak_rss_mib, "MiB").note("after the reference pass"),
        metric(
            "admit_ratio",
            admitted as f64 / offered.max(1) as f64,
            "ratio",
        )
        .note(format!("{admitted} of {offered} arrivals")),
        metric(
            "op_success_ratio",
            ops_ok as f64 / ops.max(1) as f64,
            "ratio",
        )
        .note(format!("{ops_ok} of {ops} ops")),
        metric("agent_ms_p50", percentile(&agent_us, 0.5) / 1e3, "sim_ms").note(format!("n={na}")),
    ];
    // Percentiles and figures this workload's samples support beyond the
    // benchmark's common set.
    let mut extra = Vec::new();
    let mut unsupported = Vec::new();
    if supports(nt, 0.9) {
        let raw = percentile(&trial_ns, 0.9) / 1e6;
        extra.push(metric("trial_ms_p90", raw * scale, "ms").note(format!("raw {raw:.6}; n={nt}")));
    } else {
        unsupported.push(format!(
            "trial_ms_p90: not reported, {nt} trial samples are too few"
        ));
    }
    for (name, q) in [("agent_ms_p90", 0.9), ("agent_ms_p99", 0.99)] {
        if supports(na, q) {
            extra.push(
                metric(name, percentile(&agent_us, q) / 1e3, "sim_ms").note(format!("n={na}")),
            );
        } else {
            unsupported.push(format!(
                "{name}: not reported, {na} agent samples are too few"
            ));
        }
    }
    let points = (workload == Workload::PaperTestbed).then(|| paper::points(batch, refs));
    if let Some(p) = &points {
        extra.push(
            metric("paper_err_pct", paper::err_pct(p), "%")
                .note(format!("{} paper points", p.len())),
        );
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "passes: 1 reference, {} set-up only, {} untraced, {} traced; {} trials per pass",
        run.setup_ns.len(),
        run.untraced.len(),
        run.traced.len(),
        batch.len()
    );
    println!("digest of simulated statistics: {digest:#018x}");
    println!(
        "host speed: calibration kernel median {:.3} ms over {} samples, reference {:.3} ms; \
         end-to-end host times scaled by {scale:.4}",
        kernel_ns / 1e6,
        run.calib_ns.len(),
        calib::REFERENCE_NS / 1e6
    );
    let hosts = |ps: &[Pass]| {
        ps.iter()
            .map(|p| format!("{:.1}", p.pass_ns as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "pass host ms: reference {:.1}; untraced {}; traced {}",
        run.reference.pass_ns as f64 / 1e6,
        hosts(&run.untraced),
        hosts(&run.traced)
    );
    print_metrics(
        "end-to-end (untraced; host times scaled to the reference host speed, sim_ms in \
         simulated time):",
        &end_to_end,
    );
    print_metrics("end-to-end, workload-specific:", &extra);
    for line in &unsupported {
        println!("  {line}");
    }
    if let Some(p) = &points {
        let mut line = String::from("paper points (sim / paper):");
        for pt in p {
            let _ = write!(line, " {}={:.3}/{}", pt.label, pt.sim, pt.paper);
        }
        println!("{line}");
    }

    let per_layer = if run.traced.is_empty() {
        Vec::new()
    } else {
        per_layer(workload, run)
    };
    println!("checks:");
    for (msg, ok) in &checks {
        println!("  [{}] {msg}", if *ok { "ok" } else { "FAIL" });
    }
    let metrics = if args.trace { &per_layer } else { &end_to_end };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted_ops.max(1),
        json(metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-layer metrics from the traced passes, the probes and the reference
/// pass's exact counts; prints the span self times on the way.
fn per_layer(workload: Workload, run: &Run) -> Vec<Metric> {
    let refs = &run.reference.stats;
    let batch = &run.batch;
    let sum = |f: &dyn Fn(&TrialStats) -> u64| total(refs, f);
    let ctr = |name: &'static str| total(refs, |s| s.counter(name));

    // Span totals per traced pass, then medians across passes.
    let per_pass: Vec<[u64; SpanName::ALL.len()]> = {
        let mut out = Vec::new();
        let len = batch.len() as u32;
        for i in 0..run.traced.len() as u32 {
            let spans: Vec<Span> = run
                .spans
                .spans
                .iter()
                .filter(|s| s.id / len == i)
                .copied()
                .collect();
            out.push(Spans::self_ns(&spans));
        }
        out
    };
    let span_ms = |name: SpanName| {
        let i = SpanName::ALL
            .iter()
            .position(|n| *n == name)
            .expect("known");
        median(
            &per_pass
                .iter()
                .map(|p| p[i] as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let inject_spans = run
        .spans
        .spans
        .iter()
        .filter(|s| s.name == SpanName::Inject)
        .count() as f64
        / run.traced.len() as f64;
    let traced_host = median(
        &run.traced
            .iter()
            .map(|p| p.pass_ns as f64)
            .collect::<Vec<_>>(),
    );
    let untraced_host = median(
        &run.untraced
            .iter()
            .map(|p| p.pass_ns as f64)
            .collect::<Vec<_>>(),
    );

    let mut frames: HashMap<&'static str, u64> = HashMap::new();
    for (d, s) in batch.iter().zip(refs) {
        *frames.entry(d.substrate).or_default() += s.frames_sent;
    }
    let probes = probe::run(batch, &frames);

    let events = sum(&|s| s.events);
    let frames_sent = sum(&|s| s.frames_sent);
    let run_ms = span_ms(SpanName::Run);
    let build_ms = span_ms(SpanName::Build);
    let nodes = sum(&|s| s.nodes);
    let offered = sum(&|s| s.offered);
    let admitted = sum(&|s| s.admitted);
    let unverifiable = sum(&|s| u64::from(s.rejected.unverifiable));
    let verify_calls = admitted + unverifiable;
    let mig_started = ctr("migration.started");
    let remote_issued = sum(&|s| s.remote_issued);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let energy_note = if batch.iter().any(|d| d.spec.config.energy.enabled) {
        ""
    } else {
        "energy meters are off on this workload"
    };
    let motion_note = if batch.iter().any(|d| !d.spec.motion.is_static()) {
        ""
    } else {
        "no mote moves on this workload"
    };
    let tenancy_note = if batch.iter().any(|d| !d.spec.apps.is_empty()) {
        ""
    } else {
        "no tenant apps on this workload"
    };
    let m = vec![
        metric("scenario.compile_ms", span_ms(SpanName::Compile), "ms"),
        metric("scenario.steps", sum(&|s| s.steps) as f64, "count"),
        metric("network.build_ms", build_ms, "ms"),
        metric(
            "network.build_us_per_node",
            build_ms * 1e3 / nodes.max(1) as f64,
            "us",
        ),
        metric("network.inject_calls", offered as f64, "count"),
        metric(
            "network.inject_us",
            span_ms(SpanName::Inject) * 1e3 / inject_spans.max(1.0),
            "us",
        ),
        metric(
            "network.rejected.no_slots",
            sum(&|s| u64::from(s.rejected.no_slots)) as f64,
            "count",
        ),
        metric(
            "network.rejected.quota",
            sum(&|s| u64::from(s.rejected.quota)) as f64,
            "count",
        ),
        metric(
            "network.rejected.dead_mote",
            sum(&|s| u64::from(s.rejected.dead_mote)) as f64,
            "count",
        ),
        metric(
            "network.rejected.unverifiable",
            unverifiable as f64,
            "count",
        ),
        metric("network.run_ms", run_ms, "ms"),
        metric("sim.events", events as f64, "count"),
        metric(
            "sim.ns_per_event",
            run_ms * 1e6 / events.max(1) as f64,
            "ns",
        ),
        metric("radio.frames_sent", frames_sent as f64, "count"),
        metric(
            "radio.frames_lost",
            ctr("radio.frames_lost") as f64,
            "count",
        )
        .note("receiver copies lost"),
        metric("radio.beacons", ctr("radio.beacons") as f64, "count"),
        metric(
            "radio.loss_ratio",
            ratio(ctr("radio.frames_lost"), frames_sent),
            "ratio",
        )
        .note("lost receiver copies per frame sent"),
        metric("radio.transmit_ns", probes.transmit_ns, "ns").note("probe"),
        metric("radio.neighbors_ns", probes.neighbors_ns, "ns").note("probe"),
        metric(
            "radio.transmit_share_est",
            frames_sent as f64 * probes.transmit_ns / (run_ms * 1e6).max(1.0),
            "ratio",
        )
        .note("frames sent x transmit probe / network.run"),
        metric("energy.total_mj", sum(&|s| s.energy_mj) as f64, "mJ").note(energy_note),
        metric("motion.moves", ctr("motion.moves") as f64, "count").note(motion_note),
        metric("migration.started", mig_started as f64, "count"),
        metric(
            "migration.arrived",
            ctr("migration.arrived") as f64,
            "count",
        ),
        metric("migration.failed", ctr("migration.failed") as f64, "count"),
        metric("migration.retx", ctr("migration.retx") as f64, "count"),
        metric("migration.reack", ctr("migration.reack") as f64, "count"),
        metric(
            "migration.rxabort",
            ctr("migration.rxabort") as f64,
            "count",
        ),
        metric(
            "migration.failover",
            ctr("migration.failover") as f64,
            "count",
        ),
        metric(
            "migration.clone_sessions",
            ctr("migration.clone_sessions") as f64,
            "count",
        ),
        metric(
            "migration.retx_per_started",
            ratio(ctr("migration.retx"), mig_started),
            "ratio",
        ),
        metric("remote.issued", remote_issued as f64, "count"),
        metric("remote.ok", sum(&|s| s.remote_ok) as f64, "count"),
        metric("remote.retx", ctr("remote.retx") as f64, "count"),
        metric("remote.reack", ctr("remote.reack") as f64, "count"),
        metric("remote.failover", ctr("remote.failover") as f64, "count"),
        metric(
            "remote.retx_per_issued",
            ratio(ctr("remote.retx"), remote_issued),
            "ratio",
        ),
        metric(
            "vm.asm_calls",
            (offered + compile_assembles(batch)) as f64,
            "count",
        )
        .note("one per inject call, one per allocated tenant app"),
        metric("vm.asm_us", probes.asm_us, "us").note("probe"),
        metric("analysis.verify_calls", verify_calls as f64, "count")
            .note("admitted + refused as unverifiable"),
        metric("analysis.verify_us", probes.verify_us, "us").note("probe"),
        metric(
            "analysis.verify_share_est",
            verify_calls as f64 * probes.verify_us * 1e3 / traced_host,
            "ratio",
        )
        .note("verify calls x verify probe / traced pass host time"),
        metric(
            "tuplespace.resident_tuples",
            sum(&|s| s.resident_tuples) as f64,
            "count",
        ),
        metric(
            "tenancy.evicted",
            sum(&|s| s.tenancy_evicted) as f64,
            "count",
        )
        .note(tenancy_note),
        metric(
            "tenancy.rejected",
            sum(&|s| s.tenancy_rejected) as f64,
            "count",
        )
        .note(tenancy_note),
        metric("bench.fold_ms", span_ms(SpanName::Extract), "ms"),
        metric("bench.trial_self_ms", span_ms(SpanName::Trial), "ms")
            .note("benchmark time between spans"),
        metric(
            "trace.overhead_pct",
            100.0 * (traced_host / untraced_host - 1.0),
            "%",
        )
        .note("median traced pass host time vs untraced"),
    ];

    println!(
        "self time per span (median per traced pass; {} pass(es), {} spans):",
        run.traced.len(),
        run.spans.spans.len()
    );
    for name in SpanName::ALL {
        println!("  {:<12} {:>12.3} ms", name.as_str(), span_ms(name));
    }
    match write_spans(workload, run) {
        Ok(path) => println!("spans written to {path}"),
        Err(e) => println!("spans not written: {e}"),
    }
    println!(
        "not measured from outside the program (left to internal tracing): \
         events by kind, VM instructions, MAC backoffs, tuple-match attempts"
    );
    print_metrics(
        "per-layer (traced pass medians, probes, reference-pass counts):",
        &m,
    );
    m
}

/// Writes every span as TSV (`trial`, `name`, `parent`, `start_ns`,
/// `end_ns`) under the benchmark's `out/` directory.
fn write_spans(workload: Workload, run: &Run) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}.tsv", workload.name()));
    let mut text = String::from("trial\tname\tparent\tstart_ns\tend_ns\n");
    for s in &run.spans.spans {
        let parent = if s.name == SpanName::Trial {
            "-".to_string()
        } else {
            s.id.to_string()
        };
        let _ = writeln!(
            text,
            "{}\t{}\t{parent}\t{}\t{}",
            s.id,
            s.name.as_str(),
            s.start_ns,
            s.end_ns
        );
    }
    std::fs::write(&path, text)?;
    Ok(path.display().to_string())
}
