//! fig_tenancy — multi-tenant quotas, allocation, and priority preemption.
//!
//! The paper's deployment model is one application per network; shared
//! sensor fields host several, each with its own resource envelope and
//! urgency. This figure runs four tenant applications through the
//! base station of the lossy 5×5 testbed: a low-priority habitat monitor
//! capped at 2 agent slots per mote (the quota sheds most of its offered
//! load), a normal-priority telemetry app doing remote tuple-space work,
//! a high-priority fire-response burst arriving mid-run that preempts
//! lower-priority residents instead of being turned away, and a bulk
//! job whose static cost bound exceeds every region's capacity — the
//! base-station allocator leaves it unregistered, so all of its arrivals
//! are refused.
//!
//! The SLO table reports, per app: arrivals admitted and rejected,
//! residents evicted by preemption, agents completed, and
//! injection-to-halt latency percentiles (power-of-two histogram bucket
//! upper bounds, ms). A `BENCH_fig_tenancy.json` artifact with the same
//! rows lands in the working directory.
//!
//! Usage: `fig_tenancy [trials] [--threads N]` — stdout is byte-identical
//! at any thread count.

use agilla::AgillaConfig;
use agilla_bench::{fig_tenancy, BenchArgs, Json, Table, TrialExecutor};

fn main() {
    let args = BenchArgs::parse();
    let trials = args.trials_or(20);
    println!("fig_tenancy — per-app quotas, allocation, and preemption ({trials} trials, 30 s horizon)\n");
    println!(
        "apps: habitat (low, 2 slots/mote, Poisson 1.5/s) : telemetry (normal, rout x10) : \
         fire (high, burst from 10 s) : bulk (normal, refused by the allocator)\n"
    );
    let mut engine = TrialExecutor::new(args.threads);
    let config = AgillaConfig::default();
    let rows = fig_tenancy(trials, 0x7E4A, &config, &mut engine);

    let fmt_ms = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |ms| format!("<={ms}"));
    let mut t = Table::new(vec![
        "app",
        "priority",
        "admitted",
        "rejected",
        "evicted",
        "completed",
        "p50 ms",
        "p95 ms",
        "p99 ms",
    ]);
    for r in &rows {
        t.row(vec![
            r.app.clone(),
            r.priority.to_string(),
            r.admitted.to_string(),
            r.rejected.to_string(),
            r.evicted.to_string(),
            r.completed.to_string(),
            fmt_ms(r.p50_ms),
            fmt_ms(r.p95_ms),
            fmt_ms(r.p99_ms),
        ]);
    }
    t.print();

    let get = |name: &str| rows.iter().find(|r| r.app.ends_with(name)).expect(name);
    let (habitat, fire, bulk) = (get("habitat"), get("fire"), get("bulk"));
    println!(
        "\nShape checks: the per-mote quota sheds habitat load without starving it: {} | \
         high priority preempts low (habitat evicted, fire never): {} | \
         the allocator refused bulk outright (0 admitted): {}",
        habitat.admitted > 0 && habitat.rejected > 0,
        habitat.evicted > 0 && fire.evicted == 0 && fire.admitted > 0,
        bulk.admitted == 0 && bulk.rejected > 0,
    );

    let artifact = Json::obj([
        ("family", Json::str("fig_tenancy")),
        ("trials", Json::int(u64::from(trials))),
        (
            "apps",
            Json::arr(
                rows.iter()
                    .map(|r| {
                        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::int);
                        Json::obj([
                            ("app", Json::str(r.app.clone())),
                            ("priority", Json::str(r.priority)),
                            ("admitted", Json::int(r.admitted)),
                            ("rejected", Json::int(r.rejected)),
                            ("evicted", Json::int(r.evicted)),
                            ("completed", Json::int(r.completed)),
                            ("p50_ms", opt(r.p50_ms)),
                            ("p95_ms", opt(r.p95_ms)),
                            ("p99_ms", opt(r.p99_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    agilla_bench::write_artifact("fig_tenancy", &artifact);
    engine.report("fig_tenancy");
}
