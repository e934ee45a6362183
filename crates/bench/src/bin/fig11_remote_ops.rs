//! Figure 11: one-hop latency of every remote operation.
//!
//! "Agilla can perform one-hop remote tuple space operations in about 55ms,
//! and migration operations in 225ms" — with migrations showing higher
//! variance (retransmit timers). Also prints the tracking-speed corollary
//! the paper derives ("an agent can migrate across a network at 600km/h").
//!
//! Usage: `fig11_remote_ops [trials] [--threads N]` — stdout is byte-identical
//! at any thread count. A `BENCH_fig11.json` artifact with the measured
//! rows lands in the working directory.

use agilla::AgillaConfig;
use agilla_bench::paper::FIG11_MS;
use agilla_bench::{fig11_one_hop, BenchArgs, Json, Table, TrialExecutor};

fn main() {
    let args = BenchArgs::parse();
    let trials = args.trials_or(100);
    println!("Figure 11 — one-hop latency of remote operations ({trials} trials)\n");
    let config = AgillaConfig::default();
    let mut engine = TrialExecutor::new(args.threads);
    let rows = fig11_one_hop(trials, 0xF11, &config, &mut engine);

    let mut t = Table::new(vec!["op", "mean ms", "sd ms", "paper ms", "n"]);
    for r in &rows {
        let p = FIG11_MS
            .iter()
            .find(|(n, _)| *n == r.op.name())
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        t.row(vec![
            r.op.name().to_string(),
            format!("{:.1}", r.mean_ms),
            format!("{:.1}", r.sd_ms),
            format!("{p:.0}"),
            r.samples.to_string(),
        ]);
    }
    t.print();

    let rout = rows[0].mean_ms;
    let migrations: Vec<f64> = rows[3..].iter().map(|r| r.mean_ms).collect();
    let mig_mean = migrations.iter().sum::<f64>() / migrations.len() as f64;
    println!("\nTuple-space ops ≈ {rout:.0} ms; migrations ≈ {mig_mean:.0} ms.");
    // "the quickest an agent can migrate is once every 0.3 seconds. Assuming
    // the radio range is around 50m ... 600km/h".
    let period_s = (mig_mean / 1000.0) + 0.075; // + engine dispatch slack
    let speed_kmh = 50.0 / period_s * 3.6;
    println!(
        "Tracking-speed corollary: one hop per {:.2} s at 50 m/hop = {:.0} km/h (paper: ~600 km/h)",
        period_s, speed_kmh
    );
    let artifact = Json::obj([
        ("family", Json::str("fig11")),
        ("trials", Json::int(u64::from(trials))),
        (
            "rows",
            Json::arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("op", Json::str(r.op.name())),
                            ("mean_ms", Json::num(r.mean_ms)),
                            ("sd_ms", Json::num(r.sd_ms)),
                            ("samples", Json::int(r.samples as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    agilla_bench::write_artifact("fig11", &artifact);
    engine.report("fig11");
}
