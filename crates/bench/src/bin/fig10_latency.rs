//! Figure 10: latency of `smove` vs `rout` across 1–5 hops.
//!
//! smove latencies are one-way (round trip halved, as in the paper); rout
//! latencies are means over operations that succeeded without an end-to-end
//! retransmission (the paper's 2 s timeout retries would otherwise dominate
//! the mean).
//!
//! Usage: `fig10_latency [trials] [--threads N]` — stdout is byte-identical
//! at any thread count. A `BENCH_fig10.json` artifact with the measured
//! rows lands in the working directory.

use agilla::AgillaConfig;
use agilla_bench::paper::{FIG10_ROUT_MS, FIG10_SMOVE_MS};
use agilla_bench::{fig9_fig10, BenchArgs, Json, Table, TrialExecutor};

fn main() {
    let args = BenchArgs::parse();
    let trials = args.trials_or(100);
    println!("Figure 10 — latency of smove vs rout ({trials} trials/hop)\n");
    let config = AgillaConfig::default();
    let mut engine = TrialExecutor::new(args.threads);
    let rows = fig9_fig10(trials, 0xF10, &config, &mut engine);

    let mut t = Table::new(vec![
        "hops",
        "smove ms",
        "sd",
        "paper smove ms",
        "rout ms",
        "sd",
        "paper rout ms",
    ]);
    for r in &rows {
        let i = (r.hops - 1) as usize;
        t.row(vec![
            r.hops.to_string(),
            format!("{:.0}", r.smove_latency_ms),
            format!("{:.0}", r.smove_latency_sd_ms),
            format!("{:.0}", FIG10_SMOVE_MS[i]),
            format!("{:.0}", r.rout_latency_ms),
            format!("{:.0}", r.rout_latency_sd_ms),
            format!("{:.0}", FIG10_ROUT_MS[i]),
        ]);
    }
    t.print();
    println!(
        "\nShape checks: both grow ~linearly with hops; smove @5 < 1.1s: {}",
        rows[4].smove_latency_ms < 1100.0
    );
    println!(
        "smove costs 3-6x rout at every hop: {}",
        rows.iter()
            .all(|r| r.smove_latency_ms > 2.5 * r.rout_latency_ms)
    );
    let artifact = Json::obj([
        ("family", Json::str("fig10")),
        ("trials", Json::int(u64::from(trials))),
        (
            "rows",
            Json::arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("hops", Json::int(u64::from(r.hops))),
                            ("smove_latency_ms", Json::num(r.smove_latency_ms)),
                            ("smove_latency_sd_ms", Json::num(r.smove_latency_sd_ms)),
                            ("rout_latency_ms", Json::num(r.rout_latency_ms)),
                            ("rout_latency_sd_ms", Json::num(r.rout_latency_sd_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    agilla_bench::write_artifact("fig10", &artifact);
    engine.report("fig10");
}
