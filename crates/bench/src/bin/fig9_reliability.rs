//! Figure 9: reliability of `smove` vs `rout` across 1–5 hops.
//!
//! Protocol per Section 4: the Fig. 8 test agents run 100 times per hop
//! count on the (lossy) 5×5 testbed; smove failures are halved to account
//! for the double migration.
//!
//! Usage: `fig9_reliability [trials] [--threads N]` — trials fan across
//! the SimEngine executor; stdout is byte-identical at any thread count
//! (the throughput report goes to stderr). A `BENCH_fig9.json` artifact
//! with the measured rows lands in the working directory.

use agilla::AgillaConfig;
use agilla_bench::paper::{FIG9_ROUT, FIG9_SMOVE};
use agilla_bench::{fig9_fig10, BenchArgs, Json, Table, TrialExecutor};

fn main() {
    let args = BenchArgs::parse();
    let trials = args.trials_or(100);
    println!("Figure 9 — reliability of smove vs rout ({trials} trials/hop)\n");
    let config = AgillaConfig::default();
    let mut engine = TrialExecutor::new(args.threads);
    let rows = fig9_fig10(trials, 0xF19, &config, &mut engine);

    let mut t = Table::new(vec![
        "hops",
        "smove %",
        "paper smove %",
        "rout %",
        "paper rout %",
        "rout retx",
        "rout re-acks",
    ]);
    for r in &rows {
        let i = (r.hops - 1) as usize;
        t.row(vec![
            r.hops.to_string(),
            format!("{:.1}", 100.0 * r.smove_success),
            format!("{:.0}", 100.0 * FIG9_SMOVE[i]),
            format!("{:.1}", 100.0 * r.rout_success),
            format!("{:.0}", 100.0 * FIG9_ROUT[i]),
            r.rout_retx.to_string(),
            r.rout_reacks.to_string(),
        ]);
    }
    t.print();
    let (retx, reacks) = rows.iter().fold((0u64, 0u64), |(a, b), r| {
        (a + r.rout_retx, b + r.rout_reacks)
    });
    println!(
        "\nReliable-session layer: {retx} request retransmissions, \
         {reacks} duplicates answered from the completed-op cache \
         (suppressed re-executions)."
    );
    println!(
        "\nShape checks: smove beats rout beyond one hop: {}",
        rows.iter()
            .skip(1)
            .all(|r| r.smove_success >= r.rout_success)
    );
    println!(
        "smove @5 hops >= 85%: {} | rout @5 hops in 60-85%: {}",
        rows[4].smove_success >= 0.85,
        (0.60..=0.85).contains(&rows[4].rout_success)
    );
    let artifact = Json::obj([
        ("family", Json::str("fig9")),
        ("trials", Json::int(u64::from(trials))),
        (
            "rows",
            Json::arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("hops", Json::int(u64::from(r.hops))),
                            ("smove_success", Json::num(r.smove_success)),
                            ("rout_success", Json::num(r.rout_success)),
                            ("rout_retx", Json::int(r.rout_retx)),
                            ("rout_reacks", Json::int(r.rout_reacks)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    agilla_bench::write_artifact("fig9", &artifact);
    engine.report("fig9");
}
