//! fig_energy — the energy & lifetime benchmark family.
//!
//! Three experiments the paper's evaluation could not run on a desk of
//! mains-powered motes:
//!
//! 1. **Joules per operation** — the marginal energy of one migration /
//!    remote tuple-space operation on a quiet one-hop link, split into
//!    radio and compute shares.
//! 2. **Network lifetime vs. LPL check interval** — 26 motes on small
//!    batteries, beaconing once a second, swept across B-MAC low-power-
//!    listening intervals. Short intervals slash idle listening; long ones
//!    make every preamble longer than the payload — the optimum is in
//!    between (Polastre et al.'s B-MAC trade, reproduced in this stack).
//! 3. **Agents alive over time** — the fire-tracking case study under
//!    battery depletion: detectors brown out one by one, the mains-powered
//!    base station's FIRETRACKER re-clones to fresh alerts, and
//!    `hop_failover` carries sessions around the growing holes.
//!
//! Usage: `fig_energy [trials] [--threads N]` — `trials` scales the
//! per-op sampling (default 20; CI smoke uses 2, which also shrinks the
//! sim horizons). Trials and sweep points fan across the SimEngine
//! executor; stdout is byte-identical at any thread count. A
//! `BENCH_fig_energy.json` artifact with all three tables lands in the
//! working directory.

use agilla_bench::{
    fig_energy_agents_alive, fig_energy_lifetime, fig_energy_per_op, BenchArgs, Json, Table,
    TrialExecutor,
};

fn main() {
    let args = BenchArgs::parse();
    let trials = args.trials_or(20);
    let quick = trials < 10;
    let mut engine = TrialExecutor::new(args.threads);

    // --- 1. joules per operation ---------------------------------------
    println!("fig_energy — joules per operation ({trials} trials, 1 hop, quiet link)\n");
    let rows = fig_energy_per_op(trials, 0xE0, &mut engine);
    let mut t = Table::new(vec!["op", "total mJ", "radio mJ", "cpu mJ", "n"]);
    for r in &rows {
        t.row(vec![
            r.op.to_string(),
            format!("{:.2}", r.total_mj),
            format!("{:.2}", r.radio_mj),
            format!("{:.2}", r.cpu_mj),
            r.samples.to_string(),
        ]);
    }
    t.print();
    let per_op_rows = rows.clone();
    let smove = rows[0].total_mj;
    let rout = rows[2].total_mj;
    println!(
        "\nShape checks: migration > remote op: {} | radio dominates cpu: {}\n",
        smove > rout,
        rows.iter().all(|r| r.radio_mj > r.cpu_mj),
    );

    // --- 2. network lifetime vs LPL interval ---------------------------
    let (battery, horizon) = if quick { (0.4, 600) } else { (2.0, 4_000) };
    let intervals = [None, Some(25u64), Some(100), Some(500)];
    println!(
        "fig_energy — network lifetime vs LPL check interval \
         ({battery} J/mote, 26 motes, beacons @1 Hz, horizon {horizon} s)\n"
    );
    let rows = fig_energy_lifetime(&intervals, battery, horizon, 0xE1, &mut engine);
    let mut t = Table::new(vec![
        "LPL interval",
        "first death s",
        "half dead s",
        "deaths",
    ]);
    let fmt_opt = |v: Option<f64>| v.map_or("> horizon".to_string(), |s| format!("{s:.0}"));
    for r in &rows {
        let label = r
            .lpl_interval_ms
            .map_or("always on".to_string(), |ms| format!("{ms} ms"));
        t.row(vec![
            label,
            fmt_opt(r.first_death_s),
            fmt_opt(r.half_dead_s),
            r.deaths.to_string(),
        ]);
    }
    t.print();
    let lifetime_rows = rows.clone();
    let always_on = rows[0].first_death_s;
    let best_lpl = rows[1..]
        .iter()
        .filter_map(|r| r.first_death_s)
        .fold(f64::NEG_INFINITY, f64::max);
    let lpl_wins = match always_on {
        Some(on) => rows[1..]
            .iter()
            .any(|r| r.first_death_s.is_none_or(|s| s > on)),
        None => true,
    };
    println!(
        "\nShape checks: duty-cycling beats always-on: {lpl_wins} \
         (best measured LPL lifetime {best_lpl:.0} s)\n",
    );

    // --- 3. agents alive under battery depletion ------------------------
    let (battery, horizon, step) = if quick {
        (2.0, 150, 30)
    } else {
        (6.0, 420, 30)
    };
    println!(
        "fig_energy — fire-tracking under depletion ({battery} J/mote, \
         mains-powered base, fire at t=30 s, hop_failover on)\n"
    );
    let samples = fig_energy_agents_alive(battery, horizon, step, 0xE2);
    let mut t = Table::new(vec!["t s", "nodes alive", "agents alive", "deaths"]);
    for s in &samples {
        t.row(vec![
            s.t_s.to_string(),
            s.nodes_alive.to_string(),
            s.agents_alive.to_string(),
            s.deaths.to_string(),
        ]);
    }
    t.print();
    let last = samples.last().expect("samples");
    println!(
        "\nShape checks: deaths occurred: {} | base survives: {} | \
         application outlives dead motes (agents still alive): {}",
        last.deaths > 0,
        last.nodes_alive >= 1,
        last.agents_alive >= 1,
    );

    let artifact = Json::obj([
        ("family", Json::str("fig_energy")),
        ("trials", Json::int(u64::from(trials))),
        (
            "per_op",
            Json::arr(
                per_op_rows
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("op", Json::str(r.op)),
                            ("total_mj", Json::num(r.total_mj)),
                            ("radio_mj", Json::num(r.radio_mj)),
                            ("cpu_mj", Json::num(r.cpu_mj)),
                            ("samples", Json::int(r.samples as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "lifetime",
            Json::arr(
                lifetime_rows
                    .iter()
                    .map(|r| {
                        Json::obj([
                            (
                                "lpl_interval_ms",
                                r.lpl_interval_ms.map_or(Json::Null, Json::int),
                            ),
                            ("first_death_s", Json::opt_num(r.first_death_s)),
                            ("half_dead_s", Json::opt_num(r.half_dead_s)),
                            ("deaths", Json::int(r.deaths as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "agents_alive",
            Json::arr(
                samples
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("t_s", Json::int(s.t_s)),
                            ("nodes_alive", Json::int(s.nodes_alive as u64)),
                            ("agents_alive", Json::int(s.agents_alive as u64)),
                            ("deaths", Json::int(s.deaths as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    agilla_bench::write_artifact("fig_energy", &artifact);
    engine.report("fig_energy");
}
