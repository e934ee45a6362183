//! fig_mix — multi-application arrival mixes under load.
//!
//! The paper's evaluation injects one hand-picked agent per trial; shared
//! sensor networks run many applications over one deployment, arriving
//! independently. This figure sweeps a Poisson multi-application mix —
//! smove round-trips, rout drops, and FIRETRACKER instances in a 2:2:1
//! ratio — across aggregate arrival rates on the lossy 5×5 testbed, while
//! a fire ignites at t = 20 s (giving the trackers alerts to chase) and a
//! bottom-row mote dies at t = 30 s (mid-run churn, scheduled as scenario
//! data, not driver code).
//!
//! Columns: agents admitted and rejected (open-loop load shedding by the
//! 4-slot agent manager), completed hop migrations, completed remote
//! tuple-space ops, halted agents, and protocol frames per trial.
//!
//! Usage: `fig_mix [trials] [--threads N]` — trials fan across the
//! SimEngine executor; stdout is byte-identical at any thread count.

use agilla::AgillaConfig;
use agilla_bench::{fig_mix, fig_mix_loss_ramp, BenchArgs, Json, Table, TrialExecutor};

fn main() {
    let args = BenchArgs::parse();
    let trials = args.trials_or(20);
    println!("fig_mix — Poisson multi-app mix under load ({trials} trials/rate, 60 s horizon)\n");
    println!(
        "mix: smove round-trip x2 : rout x2 : fire-tracker x1; fire at 20 s; mote dies at 30 s\n"
    );
    let config = AgillaConfig::default();
    let mut engine = TrialExecutor::new(args.threads);
    let rows = fig_mix(trials, 0xF1A, &config, &mut engine);

    let mut t = Table::new(vec![
        "rate /s",
        "injected",
        "rejected",
        "migrations",
        "remote ok",
        "halted",
        "frames/trial",
    ]);
    for r in &rows {
        t.row(vec![
            format!("{:.1}", r.rate_per_s),
            r.injected.to_string(),
            r.rejected.to_string(),
            r.migrations.to_string(),
            r.remote_ok.to_string(),
            r.halted.to_string(),
            format!("{:.0}", r.frames_per_trial),
        ]);
    }
    t.print();

    let light = &rows[0];
    let heavy = rows.last().expect("rates");
    println!(
        "\nShape checks: offered load admitted grows with rate: {} | \
         the slot manager sheds load before it breaks (rejected at 2/s): {} | \
         all three applications make progress under the heaviest mix: {}",
        heavy.injected > light.injected,
        heavy.rejected >= light.rejected,
        heavy.migrations > 0 && heavy.remote_ok > 0 && heavy.halted > 0,
    );

    // Loss ramp: the same mix at a fixed 0.5 agents/s, but at t = 20 s a
    // SetLoss perturbation swaps the calibrated channel for a uniform
    // per-frame loss floor. Row 0 keeps the channel untouched (control).
    println!(
        "\nLoss ramp — channel degraded mid-run at t = 20 s ({trials} trials/level, \
         0.5 agents/s)\n"
    );
    let ramp = fig_mix_loss_ramp(trials, 0xF1A, &config, &mut engine);

    let mut lt = Table::new(vec![
        "loss after 20 s",
        "injected",
        "migrations",
        "mig retx",
        "remote ok",
        "halted",
    ]);
    for r in &ramp {
        lt.row(vec![
            format!("{:.0}%", r.loss * 100.0),
            r.injected.to_string(),
            r.migrations.to_string(),
            r.mig_retx.to_string(),
            r.remote_ok.to_string(),
            r.halted.to_string(),
        ]);
    }
    lt.print();

    let clean = &ramp[0];
    let worst = ramp.last().expect("losses");
    let retx_per_mig =
        |r: &agilla_bench::LossRampRow| r.mig_retx as f64 / r.migrations.max(1) as f64;
    println!(
        "\nRamp checks: each completed migration costs more retransmissions under loss: {} | \
         completed work does not increase under 50% loss: {} | \
         the mix still makes progress at every level: {}",
        retx_per_mig(worst) > retx_per_mig(clean),
        worst.migrations <= clean.migrations && worst.remote_ok <= clean.remote_ok,
        ramp.iter().all(|r| r.migrations > 0),
    );

    let artifact = Json::obj([
        ("family", Json::str("fig_mix")),
        ("trials", Json::int(u64::from(trials))),
        (
            "rates",
            Json::arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("rate_per_s", Json::num(r.rate_per_s)),
                            ("injected", Json::int(r.injected)),
                            ("rejected", Json::int(r.rejected)),
                            ("migrations", Json::int(r.migrations)),
                            ("remote_ok", Json::int(r.remote_ok)),
                            ("halted", Json::int(r.halted)),
                            ("frames_per_trial", Json::num(r.frames_per_trial)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "loss_ramp",
            Json::arr(
                ramp.iter()
                    .map(|r| {
                        Json::obj([
                            ("loss", Json::num(r.loss)),
                            ("injected", Json::int(r.injected)),
                            ("migrations", Json::int(r.migrations)),
                            ("mig_retx", Json::int(r.mig_retx)),
                            ("remote_ok", Json::int(r.remote_ok)),
                            ("halted", Json::int(r.halted)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    agilla_bench::write_artifact("fig_mix", &artifact);
    engine.report("fig_mix");
}
