//! fig_mobile — moving motes on a position-driven channel.
//!
//! The paper's testbed is bolted to a desk: every mote keeps the grid
//! address it booted with. This family lets motes move — deterministically,
//! as scenario data — and measures what mobility does to the middleware:
//!
//! 1. **Vehicle crossing** — a mote drives across a static field at three
//!    speeds, routing position reports to the base over a channel whose
//!    per-frame loss ramps with live inter-node distance. A slow vehicle
//!    stays over the field and lands nearly every fix; a fast one outruns
//!    radio coverage mid-mission and loses fixes outright.
//! 2. **Mobile relay** — two clusters out of radio range, a closed-loop
//!    client retrying round trips into the partition, and a relay mote
//!    driving into the gap. With the relay static nothing ever crosses;
//!    once it parks, the same traffic starts completing — and a faster
//!    relay heals the partition sooner.
//! 3. **Fire front** — the case-study fire spreads outward while a
//!    sentinel mote orbits the field; static detectors alert first, the
//!    tracker clones chase the alerts, and a faster front compresses the
//!    whole response window.
//!
//! Usage: `fig_mobile [trials] [--threads N]` — stdout is byte-identical
//! at any thread count.

use agilla::AgillaConfig;
use agilla_bench::{
    fig_mobile_crossing, fig_mobile_fire, fig_mobile_relay, BenchArgs, Json, Table, TrialExecutor,
};

fn main() {
    let args = BenchArgs::parse();
    let trials = args.trials_or(10);
    println!("fig_mobile — moving motes on a position-driven channel ({trials} trials/point)\n");
    let config = AgillaConfig::default();
    let mut engine = TrialExecutor::new(args.threads);

    // Vehicle crossing: delivery decays with speed.
    println!("Vehicle crossing — six position reports while driving over a 5-mote field\n");
    let crossing = fig_mobile_crossing(trials, 0xB0B1, &config, &mut engine);
    let mut ct = Table::new(vec![
        "speed u/s",
        "reports",
        "landed",
        "acked",
        "moves",
        "frames/trial",
    ]);
    for r in &crossing {
        ct.row(vec![
            format!("{:.2}", r.speed),
            r.reports.to_string(),
            r.landed.to_string(),
            r.acked.to_string(),
            r.moves.to_string(),
            format!("{:.1}", r.frames_per_trial),
        ]);
    }
    ct.print();
    let (slow, fast) = (&crossing[0], crossing.last().expect("speeds"));
    println!(
        "\nShape checks: the slow vehicle lands nearly every fix: {} | \
         the fast vehicle outruns coverage and loses fixes: {} | \
         speed multiplies cell crossings inside one horizon: {}",
        slow.landed * 4 >= slow.reports * 3,
        fast.landed < fast.reports,
        fast.moves > slow.moves,
    );

    // Mobile relay: a partition heals when the relay parks in the gap.
    println!("\nMobile relay — closed-loop round trips into a partitioned far cluster\n");
    let relay = fig_mobile_relay(trials, 0xB0B1, &config, &mut engine);
    let mut rt = Table::new(vec![
        "relay u/s",
        "bridge at",
        "issued",
        "far before",
        "far after",
        "round trips",
    ]);
    for r in &relay {
        rt.row(vec![
            format!("{:.2}", r.relay_speed),
            r.bridge_s
                .map_or_else(|| "never".into(), |s| format!("{s:.1} s")),
            r.issued.to_string(),
            r.far_arrivals_before.to_string(),
            r.far_arrivals_after.to_string(),
            r.round_trips.to_string(),
        ]);
    }
    rt.print();
    let (control, bridged) = (&relay[0], relay.last().expect("speeds"));
    println!(
        "\nShape checks: the static control never reaches the far cluster: {} | \
         every crossing happens after the relay bridges the gap: {} | \
         the healed partition completes round trips: {}",
        control.far_arrivals_before + control.far_arrivals_after == 0,
        relay[1..]
            .iter()
            .all(|r| r.far_arrivals_before == 0 && r.far_arrivals_after > 0),
        bridged.round_trips > 0,
    );

    // Fire front: the case-study fire moves; the response window tracks it.
    println!("\nFire front — spreading fire, static detectors, an orbiting sentinel\n");
    let fire = fig_mobile_fire(trials, 0xB0B1, &config, &mut engine);
    let mut ft = Table::new(vec![
        "spread u/s",
        "first alert",
        "alerts ok",
        "tracker arrivals",
        "sentinel moves",
    ]);
    for r in &fire {
        ft.row(vec![
            format!("{:.2}", r.spread_per_sec),
            r.first_alert_s
                .map_or_else(|| "never".into(), |s| format!("{s:.1} s")),
            r.alerts_ok.to_string(),
            r.tracker_arrivals.to_string(),
            r.moves.to_string(),
        ]);
    }
    ft.print();
    let (creeping, racing) = (&fire[0], fire.last().expect("spreads"));
    println!(
        "\nShape checks: every front raises alerts and draws trackers: {} | \
         a faster front alerts sooner: {}",
        fire.iter()
            .all(|r| r.alerts_ok > 0 && r.tracker_arrivals > 0),
        match (creeping.first_alert_s, racing.first_alert_s) {
            (Some(slow_s), Some(fast_s)) => fast_s < slow_s,
            _ => false,
        },
    );

    let artifact = Json::obj([
        ("family", Json::str("fig_mobile")),
        ("trials", Json::int(u64::from(trials))),
        (
            "crossing",
            Json::arr(
                crossing
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("speed", Json::num(r.speed)),
                            ("reports", Json::int(r.reports)),
                            ("landed", Json::int(r.landed)),
                            ("acked", Json::int(r.acked)),
                            ("moves", Json::int(r.moves)),
                            ("frames_per_trial", Json::num(r.frames_per_trial)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "relay",
            Json::arr(
                relay
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("relay_speed", Json::num(r.relay_speed)),
                            ("bridge_s", Json::opt_num(r.bridge_s)),
                            ("issued", Json::int(r.issued)),
                            ("far_arrivals_before", Json::int(r.far_arrivals_before)),
                            ("far_arrivals_after", Json::int(r.far_arrivals_after)),
                            ("round_trips", Json::int(r.round_trips)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fire_front",
            Json::arr(
                fire.iter()
                    .map(|r| {
                        Json::obj([
                            ("spread_per_sec", Json::num(r.spread_per_sec)),
                            ("first_alert_s", Json::opt_num(r.first_alert_s)),
                            ("alerts_ok", Json::int(r.alerts_ok)),
                            ("tracker_arrivals", Json::int(r.tracker_arrivals)),
                            ("moves", Json::int(r.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    agilla_bench::write_artifact("fig_mobile", &artifact);
    engine.report("fig_mobile");
}
