//! Ablation: hop-by-hop acknowledged migration (the paper's final design)
//! versus the end-to-end variant it tried first and rejected.
//!
//! "We tried using end-to-end communication where messages are not
//! acknowledged till they reach the final destination, but found the high
//! packet-loss probability over multiple links made this unacceptably prone
//! to failure." (Section 3.2)
//!
//! The end-to-end variant is modelled by giving every migration message the
//! full path to cross unacknowledged (loss compounds per link) while keeping
//! the same retransmission budget at the origin only.
//!
//! Each (protocol, hops, trial) cell is one `ScenarioSpec` on the lossy
//! testbed driver; the whole grid fans across SimEngine workers.
//!
//! Usage: `ablation_migration [trials] [--threads N]` — stdout is
//! byte-identical at any thread count.

use agilla::scenario::OneShot;
use agilla::{workload, AgillaConfig, ScenarioSpec, Testbed};
use agilla_bench::{BenchArgs, Table, TrialExecutor};
use wsn_common::Location;
use wsn_sim::SimDuration;

/// The scenario grid: for both protocol variants and every hop count,
/// `trials` one-way smove injections on the lossy 5×5 testbed.
fn scenarios(trials: u32) -> Vec<(bool, i16, ScenarioSpec)> {
    let mut items = Vec::new();
    for &hop_by_hop in &[true, false] {
        let config = AgillaConfig {
            hop_by_hop_migration: hop_by_hop,
            ..AgillaConfig::default()
        };
        let bed = Testbed::lossy_5x5(config, 0xAB1);
        for hops in 1..=5i16 {
            let target = Location::new(hops, 1);
            for t in 0..trials {
                let spec = bed
                    .scenario(u64::from(t) * 40_503 + hops as u64)
                    .traffic(OneShot::at_base(workload::one_way_agent("smove", target)))
                    .horizon(SimDuration::from_secs(20));
                items.push((hop_by_hop, hops, spec));
            }
        }
    }
    items
}

fn main() {
    let args = BenchArgs::parse();
    let trials = args.trials_or(60);
    println!(
        "Ablation — migration protocol: hop-by-hop acks vs end-to-end ({trials} trials/hop)\n"
    );
    let mut engine = TrialExecutor::new(args.threads);
    let items = scenarios(trials);
    let arrived: Vec<bool> = engine.run(&items, |(_, hops, spec)| {
        let trial = spec.execute();
        let target = trial
            .net
            .node_at(Location::new(*hops, 1))
            .expect("target exists");
        trial.net.log().arrived(trial.agent(0), target)
    });

    let rate = |protocol: bool, hops: i16| {
        let ok = items
            .iter()
            .zip(&arrived)
            .filter(|((p, h, _), ok)| *p == protocol && *h == hops && **ok)
            .count();
        ok as f64 / f64::from(trials)
    };

    let mut t = Table::new(vec!["hops", "hop-by-hop %", "end-to-end %"]);
    let mut crossover = false;
    for hops in 1..=5i16 {
        let hbh = rate(true, hops);
        let e2e = rate(false, hops);
        if hops >= 3 && hbh > e2e + 0.10 {
            crossover = true;
        }
        t.row(vec![
            hops.to_string(),
            format!("{:.1}", 100.0 * hbh),
            format!("{:.1}", 100.0 * e2e),
        ]);
    }
    t.print();
    println!("\nPaper's conclusion reproduced (end-to-end collapses with distance): {crossover}");
    engine.report("ablation_migration");
}
