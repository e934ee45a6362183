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
use agilla::{workload, AgillaConfig, Testbed};
use agilla_bench::{BenchArgs, Table, TrialExecutor};
use wsn_common::Location;
use wsn_sim::SimDuration;

fn main() {
    let args = BenchArgs::parse();
    let trials = args.trials_or(60);
    println!(
        "Ablation — migration protocol: hop-by-hop acks vs end-to-end ({trials} trials/hop)\n"
    );
    let mut engine = TrialExecutor::new(args.threads);
    // The grid: both protocol variants (hop-by-hop first) at every hop
    // count, `trials` one-way smove injections per point on the lossy 5×5
    // testbed.
    let beds = [true, false].map(|hop_by_hop| {
        let config = AgillaConfig {
            hop_by_hop_migration: hop_by_hop,
            ..AgillaConfig::default()
        };
        Testbed::lossy_5x5(config, 0xAB1)
    });
    let points: Vec<(&Testbed, i16)> = beds
        .iter()
        .flat_map(|bed| (1..=5i16).map(move |hops| (bed, hops)))
        .collect();
    let arrived = engine.sweep(&points, trials, |_, &(bed, hops), t| {
        let target = Location::new(hops, 1);
        let trial = bed
            .scenario(u64::from(t) * 40_503 + hops as u64)
            .traffic(OneShot::at_base(workload::one_way_agent("smove", target)))
            .horizon(SimDuration::from_secs(20))
            .execute();
        let target = trial.net.node_at(target).expect("target exists");
        trial.net.log().arrived(trial.agent(0), target)
    });
    let rate = |point: &[bool]| point.iter().filter(|&&ok| ok).count() as f64 / f64::from(trials);
    let (hop_by_hop, end_to_end) = arrived.split_at(5);

    let mut t = Table::new(vec!["hops", "hop-by-hop %", "end-to-end %"]);
    let mut crossover = false;
    for (hops, (hbh, e2e)) in (1..=5i16).zip(hop_by_hop.iter().zip(end_to_end)) {
        let (hbh, e2e) = (rate(hbh), rate(e2e));
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
