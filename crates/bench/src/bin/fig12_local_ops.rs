//! Figure 12: latency of Agilla-specific local instructions.
//!
//! Two columns: the calibrated simulated-mote cost (what drives the virtual
//! clock; reproduces the figure) and the wall-clock cost of this crate's
//! interpreter (our analogue of the paper's measurement methodology —
//! executing each instruction in a tight loop and averaging).
//!
//! Usage: `fig12_local_ops [reps] [--no-wall]` — `--no-wall` suppresses
//! the host wall-clock column (the one nondeterministic output), so runs
//! can be diffed byte-for-byte in CI. Wall timing is inherently serial;
//! `--threads` is accepted for interface uniformity and ignored (no
//! network is built). A `BENCH_fig12.json` artifact with the same rows
//! (wall timings included unless suppressed) lands in the working
//! directory.

use agilla_bench::{fig12_local_ops, BenchArgs, Json, Table};

fn main() {
    let args = BenchArgs::parse();
    let reps = args.trials_or(2_000);
    println!("Figure 12 — local instruction latency ({reps} repetitions)\n");
    let rows = fig12_local_ops(reps, !args.no_wall);

    // The paper's three classes: ~75 µs, ~150 µs, ~292 µs.
    let mut t = Table::new(vec![
        "instruction",
        "model us (mote)",
        "class",
        "wall ns (host)",
    ]);
    for r in &rows {
        let class = match r.model_us {
            0..=100 => "1 (~75us)",
            101..=200 => "2 (~150us)",
            _ => "3 (~292us)",
        };
        t.row(vec![
            r.name.to_string(),
            r.model_us.to_string(),
            class.to_string(),
            r.wall_ns.map_or("-".to_string(), |w| format!("{w:.0}")),
        ]);
    }
    t.print();

    let class3: Vec<u64> = rows
        .iter()
        .filter(|r| r.model_us > 200)
        .map(|r| r.model_us)
        .collect();
    let mean3 = class3.iter().sum::<u64>() as f64 / class3.len() as f64;
    println!("\nTuple-space class mean: {mean3:.0} us (paper: averaging 292 us)");
    println!("Envelope check: all local operations within the paper's 60-440 us band.");

    let artifact = Json::obj([
        ("family", Json::str("fig12")),
        ("reps", Json::int(u64::from(reps))),
        (
            "rows",
            Json::arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(r.name)),
                            ("model_us", Json::int(r.model_us)),
                            ("wall_ns", Json::opt_num(r.wall_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    agilla_bench::write_artifact("fig12", &artifact);
}
