//! fig_scale — simulator throughput at deployment scale.
//!
//! The paper's testbed is 26 motes; this figure asks how far the simulated
//! one stretches. It sweeps square grid fields (1k and 10k motes by
//! default; 256/1k under `--quick`; set `FIG_SCALE_FULL=1` for the 100k
//! row) under their dominant steady-state load — one beacon per mote per
//! second — plus a small smove/rout workload at the base corner, and
//! reports the deterministic work done per size.
//!
//! Every stdout byte is identical at any `--threads` count; the engine
//! report goes to stderr, and wall-clock rate columns are suppressed by
//! `--no-wall`.
//!
//! A `BENCH_fig_scale.json` artifact with the same rows (plus rates,
//! unless suppressed) lands in the working directory. It also carries the
//! memory the sweep took, which stdout leaves out: the process's peak
//! resident set (`peak_rss_kib`, `VmHWM`) and that peak divided over the
//! largest row's motes (`peak_bytes_per_mote`).
//!
//! Usage: `fig_scale [trials] [--threads N] [--no-wall] [--quick]`.

use agilla_bench::scale::{DEFAULT_SIZES, FULL_SIZES, QUICK_SIZES};
use agilla_bench::{fig_scale, BenchArgs, Json, Table, TrialExecutor};

fn main() {
    let args = BenchArgs::parse();
    let trials = args.trials_or(3);
    let sim_s = 5u64;
    let sizes: &[usize] = if std::env::var_os("FIG_SCALE_FULL").is_some() {
        &FULL_SIZES
    } else if args.quick {
        &QUICK_SIZES
    } else {
        &DEFAULT_SIZES
    };

    println!(
        "fig_scale — simulated field scale sweep ({trials} trials/size, {sim_s} s horizon, \
         1 Hz beacons + smove/rout at base)\n"
    );
    let mut engine = TrialExecutor::new(args.threads);
    let rows = fig_scale(sizes, trials, sim_s, 0x5CA1E, &mut engine, !args.no_wall);

    let mut headers = vec![
        "motes",
        "injected",
        "migrations",
        "frames",
        "beacons",
        "events",
    ];
    if !args.no_wall {
        headers.push("sim-s/wall-s");
    }
    let mut t = Table::new(headers);
    for r in &rows {
        let mut cells = vec![
            r.motes.to_string(),
            r.injected.to_string(),
            r.migrations.to_string(),
            r.frames.to_string(),
            r.beacons.to_string(),
            r.events.to_string(),
        ];
        if !args.no_wall {
            cells.push(format!("{:.2}", r.sim_per_wall_s.unwrap_or(0.0)));
        }
        t.row(cells);
    }
    t.print();

    let small = &rows[0];
    let big = rows.last().expect("sizes");
    println!(
        "\nShape checks: beacon load scales with the field: {} | \
         agents keep arriving at every size: {}",
        big.beacons > 2 * small.beacons,
        rows.iter().all(|r| r.injected > 0),
    );
    engine.report("fig_scale");

    let peak_kib = peak_rss_kib();
    let artifact = Json::obj([
        ("family", Json::str("fig_scale")),
        ("trials", Json::int(u64::from(trials))),
        ("sim_s", Json::int(sim_s)),
        (
            "rows",
            Json::arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("motes", Json::int(r.motes as u64)),
                            ("injected", Json::int(r.injected)),
                            ("migrations", Json::int(r.migrations)),
                            ("frames", Json::int(r.frames)),
                            ("beacons", Json::int(r.beacons)),
                            ("events", Json::int(r.events)),
                            ("sim_per_wall_s", Json::opt_num(r.sim_per_wall_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("peak_rss_kib", peak_kib.map_or(Json::Null, Json::int)),
        (
            "peak_bytes_per_mote",
            peak_kib.map_or(Json::Null, |kib| Json::int(kib * 1024 / big.motes as u64)),
        ),
    ]);
    agilla_bench::write_artifact("fig_scale", &artifact);
}

/// The process's peak resident set size (`VmHWM` in `/proc/self/status`),
/// KiB; `None` where that file is missing.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}
