//! Runs every figure and table binary's logic in sequence with reduced trial
//! counts — a one-command regeneration of the paper's evaluation. For
//! publication-grade numbers run the individual binaries with their default
//! (100-trial) settings in release mode.
//!
//! Usage: `all_figures [--quick] [--trials N] [--threads N] [--no-wall]` —
//! `--threads` fans each figure's trials across SimEngine workers (the
//! figures' stdout is byte-identical at any thread count), and `--no-wall`
//! suppresses the host wall-clock columns of fig12 and fig_scale (the
//! nondeterministic outputs), so two runs can be diffed byte-for-byte; CI
//! diffs a `--threads 2` run against the serial one exactly this way.
//!
//! After the run a `BENCH_all_figures.json` artifact records each binary's
//! wall time and exit status for regression tracking.

use std::process::Command;

use agilla_bench::{BenchArgs, Json};

fn main() {
    let args = BenchArgs::parse();
    let trials = args
        .trials_or(if args.quick { 20 } else { 100 })
        .to_string();
    let ablation = if args.quick { "20" } else { "60" }.to_string();
    let threads = args.threads.to_string();

    let threaded: &[String] = &["--threads".into(), threads];
    let no_wall: &[String] = if args.no_wall {
        &["--no-wall".to_string()]
    } else {
        &[]
    };
    // The binary list extends the historical one with fig_mix (the
    // multi-application family; fig_energy stays a standalone family),
    // fig_scale (the field-scale family), and fig_tenancy (the
    // multi-tenancy family); EXPERIMENTS.md records wall clocks per list
    // revision.
    let with_threads = |t: &str| [std::slice::from_ref(&t.to_string()), threaded].concat();
    let mix_trials = if args.quick { "5" } else { "20" }.to_string();
    let mut scale_args = with_threads(if args.quick { "2" } else { "3" });
    scale_args.extend(no_wall.iter().cloned());
    if args.quick {
        scale_args.push("--quick".into());
    }
    let bins: Vec<(&str, Vec<String>)> = vec![
        ("fig9_reliability", with_threads(&trials)),
        ("fig10_latency", with_threads(&trials)),
        ("fig11_remote_ops", with_threads(&trials)),
        ("fig12_local_ops", no_wall.to_vec()),
        ("fig_mix", with_threads(&mix_trials)),
        ("fig_scale", scale_args),
        ("fig_tenancy", with_threads(&mix_trials)),
        ("table_memory", vec![]),
        ("mate_comparison", vec![]),
        ("ablation_migration", with_threads(&ablation)),
        ("ablation_arena", with_threads("100000")),
        ("ablation_blocks", threaded.to_vec()),
    ];
    let mut timings: Vec<(String, f64, bool)> = Vec::new();
    for (bin, bin_args) in bins {
        println!("\n=== {bin} ===\n");
        let start = std::time::Instant::now();
        let status = Command::new(std::env::current_exe().unwrap().parent().unwrap().join(bin))
            .args(&bin_args)
            .status();
        let ok = matches!(&status, Ok(s) if s.success());
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => eprintln!("{bin} exited with {s}"),
            Err(e) => eprintln!("failed to launch {bin}: {e}"),
        }
        timings.push((bin.to_string(), start.elapsed().as_secs_f64(), ok));
    }

    let artifact = Json::obj([
        ("family", Json::str("all_figures")),
        ("quick", Json::Bool(args.quick)),
        ("threads", Json::int(args.threads as u64)),
        (
            "bins",
            Json::arr(
                timings
                    .iter()
                    .map(|(bin, wall_s, ok)| {
                        Json::obj([
                            ("bin", Json::str(bin.clone())),
                            ("wall_s", Json::num((wall_s * 1000.0).round() / 1000.0)),
                            ("ok", Json::Bool(*ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    agilla_bench::write_artifact("all_figures", &artifact);
}
