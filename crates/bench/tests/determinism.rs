//! Tier-1 guard: figure results are byte-identical across executor thread
//! counts.
//!
//! The SimEngine contract is that a trial's outcome is a pure function of
//! its `TrialSpec` and each point's results come back in trial order, so
//! the thread count can only change wall-clock time — never a figure.
//! These tests run real (reduced-trial) sweeps at 1 and several worker
//! threads and compare the *complete* serialized results, including an
//! energy-enabled family.

use agilla::AgillaConfig;
use agilla_bench::{
    fig11_one_hop, fig9_fig10, fig_energy_lifetime, fig_energy_per_op, fig_mix, fig_mix_loss_ramp,
    fig_mobile_crossing, fig_mobile_fire, fig_mobile_relay, fig_scale, fig_tenancy, TrialExecutor,
};

#[test]
fn fig9_sweep_identical_across_thread_counts() {
    let config = AgillaConfig::default();
    let serial = format!(
        "{:?}",
        fig9_fig10(3, 42, &config, &mut TrialExecutor::new(1))
    );
    for threads in [2, 4] {
        let parallel = format!(
            "{:?}",
            fig9_fig10(3, 42, &config, &mut TrialExecutor::new(threads))
        );
        assert_eq!(serial, parallel, "fig9 diverged at {threads} threads");
    }
}

#[test]
fn fig11_sweep_identical_across_thread_counts() {
    let config = AgillaConfig::default();
    let serial = format!(
        "{:?}",
        fig11_one_hop(2, 5, &config, &mut TrialExecutor::new(1))
    );
    let parallel = format!(
        "{:?}",
        fig11_one_hop(2, 5, &config, &mut TrialExecutor::new(4))
    );
    assert_eq!(serial, parallel);
}

#[test]
fn energy_per_op_identical_across_thread_counts() {
    // Energy accounting exercises the fanout's per-receiver idle metering,
    // battery bookkeeping, and the line topology — all under threads.
    let serial = format!("{:?}", fig_energy_per_op(2, 99, &mut TrialExecutor::new(1)));
    let parallel = format!("{:?}", fig_energy_per_op(2, 99, &mut TrialExecutor::new(2)));
    assert_eq!(serial, parallel);
}

#[test]
fn fig_mix_sweep_identical_across_thread_counts() {
    // The multi-app mix exercises the whole Scenario stack under threads:
    // Poisson/AppMix draws from per-generator RNG substreams, open-loop
    // admission rejections, a scheduled mid-run node kill, and the
    // per-trial counter sums.
    let config = AgillaConfig::default();
    let serial = format!("{:?}", fig_mix(2, 7, &config, &mut TrialExecutor::new(1)));
    for threads in [2, 4] {
        let parallel = format!(
            "{:?}",
            fig_mix(2, 7, &config, &mut TrialExecutor::new(threads))
        );
        assert_eq!(serial, parallel, "fig_mix diverged at {threads} threads");
    }
}

#[test]
fn fig_mix_loss_ramp_identical_across_thread_counts() {
    // A mid-run channel swap (`Perturbation::SetLoss`) at every loss level
    // but the control, with migration retransmissions summed per level.
    let config = AgillaConfig::default();
    let serial = format!(
        "{:?}",
        fig_mix_loss_ramp(2, 7, &config, &mut TrialExecutor::new(1))
    );
    let parallel = format!(
        "{:?}",
        fig_mix_loss_ramp(2, 7, &config, &mut TrialExecutor::new(4))
    );
    assert_eq!(serial, parallel);
}

#[test]
fn fig_tenancy_identical_across_threads() {
    // Per-app counters sum and per-app latency histograms merge across
    // trials, in trial order.
    let config = AgillaConfig::default();
    let serial = fig_tenancy(2, 7, &config, &mut TrialExecutor::new(1));
    let threaded = fig_tenancy(2, 7, &config, &mut TrialExecutor::new(4));
    assert_eq!(serial, threaded);
}

#[test]
fn fig_scale_identical_across_thread_counts() {
    // Two small fields, one testbed per size shared by that size's trials.
    let run = |threads: usize| {
        format!(
            "{:?}",
            fig_scale(&[64, 144], 2, 2, 3, &mut TrialExecutor::new(threads), false)
        )
    };
    assert_eq!(run(1), run(2));
}

#[test]
fn fig_mobile_sweep_identical_across_every_parallelism_knob() {
    // Mobility moves nodes *between* radio cells mid-trial — the operation
    // that could desynchronize a per-node RNG substream. Sweep all three
    // families across executor threads.
    let config = AgillaConfig::default();
    let run = |threads: usize| {
        format!(
            "{:?} {:?} {:?}",
            fig_mobile_crossing(2, 21, &config, &mut TrialExecutor::new(threads)),
            fig_mobile_relay(2, 21, &config, &mut TrialExecutor::new(threads)),
            fig_mobile_fire(1, 21, &config, &mut TrialExecutor::new(threads)),
        )
    };
    let serial = run(1);
    for threads in [2, 4] {
        assert_eq!(
            serial,
            run(threads),
            "fig_mobile diverged at {threads} threads"
        );
    }
}

#[test]
fn energy_lifetime_sweep_identical_across_thread_counts() {
    let intervals = [None, Some(100u64)];
    let serial = format!(
        "{:?}",
        fig_energy_lifetime(&intervals, 0.4, 200, 17, &mut TrialExecutor::new(1))
    );
    let parallel = format!(
        "{:?}",
        fig_energy_lifetime(&intervals, 0.4, 200, 17, &mut TrialExecutor::new(2))
    );
    assert_eq!(serial, parallel);
}
