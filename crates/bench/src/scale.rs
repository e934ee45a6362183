//! fig_scale — simulator throughput at production scale.
//!
//! The paper's testbed is 26 motes; the point of running it inside a
//! simulator is to ask the same questions at deployment scale. This family
//! sweeps square `GridAdjacent` fields of 1k–100k motes under their
//! dominant steady-state load (one beacon per mote per second) plus a
//! small mobile-agent workload near the base corner, and reports both the
//! deterministic work done (frames, beacons, migrations, events
//! dispatched) and — unless suppressed — the host-dependent simulation
//! rate in simulated seconds per wall second. Every deterministic column is
//! byte-identical at any `--threads` count.

use agilla::scenario::{OneShot, Periodic, ScenarioSpec};
use agilla::testbed::{Testbed, TopologySpec};
use agilla::{workload, AgillaConfig};
use wsn_common::Location;
use wsn_radio::{LossModel, Topology};
use wsn_sim::SimDuration;

use crate::engine::TrialExecutor;

/// Mote counts swept by default (32² and 100² grids). The 100k-mote row
/// is opted into with [`FULL_SIZES`]; CI runs it too, under a memory
/// ceiling, in a few seconds.
pub const DEFAULT_SIZES: [usize; 2] = [1_024, 10_000];

/// Mote counts for `--quick` (and the CI smoke): 16² and 32² grids.
pub const QUICK_SIZES: [usize; 2] = [256, 1_024];

/// The full sweep: 1k / 10k / 100k motes (317² ≈ 100.5k).
pub const FULL_SIZES: [usize; 3] = [1_024, 10_000, 100_489];

/// One row of the fig_scale sweep: everything a size's trials did, summed
/// across trials. All fields except the wall rate are seed-determined and
/// independent of the thread count.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Motes in the field (`side²`).
    pub motes: usize,
    /// Grid side length.
    pub side: i16,
    /// Simulated seconds per trial.
    pub sim_s: u64,
    /// Agents admitted across trials.
    pub injected: u64,
    /// Hop migrations completed across trials (`migration.arrived`).
    pub migrations: u64,
    /// Frames transmitted across trials (beacons included).
    pub frames: u64,
    /// Beacon transmissions across trials.
    pub beacons: u64,
    /// Events dispatched across trials (every queue pop).
    pub events: u64,
    /// Simulated seconds per wall-clock second, summed over per-trial CPU
    /// time — `None` when wall timing is suppressed (`--no-wall`).
    pub sim_per_wall_s: Option<f64>,
}

/// Builds one fig_scale scenario on a `side × side` grid: the steady
/// beacon load runs implicitly (every mote, 1 Hz), a periodic `smove`
/// round-trip patrols five hops out from the base corner, and a `rout`
/// drops a tuple three hops out — enough protocol traffic to keep the
/// migration and remote-op paths hot without the workload itself becoming
/// the bottleneck under measurement.
fn fig_scale_scenario(bed: &Testbed, sim_s: u64, seed_mix: u64) -> ScenarioSpec {
    let base = Location::new(1, 1);
    bed.scenario(seed_mix)
        .traffic(Periodic::at(
            base,
            SimDuration::from_secs(2),
            u32::try_from(sim_s / 2).expect("horizon fits") + 1,
            workload::smove_test_agent(Location::new(6, 1), base),
        ))
        .traffic(OneShot::at(
            base,
            workload::rout_test_agent(Location::new(4, 1)),
        ))
        .horizon(SimDuration::from_secs(sim_s))
}

/// What one fig_scale trial measured, extracted on the worker thread.
#[derive(Debug)]
struct ScaleOutcome {
    injected: u64,
    migrations: u64,
    frames: u64,
    beacons: u64,
    events: u64,
    wall: std::time::Duration,
}

/// Runs the scale sweep: for each mote count in `sizes`, `trials`
/// independent lossless-grid scenarios of `sim_s` simulated seconds,
/// fanned across the executor's workers and summed in trial order.
/// `measure_wall` gates the sim-per-wall-second rate (per-trial CPU time,
/// so thread fan-out does not inflate it).
pub fn fig_scale(
    sizes: &[usize],
    trials: u32,
    sim_s: u64,
    base_seed: u64,
    engine: &mut TrialExecutor,
    measure_wall: bool,
) -> Vec<ScaleRow> {
    // One testbed per size, shared by that size's trials.
    let beds: Vec<(i16, Testbed)> = sizes
        .iter()
        .map(|&motes| {
            let side = (motes as f64).sqrt().floor() as i16;
            let topology = TopologySpec::custom(Topology::grid(side, side), LossModel::perfect());
            (
                side,
                Testbed::new(topology, AgillaConfig::default(), base_seed),
            )
        })
        .collect();
    let outcomes = engine.sweep(&beds, trials, |s, (_, bed), t| {
        let spec = fig_scale_scenario(bed, sim_s, u64::from(t) * 786_433 + s as u64 * 97);
        let start = std::time::Instant::now();
        let trial = spec.execute();
        let wall = start.elapsed();
        let net = &trial.net;
        ScaleOutcome {
            injected: trial.agents.len() as u64,
            migrations: net.metrics().counter("migration.arrived"),
            frames: net.medium().frames_sent(),
            beacons: net.metrics().counter("radio.beacons"),
            events: net.events_dispatched(),
            wall,
        }
    });

    beds.iter()
        .zip(&outcomes)
        .map(|(&(side, _), o)| {
            let wall: std::time::Duration = o.iter().map(|o| o.wall).sum();
            let sim_per_wall_s = (measure_wall && !wall.is_zero())
                .then(|| (sim_s * u64::from(trials)) as f64 / wall.as_secs_f64());
            ScaleRow {
                motes: (side as usize) * (side as usize),
                side,
                sim_s,
                injected: o.iter().map(|o| o.injected).sum(),
                migrations: o.iter().map(|o| o.migrations).sum(),
                frames: o.iter().map(|o| o.frames).sum(),
                beacons: o.iter().map(|o| o.beacons).sum(),
                events: o.iter().map(|o| o.events).sum(),
                sim_per_wall_s,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_scale_runs_and_scales_event_counts_with_motes() {
        let rows = fig_scale(&[64, 256], 1, 3, 0x5CA1E, &mut TrialExecutor::new(1), false);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].motes, 64);
        assert_eq!(rows[1].motes, 256);
        for r in &rows {
            assert!(r.injected > 0, "{} motes injected nothing", r.motes);
            assert!(r.beacons > 0);
            assert!(r.frames >= r.beacons);
            assert!(r.events > 0);
            assert!(r.sim_per_wall_s.is_none(), "wall timing was off");
        }
        // 4x the motes means ~4x the beacon traffic.
        assert!(rows[1].beacons > 2 * rows[0].beacons);
    }

    #[test]
    fn timed_runs_report_a_wall_rate() {
        let rows = fig_scale(&[100], 1, 3, 0xD157, &mut TrialExecutor::new(1), true);
        assert!(rows[0].sim_per_wall_s.expect("wall timing on") > 0.0);
    }

    /// Motes pay only for what they do. On a 10×10 beacon field with the
    /// patrol at one corner, a mote that never hosted an agent has no agent
    /// slots, and one that also never carried a migration or remote
    /// operation has no session state, which duplicate lookups do not
    /// create.
    #[test]
    fn motes_the_patrol_never_touches_stay_lean() {
        use agilla::node::RemoteDedupKey;
        use agilla::stats::OpRecord;
        use wsn_common::NodeId;

        let bed = Testbed::new(
            TopologySpec::custom(Topology::grid(10, 10), LossModel::perfect()),
            AgillaConfig::default(),
            0x5CA1E,
        );
        let trial = fig_scale_scenario(&bed, 10, 0).execute();
        let net = &trial.net;
        let hosts: Vec<NodeId> =
            net.log()
                .records()
                .iter()
                .filter_map(|r| match r {
                    OpRecord::AgentInjected { node, .. }
                    | OpRecord::MigrationArrived { node, .. } => Some(*node),
                    _ => None,
                })
                .collect();
        // The patrol and the rout travel the bottom row, from the base
        // corner out to (6, 1) at most.
        let on_route = |loc: Location| loc.y == 1 && loc.x <= 6;
        let now = net.now();
        let mut lean = 0;
        for id in net.medium().topology().nodes() {
            let node = net.node(id);
            if hosts.contains(&id) {
                assert_eq!(node.slots.len(), agilla::config::MAX_AGENTS, "{id} hosted");
                continue;
            }
            assert!(node.slots.is_empty(), "{id} never hosted an agent");
            if on_route(node.loc) {
                continue;
            }
            assert!(node.sessions().is_none(), "{id} carried no exchange");
            assert_eq!(node.mig_done(1, NodeId(0), now), None);
            let key = RemoteDedupKey {
                origin: NodeId(0),
                op_id: 1,
            };
            assert!(node.cached_reply(key, now).is_none());
            assert!(node.sessions().is_none(), "{id}: a lookup created state");
            lean += 1;
        }
        assert!(hosts.len() >= 2, "the patrol ran");
        assert!(lean >= 90, "only {lean} of 100 motes stayed lean");
    }
}
