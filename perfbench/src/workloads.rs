//! The four workloads, each a closed batch of `ScenarioSpec`s built from the
//! public `agilla` API and one seed.
//!
//! Every batch mirrors the scenarios of the figure binaries it is named
//! after (same substrates, agents, horizons and per-trial seed mixes). The
//! benchmark seed enters only through each family's base seed:
//! `family_base ^ seed * GOLDEN`, so seed 0 reproduces the figure binaries'
//! own trials exactly and any other seed gives a fresh, equally shaped
//! batch.

use agilla::scenario::{
    AppMix, AppSpec, ClosedLoop, OneShot, Periodic, Perturbation, Poisson, ScenarioSpec,
};
use agilla::{
    workload, AgillaConfig, AppId, AppProfile, AppQuota, DistanceLoss, EnergyConfig, Environment,
    FireModel, Motion, Priority, TenantApp, Testbed, TopologySpec,
};
use wsn_common::Location;
use wsn_radio::{Connectivity, LossModel, Topology};
use wsn_sim::{SimDuration, SimTime};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The trials of the Fig. 9, 10 and 11 binaries.
    PaperTestbed,
    /// fig_mix at 1 and 2 agents/s plus fig_tenancy's four tenants.
    AgentMix,
    /// A 100×100 lossless field under 1 Hz beacons with energy meters.
    Field10k,
    /// fig_mobile's crossing, relay and fire-front scenarios.
    Mobile,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperTestbed,
        Workload::AgentMix,
        Workload::Field10k,
        Workload::Mobile,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTestbed => "paper_testbed",
            Workload::AgentMix => "agent_mix",
            Workload::Field10k => "field_10k",
            Workload::Mobile => "mobile",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's batch for `seed`.
    pub fn batch(self, seed: u64) -> Vec<TrialDef> {
        match self {
            Workload::PaperTestbed => paper_testbed(seed),
            Workload::AgentMix => agent_mix(seed),
            Workload::Field10k => field_10k(seed),
            Workload::Mobile => mobile(seed),
        }
    }
}

/// Which figure of the paper a Fig. 9/10-style trial feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaperFig {
    /// Fig. 9, reliability.
    Fig9,
    /// Fig. 10, latency.
    Fig10,
}

/// Fig. 11's seven one-hop operations, in plot order.
pub const FIG11_OPS: [&str; 7] = ["rout", "rinp", "rrdp", "smove", "wmove", "sclone", "wclone"];

/// What a trial measures, which decides how its log is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An smove round trip to `(hops, 1)` and back.
    PaperSmove {
        /// The figure the trial feeds.
        fig: PaperFig,
        /// Hop distance of the target.
        hops: i16,
    },
    /// A rout drop at `(hops, 1)`.
    PaperRout {
        /// The figure the trial feeds.
        fig: PaperFig,
        /// Hop distance of the target.
        hops: i16,
    },
    /// One of Fig. 11's operations, by index into [`FIG11_OPS`].
    Fig11(usize),
    /// A field_10k beacon field, checked for motes that never beacon.
    Field,
    /// A vehicle crossing the field and reporting its position, checked
    /// for acks without a landed report.
    Crossing,
    /// Any other scenario: read by the general rules only.
    Scenario,
}

/// One trial of a batch.
#[derive(Debug, Clone)]
pub struct TrialDef {
    /// What the trial measures.
    pub kind: Kind,
    /// Radio substrate label; trials sharing one share a probe.
    pub substrate: &'static str,
    /// The scenario, as the program receives it.
    pub spec: ScenarioSpec,
}

/// Multiplier that spreads benchmark seeds over the 64-bit base-seed space
/// while keeping seed 0 at the figure binaries' own base seeds.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn base(family: u64, seed: u64) -> u64 {
    family ^ seed.wrapping_mul(GOLDEN)
}

/// Fig. 9/10's smove round trips and rout drops at 1–5 hops on the lossy
/// testbed (100 trials per point, 20 s each), for both figures' base
/// seeds, then Fig. 11's seven one-hop operations on the lossless testbed.
fn paper_testbed(seed: u64) -> Vec<TrialDef> {
    const TRIALS: u32 = 100;
    const RUN: SimDuration = SimDuration::from_micros(20_000_000);
    let mut out = Vec::new();
    for (fig, family) in [(PaperFig::Fig9, 0xF19), (PaperFig::Fig10, 0xF10)] {
        let bed = Testbed::lossy_5x5(AgillaConfig::default(), base(family, seed));
        for h in 1..=5i16 {
            let target = Location::new(h, 1);
            let home = Location::new(0, 1);
            for t in 0..TRIALS {
                out.push(TrialDef {
                    kind: Kind::PaperSmove { fig, hops: h },
                    substrate: "lossy_5x5",
                    spec: bed
                        .scenario(u64::from(t) * 65_537 + h as u64)
                        .traffic(OneShot::at_base(workload::smove_test_agent(target, home)))
                        .horizon(RUN),
                });
            }
            for t in 0..TRIALS {
                out.push(TrialDef {
                    kind: Kind::PaperRout { fig, hops: h },
                    substrate: "lossy_5x5",
                    spec: bed
                        .scenario(u64::from(t) * 131_071 + 7 * h as u64 + 3)
                        .traffic(OneShot::at_base(workload::rout_test_agent(target)))
                        .horizon(RUN),
                });
            }
        }
    }
    let bed = Testbed::reliable_5x5(AgillaConfig::default(), base(0xF11, seed));
    let target = Location::new(1, 1);
    for (op_idx, op) in FIG11_OPS.iter().enumerate() {
        for t in 0..TRIALS {
            let spec = bed.scenario((u64::from(t) * 2_097_143) ^ (op_idx as u64 * 7_919));
            let src = match *op {
                "rout" => workload::rout_test_agent(target),
                "rinp" | "rrdp" => format!(
                    "pusht value\npushc 1\npushloc {} {}\n{op}\nhalt",
                    target.x, target.y
                ),
                _ => workload::one_way_agent(op, target),
            };
            const MEASURED: SimDuration = SimDuration::from_micros(10_000_000);
            let spec = if matches!(*op, "rinp" | "rrdp") {
                // Seed the probed tuple, then measure from the boundary.
                const SETUP: SimDuration = SimDuration::from_micros(1_000_000);
                spec.traffic(OneShot::at(target, "pushc 1\npushc 1\nout\nhalt"))
                    .traffic(OneShot::at_base(src).delayed(SETUP))
                    .measure_from(SETUP)
                    .horizon(SETUP + MEASURED)
            } else {
                spec.traffic(OneShot::at_base(src)).horizon(MEASURED)
            };
            out.push(TrialDef {
                kind: Kind::Fig11(op_idx),
                substrate: "reliable_5x5",
                spec,
            });
        }
    }
    out
}

/// fig_mix's Poisson smove/rout/FIRETRACKER mix at 1 and 2 agents/s (fire
/// at 20 s, a mote death at 30 s; 100 trials of 60 s per rate), then
/// fig_tenancy's four registered tenants (100 trials of 30 s). Five times
/// the figures' trial counts: a few trials per hundred fall into an
/// `sclone` retry storm, and a batch this size holds the storm share, and
/// with it the pass's work, steady from seed to seed.
fn agent_mix(seed: u64) -> Vec<TrialDef> {
    const TRIALS: u32 = 100;
    let mut out = Vec::new();
    let bed = Testbed::lossy_5x5(AgillaConfig::default(), base(0xF1A, seed));
    // (index in fig_mix's rate sweep, rate): the index enters the seed mix.
    for (r, rate) in [(2u64, 1.0), (3, 2.0)] {
        for t in 0..TRIALS {
            let fire_at = Location::new(4, 3);
            let base_loc = Location::new(0, 1);
            let ignition = SimTime::ZERO + SimDuration::from_micros(20_000_000);
            let spec = bed
                .scenario(u64::from(t) * 524_287 + r * 31)
                .with_env(Environment::with_fire(FireModel::new(fire_at, ignition)))
                .traffic(AppMix::new(
                    rate,
                    vec![
                        AppSpec::at_base(
                            2,
                            workload::smove_test_agent(Location::new(2, 1), base_loc),
                        ),
                        AppSpec::at_base(2, workload::rout_test_agent(Location::new(3, 2))),
                        AppSpec::at_base(1, workload::FIRE_TRACKER),
                    ],
                ))
                .traffic(Periodic::at(
                    fire_at,
                    SimDuration::from_micros(25_000_000),
                    2,
                    workload::fire_detector(base_loc, 16),
                ))
                .event(
                    SimDuration::from_micros(30_000_000),
                    Perturbation::KillNode(Location::new(3, 1)),
                )
                .horizon(SimDuration::from_micros(60_000_000));
            out.push(TrialDef {
                kind: Kind::Scenario,
                substrate: "lossy_5x5",
                spec,
            });
        }
    }
    let bed = Testbed::lossy_5x5(AgillaConfig::default(), base(0x7E4A, seed));
    let sleeper = "pushcl 32\nsleep\nhalt";
    let bulk = "pushc 1\npop\n".repeat(60) + "halt";
    for t in 0..TRIALS {
        let spec = bed
            .scenario(u64::from(t) * 524_287)
            .tenant(TenantApp::new(
                AppProfile::new(AppId(1), "habitat")
                    .priority(Priority::Low)
                    .quota(AppQuota::new(2, 400, u64::MAX)),
                Poisson::new(1.5, sleeper),
            ))
            .tenant(TenantApp::new(
                AppProfile::new(AppId(2), "telemetry"),
                Periodic::at_base(
                    SimDuration::from_micros(2_000_000),
                    10,
                    workload::rout_test_agent(Location::new(3, 2)),
                ),
            ))
            .tenant(TenantApp::new(
                AppProfile::new(AppId(3), "fire").priority(Priority::High),
                Periodic::at_base(SimDuration::from_micros(1_000_000), 10, sleeper)
                    .starting_at(SimDuration::from_micros(10_000_000)),
            ))
            .tenant(TenantApp::new(
                AppProfile::new(AppId(4), "bulk"),
                Periodic::at_base(SimDuration::from_micros(2_000_000), 8, bulk.clone()),
            ))
            .allocate_apps(2, 40)
            .horizon(SimDuration::from_micros(30_000_000));
        out.push(TrialDef {
            kind: Kind::Scenario,
            substrate: "lossy_5x5",
            spec,
        });
    }
    out
}

/// fig_scale's 10k-mote point: a 100×100 lossless grid under 1 Hz beacons,
/// an smove patrol five hops out every 2 s and one rout three hops out,
/// with energy meters on and a battery no mote drains. Four trials of 10 s
/// (fig_scale runs three of 5 s) give the agent-latency median two dozen
/// samples.
fn field_10k(seed: u64) -> Vec<TrialDef> {
    const TRIALS: u32 = 4;
    const SIM_S: u64 = 10;
    let config = AgillaConfig {
        energy: EnergyConfig::with_battery(wsn_radio::energy::AA_BATTERY_J),
        ..AgillaConfig::default()
    };
    let bed = Testbed::new(
        TopologySpec::custom(Topology::grid(100, 100), LossModel::perfect()),
        config,
        base(0x5CA1E, seed),
    );
    let corner = Location::new(1, 1);
    (0..TRIALS)
        .map(|t| TrialDef {
            kind: Kind::Field,
            substrate: "grid_100x100",
            // fig_scale's seed mix for its second size (index 1).
            spec: bed
                .scenario(u64::from(t) * 786_433 + 97)
                .traffic(Periodic::at(
                    corner,
                    SimDuration::from_secs(2),
                    (SIM_S / 2) as u32 + 1,
                    workload::smove_test_agent(Location::new(6, 1), corner),
                ))
                .traffic(OneShot::at(
                    corner,
                    workload::rout_test_agent(Location::new(4, 1)),
                ))
                .horizon(SimDuration::from_secs(SIM_S)),
        })
        .collect()
}

/// Speeds of the vehicle-crossing scenario, grid units per second.
pub const CROSSING_SPEEDS: [f64; 3] = [0.25, 0.5, 1.0];

/// fig_mobile's three scenarios, 20 trials per point (twice the figure's,
/// to steady the share of fire-front trials whose tracker spins on an
/// `sclone` to a sentinel that has moved on): a vehicle crossing a field
/// row at three speeds under distance-driven loss, a relay walking into a
/// partition at three speeds (0 = static control) while a closed-loop
/// client keeps one round trip outstanding, and a fire front at two spread
/// rates watched by an orbiting sentinel.
fn mobile(seed: u64) -> Vec<TrialDef> {
    const TRIALS: u32 = 20;
    let family = base(0xB0B1, seed);
    let config = AgillaConfig::default();
    let base_loc = Location::new(0, 1);
    let mut out = Vec::new();

    let mut positions = vec![base_loc];
    positions.extend((1..=5).map(|x| Location::new(x, 1)));
    let vehicle = Location::new(0, 2);
    positions.push(vehicle);
    let crossing = Testbed::new(
        TopologySpec::custom(
            Topology::new(positions, Connectivity::Range(1.5)),
            LossModel::perfect().with_distance(DistanceLoss::new(1.0, 1.6, 0.3)),
        ),
        config.clone(),
        family,
    );
    for (s, &speed) in CROSSING_SPEEDS.iter().enumerate() {
        for t in 0..TRIALS {
            out.push(TrialDef {
                kind: Kind::Crossing,
                substrate: "crossing_row",
                spec: crossing
                    .scenario(u64::from(t) * 524_287 + s as u64 * 97)
                    .motion(vehicle, Motion::ConstantVelocity { vx: speed, vy: 0.0 })
                    .traffic(OneShot::at(
                        vehicle,
                        workload::vehicle_reporter(base_loc, 6, 16),
                    ))
                    .horizon(SimDuration::from_micros(20_000_000)),
            });
        }
    }

    let relay_home = Location::new(2, -5);
    let relay = Testbed::new(
        TopologySpec::custom(
            Topology::new(
                vec![
                    base_loc,
                    Location::new(1, 1),
                    Location::new(4, 1),
                    Location::new(5, 1),
                    relay_home,
                ],
                Connectivity::Range(2.0),
            ),
            LossModel::perfect(),
        ),
        config.clone(),
        family,
    );
    for (s, speed) in [0.0, 0.5, 1.0].into_iter().enumerate() {
        for t in 0..TRIALS {
            out.push(TrialDef {
                kind: Kind::Scenario,
                substrate: "relay_islands",
                spec: relay
                    .scenario(u64::from(t) * 524_287 + s as u64 * 131)
                    .motion(
                        relay_home,
                        Motion::LinearWaypoints {
                            waypoints: vec![Location::new(2, 1)],
                            speed,
                        },
                    )
                    .client(ClosedLoop::at_base(
                        SimDuration::from_millis(500),
                        40,
                        workload::smove_test_agent(Location::new(5, 1), base_loc),
                    ))
                    .horizon(SimDuration::from_micros(30_000_000)),
            });
        }
    }

    let mut positions = vec![base_loc];
    for y in 1..=5i16 {
        for x in 1..=5i16 {
            positions.push(Location::new(x, y));
        }
    }
    let sentinel = Location::new(4, -1);
    positions.push(sentinel);
    let fire_bed = Testbed::new(
        TopologySpec::custom(
            Topology::new(positions, Connectivity::Range(1.5)),
            LossModel::perfect(),
        ),
        config,
        family,
    );
    for (s, spread) in [0.2, 0.4].into_iter().enumerate() {
        for t in 0..TRIALS {
            let mut fire = FireModel::new(
                Location::new(3, 3),
                SimTime::ZERO + SimDuration::from_micros(5_000_000),
            );
            fire.spread_per_sec = spread;
            out.push(TrialDef {
                kind: Kind::Scenario,
                substrate: "fire_field",
                spec: fire_bed
                    .scenario(u64::from(t) * 524_287 + s as u64 * 193)
                    .with_env(Environment::with_fire(fire))
                    .motion(
                        sentinel,
                        Motion::Circle {
                            radius: 1.0,
                            period_s: 12.0,
                        },
                    )
                    .traffic(OneShot::at_base(workload::FIRE_TRACKER))
                    .traffic(OneShot::at(
                        Location::new(2, 3),
                        workload::fire_detector(base_loc, 8),
                    ))
                    .traffic(OneShot::at(
                        Location::new(4, 3),
                        workload::fire_detector(base_loc, 8),
                    ))
                    .traffic(OneShot::at(sentinel, workload::fire_detector(base_loc, 8)))
                    .horizon(SimDuration::from_micros(40_000_000)),
            });
        }
    }
    out
}
