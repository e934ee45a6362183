//! Cross-crate integration tests: the full stack from assembly source to
//! radio frames, exercised through the umbrella crate's public API.

use agilla_suite::agilla::{self, workload, AgillaConfig, AgillaNetwork, Environment, FireModel};
use agilla_suite::common::{Location, NodeId, SensorType};
use agilla_suite::radio::{Connectivity, LossModel, Topology};
use agilla_suite::sim::{SimDuration, SimTime};
use agilla_suite::tuplespace::{Field, Template, TemplateField};

#[test]
fn paper_headline_five_hop_migration() {
    // "An agent can migrate 5 hops in less than 1.1 seconds" (Abstract) —
    // on the lossless network, i.e. without retransmission inflation.
    let mut net = AgillaNetwork::reliable_5x5(AgillaConfig::default(), 1);
    let id = net
        .inject_source(&workload::one_way_agent("smove", Location::new(5, 1)))
        .unwrap();
    net.run_for(SimDuration::from_secs(5));
    let target = net.node_at(Location::new(5, 1)).unwrap();
    let arrivals = net.log().arrivals(id, target);
    assert_eq!(arrivals.len(), 1, "agent arrived");
    let latency = arrivals[0].since(net.log().injected_at(id).unwrap());
    assert!(
        latency.as_millis() < 1_100,
        "5-hop migration took {latency}, paper promises < 1.1 s"
    );
}

#[test]
fn paper_headline_five_hop_reliability() {
    // "with 92% reliability" (Abstract) — on the lossy testbed profile.
    let trials = 40u32;
    let mut ok = 0;
    for t in 0..trials {
        let mut net = AgillaNetwork::testbed_5x5(AgillaConfig::default(), 7_000 + u64::from(t));
        let id = net
            .inject_source(&workload::one_way_agent("smove", Location::new(5, 1)))
            .unwrap();
        net.run_for(SimDuration::from_secs(15));
        let target = net.node_at(Location::new(5, 1)).unwrap();
        if net.log().arrived(id, target) {
            ok += 1;
        }
    }
    let rate = f64::from(ok) / f64::from(trials);
    assert!(
        (0.80..=1.0).contains(&rate),
        "5-hop reliability {rate}, paper reports 92%"
    );
}

#[test]
fn fire_case_study_end_to_end() {
    // Sections 2.1 + 5, compressed: detector senses fire, tracker clones to
    // the burning node, perimeter mark appears.
    let mut net = AgillaNetwork::reliable_5x5(AgillaConfig::default(), 5);
    net.set_environment(Environment::with_fire(FireModel::new(
        Location::new(4, 4),
        SimTime::ZERO + SimDuration::from_secs(5),
    )));
    let tracker = net.inject_source(workload::FIRE_TRACKER).unwrap();
    net.inject_source_at(
        Location::new(4, 4),
        &workload::fire_detector(Location::new(0, 1), 8),
    )
    .unwrap();
    net.run_for(SimDuration::from_secs(60));

    let fire_node = net.node_at(Location::new(4, 4)).unwrap();
    let trk = Template::new(vec![
        TemplateField::exact(Field::str("trk")),
        TemplateField::any_location(),
    ]);
    assert_eq!(net.node(fire_node).space.count(&trk), 1, "perimeter marked");
    assert_eq!(
        net.find_agent(tracker),
        Some(net.base()),
        "tracker still on duty"
    );
}

#[test]
fn strong_clone_carries_state_weak_clone_resets_it() {
    let mut net = AgillaNetwork::reliable_5x5(AgillaConfig::default(), 9);
    // The agent stores 42 in heap 0, then clones strongly to (1,2). The
    // clone resumes after the sclone with the heap intact and writes the
    // value into its local tuple space; the original halts.
    let src = "\
pushcl 42
setvar 0
pushloc 1 2
sclone
loc
pushloc 1 2
ceq
rjumpc CLONE
halt
CLONE getvar 0
pushc 1
out
halt";
    net.inject_source_at(Location::new(1, 1), src).unwrap();
    net.run_for(SimDuration::from_secs(5));
    let nb = net.node_at(Location::new(1, 2)).unwrap();
    let tmpl = Template::new(vec![TemplateField::exact(Field::value(42))]);
    assert_eq!(
        net.node(nb).space.count(&tmpl),
        1,
        "strong clone kept its heap"
    );
}

#[test]
fn region_epsilon_addressing_reaches_nearby_node() {
    // ε = 1 lets an agent address (0,0) — where no mote sits — and land on
    // whichever node first matches within the tolerance ((0,1) or (1,1)).
    let config = AgillaConfig {
        epsilon: 1,
        ..AgillaConfig::default()
    };
    let mut net = AgillaNetwork::new(
        Topology::grid_with_base(3, 3),
        LossModel::perfect(),
        config,
        Environment::ambient(),
        3,
    );
    let id = net
        .inject_source_at(Location::new(2, 2), "pushloc 0 0\nsmove\nhalt")
        .unwrap();
    net.run_for(SimDuration::from_secs(5));
    let landing = net
        .log()
        .records()
        .iter()
        .find_map(|r| match r {
            agilla::stats::OpRecord::MigrationArrived { agent, node, .. } if *agent == id => {
                Some(*node)
            }
            _ => None,
        })
        .expect("agent arrived somewhere");
    let loc = net.node(landing).loc;
    assert!(
        loc.matches_within(Location::new(0, 0), 1),
        "landed at {loc}, outside the ε-region of (0,0)"
    );
    // Without tolerance, the same program faults nothing but never arrives:
    let mut strict = AgillaNetwork::new(
        Topology::grid_with_base(3, 3),
        LossModel::perfect(),
        AgillaConfig::default(),
        Environment::ambient(),
        3,
    );
    let id2 = strict
        .inject_source_at(Location::new(2, 2), "pushloc 0 0\nsmove\nhalt")
        .unwrap();
    strict.run_for(SimDuration::from_secs(5));
    assert!(
        strict.log().records().iter().all(|r| !matches!(
            r,
            agilla::stats::OpRecord::MigrationArrived { agent, .. } if *agent == id2
        )),
        "exact addressing cannot land on a nonexistent node"
    );
}

#[test]
fn sensor_capability_discovery_via_tuples() {
    // An agent discovers whether its node has a magnetometer by probing the
    // capability tuples — no magnetometer in the ambient environment, so the
    // probe fails and the agent signals via LEDs.
    let mut net = AgillaNetwork::reliable_5x5(AgillaConfig::default(), 11);
    let src = "\
pushrt magnetometer
pushc 1
rdp
rjumpc HAVE
pushc 1
putled
halt
HAVE pushc 7
putled
halt";
    net.inject_source(src).unwrap();
    net.run_for(SimDuration::from_secs(2));
    assert_eq!(net.node(net.base()).leds, 1, "no magnetometer advertised");

    // Temperature IS advertised.
    let src2 = "\
pushrt temperature
pushc 1
rdp
rjumpc HAVE
pushc 1
putled
halt
HAVE pushc 7
putled
halt";
    let mut net = AgillaNetwork::reliable_5x5(AgillaConfig::default(), 11);
    net.inject_source(src2).unwrap();
    net.run_for(SimDuration::from_secs(2));
    assert_eq!(net.node(net.base()).leds, 7, "temperature advertised");
}

#[test]
fn mate_and_agilla_share_the_radio_substrate() {
    // The baseline and Agilla build on the same topology/loss types.
    let topo = Topology::grid(4, 4);
    let mut mate = agilla_suite::mate::MateNetwork::new(topo.clone(), LossModel::perfect(), 1);
    let capsule =
        agilla_suite::mate::Capsule::new(agilla_suite::mate::CapsuleKind::Clock, 1, vec![0; 10])
            .unwrap();
    mate.install_at(NodeId(0), capsule);
    let done = mate.run_until_programmed(
        agilla_suite::mate::CapsuleKind::Clock,
        1,
        SimDuration::from_secs(60),
    );
    assert!(done.is_some());

    let mut net = AgillaNetwork::new(
        topo,
        LossModel::perfect(),
        AgillaConfig::default(),
        Environment::ambient(),
        1,
    );
    let id = net.inject_source("halt").unwrap();
    net.run_for(SimDuration::from_secs(1));
    assert!(net.log().halted_at(id).is_some());
}

#[test]
fn agents_survive_partitions_and_heal() {
    // A line network where the middle node is the only bridge: the route
    // exists, migration crosses it.
    let topo = Topology::new(
        vec![
            Location::new(1, 1),
            Location::new(2, 1),
            Location::new(3, 1),
        ],
        Connectivity::GridAdjacent,
    );
    let mut net = AgillaNetwork::new(
        topo,
        LossModel::perfect(),
        AgillaConfig::default(),
        Environment::ambient(),
        8,
    );
    let id = net.inject_source("pushloc 3 1\nsmove\nhalt").unwrap();
    net.run_for(SimDuration::from_secs(5));
    assert!(
        net.log().arrived(id, NodeId(2)),
        "relayed across the bridge"
    );
}

#[test]
fn full_vm_to_radio_determinism() {
    let run = |seed: u64| {
        let mut net = AgillaNetwork::testbed_5x5(AgillaConfig::default(), seed);
        net.inject_source(workload::SMOVE_TEST_AGENT).unwrap();
        net.inject_source(workload::ROUT_TEST_AGENT).unwrap();
        net.run_for(SimDuration::from_secs(10));
        (
            net.medium().frames_sent(),
            net.medium().frames_lost(),
            net.log().records().len(),
        )
    };
    assert_eq!(run(1234), run(1234), "bit-identical replays");
    assert_ne!(run(1234), run(4321), "seeds matter");
}

#[test]
fn overload_sheds_gracefully() {
    // Saturate the base with agents, then keep injecting: admission refuses,
    // nothing crashes, and the resident agents still finish.
    let mut net = AgillaNetwork::reliable_5x5(AgillaConfig::default(), 13);
    let mut admitted = Vec::new();
    for _ in 0..4 {
        admitted.push(net.inject_source("pushcl 24\nsleep\nhalt").unwrap());
    }
    for _ in 0..10 {
        assert!(
            net.inject_source("halt").is_err(),
            "admission control holds"
        );
    }
    net.run_for(SimDuration::from_secs(30));
    for id in admitted {
        assert!(net.log().halted_at(id).is_some());
    }
    // Slots are free again.
    net.inject_source("halt").unwrap();
}

#[test]
fn environment_sensing_reaches_agents() {
    // A constant field value propagates through sense -> putled.
    let mut net = AgillaNetwork::reliable_5x5(AgillaConfig::default(), 17);
    net.set_environment(
        Environment::ambient().with(SensorType::Temperature, agilla::FieldModel::Constant(123)),
    );
    net.inject_source("pushc TEMPERATURE\nsense\nputled\nhalt")
        .unwrap();
    net.run_for(SimDuration::from_secs(1));
    assert_eq!(net.node(net.base()).leds, 123);
}
