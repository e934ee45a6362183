//! Functional tests of the Agilla middleware on the simulated testbed.

use agilla::workload;
use agilla::{AgillaConfig, AgillaNetwork, Environment, FireModel};
use agilla_tuplespace::{Field, Template, TemplateField};
use wsn_common::{AgentId, Location, NodeId};
use wsn_radio::{LossModel, Topology};
use wsn_sim::{SimDuration, SimTime};

fn reliable() -> AgillaNetwork {
    AgillaNetwork::reliable_5x5(AgillaConfig::default(), 7)
}

#[test]
fn blink_agent_runs_and_halts() {
    let mut net = reliable();
    let id = net.inject_source(workload::BLINK_AGENT).unwrap();
    net.run_for(SimDuration::from_secs(1));
    assert!(net.log().halted_at(id).is_some(), "blink agent halts");
    assert_eq!(net.node(net.base()).leds, 7);
}

#[test]
fn smove_agent_round_trips_on_reliable_network() {
    let mut net = reliable();
    let id = net.inject_source(workload::SMOVE_TEST_AGENT).unwrap();
    net.run_for(SimDuration::from_secs(10));
    let target = net.node_at(Location::new(5, 1)).unwrap();
    assert!(net.log().arrived(id, target), "reached (5,1)");
    assert!(net.log().arrived(id, net.base()), "returned to base");
    let halted = net
        .log()
        .halted_at(id)
        .expect("halted after the round trip");
    // 5 hops out + 5 hops back at ~225 ms/hop: between 1.5 and 4 seconds.
    assert!(
        halted > SimTime::from_micros(1_500_000),
        "halted at {halted}"
    );
    assert!(
        halted < SimTime::from_micros(4_000_000),
        "halted at {halted}"
    );
    // The agent is gone from every node.
    assert_eq!(net.find_agent(id), None);
}

#[test]
fn rout_agent_places_tuple_remotely() {
    let mut net = reliable();
    let id = net.inject_source(workload::ROUT_TEST_AGENT).unwrap();
    net.run_for(SimDuration::from_secs(5));
    let target = net.node_at(Location::new(5, 1)).unwrap();
    let tmpl = Template::new(vec![TemplateField::exact(Field::value(1))]);
    assert_eq!(net.node(target).space.count(&tmpl), 1, "tuple delivered");
    // The remote op completed successfully before the agent halted.
    let ops = net.log().remote_ops_of(id);
    assert_eq!(ops.len(), 1);
    let (success, retransmitted, _) = net.log().remote_completion(ops[0]).unwrap();
    assert!(success);
    assert!(!retransmitted, "no retries on a lossless network");
    assert!(net.log().halted_at(id).is_some());
}

#[test]
fn remote_op_latency_is_near_55ms_per_hop_pair() {
    // One hop: base -> (1,1).
    let mut net = reliable();
    let id = net
        .inject_source(&workload::rout_test_agent(Location::new(1, 1)))
        .unwrap();
    net.run_for(SimDuration::from_secs(5));
    let ops = net.log().remote_ops_of(id);
    let issued = net.log().remote_issued_at(ops[0]).unwrap();
    let (success, _, done) = net.log().remote_completion(ops[0]).unwrap();
    assert!(success);
    let latency = done.since(issued);
    // Paper: ~55 ms one hop. Accept a generous band; the bench calibrates.
    assert!(
        (30..=90).contains(&latency.as_millis()),
        "one-hop rout latency {latency}"
    );
}

#[test]
fn smove_one_hop_latency_is_near_225ms() {
    let mut net = reliable();
    let id = net
        .inject_source(&workload::one_way_agent("smove", Location::new(1, 1)))
        .unwrap();
    net.run_for(SimDuration::from_secs(5));
    let target = net.node_at(Location::new(1, 1)).unwrap();
    let arrivals = net.log().arrivals(id, target);
    assert_eq!(arrivals.len(), 1);
    let injected = net.log().injected_at(id).unwrap();
    let latency = arrivals[0].since(injected);
    assert!(
        (120..=350).contains(&latency.as_millis()),
        "one-hop smove latency {latency}"
    );
}

#[test]
fn weak_clone_spreads_to_neighbor_and_restarts() {
    // wclone to (1,2): the clone restarts at pc 0, lights LEDs, halts; the
    // original continues past the wclone and halts too.
    let mut net = reliable();
    // Only the original (standing at (1,1)) clones, so the copy's restart at
    // pc 0 does not clone again.
    let src = "\
pushc 3
putled
loc
pushloc 1 1
ceq
rjumpc CLONE
halt
CLONE pushloc 1 2
wclone
halt";
    let id = net.inject_source_at(Location::new(1, 1), src).unwrap();
    net.run_for(SimDuration::from_secs(5));
    let nb = net.node_at(Location::new(1, 2)).unwrap();
    // The clone (a different id) arrived and ran from the beginning.
    let arrived: Vec<_> = net
        .log()
        .records()
        .iter()
        .filter_map(|r| match r {
            agilla::stats::OpRecord::MigrationArrived { agent, node, .. } if *node == nb => {
                Some(*agent)
            }
            _ => None,
        })
        .collect();
    assert_eq!(arrived.len(), 1);
    let clone_id = arrived[0];
    assert_ne!(clone_id, id, "clones get fresh ids");
    assert_eq!(net.node(nb).leds, 3, "clone restarted from pc 0");
    assert!(net.log().halted_at(id).is_some());
    assert!(net.log().halted_at(clone_id).is_some());
}

#[test]
fn local_weak_clone_shares_the_code() {
    // The original (condition 0) clones itself onto its own mote; the clone
    // restarts at pc 0 with condition 1 and skips straight to `wait`, so
    // both stay resident.
    let mut net = reliable();
    let src = "\
rjumpc PARK
loc
wclone
PARK wait";
    let here = Location::new(1, 1);
    let id = net.inject_source_at(here, src).unwrap();
    net.run_for(SimDuration::from_secs(1));
    let node = net.node_at(here).unwrap();
    let clones: Vec<_> = net
        .log()
        .records()
        .iter()
        .filter_map(|r| match r {
            agilla::stats::OpRecord::MigrationArrived {
                agent, node: at, ..
            } if *at == node => Some(*agent),
            _ => None,
        })
        .collect();
    assert_eq!(clones.len(), 1, "one local clone");
    let original = net.agent_state(id).expect("original resident");
    let clone = net.agent_state(clones[0]).expect("clone resident");
    assert_eq!(original.condition(), 2, "the original saw a local clone");
    assert_eq!(clone.code(), original.code());
    assert_eq!(
        clone.code().as_ptr(),
        original.code().as_ptr(),
        "a local clone shares its original's code, not a copy"
    );
}

#[test]
fn blocking_in_wakes_on_remote_insertion() {
    let mut net = reliable();
    // Consumer on (2,1) blocks on <value>; producer on (1,1) routs one over.
    let consumer_src = "pusht value\npushc 1\nin\nputled\nhalt";
    // The consumer pushes the tuple <9>: after `in`, stack is [9, 1(arity)];
    // putled pops the arity... display something nonzero either way.
    let consumer = net
        .inject_source_at(Location::new(2, 1), consumer_src)
        .unwrap();
    net.run_for(SimDuration::from_secs(1));
    assert!(
        net.log().halted_at(consumer).is_none(),
        "consumer is blocked"
    );

    let producer_src = "pushc 9\npushc 1\npushloc 2 1\nrout\nhalt";
    net.inject_source_at(Location::new(1, 1), producer_src)
        .unwrap();
    net.run_for(SimDuration::from_secs(5));
    assert!(
        net.log().halted_at(consumer).is_some(),
        "consumer unblocked and finished"
    );
    let consumer_node = net.node_at(Location::new(2, 1)).unwrap();
    // `in` removed the tuple.
    let tmpl = Template::new(vec![TemplateField::any_value()]);
    assert_eq!(net.node(consumer_node).space.count(&tmpl), 0);
}

#[test]
fn reaction_fires_on_rout_and_fire_tracker_clones_to_fire() {
    let mut net = reliable();
    // FireTracker waits at the base; a detector at (3,3) sends the alert.
    let tracker = net.inject_source(workload::FIRE_TRACKER).unwrap();
    // Fire igniting immediately at (3,3).
    net.set_environment(Environment::with_fire(FireModel::new(
        Location::new(3, 3),
        SimTime::ZERO,
    )));
    let detector_src = workload::fire_detector(Location::new(0, 1), 8);
    let detector = net
        .inject_source_at(Location::new(3, 3), &detector_src)
        .unwrap();
    net.run_for(SimDuration::from_secs(20));

    // The detector sensed >200, sent the alert, and halted.
    assert!(net.log().halted_at(detector).is_some(), "detector done");
    // The tracker's reaction fired and a clone arrived at the fire node.
    let fire_node = net.node_at(Location::new(3, 3)).unwrap();
    let trk = Template::new(vec![
        TemplateField::exact(Field::str("trk")),
        TemplateField::any_location(),
    ]);
    assert_eq!(
        net.node(fire_node).space.count(&trk),
        1,
        "perimeter mark at the fire node"
    );
    // The original tracker is still waiting for further alerts.
    assert_eq!(net.find_agent(tracker), Some(net.base()));
}

/// Regression test for the two migration-robustness fixes that landed with
/// the workspace bootstrap: `FIRE_TRACKER` retries `sclone` on condition 0
/// (so a failed hop cannot strand the tracker clone), and receivers re-ack
/// duplicate migration messages from the completed-session cache (so a lost
/// final ack cannot duplicate the clone). On the lossy testbed profile the
/// mark count distinguishes the three outcomes: 0 = retry missing,
/// 2+ = duplicate suppression missing, 1 = both correct.
///
/// The seeds are chosen so the detector's single unacknowledged `rout`
/// alert actually reaches the tracker (the paper's Fig. 13 detector is
/// fire-and-forget, so on some trajectories the alert is simply lost) *and*
/// the run re-acks at least one duplicate from the completed-session cache —
/// both protocol paths under test are provably exercised every time.
#[test]
fn fire_tracking_is_exactly_once_under_loss() {
    for seed in [1u64, 6, 9, 13, 18, 23] {
        let mut net = AgillaNetwork::testbed_5x5(AgillaConfig::default(), seed);
        let fire_loc = Location::new(4, 4);
        net.set_environment(Environment::with_fire(FireModel::new(
            fire_loc,
            SimTime::ZERO,
        )));
        net.inject_source(workload::FIRE_TRACKER).unwrap();
        net.inject_source_at(fire_loc, &workload::fire_detector(Location::new(0, 1), 8))
            .unwrap();
        net.run_for(SimDuration::from_secs(90));
        let fire_node = net.node_at(fire_loc).unwrap();
        let trk = Template::new(vec![
            TemplateField::exact(Field::str("trk")),
            TemplateField::any_location(),
        ]);
        assert_eq!(
            net.node(fire_node).space.count(&trk),
            1,
            "seed {seed}: exactly one perimeter mark"
        );
        assert!(
            net.metrics().counter("migration.retx") > 0,
            "seed {seed}: the lossy profile forced migration retransmissions"
        );
        assert!(
            net.metrics().counter("migration.reack") > 0,
            "seed {seed}: a duplicate was answered from the completed-session cache"
        );
    }
}

#[test]
fn capability_tuples_advertise_sensors() {
    let net = reliable();
    let n = net.node_at(Location::new(2, 2)).unwrap();
    let tmpl = Template::new(vec![TemplateField::Any(
        agilla_tuplespace::FieldType::SensorType,
    )]);
    assert_eq!(net.node(n).space.count(&tmpl), 2, "temperature + light");
}

#[test]
fn admission_limits_concurrent_agents() {
    let mut net = reliable();
    // `wait` with no reactions parks an agent forever.
    for _ in 0..4 {
        net.inject_source("wait\nhalt").unwrap();
    }
    let err = net.inject_source("halt").unwrap_err();
    assert!(matches!(err, agilla::AgillaError::Admission { .. }));
    net.run_for(SimDuration::from_secs(1));
    assert_eq!(net.node(net.base()).agents().len(), 4);
}

#[test]
fn faulting_agent_is_killed_and_resources_reclaimed() {
    // The runtime kill path needs a faulting program to reach execution,
    // so run with the paper's accept-anything admission (verifier off) —
    // the default verifier would refuse this agent at injection.
    let config = AgillaConfig {
        verify_on_inject: false,
        ..AgillaConfig::default()
    };
    let mut net = AgillaNetwork::reliable_5x5(config, 7);
    let id = net.inject_source("pop\nhalt").unwrap(); // pop on empty stack
    net.run_for(SimDuration::from_secs(1));
    assert!(net
        .log()
        .records()
        .iter()
        .any(|r| matches!(r, agilla::stats::OpRecord::AgentFaulted { agent, .. } if *agent == id)));
    assert_eq!(net.find_agent(id), None);
    // The slot is reusable.
    net.inject_source(workload::BLINK_AGENT).unwrap();
}

/// Two nodes far apart: no route at all between them.
fn partitioned() -> AgillaNetwork {
    let topo = Topology::new(
        vec![Location::new(0, 1), Location::new(50, 50)],
        wsn_radio::Connectivity::GridAdjacent,
    );
    AgillaNetwork::new(
        topo,
        LossModel::perfect(),
        AgillaConfig::default(),
        Environment::ambient(),
        3,
    )
}

/// The agents named in `MigrationFailed` records, in log order.
fn failed_migrations(net: &AgillaNetwork) -> Vec<AgentId> {
    net.log()
        .records()
        .iter()
        .filter_map(|r| match r {
            agilla::stats::OpRecord::MigrationFailed { agent, .. } => Some(*agent),
            _ => None,
        })
        .collect()
}

fn trace_count(net: &AgillaNetwork, kind: &str) -> usize {
    net.trace().iter().filter(|r| r.kind == kind).count()
}

#[test]
fn migration_failure_on_partitioned_network_resumes_locally() {
    for op in ["smove", "sclone", "wclone"] {
        let mut net = partitioned();
        // `ceq` of two equal values sets condition 1 before the attempt;
        // the agent sleeps 2 s (16 ticks) after it, so its state can be
        // read before it halts.
        let src = format!("pushc 1\npushc 1\nceq\npushloc 50 50\n{op}\npushcl 16\nsleep\nhalt");
        let id = net.inject_source(&src).unwrap();
        net.run_for(SimDuration::from_secs(1));
        // No route: the agent resumes locally with condition 0.
        let state = net.agent_state(id).expect("original still resident");
        assert_eq!(state.condition(), 0, "{op}");
        let failed = failed_migrations(&net);
        assert_eq!(failed.len(), 1, "{op}");
        let m = net.metrics();
        assert_eq!(m.counter("migration.started"), 1, "{op}");
        assert_eq!(m.counter("migration.clone_sessions"), 0, "{op}");
        assert_eq!(trace_count(&net, "migrate.start"), 1, "{op}");
        assert_eq!(trace_count(&net, "migrate.noroute"), 1, "{op}");
        if op == "smove" {
            // The mover itself is the failed agent.
            assert_eq!(failed, vec![id]);
        } else {
            // A clone fails under a fresh id of its own.
            assert_ne!(failed[0], id, "{op}");
            assert_eq!(
                net.node(NodeId(0)).agents(),
                vec![id],
                "{op}: no copy admitted"
            );
        }
        net.run_for(SimDuration::from_secs(5));
        assert!(net.log().halted_at(id).is_some(), "{op}");
    }
}

#[test]
fn unroutable_clone_retry_loop_consumes_one_agent_id_per_attempt() {
    // FIRETRACKER's RETRY idiom (`rjump RETRY` on condition 0), bounded to
    // five attempts by a counter in heap slot 0.
    const ATTEMPTS: usize = 5;
    let src = format!(
        "\
pushc 0
setvar 0
RETRY pushloc 50 50
sclone
rjumpc DONE
getvar 0
inc
setvar 0
getvar 0
pushc {ATTEMPTS}
ceq
rjumpc DONE
rjump RETRY
DONE halt"
    );
    let mut net = partitioned();
    let id = net.inject_source(&src).unwrap();
    net.run_for(SimDuration::from_secs(2));
    assert!(net.log().halted_at(id).is_some());
    let failed = failed_migrations(&net);
    assert_eq!(failed.len(), ATTEMPTS);
    // Each attempt failed under its own fresh id, allocated in order.
    let expected: Vec<AgentId> = (1..=ATTEMPTS as u16).map(|k| AgentId(id.0 + k)).collect();
    assert_eq!(failed, expected);
    assert_eq!(net.metrics().counter("migration.started"), ATTEMPTS as u64);
    assert_eq!(net.metrics().counter("migration.clone_sessions"), 0);
    assert_eq!(trace_count(&net, "migrate.start"), ATTEMPTS);
    assert_eq!(trace_count(&net, "migrate.noroute"), ATTEMPTS);
    // One id per attempt was consumed: the next agent gets the one after.
    let next = net.inject_source(workload::BLINK_AGENT).unwrap();
    assert_eq!(next, AgentId(id.0 + ATTEMPTS as u16 + 1));
}

#[test]
fn lossy_network_still_mostly_delivers_one_hop_migrations() {
    let mut successes = 0;
    for seed in 0..20 {
        let mut net = AgillaNetwork::testbed_5x5(AgillaConfig::default(), 1000 + seed);
        let id = net
            .inject_source(&workload::one_way_agent("smove", Location::new(1, 1)))
            .unwrap();
        net.run_for(SimDuration::from_secs(10));
        let target = net.node_at(Location::new(1, 1)).unwrap();
        if net.log().arrived(id, target) {
            successes += 1;
        }
    }
    assert!(successes >= 17, "one-hop smove succeeded {successes}/20");
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = |seed: u64| -> Vec<String> {
        let mut net = AgillaNetwork::testbed_5x5(AgillaConfig::default(), seed);
        net.inject_source(workload::SMOVE_TEST_AGENT).unwrap();
        net.run_for(SimDuration::from_secs(8));
        net.trace().iter().map(|r| r.to_string()).collect()
    };
    assert_eq!(run(99), run(99));
}

#[test]
fn getnbr_sees_preseeded_neighbors() {
    let mut net = reliable();
    // numnbrs on a corner grid node: (1,1) has base + (2,1) + (1,2).
    let src = "numnbrs\nputled\nhalt";
    net.inject_source_at(Location::new(1, 1), src).unwrap();
    net.run_for(SimDuration::from_secs(1));
    let n = net.node_at(Location::new(1, 1)).unwrap();
    assert_eq!(net.node(n).leds, 3);
}

#[test]
fn multiple_agents_share_a_node_round_robin() {
    let mut net = reliable();
    // Two long-running counters on the base node; both must make progress.
    let src = "\
pushc 0
setvar 0
LOOP getvar 0
inc
setvar 0
getvar 0
pushcl 50
ceq
rjumpc DONE
rjump LOOP
DONE getvar 0
putled
halt";
    let a = net.inject_source(src).unwrap();
    let b = net.inject_source(src).unwrap();
    net.run_for(SimDuration::from_secs(2));
    assert!(net.log().halted_at(a).is_some());
    assert!(net.log().halted_at(b).is_some());
    // Interleaving: both halted within a slice-ish window of each other.
    let ha = net.log().halted_at(a).unwrap();
    let hb = net.log().halted_at(b).unwrap();
    let gap = hb
        .saturating_since(ha)
        .as_micros()
        .max(ha.saturating_since(hb).as_micros());
    assert!(gap < 200_000, "round-robin keeps both moving (gap {gap}us)");
}

#[test]
fn rinp_retrieves_and_removes_remote_tuple() {
    let mut net = reliable();
    // Seed a tuple at (2,1) via a local agent.
    net.inject_source_at(Location::new(2, 1), "pushc 5\npushc 1\nout\nhalt")
        .unwrap();
    net.run_for(SimDuration::from_secs(1));
    // From the base: rinp <value> at (2,1), then LED the field value. The
    // miss path must branch away: on failure nothing is pushed, so an
    // unconditional pop would underflow (and the verifier would refuse it).
    let src = "\
pusht value
pushc 1
pushloc 2 1
rinp
rjumpc GOT
halt
GOT pop  // drop arity
putled
halt";
    let id = net.inject_source(src).unwrap();
    net.run_for(SimDuration::from_secs(5));
    assert!(net.log().halted_at(id).is_some());
    assert_eq!(net.node(net.base()).leds, 5, "retrieved value displayed");
    let n = net.node_at(Location::new(2, 1)).unwrap();
    let tmpl = Template::new(vec![TemplateField::any_value()]);
    assert_eq!(net.node(n).space.count(&tmpl), 0, "rinp removed the tuple");
}

#[test]
fn rrdp_copies_without_removing() {
    let mut net = reliable();
    net.inject_source_at(Location::new(2, 1), "pushc 6\npushc 1\nout\nhalt")
        .unwrap();
    net.run_for(SimDuration::from_secs(1));
    let src = "pusht value\npushc 1\npushloc 2 1\nrrdp\nrjumpc GOT\nhalt\nGOT pop\nputled\nhalt";
    let id = net.inject_source(src).unwrap();
    net.run_for(SimDuration::from_secs(5));
    assert!(net.log().halted_at(id).is_some());
    assert_eq!(net.node(net.base()).leds, 6);
    let n = net.node_at(Location::new(2, 1)).unwrap();
    let tmpl = Template::new(vec![TemplateField::any_value()]);
    assert_eq!(net.node(n).space.count(&tmpl), 1, "rrdp leaves the tuple");
}

#[test]
fn failed_remote_probe_sets_condition_zero() {
    let mut net = reliable();
    // rinp on an empty space: completes unsuccessfully; agent branches on
    // condition and lights 1 (failure path) instead of 7.
    let src = "\
pusht value
pushc 1
pushloc 3 1
rinp
rjumpc FOUND
pushc 1
putled
halt
FOUND pushc 7
putled
halt";
    let id = net.inject_source(src).unwrap();
    net.run_for(SimDuration::from_secs(5));
    assert!(net.log().halted_at(id).is_some());
    assert_eq!(net.node(net.base()).leds, 1);
}

#[test]
fn agent_ids_are_unique_across_clones() {
    let mut net = reliable();
    let src = "\
pushloc 1 2
wclone
pushloc 2 1
wclone
halt";
    net.inject_source_at(Location::new(1, 1), src).unwrap();
    net.run_for(SimDuration::from_secs(10));
    let mut ids: Vec<AgentId> = net
        .log()
        .records()
        .iter()
        .filter_map(|r| match r {
            agilla::stats::OpRecord::MigrationArrived { agent, .. } => Some(*agent),
            _ => None,
        })
        .collect();
    let before = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), before, "every clone has a distinct id");
    // Note: the wclone *copies* restart at pc 0 on their nodes and clone
    // again — exponential spread is bounded here by admission limits.
    assert!(before >= 2);
}

#[test]
fn end_to_end_migration_mode_works_when_lossless() {
    // The ablation variant still delivers agents on a perfect channel; its
    // weakness is loss compounding, not correctness.
    let config = AgillaConfig {
        hop_by_hop_migration: false,
        ..AgillaConfig::default()
    };
    let mut net = AgillaNetwork::new(
        Topology::grid_with_base(5, 5),
        LossModel::perfect(),
        config,
        Environment::ambient(),
        21,
    );
    let id = net
        .inject_source(&workload::one_way_agent("smove", Location::new(3, 1)))
        .unwrap();
    net.run_for(SimDuration::from_secs(20));
    let target = net.node_at(Location::new(3, 1)).unwrap();
    assert!(net.log().arrived(id, target), "e2e migration delivered");
    assert!(net.log().halted_at(id).is_some());
}

#[test]
fn strong_move_carries_registered_reactions() {
    // Reactions travel with strong migrations and are restored on arrival
    // (Section 3.2: "it automatically restores all of the agent's
    // reactions").
    let mut net = reliable();
    let src = "\
pushn fir
pusht value
pushc 2
pushc HANDLER
regrxn
pushloc 2 1
smove
wait
HANDLER pop
pop
pop
pushc 7
putled
halt";
    let id = net.inject_source_at(Location::new(1, 1), src).unwrap();
    net.run_for(SimDuration::from_secs(3));
    let target = net.node_at(Location::new(2, 1)).unwrap();
    assert_eq!(net.find_agent(id), Some(target), "agent moved");
    assert_eq!(
        net.node(target).registry.len(),
        1,
        "reaction restored at dest"
    );
    assert_eq!(
        net.node(net.node_at(Location::new(1, 1)).unwrap())
            .registry
            .len(),
        0,
        "reaction removed at source"
    );
    // Fire the restored reaction with a matching tuple from a local agent.
    net.inject_source_at(
        Location::new(2, 1),
        "pushn fir\npushc 3\npushc 2\nout\nhalt",
    )
    .unwrap();
    net.run_for(SimDuration::from_secs(3));
    assert_eq!(net.node(target).leds, 7, "restored reaction fired");
    assert!(net.log().halted_at(id).is_some());
}

#[test]
fn base_station_is_node_zero_one_hop_from_grid() {
    let net = reliable();
    assert_eq!(net.base(), NodeId(0));
    let base_loc = net.node(net.base()).loc;
    let corner = net.node_at(Location::new(1, 1)).unwrap();
    assert_eq!(net.node(corner).loc.grid_hops(base_loc), 1);
}

#[test]
fn agent_state_inspection() {
    let mut net = reliable();
    // Stores 42 in heap 0 and waits forever.
    let id = net
        .inject_source("pushcl 42\nsetvar 0\nwait\nhalt")
        .unwrap();
    net.run_for(SimDuration::from_secs(1));
    let state = net.agent_state(id).expect("agent resident");
    assert_eq!(
        state.heap(0),
        Some(&agilla_vm::StackValue::Exact(Field::value(42)))
    );
    assert_eq!(net.agent_status(id), Some(agilla::AgentStatus::Waiting));
    assert_eq!(net.agent_state(AgentId(999)), None);
}

#[test]
fn preemption_victims_rotate_round_robin_across_equal_priority_residents() {
    use agilla::{AppId, AppProfile, Priority};
    let mut net = reliable();
    net.register_app(AppProfile::new(AppId(1), "habitat").priority(Priority::Low));
    net.register_app(AppProfile::new(AppId(2), "fire").priority(Priority::High));
    // Sleeps far past the end of the test, so the resident stays
    // interruptible (Sleeping) and never vacates on its own.
    let sleeper = "pushcl 4000\nsleep\nhalt";
    // Fill every slot on the base station with equal-priority residents.
    let residents: Vec<AgentId> = (0..4)
        .map(|_| net.inject_source_as(sleeper, AppId(1)).unwrap())
        .collect();
    net.run_for(SimDuration::from_secs(1));
    // First high-priority arrival: the cursor starts at slot 0, so the
    // slot-0 resident is evicted and the arrival takes its place.
    let h1 = net.inject_source_as("halt", AppId(2)).unwrap();
    net.run_for(SimDuration::from_secs(1));
    assert!(
        net.log().halted_at(h1).is_some(),
        "short-lived high-pri ran"
    );
    // The halted agent freed slot 0; a fresh low-priority agent refills it
    // without any preemption.
    let refill = net.inject_source_as(sleeper, AppId(1)).unwrap();
    net.run_for(SimDuration::from_secs(1));
    // Second high-priority arrival: lowest-slot victim selection would
    // hammer slot 0 (the refill) again; round-robin has advanced the
    // cursor past slot 0, so the slot-1 resident is the victim.
    net.inject_source_as("halt", AppId(2)).unwrap();
    let victims: Vec<AgentId> = net
        .log()
        .evictions()
        .into_iter()
        .map(|(agent, _, _)| agent)
        .collect();
    assert_eq!(victims, vec![residents[0], residents[1]]);
    assert!(
        !victims.contains(&refill),
        "the refilled slot is spared until the cursor wraps"
    );
}

/// A sleeper padded with no-op pairs to exactly `blocks` 22-byte code
/// blocks.
fn padded_sleeper(blocks: usize) -> String {
    let mut body = String::from("pushcl 4000\nsleep\n");
    loop {
        let src = format!("{body}halt");
        let len = agilla_vm::asm::assemble(&src).unwrap().into_code().len();
        if len.div_ceil(22) == blocks {
            return src;
        }
        body.push_str("pushc 1\npop\n");
    }
}

#[test]
fn preemption_with_free_slots_but_full_code_blocks_pins_its_victims() {
    use agilla::{AdmissionReason, AgillaError, AppId, AppProfile, Priority};
    let mut net = reliable();
    net.register_app(AppProfile::new(AppId(1), "habitat").priority(Priority::Low));
    net.register_app(AppProfile::new(AppId(2), "fire").priority(Priority::High));
    let base = net.base();
    let (b10, b9) = (padded_sleeper(10), padded_sleeper(9));
    let small = "pushcl 4000\nsleep\nhalt";
    // Two 10-block residents fill the 20 code blocks with two of the four
    // slots still free.
    let l1 = net.inject_source_as(&b10, AppId(1)).unwrap();
    let l2 = net.inject_source_as(&b10, AppId(1)).unwrap();
    net.run_for(SimDuration::from_secs(1));
    assert_eq!(net.node(base).agents(), vec![l1, l2]);
    assert!(!net.node(base).can_admit(1), "code blocks full");
    // So preemption fires while fewer than `MAX_AGENTS` agents are
    // resident: slot 0 goes, and the arrival halts at once.
    let h1 = net.inject_source_as("halt", AppId(2)).unwrap();
    net.run_for(SimDuration::from_secs(1));
    assert!(net.log().halted_at(h1).is_some());
    // More admissions follow: a refill of slot 0, a small arrival that
    // preempts slot 1 (the cursor's next), a 9-block resident in slot 2,
    // and another small arrival. The cursor now stands at slot 2, so that
    // resident is the victim, not slot 0's: the cursor counts all four
    // slots even while only two were ever occupied.
    let l3 = net.inject_source_as(&b10, AppId(1)).unwrap();
    let h2 = net.inject_source_as(small, AppId(2)).unwrap();
    let l4 = net.inject_source_as(&b9, AppId(1)).unwrap();
    let h3 = net.inject_source_as(small, AppId(2)).unwrap();
    assert!(matches!(
        net.inject_source_as(&b10, AppId(1)),
        Err(AgillaError::Admission {
            reason: AdmissionReason::NoSlots
        })
    ));
    net.run_for(SimDuration::from_secs(1));
    let victims: Vec<AgentId> = net
        .log()
        .evictions()
        .into_iter()
        .map(|(agent, _, _)| agent)
        .collect();
    assert_eq!(victims, vec![l1, l2, l4]);
    let layout: Vec<Option<AgentId>> = net
        .node(base)
        .slots
        .iter()
        .map(|s| s.as_ref().map(|s| s.agent.id()))
        .collect();
    assert_eq!(layout, vec![Some(l3), Some(h2), Some(h3), None]);
}
