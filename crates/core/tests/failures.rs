//! Failure-injection tests: the middleware under dead motes, and
//! exactly-once semantics for remote tuple-space operations under bursty
//! radio loss (the remote-op analogue of the migration lost-ack tests).

use agilla::{workload, AgillaConfig, AgillaNetwork, Environment};
use agilla_tuplespace::{Field, Template, TemplateField};
use proptest::prelude::*;
use wsn_common::{AgentId, Location, NodeId};
use wsn_radio::{Connectivity, LossModel, Topology};
use wsn_sim::SimDuration;

fn reliable() -> AgillaNetwork {
    AgillaNetwork::reliable_5x5(AgillaConfig::default(), 77)
}

#[test]
fn dead_node_stops_beaconing_and_ages_out() {
    let mut net = reliable();
    let victim = net.node_at(Location::new(2, 1)).unwrap();
    let observer = net.node_at(Location::new(1, 1)).unwrap();
    net.run_for(SimDuration::from_secs(2));
    let now = net.now();
    assert!(net
        .node(observer)
        .acq
        .live(now)
        .iter()
        .any(|(n, _)| *n == victim));

    net.kill_node(victim);
    assert!(net.is_dead(victim));
    // Past the acquaintance TTL the victim disappears from neighbor lists.
    net.run_for(SimDuration::from_secs(6));
    let now = net.now();
    assert!(
        !net.node(observer)
            .acq
            .live(now)
            .iter()
            .any(|(n, _)| *n == victim),
        "dead neighbor aged out"
    );
}

#[test]
fn routing_detours_around_a_dead_relay() {
    // (1,1) -> (3,3) with the central relay (2,2) dead: greedy forwarding
    // still makes progress along the grid edge once the dead node has aged
    // out of its neighbors' acquaintance lists.
    let mut net = reliable();
    let relay = net.node_at(Location::new(2, 2)).unwrap();
    net.kill_node(relay);
    // Wait out the acquaintance TTL so georouting no longer sees the relay.
    net.run_for(SimDuration::from_secs(6));
    let id = net
        .inject_source_at(
            Location::new(1, 1),
            &workload::one_way_agent("smove", Location::new(3, 3)),
        )
        .unwrap();
    net.run_for(SimDuration::from_secs(15));
    let target = net.node_at(Location::new(3, 3)).unwrap();
    assert!(
        net.log().arrived(id, target),
        "migration detoured around the dead relay"
    );
    // And the dead node itself was never a hop.
    assert!(net.node(relay).agents().is_empty());
}

#[test]
fn agents_on_a_dead_node_stop_executing() {
    let mut net = reliable();
    let node = net.node_at(Location::new(3, 3)).unwrap();
    // A slow counter that would halt after ~6 seconds of sleeping.
    let id = net
        .inject_source_at(Location::new(3, 3), "pushcl 48\nsleep\nhalt")
        .unwrap();
    net.run_for(SimDuration::from_secs(1));
    net.kill_node(node);
    net.run_for(SimDuration::from_secs(20));
    assert!(
        net.log().halted_at(id).is_none(),
        "agents die with their mote"
    );
}

#[test]
fn migration_into_a_dead_node_fails_and_resumes_sender() {
    // A two-node line: killing the destination strands the agent at the
    // sender, which resumes with condition 0 (the paper's failure path).
    let topo = Topology::new(
        vec![Location::new(1, 1), Location::new(2, 1)],
        Connectivity::GridAdjacent,
    );
    let mut net = AgillaNetwork::new(
        topo,
        LossModel::perfect(),
        AgillaConfig::default(),
        Environment::ambient(),
        5,
    );
    net.kill_node(NodeId(1));
    // Inject before the TTL expires: the sender still believes in the route.
    let src = "\
pushloc 2 1
smove
rjumpc ARRIVED
pushc 1
putled
halt
ARRIVED pushc 7
putled
halt";
    let id = net.inject_source(src).unwrap();
    net.run_for(SimDuration::from_secs(10));
    assert_eq!(net.log().migration_failures(), 1);
    assert!(
        net.log().halted_at(id).is_some(),
        "sender resumed and finished"
    );
    assert_eq!(
        net.node(NodeId(0)).leds,
        1,
        "condition 0 signalled the failure"
    );
}

#[test]
fn relay_whose_onward_hop_fails_readmits_the_agent() {
    // A four-node line: the agent leaves (1,1) for (4,1), but (3,1) is dead
    // while its neighbors still believe in it. The first hop succeeds, so
    // the relay at (2,1) holds the agent when its own hop fails, and
    // resumes it there with condition 0.
    let topo = Topology::new(
        (1..=4).map(|x| Location::new(x, 1)).collect(),
        Connectivity::GridAdjacent,
    );
    let mut net = AgillaNetwork::new(
        topo,
        LossModel::perfect(),
        AgillaConfig::default(),
        Environment::ambient(),
        3,
    );
    net.kill_node(NodeId(2));
    let id = net
        .inject_source("pushloc 4 1\nsmove\npushcl 800\nsleep\nhalt")
        .unwrap();
    net.run_for(SimDuration::from_secs(10));
    assert_eq!(net.find_agent(id), Some(NodeId(1)), "resumed at the relay");
    assert_eq!(net.agent_state(id).unwrap().condition(), 0);
    assert_eq!(net.log().migration_failures(), 1);
    assert!(net.log().records().iter().any(|r| matches!(
        r,
        agilla::stats::OpRecord::MigrationFailed { agent, node, .. }
            if *agent == id && *node == NodeId(1)
    )));
}

#[test]
fn remote_op_times_out_against_dead_destination() {
    let mut net = reliable();
    let dest = net.node_at(Location::new(3, 1)).unwrap();
    net.kill_node(dest);
    let id = net
        .inject_source(&workload::rout_test_agent(Location::new(3, 1)))
        .unwrap();
    // 2s timeout x (1 + 2 retries) = 6s worst case, plus slack.
    net.run_for(SimDuration::from_secs(10));
    let ops = net.log().remote_ops_of(id);
    let (success, retransmitted, _) = net.log().remote_completion(ops[0]).unwrap();
    assert!(!success, "no reply from a dead node");
    assert!(retransmitted, "the initiator retried before giving up");
    assert!(
        net.log().halted_at(id).is_some(),
        "agent continued past the failure"
    );
}

// --- exactly-once remote operations under bursty loss ----------------------

/// An agent that `rout`s `count` distinct one-field tuples
/// `<base>, <base+1>, …` to the node at `dest`, then halts. Every value is
/// unique across the fleet, so a duplicated insertion is directly countable
/// at the destination.
fn rout_flood_agent(base: i16, count: i16, dest: Location) -> String {
    format!(
        "\
pushcl 0
setvar 0
LOOP getvar 0
pushcl {base}
add
pushc 1
pushloc {} {}
rout
getvar 0
inc
setvar 0
getvar 0
pushcl {count}
ceq
rjumpc DONE
rjump LOOP
DONE halt",
        dest.x, dest.y
    )
}

/// An agent that performs `count` remote probes (`rinp` or `rrdp`) of the
/// any-value template against `dest`, popping the returned tuple on success,
/// then halts.
fn probe_flood_agent(op: &str, count: i16, dest: Location) -> String {
    format!(
        "\
pushcl 0
setvar 0
LOOP pusht value
pushc 1
pushloc {} {}
{op}
rjumpc GOT
rjump NEXT
GOT pop
pop
NEXT getvar 0
inc
setvar 0
getvar 0
pushcl {count}
ceq
rjumpc DONE
rjump LOOP
DONE halt",
        dest.x, dest.y
    )
}

/// An agent that locally `out`s `count` copies of the tuple `<7>`, then
/// halts (stock for the probe tests).
fn stock_agent(count: i16) -> String {
    format!(
        "\
pushcl 0
setvar 0
LOOP pushc 7
pushc 1
out
getvar 0
inc
setvar 0
getvar 0
pushcl {count}
ceq
rjumpc DONE
rjump LOOP
DONE halt",
        count = count
    )
}

/// The acceptance test for the reliable-session layer: ≥1000 `rout`
/// operations across the bursty-loss testbed, every inserted tuple globally
/// unique, with retransmissions *and* served-from-cache re-acks observed —
/// and not a single duplicate insertion at any destination.
///
/// Before the session layer, a retransmitted `RtsKind::Out` whose cached
/// reply had been capacity-evicted (8 entries for the whole node) would
/// re-execute `out` and insert a second copy; with 50 concurrent initiators
/// the old cache thrashed constantly, so this workload reliably reproduced
/// the duplication class. The TTL'd per-initiator-keyed cache must keep
/// every count at ≤ 1.
#[test]
fn thousand_routs_insert_exactly_once_under_bursty_loss() {
    const SENDERS_PER_NODE: i16 = 2;
    const OPS_PER_AGENT: i16 = 20;

    let mut net = AgillaNetwork::testbed_5x5(AgillaConfig::default(), 0xA11A);
    let grid: Vec<Location> = (1..=5i16)
        .flat_map(|x| (1..=5i16).map(move |y| Location::new(x, y)))
        .collect();

    // Node k hosts SENDERS_PER_NODE agents, all flooding node (k + 7) % 25 —
    // a 2–4 hop georouted path — with globally unique tuple values.
    let mut plan: Vec<(AgentId, Location, i16)> = Vec::new();
    let mut next_base = 1000i16;
    for (k, &loc) in grid.iter().enumerate() {
        let dest = grid[(k + 7) % grid.len()];
        for _ in 0..SENDERS_PER_NODE {
            let id = net
                .inject_source_at(loc, &rout_flood_agent(next_base, OPS_PER_AGENT, dest))
                .expect("inject rout flood agent");
            plan.push((id, dest, next_base));
            next_base += 100;
        }
    }
    let total_ops = plan.len() as i16 * OPS_PER_AGENT;
    assert!(total_ops >= 1000, "{total_ops} ops planned");

    // Worst case an agent chains OPS_PER_AGENT full 6.2 s timeout windows.
    net.run_for(SimDuration::from_secs(300));

    // Every agent issued all its ops, every op completed (success or not),
    // and every agent halted — nothing wedged in AwaitingRemote.
    let mut completed = 0u32;
    for &(id, _, _) in &plan {
        let ops = net.log().remote_ops_of(id);
        assert_eq!(ops.len(), OPS_PER_AGENT as usize, "{id} issued all ops");
        for op in ops {
            assert!(
                net.log().remote_completion(op).is_some(),
                "{id} op{op} completed"
            );
            completed += 1;
        }
        assert!(net.log().halted_at(id).is_some(), "{id} halted");
    }
    assert_eq!(completed, total_ops as u32);

    // THE invariant: no value was ever inserted twice, anywhere.
    for &(id, dest, base) in &plan {
        let dest_node = net.node_at(dest).expect("dest exists");
        for j in 0..OPS_PER_AGENT {
            let tmpl = Template::new(vec![TemplateField::exact(Field::value(base + j))]);
            let copies = net.node(dest_node).space.count(&tmpl);
            assert!(
                copies <= 1,
                "{id}: tuple <{}> inserted {copies} times — duplicate rout execution",
                base + j
            );
        }
    }

    // The run actually exercised the reliability machinery: requests were
    // retransmitted, and at least one retransmission was answered from the
    // completed-op cache instead of being re-executed.
    assert!(
        net.metrics().counter("remote.retx") > 0,
        "loss forced retransmissions"
    );
    assert!(
        net.metrics().counter("remote.reack") > 0,
        "a duplicate request was served from the reply cache"
    );
}

/// Exactly-once for destructive probes: `rinp` under bursty loss never
/// consumes more tuples than the number of requests issued, even when
/// requests are retransmitted. (A duplicated `rinp` execution would silently
/// eat a second tuple.) `rrdp` rides along to cover the read-only kind.
#[test]
fn lossy_rinp_never_consumes_more_than_once_per_request() {
    const STOCK: i16 = 40;
    const RINP_AGENTS: usize = 4;
    const RRDP_AGENTS: usize = 2;
    const OPS_PER_AGENT: i16 = 5;

    let mut net = AgillaNetwork::testbed_5x5(AgillaConfig::default(), 0xBEE);
    let dest = Location::new(3, 3);
    let stock_id = net.inject_source_at(dest, &stock_agent(STOCK)).unwrap();
    net.run_for(SimDuration::from_secs(5));
    assert!(
        net.log().halted_at(stock_id).is_some(),
        "stock agent filled the space"
    );
    let dest_node = net.node_at(dest).unwrap();
    let any_value = Template::new(vec![TemplateField::any_value()]);
    assert_eq!(net.node(dest_node).space.count(&any_value), STOCK as usize);

    let sources = [
        Location::new(1, 1),
        Location::new(5, 1),
        Location::new(1, 5),
        Location::new(5, 5),
        Location::new(2, 3),
        Location::new(4, 3),
    ];
    let mut probes: Vec<AgentId> = Vec::new();
    for (i, &loc) in sources.iter().enumerate().take(RINP_AGENTS + RRDP_AGENTS) {
        let op = if i < RINP_AGENTS { "rinp" } else { "rrdp" };
        probes.push(
            net.inject_source_at(loc, &probe_flood_agent(op, OPS_PER_AGENT, dest))
                .unwrap(),
        );
    }
    net.run_for(SimDuration::from_secs(120));

    let mut successes = 0usize;
    for &id in &probes {
        let ops = net.log().remote_ops_of(id);
        assert_eq!(ops.len(), OPS_PER_AGENT as usize, "{id} issued all probes");
        for op in ops {
            let (ok, _, _) = net.log().remote_completion(op).expect("probe completed");
            if ok {
                successes += 1;
            }
        }
        assert!(net.log().halted_at(id).is_some(), "{id} halted");
    }

    let remaining = net.node(dest_node).space.count(&any_value);
    let rinp_requests = RINP_AGENTS * OPS_PER_AGENT as usize;
    // Exactly-once upper bound on consumption: each of the rinp *requests*
    // may remove at most one tuple, however many times it was retransmitted;
    // rrdp removes nothing. A duplicated execution would push `remaining`
    // below this floor.
    assert!(
        remaining >= STOCK as usize - rinp_requests,
        "{remaining} tuples remain of {STOCK}: more than {rinp_requests} consumed"
    );
    // And consumption at least covers the successes the initiators observed.
    assert!(
        remaining <= STOCK as usize,
        "tuple count grew — rrdp/rinp must not insert"
    );
    assert!(successes <= rinp_requests + RRDP_AGENTS * OPS_PER_AGENT as usize);
    assert!(
        net.metrics().counter("remote.retx") > 0,
        "loss forced retransmissions"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form of the exactly-once guarantee: across random seeds, a
    /// small fleet of concurrent `rout` flooders on the bursty-loss testbed
    /// never inserts any tuple twice, and every operation completes.
    #[test]
    fn rout_is_exactly_once_for_any_seed(seed in 0u64..1_000) {
        const OPS: i16 = 8;
        let mut net = AgillaNetwork::testbed_5x5(AgillaConfig::default(), seed);
        let pairs = [
            (Location::new(1, 1), Location::new(4, 2)),
            (Location::new(5, 1), Location::new(2, 4)),
            (Location::new(1, 5), Location::new(4, 4)),
            (Location::new(5, 5), Location::new(2, 2)),
        ];
        let mut plan = Vec::new();
        for (i, (src, dest)) in pairs.iter().enumerate() {
            let base = 2000 + (i as i16) * 100;
            let id = net
                .inject_source_at(*src, &rout_flood_agent(base, OPS, *dest))
                .expect("inject");
            plan.push((id, *dest, base));
        }
        net.run_for(SimDuration::from_secs(120));
        for (id, dest, base) in plan {
            let dest_node = net.node_at(dest).expect("dest exists");
            for j in 0..OPS {
                let tmpl = Template::new(vec![TemplateField::exact(Field::value(base + j))]);
                prop_assert!(
                    net.node(dest_node).space.count(&tmpl) <= 1,
                    "seed {seed}: tuple <{}> duplicated", base + j
                );
            }
            let ops = net.log().remote_ops_of(id);
            prop_assert_eq!(ops.len(), OPS as usize);
            for op in ops {
                prop_assert!(net.log().remote_completion(op).is_some());
            }
        }
    }
}

#[test]
fn network_survives_killing_half_the_grid() {
    let mut net = reliable();
    for x in 1..=5i16 {
        for y in [2i16, 4] {
            let n = net.node_at(Location::new(x, y)).unwrap();
            net.kill_node(n);
        }
    }
    net.run_for(SimDuration::from_secs(8));
    // Agents still run on the surviving row.
    let id = net
        .inject_source_at(Location::new(2, 1), workload::BLINK_AGENT)
        .unwrap();
    net.run_for(SimDuration::from_secs(2));
    assert!(net.log().halted_at(id).is_some());
    assert_eq!(net.metrics().counter("faults.nodes_killed"), 10);
}
