//! Multi-tenancy at the network level: the quota paths that bind (slot,
//! byte and instruction caps), FIFO byte crediting, and tagged arrivals
//! on a network where no application registered.

use agilla::stats::OpRecord;
use agilla::{
    AgillaConfig, AgillaNetwork, AppId, AppProfile, AppQuota, Periodic, TenantApp, Testbed,
};
use agilla_tuplespace::{Field, Template, TemplateField, Tuple};
use wsn_common::{AgentId, Location, NodeId};
use wsn_sim::SimDuration;

fn reliable() -> AgillaNetwork {
    AgillaNetwork::reliable_5x5(AgillaConfig::default(), 11)
}

/// Registers app 1 with the given per-mote byte and instruction caps.
fn tenant(net: &mut AgillaNetwork, tuple_bytes: u32, instr_budget: u64) {
    net.register_app(AppProfile::new(AppId(1), "tenant").quota(AppQuota::new(
        4,
        tuple_bytes,
        instr_budget,
    )));
}

/// Encoded size of the one-field tuple `<v>`.
fn tuple_bytes(v: i16) -> u32 {
    Tuple::new(vec![Field::value(v)]).unwrap().encoded_len() as u32
}

fn faulted(net: &AgillaNetwork, id: AgentId) -> bool {
    net.log()
        .records()
        .iter()
        .any(|r| matches!(r, OpRecord::AgentFaulted { agent, .. } if *agent == id))
}

/// How many `<v>` tuples `node`'s space holds.
fn count(net: &AgillaNetwork, node: NodeId, v: i16) -> usize {
    let t = Template::new(vec![TemplateField::exact(Field::value(v))]);
    net.node(node).space.count(&t)
}

#[test]
fn an_instruction_budget_that_binds_faults_the_agent_and_frees_its_slot() {
    let mut net = reliable();
    tenant(&mut net, u32::MAX, 5);
    let base = net.base();
    let id = net
        .inject_source_as("LOOP pushc 1\npop\nrjump LOOP", AppId(1))
        .unwrap();
    net.run_for(SimDuration::from_secs(1));
    assert!(faulted(&net, id));
    assert_eq!(net.find_agent(id), None);
    assert_eq!(net.metrics().counter("tenancy.app01.over_budget"), 1);
    assert_eq!(net.trace().count("agent.quota_kill"), 1);
    let usage = net.quota_ledger().usage(AppId(1), base.index() as u32);
    assert_eq!(usage.slots, 0, "the slot charge is released");
    assert_eq!(usage.instructions, 5, "the refused charge is not kept");
}

#[test]
fn a_byte_quota_binds_on_a_local_out() {
    let mut net = reliable();
    tenant(&mut net, tuple_bytes(1), u64::MAX);
    let base = net.base();
    let id = net
        .inject_source_as(
            "pushc 1\npushc 1\nout\npushc 2\npushc 1\nout\nhalt",
            AppId(1),
        )
        .unwrap();
    net.run_for(SimDuration::from_secs(1));
    // Past the quota, `out` fails like a full arena: the agent faults.
    assert!(faulted(&net, id));
    assert_eq!((count(&net, base, 1), count(&net, base, 2)), (1, 0));
    let usage = net.quota_ledger().usage(AppId(1), base.index() as u32);
    assert_eq!(
        usage.bytes,
        tuple_bytes(1),
        "the stored tuple stays charged"
    );
    assert_eq!(usage.slots, 0);
}

#[test]
fn a_byte_quota_binds_on_a_served_remote_rout() {
    let mut net = reliable();
    tenant(&mut net, tuple_bytes(1), u64::MAX);
    let base = net.base();
    let dest = net.node_at(Location::new(1, 1)).unwrap();
    let src = "\
pushc 1
pushc 1
pushloc 1 1
rout
pushc 2
pushc 1
pushloc 1 1
rout
rjumpc STORED
pushc 1
putled
halt
STORED pushc 7
putled
halt";
    let id = net.inject_source_as(src, AppId(1)).unwrap();
    net.run_for(SimDuration::from_secs(2));
    let outcomes: Vec<bool> = net
        .log()
        .remote_ops_of(id)
        .into_iter()
        .map(|op| net.log().remote_completion(op).expect("completed").0)
        .collect();
    assert_eq!(outcomes, vec![true, false]);
    assert_eq!(net.node(base).leds, 1, "condition 0 after the refusal");
    assert_eq!((count(&net, dest, 1), count(&net, dest, 2)), (1, 0));
    let usage = net.quota_ledger().usage(AppId(1), dest.index() as u32);
    assert_eq!(usage.bytes, tuple_bytes(1), "charged at the serving mote");
}

#[test]
fn inp_and_rinp_credit_the_fifo_owner() {
    let mut net = reliable();
    tenant(&mut net, u32::MAX, u64::MAX);
    net.register_app(AppProfile::new(AppId(2), "consumer"));
    let base = net.base();
    let dest = net.node_at(Location::new(1, 1)).unwrap();
    let bytes = |net: &AgillaNetwork, app, node: NodeId| {
        net.quota_ledger().usage(app, node.index() as u32).bytes
    };
    // App 1 stores a tuple locally and one remotely ...
    net.inject_source_as(
        "pushc 1\npushc 1\nout\npushc 1\npushc 1\npushloc 1 1\nrout\nhalt",
        AppId(1),
    )
    .unwrap();
    net.run_for(SimDuration::from_secs(1));
    assert_eq!(bytes(&net, AppId(1), base), tuple_bytes(1));
    assert_eq!(bytes(&net, AppId(1), dest), tuple_bytes(1));
    // ... and app 2 consumes both: each credit goes to app 1, whose copy
    // was consumed, not to the consumer.
    net.inject_source_as(
        "pushc 1\npushc 1\ninp\npushc 1\npushc 1\npushloc 1 1\nrinp\nhalt",
        AppId(2),
    )
    .unwrap();
    net.run_for(SimDuration::from_secs(1));
    assert_eq!((count(&net, base, 1), count(&net, dest, 1)), (0, 0));
    for node in [base, dest] {
        assert_eq!(bytes(&net, AppId(1), node), 0);
        assert_eq!(bytes(&net, AppId(2), node), 0);
    }
}

#[test]
fn with_no_app_placed_every_tagged_arrival_is_a_counted_quota_refusal() {
    // One node per region at 4 instructions of capacity: three arrivals of
    // a 4-instruction agent fit nowhere, so the allocator places nothing,
    // no app registers, and each arrival is refused for quota.
    let trial = Testbed::reliable_5x5(AgillaConfig::default(), 13)
        .scenario(5)
        .tenant(TenantApp::new(
            AppProfile::new(AppId(2), "big"),
            Periodic::at_base(
                SimDuration::from_millis(100),
                3,
                "pushc 1\npushc 1\nout\nhalt",
            ),
        ))
        .allocate_apps(26, 4)
        .horizon(SimDuration::from_secs(2))
        .execute();
    assert!(trial.agents.is_empty());
    assert_eq!(trial.rejected.quota, 3);
    assert_eq!(trial.rejected.total(), 3);
    let m = trial.net.metrics();
    assert_eq!(m.counter("tenancy.app02.rejected"), 3);
    assert_eq!(m.counter("tenancy.app02.injected"), 0);
    assert_eq!(trial.net.quota_ledger().quota(AppId(2)), None);
}
