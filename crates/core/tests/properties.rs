//! Network-level property tests: whatever agents do, the middleware's
//! resource invariants hold and the simulation stays deterministic.

use agilla::config::{CODE_BLOCKS, MAX_AGENTS, REACTION_REGISTRY_SLOTS, TUPLE_SPACE_BYTES};
use agilla::{AgillaConfig, AgillaNetwork, Environment};
use proptest::prelude::*;
use wsn_common::Location;
use wsn_radio::{LossModel, Topology};
use wsn_sim::SimDuration;

/// A deterministic stress check: a 10×10 grid, a dozen mixed agents, a
/// minute of simulated time — resource invariants hold everywhere.
#[test]
fn stress_ten_by_ten_grid() {
    let mut net = AgillaNetwork::new(
        Topology::grid_with_base(10, 10),
        LossModel::mica2_testbed(),
        AgillaConfig::default(),
        Environment::ambient(),
        99,
    );
    // Spreaders, movers, remote writers, and sleepers, scattered about.
    for k in 1..=10i16 {
        let loc = Location::new(k, (k % 5) + 1);
        let _ = net.inject_source_at(
            loc,
            &agilla::workload::smove_test_agent(Location::new(11 - k, 10), loc),
        );
    }
    for k in 1..=5i16 {
        let _ = net.inject_source_at(
            Location::new(k, 7),
            &agilla::workload::rout_test_agent(Location::new(10, 10)),
        );
    }
    net.run_for(SimDuration::from_secs(60));
    for id in 0..101u16 {
        let node = net.node(wsn_common::NodeId(id));
        assert!(node.agents().len() <= MAX_AGENTS);
        assert!(node.space.used_bytes() <= TUPLE_SPACE_BYTES);
        assert!(node.blocks_used() <= CODE_BLOCKS);
    }
    // Substantial activity happened and completed.
    assert!(net.medium().frames_sent() > 1_000);
    assert!(net.log().records().len() > 30);
}

/// Generates syntactically valid but semantically arbitrary agent programs
/// out of a pool of instruction templates.
fn arb_program() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        Just("pushc 1".to_string()),
        Just("pushcl 300".to_string()),
        Just("pushn fir".to_string()),
        Just("pushloc 2 2".to_string()),
        Just("pusht value".to_string()),
        Just("pop".to_string()),
        Just("copy".to_string()),
        Just("swap".to_string()),
        Just("add".to_string()),
        Just("sub".to_string()),
        Just("inc".to_string()),
        Just("loc".to_string()),
        Just("aid".to_string()),
        Just("rand".to_string()),
        Just("numnbrs".to_string()),
        Just("randnbr".to_string()),
        Just("pushc 0\nsense".to_string()),
        Just("putled".to_string()),
        Just("pushc 1\npushc 1\nout".to_string()),
        Just("pusht value\npushc 1\ninp".to_string()),
        Just("pusht value\npushc 1\nrdp".to_string()),
        Just("pusht value\npushc 1\ntcount".to_string()),
        Just("pushc 2\nsleep".to_string()),
        Just("pushloc 2 1\nsmove".to_string()),
        Just("pushloc 1 2\nwclone".to_string()),
        Just("pushc 1\npushc 1\npushloc 2 2\nrout".to_string()),
        Just("pusht value\npushc 1\npushloc 1 1\nrinp".to_string()),
        Just("setvar 0".to_string()),
        Just("getvar 0".to_string()),
        Just("ceq".to_string()),
        Just("clt".to_string()),
    ];
    proptest::collection::vec(stmt, 1..12).prop_map(|stmts| {
        let mut src = stmts.join("\n");
        src.push_str("\nhalt");
        src
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary agents — most of which fault somewhere — never corrupt the
    /// middleware: resource budgets hold on every node afterwards.
    #[test]
    fn random_agents_never_violate_node_invariants(
        programs in proptest::collection::vec(arb_program(), 1..4),
        seed in 0u64..1_000,
    ) {
        let mut net = AgillaNetwork::testbed_5x5(AgillaConfig::default(), seed);
        for (i, src) in programs.iter().enumerate() {
            let loc = Location::new(1 + (i as i16 % 5), 1);
            // Injection may be refused (admission); that is fine.
            let _ = net.inject_source_at(loc, src);
        }
        net.run_for(SimDuration::from_secs(20));
        for id in 0..26u16 {
            let node = net.node(wsn_common::NodeId(id));
            prop_assert!(node.agents().len() <= MAX_AGENTS);
            prop_assert!(node.space.used_bytes() <= TUPLE_SPACE_BYTES);
            prop_assert!(node.registry.len() <= REACTION_REGISTRY_SLOTS);
            prop_assert!(
                node.blocks_used() <= CODE_BLOCKS,
                "instruction-manager budget respected"
            );
        }
    }

    /// The same seed and workload replay to the identical event count.
    #[test]
    fn random_workloads_are_deterministic(
        program in arb_program(),
        seed in 0u64..1_000,
    ) {
        let run = |seed: u64, src: &str| {
            let mut net = AgillaNetwork::testbed_5x5(AgillaConfig::default(), seed);
            let _ = net.inject_source(src);
            net.run_for(SimDuration::from_secs(10));
            (
                net.medium().frames_sent(),
                net.log().records().len(),
                net.trace().len(),
            )
        };
        prop_assert_eq!(run(seed, &program), run(seed, &program));
    }

    /// Every workload program — the fixed Fig. 8 / case-study agents plus
    /// the parameterized families across their parameter spaces — survives
    /// an assemble → disassemble → reassemble round trip byte-for-byte.
    /// This pins the assembler and disassembler as true inverses over the
    /// operand kinds the paper's agents actually use (locations, wide
    /// constants, names, field types, sensors, relative jumps).
    #[test]
    fn workload_programs_roundtrip_through_the_disassembler(
        tx in 0i16..6,
        ty in 1i16..6,
        hx in 0i16..6,
        hy in 1i16..6,
        sleep_ticks in 1u16..5000,
        samples in 1u8..30,
        period_ticks in 1u16..500,
        op_idx in 0usize..4,
    ) {
        use agilla_vm::asm::{assemble, disassemble};
        let target = Location::new(tx, ty);
        let home = Location::new(hx, hy);
        let op = ["smove", "wmove", "sclone", "wclone"][op_idx];
        let programs = [
            agilla::workload::SMOVE_TEST_AGENT.to_string(),
            agilla::workload::ROUT_TEST_AGENT.to_string(),
            agilla::workload::FIRE_TRACKER.to_string(),
            agilla::workload::BLINK_AGENT.to_string(),
            agilla::workload::smove_test_agent(target, home),
            agilla::workload::rout_test_agent(target),
            agilla::workload::one_way_agent(op, target),
            agilla::workload::fire_detector(home, sleep_ticks),
            agilla::workload::habitat_monitor(samples, period_ticks, home),
        ];
        for src in &programs {
            let code = assemble(src).expect("workload assembles").into_code();
            let listing = disassemble(&code);
            let recode = assemble(&listing)
                .unwrap_or_else(|e| panic!("listing reassembles: {e}\n{listing}"))
                .into_code();
            prop_assert_eq!(&code, &recode, "round trip changed bytes:\n{}", listing);
        }
    }

    /// Greedy georouting delivers between random pairs on arbitrary full
    /// grids (no holes -> no local minima).
    #[test]
    fn remote_ops_deliver_on_arbitrary_grids(
        w in 2i16..6,
        h in 2i16..6,
        sx in 1i16..6,
        sy in 1i16..6,
        dx in 1i16..6,
        dy in 1i16..6,
    ) {
        let src_loc = Location::new(sx.min(w), sy.min(h));
        let dst_loc = Location::new(dx.min(w), dy.min(h));
        let mut net = AgillaNetwork::new(
            Topology::grid(w, h),
            LossModel::perfect(),
            AgillaConfig::default(),
            Environment::ambient(),
            9,
        );
        let agent = net.inject_source_at(
            src_loc,
            &agilla::workload::rout_test_agent(dst_loc),
        ).expect("inject");
        net.run_for(SimDuration::from_secs(10));
        let ops = net.log().remote_ops_of(agent);
        prop_assert_eq!(ops.len(), 1);
        let (success, _, _) = net.log().remote_completion(ops[0]).expect("completed");
        prop_assert!(success, "rout {src_loc} -> {dst_loc} on a {w}x{h} grid");
    }
}
