//! End-to-end wiring of the static verifier into admission: bad bytecode is
//! refused at injection with a typed error, `TryInject` counts refusals as
//! outcomes, the escape hatch restores accept-anything, and every shipped
//! workload clears the verifier on a live network.

use agilla::testbed::Testbed;
use agilla::{workload, AdmissionReason, AgillaConfig, AgillaError, AgillaNetwork, OneShot};
use wsn_common::Location;

fn build(verify: bool) -> AgillaNetwork {
    AgillaNetwork::reliable_5x5(
        AgillaConfig {
            verify_on_inject: verify,
            ..AgillaConfig::default()
        },
        7,
    )
}

#[test]
fn unverifiable_agent_is_refused_before_admission() {
    let mut net = build(true);
    let err = net.inject_source("pop\nhalt").unwrap_err();
    assert!(
        matches!(err, AgillaError::Unverifiable { pc: 0, .. }),
        "{err}"
    );
    assert!(err.to_string().contains("unverifiable agent"), "{err}");
    // The refusal happens before an AgentId is allocated: the next good
    // inject gets the same id a fresh network would hand out first.
    let good = net.inject_source(workload::BLINK_AGENT).unwrap();
    let mut fresh = build(true);
    assert_eq!(good, fresh.inject_source(workload::BLINK_AGENT).unwrap());
}

#[test]
fn verify_on_inject_off_restores_accept_anything() {
    // Fault-injection benches rely on being able to admit broken bytecode
    // and watch the runtime kill it.
    let mut net = build(false);
    net.inject_source("pop\nhalt")
        .expect("unverified injection accepted");
}

#[test]
fn every_workload_program_injects_with_verification_on() {
    let mut net = build(true);
    for (i, (name, src)) in workload::all_programs().into_iter().enumerate() {
        let at = Location::new(1 + (i as i16 % 5), 1 + (i as i16 / 5));
        net.inject_source_at(at, &src)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn try_inject_counts_unverifiable_arrivals_as_rejected() {
    let mut spec = Testbed::reliable_5x5(AgillaConfig::default(), 7).scenario(0);
    for source in ["pop\nhalt", workload::BLINK_AGENT, "add\nhalt"] {
        spec = spec.traffic(OneShot::at_base(source));
    }
    let trial = spec.execute();
    assert_eq!(
        trial.rejected.unverifiable, 2,
        "both unverifiable arrivals turned away"
    );
    assert_eq!(trial.rejected.total(), 2);
    assert_eq!(trial.agents.len(), 1, "the verified arrival was admitted");
}

#[test]
fn repeated_arrivals_get_the_first_arrivals_verdict() {
    // A network assembles and verifies each distinct program once and keeps
    // only successes, so every repeat must still see exactly the outcome,
    // error and refusal order of a first arrival.
    let mut net = build(true);
    for _ in 0..2 {
        let err = net.inject_source("frobnicate 3\nhalt").unwrap_err();
        assert!(matches!(err, AgillaError::BadAgent(_)), "{err}");
        let err = net.inject_source("pop\nhalt").unwrap_err();
        assert!(
            matches!(err, AgillaError::Unverifiable { pc: 0, .. }),
            "{err}"
        );
        let code = agilla_vm::asm::assemble("add\nhalt").unwrap().into_code();
        let err = net.inject_at(net.base(), code).unwrap_err();
        assert!(matches!(err, AgillaError::Unverifiable { .. }), "{err}");
    }
    // The same program fills the base station's four slots, each copy with
    // the same code, then is refused for want of a slot.
    let ids: Vec<_> = (0..4)
        .map(|_| net.inject_source(workload::BLINK_AGENT).unwrap())
        .collect();
    let code = net.agent_state(ids[0]).unwrap().code().to_vec();
    for id in &ids {
        assert_eq!(net.agent_state(*id).unwrap().code(), code.as_slice());
    }
    let no_slots = |e: &AgillaError| {
        matches!(
            e,
            AgillaError::Admission {
                reason: AdmissionReason::NoSlots
            }
        )
    };
    let full = net.inject_source(workload::BLINK_AGENT).unwrap_err();
    assert!(no_slots(&full), "{full}");
    // On a full mote the slot check still comes first, as on a first
    // arrival: unverifiable code is refused for the slot, not the code.
    let err = net.inject_source("pop\nhalt").unwrap_err();
    assert!(no_slots(&err), "{err}");
}
