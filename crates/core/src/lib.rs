//! Agilla: mobile-agent middleware for wireless sensor networks.
//!
//! This crate is the paper's primary contribution, rebuilt on the simulated
//! substrate: "users inject mobile agents that spread across nodes performing
//! application-specific tasks ... Linda-like tuple spaces are used for
//! inter-agent communication and context discovery" (Abstract).
//!
//! The architecture follows Fig. 4:
//!
//! * **Agilla engine** — round-robin execution of up to
//!   [`config::MAX_AGENTS`] agents per node, [`config::ENGINE_SLICE`]
//!   instructions per slice, immediate context switch on long-running
//!   instructions ([`network`]).
//! * **Agent manager** — slot allocation, admission on arrival, reclamation
//!   on death ([`node`]).
//! * **Context manager** — location, beacons, acquaintance list (wsn-net).
//! * **Instruction manager** — 22-byte block code allocator ([`node`]).
//! * **Tuple-space manager** — local space + reaction registry
//!   (agilla-tuplespace), with remote operations over geographic routing
//!   ([`network`]).
//! * **Agent sender / receiver** — the hop-by-hop, acknowledged migration
//!   protocol with retransmission and receiver abort ([`migration`]).
//!
//! Condition-code convention after a migration instruction (the paper fixes
//! only the failure case): an arriving agent (mover or clone copy) observes
//! condition **1**; a clone *original* whose copy was dispatched observes
//! **2**; any agent whose migration failed resumes locally with **0**
//! ("resumes the agent running on the local machine with the condition code
//! set to zero", Section 3.2).
//!
//! # Quickstart
//!
//! ```
//! use agilla::{AgillaConfig, AgillaNetwork};
//! use wsn_sim::SimDuration;
//!
//! // The paper's testbed: 5x5 grid plus a base station, seeded.
//! let mut net = AgillaNetwork::testbed_5x5(AgillaConfig::default(), 42);
//! // Inject the Fig. 8 smove test agent at the base station.
//! let agent = net.inject_source(agilla::workload::SMOVE_TEST_AGENT).unwrap();
//! net.run_for(SimDuration::from_secs(10));
//! // The agent moved to (5,1) and back, then halted. (On lossy runs a
//! // migration may duplicate the agent — the tradeoff Section 3.2 accepts —
//! // so at least one copy halts.)
//! assert!(net.trace().count("agent.halt") >= 1);
//! let _ = agent;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod env;
pub mod error;
pub mod memory;
pub mod migration;
pub mod network;
pub mod node;
pub mod scenario;
pub mod stats;
pub mod testbed;
pub mod wire;
pub mod workload;

pub use agilla_analysis::CostBounds;
pub use agilla_tenancy::{
    Allocator, AppId, AppProfile, AppQuota, Decision, Priority, QuotaError, QuotaLedger,
};
pub use config::{AgillaConfig, EnergyConfig};
pub use env::{Environment, FieldModel, FireModel};
pub use error::{AdmissionReason, AgillaError};
pub use memory::MemoryModel;
pub use network::AgillaNetwork;
pub use node::{AgentStatus, Node};
pub use scenario::{
    AppMix, AppSpec, Arrival, ClosedLoop, InjectionSite, OneShot, Periodic, Perturbation, Poisson,
    ScenarioSpec, ScheduledEvent, TenantApp, TrafficGen,
};
pub use testbed::{Rejections, Testbed, TopologySpec, Trial, TrialSpec, TrialStep};
pub use wsn_radio::{DistanceLoss, Motion, MotionPlan};
