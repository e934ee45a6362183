//! The Agilla mobile-agent virtual machine.
//!
//! "Each agent is, in effect, a virtual machine with dedicated instruction
//! and data memory. ... Each agent employs a stack-architecture." (Sections 1
//! and 2.2). This crate implements that machine:
//!
//! * [`isa`] — the instruction set (Fig. 7 opcodes plus the Maté-derived
//!   general-purpose core), with wire encodings and the per-instruction cost
//!   model calibrated to Fig. 12's three latency classes.
//! * [`agent`] — the agent architecture of Fig. 6: 16-slot operand stack,
//!   12-variable heap, and the ID / program-counter / condition-code
//!   registers, plus the state codec used by migration.
//! * [`exec`] — the interpreter. Instructions that reach beyond the agent
//!   (sensing, tuple spaces, migration) go through the [`Host`] trait or are
//!   surfaced as [`StepResult`] effects for the middleware engine to handle,
//!   keeping this crate independent of any particular runtime.
//! * [`asm`] — a two-pass assembler/disassembler for the agent language used
//!   in the paper's listings (Figs. 2, 8, 13).
//!
//! # Examples
//!
//! Assemble and run a tiny agent to completion against a scripted host:
//!
//! ```
//! use agilla_vm::{asm::assemble, exec::run_to_effect, AgentState, StepResult, TestHost};
//! use wsn_common::AgentId;
//!
//! let program = assemble("pushc 2\npushc 3\nadd\nhalt").unwrap();
//! let mut agent = AgentState::with_code(AgentId(1), program.code().to_vec()).unwrap();
//! let mut host = TestHost::default();
//! let effect = run_to_effect(&mut agent, &mut host, 100).unwrap();
//! assert!(matches!(effect, StepResult::Halted));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod asm;
pub mod error;
pub mod exec;
pub mod isa;

pub use agent::{AgentState, DEFAULT_CODE_BUDGET, HEAP_SLOTS, STACK_DEPTH};
pub use error::VmError;
pub use exec::{Host, MigrateKind, RemoteOp, StepResult, TestHost};
pub use isa::{EnergyClass, Instruction, Opcode};

/// A value on an agent's operand stack.
///
/// Stack values are exactly the slots templates are built from: a concrete
/// [`Field`](agilla_tuplespace::Field) or a by-type wildcard — agents build
/// both tuples and templates by pushing slots. Reusing the tuple-space type
/// means migration reuses its wire codec unchanged.
pub type StackValue = agilla_tuplespace::TemplateField;
