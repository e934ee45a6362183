//! TinyOS-like network stack components for the Agilla reproduction.
//!
//! The stack mirrors what the paper ran on the motes: active messages over
//! `GenericComm`, a CSMA MAC with random backoff, periodic location beacons
//! feeding an acquaintance list ("Agilla provides one-hop neighbor discovery
//! using beacons. The one-hop neighbor information is stored in an
//! acquaintance list and is continuously updated", Section 2.2), and the
//! evaluation's "simple best-effort greedy-forwarding algorithm that forwards
//! messages to the neighbor closest to the destination" (Section 4).
//!
//! Like the radio crate, every component here is *decisional*: the
//! middleware's event loop owns the clock and asks these types what to do
//! next, which keeps them unit-testable in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacon;
pub mod georouting;
pub mod mac;
pub mod message;
pub mod neighbors;

pub use beacon::{decode_beacon, encode_beacon, BEACON_PERIOD};
pub use georouting::{next_hop, next_hop_candidates, reached};
pub use mac::{CsmaMac, LplConfig};
pub use message::{ActiveMessage, AmType};
pub use neighbors::AcquaintanceList;
