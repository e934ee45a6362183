//! Deterministic discrete-event simulation kernel for the Agilla reproduction.
//!
//! The paper's evaluation ran on a desk of 25 MICA2 motes whose network stack
//! was modified to drop messages from non-neighbors, *simulating* a multi-hop
//! topology. We push that one step further: the motes themselves run inside a
//! deterministic discrete-event simulator so that every figure in the paper
//! can be regenerated from a seed.
//!
//! The kernel is deliberately minimal and generic:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time
//!   (MICA2 instruction latencies are tens of microseconds, so µs resolution
//!   is exact for the paper's measurements).
//! * [`EventQueue`] — a binary min-heap of `(time, sequence)` keys with
//!   deterministic FIFO tie-breaking for simultaneous events, and O(1)
//!   cancellation through a slab of generation-tagged payload slots.
//! * [`rng::RngStream`] — named, independently-seeded random streams, so that
//!   (for example) radio loss draws do not perturb workload draws.
//! * [`trace::Tracer`] — a bounded structured trace used by tests and benches.
//! * [`metrics::Metrics`] — counters and log-bucket histograms by name;
//!   hot paths pre-register [`metrics::CounterId`] handles and bump a flat
//!   array, with string names resolved only at registration and report time.
//!
//! # Examples
//!
//! ```
//! use wsn_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t.as_micros(), 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod rng;
pub mod time;
pub mod trace;

pub use event::{EventId, EventQueue};
pub use metrics::{CounterId, Histogram, LatencyRecorder, Metrics};
pub use rng::RngStream;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceRecord, Tracer};
