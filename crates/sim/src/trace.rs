//! Bounded structured trace of simulation activity.

use std::collections::VecDeque;
use std::fmt;

use wsn_common::NodeId;

use crate::time::SimTime;

/// One trace record: where and when something happened, plus free-form detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated timestamp of the event.
    pub at: SimTime,
    /// Node involved, if any (network-wide events use `None`).
    pub node: Option<NodeId>,
    /// Stable machine-matchable category, e.g. `"migrate.arrive"`.
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(f, "[{} {}] {}: {}", self.at, n, self.kind, self.detail),
            None => write!(f, "[{} ----] {}: {}", self.at, self.kind, self.detail),
        }
    }
}

/// A bounded in-memory trace buffer.
///
/// Tests assert on trace contents ([`Tracer::find`], [`Tracer::count`]);
/// examples print them ([`Tracer::iter`]). The buffer is bounded so that
/// long-running benches cannot exhaust memory; when full, the oldest records
/// are dropped and [`Tracer::dropped`] counts them.
///
/// # Examples
///
/// ```
/// use wsn_sim::{SimTime, Tracer};
///
/// let mut tr = Tracer::with_capacity(16);
/// tr.record(SimTime::ZERO, None, "boot", "network up".into());
/// assert_eq!(tr.count("boot"), 1);
/// ```
#[derive(Debug)]
pub struct Tracer {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
    capture: bool,
}

impl Tracer {
    /// Default capacity used by [`Tracer::new`].
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates a tracer with the default capacity.
    pub fn new() -> Self {
        Tracer::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a tracer bounded to `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Tracer {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
            capture: true,
        }
    }

    /// Enables or disables record capture. With capture off,
    /// [`Tracer::record_with`] skips both detail formatting and storage —
    /// benchmark drivers run thousands of trials whose results come from the
    /// experiment log and metrics, and per-record `format!` allocations were
    /// measurably the hottest line in clone-storm workloads. Capture is on
    /// by default so tests and examples see full traces.
    pub fn set_capture(&mut self, capture: bool) {
        self.capture = capture;
    }

    /// Whether records are currently being retained.
    pub fn is_capturing(&self) -> bool {
        self.capture
    }

    /// Appends a record with an eagerly built detail string.
    pub fn record(
        &mut self,
        at: SimTime,
        node: Option<NodeId>,
        kind: &'static str,
        detail: String,
    ) {
        self.record_with(at, node, kind, || detail);
    }

    /// Appends a record, building the detail string only if the trace is
    /// retained. Hot paths use this so a capture-disabled run pays nothing
    /// for diagnostics.
    pub fn record_with(
        &mut self,
        at: SimTime,
        node: Option<NodeId>,
        kind: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if !self.capture {
            return;
        }
        let rec = TraceRecord {
            at,
            node,
            kind,
            detail: detail(),
        };
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    /// Iterates over retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many records were evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Returns retained records of the given kind.
    pub fn find(&self, kind: &str) -> Vec<&TraceRecord> {
        self.buf.iter().filter(|r| r.kind == kind).collect()
    }

    /// Counts retained records of the given kind.
    pub fn count(&self, kind: &str) -> usize {
        self.buf.iter().filter(|r| r.kind == kind).count()
    }

    /// Removes all records (the drop counter is preserved).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tr: &mut Tracer, t: u64, kind: &'static str) {
        tr.record(
            SimTime::from_micros(t),
            Some(NodeId(1)),
            kind,
            format!("t={t}"),
        );
    }

    #[test]
    fn records_and_finds() {
        let mut tr = Tracer::new();
        rec(&mut tr, 1, "a");
        rec(&mut tr, 2, "b");
        rec(&mut tr, 3, "a");
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.count("a"), 2);
        assert_eq!(tr.find("b").len(), 1);
        assert_eq!(tr.find("b")[0].detail, "t=2");
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut tr = Tracer::with_capacity(2);
        rec(&mut tr, 1, "x");
        rec(&mut tr, 2, "x");
        rec(&mut tr, 3, "x");
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 1);
        let times: Vec<_> = tr.iter().map(|r| r.at.as_micros()).collect();
        assert_eq!(times, vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Tracer::with_capacity(0);
    }

    #[test]
    fn display_formats() {
        let r = TraceRecord {
            at: SimTime::from_micros(1_000_000),
            node: Some(NodeId(3)),
            kind: "k",
            detail: "d".into(),
        };
        assert_eq!(r.to_string(), "[1.000000s n3] k: d");
    }

    #[test]
    fn capture_disabled_skips_detail_and_storage() {
        let mut tr = Tracer::new();
        tr.set_capture(false);
        assert!(!tr.is_capturing());
        let mut built = false;
        tr.record_with(SimTime::ZERO, None, "hot", || {
            built = true;
            "expensive".into()
        });
        assert!(!built, "detail closure must not run with capture off");
        assert!(tr.is_empty());
        tr.set_capture(true);
        tr.record_with(SimTime::ZERO, None, "hot", || "kept".into());
        assert_eq!(tr.count("hot"), 1);
    }

    #[test]
    fn clear_retains_drop_count() {
        let mut tr = Tracer::with_capacity(1);
        rec(&mut tr, 1, "x");
        rec(&mut tr, 2, "x");
        tr.clear();
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 1);
    }
}
