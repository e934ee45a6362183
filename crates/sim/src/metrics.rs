//! Counters and latency statistics for experiments.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimDuration;

/// Records a set of latency samples and reports summary statistics.
///
/// Used by every figure-regeneration bench: the paper reports means over 100
/// trials (Figs. 9–11) and means of 1000×100 repetitions (Fig. 12), plus
/// notes on variance ("migration operations have higher variance").
///
/// # Examples
///
/// ```
/// use wsn_sim::{LatencyRecorder, SimDuration};
///
/// let mut r = LatencyRecorder::new();
/// for ms in [10, 20, 30] {
///     r.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(r.mean().as_millis(), 20);
/// assert_eq!(r.max().unwrap().as_millis(), 30);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_us: Vec<u64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples_us.push(d.as_micros());
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// Arithmetic mean ([`SimDuration::ZERO`] when empty).
    pub fn mean(&self) -> SimDuration {
        if self.samples_us.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.samples_us.iter().map(|&s| u128::from(s)).sum();
        SimDuration::from_micros((total / self.samples_us.len() as u128) as u64)
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> SimDuration {
        let n = self.samples_us.len();
        if n < 2 {
            return SimDuration::ZERO;
        }
        let mean = self.mean().as_micros() as f64;
        let var = self
            .samples_us
            .iter()
            .map(|&s| {
                let d = s as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        SimDuration::from_micros(var.sqrt().round() as u64)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<SimDuration> {
        self.samples_us
            .iter()
            .min()
            .map(|&s| SimDuration::from_micros(s))
    }

    /// Largest sample.
    pub fn max(&self) -> Option<SimDuration> {
        self.samples_us
            .iter()
            .max()
            .map(|&s| SimDuration::from_micros(s))
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using nearest-rank on sorted samples.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples_us.is_empty() {
            return None;
        }
        let mut sorted = self.samples_us.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        Some(SimDuration::from_micros(sorted[rank]))
    }

    /// Immutable view of the raw samples, in record order (microseconds).
    pub fn samples(&self) -> &[u64] {
        &self.samples_us
    }
}

impl fmt::Display for LatencyRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} sd={} min={} max={}",
            self.len(),
            self.mean(),
            self.stddev(),
            self.min().unwrap_or(SimDuration::ZERO),
            self.max().unwrap_or(SimDuration::ZERO),
        )
    }
}

/// A fixed-bucket base-2 logarithmic histogram of `u64` observations.
///
/// Bucket 0 holds the value 0; bucket `i` (1 ≤ i ≤ 64) holds values in
/// `[2^(i-1), 2^i)`. The bucket layout is fixed at construction, so
/// merging two histograms is element-wise addition — commutative and
/// associative, which keeps a fold of per-trial histograms
/// order-independent no matter how trials were scheduled onto worker
/// threads. The price is
/// resolution: quantiles are reported as the upper bound of the bucket
/// holding the nearest-rank sample, an over-estimate by at most 2×.
///
/// # Examples
///
/// ```
/// use wsn_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [3u64, 5, 900] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.percentile(0.5), Some(7)); // bucket [4, 8) reports 7
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `buckets[0]` counts zeros; `buckets[i]` counts `[2^(i-1), 2^i)`.
    buckets: [u64; 65],
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index holding `value`.
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i` — what quantile queries report.
    fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Histogram::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the raw observations (0 when empty). Exact —
    /// the running sum is kept outside the buckets.
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as u64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank, reported as the
    /// upper bound of the bucket holding that rank (≤ 2× the true value).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen > rank {
                return Some(Histogram::bucket_upper(i));
            }
        }
        // count > 0 guarantees some bucket satisfies `seen > rank`.
        unreachable!("rank {rank} beyond recorded count {}", self.count)
    }

    /// Folds `other` into this histogram (element-wise bucket addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Iterates nonempty buckets as `(inclusive upper bound, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Histogram::bucket_upper(i), n))
    }
}

/// A pre-registered handle to one counter in a [`Metrics`] registry.
///
/// Resolving a counter's string name costs a `BTreeMap` walk; on the
/// simulator's hot path (a bump per radio frame) that lookup dominated the
/// registry's cost. A `CounterId` is the name resolved *once*, at
/// registration: bumping through it is a single indexed add into a flat
/// `Vec<u64>`, with the map consulted only at registration and report
/// time.
///
/// Ids are only meaningful for the registry that minted them. Handing an
/// id to any other registry is a logic error: debug builds catch it with
/// an assertion (each registry carries a nonce, stamped into every id it
/// mints); release builds do not pay for the check, so there the bump
/// lands on whatever counter occupies that slot — or panics if the slot
/// is out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId {
    slot: u32,
    /// Which registry minted this id (debug-checked on every use).
    registry: u32,
}

/// Source of per-registry nonces for the debug cross-registry check.
static REGISTRY_NONCES: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

/// A registry of named counters and histograms.
///
/// Counters live in a flat `Vec<u64>` indexed by [`CounterId`]; a
/// `BTreeMap` maps names to slots and keeps report ordering deterministic.
/// Hot paths pre-register their counters and bump by id
/// ([`Metrics::bump`]); everything else uses the named API, whose keys
/// accept anything convertible to `Cow<'static, str>` — static protocol
/// constants borrow, dynamically named series (per-node energy gauges like
/// `energy.node07.drained_mj`) pass an owned `String` without leaking it.
///
/// A counter becomes *visible* to [`Metrics::counters`] once it holds a
/// nonzero value or has been written through the named API (so explicitly recorded zeros still report);
/// registration alone does not make it visible, which keeps reports free
/// of counters a run never touched.
///
/// # Examples
///
/// ```
/// use wsn_sim::Metrics;
///
/// let mut m = Metrics::new();
/// let tx = m.register("radio.tx"); // resolve the name once…
/// for _ in 0..3 {
///     m.bump(tx); // …then bump with no string lookup
/// }
/// assert_eq!(m.counter("radio.tx"), 3);
/// ```
#[derive(Debug)]
pub struct Metrics {
    /// Name → slot. Touched at registration / report, never on a bump.
    index: BTreeMap<Cow<'static, str>, u32>,
    /// Counter values, indexed by [`CounterId`].
    counts: Vec<u64>,
    /// Slots explicitly written through the named API (visible even at 0).
    written: Vec<bool>,
    /// This registry's identity, stamped into every id it mints so debug
    /// builds can catch an id being used against the wrong registry.
    nonce: u32,
    /// Name → slot for histograms (a separate namespace from counters).
    hist_index: BTreeMap<Cow<'static, str>, u32>,
    /// Histogram storage, indexed by the slots in `hist_index`.
    hists: Vec<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            index: BTreeMap::new(),
            counts: Vec::new(),
            written: Vec::new(),
            nonce: REGISTRY_NONCES.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            hist_index: BTreeMap::new(),
            hists: Vec::new(),
        }
    }
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Resolves `name` to a [`CounterId`], registering a zeroed slot on
    /// first sight. Registration alone does not make the counter visible
    /// in reports.
    pub fn register(&mut self, name: impl Into<Cow<'static, str>>) -> CounterId {
        let name = name.into();
        if let Some(&slot) = self.index.get(&name) {
            return CounterId {
                slot,
                registry: self.nonce,
            };
        }
        let slot = u32::try_from(self.counts.len()).expect("fewer than 2^32 counters");
        self.index.insert(name, slot);
        self.counts.push(0);
        self.written.push(false);
        CounterId {
            slot,
            registry: self.nonce,
        }
    }

    /// Debug guard: `id` must have been minted by this registry.
    #[inline]
    fn check(&self, id: CounterId) {
        debug_assert_eq!(
            id.registry, self.nonce,
            "CounterId used against a registry that did not mint it"
        );
    }

    /// Increments the counter behind `id` by one — the hot path: one
    /// indexed add, no string-key lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different registry: always in debug
    /// builds (nonce check); in release builds only when the foreign slot
    /// is out of range.
    #[inline]
    pub fn bump(&mut self, id: CounterId) {
        self.check(id);
        self.counts[id.slot as usize] += 1;
    }

    /// Adds `delta` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: impl Into<Cow<'static, str>>, delta: u64) {
        let id = self.register(name);
        self.written[id.slot as usize] = true;
        self.counts[id.slot as usize] += delta;
    }

    /// Increments counter `name` by one.
    pub fn incr(&mut self, name: impl Into<Cow<'static, str>>) {
        self.add(name, 1);
    }

    /// Sets counter `name` to an absolute value (gauges, e.g. joules
    /// remaining at the end of a run).
    pub fn set(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        let id = self.register(name);
        self.written[id.slot as usize] = true;
        self.counts[id.slot as usize] = value;
    }

    /// Reads counter `name` (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.index
            .get(name)
            .map_or(0, |&slot| self.counts[slot as usize])
    }

    /// The histogram under `name`, created empty on first sight.
    /// Histograms live in their own namespace: a histogram and a counter
    /// may share a name without colliding.
    fn histogram_mut(&mut self, name: Cow<'static, str>) -> &mut Histogram {
        let slot = match self.hist_index.get(&name) {
            Some(&slot) => slot,
            None => {
                let slot = u32::try_from(self.hists.len()).expect("fewer than 2^32 histograms");
                self.hist_index.insert(name, slot);
                self.hists.push(Histogram::new());
                slot
            }
        };
        &mut self.hists[slot as usize]
    }

    /// Records one observation into histogram `name`, creating it empty
    /// if absent.
    pub fn observe_named(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        self.histogram_mut(name.into()).record(value);
    }

    /// Returns the histogram under `name`, if it holds any observations.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hist_index
            .get(name)
            .map(|&slot| &self.hists[slot as usize])
            .filter(|h| !h.is_empty())
    }

    /// Iterates nonempty histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.hist_index
            .iter()
            .filter(|(_, &slot)| !self.hists[slot as usize].is_empty())
            .map(|(k, &slot)| (k.as_ref(), &self.hists[slot as usize]))
    }

    /// Whether the slot should appear in reports.
    fn visible(&self, slot: u32) -> bool {
        self.counts[slot as usize] != 0 || self.written[slot as usize]
    }

    /// Iterates visible counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.index
            .iter()
            .filter(|(_, &slot)| self.visible(slot))
            .map(|(k, &slot)| (k.as_ref(), self.counts[slot as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_min_max() {
        let mut r = LatencyRecorder::new();
        for us in [100u64, 200, 300] {
            r.record(SimDuration::from_micros(us));
        }
        assert_eq!(r.mean().as_micros(), 200);
        assert_eq!(r.min().unwrap().as_micros(), 100);
        assert_eq!(r.max().unwrap().as_micros(), 300);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn empty_recorder_is_safe() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.mean(), SimDuration::ZERO);
        assert_eq!(r.stddev(), SimDuration::ZERO);
        assert_eq!(r.min(), None);
        assert_eq!(r.percentile(0.5), None);
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        let mut r = LatencyRecorder::new();
        for _ in 0..10 {
            r.record(SimDuration::from_micros(50));
        }
        assert_eq!(r.stddev(), SimDuration::ZERO);
    }

    #[test]
    fn percentiles() {
        let mut r = LatencyRecorder::new();
        for us in 1..=100u64 {
            r.record(SimDuration::from_micros(us));
        }
        assert_eq!(r.percentile(0.0).unwrap().as_micros(), 1);
        assert_eq!(r.percentile(1.0).unwrap().as_micros(), 100);
        let p50 = r.percentile(0.5).unwrap().as_micros();
        assert!((50..=51).contains(&p50));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn percentile_rejects_bad_q() {
        LatencyRecorder::new().percentile(1.5);
    }

    #[test]
    fn metrics_counters() {
        let mut m = Metrics::new();
        m.incr("tx");
        m.add("tx", 4);
        assert_eq!(m.counter("tx"), 5);
        assert_eq!(m.counter("rx"), 0);
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("tx", 5)]);
    }

    #[test]
    fn registered_ids_bump_without_name_lookups() {
        let mut m = Metrics::new();
        let tx = m.register("tx");
        let rx = m.register("rx");
        assert_eq!(m.register("tx"), tx, "re-registration is idempotent");
        m.bump(tx);
        m.bump(tx);
        assert_eq!(m.counter("tx"), 2);
        // Named and id-based writes land on the same slot.
        m.incr("rx");
        m.bump(rx);
        assert_eq!(m.counter("rx"), 2);
    }

    #[test]
    fn registered_but_untouched_counters_stay_out_of_reports() {
        let mut m = Metrics::new();
        let a = m.register("quiet");
        m.incr("busy");
        assert_eq!(m.counters().collect::<Vec<_>>(), vec![("busy", 1)]);
        assert_eq!(m.counter("quiet"), 0);
        // An explicit zero through the named API *is* a report entry…
        m.set("gauge", 0);
        assert_eq!(
            m.counters().collect::<Vec<_>>(),
            vec![("busy", 1), ("gauge", 0)]
        );
        // …and so is any nonzero id-bumped value.
        m.bump(a);
        assert_eq!(
            m.counters().collect::<Vec<_>>(),
            vec![("busy", 1), ("gauge", 0), ("quiet", 1)]
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "did not mint it"))]
    fn cross_registry_ids_are_caught_in_debug_builds() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        let _ = a.register("tx");
        let foreign = a.register("rx"); // slot 1 in a
        let _ = b.register("rx");
        let _ = b.register("tx"); // slot 1 in b — a silent mixup target
        b.bump(foreign);
        // Release builds skip the nonce check: the bump lands on b's
        // slot 1 ("tx") — exactly the documented unchecked behavior.
        #[cfg(not(debug_assertions))]
        assert_eq!(b.counter("tx"), 1);
    }

    #[test]
    fn dynamic_counter_names_need_no_leaked_strings() {
        let mut m = Metrics::new();
        for node in 0..3 {
            m.add(format!("energy.node{node:02}.drained_mj"), node + 10);
        }
        m.incr("energy.nodes_dead"); // static and owned keys coexist
        assert_eq!(m.counter("energy.node01.drained_mj"), 11);
        assert_eq!(m.counter("energy.node02.drained_mj"), 12);
        // BTreeMap ordering is lexicographic over the merged key space.
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(
            names,
            vec![
                "energy.node00.drained_mj",
                "energy.node01.drained_mj",
                "energy.node02.drained_mj",
                "energy.nodes_dead",
            ]
        );
        m.set("energy.node00.drained_mj", 99);
        assert_eq!(m.counter("energy.node00.drained_mj"), 99);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(5);
        h.record(5);
        h.record(u64::MAX);
        assert_eq!(h.count(), 5);
        // Bucket upper bounds: 0 → 0, 1 → 1, [4,8) → 7, top → u64::MAX.
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(0, 1), (1, 1), (7, 2), (u64::MAX, 1)]);
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(0.5), Some(7));
        assert_eq!(h.percentile(1.0), Some(u64::MAX));
        assert!(Histogram::new().percentile(0.5).is_none());
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), 20);
        assert_eq!(Histogram::new().mean(), 0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn histogram_percentile_rejects_bad_q() {
        Histogram::new().percentile(-0.1);
    }

    #[test]
    fn histogram_ids_observe_without_name_lookups() {
        let mut m = Metrics::new();
        m.observe_named("op.latency_us", 100);
        m.observe_named("op.latency_us", 200);
        assert_eq!(m.histogram("op.latency_us").unwrap().count(), 2);
        // Created-but-empty histograms stay out of reports.
        let _ = m.histogram_mut("quiet".into());
        assert!(m.histogram("quiet").is_none());
        let names: Vec<&str> = m.histograms().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["op.latency_us"]);
        // Histograms and counters are separate namespaces.
        m.incr("op.latency_us");
        assert_eq!(m.counter("op.latency_us"), 1);
        assert_eq!(m.histogram("op.latency_us").unwrap().count(), 2);
    }

    proptest! {
        /// Bucketed quantiles over-estimate by at most 2× and never
        /// under-estimate the true nearest-rank quantile.
        #[test]
        fn prop_histogram_percentile_bounds(
            samples in proptest::collection::vec(0u64..1_000_000, 1..200),
            q_milli in 0u32..=1000,
        ) {
            let q = f64::from(q_milli) / 1000.0;
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
            let exact = sorted[rank];
            let est = h.percentile(q).unwrap();
            prop_assert!(est >= exact, "est {est} < exact {exact}");
            prop_assert!(est <= exact.saturating_mul(2).max(1), "est {est} > 2x exact {exact}");
        }

        /// Histogram merge is order-independent and matches serial
        /// accumulation exactly (count, buckets and mean) — the contract
        /// a fold of per-trial histograms depends on.
        #[test]
        fn prop_histogram_merge_order_independent(
            trials in proptest::collection::vec(
                proptest::collection::vec(0u64..1_000_000, 0..20),
                1..6,
            ),
        ) {
            let mut serial = Histogram::new();
            for &v in trials.iter().flatten() {
                serial.record(v);
            }
            let per_trial: Vec<Histogram> = trials
                .iter()
                .map(|trial| {
                    let mut h = Histogram::new();
                    for &v in trial {
                        h.record(v);
                    }
                    h
                })
                .collect();
            let view = |h: &Histogram| (h.count(), h.buckets().collect::<Vec<_>>(), h.mean());
            let fold = |order: &mut dyn Iterator<Item = &Histogram>| {
                let mut total = Histogram::new();
                for h in order {
                    total.merge(h);
                }
                view(&total)
            };
            let forward = fold(&mut per_trial.iter());
            let backward = fold(&mut per_trial.iter().rev());
            prop_assert_eq!(&forward, &backward);
            prop_assert_eq!(forward, view(&serial));
        }
    }

    proptest! {
        #[test]
        fn prop_mean_within_min_max(samples in proptest::collection::vec(0u64..1_000_000, 1..100)) {
            let mut r = LatencyRecorder::new();
            for s in &samples {
                r.record(SimDuration::from_micros(*s));
            }
            let mean = r.mean().as_micros();
            prop_assert!(mean >= r.min().unwrap().as_micros());
            prop_assert!(mean <= r.max().unwrap().as_micros());
        }

        #[test]
        fn prop_percentile_monotone(samples in proptest::collection::vec(0u64..1_000_000, 2..100)) {
            let mut r = LatencyRecorder::new();
            for s in &samples {
                r.record(SimDuration::from_micros(*s));
            }
            let p25 = r.percentile(0.25).unwrap();
            let p75 = r.percentile(0.75).unwrap();
            prop_assert!(p25 <= p75);
        }
    }
}
