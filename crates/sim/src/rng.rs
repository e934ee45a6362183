//! Named deterministic random-number streams.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic random stream derived from a master seed and a name.
///
/// Different simulation concerns (radio loss, MAC backoff, workload arrival,
/// sensor noise) each draw from their own stream so that changing how many
/// draws one concern makes does not silently reshuffle another — the classic
/// "common random numbers" discipline for comparing simulated systems.
///
/// # Examples
///
/// ```
/// use wsn_sim::RngStream;
///
/// let mut a = RngStream::derive(42, "radio.loss");
/// let mut b = RngStream::derive(42, "radio.loss");
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed+name => same stream
///
/// let mut c = RngStream::derive(42, "mac.backoff");
/// let _ = c.next_u64(); // different name => independent stream
/// ```
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: SmallRng,
}

impl RngStream {
    /// Derives a stream from `master_seed` and a stream `name`.
    ///
    /// The derivation hashes the name with FNV-1a and mixes it into the seed
    /// via SplitMix64 so that streams with related names are uncorrelated.
    pub fn derive(master_seed: u64, name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let seed = splitmix64(master_seed ^ h);
        RngStream {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives a sub-stream, e.g. a per-node stream from a per-layer stream.
    pub fn substream(&self, index: u64) -> RngStream {
        // Independent of this stream's current position: derived from the
        // index only, mixed through SplitMix64 twice for avalanche.
        let base = splitmix64(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut clone = self.rng.clone();
        let anchor: u64 = clone.gen();
        RngStream {
            rng: SmallRng::seed_from_u64(splitmix64(base ^ anchor)),
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.rng.gen::<f64>() < p
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        self.rng.gen_range(lo..hi)
    }

    /// Uniform index into a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot index an empty collection");
        self.rng.gen_range(0..len)
    }

    /// Exponentially-distributed draw with the given mean.
    ///
    /// Used for burst durations in the Gilbert-Elliott channel model.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }
}

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stream() {
        let mut a = RngStream::derive(7, "x");
        let mut b = RngStream::derive(7, "x");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_diverge() {
        let mut a = RngStream::derive(7, "x");
        let mut b = RngStream::derive(7, "y");
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(
            same < 2,
            "streams should be uncorrelated, got {same} collisions"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = RngStream::derive(1, "x");
        let mut b = RngStream::derive(2, "x");
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::derive(0, "p");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_frequency_is_sane() {
        let mut r = RngStream::derive(0, "freq");
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits} hits for p=0.3");
    }

    #[test]
    fn exponential_mean_is_sane() {
        let mut r = RngStream::derive(3, "exp");
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = total / f64::from(n);
        assert!(
            (4.5..5.5).contains(&mean),
            "got mean {mean} for expected 5.0"
        );
    }

    #[test]
    fn substreams_reproducible_and_distinct() {
        let root = RngStream::derive(9, "root");
        let mut s1 = root.substream(1);
        let mut s1b = root.substream(1);
        let mut s2 = root.substream(2);
        assert_eq!(s1.next_u64(), s1b.next_u64());
        let same = (0..32).filter(|_| s1.next_u64() == s2.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_rejects_empty() {
        RngStream::derive(0, "r").range_u64(5, 5);
    }

    #[test]
    #[should_panic(expected = "empty collection")]
    fn index_rejects_empty() {
        RngStream::derive(0, "r").index(0);
    }
}
