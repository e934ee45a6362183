//! A CSMA MAC with random backoff, after TinyOS 1.x's CC1000 stack, plus an
//! optional B-MAC-style low-power-listening (LPL) mode.

use wsn_sim::{RngStream, SimDuration};

/// B-MAC low-power listening: receivers sleep and only sample the channel
/// every `check_interval_us`; senders stretch each preamble to cover a full
/// check interval so a sampling receiver cannot miss the frame.
///
/// The trade is the classic one from the B-MAC evaluation: idle-listening
/// draw shrinks by the duty cycle (`check_time / check_interval`), while
/// every transmission pays `check_interval` of extra air time — so the
/// optimal interval depends on traffic rate, and lifetime vs. interval is
/// non-monotone. The `fig_energy` bench sweeps exactly that curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LplConfig {
    /// Sleep/wake period: how often a listening radio samples the channel, µs.
    pub check_interval_us: u64,
    /// How long one channel sample keeps the radio on (CC1000 start-up +
    /// RSSI settle), µs.
    pub check_time_us: u64,
}

impl LplConfig {
    /// An LPL mode with the given check interval and the MICA2's ≈2.5 ms
    /// wake-and-sample cost.
    pub fn with_interval(check_interval: SimDuration) -> Self {
        LplConfig {
            check_interval_us: check_interval.as_micros().max(1),
            check_time_us: 2_500,
        }
    }

    /// Fraction of idle time the radio spends listening (1.0 = the check
    /// interval is no longer than one sample, i.e. effectively always on).
    pub fn listen_duty(&self) -> f64 {
        (self.check_time_us as f64 / self.check_interval_us as f64).min(1.0)
    }

    /// Extra preamble air time every transmission pays so that a receiver
    /// sampling once per interval is guaranteed to catch it.
    pub fn preamble_stretch(&self) -> SimDuration {
        SimDuration::from_micros(self.check_interval_us)
    }
}

/// Minimum initial backoff before transmitting, µs (the calibrated
/// MICA2/TinyOS profile; see the loss-model docs in `wsn_radio`).
pub const BACKOFF_MIN_US: u64 = 400;

/// Maximum initial backoff, µs.
pub const BACKOFF_MAX_US: u64 = 6_400;

/// Extra delay per congestion retry when the channel stays busy, µs.
pub const CONGESTION_STEP_US: u64 = 3_200;

/// Software path cost per send: task posting, buffer copy, SPI transfer to
/// the radio, µs. Calibrated so that a request/reply remote tuple-space
/// operation lands at the paper's ≈55 ms (Section 4).
pub const TX_PROCESSING_US: u64 = 9_000;

/// Software path cost per receive: interrupt, CRC, dispatch, µs.
pub const RX_PROCESSING_US: u64 = 4_000;

/// The MAC decision component: backoff and processing delays.
///
/// # Examples
///
/// ```
/// use wsn_net::CsmaMac;
/// use wsn_sim::RngStream;
///
/// let mac = CsmaMac::new();
/// let mut rng = RngStream::derive(1, "mac");
/// let d = mac.initial_backoff(&mut rng);
/// assert!(d.as_micros() >= 400 && d.as_micros() <= 6_400);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CsmaMac;

impl CsmaMac {
    /// Creates a MAC with the MICA2 timing. Low-power listening changes no
    /// MAC timing: its preamble stretch and listen duty are applied by the
    /// radio medium and the energy ledger.
    pub fn new() -> Self {
        CsmaMac
    }

    /// Random delay before the first carrier-sense attempt.
    pub fn initial_backoff(&self, rng: &mut RngStream) -> SimDuration {
        SimDuration::from_micros(rng.range_u64(BACKOFF_MIN_US, BACKOFF_MAX_US + 1))
    }

    /// Random delay before retrying after sensing a busy channel; grows
    /// linearly with the retry count (bounded congestion backoff).
    pub fn congestion_backoff(&self, rng: &mut RngStream, attempt: u32) -> SimDuration {
        let step = CONGESTION_STEP_US * u64::from(attempt.min(8) + 1);
        SimDuration::from_micros(rng.range_u64(BACKOFF_MIN_US, BACKOFF_MIN_US + step + 1))
    }

    /// Fixed software cost added before a frame hits the air.
    pub fn tx_processing(&self) -> SimDuration {
        SimDuration::from_micros(TX_PROCESSING_US)
    }

    /// Fixed software cost between frame arrival and handler dispatch.
    pub fn rx_processing(&self) -> SimDuration {
        SimDuration::from_micros(RX_PROCESSING_US)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_backoff_within_bounds() {
        let mac = CsmaMac::new();
        let mut rng = RngStream::derive(7, "t");
        for _ in 0..1000 {
            let d = mac.initial_backoff(&mut rng).as_micros();
            assert!((400..=6_400).contains(&d), "{d}");
        }
    }

    #[test]
    fn congestion_backoff_grows_with_attempts() {
        let mac = CsmaMac::new();
        let mut rng = RngStream::derive(8, "t");
        let avg = |attempt: u32, rng: &mut RngStream| -> u64 {
            (0..500)
                .map(|_| mac.congestion_backoff(rng, attempt).as_micros())
                .sum::<u64>()
                / 500
        };
        let early = avg(0, &mut rng);
        let late = avg(6, &mut rng);
        assert!(late > early, "late {late} <= early {early}");
    }

    #[test]
    fn congestion_backoff_is_capped() {
        let mac = CsmaMac::new();
        let mut rng = RngStream::derive(9, "t");
        // Attempt counts beyond 8 are clamped.
        let max_step = CONGESTION_STEP_US * 9 + BACKOFF_MIN_US;
        for _ in 0..200 {
            let d = mac.congestion_backoff(&mut rng, 1000).as_micros();
            assert!(d <= max_step);
        }
    }

    #[test]
    fn processing_costs_exposed() {
        let mac = CsmaMac::new();
        assert_eq!(mac.tx_processing().as_micros(), 9_000);
        assert_eq!(mac.rx_processing().as_micros(), 4_000);
    }

    #[test]
    fn lpl_duty_and_stretch_track_the_check_interval() {
        let lpl = LplConfig::with_interval(SimDuration::from_millis(100));
        assert_eq!(lpl.preamble_stretch().as_millis(), 100);
        assert!((lpl.listen_duty() - 0.025).abs() < 1e-12, "2.5ms / 100ms");
        // Longer intervals: cheaper listening, dearer preambles.
        let slow = LplConfig::with_interval(SimDuration::from_secs(1));
        assert!(slow.listen_duty() < lpl.listen_duty());
        assert!(slow.preamble_stretch() > lpl.preamble_stretch());
        // Degenerate tiny interval clamps to always-on.
        let tiny = LplConfig::with_interval(SimDuration::from_micros(10));
        assert_eq!(tiny.listen_duty(), 1.0);
    }
}
