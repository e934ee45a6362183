//! The SimEngine trial executor: fan independent trials across worker
//! threads, deterministically.
//!
//! Every paper figure is a sweep of independent `(seed, spec)` trials over
//! a few points (hop counts, rates, speeds), and a trial's outcome is a
//! pure function of its spec (see `agilla::testbed`). That makes the
//! executor trivial to keep byte-identical to the serial path: workers
//! pull trial *indices* from a shared atomic counter, run each trial in
//! isolation on their own thread, and the batch reassembles results **by
//! index** — so downstream folds see exactly the order a serial loop
//! would have produced, no matter how the OS scheduled the workers. Each
//! trial reads what its figure needs from its own network on its worker
//! (counters, log records, histograms), and the figure folds those values
//! point by point in trial order, so there is no cross-thread contention
//! and no ordering sensitivity.
//!
//! `std::thread::scope` keeps the workers borrow-friendly and vendored-dep
//! free (no rayon in the offline container).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Runs `f` over every item, fanning across up to `threads` workers, and
/// returns the results in item order — byte-identical to
/// `items.iter().map(f).collect()`.
///
/// `threads <= 1` runs inline with no thread machinery at all.
///
/// # Panics
///
/// Propagates a panic from any trial.
fn run_trials_parallel<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        got.push((i, f(&items[i])));
                    }
                    got
                })
            })
            .collect();
        for w in workers {
            for (i, r) in w.join().expect("trial worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index was claimed exactly once"))
        .collect()
}

/// Fans trial batches across a worker budget and keeps wall-clock
/// accounting, so figure binaries can report engine throughput
/// (`trials_per_sec`) without touching their measured stdout output — the
/// report goes to stderr.
#[derive(Debug)]
pub struct TrialExecutor {
    threads: usize,
    trials: usize,
    wall: Duration,
}

impl TrialExecutor {
    /// An executor using up to `threads` workers (0 and 1 both mean
    /// serial).
    pub fn new(threads: usize) -> Self {
        TrialExecutor {
            threads: threads.max(1),
            trials: 0,
            wall: Duration::ZERO,
        }
    }

    /// Worker thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every item (one trial each) and returns the results
    /// in item order, adding the batch's trials and wall time to the
    /// totals.
    pub fn run<T, R, F>(&mut self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let start = Instant::now();
        let out = run_trials_parallel(items, self.threads, f);
        self.wall += start.elapsed();
        self.trials += items.len();
        out
    }

    /// Runs `trials` trials at every point as one batch and returns each
    /// point's results in trial order: `out[i][t]` is `trial(i, &points[i],
    /// t)`, where `trial` builds and executes trial `t` at point `i` and
    /// returns what the figure reads from it. Every trial counts toward
    /// [`TrialExecutor::trials`].
    pub fn sweep<P, R, F>(&mut self, points: &[P], trials: u32, trial: F) -> Vec<Vec<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(usize, &P, u32) -> R + Sync,
    {
        let cells: Vec<(usize, u32)> = (0..points.len())
            .flat_map(|i| (0..trials).map(move |t| (i, t)))
            .collect();
        let mut flat = self
            .run(&cells, |&(i, t)| trial(i, &points[i], t))
            .into_iter();
        points
            .iter()
            .map(|_| flat.by_ref().take(trials as usize).collect())
            .collect()
    }

    /// Trials completed across every batch so far.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Wall clock spent running batches so far.
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Completed trials per wall-clock second (0.0 before any trial ran).
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.trials as f64 / self.wall.as_secs_f64()
    }

    /// Prints the engine throughput line to **stderr**, keeping measured
    /// figure output on stdout byte-identical across thread counts.
    pub fn report(&self, label: &str) {
        eprintln!(
            "engine: {label}: {} trials in {:.2} s on {} thread(s) — {:.0} trials/sec",
            self.trials,
            self.wall.as_secs_f64(),
            self.threads,
            self.trials_per_sec(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..200).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 7] {
            let par = run_trials_parallel(&items, threads, |x| x * x);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_work_still_merges_in_order() {
        // Make late items finish first so out-of-order completion is real.
        let items: Vec<u64> = (0..32).collect();
        let out = run_trials_parallel(&items, 4, |x| {
            std::thread::sleep(Duration::from_micros(200 * (32 - x)));
            *x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u64> = run_trials_parallel(&[] as &[u64], 4, |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn sweep_groups_by_point_in_trial_order_and_counts_every_trial() {
        // Uneven work: early cells sleep longest, so late cells finish
        // first whenever more than one worker runs.
        let points = [10u64, 20, 30, 40, 50];
        let trials = 6u32;
        let expected: Vec<Vec<u64>> = points
            .iter()
            .map(|p| (0..trials).map(|t| p + u64::from(t)).collect())
            .collect();
        for threads in [1, 2, 4, 7] {
            let mut ex = TrialExecutor::new(threads);
            let out = ex.sweep(&points, trials, |i, &p, t| {
                let cell = i as u64 * u64::from(trials) + u64::from(t);
                std::thread::sleep(Duration::from_micros(100 * (30 - cell)));
                p + u64::from(t)
            });
            assert_eq!(out, expected, "threads = {threads}");
            assert_eq!(ex.trials(), points.len() * trials as usize);
        }
    }

    #[test]
    fn executor_accumulates_throughput() {
        let mut ex = TrialExecutor::new(2);
        assert_eq!(ex.trials_per_sec(), 0.0);
        let items: Vec<u64> = (0..50).collect();
        let _ = ex.run(&items, |x| {
            std::thread::sleep(Duration::from_micros(100));
            *x
        });
        assert_eq!(ex.trials(), 50);
        assert!(ex.trials_per_sec() > 0.0);
        assert_eq!(ex.threads(), 2);
    }
}
