//! Host-speed calibration.
//!
//! The benchmark was tuned on a virtual machine whose cores and caches are
//! shared with other guests. That contention comes in phases lasting
//! minutes. In a slow phase the same pass takes 1.4–1.7× the host time of
//! a fast phase, far more than any bound a regression check can use. The
//! thread clock (see [`crate::clock`]) removes steal time but not this.
//!
//! The kernel below is a small discrete-event simulation that shares no
//! code with the program under test. It is a timer heap over a torus of
//! 4096 motes, and each event touches its mote's and four neighbours' state
//! and allocates a message. Its host time, sampled next to every timed
//! pass, tracks how fast the host runs this kind of code at the moment.
//! The end-to-end host times are scaled by [`REFERENCE_NS`] over the run's
//! median kernel time. On the tuning host this halved the spread between
//! runs. The raw times are printed beside the scaled ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::clock::now_ns;

/// The kernel's host time at the speed the scaled times refer to: its
/// typical value on the tuning host (2.1 GHz Xeon, KVM guest), ns.
pub const REFERENCE_NS: f64 = 8.0e6;

/// Side of the kernel's torus of motes.
const SIDE: usize = 64;
/// Events the kernel processes per sample.
const EVENTS: usize = 60_000;

/// Runs the kernel once and returns its host time, ns.
pub fn kernel_ns() -> u64 {
    let t0 = now_ns();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut state = vec![[0u64; 8]; SIDE * SIDE];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..(SIDE * SIDE) as u32)
        .map(|i| Reverse((next() % 1_000_000, i)))
        .collect();
    let mut acc = 0u64;
    for _ in 0..EVENTS {
        let Reverse((t, i)) = heap.pop().expect("the heap never drains");
        let (r, c) = (i as usize / SIDE, i as usize % SIDE);
        let msg = vec![t as u8; 24 + (t % 16) as usize];
        for (dr, dc) in [(0, 1), (2, 1), (1, 0), (1, 2)] {
            let cell = (r + SIDE + dr - 1) % SIDE * SIDE + (c + SIDE + dc - 1) % SIDE;
            let slot = &mut state[cell][(t % 8) as usize];
            *slot = slot.wrapping_add(msg.len() as u64 ^ t);
            acc ^= state[cell][0];
        }
        heap.push(Reverse((t + 1 + next() % 1_000_000, i)));
    }
    black_box(acc);
    now_ns() - t0
}
