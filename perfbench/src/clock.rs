//! The benchmark's host clock: CPU time of the calling thread.
//!
//! The benchmark runs on one thread, so its CPU time is the wall time it
//! would take on an unshared core. On a virtual machine the thread clock
//! also leaves out time the hypervisor gave to other guests (steal time),
//! which wall time counts and which no change to the program can affect.

/// `clockid_t` of `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used, ns.
pub fn now_ns() -> u64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `timespec` for the duration of the
    // call, and `CLOCK_THREAD_CPUTIME_ID` is a clock every Linux provides.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.sec as u64 * 1_000_000_000 + t.nsec as u64
}
