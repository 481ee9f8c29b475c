//! Host-side measurements: process CPU time and the memory-walk probe
//! that tells a slow host stretch apart from a slow program.

use std::hint::black_box;
use std::time::Instant;

/// `struct timeval` on LP64 Linux.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on LP64 Linux: two timevals, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds consumed by the whole process so far.
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the LP64 Linux
    // layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// A fixed single-threaded random walk over a 64 MiB array: one
/// dependent DRAM access per step, so its rate follows the memory and
/// cache interference the host is under, not the program.
pub struct MemProbe {
    next: Vec<u32>,
}

/// Array entries (4 bytes each): 64 MiB, well above any last-level cache.
const PROBE_ENTRIES: usize = 1 << 24;
/// Steps per probe (about 30-60 ms on a DRAM-bound walk).
const PROBE_STEPS: usize = 400_000;

impl MemProbe {
    /// Build one random cycle through every entry (Sattolo's algorithm
    /// with a fixed seed, so every run walks the same cycle).
    pub fn new() -> MemProbe {
        let mut next: Vec<u32> = (0..PROBE_ENTRIES as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..PROBE_ENTRIES).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % i as u64) as usize;
            next.swap(i, j);
        }
        MemProbe { next }
    }

    /// Walk the cycle and return nanoseconds per step.
    pub fn sample(&self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..PROBE_STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        t0.elapsed().as_nanos() as f64 / PROBE_STEPS as f64
    }
}
