//! Whole-assembly heap high-water mark, measured from outside the pipeline.
//!
//! `hipmer::alloc` restarts its own peak at the start of every stage, so
//! after a run it only knows the last stage's peak. [`PeakAlloc`] wraps
//! [`hipmer::TrackingAlloc`] (whose per-stage counters keep working) and
//! keeps a second live/peak pair that only the benchmark restarts, once
//! per assembly.

use hipmer::TrackingAlloc;
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The benchmark's global allocator.
pub struct PeakAlloc;

#[inline]
fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `TrackingAlloc`, which
// forwards to `System`; the extra bookkeeping touches only atomics and
// never the returned memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = TrackingAlloc.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = TrackingAlloc.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        TrackingAlloc.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = TrackingAlloc.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Restart the high-water mark at the current live size and return that
/// size: the baseline an assembly's peak is measured above.
pub fn restart_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live bytes since [`restart_peak`], above `baseline`.
pub fn peak_above(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}
