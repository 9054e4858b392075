//! A counting global allocator, installed in this binary only.
//!
//! Every allocation and reallocation bumps one counter; `*.allocs_*`
//! metrics are differences of [`count`] around a call. The benchmark runs
//! the simulator on a single thread, so the counter is a plain load and
//! store rather than a locked read-modify-write: this keeps the allocator
//! cheap in the untraced end-to-end runs, at the price of possibly missing
//! increments made concurrently by another thread (there is none).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The allocator: `System` plus a counter.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn bump() {
    ALLOCS.store(ALLOCS.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Allocations (including reallocations) made so far by this process.
#[inline]
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's pointer, layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}
