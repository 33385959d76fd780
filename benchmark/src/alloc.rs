//! A counting global allocator: exact heap-allocation counts and bytes for
//! the `alloc.*` metrics, and the live heap size behind
//! `stack.heap_bytes_per_cmd`. Counting is process-global and always on (a
//! few relaxed atomic adds per allocation); the protocol reads the
//! counters before and after the timed passes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed (wraps below zero transiently only if
/// a block allocated before the counters existed is freed; never happens
/// with a `#[global_allocator]`).
static LIVE: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two statistics counters in front of it.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

fn note_alloc(size: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LIVE.fetch_add(size as u64, Ordering::Relaxed);
}

/// Heap bytes currently allocated.
#[must_use]
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// `(allocations, bytes requested)` since process start. Both stay 0 in a
/// binary that did not install [`CountingAlloc`] as its global allocator.
#[must_use]
pub fn snapshot() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
