//! The counting global allocator shared by the allocation-contract
//! tests (`zero_alloc.rs`, `virtual_round_allocs.rs`,
//! `cha_checker_memory.rs`). It counts allocations and tracks live
//! bytes with their high-water mark. Each of those files must hold
//! exactly one `#[test]`: a sibling test running on another thread
//! would pollute the counters.

#![allow(dead_code)] // each test file uses part of the interface

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counts every allocation and reallocation routed through the global
/// allocator, and the bytes they hold.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and reallocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::SeqCst)
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::SeqCst)
}

/// Restarts the high-water mark at the bytes live now, and returns
/// them.
pub fn reset_peak() -> usize {
    let live = live_bytes();
    PEAK.store(live, Ordering::SeqCst);
    live
}
