//! The counting global allocator of the allocation contracts
//! (`alloc_contracts.rs`, the one test binary that installs it). It
//! counts allocations and tracks live bytes with their high-water
//! mark, per thread: every reading reports the calling thread's own
//! allocations, so tests running side by side, and the test harness's
//! own threads, land nothing in each other's windows. Every run the
//! contracts measure resolves on the thread that calls it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation routed through the global
/// allocator, and the bytes they hold, on the thread that makes it.
struct CountingAlloc;

// `const`-initialised and free of destructors, so reading them from
// inside the allocator never allocates. Signed: a thread that frees
// memory another thread allocated goes below zero.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Moves this thread's live bytes by `delta`, raising the peak with
/// them.
fn resized(delta: isize) {
    let live = LIVE.get() + delta;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

/// Counts one allocation or reallocation that moved this thread's live
/// bytes by `delta`.
fn allocated(delta: isize) {
    ALLOCATIONS.set(ALLOCATIONS.get() + 1);
    resized(delta);
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counting beside it touches only
// this thread's cells, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size() as isize);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocated(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resized(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations and reallocations this thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.get()
}

/// Bytes this thread allocated and has not freed (0 while it has
/// freed more than it allocated).
pub fn live_bytes() -> usize {
    usize::try_from(LIVE.get()).unwrap_or(0)
}

/// The most bytes live on this thread at once since its last
/// [`reset_peak`].
pub fn peak_bytes() -> usize {
    usize::try_from(PEAK.get()).unwrap_or(0)
}

/// Restarts this thread's high-water mark at the bytes live now, and
/// returns them.
pub fn reset_peak() -> usize {
    PEAK.set(LIVE.get());
    live_bytes()
}
