//! A counting global allocator.
//!
//! It forwards to [`System`] and, only while [`set_counting`] is on,
//! counts allocation calls and net live bytes. The untraced timing runs
//! leave it off, so their hot path pays one relaxed load per allocation.
//! A thread can opt out with [`exclude_this_thread`] — the churn writer
//! does, so that its rebuilds are not charged to the serving path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator type; installed as the global allocator of every binary
/// linking this crate.
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // `const` initialisation with a `Copy` payload: no lazy init and no
    // destructor, so reading it from inside the allocator cannot
    // recurse into the allocator.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn counted() -> bool {
    COUNTING.load(Relaxed) && !EXCLUDED.try_with(Cell::get).unwrap_or(true)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and never touch the heap.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Relaxed);
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off for every thread that has not opted out.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Stops counting the calling thread's allocations, whatever
/// [`set_counting`] says.
pub fn exclude_this_thread() {
    EXCLUDED.with(|e| e.set(true));
}

/// Allocation calls counted so far (allocs, zeroed allocs, reallocs).
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Net bytes allocated minus freed while counting was on.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Relaxed)
}
