//! Counting global allocator for the traced run's `alloc.*` rows.
//!
//! Wraps the system allocator. While counting is switched on, every
//! `alloc`/`alloc_zeroed`/`realloc` adds its requested size to a
//! process-wide tally and to a tally of the calling thread, so a window
//! can be measured either for the whole process (all rank threads) or
//! for one thread. Switched off, the only cost is one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized and without a destructor, so the allocator may
    // read them at any point of a thread's life, teardown included.
    static T_BYTES: Cell<u64> = const { Cell::new(0) };
    static T_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
    if ON.load(Ordering::Relaxed) {
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        T_BYTES.with(|c| c.set(c.get() + size as u64));
        T_CALLS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and const thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Cumulative `(bytes, calls)` allocated while counting was on.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub bytes: u64,
    pub calls: u64,
}

impl Tally {
    pub fn since(self, earlier: Tally) -> Tally {
        Tally {
            bytes: self.bytes - earlier.bytes,
            calls: self.calls - earlier.calls,
        }
    }
}

pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Process-wide tally, all threads.
pub fn process() -> Tally {
    Tally {
        bytes: BYTES.load(Ordering::Relaxed),
        calls: CALLS.load(Ordering::Relaxed),
    }
}

/// Tally of the calling thread only.
pub fn thread() -> Tally {
    Tally {
        bytes: T_BYTES.with(Cell::get),
        calls: T_CALLS.with(Cell::get),
    }
}
