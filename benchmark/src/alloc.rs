//! A counting wrapper around the system allocator.
//!
//! Allocation counts are taken from outside the program under test: the
//! benchmark binary installs this allocator, arms it only for the traced
//! run, and reads process-wide and per-thread deltas. Disarmed it costs one
//! relaxed load per call, so the untraced numbers are those of the system
//! allocator (the README records the A/B).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching them inside
    // the allocator never allocates or registers anything.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The allocator installed by `main.rs`.
pub struct Counting;

#[inline]
fn count(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        // `try_with` because a thread may allocate while its locals are
        // being torn down; such calls still count process-wide.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only
// atomics and const-initialised thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts or stops counting.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::SeqCst);
}

/// Allocation calls and bytes requested: process-wide, and by the calling
/// thread alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
    pub thread_allocs: u64,
    pub thread_bytes: u64,
}

impl Snapshot {
    pub fn now() -> Self {
        Self {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
            thread_allocs: THREAD_ALLOCS.with(Cell::get),
            thread_bytes: THREAD_BYTES.with(Cell::get),
        }
    }

    /// Counts since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            thread_allocs: self.thread_allocs - earlier.thread_allocs,
            thread_bytes: self.thread_bytes - earlier.thread_bytes,
        }
    }

    /// Allocation calls made by every thread but the calling one.
    pub fn other_threads_allocs(&self) -> u64 {
        self.allocs - self.thread_allocs
    }

    /// Bytes requested by every thread but the calling one.
    pub fn other_threads_bytes(&self) -> u64 {
        self.bytes - self.thread_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests run on parallel threads that share the process-wide counters,
    // so only the calling thread's own counts can be asserted exactly.
    #[test]
    fn armed_counts_this_threads_allocations() {
        arm(true);
        let before = Snapshot::now();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let delta = Snapshot::now().since(&before);
        arm(false);
        assert!(delta.thread_allocs >= 1, "{delta:?}");
        assert!(delta.thread_bytes >= 4096, "{delta:?}");
        assert!(delta.allocs >= delta.thread_allocs);
    }
}
