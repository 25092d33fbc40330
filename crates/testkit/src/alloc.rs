//! Allocation-counting global allocator for steady-state tests.
//!
//! The pod simulation promises *zero steady-state allocation*: once its
//! scratch buffers (egress buffers, timeout lists, reorder-release scratch)
//! have grown to their working size, processing more packets must not touch
//! the allocator. That invariant is easy to break silently — a
//! stray `Vec::new()` in a hot path compiles fine and benches "okay" — so
//! it is enforced by a test hook instead: install [`CountingAllocator`] as
//! the `#[global_allocator]` of a test binary and compare
//! [`CountingAllocator::allocations`] deltas around the region of interest.
//!
//! ```ignore
//! use albatross_testkit::alloc::CountingAllocator;
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! #[test]
//! fn steady_state_does_not_allocate() {
//!     warm_up();
//!     let before = CountingAllocator::allocations();
//!     hot_loop();
//!     let after = CountingAllocator::allocations();
//!     assert!(after - before < SMALL_SLACK);
//! }
//! ```
//!
//! The counters are process-global (`#[global_allocator]` is a singleton),
//! relaxed-atomic, and monotone; deltas are meaningful within one thread as
//! long as no other thread allocates concurrently — give such tests their
//! own test binary and serialize them there (a shared `static Mutex<()>`
//! held for each test's whole body), since the harness runs tests on
//! parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation.
///
/// Zero-sized and `const`-constructible so it can be a
/// `#[global_allocator]` static.
#[derive(Debug)]
pub struct CountingAllocator;

impl CountingAllocator {
    /// Creates the allocator (zero-sized; counters are global statics).
    pub const fn new() -> Self {
        Self
    }

    /// Total allocation calls (`alloc` + `realloc`) since process start.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Total deallocation calls since process start.
    pub fn deallocations() -> u64 {
        DEALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Total bytes requested from the allocator since process start.
    pub fn bytes_allocated() -> u64 {
        BYTES_ALLOCATED.load(Ordering::Relaxed)
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: defers entirely to `System`; the counter updates are lock-free
// atomics and perform no allocation themselves.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
