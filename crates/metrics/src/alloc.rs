//! A counting global allocator used to measure the memory footprint of a query run.
//!
//! The original evaluation measures the JVM heap of the process running each query;
//! the Rust equivalent is to count live heap bytes directly at the allocator. Install
//! the tracking allocator in a benchmark binary with:
//!
//! ```rust,ignore
//! use genealog_metrics::TrackingAllocator;
//!
//! #[global_allocator]
//! static ALLOC: TrackingAllocator = TrackingAllocator::new();
//! ```
//!
//! and sample [`TrackingAllocator::live_bytes`] / reset-and-read
//! [`TrackingAllocator::peak_bytes`] around each experiment.
//!
//! The probe effect is **not** negligible for allocation-heavy code. The counters
//! are relaxed atomics, but every thread shares them: each allocation costs three
//! read-modify-writes (`allocations`, `live`, `peak`), each deallocation one, and
//! with two threads allocating at once their cache lines bounce between the cores
//! on every one of them. A loop that allocates per item pays for it — the
//! window-snapshot encode that built one `Vec` per buffered occurrence ran at
//! about 2 µs per occurrence on two shard threads under this allocator. Code that
//! allocates per batch or per barrier does not notice. Numbers taken under the
//! allocator therefore charge allocation more than production would; compare
//! them with each other, not with an uninstrumented build.
//!
//! **The counters' cache lines are part of the type**, not left to the linker:
//! `live` and `peak` share one 64-byte line, `allocations` has the next one.
//! Left unaligned, the 24-byte static lands wherever the link order puts it — all
//! three counters in one line in one build, split 16 | 8 across two in the next —
//! and that alone moves an allocation-heavy pipeline by a tenth (`chain_agg` NP in
//! the standing benchmark: 1.07–1.08 M tuples/s split, 0.96 M together, same
//! engine source, 30 alternating runs each, twice; three separate lines measured
//! no better than two). Two builds must not differ by where a static fell, so the
//! faster placement is fixed here.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A [`GlobalAlloc`] wrapper around the system allocator that tracks live and peak
/// allocated bytes.
#[derive(Debug)]
#[repr(C, align(64))]
pub struct TrackingAllocator {
    live: AtomicUsize,
    peak: AtomicUsize,
    /// Fills the first cache line, so `allocations` starts the second (see the
    /// module docs: the placement is measurable and must not be the linker's).
    _rest_of_line: [u8; 64 - 2 * size_of::<AtomicUsize>()],
    allocations: AtomicUsize,
}

impl Default for TrackingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl TrackingAllocator {
    /// Creates the allocator (const, so it can be a `static`).
    pub const fn new() -> Self {
        TrackingAllocator {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            _rest_of_line: [0; 64 - 2 * size_of::<AtomicUsize>()],
            allocations: AtomicUsize::new(0),
        }
    }

    /// Bytes currently allocated and not yet freed.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Highest value of [`TrackingAllocator::live_bytes`] observed since the last
    /// [`TrackingAllocator::reset_peak`].
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Total number of allocations performed so far.
    pub fn allocation_count(&self) -> usize {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live value (call between experiments).
    pub fn reset_peak(&self) {
        self.peak.store(self.live_bytes(), Ordering::Relaxed);
    }

    fn record_alloc(&self, size: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn record_dealloc(&self, size: usize) {
        self.live.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: all allocation work is delegated to `System`; this wrapper only maintains
// counters and never fabricates or alters pointers or layouts.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            self.record_dealloc(layout.size());
            self.record_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: these tests exercise the counter logic directly (the test binary keeps the
    // default system allocator; the benchmark binaries install TrackingAllocator as
    // the global allocator).

    #[test]
    fn counters_track_alloc_and_dealloc() {
        let alloc = TrackingAllocator::new();
        alloc.record_alloc(100);
        alloc.record_alloc(50);
        assert_eq!(alloc.live_bytes(), 150);
        assert_eq!(alloc.peak_bytes(), 150);
        assert_eq!(alloc.allocation_count(), 2);
        alloc.record_dealloc(100);
        assert_eq!(alloc.live_bytes(), 50);
        assert_eq!(alloc.peak_bytes(), 150, "peak is sticky");
        alloc.reset_peak();
        assert_eq!(alloc.peak_bytes(), 50);
        alloc.record_alloc(10);
        assert_eq!(alloc.peak_bytes(), 60);
    }

    #[test]
    fn counters_sit_on_two_cache_lines_wherever_the_static_lands() {
        use std::mem::{align_of, offset_of};
        assert_eq!(align_of::<TrackingAllocator>(), 64);
        assert_eq!(size_of::<TrackingAllocator>(), 128);
        assert_eq!(offset_of!(TrackingAllocator, live) / 64, 0);
        assert_eq!(offset_of!(TrackingAllocator, peak) / 64, 0);
        assert_eq!(offset_of!(TrackingAllocator, allocations), 64);
    }

    #[test]
    fn allocator_can_be_used_as_a_real_allocator() {
        // Smoke-test the GlobalAlloc implementation without installing it globally.
        let alloc = TrackingAllocator::new();
        let layout = Layout::from_size_align(256, 8).unwrap();
        // SAFETY: standard alloc/dealloc pairing with a valid layout.
        #[allow(unsafe_code)]
        unsafe {
            let ptr = alloc.alloc(layout);
            assert!(!ptr.is_null());
            assert_eq!(alloc.live_bytes(), 256);
            let ptr = alloc.realloc(ptr, layout, 512);
            assert!(!ptr.is_null());
            assert_eq!(alloc.live_bytes(), 512);
            let layout2 = Layout::from_size_align(512, 8).unwrap();
            alloc.dealloc(ptr, layout2);
        }
        assert_eq!(alloc.live_bytes(), 0);
        assert!(alloc.peak_bytes() >= 512);
    }
}
