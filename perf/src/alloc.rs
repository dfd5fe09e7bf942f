//! The counting global allocator behind `allocs_per_op`,
//! `alloc_bytes_per_op` and `peak_heap_mb`.
//!
//! Counting rule (the same as `bench --bin fabric_probe`, so numbers are
//! comparable with `BENCH_fabric.json`): `calls` counts `alloc` + `realloc`;
//! `bytes` is cumulative bytes *requested* — a realloc charges its full new
//! size without crediting the old block. `live` is bytes allocated minus
//! bytes freed, and `peak` its running maximum since the last
//! [`Counters::reset_peak`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocator calls (`alloc` + `realloc`).
    pub calls: u64,
    /// Cumulative bytes requested.
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last peak reset.
    pub peak: u64,
}

/// The counters. Updates are a relaxed load followed by a relaxed store,
/// not a read-modify-write: the benchmark is one process with one thread,
/// and at ~60 allocations per operation four locked instructions per
/// allocation would cost several percent of the wall time being measured.
/// With more than one allocating thread updates can be lost (never
/// undefined behaviour), which is why nothing asserts on these counters
/// under the multi-threaded `cargo test` harness.
#[derive(Debug)]
pub struct Counters {
    calls: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

impl Default for Counters {
    fn default() -> Self {
        Self::new()
    }
}

impl Counters {
    /// Zeroed counters.
    pub const fn new() -> Self {
        Counters {
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    #[inline]
    fn grow(&self, size: u64) {
        self.calls.store(self.calls.load(Relaxed) + 1, Relaxed);
        self.bytes.store(self.bytes.load(Relaxed) + size, Relaxed);
        let live = self.live.load(Relaxed).wrapping_add(size);
        self.live.store(live, Relaxed);
        if live > self.peak.load(Relaxed) {
            self.peak.store(live, Relaxed);
        }
    }

    #[inline]
    fn shrink(&self, size: u64) {
        // Wrapping: a block allocated before the counters were installed
        // may be freed after.
        self.live
            .store(self.live.load(Relaxed).wrapping_sub(size), Relaxed);
    }

    /// Records an allocation of `size` bytes.
    #[inline]
    pub fn on_alloc(&self, size: usize) {
        self.grow(size as u64);
    }

    /// Records a deallocation of `size` bytes.
    #[inline]
    pub fn on_dealloc(&self, size: usize) {
        self.shrink(size as u64);
    }

    /// Records a reallocation from `old` to `new` bytes: one call, `new`
    /// bytes requested, `live` moved by the difference.
    #[inline]
    pub fn on_realloc(&self, old: usize, new: usize) {
        self.shrink(old as u64);
        self.grow(new as u64);
    }

    /// Restarts peak tracking from the current live size.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            calls: self.calls.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
        }
    }
}

/// The process-wide counters fed by [`CountingAlloc`].
pub static COUNTERS: Counters = Counters::new();

/// The system allocator, counted. Each binary installs it with
/// `#[global_allocator]`.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates touch only
// atomics and neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTERS.on_alloc(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNTERS.on_alloc(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        COUNTERS.on_dealloc(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNTERS.on_realloc(layout.size(), new_size);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one measured region allocated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocator calls inside the region.
    pub calls: u64,
    /// Bytes requested inside the region.
    pub bytes: u64,
    /// Peak live bytes inside the region, above the live size at its start.
    pub peak_above_start: u64,
}

/// Starts a measured region on the process-wide counters.
pub fn region_start() -> AllocSnapshot {
    COUNTERS.reset_peak();
    COUNTERS.snapshot()
}

/// Ends the region opened by [`region_start`].
pub fn region_end(start: AllocSnapshot) -> AllocDelta {
    delta(start, COUNTERS.snapshot())
}

/// The difference between two snapshots of the same counters.
pub fn delta(start: AllocSnapshot, end: AllocSnapshot) -> AllocDelta {
    AllocDelta {
        calls: end.calls - start.calls,
        bytes: end.bytes - start.bytes,
        peak_above_start: end.peak.saturating_sub(start.live),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_the_high_water_mark_not_the_sum() {
        let c = Counters::new();
        c.on_alloc(100);
        c.on_alloc(50);
        c.on_dealloc(100);
        c.on_alloc(30);
        let s = c.snapshot();
        assert_eq!(s.calls, 3);
        assert_eq!(s.bytes, 180);
        assert_eq!(s.live, 80);
        assert_eq!(s.peak, 150);
    }

    #[test]
    fn realloc_charges_its_new_size_and_moves_live_by_the_difference() {
        let c = Counters::new();
        c.on_alloc(64);
        c.on_realloc(64, 256);
        let s = c.snapshot();
        assert_eq!(s.calls, 2);
        assert_eq!(s.bytes, 64 + 256);
        assert_eq!(s.live, 256);
        assert_eq!(s.peak, 256);
        c.on_realloc(256, 16);
        assert_eq!(c.snapshot().live, 16);
        assert_eq!(c.snapshot().peak, 256);
    }

    #[test]
    fn a_region_reports_its_own_peak_above_its_starting_live_size() {
        let c = Counters::new();
        c.on_alloc(1000); // retained from before the region
        c.on_alloc(500);
        c.on_dealloc(500);
        c.reset_peak();
        let start = c.snapshot();
        assert_eq!(start.peak, 1000, "the earlier 1500 peak is forgotten");
        c.on_alloc(200);
        c.on_alloc(100);
        c.on_dealloc(200);
        let d = delta(start, c.snapshot());
        assert_eq!(
            d,
            AllocDelta {
                calls: 2,
                bytes: 300,
                peak_above_start: 300
            }
        );
    }

    #[test]
    fn freeing_a_block_older_than_the_counters_does_not_panic() {
        let c = Counters::new();
        c.on_dealloc(8);
        c.on_alloc(8);
        assert_eq!(c.snapshot().live, 0);
    }
}
