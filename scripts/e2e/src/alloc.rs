//! Counting global allocator: exact live-byte and allocated-byte totals,
//! read at quiesce for `heap_bytes_per_assoc` and per-request allocation
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

// Statistics only: the counters publish no other data.
static LIVE: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's layout and
// pointer unchanged; the counters are side bookkeeping only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let (old, new) = (layout.size() as u64, new_size as u64);
            if new >= old {
                LIVE.fetch_add(new - old, Ordering::Relaxed);
                ALLOCATED.fetch_add(new - old, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(old - new, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Bytes ever allocated (growth by `realloc` included).
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}
