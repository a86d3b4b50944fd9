//! A counting global allocator, switched on only in the traced pass.
//!
//! The binary installs [`Counting`] as its `#[global_allocator]`. While
//! counting is off (the untraced pass) every call costs one relaxed
//! load on top of the system allocator; while on, allocations from all
//! threads — the in-process server's included — are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counters are statistics that publish no
// other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
            let live =
                LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            // Blocks allocated before counting began are freed too, so
            // the live gauge saturates at zero instead of wrapping.
            let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                Some(l.saturating_sub(layout.size() as u64))
            });
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                let grow = (new_size - layout.size()) as u64;
                let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                let shrink = (layout.size() - new_size) as u64;
                let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                    Some(l.saturating_sub(shrink))
                });
            }
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What was counted between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Counted {
    /// Calls to `alloc` and `realloc`.
    pub allocations: u64,
    /// Highest number of bytes live at once among blocks allocated
    /// while counting.
    pub peak_live_bytes: u64,
}

pub fn start() {
    COUNT.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
}

pub fn stop() -> Counted {
    ON.store(false, Ordering::Relaxed);
    Counted {
        allocations: COUNT.load(Ordering::Relaxed),
        peak_live_bytes: PEAK.load(Ordering::Relaxed),
    }
}
