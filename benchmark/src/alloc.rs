//! A counting global allocator for the `alloc.*` per-layer metrics.
//!
//! Only the traced binary (`src/bin/traced.rs`) installs [`CountingAlloc`];
//! the plain binary keeps the system allocator, so counting costs the
//! plain pass nothing. Inside the traced binary counting is further gated
//! by [`start`]/[`stop`], so only the phase being attributed is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// Relaxed throughout: these are statistics that publish no other data,
// and they are read only after the counted phase has ended (and, on the
// serve bus, after its threads were joined).
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus allocation and byte counters.
pub struct CountingAlloc;

#[inline]
fn note(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A reallocation is counted as one allocation of the new size.
        note(new_size);
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and bytes requested during one counted phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

/// Reset the counters and start counting.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Stop counting and return what was counted since [`start`].
pub fn stop() -> AllocCount {
    COUNTING.store(false, Relaxed);
    AllocCount {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Whether [`CountingAlloc`] is this process's global allocator: a boxed
/// value allocated while counting must show up in the counters.
pub fn installed() -> bool {
    start();
    let probe = std::hint::black_box(Box::new([0u8; 64]));
    let counted = stop();
    drop(probe);
    counted.allocs > 0
}
