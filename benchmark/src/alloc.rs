//! Counting global allocator with thread-local counters.
//!
//! The counted and traced passes need an exact allocations-per-op figure.
//! Process-wide atomics (the design `tests/alloc_steady.rs` uses) pick up
//! every other thread's allocations, so two runs of one cell can disagree.
//! Here each thread counts only its own allocations, and counting is
//! switched on only while a [`Counting`] guard is alive: with it off the
//! allocator pays one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live [`Counting`] guards; counting is on while this is non-zero. A count
/// rather than a flag so that tests running on parallel threads cannot
/// switch each other off.
static GUARDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and `Drop`-free, so touching it from inside the
    // allocator never allocates and never runs a destructor.
    static COUNTS: Cell<AllocCounts> = const { Cell::new(AllocCounts { allocs: 0, bytes: 0 }) };
}

/// Heap allocations made by one thread while counting was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

impl AllocCounts {
    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// The calling thread's counters.
pub fn thread_counts() -> AllocCounts {
    COUNTS.with(Cell::get)
}

/// Run `f` without its allocations showing in this thread's counters: the
/// span recorder's own bookkeeping must not leak into the counts it reports.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let before = thread_counts();
    let out = f();
    COUNTS.with(|c| c.set(before));
    out
}

/// Keeps allocation counting on until dropped.
pub struct Counting(());

impl Counting {
    /// Switch counting on (for every thread; each counts into its own cell).
    pub fn start() -> Counting {
        GUARDS.fetch_add(1, Ordering::Relaxed);
        Counting(())
    }
}

impl Drop for Counting {
    fn drop(&mut self) {
        GUARDS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The benchmark binary's global allocator: `System` plus the counters.
pub struct CountingAlloc;

#[inline]
fn note(size: usize) {
    // Relaxed: the guard count publishes no other data, it only gates a
    // statistic.
    if GUARDS.load(Ordering::Relaxed) != 0 {
        // `try_with` because the allocator can be called while the thread's
        // locals are being torn down.
        let _ = COUNTS.try_with(|c| {
            let mut v = c.get();
            v.allocs += 1;
            v.bytes += size as u64;
            c.set(v);
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only a `Drop`-free thread-local `Cell` and an atomic and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout`/`new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn counts_this_threads_allocations_only_while_a_guard_is_alive() {
        let before = thread_counts();
        drop(std::hint::black_box(vec![0u8; 4096]));
        // Another test may hold a guard, so "off" can only be asserted as
        // "no more than what this thread did".
        assert!(thread_counts().since(before).allocs <= 1);

        let _on = Counting::start();
        let before = thread_counts();
        drop(std::hint::black_box(vec![0u8; 4096]));
        let d = thread_counts().since(before);
        assert_eq!(d.allocs, 1);
        assert_eq!(d.bytes, 4096);
    }

    /// The failure mode of `tests/alloc_steady.rs`: a second thread that
    /// allocates inside the counted window must not move this thread's
    /// count. The barrier forces the other thread's allocations to fall
    /// between the two snapshots.
    #[test]
    fn a_second_thread_allocating_concurrently_does_not_change_the_count() {
        let gate = Arc::new(Barrier::new(2));
        let other = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                let before = thread_counts();
                for i in 0..1_000usize {
                    drop(std::hint::black_box(vec![0u8; 8192 + i]));
                }
                let mine = thread_counts().since(before).allocs;
                gate.wait();
                mine
            })
        };
        let _on = Counting::start();
        let before = thread_counts();
        gate.wait(); // other thread starts allocating
        gate.wait(); // other thread is done
        let d = thread_counts().since(before);
        assert_eq!(d, AllocCounts::default(), "foreign allocations leaked in");
        assert_eq!(other.join().expect("allocating thread panicked"), 1_000);
    }
}
