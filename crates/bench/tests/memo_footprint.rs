//! Retained-heap gate for the QA geometry memo (`laqa_core::GeometryCache`).
//!
//! A campaign worker keeps one memo for its whole life, so whatever the
//! memo retains is charged to every session the worker runs. This test
//! drives one cache through tens of thousands of distinct operating points,
//! each missed twice (so each is admitted), and asserts that the heap the
//! cache still holds afterwards stays under a fixed budget: the memo must
//! evict and reuse its slots rather than grow or freeze at a large
//! population. It also checks that once the memo is full, admissions refill
//! evicted slots without allocating.
//!
//! Lives in its own test binary because the counting `#[global_allocator]`
//! is process-global (and the laqa crates are `deny(unsafe_code)`). Single
//! `#[test]` on purpose: sibling tests on other threads would bleed into
//! the live-byte count.

use laqa_core::{GeometryCache, StateSequence};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct CountingAlloc;

/// Bytes currently allocated (allocs minus frees).
static LIVE: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Distinct operating points driven through the memo.
const POINTS: usize = 20_000;

/// Keys missed once each, then again, per block: the admission filter
/// holds up to a block of first-miss keys at a time.
const BLOCK: usize = 128;

/// Heap the cache may retain after [`POINTS`] admissions. Measured on
/// x86-64 Linux: 133 KB for the 64-slot CLOCK memo (slot buffers sized for
/// the largest sequence each slot has held, plus the key index and the
/// admission filter), against 3.16 MB for a memo that admits up to 4 096
/// entries and then freezes — 12× this budget.
const MEMO_BYTES_BUDGET: i64 = 256 * 1024;

const C: f64 = 10_000.0;
const S: f64 = 25_000.0;

/// The `i`-th operating point: a distinct rate, cycling through 1–5
/// active layers and fill horizons of 2–8 backoffs, so slots are refilled
/// with sequences of many shapes.
fn point(i: usize) -> (f64, usize, u32) {
    (20_000.0 + 3.0 * i as f64, 1 + i % 5, 2 + (i % 7) as u32)
}

/// Miss every point of `points` twice, block by block.
fn drive(cache: &mut GeometryCache, seq: &mut StateSequence, points: &[(f64, usize, u32)]) {
    for block in points.chunks(BLOCK) {
        for _ in 0..2 {
            for &(rate, n, k) in block {
                cache.rebuild_memoized(seq, rate, n, C, S, k);
            }
        }
    }
}

#[test]
fn geometry_memo_retained_heap_stays_bounded() {
    let points: Vec<_> = (0..POINTS).map(point).collect();
    let base = LIVE.load(Ordering::Relaxed);
    let mut cache = GeometryCache::new();
    let mut seq = StateSequence::default();
    drive(&mut cache, &mut seq, &points);
    drop(seq);
    let retained = LIVE.load(Ordering::Relaxed) - base;

    let (hits, misses) = cache.stats();
    assert_eq!(
        (hits, misses),
        (0, 2 * POINTS as u64),
        "every point is distinct"
    );
    assert!(cache.len() <= GeometryCache::MAX_ENTRIES);
    eprintln!(
        "memo_footprint: {} entries retain {retained} B after {POINTS} admissions",
        cache.len()
    );
    assert!(
        retained <= MEMO_BYTES_BUDGET,
        "geometry memo retains {retained} B after {POINTS} distinct operating points \
         (budget {MEMO_BYTES_BUDGET} B); it is no longer bounded"
    );

    // Steady state: with every slot sized for the largest shape, admitting
    // fresh keys of one shape allocates no more than rebuilding the same
    // keys without a memo (the rebuild itself allocates a recycling pool).
    let fresh = |from: usize| -> Vec<(f64, usize, u32)> {
        (from..from + 4 * GeometryCache::MAX_ENTRIES)
            .map(|i| (20_000.0 + 3.0 * i as f64, 3, 5))
            .collect()
    };
    let mut scratch = StateSequence::default();
    let uncached = |scratch: &mut StateSequence, keys: &[(f64, usize, u32)]| {
        for &(rate, n, k) in keys {
            scratch.rebuild(rate, n, C, S, k);
            scratch.rebuild(rate, n, C, S, k);
        }
    };
    let primer = fresh(POINTS);
    uncached(&mut scratch, &primer);
    let a0 = ALLOCS.load(Ordering::Relaxed);
    uncached(&mut scratch, &primer);
    let uncached_allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let a0 = ALLOCS.load(Ordering::Relaxed);
    drive(&mut cache, &mut scratch, &fresh(2 * POINTS));
    let cached_allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    assert!(
        cached_allocs <= uncached_allocs,
        "full memo admissions allocated: {cached_allocs} allocs with the memo vs \
         {uncached_allocs} without"
    );
}
