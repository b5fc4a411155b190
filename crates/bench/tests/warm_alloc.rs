//! Steady-state allocation guard for the warm-world campaign path.
//!
//! PR 4 pinned the in-session allocator win (266k → 29k allocs per run);
//! this pins the cross-session one: once a worker's [`WorldPool`] is warm,
//! the next session must run within a small fixed allocation budget —
//! engine storage (scheduler slab, link ring buffers, agents vector) is
//! recycled and geometry derivations hit the shared memo, so only agent
//! construction and result extraction still allocate.
//!
//! The geometry memo uses two-touch admission (see
//! `laqa_core::GeometryCache`): a sequence is admitted on its *second*
//! miss, so with a repeated spec the first session registers keys, the
//! second pays the admissions, and the third is the steady state this
//! test measures. The memo is a bounded 64-slot CLOCK cache: admissions
//! allocate a flattened `CachedSeq` (two buffers per key, not one `Vec`
//! per state) only while a slot is fresh, and once the memo is full they
//! refill an evicted slot's buffers in place. That keeps the warm
//! campaign path at or below cold-path allocation parity — the
//! BENCH_campaign.json anomaly the parity assertion below gates. The
//! repeated 8 s spec's keys fit in the 64 slots, so the third session
//! hits on every lookup.
//!
//! Lives in `crates/bench/tests` because the laqa crates are
//! `deny(unsafe_code)` and the counting `#[global_allocator]` is the one
//! unavoidable unsafe surface. Single `#[test]` on purpose: the counter is
//! process-global, and sibling tests running on other threads would bleed
//! into the measurement.

use laqa_sim::{
    run_campaign_opts, run_session_pooled, run_session_with, CampaignOptions, CampaignResult,
    CampaignSpec, SchedulerKind, SessionSpec, TestKind, Transport, WorldPool,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations allowed for the third (steady-state warm) session.
/// Measured: ~1 880 at 8 s (agent construction, trace growth, result
/// extraction clones), against ~5 600 for the cold first session. The
/// budget leaves slack for allocator-library drift without letting a
/// cold-start regression sneak past.
const WARM_SESSION_ALLOC_BUDGET: u64 = 2_200;

/// Amortized allocations per session for a warm single-thread mega
/// campaign over *distinct* seeds — cold start and admissions included,
/// which is exactly the regime where the pre-two-touch memo paid
/// ~4 800 allocs/session. Measured: ~2 120 allocs/session over 8 seeds
/// at 8 s.
const MEGA_SESSION_ALLOC_BUDGET: u64 = 2_500;

#[test]
fn warm_and_mega_sessions_stay_under_alloc_budgets() {
    let spec = SessionSpec {
        test: TestKind::T1,
        k_max: 2,
        seed: 7,
        // Past qa_start (5 s): the QA controller must actually tick, or
        // the geometry-memo assertions below would pass vacuously.
        duration: 8.0,
        fault_intensity: None,
        transport: Transport::Rap,
        trace: None,
    };
    let mut pool = WorldPool::new();

    // Session 1: cold — pays world construction, registers memo keys.
    let first = run_session_pooled(&spec, &mut pool);
    assert!(pool.is_warm(), "pool must bank the retired world");

    // Session 2: warm but pays the memo's two-touch admissions.
    let second = run_session_pooled(&spec, &mut pool);

    // Session 3: steady state — the guarded measurement.
    let (hits_before, misses_before) = pool.geometry_stats();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let third = run_session_pooled(&spec, &mut pool);
    let warm_allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let (hits_after, misses_after) = pool.geometry_stats();

    assert_eq!(
        first.trace_hash, second.trace_hash,
        "same spec through the same pool must replay bit-identically"
    );
    assert_eq!(first.trace_hash, third.trace_hash);
    let standalone = run_session_with(&spec, SchedulerKind::Reference);
    assert_eq!(
        standalone.trace_hash, third.trace_hash,
        "pooled session must match the per-session oracle"
    );
    let (hits, misses) = pool.geometry_stats();
    assert!(hits > 0, "repeated spec must hit the geometry memo");
    assert!(misses > 0, "first session must have populated the memo");
    assert!(hits_after > hits_before, "steady-state session must hit the memo");
    assert_eq!(
        misses_after, misses_before,
        "steady-state session missed the geometry memo: the repeated spec's \
         keys no longer fit in its slots"
    );

    assert!(
        warm_allocs <= WARM_SESSION_ALLOC_BUDGET,
        "steady-state warm session allocated {warm_allocs} times \
         (budget {WARM_SESSION_ALLOC_BUDGET}); the warm-world reuse path regressed"
    );

    // Mega executor: one engine, one warm pool, 8 distinct seeds in one
    // chunk. Distinct seeds are the anti-memo case (most operating points
    // never repeat); the amortized bound holds because two-touch admission
    // keeps one-shot sequences out of the memo.
    let grid = CampaignSpec::grid(
        &[TestKind::T1],
        &[2],
        &[1, 2, 3, 4, 5, 6, 7, 8],
        8.0,
    );
    let m0 = ALLOCS.load(Ordering::Relaxed);
    let mega = run_campaign_opts(&grid, CampaignOptions::new(1).mega().mega_chunk(8));
    let mega_allocs_per_session =
        (ALLOCS.load(Ordering::Relaxed) - m0) / grid.len() as u64;
    let per_cell = run_campaign_opts(&grid, CampaignOptions::new(1));
    assert_eq!(
        mega.fingerprint(),
        per_cell.fingerprint(),
        "mega executor must replay the per-cell campaign bit-identically"
    );
    assert!(
        mega_allocs_per_session <= MEGA_SESSION_ALLOC_BUDGET,
        "mega campaign allocated {mega_allocs_per_session} times per session \
         (budget {MEGA_SESSION_ALLOC_BUDGET}); the mega/warm reuse path regressed"
    );

    // Warm-vs-cold parity: a warm per-cell campaign (pooled worlds,
    // shared memo) must not allocate more per session than the same grid
    // run as fresh wheel worlds, one session at a time. Before PR 10
    // flattened memo admissions this was inverted (warm ~2 500 vs cold
    // ~2 170 per session); the counts are deterministic, so an exact <=
    // holds and gates the anomaly.
    let parity = CampaignSpec::grid(&[TestKind::T1, TestKind::T2], &[2, 4], &[7, 21], 8.0);
    let w0 = ALLOCS.load(Ordering::Relaxed);
    let warm_campaign = run_campaign_opts(&parity, CampaignOptions::new(1));
    let warm_per_session = (ALLOCS.load(Ordering::Relaxed) - w0) / parity.len() as u64;
    let cold_run = |sched| -> Vec<_> {
        parity
            .sessions
            .iter()
            .map(|s| run_session_with(s, sched))
            .collect()
    };
    let c0 = ALLOCS.load(Ordering::Relaxed);
    let cold = cold_run(SchedulerKind::Wheel);
    let cold_per_session = (ALLOCS.load(Ordering::Relaxed) - c0) / parity.len() as u64;
    let oracle = CampaignResult {
        sessions: cold_run(SchedulerKind::Reference),
        threads: 1,
        wall_secs: 0.0,
        merge_secs: 0.0,
    };
    assert_eq!(warm_campaign.fingerprint(), oracle.fingerprint());
    for (w, c) in warm_campaign.sessions.iter().zip(&cold) {
        assert_eq!(
            w.trace_hash,
            c.trace_hash,
            "cold wheel diverged: {}",
            w.spec.label()
        );
    }
    eprintln!(
        "warm_alloc: steady={warm_allocs} mega/session={mega_allocs_per_session} \
         campaign warm/session={warm_per_session} cold/session={cold_per_session}"
    );
    assert!(
        warm_per_session <= cold_per_session,
        "warm campaign cells allocated {warm_per_session} times per session vs \
         {cold_per_session} cold; the warm bench path lost alloc parity again"
    );
}
