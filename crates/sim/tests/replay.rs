//! Deterministic-replay guarantee: a campaign sweep produces byte-identical
//! per-seed results no matter how many worker threads run it.
//!
//! This is the contract the parallel campaign engine is built around —
//! work-stealing changes *which thread* runs a session, never *what the
//! session computes*, because every session owns its seed-derived RNG and
//! results land in spec-order slots.

mod common;

use laqa_sim::{
    run_campaign, run_campaign_opts, run_session, CampaignOptions, CampaignSpec, TestKind,
};

fn sweep() -> CampaignSpec {
    CampaignSpec::grid(&TestKind::ALL, &[2, 4], &[7, 21, 42], 6.0)
}

/// Worker threads the executor actually spawns for a request: clamped to
/// the session count and the host's parallelism (PR 10 — oversubscribing
/// a small host buys no scaling, only merge overhead).
fn clamped(requested: usize, sessions: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    requested.max(1).min(sessions.max(1)).min(cores)
}

#[test]
fn fingerprint_identical_across_1_2_and_8_threads() {
    let spec = sweep();
    let one = run_campaign(&spec, 1);
    let two = run_campaign(&spec, 2);
    let eight = run_campaign(&spec, 8);
    assert_eq!(one.fingerprint(), two.fingerprint());
    assert_eq!(one.fingerprint(), eight.fingerprint());
    assert_eq!(one.threads, 1);
    assert_eq!(two.threads, clamped(2, spec.len()));
    // Thread count is capped at the session count and host parallelism,
    // not the request.
    assert_eq!(eight.threads, clamped(8, spec.len()));
}

#[test]
fn per_session_traces_identical_across_thread_counts() {
    let spec = sweep();
    let one = run_campaign(&spec, 1);
    let eight = run_campaign(&spec, 8);
    assert_eq!(one.sessions.len(), eight.sessions.len());
    for (a, b) in one.sessions.iter().zip(&eight.sessions) {
        assert_eq!(a.spec, b.spec, "slot order must match spec order");
        assert_eq!(
            a.trace_hash,
            b.trace_hash,
            "trace diverged for {}",
            a.spec.label()
        );
        assert_eq!(a.efficiency.map(f64::to_bits), b.efficiency.map(f64::to_bits));
        assert_eq!(
            a.avoidable_drops.map(f64::to_bits),
            b.avoidable_drops.map(f64::to_bits)
        );
        assert_eq!(a.quality_changes, b.quality_changes);
        assert_eq!(a.adds, b.adds);
        assert_eq!(a.drops, b.drops);
    }
}

#[test]
fn campaign_sessions_match_standalone_runs() {
    // Running a session inside a parallel campaign must give the same
    // result as running it alone — no cross-session state leaks.
    let spec = sweep();
    let campaign = run_campaign(&spec, 4);
    for (spec, from_campaign) in spec.sessions.iter().zip(&campaign.sessions) {
        let alone = run_session(spec);
        assert_eq!(
            alone.trace_hash,
            from_campaign.trace_hash,
            "campaign run of {} differs from standalone run",
            spec.label()
        );
    }
}

#[test]
fn fingerprint_identical_with_16_workers() {
    // More workers than CPU cores and (with the tiny grid below) more
    // workers than sessions: heavy oversubscription must not perturb a
    // single bit of the aggregate.
    let spec = sweep();
    let one = run_campaign(&spec, 1);
    let sixteen = run_campaign(&spec, 16);
    assert_eq!(one.fingerprint(), sixteen.fingerprint());
    assert_eq!(sixteen.threads, clamped(16, spec.len()));
}

#[test]
fn more_threads_than_sessions_clamps_and_replays() {
    let spec = CampaignSpec::grid(&[TestKind::T1], &[2], &[7, 21], 4.0);
    let wide = run_campaign(&spec, 64);
    assert_eq!(
        wide.threads,
        clamped(64, 2),
        "threads clamp to the session count and host parallelism"
    );
    assert_eq!(wide.sessions.len(), 2);
    let narrow = run_campaign(&spec, 1);
    assert_eq!(wide.fingerprint(), narrow.fingerprint());
}

#[test]
fn empty_campaign_runs_to_an_empty_result() {
    let spec = CampaignSpec::default();
    let r = run_campaign(&spec, 8);
    assert!(r.sessions.is_empty());
    assert_eq!(r.threads, 1, "an empty sweep still clamps to one worker");
    // The fingerprint of emptiness is still well-defined and stable.
    assert_eq!(r.fingerprint(), run_campaign(&spec, 1).fingerprint());
}

#[test]
fn warm_and_cold_worlds_replay_identically() {
    // The warm-world pool (engine salvage + geometry memo) is pure
    // allocator recycling: against the per-session oracle (cold worlds on
    // the heap scheduler) the campaign must be bit-identical, across
    // thread counts.
    let spec = sweep();
    let cold = common::oracle(&spec);
    let warm = run_campaign_opts(&spec, CampaignOptions::new(1));
    assert_eq!(cold.fingerprint(), warm.fingerprint());
    let warm4 = run_campaign_opts(&spec, CampaignOptions::new(4));
    assert_eq!(cold.fingerprint(), warm4.fingerprint());
    for (a, b) in cold.sessions.iter().zip(&warm.sessions) {
        assert_eq!(a.trace_hash, b.trace_hash, "warm diverged: {}", a.spec.label());
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    // Guards against a bug where the seed is ignored and every session
    // replays the same history (which would make the replay tests above
    // pass vacuously).
    let spec = sweep();
    let result = run_campaign(&spec, 2);
    let mut hashes: Vec<u64> = result.sessions.iter().map(|s| s.trace_hash).collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), spec.len(), "duplicate traces across the grid");
}
