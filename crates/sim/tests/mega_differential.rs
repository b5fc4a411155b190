//! Differential replay: the megasession engine must be observationally
//! indistinguishable from per-world runs.
//!
//! Every test runs the same workloads once through the per-session
//! oracle — an isolated `World` on the reference heap scheduler — and
//! once multiplexed on a shared [`laqa_sim::MegaEngine`] (via the
//! `run_scenarios_mega*` helpers or the campaign mega executor) and
//! requires bit-identical per-session trace fingerprints. The oracle is
//! the original engine kept verbatim, so any divergence is a
//! multiplexing bug (cross-session state bleed, event misordering, RNG
//! stream sharing), not a tolerance question. Covered surface: the
//! goldens' scenario configs (T1/T2 across `K_max`), the fault suite
//! across intensities, staggered global start times, and the threaded
//! campaign grid across thread counts, steal-chunk sizes and service
//! slices.

mod common;

use laqa_sim::campaign::{run_campaign_opts, CampaignOptions, CampaignSpec, TestKind};
use laqa_sim::faults::FaultPlan;
use laqa_sim::{
    hash_outcome, run_scenario_with, run_scenarios_mega, run_scenarios_mega_staggered,
    ScenarioConfig, SchedulerKind,
};

/// Run every config on the oracle and all of them multiplexed on one
/// engine, and assert identical outcome hashes session by session.
fn assert_mega_agrees(cfgs: &[ScenarioConfig], what: &str) {
    let mega = run_scenarios_mega(cfgs);
    assert_eq!(mega.len(), cfgs.len());
    for (i, (cfg, out)) in cfgs.iter().zip(&mega).enumerate() {
        let solo = run_scenario_with(cfg, SchedulerKind::Reference);
        assert_eq!(
            hash_outcome(&solo),
            hash_outcome(out),
            "{what} session {i}: mega trace diverged from per-world oracle"
        );
        assert_eq!(
            solo.events_processed, out.events_processed,
            "{what} session {i}: event counts diverged"
        );
        assert_eq!(solo.fault_stats, out.fault_stats);
    }
}

#[test]
fn goldens_scenarios_agree_with_per_world_runs() {
    // The scenario configs underlying the repo's golden traces — T1 across
    // the K_max values the figures sweep plus T2 with its CBR burst — all
    // multiplexed into ONE engine at once, so heterogeneous sessions
    // interleave on the shared queue.
    let cfgs = vec![
        ScenarioConfig::t1(1, 10.0, 7),
        ScenarioConfig::t1(2, 10.0, 7),
        ScenarioConfig::t1(4, 10.0, 7),
        ScenarioConfig::t2(2, 12.0, 21),
    ];
    assert_mega_agrees(&cfgs, "goldens");
}

#[test]
fn fault_suite_agrees_with_per_world_runs_across_intensities() {
    // Faults exercise paths a clean run never touches: cancels from
    // link-down flushes, same-tick cascades from burst loss, long-horizon
    // churn timers. Mixing intensities in one engine also proves the
    // injectors' RNG streams stay private to their sessions.
    let cfgs: Vec<ScenarioConfig> = [0.0, 0.5, 1.0]
        .iter()
        .map(|&intensity| {
            let mut cfg = ScenarioConfig::t1(2, 12.0, 7);
            cfg.faults = FaultPlan::suite(intensity);
            cfg
        })
        .collect();
    assert_mega_agrees(&cfgs, "fault suite");
}

#[test]
fn staggered_starts_do_not_change_any_session() {
    // Sessions running at global offsets compute in local time: shifting
    // WHEN a session runs must not shift WHAT it computes, even while
    // other sessions' events interleave with it at every offset.
    let cfgs = vec![
        (ScenarioConfig::t1(2, 8.0, 7), 0.0),
        (ScenarioConfig::t1(2, 8.0, 21), 0.35),
        (ScenarioConfig::t2(2, 9.0, 7), 1.2),
    ];
    let staggered = run_scenarios_mega_staggered(&cfgs);
    for (i, ((cfg, offset), out)) in cfgs.iter().zip(&staggered).enumerate() {
        let solo = run_scenario_with(cfg, SchedulerKind::Reference);
        assert_eq!(
            hash_outcome(&solo),
            hash_outcome(out),
            "session {i} at offset {offset} diverged"
        );
    }
}

#[test]
fn campaign_smoke_grid_agrees_across_executors() {
    // The mega executor at {1, 8} threads × steal-chunk sizes must give
    // the oracle's fingerprint. Chunk 1 degenerates to one-session-at-a-
    // time batches (maximum engine reuse churn); chunk 32 swallows the
    // whole grid into a single batch per worker.
    let spec = CampaignSpec::grid(&[TestKind::T1, TestKind::T2], &[2, 4], &[7, 21], 6.0);
    let fp = common::oracle(&spec).fingerprint();
    for threads in [1, 8] {
        for chunk in [1, 5, 32] {
            let got = run_campaign_opts(
                &spec,
                CampaignOptions::new(threads).mega().mega_chunk(chunk),
            );
            assert_eq!(
                got.fingerprint(),
                fp,
                "mega campaign diverged with threads={threads} chunk={chunk}"
            );
        }
    }
}

#[test]
fn service_slice_sweep_agrees_across_executors() {
    // PR 10's sliced service loop: how long the engine stays on one hot
    // session before re-scanning the hot column is pure scheduling
    // policy, so every slice — one-event-per-visit (0.0) through
    // run-to-completion (infinite) — must reproduce the oracle's
    // fingerprint, with work-stealing workers too.
    let spec = CampaignSpec::grid(&[TestKind::T1, TestKind::T2], &[2, 4], &[7, 21], 6.0);
    let fp = common::oracle(&spec).fingerprint();
    for threads in [1, 8] {
        for slice in [0.0, 0.002, f64::INFINITY] {
            let got = run_campaign_opts(
                &spec,
                CampaignOptions::new(threads).mega().mega_slice(slice),
            );
            assert_eq!(
                got.fingerprint(),
                fp,
                "mega campaign diverged with threads={threads} slice={slice}"
            );
        }
    }
}

#[test]
fn faulted_campaign_mega_matches_per_cell_cell_by_cell() {
    let spec = CampaignSpec::faults_grid(&[TestKind::T1], &[2], &[0.0, 1.0], &[7], 12.0);
    let per_cell = run_campaign_opts(&spec, CampaignOptions::new(2));
    let mega = run_campaign_opts(&spec, CampaignOptions::new(2).mega());
    assert_eq!(per_cell.fingerprint(), mega.fingerprint());
    for (a, b) in per_cell.sessions.iter().zip(&mega.sessions) {
        assert_eq!(a.trace_hash, b.trace_hash, "cell {} diverged", a.spec.label());
        assert_eq!(a.fault_transitions, b.fault_transitions);
        assert_eq!(a.events_processed, b.events_processed);
    }
}
