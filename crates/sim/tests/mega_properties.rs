//! Randomized multiplexing properties for the megasession engine, driven
//! by `laqa_check`'s seeded generator: arbitrary mixes of sessions —
//! heterogeneous workloads, staggered global start times, mixed fault
//! intensities — run on one shared engine must produce per-session traces
//! bit-identical to isolated reruns on the reference heap scheduler (the
//! per-session oracle). Any divergence is cross-session
//! state bleed (shared RNG draws, leaked timers, arena aliasing), which
//! the seeded generator hunts for in corners the differential suite's
//! fixed grids never visit.

mod common;

use laqa_check::{cases, Gen};
use laqa_sim::campaign::{run_campaign_opts, CampaignOptions, CampaignSpec, TestKind};
use laqa_sim::{
    hash_outcome, run_scenario_with, run_scenarios_mega_staggered, FaultPlan, ScenarioConfig,
    SchedulerKind,
};

/// Draw one random session: workload, smoothing, seed, duration, fault
/// intensity and global start offset.
fn gen_session(g: &mut Gen, short: bool) -> (ScenarioConfig, f64) {
    let k_max = *g.pick(&[1, 2, 4]);
    let seed = g.u64_in(1, 1 << 40);
    // Short sessions keep the 64-way cases affordable; long ones reach
    // past qa_start (5 s) so the QA controller actually ticks.
    let duration = if short {
        g.f64_range(1.5, 3.0)
    } else {
        g.f64_range(6.0, 9.0)
    };
    let mut cfg = if g.bool(0.7) {
        ScenarioConfig::t1(k_max, duration, seed)
    } else {
        ScenarioConfig::t2(k_max, duration, seed)
    };
    if g.bool(0.4) {
        cfg.faults = FaultPlan::suite(g.f64_range(0.3, 1.0));
    }
    let offset = g.f64_range(0.0, 2.0);
    (cfg, offset)
}

#[test]
fn multiplexed_sessions_match_isolated_reruns() {
    // One population size per case, cycling through the interesting
    // sizes: degenerate (1), minimal interleaving (2), odd prime (17,
    // exercises slot reuse across chunks of the table), and wide (64).
    const SIZES: [usize; 4] = [1, 2, 17, 64];
    cases("mega_no_state_bleed", 8, |g, case| {
        let n = SIZES[case % SIZES.len()];
        let sessions: Vec<(ScenarioConfig, f64)> = (0..n)
            .map(|i| {
                // In wide populations only a few sessions run long; in
                // narrow ones all of them do.
                let short = n >= 17 && i % 8 != 0;
                gen_session(g, short)
            })
            .collect();
        let mega = run_scenarios_mega_staggered(&sessions);
        assert_eq!(mega.len(), n);
        for (i, ((cfg, offset), out)) in sessions.iter().zip(&mega).enumerate() {
            let solo = run_scenario_with(cfg, SchedulerKind::Reference);
            assert_eq!(
                hash_outcome(&solo),
                hash_outcome(out),
                "case {case}: session {i}/{n} (offset {offset:.3}) \
                 diverged from its isolated rerun"
            );
            assert_eq!(solo.events_processed, out.events_processed);
        }
    });
}

#[test]
fn random_batching_knobs_match_cold_percell_reference() {
    // Hot/cold-split stress: random grids run with random steal-chunk
    // and service-slice knobs retire, bank and re-admit sessions through
    // the hot SoA column in arbitrary patterns — small chunks churn slot
    // reuse, small slices force constant hot-column re-scans, warm pools
    // recycle retired storage across chunks. The per-session oracle (cold
    // worlds on the heap scheduler) is the reference: every knob
    // combination must reproduce it bit for bit, session by session.
    cases("mega_hot_cold_split_stress", 6, |g, case| {
        let both = [TestKind::T1, TestKind::T2];
        let tests: &[TestKind] = if g.bool(0.5) { &both } else { &both[..1] };
        let k_values = [*g.pick(&[1u32, 2, 4]), 2];
        let seeds: Vec<u64> = (0..g.usize_in(2, 4)).map(|_| g.u64_in(1, 1 << 40)).collect();
        let spec = CampaignSpec::grid(tests, &k_values, &seeds, g.f64_range(5.5, 7.0));
        let threads = *g.pick(&[1usize, 2, 8]);
        let chunk = g.usize_in(1, 9);
        let slice = *g.pick(&[0.0, 0.001, 0.05, f64::INFINITY]);
        let reference = common::oracle(&spec);
        let opts = CampaignOptions::new(threads)
            .mega()
            .mega_chunk(chunk)
            .mega_slice(slice);
        let got = run_campaign_opts(&spec, opts);
        assert_eq!(
            got.fingerprint(),
            reference.fingerprint(),
            "case {case}: mega (threads={threads}, chunk={chunk}, slice={slice}) \
             diverged from the per-session oracle"
        );
        for (a, b) in reference.sessions.iter().zip(&got.sessions) {
            assert_eq!(a.trace_hash, b.trace_hash, "case {case}: cell {} diverged", a.spec.label());
            assert_eq!(a.events_processed, b.events_processed);
        }
    });
}

#[test]
fn interleaving_pattern_is_invisible_to_every_session() {
    // The same session population under two different stagger patterns
    // interleaves completely differently on the shared queue — yet every
    // per-session trace must be identical between the two runs (and the
    // offset-zero run). Mega-to-mega comparison, so this stays cheap.
    cases("mega_interleaving_invariance", 6, |g, case| {
        let n = g.usize_in(3, 12);
        let base: Vec<(ScenarioConfig, f64)> =
            (0..n).map(|_| (gen_session(g, true).0, 0.0)).collect();
        let pattern_a: Vec<(ScenarioConfig, f64)> = base
            .iter()
            .map(|(cfg, _)| (cfg.clone(), g.f64_range(0.0, 1.5)))
            .collect();
        let pattern_b: Vec<(ScenarioConfig, f64)> = base
            .iter()
            .map(|(cfg, _)| (cfg.clone(), g.f64_range(0.0, 1.5)))
            .collect();
        let zero = run_scenarios_mega_staggered(&base);
        let a = run_scenarios_mega_staggered(&pattern_a);
        let b = run_scenarios_mega_staggered(&pattern_b);
        for i in 0..n {
            let h0 = hash_outcome(&zero[i]);
            assert_eq!(
                h0,
                hash_outcome(&a[i]),
                "case {case}: session {i} changed under stagger pattern A"
            );
            assert_eq!(
                h0,
                hash_outcome(&b[i]),
                "case {case}: session {i} changed under stagger pattern B"
            );
        }
    });
}
