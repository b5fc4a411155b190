//! Correctness checks, all outside the timed region: finite metrics,
//! pass-to-pass determinism, the oracle replay, obs inertness and the
//! repository's pinned executor fingerprint.

use laqa_sim::{
    run_campaign_opts, run_session_with, CampaignOptions, CampaignResult, CampaignSpec,
    SchedulerKind, SessionResult, SessionSpec, TestKind,
};

/// The executor fingerprint the repository pins for its 16-session T1
/// grid (`BENCH_campaign.json`).
const FP0: u64 = 0xf4a4_0c57_8d4c_39c8;

/// Session and failure tallies for the result line.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// True while every whole-run check holds.
    pub ok: bool,
}

impl Tally {
    pub fn new() -> Self {
        Tally {
            ok: true,
            ..Tally::default()
        }
    }

    pub fn record(&mut self, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
    }

    pub fn require(&mut self, what: &str, passed: bool) {
        if !passed {
            eprintln!("check failed: {what}");
            self.ok = false;
        }
    }
}

/// Fingerprint of one session's simulated result (wall clock excluded).
pub fn session_fp(s: &SessionResult) -> u64 {
    CampaignResult {
        sessions: vec![s.clone()],
        threads: 1,
        wall_secs: 0.0,
        merge_secs: 0.0,
    }
    .fingerprint()
}

/// Every reported metric of the session is finite.
pub fn finite(s: &SessionResult) -> bool {
    [
        s.efficiency.unwrap_or(0.0),
        s.avoidable_drops.unwrap_or(0.0),
        s.layer_change_rate,
        s.recovery_secs_mean.unwrap_or(0.0),
        s.base_starved_bytes,
        s.discarded_bytes,
        s.wall_secs,
    ]
    .iter()
    .all(|x| x.is_finite())
}

/// Tally a finished pass: a session fails on a non-finite metric or, when
/// `reference` is given, on a fingerprint different from the reference
/// pass's session at the same grid index.
pub fn tally_pass(tally: &mut Tally, r: &CampaignResult, reference: Option<&[u64]>) {
    for (i, s) in r.sessions.iter().enumerate() {
        let same = reference.is_none_or(|fps| fps.get(i) == Some(&session_fp(s)));
        tally.record(finite(s) && same);
    }
}

/// Replay `sample` on the oracle — a cold world on the heap scheduler,
/// one session at a time — and compare with `fps` (grid-indexed).
pub fn oracle(tally: &mut Tally, sample: &[(usize, SessionSpec)], fps: &[u64]) {
    for (i, spec) in sample {
        let r = run_session_with(spec, SchedulerKind::Reference);
        let same = fps.get(*i) == Some(&session_fp(&r));
        if !same {
            eprintln!("oracle mismatch: {}", spec.label());
        }
        tally.record(finite(&r) && same);
    }
}

/// Re-run `sample` on the workload's executor with obs enabled; each
/// session must keep the fingerprint it had with obs off.
pub fn obs_inert(
    tally: &mut Tally,
    sample: &[(usize, SessionSpec)],
    opts: CampaignOptions,
    fps: &[u64],
) {
    let spec = crate::workload::spec_of(sample);
    laqa_obs::set_enabled(true);
    let r = run_campaign_opts(&spec, opts);
    laqa_obs::set_enabled(false);
    for ((i, spec), s) in sample.iter().zip(&r.sessions) {
        let same = fps.get(*i) == Some(&session_fp(s));
        if !same {
            eprintln!("obs changed the result of {}", spec.label());
        }
        tally.record(same);
    }
}

/// The pinned 16-session executor fingerprint still reproduces.
pub fn fp0(tally: &mut Tally) {
    let seeds = [7, 21, 35, 49, 63, 77, 91, 105];
    let spec = CampaignSpec::grid(&[TestKind::T1], &[2, 4], &seeds, 8.0);
    let fp = run_campaign_opts(&spec, CampaignOptions::new(1)).fingerprint();
    println!("fp0 {fp:016x} (pinned {FP0:016x})");
    tally.require("fp0", fp == FP0);
}
