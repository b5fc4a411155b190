//! The per-session oracle the differential suites compare campaigns
//! against: every session on a fresh world driven by the reference heap
//! scheduler, with no pool, memo or multiplexing involved.

use laqa_sim::{run_session_with, CampaignResult, CampaignSpec, SchedulerKind};

/// Run `spec` one session at a time on the oracle path.
pub fn oracle(spec: &CampaignSpec) -> CampaignResult {
    CampaignResult {
        sessions: spec
            .sessions
            .iter()
            .map(|s| run_session_with(s, SchedulerKind::Reference))
            .collect(),
        threads: 1,
        wall_secs: 0.0,
        merge_secs: 0.0,
    }
}
