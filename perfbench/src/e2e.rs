//! The timed, untraced run: end-to-end metrics of one workload.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use laqa_sim::{run_campaign_opts, CampaignOptions, CampaignResult, CampaignSpec};

use crate::check::{self, Tally};
use crate::stats::{mean, median, quantile};
use crate::workload::{sample, with_duration, Workload};
use crate::{alloc, Metric};

/// One executor pass over a spec.
pub struct Pass {
    pub wall: f64,
    /// `None` when the executor panicked.
    pub result: Option<CampaignResult>,
    /// Peak live heap during the pass above its starting level (KB).
    pub peak_kb: f64,
    pub allocs: u64,
}

pub fn run_pass(spec: &CampaignSpec, opts: CampaignOptions) -> Pass {
    let base = alloc::reset_peak();
    let allocs = alloc::allocs();
    let started = Instant::now();
    let result = panic::catch_unwind(AssertUnwindSafe(|| run_campaign_opts(spec, opts))).ok();
    let wall = started.elapsed().as_secs_f64();
    Pass {
        wall,
        peak_kb: (alloc::peak() - base) as f64 / 1024.0,
        allocs: alloc::allocs() - allocs,
        result,
    }
}

/// Time zero-duration passes over `zero` (a spec whose sessions last 0 s:
/// every world is built and admitted, no event is dispatched) for about
/// `window` seconds, at least 5 of them, appending each wall time.
fn setup_reps(
    zero: &CampaignSpec,
    opts: CampaignOptions,
    window: f64,
    walls: &mut Vec<f64>,
    tally: &mut Tally,
) {
    let started = Instant::now();
    let mut reps = 0;
    while reps < 5 || (started.elapsed().as_secs_f64() < window && reps < 400) {
        let p = run_pass(zero, opts);
        tally.require("zero-duration pass", p.result.is_some());
        walls.push(p.wall);
        reps += 1;
    }
}

/// Median wall time of zero-duration passes over `spec` for about 0.5 s.
pub fn setup_secs(spec: &CampaignSpec, opts: CampaignOptions, tally: &mut Tally) -> f64 {
    let mut walls = Vec::new();
    setup_reps(&with_duration(spec, 0.0), opts, 0.5, &mut walls, tally);
    median(&walls)
}

/// A short pass that faults in code and allocator arenas before timing.
pub fn warm_up(spec: &CampaignSpec, opts: CampaignOptions) {
    let head = CampaignSpec {
        sessions: spec.sessions.iter().take(16).cloned().collect(),
    };
    let _ = run_pass(&with_duration(&head, 2.0), opts);
}

pub fn measure(w: Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let spec = w.spec(seed);
    let opts = w.options();
    let zero = with_duration(&spec, 0.0);
    warm_up(&spec, opts);

    let started = Instant::now();
    let mut rates = Vec::new();
    let mut session_p50 = Vec::new();
    let mut session_p95 = Vec::new();
    let mut kb_per_session = Vec::new();
    let mut first: Option<CampaignResult> = None;
    let mut reference: Option<Vec<u64>> = None;
    // Set-up repetitions run after every timed pass, so they sample the
    // host over the whole run, as the passes do.
    let mut setup_walls = Vec::new();
    // At least three passes for the medians; after that, a pass starts only
    // if one more of the mean length still ends within `seconds`.
    let mut passes = 0;
    while passes < 3 || {
        let spent = started.elapsed().as_secs_f64();
        spent + spent / passes as f64 <= seconds
    } {
        passes += 1;
        let p = run_pass(&spec, opts);
        setup_reps(&zero, opts, 0.2, &mut setup_walls, tally);
        let Some(r) = p.result else {
            tally.require("executor pass", false);
            for _ in &spec.sessions {
                tally.record(false);
            }
            continue;
        };
        check::tally_pass(tally, &r, reference.as_deref());
        let sim_s: f64 = r.sessions.iter().map(|s| s.spec.duration).sum();
        rates.push(sim_s / p.wall);
        let session_ms: Vec<f64> = r.sessions.iter().map(|s| s.wall_secs * 1e3).collect();
        session_p50.push(quantile(&session_ms, 0.5));
        session_p95.push(quantile(&session_ms, 0.95));
        kb_per_session.push(p.peak_kb / w.live_at_once(r.threads) as f64);
        if reference.is_none() {
            reference = Some(r.sessions.iter().map(check::session_fp).collect());
            first = Some(r);
        }
    }

    let fps = reference.unwrap_or_default();
    if let Some(r) = &first {
        let events: u64 = r.sessions.iter().map(|s| s.events_processed).sum();
        println!(
            "fingerprint {} {:016x} ({} sessions, {events} events per pass)",
            w.name(),
            r.fingerprint(),
            r.sessions.len(),
        );
        let shown: Vec<String> = rates.iter().map(|x| format!("{x:.0}")).collect();
        println!("sim-s/s per timed pass: {}", shown.join(" "));
        let shown: Vec<String> = kb_per_session.iter().map(|x| format!("{x:.0}")).collect();
        println!("KB per live session per timed pass: {}", shown.join(" "));
        let picked = sample(&spec, w.sample_size());
        check::oracle(tally, &picked, &fps);
        check::obs_inert(tally, &picked, opts, &fps);
    }

    let sessions = first.map(|r| r.sessions).unwrap_or_default();
    let per_session = |f: &dyn Fn(&laqa_sim::SessionResult) -> f64| mean(sessions.iter().map(f));
    vec![
        Metric::new("sim_s_per_s", "sim-s/s", median(&rates)),
        Metric::new("session_ms_p50", "ms", median(&session_p50)),
        Metric::new("session_ms_p95", "ms", median(&session_p95)),
        Metric::new("kb_per_live_session", "KB", median(&kb_per_session)),
        Metric::new("setup_s", "s", median(&setup_walls)),
        // No drops means no buffered data was wasted (Table 1's ratio is 1).
        Metric::new(
            "efficiency_mean",
            "frac",
            per_session(&|s| s.efficiency.unwrap_or(1.0)),
        ),
        Metric::new(
            "quality_changes_per_session",
            "count",
            per_session(&|s| s.quality_changes as f64),
        ),
    ]
}
