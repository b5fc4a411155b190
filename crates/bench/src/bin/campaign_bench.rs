//! `campaign_bench` — warm-world campaign executor baseline.
//!
//! Sweeps the campaign smoke grid across thread counts on the product
//! path (warm world pools on the timer wheel, per cell and, with
//! `--mega`, on the megasession executor), checks every cell's
//! fingerprint against the per-session oracle — fresh worlds on the
//! reference heap scheduler, computed once and untimed — exiting non-zero
//! on any divergence, probes steady-state allocations for a warm pool's
//! successive sessions, and writes `BENCH_campaign.json` at the repo root
//! so campaign throughput is tracked in-tree.
//!
//! ```text
//! campaign_bench                   # full baseline (3 reps, best-of)
//! campaign_bench --smoke           # 1 rep, short duration (CI wiring)
//! campaign_bench --mega            # add megasession-executor cells and
//!                                  # the 64-session mega-vs-per-cell probe
//! campaign_bench --profile         # per-dispatch-site time breakdown from
//!                                  # the instrumented rep (no extra deps)
//! options: --threads LIST (default 1,2,8,16)  --reps N  --duration S
//!          --out FILE  --check FILE (>20% events/sec regression gate;
//!          with --mega also gates the mega executor's events/sec and
//!          the 64-session mega-vs-per-cell speedup ratio)
//! ```
//!
//! Any other option is rejected with exit status 2.

use laqa_bench::cli::Args;
use laqa_sim::{
    run_campaign_opts, run_session_pooled, run_session_with, CampaignOptions, CampaignResult,
    CampaignSpec, SchedulerKind, SessionSpec, TestKind, Transport, WorldPool,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with allocation counters: the whole point of
/// the warm-world path is the allocations it does *not* make, so the
/// report pins allocs/session per mode as a hard number.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// laqa crates are all `deny(unsafe_code)`; the one unavoidable unsafe
// surface (the global-allocator hook) lives here in the bench binary.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

type AnyError = Box<dyn std::error::Error>;

/// One measured cell: an (executor, thread count) pair.
struct Cell {
    mode: &'static str,
    /// QA-flow congestion controller ("rap" for the whole gated grid;
    /// other labels only appear in the interop probe's cells).
    transport: &'static str,
    threads: usize,
    /// Workers the executor actually spawned: `threads` clamped to the
    /// session count and the host's available parallelism.
    threads_effective: usize,
    fingerprint: u64,
    events: u64,
    /// Best-of-reps worker wall time (merge excluded; seconds).
    wall_secs: f64,
    merge_secs: f64,
    allocations: u64,
    sessions: usize,
}

impl Cell {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }
    fn allocs_per_session(&self) -> u64 {
        self.allocations / self.sessions.max(1) as u64
    }
}

fn measure_rep(spec: &CampaignSpec, opts: CampaignOptions, mode: &'static str) -> Cell {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let result = run_campaign_opts(spec, opts);
    Cell {
        mode,
        transport: "rap",
        threads: opts.threads,
        threads_effective: result.threads,
        fingerprint: result.fingerprint(),
        events: result.sessions.iter().map(|s| s.events_processed).sum(),
        wall_secs: result.wall_secs,
        merge_secs: result.merge_secs,
        allocations: ALLOCS.load(Ordering::Relaxed) - a0,
        sessions: result.sessions.len(),
    }
}

/// Best-of-`reps` for one configuration, with a discarded warmup rep and a
/// rep-to-rep fingerprint assert.
fn measure(spec: &CampaignSpec, opts: CampaignOptions, mode: &'static str, reps: usize) -> Cell {
    let _ = measure_rep(spec, opts, mode);
    let mut best: Option<Cell> = None;
    for _ in 0..reps.max(1) {
        let cell = measure_rep(spec, opts, mode);
        match &best {
            Some(prev) => {
                assert_eq!(
                    prev.fingerprint, cell.fingerprint,
                    "{mode}/t{}: rep-to-rep divergence",
                    opts.threads
                );
                if cell.wall_secs < prev.wall_secs {
                    best = Some(cell);
                }
            }
            None => best = Some(cell),
        }
    }
    best.expect("reps >= 1")
}

/// One extra instrumented rep with laqa-obs enabled, run outside the
/// timed best-of reps: proves the instrumentation is inert (fingerprint
/// unchanged vs. the timed cells) and harvests the latency histograms the
/// hot paths feed — scheduler dispatch time, timer-wheel slack,
/// per-session campaign wall time, and the mega executor's batch shape.
fn quantile_probe(
    spec: &CampaignSpec,
    threads: usize,
    mega: bool,
    fp0: u64,
) -> Result<laqa_obs::Snapshot, AnyError> {
    laqa_obs::reset();
    laqa_obs::set_enabled(true);
    let warm = run_campaign_opts(spec, CampaignOptions::new(threads));
    if warm.fingerprint() != fp0 {
        return Err(format!(
            "OBS NOT INERT: instrumented per-cell fingerprint {:016x} != {fp0:016x}",
            warm.fingerprint()
        )
        .into());
    }
    if mega {
        let mg = run_campaign_opts(spec, CampaignOptions::new(threads).mega());
        if mg.fingerprint() != fp0 {
            return Err(format!(
                "OBS NOT INERT: instrumented mega fingerprint {:016x} != {fp0:016x}",
                mg.fingerprint()
            )
            .into());
        }
    }
    laqa_obs::set_enabled(false);
    let snap = laqa_obs::snapshot();
    laqa_obs::reset();
    Ok(snap)
}

/// `--profile`: per-dispatch-site time breakdown from the instrumented
/// rep's snapshot — counts, total and mean wall time per site, plus the
/// timer wheel's insert-path split. Zero external dependencies: every
/// number is already in the laqa-obs registries.
fn print_profile(snap: &laqa_obs::Snapshot) {
    println!(
        "{:<26} {:>12} {:>12} {:>10} {:>7}",
        "dispatch site", "count", "total (ms)", "mean (ns)", "share"
    );
    // Timed sites, one per dispatch path: per-cell engine event dispatch,
    // mega per-session event dispatch. Spans cover the enclosing scopes.
    let hist_sites = ["sched.dispatch_ns", "mega.session_event_ns"];
    let hist_total: f64 = hist_sites
        .iter()
        .filter_map(|n| snap.histogram(n))
        .map(|h| h.sum)
        .sum();
    for name in hist_sites {
        let Some(h) = snap.histogram(name) else {
            continue;
        };
        println!(
            "{:<26} {:>12} {:>12.3} {:>10.1} {:>6.1}%",
            name,
            h.count,
            h.sum / 1e6,
            h.mean().unwrap_or(0.0),
            100.0 * h.sum / hist_total.max(1e-9)
        );
    }
    for (name, s) in &snap.spans {
        if s.count == 0 {
            continue;
        }
        println!(
            "{:<26} {:>12} {:>12.3} {:>10.1} {:>7}",
            name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.mean_ns().unwrap_or(0.0),
            "-"
        );
    }
    // Wheel insert-path split: which of the three schedule() arms the
    // workload actually exercises (active-tick merge / slot window /
    // overflow tree).
    let paths = [
        "sched.wheel_insert_active",
        "sched.wheel_insert_window",
        "sched.wheel_insert_overflow",
    ];
    let inserts: u64 = paths
        .iter()
        .map(|n| snap.counter(n).unwrap_or(0))
        .sum();
    for name in paths {
        let n = snap.counter(name).unwrap_or(0);
        println!(
            "{:<26} {:>12} {:>12} {:>10} {:>6.1}%",
            name,
            n,
            "-",
            "-",
            100.0 * n as f64 / inserts.max(1) as f64
        );
    }
    // Geometry-memo effectiveness: hits avoid a full state-path rebuild;
    // admissions are the copies the warm path pays for them, and
    // evictions the admissions that refilled a full memo's CLOCK victim
    // in place.
    let geo = [
        "qa.geometry_cache.hits",
        "qa.geometry_cache.misses",
        "qa.geometry_cache.admissions",
        "qa.geometry_cache.evictions",
    ];
    let lookups: u64 = geo[..2]
        .iter()
        .map(|n| snap.counter(n).unwrap_or(0))
        .sum();
    for name in geo {
        let n = snap.counter(name).unwrap_or(0);
        println!(
            "{:<26} {:>12} {:>12} {:>10} {:>6.1}%",
            name,
            n,
            "-",
            "-",
            100.0 * n as f64 / lookups.max(1) as f64
        );
    }
}

/// Look up one quantile of a named histogram from the probe's snapshot.
fn probe_quantile(hists: &[laqa_obs::HistogramSnapshot], name: &str, q: f64) -> Option<f64> {
    hists.iter().find(|h| h.name == name)?.quantile(q)
}

/// Steady-state probe: allocations charged to a warm pool's successive
/// sessions. The first pays world construction; the second pays the
/// geometry memo's two-touch admissions (every key now on its second
/// miss), which allocate slot buffers until the 64-slot memo is full; from
/// the third on, engine storage is recycled, repeated derivations hit the
/// memo, and admissions refill evicted slots in place. The third session
/// is the number `crates/bench/tests/warm_alloc.rs` budgets.
fn steady_state_allocs(duration: f64) -> (u64, u64, u64) {
    let spec = SessionSpec {
        test: TestKind::T1,
        k_max: 2,
        seed: 7,
        duration,
        fault_intensity: None,
        transport: Transport::Rap,
        trace: None,
    };
    let mut pool = WorldPool::new();
    let mut session = || {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let _ = run_session_pooled(&spec, &mut pool);
        ALLOCS.load(Ordering::Relaxed) - a0
    };
    let first = session();
    let second = session();
    let third = session();
    (first, second, third)
}

/// QA × transport interop probe: a small T1 grid run once per transport
/// on the warm executor, replayed on a second thread count to prove each
/// controller's trace is deterministic. Reported in its own JSON block,
/// deliberately OUTSIDE the executor fingerprint gate — different
/// congestion controllers legitimately produce different traces, so
/// their fingerprints must never be folded into the `fp0` assertion.
fn interop_probe(duration: f64, reps: usize) -> Result<Vec<Cell>, AnyError> {
    let mut out = Vec::new();
    for &t in Transport::ALL.iter() {
        let mut spec = CampaignSpec::grid(&[TestKind::T1], &[2], &[7, 21], duration);
        for s in &mut spec.sessions {
            s.transport = t;
        }
        eprintln!("measuring interop/{} ({} sessions)...", t.label(), spec.len());
        let mut cell = measure(&spec, CampaignOptions::new(1), "interop", reps);
        cell.transport = t.label();
        let replay = measure_rep(&spec, CampaignOptions::new(2), "interop");
        if replay.fingerprint != cell.fingerprint {
            return Err(format!(
                "INTEROP DIVERGENCE: {} fingerprint {:016x} at 2 threads != {:016x} at 1",
                t.label(),
                replay.fingerprint,
                cell.fingerprint
            )
            .into());
        }
        out.push(cell);
    }
    Ok(out)
}

/// Hostile-network probe: the smoke grid re-run once per trace family
/// (LTE swings, bufferbloat, diurnal ramp, bonded two-path) on the warm
/// executor, replayed at 2 threads and on the mega executor to prove
/// trace-driven cells stay deterministic. Like the interop block this is
/// deliberately OUTSIDE the `fp0` executor gate — a schedule-driven
/// bottleneck legitimately produces a different trajectory per family, so
/// these fingerprints must never be folded into the executor assertion.
/// (`Cell::transport` carries the trace label here.)
fn hostile_probe(duration: f64, reps: usize) -> Result<Vec<Cell>, AnyError> {
    let mut out = Vec::new();
    for &t in laqa_sim::TraceKind::ALL.iter() {
        let mut spec = CampaignSpec::grid(&[TestKind::T1], &[2], &[7, 21], duration);
        for s in &mut spec.sessions {
            s.trace = Some(t);
        }
        eprintln!("measuring hostile/{} ({} sessions)...", t.label(), spec.len());
        let mut cell = measure(&spec, CampaignOptions::new(1), "hostile", reps);
        cell.transport = t.label();
        let replay = measure_rep(&spec, CampaignOptions::new(2), "hostile");
        let mega = measure_rep(&spec, CampaignOptions::new(1).mega(), "hostile");
        if replay.fingerprint != cell.fingerprint || mega.fingerprint != cell.fingerprint {
            return Err(format!(
                "HOSTILE DIVERGENCE: {} fingerprints {:016x} (2 threads) / {:016x} (mega) \
                 != {:016x} (1 thread)",
                t.label(),
                replay.fingerprint,
                mega.fingerprint,
                cell.fingerprint
            )
            .into());
        }
        out.push(cell);
    }
    Ok(out)
}

fn default_out() -> std::path::PathBuf {
    // crates/bench -> repo root, independent of cargo's working directory.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json")
}

/// Pull `"key": <number>` out of a baseline JSON by string scan (the
/// bench JSON is handwritten, flat, and trusted — no parser needed).
fn scan_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn run(args: &Args) -> Result<(), AnyError> {
    let smoke = args.flag("smoke");
    let mega = args.flag("mega");
    let reps: usize = args.get("reps", if smoke { 1 } else { 3 })?;
    // Even the smoke duration stays past qa_start (5 s) so the QA
    // controller — and with it the geometry memo — is actually exercised.
    let duration: f64 = args.get("duration", if smoke { 6.0 } else { 8.0 })?;
    let thread_counts: Vec<usize> = args.get_list("threads", &[1, 2, 8, 16])?;

    // 16 sessions (T1 × k{2,4} × 8 seeds) so a 16-thread run actually gets
    // one session per worker instead of clamping down.
    let seeds: [u64; 8] = [7, 21, 35, 49, 63, 77, 91, 105];
    let spec = CampaignSpec::grid(&[TestKind::T1], &[2, 4], &seeds, duration);

    // The per-session oracle: fresh worlds on the heap scheduler, one
    // session at a time, outside every timed region.
    let fp0 = CampaignResult {
        sessions: spec
            .sessions
            .iter()
            .map(|s| run_session_with(s, SchedulerKind::Reference))
            .collect(),
        threads: 1,
        wall_secs: 0.0,
        merge_secs: 0.0,
    }
    .fingerprint();

    let mut cells: Vec<Cell> = Vec::new();
    for &threads in &thread_counts {
        let mut modes = vec![("warm", CampaignOptions::new(threads))];
        if mega {
            modes.push(("mega", CampaignOptions::new(threads).mega()));
        }
        for (mode, opts) in modes {
            eprintln!(
                "measuring {mode}/t{threads} ({} sessions, {reps} rep(s))...",
                spec.len()
            );
            cells.push(measure(&spec, opts, mode, reps));
        }
    }

    // Fingerprint gate: every {mode, threads} cell must reproduce the
    // oracle bit for bit.
    for c in &cells {
        if c.fingerprint != fp0 {
            return Err(format!(
                "EXECUTOR DIVERGENCE: {}/t{} fingerprint {:016x} != oracle {:016x}",
                c.mode, c.threads, c.fingerprint, fp0
            )
            .into());
        }
    }

    let (cold_first, warm_second, warm_third) = steady_state_allocs(duration);

    eprintln!("measuring instrumented quantile rep (obs enabled, untimed)...");
    let probe_threads = *thread_counts.iter().max().unwrap_or(&1);
    let probe_snap = quantile_probe(&spec, probe_threads, mega, fp0)?;
    let hists = &probe_snap.histograms;

    // 64-session single-thread probe: the per-cell executor vs one
    // MegaEngine multiplexing the whole grid in a single chunk. Reported
    // as an honest ratio — the per-cell path is already warm-pooled and
    // allocation-free in steady state, so the mega executor's win here is
    // engine-reuse and batching, not a order-of-magnitude miracle.
    let mut mega64: Option<(Cell, Cell, f64)> = None;
    if mega {
        let seeds64: Vec<u64> = (0..16).map(|i| 7 + 14 * i).collect();
        let wide = CampaignSpec::grid(&[TestKind::T1, TestKind::T2], &[2, 4], &seeds64, duration);
        eprintln!(
            "measuring 64-session single-thread probe ({} sessions)...",
            wide.len()
        );
        // Interleave the two executors' reps (A B A B ...) rather than
        // best-of-N each in sequence: on a frequency-throttled container,
        // drift between the two measurement windows can swing the
        // reported ratio by ±10 %, and the ratio is what --check gates.
        // The gated ratio is the MEDIAN of order-cancelled quads: each
        // sample runs A B then B A and takes sqrt(ratio_AB * ratio_BA).
        // The second rep of a pair sits higher on the host's frequency
        // ramp, which multiplies one pair's ratio by some bias b and the
        // flipped pair's by 1/b — the geometric mean cancels it exactly.
        // Sequential best-of (and even one-order interleaving) swung the
        // reported ratio 0.90–1.08x run to run on this container, enough
        // to trip the ±10% --check gate on unchanged code. Best-of cells
        // are still kept for the absolute events/s numbers in the table
        // and JSON.
        fn keep_best(best: &mut Option<Cell>, cell: Cell, what: &str) {
            match best {
                Some(prev) => {
                    assert_eq!(prev.fingerprint, cell.fingerprint, "{what}: rep-to-rep divergence");
                    if cell.wall_secs < prev.wall_secs {
                        *best = Some(cell);
                    }
                }
                None => *best = Some(cell),
            }
        }
        let pc_opts = CampaignOptions::new(1);
        // Default chunking (not one giant chunk): retiring a chunk banks
        // its worlds' storage, so later chunks admit warm — the same
        // salvage reuse the per-cell pool enjoys.
        let mg_opts = CampaignOptions::new(1).mega();
        let _ = measure_rep(&wide, pc_opts, "percell64");
        let _ = measure_rep(&wide, mg_opts, "mega64");
        let (mut pc_best, mut mg_best) = (None, None);
        let mut quad_ratios: Vec<f64> = Vec::new();
        for _ in 0..reps.max(3) {
            let pc_a = measure_rep(&wide, pc_opts, "percell64");
            let mg_a = measure_rep(&wide, mg_opts, "mega64");
            let mg_b = measure_rep(&wide, mg_opts, "mega64");
            let pc_b = measure_rep(&wide, pc_opts, "percell64");
            let r_ab = mg_a.events_per_sec() / pc_a.events_per_sec().max(1e-9);
            let r_ba = mg_b.events_per_sec() / pc_b.events_per_sec().max(1e-9);
            quad_ratios.push((r_ab * r_ba).sqrt());
            keep_best(&mut pc_best, pc_a, "percell64");
            keep_best(&mut pc_best, pc_b, "percell64");
            keep_best(&mut mg_best, mg_a, "mega64");
            keep_best(&mut mg_best, mg_b, "mega64");
        }
        quad_ratios.sort_by(|a, b| a.total_cmp(b));
        let median_ratio = quad_ratios[quad_ratios.len() / 2];
        eprintln!(
            "mega64 quad ratios (sorted): [{}] -> median {median_ratio:.3}",
            quad_ratios.iter().map(|r| format!("{r:.3}")).collect::<Vec<_>>().join(", ")
        );
        let per_cell = pc_best.expect("reps >= 1");
        let mega_wide = mg_best.expect("reps >= 1");
        if per_cell.fingerprint != mega_wide.fingerprint {
            return Err(format!(
                "EXECUTOR DIVERGENCE: 64-session mega fingerprint {:016x} != per-cell {:016x}",
                mega_wide.fingerprint, per_cell.fingerprint
            )
            .into());
        }
        mega64 = Some((per_cell, mega_wide, median_ratio));
    }

    let interop = interop_probe(duration, reps)?;
    let hostile = hostile_probe(duration, reps)?;

    println!(
        "{:<6} {:>3} {:>12} {:>10} {:>12} {:>14} {:>10}",
        "mode", "thr", "events", "wall (s)", "events/s", "allocs/sess", "merge (ms)"
    );
    for c in &cells {
        println!(
            "{:<6} {:>3} {:>12} {:>10.3} {:>12.0} {:>14} {:>10.3}",
            c.mode,
            c.threads,
            c.events,
            c.wall_secs,
            c.events_per_sec(),
            c.allocs_per_session(),
            c.merge_secs * 1e3
        );
    }

    let find = |mode: &str, threads: usize| -> Option<&Cell> {
        cells
            .iter()
            .find(|c| c.mode == mode && c.threads == threads)
    };
    let agg_8_vs_1 = match (find("warm", 8), find("warm", 1)) {
        (Some(w8), Some(w1)) => w8.events_per_sec() / w1.events_per_sec().max(1e-9),
        _ => 1.0,
    };
    // Overall events/sec over the per-cell (warm) cells — the number the
    // `--check` gate compares against; mega cells get their own aggregate
    // below so the two gates stay independent.
    let overall: f64 = {
        let base: Vec<&Cell> = cells.iter().filter(|c| c.mode != "mega").collect();
        let events: u64 = base.iter().map(|c| c.events).sum();
        let wall: f64 = base.iter().map(|c| c.wall_secs).sum();
        events as f64 / wall.max(1e-9)
    };
    let mega_overall: Option<f64> = mega.then(|| {
        let m: Vec<&Cell> = cells.iter().filter(|c| c.mode == "mega").collect();
        let events: u64 = m.iter().map(|c| c.events).sum();
        let wall: f64 = m.iter().map(|c| c.wall_secs).sum();
        events as f64 / wall.max(1e-9)
    });
    // Median of the interleaved per-pair ratios, not best-of vs best-of:
    // the two best reps can come from different thermal windows, which
    // is exactly the noise the pairing was built to cancel.
    let mega_vs_percell_64 = mega64.as_ref().map(|(_, _, r)| *r);
    println!("warm 8-vs-1 threads: {agg_8_vs_1:.2}x; overall {overall:.0} events/s");
    if let (Some(mo), Some(ratio)) = (mega_overall, mega_vs_percell_64) {
        println!(
            "mega executor: overall {mo:.0} events/s; \
             64-session single-thread mega vs per-cell: {ratio:.2}x (quad median)"
        );
    }
    println!(
        "steady-state allocs: first (cold) session {cold_first}, second (warm, memo \
         admission) {warm_second}, third (steady) {warm_third}"
    );
    for c in &interop {
        println!(
            "interop {:>4}: fingerprint {:016x}, {:.0} events/s (deterministic at 1 and 2 threads)",
            c.transport,
            c.fingerprint,
            c.events_per_sec()
        );
    }
    for c in &hostile {
        println!(
            "hostile {:>7}: fingerprint {:016x}, {:.0} events/s \
             (deterministic at 1/2 threads and mega)",
            c.transport,
            c.fingerprint,
            c.events_per_sec()
        );
    }

    // Quantile table from the instrumented rep. Dispatch/horizon/event are
    // nanoseconds, session wall is milliseconds, batch size is events.
    let probe_names = [
        "sched.dispatch_ns",
        "sched.wheel_horizon_ns",
        "campaign.session_wall_ms",
        "mega.session_event_ns",
        "mega.batch_size",
    ];
    println!(
        "{:<26} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "latency histogram", "count", "p50", "p90", "p99", "p999"
    );
    for name in probe_names {
        let Some(h) = hists.iter().find(|h| h.name == name) else {
            continue;
        };
        let fmt = |q: f64| match h.quantile(q) {
            Some(v) => format!("{v:.1}"),
            None => "-".to_string(),
        };
        println!(
            "{:<26} {:>10} {:>12} {:>12} {:>12} {:>12}",
            h.name,
            h.count,
            fmt(0.5),
            fmt(0.9),
            fmt(0.99),
            fmt(0.999)
        );
    }

    if args.flag("profile") {
        print_profile(&probe_snap);
    }

    if let Some(path) = args.options.get("check") {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        match scan_number(&baseline, "events_per_sec_overall") {
            Some(base_eps) if base_eps > 0.0 => {
                let ratio = overall / base_eps;
                println!(
                    "regression gate: {overall:.0} events/s vs baseline {base_eps:.0} \
                     ({ratio:.2}x)"
                );
                if ratio < 0.8 {
                    return Err(format!(
                        "PERF REGRESSION: events/sec dropped >20% vs {path} \
                         ({overall:.0} vs {base_eps:.0})"
                    )
                    .into());
                }
            }
            _ => return Err(format!("baseline {path} has no events_per_sec_overall").into()),
        }
        // Gate the mega executor too — but only when this run measured it
        // and the baseline recorded it (older baselines predate the mega
        // executor and must keep passing).
        if let (Some(mo), Some(base_mega)) =
            (mega_overall, scan_number(&baseline, "mega_events_per_sec"))
        {
            if base_mega > 0.0 {
                let ratio = mo / base_mega;
                println!(
                    "mega regression gate: {mo:.0} events/s vs baseline {base_mega:.0} \
                     ({ratio:.2}x)"
                );
                if ratio < 0.8 {
                    return Err(format!(
                        "PERF REGRESSION: mega events/sec dropped >20% vs {path} \
                         ({mo:.0} vs {base_mega:.0})"
                    )
                    .into());
                }
            }
        }
        // Gate the 64-session mega-vs-per-cell speedup: the headline the
        // mega hot-path work bought. Both sides are medians of interleaved
        // per-pair ratios (see the probe above). Only enforced when the
        // baseline recorded the ratio (older baselines predate the key); a
        // 10% tolerance absorbs shared-hardware noise on the two probes.
        if let (Some(ratio), Some(base_ratio)) = (
            mega_vs_percell_64,
            scan_number(&baseline, "mega_vs_percell_ratio"),
        ) {
            if base_ratio > 0.0 {
                println!(
                    "mega-vs-percell gate: {ratio:.2}x vs baseline {base_ratio:.2}x"
                );
                if ratio < base_ratio * 0.9 {
                    return Err(format!(
                        "PERF REGRESSION: mega-vs-percell speedup dropped >10% vs {path} \
                         ({ratio:.2}x vs {base_ratio:.2}x)"
                    )
                    .into());
                }
            }
        }
    }

    let out = args
        .options
        .get("out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_out);
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"campaign\",\n");
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"duration_secs\": {duration},\n"));
    json.push_str(&format!(
        "  \"grid\": {{\"tests\": [\"T1\"], \"k_values\": [2, 4], \"seeds\": {}, \
         \"sessions\": {}}},\n",
        seeds.len(),
        spec.len()
    ));
    json.push_str(&format!(
        "  \"thread_counts\": [{}],\n",
        thread_counts
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "  \"speedup_warm_8_vs_1_threads\": {agg_8_vs_1:.4},\n"
    ));
    json.push_str(&format!("  \"events_per_sec_overall\": {overall:.1},\n"));
    if let Some(mo) = mega_overall {
        json.push_str(&format!("  \"mega_events_per_sec\": {mo:.1},\n"));
    }
    if let (Some((p, m, _)), Some(ratio)) = (&mega64, mega_vs_percell_64) {
        json.push_str(&format!(
            "  \"mega_vs_percell_64sessions\": {{\"sessions\": {}, \"threads\": 1, \
             \"percell_events_per_sec\": {:.1}, \"mega_events_per_sec\": {:.1}, \
             \"speedup\": {ratio:.4}}},\n",
            p.sessions,
            p.events_per_sec(),
            m.events_per_sec()
        ));
        // Flat copy of the speedup for the `--check` gate's string scan.
        json.push_str(&format!("  \"mega_vs_percell_ratio\": {ratio:.4},\n"));
    }
    json.push_str(&format!(
        "  \"steady_state_allocs\": {{\"first_session\": {cold_first}, \
         \"second_session_warm\": {warm_second}, \"third_session_steady\": {warm_third}}},\n"
    ));
    // p99 latencies from the instrumented rep — tracked for trend-spotting
    // only, never gated: they are wall-clock noise on shared hardware.
    {
        let q = |name: &str| probe_quantile(hists, name, 0.99);
        let mut fields: Vec<String> = Vec::new();
        let mut push = |key: &str, v: Option<f64>| {
            if let Some(v) = v {
                fields.push(format!("\"{key}\": {v:.1}"));
            }
        };
        push("sched_dispatch_p99_ns", q("sched.dispatch_ns"));
        // Renamed from sched_wheel_slack_p99_ns in PR 10: the value is the
        // arming horizon (how far ahead of the cursor timers land), which
        // legitimately sits around ~1 s — it was never delivery lateness.
        push("sched_wheel_horizon_p99_ns", q("sched.wheel_horizon_ns"));
        push("campaign_session_wall_p99_ms", q("campaign.session_wall_ms"));
        push("mega_session_event_p99_ns", q("mega.session_event_ns"));
        push("mega_batch_size_p99", q("mega.batch_size"));
        if !fields.is_empty() {
            json.push_str(&format!(
                "  \"latency_p99\": {{{}}},\n",
                fields.join(", ")
            ));
        }
    }
    json.push_str(&format!("  \"fingerprint\": \"{fp0:016x}\",\n"));
    // Per-transport interop fingerprints live in their own block: unlike
    // `cells`, these are *expected* to differ from `fingerprint` and from
    // each other (different congestion controllers, different traces).
    json.push_str("  \"interop\": [\n");
    for (i, c) in interop.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"transport\": \"{}\", \"fingerprint\": \"{:016x}\", \"sessions\": {}, \
             \"events\": {}, \"events_per_sec\": {:.1}}}{}\n",
            c.transport,
            c.fingerprint,
            c.sessions,
            c.events,
            c.events_per_sec(),
            if i + 1 < interop.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // Hostile (TraceLink) fingerprints: same contract as `interop` —
    // outside the fp0 gate, expected to differ per trace family, pinned
    // here so schedule or striping drift shows up in review.
    json.push_str("  \"hostile\": [\n");
    for (i, c) in hostile.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"trace\": \"{}\", \"fingerprint\": \"{:016x}\", \"sessions\": {}, \
             \"events\": {}, \"events_per_sec\": {:.1}}}{}\n",
            c.transport,
            c.fingerprint,
            c.sessions,
            c.events,
            c.events_per_sec(),
            if i + 1 < hostile.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"transport\": \"{}\", \
             \"threads\": {}, \"threads_effective\": {}, \
             \"events\": {}, \"wall_secs\": {:.6}, \"merge_secs\": {:.6}, \
             \"events_per_sec\": {:.1}, \"allocs_per_session\": {}}}{}\n",
            c.mode,
            c.transport,
            c.threads,
            c.threads_effective,
            c.events,
            c.wall_secs,
            c.merge_secs,
            c.events_per_sec(),
            c.allocs_per_session(),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json)?;
    println!("wrote {}", out.display());
    Ok(())
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().is_none_or(|a| a.starts_with("--")) {
        raw.insert(0, "run".to_string());
    }
    let known = ["smoke", "mega", "profile", "threads", "reps", "duration", "out", "check"];
    let args = match Args::parse(raw).and_then(|a| a.reject_unknown(&known).map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.command != "run" {
        eprintln!(
            "error: unexpected argument '{}' — this binary takes options only \
             (--smoke, --mega, --profile, --threads LIST, --duration S, --reps N, \
             --out FILE, --check FILE)",
            args.command
        );
        std::process::exit(2);
    }
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
