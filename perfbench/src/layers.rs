//! The traced run: per-layer metrics of one workload, from the counters
//! and histograms `laqa_obs` exports, from allocator deltas, and from
//! replays of each inner layer's public API on the workload's sessions.

use std::time::Instant;

use laqa_core::{GeometryCache, QaController};
use laqa_obs::Snapshot;
use laqa_rap::RapSender;
use laqa_sim::{
    hash_outcome, run_scenario_with, CampaignOptions, CampaignSpec, ScenarioConfig,
    ScenarioOutcome, SchedulerKind, SessionResult, SessionSpec, Transport, World,
};

use crate::check::{self, Tally};
use crate::e2e::{run_pass, setup_secs, warm_up};
use crate::replay::{self, CoreReplay};
use crate::spans::Spans;
use crate::stats::{frac, mean, median, quantile};
use crate::workload::{sample, spec_of, with_duration, Workload};
use crate::{alloc, Metric};

/// Recorded `TimeSeries` bytes an outcome holds (points are `(f64, f64)`).
fn series_bytes(out: &ScenarioOutcome) -> usize {
    let t = &out.traces;
    let mut series = vec![&t.tx_rate, &t.consumption, &t.n_active, &out.queue_trace];
    series.extend(t.layer_rate.iter().chain(&t.drain_rate).chain(&t.buffer));
    series.extend(out.rx_buffers.iter());
    series
        .iter()
        .map(|s| s.points.capacity() * std::mem::size_of::<(f64, f64)>())
        .sum()
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// Per-event dispatch histogram: the solo engine's, else the mega engine's.
fn dispatch_hist(snap: &Snapshot) -> Option<&laqa_obs::HistogramSnapshot> {
    ["sched.dispatch_ns", "mega.session_event_ns"]
        .iter()
        .filter_map(|n| snap.histogram(n))
        .find(|h| h.count > 0)
}

fn hist_q(h: Option<&laqa_obs::HistogramSnapshot>, q: f64) -> f64 {
    h.and_then(|h| h.quantile(q)).unwrap_or(0.0)
}

/// What the mega-engine probe measured.
struct MegaProbe {
    interleave_ratio: f64,
    event_ns_p50: f64,
    event_ns_p99: f64,
    admit_us: f64,
    admit_kb: f64,
}

pub fn measure(w: Workload, seed: u64, tally: &mut Tally) -> Vec<Metric> {
    let spec = w.spec(seed);
    let opts = w.options();
    let n = spec.sessions.len() as f64;
    let mut spans = Spans::default();
    let root = spans.open(w.name(), None);
    warm_up(&spec, opts);

    // The whole workload untraced, then traced.
    let p0 = spans.time("pass.untraced", root, || run_pass(&spec, opts));
    laqa_obs::reset();
    laqa_obs::set_enabled(true);
    let p1 = spans.time("pass.traced", root, || run_pass(&spec, opts));
    laqa_obs::set_enabled(false);
    let snap = laqa_obs::snapshot();
    let (Some(r0), Some(r1)) = (p0.result, p1.result) else {
        tally.require("executor pass", false);
        return Vec::new();
    };
    let fps: Vec<u64> = r0.sessions.iter().map(check::session_fp).collect();
    check::tally_pass(tally, &r0, None);
    // Obs inertness: the traced pass reproduces every untraced session.
    check::tally_pass(tally, &r1, Some(&fps));
    println!(
        "fingerprint {} {:016x} (obs off) {:016x} (obs on)",
        w.name(),
        r0.fingerprint(),
        r1.fingerprint()
    );

    // Sampled sessions: build, run and hash each on a cold world with the
    // product scheduler (its hash must match the warm executor's), then
    // the oracle replay (cold world, heap scheduler).
    let picked = sample(&spec, w.sample_size());
    let mut outcomes: Vec<(ScenarioConfig, ScenarioOutcome)> = Vec::new();
    let mut hash_us = Vec::new();
    let probe = spans.open("sample", Some(root));
    for (i, s) in &picked {
        let session = spans.open("session", Some(probe));
        let cfg = s.scenario();
        let zero = ScenarioConfig {
            duration: 0.0,
            ..cfg.clone()
        };
        spans.time("build", session, || {
            run_scenario_with(&zero, SchedulerKind::Wheel)
        });
        let out = spans.time("run", session, || {
            run_scenario_with(&cfg, SchedulerKind::Wheel)
        });
        let started = Instant::now();
        let hash = spans.time("hash", session, || hash_outcome(&out));
        hash_us.push(started.elapsed().as_secs_f64() * 1e6);
        spans.close(session);
        tally.record(r0.sessions[*i].trace_hash == hash);
        outcomes.push((cfg, out));
    }
    spans.time("oracle", probe, || check::oracle(tally, &picked, &fps));
    spans.close(probe);

    let mega = spans.time("probe.mega", root, || {
        mega_probe(w, &spec, &picked, p0.wall, &snap, &fps, tally)
    });
    let build_us = spans.time("probe.build", root, || {
        setup_secs(&spec, CampaignOptions::new(1), tally) / n * 1e6
    });

    // Inner-layer replays.
    let mut core = CoreReplay::default();
    core.tick_ns.reserve(
        outcomes
            .iter()
            .map(|(_, o)| o.traces.tx_rate.points.len())
            .sum(),
    );
    let memo = GeometryCache::shared();
    let before = alloc::live();
    spans.time("replay.core", root, || {
        for (cfg, out) in &outcomes {
            replay::core_ticks(cfg, out, &memo, &mut core);
        }
    });
    // Bytes per memo entry from the replay's own memo, scaled to the
    // entries the workload's memos admitted and shared among the
    // sessions resident at once.
    let memo_entries = memo.lock().expect("geometry memo lock").len();
    let bytes_per_entry = frac((alloc::live() - before) as f64, memo_entries as f64);
    drop(memo);
    let admissions = counter(&snap, "qa.geometry_cache.admissions");
    let live_at_once = w.live_at_once(r0.threads) as f64;
    let memo_kb = admissions * bytes_per_entry / 1024.0 / live_at_once;
    let cfg0 = &outcomes[0].0;
    let offered: f64 = mean(outcomes.iter().map(|(_, o)| {
        let b = &o.bottleneck;
        (b.enqueued + b.dropped + b.random_losses) as f64
    }));
    let enqueued = mean(outcomes.iter().map(|(_, o)| o.bottleneck.enqueued as f64));
    let drop_frac = frac(offered - enqueued, offered);
    let drop_every = if drop_frac > 0.0 {
        (1.0 / drop_frac).round() as u64
    } else {
        0
    };
    let ack_ns: Vec<(Transport, f64)> = spans.time("replay.rap", root, || {
        Transport::ALL
            .iter()
            .map(|&t| (t, replay::ack_ns(t, cfg0, drop_every, 200_000)))
            .collect()
    });
    let offer_ns = spans.time("replay.link", root, || {
        replay::offer_ns(cfg0, drop_frac, 1_000_000)
    });
    let depth = snap
        .histogram("engine.queue_depth")
        .and_then(|h| h.mean())
        .unwrap_or(64.0) as usize;
    let op_ns = spans.time("replay.sched", root, || {
        replay::sched_op_ns(snap.histogram("sched.wheel_horizon_ns"), depth, 1_000_000)
    });
    spans.close(root);

    // Memory ledger from public constructors.
    let (world, world_b) = alloc::retained(|| World::with_scheduler(1, SchedulerKind::Wheel));
    drop(world);
    let (heap_world, heap_world_b) =
        alloc::retained(|| World::with_scheduler(1, SchedulerKind::Reference));
    drop(heap_world);
    let (link, link_b) = alloc::retained(|| laqa_sim::Link::new(replay::bottleneck(cfg0)));
    drop(link);
    let (qa, qa_b) = alloc::retained(|| QaController::new(cfg0.qa.clone()));
    drop(qa);
    let (rap, rap_b) = alloc::retained(|| RapSender::new(cfg0.rap.clone(), 0.0));
    drop(rap);
    let series_kb = mean(
        outcomes
            .iter()
            .map(|(_, o)| series_bytes(o) as f64 / 1024.0),
    );
    let live_kb = p0.peak_kb / live_at_once;
    println!(
        "memory: World(wheel) {world_b} B, World(heap) {heap_world_b} B, Link {link_b} B, \
         QaController {qa_b} B, RapSender {rap_b} B; series {series_kb:.1} KB/outcome"
    );
    let growth_kb = live_kb - mega.admit_kb;
    println!(
        "memory: {live_kb:.1} KB per live session at peak, {:.1} KB at admission; of the \
         {growth_kb:.1} KB growth, recorded series hold {series_kb:.1} KB, the geometry memo \
         about {memo_kb:.1} KB ({admissions} admissions x {bytes_per_entry:.0} B per entry of \
         the replay's memo), leaving about {:.1} KB for queues, histories and receivers",
        mega.admit_kb,
        growth_kb - series_kb - memo_kb,
    );

    let sessions = &r0.sessions;
    let per_session = |f: &dyn Fn(&SessionResult) -> f64| mean(sessions.iter().map(f));
    let events: f64 = sessions.iter().map(|s| s.events_processed as f64).sum();
    let busy_ns: f64 = sessions.iter().map(|s| s.wall_secs).sum::<f64>() * 1e9;
    let tick_mean = mean(core.tick_ns.iter().copied());
    let ticks = counter(&snap, "qa.ticks");
    let rap_ns = ack_ns[0].1;
    let hash_mean = mean(hash_us.iter().copied());
    let ledger = [
        (
            "core",
            ticks * (tick_mean + core.packets_per_tick() * core.packet_layer_ns()),
        ),
        ("rap", counter(&snap, "rap.rtt_samples") * rap_ns),
        ("link", n * 2.0 * (offered + enqueued) * offer_ns),
        ("sched", events * op_ns),
        ("scenarios", n * build_us * 1e3),
        ("trace", n * hash_mean * 1e3),
        ("campaign", r0.merge_secs * 1e9),
        // Interleaving cost: the live wall beyond running the same
        // sessions to completion (the other workloads do not interleave).
        (
            "mega",
            match w {
                Workload::Live => busy_ns * (1.0 - 1.0 / mega.interleave_ratio),
                _ => 0.0,
            },
        ),
    ];
    let accounted: f64 = ledger.iter().map(|(_, ns)| ns).sum();
    let residual = 1.0 - accounted / busy_ns;
    for (layer, ns) in ledger {
        println!(
            "ledger {:<10} {:>6.1} % of session wall",
            layer,
            100.0 * ns / busy_ns
        );
    }
    println!(
        "ledger residual   {:>6.1} % of session wall: engine dispatch glue, TCP/CBR agents, \
         receivers and outcome extraction (not replayed)",
        100.0 * residual
    );
    spans.print();

    let timeouts = counter(&snap, "rap.backoffs_timeout");
    let loss = counter(&snap, "rap.backoffs_loss");
    let hits = counter(&snap, "qa.geometry_cache.hits");
    let misses = counter(&snap, "qa.geometry_cache.misses");
    let insert = |k: &str| counter(&snap, &format!("sched.wheel_insert_{k}"));
    let inserts = insert("active") + insert("window") + insert("overflow");
    let dispatch = dispatch_hist(&snap);
    let ack = |t: Transport| {
        ack_ns
            .iter()
            .find(|(x, _)| *x == t)
            .map_or(0.0, |(_, ns)| *ns)
    };
    vec![
        Metric::new(
            "campaign.busy_frac",
            "frac",
            busy_ns / 1e9 / (r0.threads as f64 * r0.wall_secs),
        ),
        Metric::new("campaign.merge_ms", "ms", r0.merge_secs * 1e3),
        Metric::new("campaign.workers", "count", r0.threads as f64),
        Metric::new("mega.interleave_ratio", "ratio", mega.interleave_ratio),
        Metric::new("mega.event_ns_p50", "ns", mega.event_ns_p50),
        Metric::new("mega.event_ns_p99", "ns", mega.event_ns_p99),
        Metric::new("mega.admit_us", "us", mega.admit_us),
        Metric::new("mega.admit_kb", "KB", mega.admit_kb),
        Metric::new("mega.growth_kb", "KB", growth_kb),
        Metric::new("scenarios.build_us", "us", build_us),
        Metric::new("scenarios.allocs", "count", p0.allocs as f64 / n),
        Metric::new("scenarios.series_kb", "KB", series_kb),
        Metric::new("engine.events", "count", events / n),
        Metric::new("engine.step_ns_mean", "ns", busy_ns / events),
        Metric::new("engine.dispatch_ns_p50", "ns", hist_q(dispatch, 0.5)),
        Metric::new("engine.dispatch_ns_p99", "ns", hist_q(dispatch, 0.99)),
        Metric::new("sched.op_ns", "ns", op_ns),
        Metric::new(
            "sched.insert_active_frac",
            "frac",
            frac(insert("active"), inserts),
        ),
        Metric::new(
            "sched.insert_window_frac",
            "frac",
            frac(insert("window"), inserts),
        ),
        Metric::new(
            "sched.insert_overflow_frac",
            "frac",
            frac(insert("overflow"), inserts),
        ),
        Metric::new("sched.empty_kb", "KB", world_b as f64 / 1024.0),
        Metric::new("link.offer_ns", "ns", offer_ns),
        Metric::new("link.packets", "count", enqueued),
        Metric::new("link.drop_frac", "frac", drop_frac),
        Metric::new(
            "link.peak_queue",
            "count",
            mean(outcomes.iter().map(|(_, o)| o.bottleneck.peak_queue as f64)),
        ),
        Metric::new(
            "link.trace_points",
            "count",
            per_session(&|s| s.trace_changes as f64),
        ),
        Metric::new(
            "faults.transitions",
            "count",
            per_session(&|s| s.fault_transitions as f64),
        ),
        Metric::new("rap.ack_ns.rap", "ns", ack(Transport::Rap)),
        Metric::new("rap.ack_ns.bbr", "ns", ack(Transport::Bbr)),
        Metric::new("rap.ack_ns.nada", "ns", ack(Transport::Nada)),
        Metric::new("rap.ack_ns.tcp", "ns", ack(Transport::Tcp)),
        Metric::new("rap.backoffs", "count", per_session(&|s| s.backoffs as f64)),
        Metric::new("rap.timeout_frac", "frac", frac(timeouts, timeouts + loss)),
        Metric::new("core.tick_ns_p50", "ns", quantile(&core.tick_ns, 0.5)),
        Metric::new("core.tick_ns_p99", "ns", quantile(&core.tick_ns, 0.99)),
        Metric::new("core.packet_layer_ns", "ns", core.packet_layer_ns()),
        Metric::new("core.state_build_ns", "ns", core.state_build_ns()),
        Metric::new("core.memo_hit_frac", "frac", frac(hits, hits + misses)),
        Metric::new(
            "core.memo_admissions",
            "count",
            counter(&snap, "qa.geometry_cache.admissions"),
        ),
        Metric::new("core.memo_kb", "KB", memo_kb),
        Metric::new("core.ticks", "count", ticks / n),
        Metric::new(
            "core.poor_dist_drops_per_session",
            "count",
            per_session(&|s| s.drops as f64 * s.avoidable_drops.unwrap_or(0.0)),
        ),
        Metric::new(
            "core.base_stalls_per_session",
            "count",
            per_session(&|s| s.stalls as f64),
        ),
        Metric::new(
            "layered.discarded_kb",
            "KB",
            per_session(&|s| s.discarded_bytes / 1024.0),
        ),
        Metric::new(
            "layered.underflows",
            "count",
            per_session(&|s| s.rx_underflows as f64),
        ),
        Metric::new("obs.overhead_frac", "frac", p1.wall / p0.wall - 1.0),
        Metric::new("trace.hash_us", "us", hash_mean),
        Metric::new("layers.residual_frac", "frac", residual),
    ]
}

/// Interleaving cost and admission footprint of the mega engine. `live`
/// measures its own sessions (its untraced pass is the interleaved run
/// and its traced pass holds the event histogram); the other workloads
/// probe their sampled sessions with a 1 ms slice.
fn mega_probe(
    w: Workload,
    spec: &CampaignSpec,
    picked: &[(usize, SessionSpec)],
    untraced_wall: f64,
    snap: &Snapshot,
    fps: &[u64],
    tally: &mut Tally,
) -> MegaProbe {
    let (probe_spec, sliced) = match w {
        Workload::Live => (spec.clone(), w.options()),
        _ => (
            spec_of(picked),
            CampaignOptions::new(1)
                .mega()
                .mega_chunk(picked.len())
                .mega_slice(0.001),
        ),
    };
    let n = probe_spec.sessions.len() as f64;
    let to_completion = run_pass(&probe_spec, CampaignOptions::new(1));
    tally.require("run-to-completion probe", to_completion.result.is_some());
    let (sliced_wall, probe_snap) = match w {
        Workload::Live => (untraced_wall, None),
        _ => {
            let wall = run_pass(&probe_spec, sliced).wall;
            laqa_obs::reset();
            laqa_obs::set_enabled(true);
            let traced = run_pass(&probe_spec, sliced);
            laqa_obs::set_enabled(false);
            match &traced.result {
                Some(r) => {
                    for ((i, _), s) in picked.iter().zip(&r.sessions) {
                        tally.record(fps.get(*i) == Some(&check::session_fp(s)));
                    }
                }
                None => tally.require("mega probe", false),
            }
            (wall, Some(laqa_obs::snapshot()))
        }
    };
    let hist = probe_snap
        .as_ref()
        .unwrap_or(snap)
        .histogram("mega.session_event_ns")
        .cloned();

    let zero = with_duration(&probe_spec, 0.0);
    let admits: Vec<crate::e2e::Pass> = (0..5).map(|_| run_pass(&zero, sliced)).collect();
    let walls: Vec<f64> = admits.iter().map(|p| p.wall).collect();
    let kbs: Vec<f64> = admits.iter().map(|p| p.peak_kb).collect();
    MegaProbe {
        interleave_ratio: sliced_wall / to_completion.wall,
        event_ns_p50: hist_q(hist.as_ref(), 0.5),
        event_ns_p99: hist_q(hist.as_ref(), 0.99),
        admit_us: median(&walls) / n * 1e6,
        admit_kb: median(&kbs) / n,
    }
}
