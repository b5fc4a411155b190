//! Replays of the inner layers' public APIs on inputs taken from the
//! workload's own sessions: the QA controller and its state geometry,
//! the four rate controllers with a RAP receiver, the bottleneck link's
//! `offer`, and the timer wheel.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use laqa_core::{QaController, SharedGeometryCache, StateSequence};
use laqa_obs::HistogramSnapshot;
use laqa_rap::{
    BbrConfig, BbrSender, NadaConfig, NadaSender, RapReceiverState, RapSender, RateController,
    WindowConfig, WindowSender,
};
use laqa_sim::{
    Link, LinkConfig, Packet, PacketKind, Route, ScenarioConfig, ScenarioOutcome, Scheduler,
    TimerWheelScheduler, Transport,
};

use crate::stats::median;

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Small deterministic generator for replay inputs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What replaying `QaController::tick` over recorded sessions measured.
#[derive(Default)]
pub struct CoreReplay {
    /// Wall time of each tick (ns).
    pub tick_ns: Vec<f64>,
    pub packet_layer_ns_total: f64,
    pub packets: u64,
    pub state_build_ns_total: f64,
    pub state_builds: u64,
}

impl CoreReplay {
    pub fn packet_layer_ns(&self) -> f64 {
        self.packet_layer_ns_total / self.packets.max(1) as f64
    }

    pub fn packets_per_tick(&self) -> f64 {
        self.packets as f64 / self.tick_ns.len().max(1) as f64
    }

    pub fn state_build_ns(&self) -> f64 {
        self.state_build_ns_total / self.state_builds.max(1) as f64
    }
}

/// AIMD slope the recorded rate trace climbed with: the median positive
/// per-tick increase, per second.
fn recorded_slope(points: &[(f64, f64)], dt: f64, floor: f64) -> f64 {
    let ups: Vec<f64> = points
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) / dt)
        .filter(|d| *d > 0.0)
        .collect();
    if ups.is_empty() {
        floor
    } else {
        median(&ups).max(floor)
    }
}

/// Drive a fresh controller sharing `memo` (as a warm worker's sessions
/// share one geometry memo) through a session's recorded `tx_rate`: a
/// rate drop of more than 10 % is replayed as a backoff, each tick's
/// allocation is delivered, and the tick's packets are assigned layers.
pub fn core_ticks(
    cfg: &ScenarioConfig,
    out: &ScenarioOutcome,
    memo: &SharedGeometryCache,
    acc: &mut CoreReplay,
) {
    let mut qa = QaController::new(cfg.qa.clone()).expect("scenario QA config is valid");
    qa.set_geometry_cache(memo.clone());
    let points = &out.traces.tx_rate.points;
    let dt = cfg.tick_dt;
    let slope = recorded_slope(points, dt, cfg.qa.min_slope);
    let pkt = cfg.rap.packet_size;
    let mut prev: Option<f64> = None;
    let mut carry = 0.0;
    for &(t, rate) in points {
        qa.set_slope(slope);
        if prev.is_some_and(|p| rate < 0.9 * p) {
            qa.on_backoff(t, rate);
        }
        prev = Some(rate);
        let started = Instant::now();
        let report = qa.tick(t, rate, dt);
        acc.tick_ns.push(elapsed_ns(started));
        for (layer, &r) in report.per_layer_rate.iter().enumerate() {
            qa.on_packet_delivered(layer, r * dt);
        }
        carry += rate * dt / pkt;
        let k = carry.floor();
        carry -= k;
        let started = Instant::now();
        for _ in 0..k as u64 {
            black_box(qa.next_packet_layer(pkt));
        }
        acc.packet_layer_ns_total += elapsed_ns(started);
        acc.packets += k as u64;
    }

    let layers = &out.traces.n_active.points;
    let step = (points.len() / 500).max(1);
    let started = Instant::now();
    let mut builds = 0u64;
    for (i, &(_, rate)) in points.iter().enumerate().step_by(step) {
        let n_active = layers.get(i).map_or(1.0, |p| p.1).max(1.0) as usize;
        black_box(StateSequence::build(
            black_box(rate),
            n_active,
            cfg.qa.layer_rate,
            slope,
            cfg.qa.k_max,
        ));
        builds += 1;
    }
    acc.state_build_ns_total += elapsed_ns(started);
    acc.state_builds += builds;
}

/// Mean ns per ACK round trip (`register_send` → receiver `on_data` →
/// `on_ack` → timers and event drain) of `transport`'s controller, paced
/// at 8 packets per `rtt` with every `drop_every`-th packet lost.
pub fn ack_ns(transport: Transport, cfg: &ScenarioConfig, drop_every: u64, acks: u64) -> f64 {
    let r = &cfg.rap;
    match transport {
        Transport::Rap => ack_round_trips(RapSender::new(r.clone(), 0.0), cfg, drop_every, acks),
        Transport::Bbr => {
            let c = BbrConfig {
                packet_size: r.packet_size,
                initial_rate: r.initial_rate,
                initial_rtt: r.initial_rtt,
                reorder_threshold: r.reorder_threshold,
                max_rate: r.max_rate,
                ..BbrConfig::default()
            };
            ack_round_trips(BbrSender::new(c, 0.0), cfg, drop_every, acks)
        }
        Transport::Nada => {
            let c = NadaConfig {
                packet_size: r.packet_size,
                initial_rate: r.initial_rate,
                initial_rtt: r.initial_rtt,
                reorder_threshold: r.reorder_threshold,
                max_rate: r.max_rate,
                ..NadaConfig::default()
            };
            ack_round_trips(NadaSender::new(c, 0.0), cfg, drop_every, acks)
        }
        Transport::Tcp => {
            let c = WindowConfig {
                packet_size: r.packet_size,
                initial_rtt: r.initial_rtt,
                reorder_threshold: r.reorder_threshold,
                max_cwnd: (r.max_rate * 0.5 / r.packet_size).max(8.0),
                ..WindowConfig::default()
            };
            ack_round_trips(WindowSender::new(c, 0.0), cfg, drop_every, acks)
        }
    }
}

fn ack_round_trips<C: RateController>(
    mut ctl: C,
    cfg: &ScenarioConfig,
    drop_every: u64,
    acks: u64,
) -> f64 {
    let rtt = 2.0 * cfg.dumbbell.rtt();
    let gap = rtt / 8.0;
    let pkt = cfg.rap.packet_size;
    let mut rx = RapReceiverState::new();
    let mut in_flight: VecDeque<(f64, u64)> = VecDeque::new();
    let mut events = Vec::new();
    let (mut now, mut sent, mut acked) = (0.0, 0u64, 0u64);
    let started = Instant::now();
    for _ in 0..acks * 64 {
        if acked >= acks {
            break;
        }
        now += gap;
        while in_flight.front().is_some_and(|&(due, _)| due <= now) {
            let (_, seq) = in_flight.pop_front().expect("front checked");
            ctl.on_ack(now, rx.on_data(seq));
            acked += 1;
        }
        ctl.poll_timers(now);
        if now >= ctl.next_send_time(now) {
            let seq = ctl.register_send(now, pkt, 0);
            sent += 1;
            if drop_every == 0 || sent % drop_every != 0 {
                in_flight.push_back((now + rtt, seq));
            }
        }
        ctl.drain_events_into(&mut events);
        events.clear();
    }
    elapsed_ns(started) / acked.max(1) as f64
}

/// The session's bottleneck link configuration.
pub fn bottleneck(cfg: &ScenarioConfig) -> LinkConfig {
    let d = &cfg.dumbbell;
    LinkConfig {
        bandwidth: d.bottleneck_bw,
        delay: d.bottleneck_delay,
        queue_packets: d.queue_packets,
        queue_kind: d.queue_kind,
        loss_rate: d.loss_rate,
    }
}

/// Mean ns per `Link::offer` on the bottleneck, serviced so that the
/// queue fills and tail-drops about `drop_frac` of the offers, as the
/// session's bottleneck did.
pub fn offer_ns(cfg: &ScenarioConfig, drop_frac: f64, offers: u64) -> f64 {
    let mut link = Link::new(bottleneck(cfg));
    let route = Route::from(vec![0usize]);
    let size = cfg.rap.packet_size as u32;
    let mut rng = Rng::new(0x11ae);
    let started = Instant::now();
    for uid in 0..offers {
        let pkt = Packet {
            uid,
            flow: (uid % 20) as u32,
            size,
            kind: PacketKind::RapData {
                seq: uid,
                layer: 0,
                n_active: 1,
            },
            dst: 0,
            route: route.clone(),
            hop: 0,
            sent_at: 0.0,
        };
        black_box(link.offer(pkt, rng.unit(), rng.unit()));
        if rng.unit() >= drop_frac {
            link.queue.pop_front();
        }
    }
    elapsed_ns(started) / offers as f64
}

/// Horizon (ns) drawn from the recorded `sched.wheel_horizon_ns` mix.
fn draw_horizon(hist: &HistogramSnapshot, rng: &mut Rng) -> u64 {
    let target = rng.unit() * hist.count as f64;
    let mut cum = 0.0;
    for (i, &c) in hist.counts.iter().enumerate() {
        cum += c as f64;
        if c > 0 && cum >= target {
            let lo = if i == 0 { 0.0 } else { hist.bounds[i - 1] };
            let hi = hist.bounds.get(i).copied().unwrap_or(lo * 2.0);
            return (lo + (hi - lo) * rng.unit()) as u64;
        }
    }
    0
}

/// Mean ns per schedule + pop on a `TimerWheelScheduler` holding `depth`
/// pending events whose arming horizons follow the workload's recorded
/// mix (a 1 ms horizon when nothing was recorded).
pub fn sched_op_ns(hist: Option<&HistogramSnapshot>, depth: usize, ops: u64) -> f64 {
    let mut rng = Rng::new(0x5c4ed);
    let horizons: Vec<u64> = (0..4096)
        .map(|_| match hist {
            Some(h) if h.count > 0 => draw_horizon(h, &mut rng),
            _ => 1_000_000,
        })
        .collect();
    let mut wheel: TimerWheelScheduler<u64> = TimerWheelScheduler::new();
    let mut seq = 0u64;
    for k in 0..depth.max(1) {
        wheel.schedule(horizons[k % 4096], seq, seq);
        seq += 1;
    }
    let started = Instant::now();
    for k in 0..ops as usize {
        let (t, _, item) = wheel.pop_next().expect("the wheel is never empty");
        wheel.schedule(t + horizons[k % 4096], seq, black_box(item));
        seq += 1;
    }
    elapsed_ns(started) / ops as f64
}
