//! Megasession engine: many QA/RAP sessions multiplexed on one engine
//! with per-session private event queues and time-sliced batched service.
//!
//! A campaign of N sessions used to be N independent [`World`]s run one
//! after another, paying per-session executor overhead (steal, build,
//! extract) N times with no locality between sessions. The first
//! megasession engine (PR 6) went to the other extreme — one *shared*
//! queue whose events carried a `(session, epoch)` tag — and measured
//! 0.53x the warm per-cell executor: every event paid the tag, an epoch
//! check, an indirect queue hop, and a stable sort to regroup events by
//! session that the shared queue had just finished interleaving.
//!
//! PR 10 replaces the shared queue with the layout the profile asked
//! for: each session keeps its **own** [`EventQueue`] (exactly the solo
//! world's, session-local times, private `seq`), and the engine keeps a
//! hot struct-of-arrays column — [`HotSlot`]: next global fire time,
//! offset, end, epoch — that the service loop scans to pick the session
//! with the earliest due event. That session is then serviced for a
//! whole *time slice* (`service_slice_ns`; by default unbounded, i.e.
//! up to the `run_until` bound — see [`DEFAULT_SLICE_NS`]): its events
//! dispatch back-to-back through the same
//! [`crate::engine::dispatch_event`] code a solo world runs, with the
//! queue, links, RNG, and agents all cache-resident. No per-event tags,
//! no epoch checks, no sorting.
//!
//! **Equivalence argument.** Sessions share no mutable state at all —
//! not even a queue. A session's events live in its own queue with its
//! own `seq` counter, so the dispatch subsequence it experiences under
//! any slice schedule is *by construction* the solo `(time, seq)` order;
//! slicing only chooses how much of that fixed sequence runs before the
//! engine looks at other sessions, which no session can observe. The
//! global min-scan merely guarantees every session reaches the run
//! bound. `tests/mega_differential.rs` and `tests/mega_properties.rs`
//! pin this, including a slice-length sweep.
//!
//! **Teardown.** Retiring a session bumps its slot's epoch (stale
//! [`SessionId`] handles are rejected) and drops whatever events were
//! still pending in its private queue — in-flight timers past the
//! session's end that an isolated `run_until` would have left
//! unprocessed. Each dropped event is counted as `mega.token_recycles`,
//! keeping the PR 6 meaning: tokens of a dead session that never fired.

use crate::engine::{
    dispatch_event, start_agents, Agent, EventQueue, SessionCore, World, WorldSalvage,
};
use crate::link::{LinkConfig, LinkStats};
use crate::packet::{AgentId, LinkId};
use crate::time::{ns_to_secs, secs_to_ns};

/// Default service slice: how much simulated time one session is run
/// before the engine re-scans for the globally earliest session.
/// Default is run-to-completion (no slicing): each `run_until(t)` call
/// is itself the natural interleaving quantum — an incremental caller
/// that steps the engine in small bounds already interleaves sessions
/// at that cadence — and on the one-shot campaign path, finite slices
/// only add slot-switch cache refills (a measured 6–8 % at 2^28 ns on
/// the 64-session probe) without changing a single trajectory bit.
/// Callers that want finer batching inside one long `run_until` (e.g.
/// dense `sessions_live`-style gauge updates or flight batches) set it
/// via [`MegaEngine::set_service_slice`].
const DEFAULT_SLICE_NS: u64 = u64::MAX;

/// Parked marker for [`HotSlot::next_fire_ns`]: no runnable event (dead
/// slot, empty queue, or all remaining events past the session's end).
const PARKED: u64 = u64::MAX;

/// Handle to a session inside a [`MegaEngine`]: its table slot plus the
/// epoch the slot had when the session was admitted. Stale handles (from
/// before a slot was recycled) are detected and rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionId {
    slot: u32,
    epoch: u32,
}

impl SessionId {
    /// The session's slot index (stable while the session is live).
    pub fn slot(&self) -> u32 {
        self.slot
    }
}

/// The hot per-slot scheduling state — everything the service loop's
/// min-scan touches, packed into one 32-byte row so scanning 64 sessions
/// reads two cache lines' worth of rows per slice instead of chasing
/// four parallel vectors.
struct HotSlot {
    /// Global time of the session's earliest pending event ([`PARKED`]
    /// when there is none). For an admitted-but-unstarted session this
    /// is its start offset (the `start()` sweep is the first service).
    next_fire_ns: u64,
    /// Global time of the session's local zero (its start offset).
    offset_ns: u64,
    /// Global time past which the session's events are dropped
    /// (an isolated `run_until` would have left them unprocessed).
    end_ns: u64,
    /// Slot reuse guard: bumped on retire, checked on handle use.
    epoch: u32,
    /// Whether the `start()` sweep has run.
    started: bool,
    /// Slot occupancy.
    live: bool,
}

/// Struct-of-arrays session state: index `i` of every column belongs to
/// the session in slot `i`. The scheduling-relevant state lives in the
/// dense [`HotSlot`] column; the cold side — engine cores (links, RNG,
/// counters), agent boxes, and the private queues — is only touched for
/// the one session being serviced.
#[derive(Default)]
struct SessionTable {
    /// Hot column: scanned every slice.
    hot: Vec<HotSlot>,
    /// Per-session private event queues (`None` for dead slots — the
    /// queue leaves with the retiring session's [`WorldSalvage`]).
    queues: Vec<Option<EventQueue>>,
    /// Per-session engine state (clock, links, RNG, counters).
    cores: Vec<SessionCore>,
    /// Per-session agent columns.
    agents: Vec<Vec<Option<Box<dyn Agent>>>>,
    /// Free slots, reused LIFO.
    free: Vec<u32>,
}

/// Read-only view of one live session inside a [`MegaEngine`], for stats
/// extraction after a run — the megasession analogue of the accessor
/// surface on [`World`].
pub struct MegaSessionView<'a> {
    core: &'a SessionCore,
    agents: &'a [Option<Box<dyn Agent>>],
}

impl MegaSessionView<'_> {
    /// Typed view of an agent (e.g. to pull stats after a run).
    pub fn agent<T: 'static>(&self, id: AgentId) -> Option<&T> {
        self.agents.get(id)?.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Counters of a link.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.core.links[link].stats
    }

    /// Current configuration of a link.
    pub fn link_config(&self, link: LinkId) -> LinkConfig {
        self.core.links[link].cfg
    }

    /// Events dispatched for this session so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }
}

/// Multiplexes many sessions on one engine. See the module docs for the
/// layout, equivalence, and teardown story.
pub struct MegaEngine {
    /// Global clock (nanoseconds). Session-local time is
    /// `now_ns - hot[slot].offset_ns`.
    now_ns: u64,
    table: SessionTable,
    /// Service quantum in simulated nanoseconds (see [`DEFAULT_SLICE_NS`]
    /// and [`MegaEngine::set_service_slice`]).
    slice_ns: u64,
    /// Per-session queue reserve applied at [`MegaEngine::add_world`]
    /// (set by [`MegaEngine::reserve`]) so wheel-slab/heap growth
    /// happens at admission, never mid-slice.
    events_hint: usize,
    /// Events dropped unprocessed when their session retired.
    token_recycles: u64,
    /// Live sessions.
    live_count: usize,
}

impl MegaEngine {
    /// New empty engine. Each admitted session keeps the event queue of
    /// the world it was built in (see [`MegaEngine::add_world`]).
    pub fn new() -> Self {
        MegaEngine {
            now_ns: 0,
            table: SessionTable::default(),
            slice_ns: DEFAULT_SLICE_NS,
            events_hint: 0,
            token_recycles: 0,
            live_count: 0,
        }
    }

    /// Current global simulation time (seconds).
    pub fn now(&self) -> f64 {
        ns_to_secs(self.now_ns)
    }

    /// Set the service quantum: how much *simulated* time one session is
    /// run before the engine re-scans for the globally earliest session.
    /// Purely a batching knob — any positive value (and the `0.0`
    /// degenerate case, one timestamp per slice) yields bit-identical
    /// trajectories, because no state crosses sessions; larger slices
    /// buy locality, smaller ones interleave sessions more finely.
    pub fn set_service_slice(&mut self, slice_secs: f64) {
        assert!(slice_secs >= 0.0, "service slice must be non-negative");
        // `secs_to_ns` clamps non-finite input to 0 — for this knob that
        // would silently turn "run to completion" into "one timestamp per
        // slice", the opposite extreme.
        self.slice_ns = if slice_secs.is_infinite() {
            u64::MAX
        } else {
            secs_to_ns(slice_secs)
        };
    }

    /// Events dropped unprocessed at retire: timers and packets a
    /// retired session still had pending (typically armed past its own
    /// end — an isolated `run_until` would have left them unprocessed
    /// too). The megasession analogue of lazy timer cancellation.
    pub fn token_recycles(&self) -> u64 {
        self.token_recycles
    }

    /// Live (admitted, not retired) sessions.
    pub fn sessions_live(&self) -> usize {
        self.live_count
    }

    /// Pre-size the session table for `sessions` more sessions, and
    /// remember `events_hint` (total, split evenly) as the per-session
    /// queue reserve applied when worlds are admitted — so wheel-slab /
    /// heap growth happens at admission, never mid-slice.
    pub fn reserve(&mut self, sessions: usize, events_hint: usize) {
        self.table.hot.reserve(sessions);
        self.table.queues.reserve(sessions);
        self.table.cores.reserve(sessions);
        self.table.agents.reserve(sessions);
        self.events_hint = self.events_hint.max(events_hint / sessions.max(1));
    }

    /// Absorb an unstarted [`World`] as a new session that starts (agents'
    /// `start()` callbacks) at global time `start_at` seconds — its local
    /// clock runs from zero there — and stops processing events
    /// `duration` simulated seconds later, exactly like an isolated
    /// `world.run_until(duration)`.
    ///
    /// The world's own queue must be empty (nothing schedules before
    /// start); it becomes the session's private queue and is handed back
    /// with the session's [`WorldSalvage`] at retire. Slots of retired
    /// sessions are reused LIFO.
    pub fn add_world(&mut self, world: World, start_at: f64, duration: f64) -> SessionId {
        let start_ns = secs_to_ns(start_at);
        assert!(
            start_ns >= self.now_ns,
            "session start {start_at}s precedes engine time {}s",
            self.now()
        );
        assert!(!world.started, "absorbed world must be unstarted");
        assert!(
            world.queue.is_empty(),
            "absorbed world must have an empty event queue"
        );
        let World {
            core,
            mut queue,
            agents,
            ..
        } = world;
        if self.events_hint > 0 {
            queue.reserve(self.events_hint);
        }
        let end_ns = start_ns.saturating_add(secs_to_ns(duration.max(0.0)));
        let slot = match self.table.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                let epoch = self.table.hot[i].epoch;
                self.table.hot[i] = HotSlot {
                    next_fire_ns: start_ns,
                    offset_ns: start_ns,
                    end_ns,
                    epoch,
                    started: false,
                    live: true,
                };
                self.table.queues[i] = Some(queue);
                self.table.cores[i] = core;
                self.table.agents[i] = agents;
                slot
            }
            None => {
                let slot = u32::try_from(self.table.hot.len()).expect("session table overflow");
                self.table.hot.push(HotSlot {
                    next_fire_ns: start_ns,
                    offset_ns: start_ns,
                    end_ns,
                    epoch: 0,
                    started: false,
                    live: true,
                });
                self.table.queues.push(Some(queue));
                self.table.cores.push(core);
                self.table.agents.push(agents);
                slot
            }
        };
        self.live_count += 1;
        laqa_obs::gauge!("mega.sessions_live").set(self.live_count as f64);
        SessionId {
            slot,
            epoch: self.table.hot[slot as usize].epoch,
        }
    }

    /// Read-only view of a live session for stats extraction.
    ///
    /// # Panics
    /// On a stale (already-retired slot) handle.
    pub fn session(&self, sid: SessionId) -> MegaSessionView<'_> {
        let i = sid.slot as usize;
        assert!(
            self.table.hot[i].live && self.table.hot[i].epoch == sid.epoch,
            "stale session handle: slot {} epoch {}",
            sid.slot,
            sid.epoch
        );
        MegaSessionView {
            core: &self.table.cores[i],
            agents: &self.table.agents[i],
        }
    }

    /// Retire a session, freeing its slot for reuse and returning its
    /// engine storage as a [`WorldSalvage`] — including its private
    /// queue (reset, capacity intact) — so warm pools recycle exactly
    /// what a solo [`World::salvage`] would have handed back. Events the
    /// session still had pending are dropped here and counted as token
    /// recycles.
    pub fn retire(&mut self, sid: SessionId) -> WorldSalvage {
        let i = sid.slot as usize;
        assert!(
            self.table.hot[i].live && self.table.hot[i].epoch == sid.epoch,
            "retire of a dead or recycled session: slot {} epoch {}",
            sid.slot,
            sid.epoch
        );
        let hot = &mut self.table.hot[i];
        hot.epoch = hot.epoch.wrapping_add(1);
        hot.live = false;
        hot.next_fire_ns = PARKED;
        self.table.free.push(sid.slot);
        self.live_count -= 1;
        laqa_obs::gauge!("mega.sessions_live").set(self.live_count as f64);

        let mut queue = self.table.queues[i].take().expect("live slot has a queue");
        let dropped = queue.len() as u64;
        if dropped > 0 {
            self.token_recycles += dropped;
            laqa_obs::counter!("mega.token_recycles").add(dropped);
        }
        queue.reset();
        let core = std::mem::replace(&mut self.table.cores[i], SessionCore::fresh(0));
        let mut agents = std::mem::take(&mut self.table.agents[i]);
        agents.clear();
        // Mirror World::salvage: link shells move to the spare pool in
        // creation order, the emptied links vector keeps its capacity.
        let SessionCore {
            mut links,
            mut spare_links,
            ..
        } = core;
        spare_links.clear();
        spare_links.append(&mut links);
        WorldSalvage {
            queue,
            links,
            spare_links,
            agents,
        }
    }

    /// Run every session's events up to *global* time `t_end` seconds
    /// (events at exactly `t_end` are processed, as in
    /// [`World::run_until`]). Service is sliced: the session with the
    /// globally earliest pending event runs for up to `slice_ns` of
    /// simulated time on its own queue, then the scan repeats. Sessions
    /// whose remaining events all lie past their own end are parked
    /// unprocessed, exactly as an isolated `run_until(duration)` would
    /// leave them.
    pub fn run_until(&mut self, t_end: f64) {
        let end_ns = secs_to_ns(t_end);
        loop {
            // Min-scan over the hot column: earliest due session wins,
            // ties broken by lowest slot (deterministic, and irrelevant
            // to results — sessions share no state).
            let mut best = usize::MAX;
            let mut best_ns = PARKED;
            for (i, h) in self.table.hot.iter().enumerate() {
                if h.next_fire_ns < best_ns {
                    best_ns = h.next_fire_ns;
                    best = i;
                }
            }
            if best == usize::MAX || best_ns > end_ns {
                break;
            }
            self.service_slice(best, best_ns, end_ns);
        }
        self.now_ns = self.now_ns.max(end_ns);
        // Sessions that outlived their own end keep their local clock at
        // the last dispatched event; pin it to the session end the way a
        // solo run_until pins `now` to its bound.
        for (i, h) in self.table.hot.iter().enumerate() {
            if h.live {
                let bound = h.end_ns.min(self.now_ns);
                let local_bound = bound.saturating_sub(h.offset_ns);
                let core = &mut self.table.cores[i];
                core.now_ns = core.now_ns.max(local_bound);
            }
        }
    }

    /// Service session `i` from its earliest pending event at global
    /// `fire_ns` up to `min(run bound, session end, fire + slice)`,
    /// entirely on its own queue, then refresh its hot-column fire time.
    fn service_slice(&mut self, i: usize, fire_ns: u64, end_ns: u64) {
        let hot = &mut self.table.hot[i];
        if fire_ns > hot.end_ns {
            // Everything left is past this session's end: an isolated
            // world's run_until(duration) would have stopped here with
            // those events unprocessed. Park until retire.
            hot.next_fire_ns = PARKED;
            return;
        }
        let bound_ns = end_ns.min(hot.end_ns).min(fire_ns.saturating_add(self.slice_ns));
        let offset_ns = hot.offset_ns;
        let local_bound = bound_ns - offset_ns;
        let core = &mut self.table.cores[i];
        let agents = &mut self.table.agents[i];
        let queue = self.table.queues[i].as_mut().expect("live slot has a queue");
        let flight = laqa_obs::flight::enabled();
        if flight {
            // Timeline records from these dispatches (QA transitions,
            // timer fires, ...) land on the session's own track.
            laqa_obs::flight::set_session(core.flight_id);
        }
        if !hot.started {
            // The solo engine's lazy start, at the session's offset: one
            // start() sweep over the agent column, local clock at zero.
            // Not counted in events_processed (World::ensure_started
            // doesn't count either).
            hot.started = true;
            core.now_ns = 0;
            start_agents(agents, core, queue);
        }
        let obs = laqa_obs::enabled();
        let mut serviced = 0u64;
        while let Some((time_ns, _, event)) = queue.pop_next_at_or_before(local_bound) {
            core.now_ns = time_ns;
            core.events_processed += 1;
            serviced += 1;
            let timed = obs.then(std::time::Instant::now);
            dispatch_event(core, agents, queue, event);
            if let Some(t0) = timed {
                laqa_obs::histogram!("mega.session_event_ns", laqa_obs::LOG_NS_BOUNDS)
                    .observe(t0.elapsed().as_nanos() as f64);
            }
        }
        if obs {
            // Batch shape: events serviced per slice (was: events per
            // shared-queue timestamp before the per-session-queue
            // layout, hence the much larger ladder).
            laqa_obs::histogram!(
                "mega.batch_size",
                &[1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0]
            )
            .observe(serviced as f64);
        }
        if flight {
            // Slice dispatches belong to the engine, not any one
            // session; their order reflects executor scheduling (see
            // the flight module docs on HOST_TRACK).
            laqa_obs::flight::set_session(laqa_obs::flight::HOST_TRACK);
            laqa_obs::flight::instant("mega.batch", ns_to_secs(fire_ns), serviced as f64);
        }
        hot.next_fire_ns = match queue.peek_next() {
            Some((local_ns, _)) => {
                let global_ns = local_ns.saturating_add(offset_ns);
                if global_ns > hot.end_ns {
                    PARKED
                } else {
                    global_ns
                }
            }
            None => PARKED,
        };
    }
}

impl Default for MegaEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketKind, Route};
    use crate::Ctx;
    use std::any::Any;

    /// Sends `count` packets to `peer` at `interval`, starting at t=0.
    struct Pinger {
        peer: AgentId,
        route: Route,
        count: u32,
        interval: f64,
        sent: u32,
    }
    /// Records `(time, uid)` arrivals.
    struct Sink {
        arrivals: Vec<(f64, u64)>,
    }

    impl Agent for Pinger {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer_at(0.0, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            if self.sent >= self.count {
                return;
            }
            let uid = ctx.alloc_uid();
            ctx.send(Packet {
                uid,
                flow: 1,
                size: 1_000,
                kind: PacketKind::Cbr,
                dst: self.peer,
                route: self.route.clone(),
                hop: 0,
                sent_at: ctx.now,
            });
            self.sent += 1;
            ctx.set_timer_after(self.interval, 0);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    impl Agent for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            self.arrivals.push((ctx.now, pkt.uid));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A two-agent ping world whose trajectory depends on the seed (loss
    /// draws) — enough signal to detect any cross-session bleed.
    fn ping_world(seed: u64, count: u32) -> (World, AgentId) {
        let mut w = World::new(seed);
        let l = w.add_link(LinkConfig {
            bandwidth: 80_000.0,
            delay: 0.004,
            queue_packets: 4,
            loss_rate: 0.1,
            ..LinkConfig::default()
        });
        let sink = w.add_agent(Box::new(Sink { arrivals: vec![] }));
        let _src = w.add_agent(Box::new(Pinger {
            peer: sink,
            route: vec![l].into(),
            count,
            interval: 0.017,
            sent: 0,
        }));
        (w, sink)
    }

    fn solo_arrivals(seed: u64, count: u32, duration: f64) -> Vec<(f64, u64)> {
        let (mut w, sink) = ping_world(seed, count);
        w.run_until(duration);
        w.agent::<Sink>(sink).unwrap().arrivals.clone()
    }

    #[test]
    fn multiplexed_sessions_match_isolated_runs() {
        let mut engine = MegaEngine::new();
        let mut sids = Vec::new();
        for seed in [3u64, 7, 11, 42] {
            let (w, sink) = ping_world(seed, 40);
            sids.push((seed, engine.add_world(w, 0.0, 2.0), sink));
        }
        engine.run_until(2.0);
        for &(seed, sid, sink) in &sids {
            let mega = engine
                .session(sid)
                .agent::<Sink>(sink)
                .unwrap()
                .arrivals
                .clone();
            assert_eq!(
                mega,
                solo_arrivals(seed, 40, 2.0),
                "seed {seed} diverged under multiplexing"
            );
        }
    }

    #[test]
    fn slice_length_is_unobservable() {
        // The batching knob must be pure wall-clock tuning: the 0-length
        // degenerate slice (one timestamp per service), a tiny 1 ms
        // slice, and an infinite slice (run each session to the bound in
        // one go) all reproduce the isolated trajectories.
        for slice in [0.0, 0.001, f64::INFINITY] {
            let mut engine = MegaEngine::new();
            engine.set_service_slice(slice);
            let mut sids = Vec::new();
            for seed in [3u64, 7, 11] {
                let (w, sink) = ping_world(seed, 40);
                sids.push((seed, engine.add_world(w, 0.0, 2.0), sink));
            }
            engine.run_until(2.0);
            for &(seed, sid, sink) in &sids {
                let mega = engine
                    .session(sid)
                    .agent::<Sink>(sink)
                    .unwrap()
                    .arrivals
                    .clone();
                assert_eq!(
                    mega,
                    solo_arrivals(seed, 40, 2.0),
                    "seed {seed} diverged under slice {slice}"
                );
            }
        }
    }

    #[test]
    fn staggered_starts_run_in_local_time() {
        // The same seed started at three different global offsets must
        // produce identical local-time trajectories.
        let mut engine = MegaEngine::new();
        let mut sids = Vec::new();
        for (k, offset) in [0.0, 0.35, 1.2].into_iter().enumerate() {
            let (w, sink) = ping_world(9, 25);
            sids.push((k, offset, engine.add_world(w, offset, 1.5), sink));
        }
        engine.run_until(3.0);
        let reference = solo_arrivals(9, 25, 1.5);
        for &(k, offset, sid, sink) in &sids {
            let got = engine
                .session(sid)
                .agent::<Sink>(sink)
                .unwrap()
                .arrivals
                .clone();
            assert_eq!(got, reference, "offset {offset} (session {k}) diverged");
        }
    }

    #[test]
    fn retire_returns_salvage_and_frees_slot() {
        let mut engine = MegaEngine::new();
        let (w, sink) = ping_world(5, 10);
        let sid = engine.add_world(w, 0.0, 1.0);
        assert_eq!(engine.sessions_live(), 1);
        engine.run_until(1.0);
        let arrivals = engine
            .session(sid)
            .agent::<Sink>(sink)
            .unwrap()
            .arrivals
            .len();
        assert!(arrivals > 0);
        let salvage = engine.retire(sid);
        assert_eq!(engine.sessions_live(), 0);
        // The salvage is usable for a warm solo world.
        let mut w2 = World::with_salvage(5, salvage);
        assert_eq!(w2.events_processed(), 0);
        w2.run_until(0.1);
    }

    #[test]
    fn stale_tokens_from_freed_sessions_never_reach_reused_slots() {
        // Session A is retired mid-run with timers and packets still
        // pending in its queue; session B immediately reuses its slot.
        // A's unprocessed events must be dropped (counted as token
        // recycles) and B's trajectory must stay bit-identical to an
        // isolated run — nothing of A may leak through the slot.
        let mut engine = MegaEngine::new();
        let (wa, _) = ping_world(21, 1_000);
        let sid_a = engine.add_world(wa, 0.0, 10.0);
        engine.run_until(0.5);
        let _ = engine.retire(sid_a);

        let (wb, sink_b) = ping_world(33, 30);
        let sid_b = engine.add_world(wb, engine.now(), 2.0);
        assert_eq!(
            sid_b.slot(),
            sid_a.slot(),
            "slot must be reused for the guard to be exercised"
        );
        engine.run_until(engine.now() + 2.0);

        assert!(
            engine.token_recycles() > 0,
            "retiring mid-run must drop the session's pending events"
        );
        let got = engine
            .session(sid_b)
            .agent::<Sink>(sink_b)
            .unwrap()
            .arrivals
            .clone();
        assert_eq!(
            got,
            solo_arrivals(33, 30, 2.0),
            "reused slot inherited state from the retired session"
        );
    }

    #[test]
    fn stale_session_handle_is_rejected() {
        let mut engine = MegaEngine::new();
        let (wa, _) = ping_world(21, 10);
        let sid_a = engine.add_world(wa, 0.0, 1.0);
        engine.run_until(1.0);
        let _ = engine.retire(sid_a);
        let (wb, _) = ping_world(33, 10);
        let sid_b = engine.add_world(wb, engine.now(), 1.0);
        assert_eq!(sid_b.slot(), sid_a.slot(), "slot must be reused");
        assert_ne!(sid_a, sid_b, "epoch bump must invalidate the old handle");
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = engine.session(sid_a);
        }));
        assert!(stale.is_err(), "stale handle must be rejected");
    }

    #[test]
    fn session_past_its_end_stops_processing() {
        // One long and one short session: the short one's agents must see
        // nothing after its own end even though the engine runs on.
        let mut engine = MegaEngine::new();
        let (w_short, sink_s) = ping_world(2, 1_000);
        let (w_long, sink_l) = ping_world(4, 1_000);
        let sid_s = engine.add_world(w_short, 0.0, 0.5);
        let sid_l = engine.add_world(w_long, 0.0, 2.0);
        engine.run_until(2.0);
        let short = engine
            .session(sid_s)
            .agent::<Sink>(sink_s)
            .unwrap()
            .arrivals
            .clone();
        assert_eq!(short, solo_arrivals(2, 1_000, 0.5));
        let long = engine
            .session(sid_l)
            .agent::<Sink>(sink_l)
            .unwrap()
            .arrivals
            .clone();
        assert_eq!(long, solo_arrivals(4, 1_000, 2.0));
    }

    #[test]
    fn reserve_is_inert() {
        let run = |reserve: bool| {
            let mut engine = MegaEngine::new();
            if reserve {
                engine.reserve(64, 4096);
            }
            let (w, sink) = ping_world(13, 20);
            let sid = engine.add_world(w, 0.0, 1.0);
            engine.run_until(1.0);
            (
                engine.session(sid).events_processed(),
                engine
                    .session(sid)
                    .agent::<Sink>(sink)
                    .unwrap()
                    .arrivals
                    .clone(),
            )
        };
        assert_eq!(run(true), run(false), "reserve changed the trajectory");
    }
}
