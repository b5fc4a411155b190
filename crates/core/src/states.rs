//! The sequence of optimal buffer states traversed during filling and
//! draining (§4.1, figures 8–10).
//!
//! For every `k = 1..=k_horizon` and both scenarios we get an optimal buffer
//! state — a total requirement and a per-layer split. The filling phase
//! walks these states in increasing order of total buffering, always working
//! toward the next one; the draining phase walks the same path backwards.
//!
//! Sorting by total alone is not enough: moving from one state to the next
//! may then require *draining* a layer that the previous state had filled
//! (the paper shows `{S2,k=2} → {S1,k=2}` draining L2, and `{S1,k=4} →
//! {S2,k=3}` draining L3 for its figure-9 parameters). Because buffered data
//! for a higher layer can substitute for missing lower-layer buffer (but not
//! vice versa), the paper constrains the per-layer targets so that both the
//! total and every per-layer amount increase monotonically along the path
//! (figure 10). We realize that constraint as a running per-layer maximum
//! over the sorted sequence, which is exactly "no less than every earlier
//! state" and keeps the path drain-free; the pre-clamp targets are kept
//! available for the ablation benchmarks.

use crate::scenario::{min_backoffs_below_with, per_layer_into_with, Scenario};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// One optimal buffer state `(scenario, k)` with its per-layer targets.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BufferState {
    /// Which extremal loss pattern this state protects against.
    pub scenario: Scenario,
    /// Number of backoffs survived.
    pub k: u32,
    /// Raw per-layer optimal allocation (bytes, index 0 = base), before the
    /// monotonicity clamp.
    pub raw_per_layer: Vec<f64>,
    /// Per-layer targets after the figure-10 monotonicity constraint.
    pub per_layer: Vec<f64>,
}

impl BufferState {
    /// Total buffering of the *raw* optimal allocation.
    pub fn raw_total(&self) -> f64 {
        self.raw_per_layer.iter().sum()
    }

    /// Total buffering of the clamped targets (≥ `raw_total`).
    pub fn total(&self) -> f64 {
        self.per_layer.iter().sum()
    }

    /// True when `bufs` meets every per-layer target within `eps` bytes.
    pub fn satisfied_by(&self, bufs: &[f64], eps: f64) -> bool {
        self.per_layer
            .iter()
            .zip(bufs.iter().chain(std::iter::repeat(&0.0)))
            .all(|(target, have)| have + eps >= *target)
    }
}

/// The ordered, monotone path of buffer states for a given operating point.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StateSequence {
    /// Transmission rate (bytes/s) the sequence was computed for — the rate
    /// from which the hypothetical backoffs occur.
    pub rate: f64,
    /// Number of active layers.
    pub n_active: usize,
    /// Per-layer consumption rate `C`.
    pub layer_rate: f64,
    /// Additive-increase slope `S`.
    pub slope: f64,
    /// `k₁` for this operating point.
    pub k1: u32,
    /// States in increasing order of total required buffering, after the
    /// monotonicity clamp. Never empty for `n_active ≥ 1` and `k_horizon ≥ 1`.
    pub states: Vec<BufferState>,
}

impl StateSequence {
    /// Build the sequence for backoff counts `1..=k_horizon`.
    ///
    /// States with zero requirement (fewer than `k₁` backoffs) and duplicate
    /// `(S1,k₁) == (S2,k₁)` states are pruned. The result is sorted by raw
    /// total with Scenario 1 first on ties (its taller-triangle distribution
    /// can stand in for the Scenario 2 one of equal total, §4), then the
    /// running per-layer maximum is applied.
    pub fn build(rate: f64, n_active: usize, layer_rate: f64, slope: f64, k_horizon: u32) -> Self {
        Self::build_with(rate, n_active, layer_rate, slope, k_horizon, 0.5)
    }

    /// [`build`](Self::build) generalized to an arbitrary multiplicative
    /// decrease factor (bit-identical at `0.5`, the AIMD halving).
    pub fn build_with(
        rate: f64,
        n_active: usize,
        layer_rate: f64,
        slope: f64,
        k_horizon: u32,
        decrease_factor: f64,
    ) -> Self {
        let mut seq = StateSequence::default();
        seq.rebuild_with(rate, n_active, layer_rate, slope, k_horizon, decrease_factor);
        seq
    }

    /// Recompute the sequence in place for a new operating point, recycling
    /// the previous contents' allocations. Produces exactly the same value
    /// as [`build`](Self::build) with the same arguments; the point is that
    /// a caller ticking every period (the QA controller) reuses the state
    /// and per-layer vectors instead of reallocating ~2 `Vec`s per state
    /// per tick.
    pub fn rebuild(
        &mut self,
        rate: f64,
        n_active: usize,
        layer_rate: f64,
        slope: f64,
        k_horizon: u32,
    ) {
        self.rebuild_with(rate, n_active, layer_rate, slope, k_horizon, 0.5);
    }

    /// [`rebuild`](Self::rebuild) generalized to an arbitrary multiplicative
    /// decrease factor (bit-identical at `0.5`, the AIMD halving).
    pub fn rebuild_with(
        &mut self,
        rate: f64,
        n_active: usize,
        layer_rate: f64,
        slope: f64,
        k_horizon: u32,
        decrease_factor: f64,
    ) {
        let consumption = n_active as f64 * layer_rate;
        let k1 = if consumption > 0.0 {
            min_backoffs_below_with(rate, consumption, decrease_factor)
        } else {
            1
        };
        // Recycle every vector the previous contents owned.
        let mut pool: Vec<Vec<f64>> = Vec::with_capacity(2 * self.states.len() + 1);
        for st in self.states.drain(..) {
            pool.push(st.raw_per_layer);
            pool.push(st.per_layer);
        }
        let mut tmp = pool.pop().unwrap_or_default();
        for k in 1..=k_horizon {
            for &scenario in &Scenario::ALL {
                if scenario == Scenario::Two && k <= k1 {
                    // Identical to Scenario 1 with k = k1; skip duplicates.
                    continue;
                }
                let mut raw = pool.pop().unwrap_or_default();
                per_layer_into_with(
                    scenario,
                    k,
                    rate,
                    n_active,
                    layer_rate,
                    slope,
                    decrease_factor,
                    &mut raw,
                    &mut tmp,
                );
                if raw.iter().sum::<f64>() <= 0.0 {
                    pool.push(raw);
                    continue; // k < k1: no draining phase, nothing to protect.
                }
                let mut clamped = pool.pop().unwrap_or_default();
                clamped.clear();
                clamped.extend_from_slice(&raw);
                self.states.push(BufferState {
                    scenario,
                    k,
                    per_layer: clamped,
                    raw_per_layer: raw,
                });
            }
        }
        self.states.sort_by(|a, b| {
            a.raw_total()
                .partial_cmp(&b.raw_total())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    // Scenario 1 first on equal totals.
                    let rank = |s: &BufferState| match s.scenario {
                        Scenario::One => 0,
                        Scenario::Two => 1,
                    };
                    rank(a).cmp(&rank(b))
                })
        });
        // Figure-10 monotonicity: running per-layer maximum.
        tmp.clear();
        tmp.resize(n_active, 0.0);
        for state in &mut self.states {
            for (target, run) in state.per_layer.iter_mut().zip(tmp.iter_mut()) {
                if *target < *run {
                    *target = *run;
                } else {
                    *run = *target;
                }
            }
        }
        self.rate = rate;
        self.n_active = n_active;
        self.layer_rate = layer_rate;
        self.slope = slope;
        self.k1 = k1;
    }

    /// Overwrite `self` with a copy of `src`, recycling every vector `self`
    /// already owns. Equivalent to `self.clone_from(src)` except that no
    /// allocation happens once `self` has the capacity. (The
    /// [`GeometryCache`] hit path used to restore sequences this way; it
    /// now rehydrates from flattened `CachedSeq` entries, but this remains
    /// the allocation-free way to copy one live sequence into another.)
    pub fn copy_from(&mut self, src: &StateSequence) {
        self.rate = src.rate;
        self.n_active = src.n_active;
        self.layer_rate = src.layer_rate;
        self.slope = src.slope;
        self.k1 = src.k1;
        self.states.truncate(src.states.len());
        let copied = self.states.len();
        for (dst, s) in self.states.iter_mut().zip(src.states.iter()) {
            dst.scenario = s.scenario;
            dst.k = s.k;
            dst.raw_per_layer.clear();
            dst.raw_per_layer.extend_from_slice(&s.raw_per_layer);
            dst.per_layer.clear();
            dst.per_layer.extend_from_slice(&s.per_layer);
        }
        self.states.extend(src.states.iter().skip(copied).cloned());
    }

    /// Index of the first state not yet satisfied by `bufs`, or `None` when
    /// every state on the path is satisfied.
    pub fn first_unsatisfied(&self, bufs: &[f64], eps: f64) -> Option<usize> {
        self.states.iter().position(|s| !s.satisfied_by(bufs, eps))
    }

    /// Index of the last (largest) state fully satisfied by `bufs`, or
    /// `None` when not even the first state is satisfied.
    pub fn last_satisfied(&self, bufs: &[f64], eps: f64) -> Option<usize> {
        match self.first_unsatisfied(bufs, eps) {
            Some(0) => None,
            Some(i) => Some(i - 1),
            None => self.states.len().checked_sub(1),
        }
    }

    /// True when `bufs` satisfies every state with `k ≤ k_max` (the §3.1
    /// smoothing condition for adding a layer).
    pub fn satisfied_up_to_k(&self, bufs: &[f64], k_max: u32, eps: f64) -> bool {
        self.states
            .iter()
            .filter(|s| s.k <= k_max)
            .all(|s| s.satisfied_by(bufs, eps))
    }

    /// The §3.1 smoothing condition evaluated against a *post-add* path:
    /// for every state with `k ≤ k_max`, the first `existing` layers' shares
    /// must be covered in aggregate, and the base layer's share must be
    /// covered individually. The aggregate form reflects §4.2 substitution —
    /// buffered data for a higher layer can stand in for a lower one — and
    /// keeps the requirement reachable (the filling allocator parks leftover
    /// rate in the base, not in upper layers). The base share is demanded
    /// per-layer because nothing can substitute for it or refill it quickly
    /// once the add lands and consumption jumps by a whole `C`. The
    /// candidate layer's own share is excluded: it cannot have buffered
    /// anything before it starts.
    pub fn satisfied_up_to_k_post_add(
        &self,
        bufs: &[f64],
        k_max: u32,
        eps: f64,
        existing: usize,
    ) -> bool {
        let have_base = bufs.first().copied().unwrap_or(0.0);
        let have_total: f64 = bufs.iter().take(existing).map(|b| b.max(0.0)).sum();
        self.states.iter().filter(|s| s.k <= k_max).all(|s| {
            let want_base = s.per_layer.first().copied().unwrap_or(0.0);
            let want_total: f64 = s.per_layer.iter().take(existing).sum();
            have_base + eps >= want_base && have_total + eps >= want_total
        })
    }
}

/// Exact operating-point key of a [`StateSequence`] derivation. Floats
/// enter via their bit patterns, so a hit can only ever return a sequence
/// that `rebuild` with the same arguments would have produced bit for bit
/// — memoization is value-transparent by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GeoKey {
    rate_bits: u64,
    n_active: usize,
    layer_rate_bits: u64,
    slope_bits: u64,
    k_horizon: u32,
    decrease_factor_bits: u64,
}

/// Flattened copy of a derived [`StateSequence`] as stored in one memo
/// slot: per-state metadata plus one contiguous buffer holding every
/// state's raw and clamped per-layer targets — two buffers per entry, where
/// cloning the full `StateSequence` would pin two fresh `Vec`s per state
/// (the `warm_alloc` budgets gate the difference). When the memo evicts a
/// key, the slot's entry is refilled in place
/// ([`fill_from`](Self::fill_from)), so both buffers are reused and only
/// grow when a longer sequence than the slot ever held arrives.
#[derive(Debug, Default)]
struct CachedSeq {
    rate: f64,
    n_active: usize,
    layer_rate: f64,
    slope: f64,
    k1: u32,
    /// `(scenario, k)` per state, in sequence order.
    meta: Vec<(Scenario, u32)>,
    /// `2 * n_active` floats per state: raw targets, then clamped.
    flat: Vec<f64>,
}

impl CachedSeq {
    /// Overwrite this entry with `seq`, recycling `meta` and `flat`.
    fn fill_from(&mut self, seq: &StateSequence) {
        let n = seq.n_active;
        self.rate = seq.rate;
        self.n_active = n;
        self.layer_rate = seq.layer_rate;
        self.slope = seq.slope;
        self.k1 = seq.k1;
        self.meta.clear();
        self.flat.clear();
        // Exact, so a slot's buffers end at the largest sequence it held.
        self.meta.reserve_exact(seq.states.len());
        self.flat.reserve_exact(2 * n * seq.states.len());
        for st in &seq.states {
            debug_assert_eq!(st.raw_per_layer.len(), n);
            debug_assert_eq!(st.per_layer.len(), n);
            self.meta.push((st.scenario, st.k));
            self.flat.extend_from_slice(&st.raw_per_layer);
            self.flat.extend_from_slice(&st.per_layer);
        }
    }

    /// Overwrite `seq` with this entry's contents, recycling the vectors
    /// `seq` already owns — the exact floats [`StateSequence::copy_from`]
    /// of the original would have written.
    fn write_into(&self, seq: &mut StateSequence) {
        seq.rate = self.rate;
        seq.n_active = self.n_active;
        seq.layer_rate = self.layer_rate;
        seq.slope = self.slope;
        seq.k1 = self.k1;
        seq.states.truncate(self.meta.len());
        while seq.states.len() < self.meta.len() {
            seq.states.push(BufferState {
                scenario: Scenario::One,
                k: 0,
                raw_per_layer: Vec::new(),
                per_layer: Vec::new(),
            });
        }
        let n = self.n_active;
        for (i, (st, &(scenario, k))) in seq.states.iter_mut().zip(&self.meta).enumerate() {
            let base = 2 * n * i;
            st.scenario = scenario;
            st.k = k;
            st.raw_per_layer.clear();
            st.raw_per_layer.extend_from_slice(&self.flat[base..base + n]);
            st.per_layer.clear();
            st.per_layer.extend_from_slice(&self.flat[base + n..base + 2 * n]);
        }
    }
}

/// One memo slot: the key it currently holds, its cached sequence, and
/// the CLOCK reference bit.
#[derive(Debug)]
struct Slot {
    key: GeoKey,
    /// Set by every hit, cleared when the hand sweeps past: a slot hit
    /// since the hand last passed it gets a second chance.
    referenced: bool,
    seq: CachedSeq,
}

/// Bounded memo cache for [`StateSequence`] derivations, keyed by the
/// exact operating point `(rate, n_active, C, S, k_horizon, factor)`.
///
/// Grid sweeps re-derive identical sequences whenever two sessions (or two
/// ticks) pass through the same operating point — replayed cells hit on
/// every tick, first-run cells on repeated rates (rate caps, pre-start
/// defaults, drain plateaus). One cache is meant to be shared per campaign
/// *worker* (wrapped in `Arc<Mutex<_>>`, see [`SharedGeometryCache`]) and
/// live as long as the worker's world pool.
///
/// The memo holds at most [`MAX_ENTRIES`](Self::MAX_ENTRIES) slots and
/// evicts with CLOCK (second chance): a hit sets the slot's reference bit;
/// once the memo is full, each admission advances the hand past referenced
/// slots (clearing their bits) and evicts the first unreferenced one. The
/// newcomer is refilled into the victim's buffers in place, so steady-state
/// admissions do not allocate and the footprint stays near 130 KB however
/// many operating points a worker's sessions visit
/// (`crates/bench/tests/memo_footprint.rs` gates it). The bound matters
/// because a worker keeps its memo for life, so every byte it retains is
/// charged to each session the worker runs.
#[derive(Debug, Default)]
pub struct GeometryCache {
    /// Key → index into `slots`.
    index: HashMap<GeoKey, usize>,
    /// Cached sequences; grows to `MAX_ENTRIES`, then is refilled in place.
    slots: Vec<Slot>,
    /// CLOCK hand: the next slot the eviction sweep examines.
    hand: usize,
    /// Two-touch admission filter: keys missed exactly once so far. A
    /// sequence is copied into a slot only on its *second* miss — an
    /// operating point seen once and never again (seed-dependent transient
    /// rates make up most of a session's misses) costs one `HashSet` entry
    /// and never evicts anything.
    seen_once: HashSet<GeoKey>,
    hits: u64,
    misses: u64,
}

/// Shared handle campaign workers hand to every [`crate::QaController`]
/// they build: `Mutex` (not `RefCell`) so controllers stay `Send`.
pub type SharedGeometryCache = Arc<Mutex<GeometryCache>>;

impl GeometryCache {
    /// Slots kept at most. Past this population every admission evicts
    /// one slot, chosen by the CLOCK hand.
    pub const MAX_ENTRIES: usize = 64;

    /// Admission-filter population cap. When the filter fills up it is
    /// cleared wholesale — repeat keys then need two fresh misses to be
    /// admitted, which only delays (never prevents) memoization of a
    /// genuinely recurring operating point.
    pub const MAX_SEEN_ONCE: usize = 4 * Self::MAX_ENTRIES;

    /// Fresh empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh shareable cache handle.
    pub fn shared() -> SharedGeometryCache {
        Arc::new(Mutex::new(Self::new()))
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Cached operating points (never more than [`Self::MAX_ENTRIES`]).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// [`StateSequence::rebuild`] through the memo: on a hit, `seq` is
    /// overwritten from the cached copy (recycling its allocations); on a
    /// miss it is rebuilt and, on the key's second miss, memoized. The
    /// value of `seq` afterwards is bit-identical to an uncached rebuild
    /// either way.
    pub fn rebuild_memoized(
        &mut self,
        seq: &mut StateSequence,
        rate: f64,
        n_active: usize,
        layer_rate: f64,
        slope: f64,
        k_horizon: u32,
    ) {
        self.rebuild_memoized_with(seq, rate, n_active, layer_rate, slope, k_horizon, 0.5);
    }

    /// [`rebuild_memoized`](Self::rebuild_memoized) generalized to an
    /// arbitrary decrease factor; the factor's bit pattern is part of the
    /// memo key so sessions with different controllers never share entries.
    #[allow(clippy::too_many_arguments)]
    pub fn rebuild_memoized_with(
        &mut self,
        seq: &mut StateSequence,
        rate: f64,
        n_active: usize,
        layer_rate: f64,
        slope: f64,
        k_horizon: u32,
        decrease_factor: f64,
    ) {
        let key = GeoKey {
            rate_bits: rate.to_bits(),
            n_active,
            layer_rate_bits: layer_rate.to_bits(),
            slope_bits: slope.to_bits(),
            k_horizon,
            decrease_factor_bits: decrease_factor.to_bits(),
        };
        if let Some(&i) = self.index.get(&key) {
            self.hits += 1;
            laqa_obs::counter!("qa.geometry_cache.hits").inc();
            let slot = &mut self.slots[i];
            slot.referenced = true;
            slot.seq.write_into(seq);
            return;
        }
        self.misses += 1;
        laqa_obs::counter!("qa.geometry_cache.misses").inc();
        seq.rebuild_with(rate, n_active, layer_rate, slope, k_horizon, decrease_factor);
        if self.seen_once.remove(&key) {
            self.admit(key, seq);
        } else {
            if self.seen_once.len() >= Self::MAX_SEEN_ONCE {
                self.seen_once.clear();
            }
            self.seen_once.insert(key);
        }
    }

    /// Memoize `seq` under `key`: into a fresh slot while the memo is
    /// below capacity, otherwise in place over the CLOCK victim.
    fn admit(&mut self, key: GeoKey, seq: &StateSequence) {
        laqa_obs::counter!("qa.geometry_cache.admissions").inc();
        let victim = if self.slots.len() < Self::MAX_ENTRIES {
            self.slots.push(Slot {
                key,
                referenced: false,
                seq: CachedSeq::default(),
            });
            self.slots.len() - 1
        } else {
            while self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand = (self.hand + 1) % self.slots.len();
            }
            let victim = self.hand;
            self.hand = (victim + 1) % self.slots.len();
            laqa_obs::counter!("qa.geometry_cache.evictions").inc();
            let slot = &mut self.slots[victim];
            self.index.remove(&slot.key);
            slot.key = key;
            victim
        };
        self.slots[victim].seq.fill_from(seq);
        self.index.insert(key, victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: f64 = 10_000.0;
    const S: f64 = 25_000.0;

    fn seq(rate: f64, n: usize, k: u32) -> StateSequence {
        StateSequence::build(rate, n, C, S, k)
    }

    #[test]
    fn sequence_sorted_by_raw_total() {
        let s = seq(40_000.0, 3, 5);
        for w in s.states.windows(2) {
            assert!(w[0].raw_total() <= w[1].raw_total() + 1e-9);
        }
        assert!(!s.states.is_empty());
    }

    #[test]
    fn clamped_targets_monotone_per_layer() {
        let s = seq(40_000.0, 4, 6);
        for w in s.states.windows(2) {
            for i in 0..4 {
                assert!(
                    w[0].per_layer[i] <= w[1].per_layer[i] + 1e-9,
                    "layer {i} not monotone: {:?} -> {:?}",
                    w[0].per_layer,
                    w[1].per_layer
                );
            }
        }
    }

    #[test]
    fn clamp_never_reduces_targets_below_raw() {
        let s = seq(70_000.0, 4, 6);
        for state in &s.states {
            for (t, r) in state.per_layer.iter().zip(state.raw_per_layer.iter()) {
                assert!(t + 1e-9 >= *r);
            }
        }
    }

    #[test]
    fn duplicate_s2_states_at_or_below_k1_pruned() {
        let s = seq(40_000.0, 3, 5); // k1 = 1
        assert_eq!(s.k1, 1);
        assert!(!s
            .states
            .iter()
            .any(|st| st.scenario == Scenario::Two && st.k <= 1));
        // Exactly one state per k=1 (the shared S1/S2 state).
        assert_eq!(s.states.iter().filter(|st| st.k == 1).count(), 1);
    }

    #[test]
    fn zero_requirement_states_pruned() {
        // rate 130 KB/s, 3 layers → k1 = 3: k = 1, 2 need no buffering.
        let s = seq(130_000.0, 3, 5);
        assert_eq!(s.k1, 3);
        assert!(s.states.iter().all(|st| st.k >= 3));
        assert!(s.states.iter().all(|st| st.raw_total() > 0.0));
    }

    #[test]
    fn first_unsatisfied_walks_with_buffer_level() {
        let s = seq(40_000.0, 3, 4);
        // Empty buffers: first state unsatisfied.
        assert_eq!(s.first_unsatisfied(&[0.0, 0.0, 0.0], 1.0), Some(0));
        // Satisfy exactly the first state's targets.
        let t0 = s.states[0].per_layer.clone();
        assert_eq!(s.first_unsatisfied(&t0, 1.0), Some(1));
        // Satisfy everything.
        let last = s.states.last().unwrap().per_layer.clone();
        assert_eq!(s.first_unsatisfied(&last, 1.0), None);
        assert_eq!(s.last_satisfied(&last, 1.0), Some(s.states.len() - 1));
    }

    #[test]
    fn last_satisfied_none_with_empty_buffers() {
        let s = seq(40_000.0, 3, 4);
        assert_eq!(s.last_satisfied(&[0.0, 0.0, 0.0], 1.0), None);
    }

    #[test]
    fn satisfied_up_to_k_gates_adding() {
        let s = seq(40_000.0, 3, 8);
        let k_max = 2;
        let needed: Vec<f64> = (0..3)
            .map(|i| {
                s.states
                    .iter()
                    .filter(|st| st.k <= k_max)
                    .map(|st| st.per_layer[i])
                    .fold(0.0, f64::max)
            })
            .collect();
        assert!(s.satisfied_up_to_k(&needed, k_max, 1.0));
        let mut short = needed.clone();
        short[0] -= 10.0;
        assert!(!s.satisfied_up_to_k(&short, k_max, 1.0));
    }

    #[test]
    fn satisfied_by_tolerates_short_buffer_slice() {
        let s = seq(40_000.0, 3, 2);
        // A slice shorter than n_active is treated as zeros beyond its end.
        let state = &s.states[0];
        assert!(!state.satisfied_by(&[1e9], 1.0) || state.per_layer[1] == 0.0);
        assert!(state.satisfied_by(&[1e9, 1e9, 1e9], 1.0));
    }

    #[test]
    fn traversal_without_clamp_would_require_draining() {
        // Reproduce the figure-9 phenomenon: somewhere in the sorted raw
        // sequence a layer's optimal share *decreases* from one state to the
        // next — the motivation for the clamp. Search a few operating points
        // for at least one occurrence.
        let mut found = false;
        'outer: for &rate in &[40_000.0, 55_000.0, 70_000.0, 90_000.0] {
            for n in 2..=5usize {
                let s = StateSequence::build(rate, n, C, S, 6);
                for w in s.states.windows(2) {
                    for i in 0..n {
                        if w[1].raw_per_layer[i] < w[0].raw_per_layer[i] - 1e-6 {
                            found = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(found, "expected at least one non-monotone raw transition");
    }

    #[test]
    fn single_layer_sequence_has_base_only_states() {
        let s = seq(15_000.0, 1, 3);
        for st in &s.states {
            assert_eq!(st.per_layer.len(), 1);
            assert!(st.per_layer[0] > 0.0);
        }
    }

    #[test]
    fn build_with_half_is_bit_identical_to_build() {
        for &rate in &[15_000.0, 40_000.0, 70_000.0, 130_000.0] {
            for n in 1..=5usize {
                let a = StateSequence::build(rate, n, C, S, 6);
                let b = StateSequence::build_with(rate, n, C, S, 6, 0.5);
                assert_eq!(a.k1, b.k1);
                assert_eq!(a.states.len(), b.states.len());
                for (sa, sb) in a.states.iter().zip(&b.states) {
                    assert_eq!(sa.scenario, sb.scenario);
                    assert_eq!(sa.k, sb.k);
                    for (x, y) in sa.per_layer.iter().zip(&sb.per_layer) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                    for (x, y) in sa.raw_per_layer.iter().zip(&sb.raw_per_layer) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn nonhalf_factor_sequence_stays_sorted_and_monotone() {
        for &f in &[0.7, 0.85] {
            let s = StateSequence::build_with(40_000.0, 4, C, S, 6, f);
            assert!(!s.states.is_empty(), "f={f}");
            for w in s.states.windows(2) {
                assert!(w[0].raw_total() <= w[1].raw_total() + 1e-9, "f={f}");
                for i in 0..4 {
                    assert!(w[0].per_layer[i] <= w[1].per_layer[i] + 1e-9, "f={f}");
                }
            }
        }
    }

    #[test]
    fn geometry_cache_keys_on_decrease_factor() {
        let mut cache = GeometryCache::new();
        let mut seq = StateSequence::default();
        // Two misses at f=0.5 admit the entry; a lookup at f=0.85 with the
        // same (rate, n, C, S, k) must miss and rebuild, not alias.
        cache.rebuild_memoized(&mut seq, 40_000.0, 3, C, S, 5);
        cache.rebuild_memoized(&mut seq, 40_000.0, 3, C, S, 5);
        assert_eq!(cache.len(), 1);
        cache.rebuild_memoized_with(&mut seq, 40_000.0, 3, C, S, 5, 0.85);
        assert_eq!(cache.stats().0, 0, "factor change must not hit");
        let fresh = StateSequence::build_with(40_000.0, 3, C, S, 5, 0.85);
        assert_eq!(seq.states.len(), fresh.states.len());
        for (a, b) in seq.states.iter().zip(&fresh.states) {
            assert_eq!(a.per_layer, b.per_layer);
        }
    }

    #[test]
    fn geometry_cache_admits_on_second_miss_only() {
        let mut cache = GeometryCache::new();
        let mut seq = StateSequence::default();
        let probe = |cache: &mut GeometryCache, seq: &mut StateSequence, rate: f64| {
            cache.rebuild_memoized(seq, rate, 3, C, S, 5);
        };
        // First miss: rebuilt but not memoized (one-shot keys stay out).
        probe(&mut cache, &mut seq, 40_000.0);
        assert_eq!(cache.stats(), (0, 1));
        assert!(cache.is_empty());
        // Second miss on the same key: admitted.
        probe(&mut cache, &mut seq, 40_000.0);
        assert_eq!(cache.stats(), (0, 2));
        assert_eq!(cache.len(), 1);
        // Third occurrence: a hit, bit-identical to a cold rebuild.
        probe(&mut cache, &mut seq, 40_000.0);
        assert_eq!(cache.stats(), (1, 2));
        let fresh = StateSequence::build(40_000.0, 3, C, S, 5);
        assert_eq!(seq.states.len(), fresh.states.len());
        for (a, b) in seq.states.iter().zip(&fresh.states) {
            assert_eq!(a.per_layer, b.per_layer);
        }
        // A different one-shot key still stays out of the memo.
        probe(&mut cache, &mut seq, 41_000.0);
        assert_eq!(cache.len(), 1);
    }

    /// Miss `rate`'s key twice so it is admitted (or already cached).
    fn admit(cache: &mut GeometryCache, seq: &mut StateSequence, rate: f64) {
        cache.rebuild_memoized(seq, rate, 3, C, S, 5);
        cache.rebuild_memoized(seq, rate, 3, C, S, 5);
    }

    #[test]
    fn geometry_cache_population_never_exceeds_capacity() {
        let mut cache = GeometryCache::new();
        let mut seq = StateSequence::default();
        let keys = 10 * GeometryCache::MAX_ENTRIES;
        for i in 0..keys {
            admit(&mut cache, &mut seq, 20_000.0 + i as f64);
            assert!(cache.len() <= GeometryCache::MAX_ENTRIES, "key {i}");
            assert_eq!(cache.index.len(), cache.len());
            assert!(cache.seen_once.len() <= GeometryCache::MAX_SEEN_ONCE);
        }
        assert_eq!(cache.len(), GeometryCache::MAX_ENTRIES);
        assert_eq!(cache.stats(), (0, 2 * keys as u64));
        // Every index entry points at the slot holding that key.
        for (key, &i) in &cache.index {
            assert_eq!(cache.slots[i].key, *key);
        }
    }

    #[test]
    fn geometry_cache_refill_in_place_matches_uncached_build() {
        let cap = GeometryCache::MAX_ENTRIES;
        let mut cache = GeometryCache::new();
        let mut seq = StateSequence::default();
        // (n_active, k_horizon, decrease factor) per phase: small, then
        // large (longer meta, wider rows), then mid-sized, so every refill
        // lands in a slot that last held a different shape.
        let phases: [(usize, u32, f64); 3] = [(1, 2, 0.5), (5, 8, 0.7), (3, 4, 0.5)];
        for (p, &(n, k, f)) in phases.iter().enumerate() {
            let rate = |i: usize| 30_000.0 + (1000 * p + i) as f64;
            let before: Vec<(usize, usize)> = cache
                .slots
                .iter()
                .map(|s| (s.seq.n_active, s.seq.meta.len()))
                .collect();
            for i in 0..cap {
                cache.rebuild_memoized_with(&mut seq, rate(i), n, C, S, k, f);
                cache.rebuild_memoized_with(&mut seq, rate(i), n, C, S, k, f);
            }
            assert_eq!(cache.len(), cap);
            // The whole previous phase was evicted: each slot was refilled
            // over a sequence of another shape.
            for (slot, (old_n, old_len)) in cache.slots.iter().zip(before) {
                assert_eq!(slot.seq.n_active, n);
                assert!(old_n != n && old_len != slot.seq.meta.len());
            }
            for i in 0..cap {
                // Leave a different sequence in the scratch so the hit
                // has to overwrite it.
                seq.rebuild(90_000.0, 4, C, S, 6);
                let (hits, _) = cache.stats();
                cache.rebuild_memoized_with(&mut seq, rate(i), n, C, S, k, f);
                assert_eq!(cache.stats().0, hits + 1, "phase {p} key {i} must hit");
                assert_eq!(seq, StateSequence::build_with(rate(i), n, C, S, k, f));
            }
        }
    }

    #[test]
    fn geometry_cache_clock_spares_recently_hit_key() {
        let cap = GeometryCache::MAX_ENTRIES;
        let mut cache = GeometryCache::new();
        let mut seq = StateSequence::default();
        let rate = |i: usize| 40_000.0 + i as f64;
        for i in 0..cap {
            admit(&mut cache, &mut seq, rate(i));
        }
        // Hit the slot under the hand: its reference bit is now set.
        cache.rebuild_memoized(&mut seq, rate(0), 3, C, S, 5);
        assert_eq!(cache.stats().0, 1);
        // One full sweep: cap - 1 admissions pass the hand over every
        // slot once, evicting each unreferenced key.
        for i in 0..cap - 1 {
            admit(&mut cache, &mut seq, rate(cap + i));
        }
        assert_eq!(cache.len(), cap);
        cache.rebuild_memoized(&mut seq, rate(0), 3, C, S, 5);
        assert_eq!(
            cache.stats().0,
            2,
            "recently hit key must survive the sweep"
        );
        cache.rebuild_memoized(&mut seq, rate(1), 3, C, S, 5);
        assert_eq!(
            cache.stats().0,
            2,
            "unreferenced key must have been evicted"
        );
    }
}
