//! The [`Predictor`] abstraction, a compact encoding key, and a thread-safe
//! sharded memoizing wrapper.
//!
//! The search engine re-evaluates `predict(argmax α)` at **every** step
//! (`LAT(α)` is defined on the derived architecture, Eq. 4), and the argmax
//! architecture changes only when a slot actually flips — so across a
//! 90-epoch search the same few hundred architectures are queried thousands
//! of times. [`CachedPredictor`] memoizes `predict`/`gradient` by the packed
//! [`encoding_key`] and exposes hit/miss counters; `lightnas-runtime` shares
//! one cache across a whole sweep of concurrent search jobs, where the hit
//! rate compounds further (neighbouring targets visit overlapping
//! architectures), and `lightnas-serve`'s multi-tenant search service shares
//! one cache across *many* sweeps at once.
//!
//! That many-sweeps regime is why the cache is **sharded**: a single
//! `RwLock` pair serializes every hit on one cache line once eight workers
//! hammer it, so the maps are split into a power-of-two number of shards
//! keyed by a mixed encoding hash, each with its own lock and hit/miss
//! counters (merged on demand into one [`CacheStats`]). Misses are
//! **single-flight**: concurrent misses on the same key compute the value
//! once — the first arrival becomes the leader, everyone else waits for its
//! (deterministic, hence identical) answer instead of burning a redundant
//! forward pass. See DESIGN.md §16 for the full scale-out contract.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

use lightnas_space::{parse_encoding, Architecture, SEARCHABLE_LAYERS};

use crate::{EnsemblePredictor, MlpPredictor};

/// The querying interface shared by the MLP predictor, the ensemble, and
/// caching wrappers — everything a differentiable search needs from a
/// hardware-metric model.
pub trait Predictor {
    /// Predicted metric for a flattened `ᾱ` encoding (Eq. 4).
    fn predict_encoding(&self, encoding: &[f32]) -> f64;

    /// Gradient of the prediction w.r.t. the encoding (`∂LAT/∂ᾱ`, Eq. 12).
    fn gradient(&self, encoding: &[f32]) -> Vec<f32>;

    /// Predicted metric for an architecture.
    fn predict(&self, arch: &Architecture) -> f64 {
        self.predict_encoding(&arch.encode())
    }
}

impl Predictor for MlpPredictor {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        MlpPredictor::predict_encoding(self, encoding)
    }

    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        MlpPredictor::gradient(self, encoding)
    }
}

impl Predictor for EnsemblePredictor {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        EnsemblePredictor::predict_encoding(self, encoding)
    }

    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        EnsemblePredictor::gradient(self, encoding)
    }
}

impl<P: Predictor + ?Sized> Predictor for &P {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        (**self).predict_encoding(encoding)
    }

    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        (**self).gradient(encoding)
    }

    fn predict(&self, arch: &Architecture) -> f64 {
        (**self).predict(arch)
    }
}

/// The cache key of an encoding that is an architecture's: the operator
/// index of each searchable row, 3 bits per slot (`K = 7 < 8`). `Some`
/// exactly when [`parse_encoding`] accepts the encoding, and then equal to
/// [`architecture_key`] of the decoded architecture; `None` for any other
/// vector (a wrong width, a fractional relaxation, a NaN), which has no
/// architecture to share a key with.
pub fn encoding_key(encoding: &[f32]) -> Option<u64> {
    let ops = parse_encoding(encoding).ok()?;
    Some(ops.iter().fold(0u64, |key, &op| (key << 3) | u64::from(op)))
}

/// The cache key of an architecture, without materializing its encoding.
pub fn architecture_key(arch: &Architecture) -> u64 {
    debug_assert_eq!(arch.ops().len(), SEARCHABLE_LAYERS);
    arch.ops()
        .iter()
        .fold(0u64, |key, op| (key << 3) | op.index() as u64)
}

// --- the one poison-recovering lock helper (used by every shard below).
//
// A search job that panics while holding a cache lock leaves the protected
// state valid (writes are whole inserts/clears of already-computed values),
// so poisoning is recovered, never propagated — surviving jobs keep the
// cache instead of cascading the panic.

fn rlock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn wlock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn mlock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Hit/miss counters of a [`CachedPredictor`] (merged over all shards and
/// both query kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache (including single-flight waiters,
    /// which ride a leader's compute instead of touching the predictor).
    pub hits: u64,
    /// Queries that computed through the wrapped predictor. With
    /// single-flight coalescing this equals the number of values ever
    /// inserted since the last [`clear`](CachedPredictor::clear).
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of queries answered from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise sum.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }

    /// Counter-wise saturating difference — the traffic between two
    /// snapshots of the same (monotonic between clears) cache.
    pub fn since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// One shard's counters and occupancy, read under that shard's locks (so
/// the four numbers are mutually consistent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardOccupancy {
    /// Cache hits served by this shard.
    pub hits: u64,
    /// Values computed into this shard.
    pub misses: u64,
    /// Distinct cached predictions in this shard.
    pub predictions: usize,
    /// Distinct cached gradients in this shard.
    pub gradients: usize,
}

/// A per-shard-consistent view of a [`CachedPredictor`]: within every
/// shard, `misses == predictions + gradients` holds **exactly** (each miss
/// inserts exactly one value, both counted under the same write lock), so
/// the totals satisfy it too — the invariant the clear-consistency
/// regression test hammers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Merged hit/miss counters.
    pub stats: CacheStats,
    /// Total distinct cached predictions.
    pub predictions: usize,
    /// Total distinct cached gradients.
    pub gradients: usize,
    /// Per-shard breakdown, in shard order.
    pub shards: Vec<ShardOccupancy>,
}

/// What a miss-leader's in-flight computation looks like to waiters.
#[derive(Debug)]
enum FlightState<V> {
    Pending,
    Done(V),
    Aborted,
}

/// One in-flight single-flight computation: the leader completes (or
/// aborts, if it panics) the flight; waiters block on the condvar.
#[derive(Debug)]
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    ready: Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Self {
            state: Mutex::new(FlightState::Pending),
            ready: Condvar::new(),
        }
    }

    /// Blocks until the leader lands: `Some(value)` on completion, `None`
    /// when the leader aborted (panicked) and the waiter must retry.
    fn wait(&self) -> Option<V> {
        let mut state = mlock(&self.state);
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                FlightState::Done(v) => return Some(v.clone()),
                FlightState::Aborted => return None,
            }
        }
    }

    fn complete(&self, value: V) {
        *mlock(&self.state) = FlightState::Done(value);
        self.ready.notify_all();
    }

    /// Marks the flight failed so waiters retry — a no-op once completed.
    fn abort(&self) {
        let mut state = mlock(&self.state);
        if matches!(*state, FlightState::Pending) {
            *state = FlightState::Aborted;
            self.ready.notify_all();
        }
    }
}

/// Unwinds a registered flight if its leader panics before landing:
/// deregisters the (still-pending) flight and wakes waiters to retry, so a
/// panicking compute can never strand other threads on the condvar.
struct FlightGuard<'a, V: Clone> {
    flights: &'a Mutex<HashMap<u64, Arc<Flight<V>>>>,
    key: u64,
    flight: &'a Arc<Flight<V>>,
    armed: bool,
}

impl<V: Clone> Drop for FlightGuard<'_, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut flights = mlock(self.flights);
        if flights
            .get(&self.key)
            .is_some_and(|f| Arc::ptr_eq(f, self.flight))
        {
            flights.remove(&self.key);
        }
        drop(flights);
        self.flight.abort();
    }
}

/// Memoizes `compute(key)` in `map` with single-flight miss coalescing.
///
/// Lock protocol (shared with the batched path and `clear`): the flights
/// mutex is always taken *before* the map lock, never while holding it;
/// the miss counter increments under the map's write lock together with
/// the insert, so any observer holding the read lock sees counter and
/// occupancy move together.
fn single_flight<V: Clone>(
    map: &RwLock<HashMap<u64, V>>,
    flights: &Mutex<HashMap<u64, Arc<Flight<V>>>>,
    hits: &AtomicU64,
    misses: &AtomicU64,
    key: u64,
    compute: impl Fn() -> V,
) -> V {
    loop {
        if let Some(v) = rlock(map).get(&key) {
            hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        let leader = {
            let mut in_flight = mlock(flights);
            // Double-checked under the flights mutex: a leader that landed
            // between our read miss and here is a plain hit.
            if let Some(v) = rlock(map).get(&key) {
                hits.fetch_add(1, Ordering::Relaxed);
                return v.clone();
            }
            match in_flight.get(&key) {
                Some(flight) => Err(Arc::clone(flight)),
                None => {
                    let flight = Arc::new(Flight::new());
                    in_flight.insert(key, Arc::clone(&flight));
                    Ok(flight)
                }
            }
        };
        match leader {
            Err(flight) => {
                if let Some(v) = flight.wait() {
                    hits.fetch_add(1, Ordering::Relaxed);
                    return v;
                }
                // The leader aborted; loop and possibly become the leader.
            }
            Ok(flight) => {
                let mut guard = FlightGuard {
                    flights,
                    key,
                    flight: &flight,
                    armed: true,
                };
                let v = compute();
                {
                    let mut in_flight = mlock(flights);
                    let mut m = wlock(map);
                    m.insert(key, v.clone());
                    misses.fetch_add(1, Ordering::Relaxed);
                    drop(m);
                    in_flight.remove(&key);
                }
                guard.armed = false;
                flight.complete(v.clone());
                return v;
            }
        }
    }
}

/// One cache shard: its slice of both maps, its in-flight registries, and
/// its own counters. Aligned so neighbouring shards never share a cache
/// line — the whole point of sharding is that 8 threads hitting 8 shards
/// touch 8 different lines.
#[repr(align(128))]
#[derive(Debug)]
struct Shard {
    predictions: RwLock<HashMap<u64, f64>>,
    gradients: RwLock<HashMap<u64, Vec<f32>>>,
    prediction_flights: Mutex<HashMap<u64, Arc<Flight<f64>>>>,
    gradient_flights: Mutex<HashMap<u64, Arc<Flight<Vec<f32>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Self {
            predictions: RwLock::new(HashMap::new()),
            gradients: RwLock::new(HashMap::new()),
            prediction_flights: Mutex::new(HashMap::new()),
            gradient_flights: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// Default shard count of [`CachedPredictor::new`]; `with_shards(1)` is the
/// single-lock layout earlier releases shipped (and the baseline the
/// `scale_bench` exhibit measures contention against).
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// A thread-safe sharded memoizing wrapper around any [`Predictor`].
///
/// Both `predict` and `gradient` results are cached by the packed
/// architecture key. The key is mixed (splitmix64 finalizer) and masked to
/// pick one of a power-of-two number of shards, each with its own
/// `RwLock`-protected maps and hit/miss counters — concurrent readers on
/// different keys contend on nothing. Concurrent misses on the *same* key
/// are single-flight: one thread computes, the rest wait for its answer,
/// so a burst of cold traffic costs one forward pass per distinct key.
///
/// Memoization never changes a value — the wrapped predictor is
/// deterministic, and waiters receive exactly the leader's result — so a
/// sharded, an unsharded, and an uncached run are byte-identical (the
/// cache property tests pin this for arbitrary query sequences).
///
/// Lock poisoning is recovered, not propagated: a search job that panics
/// while holding a cache lock leaves the maps in a valid state (every write
/// is a whole insert of an already-computed value), so surviving jobs in
/// the same sweep keep the cache instead of cascading the panic. A leader
/// that panics *mid-compute* aborts its flight and wakes waiters to retry.
#[derive(Debug)]
pub struct CachedPredictor<'a, P: Predictor> {
    inner: &'a P,
    shards: Box<[Shard]>,
    mask: u64,
}

impl<'a, P: Predictor> CachedPredictor<'a, P> {
    /// Wraps `inner` with [`DEFAULT_CACHE_SHARDS`] empty shards.
    pub fn new(inner: &'a P) -> Self {
        Self::with_shards(inner, DEFAULT_CACHE_SHARDS)
    }

    /// Wraps `inner` with `shards` shards, rounded up to the next power of
    /// two (minimum 1 — which reproduces the old single-lock layout).
    pub fn with_shards(inner: &'a P, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards: Box<[Shard]> = (0..n).map(|_| Shard::new()).collect();
        Self {
            inner,
            shards,
            mask: (n - 1) as u64,
        }
    }

    /// The wrapped predictor.
    pub fn inner(&self) -> &'a P {
        self.inner
    }

    /// How many shards the maps are split across (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key lands in. The packed key concentrates its entropy
    /// in whichever layers differ, so it is mixed (splitmix64 finalizer)
    /// before masking — neighbouring architectures spread across shards.
    fn shard_of(&self, key: u64) -> &Shard {
        let mut x = key;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        &self.shards[(x & self.mask) as usize]
    }

    /// Current hit/miss counters, merged across shards (aggregated over
    /// both query kinds).
    pub fn stats(&self) -> CacheStats {
        self.snapshot().stats
    }

    /// A per-shard-consistent snapshot: each shard's counters and map
    /// sizes are read under that shard's read locks, so within every shard
    /// `misses == predictions + gradients` exactly (see [`CacheSnapshot`]).
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut stats = CacheStats::default();
        let (mut predictions, mut gradients) = (0usize, 0usize);
        for shard in self.shards.iter() {
            // Lock order matches `clear`: predictions before gradients.
            let p = rlock(&shard.predictions);
            let g = rlock(&shard.gradients);
            let occ = ShardOccupancy {
                hits: shard.hits.load(Ordering::Relaxed),
                misses: shard.misses.load(Ordering::Relaxed),
                predictions: p.len(),
                gradients: g.len(),
            };
            drop(g);
            drop(p);
            stats.hits += occ.hits;
            stats.misses += occ.misses;
            predictions += occ.predictions;
            gradients += occ.gradients;
            shards.push(occ);
        }
        CacheSnapshot {
            stats,
            predictions,
            gradients,
            shards,
        }
    }

    /// Number of distinct architectures with a cached prediction.
    pub fn cached_predictions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| rlock(&s.predictions).len())
            .sum()
    }

    /// Number of distinct architectures with a cached gradient.
    pub fn cached_gradients(&self) -> usize {
        self.shards.iter().map(|s| rlock(&s.gradients).len()).sum()
    }

    /// Drops all cached values and resets the counters.
    ///
    /// Consistency protocol: each shard is cleared *atomically* — both
    /// maps emptied and both counters reset while holding that shard's
    /// write locks — so no observer (which reads counters under the same
    /// locks, see [`snapshot`](Self::snapshot)) can ever see a shard's
    /// maps and counters disagree. Earlier releases cleared the two maps
    /// and the counters in three separate critical sections; a concurrent
    /// writer landing between them left occupancy permanently ahead of the
    /// miss counter.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut p = wlock(&shard.predictions);
            let mut g = wlock(&shard.gradients);
            p.clear();
            g.clear();
            shard.hits.store(0, Ordering::Relaxed);
            shard.misses.store(0, Ordering::Relaxed);
        }
    }

    fn predict_keyed(&self, key: u64, compute: impl Fn() -> f64) -> f64 {
        let shard = self.shard_of(key);
        single_flight(
            &shard.predictions,
            &shard.prediction_flights,
            &shard.hits,
            &shard.misses,
            key,
            compute,
        )
    }
}

/// Unwinds the batched path's registered flights if the inner batched
/// compute panics: every still-pending flight is deregistered and aborted
/// so concurrent waiters retry instead of hanging.
struct BatchFlightsGuard<'a> {
    entries: &'a [(u64, usize, Arc<Flight<f64>>, &'a Shard)],
    armed: bool,
}

impl Drop for BatchFlightsGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        for (key, _, flight, shard) in self.entries {
            let mut flights = mlock(&shard.prediction_flights);
            if flights.get(key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
                flights.remove(key);
            }
            drop(flights);
            flight.abort();
        }
    }
}

impl<P: crate::BatchPredictor> crate::BatchPredictor for CachedPredictor<'_, P> {
    /// Batched lookup: cached rows are answered from their shards, the
    /// remaining *distinct* keys this thread leads go to the wrapped
    /// predictor in **one** `predict_encodings` call, keys already in
    /// flight on other threads are waited for, and every result lands in
    /// the cache.
    ///
    /// Counter semantics match the sequential per-row loop exactly: the
    /// first occurrence of an uncached key counts as a miss, repeats of the
    /// same key inside the batch count as hits (the sequential loop would
    /// have filled the cache by then). A key computed by *another* thread's
    /// flight counts as a hit here — only actual computes count as misses,
    /// which is what makes `misses == occupancy` exact. Values are
    /// bit-identical to per-row queries because the inner batched path
    /// guarantees the same.
    fn predict_encodings(&self, encodings: &[Vec<f32>]) -> Vec<f64> {
        let mut out = vec![0.0f64; encodings.len()];
        // Rows not answered from the cache, and the first occurrence of each
        // distinct uncached key.
        let mut unresolved: Vec<(usize, u64)> = Vec::new();
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut seen = HashSet::new();
        for (i, enc) in encodings.iter().enumerate() {
            let Some(key) = encoding_key(enc) else {
                // Not an architecture's encoding: no key, so neither
                // stored nor counted (see `predict_encoding`).
                out[i] = self.inner.predict_encoding(enc);
                continue;
            };
            let shard = self.shard_of(key);
            let cached = {
                let map = rlock(&shard.predictions);
                map.get(&key).copied().inspect(|_| {
                    shard.hits.fetch_add(1, Ordering::Relaxed);
                })
            };
            if let Some(v) = cached {
                out[i] = v;
                continue;
            }
            unresolved.push((i, key));
            if seen.insert(key) {
                pending.push((key, i));
            } else {
                shard.hits.fetch_add(1, Ordering::Relaxed);
            }
        }

        let mut resolved: HashMap<u64, f64> = HashMap::new();
        // Keys this thread leads vs. keys already in flight elsewhere.
        let mut ours: Vec<(u64, usize, Arc<Flight<f64>>, &Shard)> = Vec::new();
        let mut foreign: Vec<(u64, usize, Arc<Flight<f64>>)> = Vec::new();
        for &(key, row) in &pending {
            let shard = self.shard_of(key);
            let mut flights = mlock(&shard.prediction_flights);
            if let Some(&v) = rlock(&shard.predictions).get(&key) {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                resolved.insert(key, v);
                continue;
            }
            match flights.get(&key) {
                Some(flight) => foreign.push((key, row, Arc::clone(flight))),
                None => {
                    let flight = Arc::new(Flight::new());
                    flights.insert(key, Arc::clone(&flight));
                    ours.push((key, row, flight, shard));
                }
            }
        }

        if !ours.is_empty() {
            let mut guard = BatchFlightsGuard {
                entries: &ours,
                armed: true,
            };
            let miss_rows: Vec<Vec<f32>> = ours
                .iter()
                .map(|&(_, row, _, _)| encodings[row].clone())
                .collect();
            let computed = self.inner.predict_encodings(&miss_rows);
            for ((key, _, flight, shard), &v) in ours.iter().zip(&computed) {
                {
                    let mut flights = mlock(&shard.prediction_flights);
                    let mut map = wlock(&shard.predictions);
                    map.insert(*key, v);
                    shard.misses.fetch_add(1, Ordering::Relaxed);
                    drop(map);
                    flights.remove(key);
                }
                flight.complete(v);
                resolved.insert(*key, v);
            }
            guard.armed = false;
        }

        for (key, row, flight) in foreign {
            match flight.wait() {
                Some(v) => {
                    self.shard_of(key).hits.fetch_add(1, Ordering::Relaxed);
                    resolved.insert(key, v);
                }
                // The foreign leader aborted: compute this key ourselves
                // through the scalar single-flight path (counts its own
                // miss at insert time).
                None => {
                    let v = Predictor::predict_encoding(self, &encodings[row]);
                    resolved.insert(key, v);
                }
            }
        }

        for &(i, key) in &unresolved {
            out[i] = resolved[&key];
        }
        out
    }
}

impl<P: Predictor> Predictor for CachedPredictor<'_, P> {
    /// Memoized by [`encoding_key`]. An encoding with no key is no
    /// architecture's, so the inner predictor answers it each time, and the
    /// answer is neither stored nor counted as a hit or a miss.
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        match encoding_key(encoding) {
            Some(key) => self.predict_keyed(key, || self.inner.predict_encoding(encoding)),
            None => self.inner.predict_encoding(encoding),
        }
    }

    fn predict(&self, arch: &Architecture) -> f64 {
        // Keyed straight off the operator list — no 154-float encoding is
        // materialized on a hit.
        self.predict_keyed(architecture_key(arch), || self.inner.predict(arch))
    }

    /// Memoized like [`predict_encoding`](Self::predict_encoding), in a
    /// map of its own; an encoding with no key goes to the inner predictor.
    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        let Some(key) = encoding_key(encoding) else {
            return self.inner.gradient(encoding);
        };
        let shard = self.shard_of(key);
        single_flight(
            &shard.gradients,
            &shard.gradient_flights,
            &shard.hits,
            &shard.misses,
            key,
            || self.inner.gradient(encoding),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Metric, MetricDataset, TrainConfig};
    use lightnas_hw::Xavier;
    use lightnas_space::SearchSpace;

    fn small_predictor() -> MlpPredictor {
        let space = SearchSpace::standard();
        let device = Xavier::maxn();
        let data = MetricDataset::sample(&device, &space, Metric::LatencyMs, 400, 11);
        MlpPredictor::train(
            &data,
            &TrainConfig {
                epochs: 10,
                batch_size: 128,
                lr: 2e-3,
                seed: 0,
            },
        )
    }

    #[test]
    fn keys_agree_between_architecture_and_encoding() {
        let space = SearchSpace::standard();
        for seed in 0..32 {
            let arch = Architecture::random(&space, seed);
            assert_eq!(Some(architecture_key(&arch)), encoding_key(&arch.encode()));
        }
    }

    #[test]
    fn keys_are_distinct_across_architectures() {
        let space = SearchSpace::standard();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..200 {
            seen.insert(architecture_key(&Architecture::random(&space, seed)));
        }
        assert!(seen.len() >= 199, "only {} distinct keys", seen.len());
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        let p = small_predictor();
        assert_eq!(CachedPredictor::new(&p).shard_count(), DEFAULT_CACHE_SHARDS);
        for (requested, expect) in [(0, 1), (1, 1), (2, 2), (3, 4), (5, 8), (16, 16), (17, 32)] {
            assert_eq!(
                CachedPredictor::with_shards(&p, requested).shard_count(),
                expect,
                "requested {requested}"
            );
        }
    }

    #[test]
    fn keys_spread_across_shards() {
        let p = small_predictor();
        let cached = CachedPredictor::with_shards(&p, 8);
        let space = SearchSpace::standard();
        for seed in 0..256 {
            let _ = Predictor::predict(&cached, &Architecture::random(&space, seed));
        }
        let snap = cached.snapshot();
        let populated = snap.shards.iter().filter(|s| s.predictions > 0).count();
        assert!(
            populated >= 6,
            "256 random keys landed in only {populated}/8 shards: {snap:?}"
        );
    }

    #[test]
    fn cached_values_match_the_wrapped_predictor() {
        let p = small_predictor();
        let cached = CachedPredictor::new(&p);
        let space = SearchSpace::standard();
        for seed in 0..10 {
            let arch = Architecture::random(&space, seed);
            let enc = arch.encode();
            assert_eq!(Predictor::predict(&cached, &arch), p.predict(&arch));
            assert_eq!(Predictor::gradient(&cached, &enc), p.gradient(&enc));
            // Second round must come from the cache and stay identical.
            assert_eq!(Predictor::predict(&cached, &arch), p.predict(&arch));
            assert_eq!(Predictor::gradient(&cached, &enc), p.gradient(&enc));
        }
        let stats = cached.stats();
        assert_eq!(stats.misses, 20, "one predict + one gradient miss per arch");
        assert_eq!(stats.hits, 20);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cached.cached_predictions(), 10);
        assert_eq!(cached.cached_gradients(), 10);
    }

    #[test]
    fn batched_queries_coalesce_misses_and_serve_hits() {
        use crate::BatchPredictor;
        let p = small_predictor();
        let cached = CachedPredictor::new(&p);
        let space = SearchSpace::standard();
        // 16 rows over 6 distinct architectures, with repeats inside the
        // batch: rows 6.. cycle through the first six again.
        let uniques: Vec<Vec<f32>> = (0..6)
            .map(|s| Architecture::random(&space, s).encode())
            .collect();
        let batch: Vec<Vec<f32>> = (0..16).map(|i| uniques[i % 6].clone()).collect();
        let got = cached.predict_encodings(&batch);
        let want: Vec<f64> = batch.iter().map(|e| p.predict_encoding(e)).collect();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "batched value diverged");
        }
        let stats = cached.stats();
        assert_eq!(stats.misses, 6, "one miss per distinct architecture");
        assert_eq!(stats.hits, 10, "in-batch repeats count as hits");
        assert_eq!(cached.cached_predictions(), 6);
        // A second identical batch is answered entirely from the cache.
        let again = cached.predict_encodings(&batch);
        assert_eq!(again, got);
        let stats = cached.stats();
        assert_eq!(stats.misses, 6);
        assert_eq!(stats.hits, 26);
    }

    /// `one_hot` relaxed to a fractional encoding with the same row-wise
    /// argmax: 0.7 on each row's one, 0.05 on the rest.
    fn relaxed(one_hot: &[f32]) -> Vec<f32> {
        one_hot
            .iter()
            .map(|&v| if v == 1.0 { 0.7 } else { 0.05 })
            .collect()
    }

    #[test]
    fn fractional_predictions_neither_hit_nor_poison_the_cache() {
        use crate::{BatchPredictor, LutPredictor};
        let space = SearchSpace::standard();
        let lut = LutPredictor::build(&Xavier::maxn(), &space);
        let one_hot = Architecture::random(&space, 7).encode();
        let fractional = relaxed(&one_hot);
        let (want_one_hot, want_fractional) = (
            lut.predict_encoding(&one_hot),
            lut.predict_encoding(&fractional),
        );
        assert_ne!(want_one_hot, want_fractional, "the LUT is linear");
        assert_eq!(encoding_key(&fractional), None);
        // One-hot first: the fractional query must not read its entry.
        let cached = CachedPredictor::new(&lut);
        assert_eq!(cached.predict_encoding(&one_hot), want_one_hot);
        assert_eq!(cached.predict_encoding(&fractional), want_fractional);
        let batch = cached.predict_encodings(&[fractional.clone(), one_hot.clone()]);
        assert_eq!(batch, vec![want_fractional, want_one_hot]);
        assert_eq!(cached.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cached.cached_predictions(), 1);
        // Fractional first: the one-hot entry must be the one-hot value.
        let cached = CachedPredictor::new(&lut);
        assert_eq!(cached.predict_encoding(&fractional), want_fractional);
        assert_eq!(
            cached.predict_encodings(std::slice::from_ref(&fractional)),
            vec![want_fractional]
        );
        assert_eq!(cached.stats(), CacheStats::default(), "nothing counted");
        assert_eq!(cached.cached_predictions(), 0, "nothing stored");
        assert_eq!(cached.predict_encoding(&one_hot), want_one_hot);
        assert_eq!(cached.stats(), CacheStats { hits: 0, misses: 1 });
    }

    #[test]
    fn fractional_gradients_neither_hit_nor_poison_the_cache() {
        let p = small_predictor();
        let one_hot = Architecture::random(&SearchSpace::standard(), 7).encode();
        let fractional = relaxed(&one_hot);
        let (want_one_hot, want_fractional) = (p.gradient(&one_hot), p.gradient(&fractional));
        assert_ne!(want_one_hot, want_fractional);
        let cached = CachedPredictor::new(&p);
        assert_eq!(Predictor::gradient(&cached, &one_hot), want_one_hot);
        assert_eq!(Predictor::gradient(&cached, &fractional), want_fractional);
        assert_eq!(cached.stats(), CacheStats { hits: 0, misses: 1 });
        let cached = CachedPredictor::new(&p);
        assert_eq!(Predictor::gradient(&cached, &fractional), want_fractional);
        assert_eq!(cached.cached_gradients(), 0, "nothing stored");
        assert_eq!(Predictor::gradient(&cached, &one_hot), want_one_hot);
        assert_eq!(cached.stats(), CacheStats { hits: 0, misses: 1 });
    }

    #[test]
    fn clear_resets_everything() {
        let p = small_predictor();
        let cached = CachedPredictor::new(&p);
        let arch = Architecture::random(&SearchSpace::standard(), 1);
        let _ = Predictor::predict(&cached, &arch);
        cached.clear();
        assert_eq!(cached.stats(), CacheStats::default());
        assert_eq!(cached.cached_predictions(), 0);
    }

    #[test]
    fn concurrent_queries_are_consistent() {
        let p = small_predictor();
        let cached = CachedPredictor::new(&p);
        let space = SearchSpace::standard();
        let archs: Vec<Architecture> = (0..8).map(|s| Architecture::random(&space, s)).collect();
        let expected: Vec<f64> = archs.iter().map(|a| p.predict(a)).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (arch, &want) in archs.iter().zip(&expected) {
                        assert_eq!(Predictor::predict(&cached, arch), want);
                    }
                });
            }
        });
        let stats = cached.stats();
        assert_eq!(stats.hits + stats.misses, 32);
        assert_eq!(cached.cached_predictions(), 8);
    }

    /// A predictor that counts every genuine compute — the ground truth
    /// the single-flight contract is judged against.
    struct Counting<'a> {
        inner: &'a MlpPredictor,
        computes: AtomicU64,
    }

    impl Predictor for Counting<'_> {
        fn predict_encoding(&self, encoding: &[f32]) -> f64 {
            self.computes.fetch_add(1, Ordering::Relaxed);
            self.inner.predict_encoding(encoding)
        }
        fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
            self.computes.fetch_add(1, Ordering::Relaxed);
            self.inner.gradient(encoding)
        }
        fn predict(&self, arch: &Architecture) -> f64 {
            self.computes.fetch_add(1, Ordering::Relaxed);
            self.inner.predict(arch)
        }
    }

    #[test]
    fn single_flight_computes_each_distinct_key_once_under_contention() {
        let p = small_predictor();
        let counting = Counting {
            inner: &p,
            computes: AtomicU64::new(0),
        };
        let cached = CachedPredictor::with_shards(&counting, 8);
        let space = SearchSpace::standard();
        let archs: Vec<Architecture> = (0..24).map(|s| Architecture::random(&space, s)).collect();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let (archs, cached, barrier) = (&archs, &cached, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // Every thread walks all keys, each from a different
                    // starting point, so misses collide across threads.
                    for k in 0..archs.len() {
                        let arch = &archs[(k + t * 3) % archs.len()];
                        let _ = Predictor::predict(cached, arch);
                    }
                });
            }
        });
        assert_eq!(
            counting.computes.load(Ordering::Relaxed),
            24,
            "single-flight must compute each distinct key exactly once"
        );
        let snap = cached.snapshot();
        assert_eq!(snap.stats.misses, 24);
        assert_eq!(snap.predictions, 24);
        assert_eq!(snap.stats.hits + snap.stats.misses, 8 * 24);
    }

    /// A predictor whose first compute panics — the flight must be aborted
    /// so waiters retry instead of hanging, and the value must still land.
    struct PanicsOnce<'a> {
        inner: &'a MlpPredictor,
        panicked: AtomicU64,
    }

    impl Predictor for PanicsOnce<'_> {
        fn predict_encoding(&self, encoding: &[f32]) -> f64 {
            if self.panicked.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected compute panic");
            }
            self.inner.predict_encoding(encoding)
        }
        fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
            self.inner.gradient(encoding)
        }
    }

    #[test]
    fn a_panicking_leader_aborts_its_flight_instead_of_stranding_waiters() {
        let p = small_predictor();
        let once = PanicsOnce {
            inner: &p,
            panicked: AtomicU64::new(0),
        };
        let cached = CachedPredictor::with_shards(&once, 4);
        let arch = Architecture::random(&SearchSpace::standard(), 3);
        let enc = arch.encode();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Predictor::predict_encoding(&cached, &enc)
        }));
        assert!(first.is_err(), "the injected panic must propagate");
        // The aborted flight must be gone: the retry leads a fresh flight
        // and lands the real value.
        let want = p.predict_encoding(&enc);
        assert_eq!(Predictor::predict_encoding(&cached, &enc), want);
        assert_eq!(cached.cached_predictions(), 1);
    }

    #[test]
    fn clear_keeps_counters_and_occupancy_consistent_under_concurrency() {
        let p = small_predictor();
        let cached = CachedPredictor::with_shards(&p, 4);
        let space = SearchSpace::standard();
        let archs: Vec<Architecture> = (0..32).map(|s| Architecture::random(&space, s)).collect();
        let stop = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..3usize {
                let (archs, cached, stop) = (&archs, &cached, &stop);
                scope.spawn(move || {
                    let mut k = t;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let arch = &archs[k % archs.len()];
                        let _ = Predictor::predict(cached, arch);
                        if k % 3 == 0 {
                            let _ = Predictor::gradient(cached, &arch.encode());
                        }
                        k += 7;
                    }
                });
            }
            // The observer: under the consistent clear protocol, every
            // snapshot satisfies misses == predictions + gradients exactly,
            // no matter how clears interleave with concurrent fills. The
            // old three-critical-section clear breaks this within a few
            // iterations (a fill lands between map-clear and counter-reset).
            for round in 0..200 {
                cached.clear();
                let snap = cached.snapshot();
                for (i, shard) in snap.shards.iter().enumerate() {
                    assert_eq!(
                        shard.misses as usize,
                        shard.predictions + shard.gradients,
                        "round {round}, shard {i}: counters drifted from occupancy: {shard:?}"
                    );
                }
                assert_eq!(
                    snap.stats.misses as usize,
                    snap.predictions + snap.gradients,
                    "round {round}: {snap:?}"
                );
            }
            stop.store(1, Ordering::Relaxed);
        });
    }
}
