//! Sharded serving: range-partitioned scoring with an exact
//! scatter-gather merge.
//!
//! Frozen scoring is bandwidth-bound: a cache miss reads its shard's
//! whole item matrix. One routine ranks every miss: it walks the
//! shard's rows in tiles of [`EngineConfig::band`] rows, scores the
//! pending requests against a tile four at a time while the tile sits
//! in L1/L2, and streams the tile's unseen scores, in ascending item
//! order, into each request's own top-K. A replay task hands it all of
//! its micro-batch's misses at once (`ShardedEngine::prefetch`, run by
//! `crate::pool`), so each tile is read from memory once per batch
//! rather than once per request — cache blocking per tile, inside a
//! task, at any shard count — and, for a dot head over f32 rows on an
//! AVX-512 CPU, each 8-row block of a tile is loaded once per group of
//! four requests (`linalg::dot_rows_many_into`). A lone miss runs the
//! same routine with a batch of one, through the one-request tile.
//!
//! A [`ShardedEngine`] splits the catalog into contiguous item ranges
//! ([`scenerec_core::ShardMap`]) so that shards can be served in
//! parallel: they are the unit of parallelism, and the scheduler pins
//! each shard to one worker (`crate::scheduler`). A one-shard engine is
//! the whole catalog behind one cache — the single-engine deployment.
//!
//! ## Exactness
//!
//! Sharding never changes a byte of any response. Per-element scores
//! depend only on the user row, the item row, and that item's head
//! state (its bias, or its MLP projection; `scenerec_core::ItemSide`), so
//! slicing into shards or tiles cannot perturb them; the tile walk
//! offers them to the top-K in ascending item order, as a whole-shard
//! scan would, whatever the batch; and the
//! serving order `(score desc, item asc)` is a strict total order, so
//! merging per-shard top-K lists with the same comparator
//! ([`merge_top_k`]) reproduces the whole-catalog ranking exactly, ties
//! included (proof sketch on [`merge_top_k`]; pinned for every
//! precision and shard count against a whole-catalog scan by
//! `tests/properties.rs`, and against the tape by
//! `tests/serving_parity.rs`).
//!
//! ## Caching and invalidation
//!
//! Each shard owns its own (user, k) LRU. A shard swap
//! ([`ShardedEngine::swap_shard`]) invalidates exactly its own cache
//! with an O(1) epoch bump ([`ResultCache::bump_epoch`]); other
//! shards' warm entries survive. `mark_seen` evicts the user only from
//! the shard that owns the item. Per-shard counters live at
//! `serve/shard/{s}/{requests,cache_hits,cache_misses}`; per-shard
//! lifetime stats ([`ShardedEngine::shard_cache_stats`]) read shared
//! atomics, never the cache lock.

use crate::cache::{CacheStats, ResultCache};
use crate::engine::{seen_lists, EngineConfig, ServeError};
use crate::mask::SeenMask;
use crate::scheduler::Request;
use crate::topk::{merge_top_k, TopK};
use scenerec_core::{
    EntityMatrix, FrozenHead, FrozenModel, ItemSide, PairwiseModel, Precision, Recommendation,
    ShardMap,
};
use scenerec_data::Dataset;
use scenerec_faults::Injector;
use scenerec_obs::{lock_unpoisoned, metrics};
use scenerec_tensor::linalg;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Tuning knobs for a [`ShardedEngine`].
#[derive(Debug, Clone, Default)]
pub struct ShardedConfig {
    /// Number of contiguous item shards (0 behaves like 1; clamped to
    /// the catalog size by [`ShardMap::contiguous`]).
    pub shards: usize,
    /// Per-shard engine knobs; `cache_capacity` applies to *each*
    /// shard's cache.
    pub engine: EngineConfig,
}

impl ShardedConfig {
    /// A config with `shards` shards and default engine knobs.
    pub fn with_shards(shards: usize) -> Self {
        ShardedConfig {
            shards,
            engine: EngineConfig::default(),
        }
    }
}

/// One contiguous item range of the frozen catalog: its sliced entity
/// rows with their slice of the head, and its own result cache.
#[derive(Debug)]
struct Shard {
    /// First global item id in this shard (ids are `start..start+rows`).
    start: u32,
    side: ItemSide,
    cache: Mutex<ResultCache>,
    /// The cache's hit/miss counters, cloned out before the cache goes
    /// behind its mutex, so stats reads never contend with serving for
    /// the cache lock.
    stats: Arc<CacheStats>,
    /// This shard's `serve/shard/{s}/…` obs counter names, formatted
    /// once: formatting them on every lookup doubled a cache hit's cost.
    requests_counter: String,
    hits_counter: String,
    misses_counter: String,
}

/// One shard's contribution to a request: its local top-K re-labelled
/// with global item ids, plus the cache outcome for observability.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPartial {
    /// The shard's top-K candidates, global item ids, ranked.
    pub recs: Vec<Recommendation>,
    /// Whether the shard's cache answered the request.
    pub hit: bool,
    /// Unseen candidates ranked on a miss (0 on a hit, and at `k = 0`,
    /// which ranks nothing).
    pub candidates: usize,
}

/// Misses a task ranked ahead of its cells, by (user, k): the partial
/// each such cell answers its miss with (`ShardedEngine::prefetch`).
pub(crate) type Prefetched = BTreeMap<(u32, usize), ShardPartial>;

/// One request's ranking of one shard, in progress.
struct Ranking<'a> {
    user: u32,
    k: usize,
    /// The user's seen items, dropped while ranking.
    mask: Option<&'a SeenMask>,
    top: TopK,
    /// Unseen rows offered so far.
    candidates: usize,
}

impl Ranking<'_> {
    /// Offers one tile's scores, item `first + j` scoring `scores[j]`,
    /// dropping the user's seen items.
    fn offer_tile(&mut self, first: u32, scores: &[f32]) {
        match self.mask {
            None => {
                self.candidates += scores.len();
                self.top.offer_run(first, scores);
            }
            Some(mask) => {
                for (item, &score) in (first..).zip(scores) {
                    if !mask.contains(item) {
                        self.candidates += 1;
                        self.top.offer(item, score);
                    }
                }
            }
        }
    }

    fn finish(self) -> ShardPartial {
        ShardPartial {
            recs: self.top.finish(),
            hit: false,
            candidates: self.candidates,
        }
    }
}

/// The result-cache key's `k`: requests past `u32::MAX` share one key,
/// as they rank the whole shard alike.
fn cache_k(k: usize) -> u32 {
    u32::try_from(k).unwrap_or(u32::MAX)
}

/// A range-partitioned serving engine over a [`FrozenModel`].
///
/// Holds the full user matrix plus one shard per contiguous item
/// range. Seen masks are stored *sparsely* (only users with at least
/// one seen item carry a mask) — at catalog scale a dense per-user
/// bitmask vector would dwarf the model itself.
#[derive(Debug)]
pub struct ShardedEngine {
    name: String,
    users: EntityMatrix,
    precision: Precision,
    map: ShardMap,
    shards: Vec<Shard>,
    seen: BTreeMap<u32, SeenMask>,
    num_users: usize,
    num_items: usize,
    config: ShardedConfig,
}

fn shard_range_err(s: usize, shards: usize) -> ServeError {
    ServeError::Invalid(format!(
        "shard {s} out of range (engine has {shards} shards)"
    ))
}

impl ShardedEngine {
    /// Builds a sharded engine from a frozen model plus each user's
    /// seen-item list (index = user id).
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when the snapshot fails validation or the
    /// seen list does not cover every user.
    pub fn new(
        frozen: FrozenModel,
        seen_items: &[Vec<u32>],
        config: ShardedConfig,
    ) -> Result<Self, ServeError> {
        if seen_items.len() != frozen.num_users() {
            return Err(ServeError::Invalid(format!(
                "seen lists cover {} users but the model has {}",
                seen_items.len(),
                frozen.num_users()
            )));
        }
        let num_items = frozen.num_items() as u32;
        let seen = seen_items
            .iter()
            .enumerate()
            .filter(|(_, items)| !items.is_empty())
            .map(|(u, items)| (u as u32, SeenMask::from_items(num_items, items)))
            .collect();
        Self::build(frozen, seen, config)
    }

    /// Builds a sharded engine with no seen-item exclusions at all —
    /// the frozen-only path `paper_scale_plus` synthesis uses, where
    /// materializing per-user lists would serve no purpose.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] on an inconsistent snapshot.
    pub fn new_unseen(frozen: FrozenModel, config: ShardedConfig) -> Result<Self, ServeError> {
        Self::build(frozen, BTreeMap::new(), config)
    }

    /// Freezes `model` at `precision` and builds a sharded engine with
    /// seen masks from the dataset's training interactions (the same
    /// exclusion set `top_k_unseen` uses).
    ///
    /// # Errors
    /// [`ServeError::Unsupported`] when the model cannot freeze;
    /// [`ServeError::Invalid`] on an inconsistent snapshot.
    pub fn from_model_quantized<M: PairwiseModel>(
        model: &M,
        data: &Dataset,
        precision: Precision,
        config: ShardedConfig,
    ) -> Result<Self, ServeError> {
        let frozen = model
            .freeze_quantized(precision)
            .ok_or_else(|| ServeError::Unsupported(model.name().to_owned()))?;
        Self::new(frozen, &seen_lists(data), config)
    }

    /// Loads a SceneRec checkpoint and builds an engine from it.
    ///
    /// A v4 checkpoint carrying a `frozen` section is served from that
    /// embedded snapshot — at whatever precision it was quantized to,
    /// with its exact codes/scales — without re-freezing. Older (or
    /// training-only) checkpoints fall back to freezing the restored
    /// model at f32.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] on checkpoint load failures.
    pub fn from_checkpoint(
        path: &Path,
        data: &Dataset,
        config: ShardedConfig,
    ) -> Result<Self, ServeError> {
        let loaded = scenerec_core::checkpoint::load_full(path, data, &Injector::disabled())
            .map_err(|e| ServeError::Invalid(e.to_string()))?;
        match loaded.frozen {
            Some(frozen) => Self::new(frozen, &seen_lists(data), config),
            None => Self::from_model_quantized(&loaded.model, data, Precision::F32, config),
        }
    }

    fn build(
        frozen: FrozenModel,
        seen: BTreeMap<u32, SeenMask>,
        config: ShardedConfig,
    ) -> Result<Self, ServeError> {
        frozen.validate().map_err(ServeError::Invalid)?;
        let num_users = frozen.num_users();
        let num_items = frozen.num_items();
        let precision = frozen.precision();
        let user_dim = frozen.users.cols();
        let map = ShardMap::contiguous(num_items, config.shards.max(1));
        // One shard is the whole catalog: keep its matrices as they are
        // instead of copying them through a slice.
        let parts = if map.num_shards() == 1 {
            vec![(frozen.items, frozen.head)]
        } else {
            map.boundaries()
                .windows(2)
                .map(|w| frozen.slice_items(w[0] as usize, w[1] as usize))
                .collect::<Result<_, _>>()
                .map_err(ServeError::Invalid)?
        };
        let shards = map
            .boundaries()
            .iter()
            .zip(parts)
            .enumerate()
            .map(|(s, (&start, (items, head)))| {
                let cache = ResultCache::new(config.engine.cache_capacity);
                Ok(Shard {
                    start,
                    side: ItemSide::new(items, head, user_dim).map_err(ServeError::Invalid)?,
                    stats: cache.stats(),
                    cache: Mutex::new(cache),
                    requests_counter: format!("serve/shard/{s}/requests"),
                    hits_counter: format!("serve/shard/{s}/cache_hits"),
                    misses_counter: format!("serve/shard/{s}/cache_misses"),
                })
            })
            .collect::<Result<_, ServeError>>()?;
        Ok(ShardedEngine {
            name: frozen.name,
            users: frozen.users,
            precision,
            map,
            shards,
            seen,
            num_users,
            num_items,
            config,
        })
    }

    /// The frozen snapshot's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of users in the frozen universe.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items in the frozen universe.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Storage precision of the frozen entity matrices.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of item shards (≤ the configured count when the catalog
    /// is smaller).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The contiguous item partition.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    fn shard(&self, s: usize) -> Result<&Shard, ServeError> {
        self.shards
            .get(s)
            .ok_or_else(|| shard_range_err(s, self.shards.len()))
    }

    fn check_user(&self, user: u32) -> Result<(), ServeError> {
        if (user as usize) < self.num_users {
            Ok(())
        } else {
            Err(ServeError::UserOutOfRange {
                user,
                num_users: self.num_users,
            })
        }
    }

    /// An empty ranking of `shard` for `user` (checked by the caller).
    fn ranking(&self, shard: &Shard, user: u32, k: usize) -> Ranking<'_> {
        Ranking {
            user,
            k,
            mask: self.seen.get(&user),
            top: TopK::new(k, shard.side.items().rows()),
            candidates: 0,
        }
    }

    /// Ranks `shard` for every request of `batch`: the one routine
    /// behind a miss, whether a task prefetches its batch or a cell
    /// ranks alone. It walks the shard's rows in tiles of
    /// [`EngineConfig::band`] rows; each tile is scored for the pending
    /// requests [`linalg::BLOCK_X_ROWS`] at a time into one reused
    /// `BLOCK_X_ROWS × band` buffer (a dot head over f32 rows runs each
    /// group through the block kernel, reading the tile once for the
    /// group), and each request's unseen scores stream, in ascending
    /// item order, into its own top-K — the order a whole-shard scan
    /// offers them in, so the partial's bits do not depend on the batch
    /// or its groups. `k = 0` ranks nothing: its partial is empty and
    /// counts no candidates, as `select_top_k` pulls no candidate at
    /// `k = 0`. The rankings may come back reordered.
    fn rank(&self, shard: &Shard, batch: &mut [Ranking<'_>]) -> Result<(), ServeError> {
        let EngineConfig { band, threads, .. } = self.config.engine;
        let band = band.max(1);
        let rows = shard.side.items().rows();
        batch.sort_unstable_by_key(|r| r.k == 0);
        let live = batch.iter().take_while(|r| r.k > 0).count();
        let batch = &mut batch[..live];
        let group = live.min(linalg::BLOCK_X_ROWS);
        let mut scores = Vec::with_capacity(group * band.min(rows));
        for start in (0..rows).step_by(band) {
            let end = rows.min(start + band);
            let first = shard.start + start as u32;
            for rankings in batch.chunks_mut(linalg::BLOCK_X_ROWS) {
                let mut users = [0usize; linalg::BLOCK_X_ROWS];
                for (user, r) in users.iter_mut().zip(rankings.iter()) {
                    *user = r.user as usize;
                }
                let users = &users[..rankings.len()];
                shard
                    .side
                    .score_range(&self.users, users, start..end, band, threads, &mut scores)
                    .map_err(ServeError::Invalid)?;
                for (r, scores) in rankings.iter_mut().zip(scores.chunks_exact(end - start)) {
                    r.offer_tile(first, scores);
                }
            }
        }
        Ok(())
    }

    /// Ranks, in one tile walk, every distinct (user, k) of `requests`
    /// that shard `s`'s cache does not hold right now — a probe
    /// ([`ResultCache::contains`]) that leaves the cache untouched. A
    /// replay task runs this before its cells, so each of the shard's
    /// tiles is read once per micro-batch. The cells still look the
    /// cache up one by one and answer a miss from the result; a miss
    /// the probe did not foresee (an entry evicted earlier in the same
    /// batch) is ranked by its cell alone. Out-of-range users are left
    /// to their cells, and so is the whole batch when the walk fails:
    /// a cell's own ranking then reports the error.
    pub(crate) fn prefetch(&self, s: usize, requests: &[Request]) -> Prefetched {
        let Ok(shard) = self.shard(s) else {
            return Prefetched::new();
        };
        let tag = self.precision.tag();
        let misses: BTreeSet<(u32, usize)> = {
            let cache = lock_unpoisoned(&shard.cache);
            requests
                .iter()
                .filter(|r| (r.user as usize) < self.num_users)
                .filter(|r| !cache.contains(r.user, cache_k(r.k), tag))
                .map(|r| (r.user, r.k))
                .collect()
        };
        let mut batch: Vec<Ranking<'_>> = misses
            .into_iter()
            .map(|(user, k)| self.ranking(shard, user, k))
            .collect();
        if self.rank(shard, &mut batch).is_err() {
            return Prefetched::new();
        }
        batch
            .into_iter()
            .map(|r| ((r.user, r.k), r.finish()))
            .collect()
    }

    /// Scores shard `s` for `user` and returns the shard's top-`k`
    /// (global item ids), served through the shard's own cache. The
    /// full answer is `merge_top_k` over every shard's partial — see
    /// [`ShardedEngine::top_k`].
    ///
    /// # Errors
    /// [`ServeError::UserOutOfRange`]; [`ServeError::Invalid`] for a
    /// shard index out of range.
    pub fn partial_top_k(&self, s: usize, user: u32, k: usize) -> Result<ShardPartial, ServeError> {
        self.serve_partial(s, user, k, &Prefetched::new())
    }

    /// [`ShardedEngine::partial_top_k`], answering a miss from
    /// `prefetched` when it holds `(user, k)`, else by ranking the
    /// shard for this request alone. Every counter, cache lookup and
    /// insert is the one `partial_top_k` makes, and the partial's bits
    /// are the same whichever way it was ranked.
    pub(crate) fn serve_partial(
        &self,
        s: usize,
        user: u32,
        k: usize,
        prefetched: &Prefetched,
    ) -> Result<ShardPartial, ServeError> {
        let shard = self.shard(s)?;
        self.check_user(user)?;
        metrics::counter(&shard.requests_counter).inc();
        let key_k = cache_k(k);
        let tag = self.precision.tag();
        // Bind the lookup so the cache guard (a temporary) is dropped
        // before the metrics counter takes the obs registry lock (L2).
        let cached = lock_unpoisoned(&shard.cache).get(user, key_k, tag);
        if let Some(recs) = cached {
            metrics::counter(&shard.hits_counter).inc();
            return Ok(ShardPartial {
                recs,
                hit: true,
                candidates: 0,
            });
        }
        metrics::counter(&shard.misses_counter).inc();
        let partial = match prefetched.get(&(user, k)) {
            Some(partial) => partial.clone(),
            None => {
                let mut alone = [self.ranking(shard, user, k)];
                self.rank(shard, &mut alone)?;
                let [ranking] = alone;
                ranking.finish()
            }
        };
        lock_unpoisoned(&shard.cache).insert(user, key_k, tag, partial.recs.clone());
        Ok(partial)
    }

    /// Top-K unseen recommendations for `user` — identical to the
    /// training-side `top_k_unseen` at any shard count
    /// (`tests/serving_parity.rs`, `tests/properties.rs`).
    ///
    /// # Errors
    /// [`ServeError::UserOutOfRange`].
    pub fn top_k(&self, user: u32, k: usize) -> Result<Vec<Recommendation>, ServeError> {
        let mut partials = Vec::with_capacity(self.shards.len());
        for s in 0..self.shards.len() {
            partials.push(self.partial_top_k(s, user, k)?.recs);
        }
        Ok(merge_top_k(&partials, k))
    }

    /// Scores every item in the catalog for `user`, in item order, with
    /// no seen filtering and no cache — bit-identical to
    /// `PairwiseModel::score_values` over the whole catalog.
    ///
    /// # Errors
    /// [`ServeError::UserOutOfRange`].
    pub fn score_all(&self, user: u32) -> Result<Vec<f32>, ServeError> {
        self.check_user(user)?;
        let EngineConfig { band, threads, .. } = self.config.engine;
        let mut scores = Vec::with_capacity(self.num_items);
        let mut part = Vec::new();
        for shard in &self.shards {
            let rows = 0..shard.side.items().rows();
            shard
                .side
                .score_range(
                    &self.users,
                    &[user as usize],
                    rows,
                    band,
                    threads,
                    &mut part,
                )
                .map_err(ServeError::Invalid)?;
            scores.extend_from_slice(&part);
        }
        Ok(scores)
    }

    /// Marks `item` as seen for `user` and evicts the user's cached
    /// results from the *owning shard only* — other shards' partials
    /// are unaffected by the new exclusion and stay warm.
    ///
    /// # Errors
    /// [`ServeError::UserOutOfRange`]; [`ServeError::ItemOutOfRange`].
    pub fn mark_seen(&mut self, user: u32, item: u32) -> Result<(), ServeError> {
        self.check_user(user)?;
        let Some(s) = self.map.shard_of(item) else {
            return Err(ServeError::ItemOutOfRange {
                item,
                num_items: self.num_items,
            });
        };
        let num_items = self.num_items as u32;
        self.seen
            .entry(user)
            .or_insert_with(|| SeenMask::new(num_items))
            .insert(item);
        lock_unpoisoned(&self.shard(s)?.cache).evict_user(user);
        Ok(())
    }

    /// Invalidates every cached result of shard `s` in O(1) (epoch
    /// bump, lazily collected); other shards keep their warm entries.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] for a shard index out of range.
    pub fn invalidate_shard(&self, s: usize) -> Result<(), ServeError> {
        lock_unpoisoned(&self.shard(s)?.cache).bump_epoch();
        Ok(())
    }

    /// Replaces shard `s`'s item rows and head slice (e.g. after an
    /// incremental re-freeze of one catalog range), projects the new rows
    /// for an MLP head, and invalidates exactly that shard's cache.
    ///
    /// # Errors
    /// [`ServeError::Invalid`] when the replacement's shape or precision
    /// disagrees with the shard's range, or its head does not fit the
    /// rows (`FrozenHead::validate`).
    pub fn swap_shard(
        &mut self,
        s: usize,
        items: EntityMatrix,
        head: FrozenHead,
    ) -> Result<(), ServeError> {
        let range = self
            .map
            .range(s)
            .ok_or_else(|| shard_range_err(s, self.shards.len()))?;
        let rows = (range.end - range.start) as usize;
        if items.rows() != rows {
            return Err(ServeError::Invalid(format!(
                "shard {s} replacement has {} rows but the range {}..{} needs {rows}",
                items.rows(),
                range.start,
                range.end
            )));
        }
        if items.precision() != self.precision {
            return Err(ServeError::Invalid(format!(
                "shard {s} replacement is {} but the engine serves {}",
                items.precision().name(),
                self.precision.name()
            )));
        }
        let cols = self.shards[s].side.items().cols();
        if items.cols() != cols {
            return Err(ServeError::Invalid(format!(
                "shard {s} replacement has {} cols but the catalog has {cols}",
                items.cols()
            )));
        }
        let side = ItemSide::new(items, head, self.users.cols()).map_err(ServeError::Invalid)?;
        let shard = &mut self.shards[s];
        shard.side = side;
        lock_unpoisoned(&shard.cache).bump_epoch();
        Ok(())
    }

    /// Lifetime (hits, misses) of shard `s`'s result cache. Per-shard
    /// rather than global like the `serve/shard/{s}/*` counters, so they
    /// stay deterministic when engines run in parallel in one process.
    ///
    /// Reads the shared [`CacheStats`] atomics — **not** the cache mutex
    /// — so polling stats can never block serving (and serving's cache
    /// probe never waits behind a stats reader).
    ///
    /// # Errors
    /// [`ServeError::Invalid`] for a shard index out of range.
    pub fn shard_cache_stats(&self, s: usize) -> Result<(u64, u64), ServeError> {
        let stats = &self.shard(s)?.stats;
        Ok((stats.hits(), stats.misses()))
    }

    /// Number of entries in shard `s`'s cache (may count stale entries
    /// not yet collected after an epoch bump).
    ///
    /// # Errors
    /// [`ServeError::Invalid`] for a shard index out of range.
    pub fn shard_cache_len(&self, s: usize) -> Result<usize, ServeError> {
        Ok(lock_unpoisoned(&self.shard(s)?.cache).len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{
        replay_sharded, replay_sharded_with, responses_to_json, ReplayOptions, Request, Response,
        ShardReplayConfig,
    };
    use scenerec_core::FrozenModel;
    use scenerec_faults::{Fault, FaultPlan, Injector, Trigger};
    use scenerec_tensor::Matrix;

    /// splitmix64 — the repo's stock deterministic mixer (same constants
    /// as the synthesis stream in `scenerec_core::freeze`).
    fn splitmix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A pseudo-random dot model with heavy score ties: embeddings are
    /// drawn from a tiny alphabet so distinct items collide on exact
    /// scores, including runs straddling every shard boundary.
    fn tie_heavy_frozen(num_users: usize, num_items: usize, dim: usize) -> FrozenModel {
        let mut state = 0xace1u64;
        let mut next = move || {
            state = splitmix64(state);
            // 4-value alphabet => many exact collisions.
            ((state % 4) as f32 - 1.5) * 0.5
        };
        let users = Matrix::from_vec(
            num_users,
            dim,
            (0..num_users * dim).map(|_| next()).collect(),
        )
        .unwrap();
        let items = Matrix::from_vec(
            num_items,
            dim,
            (0..num_items * dim).map(|_| next()).collect(),
        )
        .unwrap();
        let bias = (0..num_items)
            .map(|i| ((i % 3) as f32 - 1.0) * 0.125)
            .collect();
        FrozenModel::dense("ties", users, items, FrozenHead::DotBias { bias })
    }

    fn supervised(
        engine: &ShardedEngine,
        requests: &[Request],
        config: &ShardReplayConfig,
        injector: Injector,
    ) -> Vec<Response> {
        let options = ReplayOptions {
            injector,
            ..ReplayOptions::default()
        };
        replay_sharded_with(engine, requests, config, &options).responses
    }

    /// A one-shard engine: the whole catalog behind one cache.
    fn single(frozen: FrozenModel, seen: &[Vec<u32>]) -> ShardedEngine {
        ShardedEngine::new(frozen, seen, ShardedConfig::with_shards(1)).unwrap()
    }

    fn seen_for(num_users: usize) -> Vec<Vec<u32>> {
        (0..num_users)
            .map(|u| ((u as u32)..(u as u32) + 3).collect())
            .collect()
    }

    #[test]
    fn sharded_top_k_is_bit_identical_to_single_engine() {
        let num_users = 7;
        let frozen = tie_heavy_frozen(num_users, 101, 6);
        let seen = seen_for(num_users);
        let single = single(frozen.clone(), &seen);
        for shards in [1usize, 2, 4, 8] {
            let sharded =
                ShardedEngine::new(frozen.clone(), &seen, ShardedConfig::with_shards(shards))
                    .unwrap();
            assert_eq!(sharded.num_shards(), shards);
            for user in 0..num_users as u32 {
                for k in [0usize, 1, 5, 101, 200] {
                    let want = single.top_k(user, k).unwrap();
                    let got = sharded.top_k(user, k).unwrap();
                    let wb: Vec<(u32, u32)> = want
                        .iter()
                        .map(|r| (r.item.raw(), r.score.to_bits()))
                        .collect();
                    let gb: Vec<(u32, u32)> = got
                        .iter()
                        .map(|r| (r.item.raw(), r.score.to_bits()))
                        .collect();
                    assert_eq!(wb, gb, "shards={shards} user={user} k={k}");
                }
            }
        }
    }

    #[test]
    fn all_seen_mask_yields_empty_results_at_every_shard_count() {
        let frozen = tie_heavy_frozen(2, 24, 4);
        let seen = vec![(0..24).collect::<Vec<u32>>(), Vec::new()];
        for shards in [1usize, 3, 8] {
            let engine =
                ShardedEngine::new(frozen.clone(), &seen, ShardedConfig::with_shards(shards))
                    .unwrap();
            assert!(engine.top_k(0, 10).unwrap().is_empty());
            assert_eq!(engine.top_k(1, 10).unwrap().len(), 10);
        }
    }

    #[test]
    fn out_of_range_requests_error_like_the_single_engine() {
        let engine =
            ShardedEngine::new_unseen(tie_heavy_frozen(3, 12, 4), ShardedConfig::with_shards(4))
                .unwrap();
        let err = engine.top_k(99, 1).unwrap_err();
        assert!(matches!(err, ServeError::UserOutOfRange { user: 99, .. }));
        assert!(matches!(
            engine.partial_top_k(9, 0, 1),
            Err(ServeError::Invalid(_))
        ));
    }

    /// Invalidating one shard leaves every other shard's warm entries
    /// hitting — the per-shard-epoch regression test for what used to
    /// require an engine-global cache clear.
    #[test]
    fn invalidate_shard_spares_other_shards_caches() {
        let engine =
            ShardedEngine::new_unseen(tie_heavy_frozen(3, 40, 4), ShardedConfig::with_shards(4))
                .unwrap();
        engine.top_k(1, 5).unwrap(); // cold: 4 misses
        engine.top_k(1, 5).unwrap(); // warm: 4 hits
        for s in 0..4 {
            assert_eq!(engine.shard_cache_stats(s).unwrap(), (1, 1), "shard {s}");
        }
        engine.invalidate_shard(2).unwrap();
        engine.top_k(1, 5).unwrap();
        for s in 0..4 {
            let want = if s == 2 { (1, 2) } else { (2, 1) };
            assert_eq!(engine.shard_cache_stats(s).unwrap(), want, "shard {s}");
        }
    }

    /// Satellite regression for the stats split: `shard_cache_stats`
    /// reads the shared atomics, not the cache mutex. The test holds a
    /// shard's cache lock on the same thread while polling stats — if
    /// the accessor ever went back to locking the cache, this would
    /// deadlock (std mutexes are non-reentrant) and hang the test.
    #[test]
    fn cache_stats_reads_do_not_take_the_cache_lock() {
        let engine =
            ShardedEngine::new_unseen(tie_heavy_frozen(3, 40, 4), ShardedConfig::with_shards(2))
                .unwrap();
        engine.top_k(0, 2).unwrap(); // one miss per shard, filled
        engine.top_k(0, 2).unwrap(); // one hit per shard
        let _cache_guard = engine.shards[1]
            .cache
            .lock()
            .expect("test holds shard 1's cache lock");
        assert_eq!(engine.shard_cache_stats(1).unwrap(), (1, 1));
    }

    /// A click on an item outside the catalog is a typed error, not a
    /// silently dropped click: no seen mask is allocated and no cache
    /// entry is evicted.
    #[test]
    fn mark_seen_rejects_out_of_range_items() {
        let mut engine =
            ShardedEngine::new_unseen(tie_heavy_frozen(3, 40, 4), ShardedConfig::with_shards(4))
                .unwrap();
        let before = engine.top_k(0, 5).unwrap();
        for item in [40u32, u32::MAX] {
            assert!(matches!(
                engine.mark_seen(0, item),
                Err(ServeError::ItemOutOfRange { item: i, num_items: 40 }) if i == item
            ));
        }
        assert!(engine.seen.is_empty(), "a rejected click allocated a mask");
        assert_eq!(engine.top_k(0, 5).unwrap(), before);
        for s in 0..4 {
            assert_eq!(engine.shard_cache_stats(s).unwrap(), (1, 1), "shard {s}");
        }
    }

    #[test]
    fn mark_seen_evicts_only_the_owning_shard() {
        let frozen = tie_heavy_frozen(3, 40, 4);
        let mut engine =
            ShardedEngine::new_unseen(frozen.clone(), ShardedConfig::with_shards(4)).unwrap();
        engine.top_k(0, 40).unwrap();
        // Item 15 lives in shard 1 (ranges of 10).
        assert_eq!(engine.shard_map().shard_of(15), Some(1));
        engine.mark_seen(0, 15).unwrap();
        engine.top_k(0, 40).unwrap();
        for s in 0..4 {
            let want = if s == 1 { (0, 2) } else { (1, 1) };
            assert_eq!(engine.shard_cache_stats(s).unwrap(), want, "shard {s}");
        }
        // And the exclusion is live: a single-engine oracle agrees.
        let single = single(frozen, &[vec![15], vec![], vec![]]);
        assert_eq!(engine.top_k(0, 40).unwrap(), single.top_k(0, 40).unwrap());
    }

    #[test]
    fn swap_shard_serves_the_new_slice_and_validates_shape() {
        let frozen = tie_heavy_frozen(3, 40, 4);
        let mut engine =
            ShardedEngine::new_unseen(frozen.clone(), ShardedConfig::with_shards(4)).unwrap();
        engine.top_k(0, 10).unwrap();
        // Replace shard 3 (items 30..40) with a bias-boosted head slice:
        // those items now dominate any other shard's scores.
        let (items, _) = frozen.slice_items(30, 40).unwrap();
        engine
            .swap_shard(
                3,
                items,
                FrozenHead::DotBias {
                    bias: vec![1000.0; 10],
                },
            )
            .unwrap();
        let top = engine.top_k(0, 10).unwrap();
        assert!(
            top.iter().all(|r| r.item.raw() >= 30),
            "swapped shard dominates: {top:?}"
        );
        // Other shards answered the second request from their caches.
        for s in 0..3 {
            assert_eq!(engine.shard_cache_stats(s).unwrap(), (1, 1), "shard {s}");
        }
        assert_eq!(engine.shard_cache_stats(3).unwrap(), (0, 2));

        let (wrong, _) = frozen.slice_items(0, 5).unwrap();
        assert!(engine
            .swap_shard(3, wrong, FrozenHead::DotBias { bias: vec![0.0; 5] })
            .is_err());
        let (ok_rows, _) = frozen.slice_items(0, 10).unwrap();
        assert!(engine
            .swap_shard(3, ok_rows, FrozenHead::DotBias { bias: vec![0.0; 3] })
            .is_err());
    }

    #[test]
    fn replay_sharded_matches_single_engine_replay_bytes() {
        let num_users = 5;
        let frozen = tie_heavy_frozen(num_users, 60, 4);
        let seen = seen_for(num_users);
        let single = single(frozen.clone(), &seen);
        let requests: Vec<Request> = (0..30u32)
            .map(|i| Request {
                user: i % num_users as u32,
                k: 1 + (i as usize % 7),
            })
            .collect();
        let want = responses_to_json(&replay_sharded(
            &single,
            &requests,
            &ShardReplayConfig::default(),
        ));
        for shards in [1usize, 2, 4] {
            let engine =
                ShardedEngine::new(frozen.clone(), &seen, ShardedConfig::with_shards(shards))
                    .unwrap();
            for workers in [1usize, 2, 4] {
                let got = responses_to_json(&replay_sharded(
                    &engine,
                    &requests,
                    &ShardReplayConfig {
                        workers,
                        max_batch: 8,
                        ..ShardReplayConfig::default()
                    },
                ));
                assert_eq!(want, got, "shards={shards} workers={workers}");
            }
        }
    }

    /// A task's misses ranked in groups of four — exact groups, a group
    /// plus a remainder, several groups — over shards of full 8-row
    /// blocks and a remainder, at widths with and without the 8-lane
    /// body: the replay's bytes equal one `top_k` per request on a
    /// one-shard twin, seen masks and repeated users included.
    #[test]
    fn grouped_misses_rank_like_lone_ones() {
        let num_users = 9;
        for dim in [3usize, 8, 13, 32] {
            let frozen = tie_heavy_frozen(num_users, 45, dim);
            let seen = seen_for(num_users);
            let twin = single(frozen.clone(), &seen);
            let requests: Vec<Request> = (0..23u32)
                .map(|i| Request {
                    user: (i * 5) % num_users as u32,
                    k: [3, 10, 45][i as usize % 3],
                })
                .collect();
            let want: Vec<Response> = requests
                .iter()
                .map(|r| Response {
                    user: r.user,
                    k: r.k,
                    recs: twin.top_k(r.user, r.k).unwrap(),
                    error: None,
                    degraded: false,
                    partial_shards: Vec::new(),
                    overload: None,
                })
                .collect();
            for shards in [1usize, 2] {
                let engine =
                    ShardedEngine::new(frozen.clone(), &seen, ShardedConfig::with_shards(shards))
                        .unwrap();
                for max_batch in [4usize, 5, 9, 64] {
                    let config = ShardReplayConfig {
                        max_batch,
                        ..ShardReplayConfig::default()
                    };
                    let got = replay_sharded(&engine, &requests, &config);
                    assert_eq!(
                        responses_to_json(&got),
                        responses_to_json(&want),
                        "dim {dim} shards {shards} max_batch {max_batch}"
                    );
                    engine.invalidate_shard(0).unwrap();
                    engine.invalidate_shard(shards - 1).unwrap();
                }
            }
        }
    }

    /// One shard past its retry budget degrades the response — merged
    /// survivors, `degraded` flag, the dead shard named — and every
    /// shard down becomes a typed error, never a silent truncation.
    #[test]
    fn shard_outage_degrades_and_names_the_missing_range() {
        let engine =
            ShardedEngine::new_unseen(tie_heavy_frozen(3, 40, 4), ShardedConfig::with_shards(4))
                .unwrap();
        let requests = [Request { user: 0, k: 40 }, Request { user: 1, k: 5 }];
        let config = ShardReplayConfig::default();

        let plan = FaultPlan::new(7).inject("serve/shard/1", Trigger::Always, Fault::Io);
        let out = supervised(&engine, &requests, &config, Injector::new(plan));
        for r in &out {
            assert!(r.degraded);
            assert!(r.error.is_none());
            assert_eq!(r.partial_shards, vec![1]);
            // Survivors only: nothing from items 10..20, all else ranked.
            assert!(r.recs.iter().all(|x| !(10..20).contains(&x.item.raw())));
        }
        assert_eq!(out[0].recs.len(), 30);

        let mut all_down = FaultPlan::new(7);
        for s in 0..4 {
            all_down = all_down.inject(&format!("serve/shard/{s}"), Trigger::Always, Fault::Io);
        }
        let out = supervised(&engine, &requests, &config, Injector::new(all_down));
        for r in &out {
            assert!(!r.degraded);
            assert!(r.recs.is_empty());
            assert!(r.partial_shards.is_empty());
            let msg = r.error.as_deref().unwrap();
            assert!(msg.starts_with("shard 0 unavailable"), "{msg}");
        }
    }

    #[test]
    fn unknown_user_errors_match_single_engine_text_through_replay() {
        let frozen = tie_heavy_frozen(3, 20, 4);
        let single = single(frozen.clone(), &vec![Vec::new(); 3]);
        let sharded = ShardedEngine::new_unseen(frozen, ShardedConfig::with_shards(4)).unwrap();
        let requests = [Request { user: 77, k: 3 }];
        let want = replay_sharded(&single, &requests, &ShardReplayConfig::default());
        let got = replay_sharded(&sharded, &requests, &ShardReplayConfig::default());
        assert_eq!(want[0].error, got[0].error);
        assert_eq!(responses_to_json(&want), responses_to_json(&got));
    }

    #[test]
    fn traced_structure_is_pinned_across_worker_counts() {
        use scenerec_obs::trace::structure_digest;

        let engine =
            ShardedEngine::new_unseen(tie_heavy_frozen(4, 30, 4), ShardedConfig::with_shards(3))
                .unwrap();
        let requests: Vec<Request> = (0..10u32).map(|i| Request { user: i % 4, k: 4 }).collect();
        let digest_at = |workers: usize| {
            let traces = replay_sharded_with(
                &engine,
                &requests,
                &ShardReplayConfig {
                    workers,
                    max_batch: 4,
                    ..ShardReplayConfig::default()
                },
                &ReplayOptions {
                    trace: true,
                    ..ReplayOptions::default()
                },
            )
            .traces;
            assert_eq!(traces.len(), requests.len());
            structure_digest(&traces)
        };
        let want = digest_at(1);
        assert_eq!(want, digest_at(2));
        assert_eq!(want, digest_at(4));
    }
}
