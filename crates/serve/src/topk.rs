//! Streaming top-K selection over scored candidates.
//!
//! The training-side [`top_k_for_user`](scenerec_core::top_k_for_user)
//! stable-sorts the full candidate list (scored in ascending item order)
//! descending by score and truncates; ties therefore come out in
//! ascending item order. `TopK` reproduces that exact ranking with a
//! size-K binary heap instead of an O(n log n) sort: a candidate replaces
//! the current worst entry only when it scores strictly higher, or ties
//! the score with a smaller item id. The final output is sorted by
//! (score descending, item ascending), which for candidates fed in
//! ascending item order is bit-for-bit the sort-and-truncate result.
//!
//! Candidates stream in: a shard offers each scored tile as it comes
//! (`TopK::offer_run`), so no caller holds a whole catalog's scores.
//! Once `k` entries are kept, a candidate strictly below the worst kept
//! score is one the heap would reject, so `TopK` skips it without
//! touching the heap; a run offers only the scores one bitmask marks as
//! at or above that floor, and a run wholly below it costs one
//! vectorizable compare per score. [`select_top_k`] and [`merge_top_k`]
//! are thin wrappers over the same selection.
//!
//! The serving order is total, NaN included: NaN ranks below every
//! number, and NaNs tie with each other and fall to the item id, like
//! any tie. So the sort in `TopK::finish` cannot meet an inconsistent
//! comparison, and the floor can only rise.

use scenerec_core::Recommendation;
use scenerec_graph::ItemId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The serving order on scores, a total order: `partial_cmp` on
/// numbers (so `-0.0 == +0.0`, and no finite score moves), with NaN its
/// own lowest class — below every number, equal to every NaN, whatever
/// its sign or payload. Callers break ties by item id.
#[inline]
fn score_ord(a: f32, b: f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
    }
}

/// Heap entry ordered so the heap's max element is the *worst* kept
/// candidate: lower score is "greater", and among equal scores the larger
/// item id is "greater" (smaller ids win ties).
#[derive(Debug, Clone, Copy)]
struct Worst {
    score: f32,
    item: u32,
}

impl PartialEq for Worst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Worst {}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        score_ord(other.score, self.score).then_with(|| self.item.cmp(&other.item))
    }
}

/// Scores per floor mask in [`TopK::offer_run`]: one bitmask marks the
/// run's scores at or above the floor.
const RUN: usize = 16;

/// The best `k` candidates seen so far, by (score descending, item id
/// ascending): one streaming selection behind serving's shard scans,
/// [`select_top_k`] and [`merge_top_k`].
///
/// Keeps a heap of at most `k` entries plus a *floor*: the heap's worst
/// kept score once it holds `k` entries, else −∞. A candidate strictly
/// below the floor (`score < floor`, false for NaN on either side)
/// ranks below the heap's worst, which is exactly the case the heap
/// rejects, so skipping it leaves the heap as it would have been. The
/// serving order is total, so a replacement only ever removes the worst
/// for something better: the floor can only rise, and a candidate below
/// it once stays below it.
#[derive(Debug)]
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<Worst>,
    floor: f32,
}

impl TopK {
    /// An empty selection of the best `k`, for at most `len` candidates.
    ///
    /// The heap is sized by `len`, the caller's candidate count, never
    /// by `k` alone: `k` comes from the request, and `k = 1 << 40` must
    /// not ask the allocator for terabytes.
    pub(crate) fn new(k: usize, len: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(len)),
            floor: f32::NEG_INFINITY,
        }
    }

    /// Offers one candidate.
    #[inline]
    pub(crate) fn offer(&mut self, item: u32, score: f32) {
        if score < self.floor {
            return;
        }
        self.admit(item, score);
    }

    /// Offers `scores[j]` as item `first + j`, in order: exactly
    /// [`TopK::offer`] on each. Each run of `RUN` scores is masked once
    /// against the floor as it stands at the run's start, and only the
    /// marked scores are offered. The floor only rises, so a score below
    /// it at the run's start is below it at its own turn too: skipping
    /// it is exact.
    pub(crate) fn offer_run(&mut self, first: u32, scores: &[f32]) {
        for (c, run) in scores.chunks(RUN).enumerate() {
            let floor = self.floor;
            // A fold over the whole run rather than an early exit, so it
            // vectorizes; bit `j` marks `run[j]` as below the floor.
            let below = run
                .iter()
                .enumerate()
                .fold(0u32, |m, (j, &s)| m | (u32::from(s < floor) << j));
            let mut marked = !below & ((1u32 << run.len()) - 1);
            let base = first + (c * RUN) as u32;
            while marked != 0 {
                let j = marked.trailing_zeros() as usize;
                marked &= marked - 1;
                self.offer(base + j as u32, run[j]);
            }
        }
    }

    /// The heap step: push while fewer than `k` are kept, else replace
    /// the worst in place when the candidate beats it, then refresh the
    /// floor.
    fn admit(&mut self, item: u32, score: f32) {
        if self.heap.len() < self.k {
            self.heap.push(Worst { score, item });
        } else {
            // An empty heap here means `k = 0`: nothing is kept.
            let Some(mut worst) = self.heap.peek_mut() else {
                return;
            };
            let replaces = match score_ord(score, worst.score) {
                Ordering::Greater => true,
                Ordering::Equal => item < worst.item,
                Ordering::Less => false,
            };
            if !replaces {
                return;
            }
            // Dropping the `PeekMut` sifts the new entry down.
            *worst = Worst { score, item };
        }
        if self.heap.len() == self.k {
            if let Some(worst) = self.heap.peek() {
                self.floor = worst.score;
            }
        }
    }

    /// The kept candidates, ranked by (score descending, item ascending).
    pub(crate) fn finish(self) -> Vec<Recommendation> {
        let mut out: Vec<Recommendation> = self
            .heap
            .into_iter()
            .map(|w| Recommendation {
                item: ItemId(w.item),
                score: w.score,
            })
            .collect();
        out.sort_by(|a, b| {
            score_ord(b.score, a.score).then_with(|| a.item.raw().cmp(&b.item.raw()))
        });
        out
    }
}

/// Selects the top `k` of `candidates` by (score descending, item id
/// ascending) using a bounded heap.
///
/// Equivalent to stable-sorting candidates listed in ascending item order
/// descending by score and truncating to `k` — the exact contract of the
/// training-side `top_k_for_user`. `k = 0` and `k > len` both behave like
/// the sort-based oracle (empty result / all candidates ranked); `k = 0`
/// returns without pulling a single candidate.
///
/// The heap is sized by the candidate count (the iterator's size hint),
/// never by `k` alone (see `TopK::new`).
pub fn select_top_k<I>(candidates: I, k: usize) -> Vec<Recommendation>
where
    I: IntoIterator<Item = (u32, f32)>,
{
    if k == 0 {
        return Vec::new();
    }
    let candidates = candidates.into_iter();
    let (lower, upper) = candidates.size_hint();
    let mut top = TopK::new(k, upper.unwrap_or(lower));
    for (item, score) in candidates {
        top.offer(item, score);
    }
    top.finish()
}

/// Exact scatter-gather merge: re-selects the global top `k` from
/// per-shard top-`k` lists.
///
/// **Why this is exact** (the proof sketch in DESIGN.md §15): the
/// serving order `(score desc, item id asc)` is a *strict total order*
/// on candidates (item ids are unique, and scores compare totally, NaN
/// as the lowest class).
/// Restricting a strict total order to a subset preserves ranking, so
/// every member of the global top-k that lives in shard `s` is also in
/// shard `s`'s local top-k — no global winner can be truncated away by
/// its own shard. The union of the per-shard lists therefore contains
/// the global top-k, and re-selecting with the same comparator
/// ([`select_top_k`], which is input-order independent under a strict
/// order) yields exactly the single-engine result, ties included.
///
/// NaN scores keep this contract: the serving order puts NaN below
/// every number, with NaNs tied and broken by item id, so it stays a
/// strict total order on candidates. They sit outside the tape parity
/// contract only: the training-side sort treats NaN as equal to
/// everything, so its NaN rankings need not match serving's.
pub fn merge_top_k(partials: &[Vec<Recommendation>], k: usize) -> Vec<Recommendation> {
    let mut top = TopK::new(k, partials.iter().map(Vec::len).sum());
    for r in partials.iter().flatten() {
        top.offer(r.item.raw(), r.score);
    }
    top.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle the heap must match: stable sort desc + truncate, over
    /// candidates listed in ascending item order.
    fn oracle(candidates: &[(u32, f32)], k: usize) -> Vec<Recommendation> {
        let mut v: Vec<Recommendation> = candidates
            .iter()
            .map(|&(item, score)| Recommendation {
                item: ItemId(item),
                score,
            })
            .collect();
        v.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(Ordering::Equal));
        v.truncate(k);
        v
    }

    #[test]
    fn matches_oracle_on_distinct_scores() {
        let cands: Vec<(u32, f32)> = (0..50u32).map(|i| (i, ((i * 37) % 50) as f32)).collect();
        for k in [0, 1, 3, 10, 50, 80] {
            assert_eq!(select_top_k(cands.iter().copied(), k), oracle(&cands, k));
        }
    }

    #[test]
    fn ties_break_by_ascending_item() {
        // Scores collide heavily; the stable sort keeps ascending item order.
        let cands: Vec<(u32, f32)> = (0..40u32).map(|i| (i, (i % 4) as f32)).collect();
        for k in [1, 5, 12, 40] {
            assert_eq!(select_top_k(cands.iter().copied(), k), oracle(&cands, k));
        }
    }

    #[test]
    fn k_larger_than_candidates_returns_all_ranked() {
        let cands = [(0u32, 1.0f32), (1, 3.0), (2, 2.0)];
        let got = select_top_k(cands.iter().copied(), 10);
        assert_eq!(got.len(), 3);
        assert_eq!(got, oracle(&cands, 10));
    }

    #[test]
    fn k_zero_and_empty_candidates() {
        assert!(select_top_k([(0u32, 1.0f32)].iter().copied(), 0).is_empty());
        assert!(select_top_k(std::iter::empty::<(u32, f32)>(), 5).is_empty());
    }

    /// The scatter-gather merge equals a single global selection, on a
    /// distribution built to stress it: heavy score collisions with tie
    /// runs straddling the shard boundaries.
    #[test]
    fn merge_of_shard_top_ks_equals_global_top_k() {
        // 60 items, scores collide every 5 ids -> ties cross any
        // contiguous boundary; boundary at 29|30 splits a tie run.
        let cands: Vec<(u32, f32)> = (0..60u32).map(|i| (i, (i % 5) as f32)).collect();
        for shards in [1usize, 2, 3, 4, 8] {
            let per = cands.len().div_ceil(shards);
            for k in [0usize, 1, 7, 20, 60, 100] {
                let partials: Vec<Vec<Recommendation>> = cands
                    .chunks(per)
                    .map(|chunk| select_top_k(chunk.iter().copied(), k))
                    .collect();
                let merged = merge_top_k(&partials, k);
                let global = select_top_k(cands.iter().copied(), k);
                assert_eq!(merged, global, "shards={shards} k={k}");
            }
        }
    }

    /// The plain bounded heap, without a floor and fed one candidate
    /// at a time: the oracle every [`TopK`] path must match bit for bit,
    /// NaN included.
    fn select_bounded(
        candidates: impl Iterator<Item = (u32, f32)>,
        k: usize,
        len: usize,
    ) -> Vec<Recommendation> {
        if k == 0 {
            return Vec::new();
        }
        // The heap never holds more than `k` entries: a replacement pops
        // before it pushes.
        let mut heap: BinaryHeap<Worst> = BinaryHeap::with_capacity(k.min(len));
        for (item, score) in candidates {
            if heap.len() < k {
                heap.push(Worst { score, item });
                continue;
            }
            let replaces = match heap.peek() {
                Some(worst) => match score_ord(score, worst.score) {
                    Ordering::Greater => true,
                    Ordering::Equal => item < worst.item,
                    Ordering::Less => false,
                },
                None => true,
            };
            if replaces {
                heap.pop();
                heap.push(Worst { score, item });
            }
        }
        let mut out: Vec<Recommendation> = heap
            .into_iter()
            .map(|w| Recommendation {
                item: ItemId(w.item),
                score: w.score,
            })
            .collect();
        out.sort_by(|a, b| {
            score_ord(b.score, a.score).then_with(|| a.item.raw().cmp(&b.item.raw()))
        });
        out
    }

    fn rec_bits(recs: &[Recommendation]) -> Vec<(u32, u32)> {
        recs.iter()
            .map(|r| (r.item.raw(), r.score.to_bits()))
            .collect()
    }

    /// A selection's bits. The serving order is total, so no selection
    /// can panic in its final sort.
    fn outcome(select: impl FnOnce() -> Vec<Recommendation>) -> Vec<(u32, u32)> {
        rec_bits(&select())
    }

    /// splitmix64, the repo's stock deterministic mixer.
    fn splitmix64(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A stream drawn from a tiny alphabet of NaN, ±0.0, ±∞ and a few
    /// finite values, so ties are long and NaN lands in the heap.
    fn hostile_stream(seed: u64, len: usize) -> Vec<f32> {
        const ALPHABET: [f32; 9] = [
            f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            -1.0,
            2.5,
            1.0,
        ];
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = splitmix64(state);
                // One seed in four has no NaN, so the floor engages.
                let draw = state % ALPHABET.len() as u64;
                if seed.is_multiple_of(4) && draw == 0 {
                    2.5
                } else {
                    ALPHABET[draw as usize]
                }
            })
            .collect()
    }

    /// Every path into [`TopK`] equals the plain heap bit for bit, on
    /// streams of NaN, ±0.0, ±∞ and heavy ties: one `offer` per
    /// candidate, one `offer_run` over the whole stream, and the stream
    /// split into runs at every length around the floor mask's 16-score
    /// step. A run's mask is taken against the floor at the run's start;
    /// that is exact because the order is total and the floor can only
    /// rise.
    #[test]
    fn streaming_selection_matches_the_plain_heap() {
        let runs = [1usize, 2, 7, 15, 16, 17, 31, 32, 33, 48, 65];
        for seed in 0..400u64 {
            let len = (splitmix64(seed ^ 0x5eed) % 180) as usize;
            let scores = hostile_stream(seed, len);
            let stream = || scores.iter().enumerate().map(|(i, &s)| (i as u32, s));
            for k in [1usize, 2, 3, 5, 16, 17, 50, len, len + 3] {
                let want = outcome(|| select_bounded(stream(), k, len));
                assert_eq!(
                    outcome(|| select_top_k(stream(), k)),
                    want,
                    "seed {seed} k {k}"
                );
                let whole = outcome(|| {
                    let mut top = TopK::new(k, len);
                    top.offer_run(0, &scores);
                    top.finish()
                });
                assert_eq!(whole, want, "seed {seed} k {k} whole");
                for run in runs {
                    let got = outcome(|| {
                        let mut top = TopK::new(k, len);
                        for (c, chunk) in scores.chunks(run).enumerate() {
                            top.offer_run((c * run) as u32, chunk);
                        }
                        top.finish()
                    });
                    assert_eq!(got, want, "seed {seed} k {k} runs of {run}");
                }
            }
        }
    }

    /// The merge offers candidates in no particular item order: single
    /// offers over a shuffled hostile stream still match the plain heap.
    #[test]
    fn unordered_offers_match_the_plain_heap() {
        for seed in 0..300u64 {
            let len = (splitmix64(seed ^ 0xface) % 120) as usize;
            let scores = hostile_stream(seed, len);
            let mut order: Vec<u32> = (0..len as u32).collect();
            let mut state = seed;
            for i in (1..order.len()).rev() {
                state = splitmix64(state);
                order.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let stream = || order.iter().map(|&i| (i, scores[i as usize]));
            for k in [0usize, 1, 3, 8, 33, len] {
                let want = outcome(|| select_bounded(stream(), k, len));
                let got = outcome(|| {
                    let mut top = TopK::new(k, len);
                    for (item, score) in stream() {
                        top.offer(item, score);
                    }
                    top.finish()
                });
                assert_eq!(got, want, "seed {seed} k {k}");
            }
        }
    }

    /// `k = 0` keeps nothing on every path, and `select_top_k` does not
    /// even pull its candidates.
    #[test]
    fn zero_k_keeps_nothing_and_pulls_nothing() {
        let mut pulled = 0;
        let cands = (0..10u32).map(|i| (i, i as f32)).inspect(|_| pulled += 1);
        assert!(select_top_k(cands, 0).is_empty());
        assert_eq!(pulled, 0);
        let mut top = TopK::new(0, 10);
        top.offer_run(0, &[1.0, f32::NAN, f32::INFINITY]);
        top.offer(7, 3.0);
        assert!(top.finish().is_empty());
        assert!(merge_top_k(&[vec![], select_top_k([(1, 2.0f32)], 1)], 0).is_empty());
    }

    /// NaN is outside the tape parity contract (models emit finite
    /// scores), but serving still ranks it deterministically: the heap
    /// gives the same bits on every call.
    #[test]
    fn nan_scores_are_deterministic_and_well_formed() {
        let cands = [(0u32, f32::NAN), (1, 1.0f32), (2, f32::NAN), (3, 2.0)];
        let first = select_top_k(cands.iter().copied(), 2);
        assert_eq!(first.len(), 2);
        for _ in 0..5 {
            let again = select_top_k(cands.iter().copied(), 2);
            assert_eq!(first.len(), again.len());
            assert!(first
                .iter()
                .zip(&again)
                .all(|(a, b)| a.item == b.item && a.score.to_bits() == b.score.to_bits()));
        }
    }

    /// Regression: the serving order is total, so hostile streams —
    /// NaN of both signs mixed with ±0.0, ±∞ and long ties — select
    /// without a panic on every path, and rank every NaN last: each
    /// selection is its numbers first, by (score desc, item asc), then
    /// its NaNs by item ascending, and it keeps a NaN only when fewer
    /// than `k` numbers were offered. The comparator that treated NaN as
    /// equal to everything let the final sort panic on such streams.
    #[test]
    fn hostile_nan_streams_select_without_panicking_and_rank_nan_last() {
        for seed in 0..400u64 {
            let len = (splitmix64(seed ^ 0xbad) % 150) as usize;
            let mut scores = hostile_stream(seed, len);
            for (i, s) in scores.iter_mut().enumerate() {
                if s.is_nan() && i % 2 == 1 {
                    *s = -f32::NAN;
                }
            }
            let numbers = scores.iter().filter(|s| !s.is_nan()).count();
            for k in [1usize, 2, 5, 16, 17, 40, len, len + 1] {
                let stream = scores.iter().enumerate().map(|(i, &s)| (i as u32, s));
                let mut whole = TopK::new(k, len);
                whole.offer_run(0, &scores);
                let parts = [
                    select_top_k(stream.clone(), k),
                    whole.finish(),
                    merge_top_k(
                        &[
                            select_top_k(stream.clone().filter(|(i, _)| i % 3 == 0), k),
                            select_top_k(stream.clone().filter(|(i, _)| i % 3 != 0), k),
                        ],
                        k,
                    ),
                ];
                for got in parts {
                    assert_eq!(got.len(), k.min(len), "seed {seed} k {k}");
                    let kept_nan = got.iter().filter(|r| r.score.is_nan()).count();
                    assert_eq!(kept_nan, k.min(len).saturating_sub(numbers));
                    let (head, tail) = got.split_at(got.len() - kept_nan);
                    assert!(head.iter().all(|r| !r.score.is_nan()));
                    assert!(tail.windows(2).all(|w| w[0].item.raw() < w[1].item.raw()));
                    assert!(head.windows(2).all(|w| {
                        w[0].score > w[1].score
                            || (w[0].score == w[1].score && w[0].item.raw() < w[1].item.raw())
                    }));
                }
            }
        }
    }
}
