//! Streaming top-K selection over scored candidates.
//!
//! The training-side [`top_k_for_user`](scenerec_core::top_k_for_user)
//! stable-sorts the full candidate list (scored in ascending item order)
//! descending by score and truncates; ties therefore come out in
//! ascending item order. `TopK` reproduces that exact ranking without
//! sorting the candidates: each one it keeps carries an integer key
//! (`rank_key`) that orders exactly as (score descending, item
//! ascending), the kept candidates collect in a buffer, and a full
//! buffer is cut back to its `k` best keys by `select_nth_unstable`.
//! The final output is the survivors sorted by key, which for
//! candidates fed in ascending item order is bit-for-bit the
//! sort-and-truncate result.
//!
//! Candidates stream in: a shard offers each scored tile as it comes
//! (`TopK::offer_run`), so no caller holds a whole catalog's scores.
//! Each cut sets a *floor*, the score of the `k`-th best candidate seen
//! so far. A candidate strictly below it ranks below `k` candidates
//! already kept, so `TopK` skips it without touching the buffer; a run
//! offers only the scores one bitmask marks as at or above that floor,
//! and a run wholly below it costs one vectorizable compare per score.
//! [`select_top_k`] and [`merge_top_k`] are thin wrappers over the same
//! selection.
//!
//! The serving order is total, NaN included: NaN ranks below every
//! number, and NaNs tie with each other and fall to the item id, like
//! any tie. The key encodes exactly that order, so a cut and the final
//! sort compare plain integers, and the floor can only rise.

use scenerec_core::Recommendation;
use scenerec_graph::ItemId;

/// A candidate's place in the serving order as one integer:
/// `rank_key(a, i) > rank_key(b, j)` exactly when item `i` scoring `a`
/// ranks ahead of item `j` scoring `b`, that is by score (a total
/// order: `partial_cmp` on numbers, so `-0.0 == +0.0`, with NaN its own
/// lowest class whatever its sign or payload), then by the smaller item
/// id.
///
/// The high 32 bits are the score's class: 0 for every NaN, one value
/// for ±0.0, and every other number through the monotone map from
/// IEEE-754 bits to unsigned order (`!bits` for negatives,
/// `bits | 1 << 31` for positives), which puts −∞ at `0x007f_ffff`,
/// above the NaN class. The low 32 bits are `!item`, so that a smaller
/// id wins a tie. The key drops the sign of zero and the NaN payload:
/// a kept candidate carries its score's own bits beside it.
#[inline]
fn rank_key(score: f32, item: u32) -> u64 {
    let bits = score.to_bits();
    let class = if score.is_nan() {
        0
    } else if score == 0.0 {
        1 << 31
    } else if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    (class as u64) << 32 | (!item) as u64
}

/// A kept candidate: its [`rank_key`], and its score, whose sign of
/// zero and NaN payload the key does not keep.
#[derive(Debug, Clone, Copy)]
struct Keyed {
    key: u64,
    score: f32,
}

impl Keyed {
    fn item(&self) -> u32 {
        !(self.key as u32)
    }

    /// The order of a cut and of the final sort: best first, by key.
    fn best_first(a: &Self, b: &Self) -> std::cmp::Ordering {
        b.key.cmp(&a.key)
    }
}

/// Scores per floor mask in [`TopK::offer_run`]: one bitmask marks the
/// run's scores at or above the floor.
const RUN: usize = 16;

/// Room the buffer holds past `k` before a cut. As large as `k`, so a
/// cut, linear in the buffer, is paid at most once per `k` admissions;
/// at least 32, so a small `k` is not cut every few admissions. It
/// follows from `k` alone.
fn slack(k: usize) -> usize {
    k.max(32)
}

/// The best `k` candidates seen so far, by (score descending, item id
/// ascending): one streaming selection behind serving's shard scans,
/// [`select_top_k`] and [`merge_top_k`].
///
/// Keeps a buffer of keyed candidates and a *floor*, −∞ until the first
/// cut. A candidate at or above the floor is pushed; once the buffer
/// holds `k` plus [`slack`] entries it is cut back to its `k` best keys
/// (`select_nth_unstable`), and the `k`-th survivor's score becomes the
/// floor. A candidate strictly below the floor (`score < floor`, false
/// for NaN on either side) ranks below `k` kept candidates, so it can
/// never make the top `k`: skipping it is exact. The `k`-th best of a
/// growing set can only improve, so the floor only rises, and a
/// candidate below it once stays below it. A NaN floor skips nothing.
#[derive(Debug)]
pub(crate) struct TopK {
    k: usize,
    /// The ranked output, reserved before the buffer. Reserved at
    /// `finish` instead, outputs land in the holes that freed buffers
    /// leave and pin them: in perfbench `serve_catalog` each worker
    /// thread's glibc arena then held 2.5 MB instead of 1.0 MB, for the
    /// same bytes in use.
    out: Vec<Recommendation>,
    /// Candidates at or above the floor, in no order; at most `k` after
    /// a cut.
    buf: Vec<Keyed>,
    /// The buffer length that triggers a cut, `k` plus its slack.
    limit: usize,
    floor: f32,
}

impl TopK {
    /// An empty selection of the best `k`, for at most `len` candidates.
    ///
    /// The output and the buffer are reserved by `len`, the caller's
    /// candidate count, never by `k` alone: `k` comes from the request,
    /// and `k = 1 << 40` must not ask the allocator for terabytes. A
    /// `len` that falls short only costs the buffer its growth: the cut
    /// limit follows from `k`.
    pub(crate) fn new(k: usize, len: usize) -> Self {
        let kept = k.min(len);
        TopK {
            k,
            out: Vec::with_capacity(kept),
            buf: Vec::with_capacity(kept.saturating_add(slack(kept))),
            limit: k.saturating_add(slack(k)),
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
            let below = (0..)
                .zip(run)
                .fold(0u32, |m, (j, &s)| m | ((s < floor) as u32) << j);
            let mut marked = !below & ((1u32 << run.len()) - 1);
            let base = first + (c * RUN) as u32;
            while marked != 0 {
                let j = marked.trailing_zeros() as usize;
                marked &= marked - 1;
                self.offer(base + j as u32, run[j]);
            }
        }
    }

    /// Keeps a candidate that is not below the floor, and cuts the
    /// buffer once it is full.
    fn admit(&mut self, item: u32, score: f32) {
        self.buf.push(Keyed {
            key: rank_key(score, item),
            score,
        });
        if self.buf.len() >= self.limit {
            self.cut();
        }
    }

    /// Cuts a buffer of more than `k` entries back to its `k` best keys,
    /// and raises the floor to the `k`-th one's score. `k = 0` keeps
    /// nothing.
    fn cut(&mut self) {
        let Some(last) = self.k.checked_sub(1) else {
            self.buf.clear();
            return;
        };
        let (_, kth, _) = self.buf.select_nth_unstable_by(last, Keyed::best_first);
        self.floor = kth.score;
        self.buf.truncate(self.k);
    }

    /// The kept candidates, ranked by (score descending, item ascending).
    pub(crate) fn finish(mut self) -> Vec<Recommendation> {
        if self.buf.len() > self.k {
            self.cut();
        }
        self.buf.sort_unstable_by(Keyed::best_first);
        self.out.extend(self.buf.iter().map(|c| Recommendation {
            item: ItemId(c.item()),
            score: c.score,
        }));
        self.out
    }
}

/// Selects the top `k` of `candidates` by (score descending, item id
/// ascending) through the streaming keyed selection (`TopK`).
///
/// Equivalent to stable-sorting candidates listed in ascending item order
/// descending by score and truncating to `k` — the exact contract of the
/// training-side `top_k_for_user`. `k = 0` and `k > len` both behave like
/// the sort-based oracle (empty result / all candidates ranked); `k = 0`
/// returns without pulling a single candidate.
///
/// The buffer is reserved by the candidate count (the iterator's size
/// hint: a `filter`'s upper bound, nothing for `std::iter::from_fn`),
/// never by `k` alone (see `TopK::new`). A hint that falls short only
/// lets the buffer grow: the cuts follow from `k`, so they come as often
/// as with an exact hint.
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
/// as the lowest class), and `rank_key` maps it onto distinct integers.
/// Restricting a strict total order to a subset preserves ranking, so
/// every member of the global top-k that lives in shard `s` is also in
/// shard `s`'s local top-k — no global winner can be truncated away by
/// its own shard. The union of the per-shard lists therefore contains
/// the global top-k, and re-selecting by the same keys yields exactly
/// the single-engine result, ties included: the `k` largest of a set of
/// distinct integers, and their sorted order, do not depend on the
/// order they were offered in, nor on where the cuts fell.
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
    use proptest::prelude::*;
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

    /// Score bit patterns the key must place exactly: NaN of both signs
    /// and several payloads, ±0.0, subnormals, ±∞ and the extreme finite
    /// values.
    const SPECIAL_BITS: [u32; 16] = [
        0x7fc0_0000, // the quiet NaN `f32::NAN`
        0xffc0_0000, // its negative, x86's default NaN
        0x7f80_0001, // signalling NaN, smallest payload
        0xff80_0001,
        0x7fff_ffff, // NaN, largest payload
        0xffff_ffff,
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x0000_0001, // smallest subnormal
        0x8000_0001,
        0x007f_ffff, // largest subnormal
        0x807f_ffff,
        0x7f80_0000, // +∞
        0xff80_0000, // −∞
        0x7f7f_ffff, // f32::MAX
        0xff7f_ffff, // f32::MIN
    ];

    /// A score drawn toward [`SPECIAL_BITS`]: three draws in four pick
    /// one of them, the rest are arbitrary bit patterns.
    fn drawn_score() -> impl Strategy<Value = f32> {
        (0u32..21, 0u32..=u32::MAX).prop_map(|(pick, raw)| {
            f32::from_bits(SPECIAL_BITS.get(pick as usize).copied().unwrap_or(raw))
        })
    }

    /// An item drawn toward the extremes, so equal items are common.
    fn drawn_item() -> impl Strategy<Value = u32> {
        (0u32..6, 0u32..=u32::MAX).prop_map(|(pick, raw)| match pick {
            0 => 0,
            1 => u32::MAX,
            2 => 1,
            _ => raw,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The key orders candidates exactly as the serving order:
        /// `score_ord`, then the smaller item first.
        #[test]
        fn rank_key_orders_like_the_serving_order(
            a in drawn_score(),
            b in drawn_score(),
            i in drawn_item(),
            j in drawn_item(),
        ) {
            for (i, j) in [(i, j), (i, i), (j, j)] {
                prop_assert_eq!(
                    rank_key(a, i).cmp(&rank_key(b, j)),
                    score_ord(a, b).then(j.cmp(&i)),
                    "a {:#010x} item {} b {:#010x} item {}",
                    a.to_bits(),
                    i,
                    b.to_bits(),
                    j
                );
            }
        }
    }

    /// Offers a stream one candidate at a time and counts the cuts. A
    /// push grows the buffer by one and a skip leaves it, while a cut
    /// leaves `k` of at least `k + 32`: a cut is exactly an offer after
    /// which the buffer is shorter.
    fn offer_counting_cuts(top: &mut TopK, stream: impl Iterator<Item = (u32, f32)>) -> usize {
        let mut cuts = 0;
        for (item, score) in stream {
            let before = top.buf.len();
            top.offer(item, score);
            cuts += usize::from(top.buf.len() < before);
        }
        cuts
    }

    /// Offers `scores[j]` as item `j` through every path into [`TopK`]
    /// (one `offer` per candidate, one `offer_run` over the stream, and
    /// runs of 16 and 17) and checks each against the plain heap.
    /// Returns the cuts the one-by-one offers made.
    fn check_all_paths(scores: &[f32], k: usize, what: &str) -> usize {
        let len = scores.len();
        let stream = || scores.iter().enumerate().map(|(i, &s)| (i as u32, s));
        let want = outcome(|| select_bounded(stream(), k, len));
        let mut single = TopK::new(k, len);
        let cuts = offer_counting_cuts(&mut single, stream());
        assert_eq!(outcome(|| single.finish()), want, "{what} k {k} offers");
        for run in [len.max(1), 16, 17] {
            let mut top = TopK::new(k, len);
            for (c, chunk) in scores.chunks(run).enumerate() {
                top.offer_run((c * run) as u32, chunk);
            }
            assert_eq!(outcome(|| top.finish()), want, "{what} k {k} runs of {run}");
        }
        cuts
    }

    /// A stream mostly of ±0.0 and ties, with some NaN of both signs,
    /// so a cut's boundary falls inside a run of tied or ±0.0 scores.
    fn zero_heavy_stream(seed: u64, len: usize) -> Vec<f32> {
        const ALPHABET: [f32; 8] = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, f32::NAN, -f32::NAN];
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = splitmix64(state);
                ALPHABET[(state % ALPHABET.len() as u64) as usize]
            })
            .collect()
    }

    /// Distinct-ish finite scores from a hash, for streams whose floor
    /// climbs the way a real catalog's does.
    fn spread_stream(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = splitmix64(state);
                (state >> 40) as f32 / (1u64 << 20) as f32 - 8.0
            })
            .collect()
    }

    /// Scores that mostly rise, with small integer jitter: nearly every
    /// candidate beats the floor, so the buffer fills again and again,
    /// and the jitter's ties straddle the cuts.
    fn rising_stream(seed: u64, len: usize) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|i| {
                state = splitmix64(state);
                (i / 4) as f32 + (state % 3) as f32
            })
            .collect()
    }

    /// Streams long enough to be cut several times, at each k around the
    /// slack's edges: ties and ±0.0 pairs straddle the cuts, and every
    /// path still equals the plain heap.
    #[test]
    fn streams_cut_several_times_match_the_plain_heap() {
        for k in [1usize, 2, 16, 17, 50, 64] {
            for seed in 0..6u64 {
                let len = 12 * (k + slack(k));
                let streams = [
                    ("hostile", hostile_stream(seed, len)),
                    ("zero-heavy", zero_heavy_stream(seed, len)),
                    ("rising", rising_stream(seed, len)),
                ];
                for (what, scores) in streams {
                    let cuts = check_all_paths(&scores, k, &format!("{what} seed {seed}"));
                    assert!(cuts >= 2, "{what} seed {seed} k {k}: {cuts} cuts");
                }
            }
        }
    }

    /// The cuts of a zero-heavy stream set the floor to ±0.0 with tied
    /// zeros on both sides of the cut; a NaN floor (fewer than `k`
    /// numbers seen) skips nothing, while a ±0.0 floor skips every
    /// negative number and neither zero.
    #[test]
    fn nan_and_signed_zero_floors_are_exact() {
        for k in [1usize, 2, 16, 17, 50, 64] {
            let limit = k + slack(k);
            // k - 1 numbers, then NaNs of both signs up to the cut
            // limit: the one cut's k-th best is a NaN.
            let mut scores = vec![1.0f32; k - 1];
            scores.extend((k - 1..limit).map(|i| f32::from_bits(SPECIAL_BITS[i % 6])));
            let mut top = TopK::new(k, scores.len() + 2);
            let stream = scores.iter().enumerate().map(|(i, &s)| (i as u32, s));
            assert_eq!(offer_counting_cuts(&mut top, stream), 1, "k {k}");
            assert!(top.floor.is_nan(), "k {k}");
            let kept = top.buf.len();
            top.offer(scores.len() as u32, f32::NEG_INFINITY);
            top.offer(scores.len() as u32 + 1, f32::NAN);
            assert_eq!(top.buf.len(), kept + 2, "k {k}: a NaN floor skips nothing");
            scores.extend([f32::NEG_INFINITY, f32::NAN]);
            assert_eq!(
                outcome(|| top.finish()),
                outcome(|| select_bounded(
                    scores.iter().enumerate().map(|(i, &s)| (i as u32, s)),
                    k,
                    scores.len()
                )),
                "k {k} NaN floor"
            );

            // k - 1 numbers, then alternating ±0.0 up to the limit: the
            // k-th best is a zero, and tied zeros of both signs straddle
            // the cut.
            let mut scores = vec![1.0f32; k - 1];
            scores.extend((k - 1..limit).map(|i| if i % 2 == 0 { -0.0 } else { 0.0 }));
            let mut top = TopK::new(k, scores.len() + 3);
            let stream = scores.iter().enumerate().map(|(i, &s)| (i as u32, s));
            assert_eq!(offer_counting_cuts(&mut top, stream), 1, "k {k}");
            assert_eq!(top.floor, 0.0, "k {k}");
            let kept = top.buf.len();
            let next = scores.len() as u32;
            top.offer(next, -f32::MIN_POSITIVE);
            assert_eq!(top.buf.len(), kept, "k {k}: a ±0.0 floor skips negatives");
            top.offer(next + 1, -0.0);
            top.offer(next + 2, 0.0);
            assert_eq!(top.buf.len(), kept + 2, "k {k}: and keeps both zeros");
            scores.extend([-f32::MIN_POSITIVE, -0.0, 0.0]);
            assert_eq!(
                outcome(|| top.finish()),
                outcome(|| select_bounded(
                    scores.iter().enumerate().map(|(i, &s)| (i as u32, s)),
                    k,
                    scores.len()
                )),
                "k {k} zero floor"
            );
        }
    }

    /// A huge `k` allocates by the candidate count, never by `k`, and
    /// its cut limit saturates instead of overflowing.
    #[test]
    fn huge_k_allocates_by_the_candidate_count() {
        for k in [1usize << 40, usize::MAX] {
            let mut top = TopK::new(k, 10);
            assert!(top.buf.capacity() < 64, "k {k}: {}", top.buf.capacity());
            assert_eq!(top.limit, k.saturating_add(k), "k {k}");
            top.offer_run(0, &[3.0, 1.0, f32::NAN, 2.0]);
            assert_eq!(
                rec_bits(&top.finish()),
                [
                    (0, 3.0f32.to_bits()),
                    (3, 2.0f32.to_bits()),
                    (1, 1.0f32.to_bits()),
                    (2, f32::NAN.to_bits())
                ]
            );
        }
        let cands: Vec<(u32, f32)> = (0..40u32).map(|i| (i, (i % 7) as f32)).collect();
        assert_eq!(
            select_top_k(cands.iter().copied(), usize::MAX),
            oracle(&cands, usize::MAX)
        );
    }

    /// Iterators whose size hint falls short select exactly what an
    /// exact hint does, and cut no more often: the cut limit follows
    /// from `k`, and a short hint only lets the buffer grow.
    #[test]
    fn short_size_hints_select_and_cut_like_exact_ones() {
        let scores = spread_stream(11, 5_000);
        let stream = || scores.iter().enumerate().map(|(i, &s)| (i as u32, s));
        for k in [1usize, 17, 64, 300] {
            let want = outcome(|| select_bounded(stream(), k, scores.len()));
            let mut it = stream();
            let unhinted = std::iter::from_fn(move || it.next());
            assert_eq!(unhinted.size_hint(), (0, None));
            assert_eq!(outcome(|| select_top_k(unhinted, k)), want, "from_fn k {k}");
            assert_eq!(
                outcome(|| select_top_k(stream().filter(|_| true), k)),
                want,
                "filter k {k}"
            );
            let evens = || stream().filter(|(i, _)| i % 2 == 0);
            assert_eq!(
                outcome(|| select_top_k(evens(), k)),
                outcome(|| select_bounded(evens(), k, scores.len())),
                "filtered evens k {k}"
            );
        }

        // k = 1 000 over 10⁶ candidates: an unhinted run (what
        // `select_top_k` builds for a `(0, None)` hint) cuts exactly as
        // often as the hinted one, a few times, never once per push.
        let (k, n) = (1_000usize, 1_000_000u32);
        let stream = || {
            let mut state = 0x5eed_u64;
            (0..n).map(move |item| {
                state = splitmix64(state);
                (item, (state >> 40) as f32)
            })
        };
        let mut hinted = TopK::new(k, n as usize);
        let mut unhinted = TopK::new(k, 0);
        let cuts = offer_counting_cuts(&mut hinted, stream());
        assert_eq!(offer_counting_cuts(&mut unhinted, stream()), cuts);
        assert!((1..=20).contains(&cuts), "{cuts} cuts over {n} candidates");
        assert_eq!(rec_bits(&unhinted.finish()), rec_bits(&hinted.finish()));
    }

    /// Serving never offers an item twice, but `select_top_k` takes any
    /// stream. An item offered twice is two candidates; when its scores
    /// share a class (+0.0 and −0.0, or two NaNs) their keys tie, and
    /// the two are interchangeable to the selection: both are kept, next
    /// to each other, when both rank within `k`, and when only one does,
    /// which of the two comes back is unspecified. Each comes back with
    /// its own bits, and one stream selects the same bytes on every call.
    #[test]
    fn an_item_offered_twice_with_tied_keys_is_interchangeable() {
        let pairs = [(0.0f32, -0.0f32), (f32::NAN, -f32::NAN)];
        for (x, y) in pairs {
            // Filler ranked below the pair: negatives, or NaNs of larger
            // ids.
            let below = |i: u32| if x.is_nan() { f32::NAN } else { -(i as f32) };
            for k in [1usize, 20, 21, 22, 40] {
                let mut cands: Vec<(u32, f32)> = (10..30u32).map(|i| (i, i as f32)).collect();
                cands.extend((30..90u32).map(|i| (i, below(i))));
                cands.insert(7, (5, x));
                cands.insert(41, (5, y));
                let first = rec_bits(&select_top_k(cands.iter().copied(), k));
                for _ in 0..3 {
                    assert_eq!(rec_bits(&select_top_k(cands.iter().copied(), k)), first);
                }
                // The ranking by item matches the plain heap's.
                let heap = rec_bits(&select_bounded(cands.iter().copied(), k, cands.len()));
                let items = |v: &[(u32, u32)]| v.iter().map(|p| p.0).collect::<Vec<_>>();
                assert_eq!(items(&first), items(&heap), "k {k}");
                // Each kept copy is one of the offers, and both fit
                // exactly when two places are left for them.
                let dups: Vec<u32> = first.iter().filter(|p| p.0 == 5).map(|p| p.1).collect();
                let fits = k.saturating_sub(20).min(2);
                assert_eq!(dups.len(), fits, "k {k}");
                assert!(dups.iter().all(|&b| b == x.to_bits() || b == y.to_bits()));
                if fits == 2 {
                    assert_ne!(dups[0], dups[1], "k {k}: both copies kept");
                }
            }
        }
    }

    /// AVX2 and AVX-512 dots may return another NaN sign or payload than
    /// the scalar loop. The key puts every NaN in one class, so streams
    /// that differ only in their NaNs select the same items in the same
    /// order (with each stream's own NaN bits).
    #[test]
    fn nan_signs_and_payloads_do_not_move_the_selection() {
        const NANS: [u32; 6] = [
            0x7fc0_0000,
            0xffc0_0000,
            0x7f80_0001,
            0xff80_0001,
            0x7fff_ffff,
            0xffff_ffff,
        ];
        for seed in 0..40u64 {
            let len = 40 + (splitmix64(seed) % 400) as usize;
            let scores = hostile_stream(seed, len);
            let mut state = seed ^ 0x7a7a;
            let twin: Vec<f32> = scores
                .iter()
                .map(|&s| {
                    state = splitmix64(state);
                    if s.is_nan() {
                        f32::from_bits(NANS[(state % NANS.len() as u64) as usize])
                    } else {
                        s
                    }
                })
                .collect();
            for k in [1usize, 2, 16, 17, 50, 64, len] {
                let pick = |s: &[f32]| {
                    select_top_k(s.iter().enumerate().map(|(i, &v)| (i as u32, v)), k)
                        .iter()
                        .map(|r| (r.item.raw(), (!r.score.is_nan()).then(|| r.score.to_bits())))
                        .collect::<Vec<_>>()
                };
                assert_eq!(pick(&scores), pick(&twin), "seed {seed} k {k}");
            }
        }
    }
}
