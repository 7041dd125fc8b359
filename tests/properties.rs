//! Property-based integration tests (proptest) over cross-crate
//! invariants: generator configs, splits, metrics and graph construction.

use proptest::prelude::*;
use scenerec_data::split::LeaveOneOutSplit;
use scenerec_data::{generate, GeneratorConfig};
use scenerec_eval::metrics::{hit_at_k, ndcg_at_k, rank_of_positive, MetricSet};
use scenerec_graph::CsrGraph;
use scenerec_serve::select_top_k;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The serving top-K oracle: score candidates in ascending item order,
/// stable-sort descending by score (NaN-safe Equal fallback), truncate —
/// exactly what `scenerec_core::top_k_for_user` does after scoring.
fn brute_force_top_k(candidates: &[(u32, f32)], k: usize) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, f32)> = candidates.to_vec();
    v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    v.truncate(k);
    v.into_iter().map(|(i, s)| (i, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid tiny-ish config generates a consistent dataset.
    #[test]
    fn generator_respects_config(
        seed in 0u64..1000,
        users in 10u32..40,
        items in 30u32..100,
        cats in 4u32..10,
        scenes in 2u32..8,
    ) {
        let mut cfg = GeneratorConfig::tiny(seed);
        cfg.num_users = users;
        cfg.num_items = items;
        cfg.num_categories = cats;
        cfg.num_scenes = scenes;
        cfg.scene_size_max = cfg.scene_size_max.min(cats);
        cfg.scene_size_min = cfg.scene_size_min.min(cfg.scene_size_max);
        let data = generate(&cfg).unwrap();
        prop_assert_eq!(data.num_users(), users);
        prop_assert_eq!(data.num_items(), items);
        prop_assert_eq!(data.scene_graph.num_categories(), cats);
        prop_assert_eq!(data.scene_graph.num_scenes(), scenes);
        // Split accounting is exact.
        prop_assert_eq!(
            data.interactions.num_interactions(),
            data.split.num_train() + 2 * data.split.num_eval_users()
        );
    }

    /// The rank of a positive is bounded by the number of negatives, and
    /// metrics are monotone in K.
    #[test]
    fn metric_invariants(pos in -10.0f32..10.0, negs in prop::collection::vec(-10.0f32..10.0, 0..50)) {
        let rank = rank_of_positive(pos, &negs);
        prop_assert!(rank <= negs.len());
        for k in 1..negs.len().max(2) {
            prop_assert!(hit_at_k(rank, k) <= hit_at_k(rank, k + 1));
            prop_assert!(ndcg_at_k(rank, k) <= ndcg_at_k(rank, k + 1) + 1e-7);
            prop_assert!(ndcg_at_k(rank, k) <= hit_at_k(rank, k));
        }
    }

    /// Aggregated metric sets stay in [0, 1] and HR dominates NDCG.
    #[test]
    fn metric_set_bounds(ranks in prop::collection::vec(0usize..120, 1..40), k in 1usize..20) {
        let m = MetricSet::from_ranks(&ranks, k);
        prop_assert!((0.0..=1.0).contains(&m.hr));
        prop_assert!((0.0..=1.0).contains(&m.ndcg));
        prop_assert!((0.0..=1.0).contains(&m.mrr));
        prop_assert!(m.ndcg <= m.hr + 1e-7);
        prop_assert!((m.precision - m.hr / k as f32).abs() < 1e-6);
    }

    /// Leave-one-out never leaks held-out items into training, for any
    /// positive-list shape.
    #[test]
    fn split_never_leaks(
        seed in 0u64..500,
        lists in prop::collection::vec(prop::collection::hash_set(0u32..200, 0..12), 1..20),
    ) {
        let positives: Vec<Vec<u32>> = lists.into_iter().map(|s| s.into_iter().collect()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let split = LeaveOneOutSplit::build(&positives, 200, 10, &mut rng);
        for inst in split.validation.iter().chain(&split.test) {
            prop_assert!(!split.train.iter().any(|&(u, i)| u == inst.user && i == inst.positive));
            // Negatives are never positives of that user.
            for n in &inst.negatives {
                prop_assert!(!positives[inst.user.index()].contains(&n.raw()));
            }
        }
        // Every positive is accounted for exactly once.
        let held: usize = split.validation.len() + split.test.len();
        let total: usize = positives.iter().map(Vec::len).sum();
        prop_assert_eq!(split.train.len() + held, total);
    }

    /// CSR round-trips arbitrary edge lists: every inserted edge is
    /// findable, weights merge additively.
    #[test]
    fn csr_contains_all_edges(
        edges in prop::collection::vec((0u32..30, 0u32..30, 0.1f32..5.0), 0..100),
    ) {
        let g = CsrGraph::from_edges(30, 30, edges.clone()).unwrap();
        for &(s, d, _) in &edges {
            prop_assert!(g.has_edge(s, d));
        }
        let total_weight: f32 = edges.iter().map(|e| e.2).sum();
        let stored_weight: f32 = g.iter_edges().map(|e| e.2).sum();
        prop_assert!((total_weight - stored_weight).abs() < 1e-3 * total_weight.max(1.0));
        // Transpose twice is identity.
        prop_assert_eq!(g.transpose().transpose(), g);
    }

    /// The serving heap select matches the sort-and-truncate oracle for
    /// arbitrary finite scores and any k — including k = 0, k larger
    /// than the candidate count, and the empty candidate list.
    #[test]
    fn serve_top_k_matches_brute_force(
        scores in prop::collection::vec(-100.0f32..100.0, 0..80),
        k in 0usize..100,
    ) {
        let candidates: Vec<(u32, f32)> =
            scores.iter().enumerate().map(|(i, &s)| (i as u32, s)).collect();
        let got: Vec<(u32, u32)> = select_top_k(candidates.iter().copied(), k)
            .into_iter()
            .map(|r| (r.item.raw(), r.score.to_bits()))
            .collect();
        prop_assert_eq!(got, brute_force_top_k(&candidates, k));
    }

    /// With heavy ties (scores snapped to a coarse grid) the heap must
    /// reproduce the stable sort's tie order: ascending item id.
    #[test]
    fn serve_top_k_breaks_ties_like_stable_sort(
        raw in prop::collection::vec(0u32..4, 1..80),
        k in 0usize..90,
    ) {
        let candidates: Vec<(u32, f32)> =
            raw.iter().enumerate().map(|(i, &s)| (i as u32, s as f32)).collect();
        let got: Vec<(u32, u32)> = select_top_k(candidates.iter().copied(), k)
            .into_iter()
            .map(|r| (r.item.raw(), r.score.to_bits()))
            .collect();
        prop_assert_eq!(got, brute_force_top_k(&candidates, k));
    }

    /// Masking items out of the candidate stream behaves like an
    /// all-items-seen filter: with every candidate masked the result is
    /// empty; with a partial mask the surviving ranking equals the
    /// oracle over the surviving candidates.
    #[test]
    fn serve_top_k_respects_candidate_filtering(
        scores in prop::collection::vec(-10.0f32..10.0, 1..60),
        mask_mod in 1usize..4,
        k in 1usize..20,
    ) {
        let all: Vec<(u32, f32)> =
            scores.iter().enumerate().map(|(i, &s)| (i as u32, s)).collect();
        // "Seen" = every index divisible by mask_mod (mask_mod == 1 masks all).
        let unseen: Vec<(u32, f32)> = all
            .iter()
            .copied()
            .filter(|(i, _)| (*i as usize) % mask_mod != 0)
            .collect();
        let got: Vec<(u32, u32)> = select_top_k(unseen.iter().copied(), k)
            .into_iter()
            .map(|r| (r.item.raw(), r.score.to_bits()))
            .collect();
        prop_assert_eq!(got, brute_force_top_k(&unseen, k));
        if mask_mod == 1 {
            prop_assert!(got.is_empty());
        }
    }
}

// ---------------------------------------------------------------------
// Shard equivalence: a ShardedEngine's top-K is byte-identical to a
// whole-catalog scan of the same frozen model — at any shard count, any
// precision, any k (including 0 and > candidates), under any seen mask
// (including all-seen), with ties straddling every shard boundary. The
// scan runs no slice, select or merge code: `score_all` on a one-shard
// engine, the seen filter, and `brute_force_top_k`.
// ---------------------------------------------------------------------

use scenerec_core::{FrozenHead, FrozenModel, Precision, Recommendation};
use scenerec_serve::{ShardedConfig, ShardedEngine};
use scenerec_tensor::Matrix;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded dot-bias model. `tie_heavy` snaps embeddings to a 3-value
/// grid so distinct items collide on exact scores in long runs.
fn random_frozen(
    seed: u64,
    num_users: usize,
    num_items: usize,
    dim: usize,
    tie_heavy: bool,
) -> FrozenModel {
    let mut state = seed;
    let mut next = move || {
        state = splitmix64(state.wrapping_add(1));
        if tie_heavy {
            ((state % 3) as f32 - 1.0) * 0.5
        } else {
            (state >> 40) as f32 / 8_388_608.0 - 1.0
        }
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
    let bias = (0..num_items).map(|_| next() * 0.125).collect();
    FrozenModel::dense("prop", users, items, FrozenHead::DotBias { bias })
}

fn rec_bits(recs: &[Recommendation]) -> Vec<(u32, u32)> {
    recs.iter()
        .map(|r| (r.item.raw(), r.score.to_bits()))
        .collect()
}

/// The reference ranking: every catalog score from a one-shard engine's
/// `score_all`, minus `seen`, ranked by the stable-sort oracle.
fn scan_top_k(scan: &ShardedEngine, user: u32, seen: &[u32], k: usize) -> Vec<(u32, u32)> {
    let unseen: Vec<(u32, f32)> = scan
        .score_all(user)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u32, s))
        .filter(|(i, _)| !seen.contains(i))
        .collect();
    brute_force_top_k(&unseen, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random models, every precision, shard counts {1,2,4,8}: sharded
    /// top-K equals the whole-catalog scan bit-for-bit — including k = 0,
    /// k beyond the candidate count, and users whose entire catalog is
    /// masked as seen (`seen_mod == 1`).
    #[test]
    fn sharded_engine_is_bit_identical_to_single_engine(
        seed in 0u64..1_000_000,
        num_users in 1usize..6,
        num_items in 1usize..80,
        dim in 1usize..8,
        tie_idx in 0usize..2,
        seen_mod in 1usize..5,
        precision_idx in 0usize..3,
        k in 0usize..100,
    ) {
        let precision = [Precision::F32, Precision::F16, Precision::Int8][precision_idx];
        let tie_heavy = tie_idx == 1;
        let frozen = random_frozen(seed, num_users, num_items, dim, tie_heavy)
            .quantize(precision)
            .unwrap();
        // `seen_mod == 1` marks every item seen for every user.
        let seen: Vec<Vec<u32>> = (0..num_users)
            .map(|u| {
                (0..num_items as u32)
                    .filter(|i| (*i as usize + u) % seen_mod == 0)
                    .collect()
            })
            .collect();
        let scan = ShardedEngine::new(frozen.clone(), &seen, ShardedConfig::with_shards(1)).unwrap();
        for shards in [1usize, 2, 4, 8] {
            let sharded =
                ShardedEngine::new(frozen.clone(), &seen, ShardedConfig::with_shards(shards))
                    .unwrap();
            for user in 0..num_users as u32 {
                for k in [0usize, 1, k, num_items, num_items + 7] {
                    let want = scan_top_k(&scan, user, &seen[user as usize], k);
                    let got = sharded.top_k(user, k).unwrap();
                    prop_assert_eq!(
                        want,
                        rec_bits(&got),
                        "shards={} user={} k={} precision={}",
                        shards, user, k, precision.name()
                    );
                    if seen_mod == 1 {
                        prop_assert!(got.is_empty());
                    }
                }
            }
        }
    }

    /// Adversarial tie runs straddling every shard boundary: all items
    /// score on a tiny cyclic grid, so every contiguous partition cuts
    /// through maximal tie runs — the merge must still reproduce the
    /// scan's ascending-item tie order exactly.
    #[test]
    fn boundary_straddling_ties_merge_exactly(
        num_items in 8usize..120,
        cycle in 2usize..7,
        k in 1usize..130,
    ) {
        let users = Matrix::from_vec(1, 1, vec![1.0]).unwrap();
        let items = Matrix::from_vec(
            num_items,
            1,
            (0..num_items).map(|i| (i % cycle) as f32 * 0.25).collect(),
        )
        .unwrap();
        let frozen = FrozenModel::dense(
            "ties",
            users,
            items,
            FrozenHead::DotBias { bias: vec![0.0; num_items] },
        );
        let scan = ShardedEngine::new_unseen(frozen.clone(), ShardedConfig::with_shards(1)).unwrap();
        let want = scan_top_k(&scan, 0, &[], k);
        for shards in [1usize, 2, 4, 8] {
            let sharded =
                ShardedEngine::new_unseen(frozen.clone(), ShardedConfig::with_shards(shards))
                    .unwrap();
            prop_assert_eq!(
                &want,
                &rec_bits(&sharded.top_k(0, k).unwrap()),
                "shards={} cycle={} k={}",
                shards, cycle, k
            );
        }
    }
}

// ---------------------------------------------------------------------
// Admission control (scenerec_serve::admission): the overload gate is a
// pure plan. Accounting is exact, verdicts are causal in arrival order,
// and bounded replays are byte-identical at any worker count.
// ---------------------------------------------------------------------

use scenerec_serve::{
    admission_plan, replay_sharded_with, responses_to_json, AdmissionConfig, Lane, ReplayOptions,
    Request, ShardReplayConfig, TimedRequest, Verdict,
};

/// Builds a trace from (gap, user, k) triples: cumulative bursty ticks
/// over a small user space so lanes and capacities genuinely contend.
fn arrivals_from(parts: &[(u64, u32, usize)]) -> Vec<TimedRequest> {
    let mut tick = 0u64;
    parts
        .iter()
        .map(|&(gap, user, k)| {
            tick += gap;
            TimedRequest {
                arrive_tick: tick,
                request: Request {
                    user: user % 6,
                    k: 1 + k % 3,
                },
            }
        })
        .collect()
}

/// Arbitrary small admission configs, including zero capacities, from a
/// knob tuple (the vendored proptest has no `prop_compose!`).
type CfgKnobs = ((usize, usize), (u32, u32), (u64, u32));

fn admission_cfg_from(knobs: CfgKnobs) -> AdmissionConfig {
    let (
        (fast_capacity, cold_capacity),
        (fast_weight, cold_weight),
        (drain_every_ticks, drain_per_round),
    ) = knobs;
    AdmissionConfig {
        fast_capacity,
        cold_capacity,
        fast_weight,
        cold_weight,
        drain_every_ticks,
        drain_per_round,
    }
}

fn cfg_knobs() -> impl Strategy<Value = CfgKnobs> {
    (
        (0usize..8, 0usize..8),
        (1u32..6, 1u32..4),
        (1u64..10, 1u32..4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every arrival is either admitted or shed — never
    /// both, never neither — for any trace and any config, and the
    /// per-lane counters agree with the verdict list exactly.
    #[test]
    fn admission_accounting_is_exact(
        parts in prop::collection::vec((0u64..30, 0u32..16, 0usize..5), 0..120),
        knobs in cfg_knobs(),
    ) {
        let cfg = admission_cfg_from(knobs);
        let arrivals = arrivals_from(&parts);
        let plan = admission_plan(&arrivals, &cfg);
        prop_assert_eq!(plan.offered(), arrivals.len());
        prop_assert_eq!(plan.admitted() + plan.shed(), plan.offered());
        for lane in [Lane::Fast, Lane::Cold] {
            let admitted = plan
                .verdicts
                .iter()
                .filter(|v| matches!(v, Verdict::Admit { lane: l, .. } if *l == lane))
                .count();
            let shed = plan
                .verdicts
                .iter()
                .filter(|v| matches!(v, Verdict::Shed(i) if i.lane == lane))
                .count();
            prop_assert_eq!(admitted, plan.admitted_by_lane[lane.index()]);
            prop_assert_eq!(shed, plan.shed_by_lane[lane.index()]);
            prop_assert!(plan.peak_depth_by_lane[lane.index()] <= match lane {
                Lane::Fast => cfg.fast_capacity,
                Lane::Cold => cfg.cold_capacity,
            });
        }
        // Every shed is typed with a full queue and a positive retry hint.
        for v in &plan.verdicts {
            if let Verdict::Shed(info) = v {
                let cap = match info.lane {
                    Lane::Fast => cfg.fast_capacity,
                    Lane::Cold => cfg.cold_capacity,
                };
                prop_assert!(info.queue_depth >= cap, "shed below capacity");
                prop_assert!(info.retry_after_ticks >= 1);
            }
        }
    }

    /// Purity and causality: the plan is a function of (arrival order,
    /// ticks, config) alone — recomputing it changes nothing, and
    /// appending future arrivals never rewrites past verdicts.
    #[test]
    fn shed_decisions_are_pure_and_causal(
        parts in prop::collection::vec((0u64..30, 0u32..16, 0usize..5), 1..100),
        cut in 0usize..100,
        knobs in cfg_knobs(),
    ) {
        let cfg = admission_cfg_from(knobs);
        let arrivals = arrivals_from(&parts);
        let plan = admission_plan(&arrivals, &cfg);
        prop_assert_eq!(&plan, &admission_plan(&arrivals, &cfg));
        let m = cut.min(arrivals.len());
        let prefix = admission_plan(&arrivals[..m], &cfg);
        prop_assert_eq!(
            &prefix.verdicts[..],
            &plan.verdicts[..m],
            "a later arrival changed an earlier verdict"
        );
    }

    /// Worker-count invariance end to end: the bounded replay returns
    /// the same plan and byte-identical responses at workers {1, 2, 4} —
    /// shedding is decided before any worker exists, and responses are
    /// reassembled in arrival order. Four shards give every worker
    /// count work.
    #[test]
    fn bounded_replay_is_byte_identical_across_workers(
        seed in 0u64..100_000,
        parts in prop::collection::vec((0u64..6, 0u32..6, 0usize..3), 1..60),
        knobs in cfg_knobs(),
        max_batch in 1usize..6,
    ) {
        let cfg = admission_cfg_from(knobs);
        let frozen = random_frozen(seed, 6, 12, 4, false);
        let seen: Vec<Vec<u32>> = vec![Vec::new(); 6];
        let arrivals = arrivals_from(&parts);
        let mut reference: Option<(String, _)> = None;
        for workers in [1usize, 2, 4] {
            let engine =
                ShardedEngine::new(frozen.clone(), &seen, ShardedConfig::with_shards(4)).unwrap();
            let bounded = ShardReplayConfig {
                workers,
                max_batch,
                ..ShardReplayConfig::default()
            };
            let options = ReplayOptions {
                admission: Some(cfg.clone()),
                ..ReplayOptions::default()
            };
            let replayed = replay_sharded_with(&engine, &arrivals, &bounded, &options);
            let (out, plan) = (replayed.responses, replayed.plan.expect("admission was requested"));
            prop_assert_eq!(out.len(), arrivals.len());
            let rendered = responses_to_json(&out);
            match &reference {
                None => reference = Some((rendered, plan)),
                Some((want_bytes, want_plan)) => {
                    prop_assert_eq!(want_plan, &plan, "workers={} changed the plan", workers);
                    prop_assert_eq!(
                        want_bytes,
                        &rendered,
                        "workers={} changed the bytes",
                        workers
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Retry backoff (scenerec_faults::Backoff): the schedule the serving
// scheduler and chaos suite rely on must be a pure, bounded, monotone
// function of the attempt index.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The schedule is deterministic: two independently constructed
    /// instances with the same parameters produce identical delays.
    #[test]
    fn backoff_is_deterministic(base in 0u64..1_000, cap in 0u64..10_000, attempt in 0u32..100) {
        let a = scenerec_serve::Backoff::new(base, cap);
        let b = scenerec_serve::Backoff::new(base, cap);
        prop_assert_eq!(a.ticks(attempt), b.ticks(attempt));
        prop_assert_eq!(a.total_ticks(attempt), b.total_ticks(attempt));
    }

    /// Delays never shrink as attempts accumulate, and every single
    /// delay is bounded by the cap — even at saturating attempt counts.
    #[test]
    fn backoff_is_monotone_and_bounded(base in 0u64..1_000, cap in 0u64..10_000) {
        let b = scenerec_serve::Backoff::new(base, cap);
        let mut prev = 0u64;
        for attempt in 0..70u32 {
            let t = b.ticks(attempt);
            prop_assert!(t <= cap, "attempt {} exceeded cap: {} > {}", attempt, t, cap);
            prop_assert!(t >= prev, "attempt {} shrank: {} < {}", attempt, t, prev);
            prev = t;
        }
        // Totals are consistent with the per-attempt schedule.
        let total: u64 = (0..10).map(|a| b.ticks(a)).sum();
        prop_assert_eq!(b.total_ticks(10), total);
    }

    /// Worker-count invariant: the delay for attempt `a` does not depend
    /// on which worker (or how many workers) computes it — N "workers"
    /// evaluating the same schedule see identical tick sequences, so
    /// retry timing cannot introduce cross-worker nondeterminism.
    #[test]
    fn backoff_is_identical_across_workers(
        base in 1u64..500,
        cap in 1u64..5_000,
        workers in 1usize..8,
    ) {
        let reference: Vec<u64> =
            (0..32u32).map(|a| scenerec_serve::Backoff::new(base, cap).ticks(a)).collect();
        for _ in 0..workers {
            let b = scenerec_serve::Backoff::new(base, cap);
            let seen: Vec<u64> = (0..32u32).map(|a| b.ticks(a)).collect();
            prop_assert_eq!(&seen, &reference);
        }
    }
}
