//! Dependency-free data-parallel helpers built on [`std::thread::scope`].
//!
//! The workspace keeps the same zero-heavy-deps stance as `scenerec-obs`:
//! no thread pool, no channels — callers hand contiguous chunks of work to
//! scoped threads that borrow straight from the caller's stack frame and
//! join before the helper returns. One helper,
//! [`fan_out_then_reduce`], runs two phases on the same threads and
//! separates them with an atomic counter.
//!
//! Every helper is **deterministic by construction**: work is split into
//! contiguous chunks by index, results come back in index order, and no
//! output depends on scheduling order. Callers that additionally keep each
//! chunk's computation independent of the chunk boundaries (as
//! `score::score_bt`'s row bands and the evaluator do) get bit-identical
//! results at any thread count.

/// Spins this many times on the phase counter of
/// [`fan_out_then_reduce`] before yielding the CPU between checks. Kept
/// short: with more workers than cores, a waiting worker that spins holds
/// a core a working one needs.
const SPINS_BEFORE_YIELD: u32 = 1 << 6;

/// Runs a two-phase region on one scoped thread per chunk of `items`, the
/// calling thread working the first, and returns each worker's pair of
/// results in worker order.
///
/// Phase one hands worker `w` the `w`-th contiguous chunk of `items`
/// (`chunk` elements, the last chunk possibly shorter) mutably. Once every
/// worker has finished phase one, phase two hands worker `w` its
/// `shares[w]` and every chunk, read-only, in order. This is the trainer's
/// batch: phase one runs forward/backward into one gradient store per
/// micro-batch, phase two reduces all of them, one share of the
/// parameters per worker.
///
/// Workers wait for each other on an atomic counter, spinning briefly and
/// then yielding the CPU between checks, never sleeping: the wait is
/// short, and on a virtual machine waking a parked thread, or starting a
/// new one for phase two, costs about as much as the phase itself. A panic in phase one stops
/// every worker before phase two; any panic is re-raised on the caller
/// once all workers have stopped.
///
/// # Panics
/// Panics if `shares` does not hold one entry per chunk, or re-raises a
/// worker's panic.
pub fn fan_out_then_reduce<T, S, R1, R2, F1, F2>(
    items: &mut [T],
    chunk: usize,
    shares: &mut [S],
    phase1: F1,
    phase2: F2,
) -> Vec<(R1, R2)>
where
    T: Send + Sync,
    S: Send,
    R1: Send,
    R2: Send,
    F1: Fn(usize, &mut [T]) -> R1 + Sync,
    F2: Fn(usize, &mut S, &[&[T]]) -> R2 + Sync,
{
    let chunk = chunk.max(1);
    let n = items.len().div_ceil(chunk);
    assert_eq!(
        shares.len(),
        n,
        "fan_out_then_reduce needs one share per chunk"
    );
    let region = Region {
        published: (0..n).map(|_| std::sync::OnceLock::new()).collect(),
        arrived: std::sync::atomic::AtomicUsize::new(0),
        failed: std::sync::atomic::AtomicBool::new(false),
    };
    let mut work = items.chunks_mut(chunk).zip(shares.iter_mut());
    let Some((part0, share0)) = work.next() else {
        return Vec::new();
    };
    let results = std::thread::scope(|s| {
        let (region, phase1, phase2) = (&region, &phase1, &phase2);
        let mut handles = Vec::with_capacity(n - 1);
        let mut spawn_error = None;
        for (i, (part, share)) in work.enumerate() {
            let spawned = std::thread::Builder::new()
                .spawn_scoped(s, move || region.work(i + 1, part, share, phase1, phase2));
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // The worker never runs: count its arrival so the
                    // others do not wait for it, and skip phase two.
                    region.fail();
                    region.arrive();
                    spawn_error.get_or_insert(e);
                }
            }
        }
        let mut results = vec![region.work(0, part0, share0, phase1, phase2)];
        results.extend(handles.into_iter().map(|h| h.join().unwrap_or_else(Err)));
        (results, spawn_error)
    });
    let (results, spawn_error) = results;
    let mut out = Vec::with_capacity(n);
    for r in results {
        match r {
            Ok(Some(v)) => out.push(v),
            Ok(None) => {}
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    if let Some(e) = spawn_error {
        std::panic::resume_unwind(Box::new(format!("cannot spawn a worker: {e}")));
    }
    out
}

/// The state the workers of one [`fan_out_then_reduce`] share.
struct Region<'a, T> {
    /// Each worker's chunk, published read-only after its phase one.
    published: Vec<std::sync::OnceLock<&'a [T]>>,
    /// Workers done with phase one.
    arrived: std::sync::atomic::AtomicUsize,
    /// A worker panicked in phase one (or never started).
    failed: std::sync::atomic::AtomicBool,
}

impl<'a, T: Sync> Region<'a, T> {
    fn fail(&self) {
        self.failed
            .store(true, std::sync::atomic::Ordering::Release);
    }

    fn arrive(&self) {
        self.arrived
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }

    fn work<S, R1, R2>(
        &self,
        w: usize,
        part: &'a mut [T],
        share: &mut S,
        phase1: &impl Fn(usize, &mut [T]) -> R1,
        phase2: &impl Fn(usize, &mut S, &[&[T]]) -> R2,
    ) -> std::thread::Result<Option<(R1, R2)>> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::Ordering;
        let own = &mut *part;
        let first = catch_unwind(AssertUnwindSafe(move || phase1(w, own)));
        if first.is_err() {
            self.fail();
        }
        // The chunk's last mutable use is over: publish it read-only, then
        // count this worker in (the release orders both before any reader).
        let _ = self.published[w].set(part);
        self.arrive();
        let mut spins = 0u32;
        while self.arrived.load(Ordering::Acquire) < self.published.len() {
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let first = first?;
        if self.failed.load(Ordering::Acquire) {
            // Another worker failed; the caller re-raises its panic.
            return Ok(None);
        }
        let all: Vec<&[T]> = self
            .published
            .iter()
            .filter_map(|p| p.get().copied())
            .collect();
        let second = catch_unwind(AssertUnwindSafe(|| phase2(w, share, &all)))?;
        Ok(Some((first, second)))
    }
}

/// Splits `out` into contiguous chunks of at most `chunk` elements and
/// runs `f(chunk_index, chunk)` on one scoped thread per chunk. With a
/// single chunk (or `chunk == 0`, treated as "everything") `f` runs
/// inline.
pub fn for_each_chunk<T, F>(out: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = if chunk == 0 { out.len().max(1) } else { chunk };
    if out.len() <= chunk {
        f(0, out);
        return;
    }
    std::thread::scope(|s| {
        let f = &f;
        for (idx, part) in out.chunks_mut(chunk).enumerate() {
            s.spawn(move || f(idx, part));
        }
    });
}

/// Zips chunks of `out` (of `out_chunk` elements) with chunks of `input`
/// (of `in_chunk` elements) and runs `f(chunk_index, out_chunk, in_chunk)`
/// on one scoped thread per pair. The caller picks chunk sizes so the
/// pairs align (e.g. `band * n` output floats against `band` input rows).
/// With a single pair `f` runs inline.
pub fn for_each_chunk_pair<A, B, F>(
    out: &mut [A],
    out_chunk: usize,
    input: &[B],
    in_chunk: usize,
    f: F,
) where
    A: Send,
    B: Sync,
    F: Fn(usize, &mut [A], &[B]) + Sync,
{
    let out_chunk = if out_chunk == 0 {
        out.len().max(1)
    } else {
        out_chunk
    };
    let in_chunk = if in_chunk == 0 {
        input.len().max(1)
    } else {
        in_chunk
    };
    if out.len() <= out_chunk {
        f(0, out, input);
        return;
    }
    std::thread::scope(|s| {
        let f = &f;
        for (idx, (o, i)) in out
            .chunks_mut(out_chunk)
            .zip(input.chunks(in_chunk))
            .enumerate()
        {
            s.spawn(move || f(idx, o, i));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_then_reduce_sees_every_chunk_after_phase_one() {
        for (len, chunk) in [(1usize, 1usize), (5, 2), (8, 3), (9, 9), (12, 4)] {
            let mut items = vec![0u64; len];
            let parts = len.div_ceil(chunk);
            let mut shares = vec![0u64; parts];
            let out = fan_out_then_reduce(
                &mut items,
                chunk,
                &mut shares,
                |w, part| {
                    for (i, v) in part.iter_mut().enumerate() {
                        *v = (w * chunk + i) as u64 + 1;
                    }
                    part.len()
                },
                |w, share, all| {
                    // Every chunk is complete, in order, when phase two starts.
                    let flat: Vec<u64> = all.iter().flat_map(|c| c.iter().copied()).collect();
                    assert_eq!(flat, (1..=len as u64).collect::<Vec<_>>());
                    *share = flat.iter().sum::<u64>() + w as u64;
                    w
                },
            );
            let total = (len * (len + 1) / 2) as u64;
            assert_eq!(
                shares,
                (0..parts as u64).map(|w| total + w).collect::<Vec<_>>()
            );
            let lens: Vec<usize> = items.chunks(chunk).map(<[u64]>::len).collect();
            assert_eq!(out, lens.into_iter().zip(0..parts).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_then_reduce_reraises_a_phase_one_panic() {
        let caught = std::panic::catch_unwind(|| {
            let mut items = vec![0u8; 4];
            let mut shares = vec![(); 2];
            fan_out_then_reduce(
                &mut items,
                2,
                &mut shares,
                |w, _| {
                    if w == 1 {
                        panic!("worker one fails");
                    }
                },
                |_, _, _| unreachable!("phase two never starts"),
            )
        });
        let payload = caught.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker one fails"));
    }

    #[test]
    fn for_each_chunk_fills_disjoint_ranges() {
        let mut data = vec![0usize; 103];
        for_each_chunk(&mut data, 25, |idx, part| {
            for v in part.iter_mut() {
                *v = idx + 1;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 25 + 1);
        }
    }

    #[test]
    fn for_each_chunk_single_chunk_runs_inline() {
        let mut data = vec![0u8; 4];
        for_each_chunk(&mut data, 100, |idx, part| {
            assert_eq!(idx, 0);
            part.fill(7);
        });
        assert_eq!(data, vec![7; 4]);
    }

    #[test]
    fn chunk_pairs_align() {
        // 2 output floats per input element.
        let input: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let mut out = vec![0.0f32; 20];
        for_each_chunk_pair(&mut out, 6, &input, 3, |_, o, i| {
            for (pair, x) in o.chunks_mut(2).zip(i) {
                pair[0] = *x;
                pair[1] = 2.0 * *x;
            }
        });
        for (k, x) in input.iter().enumerate() {
            assert_eq!(out[2 * k], *x);
            assert_eq!(out[2 * k + 1], 2.0 * *x);
        }
    }

    #[test]
    fn parallel_matches_inline() {
        let input: Vec<u64> = (0..1000).collect();
        let mut serial = vec![0u64; 1000];
        let mut parallel = vec![0u64; 1000];
        let work = |_: usize, o: &mut [u64], i: &[u64]| {
            for (ov, iv) in o.iter_mut().zip(i) {
                *ov = iv * iv;
            }
        };
        for_each_chunk_pair(&mut serial, 0, &input, 0, work);
        for_each_chunk_pair(&mut parallel, 130, &input, 130, work);
        assert_eq!(serial, parallel);
    }
}
