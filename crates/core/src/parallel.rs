//! Minimal scoped-thread helpers for the embarrassingly parallel stages.
//!
//! The paper notes (§3.2, "Parallelization") that ExactSim only uses two
//! primitive operations — random-walk simulation and (sparse) matrix-vector
//! multiplication — both of which parallelise trivially. This module provides
//! a deterministic map-reduce over index ranges built on `std::thread::scope`,
//! so results are bit-identical regardless of the number of worker threads
//! (every chunk derives its own RNG seed from the chunk index, never from the
//! thread id).

/// Splits `0..len` into at most `chunks` contiguous ranges of near-equal size.
pub fn split_ranges(len: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 || chunks == 0 {
        return Vec::new();
    }
    let chunks = chunks.min(len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Applies `work` to every range of `0..len` split into `threads` chunks,
/// merging the per-chunk outputs with `merge` in chunk order (so the result is
/// deterministic). With `threads == 1` everything runs on the caller's thread.
///
/// `work` receives `(chunk_index, range)` and must be `Send + Sync`; the
/// chunk index is what deterministic seeding should be based on.
pub fn parallel_map_reduce<T, W, M, R>(
    len: usize,
    threads: usize,
    work: W,
    mut init: R,
    mut merge: M,
) -> R
where
    T: Send,
    W: Fn(usize, std::ops::Range<usize>) -> T + Sync,
    M: FnMut(R, T) -> R,
    R: Send,
{
    let ranges = split_ranges(len, threads.max(1));
    if ranges.is_empty() {
        return init;
    }
    if ranges.len() == 1 {
        let out = work(0, ranges.into_iter().next().expect("one range"));
        return merge(init, out);
    }
    let mut outputs: Vec<Option<T>> = Vec::new();
    outputs.resize_with(ranges.len(), || None);
    std::thread::scope(|scope| {
        let work = &work;
        let mut handles = Vec::with_capacity(ranges.len());
        for (chunk_index, range) in ranges.into_iter().enumerate() {
            handles.push(scope.spawn(move || (chunk_index, work(chunk_index, range))));
        }
        for handle in handles {
            let (chunk_index, out) = handle.join().expect("worker thread panicked");
            outputs[chunk_index] = Some(out);
        }
    });
    for out in outputs.into_iter().flatten() {
        init = merge(init, out);
    }
    init
}

/// Below this many edges a dense multiply is cheaper than the spawn/join of
/// a scoped thread shard (tens of µs per scope vs a fraction of a ns per
/// edge), so small multiplies run sequentially even when `threads > 1`. The
/// fallback is safe because the gather-form row kernels are bit-identical to
/// the sequential scatter/gather kernels — the threshold changes only
/// wall-clock, never a single output bit.
pub(crate) const MIN_PARALLEL_EDGES: usize = 200_000;

/// Dense `y ← P·x` across `threads` workers: the output rows are split into
/// contiguous shards and each shard is computed independently with the
/// gather-form row kernel. Because each output slot is written by exactly one
/// shard, accumulating its terms in the same ascending order as the
/// sequential kernel, the result is **bit-identical for any thread count**.
/// Graphs under `MIN_PARALLEL_EDGES` (200k edges) stay sequential (spawn cost would
/// exceed the multiply).
pub fn p_multiply_threaded<G: exactsim_graph::NeighborAccess>(
    graph: &G,
    x: &[f64],
    y: &mut [f64],
    threads: usize,
) {
    use exactsim_graph::linalg::{p_multiply, p_multiply_rows};
    if threads <= 1 || graph.num_edges() < MIN_PARALLEL_EDGES {
        p_multiply(graph, x, y);
        return;
    }
    shard_rows(y, graph.num_nodes(), threads, |range, out| {
        p_multiply_rows(graph, x, range, out)
    });
}

/// Dense `y ← Pᵀ·x` across `threads` workers; same determinism contract and
/// small-graph fallback as [`p_multiply_threaded`].
pub fn pt_multiply_threaded<G: exactsim_graph::NeighborAccess>(
    graph: &G,
    x: &[f64],
    y: &mut [f64],
    threads: usize,
) {
    use exactsim_graph::linalg::{pt_multiply, pt_multiply_rows};
    if threads <= 1 || graph.num_edges() < MIN_PARALLEL_EDGES {
        pt_multiply(graph, x, y);
        return;
    }
    shard_rows(y, graph.num_nodes(), threads, |range, out| {
        pt_multiply_rows(graph, x, range, out)
    });
}

/// Splits `y` (length `len`) into per-thread row shards and runs `work` on
/// each disjoint shard from a scoped thread.
fn shard_rows(
    y: &mut [f64],
    len: usize,
    threads: usize,
    work: impl Fn(std::ops::Range<usize>, &mut [f64]) + Sync,
) {
    assert_eq!(y.len(), len, "output vector length must equal num_nodes");
    shard_slices(y, &split_ranges(len, threads.max(1)), work);
}

/// The one audited implementation of deterministic output sharding: every
/// range of `ranges` owns the matching disjoint slice of `out`, so each
/// output slot is written by exactly one shard, independent of thread
/// scheduling. One shard (or an empty `ranges`) runs inline on the caller's
/// thread.
pub(crate) fn shard_slices(
    out: &mut [f64],
    ranges: &[std::ops::Range<usize>],
    work: impl Fn(std::ops::Range<usize>, &mut [f64]) + Sync,
) {
    if ranges.len() <= 1 {
        if let Some(range) = ranges.first() {
            work(range.clone(), &mut out[range.clone()]);
        }
        return;
    }
    std::thread::scope(|scope| {
        let work = &work;
        let mut rest: &mut [f64] = out;
        for range in ranges {
            let (head, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let range = range.clone();
            scope.spawn(move || work(range, head));
        }
    });
}

/// Element-wise sum of per-chunk dense vectors — the common reduction for
/// parallel walk sampling, where each chunk accumulates into its own buffer.
pub fn merge_sum(mut acc: Vec<f64>, part: Vec<f64>) -> Vec<f64> {
    if acc.is_empty() {
        return part;
    }
    assert_eq!(acc.len(), part.len(), "mismatched partial result lengths");
    for (a, p) in acc.iter_mut().zip(part) {
        *a += p;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_everything_without_overlap() {
        for len in [0usize, 1, 7, 100, 101] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(len, chunks);
                let mut covered = vec![false; len];
                for r in &ranges {
                    for i in r.clone() {
                        assert!(!covered[i], "overlap at {i}");
                        covered[i] = true;
                    }
                }
                assert!(
                    covered.iter().all(|&c| c),
                    "gap for len={len} chunks={chunks}"
                );
                if len > 0 {
                    assert!(ranges.len() <= chunks.min(len));
                }
            }
        }
    }

    #[test]
    fn map_reduce_sums_identically_for_any_thread_count() {
        let work = |_chunk: usize, range: std::ops::Range<usize>| -> u64 {
            range.map(|i| i as u64).sum::<u64>()
        };
        let expected: u64 = (0..1000u64).sum();
        for threads in [1usize, 2, 3, 7] {
            let total = parallel_map_reduce(1000, threads, work, 0u64, |acc, x| acc + x);
            assert_eq!(total, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_reduce_on_empty_input_returns_init() {
        let out = parallel_map_reduce(0, 4, |_, _| 1u32, 7u32, |a, b| a + b);
        assert_eq!(out, 7);
    }

    #[test]
    fn merge_sum_adds_elementwise_and_accepts_empty_acc() {
        let a = merge_sum(Vec::new(), vec![1.0, 2.0]);
        assert_eq!(a, vec![1.0, 2.0]);
        let b = merge_sum(a, vec![0.5, 0.5]);
        assert_eq!(b, vec![1.5, 2.5]);
    }

    #[test]
    fn threaded_dense_multiplies_are_bit_identical_to_sequential() {
        use exactsim_graph::generators::barabasi_albert;
        use exactsim_graph::linalg::{p_multiply, pt_multiply};
        // Large enough to clear MIN_PARALLEL_EDGES so the sharded path (not
        // the sequential fallback) is what gets exercised.
        let g = barabasi_albert(25_000, 5, true, 5).unwrap();
        assert!(g.num_edges() >= MIN_PARALLEL_EDGES);
        let n = g.num_nodes();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin().abs()).collect();
        let mut seq = vec![0.0; n];
        let mut par = vec![0.0; n];
        p_multiply(&g, &x, &mut seq);
        for threads in [1usize, 2, 3, 7] {
            p_multiply_threaded(&g, &x, &mut par, threads);
            assert_eq!(seq, par, "P·x threads={threads}");
        }
        pt_multiply(&g, &x, &mut seq);
        for threads in [1usize, 2, 3, 7] {
            pt_multiply_threaded(&g, &x, &mut par, threads);
            assert_eq!(seq, par, "Pᵀ·x threads={threads}");
        }
    }

    #[test]
    fn chunk_order_is_preserved_in_merge() {
        let parts = parallel_map_reduce(
            10,
            4,
            |chunk, _range| vec![chunk],
            Vec::new(),
            |mut acc: Vec<usize>, part| {
                acc.extend(part);
                acc
            },
        );
        assert_eq!(parts, vec![0, 1, 2, 3]);
    }
}
