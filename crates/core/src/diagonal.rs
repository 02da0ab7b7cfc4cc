//! Estimators for the diagonal correction matrix `D`.
//!
//! The Linearization identity (eq. 3 of the paper) writes the SimRank matrix
//! as `S = Σ_ℓ c^ℓ (P^ℓ)ᵀ D P^ℓ` with a diagonal matrix `D` whose entries lie
//! in `[1 − c, 1]`. Probabilistically, `D(k,k)` is the probability that two
//! independent √c-walks started at `v_k` *never* meet. Getting `D` right is
//! the whole game: ParSim's `D = (1 − c)·I` shortcut is biased, and estimating
//! every entry to accuracy ε costs `O(n·log n/ε²)` — the term ExactSim
//! removes by allocating a *total* sample budget across nodes according to the
//! source's Personalized PageRank.
//!
//! This module provides the three estimators the paper discusses:
//!
//! * [`DiagonalEstimator::ParSimApprox`] — the `(1 − c)` constant (no work,
//!   biased);
//! * [`DiagonalEstimator::Bernoulli`] — Algorithm 2: simulate `R(k)` pairs of
//!   √c-walks from `v_k` and count the pairs that never meet;
//! * [`DiagonalEstimator::LocalDeterministic`] — Algorithm 3: compute the
//!   first-meeting probabilities `Z_ℓ(k, q)` deterministically (Lemma 4) up to
//!   an adaptive level `ℓ(k)` and only sample the remaining tail with
//!   "non-stop-then-√c" walk pairs;
//! * [`DiagonalEstimator::Exact`] — an externally supplied exact `D` (from
//!   [`crate::power_method::PowerMethod::exact_diagonal`]), used for
//!   validation and ablations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use exactsim_graph::linalg::{p_multiply_sparse_into, SparseVec};
use exactsim_graph::{NeighborAccess, NodeId};
use rand::rngs::SmallRng;

use crate::scratch::DiagonalScratch;
use crate::walks::{self, PairOutcome};

/// Hard engineering caps for the local deterministic exploitation
/// (Algorithm 3). The paper's only stop rule is the edge budget `2R(k)/√c`;
/// at exact-computation settings (`ε = 1e-7`) that budget is astronomically
/// large, so a faithful implementation additionally needs per-node caps to
/// keep the exploration polynomial. Both caps are generous defaults that the
/// benchmark harness can tighten or loosen; hitting a cap degrades accuracy
/// gracefully (the remaining tail is still estimated by sampling).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalExploreCaps {
    /// Maximum deterministic exploration depth `ℓ(k)`.
    pub max_levels: usize,
    /// Maximum number of edge traversals spent exploring one node.
    pub max_edges: u64,
    /// Maximum number of tail walk pairs sampled for one node.
    pub max_tail_samples: u64,
}

impl Default for LocalExploreCaps {
    fn default() -> Self {
        LocalExploreCaps {
            max_levels: 40,
            max_edges: 200_000,
            max_tail_samples: 100_000,
        }
    }
}

/// Which estimator to use for `D`.
#[derive(Clone, Debug, PartialEq)]
pub enum DiagonalEstimator {
    /// Use an externally supplied exact diagonal (validation / ablation).
    Exact(Vec<f64>),
    /// `D = (1 − c)·I`, the ParSim approximation (ignores the first-meeting
    /// constraint; biased).
    ParSimApprox,
    /// Algorithm 2: Bernoulli sampling of √c-walk pairs.
    Bernoulli,
    /// Algorithm 3: deterministic local exploitation plus tail sampling.
    LocalDeterministic(LocalExploreCaps),
}

/// The result of estimating `D` for a whole graph.
#[derive(Clone, Debug, Default)]
pub struct DiagonalEstimate {
    /// `values[k]` is `D̂(k,k)`. Nodes that received no samples keep the
    /// unbiased-prior value `1 − c` (their weight in the caller is zero).
    pub values: Vec<f64>,
    /// Total pairs of walks simulated (Algorithm 2 trials + Algorithm 3 tail
    /// pairs).
    pub walk_pairs: u64,
    /// Total edge traversals charged to the deterministic exploration: the
    /// edges each node's stop rule counted, whether they were traversed now
    /// or replayed from an exploration memo.
    pub explore_edges: u64,
    /// The part of `explore_edges` replayed from an exploration memo
    /// instead of traversed (always 0 without one).
    pub explore_edges_memoized: u64,
    /// Number of nodes whose tail sampling was skipped because the
    /// deterministic part already reached the required accuracy.
    pub tails_skipped: usize,
}

/// Statistics of a single-node Algorithm 3 run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LocalNodeStats {
    /// The deterministic exploration depth `ℓ(k)` that was reached.
    pub levels: usize,
    /// Edge traversals spent on the deterministic part.
    pub edges: u64,
    /// Tail walk pairs actually sampled.
    pub tail_pairs: u64,
    /// `true` when the tail was provably below the requested tolerance and
    /// sampling was skipped.
    pub tail_skipped: bool,
}

/// Algorithm 2: estimates `D(k,k)` by simulating `samples` pairs of √c-walks
/// from `node` and returning the fraction of pairs that never meet.
///
/// The result is clamped to the feasible interval `[1 − c, 1]`.
pub fn estimate_bernoulli<G: NeighborAccess>(
    graph: &G,
    node: NodeId,
    samples: u64,
    sqrt_c: f64,
    max_steps: usize,
    rng: &mut SmallRng,
) -> f64 {
    let c = sqrt_c * sqrt_c;
    let din = graph.in_degree(node);
    if din == 0 {
        return 1.0;
    }
    if din == 1 {
        return 1.0 - c;
    }
    if samples == 0 {
        return 1.0 - c;
    }
    let mut not_met = 0u64;
    for _ in 0..samples {
        if matches!(
            walks::sample_meeting_pair(graph, node, sqrt_c, max_steps, rng),
            PairOutcome::NoMeeting
        ) {
            not_met += 1;
        }
    }
    (not_met as f64 / samples as f64).clamp(1.0 - c, 1.0)
}

/// Algorithm 3: deterministic local exploitation of the first-meeting
/// probabilities, plus sampled tail correction.
///
/// * `samples` is the paper's `R(k)` — it controls both the edge budget
///   (`2R(k)/√c`) and the tail sample count.
/// * `tail_skip_threshold`: if the deterministic exploration reaches a level
///   `ℓ` with `c^ℓ ≤ tail_skip_threshold`, the entire remaining tail is below
///   that threshold and sampling is skipped (bias ≤ threshold). Pass `0.0`
///   to always sample, reproducing the paper's pseudocode verbatim.
///
/// Two refinements relative to the literal pseudocode, both recorded under
/// "Practical deviations" in [`crate::exactsim`]: (1) the tail is sampled
/// with `⌈R(k)·c^{2ℓ(k)}⌉` pairs instead of `R(k)` — each tail sample has
/// range `c^{ℓ(k)}`, so this keeps the variance at the `1/R(k)` level the
/// paper's analysis assumes while avoiding astronomically many walks; (2)
/// the engineering caps in [`LocalExploreCaps`].
///
/// All intermediate state lives in the caller-owned [`DiagonalScratch`]:
/// walk distributions in an epoch-stamped [`crate::scratch::DistTable`], the
/// per-level `Z` accumulation in an epoch-stamped dense workspace drained in
/// sorted index order. The seed-era implementation accumulated through
/// `BTreeMap`s, which sum in exactly that ascending-key order — so this
/// version is bit-identical (pinned by `tests/properties.rs` against a
/// verbatim port of the old code) while performing no per-node allocation in
/// steady state.
#[allow(clippy::too_many_arguments)]
pub fn estimate_local_deterministic<G: NeighborAccess>(
    graph: &G,
    node: NodeId,
    samples: u64,
    sqrt_c: f64,
    tail_skip_threshold: f64,
    caps: LocalExploreCaps,
    scratch: &mut DiagonalScratch,
    rng: &mut SmallRng,
) -> (f64, LocalNodeStats) {
    let c = sqrt_c * sqrt_c;
    if let Some(value) = trivial_value(graph, node, c) {
        return (value, LocalNodeStats::default());
    }
    let rule = StopRule::new(samples, sqrt_c, tail_skip_threshold, caps);
    let explored = explore(graph, node, c, rule, scratch);
    sample_tail(graph, node, explored, samples, sqrt_c, rule, caps, rng)
}

/// `D(k,k)` for the nodes that need no estimation: 1 without in-edges (no
/// walk can move, so none can meet) and `1 − c` with exactly one (two walks
/// that both move meet at once).
fn trivial_value<G: NeighborAccess>(graph: &G, node: NodeId, c: f64) -> Option<f64> {
    match graph.in_degree(node) {
        0 => Some(1.0),
        1 => Some(1.0 - c),
        _ => None,
    }
}

/// Algorithm 3's rule for ending the deterministic exploration of one node,
/// checked after every completed level `ℓ`: stop once the tail bound `c^ℓ`
/// is at most the node's skip threshold, once the edges spent reach the
/// budget `min(2R(k)/√c, max_edges)`, or at `max_levels`.
#[derive(Clone, Copy, Debug)]
struct StopRule {
    c: f64,
    tail_skip_threshold: f64,
    edge_budget: u64,
    max_levels: usize,
}

impl StopRule {
    fn new(samples: u64, sqrt_c: f64, tail_skip_threshold: f64, caps: LocalExploreCaps) -> Self {
        let edge_budget = if samples == 0 {
            0
        } else {
            (((2 * samples) as f64) / sqrt_c).ceil() as u64
        };
        StopRule {
            c: sqrt_c * sqrt_c,
            tail_skip_threshold,
            edge_budget: edge_budget.min(caps.max_edges),
            max_levels: caps.max_levels,
        }
    }

    fn stops_after(&self, level: usize, edges_used: u64) -> bool {
        self.c.powi(level as i32) <= self.tail_skip_threshold
            || edges_used >= self.edge_budget
            || level >= self.max_levels
    }
}

/// Where the deterministic exploration of one node stopped.
#[derive(Clone, Copy, Debug)]
struct Explored {
    level: usize,
    met_probability: f64,
    edges_used: u64,
}

/// The deterministic part of Algorithm 3 for `node`: computes the
/// first-meeting masses `Z_ℓ(node, ·)` level by level (Lemma 4) until `rule`
/// stops it. After each level, `scratch.levels` records the running
/// `met_probability` and the cumulative edges; both depend only on the graph,
/// `node` and `c`, never on the stop rule, which is what lets an
/// [`ExploreMemo`] replay them.
fn explore<G: NeighborAccess>(
    graph: &G,
    node: NodeId,
    c: f64,
    rule: StopRule,
    scratch: &mut DiagonalScratch,
) -> Explored {
    let DiagonalScratch {
        ws,
        z,
        z_levels,
        dist,
        levels,
    } = scratch;
    levels.clear();

    // Lazily grown walk distributions: dist.slot(s).level(t) = P^t · e_s (no
    // decay), logically reset per node, storage retained across nodes.
    dist.begin_node(graph.num_nodes());
    dist.slot_mut(node).ensure_unit(node);

    let mut edges_used = 0u64;
    // Z[t] (t >= 1) lives in z_levels[t - 1] as a sorted sparse vector of the
    // strictly positive entries (zero and clamped-negative entries carry no
    // weight downstream; the seed-era BTreeMap kept and then filtered them).
    let mut z_len = 0usize;
    let mut met_probability = 0.0f64;

    let mut level = 0usize;
    // Cost model: extending a distribution by one level costs Σ din(j) over
    // its current support.
    fn extend_cost<G: NeighborAccess>(v: &SparseVec, graph: &G) -> u64 {
        v.iter().map(|(j, _)| graph.in_degree(j) as u64).sum()
    }

    while level < rule.max_levels {
        let next_level = level + 1;
        // Make sure the distribution from `node` reaches `next_level`.
        {
            let node_dist = dist.slot_mut(node);
            node_dist.ensure_unit(node);
            while node_dist.len() <= next_level {
                let (last, next) = node_dist.split_for_extend();
                edges_used += extend_cost(last, graph);
                p_multiply_sparse_into(graph, last, ws, next);
            }
        }

        // Z_{next_level}(node, q) = c^ℓ (P^ℓ e_node)(q)²
        //   − Σ_{t=1}^{ℓ-1} Σ_{q'} c^{ℓ-t} (P^{ℓ-t} e_{q'})(q)² · Z_t(node, q').
        {
            let node_dist = dist.slot_mut(node);
            let base = node_dist.level(next_level);
            let scale = c.powi(next_level as i32);
            for (q, v) in base.iter() {
                z.add(q, scale * v * v);
            }
        }
        for t in 1..next_level {
            let remaining = next_level - t;
            for idx in 0..z_levels[t - 1].nnz() {
                let (q_prime, z_val) = (
                    z_levels[t - 1].indices()[idx],
                    z_levels[t - 1].values()[idx],
                );
                let q_dist = dist.slot_mut(q_prime);
                q_dist.ensure_unit(q_prime);
                while q_dist.len() <= remaining {
                    let (last, next) = q_dist.split_for_extend();
                    edges_used += extend_cost(last, graph);
                    p_multiply_sparse_into(graph, last, ws, next);
                }
                let spread = q_dist.level(remaining);
                let factor = c.powi(remaining as i32) * z_val;
                if factor == 0.0 {
                    continue;
                }
                for (q, v) in spread.iter() {
                    z.add(q, -(factor * v * v));
                }
            }
        }
        // Drain in sorted index order (the BTreeMap iteration order):
        // accumulate the level mass with tiny negatives clamped — Z is a
        // probability — and store the strictly positive entries as Z_t.
        if z_levels.len() == z_len {
            z_levels.push(SparseVec::new());
        }
        let stored = &mut z_levels[z_len];
        stored.clear();
        let mut level_mass = 0.0f64;
        z.drain_sorted(|q, v| {
            level_mass += v.max(0.0);
            if v > 0.0 {
                stored.push_sorted(q, v);
            }
        });
        z_len += 1;
        met_probability += level_mass;
        level = next_level;
        levels.push((met_probability, edges_used));

        if rule.stops_after(level, edges_used) {
            break;
        }
    }
    Explored {
        level,
        met_probability,
        edges_used,
    }
}

/// The sampled part of Algorithm 3: turns an exploration that stopped at
/// `explored.level` into `D̂(k,k)`, sampling the tail unless it is provably
/// below the skip threshold.
#[allow(clippy::too_many_arguments)]
fn sample_tail<G: NeighborAccess>(
    graph: &G,
    node: NodeId,
    explored: Explored,
    samples: u64,
    sqrt_c: f64,
    rule: StopRule,
    caps: LocalExploreCaps,
    rng: &mut SmallRng,
) -> (f64, LocalNodeStats) {
    let c = sqrt_c * sqrt_c;
    let level = explored.level;
    let mut stats = LocalNodeStats {
        levels: level,
        edges: explored.edges_used,
        tail_pairs: 0,
        tail_skipped: false,
    };

    let tail_bound = c.powi(level as i32);
    let mut d_hat = 1.0 - explored.met_probability;

    if tail_bound <= rule.tail_skip_threshold || samples == 0 {
        stats.tail_skipped = true;
        return (d_hat.clamp(1.0 - c, 1.0), stats);
    }

    // Tail sampling: pairs of walks that ignore the stopping coin for the
    // first `level` steps and then continue as √c-walks. Equivalent-variance
    // sample reduction: R'(k) = ⌈R(k)·c^{2ℓ(k)}⌉.
    let reduced = ((samples as f64) * tail_bound * tail_bound).ceil() as u64;
    let tail_samples = reduced.clamp(1, caps.max_tail_samples);
    let mut tail_hits = 0u64;
    let max_continue_steps = 4 * caps.max_levels;
    for _ in 0..tail_samples {
        if sample_tail_pair(graph, node, level, sqrt_c, max_continue_steps, rng) {
            tail_hits += 1;
        }
    }
    stats.tail_pairs = tail_samples;
    let tail_estimate = tail_bound * tail_hits as f64 / tail_samples as f64;
    d_hat -= tail_estimate;
    (d_hat.clamp(1.0 - c, 1.0), stats)
}

/// One completed exploration level of a node: the running `met_probability`
/// after the level and the cumulative edges spent reaching it.
type LevelPrefix = (f64, u64);

/// The stored prefix of one node behind its own lock.
type PrefixSlot = Mutex<Box<[LevelPrefix]>>;

/// A per-node memo of Algorithm 3's deterministic exploration, owned by one
/// [`crate::exactsim::ExactSim`] solver (and therefore by one graph and one
/// decay factor).
///
/// For every node explored so far it keeps the [`LevelPrefix`] of each
/// completed level. Both values depend only on the graph, the node and `c`;
/// the source of a query only sets `R(k)`, which decides where the
/// exploration stops. A later query therefore replays its stop rule against
/// the stored prefix and, when the rule stops inside it, skips the
/// exploration and reuses the stored values — bit for bit what exploring
/// again would produce. When the rule needs a deeper level, the node is
/// explored from level 1 as usual and the longer prefix replaces the stored
/// one.
///
/// Each node has its own lock, held only to read or replace its prefix and
/// never while exploring. Two queries racing on one node both explore it
/// and compute identical prefixes; whichever is longer is kept. A hit
/// allocates nothing. The memory is at most `max_levels × 16` bytes per
/// explored node, plus one lock per node allocated on first use.
///
/// Cloning yields an empty memo (like [`crate::scratch::ScratchPool`]): the
/// memo is a cache, not state.
#[derive(Default)]
pub(crate) struct ExploreMemo {
    slots: OnceLock<Box<[PrefixSlot]>>,
    stored_levels: AtomicUsize,
}

impl ExploreMemo {
    fn slots(&self, n: usize) -> &[PrefixSlot] {
        let slots = self
            .slots
            .get_or_init(|| (0..n).map(|_| Mutex::default()).collect());
        assert_eq!(slots.len(), n, "exploration memo built for another graph");
        slots
    }

    /// Replays `rule` against the stored prefix of `node`; `Some` when the
    /// rule stops inside it.
    fn replay(&self, n: usize, node: NodeId, rule: StopRule) -> Option<Explored> {
        let prefix = self.slots(n)[node as usize]
            .lock()
            .expect("exploration memo poisoned");
        prefix
            .iter()
            .enumerate()
            .map(|(i, &(met_probability, edges_used))| Explored {
                level: i + 1,
                met_probability,
                edges_used,
            })
            .find(|e| rule.stops_after(e.level, e.edges_used))
    }

    /// Keeps `levels` as the prefix of `node` if it is longer than the
    /// stored one.
    fn store(&self, n: usize, node: NodeId, levels: &[LevelPrefix]) {
        let mut prefix = self.slots(n)[node as usize]
            .lock()
            .expect("exploration memo poisoned");
        if levels.len() > prefix.len() {
            self.stored_levels
                .fetch_add(levels.len() - prefix.len(), Ordering::Relaxed);
            *prefix = levels.into();
        }
    }

    /// Bytes held: the per-node locks once allocated, plus every stored
    /// prefix.
    pub(crate) fn bytes(&self) -> usize {
        let locks = self
            .slots
            .get()
            .map_or(0, |slots| slots.len() * std::mem::size_of::<PrefixSlot>());
        locks + self.stored_levels.load(Ordering::Relaxed) * std::mem::size_of::<LevelPrefix>()
    }
}

impl Clone for ExploreMemo {
    fn clone(&self) -> Self {
        ExploreMemo::default()
    }
}

impl std::fmt::Debug for ExploreMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExploreMemo")
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// Simulates one pair of Algorithm 3 tail walks: both walks take `forced`
/// steps without the stopping coin; if they meet during the forced phase (or
/// either gets stuck) the trial contributes 0. Otherwise both continue as
/// ordinary √c-walks and the trial contributes 1 iff they eventually meet.
fn sample_tail_pair<G: NeighborAccess>(
    graph: &G,
    start: NodeId,
    forced: usize,
    sqrt_c: f64,
    max_continue_steps: usize,
    rng: &mut SmallRng,
) -> bool {
    let mut a = start;
    let mut b = start;
    for _ in 0..forced {
        let na = walks::step_forced(graph, a, rng);
        let nb = walks::step_forced(graph, b, rng);
        match (na, nb) {
            (Some(x), Some(y)) => {
                if x == y {
                    // First meeting happened at a level ≤ ℓ(k): already
                    // accounted for deterministically, so this trial is void.
                    return false;
                }
                a = x;
                b = y;
            }
            _ => return false,
        }
    }
    // Continue as ordinary √c-walks from (a, b).
    for _ in 0..max_continue_steps {
        let na = walks::step(graph, a, sqrt_c, rng);
        let nb = walks::step(graph, b, sqrt_c, rng);
        match (na, nb) {
            (Some(x), Some(y)) => {
                if x == y {
                    return true;
                }
                a = x;
                b = y;
            }
            _ => return false,
        }
    }
    false
}

/// Integer tallies of a diagonal estimation, summed over nodes (the sum is
/// independent of which worker ran which node).
#[derive(Clone, Copy, Debug, Default)]
struct Tallies {
    walk_pairs: u64,
    explore_edges: u64,
    explore_edges_memoized: u64,
    tails_skipped: usize,
}

impl Tallies {
    fn add(&mut self, other: Tallies) {
        self.walk_pairs += other.walk_pairs;
        self.explore_edges += other.explore_edges;
        self.explore_edges_memoized += other.explore_edges_memoized;
        self.tails_skipped += other.tails_skipped;
    }
}

/// Algorithm 2 for one node with `r > 0` pairs.
fn bernoulli_node<G: NeighborAccess>(
    graph: &G,
    k: NodeId,
    r: u64,
    sqrt_c: f64,
    seed: u64,
) -> (f64, Tallies) {
    if let Some(value) = trivial_value(graph, k, sqrt_c * sqrt_c) {
        return (value, Tallies::default());
    }
    let max_steps = 10 * ((1.0 / (1.0 - sqrt_c)).ceil() as usize).max(10);
    let mut rng = walks::make_rng(walks::derive_seed(seed, k as u64));
    let value = estimate_bernoulli(graph, k, r, sqrt_c, max_steps, &mut rng);
    let tallies = Tallies {
        walk_pairs: r,
        ..Tallies::default()
    };
    (value, tallies)
}

/// Algorithm 3 for one node with `r > 0` pairs, through `memo` when given.
#[allow(clippy::too_many_arguments)]
fn local_deterministic_node<G: NeighborAccess>(
    graph: &G,
    k: NodeId,
    r: u64,
    sqrt_c: f64,
    tail_skip_threshold: f64,
    caps: LocalExploreCaps,
    seed: u64,
    scratch: &mut DiagonalScratch,
    memo: Option<&ExploreMemo>,
) -> (f64, Tallies) {
    let c = sqrt_c * sqrt_c;
    if let Some(value) = trivial_value(graph, k, c) {
        return (value, Tallies::default());
    }
    let node_threshold = if tail_skip_threshold > 0.0 {
        tail_skip_threshold.max(0.25 / (r as f64).sqrt())
    } else {
        0.0
    };
    let n = graph.num_nodes();
    let rule = StopRule::new(r, sqrt_c, node_threshold, caps);
    let replayed = memo.and_then(|memo| memo.replay(n, k, rule));
    let memoized = replayed.is_some();
    let explored = replayed.unwrap_or_else(|| {
        let explored = explore(graph, k, c, rule, scratch);
        if let Some(memo) = memo {
            memo.store(n, k, &scratch.levels);
        }
        explored
    });
    let mut rng = walks::make_rng(walks::derive_seed(seed, k as u64));
    let (value, stats) = sample_tail(graph, k, explored, r, sqrt_c, rule, caps, &mut rng);
    let tallies = Tallies {
        walk_pairs: stats.tail_pairs,
        explore_edges: stats.edges,
        explore_edges_memoized: if memoized { stats.edges } else { 0 },
        tails_skipped: usize::from(stats.tail_skipped),
    };
    (value, tallies)
}

/// Estimates `D̂(k,k)` for every node with a positive sample allocation,
/// allocating its own per-worker scratches (convenience wrapper around
/// [`estimate_diagonal_with`] for index-build-time callers).
pub fn estimate_diagonal<G: NeighborAccess>(
    graph: &G,
    allocation: &[u64],
    estimator: &DiagonalEstimator,
    sqrt_c: f64,
    tail_skip_threshold: f64,
    seed: u64,
    threads: usize,
) -> DiagonalEstimate {
    let mut scratches = Vec::new();
    estimate_diagonal_with(
        graph,
        allocation,
        estimator,
        sqrt_c,
        tail_skip_threshold,
        seed,
        threads,
        &mut scratches,
    )
}

/// Estimates `D̂(k,k)` for every node with a positive sample allocation.
///
/// `allocation[k]` is the paper's `R(k)`; nodes with zero allocation keep the
/// prior `1 − c` (their contribution to the caller's result is zero anyway).
///
/// The nodes to estimate form one work list, heaviest `R(k)` first (ties by
/// id), because `R(k)` bounds both a node's exploration budget and its tail
/// walks. `min(threads, nodes)` workers, each with its own
/// [`DiagonalScratch`], take nodes from the list one at a time, so a
/// worker that drew light nodes keeps drawing until the list is empty
/// instead of idling beside one stuck on a heavy block. Every node derives
/// its own RNG stream from `(seed, k)`, and its result does not depend on the
/// scratch's history, so the estimate is **bit-identical for any thread
/// count** and any assignment of nodes to workers. `scratches` is grown to
/// the worker count and reused across calls.
#[allow(clippy::too_many_arguments)]
pub fn estimate_diagonal_with<G: NeighborAccess>(
    graph: &G,
    allocation: &[u64],
    estimator: &DiagonalEstimator,
    sqrt_c: f64,
    tail_skip_threshold: f64,
    seed: u64,
    threads: usize,
    scratches: &mut Vec<DiagonalScratch>,
) -> DiagonalEstimate {
    estimate_diagonal_memo(
        graph,
        allocation,
        estimator,
        sqrt_c,
        tail_skip_threshold,
        seed,
        threads,
        scratches,
        None,
    )
}

/// [`estimate_diagonal_with`], with Algorithm 3's exploration going through
/// `memo` when one is given. The answer is the same bit for bit; only
/// [`DiagonalEstimate::explore_edges_memoized`] tells the difference.
#[allow(clippy::too_many_arguments)]
pub(crate) fn estimate_diagonal_memo<G: NeighborAccess>(
    graph: &G,
    allocation: &[u64],
    estimator: &DiagonalEstimator,
    sqrt_c: f64,
    tail_skip_threshold: f64,
    seed: u64,
    threads: usize,
    scratches: &mut Vec<DiagonalScratch>,
    memo: Option<&ExploreMemo>,
) -> DiagonalEstimate {
    let n = graph.num_nodes();
    assert_eq!(allocation.len(), n, "allocation must cover every node");
    let c = sqrt_c * sqrt_c;
    let mut out = DiagonalEstimate {
        values: vec![1.0 - c; n],
        ..Default::default()
    };
    let tallies = match estimator {
        DiagonalEstimator::Exact(values) => {
            assert_eq!(values.len(), n, "exact diagonal must cover every node");
            out.values = values.clone();
            return out;
        }
        // values already initialised to 1 - c.
        DiagonalEstimator::ParSimApprox => return out,
        DiagonalEstimator::Bernoulli => {
            let order = heaviest_first(allocation);
            let mut units = vec![(); threads.max(1).min(order.len())];
            run_work_list(&order, &mut units, &mut out.values, |k, ()| {
                bernoulli_node(graph, k, allocation[k as usize], sqrt_c, seed)
            })
        }
        DiagonalEstimator::LocalDeterministic(caps) => {
            let order = heaviest_first(allocation);
            let workers = threads.max(1).min(order.len());
            while scratches.len() < workers {
                scratches.push(DiagonalScratch::new(n));
            }
            // A scratch retained from a *different* graph would index out of
            // bounds deep inside the kernels; fail loudly at the boundary.
            for scratch in &scratches[..workers] {
                assert_eq!(
                    scratch.num_nodes(),
                    n,
                    "diagonal scratch was created for a graph with {} nodes, \
                     but this graph has {n}",
                    scratch.num_nodes()
                );
            }
            run_work_list(
                &order,
                &mut scratches[..workers],
                &mut out.values,
                |k, scratch| {
                    local_deterministic_node(
                        graph,
                        k,
                        allocation[k as usize],
                        sqrt_c,
                        tail_skip_threshold,
                        *caps,
                        seed,
                        scratch,
                        memo,
                    )
                },
            )
        }
    };
    out.walk_pairs = tallies.walk_pairs;
    out.explore_edges = tallies.explore_edges;
    out.explore_edges_memoized = tallies.explore_edges_memoized;
    out.tails_skipped = tallies.tails_skipped;
    out
}

/// The nodes with `R(k) > 0`, heaviest `R(k)` first, ties by ascending id.
fn heaviest_first(allocation: &[u64]) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..allocation.len() as NodeId)
        .filter(|&k| allocation[k as usize] > 0)
        .collect();
    order.sort_unstable_by_key(|&k| (std::cmp::Reverse(allocation[k as usize]), k));
    order
}

/// Runs `work` on every node of `order` with one worker per context: each
/// worker takes the next node from a shared counter until the list is
/// exhausted. Values are written back by node id and the tallies summed, so
/// the outcome does not depend on which worker ran which node. One context
/// runs inline on the caller's thread.
fn run_work_list<C: Send>(
    order: &[NodeId],
    contexts: &mut [C],
    values: &mut [f64],
    work: impl Fn(NodeId, &mut C) -> (f64, Tallies) + Sync,
) -> Tallies {
    let mut tallies = Tallies::default();
    if let [context] = contexts {
        for &k in order {
            let (value, t) = work(k, context);
            values[k as usize] = value;
            tallies.add(t);
        }
        return tallies;
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<(Vec<(NodeId, f64)>, Tallies)> = std::thread::scope(|scope| {
        let handles: Vec<_> = contexts
            .iter_mut()
            .map(|context| {
                let (next, work) = (&next, &work);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut tallies = Tallies::default();
                    while let Some(&k) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (value, t) = work(k, context);
                        done.push((k, value));
                        tallies.add(t);
                    }
                    (done, tallies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("diagonal worker panicked"))
            .collect()
    });
    for (done, t) in per_worker {
        for (k, value) in done {
            values[k as usize] = value;
        }
        tallies.add(t);
    }
    tallies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_method::{PowerMethod, PowerMethodConfig};
    use crate::walks::make_rng;
    use exactsim_graph::generators::{barabasi_albert, complete, cycle, star};

    fn scratch(n: usize) -> DiagonalScratch {
        DiagonalScratch::new(n)
    }

    const SQRT_C: f64 = 0.774_596_669_241_483_4; // sqrt(0.6)
    const C: f64 = 0.6;

    fn exact_d(graph: &exactsim_graph::DiGraph) -> Vec<f64> {
        PowerMethod::compute(graph, PowerMethodConfig::default())
            .unwrap()
            .exact_diagonal(graph)
    }

    #[test]
    fn trivial_degree_cases() {
        // Leaves of the directed star have din = 0 → D = 1;
        // nodes of a cycle have din = 1 → D = 1 - c.
        let star_graph = star(5, false);
        let mut rng = make_rng(1);
        assert_eq!(
            estimate_bernoulli(&star_graph, 2, 100, SQRT_C, 50, &mut rng),
            1.0
        );
        let cyc = cycle(6);
        assert!((estimate_bernoulli(&cyc, 0, 100, SQRT_C, 50, &mut rng) - (1.0 - C)).abs() < 1e-12);
        let mut ws = scratch(6);
        let (d, stats) = estimate_local_deterministic(
            &cyc,
            0,
            100,
            SQRT_C,
            0.0,
            Default::default(),
            &mut ws,
            &mut rng,
        );
        assert!((d - (1.0 - C)).abs() < 1e-12);
        assert_eq!(stats.levels, 0);
    }

    #[test]
    fn bernoulli_estimator_is_consistent_with_exact_d() {
        let g = barabasi_albert(60, 2, true, 7).unwrap();
        let exact = exact_d(&g);
        let mut rng = make_rng(2);
        for k in [0u32, 5, 20, 59] {
            let est = estimate_bernoulli(&g, k, 30_000, SQRT_C, 200, &mut rng);
            assert!(
                (est - exact[k as usize]).abs() < 0.02,
                "node {k}: estimate {est} vs exact {}",
                exact[k as usize]
            );
        }
    }

    #[test]
    fn bernoulli_respects_feasible_interval() {
        let g = complete(10);
        let mut rng = make_rng(3);
        for k in 0..10u32 {
            let est = estimate_bernoulli(&g, k, 200, SQRT_C, 100, &mut rng);
            assert!((1.0 - C..=1.0).contains(&est));
        }
    }

    #[test]
    fn local_deterministic_matches_exact_d_without_sampling() {
        // With a deep skip threshold the estimator is almost purely
        // deterministic and should nail D to ~1e-6.
        let g = barabasi_albert(40, 2, true, 9).unwrap();
        let exact = exact_d(&g);
        let mut ws = scratch(g.num_nodes());
        let mut rng = make_rng(4);
        let caps = LocalExploreCaps {
            max_levels: 40,
            max_edges: u64::MAX,
            max_tail_samples: 10,
        };
        for k in 0..g.num_nodes() as u32 {
            let (est, stats) = estimate_local_deterministic(
                &g, k, 1_000_000, SQRT_C, 1e-7, caps, &mut ws, &mut rng,
            );
            assert!(
                (est - exact[k as usize]).abs() < 1e-5,
                "node {k}: local-deterministic {est} vs exact {} (levels {})",
                exact[k as usize],
                stats.levels
            );
        }
    }

    #[test]
    fn local_deterministic_with_tail_sampling_is_unbiased_enough() {
        // Shallow exploration forces real tail sampling; accuracy should still
        // beat the raw Bernoulli estimator for the same sample count.
        let g = barabasi_albert(50, 3, true, 11).unwrap();
        let exact = exact_d(&g);
        let mut ws = scratch(g.num_nodes());
        let caps = LocalExploreCaps {
            max_levels: 3,
            max_edges: u64::MAX,
            max_tail_samples: 200_000,
        };
        for k in [0u32, 10, 30] {
            let mut rng = make_rng(100 + k as u64);
            let (est, stats) =
                estimate_local_deterministic(&g, k, 50_000, SQRT_C, 0.0, caps, &mut ws, &mut rng);
            assert!(!stats.tail_skipped);
            assert!(stats.tail_pairs > 0);
            assert!(
                (est - exact[k as usize]).abs() < 0.02,
                "node {k}: {est} vs {}",
                exact[k as usize]
            );
        }
    }

    #[test]
    fn exploration_respects_edge_budget() {
        let g = barabasi_albert(200, 3, true, 13).unwrap();
        let mut ws = scratch(g.num_nodes());
        let mut rng = make_rng(5);
        let caps = LocalExploreCaps {
            max_levels: 40,
            max_edges: 500,
            max_tail_samples: 10,
        };
        let (_, stats) =
            estimate_local_deterministic(&g, 0, u64::MAX / 4, SQRT_C, 0.0, caps, &mut ws, &mut rng);
        // The budget is checked after each level, so we can overshoot by at
        // most one level's worth of work, never run away.
        assert!(stats.edges < 500 + 10 * g.num_edges() as u64);
        assert!(stats.levels < 40);
    }

    #[test]
    fn estimate_diagonal_full_graph_respects_allocation() {
        let g = barabasi_albert(80, 2, true, 17).unwrap();
        let mut allocation = vec![0u64; g.num_nodes()];
        allocation[3] = 5_000;
        allocation[40] = 5_000;
        let est = estimate_diagonal(
            &g,
            &allocation,
            &DiagonalEstimator::Bernoulli,
            SQRT_C,
            0.0,
            9,
            1,
        );
        assert_eq!(est.walk_pairs, 10_000);
        let exact = exact_d(&g);
        assert!((est.values[3] - exact[3]).abs() < 0.05);
        assert!((est.values[40] - exact[40]).abs() < 0.05);
        // Unallocated nodes keep the prior.
        assert!((est.values[10] - (1.0 - C)).abs() < 1e-12);
    }

    #[test]
    fn estimate_diagonal_exact_and_parsim_modes() {
        let g = complete(8);
        let exact = exact_d(&g);
        let allocation = vec![10u64; 8];
        let e = estimate_diagonal(
            &g,
            &allocation,
            &DiagonalEstimator::Exact(exact.clone()),
            SQRT_C,
            0.0,
            1,
            1,
        );
        assert_eq!(e.values, exact);
        assert_eq!(e.walk_pairs, 0);
        let p = estimate_diagonal(
            &g,
            &allocation,
            &DiagonalEstimator::ParSimApprox,
            SQRT_C,
            0.0,
            1,
            1,
        );
        assert!(p.values.iter().all(|&v| (v - (1.0 - C)).abs() < 1e-15));
    }

    #[test]
    fn local_deterministic_mode_is_accurate_on_a_whole_graph() {
        let g = barabasi_albert(60, 2, true, 23).unwrap();
        let allocation = vec![50_000u64; g.num_nodes()];
        let est = estimate_diagonal(
            &g,
            &allocation,
            &DiagonalEstimator::LocalDeterministic(LocalExploreCaps::default()),
            SQRT_C,
            1e-3,
            77,
            1,
        );
        let exact = exact_d(&g);
        for (k, (est_k, exact_k)) in est.values.iter().zip(&exact).enumerate() {
            assert!(
                (est_k - exact_k).abs() < 0.02,
                "node {k}: {est_k} vs {exact_k}"
            );
        }
    }

    #[test]
    fn tails_are_skipped_when_exploration_is_cheap() {
        // On a small complete graph the deterministic exploration reaches the
        // skip threshold long before the edge budget, so no tail walks are
        // sampled at all.
        let g = complete(6);
        let allocation = vec![1_000_000_000u64; 6];
        let est = estimate_diagonal(
            &g,
            &allocation,
            &DiagonalEstimator::LocalDeterministic(LocalExploreCaps::default()),
            SQRT_C,
            1e-4,
            3,
            1,
        );
        assert_eq!(est.tails_skipped, 6);
        assert_eq!(est.walk_pairs, 0);
        let exact = exact_d(&g);
        for (est_k, exact_k) in est.values.iter().zip(&exact) {
            assert!((est_k - exact_k).abs() < 1e-3);
        }
    }

    #[test]
    fn empty_graph_returns_an_empty_estimate() {
        let g = exactsim_graph::GraphBuilder::new(0).build();
        for estimator in [
            DiagonalEstimator::Bernoulli,
            DiagonalEstimator::ParSimApprox,
            DiagonalEstimator::LocalDeterministic(LocalExploreCaps::default()),
        ] {
            let est = estimate_diagonal(&g, &[], &estimator, SQRT_C, 0.0, 1, 4);
            assert!(est.values.is_empty());
            assert_eq!(est.walk_pairs, 0);
        }
    }

    #[test]
    fn sharded_estimation_is_bit_identical_for_any_thread_count() {
        let g = barabasi_albert(90, 3, true, 31).unwrap();
        let allocation = vec![20_000u64; g.num_nodes()];
        for estimator in [
            DiagonalEstimator::Bernoulli,
            DiagonalEstimator::LocalDeterministic(LocalExploreCaps::default()),
        ] {
            let single = estimate_diagonal(&g, &allocation, &estimator, SQRT_C, 1e-3, 5, 1);
            for threads in [2usize, 3, 7] {
                let sharded =
                    estimate_diagonal(&g, &allocation, &estimator, SQRT_C, 1e-3, 5, threads);
                assert_eq!(single.values, sharded.values, "threads = {threads}");
                assert_eq!(single.walk_pairs, sharded.walk_pairs);
                assert_eq!(single.explore_edges, sharded.explore_edges);
                assert_eq!(single.tails_skipped, sharded.tails_skipped);
            }
        }
    }

    #[test]
    #[should_panic(expected = "allocation must cover every node")]
    fn allocation_length_is_checked() {
        let g = complete(4);
        estimate_diagonal(
            &g,
            &[1, 2],
            &DiagonalEstimator::Bernoulli,
            SQRT_C,
            0.0,
            1,
            1,
        );
    }
}
