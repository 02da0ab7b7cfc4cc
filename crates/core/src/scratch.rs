//! Reusable per-query workspaces for the single-source kernels.
//!
//! The paper's pitch is that exact single-source SimRank is *feasible at
//! scale*; feasibility dies first in the allocator. Before this module, every
//! query allocated fresh hop vectors, a fresh `Workspace`, a fresh allocation
//! vector, and — worst of all — the diagonal exploration (Algorithm 3) built
//! a forest of `BTreeMap`s per node. [`Scratch`] owns all of that state once,
//! and the kernels in [`crate::ppr`], [`crate::diagonal`] and
//! [`crate::exactsim`] thread it through, so a steady-state query performs no
//! accumulator allocation at all.
//!
//! ## Determinism
//!
//! Replacing ordered maps with dense accumulators must not change a single
//! output bit (the PR-1 regression test pins this): every accumulator here is
//! an epoch-stamped dense array whose touched indices are **drained in sorted
//! order**, so float reductions happen in exactly the ascending-index order
//! the `BTreeMap`s used to give. `tests/properties.rs` checks the rewritten
//! kernels against a verbatim port of the seed-era implementation.
//!
//! ## Concurrency
//!
//! A `Scratch` is single-threaded state. Solvers own a [`ScratchPool`] —
//! a lock-protected stack of scratches — so concurrent queries through one
//! shared solver (the `exactsim-service` pattern) each check out their own
//! workspace and return it when done; the pool grows to the peak concurrency
//! and then stops allocating.

use std::sync::Mutex;

use exactsim_graph::linalg::{SparseVec, Workspace};
use exactsim_graph::NodeId;

use crate::ppr::{DenseHopVectors, SparseHopVectors};

/// The reusable workspace one single-source query threads through every
/// kernel it touches. Create one per worker thread (or use a
/// [`ScratchPool`]) and reuse it across queries; all buffers are grown on
/// first use and retained.
#[derive(Debug)]
pub struct Scratch {
    n: usize,
    /// Sparse-accumulator workspace for hop-vector pushes and PRSim queries.
    pub(crate) ws: Workspace,
    /// Ping-pong buffers for the sparse walk distribution.
    pub(crate) walk: SparseVec,
    pub(crate) walk_tmp: SparseVec,
    /// Entry buffer for aggregate-vector builds (`rebuild_from_unsorted`).
    pub(crate) entries: Vec<(NodeId, f64)>,
    /// Reused pruned hop vectors (optimized variant, PRSim queries).
    pub(crate) sparse_hops: SparseHopVectors,
    /// Reused dense hop vectors (basic variant, ParSim, Linearization).
    pub(crate) dense_hops: DenseHopVectors,
    /// Dense walk-distribution buffer (basic variant).
    pub(crate) dense_walk: Vec<f64>,
    /// Dense temporary for the Linearization recurrence ping-pong.
    pub(crate) dense_tmp: Vec<f64>,
    /// Per-node walk-pair allocation `R(k)`.
    pub(crate) allocation: Vec<u64>,
    /// Per-worker diagonal-exploration scratches, grown to the thread count.
    pub(crate) diag: Vec<DiagonalScratch>,
}

impl Scratch {
    /// Creates a workspace for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        Scratch {
            n,
            ws: Workspace::new(n),
            walk: SparseVec::new(),
            walk_tmp: SparseVec::new(),
            entries: Vec::new(),
            sparse_hops: SparseHopVectors::default(),
            dense_hops: DenseHopVectors::default(),
            dense_walk: Vec::new(),
            dense_tmp: Vec::new(),
            allocation: Vec::new(),
            diag: Vec::new(),
        }
    }

    /// Number of nodes this workspace supports.
    pub fn num_nodes(&self) -> usize {
        self.n
    }
}

/// A lock-protected stack of [`Scratch`]es sized for one graph.
///
/// Checking out pops a scratch (or builds one on first use at this
/// concurrency level); returning pushes it back. Steady-state query traffic
/// therefore allocates nothing, while concurrent callers never contend on a
/// single workspace. Cloning a pool (solvers derive `Clone`) yields a fresh
/// empty pool for the same `n` — scratches hold no result state, so this is
/// purely a warm-up concern.
pub struct ScratchPool {
    n: usize,
    pool: Mutex<Vec<Scratch>>,
}

impl ScratchPool {
    /// Creates an empty pool for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        ScratchPool {
            n,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Pops a scratch, creating one if the pool is empty.
    pub fn checkout(&self) -> Scratch {
        let pooled = self.pool.lock().expect("scratch pool poisoned").pop();
        match pooled {
            Some(scratch) => {
                crate::counters::inc(&crate::counters::SCRATCH_POOL_HITS);
                scratch
            }
            None => {
                crate::counters::inc(&crate::counters::SCRATCH_POOL_MISSES);
                Scratch::new(self.n)
            }
        }
    }

    /// Returns a scratch to the pool for reuse.
    pub fn give_back(&self, scratch: Scratch) {
        debug_assert_eq!(scratch.num_nodes(), self.n);
        self.pool
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }

    /// Number of idle scratches currently pooled (diagnostics).
    pub fn idle(&self) -> usize {
        self.pool.lock().expect("scratch pool poisoned").len()
    }
}

impl Clone for ScratchPool {
    fn clone(&self) -> Self {
        ScratchPool::new(self.n)
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchPool")
            .field("n", &self.n)
            .field("idle", &self.idle())
            .finish()
    }
}

/// Scratch state for one worker of the diagonal estimation (Algorithm 3):
/// the dense replacements for the seed-era `BTreeMap` accumulators.
#[derive(Debug)]
pub struct DiagonalScratch {
    /// Workspace for the sparse walk-distribution pushes.
    pub(crate) ws: Workspace,
    /// Accumulator for the first-meeting level masses `Z_ℓ(k, ·)`.
    pub(crate) z: Workspace,
    /// Pooled per-level `Z_t` vectors; `z_len` of them are live per node run.
    pub(crate) z_levels: Vec<SparseVec>,
    /// Lazily reset per-node walk-distribution table.
    pub(crate) dist: DistTable,
    /// `(met_probability, cumulative edges)` after each level of the node
    /// being explored, for the solver's exploration memo.
    pub(crate) levels: Vec<(f64, u64)>,
}

impl DiagonalScratch {
    /// Creates a per-worker scratch for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        DiagonalScratch {
            ws: Workspace::new(n),
            z: Workspace::new(n),
            z_levels: Vec::new(),
            dist: DistTable::new(n),
            levels: Vec::new(),
        }
    }

    /// Number of nodes this scratch supports (the `n` it was created for).
    pub fn num_nodes(&self) -> usize {
        self.ws.len()
    }
}

/// The lazily-grown walk-distribution table of Algorithm 3:
/// `slot(q).levels[t] = P^t · e_q` for every node `q` the exploration has
/// visited while processing the current node.
///
/// Slots are epoch-stamped so starting the next node's exploration is `O(1)`;
/// the per-slot `Vec<SparseVec>` storage (including every inner vector's
/// capacity) is retained and refilled, which is what makes the exploration
/// allocation-free in steady state.
#[derive(Debug)]
pub struct DistTable {
    slots: Vec<DistSlot>,
    stamp: Vec<u32>,
    epoch: u32,
}

#[derive(Debug, Default)]
pub(crate) struct DistSlot {
    levels: Vec<SparseVec>,
    /// Number of live levels (≤ `levels.len()`; the rest are retained spares).
    len: usize,
}

impl DistTable {
    fn new(n: usize) -> Self {
        DistTable {
            slots: Vec::new(),
            stamp: vec![0; n],
            epoch: 0,
            // `slots` is grown lazily on first touch of each node so that a
            // DistTable for a large graph costs no upfront per-node Vecs.
        }
    }

    /// Starts a fresh per-node exploration: every slot becomes logically
    /// empty without touching its storage.
    pub(crate) fn begin_node(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, DistSlot::default);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// The slot for `q`, logically reset to "level 0 = e_q" on first touch
    /// this epoch.
    pub(crate) fn slot_mut(&mut self, q: NodeId) -> &mut DistSlot {
        let idx = q as usize;
        let slot = &mut self.slots[idx];
        if self.stamp[idx] != self.epoch {
            self.stamp[idx] = self.epoch;
            slot.len = 0;
        }
        slot
    }
}

impl DistSlot {
    /// The live level-`t` distribution (`t < self.len`).
    pub(crate) fn level(&self, t: usize) -> &SparseVec {
        debug_assert!(t < self.len);
        &self.levels[t]
    }

    /// Number of live levels.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Initialises level 0 to the unit vector `e_q` if the slot is empty.
    pub(crate) fn ensure_unit(&mut self, q: NodeId) {
        if self.len > 0 {
            return;
        }
        if self.levels.is_empty() {
            self.levels.push(SparseVec::unit(q, 1.0));
        } else {
            self.levels[0].clear();
            self.levels[0].push_sorted(q, 1.0);
        }
        self.len = 1;
    }

    /// Appends one more level by applying `P` to the newest live level.
    /// Returns the (previous-top, new-top) pair of slices split mutably so
    /// the caller's multiply can read one and write the other.
    pub(crate) fn split_for_extend(&mut self) -> (&SparseVec, &mut SparseVec) {
        debug_assert!(self.len > 0, "ensure_unit first");
        if self.levels.len() == self.len {
            self.levels.push(SparseVec::new());
        }
        let (head, tail) = self.levels.split_at_mut(self.len);
        let src = &head[self.len - 1];
        let dst = &mut tail[0];
        self.len += 1;
        (src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_scratches() {
        let pool = ScratchPool::new(16);
        assert_eq!(pool.idle(), 0);
        let a = pool.checkout();
        let b = pool.checkout();
        pool.give_back(a);
        pool.give_back(b);
        assert_eq!(pool.idle(), 2);
        let _c = pool.checkout();
        assert_eq!(pool.idle(), 1);
        // Clones share nothing and start empty.
        assert_eq!(pool.clone().idle(), 0);
    }

    #[test]
    fn dist_table_resets_logically_between_nodes() {
        let mut table = DistTable::new(8);
        table.begin_node(8);
        let slot = table.slot_mut(3);
        slot.ensure_unit(3);
        {
            let (src, dst) = slot.split_for_extend();
            assert_eq!(src.indices(), &[3]);
            dst.clear();
            dst.push_sorted(5, 1.0);
        }
        assert_eq!(slot.len(), 2);
        assert_eq!(slot.level(1).indices(), &[5]);

        // Next node: the same slot is logically empty again, and level 0 is
        // rebuilt in the retained storage.
        table.begin_node(8);
        let slot = table.slot_mut(3);
        assert_eq!(slot.len, 0);
        slot.ensure_unit(3);
        assert_eq!(slot.len(), 1);
        assert_eq!(slot.level(0).indices(), &[3]);
        assert_eq!(slot.level(0).values(), &[1.0]);
    }
}
