//! The solver layer (`exactsim` core crate): ExactSim configurations, the
//! phase-by-phase replay of an optimized query, and the core probes.

use exactsim::diagonal::{estimate_diagonal_with, DiagonalEstimator};
use exactsim::exactsim::{ExactSim, ExactSimConfig, ExactSimStats, ExactSimVariant};
use exactsim::parallel::pt_multiply_threaded;
use exactsim::ppr::sparse_hop_vectors;
use exactsim::scratch::DiagonalScratch;
use exactsim::SimRankConfig;
use exactsim_graph::linalg::Workspace;
use exactsim_graph::{NeighborAccess, NodeId};

use crate::report::Report;
use crate::trace::Tracer;

/// An optimized ExactSim configuration at `epsilon`, `walk_budget` and
/// `threads`, with every other setting at the library default (the values
/// `simrank-serve` uses).
pub fn config(epsilon: f64, walk_budget: Option<u64>, threads: usize) -> ExactSimConfig {
    ExactSimConfig {
        simrank: SimRankConfig {
            threads,
            ..SimRankConfig::default()
        },
        epsilon,
        variant: ExactSimVariant::Optimized,
        walk_budget,
        ..ExactSimConfig::default()
    }
}

/// Re-runs the optimized ExactSim query through the crate's public phase
/// functions, with one span per paper phase: hop vectors, Algorithm 3 for
/// `D` (with its tail walks), and the Linearization recurrence. The scores
/// must equal `ExactSim::query` bit for bit, which the caller checks.
pub struct Replay<'g, G: NeighborAccess> {
    graph: &'g G,
    cfg: ExactSimConfig,
    ws: Workspace,
    scratches: Vec<DiagonalScratch>,
    tmp: Vec<f64>,
}

impl<'g, G: NeighborAccess + Sync> Replay<'g, G> {
    /// A replay of queries under `cfg` on `graph`.
    pub fn new(graph: &'g G, cfg: ExactSimConfig) -> Self {
        Replay {
            graph,
            cfg,
            ws: Workspace::new(graph.num_nodes()),
            scratches: Vec::new(),
            tmp: Vec::new(),
        }
    }

    /// The scores of `source`, recording spans under `parent`.
    pub fn query(
        &mut self,
        source: NodeId,
        tracer: &Tracer,
        parent: Option<u64>,
        request: u64,
    ) -> Vec<f64> {
        let graph = self.graph;
        let n = graph.num_nodes();
        let simrank = &self.cfg.simrank;
        let sqrt_c = simrank.sqrt_decay();
        let threads = simrank.threads;
        // The optimized variant spends half of ε on sparsification (Lemma 2).
        let eps = self.cfg.epsilon / 2.0;
        let levels = simrank.iterations_for_epsilon(eps);
        let stop = 1.0 - sqrt_c;

        let ws = &mut self.ws;
        let hops = tracer.span("core.hop_vectors", parent, request, || {
            sparse_hop_vectors(graph, source, sqrt_c, levels, stop.powi(2) * eps, ws)
        });

        // Lemma 3 allocation R(k) = ⌈R·π_i(k)²⌉, then the optional budget.
        let r_base = 6.0 * (n.max(2) as f64).ln() / (stop.powi(4) * eps * eps);
        let mut allocation = vec![0u64; n];
        for (k, p) in hops.aggregate.iter() {
            if p > 0.0 {
                allocation[k as usize] = (r_base * p * p).ceil().min(9.0e18) as u64;
            }
        }
        apply_budget(&mut allocation, self.cfg.walk_budget);

        let estimator = DiagonalEstimator::LocalDeterministic(self.cfg.explore_caps);
        let scratches = &mut self.scratches;
        let diag = tracer.span("core.diagonal", parent, request, || {
            estimate_diagonal_with(
                graph,
                &allocation,
                &estimator,
                sqrt_c,
                stop.powi(2) * eps / 4.0,
                simrank.seed ^ source as u64,
                threads,
                scratches,
            )
        });

        let tmp = &mut self.tmp;
        tracer.span("core.recurrence", parent, request, || {
            let mut s = vec![0.0; n];
            tmp.clear();
            tmp.resize(n, 0.0);
            for step in 0..=levels {
                if step > 0 {
                    pt_multiply_threaded(graph, &s, tmp, threads);
                    for v in tmp.iter_mut() {
                        *v *= sqrt_c;
                    }
                    std::mem::swap(&mut s, tmp);
                }
                for (k, value) in hops.hops[levels - step].iter() {
                    s[k as usize] += diag.values[k as usize] * value / stop;
                }
            }
            s
        })
    }
}

/// Scales the allocation down proportionally to the walk budget, exactly as
/// the solver does.
fn apply_budget(allocation: &mut [u64], budget: Option<u64>) {
    let requested = allocation.iter().fold(0u64, |a, &r| a.saturating_add(r));
    if let Some(budget) = budget {
        if requested > budget {
            let factor = budget as f64 / requested as f64;
            for r in allocation.iter_mut().filter(|r| **r > 0) {
                *r = (((*r as f64) * factor).ceil() as u64).max(1);
            }
        }
    }
}

/// The core probes on `sources`: each source is answered by `ExactSim::query`
/// at one and at two kernel threads and replayed phase by phase under `cfg`.
/// Reports the phase means, the unattributed rest, the thread speed-up with
/// its bases, and the `ExactSimStats` counts.
pub fn probe<G: NeighborAccess + Sync>(
    graph: &G,
    cfg: &ExactSimConfig,
    sources: &[NodeId],
    tracer: &Tracer,
    report: &mut Report,
) {
    let at = |threads: usize| {
        let mut c = cfg.clone();
        c.simrank.threads = threads;
        ExactSim::new(graph, c).expect("valid ExactSim configuration")
    };
    let (t1, t2) = (at(1), at(2));
    let mut replay = Replay::new(graph, cfg.clone());
    let mut stats: Vec<ExactSimStats> = Vec::new();
    for (i, &source) in sources.iter().enumerate() {
        let request = (1 << 50) | i as u64;
        let one = tracer.span("core.exactsim_query.t1", None, request, || t1.query(source));
        let two = tracer.span("core.exactsim_query.t2", None, request, || t2.query(source));
        let (one, two) = (one.expect("valid source"), two.expect("valid source"));
        let root = tracer.reserve_id();
        let start = std::time::Instant::now();
        let replayed = replay.query(source, tracer, Some(root), request);
        tracer.record(
            root,
            "core.replay",
            start,
            std::time::Instant::now(),
            None,
            request,
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if bits(&one.scores) != bits(&two.scores) || bits(&one.scores) != bits(&replayed) {
            report.fail(format!(
                "core: source {source}: t=1, t=2 and the phase replay disagree"
            ));
        }
        stats.push(one.stats);
    }
    let query_ms = tracer.mean_ms(if cfg.simrank.threads >= 2 {
        "core.exactsim_query.t2"
    } else {
        "core.exactsim_query.t1"
    });
    let hop = tracer.mean_ms("core.hop_vectors");
    let diag = tracer.mean_ms("core.diagonal");
    let rec = tracer.mean_ms("core.recurrence");
    report.metric("core.hop_vectors_ms", hop, "ms");
    report.metric("core.diagonal_ms", diag, "ms");
    report.metric("core.recurrence_ms", rec, "ms");
    report.metric("core.unattributed_ms", query_ms - hop - diag - rec, "ms");
    report.metric("core.query_ms", query_ms, "ms");
    let (ms1, ms2) = (
        tracer.mean_ms("core.exactsim_query.t1"),
        tracer.mean_ms("core.exactsim_query.t2"),
    );
    report.metric("core.thread_speedup", ms1 / ms2, "ratio");
    report.metric("core.t1_query_ms", ms1, "ms");
    report.metric("core.t2_query_ms", ms2, "ms");
    let per_query = |f: &dyn Fn(&ExactSimStats) -> f64| {
        crate::stats::mean(&stats.iter().map(f).collect::<Vec<_>>())
    };
    report.metric(
        "core.walk_pairs",
        per_query(&|s| s.simulated_walk_pairs as f64),
        "count",
    );
    report.metric(
        "core.explore_edges",
        per_query(&|s| s.explore_edges as f64),
        "count",
    );
    report.metric(
        "core.tails_skipped",
        per_query(&|s| s.tails_skipped as f64),
        "count",
    );
    report.metric("core.hop_nnz", per_query(&|s| s.hop_nnz as f64), "count");
    report.note(format!(
        "core probe: {} sources, eps = {}, walk budget = {:?}, replay threads = {}, \
         available_parallelism = {}",
        sources.len(),
        cfg.epsilon,
        cfg.walk_budget,
        cfg.simrank.threads,
        crate::nproc()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use exactsim_graph::generators::barabasi_albert;

    #[test]
    fn replay_matches_the_solver_bit_for_bit() {
        let graph = barabasi_albert(400, 3, true, 9).unwrap();
        for (eps, budget, threads) in [(1e-2, Some(20_000), 1), (5e-3, None, 2)] {
            let cfg = config(eps, budget, threads);
            let solver = ExactSim::new(&graph, cfg.clone()).unwrap();
            let mut replay = Replay::new(&graph, cfg);
            let tracer = Tracer::new(true);
            for source in [0, 17, 399] {
                let want = solver.query(source).unwrap().scores;
                let got = replay.query(source, &tracer, None, 0);
                assert!(want
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            assert_eq!(tracer.spans().len(), 9);
        }
    }
}
