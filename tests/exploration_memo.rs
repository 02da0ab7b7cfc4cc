//! The exploration memo across backends: a warm ExactSim solver over a paged
//! `GraphHandle` answers every source bit for bit like a fresh in-memory
//! solver, with the same simulated walk pairs and charged exploration edges.

use std::sync::Arc;

use exactsim::exactsim::{ExactSim, ExactSimConfig, ExactSimResult};
use exactsim::SimRankConfig;
use exactsim_graph::generators::barabasi_albert;
use exactsim_graph::NodeId;
use exactsim_store::{BufferPool, GraphHandle, PagedGraph, DEFAULT_PAGE_BYTES};

fn fingerprint(result: &ExactSimResult) -> (Vec<u64>, u64, u64) {
    (
        result.scores.iter().map(|s| s.to_bits()).collect(),
        result.stats.simulated_walk_pairs,
        result.stats.explore_edges,
    )
}

#[test]
fn warm_paged_solver_matches_fresh_in_memory_solvers() {
    let dir = std::env::temp_dir().join(format!("exactsim-memo-paged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sources: [NodeId; 8] = [0, 5, 11, 17, 23, 31, 42, 59];
    // The serving configuration and the guarantee regime (no walk budget).
    let cases = [
        (
            barabasi_albert(150, 3, true, 21).unwrap(),
            1e-2,
            Some(2_000_000),
        ),
        (barabasi_albert(60, 3, true, 21).unwrap(), 1e-3, None),
    ];
    for (i, (graph, epsilon, walk_budget)) in cases.into_iter().enumerate() {
        let config = |threads| ExactSimConfig {
            epsilon,
            walk_budget,
            simrank: SimRankConfig {
                threads,
                ..SimRankConfig::default()
            },
            ..ExactSimConfig::default()
        };
        let path = dir.join(format!("case-{i}.pages"));
        PagedGraph::build(&path, &graph, 0, DEFAULT_PAGE_BYTES).unwrap();
        let paged = PagedGraph::open(&path, Arc::new(BufferPool::new(64))).unwrap();
        let paged = GraphHandle::Paged(Arc::new(paged));
        let fresh: Vec<_> = sources
            .iter()
            .map(|&s| {
                let solver = ExactSim::new(&graph, config(1)).unwrap();
                fingerprint(&solver.query(s).unwrap())
            })
            .collect();
        for threads in [1, 2] {
            let warm = ExactSim::new(paged.clone(), config(threads)).unwrap();
            let mut memoized = 0;
            for pass in 0..2 {
                for (&s, want) in sources.iter().zip(&fresh) {
                    let got = warm.query(s).unwrap();
                    memoized += got.stats.explore_edges_memoized;
                    assert!(
                        fingerprint(&got) == *want,
                        "eps {epsilon} threads {threads} pass {pass} source {s}"
                    );
                }
            }
            assert!(memoized > 0, "the memo was never hit");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
