//! The paper's guarantee as a claim of its own: with no walk budget,
//! ExactSim's answer is within ε of the exact SimRank column on every node.
//!
//! Both cases answer all their sources with one warm solver, so later
//! sources replay the exploration memo that earlier ones filled; the bound
//! must hold for them exactly as for the first.
//!
//! The GQ case is `#[ignore]`d (it needs a release build) and runs as its
//! own CI step: `cargo test --release --test epsilon_guarantee -- --ignored`.

use exactsim::exactsim::{DiagonalMode, ExactSim, ExactSimConfig};
use exactsim::metrics::max_error;
use exactsim::power_method::{PowerMethod, PowerMethodConfig};
use exactsim_datasets::{dataset_by_key, query_sources};
use exactsim_graph::generators::barabasi_albert;

/// An optimized ExactSim at `epsilon` with no walk budget: the paper's
/// sample counts, uncapped.
fn guarantee_config(epsilon: f64) -> ExactSimConfig {
    ExactSimConfig {
        epsilon,
        walk_budget: None,
        ..ExactSimConfig::default()
    }
}

#[test]
fn error_is_within_epsilon_against_the_power_method() {
    let eps = 1e-2;
    let graph = barabasi_albert(400, 3, true, 17).unwrap();
    let truth = PowerMethod::compute(&graph, PowerMethodConfig::default()).unwrap();
    let solver = ExactSim::new(&graph, guarantee_config(eps)).unwrap();
    for source in query_sources(&graph, 5, 3) {
        let scores = solver.query(source).unwrap().scores;
        let err = max_error(&scores, &truth.single_source(source));
        assert!(err <= eps, "source {source}: max error {err:e} > {eps:e}");
    }
}

/// The exact diagonal of the GQ stand-in at scale 1, as checked in for the
/// benchmark's reference (one value per line after `#` comments).
fn gq_exact_diagonal(n: usize) -> Vec<f64> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/perfbench/data/gq_diagonal.txt"
    );
    let text = std::fs::read_to_string(path).expect("read the GQ exact diagonal");
    let values: Vec<f64> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.trim().parse().expect("a diagonal value"))
        .collect();
    assert_eq!(values.len(), n, "the diagonal file does not match GQ");
    values
}

#[test]
#[ignore = "release-mode GQ check; run with --release -- --ignored"]
fn error_is_within_epsilon_on_gq_against_the_exact_diagonal() {
    let eps = 1e-3;
    let graph = dataset_by_key("GQ")
        .expect("registry contains GQ")
        .generate_scaled(1.0)
        .expect("GQ stand-in")
        .graph;
    let reference = ExactSim::new(
        &graph,
        ExactSimConfig {
            diagonal: DiagonalMode::Exact(gq_exact_diagonal(graph.num_nodes())),
            ..guarantee_config(1e-6)
        },
    )
    .unwrap();
    let solver = ExactSim::new(&graph, guarantee_config(eps)).unwrap();
    for source in query_sources(&graph, 10, 1) {
        let scores = solver.query(source).unwrap().scores;
        let truth = reference.query(source).unwrap().scores;
        let err = max_error(&scores, &truth);
        assert!(err <= eps, "source {source}: max error {err:e} > {eps:e}");
    }
}
