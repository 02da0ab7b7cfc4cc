//! The parameter-sweep machinery behind every figure target.

use std::time::Instant;

use exactsim::exactsim::{ExactSimConfig, ExactSimVariant};
use exactsim::linearization::LinearizationConfig;
use exactsim::mc::MonteCarloConfig;
use exactsim::metrics::{max_error, precision_at_k};
use exactsim::parsim::ParSimConfig;
use exactsim::prsim::PrSimConfig;
use exactsim::suite::{
    ExactSimAlgorithm, LinearizationAlgorithm, MonteCarloAlgorithm, ParSimAlgorithm,
    PrSimAlgorithm, SingleSourceAlgorithm,
};
use exactsim::SimRankConfig;
use exactsim_graph::DiGraph;

use crate::ground_truth::GroundTruth;
use crate::output::SweepRow;
use crate::params::HarnessParams;

/// Which algorithm families a sweep should include.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgorithmFamily {
    /// All five single-source algorithms (Figures 1, 2, 5, 6; Figures 3, 4,
    /// 7, 8 keep only its index-based rows).
    All,
    /// Only the two ExactSim variants (Figure 9).
    ExactSimVariantsOnly,
}

/// The Precision@k cutoff used throughout the paper's evaluation.
pub const PRECISION_K: usize = 500;

/// Runs the configured parameter sweeps of every requested algorithm on one
/// dataset and measures each configuration against the ground truth.
pub fn run_quality_sweep(
    dataset_key: &str,
    graph: &DiGraph,
    truth: &GroundTruth,
    params: &HarnessParams,
    family: AlgorithmFamily,
) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    let simrank = SimRankConfig {
        seed: params.seed,
        ..Default::default()
    };

    let include_all = family == AlgorithmFamily::All;
    let include_exactsim_variants = family == AlgorithmFamily::ExactSimVariantsOnly;

    // Per-node exploration caps for the harness: bound the cost of deep
    // Algorithm 3 exploration on the larger stand-ins.
    let explore_caps = exactsim::diagonal::LocalExploreCaps {
        max_edges: 50_000,
        max_tail_samples: 20_000,
        ..Default::default()
    };

    // --- ExactSim (optimized): the ε sweep of Figures 1/2/5/6.
    if include_all || include_exactsim_variants {
        for &eps in &params.exactsim_epsilons() {
            let config = ExactSimConfig {
                epsilon: eps,
                variant: ExactSimVariant::Optimized,
                walk_budget: Some(params.walk_budget),
                explore_caps,
                simrank,
                ..Default::default()
            };
            let label = if include_exactsim_variants {
                "ExactSim-Opt"
            } else {
                "ExactSim"
            };
            if let Ok(algo) = ExactSimAlgorithm::new(graph, config) {
                rows.push(measure(
                    dataset_key,
                    label,
                    &format!("eps={eps:.0e}"),
                    &algo,
                    truth,
                ));
            }
        }
    }

    // --- ExactSim (basic): only for the ablation figure.
    if include_exactsim_variants {
        for &eps in &params.exactsim_epsilons() {
            let config = ExactSimConfig {
                epsilon: eps,
                variant: ExactSimVariant::Basic,
                walk_budget: Some(params.walk_budget),
                explore_caps,
                simrank,
                ..Default::default()
            };
            if let Ok(algo) = ExactSimAlgorithm::new(graph, config) {
                rows.push(measure(
                    dataset_key,
                    "ExactSim-Basic",
                    &format!("eps={eps:.0e}"),
                    &algo,
                    truth,
                ));
            }
        }
    }

    // --- ParSim: iteration sweep (index-free, deterministic, biased).
    if include_all {
        for &iterations in &params.parsim_iterations() {
            let config = ParSimConfig {
                iterations,
                simrank,
            };
            if let Ok(algo) = ParSimAlgorithm::new(graph, config) {
                rows.push(measure(
                    dataset_key,
                    "ParSim",
                    &format!("L={iterations}"),
                    &algo,
                    truth,
                ));
            }
        }
    }

    // --- MC: walks-per-node sweep.
    if include_all {
        for &(walks, length) in &params.mc_walk_counts() {
            // Guard the index size: r walks × n nodes × mean length.
            let estimated_steps = walks.saturating_mul(graph.num_nodes()).saturating_mul(5);
            if estimated_steps > 2_000_000_000 {
                continue; // the paper likewise omits configurations over its limits
            }
            let config = MonteCarloConfig {
                walks_per_node: walks,
                walk_length: length,
                simrank,
            };
            if let Ok(algo) = MonteCarloAlgorithm::build(graph, config) {
                rows.push(measure(
                    dataset_key,
                    "MC",
                    &format!("r={walks},L={length}"),
                    &algo,
                    truth,
                ));
            }
        }
    }

    // --- Linearization: ε sweep, preprocessing capped by the walk budget.
    if include_all {
        for &eps in &params.index_method_epsilons() {
            let config = LinearizationConfig {
                epsilon: eps,
                walk_budget: Some(params.walk_budget),
                simrank,
            };
            if let Ok(algo) = LinearizationAlgorithm::build(graph, config) {
                rows.push(measure(
                    dataset_key,
                    "Linearization",
                    &format!("eps={eps:.0e}"),
                    &algo,
                    truth,
                ));
            }
        }
    }

    // --- PRSim: ε sweep with an index-entry cap derived from the budget.
    if include_all {
        for &eps in &params.index_method_epsilons() {
            let config = PrSimConfig {
                epsilon: eps,
                walk_budget: Some(params.walk_budget),
                max_index_entries: Some(20_000_000),
                simrank,
            };
            if let Ok(algo) = PrSimAlgorithm::build(graph, config) {
                rows.push(measure(
                    dataset_key,
                    "PRSim",
                    &format!("eps={eps:.0e}"),
                    &algo,
                    truth,
                ));
            }
        }
    }

    rows
}

/// Measures one algorithm configuration against every ground-truth source and
/// averages query time, MaxError and Precision@500.
pub fn measure(
    dataset_key: &str,
    algorithm: &str,
    parameter: &str,
    algo: &dyn SingleSourceAlgorithm,
    truth: &GroundTruth,
) -> SweepRow {
    let mut total_query = 0.0f64;
    let mut total_err = 0.0f64;
    let mut total_precision = 0.0f64;
    let mut measured = 0usize;
    for (source, exact) in &truth.per_source {
        let start = Instant::now();
        match algo.query(*source) {
            Ok(output) => {
                let elapsed = start.elapsed().as_secs_f64();
                total_query += elapsed;
                total_err += max_error(&output.scores, exact);
                total_precision += precision_at_k(&output.scores, exact, *source, PRECISION_K);
                measured += 1;
            }
            Err(err) => {
                eprintln!("  [warn] {algorithm} ({parameter}) failed on source {source}: {err}");
            }
        }
    }
    let denom = measured.max(1) as f64;
    SweepRow {
        dataset: dataset_key.to_string(),
        algorithm: algorithm.to_string(),
        parameter: parameter.to_string(),
        preprocessing_seconds: algo.preprocessing_time().as_secs_f64(),
        index_bytes: algo.index_bytes(),
        query_seconds: total_query / denom,
        max_error: total_err / denom,
        precision_at_500: total_precision / denom,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::ground_truth_power_method;
    use exactsim_graph::generators::barabasi_albert;

    fn tiny_params() -> HarnessParams {
        HarnessParams {
            queries: 2,
            walk_budget: 50_000,
            ..Default::default()
        }
    }

    #[test]
    fn full_sweep_produces_rows_for_every_family() {
        let g = barabasi_albert(60, 2, true, 3).unwrap();
        let sources = vec![0u32, 10];
        let truth = ground_truth_power_method(&g, &sources).unwrap();
        let mut params = tiny_params();
        // Keep the ExactSim sweep short for the unit test.
        params.walk_budget = 20_000;
        let rows = run_quality_sweep("GQ", &g, &truth, &params, AlgorithmFamily::All);
        let algorithms: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.algorithm.as_str()).collect();
        for expected in ["ExactSim", "ParSim", "MC", "Linearization", "PRSim"] {
            assert!(algorithms.contains(expected), "missing {expected}");
        }
        for row in &rows {
            assert!(row.max_error.is_finite());
            assert!(row.max_error < 1.0);
            assert!((0.0..=1.0).contains(&row.precision_at_500));
            assert!(row.query_seconds >= 0.0);
        }
    }

    #[test]
    fn exactsim_variant_family_contains_both_variants() {
        let g = barabasi_albert(50, 2, true, 7).unwrap();
        let truth = ground_truth_power_method(&g, &[2]).unwrap();
        let rows = run_quality_sweep(
            "HP",
            &g,
            &truth,
            &tiny_params(),
            AlgorithmFamily::ExactSimVariantsOnly,
        );
        let names: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.algorithm.as_str()).collect();
        assert!(names.contains("ExactSim-Opt"));
        assert!(names.contains("ExactSim-Basic"));
    }
}
