//! Shared per-figure runners: dataset groups + ground truth + sweep.

use exactsim_datasets::{large_datasets, query_sources, small_datasets, GeneratedDataset};

use crate::ground_truth::{ground_truth_exactsim, ground_truth_power_method, GroundTruth};
use crate::output::SweepRow;
use crate::params::HarnessParams;
use crate::sweep::{run_quality_sweep, AlgorithmFamily};

/// Which of the paper's two dataset groups a figure uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetGroup {
    /// GQ / HT / WV / HP with Power-Method ground truth (Figures 1–4).
    Small,
    /// DB / IC / IT / TW (scaled stand-ins) with ExactSim-1e-7 ground truth
    /// (Figures 5–8).
    Large,
}

/// Generates one dataset of the group at the harness scale.
pub fn generate_dataset(
    spec: &'static exactsim_datasets::DatasetSpec,
    params: &HarnessParams,
) -> GeneratedDataset {
    let scale = if spec.large {
        params.scale_large.unwrap_or(spec.default_scale)
    } else {
        params.scale_small
    };
    spec.generate_scaled(scale)
        .expect("dataset stand-in generation cannot fail for registry specs")
}

/// Computes the group-appropriate ground truth for the chosen sources.
pub fn group_ground_truth(
    group: DatasetGroup,
    dataset: &GeneratedDataset,
    sources: &[u32],
    params: &HarnessParams,
) -> GroundTruth {
    match group {
        DatasetGroup::Small => ground_truth_power_method(&dataset.graph, sources)
            .expect("power-method ground truth failed on a small stand-in"),
        DatasetGroup::Large => ground_truth_exactsim(
            &dataset.graph,
            sources,
            params.walk_budget.max(1_000_000),
            params.seed,
        )
        .expect("ExactSim ground truth failed on a large stand-in"),
    }
}

/// Runs one figure: for every dataset in the group, generate the stand-in,
/// compute the ground truth and run the requested sweep.
pub fn run_figure_with(
    group: DatasetGroup,
    family: AlgorithmFamily,
    params: &HarnessParams,
) -> Vec<SweepRow> {
    let specs = match group {
        DatasetGroup::Small => small_datasets(),
        DatasetGroup::Large => large_datasets(),
    };
    let mut rows = Vec::new();
    for spec in specs {
        eprintln!("[dataset {}] generating stand-in …", spec.key);
        let dataset = generate_dataset(spec, params);
        eprintln!(
            "[dataset {}] n = {}, m = {} ({} of paper scale)",
            spec.key,
            dataset.graph.num_nodes(),
            dataset.graph.num_edges(),
            dataset.scale
        );
        let sources = query_sources(&dataset.graph, params.queries, params.seed);
        eprintln!(
            "[dataset {}] computing ground truth for {} sources …",
            spec.key,
            sources.len()
        );
        let truth = group_ground_truth(group, &dataset, &sources, params);
        eprintln!("[dataset {}] ground truth: {}", spec.key, truth.method);
        rows.extend(run_quality_sweep(
            spec.key,
            &dataset.graph,
            &truth,
            params,
            family,
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use exactsim_datasets::dataset_by_key;

    #[test]
    fn generate_dataset_respects_group_scales() {
        let params = HarnessParams {
            scale_small: 0.05,
            scale_large: Some(0.001),
            ..Default::default()
        };
        let gq = generate_dataset(dataset_by_key("GQ").unwrap(), &params);
        assert_eq!(gq.graph.num_nodes(), (5242.0f64 * 0.05).round() as usize);
        let db = generate_dataset(dataset_by_key("DB").unwrap(), &params);
        assert!(db.graph.num_nodes() < 10_000);
    }

    #[test]
    fn small_group_ground_truth_uses_power_method() {
        let params = HarnessParams {
            scale_small: 0.02,
            ..Default::default()
        };
        let gq = generate_dataset(dataset_by_key("GQ").unwrap(), &params);
        let sources = query_sources(&gq.graph, 2, 1);
        let truth = group_ground_truth(DatasetGroup::Small, &gq, &sources, &params);
        assert!(truth.method.contains("PowerMethod"));
        assert_eq!(truth.num_sources(), 2);
    }

    #[test]
    fn large_group_ground_truth_uses_exactsim() {
        let params = HarnessParams {
            scale_large: Some(0.0005),
            walk_budget: 200_000,
            ..Default::default()
        };
        let db = generate_dataset(dataset_by_key("DB").unwrap(), &params);
        let sources = query_sources(&db.graph, 1, 1);
        let truth = group_ground_truth(DatasetGroup::Large, &db, &sources, &params);
        assert!(truth.method.contains("ExactSim"));
        assert_eq!(truth.num_sources(), 1);
    }
}
