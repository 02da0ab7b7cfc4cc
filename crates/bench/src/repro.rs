//! The one-command reproducibility pipeline behind `simrank-repro`.
//!
//! Modeled on the SIGMOD-reproducibility "master script" convention (one
//! command regenerates every figure from a clean checkout): a registry of
//! [`TARGETS`] maps each of the paper's figure/table artifacts to the sweep
//! that produces it, and [`run`] executes a selected subset, writing, per
//! target, a CSV (`repro/out/fig1.csv`), a JSON twin (`fig1.json`), plus a
//! run-wide `SUMMARY.md` Markdown report and a `MANIFEST.json` index.
//!
//! ## Sweep sharing
//!
//! Several paper figures are different *projections of the same sweep*:
//! Figures 1 and 2 both come from the all-algorithms sweep on the small
//! datasets (MaxError vs. time and Precision@500 vs. time respectively),
//! and Figures 3/4 restrict that same sweep to the index-based methods.
//! The runner therefore computes each dataset group's sweep **once** per
//! invocation and derives every dependent figure from the cached rows.
//! Figures 3/4/7/8 keep the index-based methods (MC / Linearization /
//! PRSim) of that sweep: each configuration is measured independently, with
//! per-`(seed, source)` deterministic randomness, so the filtered rows carry
//! the same values a dedicated index-only sweep would, at no extra runtime.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::output::{write_csv_file, SweepRow};
use crate::params::HarnessParams;
use crate::runner::{generate_dataset, group_ground_truth, run_figure_with, DatasetGroup};
use crate::sweep::{run_quality_sweep, AlgorithmFamily};
use crate::tables::{table2_rows, table3_rows};

/// How a target's rows are produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetKind {
    /// A quality sweep over one dataset group, optionally restricted to the
    /// index-based methods (the restriction is applied as a filter over the
    /// cached all-algorithms sweep — see the module docs).
    Sweep {
        /// Small (fig 1–4) or large (fig 5–8) dataset group.
        group: DatasetGroup,
        /// `true` for Figures 3/4/7/8: keep only MC / Linearization / PRSim.
        index_methods_only: bool,
    },
    /// Figure 9: basic vs. optimized ExactSim on the HP and DB stand-ins.
    ExactSimAblation,
    /// Table 2: dataset statistics (paper numbers vs. generated stand-ins).
    Table2,
    /// Table 3: auxiliary memory of the two ExactSim variants.
    Table3,
}

/// One reproducible artifact of the paper's evaluation.
#[derive(Clone, Copy, Debug)]
pub struct TargetSpec {
    /// Registry key and output-file stem: `fig1` … `fig9`, `table2`, `table3`.
    pub key: &'static str,
    /// The paper artifact this target reproduces.
    pub title: &'static str,
    /// The plotted axes (or table columns) of the artifact.
    pub axes: &'static str,
    /// How the rows are produced.
    pub kind: TargetKind,
}

/// Every figure/table the pipeline can regenerate, in paper order.
pub const TARGETS: &[TargetSpec] = &[
    TargetSpec {
        key: "fig1",
        title: "Figure 1: MaxError vs query time, small datasets, all algorithms",
        axes: "x=query_seconds, y=max_error",
        kind: TargetKind::Sweep {
            group: DatasetGroup::Small,
            index_methods_only: false,
        },
    },
    TargetSpec {
        key: "fig2",
        title: "Figure 2: Precision@500 vs query time, small datasets, all algorithms",
        axes: "x=query_seconds, y=precision_at_500",
        kind: TargetKind::Sweep {
            group: DatasetGroup::Small,
            index_methods_only: false,
        },
    },
    TargetSpec {
        key: "fig3",
        title: "Figure 3: MaxError vs preprocessing time, small datasets, index methods",
        axes: "x=preprocessing_seconds, y=max_error",
        kind: TargetKind::Sweep {
            group: DatasetGroup::Small,
            index_methods_only: true,
        },
    },
    TargetSpec {
        key: "fig4",
        title: "Figure 4: MaxError vs index size, small datasets, index methods",
        axes: "x=index_bytes, y=max_error",
        kind: TargetKind::Sweep {
            group: DatasetGroup::Small,
            index_methods_only: true,
        },
    },
    TargetSpec {
        key: "fig5",
        title: "Figure 5: MaxError vs query time, large datasets, all algorithms",
        axes: "x=query_seconds, y=max_error",
        kind: TargetKind::Sweep {
            group: DatasetGroup::Large,
            index_methods_only: false,
        },
    },
    TargetSpec {
        key: "fig6",
        title: "Figure 6: Precision@500 vs query time, large datasets, all algorithms",
        axes: "x=query_seconds, y=precision_at_500",
        kind: TargetKind::Sweep {
            group: DatasetGroup::Large,
            index_methods_only: false,
        },
    },
    TargetSpec {
        key: "fig7",
        title: "Figure 7: MaxError vs preprocessing time, large datasets, index methods",
        axes: "x=preprocessing_seconds, y=max_error",
        kind: TargetKind::Sweep {
            group: DatasetGroup::Large,
            index_methods_only: true,
        },
    },
    TargetSpec {
        key: "fig8",
        title: "Figure 8: MaxError vs index size, large datasets, index methods",
        axes: "x=index_bytes, y=max_error",
        kind: TargetKind::Sweep {
            group: DatasetGroup::Large,
            index_methods_only: true,
        },
    },
    TargetSpec {
        key: "fig9",
        title: "Figure 9: basic vs optimized ExactSim ablation (HP and DB)",
        axes: "x=query_seconds, y=max_error, series=variant",
        kind: TargetKind::ExactSimAblation,
    },
    TargetSpec {
        key: "table2",
        title: "Table 2: dataset statistics (paper vs generated stand-ins)",
        axes: "columns=nodes, edges, avg degree, power-law exponent",
        kind: TargetKind::Table2,
    },
    TargetSpec {
        key: "table3",
        title: "Table 3: auxiliary memory of ExactSim variants vs graph size",
        axes: "columns=basic GB, optimized GB, graph GB, reduction factor",
        kind: TargetKind::Table3,
    },
];

/// Looks a target up by key (`"fig5"`, `"table2"`, …).
pub fn target_by_key(key: &str) -> Option<&'static TargetSpec> {
    TARGETS.iter().find(|t| t.key == key)
}

/// One finished target of a [`run`]: what was produced and how long it took.
#[derive(Clone, Debug)]
pub struct TargetReport {
    /// The registry key (`fig1`, `table2`, …).
    pub key: &'static str,
    /// The paper artifact title.
    pub title: &'static str,
    /// Data rows written (excluding headers).
    pub rows: usize,
    /// Files written for this target, relative to the output directory.
    pub files: Vec<String>,
    /// Wall-clock seconds spent producing the rows (0 when served from the
    /// shared sweep cache).
    pub seconds: f64,
}

/// The result of one pipeline run.
#[derive(Clone, Debug)]
pub struct ReproReport {
    /// Per-target outcomes, in execution order.
    pub targets: Vec<TargetReport>,
    /// Absolute output directory.
    pub out_dir: PathBuf,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
}

/// Sweep cache key: one entry per sweep actually computed.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum SweepKey {
    Group(DatasetGroup),
    Ablation,
}

const INDEX_METHODS: [&str; 3] = ["MC", "Linearization", "PRSim"];

/// Runs the selected targets with the given parameters, writing all
/// artifacts under `out_dir`. `only = None` runs everything in [`TARGETS`];
/// a key listed twice in `only` runs once, at its first position. `mode` is
/// recorded verbatim in the summary/manifest (`"quick"`, `"full"`, `"env"`).
pub fn run(
    params: &HarnessParams,
    only: Option<&[String]>,
    out_dir: &Path,
    mode: &str,
) -> Result<ReproReport, String> {
    let selected: Vec<&'static TargetSpec> = match only {
        None => TARGETS.iter().collect(),
        Some(keys) => {
            let mut specs: Vec<&'static TargetSpec> = Vec::new();
            for key in keys {
                let key = key.trim();
                if key.is_empty() {
                    continue;
                }
                let spec = target_by_key(key).ok_or_else(|| {
                    let known: Vec<&str> = TARGETS.iter().map(|t| t.key).collect();
                    format!("unknown target `{key}` (known: {})", known.join(", "))
                })?;
                if !specs.iter().any(|s| s.key == spec.key) {
                    specs.push(spec);
                }
            }
            if specs.is_empty() {
                return Err("--only selected no targets".to_string());
            }
            specs
        }
    };
    eprintln!(
        "simrank-repro: mode {mode}, output {} ({} targets)",
        out_dir.display(),
        selected.len(),
    );
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;

    let started = Instant::now();
    let mut cache: HashMap<SweepKey, Vec<SweepRow>> = HashMap::new();
    let mut reports = Vec::new();
    for spec in &selected {
        eprintln!("[repro] {} — {}", spec.key, spec.title);
        let target_start = Instant::now();
        let report = match spec.kind {
            TargetKind::Sweep {
                group,
                index_methods_only,
            } => {
                let all = cache
                    .entry(SweepKey::Group(group))
                    .or_insert_with(|| run_figure_with(group, AlgorithmFamily::All, params));
                let rows: Vec<SweepRow> = if index_methods_only {
                    all.iter()
                        .filter(|r| INDEX_METHODS.contains(&r.algorithm.as_str()))
                        .cloned()
                        .collect()
                } else {
                    all.clone()
                };
                write_sweep_target(out_dir, spec, &rows)?
            }
            TargetKind::ExactSimAblation => {
                let key = SweepKey::Ablation;
                let rows = cache.entry(key).or_insert_with(|| ablation_rows(params));
                write_sweep_target(out_dir, spec, rows)?
            }
            TargetKind::Table2 => {
                let rows = table2_rows(params);
                write_rows_target(
                    out_dir,
                    spec,
                    crate::tables::Table2Row::csv_header(),
                    &rows.iter().map(|r| r.to_csv()).collect::<Vec<_>>(),
                    &rows.iter().map(|r| r.to_json()).collect::<Vec<_>>(),
                )?
            }
            TargetKind::Table3 => {
                let rows = table3_rows(params);
                write_rows_target(
                    out_dir,
                    spec,
                    crate::tables::Table3Row::csv_header(),
                    &rows.iter().map(|r| r.to_csv()).collect::<Vec<_>>(),
                    &rows.iter().map(|r| r.to_json()).collect::<Vec<_>>(),
                )?
            }
        };
        reports.push(TargetReport {
            seconds: target_start.elapsed().as_secs_f64(),
            ..report
        });
    }

    let report = ReproReport {
        targets: reports,
        out_dir: out_dir.to_path_buf(),
        total_seconds: started.elapsed().as_secs_f64(),
    };
    write_summary(&report, params, mode)?;
    write_manifest(&report, params, mode)?;
    Ok(report)
}

/// Figure 9's rows: both ExactSim variants on one small (HP) and one large
/// (DB) stand-in.
fn ablation_rows(params: &HarnessParams) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for (key, group) in [("HP", DatasetGroup::Small), ("DB", DatasetGroup::Large)] {
        let spec = exactsim_datasets::dataset_by_key(key).expect("registry key");
        eprintln!("[dataset {key}] generating stand-in …");
        let dataset = generate_dataset(spec, params);
        let sources = exactsim_datasets::query_sources(&dataset.graph, params.queries, params.seed);
        eprintln!("[dataset {key}] computing ground truth …");
        let truth = group_ground_truth(group, &dataset, &sources, params);
        rows.extend(run_quality_sweep(
            key,
            &dataset.graph,
            &truth,
            params,
            AlgorithmFamily::ExactSimVariantsOnly,
        ));
    }
    rows
}

fn write_sweep_target(
    out_dir: &Path,
    spec: &'static TargetSpec,
    rows: &[SweepRow],
) -> Result<TargetReport, String> {
    write_rows_target(
        out_dir,
        spec,
        SweepRow::csv_header(),
        &rows.iter().map(|r| r.to_csv()).collect::<Vec<_>>(),
        &rows.iter().map(|r| r.to_json()).collect::<Vec<_>>(),
    )
}

fn write_rows_target(
    out_dir: &Path,
    spec: &'static TargetSpec,
    header: &str,
    csv_lines: &[String],
    json_objects: &[String],
) -> Result<TargetReport, String> {
    let csv_name = format!("{}.csv", spec.key);
    let json_name = format!("{}.json", spec.key);
    write_csv_file(&out_dir.join(&csv_name), spec.title, header, csv_lines)
        .map_err(|e| format!("write {csv_name}: {e}"))?;
    let json = format!(
        "{{\"target\":\"{}\",\"title\":\"{}\",\"axes\":\"{}\",\"rows\":[{}]}}\n",
        spec.key,
        spec.title,
        spec.axes,
        json_objects.join(",")
    );
    std::fs::write(out_dir.join(&json_name), json)
        .map_err(|e| format!("write {json_name}: {e}"))?;
    Ok(TargetReport {
        key: spec.key,
        title: spec.title,
        rows: csv_lines.len(),
        files: vec![csv_name, json_name],
        seconds: 0.0,
    })
}

fn write_summary(report: &ReproReport, params: &HarnessParams, mode: &str) -> Result<(), String> {
    let mut md = String::new();
    md.push_str("# simrank-repro run summary\n\n");
    md.push_str(&format!(
        "- mode: `{mode}` (scale_small={}, scale_large={}, queries={}, walk_budget={}, seed={})\n",
        params.scale_small,
        params
            .scale_large
            .map(|s| s.to_string())
            .unwrap_or_else(|| "registry default".to_string()),
        params.queries,
        params.walk_budget,
        params.seed,
    ));
    md.push_str(&format!(
        "- total wall clock: {:.1}s over {} target(s)\n\n",
        report.total_seconds,
        report.targets.len()
    ));
    md.push_str("| target | paper artifact | rows | seconds | files |\n");
    md.push_str("|---|---|---:|---:|---|\n");
    for t in &report.targets {
        md.push_str(&format!(
            "| `{}` | {} | {} | {:.1} | {} |\n",
            t.key,
            t.title,
            t.rows,
            t.seconds,
            t.files
                .iter()
                .map(|f| format!("`{f}`"))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
    md.push_str(
        "\nAll figures are emitted as `dataset,algorithm,parameter,…` sweep rows; \
         the plotted projection of each figure is recorded in its JSON twin's \
         `axes` field. See REPRODUCING.md at the repository root for how each \
         target maps to the paper.\n",
    );
    std::fs::write(report.out_dir.join("SUMMARY.md"), md)
        .map_err(|e| format!("write SUMMARY.md: {e}"))
}

fn write_manifest(report: &ReproReport, params: &HarnessParams, mode: &str) -> Result<(), String> {
    let targets: Vec<String> = report
        .targets
        .iter()
        .map(|t| {
            format!(
                "{{\"key\":\"{}\",\"rows\":{},\"seconds\":{:.3},\"files\":[{}]}}",
                t.key,
                t.rows,
                t.seconds,
                t.files
                    .iter()
                    .map(|f| format!("\"{f}\""))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\"pipeline\":\"simrank-repro\",\"schema_version\":1,\"mode\":\"{}\",",
            "\"params\":{{\"scale_small\":{},\"scale_large\":{},\"queries\":{},",
            "\"walk_budget\":{},\"seed\":{}}},",
            "\"total_seconds\":{:.3},\"targets\":[{}]}}\n"
        ),
        mode,
        params.scale_small,
        params
            .scale_large
            .map(|s| s.to_string())
            .unwrap_or_else(|| "null".to_string()),
        params.queries,
        params.walk_budget,
        params.seed,
        report.total_seconds,
        targets.join(",")
    );
    std::fs::write(report.out_dir.join("MANIFEST.json"), json)
        .map_err(|e| format!("write MANIFEST.json: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_figure_and_table() {
        for key in [
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table2",
            "table3",
        ] {
            assert!(target_by_key(key).is_some(), "missing {key}");
        }
        assert_eq!(TARGETS.len(), 11);
        assert!(target_by_key("fig10").is_none());
    }

    #[test]
    fn unknown_only_key_is_a_typed_error() {
        let params = HarnessParams::quick_repro();
        let dir = std::env::temp_dir().join(format!("exactsim-repro-err-{}", std::process::id()));
        let err = run(
            &params,
            Some(&["fig1".to_string(), "nope".to_string()]),
            &dir,
            "quick",
        )
        .unwrap_err();
        assert!(err.contains("unknown target `nope`"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quick_pipeline_writes_table2_artifacts() {
        // table2 is the cheapest full target: generation + degree stats only.
        let mut params = HarnessParams::quick_repro();
        params.scale_small = 0.02;
        params.scale_large = Some(0.0005);
        let dir = std::env::temp_dir().join(format!("exactsim-repro-test-{}", std::process::id()));
        // A key listed twice (around an empty entry) still runs once.
        let once = vec!["table2".to_string()];
        let twice = vec!["table2".to_string(), String::new(), "table2".to_string()];
        for only in [once, twice] {
            let report = run(&params, Some(&only), &dir, "quick").unwrap();
            assert_eq!(report.targets.len(), 1, "{only:?}");
            assert_eq!(report.targets[0].rows, 8);
            let csv = std::fs::read_to_string(dir.join("table2.csv")).unwrap();
            assert!(csv.lines().count() >= 9, "{csv}");
            let json = std::fs::read_to_string(dir.join("table2.json")).unwrap();
            assert!(json.contains("\"target\":\"table2\""));
            let summary = std::fs::read_to_string(dir.join("SUMMARY.md")).unwrap();
            assert_eq!(summary.matches("| `table2` |").count(), 1, "{summary}");
            let manifest = std::fs::read_to_string(dir.join("MANIFEST.json")).unwrap();
            assert!(manifest.contains("\"pipeline\":\"simrank-repro\""));
            assert_eq!(manifest.matches("\"key\":\"table2\"").count(), 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
