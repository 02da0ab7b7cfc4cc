//! # exactsim-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! ExactSim paper's evaluation (§4) on the synthetic stand-in datasets.
//!
//! **`simrank-repro`** (the [`repro`] module) is the one-command
//! reproducibility pipeline: `simrank-repro --quick|--full [--only
//! fig5,table3]` regenerates the selected figures/tables into `repro/out/`
//! (CSV + JSON per target, `SUMMARY.md`, `MANIFEST.json`), computing each
//! underlying sweep once and projecting every dependent figure from it.
//! This is what CI's `repro-smoke` job runs; REPRODUCING.md at the
//! repository root is the operator walkthrough. The `ablation_*` and
//! `cost_model_walk_counts` binaries in `src/bin/` run the experiments
//! outside the paper's figure set, printing CSV rows to stdout.
//!
//! ## Environment variables
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `EXACTSIM_SCALE_SMALL` | `0.3` | scale factor applied to the small datasets (GQ/HT/WV/HP) so the `O(n²)` Power-Method ground truth stays feasible |
//! | `EXACTSIM_SCALE_LARGE` | dataset default | scale factor for the large datasets (DB/IC/IT/TW) |
//! | `EXACTSIM_QUERIES` | `5` | number of single-source queries averaged per dataset (the paper uses 50) |
//! | `EXACTSIM_WALK_BUDGET` | `20000000` | per-query walk-pair budget for the sampled methods |
//! | `EXACTSIM_FULL` | unset | set to `1` to use the paper-sized sweeps (slower) |

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(clippy::all)]

pub mod ground_truth;
pub mod output;
pub mod params;
pub mod repro;
pub mod runner;
pub mod sweep;
pub mod tables;

pub use ground_truth::{ground_truth_exactsim, ground_truth_power_method, GroundTruth};
pub use output::SweepRow;
pub use params::{HarnessParams, SweepSizes};
pub use runner::{run_figure_with, DatasetGroup};
pub use sweep::{run_quality_sweep, AlgorithmFamily};
pub use tables::{table2_rows, table3_rows, Table2Row, Table3Row};
