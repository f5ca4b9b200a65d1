//! # dbds-harness — reproduction of the paper's evaluation (§6)
//!
//! Runs every synthetic benchmark under the paper's three configurations
//! — *baseline* (duplication disabled), *DBDS* and *dupalot* — measuring
//! peak performance (dynamic cycles), compile time and code size, and
//! renders the per-suite tables of Figures 5–8, the cross-suite headline
//! summary, and the §3.1 backtracking-vs-simulation comparison.
//!
//! The `figures` binary is the command-line entry point:
//!
//! ```text
//! cargo run -p dbds-harness --bin figures --release -- --figure 7
//! cargo run -p dbds-harness --bin figures --release -- --summary
//! cargo run -p dbds-harness --bin figures --release -- --table backtracking
//! cargo run -p dbds-harness --bin figures --release -- --all
//! ```
//!
//! [`experiments`] computes `EXPERIMENTS.json`, every deterministic
//! table of EXPERIMENTS.md, and `tests/paper_shapes.rs` holds the
//! committed file to it.
//!
//! # Examples
//!
//! ```
//! use dbds_core::{DbdsConfig, OptLevel};
//! use dbds_costmodel::CostModel;
//! use dbds_harness::{measure, IcacheModel};
//! use dbds_workloads::Suite;
//!
//! let w = &Suite::Micro.workloads()[0];
//! let m = measure(
//!     w,
//!     OptLevel::Dbds,
//!     &CostModel::new(),
//!     &DbdsConfig::default(),
//!     &IcacheModel::default(),
//! );
//! assert!(m.code_size > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod ablation;
mod experiments;
mod lintaudit;
mod metrics;
mod report;
mod runner;
mod stats;

pub use ablation::{format_split_ablation, run_split_ablation, AblationRow, SplitAblation};
pub use experiments::experiments;
pub use lintaudit::{format_lint, format_lint_json, run_lint_audit, LintAudit};
pub use metrics::{
    geomean_pct, measure, measure_from, pct_increase, pct_speedup, IcacheModel, Metrics,
};
pub use report::{format_backtracking, format_figure, format_json, format_summary, BacktrackRow};
pub use runner::{run_benchmark, run_suite, BenchmarkRow, Metric, SuiteResult};
pub use stats::{pearson, spearman};
