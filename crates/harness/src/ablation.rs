//! The branch-splitting ablation: the whole Micro suite (which carries
//! the dedicated split corpus) compiled twice — once with the full
//! candidate set (*combined*: merge duplication + branch splitting) and
//! once with `enable_branch_splitting = false` (*merge-only*) — under
//! otherwise identical configuration.
//!
//! The CI gate asserts that combined dominates merge-only: on the
//! dedicated split benchmarks it must apply at least one branch split,
//! perform at least as many duplications, and strictly improve the
//! static cycle estimate (the shapes are sized so the trade-off tier
//! rejects plain merge duplication on them); merge-only must see zero
//! split candidates there; and nowhere may a frontier violation or a
//! semantic divergence appear.

use dbds_analysis::AnalysisCache;
use dbds_core::{compile, DbdsConfig, OptLevel, PhaseStats};
use dbds_costmodel::CostModel;
use dbds_ir::execute;
use dbds_workloads::{Suite, SPLIT_BENCHMARKS};
use std::fmt::Write as _;

/// One benchmark of the ablation, both configurations side by side.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Benchmark name.
    pub name: String,
    /// Whether this is one of the dedicated [`SPLIT_BENCHMARKS`].
    pub is_split_benchmark: bool,
    /// Duplications applied by the combined configuration.
    pub combined_dups: usize,
    /// Branch-split chains applied by the combined configuration.
    pub combined_splits: usize,
    /// Duplications applied by the merge-only configuration.
    pub merge_only_dups: usize,
    /// Branch-split candidates the merge-only configuration simulated
    /// (must be zero — the knob gates the continuation itself).
    pub merge_only_split_candidates: usize,
    /// Frontier violations across both configurations.
    pub frontier_violations: usize,
    /// Static weighted-cycle estimate after the combined phase.
    pub combined_cycles: f64,
    /// Static weighted-cycle estimate after the merge-only phase.
    pub merge_only_cycles: f64,
    /// Whether both compiled graphs computed the pristine outcomes on
    /// every input vector.
    pub outcomes_agree: bool,
}

/// The full ablation result.
#[derive(Clone, Debug)]
pub struct SplitAblation {
    /// One row per Micro benchmark, in suite order.
    pub rows: Vec<AblationRow>,
}

impl SplitAblation {
    /// The CI gate (see the module docs for the exact contract).
    pub fn gate_passes(&self) -> bool {
        self.rows.iter().all(|r| {
            let everywhere = r.frontier_violations == 0 && r.outcomes_agree;
            if r.is_split_benchmark {
                everywhere
                    && r.combined_splits >= 1
                    && r.merge_only_split_candidates == 0
                    && r.combined_dups >= r.merge_only_dups
                    && r.combined_cycles < r.merge_only_cycles
            } else {
                everywhere
            }
        })
    }
}

/// Runs the ablation over the Micro suite. Deterministic: both
/// configurations differ only in the `enable_branch_splitting` knob,
/// and nothing time- or thread-count-dependent enters the rows.
pub fn run_split_ablation(model: &CostModel, cfg: &DbdsConfig) -> SplitAblation {
    let workloads = Suite::Micro.workloads();
    let rows = workloads
        .iter()
        .map(|w| {
            let reference: Vec<_> = w
                .inputs
                .iter()
                .map(|i| execute(&w.graph, i).outcome)
                .collect();
            let run = |enable: bool| -> (PhaseStats, f64, bool) {
                let cfg = DbdsConfig {
                    enable_branch_splitting: enable,
                    ..cfg.clone()
                };
                let mut g = w.graph.clone();
                let stats = compile(&mut g, model, OptLevel::Dbds, &cfg);
                let cycles = model.weighted_cycles(&g, &mut AnalysisCache::new());
                let agree = w
                    .inputs
                    .iter()
                    .zip(&reference)
                    .all(|(i, r)| execute(&g, i).outcome == *r);
                (stats, cycles, agree)
            };
            let (combined, combined_cycles, combined_agree) = run(true);
            let (merge_only, merge_only_cycles, merge_only_agree) = run(false);
            AblationRow {
                name: w.name.clone(),
                is_split_benchmark: SPLIT_BENCHMARKS.contains(&w.name.as_str()),
                combined_dups: combined.duplications,
                combined_splits: combined.split_applied,
                merge_only_dups: merge_only.duplications,
                merge_only_split_candidates: merge_only.split_candidates,
                frontier_violations: combined.frontier_violations + merge_only.frontier_violations,
                combined_cycles,
                merge_only_cycles,
                outcomes_agree: combined_agree && merge_only_agree,
            }
        })
        .collect();
    SplitAblation { rows }
}

/// Renders the ablation as a text table plus the gate verdict.
pub fn format_split_ablation(ablation: &SplitAblation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Branch-splitting ablation (micro suite): combined vs merge-only\n"
    );
    let _ = writeln!(
        out,
        "{:<14} | {:>5} {:>6} | {:>5} | {:>12} {:>12} | {:>5}",
        "benchmark", "dups", "splits", "dups", "cycles", "cycles", "gate"
    );
    let _ = writeln!(
        out,
        "{:<14} | {:>12} | {:>5} | {:>12} {:>12} | {:>5}",
        "", "combined", "m-o", "combined", "merge-only", ""
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    for r in &ablation.rows {
        let marker = if r.is_split_benchmark { "*" } else { " " };
        let _ = writeln!(
            out,
            "{:<13}{} | {:>5} {:>6} | {:>5} | {:>12.2} {:>12.2} | {:>5}",
            r.name,
            marker,
            r.combined_dups,
            r.combined_splits,
            r.merge_only_dups,
            r.combined_cycles,
            r.merge_only_cycles,
            if r.outcomes_agree && r.frontier_violations == 0 {
                "ok"
            } else {
                "FAIL"
            }
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(72));
    let _ = writeln!(
        out,
        "* dedicated split benchmark (merge duplication alone must be rejected)"
    );
    let _ = writeln!(
        out,
        "gate: {}",
        if ablation.gate_passes() {
            "combined dominates merge-only — passes"
        } else {
            "GATE FAILS"
        }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_gate_passes_on_the_default_config() {
        let ablation = run_split_ablation(&CostModel::new(), &DbdsConfig::default());
        assert_eq!(ablation.rows.len(), 12);
        assert!(
            ablation.gate_passes(),
            "{}",
            format_split_ablation(&ablation)
        );
        // The three dedicated benchmarks are present and marked.
        let marked: Vec<_> = ablation
            .rows
            .iter()
            .filter(|r| r.is_split_benchmark)
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(marked, SPLIT_BENCHMARKS);
    }

    #[test]
    fn ablation_is_deterministic_across_runs() {
        let model = CostModel::new();
        let run = || format_split_ablation(&run_split_ablation(&model, &DbdsConfig::default()));
        assert_eq!(run(), run());
    }
}
