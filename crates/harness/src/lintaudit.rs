//! The `figures --lint` sweep: every workload in the corpus is linted
//! before and after the DBDS phase, the cached analyses are audited
//! against fresh recomputation, the simulation tier's estimates get the
//! cost-sanity lints, and the optimization tier's prediction audit
//! counter is aggregated. The result feeds the CI lint gate: the build
//! fails on any error-severity diagnostic or any misprediction.

use crate::report::obj;
use dbds_analysis::AnalysisCache;
use dbds_core::par::run_units;
use dbds_core::{lint_simulation, run_dbds, simulate, DbdsConfig, SelectionMode};
use dbds_costmodel::CostModel;
use dbds_ir::{Diagnostic, LintId, Severity};
use dbds_server::json::Json;
use dbds_workloads::{Suite, Workload};
use std::fmt::Write as _;

/// Aggregated outcome of a lint sweep over a set of suites.
#[derive(Clone, Debug)]
pub struct LintAudit {
    /// Workloads audited.
    pub workloads: usize,
    /// Graphs linted (pristine + post-DBDS per workload).
    pub graphs_linted: usize,
    /// Optimization-tier prediction-audit rejections, summed over every
    /// workload's [`dbds_core::PhaseStats::mispredictions`].
    pub mispredictions: usize,
    /// Per-lint diagnostic counts, in [`LintId::ALL`] order.
    pub counts: Vec<(LintId, usize)>,
}

impl LintAudit {
    fn new() -> Self {
        LintAudit {
            workloads: 0,
            graphs_linted: 0,
            mispredictions: 0,
            counts: LintId::ALL.iter().map(|&l| (l, 0)).collect(),
        }
    }

    fn absorb(&mut self, diagnostics: &[Diagnostic]) {
        for d in diagnostics {
            if let Some(slot) = self.counts.iter_mut().find(|(l, _)| *l == d.lint) {
                slot.1 += 1;
            }
        }
    }

    /// Total error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.counts
            .iter()
            .filter(|(l, _)| l.severity() == Severity::Error)
            .map(|(_, n)| n)
            .sum()
    }

    /// Total warn-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.counts
            .iter()
            .filter(|(l, _)| l.severity() == Severity::Warn)
            .map(|(_, n)| n)
            .sum()
    }

    /// The CI gate: no error-severity diagnostics and no mispredictions.
    pub fn gate_passes(&self) -> bool {
        self.error_count() == 0 && self.mispredictions == 0
    }
}

/// Runs the full lint sweep over `suites`.
///
/// Per workload, four probes feed the report:
///
/// 1. the pristine graph through [`dbds_ir::lint`];
/// 2. a [`run_dbds`] phase (collecting the prediction-audit counter);
/// 3. the post-phase graph through [`dbds_ir::lint`] plus the
///    [`AnalysisCache::audit`] diff of every still-current cached
///    analysis against fresh recomputation;
/// 4. one more simulation over the final graph, with
///    [`lint_simulation`]'s cost-sanity checks over its estimates.
pub fn run_lint_audit(suites: &[Suite], model: &CostModel, cfg: &DbdsConfig) -> LintAudit {
    // One unit per workload, absorbed in submission order — the audit is
    // byte-identical at every `unit_threads`.
    let workloads: Vec<Workload> = suites.iter().flat_map(|s| s.workloads()).collect();
    let parts = run_units(cfg.unit_workers(workloads.len()), &workloads, |_, w| {
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        let mut g = w.graph.clone();
        diagnostics.extend_from_slice(dbds_ir::lint(&g).diagnostics());

        let mut cache = AnalysisCache::new();
        let stats = run_dbds(&mut g, model, cfg, SelectionMode::CostBenefit, &mut cache);

        diagnostics.extend_from_slice(dbds_ir::lint(&g).diagnostics());
        diagnostics.extend(cache.audit(&g));

        let results = simulate(&g, model, &mut cache);
        diagnostics.extend(lint_simulation(&results, model.graph_size(&g)));
        (diagnostics, stats.mispredictions)
    });

    let mut audit = LintAudit::new();
    for (diagnostics, mispredictions) in &parts {
        audit.workloads += 1;
        audit.graphs_linted += 2;
        audit.mispredictions += mispredictions;
        audit.absorb(diagnostics);
    }
    audit
}

/// Renders the lint sweep as a text table. Deterministic: row order is
/// [`LintId::ALL`] order and nothing thread-count- or time-dependent is
/// printed.
pub fn format_lint(audit: &LintAudit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "IR lint & prediction audit (workload corpus)\n");
    let _ = writeln!(out, "workloads audited : {}", audit.workloads);
    let _ = writeln!(out, "graphs linted     : {}", audit.graphs_linted);
    let _ = writeln!(out, "mispredictions    : {}", audit.mispredictions);
    let _ = writeln!(out);
    let _ = writeln!(out, "{:<22} | {:<8} | {:>6}", "lint", "severity", "count");
    let _ = writeln!(out, "{}", "-".repeat(42));
    for &(lint, n) in &audit.counts {
        let _ = writeln!(
            out,
            "{:<22} | {:<8} | {:>6}",
            lint.name(),
            lint.severity().name(),
            n
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(42));
    let _ = writeln!(
        out,
        "errors: {}, warnings: {} -> {}",
        audit.error_count(),
        audit.warning_count(),
        if audit.gate_passes() {
            "gate passes"
        } else {
            "GATE FAILS"
        }
    );
    out
}

/// Renders the lint sweep as a stable-ordered [`Json`] tree in its
/// `pretty` layout. Unlike [`crate::format_json`] there is no
/// `unit_threads` field at all: the sweep is byte-identical across
/// thread counts, so CI diffs it without filtering.
pub fn format_lint_json(audit: &LintAudit) -> String {
    let lints = audit.counts.iter().map(|&(lint, n)| {
        obj([
            ("lint", Json::str(lint.name())),
            ("severity", Json::str(lint.severity().name())),
            ("count", Json::num(n)),
        ])
    });
    obj([
        ("workloads", Json::num(audit.workloads)),
        ("graphs_linted", Json::num(audit.graphs_linted)),
        ("mispredictions", Json::num(audit.mispredictions)),
        ("errors", Json::num(audit.error_count())),
        ("warnings", Json::num(audit.warning_count())),
        ("lints", Json::Arr(lints.collect())),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_suite_is_lint_clean() {
        let audit = run_lint_audit(&[Suite::Micro], &CostModel::new(), &DbdsConfig::default());
        assert_eq!(audit.workloads, 12);
        assert_eq!(audit.graphs_linted, 24);
        assert_eq!(audit.error_count(), 0, "{}", format_lint(&audit));
        assert_eq!(audit.mispredictions, 0, "{}", format_lint(&audit));
        assert!(audit.gate_passes());
    }

    #[test]
    fn lint_report_is_byte_identical_across_runs_and_thread_counts() {
        let model = CostModel::new();
        let run = |unit_threads: usize| {
            let cfg = DbdsConfig {
                unit_threads,
                ..DbdsConfig::default()
            };
            let audit = run_lint_audit(&[Suite::Micro], &model, &cfg);
            (format_lint(&audit), format_lint_json(&audit))
        };
        let one = run(1);
        // No strip step here on purpose: the lint report carries no
        // thread-count field at all, so whole-output equality must hold
        // at every `unit_threads`, adaptive (0) included.
        for unit_threads in [4, 0] {
            assert_eq!(one, run(unit_threads), "unit_threads={unit_threads}");
        }
        assert_eq!(run(4), run(4));
        assert!(!one.1.contains("unit_threads"), "{}", one.1);
    }

    #[test]
    fn lint_json_lists_every_lint_id() {
        let audit = run_lint_audit(&[Suite::Micro], &CostModel::new(), &DbdsConfig::default());
        let json = format_lint_json(&audit);
        for lint in dbds_ir::LintId::ALL {
            assert!(
                json.contains(&format!("\"lint\": \"{}\"", lint.name())),
                "{json}"
            );
        }
    }
}
