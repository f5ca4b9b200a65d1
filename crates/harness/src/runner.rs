//! Suite execution: every benchmark under baseline / DBDS / dupalot,
//! exactly like the paper's three configurations (§6.1).

use crate::metrics::{measure, measure_from, pct_increase, pct_speedup, IcacheModel, Metrics};
use dbds_core::par::run_units;
use dbds_core::{BailoutReason, DbdsConfig, OptLevel};
use dbds_costmodel::CostModel;
use dbds_workloads::{Suite, Workload};

/// The three per-configuration measurements of one benchmark.
#[derive(Clone, Debug)]
pub struct BenchmarkRow {
    /// Benchmark name.
    pub name: String,
    /// Duplication disabled.
    pub baseline: Metrics,
    /// The DBDS configuration.
    pub dbds: Metrics,
    /// The dupalot configuration.
    pub dupalot: Metrics,
}

impl BenchmarkRow {
    /// Peak performance change of a configuration vs baseline (positive =
    /// faster), as the figures plot it.
    pub fn peak_pct(&self, level: OptLevel) -> f64 {
        pct_speedup(self.baseline.peak_cycles, self.pick(level).peak_cycles)
    }

    /// Compile-time increase vs baseline, in percent.
    pub fn compile_pct(&self, level: OptLevel) -> f64 {
        pct_increase(
            self.baseline.compile_ns as f64,
            self.pick(level).compile_ns as f64,
        )
    }

    /// Code-size increase vs baseline, in percent.
    pub fn size_pct(&self, level: OptLevel) -> f64 {
        pct_increase(
            self.baseline.code_size as f64,
            self.pick(level).code_size as f64,
        )
    }

    /// The metrics of one suite configuration (panics for
    /// `Backtracking`, which never appears in suite rows).
    pub fn pick_metrics(&self, level: OptLevel) -> &Metrics {
        self.pick(level)
    }

    fn pick(&self, level: OptLevel) -> &Metrics {
        match level {
            OptLevel::Dbds => &self.dbds,
            OptLevel::Dupalot => &self.dupalot,
            OptLevel::Baseline => &self.baseline,
            OptLevel::Backtracking => panic!("backtracking is not part of suite rows"),
        }
    }

    /// Checks that every configuration computed the same outcomes as the
    /// baseline — the end-to-end correctness guarantee.
    pub fn outcomes_agree(&self) -> bool {
        self.baseline.outcomes == self.dbds.outcomes
            && self.baseline.outcomes == self.dupalot.outcomes
    }
}

/// A measured suite.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// Which suite.
    pub suite: Suite,
    /// One row per benchmark, in figure order.
    pub rows: Vec<BenchmarkRow>,
}

impl SuiteResult {
    /// Aggregate analysis-cache counters for one configuration across the
    /// whole suite (hits / misses / invalidations, summed over rows).
    pub fn cache_totals(&self, level: OptLevel) -> dbds_analysis::CacheStats {
        let mut total = dbds_analysis::CacheStats::default();
        for row in &self.rows {
            total.absorb(row.pick(level).stats.cache);
        }
        total
    }

    /// Aggregate bailout counters for one configuration across the whole
    /// suite, by reason.
    pub fn bailout_totals(&self, level: OptLevel) -> BailoutTotals {
        let mut t = BailoutTotals::default();
        for row in &self.rows {
            for b in &row.pick(level).stats.bailouts {
                match b.reason {
                    BailoutReason::DeadlineExceeded => t.deadline_exceeded += 1,
                    BailoutReason::VerifierRejected(_) => t.verifier_rejected += 1,
                    BailoutReason::TransformPanicked(_) => t.transform_panicked += 1,
                    BailoutReason::SizeBudgetExceeded => t.size_budget_exceeded += 1,
                }
                if b.recovered {
                    t.recovered += 1;
                }
            }
        }
        t
    }

    /// Geometric-mean percentage for a metric/configuration pair.
    pub fn geomean(&self, level: OptLevel, metric: Metric) -> f64 {
        let pcts: Vec<f64> = self
            .rows
            .iter()
            .map(|r| match metric {
                Metric::Peak => r.peak_pct(level),
                Metric::CompileTime => r.compile_pct(level),
                Metric::CodeSize => r.size_pct(level),
            })
            .collect();
        crate::metrics::geomean_pct(&pcts)
    }
}

/// Suite-wide bailout counts of one configuration, by
/// [`BailoutReason`] variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BailoutTotals {
    /// Missed wall-clock deadlines.
    pub deadline_exceeded: usize,
    /// Checkpoint / transform-invariant rejections.
    pub verifier_rejected: usize,
    /// Caught transformation panics.
    pub transform_panicked: usize,
    /// Size-budget rejections of otherwise-profitable candidates.
    pub size_budget_exceeded: usize,
    /// How many of the incidents were contained (rolled back or skipped)
    /// rather than stopping the phase.
    pub recovered: usize,
}

impl BailoutTotals {
    /// Total incidents, all reasons.
    pub fn total(&self) -> usize {
        self.deadline_exceeded
            + self.verifier_rejected
            + self.transform_panicked
            + self.size_budget_exceeded
    }
}

/// The three metrics of the evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Peak performance change (higher is better).
    Peak,
    /// Compile-time increase (lower is better).
    CompileTime,
    /// Code-size increase (lower is better).
    CodeSize,
}

/// Runs one benchmark under all three configurations.
pub fn run_benchmark(
    w: &Workload,
    model: &CostModel,
    cfg: &DbdsConfig,
    icache: &IcacheModel,
) -> BenchmarkRow {
    BenchmarkRow {
        name: w.name.clone(),
        baseline: measure(w, OptLevel::Baseline, model, cfg, icache),
        dbds: measure(w, OptLevel::Dbds, model, cfg, icache),
        dupalot: measure(w, OptLevel::Dupalot, model, cfg, icache),
    }
}

/// Runs a whole suite: every `(workload, configuration)` pair is one
/// independent compilation unit, dispatched onto
/// [`dbds_core::par::run_units`] at [`DbdsConfig::unit_workers`] workers
/// and committed in submission order (the result is byte-identical for
/// every thread count).
///
/// Each workload's pristine graph is verified **once** here; every unit
/// clones from that verified copy instead of re-validating per
/// configuration.
pub fn run_suite(
    suite: Suite,
    model: &CostModel,
    cfg: &DbdsConfig,
    icache: &IcacheModel,
) -> SuiteResult {
    let workloads = suite.workloads();
    for w in &workloads {
        dbds_ir::verify(&w.graph)
            .unwrap_or_else(|e| panic!("workload {} failed pristine verification: {e}", w.name));
    }
    const LEVELS: [OptLevel; 3] = [OptLevel::Baseline, OptLevel::Dbds, OptLevel::Dupalot];
    let units: Vec<(usize, OptLevel)> = (0..workloads.len())
        .flat_map(|wi| LEVELS.iter().map(move |&l| (wi, l)))
        .collect();
    let metrics = run_units(cfg.unit_workers(units.len()), &units, |_, &(wi, level)| {
        let w = &workloads[wi];
        measure_from(&w.graph, w, level, model, cfg, icache)
    });
    let mut metrics = metrics.into_iter();
    let mut next = || metrics.next().expect("one Metrics per unit");
    let rows = workloads
        .iter()
        .map(|w| BenchmarkRow {
            name: w.name.clone(),
            baseline: next(),
            dbds: next(),
            dupalot: next(),
        })
        .collect();
    SuiteResult { suite, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_suite_round_trip() {
        let model = CostModel::new();
        let cfg = DbdsConfig::default();
        let ic = IcacheModel::default();
        let result = run_suite(Suite::Micro, &model, &cfg, &ic);
        assert_eq!(result.rows.len(), 12);
        for row in &result.rows {
            assert!(row.outcomes_agree(), "{} outcomes diverged", row.name);
        }
        // Suite-level shape: positive mean peak improvement for DBDS, and
        // dupalot grows code at least as much as DBDS on average.
        let peak = result.geomean(OptLevel::Dbds, Metric::Peak);
        assert!(peak > 0.0, "micro DBDS geomean peak {peak}%");
        let dbds_size = result.geomean(OptLevel::Dbds, Metric::CodeSize);
        let dupalot_size = result.geomean(OptLevel::Dupalot, Metric::CodeSize);
        assert!(
            dupalot_size >= dbds_size - 1.0,
            "dupalot mean size {dupalot_size}% below DBDS {dbds_size}%"
        );
    }
}
