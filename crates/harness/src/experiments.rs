//! `EXPERIMENTS.json`: every deterministic table of EXPERIMENTS.md,
//! computed by the program.
//!
//! One generator for the headline and Figure 5–8 columns, the §5.4
//! trade-off sweeps and the §8 path-length sweep, the branch-splitting
//! ablation, §3.1's backtracking counters and the §8 estimator
//! correlations. Wall clock is left out, so the output is a function of
//! the code alone. `tests/paper_shapes.rs` diffs it against the committed
//! file; on a difference it writes the program's file under
//! `target/tmp/`:
//!
//! ```text
//! cargo test -q --test paper_shapes
//! cp target/tmp/EXPERIMENTS.json EXPERIMENTS.json
//! ```
//!
//! Percentages carry the two decimals the tables print, static cycle
//! estimates two and correlations three.

use crate::ablation::run_split_ablation;
use crate::metrics::{geomean_pct, measure, pct_increase, pct_speedup, IcacheModel};
use crate::report::obj;
use crate::runner::{Metric, SuiteResult};
use crate::stats::{pearson, spearman};
use dbds_analysis::AnalysisCache;
use dbds_core::{compile, select, simulate, DbdsConfig, OptLevel, SelectionMode};
use dbds_costmodel::CostModel;
use dbds_ir::{execute, Graph};
use dbds_server::json::Json;
use dbds_workloads::{Suite, Workload};
use std::collections::HashSet;

/// The whole `EXPERIMENTS.json` document. `suites` are the four suites
/// as [`crate::run_suite`] measures them at the default configuration,
/// cost model and icache model, in [`Suite::ALL`] order; the other
/// tables are measured here at those defaults. Baseline and the default
/// DBDS compile of the micro suite are read from `suites`, not repeated.
///
/// # Panics
///
/// Panics if `suites` lacks the micro suite, or if a swept configuration
/// changes a micro benchmark's outcomes.
pub fn experiments(suites: &[&SuiteResult]) -> Json {
    let model = CostModel::new();
    let cfg = DbdsConfig::default();
    let micro = suites
        .iter()
        .find(|s| s.suite == Suite::Micro)
        .expect("the micro suite");
    obj([
        ("headline", headline(suites)),
        (
            "suites",
            Json::Arr(suites.iter().map(|s| figure(s)).collect()),
        ),
        ("tradeoff_sweeps", sweeps(micro, &model, &cfg)),
        ("branch_splitting", branch_splitting(&model, &cfg)),
        ("backtracking", backtracking(micro, &model, &cfg)),
        ("estimator", estimator(&model, &cfg)),
    ])
}

/// `v` at `places` decimals.
fn fixed(v: f64, places: usize) -> Json {
    Json::Num(format!("{v:.places$}"))
}

/// Peak and code-size change against Baseline, in percent, under DBDS
/// and dupalot: the four columns of every Figure 5–8 row.
fn columns(pct: impl Fn(OptLevel, Metric) -> f64) -> Vec<(String, Json)> {
    let mut cols = Vec::new();
    for (name, metric) in [("peak", Metric::Peak), ("size", Metric::CodeSize)] {
        for level in [OptLevel::Dbds, OptLevel::Dupalot] {
            let key = format!("{}_{name}_pct", level.name());
            cols.push((key, fixed(pct(level, metric), 2)));
        }
    }
    cols
}

/// The abstract's numbers: geometric means over every benchmark of every
/// suite, the largest DBDS win, and dupalot against DBDS.
fn headline(suites: &[&SuiteResult]) -> Json {
    let rows = || suites.iter().flat_map(|s| &s.rows);
    let overall = |level, metric| {
        let pcts: Vec<f64> = rows().map(|r| r.pct(level, metric)).collect();
        geomean_pct(&pcts)
    };
    let best = rows()
        .max_by(|a, b| {
            a.peak_pct(OptLevel::Dbds)
                .total_cmp(&b.peak_pct(OptLevel::Dbds))
        })
        .expect("a benchmark");
    let peak_pp = overall(OptLevel::Dupalot, Metric::Peak) - overall(OptLevel::Dbds, Metric::Peak);
    let size_ratio =
        overall(OptLevel::Dupalot, Metric::CodeSize) / overall(OptLevel::Dbds, Metric::CodeSize);
    obj([
        ("geomean", Json::Obj(columns(overall))),
        (
            "dbds_peak_max",
            obj([
                ("benchmark", Json::str(best.name.clone())),
                ("pct", fixed(best.peak_pct(OptLevel::Dbds), 2)),
            ]),
        ),
        ("dupalot_minus_dbds_peak_pp", fixed(peak_pp, 2)),
        ("dupalot_over_dbds_size_increase", fixed(size_ratio, 2)),
    ])
}

/// One of Figures 5–8: the suite's geometric means and every benchmark.
fn figure(s: &SuiteResult) -> Json {
    let benchmarks = s.rows.iter().map(|row| {
        let mut pairs = vec![("name".to_string(), Json::str(row.name.clone()))];
        pairs.extend(columns(|l, m| row.pct(l, m)));
        Json::Obj(pairs)
    });
    obj([
        ("suite", Json::str(s.suite.id())),
        ("figure", Json::num(s.suite.figure())),
        ("geomean", Json::Obj(columns(|l, m| s.geomean(l, m)))),
        ("benchmarks", Json::Arr(benchmarks.collect())),
    ])
}

/// A swept knob: its name, the values swept, and how to read and set it.
type Knob = (
    &'static str,
    &'static [f64],
    fn(&DbdsConfig) -> f64,
    fn(&mut DbdsConfig, f64),
);

/// §5.4's BS / IB / iteration sweeps and §8's path-length sweep on the
/// micro suite at DBDS: duplications performed and the geometric-mean
/// peak and code-size change against the suite's Baseline rows (Baseline
/// reads none of the swept fields).
fn sweeps(micro: &SuiteResult, model: &CostModel, cfg: &DbdsConfig) -> Json {
    const KNOBS: [Knob; 4] = [
        (
            "benefit_scale",
            &[1.0, 16.0, 256.0, 4096.0],
            |c| c.tradeoff.benefit_scale,
            |c, v| c.tradeoff.benefit_scale = v,
        ),
        (
            "size_increase_budget",
            &[1.0, 1.25, 1.5, 2.0],
            |c| c.tradeoff.size_increase_budget,
            |c, v| c.tradeoff.size_increase_budget = v,
        ),
        (
            "max_iterations",
            &[1.0, 2.0, 3.0, 6.0],
            |c| c.max_iterations as f64,
            |c, v| c.max_iterations = v as usize,
        ),
        (
            "max_path_length",
            &[1.0, 2.0, 3.0],
            |c| c.max_path_length as f64,
            |c, v| c.max_path_length = v as usize,
        ),
    ];
    let workloads = Suite::Micro.workloads();
    let icache = IcacheModel::default();
    let knobs = KNOBS.map(|(name, values, get, set)| {
        let rows = values.iter().map(|&v| {
            let mut swept = cfg.clone();
            set(&mut swept, v);
            let (mut dups, mut peak, mut size) = (0, Vec::new(), Vec::new());
            for (w, row) in workloads.iter().zip(&micro.rows) {
                let base = &row.baseline;
                let dbds = measure(w, OptLevel::Dbds, model, &swept, &icache);
                assert_eq!(base.outcomes, dbds.outcomes, "{} diverged", w.name);
                dups += dbds.stats.duplications;
                peak.push(pct_speedup(base.peak_cycles, dbds.peak_cycles));
                size.push(pct_increase(base.code_size as f64, dbds.code_size as f64));
            }
            obj([
                ("value", Json::num(v)),
                ("duplications", Json::num(dups)),
                ("peak_pct", fixed(geomean_pct(&peak), 2)),
                ("size_pct", fixed(geomean_pct(&size), 2)),
            ])
        });
        (
            name.to_string(),
            obj([
                ("default", Json::num(get(cfg))),
                ("rows", Json::Arr(rows.collect())),
            ]),
        )
    });
    Json::Obj(knobs.into())
}

/// The rows of [`run_split_ablation`] and its gate.
fn branch_splitting(model: &CostModel, cfg: &DbdsConfig) -> Json {
    let ablation = run_split_ablation(model, cfg);
    let rows = ablation.rows.iter().map(|r| {
        obj([
            ("name", Json::str(r.name.clone())),
            ("split_benchmark", Json::Bool(r.is_split_benchmark)),
            ("combined_duplications", Json::num(r.combined_dups)),
            ("combined_splits", Json::num(r.combined_splits)),
            ("merge_only_duplications", Json::num(r.merge_only_dups)),
            (
                "merge_only_split_candidates",
                Json::num(r.merge_only_split_candidates),
            ),
            ("frontier_violations", Json::num(r.frontier_violations)),
            ("combined_cycles", fixed(r.combined_cycles, 2)),
            ("merge_only_cycles", fixed(r.merge_only_cycles, 2)),
            ("outcomes_agree", Json::Bool(r.outcomes_agree)),
        ])
    });
    obj([
        ("gate_passes", Json::Bool(ablation.gate_passes())),
        ("benchmarks", Json::Arr(rows.collect())),
    ])
}

/// §3.1's deterministic columns on the micro suite: duplications and
/// optimizer instruction visits under DBDS (the suite's rows) and under
/// backtracking (Algorithm 1, compiled here).
fn backtracking(micro: &SuiteResult, model: &CostModel, cfg: &DbdsConfig) -> Json {
    let workloads = Suite::Micro.workloads();
    let rows = workloads.iter().zip(&micro.rows).map(|(w, row)| {
        let mut g = w.graph.clone();
        let back = compile(&mut g, model, OptLevel::Backtracking, cfg);
        let dbds = &row.dbds.stats;
        obj([
            ("name", Json::str(w.name.clone())),
            ("dbds_duplications", Json::num(dbds.duplications)),
            ("backtracking_duplications", Json::num(back.duplications)),
            ("dbds_opt_insts_visited", Json::num(dbds.opt_insts_visited)),
            (
                "backtracking_opt_insts_visited",
                Json::num(back.opt_insts_visited),
            ),
        ])
    });
    obj([("benchmarks", Json::Arr(rows.collect()))])
}

/// Mean dynamic cycles per input of `g` on `w`'s inputs.
fn dynamic_cycles(g: &Graph, w: &Workload, model: &CostModel) -> f64 {
    let total: u64 = w
        .inputs
        .iter()
        .map(|i| model.dynamic_cycles(&execute(g, i).counts))
        .sum();
    total as f64 / w.inputs.len() as f64
}

/// §8's estimator validation over every benchmark of every suite: the
/// static weighted-cycle estimate against measured dynamic cycles, the
/// static size estimate against machine-code bytes, and the predicted
/// benefit of the candidates the trade-off accepts against the dynamic
/// cycles DBDS saves. Everything derives from one Baseline compile per
/// workload.
fn estimator(model: &CostModel, cfg: &DbdsConfig) -> Json {
    let (mut est_cycles, mut real_cycles) = (Vec::new(), Vec::new());
    let (mut est_size, mut real_size) = (Vec::new(), Vec::new());
    let (mut predicted, mut saved) = (Vec::new(), Vec::new());
    for suite in Suite::ALL {
        for w in suite.workloads() {
            // The Baseline graph does not change between the estimate and
            // the simulation, so the simulation's analyses are cache hits.
            let mut cache = AnalysisCache::new();
            let mut base = w.graph.clone();
            compile(&mut base, model, OptLevel::Baseline, cfg);
            let base_cycles = dynamic_cycles(&base, &w, model);
            est_cycles.push(model.weighted_cycles(&base, &mut cache));
            real_cycles.push(base_cycles);
            est_size.push(model.graph_size(&base) as f64);
            real_size.push(dbds_backend::compile_to_machine_code(&base).size() as f64);

            let results = simulate(&base, model, &mut cache);
            let initial = model.graph_size(&base);
            let accepted = select(
                &results,
                &cfg.tradeoff,
                SelectionMode::CostBenefit,
                initial,
                initial,
                &HashSet::new(),
            );
            predicted.push(accepted.iter().map(|r| r.weighted_benefit()).sum::<f64>());
            let mut opt = base.clone();
            compile(&mut opt, model, OptLevel::Dbds, cfg);
            saved.push((base_cycles - dynamic_cycles(&opt, &w, model)).max(0.0));
        }
    }
    let correlation = |x: &[f64], y: &[f64]| {
        obj([
            ("pearson", fixed(pearson(x, y), 3)),
            ("spearman", fixed(spearman(x, y), 3)),
        ])
    };
    obj([
        ("benchmarks", Json::num(est_cycles.len())),
        (
            "static_cycles_vs_dynamic_cycles",
            correlation(&est_cycles, &real_cycles),
        ),
        (
            "static_size_vs_machine_code_bytes",
            correlation(&est_size, &real_size),
        ),
        (
            "predicted_benefit_vs_measured_saving",
            correlation(&predicted, &saved),
        ),
    ])
}
