//! Text rendering of the paper's figures and tables.
//!
//! Each suite figure (Figures 5–8) becomes a table with one row per
//! benchmark and the three metrics for both configurations, followed by
//! the geometric-mean block the paper prints beneath each figure.

use crate::metrics::geomean_pct;
use crate::runner::{Metric, SuiteResult};
use dbds_core::OptLevel;
use dbds_server::json::Json;
use dbds_server::SessionReport;
use std::fmt::Write as _;

/// Renders one suite's figure-style table.
pub fn format_figure(result: &SuiteResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure {}: Duplication {} — peak performance (higher is better),",
        result.suite.figure(),
        result.suite.title()
    );
    let _ = writeln!(
        out,
        "compile time (lower is better), code size (lower is better).\n"
    );
    let _ = writeln!(
        out,
        "{:<14} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "benchmark", "peak", "", "compile", "", "size", ""
    );
    let _ = writeln!(
        out,
        "{:<14} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "", "DBDS", "dupalot", "DBDS", "dupalot", "DBDS", "dupalot"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for row in &result.rows {
        let _ = writeln!(
            out,
            "{:<14} | {:>8.2}% {:>8.2}% | {:>8.2}% {:>8.2}% | {:>8.2}% {:>8.2}%",
            row.name,
            row.peak_pct(OptLevel::Dbds),
            row.peak_pct(OptLevel::Dupalot),
            row.compile_pct(OptLevel::Dbds),
            row.compile_pct(OptLevel::Dupalot),
            row.size_pct(OptLevel::Dbds),
            row.size_pct(OptLevel::Dupalot),
        );
    }
    let _ = writeln!(out, "{}", "-".repeat(78));
    let _ = writeln!(out, "Geometric Mean");
    let _ = writeln!(
        out,
        "{:<14} | {:>16} | {:>16} | {:>16}",
        "Configuration", "peak performance", "compile time", "code size"
    );
    for level in [OptLevel::Dbds, OptLevel::Dupalot] {
        let _ = writeln!(
            out,
            "{:<14} | {:>15.2}% | {:>15.2}% | {:>15.2}%",
            level.name(),
            result.geomean(level, Metric::Peak),
            result.geomean(level, Metric::CompileTime),
            result.geomean(level, Metric::CodeSize),
        );
    }
    let _ = writeln!(
        out,
        "\nAnalysis cache (hits / misses / invalidations; forward | reverse)"
    );
    for level in [OptLevel::Baseline, OptLevel::Dbds, OptLevel::Dupalot] {
        let c = result.cache_totals(level);
        let _ = writeln!(
            out,
            "{:<14} | {:>8} / {:>6} / {:>6} | {:>8} / {:>6} / {:>6}",
            level.name(),
            c.hits,
            c.misses,
            c.invalidations,
            c.rev_hits,
            c.rev_misses,
            c.rev_invalidations
        );
    }
    let _ = writeln!(
        out,
        "\nBranch splitting (candidates / applied / frontier violations)"
    );
    for level in [OptLevel::Baseline, OptLevel::Dbds, OptLevel::Dupalot] {
        let (mut cand, mut applied, mut viol) = (0usize, 0usize, 0usize);
        for row in &result.rows {
            let s = &row.pick_metrics(level).stats;
            cand += s.split_candidates;
            applied += s.split_applied;
            viol += s.frontier_violations;
        }
        let _ = writeln!(
            out,
            "{:<14} | {:>8} / {:>6} / {:>6}",
            level.name(),
            cand,
            applied,
            viol
        );
    }
    let _ = writeln!(
        out,
        "\nBailouts (total/recovered; deadline, verifier, panic, size)"
    );
    for level in [OptLevel::Baseline, OptLevel::Dbds, OptLevel::Dupalot] {
        let b = result.bailout_totals(level);
        let _ = writeln!(
            out,
            "{:<14} | {:>5} / {:<5} ({}, {}, {}, {})",
            level.name(),
            b.total(),
            b.recovered,
            b.deadline_exceeded,
            b.verifier_rejected,
            b.transform_panicked,
            b.size_budget_exceeded,
        );
    }
    out
}

/// Renders the cross-suite summary (the abstract's headline numbers:
/// mean peak +5.89 %, compile time +18.44 %, code size +9.93 % in the
/// paper's setup).
pub fn format_summary(results: &[SuiteResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Cross-suite summary (geometric means over all benchmarks)\n"
    );
    let _ = writeln!(
        out,
        "{:<14} | {:>16} | {:>16} | {:>16}",
        "Configuration", "peak performance", "compile time", "code size"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    for level in [OptLevel::Dbds, OptLevel::Dupalot] {
        let mut peak = Vec::new();
        let mut ct = Vec::new();
        let mut cs = Vec::new();
        for r in results {
            for row in &r.rows {
                peak.push(row.peak_pct(level));
                ct.push(row.compile_pct(level));
                cs.push(row.size_pct(level));
            }
        }
        let _ = writeln!(
            out,
            "{:<14} | {:>15.2}% | {:>15.2}% | {:>15.2}%",
            level.name(),
            geomean_pct(&peak),
            geomean_pct(&ct),
            geomean_pct(&cs),
        );
    }
    // Maximum observed speedup (the paper reports "up to 40%").
    let max_dbds = results
        .iter()
        .flat_map(|r| &r.rows)
        .map(|row| row.peak_pct(OptLevel::Dbds))
        .fold(f64::NEG_INFINITY, f64::max);
    let _ = writeln!(
        out,
        "\nMaximum DBDS peak performance increase: {max_dbds:.2}%"
    );
    out
}

/// Renders the machine-readable suite report: every *deterministic*
/// measurement of every benchmark/configuration, as a stable-ordered
/// [`Json`] tree in its `pretty` layout.
///
/// Two invariants CI's determinism gate relies on:
///
/// - **No timing fields.** `compile_ns`/`sim_ns`/`guard_ns`/`undo_ns`
///   are excluded, so two runs over identical inputs produce
///   byte-identical output.
/// - **`unit_threads` sits alone on its own line** (the only
///   thread-count-dependent value), so reports taken at different
///   thread counts can be diffed with that line filtered out.
///
/// When `store` carries the result of a compile-cache session
/// (`figures --json --cache …`), the report embeds its per-pass and
/// total service counters; those are deterministic too (store traffic
/// is sequential in submission order), so the block is covered by the
/// same byte-identity gate. Without a session the field is `null` so
/// the schema is stable either way.
pub fn format_json(
    results: &[SuiteResult],
    unit_threads: usize,
    store: Option<&SessionReport>,
) -> String {
    let config = |level: OptLevel, m: &crate::metrics::Metrics| {
        let s = &m.stats;
        let recovered = s.bailouts.iter().filter(|b| b.recovered).count();
        obj([
            ("level", Json::str(level.name())),
            ("raw_cycles", Json::num(m.raw_cycles)),
            ("peak_cycles", Json::Num(format!("{:?}", m.peak_cycles))),
            ("code_size", Json::num(m.code_size)),
            ("work", Json::num(m.work)),
            ("iterations", Json::num(s.iterations)),
            ("candidates", Json::num(s.candidates)),
            ("duplications", Json::num(s.duplications)),
            ("final_size", Json::num(s.final_size)),
            ("cache_hits", Json::num(s.cache.hits)),
            ("cache_misses", Json::num(s.cache.misses)),
            ("cache_invalidations", Json::num(s.cache.invalidations)),
            ("cache_patches", Json::num(s.cache.patches)),
            ("dom_blocks_visited", Json::num(s.cache.dom_blocks_visited)),
            ("dom_labels_written", Json::num(s.cache.dom_labels_written)),
            ("rev_cache_hits", Json::num(s.cache.rev_hits)),
            ("rev_cache_misses", Json::num(s.cache.rev_misses)),
            (
                "rev_cache_invalidations",
                Json::num(s.cache.rev_invalidations),
            ),
            ("split_candidates", Json::num(s.split_candidates)),
            ("split_applied", Json::num(s.split_applied)),
            ("frontier_violations", Json::num(s.frontier_violations)),
            ("mispredictions", Json::num(s.mispredictions)),
            ("stale_skips", Json::num(s.stale_skips)),
            ("undo_edits", Json::num(s.undo_edits)),
            ("undo_rollbacks", Json::num(s.undo_rollbacks)),
            ("undo_peak", Json::num(s.undo_peak)),
            ("opt_rounds", Json::num(s.opt_rounds)),
            ("opt_insts_visited", Json::num(s.opt_insts_visited)),
            ("bailouts", Json::num(s.bailouts.len())),
            ("bailouts_recovered", Json::num(recovered)),
        ])
    };
    let suites = results.iter().map(|r| {
        let benchmarks = r.rows.iter().map(|row| {
            let levels = [OptLevel::Baseline, OptLevel::Dbds, OptLevel::Dupalot];
            let configs = levels.map(|level| config(level, row.pick_metrics(level)));
            obj([
                ("name", Json::str(row.name.clone())),
                ("configs", Json::Arr(configs.into())),
            ])
        });
        obj([
            ("suite", Json::str(r.suite.id())),
            ("benchmarks", Json::Arr(benchmarks.collect())),
        ])
    });
    obj([
        ("unit_threads", Json::num(unit_threads)),
        ("store", store.map_or(Json::Null, SessionReport::to_json)),
        ("suites", Json::Arr(suites.collect())),
    ])
    .pretty()
}

/// A [`Json`] object from `(key, value)` pairs, in order.
pub(crate) fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.map(|(k, v)| (k.to_string(), v)).into())
}

/// One row of the backtracking-vs-simulation comparison (§3.1).
#[derive(Clone, Debug)]
pub struct BacktrackRow {
    /// Benchmark name.
    pub name: String,
    /// DBDS compile time (ns).
    pub dbds_ns: u128,
    /// Backtracking compile time (ns).
    pub backtracking_ns: u128,
    /// Duplications performed by each.
    pub dbds_duplications: usize,
    /// Duplications kept by backtracking.
    pub backtracking_accepted: usize,
}

/// Renders the §3.1 comparison table: the paper measured the whole-graph
/// copy to make backtracking ~10× slower to compile.
pub fn format_backtracking(rows: &[BacktrackRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Backtracking vs simulation compile time (§3.1: copying increased\ncompilation time by a factor of 10)\n"
    );
    let _ = writeln!(
        out,
        "{:<14} | {:>12} | {:>14} | {:>8} | {:>10}",
        "benchmark", "DBDS (ms)", "backtrack (ms)", "ratio", "dups (D/B)"
    );
    let _ = writeln!(out, "{}", "-".repeat(70));
    let mut ratios = Vec::new();
    for r in rows {
        let ratio = r.backtracking_ns as f64 / r.dbds_ns.max(1) as f64;
        ratios.push((ratio - 1.0) * 100.0); // as a percent change, for `geomean_pct`
        let _ = writeln!(
            out,
            "{:<14} | {:>12.3} | {:>14.3} | {:>7.1}x | {:>4}/{:<5}",
            r.name,
            r.dbds_ns as f64 / 1e6,
            r.backtracking_ns as f64 / 1e6,
            ratio,
            r.dbds_duplications,
            r.backtracking_accepted,
        );
    }
    let geo_ratio = (geomean_pct(&ratios) + 100.0) / 100.0;
    let _ = writeln!(out, "{}", "-".repeat(70));
    let _ = writeln!(out, "Geometric mean compile-time ratio: {geo_ratio:.1}x");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::IcacheModel;
    use crate::runner::run_suite;
    use dbds_core::DbdsConfig;
    use dbds_costmodel::CostModel;
    use dbds_workloads::Suite;

    #[test]
    fn figure_table_contains_all_benchmarks_and_means() {
        let result = run_suite(
            Suite::Micro,
            &CostModel::new(),
            &DbdsConfig::default(),
            &IcacheModel::default(),
        );
        let text = format_figure(&result);
        for name in Suite::Micro.benchmark_names() {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("Geometric Mean"));
        assert!(text.contains("dupalot"));
        assert!(text.contains("Figure 7"));
        assert!(text.contains("Analysis cache"), "{text}");
        assert!(text.contains("Bailouts"), "{text}");
        // No budgets and no faults: the only records allowed are
        // recovered size-budget rejections from the trade-off tier.
        let bailouts = result.bailout_totals(dbds_core::OptLevel::Dbds);
        assert_eq!(bailouts.total(), bailouts.size_budget_exceeded, "{text}");
        assert_eq!(bailouts.total(), bailouts.recovered, "{text}");
        // Every configuration computed dominators at least once per
        // benchmark, and the DBDS loop re-used them at least once.
        let cache = result.cache_totals(dbds_core::OptLevel::Dbds);
        assert!(cache.misses as usize >= result.rows.len());
        assert!(cache.hits > 0);
        // The reverse-CFG analyses (postdom / control-dep) are live
        // across the suite: computed when a round accepts its first
        // split candidate, and hit by the CDG cross-check of the round's
        // further split candidates.
        assert!(cache.rev_misses > 0, "{cache:?}");
        assert!(cache.rev_hits > 0, "{cache:?}");
        assert!(text.contains("Branch splitting"), "{text}");
        // The split corpus rides in the Micro suite, so DBDS applies
        // branch splits somewhere in this figure.
        let split_applied: usize = result
            .rows
            .iter()
            .map(|r| {
                r.pick_metrics(dbds_core::OptLevel::Dbds)
                    .stats
                    .split_applied
            })
            .sum();
        assert!(split_applied >= 1, "{text}");
    }

    #[test]
    fn summary_mentions_max_speedup() {
        let result = run_suite(
            Suite::Micro,
            &CostModel::new(),
            &DbdsConfig::default(),
            &IcacheModel::default(),
        );
        let text = format_summary(&[result]);
        assert!(text.contains("Maximum DBDS peak performance increase"));
    }

    #[test]
    fn json_report_identical_across_thread_counts() {
        let model = CostModel::new();
        let ic = IcacheModel::default();
        let run = |unit_threads: usize| {
            let cfg = DbdsConfig {
                unit_threads,
                ..DbdsConfig::default()
            };
            let results = vec![run_suite(Suite::Micro, &model, &cfg, &ic)];
            format_json(&results, unit_threads, None)
        };
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("\"unit_threads\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        // Every width — including adaptive (0), whatever it resolves to
        // here — must agree modulo the header line.
        let one = run(1);
        for unit_threads in [4, 0] {
            let other = run(unit_threads);
            // Only the thread-count header line may differ...
            assert_ne!(one, other, "unit_threads={unit_threads}");
            assert_eq!(strip(&one), strip(&other), "unit_threads={unit_threads}");
        }
        // ...and a rerun at the same count is byte-identical (no timing
        // leaks into the report).
        assert_eq!(run(4), run(4));
        // Shape sanity: well-formed-ish JSON with all three configs.
        assert!(one.trim_start().starts_with('{') && one.trim_end().ends_with('}'));
        for level in ["baseline", "dbds", "dupalot"] {
            assert!(one.contains(&format!("\"level\": \"{level}\"")), "{one}");
        }
        // The prediction-audit counter is part of the stable schema.
        assert!(one.contains("\"mispredictions\""), "{one}");
        // The undo-log counters are part of the stable schema (they are
        // deterministic, so the gate covers them at every width).
        for key in ["\"undo_edits\"", "\"undo_rollbacks\"", "\"undo_peak\""] {
            assert!(one.contains(key), "{one}");
        }
        // The reverse-cache and branch-splitting counters are part of
        // the stable schema, and being deterministic they sit under the
        // same byte-identity gate as everything else.
        for key in [
            "\"rev_cache_hits\"",
            "\"rev_cache_misses\"",
            "\"rev_cache_invalidations\"",
            "\"cache_patches\"",
            "\"dom_blocks_visited\"",
            "\"dom_labels_written\"",
            "\"split_candidates\"",
            "\"split_applied\"",
            "\"frontier_violations\"",
            "\"opt_rounds\"",
            "\"opt_insts_visited\"",
        ] {
            assert!(one.contains(key), "{one}");
        }
    }

    #[test]
    fn backtracking_table_formats() {
        let rows = vec![BacktrackRow {
            name: "demo".into(),
            dbds_ns: 1_000_000,
            backtracking_ns: 10_000_000,
            dbds_duplications: 3,
            backtracking_accepted: 2,
        }];
        let text = format_backtracking(&rows);
        assert!(text.contains("10.0x"), "{text}");
        assert!(text.contains("demo"));
        assert!(
            text.contains("ratio: 10.0x"),
            "the mean of one 10x row: {text}"
        );
    }
}
