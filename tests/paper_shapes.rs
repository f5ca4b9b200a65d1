//! Suite-level shape assertions: the qualitative claims of §6.2 that the
//! reproduction must uphold (who wins, and roughly how), and the
//! snapshot of EXPERIMENTS.md's deterministic table columns.

use dbds::core::{compile, DbdsConfig, OptLevel};
use dbds::costmodel::CostModel;
use dbds::harness::{geomean_pct, run_suite, BenchmarkRow, IcacheModel, Metric, SuiteResult};
use dbds::workloads::Suite;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// `s` run once per test binary at the default configuration, cost model
/// and icache model, and shared by every test here.
fn suite(s: Suite) -> &'static SuiteResult {
    static SUITES: [OnceLock<SuiteResult>; 4] = [const { OnceLock::new() }; 4];
    let i = Suite::ALL
        .iter()
        .position(|&x| x == s)
        .expect("a known suite");
    SUITES[i].get_or_init(|| {
        let (model, cfg, ic) = (
            CostModel::new(),
            DbdsConfig::default(),
            IcacheModel::default(),
        );
        run_suite(s, &model, &cfg, &ic)
    })
}

#[test]
fn micro_benefits_more_than_java_dacapo() {
    // §6.2: "The Octane suite and the micro benchmarks show the highest
    // peak performance increases … whereas benchmark suites such as Java
    // DaCapo benefit less from duplication."
    let micro = suite(Suite::Micro);
    let java = suite(Suite::JavaDaCapo);
    let micro_peak = micro.geomean(OptLevel::Dbds, Metric::Peak);
    let java_peak = java.geomean(OptLevel::Dbds, Metric::Peak);
    assert!(
        micro_peak > java_peak,
        "micro {micro_peak:.2}% should beat java {java_peak:.2}%"
    );
    assert!(micro_peak > 0.0);

    // "not performing all duplication opportunities always results in
    // less code": dupalot grows code more than DBDS on both suites.
    for suite in [micro, java] {
        let dbds_size = suite.geomean(OptLevel::Dbds, Metric::CodeSize);
        let dup_size = suite.geomean(OptLevel::Dupalot, Metric::CodeSize);
        assert!(
            dup_size > dbds_size,
            "{:?}: dupalot size {dup_size:.2}% vs DBDS {dbds_size:.2}%",
            suite.suite
        );
    }
}

#[test]
fn suite_ordering_matches_the_paper() {
    // §6.2 orders the suites by DBDS peak improvement: Octane and micro
    // highest, Scala DaCapo in the middle, Java DaCapo least. Assert the
    // coarse ordering: {octane, micro} > scala > java.
    let peak = |s: Suite| suite(s).geomean(OptLevel::Dbds, Metric::Peak);
    let java = peak(Suite::JavaDaCapo);
    let scala = peak(Suite::ScalaDaCapo);
    let micro = peak(Suite::Micro);
    let octane = peak(Suite::Octane);
    assert!(
        scala > java,
        "scala {scala:.2}% should beat java {java:.2}%"
    );
    assert!(
        micro > scala && octane > scala,
        "micro {micro:.2}% / octane {octane:.2}% should beat scala {scala:.2}%"
    );
    assert!(java > 0.0 && octane > 0.0, "all suites improve");
}

#[test]
fn backtracking_costs_an_order_of_magnitude_more_compile_time() {
    // §3.1: "the copy operation increased compilation time by a factor of
    // 10". We require at least 5× on the micro suite (wall-clock, so
    // leave slack).
    let model = CostModel::new();
    let cfg = DbdsConfig::default();
    let mut dbds_total = 0.0f64;
    let mut back_total = 0.0f64;
    for w in Suite::Micro.workloads() {
        let mut g1 = w.graph.clone();
        let t0 = Instant::now();
        compile(&mut g1, &model, OptLevel::Dbds, &cfg);
        dbds_total += t0.elapsed().as_secs_f64();

        let mut g2 = w.graph.clone();
        let t1 = Instant::now();
        compile(&mut g2, &model, OptLevel::Backtracking, &cfg);
        back_total += t1.elapsed().as_secs_f64();
    }
    let ratio = back_total / dbds_total;
    assert!(
        ratio > 5.0,
        "backtracking should be ≫ slower than simulation, got {ratio:.1}x"
    );
}

#[test]
fn dupalot_does_strictly_more_work_than_dbds() {
    // The paper's compile-time claim in robust (non-wall-clock) terms:
    // dupalot performs more duplications and ships more code on every
    // suite level, so it necessarily spends more compile effort.
    let micro = suite(Suite::Micro);
    let dbds_dups: usize = micro.rows.iter().map(|r| r.dbds.stats.duplications).sum();
    let dup_dups: usize = micro
        .rows
        .iter()
        .map(|r| r.dupalot.stats.duplications)
        .sum();
    assert!(
        dup_dups > dbds_dups,
        "dupalot performed {dup_dups} duplications vs DBDS {dbds_dups}"
    );
    // Wall clock over the whole suite (aggregated to dampen noise): the
    // trade-off must not make DBDS slower to compile than dupalot.
    let dbds_ns: u128 = micro.rows.iter().map(|r| r.dbds.compile_ns).sum();
    let dup_ns: u128 = micro.rows.iter().map(|r| r.dupalot.compile_ns).sum();
    assert!(
        dup_ns as f64 > dbds_ns as f64 * 0.8,
        "dupalot total {dup_ns} ns vs DBDS {dbds_ns} ns"
    );
}

#[test]
fn every_configuration_preserves_outcomes_on_micro() {
    let micro = suite(Suite::Micro);
    for row in &micro.rows {
        assert!(row.outcomes_agree(), "{} diverged", row.name);
    }
}

/// The deterministic columns of EXPERIMENTS.md's headline table and of
/// its Figure 5–8 tables, in the layout of the committed
/// `EXPERIMENTS.json`: peak-performance and code-size changes against
/// Baseline in percent, per benchmark and as geometric means, at the two
/// decimals `figures` prints. Compile time is wall clock and left out.
fn tables_json(suites: &[&SuiteResult]) -> String {
    let columns = |pct: &dyn Fn(OptLevel, Metric) -> f64| {
        let mut cols = Vec::new();
        for (name, metric) in [("peak", Metric::Peak), ("size", Metric::CodeSize)] {
            for level in [OptLevel::Dbds, OptLevel::Dupalot] {
                let value = pct(level, metric);
                cols.push(format!("\"{}_{name}_pct\": {value:.2}", level.name()));
            }
        }
        cols.join(", ")
    };
    let row_pct = |row: &BenchmarkRow, level: OptLevel, metric: Metric| match metric {
        Metric::Peak => row.peak_pct(level),
        Metric::CodeSize => row.size_pct(level),
        Metric::CompileTime => unreachable!("wall clock is not snapshotted"),
    };
    let rows = || suites.iter().flat_map(|s| &s.rows);
    let overall = |level, metric| {
        geomean_pct(
            &rows()
                .map(|r| row_pct(r, level, metric))
                .collect::<Vec<_>>(),
        )
    };
    let best = rows()
        .max_by(|a, b| {
            a.peak_pct(OptLevel::Dbds)
                .total_cmp(&b.peak_pct(OptLevel::Dbds))
        })
        .expect("a benchmark");
    let mut out = String::from("{\n  \"headline\": {\n");
    let _ = writeln!(out, "    \"geomean\": {{{}}},", columns(&overall));
    let _ = writeln!(
        out,
        "    \"dbds_peak_max\": {{\"benchmark\": \"{}\", \"pct\": {:.2}}},",
        best.name,
        best.peak_pct(OptLevel::Dbds)
    );
    let _ = writeln!(
        out,
        "    \"dupalot_minus_dbds_peak_pp\": {:.2},",
        overall(OptLevel::Dupalot, Metric::Peak) - overall(OptLevel::Dbds, Metric::Peak)
    );
    let _ = writeln!(
        out,
        "    \"dupalot_over_dbds_size_increase\": {:.2}",
        overall(OptLevel::Dupalot, Metric::CodeSize) / overall(OptLevel::Dbds, Metric::CodeSize)
    );
    out.push_str("  },\n  \"suites\": [\n");
    for (i, s) in suites.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"suite\": \"{}\", \"figure\": {},",
            s.suite.id(),
            s.suite.figure()
        );
        let _ = writeln!(
            out,
            "     \"geomean\": {{{}}},",
            columns(&|l, m| s.geomean(l, m))
        );
        out.push_str("     \"benchmarks\": [\n");
        for (j, row) in s.rows.iter().enumerate() {
            let cols = columns(&|l, m| row_pct(row, l, m));
            let sep = if j + 1 == s.rows.len() { "" } else { "," };
            let _ = writeln!(out, "       {{\"name\": \"{}\", {cols}}}{sep}", row.name);
        }
        let sep = if i + 1 == suites.len() { "" } else { "," };
        let _ = writeln!(out, "     ]}}{sep}");
    }
    out.push_str("  ]\n}\n");
    out
}

#[test]
fn experiments_tables_are_the_programs_numbers() {
    // Snapshot discipline: the committed numbers are the program's. On a
    // difference the fresh file is written beside the test binary; review
    // it, copy it over EXPERIMENTS.json and update EXPERIMENTS.md's tables.
    let fresh = tables_json(&Suite::ALL.map(suite));
    let committed = include_str!("../EXPERIMENTS.json");
    if fresh != committed {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("EXPERIMENTS.json");
        std::fs::write(&path, &fresh).expect("write the fresh tables");
        let (line, (want, got)) = committed
            .lines()
            .zip(fresh.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((
                committed.lines().count().min(fresh.lines().count()),
                ("<end>", "<end>"),
            ));
        panic!(
            "EXPERIMENTS.json line {}: committed\n  {want}\nbut the program gives\n  {got}\n\
             the program's file is {}",
            line + 1,
            path.display()
        );
    }
}
