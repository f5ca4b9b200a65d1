//! Suite-level shape assertions: the qualitative claims of §6.2 that the
//! reproduction must uphold (who wins, and roughly how), the snapshot of
//! `EXPERIMENTS.json` against the program, and EXPERIMENTS.md's
//! deterministic tables against `EXPERIMENTS.json`.

use dbds::core::{compile, DbdsConfig, OptLevel};
use dbds::costmodel::CostModel;
use dbds::harness::{run_suite, IcacheModel, Metric, SuiteResult};
use dbds::workloads::Suite;
use dbds_server::json::Json;
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

/// The program's `EXPERIMENTS.json` ([`dbds::harness::experiments`] over
/// the shared suite runs), computed once per test binary.
fn experiments() -> &'static Json {
    static DOC: OnceLock<Json> = OnceLock::new();
    DOC.get_or_init(|| dbds::harness::experiments(&Suite::ALL.map(suite)))
}

#[test]
fn experiments_tables_are_the_programs_numbers() {
    // Snapshot discipline: the committed numbers are the program's. On a
    // difference the fresh file is written beside the test binary; review
    // it, copy it over EXPERIMENTS.json and reprint EXPERIMENTS.md's
    // tables (`experiments_md_reprints_experiments_json` says how).
    let fresh = experiments().pretty();
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

#[test]
fn backtracking_visits_an_order_of_magnitude_more_instructions() {
    // §3.1's factor of 10, in a deterministic counter: over the micro
    // suite, Algorithm 1's per-attempt re-optimization visits at least
    // ten times the instructions the whole DBDS phase's optimizer does.
    let rows = arr(at(experiments(), "backtracking.benchmarks"));
    let sum = |key: &str| -> u64 { rows.iter().map(|r| int(at(r, key))).sum() };
    let dbds = sum("dbds_opt_insts_visited");
    let back = sum("backtracking_opt_insts_visited");
    assert!(
        back >= 10 * dbds,
        "backtracking visited {back} instructions, DBDS {dbds}"
    );
}

const MARKER: &str = "<!-- EXPERIMENTS.json: ";

#[test]
fn experiments_md_reprints_experiments_json() {
    // Every deterministic table of EXPERIMENTS.md sits under a
    // `<!-- EXPERIMENTS.json: NAME -->` line and must be, byte for byte,
    // what `md_tables` renders from the committed EXPERIMENTS.json.
    let doc = dbds_server::json::parse(include_str!("../EXPERIMENTS.json"))
        .expect("EXPERIMENTS.json parses");
    let md = include_str!("../EXPERIMENTS.md");
    let tables = md_tables(&doc);
    for (name, table) in &tables {
        let block = format!("{MARKER}{name} -->\n{table}\n");
        assert!(
            md.contains(&block),
            "EXPERIMENTS.md's `{name}` table differs from EXPERIMENTS.json; it reads\n\n{block}"
        );
    }
    assert_eq!(
        md.lines().filter(|l| l.starts_with(MARKER)).count(),
        tables.len(),
        "EXPERIMENTS.md marks a table EXPERIMENTS.json does not hold"
    );
}

/// The value at a dotted path of object keys.
fn at<'a>(j: &'a Json, path: &str) -> &'a Json {
    path.split('.').fold(j, |j, key| {
        j.get(key).unwrap_or_else(|| panic!("no `{path}`"))
    })
}

fn arr(j: &Json) -> &[Json] {
    match j {
        Json::Arr(items) => items,
        other => panic!("not an array: {}", other.compact()),
    }
}

/// A number's text as the document holds it.
fn raw(j: &Json) -> &str {
    match j {
        Json::Num(text) => text,
        other => panic!("not a number: {}", other.compact()),
    }
}

fn int(j: &Json) -> u64 {
    j.as_u64().expect("an integer")
}

/// A signed percentage cell: `12.14` → `+12.14 %`, `-0.51` → `−0.51 %`.
fn pct(j: &Json) -> String {
    let text = raw(j);
    match text.strip_prefix('-') {
        Some(magnitude) => format!("−{magnitude} %"),
        None if text.trim_matches(['0', '.']).is_empty() => format!("{text} %"),
        None => format!("+{text} %"),
    }
}

/// One markdown table: a header row, the rule, and `rows`.
fn table(header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) -> String {
    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let mut out = line(&header);
    out.push_str(&format!("|{}\n", "---|".repeat(header.len())));
    for row in rows {
        out.push_str(&line(&row));
    }
    out
}

fn bold(cells: Vec<String>) -> Vec<String> {
    cells.into_iter().map(|c| format!("**{c}**")).collect()
}

/// The paper's geometric means per suite (§6.2, Figures 5–8): peak under
/// DBDS and dupalot, then code size under DBDS and dupalot.
const PAPER_FIGURES: [[&str; 4]; 4] = [
    ["+0.99 %", "−0.14 %", "+15.90 %", "+38.22 %"],
    ["+3.15 %", "+2.07 %", "+6.88 %", "+26.27 %"],
    ["+8.07 %", "+8.57 %", "+11.53 %", "+25.78 %"],
    ["+8.81 %", "+6.66 %", "+7.31 %", "+25.58 %"],
];

const FIGURE_COLUMNS: [&str; 4] = [
    "dbds_peak_pct",
    "dupalot_peak_pct",
    "dbds_size_pct",
    "dupalot_size_pct",
];

/// EXPERIMENTS.md's deterministic tables, rendered from `doc` and named
/// by their markers.
fn md_tables(doc: &Json) -> Vec<(String, String)> {
    let mut tables = Vec::new();

    let h = at(doc, "headline");
    let g = at(h, "geomean");
    let benchmarks: usize = arr(at(doc, "suites"))
        .iter()
        .map(|s| arr(at(s, "benchmarks")).len())
        .sum();
    let pp = raw(at(h, "dupalot_minus_dbds_peak_pp")).replace('-', "−");
    let rows = [
        [
            "DBDS peak performance",
            "+5.89 %",
            &pct(at(g, "dbds_peak_pct")),
        ]
        .map(String::from),
        [
            "DBDS peak, largest single benchmark".into(),
            "up to +40 %".into(),
            format!(
                "{} (`{}`)",
                pct(at(h, "dbds_peak_max.pct")),
                at(h, "dbds_peak_max.benchmark").as_str().expect("a name")
            ),
        ],
        ["DBDS code size", "+9.93 %", &pct(at(g, "dbds_size_pct"))].map(String::from),
        [
            "dupalot peak minus DBDS peak".into(),
            "−0.2 pp".into(),
            format!(
                "{pp} pp ({} vs {})",
                pct(at(g, "dupalot_peak_pct")),
                pct(at(g, "dbds_peak_pct"))
            ),
        ],
        [
            "dupalot code-size increase over DBDS's".into(),
            "≈ 2.5×".into(),
            format!(
                "{}× ({} vs {})",
                raw(at(h, "dupalot_over_dbds_size_increase")),
                pct(at(g, "dupalot_size_pct")),
                pct(at(g, "dbds_size_pct"))
            ),
        ],
    ];
    let header = format!("geometric mean over {benchmarks} benchmarks");
    tables.push((
        "headline".into(),
        table(&[&header, "paper", "measured"], rows.map(Vec::from)),
    ));

    for (s, paper) in arr(at(doc, "suites")).iter().zip(PAPER_FIGURES) {
        let cells = |row: &Json| FIGURE_COLUMNS.map(|c| pct(at(row, c)));
        let mut rows: Vec<Vec<String>> = arr(at(s, "benchmarks"))
            .iter()
            .map(|b| {
                let name = format!("`{}`", at(b, "name").as_str().expect("a name"));
                std::iter::once(name).chain(cells(b)).collect()
            })
            .collect();
        rows.push(bold(
            std::iter::once("geometric mean".into())
                .chain(cells(at(s, "geomean")))
                .collect(),
        ));
        rows.push(
            std::iter::once("paper, geometric mean".into())
                .chain(paper.map(String::from))
                .collect(),
        );
        let header = [
            "benchmark",
            "peak, DBDS",
            "peak, dupalot",
            "code size, DBDS",
            "code size, dupalot",
        ];
        tables.push((
            format!("figure {}", raw(at(s, "figure"))),
            table(&header, rows),
        ));
    }

    for (knob, label) in [
        ("benefit_scale", "BS"),
        ("size_increase_budget", "IB"),
        ("max_iterations", "iterations"),
        ("max_path_length", "path length"),
    ] {
        let sweep = at(at(doc, "tradeoff_sweeps"), knob);
        let default = raw(at(sweep, "default"));
        let rows = arr(at(sweep, "rows")).iter().map(|r| {
            let value = raw(at(r, "value"));
            let cells = vec![
                value.to_string(),
                raw(at(r, "duplications")).to_string(),
                pct(at(r, "peak_pct")),
                pct(at(r, "size_pct")),
            ];
            if value == default {
                let mut cells = bold(cells);
                cells[0] = format!("**{value} (default)**");
                cells
            } else {
                cells
            }
        });
        tables.push((
            knob.to_string(),
            table(&[label, "duplications", "peak", "code size"], rows),
        ));
    }

    let split = at(doc, "branch_splitting");
    let rows = arr(at(split, "benchmarks")).iter().map(|r| {
        let agree = at(r, "outcomes_agree").as_bool() == Some(true);
        let gate = if agree && int(at(r, "frontier_violations")) == 0 {
            "ok"
        } else {
            "FAIL"
        };
        let cells = vec![
            format!("`{}`", at(r, "name").as_str().expect("a name")),
            raw(at(r, "combined_duplications")).to_string(),
            raw(at(r, "combined_splits")).to_string(),
            raw(at(r, "merge_only_duplications")).to_string(),
            raw(at(r, "combined_cycles")).to_string(),
            raw(at(r, "merge_only_cycles")).to_string(),
            gate.to_string(),
        ];
        if at(r, "split_benchmark").as_bool() == Some(true) {
            bold(cells)
        } else {
            cells
        }
    });
    let header = [
        "benchmark",
        "combined dups",
        "splits",
        "merge-only dups",
        "combined cycles",
        "merge-only cycles",
        "gate",
    ];
    tables.push(("branch_splitting".into(), table(&header, rows)));

    let rows = arr(at(doc, "backtracking.benchmarks"));
    let ratio = |d: u64, b: u64| format!("{:.1}×", b as f64 / d as f64);
    let line = |name: String, [dd, bd, dv, bv]: [u64; 4]| {
        let counts = [dd, bd, dv, bv].map(|n| n.to_string());
        let mut cells = vec![name];
        cells.extend(counts);
        cells.push(ratio(dv, bv));
        cells
    };
    let keys = [
        "dbds_duplications",
        "backtracking_duplications",
        "dbds_opt_insts_visited",
        "backtracking_opt_insts_visited",
    ];
    let mut body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let name = format!("`{}`", at(r, "name").as_str().expect("a name"));
            line(name, keys.map(|k| int(at(r, k))))
        })
        .collect();
    let sums = keys.map(|k| rows.iter().map(|r| int(at(r, k))).sum());
    body.push(bold(line("sum".into(), sums)));
    let header = [
        "benchmark",
        "dups, DBDS",
        "dups, backtracking",
        "optimizer visits, DBDS",
        "optimizer visits, backtracking",
        "visits ratio",
    ];
    tables.push(("backtracking".into(), table(&header, body)));

    let e = at(doc, "estimator");
    let rows = [
        (
            "static weighted cycles vs dynamic cycles",
            "static_cycles_vs_dynamic_cycles",
        ),
        (
            "static size estimate vs machine-code bytes",
            "static_size_vs_machine_code_bytes",
        ),
        (
            "predicted duplication benefit vs measured saving",
            "predicted_benefit_vs_measured_saving",
        ),
    ]
    .map(|(label, key)| {
        vec![
            label.to_string(),
            raw(at(at(e, key), "pearson")).to_string(),
            raw(at(at(e, key), "spearman")).to_string(),
        ]
    });
    let header = format!("correlation over {} benchmarks", raw(at(e, "benchmarks")));
    tables.push((
        "estimator".into(),
        table(&[&header, "Pearson r", "Spearman ρ"], rows),
    ));
    tables
}
