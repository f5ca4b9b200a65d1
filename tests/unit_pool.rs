//! Gates for "units are the only parallel grain".
//!
//! (a) *Golden simulation accounting*: the simulation tier's results,
//!     stop reason, panic records and fuel accounting, pinned as digests
//!     computed from the collect → speculate → commit tier this walk
//!     replaced (at one thread), over the whole corpus and a fuel ladder.
//! (b) *Corpus counter gate*: the suite report is byte-identical at every
//!     `unit_threads` and its deterministic counters sum to the pins the
//!     retired `bench_suite` binary gated.
//! (c) *Storm*: one pathological unit among tiny ones commits the same
//!     report at every pool width.
//! (d) `run_units` itself: submission order when later units finish
//!     first, and a panic that waits for the other units.

use dbds::analysis::AnalysisCache;
use dbds::core::par::run_units;
use dbds::core::{
    simulate_paths_budgeted, Budget, DbdsConfig, GuardConfig, OptLevel, BRANCH_SPLIT_DEFAULT,
};
use dbds::costmodel::CostModel;
use dbds::harness::{format_json, measure_from, run_suite, BenchmarkRow, IcacheModel, SuiteResult};
use dbds::ir::{parse_module, Fnv64, Graph};
use dbds::workloads::{generate_graph, generate_inputs, FragmentKind, Profile, Suite, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

// ---------------------------------------------------------------------
// (a) golden simulation accounting
// ---------------------------------------------------------------------

/// Figure 3's program `f` (the same text `tests/figure3.rs` compiles).
const PROGRAM_F: &str = r#"
    func @f(a: int, b: int, x: int) {
    entry:
      zero: int = const 0
      guard: bool = cmp ge x, zero
      branch guard, bg, bdeopt, prob 0.999
    bdeopt:
      deopt
    bg:
      two: int = const 2
      c: bool = cmp gt a, b
      branch c, bp1, bp2, prob 0.5
    bp1:
      jump bm
    bp2:
      jump bm
    bm:
      p: int = phi [bp1: x, bp2: two]
      q: int = div x, p
      return q
    }
"#;

/// Unlimited, then a ladder that stops the walk inside the first block,
/// between a block and its DST, inside a DST's charge and (on the large
/// units) a few hundred blocks in.
const FUELS: [Option<u64>; 13] = [
    None,
    Some(1),
    Some(2),
    Some(3),
    Some(5),
    Some(8),
    Some(13),
    Some(21),
    Some(34),
    Some(55),
    Some(89),
    Some(500),
    Some(5_000),
];

/// FNV-1a over everything `simulate_paths_budgeted` reports for every
/// graph × fuel: the results in order with their opportunities (`Debug`
/// prints every `f64` in its shortest round-trip form, so this is
/// bit-exact), the stop reason, the panic records and the fuel charged.
fn simulation_digest(graphs: &[Graph], max_path_len: usize) -> u64 {
    let model = CostModel::new();
    let mut h = Fnv64::new();
    for g in graphs {
        for fuel in FUELS {
            let budget = Budget::new(&GuardConfig {
                fuel,
                ..GuardConfig::default()
            });
            let out = simulate_paths_budgeted(
                g,
                &model,
                &mut AnalysisCache::new(),
                max_path_len,
                &budget,
                BRANCH_SPLIT_DEFAULT,
            );
            h.write_str(&format!(
                "{:?}|{:?}|{:?}|{}",
                out.results,
                out.stopped,
                out.panicked,
                budget.fuel_used()
            ));
        }
    }
    h.finish()
}

/// `(graph set, [digest at max_path_len 1, digest at max_path_len 2])`,
/// computed at the parent of the commit that introduced this file.
const GOLDEN: [(&str, [u64; 2]); 5] = [
    ("figure3", [0x539c84f0fe5d6b2b, 0x539c84f0fe5d6b2b]),
    ("java-dacapo", [0x86bf0b8cee9502db, 0x08352e29fbaa890f]),
    ("scala-dacapo", [0x13dc246a02c451bf, 0xfc4eceea37646a13]),
    ("micro", [0xb26128f28082a2e3, 0x84630d8e08684a83]),
    ("octane", [0xb4b67e892c65c453, 0xdef85aa6b95a8bf3]),
];

#[test]
fn simulation_accounting_matches_the_golden_digests() {
    let figure3 = parse_module(PROGRAM_F).unwrap().graphs.remove(0);
    let mut sets = vec![("figure3", vec![figure3])];
    for suite in Suite::ALL {
        let graphs = suite.workloads().into_iter().map(|w| w.graph).collect();
        sets.push((suite.id(), graphs));
    }
    assert_eq!(sets.len(), GOLDEN.len());
    for ((name, graphs), (golden_name, golden)) in sets.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        for (max_path_len, want) in [1, 2].into_iter().zip(golden) {
            assert_eq!(
                simulation_digest(graphs, max_path_len),
                want,
                "{name} at max_path_len {max_path_len}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// (b) corpus counter gate
// ---------------------------------------------------------------------

fn without_header(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.contains("\"unit_threads\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn corpus_counters_are_pinned_and_identical_at_every_width() {
    let model = CostModel::new();
    let ic = IcacheModel::default();
    let corpus_at = |unit_threads: usize| {
        let cfg = DbdsConfig {
            unit_threads,
            ..DbdsConfig::default()
        };
        let results: Vec<SuiteResult> = Suite::ALL
            .iter()
            .map(|&s| run_suite(s, &model, &cfg, &ic))
            .collect();
        let report = format_json(&results, unit_threads, None);
        (results, report)
    };

    let (results, sequential) = corpus_at(1);
    let (mut work, mut candidates, mut duplications, mut raw_cycles) = (0, 0, 0, 0);
    for row in results.iter().flat_map(|r| &r.rows) {
        for m in [&row.baseline, &row.dbds, &row.dupalot] {
            work += m.work;
            candidates += m.stats.candidates;
            duplications += m.stats.duplications;
            raw_cycles += m.raw_cycles;
        }
    }
    assert_eq!(
        (work, candidates, duplications, raw_cycles),
        (142_058, 11_008, 2_943, 616_578)
    );

    for unit_threads in [2, 4, 0] {
        let (_, report) = corpus_at(unit_threads);
        assert_eq!(
            without_header(&report),
            without_header(&sequential),
            "corpus report diverged at unit_threads = {unit_threads}"
        );
    }
}

// ---------------------------------------------------------------------
// (c) storm: 12 tiny units + 1 pathological one
// ---------------------------------------------------------------------

fn storm_profile(fragments: (usize, usize)) -> Profile {
    Profile {
        fragments,
        weights: vec![
            (FragmentKind::ConstFold, 2.0),
            (FragmentKind::CondElim, 2.0),
            (FragmentKind::StrengthReduce, 1.0),
            (FragmentKind::TypeCheck, 1.0),
            (FragmentKind::HotLoop, 1.0),
            (FragmentKind::Neutral, 1.0),
        ],
        input_sets: 2,
    }
}

/// Twelve near-empty units plus one unit an order of magnitude larger:
/// the pool's workers run out of tiny units while one of them is still
/// inside the big one, so completion order is far from submission order.
fn storm_workloads() -> Vec<Workload> {
    let workload = |name: String, profile: &Profile, seed: u64| Workload {
        graph: generate_graph(&name, profile, seed),
        name,
        suite: Suite::Micro,
        inputs: generate_inputs(profile, seed),
    };
    let tiny = storm_profile((1, 3));
    let mut out: Vec<Workload> = (0..12)
        .map(|i| workload(format!("storm-tiny-{i}"), &tiny, 9_000 + i))
        .collect();
    out.push(workload(
        "storm-big".to_string(),
        &storm_profile((48, 49)),
        4_242,
    ));
    for w in &out {
        dbds::ir::verify(&w.graph)
            .unwrap_or_else(|e| panic!("storm workload {} failed verification: {e}", w.name));
    }
    out
}

/// The storm's full report with the batch dispatched on `workers`
/// threads. The header is pinned so the comparison is whole-output byte
/// identity.
fn storm_report(workloads: &[Workload], workers: usize) -> String {
    const LEVELS: [OptLevel; 3] = [OptLevel::Baseline, OptLevel::Dbds, OptLevel::Dupalot];
    let model = CostModel::new();
    let ic = IcacheModel::default();
    let cfg = DbdsConfig::default();
    let units: Vec<(usize, OptLevel)> = (0..workloads.len())
        .flat_map(|wi| LEVELS.iter().map(move |&l| (wi, l)))
        .collect();
    let metrics = run_units(workers, &units, |_, &(wi, level)| {
        let w = &workloads[wi];
        measure_from(&w.graph, w, level, &model, &cfg, &ic)
    });
    let mut metrics = metrics.into_iter();
    let mut next = || metrics.next().expect("one Metrics per unit");
    let rows: Vec<BenchmarkRow> = workloads
        .iter()
        .map(|w| BenchmarkRow {
            name: w.name.clone(),
            baseline: next(),
            dbds: next(),
            dupalot: next(),
        })
        .collect();
    let result = SuiteResult {
        suite: Suite::Micro,
        rows,
    };
    format_json(&[result], 1, None)
}

#[test]
fn storm_report_is_identical_at_every_pool_width() {
    let workloads = storm_workloads();
    let inline = storm_report(&workloads, 1);
    for workers in [2, 3, 8] {
        assert_eq!(
            storm_report(&workloads, workers),
            inline,
            "storm report diverged at {workers} workers"
        );
    }
}

// ---------------------------------------------------------------------
// (d) run_units
// ---------------------------------------------------------------------

#[test]
fn results_are_in_submission_order_when_later_units_finish_first() {
    // Unit 0 cannot return before unit 1 has: the barrier forces the
    // out-of-order completion, the index-addressed slots undo it.
    let barrier = Barrier::new(2);
    let finished = AtomicUsize::new(0);
    let results = run_units(2, &["first", "second"], |i, name| {
        if i == 0 {
            barrier.wait();
            assert_eq!(finished.load(Ordering::SeqCst), 1, "unit 1 finished first");
        } else {
            finished.store(1, Ordering::SeqCst);
            barrier.wait();
        }
        format!("{i}:{name}")
    });
    assert_eq!(results, ["0:first", "1:second"]);
}

#[test]
fn a_panicking_unit_re_raises_after_the_other_units_finished() {
    for workers in [2, 8] {
        let finished = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_units(workers, &[(); 8], |i, ()| {
                if i == 3 {
                    panic!("unit 3 exploded");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = outcome.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"unit 3 exploded"));
        assert_eq!(finished.load(Ordering::SeqCst), 7, "at {workers} workers");
    }
}
