//! Deterministic fault-injection sweep over the workload suites.
//!
//! For every seeded [`FaultPlan`] (each injection site × fault kind,
//! firing both at the first hit and at a later seed-derived one), every
//! workload is compiled under the *DBDS* configuration with the plan
//! armed, then checked against the three robustness guarantees:
//!
//! 1. the process never panics (injected panics are caught inside the
//!    phase),
//! 2. the final graph verifies, and
//! 3. the interpreter outcomes match the no-duplication baseline.
//!
//! Exit status is non-zero if any check fails.
//!
//! The per-plan workload loop runs on the unit-level compilation queue
//! (`DBDS_UNIT_THREADS`, default 1): arming is thread-local, so each
//! unit arms the plan on whichever worker compiles it and disarms before
//! the worker moves on — a fault contained in one unit can never leak
//! into a neighbor. Results are committed in submission order, so stdout
//! is byte-identical for every thread count (CI compares the sequential
//! and threaded sweeps with `cmp`).
//!
//! ```text
//! cargo run --release -p dbds-harness --features fault-injection --bin faultsim [-- <seed>]
//! ```

use dbds_core::faultinject::{arm, disarm, FaultPlan};
use dbds_core::par::run_units;
use dbds_core::{compile, DbdsConfig, OptLevel};
use dbds_costmodel::CostModel;
use dbds_ir::{execute, verify, Outcome};
use dbds_workloads::all_workloads;

/// What one `(plan, workload)` unit reported, committed in submission
/// order so the sweep's output is deterministic.
struct UnitReport {
    fired: bool,
    bailouts: usize,
    undo_rollbacks: u64,
    failures: Vec<String>,
}

fn main() {
    let seed: u64 = match std::env::args().nth(1) {
        None => 0xDBD5,
        Some(s) => match s.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("faultsim: error: seed must be a u64, got {s:?}");
                std::process::exit(2);
            }
        },
    };
    let model = CostModel::new();
    let cfg = DbdsConfig::default();
    let workloads = all_workloads();
    let workers = cfg.unit_workers(workloads.len());
    // Stderr only: stdout must stay byte-identical at every width.
    eprintln!("faultsim: {workers} unit workers");

    // The ground truth each faulted compilation must still match: the
    // baseline (no duplication, no faults) interpreter outcomes.
    let baselines: Vec<Vec<Outcome>> = run_units(workers, &workloads, |_, w| {
        let mut g = w.graph.clone();
        compile(&mut g, &model, OptLevel::Baseline, &cfg);
        w.inputs.iter().map(|i| execute(&g, i).outcome).collect()
    });

    let plans = FaultPlan::sweep(seed);
    println!(
        "faultsim: seed {seed:#x}, {} plans x {} workloads",
        plans.len(),
        workloads.len()
    );

    let mut failures = 0usize;
    let mut fired_total = 0usize;
    let mut bailouts_total = 0usize;
    let mut undo_rollbacks_total = 0u64;
    for fault_plan in &plans {
        // Each unit arms on its own worker thread and disarms before the
        // worker claims the next unit — per-unit fault ownership: a unit
        // compiles entirely on the worker that armed its plan.
        let reports = run_units(workers, &workloads, |i, w| {
            arm(fault_plan.clone());
            let mut g = w.graph.clone();
            let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
            let (_hits, fired) = disarm();
            let mut unit = UnitReport {
                fired,
                bailouts: stats.bailouts.len(),
                undo_rollbacks: stats.undo_rollbacks,
                failures: Vec::new(),
            };

            if let Err(e) = verify(&g) {
                unit.failures.push(format!(
                    "FAIL {}/{} nth={} on {}: final graph does not verify: {}",
                    fault_plan.site,
                    fault_plan.kind.name(),
                    fault_plan.nth,
                    w.name,
                    e.summary()
                ));
                return unit;
            }
            for (input, expected) in w.inputs.iter().zip(&baselines[i]) {
                let got = execute(&g, input).outcome;
                if &got != expected {
                    unit.failures.push(format!(
                        "FAIL {}/{} nth={} on {}: outcome diverged from baseline \
                         ({got:?} vs {expected:?})",
                        fault_plan.site,
                        fault_plan.kind.name(),
                        fault_plan.nth,
                        w.name,
                    ));
                    break;
                }
            }
            unit
        });

        let mut fired_here = 0usize;
        for r in &reports {
            fired_here += usize::from(r.fired);
            bailouts_total += r.bailouts;
            undo_rollbacks_total += r.undo_rollbacks;
            failures += r.failures.len();
            for f in &r.failures {
                eprintln!("{f}");
            }
        }
        fired_total += fired_here;
        println!(
            "  {:<22} {:<16} nth={}  fired in {:>3}/{} workloads",
            fault_plan.site,
            fault_plan.kind.name(),
            fault_plan.nth,
            fired_here,
            workloads.len()
        );
    }

    println!(
        "faultsim: {} plans swept, {fired_total} armed faults fired, \
         {bailouts_total} bailout records, {undo_rollbacks_total} undo rollbacks, \
         {failures} failures",
        plans.len()
    );
    assert!(
        fired_total > 0,
        "no fault ever fired: the sweep is not exercising the injection points"
    );
    // The recovery path under test *is* the undo log now: every contained
    // mid-transform fault must have rolled a transaction back. The count
    // is deterministic, so it is part of the `cmp`-gated stdout above.
    assert!(
        undo_rollbacks_total > 0,
        "no undo-log rollback happened: injected faults are not exercising \
         the transactional recovery path"
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
