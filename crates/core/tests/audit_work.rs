//! The prediction audit's work counters on a fixed set of Octane-profile
//! units at Dbds: the memoized audit evaluates at most six times the
//! units' input instructions, and every counter is the same whether the
//! units run on one worker or four.

use dbds_core::par::run_units;
use dbds_core::{compile, DbdsConfig, OptLevel};
use dbds_costmodel::CostModel;
use dbds_ir::Graph;
use dbds_workloads::{generate_graph, Suite};

/// How many units the set holds (seeds 1000, 1001, ...).
const UNITS: u64 = 16;

#[test]
fn audit_work_is_bounded_by_the_input_and_independent_of_threads() {
    let profile = Suite::Octane.profile();
    let units: Vec<Graph> = (0..UNITS)
        .map(|i| generate_graph(&format!("octane{i}"), &profile, 1000 + i))
        .collect();
    let input: u64 = units.iter().map(|g| g.live_inst_count() as u64).sum();
    let model = CostModel::new();
    let cfg = DbdsConfig::default();
    let counters = |workers: usize| {
        run_units(workers, &units, |_, unit| {
            let mut g = unit.clone();
            let s = compile(&mut g, &model, OptLevel::Dbds, &cfg);
            [
                s.audit_runs,
                s.audit_blocks_replayed,
                s.audit_insts_evaluated,
            ]
        })
    };
    let sequential = counters(1);
    assert_eq!(
        sequential,
        counters(4),
        "audit counters depend on the worker count"
    );
    let total = |k: usize| sequential.iter().map(|c| c[k]).sum::<u64>();
    let (runs, replayed, evaluated) = (total(0), total(1), total(2));
    assert!(runs > 0 && replayed > 0, "the set must exercise the audit");
    assert!(
        evaluated <= 6 * input,
        "audits evaluated {evaluated} instructions, {:.1}x the {input} input instructions",
        evaluated as f64 / input as f64
    );
    eprintln!(
        "{UNITS} units, {input} input instructions: {runs} audits, {replayed} blocks \
         replayed, {evaluated} instructions evaluated ({:.2}x)",
        evaluated as f64 / input as f64
    );
}
