//! The verifier's exact work on generated units (`generate_graph`,
//! seeds 1000, 1001, ...): 48 Octane-profile units compiled at Dbds and
//! 400 JavaDaCapo-profile units compiled at Baseline.
//!
//! - The operand sweep reads every operand slot of every listed
//!   instruction and of every terminator exactly once.
//! - A dominance query is at most one per slot read: same-block uses
//!   need none, cross-block uses and φ inputs one each, answered by an
//!   interval compare instead of a walk up the dominator tree.
//! - The use-list check walks every def-use list once: its chain nodes
//!   are the sum of the lists' lengths.

use dbds::core::par::run_units;
use dbds::core::{compile, DbdsConfig, OptLevel};
use dbds::costmodel::CostModel;
use dbds::ir::{lint_soundness_work, Graph, InstId};
use dbds::workloads::{generate_graph, Suite};

/// Compiles the units, verifies each with its work counted, pins the
/// three counts per unit and returns their totals plus the live
/// instructions.
fn verify_work(suite: Suite, units: u64, level: OptLevel) -> [u64; 4] {
    let profile = suite.profile();
    let units: Vec<Graph> = (0..units)
        .map(|i| generate_graph(&format!("{}{i}", suite.id()), &profile, 1000 + i))
        .collect();
    let (model, cfg) = (CostModel::new(), DbdsConfig::default());
    let per_unit = run_units(2, &units, |_, unit| {
        let mut g = unit.clone();
        compile(&mut g, &model, level, &cfg);
        let (report, work) = lint_soundness_work(&g);
        assert!(report.is_clean(), "{}:\n{report}", g.name);
        let mut slots = 0u64;
        for b in g.blocks() {
            for &i in g.block_insts(b) {
                g.inst(i).for_each_input(|_| slots += 1);
            }
            g.terminator(b).for_each_input(|_| slots += 1);
        }
        let listed: u64 = (0..g.inst_count())
            .map(|v| g.uses(InstId::from_index(v)).count() as u64)
            .sum();
        assert_eq!(work.slots_read, slots, "{}: each slot once", g.name);
        assert!(
            work.dominance_queries <= work.slots_read,
            "{}: {} queries over {} slots",
            g.name,
            work.dominance_queries,
            work.slots_read
        );
        assert_eq!(work.chain_nodes, listed, "{}: each list once", g.name);
        [
            work.slots_read,
            work.dominance_queries,
            work.chain_nodes,
            g.live_inst_count() as u64,
        ]
    });
    let mut total = [0u64; 4];
    for counts in per_unit {
        for (t, c) in total.iter_mut().zip(counts) {
            *t += c;
        }
    }
    eprintln!(
        "{} units of {}: {} live instructions, {} slots read, {} dominance queries, \
         {} chain nodes",
        units.len(),
        suite.id(),
        total[3],
        total[0],
        total[1],
        total[2]
    );
    total
}

#[test]
fn octane_units_at_dbds_read_each_slot_and_list_once() {
    verify_work(Suite::Octane, 48, OptLevel::Dbds);
}

#[test]
fn java_dacapo_units_at_baseline_read_each_slot_and_list_once() {
    verify_work(Suite::JavaDaCapo, 400, OptLevel::Baseline);
}
