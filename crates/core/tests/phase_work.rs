//! The DBDS phase's per-duplication and optimizer work on 48 pristine
//! Octane-profile units at Dbds (seeds 1000, 1001, ...).
//!
//! - The phase runs no confirming optimizer round: a round between two
//!   iterations runs only when another iteration follows, so the last
//!   iteration's cleanup is the end fixpoint's first round. With a round
//!   after every iteration that duplicated, the phase's optimizer calls
//!   visited 750 675 instructions on these units; without, 632 877.
//! - The dominance relation follows each duplication by an in-place
//!   patch of gap-spaced labels: it writes the labels of the copy and the
//!   merge, and of a whole range only when a gap runs out. Renumbering
//!   the tree after every patch wrote 474 blocks' labels per patch on
//!   these units.

use dbds_core::par::run_units;
use dbds_core::{compile, DbdsConfig, OptLevel};
use dbds_costmodel::CostModel;
use dbds_ir::Graph;
use dbds_workloads::{generate_graph, Suite};

#[test]
fn octane_units_pay_no_confirming_round_and_no_renumbering() {
    let profile = Suite::Octane.profile();
    let units: Vec<Graph> = (0..48)
        .map(|i| generate_graph(&format!("octane{i}"), &profile, 1000 + i))
        .collect();
    let model = CostModel::new();
    let cfg = DbdsConfig::default();
    let per_unit = run_units(2, &units, |_, unit| {
        let mut g = unit.clone();
        let s = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        [
            s.opt_insts_visited,
            s.duplications as u64,
            s.cache.patches,
            s.cache.dom_labels_written,
        ]
    });
    let total = |k: usize| per_unit.iter().map(|c| c[k]).sum::<u64>();
    let (visited, duplications, patches, labels) = (total(0), total(1), total(2), total(3));
    eprintln!(
        "48 octane units: {visited} optimizer instructions visited; {duplications} \
         duplications, {patches} patches, {labels} labels written ({:.2} per patch)",
        labels as f64 / patches as f64
    );
    assert!(
        visited <= 640_000,
        "the phase's optimizer calls visited {visited} instructions"
    );
    assert_eq!(patches, duplications, "every duplication is patched");
    assert!(
        labels <= 47 * patches,
        "{labels} labels written over {patches} patches"
    );
}
