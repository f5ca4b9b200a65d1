//! The sparse fixpoint driver's work on 400 pristine JavaDaCapo-profile
//! units (seeds 1000, 1001, ...). The dense round-robin it replaced took
//! two rounds on every one of them — 800 in all — the second only to
//! find that nothing changed. The driver stops when a round leaves no
//! dirt, and its later rounds revisit only what the round before
//! changed.

use dbds_analysis::AnalysisCache;
use dbds_opt::{optimize, optimize_full};
use dbds_workloads::{generate_graph, Suite};

/// How many units the set holds.
const UNITS: u64 = 400;

#[test]
fn later_rounds_revisit_only_what_the_first_changed() {
    let profile = Suite::JavaDaCapo.profile();
    let (mut rounds, mut first, mut later) = (0, 0, 0);
    for i in 0..UNITS {
        let unit = generate_graph(&format!("dacapo{i}"), &profile, 1000 + i);
        let mut once = unit.clone();
        let round_one = optimize(&mut once, &mut AnalysisCache::new(), 1).insts_visited;
        let mut g = unit;
        let stats = optimize_full(&mut g, &mut AnalysisCache::new());
        rounds += stats.rounds;
        first += round_one;
        later += stats.insts_visited - round_one;
    }
    assert!(
        rounds <= 460,
        "{rounds} rounds over {UNITS} units (the dense round-robin took 800)"
    );
    assert!(
        later * 20 <= first,
        "rounds after the first visited {later} instructions, {:.1} % of the first's {first}",
        later as f64 * 100.0 / first as f64
    );
    eprintln!(
        "{UNITS} units: {rounds} rounds; round one visited {first} instructions, \
         the later rounds {later} ({:.2} %)",
        later as f64 * 100.0 / first as f64
    );
}
