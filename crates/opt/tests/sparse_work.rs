//! The fixpoint driver's work on pristine generated units (seeds 1000,
//! 1001, ...). The dense round-robin it replaced took two rounds on every
//! pristine JavaDaCapo unit — 800 in all — the second only to find that
//! nothing changed. The driver stops when a round leaves no dirt, and a
//! later round reruns, over the whole graph, only the passes the round
//! before gave work.

use dbds_analysis::AnalysisCache;
use dbds_opt::{optimize, optimize_full};
use dbds_workloads::{generate_graph, Suite};

/// Optimizes `units` pristine units of `suite`, named `{prefix}{i}`, to
/// the fixpoint. Returns the rounds run, the instructions round one
/// visited and those the later rounds visited, summed over the units.
fn work(suite: Suite, prefix: &str, units: u64) -> (usize, u64, u64) {
    let profile = suite.profile();
    let (mut rounds, mut first, mut later) = (0, 0, 0);
    for i in 0..units {
        let unit = generate_graph(&format!("{prefix}{i}"), &profile, 1000 + i);
        let mut once = unit.clone();
        let round_one = optimize(&mut once, &mut AnalysisCache::new(), 1).insts_visited;
        let mut g = unit;
        let stats = optimize_full(&mut g, &mut AnalysisCache::new());
        rounds += stats.rounds;
        first += round_one;
        later += stats.insts_visited - round_one;
    }
    eprintln!(
        "{units} {prefix} units: {rounds} rounds; round one visited {first} instructions, \
         the later rounds {later} ({:.2} %)",
        later as f64 * 100.0 / first as f64
    );
    (rounds, first, later)
}

/// 400 JavaDaCapo units: few need a second round, and in those only
/// canonicalize has work.
#[test]
fn javadacapo_units_need_few_and_cheap_later_rounds() {
    let (rounds, first, later) = work(Suite::JavaDaCapo, "dacapo", 400);
    assert!(
        rounds <= 460,
        "{rounds} rounds over 400 units (the dense round-robin took 800)"
    );
    assert!(
        later * 20 <= first,
        "rounds after the first visited {later} instructions, {:.1} % of the first's {first}",
        later as f64 * 100.0 / first as f64
    );
}

/// 48 Octane units, which fold more branches and so need more rounds.
/// A later round reruns canonicalize (and whatever else has dirt), not
/// every pass: rerunning GVN too would put the later rounds at about
/// 42 % of round one.
#[test]
fn octane_units_rerun_only_the_passes_with_dirt() {
    let (rounds, first, later) = work(Suite::Octane, "octane", 48);
    assert!(rounds <= 93, "{rounds} rounds over 48 units");
    assert!(
        later * 4 <= first,
        "rounds after the first visited {later} instructions, {:.1} % of the first's {first}",
        later as f64 * 100.0 / first as f64
    );
}
