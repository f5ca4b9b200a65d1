//! The pooled walk tables cannot change a result.
//!
//! Canonicalize, GVN, the simulation walk and the prediction audit
//! borrow their tables from one scratch per thread (`dbds_opt::Scratch`).
//! A unit compiled on a fresh thread, on a thread that has just compiled
//! bigger units, and on a thread where a panic unwound out of
//! canonicalize while it held the scratch must come out the same: the
//! printed graph and every deterministic `PhaseStats` counter, at
//! Baseline, Dbds and Dupalot.

use dbds::core::{compile, DbdsConfig, OptLevel, PhaseStats};
use dbds::costmodel::CostModel;
use dbds::ir::{print_graph, BinOp, Graph, Inst, InstId, Type};
use dbds::workloads::{generate_graph, Suite};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The unit all three compiles must agree on.
fn unit_b() -> Graph {
    generate_graph("b", &Suite::JavaDaCapo.profile(), 1000)
}

/// Units several times the size of [`unit_b`], which grow every pooled
/// table past what it needs.
fn bigger_units() -> Vec<Graph> {
    let profile = Suite::Octane.profile();
    (0..3)
        .map(|i| generate_graph(&format!("big{i}"), &profile, 1000 + i))
        .collect()
}

/// A unit whose canonicalize panics part way through its walk: an
/// instruction in its last reachable block names a value outside the
/// arena, so evaluating it indexes past the end — after the walk has
/// filled the pooled environment with the facts of the blocks before.
fn poisoned_unit() -> Graph {
    let mut g = generate_graph("poisoned", &Suite::Octane.profile(), 1003);
    let last = *g.reachable_blocks().last().expect("a reachable block");
    let param = g.block_insts(g.entry())[0];
    let dangling = InstId::from_index(g.inst_count() + 1_000);
    let inst = Inst::Binary {
        op: BinOp::Add,
        lhs: param,
        rhs: dangling,
    };
    g.append_inst(last, inst, Type::Int);
    g
}

/// What a compile produced: the printed graph and the deterministic
/// counters (every `PhaseStats` field but the timers).
fn outcome(g: &Graph, s: &PhaseStats) -> String {
    let mut opportunities: Vec<String> = s
        .opportunities
        .iter()
        .map(|(kind, n)| format!("{kind:?}={n}"))
        .collect();
    opportunities.sort();
    format!(
        "iterations {} candidates {} duplications {} opportunities {opportunities:?} \
         size {} -> {} work {} undo {} {} {} cache {:?} mispredictions {} stale {} \
         splits {} {} frontier {} audit {} {} {} opt {} {} bailouts {:?}\n{}",
        s.iterations,
        s.candidates,
        s.duplications,
        s.initial_size,
        s.final_size,
        s.work,
        s.undo_edits,
        s.undo_rollbacks,
        s.undo_peak,
        s.cache,
        s.mispredictions,
        s.stale_skips,
        s.split_candidates,
        s.split_applied,
        s.frontier_violations,
        s.audit_runs,
        s.audit_blocks_replayed,
        s.audit_insts_evaluated,
        s.opt_rounds,
        s.opt_insts_visited,
        s.bailouts,
        print_graph(g)
    )
}

fn compile_b(level: OptLevel) -> String {
    let (model, cfg) = (CostModel::new(), DbdsConfig::default());
    let mut g = unit_b();
    let stats = compile(&mut g, &model, level, &cfg);
    outcome(&g, &stats)
}

/// Runs `f` on a thread of its own, whose pool starts empty.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f)
        .join()
        .expect("the compiling thread panicked")
}

fn warm_up(level: OptLevel) {
    let (model, cfg) = (CostModel::new(), DbdsConfig::default());
    for mut g in bigger_units() {
        compile(&mut g, &model, level, &cfg);
    }
}

/// Compiles the poisoned unit; returns whether its panic was seen,
/// either caught by the phase's own guard (a recorded bailout) or
/// unwinding out of `compile`.
fn compile_poisoned(level: OptLevel) -> bool {
    let (model, cfg) = (CostModel::new(), DbdsConfig::default());
    let mut g = poisoned_unit();
    match catch_unwind(AssertUnwindSafe(|| compile(&mut g, &model, level, &cfg))) {
        Err(_) => true,
        Ok(stats) => !stats.bailouts.is_empty(),
    }
}

fn pool_state_never_changes(level: OptLevel) {
    let fresh = on_fresh_thread(move || compile_b(level));
    let after_bigger = on_fresh_thread(move || {
        warm_up(level);
        compile_b(level)
    });
    assert!(
        after_bigger == fresh,
        "{level:?}: compiling after bigger units changed the result"
    );
    let (panicked, after_panic) = on_fresh_thread(move || {
        warm_up(level);
        let panicked = compile_poisoned(level);
        (panicked, compile_b(level))
    });
    assert!(panicked, "{level:?}: the poisoned unit did not panic");
    assert!(
        after_panic == fresh,
        "{level:?}: compiling after a panic in canonicalize changed the result"
    );
}

#[test]
fn pool_state_never_changes_a_baseline_result() {
    pool_state_never_changes(OptLevel::Baseline);
}

#[test]
fn pool_state_never_changes_a_dbds_result() {
    pool_state_never_changes(OptLevel::Dbds);
}

#[test]
fn pool_state_never_changes_a_dupalot_result() {
    pool_state_never_changes(OptLevel::Dupalot);
}
