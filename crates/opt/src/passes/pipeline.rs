//! The optimization pipeline: canonicalize → GVN → scalar-replace → DCE
//! → CFG simplify, iterated to a fixpoint by one driver.
//!
//! This is the "set of selected optimizations" the paper's backtracking
//! baseline applies after every tentative duplication (Algorithm 1), the
//! Baseline configuration's whole optimizer, and the cleanup the DBDS
//! optimization tier runs between and after its duplication iterations.
//!
//! The first round runs every pass over the whole graph. Each pass
//! reports the changes another pass could react to — its *dirt*, see
//! `dirt.rs` — and a later round runs a pass, again over the whole graph,
//! only when the dirt made after that pass last ran gives it work:
//! canonicalize and GVN on a dirty block or a cut edge, scalar
//! replacement on a dirty allocation it can dissolve, DCE on a dead
//! value, a new dead instruction or a cut edge, and CFG simplification
//! on a dirty block it applies to. A pass that runs, runs whole; a pass
//! that is skipped would have changed nothing. A round that leaves no
//! dirt is the fixpoint; no confirming round runs. Under
//! `debug_assertions` every call is checked against the dense
//! round-robin it replaces (whole-graph rounds until one changes
//! nothing): the two graphs must print identically.

use crate::passes::canonicalize::{self, CanonStats};
use crate::passes::dce;
use crate::passes::dirt::Dirt;
use crate::passes::gvn;
use crate::passes::scalar_replace;
use crate::passes::simplify;
use dbds_analysis::AnalysisCache;
use dbds_ir::{Graph, InstId};

/// The round limit of [`optimize_full`]. Termination of the rounds is not
/// proven — two rewrites could in principle keep undoing each other — so
/// this caps such a cycle. No generated unit of any suite comes near it
/// (they converge within three rounds); under `debug_assertions` reaching
/// it with dirt left fails an assertion.
pub const MAX_ROUNDS: usize = 10;

/// Aggregate statistics of an optimization run.
#[derive(Clone, Debug, Default)]
pub struct OptimizeStats {
    /// Rounds run: the first, whole-graph one plus each round that had
    /// dirt to work on.
    pub rounds: usize,
    /// Accumulated canonicalization statistics.
    pub canon: CanonStats,
    /// Allocations removed by scalar replacement.
    pub scalar_replaced: usize,
    /// Whether anything changed at all.
    pub changed: bool,
    /// Instructions the passes looked at: those of the blocks
    /// canonicalize and GVN walked, those scalar replacement scanned for
    /// allocations, those DCE tested for deadness, and the φs CFG
    /// simplification examined. Deterministic.
    pub insts_visited: u64,
}

/// Optimizes `g` to a fixpoint with the §2 optimization set.
pub fn optimize_full(g: &mut Graph, cache: &mut AnalysisCache) -> OptimizeStats {
    optimize(g, cache, MAX_ROUNDS)
}

/// Optimizes `g` for at most `max_rounds` rounds, stopping earlier at the
/// fixpoint. One round is the cheap *partial* cleanup the DBDS phase runs
/// between duplication iterations; [`optimize_full`] is the fixpoint.
///
/// # Panics
///
/// With `debug_assertions`, panics with a message that starts with
/// [`DIVERGED`] if the result does not print exactly as
/// [`dense_reference`]'s on a clone of the input.
pub fn optimize(g: &mut Graph, cache: &mut AnalysisCache, max_rounds: usize) -> OptimizeStats {
    #[cfg(debug_assertions)]
    let dense = dbds_ir::print_graph(&dense_reference(g, max_rounds).0);
    let stats = Driver::default().run(g, cache, max_rounds);
    #[cfg(debug_assertions)]
    {
        let sparse = dbds_ir::print_graph(g);
        if sparse != dense {
            panic!(
                "{DIVERGED} on {}\n--- sparse:\n{sparse}--- dense:\n{dense}",
                g.name
            );
        }
    }
    stats
}

/// How the message of the debug oracle's panic in [`optimize`] starts. A
/// divergence is a bug, not a fault to recover from: the guardrails that
/// turn panics into bailouts raise it again.
pub const DIVERGED: &str = "the sparse optimizer diverged from the dense round-robin";

/// The reference [`optimize`] is held to: rounds of all five passes over
/// the whole graph, on a clone of `g` with its own analysis cache, until
/// one round changes nothing or `max_rounds` have run. Returns the result
/// and the rounds run. The debug oracle and the differential tests call
/// it; nothing else should.
#[doc(hidden)]
pub fn dense_reference(g: &Graph, max_rounds: usize) -> (Graph, usize) {
    use crate::{
        canonicalize, global_value_numbering, remove_dead_code, scalar_replace, simplify_cfg,
    };
    let mut g = g.clone();
    let mut cache = AnalysisCache::new();
    let mut rounds = 0;
    while rounds < max_rounds {
        rounds += 1;
        let c = canonicalize(&mut g, &mut cache);
        let merged = global_value_numbering(&mut g, &mut cache);
        let replaced = scalar_replace(&mut g);
        let dce = remove_dead_code(&mut g);
        let simplified = simplify_cfg(&mut g);
        if !(c.changed() || merged > 0 || replaced > 0 || dce || simplified) {
            break;
        }
    }
    (g, rounds)
}

/// The fixpoint driver's state across rounds.
#[derive(Default)]
struct Driver {
    dirt: Dirt,
    /// [`Dirt::cuts`] at canonicalize's, GVN's and DCE's last runs.
    canon_cuts: u64,
    gvn_cuts: u64,
    dce_cuts: u64,
    /// The instruction arena's length at DCE's last run: later
    /// instructions are new and may be unused.
    dce_arena: usize,
}

impl Driver {
    fn run(
        &mut self,
        g: &mut Graph,
        cache: &mut AnalysisCache,
        max_rounds: usize,
    ) -> OptimizeStats {
        let mut stats = OptimizeStats::default();
        for round in 0..max_rounds {
            let whole = round == 0;
            if !whole && self.converged(g) {
                return stats;
            }
            stats.rounds = round + 1;
            stats.changed |= self.round(g, cache, &mut stats, whole);
        }
        debug_assert!(
            max_rounds < MAX_ROUNDS || self.converged(g),
            "{} did not converge in {MAX_ROUNDS} optimizer rounds",
            g.name
        );
        stats
    }

    /// One round: each pass over the whole graph, when `whole` or when
    /// the dirt made since it last ran gives it work (skipped
    /// otherwise). Returns whether anything changed.
    fn round(
        &mut self,
        g: &mut Graph,
        cache: &mut AnalysisCache,
        stats: &mut OptimizeStats,
        whole: bool,
    ) -> bool {
        let mut changed = false;
        let dirt = &mut self.dirt;

        let dirty = !std::mem::take(&mut dirt.canon).is_empty();
        if whole || dirty || dirt.cuts != self.canon_cuts {
            self.canon_cuts = dirt.cuts;
            let dt = cache.domtree(g);
            let mut canon = CanonStats::default();
            stats.insts_visited += canonicalize::run(g, &dt, dirt, &mut canon);
            changed |= canon.changed();
            stats.canon.merge(&canon);
        }

        let dirty = !std::mem::take(&mut dirt.gvn).is_empty();
        if whole || dirty || dirt.cuts != self.gvn_cuts {
            self.gvn_cuts = dirt.cuts;
            let dt = cache.domtree(g);
            let (merged, visited) = gvn::run(g, &dt, dirt);
            stats.insts_visited += visited;
            changed |= merged > 0;
        }

        let allocs = std::mem::take(&mut dirt.allocs);
        if whole || allocs.iter().any(|&a| scalar_replace::dissolvable(g, a)) {
            let (replaced, visited) = scalar_replace::run(g, dirt);
            stats.insts_visited += visited;
            stats.scalar_replaced += replaced;
            changed |= replaced > 0;
        }

        let mut seeds = std::mem::take(&mut dirt.dropped);
        seeds.extend((self.dce_arena..g.inst_count()).map(InstId::from_index));
        let cut = dirt.cuts != self.dce_cuts;
        if whole || cut || seeds.iter().any(|&v| dce::is_dead(g, v)) {
            let (dce, visited) = dce::run(g, dirt);
            self.dce_cuts = dirt.cuts;
            self.dce_arena = g.inst_count();
            stats.insts_visited += visited;
            changed |= dce;
        }

        let blocks = std::mem::take(&mut dirt.simplify);
        if whole || blocks.iter().any(|b| simplify::applies(g, b)) {
            let (simplified, visited) = simplify::run(g, dirt);
            stats.insts_visited += visited;
            changed |= simplified;
        }
        changed
    }

    /// Is there no dirt left that could change the graph? Drops the
    /// entries that cannot: allocations that still escape, values still
    /// used, blocks `simplify_cfg` would leave alone — each could only
    /// become actionable through a change that reports it again.
    fn converged(&mut self, g: &Graph) -> bool {
        let dirt = &mut self.dirt;
        dirt.allocs.retain(|&a| scalar_replace::dissolvable(g, a));
        dirt.dropped.retain(|&v| dce::is_dead(g, v));
        let mut fresh = (self.dce_arena..g.inst_count()).map(InstId::from_index);
        if !fresh.any(|i| dce::is_dead(g, i)) {
            self.dce_arena = g.inst_count();
        }
        dirt.simplify.retain(|b| simplify::applies(g, b));
        dirt.canon.is_empty()
            && dirt.gvn.is_empty()
            && dirt.simplify.is_empty()
            && dirt.allocs.is_empty()
            && dirt.dropped.is_empty()
            && self.dce_arena == g.inst_count()
            && dirt.cuts == self.canon_cuts
            && dirt.cuts == self.gvn_cuts
            && dirt.cuts == self.dce_cuts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{execute, verify, ClassTable, CmpOp, GraphBuilder, Type, Value};
    use std::sync::Arc;

    #[test]
    fn pipeline_reaches_fixpoint_on_figure1_after_duplication_shape() {
        // The already-duplicated Figure 1b: two straightline returns.
        let mut b = GraphBuilder::new("f1b", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        let zero = b.iconst(0);
        let two = b.iconst(2);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf) = (b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let s1 = b.add(two, x);
        b.ret(Some(s1));
        b.switch_to(bf);
        let s2 = b.add(two, zero); // constant-folds to 2 (Figure 1c)
        b.ret(Some(s2));
        let mut g = b.finish();
        let stats = optimize_full(&mut g, &mut AnalysisCache::new());
        assert!(stats.changed);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
        assert_eq!(execute(&g, &[Value::Int(-1)]).outcome, Ok(Value::Int(2)));
        // The false branch now returns the constant 2 directly.
        assert!(matches!(
            g.terminator(bf),
            dbds_ir::Terminator::Return { value: Some(v) }
                if matches!(g.inst(*v), dbds_ir::Inst::Const(dbds_ir::ConstValue::Int(2)))
        ));
    }

    #[test]
    fn chained_opportunities_need_multiple_rounds() {
        // Scalar replacement exposes constants that canonicalization folds
        // in the next round, which lets DCE strip the rest.
        let mut t = ClassTable::new();
        let cls = t.add_class("Box");
        let fv = t.add_field(cls, "v", Type::Int);
        let mut b = GraphBuilder::new("ch", &[], Arc::new(t));
        let p = b.new_object(cls);
        let five = b.iconst(5);
        b.store(p, fv, five);
        let l = b.load(p, fv);
        let three = b.iconst(3);
        let s = b.add(l, three); // 8 after folding
        b.ret(Some(s));
        let mut g = b.finish();
        let stats = optimize_full(&mut g, &mut AnalysisCache::new());
        assert_eq!(stats.scalar_replaced, 1);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[]).outcome, Ok(Value::Int(8)));
        // Everything folded to `return 8`.
        assert_eq!(g.reachable_blocks().len(), 1);
        let kinds: Vec<_> = g
            .block_insts(g.entry())
            .iter()
            .map(|&i| g.inst(i).kind())
            .collect();
        assert!(kinds.iter().all(|k| *k == dbds_ir::InstKind::Const));
    }

    #[test]
    fn idempotent_on_optimized_graph() {
        let mut b = GraphBuilder::new("idem", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        b.ret(Some(x));
        let mut g = b.finish();
        let s1 = optimize_full(&mut g, &mut AnalysisCache::new());
        assert!(!s1.changed);
        assert_eq!(s1.rounds, 1);
    }
}
