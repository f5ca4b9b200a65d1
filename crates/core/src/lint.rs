//! Cost/trade-off sanity lints over simulation results.
//!
//! The trade-off tier's total order (`probability × cycles_saved` under
//! `total_cmp`) and its saturating size accounting assume the simulation
//! tier hands it finite estimates and that accepting candidates never
//! drives the accrued code size negative. These lints turn those
//! assumptions into checked invariants: [`lint_simulation`] audits a
//! batch of [`SimulationResult`]s the way `dbds_ir::lint` audits a
//! graph, emitting [`LintId::NonFiniteBenefit`] and
//! [`LintId::NegativeAccruedSize`] diagnostics for the harness's
//! `figures --lint` sweep and the CI gate.
//!
//! [`lint_frontier`] is the post-duplication structural check
//! ([`LintId::FrontierViolation`]): the fresh copy's and its source
//! merge's dominance frontiers must match a definition-based
//! recomputation over the forward edges, and — whenever neither block
//! dominates the other — must be equal to each other. On a graph with
//! consistent edge mirrors and a correct dominance relation it reduces
//! to the O(1) tail-copy shape check [`lint_tail_copy`], which the phase
//! driver runs after every applied duplication, rolling the transaction
//! back on a violation; at the round boundary the relation the round
//! patched along is held, idom by idom, to a from-scratch tree
//! ([`LintId::StaleAnalysis`]).

use crate::simulation::SimulationResult;
use dbds_analysis::{DomFrontiers, DomTree, Dominators};
use dbds_ir::lint::{Diagnostic, LintId};
use dbds_ir::{BlockId, Graph};

/// Audits a batch of simulation results for cost-model sanity.
///
/// Emits:
///
/// - [`LintId::NonFiniteBenefit`] for any result whose `probability` is
///   non-finite or negative, or whose `cycles_saved` (total or
///   per-opportunity) is non-finite — either would poison the trade-off
///   tier's ranking order.
/// - [`LintId::NegativeAccruedSize`] when accepting the results in
///   order would drive the accrued code size (starting from
///   `current_size`) below zero — the saturating arithmetic in the
///   trade-off tier would silently clamp exactly here.
pub fn lint_simulation(results: &[SimulationResult], current_size: u64) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for r in results {
        if !r.probability.is_finite() || r.probability < 0.0 {
            out.push(Diagnostic::new(
                LintId::NonFiniteBenefit,
                Some(r.merge),
                None,
                format!(
                    "candidate ({} -> {}) has unusable probability {}",
                    r.pred, r.merge, r.probability
                ),
            ));
        }
        if !r.cycles_saved.is_finite() {
            out.push(Diagnostic::new(
                LintId::NonFiniteBenefit,
                Some(r.merge),
                None,
                format!(
                    "candidate ({} -> {}) has non-finite cycles_saved {}",
                    r.pred, r.merge, r.cycles_saved
                ),
            ));
        }
        for o in &r.opportunities {
            if !o.cycles_saved.is_finite() {
                out.push(Diagnostic::new(
                    LintId::NonFiniteBenefit,
                    Some(r.merge),
                    Some(o.inst),
                    format!(
                        "opportunity {:?} at {} has non-finite cycles_saved {}",
                        o.kind, o.inst, o.cycles_saved
                    ),
                ));
            }
        }
    }
    // Accrued-size replay: apply every candidate's size delta in order
    // on an i128 (no saturation) and flag the first dip below zero.
    let mut accrued = i128::from(current_size);
    for r in results {
        accrued += i128::from(r.size_cost);
        if accrued < 0 {
            out.push(Diagnostic::new(
                LintId::NegativeAccruedSize,
                Some(r.merge),
                None,
                format!(
                    "accepting ({} -> {}) drives accrued size to {accrued}",
                    r.pred, r.merge
                ),
            ));
            break;
        }
    }
    out
}

/// The dominance frontier of `b` recomputed straight from the
/// definition — `DF(b) = { y : ∃ q ∈ preds(y), b dom q, b !sdom y }` —
/// but discovered by walking the *forward* edges of every block `b`
/// dominates (its subtree in the dominator tree). The Cytron-style
/// [`DomFrontiers`] construction walks idom chains from each join's
/// *predecessor* list, so comparing the two cross-checks the pred/succ
/// mirrors the CFG repair must keep in sync. Like the join-driven
/// construction, only genuine joins (two or more predecessors) enter a
/// frontier.
fn definition_frontier(g: &Graph, dt: &Dominators, b: BlockId) -> Vec<BlockId> {
    let mut out = Vec::new();
    for &q in dt.subtree(b) {
        for y in g.succs(q) {
            if g.preds(y).len() >= 2 && !dt.strictly_dominates(b, y) {
                out.push(y);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn frontier_violation(copy: BlockId, message: String) -> Diagnostic {
    Diagnostic::new(LintId::FrontierViolation, Some(copy), None, message)
}

/// Layer 1 of [`lint_frontier`] for one block: the join-driven frontier
/// `joins` (from predecessor lists) against the forward-edge
/// [`definition_frontier`]. Diagnostics anchor to `copy`.
fn frontier_consistency(
    g: &Graph,
    dt: &Dominators,
    copy: BlockId,
    b: BlockId,
    joins: &[BlockId],
) -> Option<Diagnostic> {
    let reference = definition_frontier(g, dt, b);
    (reference != joins).then(|| {
        frontier_violation(
            copy,
            format!(
                "frontier-violation: {b} has dominance frontier {joins:?} but the edge mirrors say {reference:?}"
            ),
        )
    })
}

/// The post-duplication dominance-frontier invariant
/// ([`LintId::FrontierViolation`]), in two layers:
///
/// 1. **Consistency**: for both the fresh copy and its source merge,
///    the [`DomFrontiers`] result (built from predecessor lists) must
///    match [`definition_frontier`] (built from successor lists). A
///    divergence means the CFG/SSA repair left the edge mirrors or the
///    dominator inputs inconsistent.
/// 2. **Equality**: immediately after a tail duplication the copy's
///    terminator is a verbatim copy of the merge's, so when *neither
///    block dominates the other* each dominates only itself and both
///    frontiers are exactly the shared successor set — they must be
///    equal. When one dominates the other (duplicating a loop header
///    into an in-loop predecessor re-roots the loop's dominance), the
///    frontiers legitimately diverge and only layer 1 applies.
///
/// Returns `None` when the invariant holds, and also when `merge` has
/// become unreachable (it then has no frontier to compare; a real
/// duplication never strands a reachable merge, so that case only
/// arises on hand-mutated graphs).
///
/// This is the whole-graph reference form: it builds the dominator
/// tree and the full frontier table from scratch. The phase driver's
/// per-duplication check is [`lint_tail_copy`], which this reduces to.
pub fn lint_frontier(g: &Graph, copy: BlockId, merge: BlockId) -> Option<Diagnostic> {
    let dt = DomTree::compute(g);
    // An unreachable merge has an empty frontier by construction, not
    // by defect.
    if !dt.is_reachable(merge) {
        return None;
    }
    let df = DomFrontiers::compute(g, &dt);
    let (df_copy, df_merge) = (df.df(copy), df.df(merge));
    if let Some(d) = frontier_consistency(g, &dt, copy, copy, df_copy)
        .or_else(|| frontier_consistency(g, &dt, copy, merge, df_merge))
    {
        return Some(d);
    }
    if !dt.dominates(copy, merge) && !dt.dominates(merge, copy) && df_copy != df_merge {
        return Some(frontier_violation(
            copy,
            format!(
                "frontier-violation: copy {copy} of {merge} has dominance frontier {df_copy:?} but the merge has {df_merge:?}"
            ),
        ));
    }
    None
}

/// The per-duplication frontier check, in O(1): `copy` must have the
/// shape of a tail copy of `merge` taken over the edge from `pred` —
/// `preds(copy) == [pred]` and `succs(copy) == succs(merge)`, as ordered
/// lists ([`LintId::FrontierViolation`] otherwise).
///
/// It is what [`lint_frontier`] reduces to on a graph whose pred/succ
/// mirrors are consistent (the round boundary's whole-graph checkpoint)
/// and whose dominance relation is right (its relation compare): layer
/// 1 then compares two constructions of one set and cannot fail, and
/// layer 2 is set equality of the two successor lists. So it accepts
/// only what both layers accept, and is strictly stronger — it rejects
/// swapped branch targets, and it also applies when one block dominates
/// the other. A real tail duplication always passes: the copy's
/// terminator is a substituted clone of the merge's.
pub fn lint_tail_copy(
    g: &Graph,
    pred: BlockId,
    merge: BlockId,
    copy: BlockId,
) -> Option<Diagnostic> {
    let preds = g.preds(copy);
    if preds != [pred] {
        return Some(frontier_violation(
            copy,
            format!("frontier-violation: copy {copy} of {merge} has predecessors {preds:?}, not [{pred}]"),
        ));
    }
    let (succs_copy, succs_merge) = (g.succs(copy), g.succs(merge));
    (*succs_copy != *succs_merge).then(|| {
        frontier_violation(
            copy,
            format!(
                "frontier-violation: copy {copy} of {merge} branches to {succs_copy:?} but the merge to {succs_merge:?}"
            ),
        )
    })
}

/// The whole-graph reference form of a patched dominance relation: a
/// from-scratch build of `g` compared with it on every block. The first
/// block whose idom or reachability differs is a
/// [`LintId::StaleAnalysis`] finding. It is oracle 6 after every
/// duplication in debug builds, and the round boundary's check of the
/// relation the round ended on in every build — after every duplication
/// of a replayed round.
pub(crate) fn lint_relation(g: &Graph, relation: &Dominators) -> Option<Diagnostic> {
    let (b, patched, fresh) = relation.divergences(&DomTree::compute(g)).next()?;
    Some(Diagnostic::new(
        LintId::StaleAnalysis,
        Some(b),
        None,
        format!(
            "stale-analysis: the patched dominance relation has idom({b}) = {patched:?}, a from-scratch build {fresh:?}"
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{CandidateKind, SimulationResult};
    use dbds_ir::BlockId;

    fn result(probability: f64, cycles_saved: f64, size_cost: i64) -> SimulationResult {
        SimulationResult {
            pred: BlockId(1),
            merge: BlockId(2),
            path: vec![BlockId(2)],
            probability,
            cycles_saved,
            size_cost,
            opportunities: Vec::new(),
            kind: CandidateKind::MergeDup,
        }
    }

    #[test]
    fn clean_results_produce_no_diagnostics() {
        let results = vec![result(0.5, 31.0, 4), result(0.5, 0.0, 2)];
        assert!(lint_simulation(&results, 100).is_empty());
    }

    #[test]
    fn non_finite_probability_is_flagged() {
        // Fail-first for LintId::NonFiniteBenefit.
        for bad in [f64::NAN, f64::INFINITY, -0.25] {
            let results = vec![result(bad, 1.0, 0)];
            let out = lint_simulation(&results, 100);
            assert!(
                out.iter().any(|d| d.lint == LintId::NonFiniteBenefit),
                "probability {bad} must be flagged"
            );
        }
    }

    #[test]
    fn non_finite_cycles_saved_is_flagged() {
        let results = vec![result(0.5, f64::NAN, 0)];
        let out = lint_simulation(&results, 100);
        assert!(out.iter().any(|d| d.lint == LintId::NonFiniteBenefit));
    }

    fn diamond() -> (Graph, BlockId, BlockId, BlockId) {
        use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
        let mut b = GraphBuilder::new("d", &[Type::Int], std::sync::Arc::new(ClassTable::new()));
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![x, zero], Type::Int);
        let two = b.iconst(2);
        let sum = b.add(two, phi);
        b.ret(Some(sum));
        (b.finish(), bt, bf, bm)
    }

    #[test]
    fn frontier_violation_fires_on_mismatched_pair() {
        // Fail-first for LintId::FrontierViolation: bt (frontier {bm})
        // and bm (frontier {}) are not a copy/merge pair, so the check
        // must flag them.
        let (g, bt, _bf, bm) = diamond();
        let d = lint_frontier(&g, bt, bm).expect("mismatched frontiers must be flagged");
        assert_eq!(d.lint, LintId::FrontierViolation);
        assert!(d.message.starts_with("frontier-violation"), "{}", d.message);
    }

    #[test]
    fn genuine_duplication_satisfies_the_frontier_invariant() {
        let (mut g, bt, _bf, bm) = diamond();
        let dup = crate::transform::duplicate(&mut g, bt, bm);
        assert!(lint_frontier(&g, dup.copy, dup.merge).is_none());
        assert!(lint_tail_copy(&g, dup.pred, dup.merge, dup.copy).is_none());
    }

    /// Figure 1's diamond whose merge ends in a branch on its φ, already
    /// duplicated into the true side: `(graph, duplication, then, else)`.
    fn duplicated_branching_merge() -> (Graph, crate::transform::Duplication, BlockId, BlockId) {
        use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
        let mut b = GraphBuilder::new("b", &[Type::Int], std::sync::Arc::new(ClassTable::new()));
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm, b1, b2) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![x, zero], Type::Int);
        let c2 = b.cmp(CmpOp::Gt, phi, zero);
        b.branch(c2, b1, b2, 0.5);
        b.switch_to(b1);
        b.ret(Some(zero));
        b.switch_to(b2);
        b.ret(Some(x));
        let mut g = b.finish();
        let dup = crate::transform::duplicate(&mut g, bt, bm);
        assert!(lint_tail_copy(&g, dup.pred, dup.merge, dup.copy).is_none());
        (g, dup, b1, b2)
    }

    #[test]
    fn tail_copy_check_rejects_swapped_branch_targets() {
        // Fail-first for the O(1) frontier check: the copy's branch
        // targets swapped. The graph still verifies and both frontiers
        // are still {b1, b2}, so the frontier-set check accepts it; the
        // copy is no tail copy of the merge any more.
        let (mut g, dup, b1, b2) = duplicated_branching_merge();
        let dbds_ir::Terminator::Branch {
            cond, prob_then, ..
        } = *g.terminator(dup.copy)
        else {
            panic!("the copy ends in the merge's branch");
        };
        g.set_terminator(
            dup.copy,
            dbds_ir::Terminator::Branch {
                cond,
                then_bb: b2,
                else_bb: b1,
                prob_then,
            },
        );
        dbds_ir::verify(&g).expect("a swap is structurally clean");
        assert_eq!(lint_frontier(&g, dup.copy, dup.merge), None);
        let d = lint_tail_copy(&g, dup.pred, dup.merge, dup.copy).expect("swapped targets");
        assert_eq!(
            (d.lint, d.block),
            (LintId::FrontierViolation, Some(dup.copy))
        );
        assert!(
            d.message.starts_with("frontier-violation:"),
            "{}",
            d.message
        );
    }

    #[test]
    fn tail_copy_check_rejects_an_extra_predecessor() {
        let (mut g, dup, b1, _b2) = duplicated_branching_merge();
        g.set_terminator(b1, dbds_ir::Terminator::Jump { target: dup.copy });
        let d = lint_tail_copy(&g, dup.pred, dup.merge, dup.copy).expect("two predecessors");
        assert_eq!(
            (d.lint, d.block),
            (LintId::FrontierViolation, Some(dup.copy))
        );
        assert!(d.message.contains("has predecessors"), "{}", d.message);
    }

    #[test]
    fn loop_header_duplication_is_exempt_from_the_equality_layer() {
        // Duplicating a loop header into its back-edge predecessor
        // re-roots the loop's dominance: the copy and the old header end
        // up with genuinely different frontiers, and only the
        // consistency layer applies.
        use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
        let mut b = GraphBuilder::new("l", &[Type::Int], std::sync::Arc::new(ClassTable::new()));
        let n = b.param(0);
        let zero = b.iconst(0);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(vec![zero, zero], Type::Int);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit, 0.9);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut g = b.finish();
        let dup = crate::transform::duplicate(&mut g, body, header);
        assert!(lint_frontier(&g, dup.copy, dup.merge).is_none());
        assert!(lint_tail_copy(&g, dup.pred, dup.merge, dup.copy).is_none());
    }

    #[test]
    fn unreachable_merge_is_exempt() {
        // Orphan block with a diverging frontier: reachability exempts it.
        let (mut g, bt, _bf, _bm) = diamond();
        let orphan = g.add_block();
        g.set_terminator(orphan, dbds_ir::Terminator::Return { value: None });
        assert!(lint_frontier(&g, bt, orphan).is_none());
    }

    #[test]
    fn boundary_holds_the_rounds_relation_to_a_from_scratch_tree() {
        // Fail-first for the LintId::StaleAnalysis boundary rejection.
        let (mut g, bt, _bf, bm) = diamond();
        let before = DomTree::compute(&g);
        let dup = crate::transform::duplicate(&mut g, bt, bm);
        let patched = before
            .after_duplication(&g, dup.pred, dup.merge, dup.copy)
            .expect("a plain tail duplication is patched");
        assert_eq!(lint_relation(&g, &patched), None);

        // The relation of the graph before the duplication.
        let d = lint_relation(&g, &before).expect("one block short");
        assert_eq!(d.lint, LintId::StaleAnalysis);
        // The right blocks, `bm` still hanging where it used to.
        let mut idoms: Vec<Option<BlockId>> = g.blocks().map(|b| patched.idom(b)).collect();
        idoms[bm.index()] = before.idom(bm);
        let stale = Dominators::from_idoms(g.entry(), idoms);
        let d = lint_relation(&g, &stale).expect("a stale idom must be flagged");
        assert_eq!((d.lint, d.block), (LintId::StaleAnalysis, Some(bm)));
        assert!(d.message.starts_with("stale-analysis"), "{}", d.message);
    }

    #[test]
    fn negative_accrued_size_is_flagged() {
        // Fail-first for LintId::NegativeAccruedSize: a bogus size delta
        // larger than the whole unit drives the running total negative.
        let results = vec![result(0.5, 1.0, -500)];
        let out = lint_simulation(&results, 100);
        assert!(out.iter().any(|d| d.lint == LintId::NegativeAccruedSize));
        // With enough headroom the same delta is fine.
        assert!(lint_simulation(&results, 1000).is_empty());
    }
}
