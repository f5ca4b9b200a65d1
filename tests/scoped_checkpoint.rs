//! The O(edit) checkpoint against its whole-graph reference.
//!
//! `checkpoint_scoped` runs the verifier's error-severity rules over the
//! slots the open undo-log transaction touched; `checkpoint` runs them
//! over the whole graph. These tests pin the contract between the two:
//! equal verdicts on random edit sequences (real duplications and single
//! corruptions), rejection of a stale use that lives *outside* the
//! footprint, and the footprint accessor the whole scheme reads.

use dbds::analysis::{AnalysisCache, DomTree};
use dbds::core::{checkpoint_scoped, lint_frontier, lint_tail_copy, try_duplicate};
use dbds::ir::{
    lint, verify, BinOp, BlockId, ClassTable, CmpOp, FootprintScratch, Graph, GraphBuilder, Inst,
    InstId, LintId, Terminator, TxnFootprint, Type,
};
use dbds::workloads::{generate_graph, FragmentKind, Profile};
use proptest::prelude::*;
use std::sync::Arc;

/// The scoped verdict on `g`'s open transaction, which opened on a graph
/// with dominator tree `before`.
fn scoped_accepts(g: &Graph, before: &DomTree) -> bool {
    let mut cache = AnalysisCache::new();
    checkpoint_scoped(g, &mut cache, before, &mut FootprintScratch::default()).is_ok()
}

/// The whole-graph verdict restricted to the rules the scoped form
/// promises: every error-severity lint except the two that are not a
/// function of the edited slots (they are checked at iteration
/// boundaries instead).
fn whole_accepts(g: &Graph) -> bool {
    lint(g).errors().all(|d| {
        d.lint == LintId::ControlDepViolation
            || (d.lint == LintId::GraphConsistency && d.message.contains("unreachable predecessor"))
    })
}

fn arb_profile() -> impl Strategy<Value = Profile> {
    (
        2usize..8,
        proptest::collection::vec(0.05f64..1.0, FragmentKind::ALL.len()),
    )
        .prop_map(|(count, weights)| Profile {
            fragments: (count, count + 4),
            weights: FragmentKind::ALL.iter().copied().zip(weights).collect(),
            input_sets: 2,
        })
}

fn live_insts(g: &Graph) -> Vec<InstId> {
    g.blocks().flat_map(|b| g.block_insts(b).to_vec()).collect()
}

fn duplicable_pairs(g: &Graph) -> Vec<(BlockId, BlockId)> {
    g.merge_blocks()
        .into_iter()
        .flat_map(|m| g.preds(m).iter().map(move |&p| (p, m)).collect::<Vec<_>>())
        .filter(|&(p, m)| p != m)
        .collect()
}

/// One corruption through the public mutation API — so the undo log
/// sees it, exactly like a buggy transform's edits. Returns whether the
/// graph offered a place to apply it.
fn corrupt(g: &mut Graph, kind: usize, pick: usize) -> bool {
    let insts = live_insts(g);
    let nth = |candidates: Vec<InstId>| {
        (!candidates.is_empty()).then(|| candidates[pick % candidates.len()])
    };
    match kind {
        // A φ widened past its block's predecessor count.
        1 => {
            let phis = insts.iter().copied().filter(|&i| g.inst(i).is_phi());
            let Some(phi) = nth(phis.collect()) else {
                return false;
            };
            g.rewrite_inputs(phi, |inst| match inst {
                Inst::Phi { inputs } if !inputs.is_empty() => {
                    inputs.push(inputs[0]);
                    true
                }
                _ => false,
            })
        }
        // An instruction removed while it still has uses.
        2 => {
            let used = insts.iter().copied().filter(|&i| g.has_uses(i));
            let Some(victim) = nth(used.collect()) else {
                return false;
            };
            g.remove_inst(victim);
            true
        }
        // The CFG half of a duplication without its SSA repair: `pred`
        // bypasses `merge` through a fresh block, so every downstream
        // use of a merge-defined value is left pointing at a definition
        // that no longer dominates it.
        3 => {
            let pairs = duplicable_pairs(g);
            if pairs.is_empty() {
                return false;
            }
            let (pred, merge) = pairs[pick % pairs.len()];
            let bypass = g.add_block();
            if let Some(&succ) = g.succs(merge).first() {
                let from_merge = g.pred_index(succ, merge);
                let inputs: Vec<InstId> = g
                    .phis(succ)
                    .iter()
                    .map(|&phi| match g.inst(phi) {
                        Inst::Phi { inputs } => inputs[from_merge],
                        _ => unreachable!("phi prefix"),
                    })
                    .collect();
                g.install_terminator_with_phi_inputs(
                    bypass,
                    Terminator::Jump { target: succ },
                    &[inputs],
                );
            }
            g.retarget_edge(pred, merge, bypass, &[]);
            true
        }
        // An edge into the entry block (edge bookkeeping).
        4 => {
            let exits: Vec<BlockId> = g
                .reachable_blocks()
                .into_iter()
                .filter(|&b| g.succs(b).is_empty())
                .collect();
            if exits.is_empty() {
                return false;
            }
            let from = exits[pick % exits.len()];
            g.set_terminator(from, Terminator::Jump { target: g.entry() });
            true
        }
        // An ill-typed operand: a bool fed to integer arithmetic.
        5 => {
            let bools: Vec<InstId> = insts
                .iter()
                .copied()
                .filter(|&i| g.ty(i) == Type::Bool)
                .collect();
            let arith = insts
                .iter()
                .copied()
                .filter(|&i| matches!(g.inst(i), Inst::Binary { .. }));
            let (Some(&flag), Some(user)) = (bools.first(), nth(arith.collect())) else {
                return false;
            };
            g.rewrite_inputs(user, |inst| {
                if let Inst::Binary { lhs, .. } = inst {
                    *lhs = flag;
                }
            });
            true
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Inside one transaction: a random run of real duplications, then
    /// (usually) one corruption. After every step the scoped verdict
    /// equals the whole-graph verdict, the tail-copy check and its
    /// from-scratch frontier reference both accept, and rolling the
    /// transaction back restores a graph that verifies.
    #[test]
    fn scoped_verdict_equals_whole_graph_verdict(
        seed in 0u64..1_000_000,
        profile in arb_profile(),
        dups in proptest::collection::vec(0usize..64, 0..4),
        corruption in 0usize..10,
        pick in 0usize..64,
    ) {
        let mut g = generate_graph("scoped", &profile, seed);
        verify(&g).expect("generated graphs verify");
        let before = DomTree::compute(&g);
        g.begin_txn();
        prop_assert!(scoped_accepts(&g, &before), "an empty transaction is clean");
        for d in dups {
            let pairs = duplicable_pairs(&g);
            if pairs.is_empty() {
                break;
            }
            let (pred, merge) = pairs[d % pairs.len()];
            let dup = try_duplicate(&mut g, pred, merge).expect("a live pair duplicates");
            prop_assert!(whole_accepts(&g), "a real duplication keeps the graph valid");
            prop_assert!(scoped_accepts(&g, &before), "no false rejection of a real duplication");
            prop_assert_eq!(lint_tail_copy(&g, dup.pred, dup.merge, dup.copy), None);
            prop_assert_eq!(lint_frontier(&g, dup.copy, dup.merge), None);
        }
        // Half the draws take the corruption whose damage lands outside
        // the footprint; it is the one a slot-local check would miss.
        let corruption = [0, 1, 2, 4, 5, 3, 3, 3, 3, 3][corruption];
        if corrupt(&mut g, corruption, pick) {
            prop_assert_eq!(
                scoped_accepts(&g, &before),
                whole_accepts(&g),
                "verdicts diverge after corruption {} on:\n{}", corruption, g
            );
        }
        g.rollback_txn();
        verify(&g).expect("rollback restores the verified graph");
        prop_assert_eq!(g.txn_footprint(), TxnFootprint::default());
    }
}

/// entry → {bt, bf} → bm → tail → tail2, with `v` defined in `bm` and
/// used only in `tail2`.
fn diamond_with_tail() -> (Graph, BlockId, BlockId, BlockId, BlockId, InstId) {
    let mut b = GraphBuilder::new("tail", &[Type::Int], Arc::new(ClassTable::new()));
    let x = b.param(0);
    let zero = b.iconst(0);
    let c = b.cmp(CmpOp::Gt, x, zero);
    let (bt, bf, bm, tail, tail2) = (
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
    let v = b.add(x, x);
    b.jump(tail);
    b.switch_to(tail);
    b.jump(tail2);
    b.switch_to(tail2);
    let user = b.mul(v, v);
    b.ret(Some(user));
    (b.finish(), bt, bm, tail, tail2, user)
}

/// Fail-first for the one rule that is not slot-local: retargeting
/// `bt → bm` past the merge shrinks what `bm` dominates, and the stale
/// user of `bm`'s value sits in a block — `tail2` — that the edit never
/// touched. The scoped check must find it from the definition side.
#[test]
fn stale_use_outside_the_footprint_is_rejected() {
    let (mut g, bt, bm, tail, tail2, user) = diamond_with_tail();
    verify(&g).unwrap();
    let before = DomTree::compute(&g);
    g.begin_txn();
    let bypass = g.add_block();
    g.set_terminator(bypass, Terminator::Jump { target: tail });
    g.retarget_edge(bt, bm, bypass, &[]);

    let fp = g.txn_footprint();
    assert!(fp.blocks.contains(&bm) && fp.blocks.contains(&tail));
    assert!(!fp.blocks.contains(&tail2), "the user's block is untouched");
    assert!(!fp.insts.contains(&user), "the user itself is untouched");

    let mut cache = AnalysisCache::new();
    let verdict = checkpoint_scoped(&g, &mut cache, &before, &mut FootprintScratch::default());
    let msg = verdict
        .expect_err("the stale use must be rejected")
        .to_string();
    assert!(msg.contains("not dominated by its definition"), "{msg}");
    assert!(verify(&g).is_err(), "and the whole-graph verifier agrees");

    g.rollback_txn();
    verify(&g).unwrap();
}

/// The same hazard with a definition block that is not in the footprint
/// either: a new edge `side → join` lets control reach `join` (and `use`
/// below it) around `def`, and neither `def` nor `use` was touched.
#[test]
fn definition_block_losing_dominance_from_afar_is_rejected() {
    let mut b = GraphBuilder::new("afar", &[Type::Int], Arc::new(ClassTable::new()));
    let x = b.param(0);
    let zero = b.iconst(0);
    let c = b.cmp(CmpOp::Gt, x, zero);
    let (def, join, user_bb, side) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
    b.branch(c, def, side, 0.5);
    b.switch_to(def);
    let v = b.add(x, x);
    b.jump(join);
    b.switch_to(join);
    b.jump(user_bb);
    b.switch_to(user_bb);
    b.ret(Some(v));
    b.switch_to(side);
    b.ret(Some(zero));
    let mut g = b.finish();
    verify(&g).unwrap();
    let before = DomTree::compute(&g);

    g.begin_txn();
    g.set_terminator(side, Terminator::Jump { target: join });
    let fp = g.txn_footprint();
    assert_eq!(fp.blocks, vec![join, side]);
    assert!(fp.insts.is_empty());
    assert!(!scoped_accepts(&g, &before));
    assert!(verify(&g).is_err());
    g.rollback_txn();
    verify(&g).unwrap();
}

/// A clean edit of the same shape must not be rejected: the scan is
/// restricted to values whose definition actually lost dominance.
#[test]
fn harmless_edits_are_accepted() {
    let (mut g, _bt, bm, _tail, _tail2, _user) = diamond_with_tail();
    let before = DomTree::compute(&g);
    g.begin_txn();
    // A dead constant in the merge and a fresh unreachable block.
    g.append_inst(bm, Inst::Const(dbds::ir::ConstValue::Int(7)), Type::Int);
    g.add_block();
    assert!(scoped_accepts(&g, &before));
    verify(&g).unwrap();
    g.commit_txn();
}

#[test]
fn footprint_lists_touched_and_allocated_slots_in_order() {
    let (mut g, bt, bm, tail, _tail2, user) = diamond_with_tail();
    assert_eq!(g.txn_footprint(), TxnFootprint::default(), "no transaction");
    let (insts0, blocks0) = (g.inst_count(), g.block_count());

    g.begin_txn();
    let opened = g.txn_footprint();
    assert!(opened.insts.is_empty() && opened.blocks.is_empty());
    assert_eq!((opened.base_insts, opened.base_blocks), (insts0, blocks0));

    // Touch old slots out of index order, allocate new ones in between.
    g.rewrite_inputs(user, |inst| {
        if let Inst::Binary { op, .. } = inst {
            *op = BinOp::Add;
        }
    });
    let fresh_block = g.add_block();
    let fresh_inst = g.append_inst(tail, Inst::Const(dbds::ir::ConstValue::Int(1)), Type::Int);
    g.set_branch_probability(g.entry(), 0.25);
    g.retarget_edge(bt, bm, fresh_block, &[]);

    let fp = g.txn_footprint();
    assert_eq!(fp.insts, vec![user, fresh_inst]);
    assert_eq!(fp.blocks, vec![g.entry(), bt, bm, tail, fresh_block]);
    assert!(fp.insts.windows(2).all(|w| w[0] < w[1]));
    assert!(fp.blocks.windows(2).all(|w| w[0] < w[1]));
    // Reading it is repeatable (no hash-order leak) and free of effects.
    assert_eq!(g.txn_footprint(), fp);

    g.rollback_txn();
    assert_eq!(g.txn_footprint(), TxnFootprint::default());
    assert_eq!((g.inst_count(), g.block_count()), (insts0, blocks0));
}

#[test]
fn footprint_is_per_frame_and_nests() {
    let (mut g, _bt, bm, tail, tail2, _user) = diamond_with_tail();
    g.begin_txn(); // outer
    g.append_inst(bm, Inst::Const(dbds::ir::ConstValue::Int(1)), Type::Int);
    let outer_only = g.txn_footprint();
    assert_eq!(outer_only.blocks, vec![bm]);

    g.begin_txn(); // inner: sees only its own edits
    assert!(g.txn_footprint().blocks.is_empty());
    let inner_base = g.inst_count();
    let c = g.append_inst(tail, Inst::Const(dbds::ir::ConstValue::Int(2)), Type::Int);
    let inner = g.txn_footprint();
    assert_eq!(inner.blocks, vec![tail]);
    assert_eq!(inner.insts, vec![c]);
    assert_eq!(inner.base_insts, inner_base);

    // Committing the inner frame hands its edits to the outer one.
    g.commit_txn();
    let merged = g.txn_footprint();
    assert_eq!(merged.blocks, vec![bm, tail]);
    assert_eq!(merged.insts.len(), 2);

    // A rolled-back inner frame drops its allocations, but the slots it
    // touched stay listed (restored to their old value): the footprint
    // may over-approximate, never under-approximate.
    g.begin_txn();
    g.append_inst(tail2, Inst::Const(dbds::ir::ConstValue::Int(3)), Type::Int);
    g.rollback_txn();
    let after_inner_rollback = g.txn_footprint();
    assert_eq!(after_inner_rollback.insts, merged.insts);
    assert_eq!(after_inner_rollback.blocks, vec![bm, tail, tail2]);

    g.commit_txn();
    assert_eq!(g.txn_footprint(), TxnFootprint::default());
}
