//! The per-duplication checks and the round boundary they defer to.
//!
//! After every duplication the phase runs only the O(1) tail-copy check
//! (`lint_tail_copy`) and patches the dominance relation; the whole-graph
//! `checkpoint` runs once per round, at its boundary, and a round it
//! rejects is replayed with it after every duplication. These tests pin
//! both halves: every real duplication passes the tail-copy check and
//! its whole-graph reference `lint_frontier` and keeps the graph valid,
//! the boundary rejects a stale use the edit left *outside* the
//! transaction's footprint, and the footprint accessor the round's stale
//! classification reads.

use dbds::core::{checkpoint, lint_frontier, lint_tail_copy, try_duplicate};
use dbds::ir::{
    verify, BinOp, BlockId, ClassTable, CmpOp, Graph, GraphBuilder, Inst, InstId, Terminator,
    TxnFootprint, Type,
};
use dbds::workloads::{generate_graph, FragmentKind, Profile};
use proptest::prelude::*;
use std::sync::Arc;

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

fn duplicable_pairs(g: &Graph) -> Vec<(BlockId, BlockId)> {
    g.merge_blocks()
        .into_iter()
        .flat_map(|m| g.preds(m).iter().map(move |&p| (p, m)).collect::<Vec<_>>())
        .filter(|&(p, m)| p != m)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Inside one transaction, a random run of real duplications. After
    /// every step the whole graph verifies, and the tail-copy check and
    /// its from-scratch frontier reference both accept; rolling the
    /// transaction back restores a graph that verifies.
    #[test]
    fn real_duplications_pass_the_per_duplication_checks(
        seed in 0u64..1_000_000,
        profile in arb_profile(),
        dups in proptest::collection::vec(0usize..64, 0..4),
    ) {
        let mut g = generate_graph("scoped", &profile, seed);
        verify(&g).expect("generated graphs verify");
        g.begin_txn();
        for d in dups {
            let pairs = duplicable_pairs(&g);
            if pairs.is_empty() {
                break;
            }
            let (pred, merge) = pairs[d % pairs.len()];
            let dup = try_duplicate(&mut g, pred, merge).expect("a live pair duplicates");
            prop_assert!(checkpoint(&g).is_ok(), "a real duplication keeps the graph valid");
            prop_assert_eq!(lint_tail_copy(&g, dup.pred, dup.merge, dup.copy), None);
            prop_assert_eq!(lint_frontier(&g, dup.copy, dup.merge), None);
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

/// The damage a per-duplication check of the touched slots alone would
/// miss: retargeting `bt → bm` past the merge shrinks what `bm`
/// dominates, and the stale user of `bm`'s value sits in a block —
/// `tail2` — that the edit never touched. The boundary checkpoint must
/// reject it.
#[test]
fn stale_use_outside_the_footprint_is_rejected() {
    let (mut g, bt, bm, tail, tail2, user) = diamond_with_tail();
    verify(&g).unwrap();
    g.begin_txn();
    let bypass = g.add_block();
    g.set_terminator(bypass, Terminator::Jump { target: tail });
    g.retarget_edge(bt, bm, bypass, &[]);

    let fp = g.txn_footprint();
    assert!(fp.blocks.contains(&bm) && fp.blocks.contains(&tail));
    assert!(!fp.blocks.contains(&tail2), "the user's block is untouched");
    assert!(!fp.insts.contains(&user), "the user itself is untouched");

    let msg = checkpoint(&g)
        .expect_err("the stale use must be rejected")
        .to_string();
    assert!(msg.contains("not dominated by its definition"), "{msg}");

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

    g.begin_txn();
    g.set_terminator(side, Terminator::Jump { target: join });
    let fp = g.txn_footprint();
    assert_eq!(fp.blocks, vec![join, side]);
    assert!(fp.insts.is_empty());
    assert!(checkpoint(&g).is_err());
    g.rollback_txn();
    verify(&g).unwrap();
}

/// A clean edit of the same blocks must not be rejected.
#[test]
fn harmless_edits_are_accepted() {
    let (mut g, _bt, bm, _tail, _tail2, _user) = diamond_with_tail();
    g.begin_txn();
    // A dead constant in the merge and a fresh unreachable block.
    g.append_inst(bm, Inst::Const(dbds::ir::ConstValue::Int(7)), Type::Int);
    g.add_block();
    checkpoint(&g).unwrap();
    g.commit_txn();
}

#[test]
fn footprint_lists_touched_and_allocated_slots_in_order() {
    let (mut g, bt, bm, tail, _tail2, user) = diamond_with_tail();
    assert_eq!(g.txn_footprint(), TxnFootprint::default(), "no transaction");
    assert!(!g.for_each_txn_block(|b| panic!("{b} outside a transaction")));
    let (insts0, blocks0) = (g.inst_count(), g.block_count());

    g.begin_txn();
    let opened = g.txn_footprint();
    assert!(opened.insts.is_empty() && opened.blocks.is_empty());
    assert!(!g.for_each_txn_block(|b| panic!("{b} in an empty footprint")));

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
    // The unsorted walk names the same blocks: the footprint's own and
    // those of its attached instructions.
    let mut walked = Vec::new();
    assert!(g.for_each_txn_block(|b| walked.push(b)));
    let mut expected: Vec<_> = fp.insts.iter().filter_map(|&i| g.block_of(i)).collect();
    expected.extend(&fp.blocks);
    for list in [&mut walked, &mut expected] {
        list.sort_unstable();
        list.dedup();
    }
    assert_eq!(walked, expected);

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
    let c = g.append_inst(tail, Inst::Const(dbds::ir::ConstValue::Int(2)), Type::Int);
    let inner = g.txn_footprint();
    assert_eq!(inner.blocks, vec![tail]);
    assert_eq!(inner.insts, vec![c]);

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
