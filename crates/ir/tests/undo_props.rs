//! Property tests for the undo log: for random mutation sequences over a
//! well-formed seed graph, `rollback_txn` must restore *exactly* the
//! state a clone taken at `begin_txn` would restore — same
//! printed graph, same predecessor lists, same version stamp, and the
//! same lint report. Nested transactions must unwind one mark at a time,
//! and a committed inner transaction must stay transparent to an outer
//! rollback.
//!
//! The mutation menu deliberately includes edits that leave the graph
//! unhygienic (dangling φ inputs, unreachable blocks): rollback has to be
//! byte-identical on *any* intermediate state, not just clean ones.
//!
//! The same sequences drive the def-use lists: after every step — inside
//! nested transactions with random commits and rollbacks, and on a clone
//! — each value's maintained list must equal, as a multiset, a recount
//! made here from the public operand accessors alone.

use dbds_ir::{
    lint, print_graph, BlockId, ClassTable, CmpOp, ConstValue, Graph, GraphBuilder, Inst, InstId,
    LintId, Terminator, Type, Use,
};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;

/// The well-formed diamond all mutation sequences start from.
fn diamond() -> Graph {
    let mut b = GraphBuilder::new("d", &[Type::Int], Arc::new(ClassTable::new()));
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
    b.ret(Some(phi));
    b.finish()
}

/// The def-use lists recounted from scratch: every operand of every
/// listed instruction and of every terminator, grouped by value, sorted.
fn recount_uses(g: &Graph) -> Vec<Vec<Use>> {
    let mut uses = vec![Vec::new(); g.inst_count()];
    for b in g.blocks() {
        for &i in g.block_insts(b) {
            g.inst(i)
                .for_each_input(|v| uses[v.index()].push(Use::Inst(i)));
        }
        g.terminator(b)
            .for_each_input(|v| uses[v.index()].push(Use::Term(b)));
    }
    uses.iter_mut().for_each(|list| list.sort_unstable());
    uses
}

/// The maintained def-use lists, each sorted (they are multisets).
fn held_uses(g: &Graph) -> Vec<Vec<Use>> {
    (0..g.inst_count())
        .map(|v| {
            let mut list: Vec<Use> = g.uses(InstId::from_index(v)).collect();
            list.sort_unstable();
            list
        })
        .collect()
}

/// A total textual fingerprint of the graph built from public API only:
/// the printed body, every block's predecessor list and terminator, the
/// instruction arena contents by id, the def-use lists and the CFG
/// version stamp. Two equal digests mean the observable graph states are
/// identical.
fn digest(g: &Graph) -> String {
    let mut out = print_graph(g);
    let _ = writeln!(out, "uses={:?}", held_uses(g));
    for b in g.blocks() {
        let _ = writeln!(
            out,
            "{b:?}: preds={:?} term={:?}",
            g.preds(b),
            g.terminator(b)
        );
        for &i in g.block_insts(b) {
            let _ = writeln!(
                out,
                "  {i:?}: {:?} : {:?} @ {:?}",
                g.inst(i),
                g.ty(i),
                g.block_of(i)
            );
        }
    }
    let _ = writeln!(
        out,
        "live={} cfg_v={}",
        g.live_inst_count(),
        g.cfg_version()
    );
    out
}

/// Number of mutation kinds [`apply`] decodes.
const KINDS: u8 = 12;

/// One encoded mutation. `created` tracks the instructions this sequence
/// added so removals and use-rewrites target live, sequence-owned
/// instructions.
fn apply(g: &mut Graph, created: &mut Vec<InstId>, kind: u8, bsel: u8, csel: u8, val: i64) {
    let blocks: Vec<BlockId> = g.blocks().collect();
    let b = blocks[bsel as usize % blocks.len()];
    // Some int value to use as an operand: a sequence-owned one when
    // there is any, else the parameter.
    let pick = |created: &[InstId], sel: usize| match created.len() {
        0 => g.param_values()[0],
        n => created[sel % n],
    };
    match kind % KINDS {
        0 => {
            g.add_block();
        }
        1 => {
            created.push(g.append_inst(b, Inst::Const(ConstValue::Int(val)), Type::Int));
        }
        2 => {
            if let Some(i) = created.pop() {
                if g.block_of(i).is_some() {
                    g.remove_inst(i);
                }
            }
        }
        3 => {
            if created.len() >= 2 {
                let old = created[csel as usize % created.len()];
                let new = created[(csel as usize + 1) % created.len()];
                if old != new && g.block_of(old).is_some() && g.block_of(new).is_some() {
                    g.replace_all_uses(old, new);
                }
            }
        }
        4 => {
            if matches!(g.terminator(b), Terminator::Branch { .. }) {
                g.set_branch_probability(b, f64::from(csel % 10) / 10.0);
            }
        }
        5 => {
            // `set_terminator` refuses edges into φ-bearing blocks, so
            // the retarget op only aims at φ-free candidates.
            let candidates: Vec<BlockId> = blocks
                .iter()
                .copied()
                .filter(|&t| g.phis(t).is_empty())
                .collect();
            if !candidates.is_empty() {
                let target = candidates[(bsel as usize + 1 + csel as usize) % candidates.len()];
                g.set_terminator(b, Terminator::Jump { target });
            }
        }
        6 => {
            // An instruction with operands (one value in two slots when
            // the picks coincide), inserted right after the φ prefix.
            let (lhs, rhs) = (pick(created, csel as usize), pick(created, val as usize));
            let at = g.phis(b).len();
            let op = dbds_ir::BinOp::Add;
            let sum = g.insert_inst(b, at, Inst::Binary { op, lhs, rhs }, Type::Int);
            created.push(sum);
        }
        7 => {
            // Rewrite the first operand of some attached instruction.
            let users: Vec<InstId> = blocks
                .iter()
                .flat_map(|&bl| g.block_insts(bl).to_vec())
                .filter(|&i| !g.inst(i).collect_inputs().is_empty())
                .collect();
            if !users.is_empty() {
                let user = users[csel as usize % users.len()];
                let to = pick(created, val as usize);
                g.rewrite_inputs(user, |inst| {
                    let mut first = true;
                    inst.for_each_input_mut(|slot| {
                        if std::mem::take(&mut first) {
                            *slot = to;
                        }
                    });
                });
            }
        }
        8 => {
            let succs = g.succs(b);
            if !succs.is_empty() {
                let old_to = succs[csel as usize % succs.len()];
                let new_to = blocks[val.unsigned_abs() as usize % blocks.len()];
                if new_to == old_to || !succs.contains(&new_to) {
                    let inputs = vec![pick(created, csel as usize); g.phis(new_to).len()];
                    g.retarget_edge(b, old_to, new_to, &inputs);
                }
            }
        }
        9 => {
            if matches!(g.terminator(b), Terminator::Branch { .. }) {
                g.fold_branch(b, csel & 1 == 0);
            }
        }
        10 => {
            let value = Some(pick(created, csel as usize));
            g.set_terminator(b, Terminator::Return { value });
        }
        _ => {
            let mergeable = blocks.iter().copied().find(|&from| {
                let preds = g.preds(from);
                from != g.entry()
                    && preds.len() == 1
                    && preds[0] != from
                    && g.succs(preds[0]) == [from]
                    && g.phis(from).is_empty()
            });
            if let Some(from) = mergeable {
                g.merge_block_into_pred(from, g.preds(from)[0]);
            }
        }
    }
}

/// Strategy: a sequence of up to 24 encoded mutations.
fn ops() -> impl Strategy<Value = Vec<(u8, u8, u8, i64)>> {
    collection::vec((0u8..KINDS, 0u8..16, 0u8..16, -100i64..100), 1..24)
}

/// Asserts the maintained lists are exactly the recounted multisets —
/// by this file's own recount and by the whole-graph lint.
#[track_caller]
fn check_lists(g: &Graph) {
    assert_eq!(held_uses(g), recount_uses(g));
    assert_eq!(lint(g).count_of(LintId::UseListMismatch), 0);
}

proptest! {
    /// `rollback_txn` is byte-identical to restoring a clone taken at
    /// `begin_txn`: printed graph, arena contents, version
    /// stamp and the lint report all agree.
    #[test]
    fn rollback_matches_snapshot_restore(seq in ops()) {
        let mut g = diamond();
        let snap = g.clone();
        let lint_before = lint(&g).to_string();

        g.begin_txn();
        let mut created = Vec::new();
        for &(k, b, c, v) in &seq {
            apply(&mut g, &mut created, k, b, c, v);
        }
        g.rollback_txn();

        let rolled = digest(&g);
        let lint_rolled = lint(&g).to_string();
        prop_assert_eq!(&rolled, &digest(&snap));
        prop_assert_eq!(&lint_rolled, &lint_before);
        prop_assert_eq!(g.txn_depth(), 0);
    }

    /// Nested transactions unwind one mark at a time: the inner rollback
    /// lands on the mid-sequence state, the outer on the base state.
    #[test]
    fn nested_rollbacks_unwind_to_each_mark(seq in ops(), split in 0usize..64) {
        let mut g = diamond();
        let base = digest(&g);
        let cut = split % (seq.len() + 1);

        let mut created = Vec::new();
        g.begin_txn();
        for &(k, b, c, v) in &seq[..cut] {
            apply(&mut g, &mut created, k, b, c, v);
        }
        let mid = digest(&g);

        g.begin_txn();
        for &(k, b, c, v) in &seq[cut..] {
            apply(&mut g, &mut created, k, b, c, v);
        }
        g.rollback_txn();
        prop_assert_eq!(&digest(&g), &mid);

        g.rollback_txn();
        prop_assert_eq!(&digest(&g), &base);
        prop_assert_eq!(g.txn_depth(), 0);
    }

    /// A committed inner transaction is transparent to the outer frame:
    /// rolling the outer back still restores the pre-outer state.
    #[test]
    fn inner_commit_is_transparent_to_outer_rollback(seq in ops(), split in 0usize..64) {
        let mut g = diamond();
        let base = digest(&g);
        let cut = split % (seq.len() + 1);

        let mut created = Vec::new();
        g.begin_txn();
        for &(k, b, c, v) in &seq[..cut] {
            apply(&mut g, &mut created, k, b, c, v);
        }
        g.begin_txn();
        for &(k, b, c, v) in &seq[cut..] {
            apply(&mut g, &mut created, k, b, c, v);
        }
        g.commit_txn();
        g.rollback_txn();

        prop_assert_eq!(&digest(&g), &base);
        prop_assert_eq!(g.txn_depth(), 0);
    }

    /// The def-use lists equal a from-scratch recount after every single
    /// mutation, whatever mix of nested begin / commit / rollback
    /// surrounds it, and a clone carries its own exact copy.
    #[test]
    fn use_lists_match_a_recount_after_every_step(
        seq in ops(),
        ctl in collection::vec(0u8..8, 24),
    ) {
        let mut g = diamond();
        let mut created = Vec::new();
        check_lists(&g);
        for (&(k, b, c, v), &txn) in seq.iter().zip(&ctl) {
            match txn {
                0 => g.begin_txn(),
                1 if g.txn_depth() > 0 => {
                    g.commit_txn();
                }
                2 if g.txn_depth() > 0 => {
                    g.rollback_txn();
                    created.retain(|i: &InstId| i.index() < g.inst_count());
                    check_lists(&g);
                }
                _ => {}
            }
            apply(&mut g, &mut created, k, b, c, v);
            check_lists(&g);
        }

        // A clone is an independent timeline with its own lists.
        let original = digest(&g);
        let mut copy = g.clone();
        check_lists(&copy);
        for &(k, b, c, v) in &seq {
            apply(&mut copy, &mut created, k, b, c, v);
            check_lists(&copy);
        }
        prop_assert_eq!(&digest(&g), &original);

        while g.txn_depth() > 0 {
            g.rollback_txn();
            check_lists(&g);
        }
    }
}
