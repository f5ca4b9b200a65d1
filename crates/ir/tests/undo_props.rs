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
//! Random scripts of begin / commit / rollback, up to four frames deep,
//! pin the log's nesting: each rollback against a clone taken at its
//! `begin_txn`, and the innermost footprint after every step against the
//! slots its frame saw touched, kept here frame by frame.
//!
//! The same sequences drive the def-use lists: after every step — inside
//! nested transactions with random commits and rollbacks, and on a clone
//! — each value's maintained list must equal, as a multiset, a recount
//! made here from the public operand accessors alone.

use dbds_ir::{
    lint, print_graph, BlockId, ClassTable, CmpOp, ConstValue, Graph, GraphBuilder, Inst, InstId,
    LintId, Terminator, TxnFootprint, Type, Use,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
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

/// One open frame of a nested script, as the test keeps it.
struct Mark {
    /// The graph and the created list at `begin_txn`.
    snapshot: Graph,
    created: Vec<InstId>,
    /// Arena lengths at `begin_txn`.
    base: (usize, usize),
    /// Every slot below the base that a mutation touched while the frame
    /// was open, the mutations of nested frames included.
    insts: BTreeSet<InstId>,
    blocks: BTreeSet<BlockId>,
}

impl Mark {
    /// The footprint the frame must report: the touched slots below its
    /// base, then every slot allocated since it opened.
    fn footprint(&self, g: &Graph) -> TxnFootprint {
        let mut insts: Vec<InstId> = self.insts.iter().copied().collect();
        insts.extend((self.base.0..g.inst_count()).map(InstId::from_index));
        let mut blocks: Vec<BlockId> = self.blocks.iter().copied().collect();
        blocks.extend((self.base.1..g.block_count()).map(BlockId::from_index));
        TxnFootprint { insts, blocks }
    }
}

/// The slots one mutation touches, read off a single frame around it on
/// a clone: no nesting involved.
fn touched_by(g: &Graph, created: &[InstId], (k, b, c, v): (u8, u8, u8, i64)) -> TxnFootprint {
    let mut probe = g.clone();
    probe.begin_txn();
    apply(&mut probe, &mut created.to_vec(), k, b, c, v);
    probe.txn_footprint()
}

/// Closes the innermost frame of a script, checking what it leaves.
fn close(g: &mut Graph, marks: &mut Vec<Mark>, created: &mut Vec<InstId>, rollback: bool) {
    let mark = marks.pop().expect("an open frame");
    if rollback {
        g.rollback_txn();
        assert_eq!(digest(g), digest(&mark.snapshot));
        assert_eq!(lint(g).to_string(), lint(&mark.snapshot).to_string());
        *created = mark.created;
    } else {
        g.commit_txn();
    }
    // Committed or rolled back, what the frame touched below the
    // enclosing frame's base stays in the enclosing footprint.
    if let Some(outer) = marks.last_mut() {
        outer
            .insts
            .extend(mark.insts.range(..InstId::from_index(outer.base.0)));
        outer
            .blocks
            .extend(mark.blocks.range(..BlockId::from_index(outer.base.1)));
        assert_eq!(g.txn_footprint(), outer.footprint(g));
    } else {
        assert_eq!(g.txn_footprint(), TxnFootprint::default());
    }
    assert_eq!(g.txn_depth(), marks.len());
}

/// Strategy: a script of up to 40 steps, each a frame control (begin,
/// commit, rollback or none) followed by one encoded mutation.
fn script() -> impl Strategy<Value = Vec<(u8, (u8, u8, u8, i64))>> {
    collection::vec(
        (0u8..6, (0u8..KINDS, 0u8..16, 0u8..16, -100i64..100)),
        1..40,
    )
}

proptest! {
    /// Random scripts of nested transactions, up to four deep: every
    /// rollback restores what a clone taken at the matching `begin_txn`
    /// holds (printed graph, use lists, version stamp, lint report), and
    /// after every step the innermost footprint is exactly the slots its
    /// frame saw touched below its base plus the ones it allocated.
    #[test]
    fn nested_scripts_restore_and_report_exact_footprints(
        steps in script(),
        unwind in collection::vec(0u8..2, 4),
    ) {
        let mut g = diamond();
        let mut created = Vec::new();
        let mut marks: Vec<Mark> = Vec::new();
        for &(ctl, op) in &steps {
            match ctl {
                0 | 1 if marks.len() < 4 => {
                    marks.push(Mark {
                        snapshot: g.clone(),
                        created: created.clone(),
                        base: (g.inst_count(), g.block_count()),
                        insts: BTreeSet::new(),
                        blocks: BTreeSet::new(),
                    });
                    g.begin_txn();
                }
                2 if !marks.is_empty() => close(&mut g, &mut marks, &mut created, false),
                3 if !marks.is_empty() => close(&mut g, &mut marks, &mut created, true),
                _ => {}
            }
            let touched = touched_by(&g, &created, op);
            for mark in &mut marks {
                let (insts, blocks) = mark.base;
                mark.insts.extend(touched.insts.iter().filter(|i| i.index() < insts));
                mark.blocks.extend(touched.blocks.iter().filter(|b| b.index() < blocks));
            }
            let (k, b, c, v) = op;
            apply(&mut g, &mut created, k, b, c, v);
            if let Some(mark) = marks.last() {
                prop_assert_eq!(g.txn_footprint(), mark.footprint(&g));
            }
            check_lists(&g);
        }
        for rollback in unwind.into_iter().take(marks.len()) {
            close(&mut g, &mut marks, &mut created, rollback == 1);
        }
        prop_assert_eq!(g.txn_depth(), 0);
    }
}

/// Grows `b` by `insts` instructions and `preds` new predecessor blocks,
/// each a jump carrying `x` into every φ of `b`; then removes the first
/// `drop` instructions it added. Blocks store up to six instructions and
/// four predecessors in place, so these sizes cross into the spilled
/// form and back.
fn grow(g: &mut Graph, b: BlockId, x: InstId, insts: usize, preds: usize, drop: usize) {
    let mut added = Vec::new();
    for k in 0..insts {
        added.push(g.append_inst(b, Inst::Const(ConstValue::Int(k as i64)), Type::Int));
    }
    for _ in 0..preds {
        let p = g.add_block();
        let inputs = vec![x; g.phis(b).len()];
        g.install_terminator_with_phi_inputs(p, Terminator::Jump { target: b }, &[inputs]);
    }
    for &i in added.iter().take(drop) {
        g.remove_inst(i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rolling back a transaction inside which a block's instruction and
    /// predecessor lists crossed the inline-to-heap boundary — from a
    /// block that had already spilled before the transaction, or not —
    /// restores the block exactly, also when an inner transaction that
    /// made the crossing committed into the outer one.
    #[test]
    fn rollback_restores_blocks_across_the_inline_boundary(
        before in (0usize..10, 0usize..6),
        inside in (0usize..12, 0usize..8, 0usize..12),
        nested in 0u8..2,
    ) {
        let mut g = diamond();
        let (bm, x) = (BlockId(3), g.param_values()[0]);
        grow(&mut g, bm, x, before.0, before.1, 0);
        let base = digest(&g);
        g.begin_txn();
        if nested == 1 {
            g.begin_txn();
        }
        let (insts, preds, drop) = inside;
        grow(&mut g, bm, x, insts, preds, drop);
        // Removing instructions the block had before the transaction
        // shrinks a spilled list below the inline size.
        let old: Vec<InstId> = g.block_insts(bm)[g.phis(bm).len()..].iter().take(drop).copied().collect();
        for i in old {
            if !g.has_uses(i) {
                g.remove_inst(i);
            }
        }
        if nested == 1 {
            g.commit_txn();
        }
        g.rollback_txn();
        prop_assert_eq!(&digest(&g), &base);
        prop_assert_eq!(g.txn_depth(), 0);
        check_lists(&g);
    }
}
