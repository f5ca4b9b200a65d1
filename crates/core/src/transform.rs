//! The tail-duplication transformation.
//!
//! [`duplicate`] copies a merge block `b_m` into one of its predecessors
//! `b_pi` (§4.3, the optimization tier): a fresh block `b_m_i` receives a
//! copy of every non-φ instruction with φs substituted by their input on
//! the `b_pi` edge, the `b_pi → b_m` edge is retargeted to the copy, and
//! SSA form is repaired — every value defined in `b_m` and used in blocks
//! no longer dominated by it gets φs at the new join points via
//! [`SsaBuilder`]. This is exactly the "complex analysis to generate valid
//! φ instructions for usages in dominated blocks" that §3.1 says the
//! transformation requires.

use crate::faultinject::fault_point;
use dbds_ir::{BlockId, FastMap, Graph, Inst, InstId, Use};
use dbds_opt::{SsaBuilder, SsaRepairError};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Why a requested duplication cannot be performed.
///
/// All variants are graph-invariant violations the phase driver maps to
/// [`BailoutReason::VerifierRejected`](crate::BailoutReason) — a typed
/// refusal rather than a process abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransformError {
    /// `pred == merge`: a self-loop header cannot be duplicated into
    /// itself.
    SelfDuplication(BlockId),
    /// The target block has fewer than two predecessors.
    NotAMerge(BlockId),
    /// `pred` is not a predecessor of `merge`.
    NotAPredecessor {
        /// The block claimed to be a predecessor.
        pred: BlockId,
        /// The merge it is not a predecessor of.
        merge: BlockId,
    },
    /// An instruction in a φ slot is not a φ.
    MalformedPhi(InstId),
    /// On-demand SSA reconstruction failed while repairing uses.
    SsaRepair(SsaRepairError),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::SelfDuplication(b) => {
                write!(f, "cannot duplicate {b} into itself")
            }
            TransformError::NotAMerge(b) => write!(f, "{b} is not a control-flow merge"),
            TransformError::NotAPredecessor { pred, merge } => {
                write!(f, "{pred} is not a predecessor of {merge}")
            }
            TransformError::MalformedPhi(i) => write!(f, "{i} sits in a phi slot but is not one"),
            TransformError::SsaRepair(e) => write!(f, "SSA repair failed: {e}"),
        }
    }
}

impl Error for TransformError {}

impl From<SsaRepairError> for TransformError {
    fn from(e: SsaRepairError) -> Self {
        TransformError::SsaRepair(e)
    }
}

/// The result of one duplication.
#[derive(Clone, Debug)]
pub struct Duplication {
    /// The predecessor the merge was duplicated into.
    pub pred: BlockId,
    /// The original merge block (still present, with one predecessor
    /// fewer).
    pub merge: BlockId,
    /// The copy block now targeted by `pred`.
    pub copy: BlockId,
}

/// Duplicates `merge` into `pred`.
///
/// Afterwards `pred` branches to a fresh copy of `merge` specialized to
/// the `pred` path, while `merge` keeps serving the remaining
/// predecessors. The graph is left in valid SSA form; degenerate shapes
/// (a merge with one predecessor left, single-input φs) are deliberately
/// *not* cleaned up here — run the `dbds-opt` simplification passes.
///
/// # Panics
///
/// Panics if `pred` is not a predecessor of `merge`, if `merge` has fewer
/// than two predecessors, or if `pred == merge` (self-loop headers cannot
/// be duplicated into themselves). [`try_duplicate`] is the non-panicking
/// form.
pub fn duplicate(g: &mut Graph, pred: BlockId, merge: BlockId) -> Duplication {
    try_duplicate(g, pred, merge).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`duplicate`]: refuses invalid requests with a typed
/// [`TransformError`] instead of panicking, so the phase driver can bail
/// out and keep compiling.
///
/// # Errors
///
/// Returns a [`TransformError`] when the `(pred, merge)` pair does not
/// describe a duplicable edge or the graph violates a φ/SSA invariant
/// mid-transform. The graph may be left partially transformed on error —
/// callers run this inside an undo-log transaction and roll it back (the
/// phase driver's checkpoint path, [`transact`](crate::transact)).
pub fn try_duplicate(
    g: &mut Graph,
    pred: BlockId,
    merge: BlockId,
) -> Result<Duplication, TransformError> {
    try_duplicate_with(g, pred, merge, &mut DupScratch::default())
}

/// The tables one round's duplications share: the SSA builder, reset for
/// every repaired value, and the lists each duplication fills from empty.
/// A caller that performs many duplications passes one scratch to all of
/// them, so the tables grow once instead of per duplication.
#[derive(Debug, Default)]
pub(crate) struct DupScratch {
    ssa: SsaBuilder,
    /// Original instructions of the merge to their substitutes in the
    /// copy: φs to their `pred`-edge input, the rest to their copies.
    subst: FastMap<InstId, InstId>,
    phis: Vec<InstId>,
    body: Vec<InstId>,
    /// One φ input list per successor of the copy.
    phi_inputs: Vec<Vec<InstId>>,
    /// The use sites of every repaired value, value after value.
    sites: Vec<UseSite>,
    /// Per repaired value: the value and where its sites sit in `sites`.
    spans: Vec<(InstId, Range<usize>)>,
    /// A value's users in layout order.
    users: Vec<(BlockId, usize, Use)>,
}

/// [`try_duplicate`] on `scratch`'s tables.
pub(crate) fn try_duplicate_with(
    g: &mut Graph,
    pred: BlockId,
    merge: BlockId,
    scratch: &mut DupScratch,
) -> Result<Duplication, TransformError> {
    if pred == merge {
        return Err(TransformError::SelfDuplication(pred));
    }
    if g.preds(merge).len() < 2 {
        return Err(TransformError::NotAMerge(merge));
    }
    if !g.preds(merge).contains(&pred) {
        return Err(TransformError::NotAPredecessor { pred, merge });
    }
    fault_point("transform/entry", Some(g));
    let k = g.pred_index(merge, pred);
    let DupScratch {
        ssa,
        subst,
        phis,
        body,
        phi_inputs,
        sites,
        spans,
        users,
    } = scratch;

    // Substitution: φs become their input on the pred edge.
    subst.clear();
    phis.clear();
    phis.extend_from_slice(g.phis(merge));
    for &phi in phis.iter() {
        match g.inst(phi) {
            Inst::Phi { inputs } => {
                subst.insert(phi, inputs[k]);
            }
            _ => return Err(TransformError::MalformedPhi(phi)),
        }
    }

    // Copy the non-φ body into a fresh block.
    fault_point("transform/copy-body", Some(g));
    let copy = g.add_block();
    body.clear();
    body.extend_from_slice(&g.block_insts(merge)[phis.len()..]);
    for &i in body.iter() {
        let mut inst = g.inst(i).clone();
        inst.for_each_input_mut(|op| {
            if let Some(&s) = subst.get(op) {
                *op = s;
            }
        });
        let ty = g.ty(i);
        let i2 = g.append_inst(copy, inst, ty);
        subst.insert(i, i2);
    }

    // Copy the terminator, substituting inputs, and connect its edges.
    // Each successor's φs get the substituted version of the input they
    // receive on the `merge` edge.
    let mut term = g.terminator(merge).clone();
    term.for_each_input_mut(|op| {
        if let Some(&s) = subst.get(op) {
            *op = s;
        }
    });
    let succs = term.successors();
    if phi_inputs.len() < succs.len() {
        phi_inputs.resize_with(succs.len(), Vec::new);
    }
    for (&s, inputs) in succs.iter().zip(phi_inputs.iter_mut()) {
        let from_merge = g.pred_index(s, merge);
        inputs.clear();
        for &phi in g.phis(s) {
            match g.inst(phi) {
                Inst::Phi { inputs: orig } => {
                    let orig = orig[from_merge];
                    inputs.push(subst.get(&orig).copied().unwrap_or(orig));
                }
                _ => return Err(TransformError::MalformedPhi(phi)),
            }
        }
    }
    g.install_terminator_with_phi_inputs(copy, term, &phi_inputs[..succs.len()]);

    // Retarget pred → merge to pred → copy (drops the φ inputs at k).
    g.retarget_edge(pred, merge, copy, &[]);
    fault_point("transform/retarget", Some(g));

    // SSA repair: values defined in `merge` that are used outside of it
    // now have two definitions (original and copy). Rewrite such uses to
    // the reaching definition, inserting φs on demand. The use sites of
    // every repaired value are read off the def-use lists up front.
    fault_point("transform/ssa-repair", Some(g));
    sites.clear();
    spans.clear();
    for &v in phis.iter().chain(body.iter()) {
        let at = sites.len();
        collect_use_sites(g, merge, copy, v, users, sites);
        if sites.len() > at {
            spans.push((v, at..sites.len()));
        }
    }
    for (v, span) in spans.iter() {
        repair_value(g, ssa, merge, copy, *v, subst[v], &sites[span.clone()])?;
    }

    Ok(Duplication { pred, merge, copy })
}

/// One out-of-copy use of a repaired value.
#[derive(Debug)]
enum UseSite {
    /// Operand of a non-φ instruction.
    Operand { user: InstId, block: BlockId },
    /// φ input `slot`, arriving over the `pred` edge.
    PhiInput {
        user: InstId,
        pred: BlockId,
        slot: usize,
    },
    /// Terminator operand.
    TermInput { block: BlockId },
}

/// Appends to `sites` the use sites of `v` (one of the merge block's φs
/// and body instructions) that need repair, read off its def-use list —
/// O(uses), no walk over the graph — through the `users` buffer. The
/// sites come in layout order (block index, position in block, φ slot,
/// terminator last): [`repair_value`] creates φs on demand as it meets
/// them, so the order fixes every new `InstId`.
///
/// φ-input sites are collected even inside the merge block itself: when
/// the merge is a loop header, its remaining φs read loop-carried values
/// along back edges, and the copy introduces a second loop entry those
/// reads must merge with (φ insertion at the loop-body join). Only the
/// copy is exempt (it has no φs and its operands were already
/// substituted), and edges from merge/copy carry the local definitions
/// unchanged.
fn collect_use_sites(
    g: &Graph,
    merge: BlockId,
    copy: BlockId,
    v: InstId,
    users: &mut Vec<(BlockId, usize, Use)>,
    sites: &mut Vec<UseSite>,
) {
    let local = |b: BlockId| b == merge || b == copy;
    g.users_in_layout_order_into(v, users);
    for &(_, _, user) in users.iter() {
        match user {
            Use::Inst(i) => {
                let b = g.block_of(i).expect("use lists hold attached users only");
                match g.inst(i) {
                    Inst::Phi { inputs } if b != copy => {
                        for (slot, (input, &p)) in inputs.iter().zip(g.preds(b)).enumerate() {
                            if *input == v && !local(p) {
                                sites.push(UseSite::PhiInput {
                                    user: i,
                                    pred: p,
                                    slot,
                                });
                            }
                        }
                    }
                    Inst::Phi { .. } => {}
                    // Intra-block uses stay with the local def.
                    _ if local(b) => {}
                    _ => sites.push(UseSite::Operand { user: i, block: b }),
                }
            }
            Use::Term(b) if local(b) => {}
            Use::Term(b) => sites.push(UseSite::TermInput { block: b }),
        }
    }
}

/// Rewrites the collected uses of `v` (defined in `merge`, with
/// substitute `v2` valid at the end of `copy`) to their reaching
/// definitions, inserting φs on demand.
fn repair_value(
    g: &mut Graph,
    ssa: &mut SsaBuilder,
    merge: BlockId,
    copy: BlockId,
    v: InstId,
    v2: InstId,
    sites: &[UseSite],
) -> Result<(), TransformError> {
    if sites.is_empty() {
        return Ok(());
    }
    ssa.reset(g.ty(v), [(merge, v), (copy, v2)]);
    for site in sites {
        match site {
            UseSite::Operand { user, block } => {
                let reaching = ssa.try_value_at_start(g, *block)?;
                if reaching != v {
                    g.rewrite_inputs(*user, |inst| {
                        inst.for_each_input_mut(|op| {
                            if *op == v {
                                *op = reaching;
                            }
                        })
                    });
                }
            }
            UseSite::PhiInput { user, pred, slot } => {
                let reaching = ssa.try_value_at_end(g, *pred)?;
                if reaching != v {
                    g.block_of(*user)
                        .ok_or(TransformError::MalformedPhi(*user))?;
                    g.rewrite_inputs(*user, |inst| {
                        if let Inst::Phi { inputs } = inst {
                            if inputs[*slot] == v {
                                inputs[*slot] = reaching;
                            }
                        }
                    });
                }
            }
            UseSite::TermInput { block } => {
                let reaching = ssa.try_value_at_start(g, *block)?;
                if reaching != v {
                    g.patch_terminator_inputs(*block, |op| {
                        if *op == v {
                            *op = reaching;
                        }
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{execute, verify, BinOp, ClassTable, CmpOp, GraphBuilder, Type, Value};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    /// Figure 1a: if (x > 0) φ = x else φ = 0; return 2 + φ.
    fn figure1() -> (Graph, BlockId, BlockId, BlockId) {
        let mut b = GraphBuilder::new("foo", &[Type::Int], empty_table());
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
    fn duplicates_figure1_one_pred() {
        let (mut g, bt, bf, bm) = figure1();
        let dup = duplicate(&mut g, bt, bm);
        verify(&g).unwrap();
        assert_eq!(g.preds(bm), &[bf]);
        assert_eq!(g.succs(bt), vec![dup.copy]);
        // Semantics preserved on both paths.
        assert_eq!(execute(&g, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
        assert_eq!(execute(&g, &[Value::Int(-3)]).outcome, Ok(Value::Int(2)));
        // The copy's add uses x directly (the φ input on the bt edge).
        let x = g.param_values()[0];
        let copied_add = g
            .block_insts(dup.copy)
            .iter()
            .copied()
            .find(|&i| matches!(g.inst(i), Inst::Binary { .. }))
            .unwrap();
        assert!(g.inst(copied_add).collect_inputs().contains(&x));
    }

    #[test]
    fn duplicates_figure1_then_merge_degenerates() {
        let (mut g, bt, bf, bm) = figure1();
        duplicate(&mut g, bt, bm);
        // After the first duplication the merge has a single predecessor:
        // it is no longer a duplication candidate (the phase skips it) and
        // CFG simplification folds it into bf.
        assert!(!g.is_merge(bm));
        assert_eq!(g.preds(bm), &[bf]);
        dbds_opt::simplify_cfg(&mut g);
        dbds_opt::remove_dead_code(&mut g);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
        assert_eq!(execute(&g, &[Value::Int(-3)]).outcome, Ok(Value::Int(2)));
    }

    #[test]
    fn repairs_uses_in_successor_blocks() {
        // The merge defines a value used in a later block: after
        // duplication a φ must be inserted at the join.
        let mut b = GraphBuilder::new("rep", &[Type::Int], empty_table());
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm, below) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![x, zero], Type::Int);
        let two = b.iconst(2);
        let sum = b.add(two, phi); // defined in bm
        b.jump(below);
        b.switch_to(below);
        let sq = b.mul(sum, sum); // used below bm
        b.ret(Some(sq));
        let mut g = b.finish();
        let dup = duplicate(&mut g, bt, bm);
        verify(&g).unwrap();
        // below now has two preds (bm and the copy) and a repair φ.
        assert_eq!(g.preds(below).len(), 2);
        assert_eq!(g.phis(below).len(), 1);
        let _ = dup;
        assert_eq!(execute(&g, &[Value::Int(3)]).outcome, Ok(Value::Int(25)));
        assert_eq!(execute(&g, &[Value::Int(-1)]).outcome, Ok(Value::Int(4)));
    }

    #[test]
    fn duplicating_block_ending_in_branch() {
        // Listing 1: the merge ends in a branch (p > 12).
        let mut b = GraphBuilder::new("l1", &[Type::Int], empty_table());
        let i = b.param(0);
        let zero = b.iconst(0);
        let thirteen = b.iconst(13);
        let twelve = b.iconst(12);
        let c = b.cmp(CmpOp::Gt, i, zero);
        let (bt, bf, bm, bret12, breti) = (
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
        let p = b.phi(vec![i, thirteen], Type::Int);
        let c2 = b.cmp(CmpOp::Gt, p, twelve);
        b.branch(c2, bret12, breti, 0.5);
        b.switch_to(bret12);
        b.ret(Some(twelve));
        b.switch_to(breti);
        b.ret(Some(i));
        let mut g = b.finish();
        let dup = duplicate(&mut g, bf, bm);
        verify(&g).unwrap();
        // The copy branches to the same return blocks.
        assert_eq!(g.succs(dup.copy), vec![bret12, breti]);
        assert_eq!(g.preds(bret12).len(), 2);
        for v in [-5i64, 0, 5, 13, 20] {
            let expected = if v > 0 {
                if v > 12 {
                    12
                } else {
                    v
                }
            } else {
                12
            };
            assert_eq!(
                execute(&g, &[Value::Int(v)]).outcome,
                Ok(Value::Int(expected)),
                "input {v}"
            );
        }
    }

    #[test]
    fn successor_phis_get_copied_inputs() {
        // bm computes t = x+1 and jumps to a join that φs over t and
        // another path's value.
        let mut b = GraphBuilder::new("sp", &[Type::Int, Type::Bool, Type::Bool], empty_table());
        let x = b.param(0);
        let c1 = b.param(1);
        let c2 = b.param(2);
        let one = b.iconst(1);
        let (ba, bb, bm, bother, bjoin) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.branch(c1, ba, bb, 0.5);
        b.switch_to(ba);
        b.jump(bm);
        b.switch_to(bb);
        b.branch(c2, bm, bother, 0.5);
        b.switch_to(bm);
        let p = b.phi(vec![x, one], Type::Int);
        let t = b.add(p, one);
        b.jump(bjoin);
        b.switch_to(bother);
        let hundred = b.iconst(100);
        b.jump(bjoin);
        b.switch_to(bjoin);
        let q = b.phi(vec![t, hundred], Type::Int);
        b.ret(Some(q));
        let mut g = b.finish();
        let dup = duplicate(&mut g, ba, bm);
        verify(&g).unwrap();
        // bjoin now has three preds; its φ got the copied add as input.
        assert_eq!(g.preds(bjoin).len(), 3);
        // The copy holds the add alone, on the φ's `ba` input.
        let copied_add = g.block_insts(dup.copy)[0];
        let add_on_x = Inst::Binary {
            op: BinOp::Add,
            lhs: x,
            rhs: one,
        };
        assert_eq!(g.inst(copied_add), &add_on_x);
        match g.inst(g.phis(bjoin)[0]) {
            Inst::Phi { inputs } => assert!(inputs.contains(&copied_add)),
            _ => panic!(),
        }
        // Semantics.
        let r = execute(&g, &[Value::Int(7), Value::Bool(true), Value::Bool(false)]);
        assert_eq!(r.outcome, Ok(Value::Int(8)));
        let r = execute(&g, &[Value::Int(7), Value::Bool(false), Value::Bool(true)]);
        assert_eq!(r.outcome, Ok(Value::Int(2)));
        let r = execute(&g, &[Value::Int(7), Value::Bool(false), Value::Bool(false)]);
        assert_eq!(r.outcome, Ok(Value::Int(100)));
    }

    #[test]
    fn three_way_merge_partial_duplication() {
        let mut b = GraphBuilder::new("three", &[Type::Int], empty_table());
        let x = b.param(0);
        let zero = b.iconst(0);
        let ten = b.iconst(10);
        let c1 = b.cmp(CmpOp::Lt, x, zero);
        let (bneg, brest, bsmall, bbig, bm) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.branch(c1, bneg, brest, 0.3);
        b.switch_to(brest);
        let c2 = b.cmp(CmpOp::Lt, x, ten);
        b.branch(c2, bsmall, bbig, 0.5);
        b.switch_to(bneg);
        b.jump(bm);
        b.switch_to(bsmall);
        b.jump(bm);
        b.switch_to(bbig);
        b.jump(bm);
        b.switch_to(bm);
        let p = b.phi(vec![zero, x, ten], Type::Int);
        let two = b.iconst(2);
        let d = b.mul(p, two);
        b.ret(Some(d));
        let mut g = b.finish();
        duplicate(&mut g, bsmall, bm);
        verify(&g).unwrap();
        assert_eq!(g.preds(bm).len(), 2);
        for v in [-4i64, 4, 40] {
            let expected = if v < 0 {
                0
            } else if v < 10 {
                2 * v
            } else {
                20
            };
            assert_eq!(
                execute(&g, &[Value::Int(v)]).outcome,
                Ok(Value::Int(expected))
            );
        }
        // Duplicate a second predecessor.
        duplicate(&mut g, bneg, bm);
        verify(&g).unwrap();
        for v in [-4i64, 4, 40] {
            let expected = if v < 0 {
                0
            } else if v < 10 {
                2 * v
            } else {
                20
            };
            assert_eq!(
                execute(&g, &[Value::Int(v)]).outcome,
                Ok(Value::Int(expected))
            );
        }
    }

    #[test]
    fn merge_with_effects_duplicates_correctly() {
        // Stores and calls in the merge block must be copied, not shared.
        let mut t = ClassTable::new();
        let cls = t.add_class("S");
        let f = t.add_field(cls, "v", Type::Int);
        let mut b = GraphBuilder::new("eff", &[Type::Ref(cls), Type::Bool], Arc::new(t));
        let obj = b.param(0);
        let c = b.param(1);
        let one = b.iconst(1);
        let two = b.iconst(2);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let p = b.phi(vec![one, two], Type::Int);
        b.store(obj, f, p);
        let l = b.load(obj, f);
        b.ret(Some(l));
        let mut g = b.finish();
        duplicate(&mut g, bt, bm);
        verify(&g).unwrap();
        let table = g.class_table().clone();
        for (flag, expected) in [(true, 1i64), (false, 2)] {
            let mut heap = dbds_ir::Heap::new();
            let o = heap.alloc_object(&table, cls);
            let r = dbds_ir::execute_with_heap(
                &g,
                &[o, Value::Bool(flag)],
                &mut heap,
                dbds_ir::DEFAULT_FUEL,
            );
            assert_eq!(r.outcome, Ok(Value::Int(expected)));
        }
    }

    #[test]
    fn duplication_into_loop_latch() {
        // Loop: header merges entry and latch; body is the latch and also
        // a merge?? Simpler: duplicate a merge inside a loop body.
        let mut b = GraphBuilder::new("loop", &[Type::Int], empty_table());
        let n = b.param(0);
        let zero = b.iconst(0);
        let one = b.iconst(1);
        let two = b.iconst(2);
        let header = b.new_block();
        let (bodya, bodyb, bodym, latch, exit) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.jump(header);
        b.switch_to(latch);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(vec![zero, zero], Type::Int);
        let acc = b.phi(vec![zero, zero], Type::Int);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, bodya, exit, 0.9);
        b.switch_to(bodya);
        let parity = b.rem(i, two);
        let is_even = b.cmp(CmpOp::Eq, parity, zero);
        b.branch(is_even, bodyb, bodym, 0.5);
        b.switch_to(bodyb);
        b.jump(bodym);
        b.switch_to(bodym);
        let inc = b.phi(vec![two, one], Type::Int);
        let acc2 = b.add(acc, inc);
        b.jump(latch);
        b.switch_to(exit);
        b.ret(Some(acc));
        let mut g = b.finish();
        // Patch loop phis.
        let iplus = g.append_inst(
            latch,
            Inst::Binary {
                op: dbds_ir::BinOp::Add,
                lhs: i,
                rhs: one,
            },
            Type::Int,
        );
        g.rewrite_inputs(i, |inst| {
            if let Inst::Phi { inputs } = inst {
                inputs[1] = iplus;
            }
        });
        g.rewrite_inputs(acc, |inst| {
            if let Inst::Phi { inputs } = inst {
                inputs[1] = acc2;
            }
        });
        verify(&g).unwrap();
        let reference = execute(&g, &[Value::Int(6)]);
        // acc = +2 (i=0 even? wait: bodyb on even → inc=2) …
        duplicate(&mut g, bodyb, bodym);
        verify(&g).unwrap();
        let after = execute(&g, &[Value::Int(6)]);
        assert_eq!(reference.outcome, after.outcome);
    }

    #[test]
    fn duplicating_a_loop_header_repairs_back_edge_phis() {
        // Regression test: a loop header with a self-referential
        // loop-invariant φ (`v = φ(entry: x, latch: v)`). Duplicating the
        // header into its entry predecessor creates a second loop entry;
        // the back-edge φ input must be re-routed through a new φ at the
        // loop-body join or SSA breaks.
        let mut b = GraphBuilder::new("lh", &[Type::Int, Type::Int], empty_table());
        let x = b.param(0);
        let n = b.param(1);
        let zero = b.iconst(0);
        let one = b.iconst(1);
        let pre = b.new_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(pre);
        b.switch_to(pre);
        b.jump(header);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(header);
        // i counts; inv is loop-invariant via a self-input.
        let i = b.phi(vec![zero, zero], Type::Int);
        let inv = b.phi(vec![x, x], Type::Int);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit, 0.9);
        b.switch_to(exit);
        let out = b.add(i, inv);
        b.ret(Some(out));
        let mut g = b.finish();
        let inc = g.append_inst(
            body,
            Inst::Binary {
                op: dbds_ir::BinOp::Add,
                lhs: i,
                rhs: one,
            },
            Type::Int,
        );
        g.rewrite_inputs(i, |inst| {
            if let Inst::Phi { inputs } = inst {
                inputs[1] = inc;
            }
        });
        g.rewrite_inputs(inv, |inst| {
            if let Inst::Phi { inputs } = inst {
                inputs[1] = inv; // self-input: invariant around the loop
            }
        });
        verify(&g).unwrap();
        let reference: Vec<_> = [0i64, 3, 7]
            .iter()
            .map(|&nv| execute(&g, &[Value::Int(11), Value::Int(nv)]).outcome)
            .collect();

        // The header is a merge of [pre, body]; duplicate into `pre`.
        duplicate(&mut g, pre, header);
        verify(&g).unwrap();
        // Simplification must not meet self-referential single-input φs.
        dbds_opt::simplify_cfg(&mut g);
        dbds_opt::remove_dead_code(&mut g);
        verify(&g).unwrap();
        let after: Vec<_> = [0i64, 3, 7]
            .iter()
            .map(|&nv| execute(&g, &[Value::Int(11), Value::Int(nv)]).outcome)
            .collect();
        assert_eq!(reference, after);
    }

    #[test]
    #[should_panic(expected = "not a control-flow merge")]
    fn rejects_non_merge() {
        let mut b = GraphBuilder::new("nm", &[], empty_table());
        let b1 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.ret(None);
        let mut g = b.finish();
        let entry = g.entry();
        duplicate(&mut g, entry, b1);
    }
}
