//! On-demand SSA reconstruction.
//!
//! §3.1 of the paper notes that "code duplication can require complex
//! analysis to generate valid φ instructions for usages in dominated
//! blocks". This module is that analysis: given a *variable* with one
//! known definition at the end of some blocks, it answers "which SSA value
//! holds the variable at this point?", inserting φs at join points on
//! demand (the classic SSA-updater scheme, in the style of Braun et al.).
//!
//! It is used by the duplication transform (the original and the copy of a
//! duplicated instruction are two definitions of one variable) and by
//! scalar replacement (every store to a field of a non-escaping allocation
//! is a definition of that field's variable).

use dbds_ir::{BlockId, Graph, Inst, InstId, Type};
use std::error::Error;
use std::fmt;

/// A failure of the on-demand SSA reconstruction.
///
/// These are graph-invariant violations (a query from a point no
/// definition reaches, or a tracked φ slot that no longer holds a φ); the
/// phase driver converts them into bailouts instead of aborting the
/// compilation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SsaRepairError {
    /// No definition of the variable reaches the queried block.
    NoReachingDefinition(BlockId),
    /// An instruction the builder created as a φ is no longer one.
    NotAPhi(InstId),
}

impl fmt::Display for SsaRepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsaRepairError::NoReachingDefinition(b) => {
                write!(f, "no definition of the variable reaches {b}")
            }
            SsaRepairError::NotAPhi(i) => write!(f, "{i} is tracked as a phi but is not one"),
        }
    }
}

impl Error for SsaRepairError {}

/// Incremental SSA reconstruction, one variable at a time.
///
/// The memo tables are dense — indexed by block, or by instruction for
/// the forwarding table — and every entry carries the stamp of the
/// variable it belongs to, so [`SsaBuilder::reset`] starts the next
/// variable in O(1) and one builder serves every variable of a pass, or
/// every duplication of a compilation. A φ found trivial is not chased
/// through the memo: it is recorded as forwarding to the value that
/// replaced it, and every memo read resolves through the forwarding
/// table.
///
/// `SsaBuilder::default()` has no variable in hand: [`SsaBuilder::reset`]
/// must start one before any definition or query, which panic otherwise
/// (an entry written under no variable would carry the stamp the tables
/// are padded with, and every padded block would read as defined).
#[derive(Debug, Default)]
pub struct SsaBuilder {
    ty: Option<Type>,
    /// The variable in hand: table entries stamped otherwise are absent.
    stamp: u32,
    /// Value of the variable at the *end* of a block (after its last
    /// definition), for blocks that define it.
    def_at_end: Vec<(u32, InstId)>,
    /// Memoized value of the variable at the *start* of a block.
    start_cache: Vec<(u32, InstId)>,
    /// Trivial φs removed, per φ: the value that replaced it.
    forward: Vec<(u32, InstId)>,
    /// φs created by the reconstruction.
    new_phis: Vec<InstId>,
    /// Arbitrary existing value used to pre-fill placeholder φ inputs
    /// before they are patched.
    dummy: Option<InstId>,
    /// The predecessors of the blocks whose φ inputs are being gathered,
    /// innermost last.
    preds: Vec<BlockId>,
}

/// Reads `table[i]` when it belongs to the variable stamped `stamp`.
fn stamped(table: &[(u32, InstId)], stamp: u32, i: usize) -> Option<InstId> {
    table.get(i).filter(|&&(s, _)| s == stamp).map(|&(_, v)| v)
}

/// Sets `table[i]` for the variable stamped `stamp`, growing the table.
fn stamp_in(table: &mut Vec<(u32, InstId)>, stamp: u32, i: usize, v: InstId) {
    if i >= table.len() {
        table.resize(i + 1, (0, v));
    }
    table[i] = (stamp, v);
}

impl SsaBuilder {
    /// Creates a builder for a variable of type `ty` with the given
    /// end-of-block definitions.
    ///
    /// # Panics
    ///
    /// Panics if `defs` is empty (a variable must be defined somewhere).
    pub fn new(ty: Type, defs: impl IntoIterator<Item = (BlockId, InstId)>) -> Self {
        let mut ssa = SsaBuilder::default();
        ssa.reset(ty, defs);
        ssa
    }

    /// Forgets the variable in hand and starts one of type `ty` with the
    /// given end-of-block definitions, keeping the tables' storage.
    ///
    /// # Panics
    ///
    /// Panics if `defs` is empty (a variable must be defined somewhere).
    pub fn reset(&mut self, ty: Type, defs: impl IntoIterator<Item = (BlockId, InstId)>) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Entries from 2^32 variables ago would look current.
            self.def_at_end.clear();
            self.start_cache.clear();
            self.forward.clear();
            self.stamp = 1;
        }
        self.ty = Some(ty);
        self.new_phis.clear();
        self.preds.clear();
        self.dummy = None;
        for (b, v) in defs {
            self.dummy.get_or_insert(v);
            self.set_def(b, v);
        }
        assert!(self.dummy.is_some(), "variable needs a definition");
    }

    /// Registers (or replaces) the end-of-block definition for `b`.
    ///
    /// # Panics
    ///
    /// Panics if no variable is in hand.
    pub fn set_def(&mut self, b: BlockId, v: InstId) {
        self.assert_in_hand();
        stamp_in(&mut self.def_at_end, self.stamp, b.index(), v);
    }

    /// The φs inserted so far (some may have become trivial and been
    /// removed again; removed ones are filtered out).
    pub fn new_phis(&self, g: &Graph) -> Vec<InstId> {
        self.new_phis
            .iter()
            .copied()
            .filter(|&p| g.block_of(p).is_some())
            .collect()
    }

    fn assert_in_hand(&self) {
        assert!(
            self.dummy.is_some(),
            "no variable in hand: reset the SSA builder first"
        );
    }

    /// `v`, or what the trivial φ `v` was replaced by, transitively.
    fn resolve(&self, mut v: InstId) -> InstId {
        while let Some(to) = stamped(&self.forward, self.stamp, v.index()) {
            v = to;
        }
        v
    }

    /// The value of the variable at the end of `b`.
    ///
    /// # Panics
    ///
    /// Panics if no definition reaches `b`.
    pub fn value_at_end(&mut self, g: &mut Graph, b: BlockId) -> InstId {
        self.try_value_at_end(g, b)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The value of the variable at the start of `b`, inserting φs at
    /// joins as needed.
    ///
    /// # Panics
    ///
    /// Panics if no definition reaches `b` (e.g. asking at the entry).
    pub fn value_at_start(&mut self, g: &mut Graph, b: BlockId) -> InstId {
        self.try_value_at_start(g, b)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SsaBuilder::value_at_end`].
    ///
    /// # Errors
    ///
    /// Returns [`SsaRepairError`] when no definition reaches `b` or a
    /// tracked φ was replaced behind the builder's back.
    pub fn try_value_at_end(
        &mut self,
        g: &mut Graph,
        b: BlockId,
    ) -> Result<InstId, SsaRepairError> {
        self.assert_in_hand();
        if let Some(v) = stamped(&self.def_at_end, self.stamp, b.index()) {
            return Ok(self.resolve(v));
        }
        self.try_value_at_start(g, b)
    }

    /// Fallible form of [`SsaBuilder::value_at_start`].
    ///
    /// # Errors
    ///
    /// Returns [`SsaRepairError`] when no definition reaches `b` (e.g.
    /// asking at the entry) or a tracked φ was replaced behind the
    /// builder's back.
    pub fn try_value_at_start(
        &mut self,
        g: &mut Graph,
        b: BlockId,
    ) -> Result<InstId, SsaRepairError> {
        self.assert_in_hand();
        if let Some(v) = stamped(&self.start_cache, self.stamp, b.index()) {
            return Ok(self.resolve(v));
        }
        let base = self.preds.len();
        self.preds.extend_from_slice(g.preds(b));
        let value = self.join(g, b, base);
        self.preds.truncate(base);
        value
    }

    /// The value at the start of `b`, whose predecessors are
    /// `self.preds[base..]`.
    fn join(&mut self, g: &mut Graph, b: BlockId, base: usize) -> Result<InstId, SsaRepairError> {
        let count = self.preds.len() - base;
        match count {
            0 => Err(SsaRepairError::NoReachingDefinition(b)),
            1 => {
                let v = self.try_value_at_end(g, self.preds[base])?;
                stamp_in(&mut self.start_cache, self.stamp, b.index(), v);
                Ok(v)
            }
            _ => {
                // Install a placeholder φ first so that cyclic queries
                // (loops) terminate, then fill in its inputs.
                let (ty, dummy) = (
                    self.ty.expect("a variable in hand"),
                    self.dummy.expect("a variable in hand"),
                );
                let phi = g.append_phi(b, vec![dummy; count], ty);
                stamp_in(&mut self.start_cache, self.stamp, b.index(), phi);
                self.new_phis.push(phi);
                let mut inputs: Vec<InstId> = Vec::with_capacity(count);
                for i in base..base + count {
                    inputs.push(self.try_value_at_end(g, self.preds[i])?);
                }
                if !g.inst(phi).is_phi() {
                    return Err(SsaRepairError::NotAPhi(phi));
                }
                g.rewrite_inputs(phi, |inst| *inst = Inst::Phi { inputs });
                Ok(self.try_remove_trivial(g, phi))
            }
        }
    }

    /// If `phi` is trivial (all inputs agree, ignoring self-references),
    /// replaces it with the unique input and forwards it there. Returns
    /// the representative value.
    fn try_remove_trivial(&mut self, g: &mut Graph, phi: InstId) -> InstId {
        let Inst::Phi { inputs } = g.inst(phi) else {
            unreachable!("checked to be a phi");
        };
        let mut unique: Option<InstId> = None;
        for &input in inputs {
            if input == phi {
                continue;
            }
            match unique {
                None => unique = Some(input),
                Some(u) if u == input => {}
                Some(_) => return phi, // non-trivial
            }
        }
        let Some(rep) = unique else {
            return phi; // degenerate, keep
        };
        g.replace_all_uses(phi, rep);
        g.remove_inst(phi);
        stamp_in(&mut self.forward, self.stamp, phi.index(), rep);
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{verify, ClassTable, CmpOp, GraphBuilder};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    #[test]
    fn single_def_flows_through_chain() {
        let mut b = GraphBuilder::new("c", &[Type::Int], empty_table());
        let x = b.param(0);
        let (b1, b2) = (b.new_block(), b.new_block());
        b.jump(b1);
        b.switch_to(b1);
        b.jump(b2);
        b.switch_to(b2);
        b.ret(None);
        let mut g = b.finish();
        let mut defs = HashMap::new();
        defs.insert(g.entry(), x);
        let mut ssa = SsaBuilder::new(Type::Int, defs);
        assert_eq!(ssa.value_at_start(&mut g, b2), x);
        assert!(ssa.new_phis(&g).is_empty());
    }

    #[test]
    fn two_defs_insert_phi_at_join() {
        let mut b = GraphBuilder::new("j", &[Type::Bool], empty_table());
        let c = b.param(0);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let one = b.iconst(1);
        b.jump(bm);
        b.switch_to(bf);
        let two = b.iconst(2);
        b.jump(bm);
        b.switch_to(bm);
        b.ret(None);
        let mut g = b.finish();
        let mut defs = HashMap::new();
        defs.insert(bt, one);
        defs.insert(bf, two);
        let mut ssa = SsaBuilder::new(Type::Int, defs);
        let v = ssa.value_at_start(&mut g, bm);
        // A φ merging 1 and 2 must have been created in bm.
        assert_eq!(g.block_of(v), Some(bm));
        match g.inst(v) {
            Inst::Phi { inputs } => assert_eq!(inputs, &vec![one, two]),
            other => panic!("expected phi, got {other:?}"),
        }
        assert_eq!(ssa.new_phis(&g), vec![v]);
        // Idempotent.
        assert_eq!(ssa.value_at_start(&mut g, bm), v);
        verify(&g).unwrap();
    }

    #[test]
    fn same_def_both_sides_stays_trivial() {
        let mut b = GraphBuilder::new("t", &[Type::Bool], empty_table());
        let c = b.param(0);
        let seven = b.iconst(7);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        b.ret(None);
        let mut g = b.finish();
        let mut defs = HashMap::new();
        defs.insert(bt, seven);
        defs.insert(bf, seven);
        let mut ssa = SsaBuilder::new(Type::Int, defs);
        let v = ssa.value_at_start(&mut g, bm);
        assert_eq!(v, seven);
        assert!(ssa.new_phis(&g).is_empty());
        verify(&g).unwrap();
    }

    #[test]
    fn loop_gets_phi_with_back_edge() {
        // entry defines v0; body defines v1; query inside the loop header.
        let mut b = GraphBuilder::new("l", &[Type::Int], empty_table());
        let n = b.param(0);
        let zero = b.iconst(0);
        let one = b.iconst(1);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(header);
        let cond = b.cmp(CmpOp::Lt, zero, n);
        b.branch(cond, body, exit, 0.9);
        b.switch_to(exit);
        b.ret(None);
        let mut g = b.finish();
        // Variable: defined as `zero` at entry, redefined as `one` in body.
        let mut defs = HashMap::new();
        defs.insert(g.entry(), zero);
        defs.insert(body, one);
        let mut ssa = SsaBuilder::new(Type::Int, defs);
        let v = ssa.value_at_start(&mut g, header);
        match g.inst(v) {
            Inst::Phi { inputs } => {
                assert_eq!(inputs.len(), 2);
                assert!(inputs.contains(&zero));
                assert!(inputs.contains(&one));
            }
            other => panic!("expected phi, got {other:?}"),
        }
        assert_eq!(ssa.value_at_start(&mut g, exit), v);
        verify(&g).unwrap();
    }

    #[test]
    fn loop_invariant_variable_needs_no_phi() {
        // Defined only before the loop; queried inside: trivial φ removed.
        let mut b = GraphBuilder::new("li", &[Type::Int], empty_table());
        let n = b.param(0);
        let zero = b.iconst(0);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(header);
        let cond = b.cmp(CmpOp::Lt, zero, n);
        b.branch(cond, body, exit, 0.9);
        b.switch_to(exit);
        b.ret(None);
        let mut g = b.finish();
        let mut defs = HashMap::new();
        defs.insert(g.entry(), zero);
        let mut ssa = SsaBuilder::new(Type::Int, defs);
        let v = ssa.value_at_start(&mut g, body);
        assert_eq!(v, zero);
        assert!(ssa.new_phis(&g).is_empty(), "trivial phi should be removed");
        verify(&g).unwrap();
    }

    #[test]
    fn memo_reads_resolve_transitive_forwarding() {
        // entry -> h1 -> h2 -> body -> latch2 -> h2 (inner loop), h2 ->
        // latch1 -> h1 (outer loop), h1 -> exit. Defined once, at entry.
        let mut b = GraphBuilder::new("nest", &[Type::Int], empty_table());
        let n = b.param(0);
        let zero = b.iconst(0);
        let one = b.iconst(1);
        let [h1, h2, body, latch2, latch1, exit] = [(); 6].map(|()| b.new_block());
        b.jump(h1);
        b.switch_to(h1);
        let c1 = b.cmp(CmpOp::Lt, zero, n);
        b.branch(c1, h2, exit, 0.9);
        b.switch_to(h2);
        let c2 = b.cmp(CmpOp::Lt, one, n);
        b.branch(c2, body, latch1, 0.9);
        b.switch_to(body);
        b.jump(latch2);
        b.switch_to(latch2);
        b.jump(h2);
        b.switch_to(latch1);
        b.jump(h1);
        b.switch_to(exit);
        b.ret(None);
        let mut g = b.finish();
        let mut ssa = SsaBuilder::new(Type::Int, [(g.entry(), zero)]);
        // The query at h1 builds φ1 there and, through latch1, φ2 at h2.
        // φ2 reads [φ1, φ2]: trivial, it forwards to φ1 — while body,
        // latch2 and h2 still remember φ2. Then φ1 reads [zero, φ1] and
        // forwards to zero.
        assert_eq!(ssa.value_at_start(&mut g, h1), zero);
        let insts = g.inst_count();
        for block in [h2, body, latch2, latch1, exit] {
            assert_eq!(ssa.value_at_start(&mut g, block), zero, "at {block}");
        }
        assert_eq!(g.inst_count(), insts, "memo reads create no φ");
        assert!(ssa.new_phis(&g).is_empty());
        verify(&g).unwrap();

        // The next variable on the same builder sees none of it.
        ssa.reset(Type::Int, [(g.entry(), one), (body, n)]);
        let at_h2 = ssa.value_at_start(&mut g, h2);
        assert_ne!(at_h2, zero);
        assert!(matches!(g.inst(at_h2), Inst::Phi { .. }));
        assert_eq!(ssa.value_at_start(&mut g, latch2), n);
        verify(&g).unwrap();
    }

    #[test]
    fn diamond_then_join_then_use_below() {
        // defs in bt/bf; uses both at bm and at a block below bm: the
        // same φ serves both.
        let mut b = GraphBuilder::new("d2", &[Type::Bool], empty_table());
        let c = b.param(0);
        let (bt, bf, bm, below) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let one = b.iconst(1);
        b.jump(bm);
        b.switch_to(bf);
        let two = b.iconst(2);
        b.jump(bm);
        b.switch_to(bm);
        b.jump(below);
        b.switch_to(below);
        b.ret(None);
        let mut g = b.finish();
        let mut defs = HashMap::new();
        defs.insert(bt, one);
        defs.insert(bf, two);
        let mut ssa = SsaBuilder::new(Type::Int, defs);
        let at_bm = ssa.value_at_start(&mut g, bm);
        let at_below = ssa.value_at_start(&mut g, below);
        assert_eq!(at_bm, at_below);
        assert_eq!(ssa.new_phis(&g).len(), 1);
        verify(&g).unwrap();
    }

    #[test]
    fn use_after_redef_sees_new_value() {
        let mut b = GraphBuilder::new("r", &[], empty_table());
        let zero = b.iconst(0);
        let one = b.iconst(1);
        let b1 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.ret(None);
        let mut g = b.finish();
        let mut defs = HashMap::new();
        defs.insert(g.entry(), zero);
        let mut ssa = SsaBuilder::new(Type::Int, defs);
        assert_eq!(ssa.value_at_start(&mut g, b1), zero);
        // Redefine and invalidate: set_def changes the end-of-entry value.
        // (start_cache for b1 was already resolved; callers must query
        // before mutating defs — emulate a fresh builder.)
        let mut defs2 = HashMap::new();
        defs2.insert(g.entry(), one);
        let mut ssa2 = SsaBuilder::new(Type::Int, defs2);
        assert_eq!(ssa2.value_at_start(&mut g, b1), one);
        let _ = ssa;
    }

    #[test]
    #[should_panic(expected = "no variable in hand")]
    fn a_default_builder_takes_no_definition_before_reset() {
        let mut b = GraphBuilder::new("d", &[], empty_table());
        let zero = b.iconst(0);
        let b1 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.ret(None);
        let mut g = b.finish();
        // Were it taken, the entry's padded slot would read as defined
        // to `zero` too.
        let entry = g.entry();
        let mut ssa = SsaBuilder::default();
        ssa.set_def(b1, zero);
        let _ = ssa.try_value_at_end(&mut g, entry);
    }

    #[test]
    #[should_panic(expected = "no variable in hand")]
    fn a_default_builder_answers_no_query_before_reset() {
        let mut b = GraphBuilder::new("q", &[], empty_table());
        b.ret(None);
        let mut g = b.finish();
        let entry = g.entry();
        let _ = SsaBuilder::default().try_value_at_end(&mut g, entry);
    }

    #[test]
    #[should_panic(expected = "no definition")]
    fn panics_without_reaching_definition() {
        let mut b = GraphBuilder::new("p", &[], empty_table());
        let zero = b.iconst(0);
        b.ret(None);
        let mut g = b.finish();
        let entry = g.entry();
        let orphan_target = g.add_block();
        // A block whose only def is downstream cannot be queried at start.
        let mut defs = HashMap::new();
        defs.insert(orphan_target, zero);
        let mut ssa = SsaBuilder::new(Type::Int, defs);
        let _ = ssa.value_at_start(&mut g, entry);
    }
}
