//! Ergonomic construction of [`Graph`]s.
//!
//! [`GraphBuilder`] keeps a *current block* cursor and offers one short
//! method per instruction kind, which keeps hand-written kernels (tests,
//! examples, the micro-benchmark suite) compact and readable.

use crate::classes::ClassTable;
use crate::ids::{BlockId, ClassId, FieldId, InstId};
use crate::inst::{BinOp, CmpOp, Inst, Terminator};
use crate::types::{ConstValue, Type};
use crate::Graph;
use std::sync::Arc;

/// A cursor-style builder for [`Graph`]s.
///
/// # Examples
///
/// Figure 1a of the paper — `int foo(int x) { int phi; if (x > 0) phi = x;
/// else phi = 0; return 2 + phi; }`:
///
/// ```
/// use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
/// use std::sync::Arc;
///
/// let mut b = GraphBuilder::new("foo", &[Type::Int], Arc::new(ClassTable::new()));
/// let x = b.param(0);
/// let zero = b.iconst(0);
/// let cond = b.cmp(CmpOp::Gt, x, zero);
/// let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
/// b.branch(cond, bt, bf, 0.5);
/// b.switch_to(bt);
/// b.jump(bm);
/// b.switch_to(bf);
/// b.jump(bm);
/// b.switch_to(bm);
/// let phi = b.phi(vec![x, zero], Type::Int);
/// let two = b.iconst(2);
/// let sum = b.add(two, phi);
/// b.ret(Some(sum));
/// let graph = b.finish();
/// assert_eq!(graph.merge_blocks().len(), 1);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    graph: Graph,
    current: BlockId,
}

impl GraphBuilder {
    /// Starts building a graph named `name` with the given parameter types;
    /// the cursor starts at the entry block.
    pub fn new(name: impl Into<String>, params: &[Type], table: Arc<ClassTable>) -> Self {
        let graph = Graph::new(name, params, table);
        let current = graph.entry();
        GraphBuilder { graph, current }
    }

    /// Read access to the graph under construction.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access to the graph under construction — an escape hatch
    /// for edits the cursor API does not cover, such as patching the
    /// back-edge inputs of loop φs after the loop body exists.
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// The block the cursor currently appends to.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Creates a new (empty, unterminated) block without moving the cursor.
    pub fn new_block(&mut self) -> BlockId {
        self.graph.add_block()
    }

    /// Moves the cursor to `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        self.current = b;
    }

    /// The SSA value of parameter `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn param(&self, index: usize) -> InstId {
        self.graph.param_values()[index]
    }

    /// Appends an integer constant.
    pub fn iconst(&mut self, value: i64) -> InstId {
        self.push(Inst::Const(ConstValue::Int(value)), Type::Int)
    }

    /// Appends a boolean constant.
    pub fn bconst(&mut self, value: bool) -> InstId {
        self.push(Inst::Const(ConstValue::Bool(value)), Type::Bool)
    }

    /// Appends a null reference constant of class `class`.
    pub fn null(&mut self, class: ClassId) -> InstId {
        self.push(Inst::Const(ConstValue::Null(class)), Type::Ref(class))
    }

    /// Appends a null array constant.
    pub fn null_arr(&mut self) -> InstId {
        self.push(Inst::Const(ConstValue::NullArr), Type::Arr)
    }

    /// Appends a binary operation.
    pub fn binop(&mut self, op: BinOp, lhs: InstId, rhs: InstId) -> InstId {
        self.push(Inst::Binary { op, lhs, rhs }, Type::Int)
    }

    /// Appends an addition.
    pub fn add(&mut self, lhs: InstId, rhs: InstId) -> InstId {
        self.binop(BinOp::Add, lhs, rhs)
    }

    /// Appends a subtraction.
    pub fn sub(&mut self, lhs: InstId, rhs: InstId) -> InstId {
        self.binop(BinOp::Sub, lhs, rhs)
    }

    /// Appends a multiplication.
    pub fn mul(&mut self, lhs: InstId, rhs: InstId) -> InstId {
        self.binop(BinOp::Mul, lhs, rhs)
    }

    /// Appends a division.
    pub fn div(&mut self, lhs: InstId, rhs: InstId) -> InstId {
        self.binop(BinOp::Div, lhs, rhs)
    }

    /// Appends a remainder.
    pub fn rem(&mut self, lhs: InstId, rhs: InstId) -> InstId {
        self.binop(BinOp::Rem, lhs, rhs)
    }

    /// Appends a comparison.
    pub fn cmp(&mut self, op: CmpOp, lhs: InstId, rhs: InstId) -> InstId {
        self.push(Inst::Compare { op, lhs, rhs }, Type::Bool)
    }

    /// Appends a boolean negation.
    pub fn not(&mut self, value: InstId) -> InstId {
        self.push(Inst::Not(value), Type::Bool)
    }

    /// Appends an integer negation.
    pub fn neg(&mut self, value: InstId) -> InstId {
        self.push(Inst::Neg(value), Type::Int)
    }

    /// Appends a φ to the current block. `inputs` must align with the
    /// block's current predecessor list.
    pub fn phi(&mut self, inputs: Vec<InstId>, ty: Type) -> InstId {
        self.graph.append_phi(self.current, inputs, ty)
    }

    /// Appends an object allocation.
    pub fn new_object(&mut self, class: ClassId) -> InstId {
        self.push(Inst::New { class }, Type::Ref(class))
    }

    /// Appends a field load; the result type is the field's declared type.
    pub fn load(&mut self, object: InstId, field: FieldId) -> InstId {
        let ty = self.graph.class_table().field(field).ty;
        self.push(Inst::LoadField { object, field }, ty)
    }

    /// Appends a field store.
    pub fn store(&mut self, object: InstId, field: FieldId, value: InstId) -> InstId {
        self.push(
            Inst::StoreField {
                object,
                field,
                value,
            },
            Type::Void,
        )
    }

    /// Appends an exact-class type test.
    pub fn instance_of(&mut self, object: InstId, class: ClassId) -> InstId {
        self.push(Inst::InstanceOf { object, class }, Type::Bool)
    }

    /// Appends an array allocation.
    pub fn new_array(&mut self, length: InstId) -> InstId {
        self.push(Inst::NewArray { length }, Type::Arr)
    }

    /// Appends an array load.
    pub fn aload(&mut self, array: InstId, index: InstId) -> InstId {
        self.push(Inst::ArrayLoad { array, index }, Type::Int)
    }

    /// Appends an array store.
    pub fn astore(&mut self, array: InstId, index: InstId, value: InstId) -> InstId {
        self.push(
            Inst::ArrayStore {
                array,
                index,
                value,
            },
            Type::Void,
        )
    }

    /// Appends an array length read.
    pub fn alength(&mut self, array: InstId) -> InstId {
        self.push(Inst::ArrayLength(array), Type::Int)
    }

    /// Appends an opaque call.
    pub fn invoke(&mut self, args: Vec<InstId>) -> InstId {
        self.push(Inst::Invoke { args }, Type::Int)
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.graph
            .set_terminator(self.current, Terminator::Jump { target });
    }

    /// Terminates the current block with a conditional branch.
    /// `prob_then` is the profile probability of the then edge.
    pub fn branch(&mut self, cond: InstId, then_bb: BlockId, else_bb: BlockId, prob_then: f64) {
        self.graph.set_terminator(
            self.current,
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
                prob_then,
            },
        );
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<InstId>) {
        self.graph
            .set_terminator(self.current, Terminator::Return { value });
    }

    /// Terminates the current block with a deoptimization.
    pub fn deopt(&mut self) {
        self.graph.set_terminator(self.current, Terminator::Deopt);
    }

    /// Finishes construction and returns the graph.
    pub fn finish(mut self) -> Graph {
        self.graph.trim_use_lists();
        self.graph
    }

    fn push(&mut self, inst: Inst, ty: Type) -> InstId {
        self.graph.append_inst(self.current, inst, ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with_point() -> (Arc<ClassTable>, ClassId, FieldId, FieldId) {
        let mut t = ClassTable::new();
        let c = t.add_class("Point");
        let fx = t.add_field(c, "x", Type::Int);
        let fy = t.add_field(c, "y", Type::Int);
        (Arc::new(t), c, fx, fy)
    }

    #[test]
    fn builds_straightline_code() {
        let (t, ..) = table_with_point();
        let mut b = GraphBuilder::new("f", &[Type::Int, Type::Int], t);
        let x = b.param(0);
        let y = b.param(1);
        let s = b.add(x, y);
        let d = b.mul(s, s);
        b.ret(Some(d));
        let g = b.finish();
        assert_eq!(g.block_insts(g.entry()).len(), 4); // 2 params + add + mul
    }

    #[test]
    fn heap_ops_get_field_types() {
        let (t, c, fx, _fy) = table_with_point();
        let mut b = GraphBuilder::new("g", &[], t);
        let p = b.new_object(c);
        let v = b.iconst(7);
        b.store(p, fx, v);
        let l = b.load(p, fx);
        b.ret(Some(l));
        let g = b.finish();
        assert_eq!(g.ty(l), Type::Int);
        assert_eq!(g.ty(p), Type::Ref(c));
    }

    #[test]
    fn loop_with_phi() {
        // for (i = 0; i < n; i++) {}
        let (t, ..) = table_with_point();
        let mut b = GraphBuilder::new("loop", &[Type::Int], t);
        let n = b.param(0);
        let zero = b.iconst(0);
        let one = b.iconst(1);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(header);
        // Phi appended when header has only the entry predecessor; the
        // back-edge input is appended by retargeting below. For builder
        // simplicity we construct the back edge first via body.
        // Instead: build header with one pred, then connect body->header
        // using retarget-free flow: create phi after both edges exist.
        b.switch_to(body);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(vec![zero, zero], Type::Int); // placeholder input for back edge
        let cond = b.cmp(CmpOp::Lt, i, n);
        b.branch(cond, body, exit, 0.9);
        // Patch the back-edge input: recreate via graph mutation.
        let next = {
            let g = b.graph();
            assert_eq!(g.preds(header).len(), 2);
            g.preds(header)[1]
        };
        assert_eq!(next, body);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut g = b.finish();
        // Fix the phi back-edge input to i+1 computed in body.
        let inc = g.append_inst(
            body,
            Inst::Binary {
                op: BinOp::Add,
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
        assert_eq!(g.inst(i).collect_inputs(), vec![zero, inc]);
    }

    #[test]
    fn terminators() {
        let (t, ..) = table_with_point();
        let mut b = GraphBuilder::new("t", &[Type::Bool], t);
        let c = b.param(0);
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.branch(c, b1, b2, 0.25);
        b.switch_to(b1);
        b.ret(None);
        b.switch_to(b2);
        b.deopt();
        let g = b.finish();
        assert!(matches!(
            g.terminator(g.entry()),
            Terminator::Branch { prob_then, .. } if *prob_then == 0.25
        ));
        assert!(matches!(g.terminator(b2), Terminator::Deopt));
    }
}
