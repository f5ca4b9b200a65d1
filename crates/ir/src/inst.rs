//! The instruction set: SSA instructions and block terminators.
//!
//! Every instruction produces at most one value (as in Graal IR), so an
//! instruction is identified by — and its result referred to through — its
//! [`InstId`]. Control flow lives exclusively in block [`Terminator`]s.

use crate::ids::{BlockId, ClassId, FieldId, InstId};
use crate::types::ConstValue;
use std::fmt;

/// Binary integer operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; traps on division by zero (overflow wraps).
    Div,
    /// Signed remainder; traps on division by zero.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (count taken modulo 64).
    Shl,
    /// Arithmetic shift right (count taken modulo 64).
    Shr,
    /// Logical shift right (count taken modulo 64).
    UShr,
}

impl BinOp {
    /// All binary operators, in a fixed order.
    pub const ALL: [BinOp; 11] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::UShr,
    ];

    /// Returns `true` if `op(a, b) == op(b, a)` for all inputs.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Mnemonic used by the printer and parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::UShr => "ushr",
        }
    }

    /// The operator whose [`mnemonic`](BinOp::mnemonic) is `s`.
    pub fn from_mnemonic(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "div" => BinOp::Div,
            "rem" => BinOp::Rem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "shr" => BinOp::Shr,
            "ushr" => BinOp::UShr,
            _ => return None,
        })
    }
}

/// Comparison operators.
///
/// `Eq`/`Ne` apply to integers, booleans and references; the ordered
/// comparisons apply to integers only.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpOp {
    /// All comparison operators, in a fixed order.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// The operator satisfied exactly when `self` is not.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with its operands swapped: `a op b == b op.swap() a`.
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Evaluates the comparison on two integers.
    pub fn eval_int(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Mnemonic used by the printer and parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// The comparison whose [`mnemonic`](CmpOp::mnemonic) is `s`.
    pub fn from_mnemonic(s: &str) -> Option<CmpOp> {
        Some(match s {
            "eq" => CmpOp::Eq,
            "ne" => CmpOp::Ne,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            _ => return None,
        })
    }
}

/// An SSA instruction.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    /// A compile-time constant.
    Const(ConstValue),
    /// The `index`-th function parameter. Only valid in the entry block.
    Param(u32),
    /// Binary integer arithmetic.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: InstId,
        /// Right operand.
        rhs: InstId,
    },
    /// Comparison producing a boolean.
    Compare {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: InstId,
        /// Right operand.
        rhs: InstId,
    },
    /// Boolean negation.
    Not(InstId),
    /// Integer negation (two's complement, wrapping).
    Neg(InstId),
    /// SSA φ. `inputs[i]` is the incoming value from the block's `i`-th
    /// predecessor (see [`crate::Graph::preds`]).
    Phi {
        /// Incoming values, aligned with the predecessor list.
        inputs: Vec<InstId>,
    },
    /// Heap allocation of a class instance; fields start zeroed/null.
    New {
        /// Class to instantiate.
        class: ClassId,
    },
    /// Field read. Traps on null `object`.
    LoadField {
        /// Receiver.
        object: InstId,
        /// Field to read.
        field: FieldId,
    },
    /// Field write. Traps on null `object`. Produces no value.
    StoreField {
        /// Receiver.
        object: InstId,
        /// Field to write.
        field: FieldId,
        /// Value to store.
        value: InstId,
    },
    /// Exact-class type test producing a boolean (`false` for null).
    InstanceOf {
        /// Reference to test.
        object: InstId,
        /// Class to test against.
        class: ClassId,
    },
    /// Array allocation, zero-initialized. Traps on negative length.
    NewArray {
        /// Element count.
        length: InstId,
    },
    /// Array element read. Traps on null array or out-of-bounds index.
    ArrayLoad {
        /// Array reference.
        array: InstId,
        /// Element index.
        index: InstId,
    },
    /// Array element write. Traps on null array or out-of-bounds index.
    ArrayStore {
        /// Array reference.
        array: InstId,
        /// Element index.
        index: InstId,
        /// Value to store.
        value: InstId,
    },
    /// Array length read. Traps on null array.
    ArrayLength(InstId),
    /// An opaque call: models an out-of-line runtime or library call the
    /// optimizer must not look through. Consumes its arguments, has a side
    /// effect (kills memory caches) and returns an `Int` value that the
    /// interpreter computes as a deterministic mix of the arguments.
    Invoke {
        /// Call arguments.
        args: Vec<InstId>,
    },
}

/// Fine-grained instruction class used by the node cost model.
///
/// Mirrors Graal's `@NodeInfo(cycles = …, size = …)` annotations (§5.3 of
/// the paper): every kind is assigned an abstract cycle count and code size
/// by `dbds-costmodel`. Terminators have kinds as well because the paper's
/// size budget is computed over size estimations, which include control
/// transfer instructions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum InstKind {
    /// Constant materialization.
    Const = 0,
    /// Parameter access.
    Param,
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division.
    Div,
    /// Integer remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Logical shift right.
    UShr,
    /// Comparison.
    Compare,
    /// Boolean not.
    Not,
    /// Integer negation.
    Neg,
    /// φ (resolved to a move at block boundaries).
    Phi,
    /// Object allocation.
    New,
    /// Field load.
    LoadField,
    /// Field store.
    StoreField,
    /// Type test.
    InstanceOf,
    /// Array allocation.
    NewArray,
    /// Array element load.
    ArrayLoad,
    /// Array element store.
    ArrayStore,
    /// Array length load.
    ArrayLength,
    /// Opaque call.
    Invoke,
    /// Unconditional jump terminator.
    Jump,
    /// Conditional branch terminator.
    Branch,
    /// Return terminator.
    Return,
    /// Deoptimization/trap terminator.
    Deopt,
}

impl InstKind {
    /// Number of distinct kinds.
    pub const COUNT: usize = 30;

    /// All kinds in discriminant order.
    pub const ALL: [InstKind; InstKind::COUNT] = [
        InstKind::Const,
        InstKind::Param,
        InstKind::Add,
        InstKind::Sub,
        InstKind::Mul,
        InstKind::Div,
        InstKind::Rem,
        InstKind::And,
        InstKind::Or,
        InstKind::Xor,
        InstKind::Shl,
        InstKind::Shr,
        InstKind::UShr,
        InstKind::Compare,
        InstKind::Not,
        InstKind::Neg,
        InstKind::Phi,
        InstKind::New,
        InstKind::LoadField,
        InstKind::StoreField,
        InstKind::InstanceOf,
        InstKind::NewArray,
        InstKind::ArrayLoad,
        InstKind::ArrayStore,
        InstKind::ArrayLength,
        InstKind::Invoke,
        InstKind::Jump,
        InstKind::Branch,
        InstKind::Return,
        InstKind::Deopt,
    ];

    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            InstKind::Const => "const",
            InstKind::Param => "param",
            InstKind::Add => "add",
            InstKind::Sub => "sub",
            InstKind::Mul => "mul",
            InstKind::Div => "div",
            InstKind::Rem => "rem",
            InstKind::And => "and",
            InstKind::Or => "or",
            InstKind::Xor => "xor",
            InstKind::Shl => "shl",
            InstKind::Shr => "shr",
            InstKind::UShr => "ushr",
            InstKind::Compare => "compare",
            InstKind::Not => "not",
            InstKind::Neg => "neg",
            InstKind::Phi => "phi",
            InstKind::New => "new",
            InstKind::LoadField => "load",
            InstKind::StoreField => "store",
            InstKind::InstanceOf => "instanceof",
            InstKind::NewArray => "newarray",
            InstKind::ArrayLoad => "aload",
            InstKind::ArrayStore => "astore",
            InstKind::ArrayLength => "alength",
            InstKind::Invoke => "invoke",
            InstKind::Jump => "jump",
            InstKind::Branch => "branch",
            InstKind::Return => "return",
            InstKind::Deopt => "deopt",
        }
    }
}

impl fmt::Display for InstKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<BinOp> for InstKind {
    fn from(op: BinOp) -> InstKind {
        match op {
            BinOp::Add => InstKind::Add,
            BinOp::Sub => InstKind::Sub,
            BinOp::Mul => InstKind::Mul,
            BinOp::Div => InstKind::Div,
            BinOp::Rem => InstKind::Rem,
            BinOp::And => InstKind::And,
            BinOp::Or => InstKind::Or,
            BinOp::Xor => InstKind::Xor,
            BinOp::Shl => InstKind::Shl,
            BinOp::Shr => InstKind::Shr,
            BinOp::UShr => InstKind::UShr,
        }
    }
}

impl Inst {
    /// The cost-model kind of this instruction.
    pub fn kind(&self) -> InstKind {
        match self {
            Inst::Const(_) => InstKind::Const,
            Inst::Param(_) => InstKind::Param,
            Inst::Binary { op, .. } => InstKind::from(*op),
            Inst::Compare { .. } => InstKind::Compare,
            Inst::Not(_) => InstKind::Not,
            Inst::Neg(_) => InstKind::Neg,
            Inst::Phi { .. } => InstKind::Phi,
            Inst::New { .. } => InstKind::New,
            Inst::LoadField { .. } => InstKind::LoadField,
            Inst::StoreField { .. } => InstKind::StoreField,
            Inst::InstanceOf { .. } => InstKind::InstanceOf,
            Inst::NewArray { .. } => InstKind::NewArray,
            Inst::ArrayLoad { .. } => InstKind::ArrayLoad,
            Inst::ArrayStore { .. } => InstKind::ArrayStore,
            Inst::ArrayLength(_) => InstKind::ArrayLength,
            Inst::Invoke { .. } => InstKind::Invoke,
        }
    }

    /// Returns `true` if this is a φ.
    pub fn is_phi(&self) -> bool {
        matches!(self, Inst::Phi { .. })
    }

    /// Returns `true` if this instruction has a side effect observable by
    /// other instructions (memory writes, opaque calls). Effectful
    /// instructions must never be removed or reordered.
    pub fn has_effect(&self) -> bool {
        matches!(
            self,
            Inst::StoreField { .. } | Inst::ArrayStore { .. } | Inst::Invoke { .. }
        )
    }

    /// Returns `true` if executing this instruction can trap (null
    /// dereference, division by zero, array bounds violation, negative
    /// array length).
    pub fn can_trap(&self) -> bool {
        matches!(
            self,
            Inst::Binary {
                op: BinOp::Div | BinOp::Rem,
                ..
            } | Inst::LoadField { .. }
                | Inst::StoreField { .. }
                | Inst::NewArray { .. }
                | Inst::ArrayLoad { .. }
                | Inst::ArrayStore { .. }
                | Inst::ArrayLength(_)
        )
    }

    /// Returns `true` if the instruction may be deleted when its value is
    /// unused: it has no side effect and cannot trap. Allocations are
    /// removable as well — in our model (as in a JVM with escape analysis)
    /// an unobserved allocation is not an observable effect.
    pub fn removable_if_unused(&self) -> bool {
        if matches!(self, Inst::New { .. }) {
            return true;
        }
        !self.has_effect() && !self.can_trap()
    }

    /// Calls `f` on every value operand, in a fixed order.
    pub fn for_each_input(&self, mut f: impl FnMut(InstId)) {
        match self {
            Inst::Const(_) | Inst::Param(_) | Inst::New { .. } => {}
            Inst::Binary { lhs, rhs, .. } | Inst::Compare { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Not(x) | Inst::Neg(x) | Inst::ArrayLength(x) => f(*x),
            Inst::Phi { inputs } => inputs.iter().copied().for_each(f),
            Inst::LoadField { object, .. } => f(*object),
            Inst::StoreField { object, value, .. } => {
                f(*object);
                f(*value);
            }
            Inst::InstanceOf { object, .. } => f(*object),
            Inst::NewArray { length } => f(*length),
            Inst::ArrayLoad { array, index } => {
                f(*array);
                f(*index);
            }
            Inst::ArrayStore {
                array,
                index,
                value,
            } => {
                f(*array);
                f(*index);
                f(*value);
            }
            Inst::Invoke { args } => args.iter().copied().for_each(f),
        }
    }

    /// Calls `f` with a mutable reference to every value operand, allowing
    /// in-place operand rewriting.
    pub fn for_each_input_mut(&mut self, mut f: impl FnMut(&mut InstId)) {
        match self {
            Inst::Const(_) | Inst::Param(_) | Inst::New { .. } => {}
            Inst::Binary { lhs, rhs, .. } | Inst::Compare { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::Not(x) | Inst::Neg(x) | Inst::ArrayLength(x) => f(x),
            Inst::Phi { inputs } => inputs.iter_mut().for_each(f),
            Inst::LoadField { object, .. } => f(object),
            Inst::StoreField { object, value, .. } => {
                f(object);
                f(value);
            }
            Inst::InstanceOf { object, .. } => f(object),
            Inst::NewArray { length } => f(length),
            Inst::ArrayLoad { array, index } => {
                f(array);
                f(index);
            }
            Inst::ArrayStore {
                array,
                index,
                value,
            } => {
                f(array);
                f(index);
                f(value);
            }
            Inst::Invoke { args } => args.iter_mut().for_each(f),
        }
    }

    /// Collects all value operands into a vector (convenience for cold
    /// paths; hot paths should use [`Inst::for_each_input`]).
    pub fn collect_inputs(&self) -> Vec<InstId> {
        let mut v = Vec::new();
        self.for_each_input(|i| v.push(i));
        v
    }
}

/// The successor blocks of a [`Terminator`]: at most two, held inline.
/// Derefs to `&[BlockId]` and iterates by value, so it reads like the
/// `Vec` it replaces without the heap allocation per query.
#[derive(Clone, Copy)]
pub struct Successors {
    len: u8,
    /// Slots at `len..` are padding and never read.
    ids: [BlockId; 2],
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];

    #[inline]
    fn deref(&self) -> &[BlockId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(usize::from(self.len))
    }
}

impl<'a> IntoIterator for &'a Successors {
    type Item = &'a BlockId;
    type IntoIter = std::slice::Iter<'a, BlockId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Successors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: AsRef<[BlockId]>> PartialEq<T> for Successors {
    fn eq(&self, other: &T) -> bool {
        **self == *other.as_ref()
    }
}

/// A basic-block terminator.
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Jump {
        /// Successor block.
        target: BlockId,
    },
    /// Two-way conditional branch.
    Branch {
        /// Boolean condition value.
        cond: InstId,
        /// Successor when the condition is true.
        then_bb: BlockId,
        /// Successor when the condition is false.
        else_bb: BlockId,
        /// Profile-derived probability that the condition is true, in
        /// `[0, 1]`. Plays the role of HotSpot's branch profiles.
        prob_then: f64,
    },
    /// Function return.
    Return {
        /// Returned value, or `None` for void functions.
        value: Option<InstId>,
    },
    /// Deoptimization: execution traps back to a (notional) interpreter.
    Deopt,
}

impl Terminator {
    /// The cost-model kind of this terminator.
    pub fn kind(&self) -> InstKind {
        match self {
            Terminator::Jump { .. } => InstKind::Jump,
            Terminator::Branch { .. } => InstKind::Branch,
            Terminator::Return { .. } => InstKind::Return,
            Terminator::Deopt => InstKind::Deopt,
        }
    }

    /// Successor blocks, in order (then before else for branches).
    pub fn successors(&self) -> Successors {
        let (len, ids) = match self {
            Terminator::Jump { target } => (1, [*target; 2]),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => (2, [*then_bb, *else_bb]),
            Terminator::Return { .. } | Terminator::Deopt => (0, [BlockId(0); 2]),
        };
        Successors { len, ids }
    }

    /// Calls `f` on every value operand.
    pub fn for_each_input(&self, mut f: impl FnMut(InstId)) {
        match self {
            Terminator::Branch { cond, .. } => f(*cond),
            Terminator::Return { value: Some(v) } => f(*v),
            _ => {}
        }
    }

    /// Calls `f` with a mutable reference to every value operand.
    pub fn for_each_input_mut(&mut self, mut f: impl FnMut(&mut InstId)) {
        match self {
            Terminator::Branch { cond, .. } => f(cond),
            Terminator::Return { value: Some(v) } => f(v),
            _ => {}
        }
    }

    /// Calls `f` with a mutable reference to every successor block id.
    pub fn for_each_successor_mut(&mut self, mut f: impl FnMut(&mut BlockId)) {
        match self {
            Terminator::Jump { target } => f(target),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                f(then_bb);
                f(else_bb);
            }
            Terminator::Return { .. } | Terminator::Deopt => {}
        }
    }
}

/// Per-[`InstKind`] execution counters produced by the interpreter.
///
/// The cost model turns these dynamic counts into estimated cycles; this is
/// the reproduction's machine-independent "peak performance" metric (see
/// DESIGN.md §2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KindCounts([u64; InstKind::COUNT]);

impl Default for KindCounts {
    fn default() -> Self {
        KindCounts([0; InstKind::COUNT])
    }
}

impl KindCounts {
    /// Creates all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the counter for `kind` by one.
    #[inline]
    pub fn bump(&mut self, kind: InstKind) {
        self.0[kind as usize] += 1;
    }

    /// Adds `n` to the counter for `kind`.
    #[inline]
    pub fn add(&mut self, kind: InstKind, n: u64) {
        self.0[kind as usize] += n;
    }

    /// Returns the count for `kind`.
    #[inline]
    pub fn get(&self, kind: InstKind) -> u64 {
        self.0[kind as usize]
    }

    /// Total count across all kinds.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Iterates over `(kind, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (InstKind, u64)> + '_ {
        InstKind::ALL
            .iter()
            .map(move |&k| (k, self.0[k as usize]))
            .filter(|&(_, n)| n > 0)
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &KindCounts) {
        for (dst, src) in self.0.iter_mut().zip(other.0.iter()) {
            *dst += src;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mnemonic_names_its_operator() {
        for op in BinOp::ALL {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
            assert_eq!(CmpOp::from_mnemonic(op.mnemonic()), None);
        }
        for op in CmpOp::ALL {
            assert_eq!(CmpOp::from_mnemonic(op.mnemonic()), Some(op));
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), None);
        }
    }

    #[test]
    fn kind_discriminants_are_dense() {
        for (i, k) in InstKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "kind {k} out of order");
        }
        assert_eq!(InstKind::ALL.len(), InstKind::COUNT);
    }

    #[test]
    fn binop_kinds() {
        for op in BinOp::ALL {
            let inst = Inst::Binary {
                op,
                lhs: InstId(0),
                rhs: InstId(1),
            };
            assert_eq!(inst.kind(), InstKind::from(op));
        }
    }

    #[test]
    fn cmp_negate_is_involution() {
        for op in CmpOp::ALL {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn cmp_swap_is_involution_and_consistent() {
        for op in CmpOp::ALL {
            assert_eq!(op.swap().swap(), op);
            for (a, b) in [(1i64, 2i64), (2, 1), (3, 3), (-5, 5)] {
                assert_eq!(op.eval_int(a, b), op.swap().eval_int(b, a));
                assert_eq!(op.eval_int(a, b), !op.negate().eval_int(a, b));
            }
        }
    }

    #[test]
    fn effects_and_traps() {
        let store = Inst::StoreField {
            object: InstId(0),
            field: FieldId(0),
            value: InstId(1),
        };
        assert!(store.has_effect());
        assert!(store.can_trap());
        assert!(!store.removable_if_unused());

        let div = Inst::Binary {
            op: BinOp::Div,
            lhs: InstId(0),
            rhs: InstId(1),
        };
        assert!(!div.has_effect());
        assert!(div.can_trap());
        assert!(!div.removable_if_unused());

        let add = Inst::Binary {
            op: BinOp::Add,
            lhs: InstId(0),
            rhs: InstId(1),
        };
        assert!(add.removable_if_unused());

        let alloc = Inst::New { class: ClassId(0) };
        assert!(alloc.removable_if_unused());

        let call = Inst::Invoke { args: vec![] };
        assert!(call.has_effect());
        assert!(!call.removable_if_unused());
    }

    #[test]
    fn input_iteration_matches_mutation() {
        let mut inst = Inst::ArrayStore {
            array: InstId(1),
            index: InstId(2),
            value: InstId(3),
        };
        assert_eq!(inst.collect_inputs(), vec![InstId(1), InstId(2), InstId(3)]);
        inst.for_each_input_mut(|i| *i = InstId(i.0 + 10));
        assert_eq!(
            inst.collect_inputs(),
            vec![InstId(11), InstId(12), InstId(13)]
        );
    }

    #[test]
    fn phi_inputs() {
        let phi = Inst::Phi {
            inputs: vec![InstId(4), InstId(5)],
        };
        assert!(phi.is_phi());
        assert_eq!(phi.collect_inputs(), vec![InstId(4), InstId(5)]);
        assert_eq!(phi.kind(), InstKind::Phi);
    }

    #[test]
    fn terminator_successors() {
        let j = Terminator::Jump { target: BlockId(3) };
        assert_eq!(j.successors(), vec![BlockId(3)]);
        let b = Terminator::Branch {
            cond: InstId(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
            prob_then: 0.5,
        };
        assert_eq!(b.successors(), vec![BlockId(1), BlockId(2)]);
        // A slice by deref, an iterator of ids by value.
        assert_eq!(b.successors().last(), Some(&BlockId(2)));
        assert_eq!(j.successors().into_iter().collect::<Vec<_>>(), [BlockId(3)]);
        assert_eq!(format!("{:?}", b.successors()), "[b1, b2]");
        assert_eq!(
            Terminator::Return { value: None }.successors(),
            Vec::<BlockId>::new()
        );
        assert_eq!(Terminator::Deopt.successors(), Vec::<BlockId>::new());
    }

    #[test]
    fn terminator_successor_rewrite() {
        let mut b = Terminator::Branch {
            cond: InstId(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
            prob_then: 0.9,
        };
        b.for_each_successor_mut(|s| {
            if *s == BlockId(2) {
                *s = BlockId(7);
            }
        });
        assert_eq!(b.successors(), vec![BlockId(1), BlockId(7)]);
    }

    #[test]
    fn kind_counts() {
        let mut c = KindCounts::new();
        c.bump(InstKind::Add);
        c.bump(InstKind::Add);
        c.add(InstKind::Div, 5);
        assert_eq!(c.get(InstKind::Add), 2);
        assert_eq!(c.get(InstKind::Div), 5);
        assert_eq!(c.total(), 7);
        let mut d = KindCounts::new();
        d.bump(InstKind::Add);
        d.merge(&c);
        assert_eq!(d.get(InstKind::Add), 3);
        assert_eq!(d.iter().count(), 2);
    }

    #[test]
    fn commutativity_table() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::Mul.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
        assert!(!BinOp::Div.is_commutative());
    }
}
