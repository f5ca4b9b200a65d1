//! A reference interpreter for IR graphs.
//!
//! The interpreter serves two purposes in the reproduction:
//!
//! 1. **Differential testing** — every optimization must preserve the
//!    observable result (`Outcome`) of a graph on concrete inputs.
//! 2. **Peak-performance measurement** — it tallies executed instructions
//!    per [`InstKind`]; the cost model turns the tally into dynamic cycle
//!    estimates, which stand in for the paper's wall-clock peak performance
//!    (see DESIGN.md §2).
//!
//! [`Inst::Invoke`] is interpreted as a deterministic opaque call: it mixes
//! its arguments into a hash (reading the shallow integer fields of
//! reference arguments) and then writes that hash back into the first
//! integer field of every reference argument and the first element of every
//! array argument. This makes calls both *observable* (they return data
//! derived from their inputs) and *mutating* (they invalidate memory
//! caches), like real library calls.

use crate::classes::ClassTable;
use crate::ids::{BlockId, ClassId, FieldId, InstId};
use crate::inst::{BinOp, CmpOp, Inst, InstKind, KindCounts, Terminator};
use crate::types::{ConstValue, Type};
use crate::Graph;
use std::fmt;

/// A runtime value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Value {
    /// A 64-bit integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A reference: `None` is null, `Some(ix)` indexes the heap.
    Ref(Option<usize>),
    /// No value (result of effect-only instructions).
    Void,
}

impl Value {
    /// Integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an [`Value::Int`].
    pub fn unwrap_int(self) -> i64 {
        match self {
            Value::Int(i) => i,
            other => panic!("expected int, found {other:?}"),
        }
    }

    /// Boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a [`Value::Bool`].
    pub fn unwrap_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            other => panic!("expected bool, found {other:?}"),
        }
    }
}

/// One heap cell.
#[derive(Clone, Debug, PartialEq)]
enum HeapCell {
    Object {
        class: ClassId,
        /// Field values, aligned with the class's declared field list.
        fields: Vec<Value>,
    },
    Array {
        elems: Vec<i64>,
    },
}

/// The interpreter heap. May be pre-populated to pass reference arguments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Heap {
    cells: Vec<HeapCell>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates an instance of `class` with zeroed/null fields and returns
    /// a reference to it.
    pub fn alloc_object(&mut self, table: &ClassTable, class: ClassId) -> Value {
        let fields = table
            .class(class)
            .fields
            .iter()
            .map(|&f| zero_value(table.field(f).ty))
            .collect();
        self.cells.push(HeapCell::Object { class, fields });
        Value::Ref(Some(self.cells.len() - 1))
    }

    /// Allocates a zeroed integer array of the given length.
    ///
    /// # Panics
    ///
    /// Panics if `len` is negative.
    pub fn alloc_array(&mut self, len: i64) -> Value {
        assert!(len >= 0, "array length must be non-negative");
        self.cells.push(HeapCell::Array {
            elems: vec![0; len as usize],
        });
        Value::Ref(Some(self.cells.len() - 1))
    }

    /// Sets a field of the object referenced by `obj`.
    ///
    /// # Panics
    ///
    /// Panics on null/dangling references or foreign fields.
    pub fn set_field(&mut self, table: &ClassTable, obj: Value, field: FieldId, value: Value) {
        let ix = ref_index(obj).expect("set_field on null");
        match &mut self.cells[ix] {
            HeapCell::Object { class, fields } => {
                let off = field_offset(table, *class, field).expect("field of wrong class");
                fields[off] = value;
            }
            HeapCell::Array { .. } => panic!("set_field on array"),
        }
    }

    /// Reads a field of the object referenced by `obj`.
    ///
    /// # Panics
    ///
    /// Panics on null/dangling references or foreign fields.
    pub fn get_field(&self, table: &ClassTable, obj: Value, field: FieldId) -> Value {
        let ix = ref_index(obj).expect("get_field on null");
        match &self.cells[ix] {
            HeapCell::Object { class, fields } => {
                let off = field_offset(table, *class, field).expect("field of wrong class");
                fields[off]
            }
            HeapCell::Array { .. } => panic!("get_field on array"),
        }
    }

    /// Writes an array element.
    ///
    /// # Panics
    ///
    /// Panics on null references or out-of-bounds indices.
    pub fn set_elem(&mut self, arr: Value, index: i64, value: i64) {
        let ix = ref_index(arr).expect("set_elem on null");
        match &mut self.cells[ix] {
            HeapCell::Array { elems } => elems[index as usize] = value,
            HeapCell::Object { .. } => panic!("set_elem on object"),
        }
    }

    /// Reads an array element.
    ///
    /// # Panics
    ///
    /// Panics on null references or out-of-bounds indices.
    pub fn get_elem(&self, arr: Value, index: i64) -> i64 {
        let ix = ref_index(arr).expect("get_elem on null");
        match &self.cells[ix] {
            HeapCell::Array { elems } => elems[index as usize],
            HeapCell::Object { .. } => panic!("get_elem on object"),
        }
    }
}

fn ref_index(v: Value) -> Option<usize> {
    match v {
        Value::Ref(r) => r,
        other => panic!("expected reference, found {other:?}"),
    }
}

fn field_offset(table: &ClassTable, class: ClassId, field: FieldId) -> Option<usize> {
    table.class(class).fields.iter().position(|&f| f == field)
}

fn zero_value(ty: Type) -> Value {
    match ty {
        Type::Int => Value::Int(0),
        Type::Bool => Value::Bool(false),
        Type::Ref(_) | Type::Arr => Value::Ref(None),
        Type::Void => Value::Void,
    }
}

/// Why execution stopped without returning normally.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trap {
    /// Integer division or remainder by zero.
    DivByZero,
    /// Field or array access through a null reference.
    NullPointer,
    /// Array access outside `0..length`.
    IndexOutOfBounds,
    /// `newarray` with a negative length.
    NegativeArraySize,
    /// A [`Terminator::Deopt`] was reached.
    Deopt,
    /// The step budget was exhausted (probably an infinite loop).
    OutOfFuel,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Trap::DivByZero => "division by zero",
            Trap::NullPointer => "null pointer dereference",
            Trap::IndexOutOfBounds => "array index out of bounds",
            Trap::NegativeArraySize => "negative array size",
            Trap::Deopt => "deoptimization",
            Trap::OutOfFuel => "out of fuel",
        };
        f.write_str(s)
    }
}

/// The observable outcome of an execution: the returned value or a trap.
pub type Outcome = Result<Value, Trap>;

/// The result of interpreting a graph.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Returned value or trap.
    pub outcome: Outcome,
    /// Executed-instruction tally per kind (including terminators).
    pub counts: KindCounts,
    /// Total executed instructions.
    pub steps: u64,
}

/// Default fuel for [`execute`].
pub const DEFAULT_FUEL: u64 = 10_000_000;

/// Interprets `g` on `args` with a fresh heap and [`DEFAULT_FUEL`].
///
/// # Panics
///
/// Panics if `args` does not match the graph's parameter count/types.
pub fn execute(g: &Graph, args: &[Value]) -> ExecResult {
    let mut heap = Heap::new();
    execute_with_heap(g, args, &mut heap, DEFAULT_FUEL)
}

/// Interprets `g` on `args` against a caller-provided heap (for reference
/// arguments) with an explicit step budget.
///
/// # Panics
///
/// Panics if `args` does not match the graph's parameters or if a value of
/// the wrong runtime kind reaches an instruction (ill-typed graphs should
/// be rejected by [`crate::verify`] first).
pub fn execute_with_heap(g: &Graph, args: &[Value], heap: &mut Heap, fuel: u64) -> ExecResult {
    assert_eq!(args.len(), g.param_types().len(), "argument count mismatch");
    let table = g.class_table().clone();
    let mut regs: Vec<Option<Value>> = vec![None; g.inst_count()];
    let mut counts = KindCounts::new();
    let mut steps: u64 = 0;
    let mut block = g.entry();
    let mut prev: Option<BlockId> = None;

    'blocks: loop {
        // Resolve φs of this block first (simultaneous assignment).
        let insts = g.block_insts(block);
        let mut phi_values: Vec<(InstId, Value)> = Vec::new();
        for &i in insts {
            if let Inst::Phi { inputs } = g.inst(i) {
                let pred = prev.expect("phi in entry block");
                let k = g.pred_index(block, pred);
                let v = regs[inputs[k].index()].expect("phi input not evaluated");
                phi_values.push((i, v));
            } else {
                break;
            }
        }
        for (i, v) in phi_values {
            regs[i.index()] = Some(v);
            counts.bump(InstKind::Phi);
            steps += 1;
        }

        let phi_count = g.phis(block).len();
        for &i in &insts[phi_count..] {
            if steps >= fuel {
                return done(Err(Trap::OutOfFuel), counts, steps);
            }
            steps += 1;
            counts.bump(g.inst(i).kind());
            let val = |id: InstId| -> Value { regs[id.index()].expect("use before def") };
            let result: Result<Value, Trap> = match g.inst(i) {
                Inst::Const(c) => Ok(const_value(*c)),
                Inst::Param(ix) => Ok(args[*ix as usize]),
                Inst::Binary { op, lhs, rhs } => {
                    eval_binop(*op, val(*lhs).unwrap_int(), val(*rhs).unwrap_int()).map(Value::Int)
                }
                Inst::Compare { op, lhs, rhs } => {
                    Ok(Value::Bool(eval_cmp(*op, val(*lhs), val(*rhs))))
                }
                Inst::Not(x) => Ok(Value::Bool(!val(*x).unwrap_bool())),
                Inst::Neg(x) => Ok(Value::Int(val(*x).unwrap_int().wrapping_neg())),
                Inst::Phi { .. } => unreachable!("phis handled above"),
                Inst::New { class } => Ok(heap.alloc_object(&table, *class)),
                Inst::LoadField { object, field } => match val(*object) {
                    Value::Ref(None) => Err(Trap::NullPointer),
                    obj @ Value::Ref(Some(_)) => Ok(heap.get_field(&table, obj, *field)),
                    other => panic!("load on {other:?}"),
                },
                Inst::StoreField {
                    object,
                    field,
                    value,
                } => match val(*object) {
                    Value::Ref(None) => Err(Trap::NullPointer),
                    obj @ Value::Ref(Some(_)) => {
                        heap.set_field(&table, obj, *field, val(*value));
                        Ok(Value::Void)
                    }
                    other => panic!("store on {other:?}"),
                },
                Inst::InstanceOf { object, class } => match val(*object) {
                    Value::Ref(None) => Ok(Value::Bool(false)),
                    Value::Ref(Some(ix)) => match &heap.cells[ix] {
                        HeapCell::Object { class: c, .. } => Ok(Value::Bool(c == class)),
                        HeapCell::Array { .. } => Ok(Value::Bool(false)),
                    },
                    other => panic!("instanceof on {other:?}"),
                },
                Inst::NewArray { length } => {
                    let n = val(*length).unwrap_int();
                    if n < 0 {
                        Err(Trap::NegativeArraySize)
                    } else {
                        Ok(heap.alloc_array(n))
                    }
                }
                Inst::ArrayLoad { array, index } => {
                    array_access(heap, val(*array), val(*index).unwrap_int()).map(|(ix, k)| {
                        Value::Int(match &heap.cells[ix] {
                            HeapCell::Array { elems } => elems[k],
                            _ => unreachable!(),
                        })
                    })
                }
                Inst::ArrayStore {
                    array,
                    index,
                    value,
                } => array_access(heap, val(*array), val(*index).unwrap_int()).map(|(ix, k)| {
                    let v = val(*value).unwrap_int();
                    match &mut heap.cells[ix] {
                        HeapCell::Array { elems } => elems[k] = v,
                        _ => unreachable!(),
                    }
                    Value::Void
                }),
                Inst::ArrayLength(a) => match val(*a) {
                    Value::Ref(None) => Err(Trap::NullPointer),
                    Value::Ref(Some(ix)) => match &heap.cells[ix] {
                        HeapCell::Array { elems } => Ok(Value::Int(elems.len() as i64)),
                        _ => panic!("alength on object"),
                    },
                    other => panic!("alength on {other:?}"),
                },
                Inst::Invoke { args: call_args } => {
                    let vals: Vec<Value> = call_args.iter().map(|&a| val(a)).collect();
                    Ok(Value::Int(do_invoke(heap, &table, &vals)))
                }
            };
            match result {
                Ok(v) => regs[i.index()] = Some(v),
                Err(t) => return done(Err(t), counts, steps),
            }
        }

        if steps >= fuel {
            return done(Err(Trap::OutOfFuel), counts, steps);
        }
        steps += 1;
        counts.bump(g.terminator(block).kind());
        match g.terminator(block) {
            Terminator::Jump { target } => {
                prev = Some(block);
                block = *target;
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
                ..
            } => {
                let c = regs[cond.index()]
                    .expect("branch cond not evaluated")
                    .unwrap_bool();
                prev = Some(block);
                block = if c { *then_bb } else { *else_bb };
            }
            Terminator::Return { value } => {
                let v = match value {
                    Some(v) => regs[v.index()].expect("return value not evaluated"),
                    None => Value::Void,
                };
                return done(Ok(v), counts, steps);
            }
            Terminator::Deopt => return done(Err(Trap::Deopt), counts, steps),
        }
        continue 'blocks;
    }
}

fn done(outcome: Outcome, counts: KindCounts, steps: u64) -> ExecResult {
    ExecResult {
        outcome,
        counts,
        steps,
    }
}

fn const_value(c: ConstValue) -> Value {
    match c {
        ConstValue::Int(i) => Value::Int(i),
        ConstValue::Bool(b) => Value::Bool(b),
        ConstValue::Null(_) | ConstValue::NullArr => Value::Ref(None),
    }
}

fn eval_binop(op: BinOp, a: i64, b: i64) -> Result<i64, Trap> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(Trap::DivByZero);
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Shr => a.wrapping_shr(b as u32 & 63),
        BinOp::UShr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
    })
}

fn eval_cmp(op: CmpOp, a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => op.eval_int(x, y),
        (Value::Bool(x), Value::Bool(y)) => match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            _ => panic!("ordered comparison of booleans"),
        },
        (Value::Ref(x), Value::Ref(y)) => match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            _ => panic!("ordered comparison of references"),
        },
        (x, y) => panic!("comparison of {x:?} and {y:?}"),
    }
}

fn array_access(heap: &Heap, arr: Value, index: i64) -> Result<(usize, usize), Trap> {
    match arr {
        Value::Ref(None) => Err(Trap::NullPointer),
        Value::Ref(Some(ix)) => match &heap.cells[ix] {
            HeapCell::Array { elems } => {
                if index < 0 || index as usize >= elems.len() {
                    Err(Trap::IndexOutOfBounds)
                } else {
                    Ok((ix, index as usize))
                }
            }
            _ => panic!("array access on object"),
        },
        other => panic!("array access on {other:?}"),
    }
}

/// The deterministic opaque call (see module docs).
fn do_invoke(heap: &mut Heap, table: &ClassTable, args: &[Value]) -> i64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    for &a in args {
        match a {
            Value::Int(i) => mix(i as u64),
            Value::Bool(b) => mix(b as u64 + 2),
            Value::Ref(None) => mix(3),
            Value::Ref(Some(ix)) => match &heap.cells[ix] {
                HeapCell::Object { class, fields } => {
                    mix(5 + class.index() as u64);
                    for f in fields {
                        match f {
                            Value::Int(i) => mix(*i as u64),
                            Value::Bool(b) => mix(*b as u64 + 2),
                            Value::Ref(None) => mix(3),
                            Value::Ref(Some(_)) => mix(7),
                            Value::Void => {}
                        }
                    }
                }
                HeapCell::Array { elems } => {
                    mix(11 + elems.len() as u64);
                    if let Some(first) = elems.first() {
                        mix(*first as u64);
                    }
                    if let Some(last) = elems.last() {
                        mix(*last as u64);
                    }
                }
            },
            Value::Void => {}
        }
    }
    let result = h as i64;
    // Mutate reference arguments so calls are observable writers.
    for &a in args {
        if let Value::Ref(Some(ix)) = a {
            match &mut heap.cells[ix] {
                HeapCell::Object { class, fields } => {
                    let class = *class;
                    if let Some(off) = table
                        .class(class)
                        .fields
                        .iter()
                        .position(|&f| table.field(f).ty == Type::Int)
                    {
                        fields[off] = Value::Int(result);
                    }
                }
                HeapCell::Array { elems } => {
                    if let Some(e) = elems.first_mut() {
                        *e = result;
                    }
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::parse::parse_module;
    use std::sync::Arc;

    fn run_src(src: &str, args: &[Value]) -> ExecResult {
        let m = parse_module(src).unwrap();
        crate::verify::verify(&m.graphs[0]).unwrap();
        execute(&m.graphs[0], args)
    }

    #[test]
    fn figure1_returns_2_plus_phi() {
        let src = r#"
            func @foo(x: int) {
            entry:
              zero: int = const 0
              c: bool = cmp gt x, zero
              branch c, bt, bf, prob 0.5
            bt:
              jump bm
            bf:
              jump bm
            bm:
              p: int = phi [bt: x, bf: zero]
              two: int = const 2
              sum: int = add two, p
              return sum
            }
        "#;
        assert_eq!(run_src(src, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
        assert_eq!(run_src(src, &[Value::Int(-3)]).outcome, Ok(Value::Int(2)));
    }

    #[test]
    fn loop_counts_to_n() {
        let src = r#"
            func @count(n: int) {
            entry:
              zero: int = const 0
              one: int = const 1
              jump header
            header:
              i: int = phi [entry: zero, body: next]
              c: bool = cmp lt i, n
              branch c, body, exit, prob 0.9
            body:
              next: int = add i, one
              jump header
            exit:
              return i
            }
        "#;
        let r = run_src(src, &[Value::Int(10)]);
        assert_eq!(r.outcome, Ok(Value::Int(10)));
        assert_eq!(r.counts.get(InstKind::Add), 10);
        assert_eq!(r.counts.get(InstKind::Branch), 11);
    }

    #[test]
    fn traps() {
        let div = "func @d(a: int, b: int) {\nentry:\n  q: int = div a, b\n  return q\n}\n";
        assert_eq!(
            run_src(div, &[Value::Int(1), Value::Int(0)]).outcome,
            Err(Trap::DivByZero)
        );
        assert_eq!(
            run_src(div, &[Value::Int(7), Value::Int(2)]).outcome,
            Ok(Value::Int(3))
        );

        let npe = r#"
            class A { x: int }
            func @n() {
            entry:
              p: ref A = const null A
              v: int = load p, A.x
              return v
            }
        "#;
        assert_eq!(run_src(npe, &[]).outcome, Err(Trap::NullPointer));

        let oob = r#"
            func @o() {
            entry:
              one: int = const 1
              a: arr = newarray one
              two: int = const 2
              v: int = aload a, two
              return v
            }
        "#;
        assert_eq!(run_src(oob, &[]).outcome, Err(Trap::IndexOutOfBounds));

        let neg = r#"
            func @g() {
            entry:
              m: int = const -1
              a: arr = newarray m
              return
            }
        "#;
        assert_eq!(run_src(neg, &[]).outcome, Err(Trap::NegativeArraySize));
    }

    #[test]
    fn out_of_fuel_on_infinite_loop() {
        let src = "func @inf() {\nentry:\n  jump entry2\nentry2:\n  jump entry2\n}\n";
        let m = parse_module(src).unwrap();
        let mut heap = Heap::new();
        let r = execute_with_heap(&m.graphs[0], &[], &mut heap, 100);
        assert_eq!(r.outcome, Err(Trap::OutOfFuel));
    }

    #[test]
    fn heap_round_trip() {
        let src = r#"
            class P { x: int, y: int }
            func @f() {
            entry:
              p: ref P = new P
              a: int = const 11
              b: int = const 31
              s1: void = store p, P.x, a
              s2: void = store p, P.y, b
              l1: int = load p, P.x
              l2: int = load p, P.y
              sum: int = add l1, l2
              return sum
            }
        "#;
        assert_eq!(run_src(src, &[]).outcome, Ok(Value::Int(42)));
    }

    #[test]
    fn instanceof_distinguishes_classes_and_null() {
        let src = r#"
            class A { }
            class B { }
            func @f(c: bool) {
            entry:
              branch c, ba, bb, prob 0.5
            ba:
              oa: ref A = new A
              ta: bool = instanceof oa, A
              return
            bb:
              n: ref A = const null A
              tn: bool = instanceof n, A
              return
            }
        "#;
        // Just execute both paths; detailed checks below with builder.
        run_src(src, &[Value::Bool(true)]);
        run_src(src, &[Value::Bool(false)]);

        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let b_cl = t.add_class("B");
        let mut bd = GraphBuilder::new("t", &[], Arc::new(t));
        let obj = bd.new_object(a);
        let is_a = bd.instance_of(obj, a);
        let is_b = bd.instance_of(obj, b_cl);
        let eq = bd.cmp(CmpOp::Eq, is_a, is_b);
        let _ = eq;
        bd.ret(Some(is_a));
        let g = bd.finish();
        assert_eq!(execute(&g, &[]).outcome, Ok(Value::Bool(true)));
    }

    #[test]
    fn invoke_is_deterministic_and_mutates() {
        let src = r#"
            class A { x: int }
            func @f() {
            entry:
              o: ref A = new A
              five: int = const 5
              s: void = store o, A.x, five
              r1: int = invoke o
              after: int = load o, A.x
              eq: bool = cmp eq r1, after
              return eq
            }
        "#;
        // The call writes its result into o.x, so r1 == after.
        assert_eq!(run_src(src, &[]).outcome, Ok(Value::Bool(true)));
        // Determinism: same program, same result.
        let r_a = run_src(src, &[]).outcome;
        let r_b = run_src(src, &[]).outcome;
        assert_eq!(r_a, r_b);
    }

    #[test]
    fn shift_ops_mask_count() {
        let src = "func @s(a: int, b: int) {\nentry:\n  r: int = shl a, b\n  return r\n}\n";
        assert_eq!(
            run_src(src, &[Value::Int(1), Value::Int(65)]).outcome,
            Ok(Value::Int(2))
        );
    }

    #[test]
    fn ref_args_via_prebuilt_heap() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let table = Arc::new(t);
        let mut b = GraphBuilder::new("get", &[Type::Ref(a)], table.clone());
        let p = b.param(0);
        let v = b.load(p, fx);
        b.ret(Some(v));
        let g = b.finish();
        let mut heap = Heap::new();
        let obj = heap.alloc_object(&table, a);
        heap.set_field(&table, obj, fx, Value::Int(99));
        let r = execute_with_heap(&g, &[obj], &mut heap, DEFAULT_FUEL);
        assert_eq!(r.outcome, Ok(Value::Int(99)));
    }

    #[test]
    fn deopt_outcome() {
        let src = "func @d() {\nentry:\n  deopt\n}\n";
        assert_eq!(run_src(src, &[]).outcome, Err(Trap::Deopt));
    }
}
