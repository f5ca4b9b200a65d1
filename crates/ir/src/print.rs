//! Textual printing of graphs and class tables.
//!
//! The format round-trips through [`crate::parse`]: `print → parse → print`
//! reaches a fixpoint, which the integration tests rely on. Value names in
//! the output are the raw [`InstId`]s (`v17`), block names the raw
//! [`BlockId`]s (`b3`); the parser accepts arbitrary identifiers.
//! Ids, integers, names and keywords are written as text; only a branch
//! probability goes through `Display`.

use crate::classes::ClassTable;
use crate::ids::{BlockId, ClassId, FieldId, InstId};
use crate::inst::{Inst, Terminator};
use crate::types::{ConstValue, Type};
use crate::Graph;
use std::fmt;

/// Where the printer writes: the output `String`, or the
/// [`Fnv64`](crate::Fnv64) of [`content_hash`](crate::content_hash).
pub(crate) trait Sink: fmt::Write {
    /// Appends `s`.
    fn put(&mut self, s: &str) {
        self.write_str(s).expect("a sink cannot fail");
    }
}

impl<W: fmt::Write> Sink for W {}

/// One piece of a printed line; the class table names classes and fields.
trait Piece {
    fn put(self, out: &mut impl Sink, table: &ClassTable);
}

/// Writes each piece in turn.
macro_rules! put {
    ($out:expr, $table:expr; $($piece:expr),+) => {{ $( Piece::put($piece, $out, $table); )+ }};
}

/// Writes `prefix` and `n` in decimal.
fn put_num(out: &mut impl Sink, prefix: &str, mut n: u64) {
    let (mut digits, mut at) = ([0; 20], 20);
    while at == 20 || n > 0 {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out.put(prefix);
    out.put(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// `impl Piece for $ty`, writing `$piece` with `$body`.
macro_rules! piece {
    ($ty:ty, |$piece:ident, $out:ident, $table:ident| $body:expr) => {
        impl Piece for $ty {
            fn put(self, $out: &mut impl Sink, $table: &ClassTable) {
                let $piece = self;
                $body
            }
        }
    };
}

piece!(&str, |s, out, _t| out.put(s));
piece!(InstId, |v, out, _t| put_num(out, "v", v.0.into()));
piece!(BlockId, |b, out, _t| put_num(out, "b", b.0.into()));
piece!(ClassId, |c, out, t| out.put(&t.class(c).name));
piece!(
    FieldId,
    |f, out, t| put!(out, t; t.field(f).class, ".", t.field(f).name.as_str())
);
piece!(Type, |ty, out, t| match ty {
    Type::Ref(c) => put!(out, t; "ref ", c),
    Type::Int => out.put("int"),
    Type::Bool => out.put("bool"),
    Type::Arr => out.put("arr"),
    Type::Void => out.put("void"),
});
piece!(ConstValue, |c, out, t| match c {
    ConstValue::Int(i) => put_num(out, if i < 0 { "-" } else { "" }, i.unsigned_abs()),
    ConstValue::Bool(b) => out.put(if b { "true" } else { "false" }),
    ConstValue::Null(c) => put!(out, t; "null ", c),
    ConstValue::NullArr => out.put("nullarr"),
});

/// Renders a class table as `class` declarations.
pub fn print_class_table(table: &ClassTable) -> String {
    let mut out = String::new();
    write_class_table(&mut out, table);
    out
}

/// Renders `g` in the textual IR format.
pub fn print_graph(g: &Graph) -> String {
    // About 36 bytes a line; one reservation covers most graphs.
    let mut out = String::with_capacity(36 * (g.inst_count() + 2 * g.block_count()));
    write_graph(&mut out, g);
    out
}

/// Writes what [`print_class_table`] returns to `out`.
pub(crate) fn write_class_table(out: &mut impl Sink, table: &ClassTable) {
    for c in table.class_ids() {
        put!(out, table; "class ", c, " { ");
        for (i, &f) in table.class(c).fields.iter().enumerate() {
            let field = table.field(f);
            put!(out, table; if i > 0 { ", " } else { "" }, field.name.as_str(), ": ", field.ty);
        }
        out.put(" }\n");
    }
}

/// Writes what [`print_graph`] returns to `out`.
pub(crate) fn write_graph(out: &mut impl Sink, g: &Graph) {
    let t = g.class_table();
    put!(out, t; "func @", g.name.as_str(), "(");
    for (i, &p) in g.param_values().iter().enumerate() {
        put!(out, t; if i > 0 { ", " } else { "" }, p, ": ", g.ty(p));
    }
    out.put(") {\n");
    let mut reachable = g.reachable_blocks();
    reachable.sort_unstable();
    for b in reachable {
        put!(out, t; b, ":\n");
        for &i in g.block_insts(b) {
            // Params are printed in the signature.
            if !matches!(g.inst(i), Inst::Param(_)) {
                write_inst(out, g, b, i);
            }
        }
        write_term(out, g, b);
    }
    out.put("}\n");
}

/// Writes the line of instruction `i` of block `b`, indented and with
/// its newline.
fn write_inst(out: &mut impl Sink, g: &Graph, b: BlockId, i: InstId) {
    let t = g.class_table();
    put!(out, t; "  ", i, ": ", g.ty(i), " = ");
    match *g.inst(i) {
        Inst::Const(c) => put!(out, t; "const ", c),
        Inst::Param(idx) => put_num(out, "param ", idx.into()),
        Inst::Binary { op, lhs, rhs } => put!(out, t; op.mnemonic(), " ", lhs, ", ", rhs),
        Inst::Compare { op, lhs, rhs } => put!(out, t; "cmp ", op.mnemonic(), " ", lhs, ", ", rhs),
        Inst::Not(x) => put!(out, t; "not ", x),
        Inst::Neg(x) => put!(out, t; "neg ", x),
        Inst::Phi { ref inputs } => {
            out.put("phi [");
            for (k, (&p, &v)) in g.preds(b).iter().zip(inputs).enumerate() {
                put!(out, t; if k > 0 { ", " } else { "" }, p, ": ", v);
            }
            out.put("]");
        }
        Inst::New { class } => put!(out, t; "new ", class),
        Inst::LoadField { object, field } => put!(out, t; "load ", object, ", ", field),
        Inst::StoreField {
            object,
            field,
            value,
        } => {
            put!(out, t; "store ", object, ", ", field, ", ", value);
        }
        Inst::InstanceOf { object, class } => put!(out, t; "instanceof ", object, ", ", class),
        Inst::NewArray { length } => put!(out, t; "newarray ", length),
        Inst::ArrayLoad { array, index } => put!(out, t; "aload ", array, ", ", index),
        Inst::ArrayStore {
            array,
            index,
            value,
        } => {
            put!(out, t; "astore ", array, ", ", index, ", ", value);
        }
        Inst::ArrayLength(a) => put!(out, t; "alength ", a),
        Inst::Invoke { ref args } => {
            out.put("invoke");
            for (k, &a) in args.iter().enumerate() {
                put!(out, t; if k == 0 { " " } else { ", " }, a);
            }
        }
    }
    out.put("\n");
}

/// Writes the terminator line of block `b`, indented and with its
/// newline.
fn write_term(out: &mut impl Sink, g: &Graph, b: BlockId) {
    let t = g.class_table();
    match *g.terminator(b) {
        Terminator::Jump { target } => put!(out, t; "  jump ", target),
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
            prob_then,
        } => {
            put!(out, t; "  branch ", cond, ", ", then_bb, ", ", else_bb, ", prob ");
            write!(out, "{prob_then}").expect("a sink cannot fail");
        }
        Terminator::Return { value: Some(v) } => put!(out, t; "  return ", v),
        Terminator::Return { value: None } => out.put("  return"),
        Terminator::Deopt => out.put("  deopt"),
    }
    out.put("\n");
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&print_graph(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::inst::CmpOp;
    use std::sync::Arc;

    #[test]
    fn prints_figure1() {
        let mut t = ClassTable::new();
        let c = t.add_class("A");
        t.add_field(c, "x", Type::Int);
        let mut b = GraphBuilder::new("foo", &[Type::Int], Arc::new(t));
        let x = b.param(0);
        let zero = b.iconst(0);
        let cond = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(cond, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![x, zero], Type::Int);
        let two = b.iconst(2);
        let sum = b.add(two, phi);
        b.ret(Some(sum));
        let g = b.finish();
        let text = print_graph(&g);
        assert!(text.contains("func @foo(v0: int)"), "{text}");
        assert!(text.contains("cmp gt v0, v1"), "{text}");
        assert!(text.contains("phi [b1: v0, b2: v1]"), "{text}");
        assert!(text.contains("branch v2, b1, b2, prob 0.5"), "{text}");
        assert!(text.contains("return v5"), "{text}");
    }

    #[test]
    fn prints_class_table() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        t.add_field(a, "x", Type::Int);
        t.add_field(a, "next", Type::Ref(a));
        let text = print_class_table(&t);
        assert_eq!(text, "class A { x: int, next: ref A }\n");
    }

    #[test]
    fn prints_heap_and_array_ops() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let mut b = GraphBuilder::new("heap", &[], Arc::new(t));
        let obj = b.new_object(a);
        let seven = b.iconst(7);
        b.store(obj, fx, seven);
        let l = b.load(obj, fx);
        let arr = b.new_array(l);
        let v = b.aload(arr, l);
        b.astore(arr, l, v);
        let len = b.alength(arr);
        let r = b.invoke(vec![len, v]);
        b.ret(Some(r));
        let g = b.finish();
        let text = print_graph(&g);
        assert!(text.contains("new A"));
        assert!(text.contains("store v0, A.x, v1"));
        assert!(text.contains("load v0, A.x"));
        assert!(text.contains("newarray v3"));
        assert!(text.contains("invoke v7, v5"));
    }

    #[test]
    fn skips_unreachable_blocks() {
        let mut b = GraphBuilder::new("u", &[], Arc::new(ClassTable::new()));
        b.ret(None);
        let dead = b.new_block();
        let g = b.finish();
        let text = print_graph(&g);
        assert!(!text.contains(&format!("{dead}:")));
    }
}
