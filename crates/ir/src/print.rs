//! Textual printing of graphs and class tables.
//!
//! The format round-trips through [`crate::parse`]: `print → parse → print`
//! reaches a fixpoint, which the integration tests rely on. Value names in
//! the output are the raw [`InstId`]s (`v17`), block names the raw
//! [`BlockId`]s (`b3`); the parser accepts arbitrary identifiers.

use crate::classes::ClassTable;
use crate::ids::{BlockId, InstId};
use crate::inst::{Inst, Terminator};
use crate::types::{ConstValue, Type};
use crate::Graph;
use std::fmt::{self, Write};

/// Renders a class table as `class` declarations.
pub fn print_class_table(table: &ClassTable) -> String {
    let mut out = String::new();
    write_class_table(&mut out, table).expect("writing to a String cannot fail");
    out
}

/// Renders `g` in the textual IR format.
pub fn print_graph(g: &Graph) -> String {
    let mut out = String::new();
    write_graph(&mut out, g).expect("writing to a String cannot fail");
    out
}

/// Writes what [`print_class_table`] returns to `out`.
pub(crate) fn write_class_table(out: &mut impl Write, table: &ClassTable) -> fmt::Result {
    for c in table.class_ids() {
        let info = table.class(c);
        write!(out, "class {} {{ ", info.name)?;
        for (i, &f) in info.fields.iter().enumerate() {
            let fi = table.field(f);
            if i > 0 {
                out.write_str(", ")?;
            }
            write!(out, "{}: ", fi.name)?;
            write_type(out, fi.ty, table)?;
        }
        out.write_str(" }\n")?;
    }
    Ok(())
}

/// Writes what [`print_graph`] returns to `out`.
pub(crate) fn write_graph(out: &mut impl Write, g: &Graph) -> fmt::Result {
    let table = g.class_table();
    write!(out, "func @{}(", g.name)?;
    for (i, &p) in g.param_values().iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write!(out, "{p}: ")?;
        write_type(out, g.ty(p), table)?;
    }
    out.write_str(") {\n")?;

    let mut reachable = g.reachable_blocks();
    reachable.sort();
    for b in reachable {
        writeln!(out, "{b}:")?;
        for &i in g.block_insts(b) {
            if matches!(g.inst(i), Inst::Param(_)) {
                continue; // params are printed in the signature
            }
            write_inst(out, g, b, i)?;
        }
        write_term(out, g, b)?;
    }
    out.write_str("}\n")
}

fn write_type(out: &mut impl Write, ty: Type, table: &ClassTable) -> fmt::Result {
    match ty {
        Type::Ref(c) => write!(out, "ref {}", table.class(c).name),
        other => write!(out, "{other}"),
    }
}

fn write_const(out: &mut impl Write, c: ConstValue, table: &ClassTable) -> fmt::Result {
    match c {
        ConstValue::Int(i) => write!(out, "{i}"),
        ConstValue::Bool(b) => write!(out, "{b}"),
        ConstValue::Null(cl) => write!(out, "null {}", table.class(cl).name),
        ConstValue::NullArr => out.write_str("nullarr"),
    }
}

/// Writes the line of instruction `i` of block `b`, indented and with
/// its newline.
fn write_inst(out: &mut impl Write, g: &Graph, b: BlockId, i: InstId) -> fmt::Result {
    let table = g.class_table();
    write!(out, "  {i}: ")?;
    write_type(out, g.ty(i), table)?;
    out.write_str(" = ")?;
    match g.inst(i) {
        Inst::Const(c) => {
            out.write_str("const ")?;
            write_const(out, *c, table)?;
        }
        Inst::Param(idx) => write!(out, "param {idx}")?,
        Inst::Binary { op, lhs, rhs } => write!(out, "{} {lhs}, {rhs}", op.mnemonic())?,
        Inst::Compare { op, lhs, rhs } => write!(out, "cmp {} {lhs}, {rhs}", op.mnemonic())?,
        Inst::Not(x) => write!(out, "not {x}")?,
        Inst::Neg(x) => write!(out, "neg {x}")?,
        Inst::Phi { inputs } => {
            out.write_str("phi [")?;
            for (k, (p, v)) in g.preds(b).iter().zip(inputs).enumerate() {
                if k > 0 {
                    out.write_str(", ")?;
                }
                write!(out, "{p}: {v}")?;
            }
            out.write_str("]")?;
        }
        Inst::New { class } => write!(out, "new {}", table.class(*class).name)?,
        Inst::LoadField { object, field } => {
            let fi = table.field(*field);
            write!(
                out,
                "load {object}, {}.{}",
                table.class(fi.class).name,
                fi.name
            )?;
        }
        Inst::StoreField {
            object,
            field,
            value,
        } => {
            let fi = table.field(*field);
            write!(
                out,
                "store {object}, {}.{}, {value}",
                table.class(fi.class).name,
                fi.name
            )?;
        }
        Inst::InstanceOf { object, class } => {
            write!(out, "instanceof {object}, {}", table.class(*class).name)?;
        }
        Inst::NewArray { length } => write!(out, "newarray {length}")?,
        Inst::ArrayLoad { array, index } => write!(out, "aload {array}, {index}")?,
        Inst::ArrayStore {
            array,
            index,
            value,
        } => write!(out, "astore {array}, {index}, {value}")?,
        Inst::ArrayLength(a) => write!(out, "alength {a}")?,
        Inst::Invoke { args } => {
            out.write_str("invoke")?;
            for (k, a) in args.iter().enumerate() {
                out.write_str(if k == 0 { " " } else { ", " })?;
                write!(out, "{a}")?;
            }
        }
    }
    out.write_char('\n')
}

/// Writes the terminator line of block `b`, indented and with its
/// newline.
fn write_term(out: &mut impl Write, g: &Graph, b: BlockId) -> fmt::Result {
    match g.terminator(b) {
        Terminator::Jump { target } => writeln!(out, "  jump {target}"),
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
            prob_then,
        } => writeln!(
            out,
            "  branch {cond}, {then_bb}, {else_bb}, prob {prob_then}"
        ),
        Terminator::Return { value: Some(v) } => writeln!(out, "  return {v}"),
        Terminator::Return { value: None } => out.write_str("  return\n"),
        Terminator::Deopt => out.write_str("  deopt\n"),
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_graph(f, self)
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
