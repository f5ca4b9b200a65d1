//! Every diagnostic of the textual IR parser, pinned: one malformed
//! input per error site in `parse.rs`, with the `(line, message)` the
//! parser reports for it. A rewrite of the parser must keep each one —
//! the line a user is pointed at and the words they read.

use dbds_ir::{parse_graph, parse_module, ClassTable};
use std::sync::Arc;

/// `(input, line, message)`: `parse_module(input)` fails at `line` with
/// exactly `message`.
const CASES: &[(&str, usize, &str)] = &[
    // Class declarations.
    ("class  { x: int }\nfunc @f() {\nentry:\n  return\n}\n", 1, "malformed class declaration"),
    ("class A x: int\nfunc @f() {\nentry:\n  return\n}\n", 1, "class body must be enclosed in { }"),
    ("class A { x }\nfunc @f() {\nentry:\n  return\n}\n", 1, "field must be `name: type`"),
    ("class A { x: float }\nfunc @f() {\nentry:\n  return\n}\n", 1, "unknown type `float`"),
    ("class A { x: ref Z }\nfunc @f() {\nentry:\n  return\n}\n", 1, "unknown class `Z`"),
    ("class A { f: void }\nfunc @f() {\nentry:\n  return\n}\n", 1, "field `f` cannot be void"),
    ("class A { }\nclass B { y: int }\n", 2, "module contains no functions"),
    ("// nothing but a comment\n", 1, "module contains no functions"),
    // Function headers.
    ("fun @f() {\nentry:\n  return\n}\n", 1, "expected `func @name(...) {`"),
    ("func @f {\nentry:\n  return\n}\n", 1, "expected `(` after function name"),
    ("func @f( {\nentry:\n  return\n}\n", 1, "expected `)` in function header"),
    ("func @f()\nentry:\n  return\n}\n", 1, "expected `{` at end of function header"),
    ("func @f(x) {\nentry:\n  return\n}\n", 1, "parameter must be `name: type`"),
    ("func @f(x: float) {\nentry:\n  return\n}\n", 1, "unknown type `float`"),
    ("func @f(x: ref Z) {\nentry:\n  return\n}\n", 1, "unknown class `Z`"),
    ("func @f(x: void) {\nentry:\n  return\n}\n", 1, "parameter `x` cannot be void"),
    // Body structure.
    ("func @f() {\nentry:\n  return\n", 1, "missing closing `}`"),
    ("func @f() {\n  return\nentry:\n  return\n}\n", 2, "statement before first block label"),
    ("func @f() {\n}\n", 1, "function has no blocks"),
    ("func @f() {\nentry:\n  jump entry\nentry:\n  return\n}\n", 4, "duplicate block label"),
    ("func @f() {\nentry:\nnext:\n  return\n}\n", 2, "block has no terminator"),
    // Terminators.
    ("func @f() {\nentry:\n  v: int = const 1\n}\n", 3, "unknown terminator `v:`"),
    ("func @f() {\nentry:\n  jump nowhere\n}\n", 3, "unknown block `nowhere`"),
    ("func @f(c: bool) {\nentry:\n  branch c, a, b\na:\n  return\nb:\n  return\n}\n", 3, "`branch` expects `cond, then, else, prob P`"),
    ("func @f(c: bool) {\nentry:\n  branch c, a, b, p 0.5\na:\n  return\nb:\n  return\n}\n", 3, "expected `prob P`"),
    ("func @f(c: bool) {\nentry:\n  branch c, a, b, prob x\na:\n  return\nb:\n  return\n}\n", 3, "bad probability `x`"),
    ("func @f(c: bool) {\nentry:\n  branch c, a, z, prob 0.5\na:\n  return\n}\n", 3, "unknown block `z`"),
    ("func @f(c: bool) {\nentry:\n  branch c, a, a, prob 0.5\na:\n  return\n}\n", 3, "`branch` targets must be distinct"),
    ("func @f() {\nentry:\n  return ghost\n}\n", 3, "unknown value `ghost`"),
    // Definitions.
    ("func @f() {\nentry:\n  return\n  return\n}\n", 3, "expected `name: type = ...`"),
    ("func @f() {\nentry:\n  v = const 1\n  return\n}\n", 3, "definition must be `name: type = ...`"),
    ("func @f() {\nentry:\n  v: float = const 1\n  return\n}\n", 3, "unknown type `float`"),
    ("func @f() {\nentry:\n  v: ref Q = const 1\n  return\n}\n", 3, "unknown class `Q`"),
    ("func @f() {\nentry:\n  v: int = const 1\n  v: int = const 2\n  return\n}\n", 4, "value `v` defined twice"),
    ("func @f() {\nentry:\n  v: int = add v, ghost\n  return\n}\n", 3, "unknown value `ghost`"),
    // Instructions.
    ("func @f() {\nentry:\n  v: int = frob 1\n  return\n}\n", 3, "unknown instruction `frob`"),
    ("func @f(x: int) {\nentry:\n  v: int = add x\n  return\n}\n", 3, "`add` expects 2 operands"),
    ("func @f(x: int) {\nentry:\n  v: int = mul x, x, x\n  return\n}\n", 3, "`mul` expects 2 operands"),
    ("func @f() {\nentry:\n  v: int = const 1x\n  return\n}\n", 3, "bad constant `1x`"),
    ("func @f() {\nentry:\n  v: int = const null Q\n  return\n}\n", 3, "unknown class `Q`"),
    ("func @f() {\nentry:\n  v: int = param x\n  return\n}\n", 3, "bad param index"),
    ("func @f(x: int) {\nentry:\n  v: bool = cmp gt\n  return\n}\n", 3, "expected `cmp op a, b`"),
    ("func @f(x: int) {\nentry:\n  v: bool = cmp zz x, x\n  return\n}\n", 3, "unknown comparison `zz`"),
    ("func @f(x: int) {\nentry:\n  v: bool = cmp gt x, x, x\n  return\n}\n", 3, "`cmp` expects 2 operands"),
    ("func @f(x: bool) {\nentry:\n  v: bool = not x, x\n  return\n}\n", 3, "`not` expects 1 operands"),
    ("func @f(x: int) {\nentry:\n  v: int = neg\n  return\n}\n", 3, "`neg` expects 1 operands"),
    ("func @f() {\nentry:\n  v: int = new Q\n  return\n}\n", 3, "unknown class `Q`"),
    ("class A { x: int }\nfunc @f(a: ref A) {\nentry:\n  v: int = load a\n  return\n}\n", 4, "`load` expects `object, Class.field`"),
    ("class A { x: int }\nfunc @f(a: ref A) {\nentry:\n  v: int = load a, x\n  return\n}\n", 4, "expected `Class.field`"),
    ("class A { x: int }\nfunc @f(a: ref A) {\nentry:\n  v: int = load a, Q.x\n  return\n}\n", 4, "unknown class `Q`"),
    ("class A { x: int }\nfunc @f(a: ref A) {\nentry:\n  v: int = load a, A.zz\n  return\n}\n", 4, "unknown field `A.zz`"),
    ("class A { x: int }\nfunc @f(a: ref A) {\nentry:\n  v: void = store a, A.x\n  return\n}\n", 4, "`store` expects `object, Class.field, value`"),
    ("class A { x: int }\nfunc @f(a: ref A) {\nentry:\n  v: bool = instanceof a\n  return\n}\n", 4, "`instanceof` expects `object, Class`"),
    ("class A { x: int }\nfunc @f(a: ref A) {\nentry:\n  v: bool = instanceof a, Q\n  return\n}\n", 4, "unknown class `Q`"),
    ("func @f(n: int) {\nentry:\n  v: arr = newarray\n  return\n}\n", 3, "`newarray` expects 1 operands"),
    ("func @f(a: arr) {\nentry:\n  v: int = aload a\n  return\n}\n", 3, "`aload` expects 2 operands"),
    ("func @f(a: arr) {\nentry:\n  v: void = astore a, a\n  return\n}\n", 3, "`astore` expects 3 operands"),
    ("func @f(a: arr) {\nentry:\n  v: int = alength a, a\n  return\n}\n", 3, "`alength` expects 1 operands"),
    ("func @f() {\nentry:\n  v: int = invoke ghost\n  return v\n}\n", 3, "unknown value `ghost`"),
    // φs (`m` has predecessors `a` and `b`, in that order).
    ("func @f(c: bool) {\nentry:\n  branch c, a, b, prob 0.5\na:\n  jump m\nb:\n  jump m\nm:\n  p: bool = phi a: c, b: c\n  return\n}\n", 9, "expected `phi [pred: value, ...]`"),
    ("func @f(c: bool) {\nentry:\n  branch c, a, b, prob 0.5\na:\n  jump m\nb:\n  jump m\nm:\n  p: bool = phi [a c, b: c]\n  return\n}\n", 9, "phi input must be `pred: value`"),
    ("func @f(c: bool) {\nentry:\n  branch c, a, b, prob 0.5\na:\n  jump m\nb:\n  jump m\nm:\n  p: bool = phi [a: c, z: c]\n  return\n}\n", 9, "unknown block `z`"),
    ("func @f(c: bool) {\nentry:\n  branch c, a, b, prob 0.5\na:\n  jump m\nb:\n  jump m\nm:\n  p: bool = phi [a: c, a: c]\n  return\n}\n", 9, "duplicate phi predecessor"),
    ("func @f(c: bool) {\nentry:\n  branch c, a, b, prob 0.5\na:\n  jump m\nb:\n  jump m\nm:\n  p: bool = phi [entry: c, entry: c, a: c, b: c]\n  return\n}\n", 9, "duplicate phi predecessor"),
    ("func @f(c: bool) {\nentry:\n  branch c, a, b, prob 0.5\na:\n  jump m\nb:\n  jump m\nm:\n  p: bool = phi [b: c]\n  return\n}\n", 9, "phi missing input for predecessor b1"),
    ("func @f(c: bool) {\nentry:\n  branch c, a, b, prob 0.5\na:\n  jump m\nb:\n  jump m\nm:\n  p: bool = phi [a: c, b: c, entry: c]\n  return\n}\n", 9, "phi lists a non-predecessor block"),
    ("func @f(c: bool) {\nentry:\n  branch c, a, b, prob 0.5\na:\n  jump m\nb:\n  jump m\nm:\n  p: bool = phi [a: c, b: ghost]\n  return\n}\n", 9, "unknown value `ghost`"),
    // A later function of the module reports its own line.
    ("func @f() {\nentry:\n  return\n}\n\nfunc @g() {\nentry:\n  v: int = const\n  return\n}\n", 8, "bad constant ``"),
];

#[test]
fn every_parse_error_keeps_its_line_and_message() {
    let mut wrong = Vec::new();
    for &(src, line, message) in CASES {
        match parse_module(src) {
            Ok(_) => wrong.push(format!("{src:?}: parsed")),
            Err(e) if (e.line, e.message.as_str()) != (line, message) => {
                wrong.push(format!("{src:?}: got ({}, {:?})", e.line, e.message));
            }
            Err(_) => {}
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn the_first_error_in_source_order_wins() {
    // Two unknown values: the instruction's forward reference is
    // resolved before the terminator's.
    let src = "func @f() {\nentry:\n  v: int = add u, u\n  return w\n}\n";
    let e = parse_module(src).unwrap_err();
    assert_eq!((e.line, e.message.as_str()), (3, "unknown value `u`"));
    // Two terminators with unknown values: the earlier block reports.
    let src = "func @f(c: bool) {\nentry:\n  branch c, a, b, prob 0.5\na:\n  return x\nb:\n  return y\n}\n";
    let e = parse_module(src).unwrap_err();
    assert_eq!((e.line, e.message.as_str()), (5, "unknown value `x`"));
}

#[test]
fn parse_graph_reports_empty_input() {
    let table = Arc::new(ClassTable::new());
    let e = parse_graph("  # only a comment\n\n", table.clone()).unwrap_err();
    assert_eq!((e.line, e.message.as_str()), (1, "empty input"));
    let e = parse_graph("func @f() {\nentry:\n  jump x\n}\n", table).unwrap_err();
    assert_eq!((e.line, e.message.as_str()), (3, "unknown block `x`"));
}
