//! Parsing of the textual IR format produced by [`crate::print`].
//!
//! The entry points are [`parse_module`] (class declarations followed by
//! functions) and [`parse_graph`] (a single function against an existing
//! [`ClassTable`]). The parser is line-oriented: one instruction or
//! terminator per line, `#` and `//` start comments.

use crate::classes::ClassTable;
use crate::ids::{BlockId, ClassId, FieldId, InstId};
use crate::inst::{BinOp, CmpOp, Inst, Terminator};
use crate::types::{ConstValue, Type};
use crate::Graph;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A parsed module: shared class table plus its functions.
#[derive(Clone, Debug)]
pub struct Module {
    /// Classes shared by all graphs of the module.
    pub class_table: Arc<ClassTable>,
    /// The parsed functions, in source order.
    pub graphs: Vec<Graph>,
}

/// A parse failure, with the 1-based source line where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// Parses a module: zero or more `class` declarations followed by one or
/// more `func` definitions.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the first offending line.
pub fn parse_module(text: &str) -> PResult<Module> {
    let lines = clean_lines(text);
    let mut idx = 0;

    // Pass 1: register class names so classes may reference one another.
    let mut table = ClassTable::new();
    let mut class_lines = Vec::new();
    while idx < lines.len() && lines[idx].1.starts_with("class ") {
        let (lineno, line) = &lines[idx];
        let name = line
            .strip_prefix("class ")
            .and_then(|r| r.split('{').next())
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .ok_or_else(|| err(*lineno, "malformed class declaration"))?;
        table.add_class(name);
        class_lines.push((*lineno, line.clone()));
        idx += 1;
    }
    // Pass 2: fields.
    for (lineno, line) in &class_lines {
        let body = line
            .split_once('{')
            .and_then(|(_, r)| r.rsplit_once('}'))
            .map(|(b, _)| b.trim())
            .ok_or_else(|| err(*lineno, "class body must be enclosed in { }"))?;
        let name = line
            .strip_prefix("class ")
            .and_then(|r| r.split('{').next())
            .map(str::trim)
            .ok_or_else(|| err(*lineno, "malformed class declaration"))?;
        let class = table.class_by_name(name).expect("registered in pass 1");
        if body.is_empty() {
            continue;
        }
        for fdecl in body.split(',') {
            let (fname, fty) = fdecl
                .split_once(':')
                .ok_or_else(|| err(*lineno, "field must be `name: type`"))?;
            let ty = parse_type(fty.trim(), &table).map_err(|m| err(*lineno, &m))?;
            if ty.is_void() {
                let msg = format!("field `{}` cannot be void", fname.trim());
                return Err(err(*lineno, &msg));
            }
            table.add_field(class, fname.trim(), ty);
        }
    }
    let table = Arc::new(table);

    let mut graphs = Vec::new();
    while idx < lines.len() {
        let (consumed, graph) = parse_func(&lines[idx..], table.clone())?;
        graphs.push(graph);
        idx += consumed;
    }
    if graphs.is_empty() {
        return Err(err(
            lines.last().map(|l| l.0).unwrap_or(1),
            "module contains no functions",
        ));
    }
    Ok(Module {
        class_table: table,
        graphs,
    })
}

/// Parses a single function definition against an existing class table.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the first offending line.
pub fn parse_graph(text: &str, table: Arc<ClassTable>) -> PResult<Graph> {
    let lines = clean_lines(text);
    if lines.is_empty() {
        return Err(err(1, "empty input"));
    }
    let (_, graph) = parse_func(&lines, table)?;
    Ok(graph)
}

fn clean_lines(text: &str) -> Vec<(usize, String)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| {
            let no_comment = l.split("//").next().unwrap_or("");
            let no_comment = no_comment.split('#').next().unwrap_or("");
            (i + 1, no_comment.trim().to_string())
        })
        .filter(|(_, l)| !l.is_empty())
        .collect()
}

fn err(line: usize, message: &str) -> ParseError {
    ParseError {
        line,
        message: message.to_string(),
    }
}

fn parse_type(s: &str, table: &ClassTable) -> Result<Type, String> {
    match s {
        "int" => Ok(Type::Int),
        "bool" => Ok(Type::Bool),
        "arr" => Ok(Type::Arr),
        "void" => Ok(Type::Void),
        _ => {
            if let Some(cname) = s.strip_prefix("ref ") {
                table
                    .class_by_name(cname.trim())
                    .map(Type::Ref)
                    .ok_or_else(|| format!("unknown class `{}`", cname.trim()))
            } else {
                Err(format!("unknown type `{s}`"))
            }
        }
    }
}

/// One pending operand patch: instruction, then the operand names in
/// `for_each_input_mut` order.
struct InstPatch {
    id: InstId,
    line: usize,
    operands: Vec<String>,
}

struct TermPatch {
    block: BlockId,
    line: usize,
    operands: Vec<String>,
}

fn parse_func(lines: &[(usize, String)], table: Arc<ClassTable>) -> PResult<(usize, Graph)> {
    let (hline, header) = &lines[0];
    let rest = header
        .strip_prefix("func @")
        .ok_or_else(|| err(*hline, "expected `func @name(...) {`"))?;
    let (name, rest) = rest
        .split_once('(')
        .ok_or_else(|| err(*hline, "expected `(` after function name"))?;
    let (params_src, tail) = rest
        .rsplit_once(')')
        .ok_or_else(|| err(*hline, "expected `)` in function header"))?;
    if tail.trim() != "{" {
        return Err(err(*hline, "expected `{` at end of function header"));
    }

    let mut param_names = Vec::new();
    let mut param_types = Vec::new();
    for p in params_src
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
    {
        let (pname, pty) = p
            .split_once(':')
            .ok_or_else(|| err(*hline, "parameter must be `name: type`"))?;
        let ty = parse_type(pty.trim(), &table).map_err(|m| err(*hline, &m))?;
        if ty.is_void() {
            let msg = format!("parameter `{}` cannot be void", pname.trim());
            return Err(err(*hline, &msg));
        }
        param_names.push(pname.trim().to_string());
        param_types.push(ty);
    }

    // Collect body lines until the closing `}`.
    let mut body: Vec<&(usize, String)> = Vec::new();
    let mut consumed = 1;
    let mut closed = false;
    for entry in &lines[1..] {
        consumed += 1;
        if entry.1 == "}" {
            closed = true;
            break;
        }
        body.push(entry);
    }
    if !closed {
        return Err(err(*hline, "missing closing `}`"));
    }

    // Group into blocks.
    struct BlockSrc<'a> {
        line: usize,
        label: String,
        stmts: Vec<&'a (usize, String)>,
    }
    let mut blocks_src: Vec<BlockSrc> = Vec::new();
    for entry in body {
        let (lineno, line) = entry;
        if let Some(label) = line.strip_suffix(':') {
            if label.chars().all(|c| c.is_alphanumeric() || c == '_') && !label.is_empty() {
                blocks_src.push(BlockSrc {
                    line: *lineno,
                    label: label.to_string(),
                    stmts: Vec::new(),
                });
                continue;
            }
        }
        match blocks_src.last_mut() {
            Some(b) => b.stmts.push(entry),
            None => return Err(err(*lineno, "statement before first block label")),
        }
    }
    if blocks_src.is_empty() {
        return Err(err(*hline, "function has no blocks"));
    }

    let mut graph = Graph::new(name.trim(), &param_types, table.clone());
    let mut values: HashMap<String, InstId> = HashMap::new();
    for (pname, &pval) in param_names.iter().zip(graph.param_values()) {
        values.insert(pname.clone(), pval);
    }
    let mut block_ids: HashMap<String, BlockId> = HashMap::new();
    for (i, bs) in blocks_src.iter().enumerate() {
        let id = if i == 0 {
            graph.entry()
        } else {
            graph.add_block()
        };
        if block_ids.insert(bs.label.clone(), id).is_some() {
            return Err(err(bs.line, "duplicate block label"));
        }
    }

    // First: terminators (so preds exist before φ creation). Operands are
    // patched afterwards.
    let mut term_patches: Vec<TermPatch> = Vec::new();
    for bs in &blocks_src {
        let block = block_ids[&bs.label];
        let (lineno, last) = match bs.stmts.last() {
            Some(e) => (e.0, e.1.as_str()),
            None => return Err(err(bs.line, "block has no terminator")),
        };
        let (term, ops) = parse_terminator(last, lineno, &block_ids)?;
        graph.set_terminator(block, term);
        term_patches.push(TermPatch {
            block,
            line: lineno,
            operands: ops,
        });
    }

    // Then: instructions (all but the last statement of each block).
    let mut inst_patches: Vec<InstPatch> = Vec::new();
    for bs in &blocks_src {
        let block = block_ids[&bs.label];
        for entry in &bs.stmts[..bs.stmts.len() - 1] {
            let (lineno, line) = entry;
            let (vname, ty, opsrc) = split_def(line, *lineno, &table)?;
            let (mut inst, operands) =
                parse_inst(opsrc, *lineno, &table, &block_ids, &graph, block)?;
            // Operands that only name earlier values — nearly all do — go
            // in resolved; forward references keep their placeholder and
            // wait for the patch below.
            let known: Option<Vec<InstId>> =
                operands.iter().map(|n| values.get(n).copied()).collect();
            let id = if inst.is_phi() {
                let n = graph.preds(block).len();
                if operands.len() != n {
                    return Err(err(
                        *lineno,
                        &format!(
                            "phi lists {} inputs but block has {n} predecessors",
                            operands.len()
                        ),
                    ));
                }
                let inputs = known.clone();
                graph.append_phi(block, inputs.unwrap_or(vec![next_inst_id(&graph); n]), ty)
            } else {
                if let Some(known) = &known {
                    let mut resolved = known.iter();
                    inst.for_each_input_mut(|slot| {
                        *slot = *resolved.next().expect("one name per operand");
                    });
                }
                graph.append_inst(block, inst, ty)
            };
            if values.insert(vname.clone(), id).is_some() {
                return Err(err(*lineno, &format!("value `{vname}` defined twice")));
            }
            if known.is_none() {
                inst_patches.push(InstPatch {
                    id,
                    line: *lineno,
                    operands,
                });
            }
        }
    }

    // Patch the remaining operands now that every value name is known:
    // the forward references among the instructions, then the terminators
    // (set before any value existed). Terminators go newest first — their
    // placeholder uses of `InstId(0)` leave its use list from the end they
    // were added at.
    let resolve = |names: &[String], line: usize| -> PResult<Vec<InstId>> {
        let lookup = |name: &String| values.get(name).copied();
        let resolved = names
            .iter()
            .map(|name| lookup(name).ok_or_else(|| err(line, &format!("unknown value `{name}`"))));
        resolved.collect()
    };
    for patch in &inst_patches {
        let mut resolved = resolve(&patch.operands, patch.line)?.into_iter();
        graph.rewrite_inputs(patch.id, |inst| {
            inst.for_each_input_mut(|slot| *slot = resolved.next().expect("one name per operand"))
        });
    }
    let term_operands: Vec<Vec<InstId>> = term_patches
        .iter()
        .map(|patch| resolve(&patch.operands, patch.line))
        .collect::<PResult<_>>()?;
    for (patch, resolved) in term_patches.iter().zip(term_operands).rev() {
        let mut resolved = resolved.into_iter();
        graph.patch_terminator_inputs(patch.block, |slot| {
            *slot = resolved.next().expect("one name per operand");
        });
    }

    Ok((consumed, graph))
}

/// Splits `name: type = body` and returns `(name, type, body)`.
fn split_def<'a>(
    line: &'a str,
    lineno: usize,
    table: &ClassTable,
) -> PResult<(String, Type, &'a str)> {
    let (lhs, body) = line
        .split_once('=')
        .ok_or_else(|| err(lineno, "expected `name: type = ...`"))?;
    let (name, ty) = lhs
        .split_once(':')
        .ok_or_else(|| err(lineno, "definition must be `name: type = ...`"))?;
    let ty = parse_type(ty.trim(), table).map_err(|m| err(lineno, &m))?;
    Ok((name.trim().to_string(), ty, body.trim()))
}

/// Parses a field reference `Class.field`.
fn parse_field(s: &str, lineno: usize, table: &ClassTable) -> PResult<FieldId> {
    let (cname, fname) = s
        .split_once('.')
        .ok_or_else(|| err(lineno, "expected `Class.field`"))?;
    let class = table
        .class_by_name(cname.trim())
        .ok_or_else(|| err(lineno, &format!("unknown class `{}`", cname.trim())))?;
    table
        .field_by_name(class, fname.trim())
        .ok_or_else(|| err(lineno, &format!("unknown field `{s}`")))
}

fn parse_class(s: &str, lineno: usize, table: &ClassTable) -> PResult<ClassId> {
    table
        .class_by_name(s.trim())
        .ok_or_else(|| err(lineno, &format!("unknown class `{}`", s.trim())))
}

/// The id the next appended instruction gets. Unresolved operands point
/// at their own instruction until patched, so every placeholder use sits
/// in a use list of its own instead of piling up in one value's.
fn next_inst_id(graph: &Graph) -> InstId {
    InstId::from_index(graph.inst_count())
}

/// Parses an instruction body; returns the instruction with dummy operand
/// ids plus the operand names in `for_each_input_mut` order.
fn parse_inst(
    src: &str,
    lineno: usize,
    table: &ClassTable,
    block_ids: &HashMap<String, BlockId>,
    graph: &Graph,
    block: BlockId,
) -> PResult<(Inst, Vec<String>)> {
    let (op, rest) = match src.split_once(char::is_whitespace) {
        Some((o, r)) => (o, r.trim()),
        None => (src, ""),
    };
    let d = next_inst_id(graph); // dummy, patched later
    let args = |n: usize| -> PResult<Vec<String>> {
        let parts: Vec<String> = rest
            .split(',')
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
            .collect();
        if parts.len() != n {
            return Err(err(lineno, &format!("`{op}` expects {n} operands")));
        }
        Ok(parts)
    };
    let binop = BinOp::ALL.iter().find(|b| b.mnemonic() == op).copied();
    if let Some(bop) = binop {
        let a = args(2)?;
        return Ok((
            Inst::Binary {
                op: bop,
                lhs: d,
                rhs: d,
            },
            a,
        ));
    }
    match op {
        "const" => {
            let c = if rest == "true" {
                ConstValue::Bool(true)
            } else if rest == "false" {
                ConstValue::Bool(false)
            } else if rest == "nullarr" {
                ConstValue::NullArr
            } else if let Some(cname) = rest.strip_prefix("null ") {
                ConstValue::Null(parse_class(cname, lineno, table)?)
            } else {
                ConstValue::Int(
                    rest.parse::<i64>()
                        .map_err(|_| err(lineno, &format!("bad constant `{rest}`")))?,
                )
            };
            Ok((Inst::Const(c), Vec::new()))
        }
        "param" => {
            let idx: u32 = rest.parse().map_err(|_| err(lineno, "bad param index"))?;
            Ok((Inst::Param(idx), Vec::new()))
        }
        "cmp" => {
            let (cop, operands) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| err(lineno, "expected `cmp op a, b`"))?;
            let cop = CmpOp::ALL
                .iter()
                .find(|c| c.mnemonic() == cop)
                .copied()
                .ok_or_else(|| err(lineno, &format!("unknown comparison `{cop}`")))?;
            let parts: Vec<String> = operands.split(',').map(|p| p.trim().to_string()).collect();
            if parts.len() != 2 {
                return Err(err(lineno, "`cmp` expects 2 operands"));
            }
            Ok((
                Inst::Compare {
                    op: cop,
                    lhs: d,
                    rhs: d,
                },
                parts,
            ))
        }
        "not" => Ok((Inst::Not(d), args(1)?)),
        "neg" => Ok((Inst::Neg(d), args(1)?)),
        "phi" => {
            // phi [b1: v0, b2: v1] — reorder inputs to match pred order.
            let body = rest
                .strip_prefix('[')
                .and_then(|r| r.strip_suffix(']'))
                .ok_or_else(|| err(lineno, "expected `phi [pred: value, ...]`"))?;
            let mut by_pred: HashMap<BlockId, String> = HashMap::new();
            for pair in body.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                let (pb, pv) = pair
                    .split_once(':')
                    .ok_or_else(|| err(lineno, "phi input must be `pred: value`"))?;
                let pred = *block_ids
                    .get(pb.trim())
                    .ok_or_else(|| err(lineno, &format!("unknown block `{}`", pb.trim())))?;
                if by_pred.insert(pred, pv.trim().to_string()).is_some() {
                    return Err(err(lineno, "duplicate phi predecessor"));
                }
            }
            let mut ordered = Vec::new();
            for &p in graph.preds(block) {
                let v = by_pred.remove(&p).ok_or_else(|| {
                    err(lineno, &format!("phi missing input for predecessor {p}"))
                })?;
                ordered.push(v);
            }
            if !by_pred.is_empty() {
                return Err(err(lineno, "phi lists a non-predecessor block"));
            }
            Ok((Inst::Phi { inputs: Vec::new() }, ordered))
        }
        "new" => Ok((
            Inst::New {
                class: parse_class(rest, lineno, table)?,
            },
            Vec::new(),
        )),
        "load" => {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 2 {
                return Err(err(lineno, "`load` expects `object, Class.field`"));
            }
            Ok((
                Inst::LoadField {
                    object: d,
                    field: parse_field(parts[1], lineno, table)?,
                },
                vec![parts[0].to_string()],
            ))
        }
        "store" => {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return Err(err(lineno, "`store` expects `object, Class.field, value`"));
            }
            Ok((
                Inst::StoreField {
                    object: d,
                    field: parse_field(parts[1], lineno, table)?,
                    value: d,
                },
                vec![parts[0].to_string(), parts[2].to_string()],
            ))
        }
        "instanceof" => {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 2 {
                return Err(err(lineno, "`instanceof` expects `object, Class`"));
            }
            Ok((
                Inst::InstanceOf {
                    object: d,
                    class: parse_class(parts[1], lineno, table)?,
                },
                vec![parts[0].to_string()],
            ))
        }
        "newarray" => Ok((Inst::NewArray { length: d }, args(1)?)),
        "aload" => Ok((Inst::ArrayLoad { array: d, index: d }, args(2)?)),
        "astore" => Ok((
            Inst::ArrayStore {
                array: d,
                index: d,
                value: d,
            },
            args(3)?,
        )),
        "alength" => Ok((Inst::ArrayLength(d), args(1)?)),
        "invoke" => {
            let parts: Vec<String> = rest
                .split(',')
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect();
            Ok((
                Inst::Invoke {
                    args: vec![d; parts.len()],
                },
                parts,
            ))
        }
        other => Err(err(lineno, &format!("unknown instruction `{other}`"))),
    }
}

fn parse_terminator(
    src: &str,
    lineno: usize,
    block_ids: &HashMap<String, BlockId>,
) -> PResult<(Terminator, Vec<String>)> {
    let (op, rest) = match src.split_once(char::is_whitespace) {
        Some((o, r)) => (o, r.trim()),
        None => (src, ""),
    };
    let block = |name: &str| -> PResult<BlockId> {
        block_ids
            .get(name.trim())
            .copied()
            .ok_or_else(|| err(lineno, &format!("unknown block `{}`", name.trim())))
    };
    match op {
        "jump" => Ok((
            Terminator::Jump {
                target: block(rest)?,
            },
            Vec::new(),
        )),
        "branch" => {
            // branch cond, then, else, prob P
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 4 {
                return Err(err(lineno, "`branch` expects `cond, then, else, prob P`"));
            }
            let prob_src = parts[3]
                .strip_prefix("prob")
                .map(str::trim)
                .ok_or_else(|| err(lineno, "expected `prob P`"))?;
            let prob_then: f64 = prob_src
                .parse()
                .map_err(|_| err(lineno, &format!("bad probability `{prob_src}`")))?;
            let (then_bb, else_bb) = (block(parts[1])?, block(parts[2])?);
            if then_bb == else_bb {
                return Err(err(lineno, "`branch` targets must be distinct"));
            }
            Ok((
                Terminator::Branch {
                    cond: InstId(0),
                    then_bb,
                    else_bb,
                    prob_then,
                },
                vec![parts[0].to_string()],
            ))
        }
        "return" => {
            if rest.is_empty() {
                Ok((Terminator::Return { value: None }, Vec::new()))
            } else {
                Ok((
                    Terminator::Return {
                        value: Some(InstId(0)),
                    },
                    vec![rest.to_string()],
                ))
            }
        }
        "deopt" => Ok((Terminator::Deopt, Vec::new())),
        other => Err(err(lineno, &format!("unknown terminator `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::{print_class_table, print_graph};
    use crate::verify::verify;

    const FIGURE1: &str = r#"
        // Figure 1a of the paper.
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

    #[test]
    fn parses_figure1_and_verifies() {
        let m = parse_module(FIGURE1).unwrap();
        let g = &m.graphs[0];
        verify(g).unwrap();
        assert_eq!(g.name, "foo");
        assert_eq!(g.merge_blocks().len(), 1);
    }

    #[test]
    fn print_parse_print_fixpoint() {
        let m = parse_module(FIGURE1).unwrap();
        let text1 = print_graph(&m.graphs[0]);
        let g2 = parse_graph(&text1, m.class_table.clone()).unwrap();
        let text2 = print_graph(&g2);
        assert_eq!(text1, text2);
    }

    #[test]
    fn parses_classes_and_heap_ops() {
        let src = r#"
            class A { x: int, next: ref B }
            class B { y: int }
            func @f(a: ref A) {
            entry:
              v: int = load a, A.x
              o: ref B = new B
              s: void = store o, B.y, v
              t: bool = instanceof a, A
              n: ref A = const null A
              e: bool = cmp eq a, n
              r: int = invoke v
              return r
            }
        "#;
        let m = parse_module(src).unwrap();
        verify(&m.graphs[0]).unwrap();
        assert_eq!(m.class_table.class_count(), 2);
        // Fixpoint including the class table.
        let ct = print_class_table(&m.class_table);
        let g = print_graph(&m.graphs[0]);
        let m2 = parse_module(&format!("{ct}{g}")).unwrap();
        assert_eq!(print_graph(&m2.graphs[0]), print_graph(&m.graphs[0]));
    }

    #[test]
    fn parses_loop_with_forward_phi_reference() {
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
        let m = parse_module(src).unwrap();
        verify(&m.graphs[0]).unwrap();
    }

    #[test]
    fn parses_arrays() {
        let src = r#"
            func @sum(a: arr) {
            entry:
              zero: int = const 0
              len: int = alength a
              x: int = aload a, zero
              s: void = astore a, zero, len
              b: arr = newarray len
              return x
            }
        "#;
        let m = parse_module(src).unwrap();
        verify(&m.graphs[0]).unwrap();
    }

    #[test]
    fn error_reports_line() {
        let src = "func @f() {\nentry:\n  v: int = frobnicate\n  return v\n}\n";
        let e = parse_module(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn rejects_what_the_graph_primitives_assert_against() {
        let cases = [
            (
                "func @f(x: void) {\nentry:\n  return\n}\n",
                1,
                "parameter `x` cannot be void",
            ),
            (
                "class A { f: void }\nfunc @g() {\nentry:\n  return\n}\n",
                1,
                "field `f` cannot be void",
            ),
            (
                "func @h(c: bool) {\nentry:\n  branch c, b, b, prob 0.5\nb:\n  return\n}\n",
                3,
                "`branch` targets must be distinct",
            ),
        ];
        for (src, line, message) in cases {
            let e = parse_module(src).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (line, message), "{src}");
        }
    }

    #[test]
    fn rejects_unknown_value() {
        let src = "func @f() {\nentry:\n  return ghost\n}\n";
        let e = parse_module(src).unwrap_err();
        assert!(e.message.contains("unknown value"));
    }

    #[test]
    fn rejects_duplicate_definition() {
        let src = "func @f() {\nentry:\n  v: int = const 1\n  v: int = const 2\n  return v\n}\n";
        let e = parse_module(src).unwrap_err();
        assert!(e.message.contains("defined twice"));
    }

    #[test]
    fn rejects_phi_with_wrong_preds() {
        let src = r#"
            func @f(c: bool) {
            entry:
              branch c, bt, bm, prob 0.5
            bt:
              jump bm
            bm:
              p: bool = phi [bt: c]
              return
            }
        "#;
        let e = parse_module(src).unwrap_err();
        // The entry block is also a predecessor of bm, so the phi is
        // missing an input for it.
        assert!(e.message.contains("phi missing input"), "{e}");
    }

    #[test]
    fn parses_multiple_functions() {
        let src = "func @a() {\nentry:\n  return\n}\nfunc @b() {\nentry:\n  deopt\n}\n";
        let m = parse_module(src).unwrap();
        assert_eq!(m.graphs.len(), 2);
        assert_eq!(m.graphs[0].name, "a");
        assert_eq!(m.graphs[1].name, "b");
    }
}
