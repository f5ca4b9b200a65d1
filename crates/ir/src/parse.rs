//! Parsing of the textual IR format produced by [`crate::print`].
//!
//! The entry points are [`parse_module`] (class declarations followed by
//! functions) and [`parse_graph`] (a single function against an existing
//! [`ClassTable`]). The parser is line-oriented: one instruction or
//! terminator per line, `#` and `//` start comments.
//!
//! Every line, label, value name and operand stays a `&str` slice of the
//! input, and names resolve through [`FastMap`]s keyed by those slices.
//! A function allocates its line table, its two name maps and a few
//! scratch buffers reused from instruction to instruction; beyond those,
//! only what the graph itself stores (φ inputs, call arguments) and the
//! message of a [`ParseError`].

use crate::classes::ClassTable;
use crate::hash::FastMap;
use crate::ids::{BlockId, ClassId, FieldId, InstId};
use crate::inst::{BinOp, CmpOp, Inst, Terminator};
use crate::types::{ConstValue, Type};
use crate::Graph;
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

/// A non-empty source line: its 1-based number and its text without
/// comment or surrounding whitespace.
type Line<'a> = (usize, &'a str);

/// Parses a module: zero or more `class` declarations followed by one or
/// more `func` definitions.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the first offending line.
pub fn parse_module(text: &str) -> PResult<Module> {
    let lines = clean_lines(text);

    // Pass 1: register class names so classes may reference one another.
    let mut table = ClassTable::new();
    let classes = lines
        .iter()
        .take_while(|(_, line)| line.starts_with("class "))
        .count();
    for &(lineno, line) in &lines[..classes] {
        let name = class_name(line)
            .filter(|n| !n.is_empty())
            .ok_or_else(|| err(lineno, "malformed class declaration"))?;
        table.add_class(name);
    }
    // Pass 2: fields.
    for &(lineno, line) in &lines[..classes] {
        let body = line
            .split_once('{')
            .and_then(|(_, r)| r.rsplit_once('}'))
            .map(|(b, _)| b.trim())
            .ok_or_else(|| err(lineno, "class body must be enclosed in { }"))?;
        let name = class_name(line).ok_or_else(|| err(lineno, "malformed class declaration"))?;
        let class = table.class_by_name(name).expect("registered in pass 1");
        if body.is_empty() {
            continue;
        }
        for fdecl in body.split(',') {
            let (fname, fty) = fdecl
                .split_once(':')
                .ok_or_else(|| err(lineno, "field must be `name: type`"))?;
            let ty = parse_type(fty.trim(), &table).map_err(|m| err(lineno, &m))?;
            if ty.is_void() {
                let msg = format!("field `{}` cannot be void", fname.trim());
                return Err(err(lineno, &msg));
            }
            table.add_field(class, fname.trim(), ty);
        }
    }
    let table = Arc::new(table);

    let mut graphs = Vec::new();
    let mut idx = classes;
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

fn clean_lines(text: &str) -> Vec<Line<'_>> {
    text.lines()
        .enumerate()
        .map(|(i, l)| {
            let no_comment = l.split("//").next().unwrap_or("");
            let no_comment = no_comment.split('#').next().unwrap_or("");
            (i + 1, no_comment.trim())
        })
        .filter(|(_, l)| !l.is_empty())
        .collect()
}

/// The class name of a `class Name { ... }` line.
fn class_name(line: &str) -> Option<&str> {
    line.strip_prefix("class ")
        .and_then(|r| r.split('{').next())
        .map(str::trim)
}

#[cold]
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

/// Splits `s` at commas into exactly `N` trimmed parts, empty ones
/// included; `None` for any other count.
fn split_exact<const N: usize>(s: &str) -> Option<[&str; N]> {
    let mut parts = s.split(',').map(str::trim);
    let mut out = [""; N];
    for slot in &mut out {
        *slot = parts.next()?;
    }
    parts.next().is_none().then_some(out)
}

/// An instruction some of whose operands name values defined further
/// down: its operand names are `names[start..end]` of the function's
/// pending-name buffer, in `for_each_input_mut` order.
struct InstPatch {
    id: InstId,
    line: usize,
    start: usize,
    end: usize,
}

/// A terminator set before any value existed, and the name of its one
/// operand, if it has one.
struct TermPatch<'a> {
    block: BlockId,
    line: usize,
    operand: Option<&'a str>,
}

/// A block's label line and its statements (the last is the terminator).
struct BlockSrc<'a> {
    line: usize,
    label: &'a str,
    stmts: &'a [Line<'a>],
}

/// Scratch of the φ parser, reused across a function's φs: the position
/// of each predecessor of the current block (`u32::MAX` for none), the
/// input named for each position, and listed blocks that are no
/// predecessor.
struct PhiScratch<'a> {
    slot: Vec<u32>,
    inputs: Vec<Option<&'a str>>,
    strays: Vec<BlockId>,
}

fn parse_func<'a>(lines: &[Line<'a>], table: Arc<ClassTable>) -> PResult<(usize, Graph)> {
    let (hline, header) = lines[0];
    let rest = header
        .strip_prefix("func @")
        .ok_or_else(|| err(hline, "expected `func @name(...) {`"))?;
    let (name, rest) = rest
        .split_once('(')
        .ok_or_else(|| err(hline, "expected `(` after function name"))?;
    let (params_src, tail) = rest
        .rsplit_once(')')
        .ok_or_else(|| err(hline, "expected `)` in function header"))?;
    if tail.trim() != "{" {
        return Err(err(hline, "expected `{` at end of function header"));
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
            .ok_or_else(|| err(hline, "parameter must be `name: type`"))?;
        let ty = parse_type(pty.trim(), &table).map_err(|m| err(hline, &m))?;
        if ty.is_void() {
            let msg = format!("parameter `{}` cannot be void", pname.trim());
            return Err(err(hline, &msg));
        }
        param_names.push(pname.trim());
        param_types.push(ty);
    }

    // The body runs up to the closing `}`.
    let close = lines[1..]
        .iter()
        .position(|&(_, line)| line == "}")
        .ok_or_else(|| err(hline, "missing closing `}`"))?;
    let body = &lines[1..=close];

    // Group into blocks: a label line starts one, every other line
    // belongs to the latest label.
    let mut blocks_src: Vec<BlockSrc> = Vec::new();
    let mut start = 0;
    for (i, &(lineno, line)) in body.iter().enumerate() {
        let label = line
            .strip_suffix(':')
            .filter(|l| !l.is_empty() && l.chars().all(|c| c.is_alphanumeric() || c == '_'));
        if let Some(label) = label {
            if let Some(prev) = blocks_src.last_mut() {
                prev.stmts = &body[start..i];
            }
            blocks_src.push(BlockSrc {
                line: lineno,
                label,
                stmts: &[],
            });
            start = i + 1;
        } else if blocks_src.is_empty() {
            return Err(err(lineno, "statement before first block label"));
        }
    }
    match blocks_src.last_mut() {
        Some(last) => last.stmts = &body[start..],
        None => return Err(err(hline, "function has no blocks")),
    }

    let mut graph = Graph::new(name.trim(), &param_types, table.clone());
    let mut values: FastMap<&str, InstId> = FastMap::default();
    values.reserve(body.len() + param_names.len());
    for (&pname, &pval) in param_names.iter().zip(graph.param_values()) {
        values.insert(pname, pval);
    }
    let mut block_ids: FastMap<&str, BlockId> = FastMap::default();
    block_ids.reserve(blocks_src.len());
    for (i, bs) in blocks_src.iter().enumerate() {
        let id = if i == 0 {
            graph.entry()
        } else {
            graph.add_block()
        };
        if block_ids.insert(bs.label, id).is_some() {
            return Err(err(bs.line, "duplicate block label"));
        }
    }

    // First: terminators (so preds exist before φ creation). Operands are
    // patched afterwards.
    let mut term_patches: Vec<TermPatch> = Vec::with_capacity(blocks_src.len());
    for bs in &blocks_src {
        let block = block_ids[bs.label];
        let &(lineno, last) = bs
            .stmts
            .last()
            .ok_or_else(|| err(bs.line, "block has no terminator"))?;
        let (term, operand) = parse_terminator(last, lineno, &block_ids)?;
        graph.set_terminator(block, term);
        term_patches.push(TermPatch {
            block,
            line: lineno,
            operand,
        });
    }

    // Then: instructions (all but the last statement of each block).
    let mut names: Vec<&str> = Vec::new();
    let mut resolved: Vec<InstId> = Vec::new();
    let mut pending: Vec<&str> = Vec::new();
    let mut inst_patches: Vec<InstPatch> = Vec::new();
    let mut phis = PhiScratch {
        slot: vec![u32::MAX; graph.block_count()],
        inputs: Vec::new(),
        strays: Vec::new(),
    };
    for bs in &blocks_src {
        let block = block_ids[bs.label];
        for &(lineno, line) in &bs.stmts[..bs.stmts.len() - 1] {
            let (vname, ty, opsrc) = split_def(line, lineno, &table)?;
            names.clear();
            let mut inst = parse_inst(
                opsrc, lineno, &table, &block_ids, &graph, block, &mut names, &mut phis,
            )?;
            // Operands that only name earlier values — nearly all do — go
            // in resolved; forward references keep their placeholder and
            // wait for the patch below.
            resolved.clear();
            let known = names.iter().all(|n| match values.get(n) {
                Some(&v) => {
                    resolved.push(v);
                    true
                }
                None => false,
            });
            let id = if inst.is_phi() {
                // One name per predecessor, in predecessor order.
                let inputs = if known {
                    resolved.clone()
                } else {
                    vec![next_inst_id(&graph); names.len()]
                };
                graph.append_phi(block, inputs, ty)
            } else {
                if known {
                    let mut resolved = resolved.iter();
                    inst.for_each_input_mut(|slot| {
                        *slot = *resolved.next().expect("one name per operand");
                    });
                }
                graph.append_inst(block, inst, ty)
            };
            if values.insert(vname, id).is_some() {
                return Err(err(lineno, &format!("value `{vname}` defined twice")));
            }
            if !known {
                inst_patches.push(InstPatch {
                    id,
                    line: lineno,
                    start: pending.len(),
                    end: pending.len() + names.len(),
                });
                pending.extend_from_slice(&names);
            }
        }
    }

    // Patch the remaining operands now that every value name is known:
    // the forward references among the instructions, then the terminators
    // (set before any value existed). Terminators go newest first — their
    // placeholder uses of `InstId(0)` leave its use list from the end they
    // were added at.
    let lookup = |name: &str, line: usize| -> PResult<InstId> {
        values
            .get(name)
            .copied()
            .ok_or_else(|| err(line, &format!("unknown value `{name}`")))
    };
    for patch in &inst_patches {
        resolved.clear();
        for &name in &pending[patch.start..patch.end] {
            resolved.push(lookup(name, patch.line)?);
        }
        let mut resolved = resolved.iter();
        graph.rewrite_inputs(patch.id, |inst| {
            inst.for_each_input_mut(|slot| *slot = *resolved.next().expect("one name per operand"))
        });
    }
    let term_operands: Vec<Option<InstId>> = term_patches
        .iter()
        .map(|patch| {
            patch
                .operand
                .map(|name| lookup(name, patch.line))
                .transpose()
        })
        .collect::<PResult<_>>()?;
    for (patch, operand) in term_patches.iter().zip(term_operands).rev() {
        graph.patch_terminator_inputs(patch.block, |slot| {
            *slot = operand.expect("one name per operand");
        });
    }

    Ok((close + 2, graph))
}

/// Splits `name: type = body` and returns `(name, type, body)`.
fn split_def<'a>(
    line: &'a str,
    lineno: usize,
    table: &ClassTable,
) -> PResult<(&'a str, Type, &'a str)> {
    let (lhs, body) = line
        .split_once('=')
        .ok_or_else(|| err(lineno, "expected `name: type = ...`"))?;
    let (name, ty) = lhs
        .split_once(':')
        .ok_or_else(|| err(lineno, "definition must be `name: type = ...`"))?;
    let ty = parse_type(ty.trim(), table).map_err(|m| err(lineno, &m))?;
    Ok((name.trim(), ty, body.trim()))
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
/// ids and appends the operand names to `names` in `for_each_input_mut`
/// order.
#[allow(clippy::too_many_arguments)]
fn parse_inst<'a>(
    src: &'a str,
    lineno: usize,
    table: &ClassTable,
    block_ids: &FastMap<&str, BlockId>,
    graph: &Graph,
    block: BlockId,
    names: &mut Vec<&'a str>,
    phis: &mut PhiScratch<'a>,
) -> PResult<Inst> {
    let (op, rest) = match src.split_once(char::is_whitespace) {
        Some((o, r)) => (o, r.trim()),
        None => (src, ""),
    };
    let d = next_inst_id(graph); // dummy, patched later

    // `n` comma-separated operands, empty parts skipped.
    let args = |n: usize, names: &mut Vec<&'a str>| -> PResult<()> {
        names.extend(rest.split(',').map(str::trim).filter(|p| !p.is_empty()));
        if names.len() != n {
            return Err(err(lineno, &format!("`{op}` expects {n} operands")));
        }
        Ok(())
    };
    let binop = BinOp::ALL.iter().find(|b| b.mnemonic() == op).copied();
    if let Some(bop) = binop {
        args(2, names)?;
        return Ok(Inst::Binary {
            op: bop,
            lhs: d,
            rhs: d,
        });
    }
    let inst = match op {
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
            Inst::Const(c)
        }
        "param" => {
            let idx: u32 = rest.parse().map_err(|_| err(lineno, "bad param index"))?;
            Inst::Param(idx)
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
            let [lhs, rhs] =
                split_exact(operands).ok_or_else(|| err(lineno, "`cmp` expects 2 operands"))?;
            names.extend([lhs, rhs]);
            Inst::Compare {
                op: cop,
                lhs: d,
                rhs: d,
            }
        }
        "not" => {
            args(1, names)?;
            Inst::Not(d)
        }
        "neg" => {
            args(1, names)?;
            Inst::Neg(d)
        }
        "phi" => {
            let body = rest
                .strip_prefix('[')
                .and_then(|r| r.strip_suffix(']'))
                .ok_or_else(|| err(lineno, "expected `phi [pred: value, ...]`"))?;
            parse_phi_inputs(body, lineno, block_ids, graph.preds(block), names, phis)?;
            Inst::Phi { inputs: Vec::new() }
        }
        "new" => Inst::New {
            class: parse_class(rest, lineno, table)?,
        },
        "load" => {
            let [object, field] = split_exact(rest)
                .ok_or_else(|| err(lineno, "`load` expects `object, Class.field`"))?;
            let field = parse_field(field, lineno, table)?;
            names.push(object);
            Inst::LoadField { object: d, field }
        }
        "store" => {
            let [object, field, value] = split_exact(rest)
                .ok_or_else(|| err(lineno, "`store` expects `object, Class.field, value`"))?;
            let field = parse_field(field, lineno, table)?;
            names.extend([object, value]);
            Inst::StoreField {
                object: d,
                field,
                value: d,
            }
        }
        "instanceof" => {
            let [object, class] = split_exact(rest)
                .ok_or_else(|| err(lineno, "`instanceof` expects `object, Class`"))?;
            let class = parse_class(class, lineno, table)?;
            names.push(object);
            Inst::InstanceOf { object: d, class }
        }
        "newarray" => {
            args(1, names)?;
            Inst::NewArray { length: d }
        }
        "aload" => {
            args(2, names)?;
            Inst::ArrayLoad { array: d, index: d }
        }
        "astore" => {
            args(3, names)?;
            Inst::ArrayStore {
                array: d,
                index: d,
                value: d,
            }
        }
        "alength" => {
            args(1, names)?;
            Inst::ArrayLength(d)
        }
        "invoke" => {
            names.extend(rest.split(',').map(str::trim).filter(|p| !p.is_empty()));
            Inst::Invoke {
                args: vec![d; names.len()],
            }
        }
        other => return Err(err(lineno, &format!("unknown instruction `{other}`"))),
    };
    Ok(inst)
}

/// Parses the `pred: value, ...` list of a φ in a block with
/// predecessors `preds` and appends the value names to `names` in
/// predecessor order.
fn parse_phi_inputs<'a>(
    body: &'a str,
    lineno: usize,
    block_ids: &FastMap<&str, BlockId>,
    preds: &[BlockId],
    names: &mut Vec<&'a str>,
    phis: &mut PhiScratch<'a>,
) -> PResult<()> {
    for (i, p) in preds.iter().enumerate() {
        phis.slot[p.index()] = i as u32;
    }
    phis.inputs.clear();
    phis.inputs.resize(preds.len(), None);
    phis.strays.clear();
    for pair in body.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (pb, pv) = pair
            .split_once(':')
            .ok_or_else(|| err(lineno, "phi input must be `pred: value`"))?;
        let pred = *block_ids
            .get(pb.trim())
            .ok_or_else(|| err(lineno, &format!("unknown block `{}`", pb.trim())))?;
        let listed_twice = match phis.slot[pred.index()] {
            u32::MAX if phis.strays.contains(&pred) => true,
            u32::MAX => {
                phis.strays.push(pred);
                false
            }
            i => phis.inputs[i as usize].replace(pv.trim()).is_some(),
        };
        if listed_twice {
            return Err(err(lineno, "duplicate phi predecessor"));
        }
    }
    for (&p, input) in preds.iter().zip(&phis.inputs) {
        let v =
            input.ok_or_else(|| err(lineno, &format!("phi missing input for predecessor {p}")))?;
        names.push(v);
        phis.slot[p.index()] = u32::MAX;
    }
    if !phis.strays.is_empty() {
        return Err(err(lineno, "phi lists a non-predecessor block"));
    }
    Ok(())
}

/// Parses a terminator; returns it with a dummy operand id plus the
/// name of its operand, if it has one.
fn parse_terminator<'a>(
    src: &'a str,
    lineno: usize,
    block_ids: &FastMap<&str, BlockId>,
) -> PResult<(Terminator, Option<&'a str>)> {
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
            None,
        )),
        "branch" => {
            // branch cond, then, else, prob P
            let [cond, then_src, else_src, prob_src] = split_exact(rest)
                .ok_or_else(|| err(lineno, "`branch` expects `cond, then, else, prob P`"))?;
            let prob_src = prob_src
                .strip_prefix("prob")
                .map(str::trim)
                .ok_or_else(|| err(lineno, "expected `prob P`"))?;
            let prob_then: f64 = prob_src
                .parse()
                .map_err(|_| err(lineno, &format!("bad probability `{prob_src}`")))?;
            let (then_bb, else_bb) = (block(then_src)?, block(else_src)?);
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
                Some(cond),
            ))
        }
        "return" if rest.is_empty() => Ok((Terminator::Return { value: None }, None)),
        "return" => Ok((
            Terminator::Return {
                value: Some(InstId(0)),
            },
            Some(rest),
        )),
        "deopt" => Ok((Terminator::Deopt, None)),
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
