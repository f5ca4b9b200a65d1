//! Parsing of the textual IR format produced by [`crate::print`].
//!
//! The entry points are [`parse_module`] (class declarations followed by
//! functions) and [`parse_graph`] (a single function against an existing
//! [`ClassTable`]). The parser is line-oriented: one instruction or
//! terminator per line, `#` and `//` start comments.
//!
//! The lexical rules are `str`'s (`str::lines`, `str::trim`,
//! `char::is_whitespace`, `char::is_alphanumeric`), applied to the bytes:
//! only a byte outside ASCII where a rule looks goes through the `char`
//! rule. Every line, label, value name and operand stays a `&str` slice
//! of the input, and names resolve through [`FastMap`]s keyed by those
//! slices. A function allocates its line table, its two name maps and a
//! few scratch buffers reused from instruction to instruction; beyond
//! those, only what the graph itself stores (φ inputs, call arguments)
//! and the message of a [`ParseError`].

use crate::classes::ClassTable;
use crate::hash::FastMap;
use crate::ids::{BlockId, ClassId, FieldId, InstId};
use crate::inst::{BinOp, CmpOp, Inst, Terminator};
use crate::types::{ConstValue, Type};
use crate::Graph;
use std::error::Error;
use std::fmt;
use std::ops::Range;
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
    let classes = lines.iter().take_while(|l| l.1.starts_with("class "));
    let classes = classes.count();
    for &(lineno, line) in &lines[..classes] {
        let name = class_name(line).filter(|n| !n.is_empty());
        table.add_class(name.or_err(lineno, "malformed class declaration")?);
    }
    // Pass 2: fields.
    for &(lineno, line) in &lines[..classes] {
        let body = split_at(line, b'{')
            .and_then(|(_, r)| r.rsplit_once('}'))
            .map(|(b, _)| trim(b))
            .or_err(lineno, "class body must be enclosed in { }")?;
        let name = class_name(line).or_err(lineno, "malformed class declaration")?;
        let class = table.class_by_name(name).expect("registered in pass 1");
        if body.is_empty() {
            continue;
        }
        for fdecl in body.split(',') {
            let (fname, fty) =
                split_at(fdecl, b':').or_err(lineno, "field must be `name: type`")?;
            let ty = parse_type(trim(fty), &table).map_err(|m| err(lineno, m))?;
            if ty.is_void() {
                let msg = format!("field `{}` cannot be void", trim(fname));
                return Err(err(lineno, msg));
            }
            table.add_field(class, trim(fname), ty);
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
        let line = lines.last().map_or(1, |l| l.0);
        return Err(err(line, "module contains no functions"));
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

/// The non-empty lines of `text`, numbered as `str::lines` numbers them,
/// each cut at its first `//` or `#` and trimmed (a `\r` before the `\n`
/// is whitespace to `trim`).
fn clean_lines(text: &str) -> Vec<Line<'_>> {
    let bytes = text.as_bytes();
    let mut lines = Vec::with_capacity(bytes.len() / 16);
    let mut push = |lineno, code: Range<usize>| {
        let code = trim(&text[code]);
        if !code.is_empty() {
            lines.push((lineno, code));
        }
    };
    // Only `\n`, `#` and `/` stop the scan: one table lookup a byte.
    const STOP: [bool; 256] = {
        let mut stop = [false; 256];
        stop[b'\n' as usize] = true;
        stop[b'#' as usize] = true;
        stop[b'/' as usize] = true;
        stop
    };
    let (mut start, mut cut, mut lineno) = (0, None, 1);
    for (at, &b) in bytes.iter().enumerate() {
        if !STOP[usize::from(b)] {
            continue;
        }
        if b == b'\n' {
            push(lineno, start..cut.unwrap_or(at));
            (start, cut, lineno) = (at + 1, None, lineno + 1);
        } else if (b == b'#' || b == b'/' && bytes.get(at + 1) == Some(&b'/')) && cut.is_none() {
            cut = Some(at);
        }
    }
    push(lineno, start..cut.unwrap_or(bytes.len()));
    lines
}

/// Whether `b` is an ASCII character `char::is_whitespace` accepts
/// (`u8::is_ascii_whitespace` leaves out the vertical tab).
#[inline]
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// `str::trim`: ASCII whitespace goes byte by byte, and an end left on a
/// byte outside ASCII goes through the `char` rule.
#[inline]
fn trim(s: &str) -> &str {
    let bytes = s.as_bytes();
    let solid = |b: Option<&u8>| b.is_some_and(|&b| b > b' ' && b.is_ascii());
    if solid(bytes.first()) && solid(bytes.last()) {
        return s;
    }
    let start = bytes
        .iter()
        .position(|&b| !is_space(b))
        .unwrap_or(bytes.len());
    let end = bytes
        .iter()
        .rposition(|&b| !is_space(b))
        .map_or(start, |at| at + 1);
    let s = &s[start..end];
    match s.as_bytes() {
        [first, .., last] | [first @ last] if !(first.is_ascii() && last.is_ascii()) => s.trim(),
        _ => s,
    }
}

/// `s` split around its first `char::is_whitespace`: a byte scan that
/// decodes characters only from the first byte outside ASCII on.
#[inline]
fn split_ws(s: &str) -> Option<(&str, &str)> {
    let at = s.bytes().position(|b| is_space(b) || !b.is_ascii())?;
    if is_space(s.as_bytes()[at]) {
        return Some((&s[..at], &s[at + 1..]));
    }
    let (i, c) = s[at..].char_indices().find(|&(_, c)| c.is_whitespace())?;
    Some((&s[..at + i], &s[at + i + c.len_utf8()..]))
}

/// `s` split around its first `sep`, an ASCII byte.
#[inline]
fn split_at(s: &str, sep: u8) -> Option<(&str, &str)> {
    let at = s.bytes().position(|b| b == sep)?;
    Some((&s[..at], &s[at + 1..]))
}

/// `s` split at commas, each part trimmed.
#[inline]
fn commas(s: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(s);
    std::iter::from_fn(move || {
        let (part, tail) = split_at(rest?, b',').map_or((rest?, None), |(p, t)| (p, Some(t)));
        rest = tail;
        Some(trim(part))
    })
}

/// The class name of a `class Name { ... }` line.
fn class_name(line: &str) -> Option<&str> {
    line.strip_prefix("class ")
        .map(|r| split_at(r, b'{').map_or(r, |(name, _)| name))
        .map(trim)
}

#[cold]
fn err(line: usize, message: impl Into<String>) -> ParseError {
    let message = message.into();
    ParseError { line, message }
}

/// `ok_or_else(|| err(line, message))`.
trait OrErr<T> {
    fn or_err(self, line: usize, message: &str) -> PResult<T>;
}

impl<T> OrErr<T> for Option<T> {
    fn or_err(self, line: usize, message: &str) -> PResult<T> {
        self.ok_or_else(|| err(line, message))
    }
}

fn parse_type(s: &str, table: &ClassTable) -> Result<Type, String> {
    match s {
        "int" => Ok(Type::Int),
        "bool" => Ok(Type::Bool),
        "arr" => Ok(Type::Arr),
        "void" => Ok(Type::Void),
        _ => match s.strip_prefix("ref ") {
            Some(cname) => table
                .class_by_name(trim(cname))
                .map(Type::Ref)
                .ok_or_else(|| format!("unknown class `{}`", trim(cname))),
            None => Err(format!("unknown type `{s}`")),
        },
    }
}

/// Splits `s` at commas into exactly `N` trimmed parts, empty ones
/// included; `None` for any other count.
fn split_exact<const N: usize>(s: &str) -> Option<[&str; N]> {
    let mut parts = commas(s);
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
    names: Range<usize>,
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
    let rest = header.strip_prefix("func @");
    let rest = rest.or_err(hline, "expected `func @name(...) {`")?;
    let (name, rest) = split_at(rest, b'(').or_err(hline, "expected `(` after function name")?;
    let params = rest.rsplit_once(')');
    let (params_src, tail) = params.or_err(hline, "expected `)` in function header")?;
    if trim(tail) != "{" {
        return Err(err(hline, "expected `{` at end of function header"));
    }

    let (mut param_names, mut param_types) = (Vec::new(), Vec::new());
    for p in commas(params_src).filter(|p| !p.is_empty()) {
        let (pname, pty) = split_at(p, b':').or_err(hline, "parameter must be `name: type`")?;
        let ty = parse_type(trim(pty), &table).map_err(|m| err(hline, m))?;
        if ty.is_void() {
            let msg = format!("parameter `{}` cannot be void", trim(pname));
            return Err(err(hline, msg));
        }
        param_names.push(trim(pname));
        param_types.push(ty);
    }

    // The body runs up to the closing `}`.
    let close = lines[1..].iter().position(|&(_, line)| line == "}");
    let close = close.or_err(hline, "missing closing `}`")?;
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
            let (line, stmts) = (lineno, &[][..]);
            blocks_src.push(BlockSrc { line, label, stmts });
            start = i + 1;
        } else if blocks_src.is_empty() {
            return Err(err(lineno, "statement before first block label"));
        }
    }
    let last = blocks_src
        .last_mut()
        .or_err(hline, "function has no blocks")?;
    last.stmts = &body[start..];

    let mut graph = Graph::new(trim(name), &param_types, table.clone());
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
        let &(line, last) = bs.stmts.last().or_err(bs.line, "block has no terminator")?;
        let (term, operand) = parse_terminator(last, line, &block_ids)?;
        let block = block_ids[bs.label];
        graph.set_terminator(block, term);
        term_patches.push(TermPatch {
            block,
            line,
            operand,
        });
    }

    // Then: instructions (all but the last statement of each block).
    let (mut names, mut resolved, mut pending) = (Vec::new(), Vec::new(), Vec::new());
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
            let known = names
                .iter()
                .all(|n| values.get(n).map(|&v| resolved.push(v)).is_some());
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
                    inst.for_each_input_mut(|slot| *slot = *resolved.next().expect("one per slot"));
                }
                graph.append_inst(block, inst, ty)
            };
            if values.insert(vname, id).is_some() {
                return Err(err(lineno, format!("value `{vname}` defined twice")));
            }
            if !known {
                let (at, line) = (pending.len(), lineno);
                pending.extend_from_slice(&names);
                inst_patches.push(InstPatch {
                    id,
                    line,
                    names: at..pending.len(),
                });
            }
        }
    }

    // Patch the remaining operands now that every value name is known:
    // the forward references among the instructions, then the terminators
    // (set before any value existed). Terminators go newest first — their
    // placeholder uses of `InstId(0)` leave its use list from the end they
    // were added at.
    let lookup = |name: &str, line: usize| -> PResult<InstId> {
        (values.get(name).copied()).ok_or_else(|| err(line, format!("unknown value `{name}`")))
    };
    for patch in &inst_patches {
        resolved.clear();
        for &name in &pending[patch.names.clone()] {
            resolved.push(lookup(name, patch.line)?);
        }
        let mut resolved = resolved.iter();
        graph.rewrite_inputs(patch.id, |inst| {
            inst.for_each_input_mut(|slot| *slot = *resolved.next().expect("one per slot"))
        });
    }
    let term_operands = term_patches
        .iter()
        .map(|patch| (patch.operand.map(|name| lookup(name, patch.line))).transpose());
    let term_operands: Vec<Option<InstId>> = term_operands.collect::<PResult<_>>()?;
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
    t: &ClassTable,
) -> PResult<(&'a str, Type, &'a str)> {
    let (lhs, body) = split_at(line, b'=').or_err(lineno, "expected `name: type = ...`")?;
    let (name, ty) = split_at(lhs, b':').or_err(lineno, "definition must be `name: type = ...`")?;
    let ty = parse_type(trim(ty), t).map_err(|m| err(lineno, m))?;
    Ok((trim(name), ty, trim(body)))
}

/// Parses a field reference `Class.field`.
fn parse_field(s: &str, lineno: usize, table: &ClassTable) -> PResult<FieldId> {
    let (cname, fname) = split_at(s, b'.').or_err(lineno, "expected `Class.field`")?;
    let class = parse_class(cname, lineno, table)?;
    (table.field_by_name(class, trim(fname)))
        .ok_or_else(|| err(lineno, format!("unknown field `{s}`")))
}

fn parse_class(s: &str, lineno: usize, table: &ClassTable) -> PResult<ClassId> {
    (table.class_by_name(trim(s)))
        .ok_or_else(|| err(lineno, format!("unknown class `{}`", trim(s))))
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
    let (op, rest) = split_ws(src).map_or((src, ""), |(o, r)| (o, trim(r)));
    let d = next_inst_id(graph); // dummy, patched later

    // `n` comma-separated operands, empty parts skipped; the dummy id.
    let args = |n: usize, names: &mut Vec<&'a str>| -> PResult<InstId> {
        names.extend(commas(rest).filter(|p| !p.is_empty()));
        if names.len() != n {
            return Err(err(lineno, format!("`{op}` expects {n} operands")));
        }
        Ok(d)
    };
    let inst = match op {
        "const" => Inst::Const(match rest {
            "true" => ConstValue::Bool(true),
            "false" => ConstValue::Bool(false),
            "nullarr" => ConstValue::NullArr,
            _ => match rest.strip_prefix("null ") {
                Some(cname) => ConstValue::Null(parse_class(cname, lineno, table)?),
                None => ConstValue::Int(
                    (rest.parse()).map_err(|_| err(lineno, format!("bad constant `{rest}`")))?,
                ),
            },
        }),
        "param" => Inst::Param(rest.parse().map_err(|_| err(lineno, "bad param index"))?),
        "cmp" => {
            let (cop, operands) = split_ws(rest).or_err(lineno, "expected `cmp op a, b`")?;
            let op = (CmpOp::from_mnemonic(cop))
                .ok_or_else(|| err(lineno, format!("unknown comparison `{cop}`")))?;
            let [lhs, rhs] = split_exact(operands).or_err(lineno, "`cmp` expects 2 operands")?;
            names.extend([lhs, rhs]);
            Inst::Compare { op, lhs: d, rhs: d }
        }
        "not" => Inst::Not(args(1, names)?),
        "neg" => Inst::Neg(args(1, names)?),
        "phi" => {
            let body = rest.strip_prefix('[').and_then(|r| r.strip_suffix(']'));
            let body = body.or_err(lineno, "expected `phi [pred: value, ...]`")?;
            parse_phi_inputs(body, lineno, block_ids, graph.preds(block), names, phis)?;
            Inst::Phi { inputs: Vec::new() }
        }
        "new" => Inst::New {
            class: parse_class(rest, lineno, table)?,
        },
        "load" => {
            let [object, field] =
                split_exact(rest).or_err(lineno, "`load` expects `object, Class.field`")?;
            let field = parse_field(field, lineno, table)?;
            names.push(object);
            Inst::LoadField { object: d, field }
        }
        "store" => {
            let [object, field, value] =
                split_exact(rest).or_err(lineno, "`store` expects `object, Class.field, value`")?;
            let field = parse_field(field, lineno, table)?;
            names.extend([object, value]);
            Inst::StoreField {
                object: d,
                field,
                value: d,
            }
        }
        "instanceof" => {
            let [object, class] =
                split_exact(rest).or_err(lineno, "`instanceof` expects `object, Class`")?;
            let class = parse_class(class, lineno, table)?;
            names.push(object);
            Inst::InstanceOf { object: d, class }
        }
        "newarray" => args(1, names).map(|length| Inst::NewArray { length })?,
        "aload" => args(2, names).map(|array| Inst::ArrayLoad { array, index: d })?,
        "astore" => Inst::ArrayStore {
            array: args(3, names)?,
            index: d,
            value: d,
        },
        "alength" => Inst::ArrayLength(args(1, names)?),
        "invoke" => {
            names.extend(commas(rest).filter(|p| !p.is_empty()));
            Inst::Invoke {
                args: vec![d; names.len()],
            }
        }
        other => {
            let op = (BinOp::from_mnemonic(other))
                .ok_or_else(|| err(lineno, format!("unknown instruction `{other}`")))?;
            args(2, names).map(|lhs| Inst::Binary { op, lhs, rhs: d })?
        }
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
    for pair in commas(body).filter(|p| !p.is_empty()) {
        let (pb, pv) = split_at(pair, b':').or_err(lineno, "phi input must be `pred: value`")?;
        let pred = *(block_ids.get(trim(pb)))
            .ok_or_else(|| err(lineno, format!("unknown block `{}`", trim(pb))))?;
        let listed_twice = match phis.slot[pred.index()] {
            u32::MAX if phis.strays.contains(&pred) => true,
            u32::MAX => {
                phis.strays.push(pred);
                false
            }
            i => phis.inputs[i as usize].replace(trim(pv)).is_some(),
        };
        if listed_twice {
            return Err(err(lineno, "duplicate phi predecessor"));
        }
    }
    for (&p, input) in preds.iter().zip(&phis.inputs) {
        let missing = || err(lineno, format!("phi missing input for predecessor {p}"));
        names.push(input.ok_or_else(missing)?);
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
    let (op, rest) = split_ws(src).map_or((src, ""), |(o, r)| (o, trim(r)));
    let block = |name: &str| -> PResult<BlockId> {
        (block_ids.get(trim(name)).copied())
            .ok_or_else(|| err(lineno, format!("unknown block `{}`", trim(name))))
    };
    match op {
        "jump" => block(rest).map(|target| (Terminator::Jump { target }, None)),
        "branch" => {
            let [cond, then_src, else_src, prob_src] =
                split_exact(rest).or_err(lineno, "`branch` expects `cond, then, else, prob P`")?;
            let prob_src = prob_src.strip_prefix("prob").map(trim);
            let prob_src = prob_src.or_err(lineno, "expected `prob P`")?;
            let prob_then = (prob_src.parse())
                .map_err(|_| err(lineno, format!("bad probability `{prob_src}`")))?;
            let (then_bb, else_bb) = (block(then_src)?, block(else_src)?);
            if then_bb == else_bb {
                return Err(err(lineno, "`branch` targets must be distinct"));
            }
            let (name, cond) = (cond, InstId(0));
            Ok((
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                    prob_then,
                },
                Some(name),
            ))
        }
        "return" if rest.is_empty() => Ok((Terminator::Return { value: None }, None)),
        "return" => {
            let value = Some(InstId(0));
            Ok((Terminator::Return { value }, Some(rest)))
        }
        "deopt" => Ok((Terminator::Deopt, None)),
        other => Err(err(lineno, format!("unknown terminator `{other}`"))),
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
    fn lexical_helpers_follow_the_str_rules() {
        let samples = [
            "",
            " ",
            "a",
            " a b ",
            "\u{b}x\u{b}",
            "\u{a0}x\u{2003}",
            "x\u{85}",
            "\u{3000}",
            "\u{200b}x",
            "é\t",
            "\tλ y",
            "a\u{a0}b c",
            "\r\n",
            "_b3é",
            "b\u{301}",
            "٣",
            "€",
        ];
        for s in samples {
            assert_eq!(trim(s), s.trim(), "{s:?}");
            assert_eq!(split_ws(s), s.split_once(char::is_whitespace), "{s:?}");
        }
        for b in 0..0x80u8 {
            assert_eq!(is_space(b), char::from(b).is_whitespace(), "{b:#x}");
        }
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
