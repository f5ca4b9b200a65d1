//! Panic-freedom property for the textual IR parser: hand-written seed
//! modules mutated along the grammar — a type token swapped, a block
//! label swapped, a constant or probability swapped for an extreme
//! value, a line deleted or duplicated — must make [`parse_module`]
//! return (`Ok` or `Err`) without panicking, and [`verify`] must return
//! without panicking on every graph that parses.
//!
//! A panic is shrunk before it is reported: first the mutation list (one
//! mutation dropped at a time), then the mutated text (one line dropped
//! at a time), so the failure message carries a minimal input.

use dbds_ir::{parse_module, verify};
use proptest::prelude::*;
use std::panic;

/// Seeds covering every statement form: classes with fields, every type,
/// φs, loops, field and array accesses, calls, `deopt`.
const SEEDS: &[&str] = &[
    "func @foo(x: int) {
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
",
    "class A { f: int, next: ref A }
class B { a: ref A, flag: bool }
func @fields(o: ref A, b: ref B, v: int) {
entry:
  n: ref A = new A
  s: void = store n, A.f, v
  t: void = store n, A.next, o
  l: int = load n, A.f
  i: bool = instanceof o, A
  branch i, yes, no, prob 0.75
yes:
  q: ref A = load o, A.next
  jump done
no:
  nul: ref A = const null A
  jump done
done:
  r: ref A = phi [yes: q, no: nul]
  u: void = store b, B.a, r
  return l
}
",
    "func @sum(a: arr, n: int) {
entry:
  zero: int = const 0
  one: int = const 1
  jump head
head:
  i: int = phi [entry: zero, body: i2]
  acc: int = phi [entry: zero, body: acc2]
  len: int = alength a
  c: bool = cmp lt i, len
  branch c, body, exit, prob 0.9
body:
  e: int = aload a, i
  acc2: int = add acc, e
  i2: int = add i, one
  jump head
exit:
  big: int = const 9223372036854775807
  d: bool = cmp eq acc, big
  branch d, bail, out, prob 0.001
bail:
  deopt
out:
  fresh: arr = newarray n
  k: int = const 3
  w: void = astore fresh, zero, k
  call: int = invoke acc, n
  neg1: int = neg call
  return neg1
}
func @flag(p: bool) {
entry:
  np: bool = not p
  return np
}
",
];

/// The type tokens a type swap draws from.
const TYPES: &[&str] = &["int", "bool", "arr", "void", "ref A"];

/// The extreme values a constant or probability swap draws from.
const EXTREMES: &[&str] = &[
    "0",
    "-1",
    "1",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "2147483648",
    "1e308",
    "-0.5",
    "1.5",
    "NaN",
    "inf",
];

/// Token spans `(start, end)` in `text` that a mutation of `kind` may
/// replace.
fn spans(text: &str, kind: u8) -> Vec<(usize, usize)> {
    match kind {
        // Type tokens: `ref Name` or a bare type word after `: `.
        0 => text
            .match_indices(": ")
            .filter_map(|(i, _)| {
                let start = i + 2;
                let rest = &text[start..];
                let word = |s: &str| s.find(|c: char| !c.is_alphanumeric()).unwrap_or(s.len());
                if let Some(name) = rest.strip_prefix("ref ") {
                    return Some((start, start + 4 + word(name)));
                }
                let len = word(rest);
                ["int", "bool", "arr", "void"]
                    .contains(&&rest[..len])
                    .then_some((start, start + len))
            })
            .collect(),
        // Block labels: every identifier token that names a block.
        1 => {
            let labels = labels(text);
            identifiers(text)
                .into_iter()
                .filter(|&(s, e)| labels.contains(&&text[s..e]))
                .collect()
        }
        // Constants and probabilities: the token after `const ` / `prob `.
        _ => ["const ", "prob "]
            .iter()
            .flat_map(|key| {
                text.match_indices(key).map(move |(i, _)| {
                    let start = i + key.len();
                    let len = text[start..].find(char::is_whitespace).unwrap_or(0);
                    (start, start + len)
                })
            })
            .filter(|&(s, e)| s < e)
            .collect(),
    }
}

/// The block labels declared in `text` (lines `name:`).
fn labels(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|l| l.trim().strip_suffix(':'))
        .filter(|l| !l.is_empty() && l.chars().all(|c| c.is_alphanumeric() || c == '_'))
        .collect()
}

/// Spans of the maximal `[A-Za-z0-9_]` runs of `text`.
fn identifiers(text: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        let ident = c.is_alphanumeric() || c == '_';
        match (start, ident) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                out.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    out
}

/// One encoded mutation: `kind` picks the grammar element (0 type, 1
/// label, 2 constant, 3 delete a line, 4 duplicate a line); `at` and
/// `with` pick the site and the replacement modulo what `text` offers, so
/// every mutation applies to any text (a no-op when there is no site).
type Mutation = (u8, usize, usize);

fn apply(text: &str, &(kind, at, with): &Mutation) -> String {
    if kind >= 3 {
        let mut lines: Vec<&str> = text.lines().collect();
        if lines.is_empty() {
            return text.to_string();
        }
        let i = at % lines.len();
        if kind == 3 {
            lines.remove(i);
        } else {
            lines.insert(i, lines[i]);
        }
        return lines.join("\n");
    }
    let sites = spans(text, kind);
    if sites.is_empty() {
        return text.to_string();
    }
    let (s, e) = sites[at % sites.len()];
    let replacement = match kind {
        0 => TYPES[with % TYPES.len()].to_string(),
        1 => {
            let labels = labels(text);
            labels[with % labels.len()].to_string()
        }
        _ => EXTREMES[with % EXTREMES.len()].to_string(),
    };
    format!("{}{}{}", &text[..s], replacement, &text[e..])
}

fn mutate(seed: &str, mutations: &[Mutation]) -> String {
    mutations.iter().fold(seed.to_string(), |t, m| apply(&t, m))
}

/// Parses `text` and verifies what parses; `Err` carries a panic message.
fn run(text: &str) -> Result<(), String> {
    panic::catch_unwind(|| {
        if let Ok(m) = parse_module(text) {
            for g in &m.graphs {
                let _ = verify(g);
            }
        }
    })
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

/// Drops mutations, then lines, while the input still panics; returns the
/// smallest panicking text found and its panic message.
fn shrink(seed: &str, mutations: Vec<Mutation>) -> (String, String) {
    let mutations = drop_while_failing(mutations, |m| run(&mutate(seed, m)).is_err());
    let lines = mutate(seed, &mutations).lines().map(String::from).collect();
    let text = drop_while_failing(lines, |l| run(&l.join("\n")).is_err()).join("\n");
    let message = run(&text).err().unwrap_or_default();
    (text, message)
}

/// Greedily removes one item at a time from `items` while `fails` still
/// holds without it.
fn drop_while_failing<T: Clone>(mut items: Vec<T>, fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    let mut i = 0;
    while i < items.len() {
        let mut fewer = items.clone();
        fewer.remove(i);
        if fails(&fewer) {
            items = fewer;
        } else {
            i += 1;
        }
    }
    items
}

#[test]
fn every_seed_parses_and_verifies() {
    for seed in SEEDS {
        let m = parse_module(seed).unwrap_or_else(|e| panic!("{e}\n{seed}"));
        for g in &m.graphs {
            verify(g).unwrap_or_else(|e| panic!("{}\n{seed}", e.summary()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_modules_never_panic_the_parser_or_verifier(
        seed in 0usize..SEEDS.len(),
        mutations in collection::vec((0u8..5, 0usize..1 << 16, 0usize..1 << 16), 1..5),
    ) {
        let text = mutate(SEEDS[seed], &mutations);
        // Expected panics while searching and shrinking print nothing.
        let hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let outcome = run(&text).map_err(|_| shrink(SEEDS[seed], mutations.clone()));
        panic::set_hook(hook);
        if let Err((shrunk, message)) = outcome {
            panic!("panicked: {message}\n--- shrunk input ---\n{shrunk}\n--- mutated input ---\n{text}");
        }
    }
}
