//! The IR text path, pinned byte for byte: every input's parse outcome
//! and every printed graph folds into one FNV-1a digest, recorded from
//! the line-splitting parser and `fmt::Write` printer this crate had
//! before they became single passes over the bytes. A rewrite of the
//! parser or the printer must reproduce both digests exactly; a
//! mismatch is a behaviour change, not a stale pin.
//!
//! A parse that succeeds contributes the printed class table, each
//! printed graph and every value's use list in arena order (so the
//! digest sees each `InstId` the parser allocated and the order its uses
//! were added in); a parse that fails contributes `(line, message)`.
//!
//! The inputs are the printed pristine built-in workloads of all four
//! suites, seeded Micro-profile units printed the way a compile request
//! carries them, a few Micro units compiled at Dbds (artifact-shaped
//! text), and seeded mutations of hand-written and generated modules:
//! the grammar mutations of `crates/ir/tests/parse_props.rs` plus
//! `\r\n` line ends, tabs and Unicode whitespace, non-ASCII letters in
//! labels and names, and comment markers at arbitrary positions. A
//! small module also gets `//`, `#` and a few whitespace characters
//! inserted at every one of its character positions.
//!
//! The `#[ignore]`d twin runs a larger corpus; run it in release with
//! `cargo test --release --test parse_identity -- --ignored`.

use dbds::core::{compile, DbdsConfig, OptLevel};
use dbds::costmodel::CostModel;
use dbds::ir::{
    parse_graph, parse_module, print_class_table, print_graph, Fnv64, Graph, InstId, Use,
};
use dbds::workloads::{generate_graph, Suite};

/// Hand-written modules with named values and labels, classes with
/// fields, every type and every statement form.
const SEEDS: &[&str] = &[
    "// Figure 1a of the paper.
func @foo(x: int) {
entry:
  zero: int = const 0
  c: bool = cmp gt x, zero   # the condition
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
  m: int = mul neg1, k
  q: int = div m, k
  r: int = rem q, k
  s1: int = sub r, one
  a1: int = and s1, one
  o1: int = or a1, one
  x1: int = xor o1, one
  l1: int = shl x1, one
  r1: int = shr l1, one
  z: int = invoke
  return r1
}
func @flag(p: bool) {
entry:
  np: bool = not p
  t: bool = const true
  f: bool = const false
  na: arr = const nullarr
  c1: bool = cmp ne np, t
  c2: bool = cmp le zero, zero
  zero: int = const 0
  return c1
}
",
];

/// The type tokens a type swap draws from.
const TYPES: &[&str] = &["int", "bool", "arr", "void", "ref A", "ref B", "float"];

/// The extreme values a constant or probability swap draws from.
const EXTREMES: &[&str] = &[
    "0",
    "-1",
    "+1",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "2147483648",
    "1e308",
    "-0.5",
    "1.5",
    "NaN",
    "inf",
    "0x10",
    " 7",
    "1_0",
    "٣",
    "",
];

/// What a whitespace mutation puts in or swaps a space for: ASCII and
/// Unicode whitespace (`\u{b}` is whitespace to `char` but not to
/// `u8::is_ascii_whitespace`), a bare carriage return, and two
/// characters that are not whitespace at all.
const SPACES: &[&str] = &[
    "\t", "\u{a0}", "\u{2003}", "\u{b}", "\u{c}", "\u{85}", "\u{3000}", "\r", "  ", "\u{200b}",
    "\u{feff}",
];

/// Non-ASCII characters a name mutation puts into an identifier: letters
/// and a digit `char::is_alphanumeric` accepts, and symbols it does not.
const LETTERS: &[&str] = &["é", "λ", "ß", "日", "٣", "Ⅻ", "€", "·", "\u{301}"];

/// What a comment mutation inserts.
const COMMENTS: &[&str] = &["//", "#", "/", "// x: int = const 1", "#//"];

/// A small deterministic generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Spans of the maximal runs of alphanumeric characters and `_`.
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

/// The block labels declared in `text` (lines `name:`).
fn labels(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|l| l.trim().strip_suffix(':'))
        .filter(|l| !l.is_empty() && l.chars().all(|c| c.is_alphanumeric() || c == '_'))
        .collect()
}

/// The character boundaries of `text`, its end included.
fn boundaries(text: &str) -> Vec<usize> {
    text.char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect()
}

/// Byte offsets of every occurrence of `pat`.
fn sites(text: &str, pat: &str) -> Vec<usize> {
    text.match_indices(pat).map(|(i, _)| i).collect()
}

fn splice(text: &str, s: usize, e: usize, with: &str) -> String {
    format!("{}{with}{}", &text[..s], &text[e..])
}

/// Applies one mutation drawn from `rng` to `text`.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let kind = rng.below(11);
    match kind {
        // A type token after `: ` swapped.
        0 => {
            let at = sites(text, ": ");
            if at.is_empty() {
                return text.to_string();
            }
            let s = at[rng.below(at.len())] + 2;
            let rest = &text[s..];
            let len = if let Some(name) = rest.strip_prefix("ref ") {
                4 + name
                    .find(|c: char| !c.is_alphanumeric())
                    .unwrap_or(name.len())
            } else {
                rest.find(|c: char| !c.is_alphanumeric())
                    .unwrap_or(rest.len())
            };
            splice(text, s, s + len, rng.pick(TYPES))
        }
        // An identifier swapped for a block label.
        1 => {
            let labels = labels(text);
            let ids = identifiers(text);
            if labels.is_empty() || ids.is_empty() {
                return text.to_string();
            }
            let (s, e) = ids[rng.below(ids.len())];
            splice(text, s, e, labels[rng.below(labels.len())])
        }
        // A constant or probability swapped for an extreme value.
        2 => {
            let mut at: Vec<usize> = sites(text, "const ").iter().map(|i| i + 6).collect();
            at.extend(sites(text, "prob ").iter().map(|i| i + 5));
            if at.is_empty() {
                return text.to_string();
            }
            let s = at[rng.below(at.len())];
            let len = text[s..]
                .find(char::is_whitespace)
                .unwrap_or(text.len() - s);
            splice(text, s, s + len, rng.pick(EXTREMES))
        }
        // A line deleted or duplicated.
        3 | 4 => {
            let mut lines: Vec<&str> = text.split('\n').collect();
            let i = rng.below(lines.len());
            if kind == 3 {
                lines.remove(i);
            } else {
                lines.insert(i, lines[i]);
            }
            lines.join("\n")
        }
        // `\r\n` line ends: at one line or at all of them.
        5 => {
            if rng.below(4) == 0 {
                return text.replace('\n', "\r\n");
            }
            let at = sites(text, "\n");
            if at.is_empty() {
                return text.to_string();
            }
            let s = at[rng.below(at.len())];
            splice(text, s, s + 1, "\r\n")
        }
        // A space swapped for other whitespace.
        6 => {
            let at = sites(text, " ");
            if at.is_empty() {
                return text.to_string();
            }
            let s = at[rng.below(at.len())];
            splice(text, s, s + 1, rng.pick(SPACES))
        }
        // Whitespace inserted at a line's start or end, or beside a
        // comma, colon or operator.
        7 => {
            let mut at = sites(text, "\n");
            at.extend(sites(text, ","));
            at.extend(sites(text, ":"));
            at.extend(sites(text, "="));
            at.extend(sites(text, "["));
            at.extend(sites(text, "]"));
            if at.is_empty() {
                return text.to_string();
            }
            let s = at[rng.below(at.len())] + rng.below(2);
            let s = s.min(text.len());
            splice(text, s, s, rng.pick(SPACES))
        }
        // A non-ASCII character put into one identifier, or into every
        // occurrence of it (so the module may still parse).
        8 => {
            let ids = identifiers(text);
            if ids.is_empty() {
                return text.to_string();
            }
            let (s, e) = ids[rng.below(ids.len())];
            let name = &text[s..e];
            let cut = boundaries(name)[rng.below(boundaries(name).len())];
            let renamed = format!("{}{}{}", &name[..cut], rng.pick(LETTERS), &name[cut..]);
            if rng.below(2) == 0 {
                return splice(text, s, e, &renamed);
            }
            let mut out = String::with_capacity(text.len() + 16);
            let mut last = 0;
            for (s, e) in identifiers(text) {
                if &text[s..e] == name {
                    out.push_str(&text[last..s]);
                    out.push_str(&renamed);
                    last = e;
                }
            }
            out.push_str(&text[last..]);
            out
        }
        // A comment marker at any character position.
        9 => {
            let b = boundaries(text);
            let s = b[rng.below(b.len())];
            splice(text, s, s, rng.pick(COMMENTS))
        }
        // Any whitespace character at any character position.
        _ => {
            let b = boundaries(text);
            let s = b[rng.below(b.len())];
            splice(text, s, s, rng.pick(SPACES))
        }
    }
}

/// Folds everything the text path decides about `text` into `h`.
fn fold_outcome(h: &mut Fnv64, text: &str) {
    match parse_module(text) {
        Ok(m) => {
            h.write_str("ok");
            h.write_str(&print_class_table(&m.class_table));
            for g in &m.graphs {
                fold_graph(h, g);
            }
        }
        Err(e) => {
            h.write_str("err");
            h.write_u64(e.line as u64);
            h.write_str(&e.message);
        }
    }
}

/// The printed graph and every value's use list in arena order.
fn fold_graph(h: &mut Fnv64, g: &Graph) {
    h.write_str(&print_graph(g));
    h.write_u64(g.inst_count() as u64);
    for i in 0..g.inst_count() {
        for u in g.uses(InstId::from_index(i)) {
            match u {
                Use::Inst(v) => h.write_u64(u64::from(v.0)),
                Use::Term(b) => h.write_u64((1 << 32) | u64::from(b.0)),
            };
        }
        h.write(&[0xfe]);
    }
}

/// The request text of a graph: class table plus body.
fn request_text(g: &Graph) -> String {
    print_class_table(g.class_table()) + &print_graph(g)
}

/// The pristine graphs of the corpus: all four suites' built-in
/// workloads, then `micro` seeded Micro-profile units named like the
/// serve workloads' requests, then `compiled` Micro units compiled at
/// Dbds.
fn pristine(micro: u64, compiled: u64) -> Vec<Graph> {
    let mut graphs: Vec<Graph> = Suite::ALL
        .iter()
        .flat_map(|s| s.workloads())
        .map(|w| w.graph)
        .collect();
    let profile = Suite::Micro.profile();
    graphs.extend((0..micro).map(|i| generate_graph(&format!("w4u{i}"), &profile, 7_000 + i)));
    let (model, cfg) = (CostModel::new(), DbdsConfig::default());
    graphs.extend((0..compiled).map(|i| {
        let mut g = generate_graph(&format!("w5u{i}"), &profile, 9_000 + i);
        compile(&mut g, &model, OptLevel::Dbds, &cfg);
        g
    }));
    graphs
}

/// The digest of every outcome: each pristine graph's request text
/// through `parse_module` and its body through `parse_graph`, the
/// module `SEEDS` every character position of the first seed with
/// each insert, then `mutations` seeded mutation sequences.
fn outcome_digest(graphs: &[Graph], mutations: u64) -> u64 {
    let mut h = Fnv64::new();
    let mut bases: Vec<String> = SEEDS.iter().map(|s| s.to_string()).collect();
    for g in graphs {
        let text = request_text(g);
        fold_outcome(&mut h, &text);
        match parse_graph(&print_graph(g), g.class_table().clone()) {
            Ok(back) => fold_graph(&mut h, &back),
            Err(e) => {
                h.write_u64(e.line as u64);
                h.write_str(&e.message);
            }
        }
        // The smaller units are mutation bases too.
        if text.len() < 4_000 && bases.len() < 24 {
            bases.push(text);
        }
    }
    for seed in SEEDS {
        fold_outcome(&mut h, seed);
    }
    let first = SEEDS[0];
    for insert in ["//", "#", "\u{a0}", "\t", "\r\n", "\u{b}", "é"] {
        for s in boundaries(first) {
            fold_outcome(&mut h, &splice(first, s, s, insert));
        }
    }
    let mut rng = Rng(0x5eed_0046);
    for _ in 0..mutations {
        let mut text = bases[rng.below(bases.len())].clone();
        for _ in 0..1 + rng.below(4) {
            text = mutate(&text, &mut rng);
        }
        fold_outcome(&mut h, &text);
    }
    h.finish()
}

/// The digest of the printer alone over `graphs`: class table and body.
fn print_digest(graphs: &[Graph]) -> u64 {
    let mut h = Fnv64::new();
    for g in graphs {
        h.write_str(&print_class_table(g.class_table()));
        h.write_str(&print_graph(g));
    }
    h.finish()
}

/// 150 Micro units and 8 compiled units (and 4 000 mutation sequences).
fn corpus() -> Vec<Graph> {
    pristine(150, 8)
}

#[test]
fn every_parse_outcome_matches_the_pinned_digest() {
    let digest = outcome_digest(&corpus(), 4_000);
    assert_eq!(
        digest, 0xf968_df25_97a8_ae75,
        "parse outcome digest {digest:#018x}"
    );
}

#[test]
fn every_printed_graph_matches_the_pinned_digest() {
    let digest = print_digest(&corpus());
    assert_eq!(digest, 0xdcf2_e7c2_0fe3_dfad, "print digest {digest:#018x}");
}

/// The larger corpus: 1 000 Micro units, 48 compiled units, 100 000
/// mutation sequences (about ten seconds in release).
#[test]
#[ignore = "larger corpus; run in release"]
fn the_larger_corpus_matches_its_pinned_digests() {
    let graphs = pristine(1_000, 48);
    let (outcomes, printed) = (outcome_digest(&graphs, 100_000), print_digest(&graphs));
    assert_eq!(
        (outcomes, printed),
        (0xc873_0f93_67e1_8535, 0xc9f1_00a4_2af9_e744),
        "digests {outcomes:#018x} {printed:#018x}"
    );
}
