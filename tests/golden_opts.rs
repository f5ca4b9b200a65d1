//! Golden tests for the optimization pipeline: small textual IR programs
//! with assertions on the optimized output (FileCheck style). Each case
//! pins down one behaviour of the §2 optimization set or its cleanup
//! passes. The last test pins the whole compiled corpus byte for byte.

use dbds::analysis::AnalysisCache;
use dbds::core::{compile, DbdsConfig, OptLevel};
use dbds::costmodel::CostModel;
use dbds::ir::{execute, parse_module, print_graph, verify, Fnv64, Value};
use dbds::opt::optimize_full;
use dbds::workloads::Suite;

/// Parses, optimizes, verifies, and returns the printed result.
fn optimized(src: &str) -> String {
    let mut module = parse_module(src).expect("golden source parses");
    let g = &mut module.graphs[0];
    verify(g).expect("golden source verifies");
    optimize_full(g, &mut AnalysisCache::new());
    verify(g).expect("optimized graph verifies");
    print_graph(g)
}

#[test]
fn constant_folding_chain_collapses() {
    let out = optimized(
        "func @f() {\n\
         entry:\n  a: int = const 6\n  b: int = const 7\n  m: int = mul a, b\n\
           s: int = add m, m\n  return s\n}",
    );
    assert!(out.contains("const 84"), "{out}");
    assert!(!out.contains("mul"), "{out}");
    assert!(!out.contains("add"), "{out}");
}

#[test]
fn nested_dominated_condition_is_eliminated() {
    let out = optimized(
        "func @f(x: int) {\n\
         entry:\n  ten: int = const 10\n  c1: bool = cmp gt x, ten\n  branch c1, bt, bf, prob 0.5\n\
         bt:\n  five: int = const 5\n  c2: bool = cmp gt x, five\n  branch c2, byes, bno, prob 0.5\n\
         byes:\n  one: int = const 1\n  return one\n\
         bno:\n  two: int = const 2\n  return two\n\
         bf:\n  three: int = const 3\n  return three\n}",
    );
    // x > 10 implies x > 5: the inner branch folds and bno dies.
    assert!(
        !out.contains("cmp gt v0, v2") || out.matches("cmp").count() == 1,
        "{out}"
    );
    assert!(!out.contains("const 2"), "dead arm must disappear: {out}");
}

#[test]
fn guarded_division_strength_reduces() {
    let out = optimized(
        "func @f(x: int) {\n\
         entry:\n  zero: int = const 0\n  g: bool = cmp ge x, zero\n  branch g, ok, bad, prob 0.99\n\
         bad:\n  deopt\n\
         ok:\n  two: int = const 2\n  q: int = div x, two\n  return q\n}",
    );
    assert!(
        out.contains("shr"),
        "x/2 under x≥0 must become a shift: {out}"
    );
    assert!(!out.contains("div"), "{out}");
}

#[test]
fn unguarded_division_stays() {
    let out = optimized(
        "func @f(x: int) {\n\
         entry:\n  two: int = const 2\n  q: int = div x, two\n  return q\n}",
    );
    assert!(out.contains("div"), "negative x breaks the shift: {out}");
}

#[test]
fn scalar_replacement_dissolves_local_box() {
    let out = optimized(
        "class Box { val: int }\n\
         func @f(x: int) {\n\
         entry:\n  b: ref Box = new Box\n  s: void = store b, Box.val, x\n\
           l: int = load b, Box.val\n  two: int = const 2\n  m: int = mul l, two\n  return m\n}",
    );
    assert!(!out.contains("new Box"), "{out}");
    assert!(!out.contains("store"), "{out}");
    assert!(!out.contains("load"), "{out}");
    assert!(out.contains("shl"), "mul by 2 also strength-reduces: {out}");
}

#[test]
fn escaping_box_survives() {
    let out = optimized(
        "class Box { val: int }\n\
         func @f(x: int) {\n\
         entry:\n  b: ref Box = new Box\n  s: void = store b, Box.val, x\n\
           r: int = invoke b\n  return r\n}",
    );
    assert!(out.contains("new Box"), "{out}");
    assert!(out.contains("store"), "{out}");
}

#[test]
fn redundant_read_in_extended_block_is_eliminated() {
    let out = optimized(
        "class A { x: int }\n\
         func @f(a: ref A) {\n\
         entry:\n  r1: int = load a, A.x\n  r2: int = load a, A.x\n\
           s: int = add r1, r2\n  return s\n}",
    );
    assert_eq!(out.matches("load").count(), 1, "{out}");
}

#[test]
fn call_blocks_read_elimination() {
    let out = optimized(
        "class A { x: int }\n\
         func @f(a: ref A) {\n\
         entry:\n  r1: int = load a, A.x\n  k: int = invoke a\n\
           r2: int = load a, A.x\n  s: int = add r1, r2\n  t: int = add s, k\n  return t\n}",
    );
    assert_eq!(out.matches("load").count(), 2, "{out}");
}

#[test]
fn gvn_dedups_dominated_expression() {
    let out = optimized(
        "func @f(x: int, y: int) {\n\
         entry:\n  a: int = add x, y\n  c: bool = cmp gt a, x\n  branch c, bt, bf, prob 0.5\n\
         bt:\n  b: int = add x, y\n  return b\n\
         bf:\n  d: int = add y, x\n  return d\n}",
    );
    // All three adds are the same value: one remains.
    assert_eq!(out.matches(" add ").count(), 1, "{out}");
}

#[test]
fn constant_branch_folds_and_dead_path_vanishes() {
    let out = optimized(
        "class A { x: int }\n\
         func @f(a: ref A) {\n\
         entry:\n  t: bool = const true\n  branch t, live, dead, prob 0.99\n\
         live:\n  one: int = const 1\n  return one\n\
         dead:\n  v: int = load a, A.x\n  return v\n}",
    );
    assert!(!out.contains("branch"), "{out}");
    assert!(!out.contains("load"), "{out}");
}

#[test]
fn phi_of_equal_inputs_copy_propagates() {
    let out = optimized(
        "func @f(x: int, c: bool) {\n\
         entry:\n  branch c, bt, bf, prob 0.5\n\
         bt:\n  jump bm\n\
         bf:\n  jump bm\n\
         bm:\n  p: int = phi [bt: x, bf: x]\n  one: int = const 1\n  s: int = add p, one\n  return s\n}",
    );
    assert!(!out.contains("phi"), "{out}");
}

#[test]
fn instanceof_on_fresh_allocation_folds_branch() {
    let out = optimized(
        "class A { }\nclass B { }\n\
         func @f() {\n\
         entry:\n  o: ref A = new A\n  t: bool = instanceof o, B\n  branch t, yes, no, prob 0.5\n\
         yes:\n  one: int = const 1\n  return one\n\
         no:\n  zero: int = const 0\n  return zero\n}",
    );
    assert!(!out.contains("instanceof"), "{out}");
    assert!(!out.contains("const 1"), "impossible arm removed: {out}");
}

#[test]
fn optimization_preserves_golden_semantics() {
    // Belt and braces: every golden program above computes the same
    // results before and after (spot-checked on one representative).
    let src = "func @f(x: int) {\n\
         entry:\n  zero: int = const 0\n  g: bool = cmp ge x, zero\n  branch g, ok, bad, prob 0.99\n\
         bad:\n  deopt\n\
         ok:\n  two: int = const 2\n  q: int = div x, two\n  return q\n}";
    let reference = parse_module(src).unwrap().graphs.remove(0);
    let mut opt = reference.clone();
    optimize_full(&mut opt, &mut AnalysisCache::new());
    for x in [0i64, 1, 7, 100, 12345] {
        assert_eq!(
            execute(&opt, &[Value::Int(x)]).outcome,
            execute(&reference, &[Value::Int(x)]).outcome
        );
    }
}

// ---------------------------------------------------------------------
// Byte-identity pin: the compiled corpus, every `InstId` included.
// ---------------------------------------------------------------------

/// FNV-1a over `print_graph` of every unit of `suite` compiled at
/// `level`, in suite order. The printed form names every value by its
/// arena index, so an equal digest means every instruction kept its
/// `InstId`, block and position — not just the same shape.
fn compiled_digest(suite: Suite, level: OptLevel) -> u64 {
    let model = CostModel::new();
    let mut h = Fnv64::new();
    for w in suite.workloads() {
        let mut g = w.graph;
        compile(&mut g, &model, level, &DbdsConfig::default());
        h.write_str(&print_graph(&g));
    }
    h.finish()
}

/// `(suite, [baseline, dbds, dupalot])`, computed at the parent of the
/// commit that gave the IR def-use lists: finding users through the
/// lists instead of arena walks must not move a single instruction.
const COMPILED_GOLDEN: [(&str, [u64; 3]); 4] = [
    (
        "java-dacapo",
        [0xa78006ea0d309b6b, 0x5d9444b25c4c36aa, 0x56a9dc5db6c312f2],
    ),
    (
        "scala-dacapo",
        [0x2eecce0e5f1cf1d7, 0xa07f83ead3b61603, 0x12985a152f28fbbe],
    ),
    (
        "micro",
        [0x400922b857c24a24, 0x87f3cace106d85f3, 0x199eca34cebafed0],
    ),
    (
        "octane",
        [0x91cda834aa7495b1, 0x39f9777d87b79d6f, 0xb5b87e05ebfb3dfc],
    ),
];

#[test]
fn compiled_corpus_matches_the_golden_digests() {
    let levels = [OptLevel::Baseline, OptLevel::Dbds, OptLevel::Dupalot];
    assert_eq!(Suite::ALL.len(), COMPILED_GOLDEN.len());
    for (suite, (name, golden)) in Suite::ALL.into_iter().zip(COMPILED_GOLDEN) {
        assert_eq!(suite.id(), name);
        for (level, want) in levels.into_iter().zip(golden) {
            let got = compiled_digest(suite, level);
            assert_eq!(got, want, "{name} at {level:?}: got {got:#018x}");
        }
    }
}
