//! Intra-round staleness (`PhaseStats::stale_skips`): an accepted
//! candidate whose recorded opportunity no longer fires because an
//! earlier duplication of the same round changed a block its facts flow
//! through is skipped — and counted as an ordinary stale skip, not as a
//! misprediction. The phase reads "what the round changed" off the undo
//! log (`Graph::txn_footprint` of the round's recovery frame).

use dbds::core::{compile, DbdsConfig, OptLevel, PhaseStats, TradeoffConfig};
use dbds::costmodel::CostModel;
use dbds::ir::{execute, parse_module, verify, Graph, Value};

/// Two candidates, the second below the first. `(b, m1)` pins `p` to 20,
/// so `t` and m1's branch fold. `(u, m2)` pins `q` to `p`, and `r` folds
/// only because `p > 10` is known in `hot` — a fact that flows down the
/// dominator chain `entry, m1, hot, u` through the edge `m1 -> hot`, as
/// long as `hot` has m1 as its only predecessor. Duplicating m1 into `b`
/// gives `hot` a second predecessor (the copy): the chain of `u` becomes
/// `entry, hot, u` and the fact is gone.
const DEPENDENT: &str = r#"
    func @dependent(x: int, y: int, c0: bool, c1: bool) {
    entry:
      zero: int = const 0
      ten: int = const 10
      twenty: int = const 20
      branch c0, a, b, prob 0.3
    a:
      jump m1
    b:
      jump m1
    m1:
      p: int = phi [a: x, b: twenty]
      t: bool = cmp gt p, ten
      branch t, hot, cold, prob 0.9
    hot:
      branch c1, u, v, prob 0.5
    u:
      jump m2
    v:
      jump m2
    m2:
      q: int = phi [u: p, v: y]
      r: bool = cmp gt q, ten
      branch r, big, small, prob 0.5
    big:
      return q
    small:
      return zero
    cold:
      return x
    }
"#;

/// The same two candidates on disjoint dominator chains: `hot` hangs off
/// a test of `x` in `second`, a sibling of the m1 diamond, so nothing the
/// duplication of m1 changes is on the chain `entry, second, hot, u`.
const INDEPENDENT: &str = r#"
    func @independent(x: int, y: int, c0: bool, c1: bool, c2: bool) {
    entry:
      zero: int = const 0
      ten: int = const 10
      twenty: int = const 20
      branch c2, first, second, prob 0.5
    first:
      branch c0, a, b, prob 0.3
    a:
      jump m1
    b:
      jump m1
    m1:
      p: int = phi [a: x, b: twenty]
      t: bool = cmp gt p, ten
      branch t, done, cold, prob 0.9
    done:
      return p
    second:
      s: bool = cmp gt x, ten
      branch s, hot, cold, prob 0.9
    hot:
      branch c1, u, v, prob 0.5
    u:
      jump m2
    v:
      jump m2
    m2:
      q: int = phi [u: x, v: y]
      r: bool = cmp gt q, ten
      branch r, big, small, prob 0.5
    big:
      return q
    small:
      return zero
    cold:
      return x
    }
"#;

fn parse(text: &str) -> Graph {
    parse_module(text).unwrap().graphs.remove(0)
}

/// Compiles `text` at DBDS in one iteration (so the counters describe
/// exactly one round) and checks the result against the unoptimized
/// graph on every combination of the boolean parameters.
fn compile_and_check(text: &str) -> PhaseStats {
    let cfg = DbdsConfig {
        max_iterations: 1,
        tradeoff: TradeoffConfig {
            // The units are tiny; loosen the growth budget so both
            // candidates are accepted.
            size_increase_budget: 3.0,
            ..TradeoffConfig::default()
        },
        ..DbdsConfig::default()
    };
    let reference = parse(text);
    let mut g = parse(text);
    let stats = compile(&mut g, &CostModel::new(), OptLevel::Dbds, &cfg);
    verify(&g).unwrap();
    let flags = reference.param_types().len() - 2;
    for x in [-5i64, 10, 11, 20, 99] {
        for y in [0i64, 50] {
            for bits in 0..1u32 << flags {
                let mut args = vec![Value::Int(x), Value::Int(y)];
                args.extend((0..flags).map(|i| Value::Bool(bits >> i & 1 == 1)));
                assert_eq!(
                    execute(&g, &args).outcome,
                    execute(&reference, &args).outcome,
                    "args {args:?}"
                );
            }
        }
    }
    stats
}

#[test]
fn an_earlier_duplication_on_the_dominator_chain_is_a_stale_skip() {
    let stats = compile_and_check(DEPENDENT);
    assert_eq!(stats.duplications, 1, "{stats:?}");
    assert_eq!(stats.stale_skips, 1, "{stats:?}");
    assert_eq!(stats.mispredictions, 0, "{stats:?}");
    assert!(stats.bailouts.is_empty(), "{stats:?}");
}

#[test]
fn candidates_on_disjoint_chains_are_both_applied() {
    let stats = compile_and_check(INDEPENDENT);
    assert_eq!(stats.duplications, 2, "{stats:?}");
    assert_eq!(stats.stale_skips, 0, "{stats:?}");
    assert_eq!(stats.mispredictions, 0, "{stats:?}");
    assert!(stats.bailouts.is_empty(), "{stats:?}");
}
