//! The store keys of the built-in corpus, pinned. A disk store written
//! by an earlier build must still hit: every key is the content hash of
//! the *parsed* request text, so the parser's `InstId` / `BlockId`
//! allocation order and the printer's bytes are part of the on-disk
//! contract, not an implementation detail.

use dbds_core::{DbdsConfig, OptLevel};
use dbds_ir::{parse_module, print_class_table, print_graph, Fnv64, Graph};
use dbds_server::StoreKey;
use dbds_workloads::Suite;

/// The request text a client sends for `g`: class table, then the body.
fn request_text(g: &Graph) -> String {
    print_class_table(g.class_table()) + &print_graph(g)
}

/// One FNV-1a digest over the store keys of `suite`'s workloads at
/// `level`, each computed from the parsed request text.
fn key_digest(suite: Suite, level: OptLevel) -> u64 {
    let cfg = DbdsConfig::default();
    let mut h = Fnv64::new();
    for w in suite.workloads() {
        let module = parse_module(&request_text(&w.graph)).expect("request text parses");
        assert_eq!(module.graphs.len(), 1, "{}", w.name);
        let key = StoreKey::compute(&module.graphs[0], &cfg, level);
        h.write_u64(key.graph).write_u64(key.config);
    }
    h.finish()
}

/// `(suite, [baseline, dbds, dupalot])`, computed by the parser and
/// printer that allocated a `String` per line and per operand.
const KEY_GOLDEN: [(&str, [u64; 3]); 4] = [
    (
        "java-dacapo",
        [0x7806d812264ff758, 0xccc416211bf223f4, 0xbfe2d422104dea84],
    ),
    (
        "scala-dacapo",
        [0x1a6667126d62dfdc, 0xc5e01f1fd9416378, 0x4cd86e3c7c100a24],
    ),
    (
        "micro",
        [0x254906ddbc122750, 0x6e57ab9d97b17b48, 0x451695caad4ddbb4],
    ),
    (
        "octane",
        [0x6c9547db07ce2dc0, 0x39a296a4500537dc, 0x223cd0865f8da378],
    ),
];

#[test]
fn corpus_store_keys_match_the_golden_digests() {
    let levels = [OptLevel::Baseline, OptLevel::Dbds, OptLevel::Dupalot];
    assert_eq!(Suite::ALL.len(), KEY_GOLDEN.len());
    let mut wrong = Vec::new();
    for (suite, (name, golden)) in Suite::ALL.into_iter().zip(KEY_GOLDEN) {
        assert_eq!(suite.id(), name);
        for (level, want) in levels.into_iter().zip(golden) {
            let got = key_digest(suite, level);
            if got != want {
                wrong.push(format!("{name} at {level:?}: got {got:#018x}"));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The graph a request parses to prints to a text that parses back to
/// itself: `print(parse(print(g))) == print(g)` for every request graph
/// `g`. (A pristine workload graph itself need not pass: the parser
/// numbers values in layout order, which its builder did not always.)
#[test]
fn corpus_request_graphs_print_parse_print_to_themselves() {
    for suite in Suite::ALL {
        for w in suite.workloads() {
            let module = parse_module(&request_text(&w.graph)).expect("request text parses");
            let text = request_text(&module.graphs[0]);
            let again = parse_module(&text).expect("printed request graph parses");
            assert!(
                request_text(&again.graphs[0]) == text,
                "{} does not round-trip",
                w.name
            );
        }
    }
}
