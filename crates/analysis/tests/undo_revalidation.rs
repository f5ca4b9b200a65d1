//! Pins the ABA-safety contract between the undo log and the
//! [`AnalysisCache`]: `rollback_txn` restores the graph's version stamp
//! to its `begin_txn` value, so cache entries validated *before* the
//! transaction revalidate as pure hits *after* the rollback — exactly as
//! if the mutations had never happened. Stamps are globally unique and
//! never reused, so a hit after rollback can only mean the graph really
//! is back in the stamped state.

use dbds_analysis::AnalysisCache;
use dbds_ir::{ClassTable, Graph, Terminator, Type};
use std::sync::Arc;

/// Entry → A → return, plus a detached spare block to mutate towards.
fn straight_line() -> (Graph, dbds_ir::BlockId) {
    let mut g = Graph::new("s", &[Type::Int], Arc::new(ClassTable::new()));
    let a = g.add_block();
    let spare = g.add_block();
    g.set_terminator(g.entry(), Terminator::Jump { target: a });
    g.set_terminator(a, Terminator::Return { value: None });
    g.set_terminator(spare, Terminator::Return { value: None });
    (g, a)
}

#[test]
fn pre_txn_entries_revalidate_as_pure_hits_after_rollback() {
    let (mut g, a) = straight_line();
    let mut cache = AnalysisCache::new();

    // Populate every analysis — forward and reverse — against the
    // pre-txn stamps.
    let dom_before = cache.domtree(&g);
    cache.loops(&g);
    cache.frequencies(&g);
    let pd_before = cache.postdom(&g);
    cache.frontiers(&g);
    let warm = cache.stats();
    assert_eq!(warm.misses, 3, "three forward cold computes expected");
    assert_eq!(warm.rev_misses, 1, "one reverse cold compute expected");

    // Structural mutation inside a transaction, with no cache lookups in
    // between: the cache never observes the diverged state.
    let stamp_before = g.cfg_version();
    g.begin_txn();
    let spare = g.blocks().nth(2).expect("spare block exists");
    g.set_terminator(a, Terminator::Jump { target: spare });
    assert_ne!(g.cfg_version(), stamp_before);
    g.rollback_txn();
    assert_eq!(g.cfg_version(), stamp_before);

    // Every lookup is now a pure hit: the restored stamps match the
    // cached entries exactly.
    let dom_after = cache.domtree(&g);
    cache.loops(&g);
    cache.frequencies(&g);
    let pd_after = cache.postdom(&g);
    cache.frontiers(&g);
    let replayed = cache.stats();
    // `frontiers` has no slot of its own: it is built again from the
    // domtree it pulls through the cache, the fourth forward hit.
    assert_eq!(
        replayed.hits,
        warm.hits + 4,
        "rollback must restore validity"
    );
    assert_eq!(replayed.misses, warm.misses, "no recompute after rollback");
    assert_eq!(
        replayed.rev_hits,
        warm.rev_hits + 1,
        "rollback must restore reverse-entry validity"
    );
    assert_eq!(
        replayed.rev_misses, warm.rev_misses,
        "no reverse recompute after rollback"
    );
    assert!(
        Arc::ptr_eq(&dom_before, &dom_after),
        "same cached entry served"
    );
    assert!(
        Arc::ptr_eq(&pd_before, &pd_after),
        "same cached reverse entry served"
    );
    assert!(cache.audit(&g).is_empty(), "audit clean after rollback");
}

#[test]
fn mid_txn_entries_are_superseded_and_audit_stays_clean() {
    let (mut g, a) = straight_line();
    let mut cache = AnalysisCache::new();
    cache.domtree(&g);
    cache.postdom(&g);
    let warm = cache.stats();

    // This time the cache *does* observe the in-transaction state: the
    // entries it holds afterwards are keyed on the diverged stamp.
    g.begin_txn();
    let spare = g.blocks().nth(2).expect("spare block exists");
    g.set_terminator(a, Terminator::Jump { target: spare });
    cache.domtree(&g);
    cache.postdom(&g);
    g.rollback_txn();

    // The mid-txn stamp is dead forever (stamps are never reused), so
    // the lookups recompute against the rolled-back graph and the audit
    // finds nothing stale.
    cache.domtree(&g);
    cache.postdom(&g);
    assert_eq!(
        cache.stats().misses,
        warm.misses + 2,
        "mid-txn entry superseded"
    );
    assert_eq!(
        cache.stats().rev_misses,
        warm.rev_misses + 2,
        "mid-txn reverse entries superseded"
    );
    assert!(cache.audit(&g).is_empty(), "audit clean after recompute");
}
