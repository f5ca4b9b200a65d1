//! Version-keyed caching of CFG analyses, in the style of LLVM's
//! `AnalysisManager` and Graal's cached `cfg.dominatorTree` (§5.1 of the
//! paper).
//!
//! An [`AnalysisCache`] memoizes the five CFG-level analyses a compile
//! reads — dominator tree, dominance relation, loop forest, block
//! frequencies and post-dominator tree — keyed by the graph's
//! [`cfg_version`](dbds_ir::Graph::cfg_version) mutation epoch. A lookup on
//! an unchanged graph is a pointer clone; the first lookup after a
//! structural mutation recomputes and replaces the stale entry. Pure
//! value rewrites (constant folding, use replacement) leave `cfg_version`
//! untouched, so all entries survive them.
//!
//! The dominance *relation* ([`Dominators`]) has a slot of its own beside
//! the dominator tree's: it is the one entry that can follow a mutation
//! instead of being recomputed after it
//! ([`AnalysisCache::dominators_after_duplication`]). Readers that depend
//! on the CFG order keep asking for [`AnalysisCache::domtree`], which is
//! only ever a from-scratch build.
//!
//! Entries are returned as [`Arc`]s so callers can hold several analyses
//! at once (the simulation walk needs dominators *and* frequencies) while
//! the cache stays mutably borrowable in between.
//!
//! # Examples
//!
//! ```
//! use dbds_analysis::AnalysisCache;
//! use dbds_ir::parse_module;
//!
//! let m = parse_module(
//!     "func @f(c: bool) {\n\
//!      entry:\n  branch c, bt, bf, prob 0.5\n\
//!      bt:\n  jump bm\n\
//!      bf:\n  jump bm\n\
//!      bm:\n  return\n}",
//! )?;
//! let g = &m.graphs[0];
//! let mut cache = AnalysisCache::new();
//! let dt = cache.domtree(g);
//! let again = cache.domtree(g);
//! assert!(std::sync::Arc::ptr_eq(&dt, &again));
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 1);
//! # Ok::<(), dbds_ir::ParseError>(())
//! ```

use crate::{BlockFrequencies, DomFrontiers, DomTree, Dominators, LoopForest, PostDomTree};
use dbds_ir::lint::{Diagnostic, LintId};
use dbds_ir::{BlockId, Graph};
use std::sync::Arc;

/// Hit/miss/invalidation counters of an [`AnalysisCache`].
///
/// The forward analyses (dominator tree, loops, frequencies) aggregate
/// into `hits`/`misses`/`invalidations`; the post-dominator tree keeps
/// its own `rev_*` counters so the long-standing forward-counter pins
/// stay meaningful. Every lookup is a hit, a miss or — for the dominance
/// relation carried across a duplication — a patch; invalidations count
/// the misses that discarded a stale entry (as opposed to cold-start
/// misses on an empty slot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Forward-analysis lookups served from a still-valid entry.
    pub hits: u64,
    /// Forward-analysis lookups that had to (re)compute.
    pub misses: u64,
    /// Forward entries discarded because the CFG epoch moved on.
    pub invalidations: u64,
    /// Reverse-CFG-analysis lookups served from a still-valid entry.
    pub rev_hits: u64,
    /// Reverse-CFG-analysis lookups that had to (re)compute.
    pub rev_misses: u64,
    /// Reverse-CFG entries discarded because the CFG epoch moved on.
    pub rev_invalidations: u64,
    /// Dominance relations derived from the previous one by
    /// [`Dominators::after_duplication`] instead of being rebuilt.
    /// Neither a hit nor a miss.
    pub patches: u64,
    /// Blocks whose predecessor or successor list a dominator build or
    /// patch made through the cache read: every reachable block for a
    /// from-scratch build, the merge and its copy for a patch.
    pub dom_blocks_visited: u64,
}

impl CacheStats {
    /// Accumulates `other` into `self` (for summing across phases).
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.rev_hits += other.rev_hits;
        self.rev_misses += other.rev_misses;
        self.rev_invalidations += other.rev_invalidations;
        self.patches += other.patches;
        self.dom_blocks_visited += other.dom_blocks_visited;
    }
}

/// One memoized analysis result with the CFG epoch it was computed at.
#[derive(Debug)]
struct Slot<T> {
    version: u64,
    value: Arc<T>,
}

/// A version-keyed cache of the CFG-level analyses of one (or several,
/// sequentially processed) [`Graph`]s.
///
/// Validity is purely stamp-based: because version stamps are globally
/// unique and never reused, a stored entry whose stamp equals the
/// graph's current `cfg_version` is guaranteed to describe exactly this
/// block structure — even across clone/restore
/// backtracking, where the same stamp can reappear after `*g = backup`.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    domtree: Option<Slot<DomTree>>,
    dominators: Option<Slot<Dominators>>,
    loops: Option<Slot<LoopForest>>,
    frequencies: Option<Slot<BlockFrequencies>>,
    postdom: Option<Slot<PostDomTree>>,
    stats: CacheStats,
}

/// Looks up `$slot` under the stamp discipline, recomputing with `$make`
/// on a miss and charging `$hits`/`$misses`/`$invals`.
macro_rules! cached {
    ($self:ident, $g:ident, $slot:ident, $hits:ident, $misses:ident, $invals:ident, $make:expr) => {{
        let version = $g.cfg_version();
        if let Some(slot) = &$self.$slot {
            if slot.version == version {
                $self.stats.$hits += 1;
                return Arc::clone(&slot.value);
            }
            $self.stats.$invals += 1;
        }
        $self.stats.$misses += 1;
        let value = Arc::new($make);
        $self.$slot = Some(Slot {
            version,
            value: Arc::clone(&value),
        });
        value
    }};
}

impl AnalysisCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        AnalysisCache::default()
    }

    /// The dominator tree of `g`, recomputing only if the CFG changed
    /// since the last lookup. Never a patched entry: the tree carries the
    /// CFG order, which only a from-scratch build knows.
    pub fn domtree(&mut self, g: &Graph) -> Arc<DomTree> {
        cached!(self, g, domtree, hits, misses, invalidations, {
            let dt = DomTree::compute(g);
            self.stats.dom_blocks_visited += dt.reverse_postorder().len() as u64;
            dt
        })
    }

    /// The dominance relation of `g`: the relation slot when it is
    /// current (a hit), else the relation of [`AnalysisCache::domtree`],
    /// which counts the lookup as its own hit or miss.
    pub fn dominators(&mut self, g: &Graph) -> Arc<Dominators> {
        let version = g.cfg_version();
        if let Some(slot) = self.dominators.as_ref().filter(|s| s.version == version) {
            self.stats.hits += 1;
            return Arc::clone(&slot.value);
        }
        let value = Arc::clone(self.domtree(g).relation());
        self.dominators = Some(Slot {
            version,
            value: Arc::clone(&value),
        });
        value
    }

    /// The dominance relation of `g`, which differs from the graph `prev`
    /// describes by one tail duplication of `merge` into `pred` that
    /// created `copy`: `prev` patched in O(edit)
    /// ([`Dominators::after_duplication`], counted in
    /// [`CacheStats::patches`]), or [`AnalysisCache::dominators`] when the
    /// slot is already current or the patch declines.
    pub fn dominators_after_duplication(
        &mut self,
        g: &Graph,
        prev: &Dominators,
        pred: BlockId,
        merge: BlockId,
        copy: BlockId,
    ) -> Arc<Dominators> {
        let version = g.cfg_version();
        let current = self
            .dominators
            .as_ref()
            .is_some_and(|s| s.version == version);
        let patched = (!current)
            .then(|| prev.after_duplication(g, pred, merge, copy))
            .flatten();
        let Some(patched) = patched else {
            return self.dominators(g);
        };
        self.stats.patches += 1;
        self.stats.dom_blocks_visited += 2;
        let value = Arc::new(patched);
        self.dominators = Some(Slot {
            version,
            value: Arc::clone(&value),
        });
        value
    }

    /// The loop forest of `g`, recomputing only if the CFG changed since
    /// the last lookup. Pulls the dominator tree through the cache.
    pub fn loops(&mut self, g: &Graph) -> Arc<LoopForest> {
        cached!(self, g, loops, hits, misses, invalidations, {
            let dt = self.domtree(g);
            LoopForest::compute(g, &dt)
        })
    }

    /// The block execution frequencies of `g`, recomputing only if the
    /// CFG (including branch probabilities) changed since the last
    /// lookup. Pulls dominators and loops through the cache.
    pub fn frequencies(&mut self, g: &Graph) -> Arc<BlockFrequencies> {
        cached!(self, g, frequencies, hits, misses, invalidations, {
            let dt = self.domtree(g);
            let loops = self.loops(g);
            BlockFrequencies::compute(g, &dt, &loops)
        })
    }

    /// The post-dominator tree of `g`, recomputing only if the CFG
    /// changed since the last lookup. Counted under the `rev_*` stats.
    pub fn postdom(&mut self, g: &Graph) -> Arc<PostDomTree> {
        cached!(
            self,
            g,
            postdom,
            rev_hits,
            rev_misses,
            rev_invalidations,
            PostDomTree::compute(g)
        )
    }

    /// The dominance frontiers of `g`, built fresh on every call from the
    /// dominator tree pulled through the cache. No compile reads them, so
    /// they have no slot and no counter; the method retires with the
    /// benchmark's `analysis.rev_*` / `analysis.frontiers_us` probes.
    pub fn frontiers(&mut self, g: &Graph) -> Arc<DomFrontiers> {
        let dt = self.domtree(g);
        Arc::new(DomFrontiers::compute(g, &dt))
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops all entries (counters are kept). Lookups after this are
    /// cold-start misses, not invalidations.
    pub fn clear(&mut self) {
        self.domtree = None;
        self.dominators = None;
        self.loops = None;
        self.frequencies = None;
        self.postdom = None;
    }

    /// Audits every entry that claims to describe the current graph state
    /// against a from-scratch recomputation, returning one
    /// [`LintId::StaleAnalysis`] diagnostic per divergent block.
    ///
    /// Validity in this cache is purely stamp-based, so a divergence means
    /// the stamping discipline itself broke (a mutation that should have
    /// bumped `cfg_version` but did not, or a reused stamp) — exactly the
    /// class of bug no unit test of an individual analysis can see. Stale
    /// entries (stamp ≠ current version) are skipped: they are invalid by
    /// contract and the next lookup replaces them anyway.
    ///
    /// The audit is driven by [`AUDIT_REGISTRY`], one entry per memoized
    /// analysis, sharing fresh base analyses lazily — adding a slot
    /// without registering an auditor fails the registry meta-test.
    ///
    /// Read-only: the audit never touches the slots or the counters.
    pub fn audit(&self, g: &Graph) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut fresh = FreshAnalyses::new(g);
        for &(_, audit) in AUDIT_REGISTRY {
            audit(self, &mut fresh, &mut out);
        }
        out
    }
}

/// Lazily computed fresh analyses shared by the audit registry, so the
/// base analyses are recomputed at most once per audit no matter how many
/// registered auditors need them.
struct FreshAnalyses<'g> {
    g: &'g Graph,
    version: u64,
    dt: Option<DomTree>,
    loops: Option<LoopForest>,
    pd: Option<PostDomTree>,
}

impl<'g> FreshAnalyses<'g> {
    fn new(g: &'g Graph) -> Self {
        FreshAnalyses {
            g,
            version: g.cfg_version(),
            dt: None,
            loops: None,
            pd: None,
        }
    }

    fn dt(&mut self) -> &DomTree {
        if self.dt.is_none() {
            self.dt = Some(DomTree::compute(self.g));
        }
        self.dt.as_ref().expect("just computed")
    }

    fn loops(&mut self) -> &LoopForest {
        if self.loops.is_none() {
            self.dt();
            let dt = self.dt.as_ref().expect("just computed");
            self.loops = Some(LoopForest::compute(self.g, dt));
        }
        self.loops.as_ref().expect("just computed")
    }

    fn pd(&mut self) -> &PostDomTree {
        if self.pd.is_none() {
            self.pd = Some(PostDomTree::compute(self.g));
        }
        self.pd.as_ref().expect("just computed")
    }
}

/// One registered auditor: diffs a cached slot (when stamped current)
/// against fresh recomputation.
type AuditFn = fn(&AnalysisCache, &mut FreshAnalyses<'_>, &mut Vec<Diagnostic>);

/// The audit registry: every memoized analysis of [`AnalysisCache`] with
/// its divergence check. Keep in sync with the cache's slots — the
/// `registry_covers_every_slot` meta-test destructures the cache so a new
/// slot cannot be added without updating both.
const AUDIT_REGISTRY: &[(&str, AuditFn)] = &[
    ("domtree", audit_domtree),
    ("dominators", audit_dominators),
    ("loops", audit_loops),
    ("frequencies", audit_frequencies),
    ("postdom", audit_postdom),
];

fn stale_at(b: Option<dbds_ir::BlockId>, message: String) -> Diagnostic {
    Diagnostic::new(LintId::StaleAnalysis, b, None, message)
}

fn audit_domtree(cache: &AnalysisCache, fresh: &mut FreshAnalyses<'_>, out: &mut Vec<Diagnostic>) {
    let Some(slot) = cache
        .domtree
        .as_ref()
        .filter(|s| s.version == fresh.version)
    else {
        return;
    };
    let fresh = fresh.dt();
    relation_divergences("domtree", &slot.value, fresh, out);
    if slot.value.reverse_postorder() != fresh.reverse_postorder() {
        out.push(stale_at(
            None,
            "cached domtree stamped current has a divergent reverse postorder".to_string(),
        ));
    }
}

fn audit_dominators(
    cache: &AnalysisCache,
    fresh: &mut FreshAnalyses<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let Some(slot) = cache
        .dominators
        .as_ref()
        .filter(|s| s.version == fresh.version)
    else {
        return;
    };
    relation_divergences("dominators", &slot.value, fresh.dt(), out);
}

/// One finding per block on which a cached dominance relation stamped
/// current and the recomputed one disagree.
fn relation_divergences(
    what: &str,
    cached: &Dominators,
    fresh: &Dominators,
    out: &mut Vec<Diagnostic>,
) {
    for (b, cached, fresh) in cached.divergences(fresh) {
        out.push(stale_at(
            Some(b),
            format!(
                "cached {what} stamped current disagrees at {b}: idom {cached:?} vs recomputed {fresh:?}"
            ),
        ));
    }
}

fn audit_loops(cache: &AnalysisCache, fresh: &mut FreshAnalyses<'_>, out: &mut Vec<Diagnostic>) {
    let Some(slot) = cache.loops.as_ref().filter(|s| s.version == fresh.version) else {
        return;
    };
    let g = fresh.g;
    let fresh = fresh.loops();
    for b in g.blocks() {
        if slot.value.depth(b) != fresh.depth(b) || slot.value.is_header(b) != fresh.is_header(b) {
            out.push(stale_at(
                Some(b),
                format!(
                    "cached loop forest stamped current disagrees at {b}: depth {} header {} vs recomputed depth {} header {}",
                    slot.value.depth(b),
                    slot.value.is_header(b),
                    fresh.depth(b),
                    fresh.is_header(b)
                ),
            ));
        }
    }
}

fn audit_frequencies(
    cache: &AnalysisCache,
    fresh: &mut FreshAnalyses<'_>,
    out: &mut Vec<Diagnostic>,
) {
    let Some(slot) = cache
        .frequencies
        .as_ref()
        .filter(|s| s.version == fresh.version)
    else {
        return;
    };
    let g = fresh.g;
    fresh.loops();
    let (dt, loops) = (
        fresh.dt.as_ref().expect("just computed"),
        fresh.loops.as_ref().expect("just computed"),
    );
    let recomputed = BlockFrequencies::compute(g, dt, loops);
    // Exact comparison is deliberate: recomputing the same input is
    // deterministic, so any difference is a staleness bug.
    for b in g.blocks() {
        if slot.value.freq(b).to_bits() != recomputed.freq(b).to_bits() {
            out.push(stale_at(
                Some(b),
                format!(
                    "cached frequencies stamped current disagree at {b}: {} vs recomputed {}",
                    slot.value.freq(b),
                    recomputed.freq(b)
                ),
            ));
        }
    }
}

fn audit_postdom(cache: &AnalysisCache, fresh: &mut FreshAnalyses<'_>, out: &mut Vec<Diagnostic>) {
    let Some(slot) = cache
        .postdom
        .as_ref()
        .filter(|s| s.version == fresh.version)
    else {
        return;
    };
    let g = fresh.g;
    let fresh = fresh.pd();
    for b in g.blocks() {
        if slot.value.ipdom(b) != fresh.ipdom(b)
            || slot.value.is_root(b) != fresh.is_root(b)
            || slot.value.in_domain(b) != fresh.in_domain(b)
        {
            out.push(stale_at(
                Some(b),
                format!(
                    "cached postdom stamped current disagrees at {b}: ipdom {:?} vs recomputed {:?}",
                    slot.value.ipdom(b),
                    fresh.ipdom(b)
                ),
            ));
        }
    }
    if slot.value.roots() != fresh.roots() {
        out.push(stale_at(
            None,
            "cached postdom stamped current has divergent virtual-exit roots".to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::parse_module;

    fn diamond() -> Graph {
        let m = parse_module(
            "func @f(c: bool) {\n\
             entry:\n  branch c, bt, bf, prob 0.5\n\
             bt:\n  jump bm\n\
             bf:\n  jump bm\n\
             bm:\n  return\n}",
        )
        .unwrap();
        m.graphs.into_iter().next().unwrap()
    }

    #[test]
    fn repeat_lookups_hit() {
        let g = diamond();
        let mut cache = AnalysisCache::new();
        let f1 = cache.frequencies(&g);
        // First call misses all three (frequencies pulls domtree + loops);
        // the loops→domtree pull already hits.
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().hits, 1);
        let f2 = cache.frequencies(&g);
        assert!(Arc::ptr_eq(&f1, &f2));
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().invalidations, 0);
    }

    #[test]
    fn reverse_analyses_hit_under_their_own_counters() {
        let g = diamond();
        let mut cache = AnalysisCache::new();
        cache.frequencies(&g);
        let before = cache.stats();
        let p1 = cache.postdom(&g);
        // postdom misses under the reverse counters and pulls no forward
        // analysis.
        assert_eq!(cache.stats().rev_misses, 1);
        assert_eq!(cache.stats().rev_hits, 0);
        assert_eq!(cache.stats().misses, before.misses);
        assert_eq!(cache.stats().hits, before.hits);
        let p2 = cache.postdom(&g);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats().rev_hits, 1);
        assert_eq!(cache.stats().rev_misses, 1);
        assert_eq!(cache.stats().rev_invalidations, 0);
    }

    #[test]
    fn cfg_mutation_invalidates() {
        let mut g = diamond();
        let mut cache = AnalysisCache::new();
        let d1 = cache.domtree(&g);
        let p1 = cache.postdom(&g);
        g.add_block();
        let d2 = cache.domtree(&g);
        let p2 = cache.postdom(&g);
        assert!(!Arc::ptr_eq(&d1, &d2));
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().rev_misses, 2);
        assert_eq!(cache.stats().rev_invalidations, 1);
    }

    #[test]
    fn value_mutation_preserves_cfg_analyses() {
        let mut g = diamond();
        let mut cache = AnalysisCache::new();
        let d1 = cache.domtree(&g);
        let p1 = cache.postdom(&g);
        let entry = g.entry();
        use dbds_ir::{ConstValue, Inst, Type};
        g.append_inst(entry, Inst::Const(ConstValue::Int(7)), Type::Int);
        let d2 = cache.domtree(&g);
        let p2 = cache.postdom(&g);
        assert!(Arc::ptr_eq(&d1, &d2));
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().rev_hits, 1);
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.stats().rev_invalidations, 0);
    }

    #[test]
    fn restored_backup_revalidates_old_entry() {
        // Backtracking pattern: clone, diverge, restore. The entry cached
        // for the backup's stamp must be valid again after the restore.
        let mut g = diamond();
        let mut cache = AnalysisCache::new();
        let backup = g.clone();
        let d_before = cache.domtree(&g);
        g.add_block();
        cache.domtree(&g);
        g = backup;
        let d_after = cache.domtree(&g);
        // The diverged entry replaced the slot, so this recomputes — but it
        // must recompute (stamp differs), never serve the diverged tree.
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(
            d_before.idom(g.merge_blocks()[0]),
            d_after.idom(g.merge_blocks()[0])
        );
    }

    #[test]
    fn relation_slot_follows_a_duplication_by_patch() {
        use dbds_ir::Terminator;
        let mut g = diamond();
        let mut cache = AnalysisCache::new();
        let before = cache.dominators(&g);
        assert_eq!((cache.stats().misses, cache.stats().hits), (1, 0));
        assert_eq!(cache.stats().dom_blocks_visited, 4);
        // The ordered tree of the same epoch shares the relation.
        assert!(Arc::ptr_eq(&before, cache.domtree(&g).relation()));

        // Tail-duplicate bm into bt.
        let (bt, bm) = (g.blocks().nth(1).unwrap(), g.blocks().nth(3).unwrap());
        let copy = g.add_block();
        g.set_terminator(copy, Terminator::Return { value: None });
        g.retarget_edge(bt, bm, copy, &[]);
        let base = cache.stats();
        let after = cache.dominators_after_duplication(&g, &before, bt, bm, copy);
        assert_eq!(after.idom(copy), Some(bt));
        assert_eq!(after.idom(bm), Some(g.blocks().nth(2).unwrap()));
        // A patch is neither hit nor miss, and read two blocks' edges.
        let now = cache.stats();
        assert_eq!((now.patches, now.misses, now.hits), (1, 1, base.hits));
        assert_eq!(now.dom_blocks_visited, base.dom_blocks_visited + 2);
        // The patched slot serves lookups; the ordered tree is rebuilt.
        assert!(Arc::ptr_eq(&after, &cache.dominators(&g)));
        assert!(Arc::ptr_eq(
            &after,
            &cache.dominators_after_duplication(&g, &before, bt, bm, copy)
        ));
        assert_eq!(cache.stats().hits, base.hits + 2);
        let dt = cache.domtree(&g);
        assert_eq!(cache.stats().misses, 2);
        assert!(!Arc::ptr_eq(&after, dt.relation()));
        assert!(cache.audit(&g).is_empty());
    }

    #[test]
    fn a_declined_patch_is_an_ordinary_miss() {
        let mut g = diamond();
        let mut cache = AnalysisCache::new();
        let before = cache.dominators(&g);
        // Not a duplication at all: just a fresh unreachable block.
        let orphan = g.add_block();
        let (bt, bm) = (g.blocks().nth(1).unwrap(), g.blocks().nth(3).unwrap());
        let after = cache.dominators_after_duplication(&g, &before, bt, bm, orphan);
        assert!(!after.is_reachable(orphan));
        assert_eq!(cache.stats().patches, 0);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn audit_accepts_consistent_cache() {
        let g = diamond();
        let mut cache = AnalysisCache::new();
        cache.frequencies(&g);
        cache.postdom(&g);
        assert!(cache.audit(&g).is_empty());
        // An empty cache is trivially consistent too.
        assert!(AnalysisCache::new().audit(&g).is_empty());
    }

    #[test]
    fn audit_skips_entries_with_stale_stamps() {
        // A stale stamp is not a finding: it is invalid by contract and
        // the next lookup replaces it.
        let mut g = diamond();
        let mut cache = AnalysisCache::new();
        cache.domtree(&g);
        cache.postdom(&g);
        g.add_block();
        assert!(cache.audit(&g).is_empty());
    }

    #[test]
    fn audit_detects_stamp_forgery() {
        // Fail-first corpus entry for LintId::StaleAnalysis: simulate a
        // stamping-discipline bug by computing the domtree, mutating the
        // CFG in a way that changes dominators, then forging the cached
        // entry's stamp to the new epoch. The audit must notice the
        // cached tree no longer matches a fresh recomputation.
        let mut g = diamond();
        let mut cache = AnalysisCache::new();
        cache.domtree(&g);
        // bm (the merge) is currently dominated by entry. Retarget bf's
        // jump so bm's only pred is bt, changing bm's idom to bt.
        use dbds_ir::Terminator;
        let bf = g.blocks().nth(2).unwrap();
        let ret = g.blocks().nth(3).unwrap();
        assert_eq!(g.succs(bf), vec![ret]);
        let bt = g.blocks().nth(1).unwrap();
        g.set_terminator(bf, Terminator::Jump { target: bt });
        let forged_version = g.cfg_version();
        let slot = cache.domtree.as_mut().unwrap();
        slot.version = forged_version; // the bug under test
        let findings = cache.audit(&g);
        assert!(
            !findings.is_empty(),
            "forged stamp must surface as StaleAnalysis"
        );
        assert!(findings
            .iter()
            .all(|d| d.lint == dbds_ir::LintId::StaleAnalysis));
    }

    #[test]
    fn audit_detects_a_forged_relation() {
        // The relation slot under the same forgery: the ordered tree's
        // slot is left stale, so only the relation's auditor can fire.
        let mut g = diamond();
        let mut cache = AnalysisCache::new();
        cache.dominators(&g);
        use dbds_ir::Terminator;
        let bt = g.blocks().nth(1).unwrap();
        let bf = g.blocks().nth(2).unwrap();
        g.set_terminator(bf, Terminator::Jump { target: bt });
        cache.dominators.as_mut().unwrap().version = g.cfg_version();
        let findings = cache.audit(&g);
        assert!(!findings.is_empty());
        assert!(findings
            .iter()
            .all(|d| d.lint == LintId::StaleAnalysis && d.message.contains("dominators")));
    }

    #[test]
    fn audit_detects_forged_reverse_entries() {
        // The same forgery through the registry's reverse-CFG auditor:
        // retargeting bf to bt changes post-dominance; a forged stamp on
        // the slot must surface.
        let mut g = diamond();
        let mut cache = AnalysisCache::new();
        cache.postdom(&g);
        use dbds_ir::Terminator;
        let bt = g.blocks().nth(1).unwrap();
        let bf = g.blocks().nth(2).unwrap();
        g.set_terminator(bf, Terminator::Jump { target: bt });
        cache.postdom.as_mut().unwrap().version = g.cfg_version();
        let findings = cache.audit(&g);
        assert!(
            !findings.is_empty(),
            "forged reverse-analysis stamps must surface as StaleAnalysis"
        );
        assert!(findings
            .iter()
            .all(|d| d.lint == dbds_ir::LintId::StaleAnalysis));
    }

    #[test]
    fn registry_covers_every_slot() {
        // Destructure so adding a slot without touching this test (and
        // the registry) is a compile error.
        let AnalysisCache {
            domtree,
            dominators,
            loops,
            frequencies,
            postdom,
            stats: _,
        } = AnalysisCache::new();
        let slots = [
            ("domtree", domtree.is_none()),
            ("dominators", dominators.is_none()),
            ("loops", loops.is_none()),
            ("frequencies", frequencies.is_none()),
            ("postdom", postdom.is_none()),
        ];
        assert_eq!(
            slots.len(),
            AUDIT_REGISTRY.len(),
            "every memoized slot needs a registered auditor"
        );
        for ((slot, _), (audit, _)) in slots.iter().zip(AUDIT_REGISTRY) {
            assert_eq!(slot, audit, "registry order must mirror the slots");
        }
    }

    #[test]
    fn clear_forces_cold_misses() {
        let g = diamond();
        let mut cache = AnalysisCache::new();
        cache.domtree(&g);
        cache.postdom(&g);
        cache.clear();
        cache.domtree(&g);
        cache.postdom(&g);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().rev_misses, 2);
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.stats().rev_invalidations, 0);
    }
}
