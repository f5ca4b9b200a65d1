//! The DBDS simulation tier (§4.1).
//!
//! A depth-first traversal of the dominator tree carries a [`FactEnv`]
//! (synonyms, condition-refined stamps, memory caches, virtual objects).
//! Whenever the traversal sits on a block `b_pi` with a merge successor
//! `b_m`, it pauses and starts a *duplication simulation traversal* (DST):
//! the instructions of `b_m` are evaluated as if they had been appended to
//! `b_pi`, with every φ mapped to its input on the `b_pi` edge through the
//! synonym map. Applicability checks that fire during the DST become
//! [`Opportunity`] records; the static performance estimator (the node
//! cost model) prices each one in *cycles saved* and *code size delta*.
//! No IR is copied or mutated at any point — that is the entire argument
//! for simulation over backtracking (§3). The facts are not copied
//! either: the walk and every DST it forks share one environment, scoped
//! by [`FactEnv::mark`] and [`FactEnv::rollback_to`].
//!
//! # Budget accounting
//!
//! The walk charges each block (`insts + 1` fuel units) as it enters it.
//! A DST is polled with [`Budget::check`] before it starts and charged
//! once, with the sum of its segments, after it ran: a DST either commits
//! whole or contributes nothing, so exhaustion never leaves a partial
//! candidate behind. The first failing charge stops the walk; what was
//! found up to there still feeds the trade-off tier.

use crate::bailout::{isolate, BailoutReason, Budget};
use crate::faultinject::fault_point;
use dbds_analysis::{AnalysisCache, BlockFrequencies, DomTree, Dominators};
use dbds_costmodel::CostModel;
use dbds_ir::{BlockId, Graph, Inst, InstId, InstKind, Terminator, Use};
use dbds_opt::{evaluate, record_effects, FactEnv, Mark, OptKind, Synonym, Verdict};
use std::collections::HashSet;

/// One optimization opportunity discovered during a DST.
#[derive(Clone, Debug, PartialEq)]
pub struct Opportunity {
    /// The merge-block instruction that becomes optimizable (or the
    /// allocation, for a predicted scalar replacement).
    pub inst: InstId,
    /// The optimization class that fires.
    pub kind: OptKind,
    /// Estimated cycles saved on this path.
    pub cycles_saved: f64,
    /// Estimated code-size change (negative shrinks the copy).
    pub size_delta: i64,
}

/// How a candidate's duplication path was formed, and therefore which
/// transform sequence the optimization tier applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CandidateKind {
    /// Classic DBDS tail duplication: the path covers merge blocks
    /// connected by unconditional jumps.
    MergeDup,
    /// Branch splitting (Breitner-style conditional elimination through
    /// duplication): the DST continued *through* a branch terminator it
    /// decided statically on this path, so the final path element is the
    /// statically-taken successor rather than a jump target. Applying it
    /// duplicates the merge into the predecessor and then threads the
    /// copy through the decided branch.
    BranchSplit,
}

impl CandidateKind {
    /// Stable kebab-case name (used by reports).
    pub fn name(self) -> &'static str {
        match self {
            CandidateKind::MergeDup => "merge-dup",
            CandidateKind::BranchSplit => "branch-split",
        }
    }
}

/// The simulation result for one predecessor→merge pair.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulationResult {
    /// The predecessor block `b_pi`.
    pub pred: BlockId,
    /// The merge block `b_m`.
    pub merge: BlockId,
    /// How the path was formed (and how to apply it).
    pub kind: CandidateKind,
    /// The merge blocks covered, in order; `path[0] == merge`. Longer
    /// paths come from the §8 path-based extension: the DST continued
    /// through a jump into a further merge — or, for
    /// [`CandidateKind::BranchSplit`], through a statically-decided
    /// branch (the last element is then the taken successor).
    pub path: Vec<BlockId>,
    /// Relative execution probability of the duplicated code (the
    /// `p` of the `shouldDuplicate` heuristic): the frequency of the
    /// `pred → merge` edge relative to the unit's hottest block.
    pub probability: f64,
    /// Total estimated cycles saved by the enabled optimizations.
    pub cycles_saved: f64,
    /// Estimated code-size increase of performing the duplication (copy
    /// size after the enabled optimizations, minus any eliminated
    /// allocations elsewhere).
    pub size_cost: i64,
    /// The individual opportunities.
    pub opportunities: Vec<Opportunity>,
}

impl SimulationResult {
    /// Probability-weighted benefit used for candidate ranking.
    pub fn weighted_benefit(&self) -> f64 {
        self.cycles_saved * self.probability
    }
}

/// What the simulation tier produced, including any guardrail events.
///
/// Produced by [`simulate_paths_budgeted`]; `results` holds whatever was
/// discovered before a budget stop, so a partial simulation still feeds
/// the trade-off tier.
#[derive(Clone, Debug)]
pub struct SimulationOutcome {
    /// The per-pair simulation results discovered so far, unsorted.
    pub results: Vec<SimulationResult>,
    /// `Some` when the walk stopped early on budget exhaustion.
    pub stopped: Option<BailoutReason>,
    /// DSTs whose evaluation panicked, as `(pred, merge, message)`; the
    /// pair is simply skipped (no candidate, no result).
    pub panicked: Vec<(BlockId, BlockId, String)>,
}

/// Simulates every predecessor→merge duplication in `g` and returns the
/// per-pair results, unsorted. Dominators and frequencies are pulled
/// through `cache`, so repeated simulations of an unchanged graph cost no
/// analysis recomputation.
pub fn simulate(g: &Graph, model: &CostModel, cache: &mut AnalysisCache) -> Vec<SimulationResult> {
    simulate_paths(g, model, cache, 1)
}

/// Whether DSTs may continue through a statically-decided branch (the
/// branch-splitting extension). The convenience wrappers enable it; the
/// phase threads its `enable_branch_splitting` config knob through
/// [`simulate_paths_budgeted`].
pub const BRANCH_SPLIT_DEFAULT: bool = true;

/// Like [`simulate`], but lets the DST continue across up to
/// `max_path_len` consecutive merges connected by jumps — the §8
/// "duplication over multiple merges along paths" extension. Every
/// prefix of a path is reported as its own candidate, so the trade-off
/// tier can stop at the profitable length.
pub fn simulate_paths(
    g: &Graph,
    model: &CostModel,
    cache: &mut AnalysisCache,
    max_path_len: usize,
) -> Vec<SimulationResult> {
    simulate_paths_budgeted(
        g,
        model,
        cache,
        max_path_len,
        &Budget::unlimited(),
        BRANCH_SPLIT_DEFAULT,
    )
    .results
}

/// Like [`simulate_paths`], but cooperatively polls `budget` (one fuel
/// unit per instruction visited plus one per block, see the module docs)
/// and isolates each DST behind a panic guard; `branch_split` gates the
/// branch-splitting continuation. Budget exhaustion stops the walk and
/// reports what was found so far; a panicking DST only loses that one
/// predecessor→merge pair.
pub fn simulate_paths_budgeted(
    g: &Graph,
    model: &CostModel,
    cache: &mut AnalysisCache,
    max_path_len: usize,
    budget: &Budget,
    branch_split: bool,
) -> SimulationOutcome {
    let dt = cache.domtree(g);
    let freqs = cache.frequencies(g);
    let mut walk = Walk {
        g,
        model,
        dt: &dt,
        freqs: &freqs,
        budget,
        max_path_len: max_path_len.max(1),
        branch_split,
        results: Vec::new(),
        panicked: Vec::new(),
    };
    let stopped = walk.run().err();
    SimulationOutcome {
        results: walk.results,
        stopped,
        panicked: walk.panicked,
    }
}

/// State of the dominator-tree walk.
struct Walk<'a> {
    g: &'a Graph,
    model: &'a CostModel,
    dt: &'a DomTree,
    freqs: &'a BlockFrequencies,
    budget: &'a Budget,
    max_path_len: usize,
    branch_split: bool,
    results: Vec<SimulationResult>,
    panicked: Vec<(BlockId, BlockId, String)>,
}

impl Walk<'_> {
    /// Visits the dominator tree in preorder with one [`FactEnv`]. The
    /// path from the entry to the block in hand is a stack of
    /// `(block, mark)` frames, the mark taken before the block's entry
    /// step ([`FactEnv::enter_child`]); leaving a block rolls its facts
    /// back. Mirrors the canonicalization pass's fact propagation; never
    /// mutates the graph, and never recurses, so the depth of the tree
    /// does not touch the thread's stack.
    ///
    /// # Errors
    ///
    /// The budget exhaustion that stopped the walk.
    fn run(&mut self) -> Result<(), BailoutReason> {
        let g = self.g;
        let dt = self.dt;
        let mut env = FactEnv::new();
        let mut path: Vec<(BlockId, Mark)> = Vec::new();
        for &b in dt.preorder() {
            let parent = dt.idom(b);
            while let Some(&(top, mark)) = path.last() {
                if Some(top) == parent {
                    break;
                }
                env.rollback_to(mark);
                path.pop();
            }
            let mark = env.mark();
            if let Some(p) = parent {
                env.enter_child(g, p, b);
            }
            self.visit(b, &mut env)?;
            path.push((b, mark));
        }
        Ok(())
    }

    /// Visits `b` under the facts valid on entry: accumulates its facts,
    /// then runs a DST for each of its merge successors (the gray blocks
    /// of Figure 2 in the paper), each on a mark it rolls back to after
    /// the DST returned or panicked.
    ///
    /// # Errors
    ///
    /// The budget exhaustion that stopped the walk.
    fn visit(&mut self, b: BlockId, env: &mut FactEnv) -> Result<(), BailoutReason> {
        let g = self.g;
        self.budget.consume(g.block_insts(b).len() as u64 + 1)?;

        accumulate_block_facts(g, env, b);

        for s in g.succs(b) {
            if s != b && g.is_merge(s) {
                let mark = env.mark();
                env.assume_edge(g, b, s);
                self.budget.check()?;
                let mut work = DstWork::default();
                let dst = isolate(|| {
                    // An injected exhaustion surfaces at the charge below.
                    fault_point("simulation/dst", None);
                    run_dst(
                        g,
                        self.model,
                        path_probability(g, self.freqs, b, s),
                        &mut work,
                        env,
                        b,
                        s,
                        self.max_path_len,
                        self.branch_split,
                    )
                });
                env.rollback_to(mark);
                self.budget.consume(work.fuel)?;
                match dst {
                    Ok(results) => self.results.extend(results),
                    Err(BailoutReason::TransformPanicked(msg)) => self.panicked.push((b, s, msg)),
                    // `isolate` only errs with `TransformPanicked`; keep
                    // the reason rather than losing it if that changes.
                    Err(other) => self.panicked.push((b, s, format!("{other:?}"))),
                }
            }
        }
        Ok(())
    }
}

/// The immediate-dominator chain entry → … → `b` on the dominance
/// relation `dt`, in walk order. `None` when `b` is unreachable. The
/// chain is exactly the set of blocks whose contents determine the fact
/// environment the simulation tier saw at `b`, which makes it the
/// interference footprint the optimization tier checks candidates
/// against.
pub(crate) fn dominator_chain(g: &Graph, dt: &Dominators, b: BlockId) -> Option<Vec<BlockId>> {
    if !dt.is_reachable(b) {
        return None;
    }
    let mut chain = vec![b];
    let mut cur = b;
    while cur != g.entry() {
        cur = dt.idom(cur)?;
        chain.push(cur);
    }
    chain.reverse();
    Some(chain)
}

/// Re-runs the applicability analysis of one recorded candidate against
/// the *current* graph — the optimization tier's prediction audit.
///
/// The simulation tier promises that every recorded [`Opportunity`] will
/// still fire when the optimization tier finally duplicates (§4.1's
/// simulation → §5's application contract). Between recording and
/// application, though, earlier accepted candidates have already mutated
/// the graph. This function replays the dominator-path fact accumulation
/// for `s.pred` on the graph as it stands *now* and runs the DST again,
/// returning the opportunities the analysis would record today.
///
/// The replay is exact, not approximate: during the walk, the fact
/// environment at a block is a function of its dominator-tree path from
/// entry alone. The walk enters each block from its parent's facts — it
/// rolls every other subtree's writes back before — and the entry step
/// ([`FactEnv::enter_child`]) reads only the child's predecessor list and the
/// parent's terminator. So walking the immediate-dominator chain linearly
/// reproduces the facts the walk held there. On an unmutated graph the
/// result always equals the recorded opportunities; any mismatch after
/// mutation is a genuine misprediction.
///
/// This is the reference form: it replays from the entry block on a fresh
/// environment. The phase audits through an [`AuditMemo`], which resumes
/// from the previous audit's chain.
///
/// Returns `None` when the candidate no longer exists at all (`s.pred`
/// became unreachable).
pub fn audit_opportunities(
    g: &Graph,
    model: &CostModel,
    cache: &mut AnalysisCache,
    s: &SimulationResult,
) -> Option<Vec<Opportunity>> {
    let chain = dominator_chain(g, &cache.dominators(g), s.pred)?;
    replay_from_entry(g, model, &chain, s)
}

/// The audit of `s` on a fresh environment replayed along all of `chain`.
fn replay_from_entry(
    g: &Graph,
    model: &CostModel,
    chain: &[BlockId],
    s: &SimulationResult,
) -> Option<Vec<Opportunity>> {
    let mut env = FactEnv::new();
    for k in 0..chain.len() {
        replay_step(g, &mut env, chain, k);
    }
    audit_dst(g, model, &mut env, s, &mut DstWork::default())
}

/// Accumulates the facts of `chain[k]` onto the facts of `chain[..k]`,
/// the way the walk enters it from its dominator-tree parent.
fn replay_step(g: &Graph, env: &mut FactEnv, chain: &[BlockId], k: usize) {
    if k > 0 {
        env.enter_child(g, chain[k - 1], chain[k]);
    }
    accumulate_block_facts(g, env, chain[k]);
}

/// Runs the DST of `s` on the facts valid at the end of `s.pred` and
/// rolls them back again; returns the opportunities of the longest prefix
/// of the recorded path that is still walkable.
fn audit_dst(
    g: &Graph,
    model: &CostModel,
    env: &mut FactEnv,
    s: &SimulationResult,
    work: &mut DstWork,
) -> Option<Vec<Opportunity>> {
    let mark = env.mark();
    env.assume_edge(g, s.pred, s.merge);
    let results = run_dst(
        g,
        model,
        // Only the opportunities are read back, and they do not depend on
        // the path's probability: no loop forest or block frequencies are
        // rebuilt for a graph the previous duplication just changed.
        0.0,
        // Auditing never charges the phase's fuel.
        work,
        env,
        s.pred,
        s.merge,
        s.path.len().max(1),
        // Always allow the fold continuation during audit: whether a
        // recorded BranchSplit path still walks must depend on the graph,
        // not on the phase's enablement knob.
        true,
    );
    env.rollback_to(mark);
    // The DST emits one result per path prefix; pick the longest prefix
    // of the recorded path that is still walkable.
    results
        .into_iter()
        .filter(|r| s.path.starts_with(&r.path))
        .max_by_key(|r| r.path.len())
        .map(|r| r.opportunities)
}

/// Whether every memoized audit is held to a replay from the entry block.
const MEMO_ORACLE: bool = cfg!(debug_assertions);

/// Deterministic work counters of the prediction audits one round ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct AuditWork {
    /// Audits run.
    pub(crate) runs: u64,
    /// Dominator-chain blocks whose facts were (re)accumulated.
    pub(crate) blocks_replayed: u64,
    /// Instructions evaluated: those of the replayed blocks plus those
    /// the audits' DSTs evaluated.
    pub(crate) insts_evaluated: u64,
}

/// The prediction audit's memo: the facts along the last audited
/// dominator chain, kept on one environment with one trail mark per
/// chain block. The next audit rolls back to the longest prefix its chain
/// shares with the memo and replays only below it — exact by the argument
/// on [`audit_opportunities`], as long as no block of the kept prefix
/// changed since it was replayed. [`AuditMemo::invalidate`] keeps that
/// so; a rolled-back duplication needs nothing, since the undo log
/// restores the graph exactly.
#[derive(Debug)]
pub(crate) struct AuditMemo {
    env: FactEnv,
    /// The memoized chain, entry first.
    chain: Vec<BlockId>,
    /// `marks[k]` is the trail point holding exactly the facts of
    /// `chain[..k]`; one more mark than chain blocks.
    marks: Vec<Mark>,
    pub(crate) work: AuditWork,
}

impl AuditMemo {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        let env = FactEnv::new();
        AuditMemo {
            marks: vec![env.mark()],
            env,
            chain: Vec::new(),
            work: AuditWork::default(),
        }
    }

    /// Keeps only the facts of `chain[..len]`.
    fn truncate(&mut self, len: usize) {
        self.env.rollback_to(self.marks[len]);
        self.chain.truncate(len);
        self.marks.truncate(len + 1);
    }

    /// Forgets every memoized block (a pass starts on a graph the memo
    /// may not describe).
    pub(crate) fn clear(&mut self) {
        self.truncate(0);
    }

    /// Drops the memo from the first chain block `changed` holds on: that
    /// block's facts, and so every later block's, may no longer be what a
    /// replay would find.
    pub(crate) fn invalidate(&mut self, changed: &HashSet<BlockId>) {
        if let Some(k) = self.chain.iter().position(|b| changed.contains(b)) {
            self.truncate(k);
        }
    }

    /// [`audit_opportunities`] for `s`, resuming from the memo. Under
    /// [`MEMO_ORACLE`] the result is held to a replay from the entry
    /// block, and the first disagreement is left in `oracle`.
    pub(crate) fn audit(
        &mut self,
        g: &Graph,
        model: &CostModel,
        cache: &mut AnalysisCache,
        s: &SimulationResult,
        oracle: &mut Option<String>,
    ) -> Option<Vec<Opportunity>> {
        self.work.runs += 1;
        let chain = dominator_chain(g, &cache.dominators(g), s.pred)?;
        let shared = self
            .chain
            .iter()
            .zip(&chain)
            .take_while(|(a, b)| a == b)
            .count();
        self.truncate(shared);
        for k in shared..chain.len() {
            replay_step(g, &mut self.env, &chain, k);
            self.chain.push(chain[k]);
            self.marks.push(self.env.mark());
            self.work.blocks_replayed += 1;
            self.work.insts_evaluated += g.block_insts(chain[k]).len() as u64;
        }
        let mut dst = DstWork::default();
        let rerun = audit_dst(g, model, &mut self.env, s, &mut dst);
        self.work.insts_evaluated += dst.evaluated;
        if MEMO_ORACLE && oracle.is_none() {
            let expected = replay_from_entry(g, model, &chain, s);
            if rerun != expected {
                *oracle = Some(format!(
                    "auditing ({} -> {}): the memoized audit found {rerun:?}, \
                     a replay from the entry {expected:?}",
                    s.pred, s.merge
                ));
            }
        }
        rerun
    }
}

/// Counts the recorded opportunities the re-run analysis no longer
/// predicts, matching on `(inst, kind)`. The cost estimates are allowed
/// to drift (frequencies change as the graph grows); the *applicability*
/// is what the simulation tier promised.
pub fn count_mispredictions(recorded: &[Opportunity], rerun: &[Opportunity]) -> usize {
    recorded
        .iter()
        .filter(|o| !rerun.iter().any(|r| r.inst == o.inst && r.kind == o.kind))
        .count()
}

/// Evaluates `b`'s instructions to accumulate facts in `env` — the one
/// block step shared by [`Walk::visit`] and the audit's replay, so
/// the audit replays the walk's facts by construction. Fresh allocations
/// become virtual objects so PEA-style reasoning can see through them;
/// `record_effects` materializes them on any escape.
fn accumulate_block_facts(g: &Graph, env: &mut FactEnv, b: BlockId) {
    for &i in g.block_insts(b) {
        let eval = evaluate(g, env, i);
        if let Inst::New { class } = g.inst(i) {
            env.add_virtual(i, *class);
        }
        record_effects(g, env, i, &eval);
    }
}

/// The relative execution probability of the path through `pred → merge`
/// (§5.3): `pred`'s frequency times the edge probability, normalized by
/// the hottest block.
fn path_probability(g: &Graph, freqs: &BlockFrequencies, pred: BlockId, merge: BlockId) -> f64 {
    if freqs.max_freq() > 0.0 {
        freqs.freq(pred) * dbds_analysis::edge_probability(g, pred, merge) / freqs.max_freq()
    } else {
        0.0
    }
}

/// What one DST visited, added up as it goes (so a panicking DST still
/// reports what it visited before the panic).
#[derive(Clone, Copy, Debug, Default)]
struct DstWork {
    /// The fuel the walk charges for it: each segment's instructions plus
    /// one.
    fuel: u64,
    /// The instructions it evaluated: each segment's besides its φs, which
    /// only seed synonyms.
    evaluated: u64,
}

/// Runs one duplication simulation traversal for `(pred, merge)` under
/// `env` (the facts valid at the end of `pred` plus the edge condition),
/// adding what it visited to `work`. It writes its own facts into `env`;
/// the caller rolls them back. Every result carries `probability`
/// ([`path_probability`]) unchanged.
#[allow(clippy::too_many_arguments)]
fn run_dst(
    g: &Graph,
    model: &CostModel,
    probability: f64,
    work: &mut DstWork,
    env: &mut FactEnv,
    pred: BlockId,
    merge: BlockId,
    max_path_len: usize,
    branch_split: bool,
) -> Vec<SimulationResult> {
    let mut acc = SegmentAcc {
        opportunities: Vec::new(),
        cycles_saved: 0.0,
        size_cost: 0,
    };
    let mut results = Vec::new();
    let mut path: Vec<BlockId> = Vec::new();
    let mut cur_pred = pred;
    let mut cur_merge = merge;
    // Set once the walk continues *through* a statically-decided branch
    // (the branch-splitting hop); the segment after it is the last.
    let mut via_fold = false;
    loop {
        path.push(cur_merge);
        let insts = g.block_insts(cur_merge).len();
        work.fuel += insts as u64 + 1;
        work.evaluated += (insts - g.phis(cur_merge).len()) as u64;
        let saved_before = acc.cycles_saved;
        let continuation = simulate_segment(g, model, env, cur_pred, cur_merge, &mut acc);
        // The trade-off tier ranks by `probability * cycles_saved`;
        // non-finite estimates would poison that total order (the NaN
        // comparator bug), so reject them at construction.
        debug_assert!(
            probability.is_finite() && acc.cycles_saved.is_finite(),
            "non-finite simulation estimate for ({pred} -> {merge}): \
             p={probability}, cycles_saved={}",
            acc.cycles_saved
        );
        // A split extension only earns its keep when the hop itself
        // uncovered further savings — otherwise the shorter merge-dup
        // prefix (already emitted) subsumes it and the candidate list
        // stays free of no-op split variants.
        if !via_fold || acc.cycles_saved > saved_before {
            results.push(SimulationResult {
                pred,
                merge,
                kind: if via_fold {
                    CandidateKind::BranchSplit
                } else {
                    CandidateKind::MergeDup
                },
                path: path.clone(),
                probability,
                cycles_saved: acc.cycles_saved,
                size_cost: acc.size_cost,
                opportunities: acc.opportunities.clone(),
            });
        }
        if via_fold {
            break; // a single hop through a decided branch
        }
        // §8 path extension: continue through an unconditional jump into a
        // further merge (each prefix was already emitted above) — or, when
        // branch splitting is on, through a branch this path decided
        // statically (the probability is unchanged: the branch has exactly
        // one live successor on this path).
        match continuation {
            SegmentCont::Jump(next)
                if path.len() < max_path_len
                    && g.is_merge(next)
                    && next != cur_merge
                    && !path.contains(&next)
                    && next != pred =>
            {
                cur_pred = cur_merge;
                cur_merge = next;
            }
            SegmentCont::Folded(next)
                if branch_split && next != cur_merge && !path.contains(&next) && next != pred =>
            {
                via_fold = true;
                cur_pred = cur_merge;
                cur_merge = next;
            }
            _ => break,
        }
    }
    results
}

/// Running totals while a DST walks one or more merge segments.
struct SegmentAcc {
    opportunities: Vec<Opportunity>,
    cycles_saved: f64,
    size_cost: i64,
}

/// How one simulated segment ended: stop, an unconditional jump the §8
/// path extension may follow, or a branch the path's facts decided
/// statically (the branch-splitting continuation may follow its taken
/// successor).
enum SegmentCont {
    Stop,
    Jump(BlockId),
    Folded(BlockId),
}

/// Evaluates one merge block of a DST path under `env` (facts valid at
/// the end of `pred`), accumulating into `acc`. Returns how the
/// (possibly folded) terminator allows the path to continue.
fn simulate_segment(
    g: &Graph,
    model: &CostModel,
    env: &mut FactEnv,
    pred: BlockId,
    merge: BlockId,
    acc: &mut SegmentAcc,
) -> SegmentCont {
    let k = g.pred_index(merge, pred);

    // Seed the synonym map: every φ of the merge maps to its input on the
    // `pred` edge ("the synonym of relation" of Figure 3d).
    let phis: Vec<InstId> = g.phis(merge).to_vec();
    for &phi in &phis {
        let input = match g.inst(phi) {
            Inst::Phi { inputs } => inputs[k],
            _ => unreachable!(),
        };
        if env.resolve(input).id == phi {
            continue; // degenerate self-reference through a back edge
        }
        env.set_synonym(phi, Synonym::Value(input));

        // Predicted scalar replacement (Listing 3/4): if the φ input is an
        // allocation whose only escape is this φ, duplicating removes the
        // escape and the allocation dissolves.
        let rep = env.resolve(input).id;
        if let Inst::New { class } = g.inst(rep) {
            if escapes_only_via_merge_phis(g, rep, merge) {
                env.add_virtual(rep, *class);
                let saved = f64::from(model.cycles(InstKind::New));
                acc.cycles_saved += saved;
                acc.size_cost -= i64::from(model.size(InstKind::New));
                acc.opportunities.push(Opportunity {
                    inst: rep,
                    kind: OptKind::ScalarReplace,
                    cycles_saved: saved,
                    size_delta: -i64::from(model.size(InstKind::New)),
                });
            }
        }
    }

    // Walk the merge block's body as if appended to `pred`.
    for &i in &g.block_insts(merge)[phis.len()..] {
        let kind = g.inst(i).kind();
        let old_cycles = f64::from(model.cycles(kind));
        let old_size = i64::from(model.size(kind));
        let eval = evaluate(g, env, i);
        if let Inst::New { class } = g.inst(i) {
            env.add_virtual(i, *class);
        }
        match &eval.verdict {
            Verdict::Keep => {
                acc.size_cost += old_size;
            }
            Verdict::Const(_) => {
                acc.cycles_saved += old_cycles;
                acc.size_cost += i64::from(model.size(InstKind::Const));
                acc.opportunities.push(Opportunity {
                    inst: i,
                    kind: eval.kind.expect("progress has a kind"),
                    cycles_saved: old_cycles,
                    size_delta: i64::from(model.size(InstKind::Const)) - old_size,
                });
            }
            Verdict::Alias(_) | Verdict::Eliminated => {
                acc.cycles_saved += old_cycles;
                acc.opportunities.push(Opportunity {
                    inst: i,
                    kind: eval.kind.expect("progress has a kind"),
                    cycles_saved: old_cycles,
                    size_delta: -old_size,
                });
            }
            Verdict::Rewrite { op, .. } => {
                let new_kind = InstKind::from(*op);
                let saved = old_cycles - f64::from(model.cycles(new_kind));
                let new_size =
                    i64::from(model.size(new_kind)) + i64::from(model.size(InstKind::Const));
                acc.cycles_saved += saved;
                acc.size_cost += new_size;
                acc.opportunities.push(Opportunity {
                    inst: i,
                    kind: eval.kind.expect("progress has a kind"),
                    cycles_saved: saved,
                    size_delta: new_size - old_size,
                });
            }
        }
        record_effects(g, env, i, &eval);
    }

    // The copied terminator: a branch whose condition became a constant
    // folds to a jump.
    match g.terminator(merge) {
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
            ..
        } => match env.branch_decision(g, merge) {
            Some(taken) => {
                let saved = f64::from(model.cycles(InstKind::Branch))
                    - f64::from(model.cycles(InstKind::Jump));
                acc.cycles_saved += saved;
                acc.size_cost += i64::from(model.size(InstKind::Jump));
                acc.opportunities.push(Opportunity {
                    inst: *cond,
                    kind: OptKind::ConditionalElim,
                    cycles_saved: saved,
                    size_delta: i64::from(model.size(InstKind::Jump))
                        - i64::from(model.size(InstKind::Branch)),
                });
                SegmentCont::Folded(if taken { *then_bb } else { *else_bb })
            }
            None => {
                acc.size_cost += i64::from(model.size(InstKind::Branch));
                SegmentCont::Stop
            }
        },
        Terminator::Jump { target } => {
            acc.size_cost += i64::from(model.size(InstKind::Jump));
            SegmentCont::Jump(*target)
        }
        term => {
            acc.size_cost += i64::from(model.size(term.kind()));
            SegmentCont::Stop
        }
    }
}

/// Returns `true` when every use of `alloc` is a field access, a foldable
/// test, or an input of a φ belonging to `merge` — i.e. duplicating
/// `merge` removes the only escape.
fn escapes_only_via_merge_phis(g: &Graph, alloc: InstId, merge: BlockId) -> bool {
    g.uses(alloc).all(|user| match user {
        Use::Inst(i) => match g.inst(i) {
            Inst::LoadField { object, .. } | Inst::InstanceOf { object, .. } => *object == alloc,
            Inst::StoreField { object, value, .. } => *object == alloc && *value != alloc,
            Inst::Phi { .. } => g.block_of(i) == Some(merge),
            _ => false,
        },
        Use::Term(_) => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    fn model() -> CostModel {
        CostModel::new()
    }

    /// Figure 3's program f: x / φ(a>b ? x : 2) — on the false path the
    /// division strength-reduces to a shift, CS = 31.
    fn figure3() -> (Graph, BlockId, BlockId, BlockId) {
        let mut b = GraphBuilder::new("f", &[Type::Int, Type::Int, Type::Int], empty_table());
        let a = b.param(0);
        let bb = b.param(1);
        let x = b.param(2);
        // Give x a non-negative stamp via a dominating guard: x >= 0.
        let zero = b.iconst(0);
        let guard = b.cmp(CmpOp::Ge, x, zero);
        let (bg, bdeopt) = (b.new_block(), b.new_block());
        b.branch(guard, bg, bdeopt, 0.999);
        b.switch_to(bdeopt);
        b.deopt();
        b.switch_to(bg);
        let two = b.iconst(2);
        let c = b.cmp(CmpOp::Gt, a, bb);
        let (bp1, bp2, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bp1, bp2, 0.5);
        b.switch_to(bp1);
        b.jump(bm);
        b.switch_to(bp2);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![x, two], Type::Int);
        let div = b.div(x, phi);
        b.ret(Some(div));
        (b.finish(), bp1, bp2, bm)
    }

    #[test]
    fn figure3_division_saves_31_cycles_on_constant_path() {
        let (g, bp1, bp2, bm) = figure3();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        let r2 = results
            .iter()
            .find(|r| r.pred == bp2 && r.merge == bm)
            .expect("pair (bp2, bm) simulated");
        // φ → 2, so x / 2 → x >> 1: CS = 32 − 1 = 31 (§4.1).
        assert!(
            (r2.cycles_saved - 31.0).abs() < 1e-9,
            "expected CS 31, got {}",
            r2.cycles_saved
        );
        assert_eq!(r2.opportunities.len(), 1);
        assert_eq!(r2.opportunities[0].kind, OptKind::StrengthReduce);

        // On the x path the φ becomes x: x / x is NOT reduced by our rules
        // (x may be 0), so no benefit.
        let r1 = results
            .iter()
            .find(|r| r.pred == bp1 && r.merge == bm)
            .expect("pair (bp1, bm) simulated");
        assert!(r1.cycles_saved < 31.0);
    }

    #[test]
    fn figure1_constant_folding_detected() {
        let mut b = GraphBuilder::new("foo", &[Type::Int], empty_table());
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![x, zero], Type::Int);
        let two = b.iconst(2);
        let sum = b.add(two, phi);
        b.ret(Some(sum));
        let g = b.finish();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        assert_eq!(results.len(), 2);
        let rf = results.iter().find(|r| r.pred == bf).unwrap();
        // 2 + 0 constant-folds: CS = cycles(Add) = 1.
        assert!(rf.cycles_saved >= 1.0);
        assert!(rf
            .opportunities
            .iter()
            .any(|o| o.kind == OptKind::ConstantFold));
        let rt = results.iter().find(|r| r.pred == bt).unwrap();
        // 2 + x does not fold.
        assert!(rt.opportunities.is_empty());
    }

    #[test]
    fn listing1_conditional_elimination_detected() {
        // if (i > 0) p = i else p = 13; if (p > 12) return 12; return i.
        let mut b = GraphBuilder::new("ce", &[Type::Int], empty_table());
        let i = b.param(0);
        let zero = b.iconst(0);
        let thirteen = b.iconst(13);
        let twelve = b.iconst(12);
        let c = b.cmp(CmpOp::Gt, i, zero);
        let (bt, bf, bm, b12, bi) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let p = b.phi(vec![i, thirteen], Type::Int);
        let c2 = b.cmp(CmpOp::Gt, p, twelve);
        b.branch(c2, b12, bi, 0.5);
        b.switch_to(b12);
        b.ret(Some(twelve));
        b.switch_to(bi);
        b.ret(Some(i));
        let g = b.finish();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        // On the false path p = 13 > 12 is true: compare folds + branch
        // folds.
        let rf = results.iter().find(|r| r.pred == bf).unwrap();
        let kinds: Vec<OptKind> = rf.opportunities.iter().map(|o| o.kind).collect();
        // The compare of two pinned constants folds (classified as CF) and
        // the branch on it disappears (classified as CE).
        assert!(
            kinds.contains(&OptKind::ConditionalElim) && kinds.len() >= 2,
            "expected compare + branch fold, got {kinds:?}"
        );
        // On the true path i > 0 does not pin i > 12: no fold.
        let rt = results.iter().find(|r| r.pred == bt).unwrap();
        assert!(rt.opportunities.len() < rf.opportunities.len());
    }

    #[test]
    fn listing3_pea_detected() {
        // if (a == null) p = new A(0) else p = a; return p.x.
        let mut t = ClassTable::new();
        let acls = t.add_class("A");
        let fx = t.add_field(acls, "x", Type::Int);
        let mut b = GraphBuilder::new("pea", &[Type::Ref(acls)], Arc::new(t));
        let a = b.param(0);
        let null = b.null(acls);
        let isnull = b.cmp(CmpOp::Eq, a, null);
        let (balloc, bpass, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(isnull, balloc, bpass, 0.5);
        b.switch_to(balloc);
        let fresh = b.new_object(acls);
        let zero = b.iconst(0);
        b.store(fresh, fx, zero);
        b.jump(bm);
        b.switch_to(bpass);
        b.jump(bm);
        b.switch_to(bm);
        let p = b.phi(vec![fresh, a], Type::Ref(acls));
        let load = b.load(p, fx);
        b.ret(Some(load));
        let g = b.finish();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        let ralloc = results.iter().find(|r| r.pred == balloc).unwrap();
        // Allocation elimination (8 cycles) + load from virtual (2 cycles).
        assert!(
            ralloc.cycles_saved >= 10.0,
            "expected ≥10 cycles saved, got {}",
            ralloc.cycles_saved
        );
        assert!(ralloc
            .opportunities
            .iter()
            .any(|o| o.kind == OptKind::ScalarReplace));
        // Negative size contribution from the removed allocation.
        let rpass = results.iter().find(|r| r.pred == bpass).unwrap();
        assert!(ralloc.size_cost < rpass.size_cost);
    }

    #[test]
    fn escape_check_judges_every_kind_of_user() {
        // entry: fresh = new A; branch → {bt, bf} → bm: p = φ(fresh, a).
        // Each case adds one more user of `fresh` to this graph.
        let mut t = ClassTable::new();
        let acls = t.add_class("A");
        let fx = t.add_field(acls, "x", Type::Int);
        let fnext = t.add_field(acls, "next", Type::Ref(acls));
        let mut b = GraphBuilder::new("esc", &[Type::Ref(acls), Type::Bool], Arc::new(t));
        let (a, c) = (b.param(0), b.param(1));
        let fresh = b.new_object(acls);
        let zero = b.iconst(0);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        b.phi(vec![fresh, a], Type::Ref(acls));
        b.ret(None);
        let base = b.finish();

        let user = |inst: Inst, ty: Type| {
            move |g: &mut Graph| {
                g.append_inst(bt, inst.clone(), ty);
            }
        };
        type Edit = Box<dyn Fn(&mut Graph)>;
        let store = |object, field, value| Inst::StoreField {
            object,
            field,
            value,
        };
        let cases: Vec<(&str, Edit, BlockId, bool)> = vec![
            ("phi of the merge", Box::new(|_| {}), bm, true),
            ("phi of another block", Box::new(|_| {}), bt, false),
            (
                "field load on it",
                Box::new(user(
                    Inst::LoadField {
                        object: fresh,
                        field: fx,
                    },
                    Type::Int,
                )),
                bm,
                true,
            ),
            (
                "field store on it",
                Box::new(user(store(fresh, fx, zero), Type::Void)),
                bm,
                true,
            ),
            (
                "stored as the value",
                Box::new(user(store(a, fnext, fresh), Type::Void)),
                bm,
                false,
            ),
            (
                "stored into itself",
                Box::new(user(store(fresh, fnext, fresh), Type::Void)),
                bm,
                false,
            ),
            (
                "instanceof",
                Box::new(user(
                    Inst::InstanceOf {
                        object: fresh,
                        class: acls,
                    },
                    Type::Bool,
                )),
                bm,
                true,
            ),
            (
                "call argument",
                Box::new(user(Inst::Invoke { args: vec![fresh] }, Type::Int)),
                bm,
                false,
            ),
            (
                "terminator use",
                Box::new(move |g| g.set_terminator(bm, Terminator::Return { value: Some(fresh) })),
                bm,
                false,
            ),
        ];
        for (name, edit, merge, expected) in cases {
            let mut g = base.clone();
            edit(&mut g);
            dbds_ir::verify(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                escapes_only_via_merge_phis(&g, fresh, merge),
                expected,
                "{name}"
            );
        }
    }

    #[test]
    fn listing5_read_elimination_detected() {
        // if (i > 0) { s = a.x } else { s = 0 }; return a.x.
        let mut t = ClassTable::new();
        let acls = t.add_class("A");
        let fx = t.add_field(acls, "x", Type::Int);
        let scls = t.add_class("S");
        let fs = t.add_field(scls, "s", Type::Int);
        let mut b = GraphBuilder::new(
            "re",
            &[Type::Ref(acls), Type::Int, Type::Ref(scls)],
            Arc::new(t),
        );
        let a = b.param(0);
        let i = b.param(1);
        let s = b.param(2);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, i, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let read1 = b.load(a, fx);
        b.store(s, fs, read1);
        b.jump(bm);
        b.switch_to(bf);
        b.store(s, fs, zero);
        b.jump(bm);
        b.switch_to(bm);
        let read2 = b.load(a, fx);
        b.ret(Some(read2));
        let g = b.finish();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        let rt = results.iter().find(|r| r.pred == bt).unwrap();
        // Read2 becomes fully redundant on the true path.
        assert!(rt.opportunities.iter().any(|o| o.kind == OptKind::ReadElim));
        let rf = results.iter().find(|r| r.pred == bf).unwrap();
        assert!(!rf.opportunities.iter().any(|o| o.kind == OptKind::ReadElim));
    }

    /// Listing 1 extended with a payload behind the second test: on the
    /// false path p = 13, so `p > 12` folds *and* the taken successor's
    /// `p + 1` folds too — which only branch splitting can reach.
    fn split_payoff() -> (Graph, BlockId, BlockId, BlockId, BlockId) {
        let mut b = GraphBuilder::new("bs", &[Type::Int], empty_table());
        let i = b.param(0);
        let zero = b.iconst(0);
        let thirteen = b.iconst(13);
        let twelve = b.iconst(12);
        let c = b.cmp(CmpOp::Gt, i, zero);
        let (bt, bf, bm, b12, bi) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let p = b.phi(vec![i, thirteen], Type::Int);
        let c2 = b.cmp(CmpOp::Gt, p, twelve);
        b.branch(c2, b12, bi, 0.5);
        b.switch_to(b12);
        let one = b.iconst(1);
        let q = b.add(p, one);
        b.ret(Some(q));
        b.switch_to(bi);
        b.ret(Some(i));
        (b.finish(), bt, bf, bm, b12)
    }

    #[test]
    fn branch_split_continues_through_a_decided_branch() {
        let (g, bt, bf, bm, b12) = split_payoff();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        // The false path decides c2: the DST threads through it into b12
        // where p + 1 folds, producing a strictly better split candidate
        // on top of the plain merge-dup prefix.
        let dup = results
            .iter()
            .find(|r| r.pred == bf && r.kind == CandidateKind::MergeDup)
            .expect("merge-dup prefix emitted");
        let split = results
            .iter()
            .find(|r| r.pred == bf && r.kind == CandidateKind::BranchSplit)
            .expect("split extension emitted");
        assert_eq!(split.path, vec![bm, b12]);
        assert_eq!(dup.path, vec![bm]);
        assert!(
            split.cycles_saved > dup.cycles_saved,
            "the hop must add savings ({} vs {})",
            split.cycles_saved,
            dup.cycles_saved
        );
        assert!(split
            .opportunities
            .iter()
            .any(|o| o.kind == OptKind::ConstantFold));
        // The true path decides nothing: no split candidate.
        assert!(!results
            .iter()
            .any(|r| r.pred == bt && r.kind == CandidateKind::BranchSplit));
    }

    #[test]
    fn trim_rule_drops_payoff_free_splits() {
        // Plain Listing 1: the taken successor only returns a constant —
        // the hop adds no cycles, so no BranchSplit variant is emitted
        // and the candidate list matches the pre-split corpus.
        let mut b = GraphBuilder::new("ce", &[Type::Int], empty_table());
        let i = b.param(0);
        let zero = b.iconst(0);
        let thirteen = b.iconst(13);
        let twelve = b.iconst(12);
        let c = b.cmp(CmpOp::Gt, i, zero);
        let (bt, bf, bm, b12, bi) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let p = b.phi(vec![i, thirteen], Type::Int);
        let c2 = b.cmp(CmpOp::Gt, p, twelve);
        b.branch(c2, b12, bi, 0.5);
        b.switch_to(b12);
        b.ret(Some(twelve));
        b.switch_to(bi);
        b.ret(Some(i));
        let g = b.finish();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        assert!(results
            .iter()
            .all(|r| r.kind == CandidateKind::MergeDup && r.path.len() == 1));
    }

    #[test]
    fn disabling_branch_split_suppresses_split_candidates() {
        let (g, _, _, _, _) = split_payoff();
        let outcome = simulate_paths_budgeted(
            &g,
            &model(),
            &mut AnalysisCache::new(),
            1,
            &Budget::unlimited(),
            false,
        );
        assert!(!outcome.results.is_empty());
        assert!(outcome
            .results
            .iter()
            .all(|r| r.kind == CandidateKind::MergeDup));
    }

    #[test]
    fn probability_reflects_edge_frequency() {
        let mut b = GraphBuilder::new("p", &[Type::Int], empty_table());
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.9);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![x, zero], Type::Int);
        b.ret(Some(phi));
        let g = b.finish();
        let results = simulate(&g, &model(), &mut AnalysisCache::new());
        let rt = results.iter().find(|r| r.pred == bt).unwrap();
        let rf = results.iter().find(|r| r.pred == bf).unwrap();
        assert!((rt.probability - 0.9).abs() < 1e-9);
        assert!((rf.probability - 0.1).abs() < 1e-9);
    }

    #[test]
    fn no_merges_no_results() {
        let mut b = GraphBuilder::new("s", &[Type::Int], empty_table());
        let x = b.param(0);
        b.ret(Some(x));
        let g = b.finish();
        assert!(simulate(&g, &model(), &mut AnalysisCache::new()).is_empty());
    }

    #[test]
    fn budgeted_simulation_matches_unbudgeted_when_unlimited() {
        use crate::bailout::Budget;
        let (g, _, _, _) = figure3();
        let plain = simulate(&g, &model(), &mut AnalysisCache::new());
        let outcome = simulate_paths_budgeted(
            &g,
            &model(),
            &mut AnalysisCache::new(),
            1,
            &Budget::unlimited(),
            BRANCH_SPLIT_DEFAULT,
        );
        assert!(outcome.stopped.is_none());
        assert!(outcome.panicked.is_empty());
        assert_eq!(outcome.results.len(), plain.len());
        for (a, b) in plain.iter().zip(&outcome.results) {
            assert_eq!((a.pred, a.merge), (b.pred, b.merge));
            assert_eq!(a.cycles_saved, b.cycles_saved);
        }
    }

    #[test]
    fn tiny_fuel_stops_the_walk_with_fuel_exhausted() {
        use crate::bailout::{BailoutReason, Budget, GuardConfig};
        let (g, _, _, _) = figure3();
        let guard = GuardConfig {
            fuel: Some(1),
            ..GuardConfig::default()
        };
        let budget = Budget::new(&guard);
        let outcome = simulate_paths_budgeted(
            &g,
            &model(),
            &mut AnalysisCache::new(),
            1,
            &budget,
            BRANCH_SPLIT_DEFAULT,
        );
        assert_eq!(outcome.stopped, Some(BailoutReason::FuelExhausted));
        // Partial results are still usable (possibly empty).
        assert!(outcome.results.len() <= 4);
    }

    #[test]
    fn a_dominator_tree_deeper_than_the_stack_is_walked() {
        // 5 000 blocks, each testing `x > 0` and branching to the next
        // block or to one shared exit merge: the tree is 5 000 levels
        // deep and every block forks a DST into the exit.
        const DEPTH: usize = 5_000;
        let mut b = GraphBuilder::new("chain", &[Type::Int], empty_table());
        let x = b.param(0);
        let zero = b.iconst(0);
        let exit = b.new_block();
        for _ in 0..DEPTH {
            let c = b.cmp(CmpOp::Gt, x, zero);
            let next = b.new_block();
            b.branch(c, next, exit, 0.9);
            b.switch_to(next);
        }
        b.ret(Some(x));
        b.switch_to(exit);
        b.ret(Some(zero));
        let g = b.finish();
        // A walk that recursed per level would overflow a 256 KiB stack,
        // which aborts the process.
        let outcome = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || {
                simulate_paths_budgeted(
                    &g,
                    &model(),
                    &mut AnalysisCache::new(),
                    1,
                    &Budget::unlimited(),
                    BRANCH_SPLIT_DEFAULT,
                )
            })
            .expect("spawn a small-stack thread")
            .join()
            .expect("the walk panicked");
        assert!(outcome.stopped.is_none() && outcome.panicked.is_empty());
        assert_eq!(outcome.results.len(), DEPTH);
    }

    #[test]
    fn audit_reproduces_recorded_opportunities_on_unchanged_graph() {
        // The contract the prediction audit relies on: replaying the
        // dominator chain gives back exactly the walk's facts, so
        // on an unmutated graph the audit confirms every opportunity of
        // every candidate.
        let (g, _, _, _) = figure3();
        let mut cache = AnalysisCache::new();
        let results = simulate(&g, &model(), &mut cache);
        assert!(!results.is_empty());
        for r in &results {
            let rerun = audit_opportunities(&g, &model(), &mut cache, r)
                .expect("candidate exists on the unchanged graph");
            assert_eq!(
                rerun, r.opportunities,
                "audit diverged for ({} -> {})",
                r.pred, r.merge
            );
            assert_eq!(count_mispredictions(&r.opportunities, &rerun), 0);
        }
    }

    #[test]
    fn audit_detects_fabricated_misprediction() {
        // Fail-first for LintId::Misprediction: tamper a recorded
        // opportunity so its applicability check cannot re-fire, and the
        // audit must flag it.
        let (g, _, bp2, bm) = figure3();
        let mut cache = AnalysisCache::new();
        let results = simulate(&g, &model(), &mut cache);
        let mut r = results
            .iter()
            .find(|r| r.pred == bp2 && r.merge == bm)
            .expect("pair simulated")
            .clone();
        assert!(!r.opportunities.is_empty());
        // Point the opportunity at an instruction the DST never visits.
        r.opportunities[0].inst = InstId(0);
        r.opportunities[0].kind = OptKind::ScalarReplace;
        let rerun =
            audit_opportunities(&g, &model(), &mut cache, &r).expect("candidate still exists");
        assert!(
            count_mispredictions(&r.opportunities, &rerun) >= 1,
            "tampered opportunity must be reported as mispredicted"
        );
    }

    #[test]
    fn audit_returns_none_for_unreachable_pred() {
        let (g, _, bp2, bm) = figure3();
        let mut cache = AnalysisCache::new();
        let results = simulate(&g, &model(), &mut cache);
        let mut r = results
            .iter()
            .find(|r| r.pred == bp2 && r.merge == bm)
            .expect("pair simulated")
            .clone();
        // A detached block is unreachable; the candidate is gone.
        let mut g2 = g.clone();
        let orphan = g2.add_block();
        r.pred = orphan;
        assert!(audit_opportunities(&g2, &model(), &mut AnalysisCache::new(), &r).is_none());
    }

    #[test]
    fn size_cost_matches_copy_size_when_nothing_fires() {
        // A merge whose body can't be optimized: the size cost is the full
        // copy (body + terminator).
        let mut b = GraphBuilder::new("sz", &[Type::Int, Type::Int], empty_table());
        let x = b.param(0);
        let y = b.param(1);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![x, y], Type::Int);
        let s = b.add(phi, y);
        let m = b.mul(s, s);
        b.ret(Some(m));
        let g = b.finish();
        let model = model();
        let results = simulate(&g, &model, &mut AnalysisCache::new());
        for r in &results {
            // add(1) + mul(1) + return(2) = 4 size units.
            assert_eq!(r.size_cost, 4, "pred {}", r.pred);
            assert!(r.opportunities.is_empty());
        }
    }
}
