//! The iterative DBDS phase driver (§5.2) and the compilation entry
//! point used by the evaluation harness.
//!
//! The phase runs simulate → trade-off → optimize for up to three
//! iterations (one duplication can expose an opportunity at the next
//! merge, but the optimization tier does not duplicate across multiple
//! merges at once). Another iteration only runs when the previous one's
//! cumulative benefit clears a threshold, and later iterations prefer
//! merges not yet duplicated.

use crate::bailout::{
    checkpoint, isolate, transact, BailoutReason, BailoutRecord, Budget, GuardConfig, Tier,
};
use crate::faultinject::{self, fault_point};
use crate::simulation::{
    count_mispredictions, dominator_chain, simulate_paths_budgeted, AuditMemo, CandidateKind,
    SimulationResult,
};
use crate::tradeoff::{select_with_rejections, SelectionMode, TradeoffConfig, MAX_UNIT_SIZE};
use crate::transform::{try_duplicate_with, DupScratch, Duplication};
use dbds_analysis::{AnalysisCache, CacheStats, Dominators};
use dbds_costmodel::CostModel;
use dbds_ir::{BlockId, Diagnostic, FastMap, FastSet, Graph, LintId, UndoStats};
use dbds_opt::{optimize, optimize_full, OptKind, OptimizeStats, MAX_ROUNDS};
use std::sync::Arc;
use std::time::Instant;

/// The compiler configuration under evaluation — the paper's benchmark
/// configurations plus the backtracking strategy of §3.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OptLevel {
    /// Standard optimizations only, duplication disabled.
    Baseline,
    /// The full DBDS algorithm (simulation + trade-off + optimization).
    Dbds,
    /// Simulation without the cost/benefit trade-off: every beneficial
    /// duplication is performed.
    Dupalot,
    /// The backtracking strategy: tentatively duplicate, fully optimize,
    /// keep only if the static estimate improved.
    Backtracking,
}

impl OptLevel {
    /// Stable lowercase name (used by the harness CLI).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Baseline => "baseline",
            OptLevel::Dbds => "dbds",
            OptLevel::Dupalot => "dupalot",
            OptLevel::Backtracking => "backtracking",
        }
    }
}

/// Tunables of the DBDS phase. Defaults follow the paper.
#[derive(Clone, Debug)]
pub struct DbdsConfig {
    /// Trade-off parameters (§5.4).
    pub tradeoff: TradeoffConfig,
    /// Maximum simulate→trade-off→optimize iterations (§5.2: 3).
    pub max_iterations: usize,
    /// Maximum number of consecutive merges a single candidate may cover.
    /// 1 reproduces the paper's shipped implementation; larger values
    /// enable the §8 future-work *path-based duplication*: the DST
    /// simulates through jump-connected merges and the optimization tier
    /// duplicates each merge of the accepted path in turn.
    pub max_path_length: usize,
    /// Bailout-and-recovery guardrails: fuel / deadline budgets, verified
    /// checkpoints and panic isolation.
    pub guard: GuardConfig,
    /// Worker threads for the *unit-level* compilation queue: how many
    /// independent compilation units a batch overlaps on
    /// [`crate::par::run_units`] (`0` = one per hardware thread; see
    /// [`DbdsConfig::unit_workers`]). Mirrors the paper's setting of DBDS
    /// as a per-unit phase inside a compiler that compiles units
    /// concurrently (§6); units are the only parallel grain. Results are
    /// committed in submission order, so reports are byte-identical for
    /// every value. The default honors `DBDS_UNIT_THREADS` and falls
    /// back to 1.
    pub unit_threads: usize,
    /// Whether the simulation tier may continue a DST *through* a branch
    /// terminator it decided statically, producing
    /// [`CandidateKind::BranchSplit`] candidates (conditional elimination
    /// through duplication). Priced by the same `shouldDuplicate` tier
    /// and applied through the same transactional machinery as classic
    /// merge duplication. Defaults to
    /// [`BRANCH_SPLIT_DEFAULT`](crate::BRANCH_SPLIT_DEFAULT).
    pub enable_branch_splitting: bool,
}

/// Minimum cumulative probability-weighted benefit of an iteration for
/// another one to run (§5.2: "only … if the cumulative benefit of the
/// previous one is above a certain threshold"). Calibrated so that only a
/// minority of units run a second iteration, matching §5.2's "this only
/// applies for about 20% of all compilation units".
const ITERATION_BENEFIT_THRESHOLD: f64 = 48.0;

/// The `unit_threads` default: `DBDS_UNIT_THREADS` when set to a number,
/// else 1 (sequential).
fn unit_threads_from_env() -> usize {
    std::env::var("DBDS_UNIT_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

impl Default for DbdsConfig {
    fn default() -> Self {
        DbdsConfig {
            tradeoff: TradeoffConfig::default(),
            max_iterations: 3,
            max_path_length: 1,
            guard: GuardConfig::default(),
            unit_threads: unit_threads_from_env(),
            enable_branch_splitting: crate::simulation::BRANCH_SPLIT_DEFAULT,
        }
    }
}

impl DbdsConfig {
    /// How many [`crate::par::run_units`] workers a batch of `units`
    /// independent compilations gets: [`DbdsConfig::unit_threads`], with
    /// `0` resolved to the machine's hardware threads, clamped to the
    /// batch size and never 0. Each unit owns its own
    /// [`dbds_analysis::AnalysisCache`] and fuel/deadline
    /// [`Budget`](crate::Budget) — both are created per
    /// [`run_dbds`]/[`compile`] call — so one unit's bailout never
    /// poisons a neighbor.
    pub fn unit_workers(&self, units: usize) -> usize {
        let requested = match self.unit_threads {
            0 => crate::par::hardware_threads(),
            n => n,
        };
        requested.clamp(1, units.max(1))
    }

    /// A stable fingerprint of every configuration field that can
    /// change the *result* of a compilation under `level` — the config
    /// half of the compilation service's content-addressed store key
    /// (the graph half is [`dbds_ir::content_hash`]).
    ///
    /// Included: the opt level, the trade-off parameters, the iteration
    /// limits, the path length and the fuel budget. Three slots hold
    /// constants, kept so that no stored entry's key moves: the unit-size
    /// limit `MS` and the iteration-benefit threshold (once fields) and
    /// the always-on checkpoint switch. Deliberately
    /// excluded, because results are proven invariant under them:
    /// `unit_threads` (bit-identical at any width)
    /// and `guard.deadline` (a deadline is wall-clock
    /// nondeterminism — the service never caches a compilation that a
    /// deadline cut short, see [`PhaseStats::stopped_early`]).
    pub fn fingerprint(&self, level: OptLevel) -> u64 {
        let mut h = dbds_ir::Fnv64::new();
        h.write_str("dbds-config-fingerprint-v2");
        h.write_str(level.name());
        h.write_u64(self.tradeoff.benefit_scale.to_bits());
        h.write_u64(self.tradeoff.size_increase_budget.to_bits());
        // This slot and the threshold's held config fields once; they keep
        // their constants' bits so that no stored entry's key moves.
        h.write_u64(MAX_UNIT_SIZE);
        h.write_u64(self.max_iterations as u64);
        h.write_u64(ITERATION_BENEFIT_THRESHOLD.to_bits());
        h.write_u64(self.max_path_length as u64);
        h.write_u64(self.guard.fuel.map_or(u64::MAX, |f| f));
        // The slot of the former `guard.checkpoints` switch (always on):
        // dropping it would change the key of every stored entry.
        h.write_u64(1);
        h.write_u64(u64::from(self.enable_branch_splitting));
        h.finish()
    }
}

/// Statistics of one compilation.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// DBDS iterations executed.
    pub iterations: usize,
    /// Predecessor→merge pairs simulated (across iterations).
    pub candidates: usize,
    /// Duplications performed.
    pub duplications: usize,
    /// Opportunities recorded by the simulation for the performed
    /// duplications, per optimization class.
    pub opportunities: FastMap<OptKind, usize>,
    /// Estimated code size before the phase.
    pub initial_size: u64,
    /// Estimated code size after the phase.
    pub final_size: u64,
    /// Work measure: instructions visited by simulation and rewriting
    /// (deterministic compile-effort proxy).
    pub work: u64,
    /// Wall-clock nanoseconds spent in the simulation tier.
    pub sim_ns: u128,
    /// Wall-clock nanoseconds spent performing duplications.
    pub transform_ns: u128,
    /// Wall-clock nanoseconds spent in the optimization pipeline
    /// (pre-pass, per-iteration cleanup and final fixpoint).
    pub opt_ns: u128,
    /// Wall-clock nanoseconds spent on guardrail bookkeeping (undo-log
    /// transactions, checkpoint verification, rollbacks) — kept out of
    /// `sim_ns` / `opt_ns` / `transform_ns` so those stay comparable to
    /// unguarded runs.
    pub guard_ns: u128,
    /// Primitive IR mutations recorded by the undo log while a
    /// transaction was open. Deterministic.
    pub undo_edits: u64,
    /// Undo-log transactions rolled back (contained candidate failures,
    /// rounds rejected at their boundary, rejected backtracking attempts,
    /// final-checkpoint recoveries).
    /// Deterministic.
    pub undo_rollbacks: u64,
    /// Peak number of backup entries the undo log held at any point,
    /// all open frames together — the O(edit) analog of a whole-graph
    /// snapshot's size. A first touch is backed up once, into the
    /// innermost frame, and handed outwards when that frame closes, so it
    /// counts once however many frames are open. Deterministic.
    pub undo_peak: usize,
    /// Wall-clock nanoseconds spent on undo-log bookkeeping
    /// (begin/commit/rollback). A subset of `guard_ns`; timing only.
    pub undo_ns: u128,
    /// Analysis-cache counters accumulated over the compilation
    /// (dominators, loops, frequencies served from / recomputed into the
    /// [`AnalysisCache`]).
    pub cache: CacheStats,
    /// Accepted opportunities whose applicability check no longer fired
    /// when re-run against the graph immediately before application (the
    /// prediction audit) even though *nothing the candidate depends on*
    /// — its dominator chain, merge or path — was mutated earlier in the
    /// round. Each such candidate was downgraded to a skip instead of
    /// being applied on a stale promise. A nonzero count is an alarm: the
    /// simulation tier broke its §4.1→§5 prediction contract.
    pub mispredictions: usize,
    /// Accepted candidates skipped because earlier duplications in the
    /// same round changed a block they depend on (read off the round's
    /// undo-log frame, [`Graph::for_each_txn_block`]), invalidating their
    /// recorded facts. Ordinary intra-round staleness, not a contract
    /// violation: the next iteration re-simulates them with fresh facts.
    pub stale_skips: usize,
    /// [`CandidateKind::BranchSplit`] candidates the simulation tier
    /// produced, across iterations (whether or not selected).
    pub split_candidates: usize,
    /// Accepted branch-split candidates actually applied (the merge
    /// duplication plus the hop through the statically-decided branch).
    pub split_applied: usize,
    /// Post-duplication dominance-frontier invariant violations: a fresh
    /// copy that, immediately after the transform, was not a tail copy
    /// of its source merge (one predecessor, the merge's successors), so
    /// their frontiers could diverge. Each one rolled its transaction
    /// back; a nonzero count is an alarm on the SSA/CFG repair.
    pub frontier_violations: usize,
    /// Prediction audits run (one per accepted candidate with recorded
    /// opportunities that was still a pair when its turn came).
    /// Deterministic.
    pub audit_runs: u64,
    /// Dominator-chain blocks the audits replayed: the blocks below the
    /// prefix each audit shared with the previous one's chain.
    /// Deterministic.
    pub audit_blocks_replayed: u64,
    /// Instructions the audits evaluated: those of the replayed blocks
    /// plus those their DSTs evaluated (a merge's φs only seed synonyms).
    /// Deterministic.
    pub audit_insts_evaluated: u64,
    /// Optimizer rounds run, over every optimizer call of the
    /// compilation. Deterministic.
    pub opt_rounds: u64,
    /// Instructions the optimizer's passes looked at
    /// ([`OptimizeStats::insts_visited`]), over every optimizer call.
    /// Deterministic.
    pub opt_insts_visited: u64,
    /// Every bailout incident of this compilation, in order.
    pub bailouts: Vec<BailoutRecord>,
}

impl PhaseStats {
    /// The reason the phase stopped *early* (a budget exhaustion that
    /// was not contained), if any: the first bailout record whose
    /// failure was not recovered. The graph is still verified in that
    /// case, but the result reflects how far the wall clock or fuel
    /// tank let the phase get — a deadline-truncated compilation is
    /// wall-clock-dependent, so the compilation service treats such a
    /// result as non-cacheable and answers with a typed error instead.
    pub fn stopped_early(&self) -> Option<&BailoutReason> {
        self.bailouts
            .iter()
            .find(|b| !b.recovered)
            .map(|b| &b.reason)
    }

    /// `true` when [`PhaseStats::stopped_early`] reports a missed
    /// wall-clock deadline — the per-request deadline plumbing of the
    /// compilation service.
    pub fn hit_deadline(&self) -> bool {
        matches!(self.stopped_early(), Some(BailoutReason::DeadlineExceeded))
    }

    /// Copies the cache counters accumulated between `base` and `cache`'s
    /// current state into these stats (delta form, so callers may share
    /// one long-lived cache across compilations).
    fn record_cache(&mut self, cache: &AnalysisCache, base: CacheStats) {
        let now = cache.stats();
        self.cache = CacheStats {
            hits: now.hits - base.hits,
            misses: now.misses - base.misses,
            invalidations: now.invalidations - base.invalidations,
            rev_hits: now.rev_hits - base.rev_hits,
            rev_misses: now.rev_misses - base.rev_misses,
            rev_invalidations: now.rev_invalidations - base.rev_invalidations,
            patches: now.patches - base.patches,
            dom_blocks_visited: now.dom_blocks_visited - base.dom_blocks_visited,
            dom_labels_written: now.dom_labels_written - base.dom_labels_written,
        };
    }

    /// Adds one optimizer call's work counters to these stats.
    pub(crate) fn record_opt(&mut self, opt: &OptimizeStats) {
        self.opt_rounds += opt.rounds as u64;
        self.opt_insts_visited += opt.insts_visited;
    }

    /// Copies the undo-log counters accumulated since `base` into these
    /// stats (`undo_peak` is the log's high-water mark, not a delta).
    pub(crate) fn record_undo(&mut self, g: &Graph, base: UndoStats) {
        let now = g.undo_stats();
        self.undo_edits = now.edits - base.edits;
        self.undo_rollbacks = now.rollbacks - base.rollbacks;
        self.undo_peak = now.peak_entries;
    }
}

/// Compiles `g` under the given configuration: the duplication phase
/// according to `level`, bracketed by the standard optimization pipeline.
pub fn compile(g: &mut Graph, model: &CostModel, level: OptLevel, cfg: &DbdsConfig) -> PhaseStats {
    let mut cache = AnalysisCache::new();
    match level {
        OptLevel::Baseline => {
            let mut stats = PhaseStats {
                initial_size: model.graph_size(g),
                ..PhaseStats::default()
            };
            let opt = optimize_full(g, &mut cache);
            stats.record_opt(&opt);
            stats.final_size = model.graph_size(g);
            stats.work = g.live_inst_count() as u64;
            stats.record_cache(&cache, CacheStats::default());
            stats
        }
        OptLevel::Dbds => run_dbds(g, model, cfg, SelectionMode::CostBenefit, &mut cache),
        OptLevel::Dupalot => run_dbds(g, model, cfg, SelectionMode::Dupalot, &mut cache),
        OptLevel::Backtracking => {
            let mut stats = crate::backtracking::run_backtracking(g, model, cfg, &mut cache);
            stats.record_cache(&cache, CacheStats::default());
            stats
        }
    }
}

/// Runs the full three-tier DBDS phase on `g`, pulling every CFG analysis
/// through `cache`.
///
/// The phase is guarded (see [`GuardConfig`]): fuel / deadline exhaustion
/// stops it early with a [`BailoutRecord`], a failing candidate rolls
/// its undo-log transaction back to the last verified state and the
/// remaining candidates continue — the returned graph always verifies.
pub fn run_dbds(
    g: &mut Graph,
    model: &CostModel,
    cfg: &DbdsConfig,
    mode: SelectionMode,
    cache: &mut AnalysisCache,
) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let cache_base = cache.stats();
    let undo_base = g.undo_stats();
    let budget = Budget::new(&cfg.guard);
    run_opt_tier(g, cache, &mut stats, true);
    stats.initial_size = model.graph_size(g);
    let mut visited: FastSet<BlockId> = FastSet::default();
    // Whether the phase-level recovery transaction is open: its marks are
    // the states known to verify (see [`Round::open`]).
    let mut recovery_open = false;

    for iteration in 0..cfg.max_iterations {
        // Tier 1: simulate every predecessor→merge pair.
        stats.iterations += 1;
        let t = Instant::now();
        let sim = simulate_paths_budgeted(
            g,
            model,
            cache,
            cfg.max_path_length,
            &budget,
            cfg.enable_branch_splitting,
        );
        stats.sim_ns += t.elapsed().as_nanos();
        stats.candidates += sim.results.len();
        stats.split_candidates += sim
            .results
            .iter()
            .filter(|r| r.kind == CandidateKind::BranchSplit)
            .count();
        stats.work += g.live_inst_count() as u64 * 2; // simulation visit
        let mut round = Round::new(model, cache, &budget);
        for (pred, merge, msg) in sim.panicked {
            round.settle((pred, merge), Fate::SimPanicked(msg));
        }
        // Tier 2: the trade-off, then the branch-split cross-check.
        let plan = match sim.stopped {
            Some(reason) => {
                round.stop(Tier::Simulation, reason);
                Vec::new()
            }
            None => {
                let selection = select_with_rejections(
                    &sim.results,
                    &cfg.tradeoff,
                    mode,
                    stats.initial_size,
                    model.graph_size(g),
                    &visited,
                );
                for candidate in selection.size_rejected {
                    round.settle(candidate, Fate::SizeRejected);
                }
                round.cross_check(g, selection.accepted)
            }
        };
        // Tier 3: duplicate what was accepted ...
        if !plan.is_empty() {
            round.open(g, &mut recovery_open);
            round.run(g, &plan);
        }
        let (cumulative, stopped) = round.close(&mut stats, &mut visited);
        // No iteration follows: the end fixpoint's first round is the
        // cleanup, so a round here would only be confirmed by it.
        if plan.is_empty()
            || stopped
            || cumulative < ITERATION_BENEFIT_THRESHOLD
            || iteration + 1 == cfg.max_iterations
        {
            break;
        }
        // ... and apply the enabled optimizations before the next
        // iteration simulates. One pipeline round suffices between
        // iterations (the paper applies the recorded action steps
        // locally); the full fixpoint runs once at the end.
        run_opt_tier(g, cache, &mut stats, false);
    }
    run_opt_tier(g, cache, &mut stats, true);
    final_checkpoint(g, cache, &mut stats, recovery_open);
    stats.final_size = model.graph_size(g);
    stats.record_cache(cache, cache_base);
    stats.record_undo(g, undo_base);
    stats
}

/// The phase's last guard. Every round ended on a graph its boundary —
/// or, after a rejection, its replay, duplication by duplication —
/// verified, so the extra whole-phase verify only runs while a fault plan
/// is armed on this thread or something already went wrong this
/// compilation; a graph it rejects rolls back to the latest recovery
/// mark. Then the recovery
/// transaction is retired.
fn final_checkpoint(
    g: &mut Graph,
    cache: &mut AnalysisCache,
    stats: &mut PhaseStats,
    mut recovery_open: bool,
) {
    if faultinject::armed() || stats.bailouts.iter().any(|b| b.tier != Tier::Tradeoff) {
        let tg = Instant::now();
        if let Err(reason) = checkpoint(g) {
            let recovered = recovery_open;
            if recovery_open {
                let tu = Instant::now();
                g.rollback_txn();
                stats.undo_ns += tu.elapsed().as_nanos();
                recovery_open = false;
            }
            stats.bailouts.push(BailoutRecord {
                reason,
                tier: Tier::Optimization,
                candidate: None,
                recovered,
            });
        }
        // Cached-analysis audit: any cache entry stamped with the current
        // CFG epoch must match a from-scratch recomputation. A divergence
        // is a stamping-discipline bug; recovery drops the cache so the
        // next lookup recomputes honestly.
        let stale = cache.audit(g);
        if let Some(first) = stale.first() {
            let reason = if stale.len() == 1 {
                first.message.clone()
            } else {
                format!("{} (+{} more)", first.message, stale.len() - 1)
            };
            cache.clear();
            stats.bailouts.push(BailoutRecord {
                reason: BailoutReason::VerifierRejected(reason),
                tier: Tier::Optimization,
                candidate: None,
                recovered: true,
            });
        }
        stats.guard_ns += tg.elapsed().as_nanos();
    }
    if recovery_open {
        // The compilation ends on a verified graph: retire the recovery
        // transaction.
        let tg = Instant::now();
        g.commit_txn();
        let ns = tg.elapsed().as_nanos();
        stats.guard_ns += ns;
        stats.undo_ns += ns;
    }
}

/// How a round checks the duplications it applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pass {
    /// After each duplication the O(1) tail-copy check and the O(edit)
    /// relation patch; the whole graph is verified once, at the round's
    /// boundary.
    Optimistic,
    /// A round its boundary rejected, run again from its start with the
    /// boundary check after every duplication, so a failing chain rolls
    /// back alone.
    Replay,
}

/// How a candidate left its round — or, logged without a candidate, how
/// the round's optimistic pass or the round itself ended. [`Round::close`]
/// turns each into counters and bailout records.
enum Fate<'s> {
    /// Simulating the pair panicked; the panic was contained.
    SimPanicked(String),
    /// Worth its cost, but a code-size budget turned it away.
    SizeRejected,
    /// A branch-split claim control dependence does not back: the taken
    /// successor post-dominates the branch.
    ControlDepRejected,
    /// Earlier duplications this round restructured the pair away.
    Vanished,
    /// The prediction audit failed on facts the round had already changed.
    Stale,
    /// The prediction audit failed on an undisturbed candidate: this many
    /// recorded opportunities no longer fire.
    Mispredicted(usize),
    /// Applied: every merge its chain duplicated, with that merge's
    /// instruction count.
    Applied(&'s SimulationResult, Vec<(BlockId, u64)>),
    /// A check failed and the chain's transaction rolled it back.
    RolledBack(Rejection),
    /// The boundary rejected the optimistic pass (or it panicked): it was
    /// rolled back, its log discarded, and the round replayed.
    BoundaryRejected(BailoutReason),
    /// A budget ran out in this tier: the round, and the phase, end here.
    Stopped(Tier, BailoutReason),
}

/// One iteration's candidates: each leaves through [`Round::settle`] into
/// an ordered log that [`Round::close`] folds into the phase's stats. A
/// non-empty plan runs behind the recovery mark [`Round::open`] takes;
/// the round owns the guard and undo time both its passes spend.
struct Round<'r, 's> {
    model: &'r CostModel,
    cache: &'r mut AnalysisCache,
    budget: &'r Budget,
    /// The sim-time dominance relation, taken when the round opens. A
    /// failed prediction audit compares a candidate's dominator chain on
    /// it against the current one to tell ordinary intra-round staleness
    /// from a broken simulation contract.
    sim_dominators: Option<Arc<Dominators>>,
    /// The relation the pass's last applied chain ended on (a failed chain
    /// rolls back to it, so it describes the graph at the boundary);
    /// `None` while the pass has applied nothing. Let go of while a chain
    /// runs, so that the chain's patches edit the cache's slot in place.
    relation: Option<Arc<Dominators>>,
    opened: Option<Instant>,
    guard_ns: u128,
    undo_ns: u128,
    /// The first differential-oracle disagreement of the pass in hand.
    oracle: Option<String>,
    /// The prediction audit's facts along the last audited chain.
    memo: AuditMemo,
    /// The SSA repair and the tables of every duplication the round
    /// performs.
    dups: DupScratch,
    /// The blocks of the footprint last read, for the audit memo and the
    /// stale classification.
    footprint: FootprintBlocks,
    log: Vec<(Option<(BlockId, BlockId)>, Fate<'s>)>,
}

impl<'r, 's> Round<'r, 's> {
    fn new(model: &'r CostModel, cache: &'r mut AnalysisCache, budget: &'r Budget) -> Self {
        Round {
            model,
            cache,
            budget,
            sim_dominators: None,
            relation: None,
            opened: None,
            guard_ns: 0,
            undo_ns: 0,
            oracle: None,
            memo: AuditMemo::new(),
            dups: DupScratch::default(),
            footprint: FootprintBlocks::default(),
            log: Vec::new(),
        }
    }

    /// Logs how `candidate` left the round.
    fn settle(&mut self, candidate: (BlockId, BlockId), fate: Fate<'s>) {
        self.log.push((Some(candidate), fate));
    }

    /// Logs the budget exhaustion that ends the round, and the phase.
    fn stop(&mut self, tier: Tier, reason: BailoutReason) {
        self.log.push((None, Fate::Stopped(tier, reason)));
    }

    /// The accepted candidates whose branch-split claim — "the final path
    /// element is selected by the branch we are about to fold" — the
    /// post-dominator tree of the unmutated, simulated graph backs. The
    /// first branch-split candidate computes that tree; a round without
    /// one computes no reverse-CFG analysis.
    ///
    /// The claim is Ferrante–Ottenstein–Warren control dependence of
    /// `taken` on `split`, and for this shape it is exactly "`taken` does
    /// not post-dominate `split`": `split` is a reachable two-way branch
    /// and `taken != split` one of its successors. FOW's walk from `taken`
    /// records `taken` unless `taken == ipdom(split)`, and a successor
    /// that strictly post-dominates its branch is always the immediate
    /// post-dominator (a simple path `split → taken → … → exit` would
    /// otherwise pass `ipdom(split)` after `taken`, then `taken` again);
    /// the other successor's walk stops at `ipdom(split)` before reaching
    /// `taken`. The same holds with the virtual exit and pseudo-exits.
    /// Where the taken successor post-dominates the branch, the fold would
    /// eliminate no control dependence.
    fn cross_check(
        &mut self,
        g: &Graph,
        accepted: Vec<&'s SimulationResult>,
    ) -> Vec<&'s SimulationResult> {
        let mut plan = Vec::with_capacity(accepted.len());
        for s in accepted {
            let agreed = s.kind != CandidateKind::BranchSplit
                || s.path.len() >= 2 && {
                    let taken = s.path[s.path.len() - 1];
                    let split = s.path[s.path.len() - 2];
                    !self.cache.postdom(g).post_dominates(taken, split)
                };
            if agreed {
                plan.push(s);
            } else {
                self.settle((s.pred, s.merge), Fate::ControlDepRejected);
            }
        }
        plan
    }

    /// Takes the sim-time relation and refreshes the recovery mark:
    /// everything up to here verified. The mark is retaken after every
    /// pass that keeps a duplication; a rejected pass, or a broken graph at
    /// the final checkpoint, rolls back to the latest one. The frame is
    /// also the round's interference record: its footprint is every slot
    /// the round's duplications have changed.
    fn open(&mut self, g: &mut Graph, recovery_open: &mut bool) {
        // Taken before any duplication this round: the graph is still
        // exactly the one the simulation tier analyzed.
        self.sim_dominators = Some(self.cache.dominators(g));
        let tg = Instant::now();
        self.opened = Some(tg);
        if *recovery_open {
            g.commit_txn();
        }
        g.begin_txn();
        *recovery_open = true;
        self.charge_undo(tg);
    }

    /// Runs the plan optimistically. On a boundary rejection or a caught
    /// panic the round rolls back to the mark [`Round::open`] took, its
    /// log back to where the pass began, and the plan is replayed with
    /// the boundary check after every duplication: what failed costs one
    /// candidate, and the O(graph) check per candidate is paid only here.
    fn run(&mut self, g: &mut Graph, plan: &[&'s SimulationResult]) {
        let mark = self.log.len();
        // Until the boundary the graph may hold a corruption no check has
        // seen yet, so a panic anywhere in the pass rejects the pass.
        let optimistic = isolate(|| self.pass(g, plan, Pass::Optimistic));
        self.raise_oracle();
        let Err(rejection) = optimistic.map_err(Rejection::from).and_then(|r| r) else {
            return;
        };
        self.log.truncate(mark);
        let tu = Instant::now();
        g.rollback_txn();
        g.begin_txn();
        self.charge_undo(tu);
        if rejection.lint == Some(LintId::StaleAnalysis) {
            // The relation slot is what went wrong: the next lookup
            // rebuilds it honestly.
            self.cache.clear();
        }
        self.log
            .push((None, Fate::BoundaryRejected(rejection.reason)));
        // A replay has no boundary left to reject it.
        let _ = self.pass(g, plan, Pass::Replay);
        self.raise_oracle();
    }

    /// One pass over the plan; every candidate is settled. The optimistic
    /// pass ends with the round's boundary check — the whole-graph
    /// verifier, then the relation the pass patched along held to a
    /// from-scratch tree. A pass that kept a duplication ends on a
    /// verified graph, the new recovery mark.
    ///
    /// # Errors
    ///
    /// The boundary's rejection. A replay has no boundary and never fails.
    fn pass(
        &mut self,
        g: &mut Graph,
        plan: &[&'s SimulationResult],
        pass: Pass,
    ) -> Result<(), Rejection> {
        self.relation = None;
        // A replay starts on the graph the round opened with, which the
        // memo's chain may not describe.
        self.memo.clear();
        for &s in plan {
            match self.fate(g, s, pass) {
                Ok(fate) => self.settle((s.pred, s.merge), fate),
                Err(reason) => {
                    self.stop(Tier::Optimization, reason);
                    break;
                }
            }
        }
        if let Some(relation) = self.relation.take() {
            if pass == Pass::Optimistic {
                let tg = Instant::now();
                let verdict = boundary_check(g, &relation);
                self.guard_ns += tg.elapsed().as_nanos();
                verdict?;
            }
            let tu = Instant::now();
            g.commit_txn();
            g.begin_txn();
            self.charge_undo(tu);
        }
        Ok(())
    }

    /// Decides one candidate against the graph as it stands now:
    /// re-validation, the budget poll, the prediction audit with its stale
    /// classification, then [`Round::apply_chain`].
    ///
    /// # Errors
    ///
    /// The budget exhaustion that stops the round before this candidate.
    fn fate(
        &mut self,
        g: &mut Graph,
        s: &'s SimulationResult,
        pass: Pass,
    ) -> Result<Fate<'s>, BailoutReason> {
        // Re-validate: earlier duplications this round may have
        // restructured the pair.
        if !g.is_merge(s.merge) || !g.succs(s.pred).contains(&s.merge) {
            return Ok(Fate::Vanished);
        }
        self.budget.check()?;
        // Prediction audit: re-run the applicability analysis against
        // the graph as it stands *now* (earlier candidates this round
        // already mutated it). A recorded opportunity that no longer
        // fires means the candidate is skipped rather than applied on a
        // stale promise — an ordinary stale skip, or a misprediction (a
        // simulation-tier contract violation). The audit never charges
        // the phase's budget.
        if !s.opportunities.is_empty() {
            let tg = Instant::now();
            let rerun = self
                .memo
                .audit(g, self.model, self.cache, s, &mut self.oracle);
            let missed = match &rerun {
                Some(ops) => count_mispredictions(&s.opportunities, ops),
                None => s.opportunities.len(),
            };
            let skip = (missed > 0).then(|| {
                let sim = self.sim_dominators.as_deref().expect("an open round");
                if is_stale(g, self.cache, sim, s, &mut self.footprint) {
                    Fate::Stale
                } else {
                    Fate::Mispredicted(missed)
                }
            });
            self.guard_ns += tg.elapsed().as_nanos();
            if let Some(fate) = skip {
                return Ok(fate);
            }
        }
        Ok(match self.apply_chain(g, s, pass) {
            Ok(steps) => Fate::Applied(s, steps),
            Err(rejection) => Fate::RolledBack(rejection),
        })
    }

    /// Applies one accepted candidate: the `(pred, merge)` duplication
    /// plus the path-based extension into the freshly created copies. The
    /// chain runs inside an undo-log transaction ([`transact`]): each
    /// applied duplication is checked ([`checkpoint_duplication`]), both
    /// typed transform errors and panics become bailout reasons, and a
    /// failing chain is rolled back to its starting state before this
    /// returns. Returns every duplicated merge with its instruction count
    /// and leaves the relation the chain ended on in `self.relation`.
    /// Under [`DIFFERENTIAL_CHECKPOINTS`] the first oracle disagreement is
    /// left for [`Round::raise_oracle`].
    fn apply_chain(
        &mut self,
        g: &mut Graph,
        s: &SimulationResult,
        pass: Pass,
    ) -> Result<Vec<(BlockId, u64)>, Rejection> {
        let tg = Instant::now();
        // The dominance relation the chain starts from. Already cached:
        // the round's sim-time lookup or the previous chain's last patch
        // left it in the relation slot at this CFG version. The round
        // lets go of its own reference, so the chain's patches edit the
        // slot in place.
        let had_relation = self.relation.take().is_some();
        let start = self.cache.dominators(g);
        let mut guard = tg.elapsed().as_nanos();
        let mut rejected_by: Option<LintId> = None;
        let (cache, oracle, memo, dups, footprint) = (
            &mut *self.cache,
            &mut self.oracle,
            &mut self.memo,
            &mut self.dups,
            &mut self.footprint,
        );
        let (result, txn_ns) = transact(g, |g| {
            // The relation before the next duplication: each step's check
            // patches it forward.
            let mut current = Some(start);
            let mut verified = |g: &Graph, dup: &Duplication| {
                let tg = Instant::now();
                let prev = current.take().expect("a relation before every duplication");
                let step = checkpoint_duplication(g, dup, prev, cache, pass);
                if DIFFERENTIAL_CHECKPOINTS && oracle.is_none() {
                    if let Ok(after) = &step {
                        *oracle = differential_check(g, dup, after);
                    }
                }
                guard += tg.elapsed().as_nanos();
                match step {
                    Ok(after) => {
                        current = Some(after);
                        Ok(())
                    }
                    Err(e) => {
                        rejected_by = e.lint;
                        Err(e.reason)
                    }
                }
            };
            let reject = |e: crate::transform::TransformError| {
                BailoutReason::VerifierRejected(e.to_string())
            };
            let step =
                |g: &Graph, dup: &Duplication| (dup.merge, g.block_insts(dup.merge).len() as u64);
            let mut dup = try_duplicate_with(g, s.pred, s.merge, dups).map_err(reject)?;
            let mut steps = vec![step(g, &dup)];
            verified(g, &dup)?;
            // Path-based extension: duplicate the remaining merges of the
            // accepted path into the freshly created copies. For a
            // branch-split candidate the last path element is the
            // successor selected by the copy's statically-decided branch —
            // it became a merge the moment the copy's terminator targeted
            // it, so the same guard and transform handle the hop.
            for &m in &s.path[1..] {
                if !g.is_merge(m) || !g.succs(dup.copy).contains(&m) {
                    break;
                }
                dup = try_duplicate_with(g, dup.copy, m, dups).map_err(reject)?;
                steps.push(step(g, &dup));
                verified(g, &dup)?;
            }
            // The chain commits: what it changed is its own frame's
            // footprint, read before the commit merges it away.
            let tg = Instant::now();
            footprint.mark(g);
            memo.invalidate(footprint);
            guard += tg.elapsed().as_nanos();
            Ok((steps, current.expect("the relation the chain ended on")))
        });
        self.guard_ns += guard + txn_ns;
        self.undo_ns += txn_ns;
        match result {
            Ok((steps, relation)) => {
                self.relation = Some(relation);
                Ok(steps)
            }
            Err(reason) => {
                // The undo log put the graph back where the chain found
                // it, so the patched relation slot is stale: look the
                // boundary's relation up again (the ordered tree's, which
                // the patches copied away from, when it is still cached).
                let tg = Instant::now();
                if had_relation {
                    self.relation = Some(self.cache.dominators(g));
                }
                self.guard_ns += tg.elapsed().as_nanos();
                Err(Rejection {
                    reason,
                    lint: rejected_by,
                })
            }
        }
    }

    /// Charges undo-log bookkeeping begun at `since` to the guard.
    fn charge_undo(&mut self, since: Instant) {
        let ns = since.elapsed().as_nanos();
        self.guard_ns += ns;
        self.undo_ns += ns;
    }

    /// Raises the oracle disagreement the pass just run recorded — after
    /// the pass, so the optimistic pass's panic isolation cannot swallow
    /// it.
    ///
    /// # Panics
    ///
    /// When an oracle disagreed.
    fn raise_oracle(&mut self) {
        if let Some(d) = self.oracle.take() {
            panic!("a differential oracle disagrees while {d}");
        }
    }

    /// Closes the round: its time goes to the phase's timers, and its log
    /// is folded into `stats` entry by entry — the one place a fate
    /// becomes counters and bailout records. Returns the applied
    /// candidates' probability-weighted benefit (against the iteration
    /// threshold) and whether a budget stopped the round.
    fn close(self, stats: &mut PhaseStats, visited: &mut FastSet<BlockId>) -> (f64, bool) {
        if let Some(opened) = self.opened {
            stats.transform_ns += opened.elapsed().as_nanos().saturating_sub(self.guard_ns);
        }
        stats.guard_ns += self.guard_ns;
        stats.undo_ns += self.undo_ns;
        stats.audit_runs += self.memo.work.runs;
        stats.audit_blocks_replayed += self.memo.work.blocks_replayed;
        stats.audit_insts_evaluated += self.memo.work.insts_evaluated;
        self.memo.release();
        let (mut cumulative, mut stopped) = (0.0, false);
        for (candidate, fate) in self.log {
            let (reason, tier, recovered) = match fate {
                Fate::SimPanicked(msg) => (
                    BailoutReason::TransformPanicked(msg),
                    Tier::Simulation,
                    true,
                ),
                Fate::SizeRejected => (BailoutReason::SizeBudgetExceeded, Tier::Tradeoff, true),
                Fate::ControlDepRejected => {
                    let (pred, merge) = candidate.expect("a candidate's fate");
                    let msg = format!(
                        "control-dependence cross-check rejected branch-split ({pred} -> {merge})"
                    );
                    (BailoutReason::VerifierRejected(msg), Tier::Tradeoff, true)
                }
                Fate::Vanished => continue,
                Fate::Stale => {
                    stats.stale_skips += 1;
                    continue;
                }
                Fate::Mispredicted(missed) => {
                    stats.mispredictions += missed;
                    continue;
                }
                Fate::Applied(s, steps) => {
                    cumulative += s.weighted_benefit();
                    stats.duplications += steps.len();
                    for (merge, insts) in steps {
                        stats.work += insts;
                        visited.insert(merge);
                    }
                    if s.kind == CandidateKind::BranchSplit {
                        stats.split_applied += 1;
                    }
                    for o in &s.opportunities {
                        *stats.opportunities.entry(o.kind).or_insert(0) += 1;
                    }
                    continue;
                }
                Fate::RolledBack(rejection) => {
                    if rejection.lint == Some(LintId::FrontierViolation) {
                        stats.frontier_violations += 1;
                    }
                    (rejection.reason, Tier::Optimization, true)
                }
                Fate::BoundaryRejected(reason) => (reason, Tier::Optimization, true),
                Fate::Stopped(tier, reason) => {
                    stopped = true;
                    (reason, tier, false)
                }
            };
            stats.bailouts.push(BailoutRecord {
                reason,
                tier,
                candidate,
                recovered,
            });
        }
        (cumulative, stopped)
    }
}

/// Whether a candidate whose prediction audit failed is merely stale:
/// the round has changed a slot of a block its facts flow through (its
/// sim-time dominator chain, merge or path), or the chain itself drifted
/// — either way the recorded facts describe a graph that no longer
/// exists. A failed re-check on an *undisturbed* candidate is a genuine
/// misprediction. Every chain's own transaction has closed, so the
/// innermost open frame is the round's recovery frame and its footprint
/// is the exact record of what the round changed.
fn is_stale(
    g: &Graph,
    cache: &mut AnalysisCache,
    sim_dominators: &Dominators,
    s: &SimulationResult,
    changed: &mut FootprintBlocks,
) -> bool {
    if !changed.mark(g) {
        return false;
    }
    match (
        dominator_chain(g, sim_dominators, s.pred),
        dominator_chain(g, &cache.dominators(g), s.pred),
    ) {
        (Some(old), Some(now)) => {
            old != now
                || old
                    .iter()
                    .chain(std::iter::once(&s.merge))
                    .chain(&s.path)
                    .any(|&b| changed.contains(b))
        }
        _ => true,
    }
}

/// The blocks an undo-log footprint names — its blocks, plus the blocks
/// its live instructions sit in — marked in a dense table a round reuses
/// for every footprint it reads: no sort and no set. The one rule both
/// the stale classification and the audit memo's invalidation read a
/// footprint by.
#[derive(Debug, Default)]
pub(crate) struct FootprintBlocks {
    /// The blocks stamped with the current stamp are marked.
    marks: Vec<u32>,
    stamp: u32,
}

impl FootprintBlocks {
    /// Marks the blocks of the footprint of `g`'s innermost open
    /// transaction, forgetting the footprint marked before. Returns
    /// `false` when that footprint is empty.
    pub(crate) fn mark(&mut self, g: &Graph) -> bool {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Marks from 2^32 footprints ago would look current.
            self.marks.fill(0);
            self.stamp = 1;
        }
        self.marks.resize(g.block_count(), 0);
        let (marks, stamp) = (&mut self.marks, self.stamp);
        g.for_each_txn_block(|b| marks[b.index()] = stamp)
    }

    /// Is `b` a block of the marked footprint?
    pub(crate) fn contains(&self, b: BlockId) -> bool {
        self.marks.get(b.index()) == Some(&self.stamp)
    }
}

/// A checkpoint rejection: the bailout reason plus, when a lint
/// diagnostic caused it, which lint — so counters key on the typed id
/// and never on message wording.
struct Rejection {
    reason: BailoutReason,
    lint: Option<LintId>,
}

impl Rejection {
    /// `Ok` when a lint found nothing, else the rejection it causes.
    fn unless_clean(finding: Option<Diagnostic>) -> Result<(), Rejection> {
        finding.map_or(Ok(()), |d| Err(d.into()))
    }
}

impl From<BailoutReason> for Rejection {
    fn from(reason: BailoutReason) -> Self {
        Rejection { reason, lint: None }
    }
}

impl From<Diagnostic> for Rejection {
    fn from(d: Diagnostic) -> Self {
        Rejection {
            reason: BailoutReason::VerifierRejected(d.message),
            lint: Some(d.lint),
        }
    }
}

/// Whether every duplication the per-duplication check accepts is also
/// held to the whole-graph reference forms ([`differential_check`]).
const DIFFERENTIAL_CHECKPOINTS: bool = cfg!(debug_assertions);

/// A stand-in for a wrong patch rule: what [`TAMPER_PATCH`] holds.
#[cfg(test)]
type PatchTamper = fn(&Dominators, &Duplication) -> Dominators;

#[cfg(test)]
thread_local! {
    /// Test hook: rewrites every relation [`checkpoint_duplication`]
    /// obtains, the way a wrong patch rule would.
    static TAMPER_PATCH: std::cell::Cell<Option<PatchTamper>> =
        const { std::cell::Cell::new(None) };
}

/// The round boundary's check: the whole-graph verifier (its own
/// dominator tree), then `relation` against a from-scratch tree, idom by
/// idom.
fn boundary_check(g: &Graph, relation: &Dominators) -> Result<(), Rejection> {
    checkpoint(g)?;
    Rejection::unless_clean(crate::lint::lint_relation(g, relation))
}

/// The per-duplication check. First the O(1) frontier check: the copy
/// must have the shape of a tail copy of the merge
/// ([`crate::lint::lint_tail_copy`], what [`crate::lint::lint_frontier`]
/// reduces to on a graph the boundary verifies). Then `prev`, the
/// relation before this duplication, is patched in O(edit) — in place
/// when it is the cache's relation slot and nobody else holds it, and
/// total on any graph: on a shape it does not expect it rebuilds from
/// scratch. A replay follows with the boundary check on the patched
/// relation. Returns the patched relation.
fn checkpoint_duplication(
    g: &Graph,
    dup: &Duplication,
    prev: Arc<Dominators>,
    cache: &mut AnalysisCache,
    pass: Pass,
) -> Result<Arc<Dominators>, Rejection> {
    Rejection::unless_clean(crate::lint::lint_tail_copy(
        g, dup.pred, dup.merge, dup.copy,
    ))?;
    let after = cache.dominators_after_duplication(g, prev, dup.pred, dup.merge, dup.copy);
    #[cfg(test)]
    let after = match TAMPER_PATCH.get() {
        Some(tamper) => Arc::new(tamper(&after, dup)),
        None => after,
    };
    if pass == Pass::Replay {
        boundary_check(g, &after)?;
    }
    Ok(after)
}

/// Oracles 2 and 6 on a duplication [`checkpoint_duplication`] accepted,
/// when the whole graph verifies: the from-scratch frontier check must
/// accept what the tail-copy check accepted, and the patched relation
/// must be the one a from-scratch build finds. Returns the disagreement.
fn differential_check(g: &Graph, dup: &Duplication, after: &Dominators) -> Option<String> {
    checkpoint(g).ok()?;
    let d = crate::lint::lint_frontier(g, dup.copy, dup.merge)
        .or_else(|| crate::lint::lint_relation(g, after))?;
    Some(format!(
        "duplicating {} into {}: {}",
        dup.merge, dup.pred, d.message
    ))
}

/// Runs the optimization pipeline (one round, or the full fixpoint when
/// `full`) behind the guardrails: the pipeline runs inside an
/// undo-log transaction, so a panicking pass is caught and the graph
/// rolled back to its pre-pass state. While a fault plan is armed, the
/// result is also verified (a corrupted graph rolls back the same way).
fn run_opt_tier(g: &mut Graph, cache: &mut AnalysisCache, stats: &mut PhaseStats, full: bool) {
    let mut opt_ns: u128 = 0;
    let mut verify_ns: u128 = 0;
    let mut opt = OptimizeStats::default();
    let (result, txn_ns) = transact(g, |g| {
        // Inside the guard so an injected panic here is contained.
        fault_point("phase/optimize", Some(g));
        let t = Instant::now();
        let rounds = if full { MAX_ROUNDS } else { 1 };
        opt = optimize(g, cache, rounds);
        opt_ns = t.elapsed().as_nanos();
        if faultinject::armed() {
            // Unarmed compiles skip this verify: optimizer bugs surface
            // as panics (caught by the transaction), injected corruption
            // only exists while a plan is armed.
            let tv = Instant::now();
            let ck = checkpoint(g);
            verify_ns = tv.elapsed().as_nanos();
            ck?;
        }
        Ok(())
    });
    stats.opt_ns += opt_ns;
    stats.record_opt(&opt);
    stats.guard_ns += verify_ns + txn_ns;
    stats.undo_ns += txn_ns;
    if let Err(reason) = result {
        stats.bailouts.push(BailoutRecord {
            reason,
            tier: Tier::Optimization,
            candidate: None,
            recovered: true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultinject::{arm, disarm, FaultKind, FaultPlan};
    use crate::simulation::simulate_paths;
    use dbds_ir::{
        execute, verify, ClassTable, CmpOp, ConstValue, GraphBuilder, Inst, Terminator, Type, Value,
    };
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    fn figure1() -> Graph {
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
        b.finish()
    }

    #[test]
    fn dbds_reproduces_figure1c() {
        let mut g = figure1();
        let model = CostModel::new();
        let stats = compile(&mut g, &model, OptLevel::Dbds, &DbdsConfig::default());
        verify(&g).unwrap();
        assert!(stats.duplications >= 1, "stats: {stats:?}");
        assert_eq!(execute(&g, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
        assert_eq!(execute(&g, &[Value::Int(-1)]).outcome, Ok(Value::Int(2)));
        // Figure 1c: the false path returns the constant 2 — no add on
        // that path anymore. Find the return blocks.
        let mut const_return_found = false;
        for b in g.reachable_blocks() {
            if let Terminator::Return { value: Some(v) } = g.terminator(b) {
                if matches!(g.inst(*v), Inst::Const(ConstValue::Int(2))) {
                    const_return_found = true;
                }
            }
        }
        assert!(const_return_found, "expected a `return 2` path:\n{g}");
    }

    #[test]
    fn baseline_does_not_duplicate() {
        let mut g = figure1();
        let model = CostModel::new();
        let before_blocks = g.reachable_blocks().len();
        let stats = compile(&mut g, &model, OptLevel::Baseline, &DbdsConfig::default());
        assert_eq!(stats.duplications, 0);
        verify(&g).unwrap();
        // The diamond with the φ remains (no duplication happened).
        assert_eq!(g.reachable_blocks().len(), before_blocks);
        assert_eq!(execute(&g, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
    }

    #[test]
    fn dupalot_duplicates_at_least_as_much_as_dbds() {
        let mut g1 = figure1();
        let mut g2 = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig::default();
        let dbds = compile(&mut g1, &model, OptLevel::Dbds, &cfg);
        let dupalot = compile(&mut g2, &model, OptLevel::Dupalot, &cfg);
        assert!(dupalot.duplications >= dbds.duplications);
        verify(&g1).unwrap();
        verify(&g2).unwrap();
    }

    #[test]
    fn all_levels_preserve_semantics_on_listing1() {
        let build = || {
            let mut b = GraphBuilder::new("l1", &[Type::Int], empty_table());
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
            b.finish()
        };
        let model = CostModel::new();
        let cfg = DbdsConfig::default();
        let reference = build();
        for level in [
            OptLevel::Baseline,
            OptLevel::Dbds,
            OptLevel::Dupalot,
            OptLevel::Backtracking,
        ] {
            let mut g = build();
            compile(&mut g, &model, level, &cfg);
            // Route through the phase's own checkpoint API so this test
            // exercises the same verification path the guardrails use.
            checkpoint(&g).unwrap_or_else(|e| panic!("level {level:?} broke the graph: {e}"));
            for v in [-7i64, 0, 1, 12, 13, 100] {
                assert_eq!(
                    execute(&g, &[Value::Int(v)]).outcome,
                    execute(&reference, &[Value::Int(v)]).outcome,
                    "level {level:?}, input {v}"
                );
            }
        }
    }

    #[test]
    fn dbds_improves_static_estimate_on_figure1() {
        let model = CostModel::new();
        let measure = |g: &Graph| model.weighted_cycles(g, &mut AnalysisCache::new());
        let mut base = figure1();
        compile(
            &mut base,
            &model,
            OptLevel::Baseline,
            &DbdsConfig::default(),
        );
        let mut opt = figure1();
        compile(&mut opt, &model, OptLevel::Dbds, &DbdsConfig::default());
        assert!(
            measure(&opt) <= measure(&base),
            "DBDS should not regress the static estimate"
        );
    }

    #[test]
    fn iteration_cap_respected() {
        let mut g = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig {
            max_iterations: 1,
            ..DbdsConfig::default()
        };
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn unit_workers_resolves_and_clamps() {
        let with = |unit_threads: usize| DbdsConfig {
            unit_threads,
            ..DbdsConfig::default()
        };
        assert_eq!(with(4).unit_workers(45), 4);
        // Never wider than the batch, never zero.
        assert_eq!(with(16).unit_workers(3), 3);
        assert_eq!(with(16).unit_workers(0), 1);
        // 0 = one per hardware thread, still clamped to the batch.
        let hw = crate::par::hardware_threads();
        assert_eq!(with(0).unit_workers(45), hw.min(45));
        assert_eq!(with(0).unit_workers(1), 1);
    }

    #[test]
    fn size_budget_limits_duplications() {
        let mut g = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig {
            tradeoff: TradeoffConfig {
                size_increase_budget: 1.0, // no growth allowed
                ..TradeoffConfig::default()
            },
            ..DbdsConfig::default()
        };
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        // Figure 1's duplication shrinks one path but the heuristic sees a
        // positive cost on the kept path only via budget; with zero budget
        // only negative/zero-cost candidates pass.
        assert!(stats.final_size <= stats.initial_size);
        verify(&g).unwrap();
    }

    #[test]
    fn phase_stats_report_cache_counters() {
        let mut g = figure1();
        let model = CostModel::new();
        let stats = compile(&mut g, &model, OptLevel::Dbds, &DbdsConfig::default());
        // Every compilation computes dominators at least once (cold cache)
        // and the simulate → optimize loop revisits them.
        assert!(stats.cache.misses > 0, "stats: {stats:?}");
        assert!(stats.cache.hits > 0, "stats: {stats:?}");
        assert!(stats.cache.invalidations <= stats.cache.misses);
    }

    #[test]
    fn happy_path_records_no_bailouts() {
        let mut g = figure1();
        let model = CostModel::new();
        let stats = compile(&mut g, &model, OptLevel::Dbds, &DbdsConfig::default());
        assert!(stats.duplications >= 1);
        assert!(stats.bailouts.is_empty(), "bailouts: {:?}", stats.bailouts);
    }

    #[test]
    fn happy_path_prediction_audit_confirms_every_candidate() {
        // The audit runs before every applied candidate; on the happy
        // path it must confirm each one — a nonzero count here would
        // mean the simulation tier's promises don't survive to
        // application even without interference.
        let mut g = figure1();
        let model = CostModel::new();
        let stats = compile(&mut g, &model, OptLevel::Dbds, &DbdsConfig::default());
        assert!(stats.duplications >= 1);
        assert_eq!(stats.mispredictions, 0, "stats: {stats:?}");
    }

    #[test]
    fn fuel_exhaustion_bails_out_with_a_verified_graph() {
        let mut g = figure1();
        let reference = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig {
            guard: GuardConfig {
                fuel: Some(1),
                ..GuardConfig::default()
            },
            ..DbdsConfig::default()
        };
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        assert!(
            stats
                .bailouts
                .iter()
                .any(|b| b.reason == BailoutReason::FuelExhausted && !b.recovered),
            "bailouts: {:?}",
            stats.bailouts
        );
        checkpoint(&g).unwrap();
        for v in [-3i64, 0, 5] {
            assert_eq!(
                execute(&g, &[Value::Int(v)]).outcome,
                execute(&reference, &[Value::Int(v)]).outcome,
            );
        }
    }

    #[test]
    fn zero_deadline_bails_out_with_a_verified_graph() {
        let mut g = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig {
            guard: GuardConfig {
                deadline: Some(std::time::Duration::ZERO),
                ..GuardConfig::default()
            },
            ..DbdsConfig::default()
        };
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        assert!(
            stats
                .bailouts
                .iter()
                .any(|b| b.reason == BailoutReason::DeadlineExceeded),
            "bailouts: {:?}",
            stats.bailouts
        );
        checkpoint(&g).unwrap();
    }

    #[test]
    fn size_budget_rejections_are_recorded() {
        let mut g = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig {
            tradeoff: TradeoffConfig {
                size_increase_budget: 1.0, // no growth allowed
                ..TradeoffConfig::default()
            },
            ..DbdsConfig::default()
        };
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        // The false-path candidate's benefit clears the cost heuristic
        // but the zero growth budget blocks it — that exact incident
        // must be visible in the stats.
        assert!(
            stats.bailouts.iter().any(|b| {
                b.reason == BailoutReason::SizeBudgetExceeded
                    && b.tier == Tier::Tradeoff
                    && b.recovered
            }),
            "bailouts: {:?}",
            stats.bailouts
        );
        assert_eq!(stats.duplications, 0);
        checkpoint(&g).unwrap();
    }

    #[test]
    fn injected_transform_panic_is_contained() {
        let reference = figure1();
        let mut g = figure1();
        let model = CostModel::new();
        arm(FaultPlan {
            site: "transform/copy-body",
            kind: FaultKind::Panic,
            nth: 0,
            seed: 0,
        });
        let stats = compile(&mut g, &model, OptLevel::Dbds, &DbdsConfig::default());
        let (_, fired) = disarm();
        assert!(fired, "the fault must have been reached");
        assert!(
            stats.bailouts.iter().any(|b| {
                matches!(b.reason, BailoutReason::TransformPanicked(_)) && b.recovered
            }),
            "bailouts: {:?}",
            stats.bailouts
        );
        checkpoint(&g).unwrap();
        for v in [-3i64, 0, 5] {
            assert_eq!(
                execute(&g, &[Value::Int(v)]).outcome,
                execute(&reference, &[Value::Int(v)]).outcome,
            );
        }
    }

    /// The optimizer tier's detector: a plan that corrupts the graph in
    /// the first pipeline (the cleanup before the phase) is caught by the
    /// verify an armed plan turns on after every pipeline, and that
    /// pipeline's transaction rolls it back. Unarmed, the same compile
    /// records no bailout at all.
    #[test]
    fn an_armed_optimizer_corruption_is_one_recovered_bailout() {
        let reference = figure1();
        let compile_figure1 = || {
            let mut g = figure1();
            let stats = compile(
                &mut g,
                &CostModel::new(),
                OptLevel::Dbds,
                &DbdsConfig::default(),
            );
            (g, stats)
        };
        let (_, clean) = compile_figure1();
        assert!(clean.bailouts.is_empty(), "bailouts: {:?}", clean.bailouts);
        arm(FaultPlan {
            site: "phase/optimize",
            kind: FaultKind::CorruptGraph,
            nth: 0,
            seed: 0,
        });
        let (g, faulted) = compile_figure1();
        let (_, fired) = disarm();
        assert!(fired, "the fault must have been reached");
        assert_eq!(
            faulted.bailouts.len(),
            1,
            "bailouts: {:?}",
            faulted.bailouts
        );
        let b = &faulted.bailouts[0];
        assert!(
            b.recovered
                && b.tier == Tier::Optimization
                && matches!(b.reason, BailoutReason::VerifierRejected(_)),
            "bailout: {b:?}"
        );
        verify(&g).unwrap();
        for v in [-3i64, 0, 5] {
            assert_eq!(
                execute(&g, &[Value::Int(v)]).outcome,
                execute(&reference, &[Value::Int(v)]).outcome,
            );
        }
    }

    /// Appends Listing 1, shaped so the cold path decides the second
    /// conditional, to the current block of `b`: on the `bf` edge the
    /// merge's φ is the constant 13, so `13 > 12` folds and the DST
    /// continues through the decided branch into `b12` — a branch-split
    /// candidate.
    fn append_split_listing(b: &mut GraphBuilder, i: dbds_ir::InstId) {
        let zero = b.iconst(0);
        let thirteen = b.iconst(13);
        let twelve = b.iconst(12);
        let one = b.iconst(1);
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
        let q = b.add(p, one);
        b.ret(Some(q));
        b.switch_to(bi);
        b.ret(Some(i));
    }

    fn split_listing() -> Graph {
        let mut b = GraphBuilder::new("split", &[Type::Int], empty_table());
        let i = b.param(0);
        append_split_listing(&mut b, i);
        b.finish()
    }

    /// Listing 1 with the φ's constant input 0: on the `bf` edge `0 > 12`
    /// decides `bm`'s branch toward the join `bj` — a branch-split claim
    /// control dependence does not back, because `bj` post-dominates
    /// `bm`.
    fn split_into_post_dominator() -> Graph {
        let mut b = GraphBuilder::new("join", &[Type::Int], empty_table());
        let i = b.param(0);
        let zero = b.iconst(0);
        let twelve = b.iconst(12);
        let one = b.iconst(1);
        let c = b.cmp(CmpOp::Gt, i, zero);
        let (bt, bf, bm, bthen, bj) = (
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
        let p = b.phi(vec![i, zero], Type::Int);
        let c2 = b.cmp(CmpOp::Gt, p, twelve);
        b.branch(c2, bthen, bj, 0.5);
        b.switch_to(bthen);
        b.jump(bj);
        b.switch_to(bj);
        // Predecessors in edge order: `bm`, then `bthen`.
        let q = b.phi(vec![p, i], Type::Int);
        let r = b.mul(q, q);
        let s = b.add(r, one);
        b.ret(Some(s));
        b.finish()
    }

    #[test]
    fn control_dependence_cross_check_rejects_a_split_into_a_post_dominator() {
        let mut g = split_into_post_dominator();
        let reference = split_into_post_dominator();
        let stats = compile(
            &mut g,
            &CostModel::new(),
            OptLevel::Dupalot,
            &DbdsConfig::default(),
        );
        assert_eq!(
            (
                stats.duplications,
                stats.split_candidates,
                stats.split_applied,
                stats.cache.rev_misses
            ),
            (1, 1, 0, 1),
            "stats: {stats:?}"
        );
        let (bf, bm) = (BlockId::from_index(2), BlockId::from_index(3));
        assert_eq!(
            stats.bailouts,
            vec![BailoutRecord {
                reason: BailoutReason::VerifierRejected(
                    "control-dependence cross-check rejected branch-split (b2 -> b3)".into()
                ),
                tier: Tier::Tradeoff,
                candidate: Some((bf, bm)),
                recovered: true,
            }]
        );
        checkpoint(&g).unwrap();
        for v in [-7i64, 0, 1, 12, 13, 100] {
            assert_eq!(
                execute(&g, &[Value::Int(v)]).outcome,
                execute(&reference, &[Value::Int(v)]).outcome,
                "input {v}"
            );
        }
    }

    #[test]
    fn branch_splitting_eliminates_the_decided_conditional() {
        let mut g = split_listing();
        let reference = split_listing();
        let model = CostModel::new();
        let cfg = DbdsConfig::default();
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        assert!(stats.split_candidates > 0, "stats: {stats:?}");
        assert!(stats.split_applied >= 1, "stats: {stats:?}");
        assert_eq!(stats.frontier_violations, 0, "stats: {stats:?}");
        checkpoint(&g).unwrap();
        for v in [-7i64, 0, 1, 12, 13, 100] {
            assert_eq!(
                execute(&g, &[Value::Int(v)]).outcome,
                execute(&reference, &[Value::Int(v)]).outcome,
                "input {v}"
            );
        }
    }

    #[test]
    fn merge_only_ablation_is_dominated_on_split_shapes() {
        let model = CostModel::new();
        let measure = |enable: bool| {
            let cfg = DbdsConfig {
                enable_branch_splitting: enable,
                ..DbdsConfig::default()
            };
            let mut g = split_listing();
            let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
            let cycles = model.weighted_cycles(&g, &mut AnalysisCache::new());
            (stats, cycles)
        };
        let (combined, combined_cycles) = measure(true);
        let (merge_only, merge_only_cycles) = measure(false);
        assert_eq!(merge_only.split_candidates, 0);
        assert_eq!(merge_only.split_applied, 0);
        assert!(combined.split_applied >= 1, "stats: {combined:?}");
        assert!(
            combined_cycles <= merge_only_cycles,
            "combined ({combined_cycles}) must not lose to merge-only ({merge_only_cycles})"
        );
    }

    #[test]
    fn reverse_analyses_hit_the_cache_during_the_phase() {
        // Two split listings under one entry branch, so one
        // round accepts two branch-split candidates: the control-
        // dependence cross-check of the first computes the post-dominator
        // tree (one reverse miss, at the graph version the DSTs analyzed)
        // and the second is a pure hit.
        // Nothing else in the phase asks for a reverse-CFG analysis.
        let mut b = GraphBuilder::new("splits", &[Type::Int, Type::Bool], empty_table());
        let (i, side) = (b.param(0), b.param(1));
        let (left, right) = (b.new_block(), b.new_block());
        b.branch(side, left, right, 0.5);
        for start in [left, right] {
            b.switch_to(start);
            append_split_listing(&mut b, i);
        }
        let mut g = b.finish();
        let cfg = DbdsConfig {
            max_iterations: 1,
            ..DbdsConfig::default()
        };
        let stats = compile(&mut g, &CostModel::new(), OptLevel::Dupalot, &cfg);
        assert_eq!(stats.split_applied, 2, "stats: {stats:?}");
        assert_eq!(stats.cache.rev_misses, 1, "stats: {stats:?}");
        assert_eq!(stats.cache.rev_hits, 1, "stats: {stats:?}");
        assert_eq!(stats.cache.rev_invalidations, 0, "stats: {stats:?}");
    }

    #[test]
    fn a_unit_without_split_candidates_computes_no_reverse_analysis() {
        let mut g = figure1();
        let stats = compile(
            &mut g,
            &CostModel::new(),
            OptLevel::Dbds,
            &DbdsConfig::default(),
        );
        assert!(stats.duplications >= 1, "stats: {stats:?}");
        assert_eq!(stats.split_candidates, 0, "stats: {stats:?}");
        assert_eq!(stats.cache.rev_misses, 0, "stats: {stats:?}");
        assert_eq!(stats.cache.rev_hits, 0, "stats: {stats:?}");
    }

    /// A ladder of eight tests on `x`, each guarding an arm that is one
    /// Figure 1 diamond on `y`: no arm is on another's dominator chain, so
    /// one round duplicates in all of them.
    fn diamond_ladder() -> Graph {
        let mut b = GraphBuilder::new("ladder", &[Type::Int, Type::Int], empty_table());
        let (x, y) = (b.param(0), b.param(1));
        for k in 0..8 {
            let bound = b.iconst(10 * k);
            let test = b.cmp(CmpOp::Lt, x, bound);
            let (arm, next) = (b.new_block(), b.new_block());
            b.branch(test, arm, next, 0.5);
            b.switch_to(arm);
            let zero = b.iconst(k);
            let c = b.cmp(CmpOp::Gt, y, zero);
            let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
            b.branch(c, bt, bf, 0.5);
            b.switch_to(bt);
            b.jump(bm);
            b.switch_to(bf);
            b.jump(bm);
            b.switch_to(bm);
            let phi = b.phi(vec![y, zero], Type::Int);
            let two = b.iconst(2);
            let sum = b.add(two, phi);
            b.ret(Some(sum));
            b.switch_to(next);
        }
        b.ret(Some(x));
        b.finish()
    }

    #[test]
    fn every_duplication_patches_the_relation_instead_of_rebuilding_it() {
        let mut g = diamond_ladder();
        let reference = diamond_ladder();
        let stats = compile(
            &mut g,
            &CostModel::new(),
            OptLevel::Dupalot,
            &DbdsConfig::default(),
        );
        assert_eq!(stats.duplications, 8, "stats: {stats:?}");
        assert!(stats.bailouts.is_empty(), "stats: {stats:?}");
        // Every duplication moved the relation by a patch, none by a
        // build: the forward misses left are the three analyses each
        // iteration's simulation asks for, plus one ordered tree for
        // each optimization round that follows a CFG change — here the
        // cleanup after the round and the final fixpoint. (One rebuild
        // per duplication used to put this above `duplications`.)
        assert_eq!(stats.cache.patches, 8, "stats: {stats:?}");
        let cfg_changing_opt_rounds = 2;
        assert!(
            stats.cache.misses <= 3 * stats.iterations as u64 + cfg_changing_opt_rounds,
            "stats: {stats:?}"
        );
        for (x, y) in [(-3i64, 1i64), (4, -2), (25, 2), (25, 3), (100, 0)] {
            let args = [Value::Int(x), Value::Int(y)];
            assert_eq!(
                execute(&g, &args).outcome,
                execute(&reference, &args).outcome
            );
        }
    }

    /// A corruption no per-duplication check reads: the third
    /// duplication's SSA repair widens the graph's first φ. The boundary
    /// rejects the round, rolls it back and replays it with the
    /// whole-graph check after every duplication; the fault has fired, so
    /// the replay keeps all eight, and the discarded pass leaves nothing
    /// behind but its boundary record.
    #[test]
    fn a_round_rejected_at_its_boundary_is_replayed_one_candidate_at_a_time() {
        let compile_ladder = || {
            let mut g = diamond_ladder();
            let stats = compile(
                &mut g,
                &CostModel::new(),
                OptLevel::Dupalot,
                &DbdsConfig::default(),
            );
            (g, stats)
        };
        let (_, clean) = compile_ladder();
        arm(FaultPlan {
            site: "transform/ssa-repair",
            kind: FaultKind::CorruptGraph,
            nth: 2,
            seed: 0,
        });
        let (g, faulted) = compile_ladder();
        let (_, fired) = disarm();
        assert!(fired, "the fault must have been reached");
        checkpoint(&g).unwrap();
        assert_eq!(faulted.duplications, 8, "stats: {faulted:?}");
        assert_eq!(faulted.bailouts.len(), 1, "stats: {faulted:?}");
        let boundary = &faulted.bailouts[0];
        assert!(boundary.recovered && boundary.candidate.is_none());
        assert_eq!(faulted.stale_skips, clean.stale_skips);
        assert_eq!(faulted.mispredictions, clean.mispredictions);
        assert_eq!(faulted.opportunities, clean.opportunities);
    }

    /// A wrong patch rule, for [`TAMPER_PATCH`]: `merge` keeps hanging
    /// one level too high, as if its idom had not moved down. Passes
    /// every per-duplication check on Figure 1 — the stale relation
    /// only claims less dominance than there is.
    fn stale_merge_idom(rel: &Dominators, dup: &Duplication) -> Dominators {
        let blocks = || (0..rel.block_count()).map(BlockId::from_index);
        let mut idoms: Vec<Option<BlockId>> = blocks().map(|b| rel.idom(b)).collect();
        let parent = rel.idom(dup.merge).expect("the merge stays reachable");
        idoms[dup.merge.index()] = rel.idom(parent);
        let root = blocks()
            .find(|&b| rel.is_reachable(b) && rel.idom(b).is_none())
            .expect("a relation has a root");
        Dominators::from_idoms(root, idoms)
    }

    /// Arms [`TAMPER_PATCH`] until dropped.
    struct Tampered;

    impl Tampered {
        fn arm() -> Tampered {
            TAMPER_PATCH.set(Some(stale_merge_idom));
            Tampered
        }
    }

    impl Drop for Tampered {
        fn drop(&mut self) {
            TAMPER_PATCH.set(None);
        }
    }

    /// Fail-first for the patched-relation oracle: with every oracle
    /// armed, a wrong patch is caught at the duplication that made it,
    /// and loudly — outside the transaction's panic isolation.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the patched dominance relation has idom")]
    fn tampered_patch_is_caught_by_the_from_scratch_oracle() {
        let _armed = Tampered::arm();
        let mut g = figure1();
        compile(
            &mut g,
            &CostModel::new(),
            OptLevel::Dbds,
            &DbdsConfig::default(),
        );
    }

    /// The same wrong patch in a build without the oracles: the round's
    /// boundary check holds the relation the round ended on to its own
    /// from-scratch tree, rolls the round back and drops the cache; the
    /// replay, checking every duplication the same way, rejects each
    /// candidate on its stale relation.
    #[cfg(not(debug_assertions))]
    #[test]
    fn tampered_patch_is_a_recovered_boundary_bailout_in_release() {
        let _armed = Tampered::arm();
        let mut g = figure1();
        let reference = figure1();
        let stats = compile(
            &mut g,
            &CostModel::new(),
            OptLevel::Dbds,
            &DbdsConfig::default(),
        );
        assert_eq!(stats.duplications, 0, "stats: {stats:?}");
        let stale = |b: &BailoutRecord| {
            b.recovered
                && matches!(&b.reason, BailoutReason::VerifierRejected(m) if m.contains("stale-analysis"))
        };
        assert!(
            stats
                .bailouts
                .iter()
                .any(|b| stale(b) && b.candidate.is_none()),
            "bailouts: {:?}",
            stats.bailouts
        );
        let replayed: Vec<&BailoutRecord> = stats
            .bailouts
            .iter()
            .filter(|b| b.candidate.is_some())
            .collect();
        assert!(!replayed.is_empty(), "bailouts: {:?}", stats.bailouts);
        assert!(replayed.iter().all(|b| stale(b)), "{replayed:?}");
        checkpoint(&g).unwrap();
        for v in [-3i64, 0, 5] {
            assert_eq!(
                execute(&g, &[Value::Int(v)]).outcome,
                execute(&reference, &[Value::Int(v)]).outcome,
            );
        }
    }

    #[test]
    fn fingerprint_distinguishes_branch_splitting() {
        let on = DbdsConfig {
            enable_branch_splitting: true,
            ..DbdsConfig::default()
        };
        let off = DbdsConfig {
            enable_branch_splitting: false,
            ..DbdsConfig::default()
        };
        assert_ne!(
            on.fingerprint(OptLevel::Dbds),
            off.fingerprint(OptLevel::Dbds)
        );
    }

    #[test]
    fn unchanged_iteration_recomputes_no_dominators() {
        // An already-optimal straight-line graph: the phase's fixpoint
        // pipeline and the simulation tier run repeatedly without any
        // structural change, so after the first (cold) computation every
        // analysis lookup must be a cache hit.
        let mut b = GraphBuilder::new("line", &[Type::Int], empty_table());
        let x = b.param(0);
        b.ret(Some(x));
        let mut g = b.finish();
        let model = CostModel::new();
        let mut cache = AnalysisCache::new();
        // Warm the cache: one optimize pass (no structural change on this
        // graph) plus one simulation sweep.
        dbds_opt::optimize_full(&mut g, &mut cache);
        simulate_paths(&g, &model, &mut cache, 1);
        let warm = cache.stats();
        // A full no-change phase iteration on the warm cache.
        let stats = run_dbds(
            &mut g,
            &model,
            &DbdsConfig::default(),
            SelectionMode::CostBenefit,
            &mut cache,
        );
        assert_eq!(stats.duplications, 0);
        let now = cache.stats();
        assert_eq!(
            now.misses, warm.misses,
            "no-structural-change iteration must not recompute any analysis"
        );
        assert_eq!(now.invalidations, warm.invalidations);
        assert!(now.hits > warm.hits);
        // The delta recorded into PhaseStats agrees: all hits, no misses.
        assert_eq!(stats.cache.misses, 0);
        assert!(stats.cache.hits > 0);
    }

    /// Fail-first for the memo's invalidation: a footprint naming a block
    /// of the memoized chain must make the next audit replay it. Here the
    /// edit weakens the entry's guard `x >= 0` to `x >= -5`, so `x / 2`
    /// no longer strength-reduces on the `bp2` path; a memo that kept the
    /// entry's old stamp would still predict it.
    #[test]
    fn the_audit_memo_replays_the_chain_blocks_a_footprint_names() {
        use crate::simulation::{audit_opportunities, simulate, AuditMemo};
        let mut b = GraphBuilder::new("memo", &[Type::Int, Type::Bool], empty_table());
        let (x, c) = (b.param(0), b.param(1));
        let zero = b.iconst(0);
        let two = b.iconst(2);
        let guard = b.cmp(CmpOp::Ge, x, zero);
        let (bg, bd) = (b.new_block(), b.new_block());
        b.branch(guard, bg, bd, 0.99);
        b.switch_to(bd);
        b.deopt();
        b.switch_to(bg);
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
        let mut g = b.finish();

        let model = CostModel::new();
        let mut cache = AnalysisCache::new();
        let s = simulate(&g, &model, &mut cache)
            .into_iter()
            .find(|r| r.pred == bp2 && r.merge == bm)
            .expect("pair simulated");
        assert_eq!(s.opportunities.len(), 1, "x / 2 strength-reduces");
        let mut memo = AuditMemo::new();
        let mut oracle = None;
        let first = memo.audit(&g, &model, &mut cache, &s, &mut oracle);
        assert_eq!(first.as_ref(), Some(&s.opportunities));

        g.begin_txn();
        let entry = g.entry();
        let at = g
            .block_insts(entry)
            .iter()
            .position(|&i| i == guard)
            .unwrap();
        let minus5 = g.insert_inst(entry, at, Inst::Const(ConstValue::Int(-5)), Type::Int);
        g.rewrite_inputs(guard, |inst| {
            if let Inst::Compare { rhs, .. } = inst {
                *rhs = minus5;
            }
        });
        let mut changed = FootprintBlocks::default();
        assert!(changed.mark(&g));
        memo.invalidate(&changed);
        g.commit_txn();
        verify(&g).unwrap();

        let again = memo.audit(&g, &model, &mut cache, &s, &mut oracle);
        assert_eq!(again, audit_opportunities(&g, &model, &mut cache, &s));
        assert_eq!(again, Some(Vec::new()));
        assert_eq!(oracle, None);
    }
}
