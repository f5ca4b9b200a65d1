//! The backtracking baseline (§3.1, Algorithm 1).
//!
//! For every predecessor→merge pair: tentatively perform the
//! duplication, run the full optimization pipeline, and keep the result
//! only if the static performance estimate improved (otherwise roll the
//! attempt back). The paper's Algorithm 1 takes a whole-graph backup per
//! attempt — the copy operation alone increased compilation time by
//! roughly an order of magnitude, which `figures --table backtracking`
//! reproduces. Our implementation brackets
//! each attempt in an IR undo-log transaction instead, so rollback costs
//! O(edits made); the unavoidable Algorithm-1 cost that remains is the
//! duplication itself plus the full re-optimization per attempt, and the
//! fuel accounting charges exactly that duplicated-instruction volume.

use crate::bailout::{isolate, BailoutRecord, Budget, Tier};
use crate::phase::{DbdsConfig, PhaseStats};
use crate::tradeoff::MAX_UNIT_SIZE;
use crate::transform::duplicate;
use dbds_analysis::AnalysisCache;
use dbds_costmodel::CostModel;
use dbds_ir::Graph;
use dbds_opt::optimize_full;
use std::time::Instant;

/// Safety bound on outer-loop restarts.
const MAX_ROUNDS: usize = 64;

/// Minimum weighted-cycle improvement for a tentative duplication to be
/// kept. Duplication almost always merges a straight-line block chain and
/// thereby removes a jump or two; that control-transfer noise (~1 cycle)
/// does not count as "an optimization triggered" in Algorithm 1's sense.
const IMPROVEMENT_NOISE: f64 = 1.0;

/// Runs Algorithm 1 on `g`. Analyses for the optimization pipeline and
/// the static estimator flow through `cache`; the rollback path is safe
/// because the undo log restores the pre-attempt version stamp and
/// stamps are never reused, so a cache entry can never describe the
/// wrong timeline.
///
/// In the returned stats `iterations` counts outer-loop restarts,
/// `candidates` the tentative duplications tried, `duplications` those
/// kept, and `work` the instructions actually copied across all attempts
/// (the size of each tentative copy block — the real copy work of
/// Algorithm 1, not the whole-graph backup volume).
pub fn run_backtracking(
    g: &mut Graph,
    model: &CostModel,
    cfg: &DbdsConfig,
    cache: &mut AnalysisCache,
) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let undo_base = g.undo_stats();
    let budget = Budget::new(&cfg.guard);
    let opt = optimize_full(g, cache);
    stats.record_opt(&opt);
    stats.initial_size = model.graph_size(g);

    'outer: loop {
        stats.iterations += 1;
        if stats.iterations > MAX_ROUNDS {
            break;
        }
        for merge in g.merge_blocks() {
            for pred in g.preds(merge).to_vec() {
                if pred == merge {
                    continue;
                }
                stats.candidates += 1;
                // The cost Algorithm 1 cannot avoid: the tentative copy
                // itself. Each instruction the duplication is about to
                // copy burns fuel — the undo log removed the whole-graph
                // backup the snapshot-based formulation also paid here.
                let copy_cost = (g.block_insts(merge).len() - g.phis(merge).len()).max(1) as u64;
                if let Err(reason) = budget.consume(copy_cost) {
                    stats.bailouts.push(BailoutRecord {
                        reason,
                        tier: Tier::Optimization,
                        candidate: Some((pred, merge)),
                        recovered: false,
                    });
                    break 'outer;
                }
                let before = model.weighted_cycles(g, cache);
                // Bracket the attempt: accept commits, reject (or a
                // contained failure) rolls back in O(edits).
                let tu = Instant::now();
                g.begin_txn();
                stats.undo_ns += tu.elapsed().as_nanos();

                match isolate(|| {
                    let dup = duplicate(g, pred, merge);
                    let copied = g.block_insts(dup.copy).len() as u64;
                    (copied, optimize_full(g, cache))
                }) {
                    Ok((copied, opt)) => {
                        stats.work += copied;
                        stats.record_opt(&opt);
                    }
                    Err(reason) => {
                        // Contained: the attempt's transaction doubles
                        // as our recovery checkpoint.
                        let tu = Instant::now();
                        g.rollback_txn();
                        stats.undo_ns += tu.elapsed().as_nanos();
                        stats.bailouts.push(BailoutRecord {
                            reason,
                            tier: Tier::Optimization,
                            candidate: Some((pred, merge)),
                            recovered: true,
                        });
                        continue;
                    }
                }

                let after = model.weighted_cycles(g, cache);
                let size = model.graph_size(g);
                let improved = before - after > IMPROVEMENT_NOISE;
                let fits = size < MAX_UNIT_SIZE
                    && (size as f64)
                        < stats.initial_size as f64 * cfg.tradeoff.size_increase_budget;
                let tu = Instant::now();
                if improved && fits {
                    stats.duplications += 1;
                    g.commit_txn();
                    stats.undo_ns += tu.elapsed().as_nanos();
                    // The CFG and block list changed: restart (Algorithm
                    // 1's `continue outer`).
                    continue 'outer;
                }
                g.rollback_txn();
                stats.undo_ns += tu.elapsed().as_nanos();
            }
        }
        // A full scan without an accepted duplication: done.
        break;
    }
    stats.final_size = model.graph_size(g);
    stats.record_undo(g, undo_base);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{execute, verify, ClassTable, CmpOp, GraphBuilder, Type, Value};
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
    fn backtracking_finds_the_figure1_duplication() {
        let mut g = figure1();
        let model = CostModel::new();
        let stats = run_backtracking(
            &mut g,
            &model,
            &DbdsConfig::default(),
            &mut AnalysisCache::new(),
        );
        verify(&g).unwrap();
        assert!(stats.duplications >= 1, "{stats:?}");
        assert!(stats.candidates >= stats.duplications);
        assert!(stats.work > 0);
        assert_eq!(execute(&g, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
        assert_eq!(execute(&g, &[Value::Int(-1)]).outcome, Ok(Value::Int(2)));
    }

    #[test]
    fn rejects_unprofitable_duplications() {
        // A merge whose body cannot be optimized on either path: nothing
        // should be kept.
        let mut b = GraphBuilder::new("flat", &[Type::Int, Type::Int], empty_table());
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
        b.ret(Some(s));
        let mut g = b.finish();
        let model = CostModel::new();
        let stats = run_backtracking(
            &mut g,
            &model,
            &DbdsConfig::default(),
            &mut AnalysisCache::new(),
        );
        assert_eq!(stats.duplications, 0);
        assert!(stats.candidates >= 2);
        verify(&g).unwrap();
    }

    #[test]
    fn fuel_exhaustion_stops_backtracking_with_a_verified_graph() {
        use crate::bailout::{BailoutReason, GuardConfig};
        let mut g = figure1();
        let model = CostModel::new();
        let cfg = DbdsConfig {
            guard: GuardConfig {
                fuel: Some(1),
                ..GuardConfig::default()
            },
            ..DbdsConfig::default()
        };
        let stats = run_backtracking(&mut g, &model, &cfg, &mut AnalysisCache::new());
        assert_eq!(stats.duplications, 0);
        assert!(stats
            .bailouts
            .iter()
            .any(|b| b.reason == BailoutReason::FuelExhausted && !b.recovered));
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
    }

    #[test]
    fn copies_grow_with_graph_size() {
        // The copied-instruction counter reflects Algorithm 1's cost.
        let mut g = figure1();
        let model = CostModel::new();
        let stats = run_backtracking(
            &mut g,
            &model,
            &DbdsConfig::default(),
            &mut AnalysisCache::new(),
        );
        assert!(stats.work > 0);
    }

    #[test]
    fn instructions_copied_counts_duplicated_insts_not_whole_graph() {
        // Regression: the snapshot era charged the copy-work counter
        // (`work`) with the *whole-graph* live instruction count per
        // attempt. It must now reflect the actual copy work — the size of
        // each tentative copy block — which is strictly smaller than
        // attempts × whole-graph size for any non-degenerate graph.
        let mut g = figure1();
        let whole_graph = g.live_inst_count() as u64;
        let model = CostModel::new();
        let stats = run_backtracking(
            &mut g,
            &model,
            &DbdsConfig::default(),
            &mut AnalysisCache::new(),
        );
        assert!(stats.candidates >= 1, "{stats:?}");
        assert!(stats.work > 0, "{stats:?}");
        assert!(
            stats.work < stats.candidates as u64 * whole_graph,
            "counter still charges whole-graph copies: {stats:?}"
        );
        // Figure 1's merge holds one φ plus two real instructions; no
        // attempt can copy more than the merge body.
        assert!(stats.work <= stats.candidates as u64 * 3, "{stats:?}");
    }

    #[test]
    fn undo_counters_surface_in_backtracking_stats() {
        let mut g = figure1();
        let model = CostModel::new();
        let stats = run_backtracking(
            &mut g,
            &model,
            &DbdsConfig::default(),
            &mut AnalysisCache::new(),
        );
        // Every attempt opened a transaction; rejected ones rolled back.
        let rejected = (stats.candidates - stats.duplications) as u64;
        assert_eq!(stats.undo_rollbacks, rejected, "{stats:?}");
        assert!(stats.undo_edits > 0, "{stats:?}");
        assert!(stats.undo_peak > 0, "{stats:?}");
        assert_eq!(g.txn_depth(), 0);
    }
}
