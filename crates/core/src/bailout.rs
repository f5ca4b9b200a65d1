//! Bailout-and-recovery guardrails for the DBDS phase.
//!
//! The paper's phase runs inside a production JIT, where a misbehaving
//! optimization must leave a correct compilation behind rather than take
//! down the compiler. This module provides the pieces the three tiers
//! share:
//!
//! - [`GuardConfig`] — fuel / deadline budgets, part of
//!   [`DbdsConfig`](crate::DbdsConfig).
//! - [`Budget`] — cooperative accounting the simulation, trade-off and
//!   optimization tiers poll; exhaustion becomes a structured
//!   [`BailoutReason`] instead of unbounded work.
//! - [`checkpoint`] — `dbds_ir::verify` as a phase checkpoint, mapping
//!   rejection into [`BailoutReason::VerifierRejected`]. The phase runs
//!   it once per round, at the round's boundary; only a round the
//!   boundary rejected is replayed with it after every duplication.
//! - [`isolate`] — `catch_unwind` with a panic-hook silencer, converting
//!   a panicking transformation into
//!   [`BailoutReason::TransformPanicked`] without spamming stderr. A
//!   round's optimistic pass runs under it too: until the boundary, the
//!   graph may hold a corruption nobody has detected yet. The optimizer's
//!   debug oracle ([`dbds_opt::DIVERGED`]) is the exception: it reports a
//!   bug, so `isolate` raises it again.
//! - [`transact`] — [`isolate`] composed with the IR undo log: the
//!   closure runs inside a [`Graph::begin_txn`] frame that is committed
//!   on success and rolled back (in O(edits), not O(graph)) on panic or
//!   error.
//! - [`BailoutRecord`] — the observability row collected into
//!   [`PhaseStats::bailouts`](crate::PhaseStats::bailouts).
//!
//! Ownership is strictly **per compilation unit**: every
//! [`run_dbds`](crate::run_dbds) / [`compile`](crate::compile) call
//! creates its own [`Budget`] (and its own analysis cache), and
//! [`isolate`]'s panic-hook silencer is thread-local. Units compiled
//! concurrently on the harness's unit queue therefore cannot poison each
//! other: one unit's fuel exhaustion, deadline miss or contained panic
//! never charges or silences a neighbor.

use dbds_ir::{BlockId, Graph};
use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

/// Why a tier abandoned (part of) its work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BailoutReason {
    /// The instruction-visit fuel budget ran out.
    FuelExhausted,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// A checkpoint verification (or a typed transform error) rejected
    /// the graph state; the payload is a one-line digest.
    VerifierRejected(String),
    /// A transformation panicked and was caught; the payload is the panic
    /// message.
    TransformPanicked(String),
    /// The trade-off tier's code-size budget blocked a candidate whose
    /// benefit had already cleared the cost heuristic.
    SizeBudgetExceeded,
}

impl BailoutReason {
    /// Stable lowercase label for aggregation and reports.
    pub fn label(&self) -> &'static str {
        match self {
            BailoutReason::FuelExhausted => "fuel-exhausted",
            BailoutReason::DeadlineExceeded => "deadline-exceeded",
            BailoutReason::VerifierRejected(_) => "verifier-rejected",
            BailoutReason::TransformPanicked(_) => "transform-panicked",
            BailoutReason::SizeBudgetExceeded => "size-budget-exceeded",
        }
    }
}

impl fmt::Display for BailoutReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BailoutReason::VerifierRejected(msg) => write!(f, "verifier-rejected: {msg}"),
            BailoutReason::TransformPanicked(msg) => write!(f, "transform-panicked: {msg}"),
            other => f.write_str(other.label()),
        }
    }
}

/// The DBDS tier a bailout happened in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The simulation tier (dominator-tree walk + DSTs).
    Simulation,
    /// The trade-off tier (`shouldDuplicate` + budgets).
    Tradeoff,
    /// The optimization tier (duplication transform + cleanup passes).
    Optimization,
}

impl Tier {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Simulation => "simulation",
            Tier::Tradeoff => "tradeoff",
            Tier::Optimization => "optimization",
        }
    }
}

/// One bailout incident of a compilation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BailoutRecord {
    /// What went wrong (or ran out).
    pub reason: BailoutReason,
    /// The tier it happened in.
    pub tier: Tier,
    /// The (predecessor, merge) candidate being processed, if any.
    pub candidate: Option<(BlockId, BlockId)>,
    /// `true` when the failure was contained — rolled back to a verified
    /// state (or the candidate skipped) and the phase continued. `false`
    /// when the phase stopped early (budget exhaustion).
    pub recovered: bool,
}

/// Guardrail tunables of the phase, part of
/// [`DbdsConfig`](crate::DbdsConfig).
#[derive(Clone, Debug, Default)]
pub struct GuardConfig {
    /// Instruction-visit fuel for the whole phase. `None` = unbounded
    /// (the default: the happy path pays no budget checks beyond a
    /// counter increment).
    pub fuel: Option<u64>,
    /// Wall-clock deadline for the whole phase, measured from its start.
    /// `None` = no deadline.
    pub deadline: Option<Duration>,
}

/// Sentinel for an unbounded fuel tank (a `fuel` budget of `u64::MAX`
/// is treated as unbounded).
const UNBOUNDED: u64 = u64::MAX;

/// Cooperative fuel / deadline accounting shared by the three tiers.
///
/// Interior-mutable, so a `&Budget` can thread through the recursive
/// simulation walk alongside other borrows. One budget belongs to one
/// compilation and is only ever charged from the thread compiling it:
/// the counters are [`Cell`]s, so `Budget` is `!Sync` and the compiler
/// rejects sharing one across threads.
#[derive(Debug)]
pub struct Budget {
    /// Remaining fuel; [`UNBOUNDED`] = no limit.
    fuel: Cell<u64>,
    deadline: Option<Instant>,
    used: Cell<u64>,
}

impl Budget {
    /// A budget enforcing `guard`'s limits, with the deadline clock
    /// starting now.
    pub fn new(guard: &GuardConfig) -> Self {
        Budget {
            fuel: Cell::new(guard.fuel.unwrap_or(UNBOUNDED)),
            deadline: guard.deadline.map(|d| Instant::now() + d),
            used: Cell::new(0),
        }
    }

    /// A budget that never exhausts (fuel is still counted).
    pub fn unlimited() -> Self {
        Budget {
            fuel: Cell::new(UNBOUNDED),
            deadline: None,
            used: Cell::new(0),
        }
    }

    /// Burns `units` of fuel and polls the deadline.
    ///
    /// # Errors
    ///
    /// Returns the exhausted resource as a [`BailoutReason`]; once the
    /// fuel hits zero every further call fails.
    pub fn consume(&self, units: u64) -> Result<(), BailoutReason> {
        // Compiles to nothing without the `fault-injection` feature.
        if let Some(reason) = crate::faultinject::take_pending_exhaustion() {
            return Err(reason);
        }
        self.used.set(self.used.get() + units);
        let left = self.fuel.get();
        if left != UNBOUNDED {
            // `left == 0` keeps exhaustion sticky: once the tank is
            // empty, even zero-cost polls fail.
            if left == 0 || left < units {
                self.fuel.set(0);
                return Err(BailoutReason::FuelExhausted);
            }
            self.fuel.set(left - units);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BailoutReason::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Polls the budget without burning fuel.
    ///
    /// # Errors
    ///
    /// Same as [`Budget::consume`].
    pub fn check(&self) -> Result<(), BailoutReason> {
        self.consume(0)
    }

    /// Total fuel units consumed so far (also counted when unbounded).
    pub fn fuel_used(&self) -> u64 {
        self.used.get()
    }
}

/// Runs the verifier as a phase checkpoint.
///
/// # Errors
///
/// Maps a verification failure into
/// [`BailoutReason::VerifierRejected`] with a one-line digest of the
/// problems.
pub fn checkpoint(g: &Graph) -> Result<(), BailoutReason> {
    dbds_ir::verify(g).map_err(|e| BailoutReason::VerifierRejected(e.summary()))
}

thread_local! {
    /// Nesting depth of in-flight [`isolate`] calls on this thread; the
    /// global hook stays quiet while it is non-zero.
    static SILENCED: Cell<u32> = const { Cell::new(0) };
}

static HOOK: Once = Once::new();

/// Runs `f` with panics caught and converted into
/// [`BailoutReason::TransformPanicked`].
///
/// A process-global panic hook (installed once, delegating to the
/// previous hook outside isolation) keeps the caught panics from printing
/// a message and backtrace for every injected or recovered fault.
/// Callers are responsible for restoring any state `f` may have left
/// half-mutated — use [`transact`] to get that rollback for free from
/// the IR undo log.
///
/// # Errors
///
/// Returns the panic payload's message when `f` panicked.
///
/// # Panics
///
/// Panics again, with the same message, when `f`'s panic was a
/// divergence of the optimizer's debug oracle ([`dbds_opt::DIVERGED`]):
/// no bailout may hide it.
pub fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, BailoutReason> {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if SILENCED.with(|c| c.get()) == 0 {
                prev(info);
            }
        }));
    });
    SILENCED.with(|c| c.set(c.get() + 1));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SILENCED.with(|c| c.set(c.get() - 1));
    result.map_err(|payload| {
        let message = panic_message(payload.as_ref());
        if message.starts_with(dbds_opt::DIVERGED) {
            panic!("{message}");
        }
        BailoutReason::TransformPanicked(message)
    })
}

/// Runs `f` against `g` inside an IR transaction with panics isolated.
///
/// On success the transaction is committed; on a panic (caught by
/// [`isolate`]) or an `Err` from `f` it is rolled back, restoring the
/// graph and its version stamp to the state at entry in O(edits made) —
/// the undo-log replacement for restoring a whole-graph clone (debug
/// builds still take that clone and compare, see `Graph::rollback_txn`).
/// Returns the result alongside the nanoseconds spent on transaction
/// bookkeeping (begin + commit/rollback), which callers fold into their
/// `undo_ns` accounting.
///
/// # Errors
///
/// Propagates `f`'s error, or [`BailoutReason::TransformPanicked`] when
/// `f` panicked — in both cases after the rollback has completed.
pub fn transact<R>(
    g: &mut Graph,
    f: impl FnOnce(&mut Graph) -> Result<R, BailoutReason>,
) -> (Result<R, BailoutReason>, u128) {
    let t = Instant::now();
    g.begin_txn();
    let mut txn_ns = t.elapsed().as_nanos();
    let result = isolate(|| f(g)).and_then(|r| r);
    let t = Instant::now();
    if result.is_ok() {
        g.commit_txn();
    } else {
        g.rollback_txn();
    }
    txn_ns += t.elapsed().as_nanos();
    (result, txn_ns)
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..1000 {
            b.consume(1_000_000).unwrap();
        }
        assert_eq!(b.fuel_used(), 1_000_000_000);
    }

    #[test]
    fn fuel_runs_out_and_stays_out() {
        let guard = GuardConfig {
            fuel: Some(10),
            ..GuardConfig::default()
        };
        let b = Budget::new(&guard);
        b.consume(7).unwrap();
        assert_eq!(b.consume(7), Err(BailoutReason::FuelExhausted));
        // Sticky: even a zero-cost poll fails afterwards.
        assert_eq!(b.check(), Err(BailoutReason::FuelExhausted));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let guard = GuardConfig {
            deadline: Some(Duration::ZERO),
            ..GuardConfig::default()
        };
        let b = Budget::new(&guard);
        assert_eq!(b.check(), Err(BailoutReason::DeadlineExceeded));
    }

    #[test]
    fn isolate_returns_value_or_panic_message() {
        assert_eq!(isolate(|| 41 + 1), Ok(42));
        match isolate(|| -> i32 { panic!("boom {}", 7) }) {
            Err(BailoutReason::TransformPanicked(msg)) => assert!(msg.contains("boom 7")),
            other => panic!("expected TransformPanicked, got {other:?}"),
        }
        // The silencer unwinds correctly: a later panic is caught again.
        assert!(isolate(|| panic!("again")).is_err());
    }

    /// The optimizer's debug oracle runs inside `transact` (the DBDS
    /// optimization tier) and `isolate` (backtracking): its verdict must
    /// still fail the caller, through any depth of isolation.
    #[test]
    #[should_panic(expected = "the sparse optimizer diverged")]
    fn an_optimizer_divergence_is_raised_through_isolation() {
        let _ = isolate(|| isolate(|| panic!("{} on unit", dbds_opt::DIVERGED)));
    }

    #[test]
    fn checkpoint_accepts_valid_and_reports_broken_graphs() {
        use dbds_ir::{ClassTable, GraphBuilder, Type};
        use std::sync::Arc;
        let mut b = GraphBuilder::new("ck", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        b.ret(Some(x));
        let mut g = b.finish();
        checkpoint(&g).unwrap();
        // Corrupt: an extra φ input on a φ-less, predecessor-less entry.
        g.append_phi(g.entry(), vec![], Type::Int);
        // (append_phi allows it — entry has zero preds and zero inputs
        // match — but a φ can never live in a predecessor-less block.)
        match checkpoint(&g) {
            Err(BailoutReason::VerifierRejected(msg)) => {
                assert!(msg.contains("phi"), "{msg}")
            }
            other => panic!("expected VerifierRejected, got {other:?}"),
        }
    }

    #[test]
    fn transact_commits_on_ok_and_rolls_back_on_err_or_panic() {
        use dbds_ir::{ClassTable, GraphBuilder, Type};
        use std::sync::Arc;
        let mut b = GraphBuilder::new("tx", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        b.ret(Some(x));
        let mut g = b.finish();
        let pre_version = g.cfg_version();
        let pre_blocks = g.block_count();

        // Ok: the mutation survives.
        let (r, _) = transact(&mut g, |g| {
            g.add_block();
            Ok(())
        });
        r.unwrap();
        assert_eq!(g.block_count(), pre_blocks + 1);

        // Err: the mutation is rolled back, stamps included.
        let mid_version = g.cfg_version();
        let (r, _) = transact(&mut g, |g| {
            g.add_block();
            Err::<(), _>(BailoutReason::SizeBudgetExceeded)
        });
        assert_eq!(r, Err(BailoutReason::SizeBudgetExceeded));
        assert_eq!(g.block_count(), pre_blocks + 1);
        assert_eq!(g.cfg_version(), mid_version);

        // Panic: isolated, converted, rolled back.
        let (r, _) = transact(&mut g, |g| -> Result<(), BailoutReason> {
            g.add_block();
            panic!("mid-transform fault");
        });
        match r {
            Err(BailoutReason::TransformPanicked(msg)) => {
                assert!(msg.contains("mid-transform fault"));
            }
            other => panic!("expected TransformPanicked, got {other:?}"),
        }
        assert_eq!(g.block_count(), pre_blocks + 1);
        assert_eq!(g.cfg_version(), mid_version);
        assert_ne!(g.cfg_version(), pre_version);
        assert_eq!(g.txn_depth(), 0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BailoutReason::FuelExhausted.label(), "fuel-exhausted");
        assert_eq!(
            BailoutReason::VerifierRejected(String::new()).label(),
            "verifier-rejected"
        );
        assert_eq!(Tier::Tradeoff.name(), "tradeoff");
    }
}
