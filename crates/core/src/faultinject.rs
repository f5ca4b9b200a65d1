//! Deterministic fault injection for the bailout-and-recovery guardrails.
//!
//! Compiled only with the `fault-injection` feature; the production build
//! contains none of this code and no injection-point calls. A test arms a
//! seeded [`FaultPlan`] on the current thread; the next time the named
//! injection point is reached for the plan's trigger count, the plan
//! fires exactly once: a panic, a verifier-detectable graph corruption,
//! or an artificial budget exhaustion that the next cooperative
//! [`Budget`](crate::Budget) poll reports. The `faultsim` harness binary
//! sweeps every site × kind across the workload suite and asserts each
//! compilation still ends with a verified, interpreter-equivalent graph.

use crate::bailout::BailoutReason;
use dbds_ir::{Graph, Inst, InstId, Use};
use std::cell::{Cell, RefCell};

/// What an armed [`FaultPlan`] does when its injection point fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the injection point (exercises `catch_unwind` isolation).
    Panic,
    /// Mutate the graph into a state the verifier provably rejects
    /// (exercises checkpoint + rollback). A no-op at sites without graph
    /// access.
    CorruptGraph,
    /// Report fuel exhaustion at the next budget poll.
    ExhaustFuel,
    /// Report a missed deadline at the next budget poll.
    ExhaustDeadline,
}

impl FaultKind {
    /// Every kind, in sweep order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Panic,
        FaultKind::CorruptGraph,
        FaultKind::ExhaustFuel,
        FaultKind::ExhaustDeadline,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::CorruptGraph => "corrupt-graph",
            FaultKind::ExhaustFuel => "exhaust-fuel",
            FaultKind::ExhaustDeadline => "exhaust-deadline",
        }
    }
}

/// Registered injection points, in sweep order. Each name appears as a
/// [`fault_point`] call on a reachable error path of the transform, SSA
/// repair, simulation, or optimization code.
pub const SITES: &[&str] = &[
    "transform/entry",
    "transform/copy-body",
    "transform/retarget",
    "transform/ssa-repair",
    "simulation/dst",
    "phase/optimize",
];

/// A seeded, deterministic fault: fire `kind` on the `nth` hit of `site`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injection point, one of [`SITES`].
    pub site: &'static str,
    /// What to do when it fires.
    pub kind: FaultKind,
    /// Zero-based hit count of `site` at which the fault fires (a plan
    /// fires at most once).
    pub nth: u32,
    /// The seed the plan was derived from (recorded for reproduction).
    pub seed: u64,
}

impl FaultPlan {
    /// The full deterministic sweep for `seed`: every site × kind, each
    /// twice — once on the first hit and once on a later, seed-derived
    /// hit (so faults land both at the start and in the middle of a
    /// compilation).
    pub fn sweep(seed: u64) -> Vec<FaultPlan> {
        let mut plans = Vec::new();
        for &site in SITES {
            for kind in FaultKind::ALL {
                let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
                for byte in site.bytes().chain([kind.name().len() as u8]) {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                }
                let later = 1 + (h >> 33) as u32 % 3;
                for nth in [0, later] {
                    plans.push(FaultPlan {
                        site,
                        kind,
                        nth,
                        seed,
                    });
                }
            }
        }
        plans
    }
}

/// Arming state: the plan plus its hit counter.
struct Armed {
    plan: FaultPlan,
    hits: u32,
    fired: bool,
}

thread_local! {
    static ARMED: RefCell<Option<Armed>> = const { RefCell::new(None) };
    static PENDING_EXHAUSTION: Cell<Option<FaultKind>> = const { Cell::new(None) };
}

/// Arms `plan` on the current thread, replacing any previous plan and
/// clearing pending exhaustion state.
pub fn arm(plan: FaultPlan) {
    PENDING_EXHAUSTION.with(|p| p.set(None));
    ARMED.with(|a| {
        *a.borrow_mut() = Some(Armed {
            plan,
            hits: 0,
            fired: false,
        });
    });
}

/// Disarms the current thread's plan; returns how often its site was hit
/// and whether it fired.
pub fn disarm() -> (u32, bool) {
    PENDING_EXHAUSTION.with(|p| p.set(None));
    ARMED.with(|a| {
        a.borrow_mut()
            .take()
            .map_or((0, false), |armed| (armed.hits, armed.fired))
    })
}

/// An injection point. Call sites pass the graph when corruption is
/// meaningful there (`None` keeps `CorruptGraph` a no-op).
///
/// # Panics
///
/// Panics when an armed [`FaultKind::Panic`] plan fires here — that is
/// the injected fault.
pub fn fault_point(site: &str, g: Option<&mut Graph>) {
    let fire = ARMED.with(|a| {
        let mut a = a.borrow_mut();
        match a.as_mut() {
            Some(armed) if armed.plan.site == site => {
                let n = armed.hits;
                armed.hits += 1;
                if !armed.fired && n == armed.plan.nth {
                    armed.fired = true;
                    Some(armed.plan.kind)
                } else {
                    None
                }
            }
            _ => None,
        }
    });
    match fire {
        None => {}
        Some(FaultKind::Panic) => panic!("injected fault: panic at {site}"),
        Some(FaultKind::CorruptGraph) => {
            if let Some(g) = g {
                corrupt(g);
            }
        }
        Some(k @ (FaultKind::ExhaustFuel | FaultKind::ExhaustDeadline)) => {
            PENDING_EXHAUSTION.with(|p| p.set(Some(k)));
        }
    }
}

/// Consumes a pending artificial exhaustion; called by
/// [`Budget::consume`](crate::Budget::consume) so injected exhaustion
/// surfaces through the same cooperative path as the real thing.
pub fn take_pending_exhaustion() -> Option<BailoutReason> {
    PENDING_EXHAUSTION.with(|p| p.take()).map(|k| match k {
        FaultKind::ExhaustFuel => BailoutReason::FuelExhausted,
        _ => BailoutReason::DeadlineExceeded,
    })
}

// ---------------------------------------------------------------------
// Store-level faults (compilation-service persistent store)
// ---------------------------------------------------------------------

/// What an armed [`StoreFaultPlan`] does to the compiled-graph store
/// when it fires. These model the disk-level failure modes the
/// on-disk backend must survive; the `servsim` sweep proves each one
/// degrades to a recompute, never to a wrong served graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreFault {
    /// A write is cut short mid-payload but still renamed into place —
    /// the entry exists with a checksum that cannot match (a torn
    /// write surviving a crash).
    TornWrite,
    /// A bit of the payload flips between disk and the reader (media
    /// corruption; detected by the checksum footer).
    BitFlipRead,
    /// The write fails with "no space left on device" — a *transient*
    /// store error the service retries with backoff.
    Enospc,
    /// The writer dies after the temp file is written but before the
    /// atomic rename (kill-during-write): the entry never appears and
    /// the stray temp file is garbage for the next recovery scan.
    AbortBeforeRename,
}

impl StoreFault {
    /// Every kind, in sweep order.
    pub const ALL: [StoreFault; 4] = [
        StoreFault::TornWrite,
        StoreFault::BitFlipRead,
        StoreFault::Enospc,
        StoreFault::AbortBeforeRename,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            StoreFault::TornWrite => "torn-write",
            StoreFault::BitFlipRead => "bit-flip-read",
            StoreFault::Enospc => "enospc",
            StoreFault::AbortBeforeRename => "abort-before-rename",
        }
    }

    /// The store operation this fault strikes.
    pub fn op(self) -> StoreOp {
        match self {
            StoreFault::BitFlipRead => StoreOp::Get,
            _ => StoreOp::Put,
        }
    }
}

/// The two store operations faults can strike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOp {
    /// Reading an entry.
    Get,
    /// Writing an entry.
    Put,
}

/// A seeded, deterministic store fault: fire `kind` on the `nth` store
/// operation of the kind's op class. Armed per thread, independently of
/// the compile-phase [`FaultPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreFaultPlan {
    /// What to do when it fires.
    pub kind: StoreFault,
    /// Zero-based hit count (of the matching [`StoreOp`]) at which the
    /// fault fires; a plan fires at most once.
    pub nth: u32,
    /// The seed the plan was derived from (recorded for reproduction).
    pub seed: u64,
}

impl StoreFaultPlan {
    /// The full deterministic sweep for `seed`: every kind, firing both
    /// on the first matching operation and on a later, seed-derived one
    /// (so faults land on cold and warm store traffic).
    pub fn sweep(seed: u64) -> Vec<StoreFaultPlan> {
        let mut plans = Vec::new();
        for kind in StoreFault::ALL {
            let mut h = seed ^ 0x517c_c1b7_2722_0a95;
            for byte in kind.name().bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
            let later = 1 + (h >> 33) as u32 % 5;
            for nth in [0, later] {
                plans.push(StoreFaultPlan { kind, nth, seed });
            }
        }
        plans
    }
}

thread_local! {
    static ARMED_STORE: RefCell<Option<ArmedStore>> = const { RefCell::new(None) };
}

/// Arming state of a store fault: the plan plus its hit counter.
struct ArmedStore {
    plan: StoreFaultPlan,
    hits: u32,
    fired: bool,
}

/// Arms `plan` against the store operations of the current thread,
/// replacing any previous store plan.
pub fn arm_store(plan: StoreFaultPlan) {
    ARMED_STORE.with(|a| {
        *a.borrow_mut() = Some(ArmedStore {
            plan,
            hits: 0,
            fired: false,
        });
    });
}

/// Disarms the current thread's store plan; returns how often its op
/// class was hit and whether the plan fired.
pub fn disarm_store() -> (u32, bool) {
    ARMED_STORE.with(|a| {
        a.borrow_mut()
            .take()
            .map_or((0, false), |armed| (armed.hits, armed.fired))
    })
}

/// A store injection point: the on-disk backend calls this on every
/// `op` and enacts the returned fault. Counting is per op class, so a
/// `nth = 1` read fault fires on the second `get`, however many `put`s
/// happen in between.
pub fn take_store_fault(op: StoreOp) -> Option<StoreFault> {
    ARMED_STORE.with(|a| {
        let mut a = a.borrow_mut();
        match a.as_mut() {
            Some(armed) if armed.plan.kind.op() == op => {
                let n = armed.hits;
                armed.hits += 1;
                if !armed.fired && n == armed.plan.nth {
                    armed.fired = true;
                    Some(armed.plan.kind)
                } else {
                    None
                }
            }
            _ => None,
        }
    })
}

/// Mutates `g` into a state `dbds_ir::verify` provably rejects, without
/// making it unwalkable (downstream code may still traverse it before
/// the next checkpoint).
fn corrupt(g: &mut Graph) {
    // Preferred: widen an existing φ past its block's predecessor count
    // (arity mismatch).
    let first_phi: Option<InstId> = g.blocks().flat_map(|b| g.phis(b).to_vec()).next();
    if let Some(phi) = first_phi {
        let widened = g.rewrite_inputs(phi, |inst| match inst {
            Inst::Phi { inputs } if !inputs.is_empty() => {
                inputs.push(inputs[0]);
                true
            }
            _ => false,
        });
        if widened {
            return;
        }
    }
    // Fallback: detach the first instruction some other reachable user
    // still names (dangling-use violation).
    let order = g.reachable_blocks();
    let mut reachable = vec![false; g.block_count()];
    for &b in &order {
        reachable[b.index()] = true;
    }
    let victim = order.iter().flat_map(|&b| g.block_insts(b)).find(|&&i| {
        g.uses(i).any(|user| match user {
            Use::Inst(u) => u != i && g.block_of(u).is_some_and(|b| reachable[b.index()]),
            Use::Term(b) => reachable[b.index()],
        })
    });
    if let Some(&i) = victim {
        g.remove_inst(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{verify, ClassTable, CmpOp, GraphBuilder, Type};
    use std::sync::Arc;

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new("fi", &[Type::Int], Arc::new(ClassTable::new()));
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
        b.ret(Some(phi));
        b.finish()
    }

    #[test]
    fn sweep_is_deterministic_and_covers_all_sites() {
        let a = FaultPlan::sweep(42);
        let b = FaultPlan::sweep(42);
        assert_eq!(a, b);
        assert_eq!(a.len(), SITES.len() * FaultKind::ALL.len() * 2);
        for &site in SITES {
            assert!(a.iter().any(|p| p.site == site));
        }
        assert_ne!(FaultPlan::sweep(1), FaultPlan::sweep(2));
    }

    #[test]
    fn plan_fires_exactly_once_at_the_nth_hit() {
        arm(FaultPlan {
            site: "transform/entry",
            kind: FaultKind::ExhaustFuel,
            nth: 1,
            seed: 0,
        });
        fault_point("transform/entry", None);
        assert!(take_pending_exhaustion().is_none(), "hit 0 must not fire");
        fault_point("simulation/dst", None); // other sites don't count
        fault_point("transform/entry", None);
        assert_eq!(
            take_pending_exhaustion(),
            Some(BailoutReason::FuelExhausted)
        );
        fault_point("transform/entry", None);
        assert!(take_pending_exhaustion().is_none(), "fires at most once");
        let (hits, fired) = disarm();
        assert_eq!(hits, 3);
        assert!(fired);
    }

    #[test]
    fn corruption_is_verifier_detectable() {
        let mut g = diamond();
        verify(&g).unwrap();
        corrupt(&mut g);
        assert!(verify(&g).is_err(), "corruption must be detectable:\n{g}");
    }

    #[test]
    fn corruption_fallback_without_phis_is_detectable() {
        let mut b = GraphBuilder::new("nophi", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        let one = b.iconst(1);
        let s = b.add(x, one);
        b.ret(Some(s));
        let mut g = b.finish();
        verify(&g).unwrap();
        corrupt(&mut g);
        assert!(verify(&g).is_err(), "fallback corruption detectable:\n{g}");
    }

    #[test]
    fn disarmed_points_are_free_of_effects() {
        disarm();
        fault_point("transform/entry", None);
        assert!(take_pending_exhaustion().is_none());
    }

    #[test]
    fn store_sweep_is_deterministic_and_covers_all_kinds() {
        let a = StoreFaultPlan::sweep(7);
        assert_eq!(a, StoreFaultPlan::sweep(7));
        assert_eq!(a.len(), StoreFault::ALL.len() * 2);
        for kind in StoreFault::ALL {
            assert!(a.iter().any(|p| p.kind == kind && p.nth == 0));
            assert!(a.iter().any(|p| p.kind == kind && p.nth > 0));
        }
    }

    #[test]
    fn store_fault_counts_per_op_class_and_fires_once() {
        arm_store(StoreFaultPlan {
            kind: StoreFault::BitFlipRead,
            nth: 1,
            seed: 0,
        });
        assert_eq!(take_store_fault(StoreOp::Get), None, "hit 0 must not fire");
        // Puts do not advance a read fault's counter.
        assert_eq!(take_store_fault(StoreOp::Put), None);
        assert_eq!(
            take_store_fault(StoreOp::Get),
            Some(StoreFault::BitFlipRead)
        );
        assert_eq!(take_store_fault(StoreOp::Get), None, "fires at most once");
        let (hits, fired) = disarm_store();
        assert_eq!(hits, 3);
        assert!(fired);
        // Disarmed: free of effects.
        assert_eq!(take_store_fault(StoreOp::Put), None);
    }
}
