//! The compile path's allocation budget: heap allocations and bytes per
//! unit, per layer, counted by a global allocator.
//!
//! Two fixed unit sets (`generate_graph`, seeds 1000, 1001, ...): a few
//! Octane-profile units compiled at Dbds and a few dozen
//! JavaDaCapo-profile units at Baseline. Each unit goes through the
//! benchmark's pass — clone, compile, back end, final verify — and every
//! layer's allocations and bytes, averaged per unit, must stay within
//! 110 % of the figures pinned below (the compile layer's were about
//! twice as high before the walks borrowed their tables from a pooled
//! scratch and blocks stored their short lists in place). Debug builds
//! run the differential oracles, which allocate on their own, so they
//! have their own pins.
//!
//! The allocator counts per thread, in `const` thread-locals, so tests
//! running in parallel do not mix their counts; every measurement runs
//! on a thread of its own, which starts with an empty scratch pool. Run
//! with `--nocapture` to see the measured table.
//!
//! The IR text path has pins of its own: `parse_module` per Micro-profile
//! request text, and `content_hash`, which streams the printer into the
//! hash and allocates only its reachability walk's three tables, however
//! large the graph.
//!
//! This file holds the workspace's only `unsafe` code: the
//! `GlobalAlloc` implementation, which forwards every call to `System`.

use dbds::backend::compile_to_machine_code;
use dbds::core::{compile, DbdsConfig, OptLevel};
use dbds::costmodel::CostModel;
use dbds::ir::{content_hash, parse_module, print_class_table, print_graph, verify, Graph};
use dbds::workloads::{generate_graph, Suite};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to `System`, counting each allocation (a `realloc` counts
/// as one, of its new size) on the calling thread.
struct Counting;

thread_local! {
    /// (allocations, bytes) made on this thread so far.
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // A `const` thread-local of a `Copy` type neither allocates nor has
    // a destructor, so this is safe to call from inside the allocator;
    // `try_with` only fails while the thread is being torn down.
    let _ = COUNT.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Tally {
    allocs: u64,
    bytes: u64,
}

/// Runs `f`, adding what it allocated on this thread to `tally`.
fn counted<R>(tally: &mut Tally, f: impl FnOnce() -> R) -> R {
    let (n0, b0) = COUNT.with(Cell::get);
    let result = f();
    let (n1, b1) = COUNT.with(Cell::get);
    tally.allocs += n1 - n0;
    tally.bytes += b1 - b0;
    result
}

/// The layers of one pass over a unit, in order.
const LAYERS: [&str; 4] = ["clone", "compile", "backend", "verify"];

/// Per-unit averages, one per layer of [`LAYERS`].
type Budget = [Tally; 4];

/// `units` pristine units of `suite`'s profile.
fn units(suite: Suite, units: u64) -> Vec<Graph> {
    let profile = suite.profile();
    (0..units)
        .map(|i| generate_graph(&format!("{}{i}", suite.id()), &profile, 1000 + i))
        .collect()
}

/// One pass over `units` at `level` on a fresh thread: each layer's
/// allocations and bytes, averaged per unit.
fn measure(units: Vec<Graph>, level: OptLevel) -> Budget {
    std::thread::spawn(move || {
        let (model, cfg) = (CostModel::new(), DbdsConfig::default());
        let mut totals = [Tally::default(); 4];
        for unit in &units {
            let mut g = counted(&mut totals[0], || unit.clone());
            counted(&mut totals[1], || compile(&mut g, &model, level, &cfg));
            counted(&mut totals[2], || compile_to_machine_code(&g));
            let verified = counted(&mut totals[3], || verify(&g));
            verified.expect("the compiled unit verifies");
        }
        let n = units.len() as u64;
        totals.map(|t| Tally {
            allocs: t.allocs.div_ceil(n),
            bytes: t.bytes.div_ceil(n),
        })
    })
    .join()
    .expect("the measuring thread panicked")
}

/// Fails when a layer of `measured` exceeds 110 % of its pin; prints the
/// measured table either way.
fn check(name: &str, measured: &Budget, pinned: &Budget) {
    println!("{name}: per unit      allocs (pin)         bytes (pin)");
    let mut over = Vec::new();
    for ((layer, m), p) in LAYERS.iter().zip(measured).zip(pinned) {
        println!(
            "  {layer:<8} {:>10} ({:>8}) {:>12} ({:>10})",
            m.allocs, p.allocs, m.bytes, p.bytes
        );
        if m.allocs * 10 > p.allocs * 11 {
            over.push(format!(
                "{layer} allocations {} > 110 % of {}",
                m.allocs, p.allocs
            ));
        }
        if m.bytes * 10 > p.bytes * 11 {
            over.push(format!("{layer} bytes {} > 110 % of {}", m.bytes, p.bytes));
        }
    }
    assert!(over.is_empty(), "{name} over budget: {over:?}");
}

const fn tally(allocs: u64, bytes: u64) -> Tally {
    Tally { allocs, bytes }
}

/// 4 Octane-profile units at Dbds, per unit: clone, compile, back end,
/// verify.
const OCTANE_DBDS: Budget = if cfg!(debug_assertions) {
    [
        tally(184, 120_571),
        tally(64_673, 28_680_225),
        tally(65, 237_378),
        tally(45, 109_866),
    ]
} else {
    [
        tally(184, 120_571),
        tally(4_182, 1_640_753),
        tally(65, 237_378),
        tally(45, 109_866),
    ]
};

/// 40 JavaDaCapo-profile units at Baseline, per unit.
const DACAPO_BASELINE: Budget = if cfg!(debug_assertions) {
    [
        tally(65, 35_312),
        tally(832, 248_612),
        tally(53, 56_325),
        tally(34, 23_452),
    ]
} else {
    [
        tally(65, 35_312),
        tally(199, 37_932),
        tally(53, 56_325),
        tally(34, 23_452),
    ]
};

#[test]
fn octane_units_at_dbds_stay_within_budget() {
    let measured = measure(units(Suite::Octane, 4), OptLevel::Dbds);
    check("4 Octane units @ Dbds", &measured, &OCTANE_DBDS);
}

#[test]
fn dacapo_units_at_baseline_stay_within_budget() {
    let measured = measure(units(Suite::JavaDaCapo, 40), OptLevel::Baseline);
    check(
        "40 JavaDaCapo units @ Baseline",
        &measured,
        &DACAPO_BASELINE,
    );
}

/// A thread that has compiled a unit keeps the walks' tables: compiling
/// the same unit again allocates fewer bytes — on this Octane unit about
/// 570 KB fewer, in debug and release builds alike, where tables built
/// per walk made the two compiles allocate the same to within a few
/// bytes. The test asks for more than 100 KB.
#[test]
fn a_warm_thread_compiles_with_fewer_bytes() {
    let unit = units(Suite::Octane, 1).remove(0);
    let (first, second) = std::thread::spawn(move || {
        let (model, cfg) = (CostModel::new(), DbdsConfig::default());
        let mut runs = [Tally::default(); 2];
        for run in &mut runs {
            let mut g = unit.clone();
            counted(run, || compile(&mut g, &model, OptLevel::Dbds, &cfg));
        }
        (runs[0], runs[1])
    })
    .join()
    .expect("the measuring thread panicked");
    println!("first compile {first:?}, second {second:?}");
    assert!(
        first.bytes.saturating_sub(second.bytes) > 100_000,
        "the second compile allocated {} bytes, the first {}",
        second.bytes,
        first.bytes
    );
}

/// `parse_module` of 40 Micro-profile request texts (class table plus
/// body, as a compile request carries them), per unit. The parser runs
/// no differential oracle, so debug and release builds measure the same
/// and one pin serves both. The line-splitting parser this one replaced
/// made 97 allocations of 88 117 bytes per unit.
const PARSE_MICRO: Tally = tally(90, 77_537);

#[test]
fn parsing_micro_requests_stays_within_budget() {
    let texts: Vec<String> = units(Suite::Micro, 40)
        .iter()
        .map(|g| print_class_table(g.class_table()) + &print_graph(g))
        .collect();
    let per_unit = std::thread::spawn(move || {
        let mut total = Tally::default();
        for text in &texts {
            let module = counted(&mut total, || parse_module(text));
            module.expect("a printed unit parses");
        }
        let n = texts.len() as u64;
        tally(total.allocs.div_ceil(n), total.bytes.div_ceil(n))
    })
    .join()
    .expect("the measuring thread panicked");
    println!("parse_module per Micro unit: {per_unit:?} (pin {PARSE_MICRO:?})");
    assert!(
        per_unit.allocs * 10 <= PARSE_MICRO.allocs * 11
            && per_unit.bytes * 10 <= PARSE_MICRO.bytes * 11,
        "parse_module over budget: {per_unit:?} > 110 % of {PARSE_MICRO:?}"
    );
}

/// `content_hash` allocates the same few tables for a small unit and for
/// a compiled Octane unit thirteen times its size (the printer it streamed
/// through used to allocate 10 and 15 times on these two).
#[test]
fn content_hash_allocates_a_constant_per_graph() {
    let small = units(Suite::Micro, 1).remove(0);
    let mut large = units(Suite::Octane, 1).remove(0);
    compile(
        &mut large,
        &CostModel::new(),
        OptLevel::Dbds,
        &DbdsConfig::default(),
    );
    let allocs = std::thread::spawn(move || {
        [small, large].map(|g| {
            let mut tally = Tally::default();
            counted(&mut tally, || content_hash(&g));
            (g.inst_count(), tally.allocs)
        })
    })
    .join()
    .expect("the measuring thread panicked");
    println!("content_hash (instructions, allocations): {allocs:?}");
    assert!(allocs[1].0 > 10 * allocs[0].0, "{allocs:?}");
    for (insts, n) in allocs {
        assert!(
            n <= 3,
            "content_hash of a {insts}-instruction graph allocated {n} times"
        );
    }
}
