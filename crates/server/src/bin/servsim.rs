//! Deterministic store-fault sweep over the compilation service.
//!
//! For every seeded [`StoreFaultPlan`] (torn write, bit flip on read,
//! injected ENOSPC, writer killed before its atomic rename — each
//! firing both on cold and warm store traffic), the micro suite is
//! served twice through a [`CompileService`] over a fresh on-disk
//! store, and every OK response is byte-compared against a fresh,
//! fault-free compile of the same request. Fault-free adversarial
//! scenarios ride along: a store whose directory is deleted out from
//! under it, one whose directory is made read-only, and a size-budgeted
//! store squeezed hard enough that every pass evicts.
//!
//! The three guarantees checked (exit status is non-zero on any
//! violation):
//!
//! 1. **0 wrong results** — every served graph is byte-identical to a
//!    fresh compile (or the response is a typed error),
//! 2. **0 panics** — every pass runs to completion under isolation,
//! 3. **every plan fires** — the sweep actually exercised its faults.
//!
//! Stdout is deterministic (no timings, no paths), so CI can compare
//! sweeps across `DBDS_UNIT_THREADS` settings with `cmp`.
//!
//! ```text
//! cargo run --release -p dbds-server --features fault-injection --bin servsim [-- <seed>]
//! ```

use dbds_core::faultinject::{arm_store, disarm_store, StoreFaultPlan};
use dbds_core::{DbdsConfig, OptLevel};
use dbds_server::{
    BoundedStore, CompileOutcome, CompileRequest, CompileService, CompileSource, DiskStore,
    MemStore, ServiceConfig,
};
use dbds_workloads::Suite;
use std::path::PathBuf;
use std::process::ExitCode;

/// The request corpus: every micro-suite workload at the full DBDS
/// level.
fn corpus() -> Vec<CompileRequest> {
    Suite::Micro
        .workloads()
        .into_iter()
        .map(|w| CompileRequest {
            source: CompileSource::Workload(w.name),
            level: OptLevel::Dbds,
            deadline_ms: None,
        })
        .collect()
}

/// Serves `reqs` once and counts responses that are not byte-identical
/// to the fault-free ground truth (typed errors are allowed, wrong
/// bytes are not).
fn check_pass(
    svc: &CompileService,
    reqs: &[CompileRequest],
    truth: &[CompileOutcome],
) -> (u64, u64, u64) {
    let outcomes = svc.compile_batch(reqs);
    let mut served = 0;
    let mut errors = 0;
    let mut wrong = 0;
    for (outcome, expect) in outcomes.iter().zip(truth) {
        match outcome {
            Ok(got) => {
                served += 1;
                let want = expect.as_ref().expect("ground truth compile failed");
                if got.artifact != want.artifact {
                    wrong += 1;
                }
            }
            Err(_) => errors += 1,
        }
    }
    (served, errors, wrong)
}

/// Runs two isolated passes of `reqs` through `svc`, returning the
/// per-pass report lines plus `(wrong, panics)` totals.
fn run_passes(
    svc: &CompileService,
    reqs: &[CompileRequest],
    truth: &[CompileOutcome],
) -> (Vec<String>, u64, u64) {
    let mut lines = Vec::new();
    let mut wrong = 0u64;
    let mut panics = 0u64;
    for pass in 1..=2 {
        match dbds_core::isolate(|| check_pass(svc, reqs, truth)) {
            Ok((served, errors, w)) => {
                wrong += w;
                lines.push(format!(
                    "  pass {pass}: served={served} errors={errors} wrong={w}"
                ));
            }
            Err(_) => {
                panics += 1;
                lines.push(format!("  pass {pass}: PANIC"));
            }
        }
    }
    (lines, wrong, panics)
}

fn fresh_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbds-servsim-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A [`ServiceConfig`] with retries kept fast and deterministic.
fn sim_config() -> ServiceConfig {
    ServiceConfig {
        // Keep injected-ENOSPC retries fast and deterministic.
        store_backoff: std::time::Duration::from_millis(0),
        ..ServiceConfig::default()
    }
}

fn service_over(dir: &PathBuf) -> CompileService {
    let store = DiskStore::open(dir).expect("open servsim store");
    CompileService::new(Box::new(store), DbdsConfig::default(), sim_config())
}

fn counter_line(svc: &CompileService) -> String {
    let c = svc.counters();
    let health = svc.store_health();
    format!(
        "hits={} misses={} puts={} quarantined={} store_quarantined={} retries={} degraded={} \
         evictions={}",
        c.hits,
        c.misses,
        c.puts,
        c.quarantined,
        health.quarantined,
        c.retries,
        c.degraded,
        health.evictions
    )
}

fn main() -> ExitCode {
    let seed: u64 = match std::env::args().nth(1).map(|s| s.parse()) {
        None => 0xDBD5,
        Some(Ok(s)) => s,
        Some(Err(_)) => {
            eprintln!("servsim: error: seed must be a u64");
            return ExitCode::from(2);
        }
    };
    let reqs = corpus();

    // Fault-free ground truth: compile the corpus once with no store at
    // all (a memory store, discarded) — these artifacts are what every
    // faulted response must match byte-for-byte.
    let truth = {
        let svc = CompileService::new(
            Box::new(MemStore::new()),
            DbdsConfig::default(),
            ServiceConfig::default(),
        );
        svc.compile_batch(&reqs)
    };

    let mut total_wrong = 0u64;
    let mut total_panics = 0u64;
    let mut unfired = 0u64;

    println!(
        "servsim seed {seed:#x}: {} requests/pass, 2 passes/plan",
        reqs.len()
    );

    for (i, plan) in StoreFaultPlan::sweep(seed).into_iter().enumerate() {
        let dir = fresh_store_dir(&format!("plan{i}"));
        let svc = service_over(&dir);
        arm_store(plan.clone());
        let (pass_lines, wrong, panics) = run_passes(&svc, &reqs, &truth);
        total_wrong += wrong;
        total_panics += panics;
        let (_hits, fired) = disarm_store();
        if !fired {
            unfired += 1;
        }
        println!(
            "plan {} nth={} fired={} panicked={}",
            plan.kind.name(),
            plan.nth,
            fired,
            panics > 0
        );
        for line in pass_lines {
            println!("{line}");
        }
        println!("  {}", counter_line(&svc));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Scenario: the store directory is deleted while the service runs.
    {
        let dir = fresh_store_dir("dead-dir");
        let svc = service_over(&dir);
        std::fs::remove_dir_all(&dir).expect("remove store dir");
        let (lines, wrong, panics) = run_passes(&svc, &reqs, &truth);
        total_wrong += wrong;
        total_panics += panics;
        println!("scenario dead-store-dir");
        for line in lines {
            println!("{line}");
        }
        println!("  {}", counter_line(&svc));
        let degraded = svc.counters().degraded;
        if degraded == 0 {
            eprintln!("servsim: error: dead-dir scenario never degraded");
            total_wrong += 1;
        }
    }

    // Scenario: the store directory is read-only (puts fail forever).
    {
        let dir = fresh_store_dir("read-only");
        let svc = service_over(&dir);
        let mut perms = std::fs::metadata(&dir)
            .expect("stat store dir")
            .permissions();
        use std::os::unix::fs::PermissionsExt as _;
        perms.set_mode(0o555);
        std::fs::set_permissions(&dir, perms).expect("chmod store dir");
        let (lines, wrong, panics) = run_passes(&svc, &reqs, &truth);
        total_wrong += wrong;
        total_panics += panics;
        println!("scenario read-only-store-dir");
        for line in lines {
            println!("{line}");
        }
        println!("  {}", counter_line(&svc));
        let mut perms = std::fs::metadata(&dir)
            .expect("stat store dir")
            .permissions();
        perms.set_mode(0o755);
        let _ = std::fs::set_permissions(&dir, perms);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Scenario: a budget squeezed far below the corpus footprint. Every
    // put is admitted then swept, so the store churns constantly — the
    // service must still serve only byte-correct artifacts, and the
    // eviction counter must prove the policy actually ran.
    {
        let dir = fresh_store_dir("eviction-pressure");
        let disk = DiskStore::open(&dir).expect("open servsim store");
        let bounded = BoundedStore::new(Box::new(disk), 1).expect("bound servsim store");
        let svc = CompileService::new(Box::new(bounded), DbdsConfig::default(), sim_config());
        let (lines, wrong, panics) = run_passes(&svc, &reqs, &truth);
        total_wrong += wrong;
        total_panics += panics;
        println!("scenario eviction-pressure");
        for line in lines {
            println!("{line}");
        }
        println!("  {}", counter_line(&svc));
        if svc.store_health().evictions == 0 {
            eprintln!("servsim: error: eviction-pressure scenario never evicted");
            total_wrong += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    println!("servsim: wrong={total_wrong} panics={total_panics} unfired_plans={unfired}");
    if total_wrong == 0 && total_panics == 0 && unfired == 0 {
        println!("servsim: all store-fault scenarios degraded safely");
        ExitCode::SUCCESS
    } else {
        eprintln!("servsim: FAILURE");
        ExitCode::FAILURE
    }
}
