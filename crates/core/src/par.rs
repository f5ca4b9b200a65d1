//! The unit-level worker pool.
//!
//! Compilation units are the only parallel grain of this workspace — the
//! paper's setting (§6: Graal compiles independent units on concurrent
//! compiler threads), and the only one Amdahl pays for here: the
//! simulation tier is under 3 % of a unit's compile time, so fanning out
//! *inside* a unit cannot buy more than that.
//!
//! [`run_units`] is built on [`std::thread::scope`] (the build
//! environment has no rayon): workers claim unit indices off a shared
//! [`AtomicUsize`] cursor and deposit each result into the slot of its
//! index, so the output is in submission order whichever worker ran what
//! and however long each unit took.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// The machine's available parallelism, resolved once per process
/// ([`std::thread::available_parallelism`] is a syscall and pools are
/// sized per batch).
pub fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Runs `f(index, &units[index])` over every unit on up to `workers`
/// threads and returns the results in submission (index) order.
///
/// With one worker (or at most one unit) everything runs inline on the
/// calling thread, in index order. Otherwise `workers` (clamped to the
/// unit count) scoped threads claim one unit at a time off a shared
/// cursor; there a panicking unit does not stop the others: every
/// remaining unit still runs, and the first panic payload (in completion
/// order) is re-raised on the calling thread once the pool has drained.
pub fn run_units<I: Sync, T: Send>(
    workers: usize,
    units: &[I],
    f: impl Fn(usize, &I) -> T + Sync,
) -> Vec<T> {
    let workers = workers.clamp(1, units.len().max(1));
    if workers == 1 {
        return units.iter().enumerate().map(|(i, u)| f(i, u)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = units.iter().map(|_| Mutex::new(None)).collect();
    let first_panic = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // The cursor only hands out indices; each result is
                // published by its slot's mutex and the scope's join.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(unit) = units.get(i) else { break };
                match catch_unwind(AssertUnwindSafe(|| f(i, unit))) {
                    Ok(result) => {
                        // Nothing panics while a slot is held, so a
                        // poisoned slot still holds valid data.
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                    }
                    Err(payload) => {
                        first_panic
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .get_or_insert(payload);
                    }
                }
            });
        }
    });
    if let Some(payload) = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every unit committed a result or a panic")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_submission_order_at_every_width() {
        let units: Vec<u64> = (0..23).collect();
        let expected: Vec<u64> = units.iter().map(|&v| v * 1000 + v).collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            let results = run_units(workers, &units, |i, &v| v * 1000 + i as u64);
            assert_eq!(results, expected, "at {workers} workers");
        }
    }

    #[test]
    fn one_worker_runs_inline_in_index_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        run_units(1, &[(); 9], |i, ()| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(order.into_inner().unwrap(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let results = run_units(4, &[] as &[u64], |_, _| -> u64 { panic!("never called") });
        assert!(results.is_empty());
    }

    #[test]
    fn a_unit_panic_reaches_the_caller_with_its_payload() {
        for workers in [1, 2, 8] {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_units(workers, &[(); 8], |i, ()| {
                    if i == 3 {
                        panic!("unit 3 exploded");
                    }
                })
            }));
            let payload = outcome.expect_err("the panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"unit 3 exploded"));
        }
    }

    #[test]
    fn hardware_threads_is_cached_and_nonzero() {
        assert!(hardware_threads() >= 1);
        assert_eq!(hardware_threads(), hardware_threads());
    }
}
