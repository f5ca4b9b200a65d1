//! Backend parity property tests: the in-memory and on-disk store
//! backends must expose identical get/put/evict/keys semantics under
//! arbitrary operation sequences — including after the on-disk backend
//! is "crashed" (dropped with a stray temp file planted, as a writer
//! dying mid-install would leave it) and reopened through its recovery
//! scan. The same holds under a byte budget: [`BoundedStore`] over disk
//! and over memory evict the same victims in the same order, across
//! crash-and-reopen cycles too (the clock reseeds from sorted keys on
//! both sides).

use dbds_server::{BoundedStore, CompiledStore, DiskStore, MemStore, StoreKey};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One step of a random store script. Keys and payloads come from a
/// small alphabet so collisions (overwrites, double evicts) actually
/// happen.
#[derive(Clone, Debug)]
enum Op {
    Put(u8, u8),
    Get(u8),
    Evict(u8),
    /// Crash the disk backend (drop it, plant a stray temp file) and
    /// reopen it — installed entries must survive, the stray temp must
    /// not surface. The in-memory reference keeps its entries; under a
    /// budget its clock is reseeded like the reopened disk side's.
    CrashAndReopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // (discriminant, key, payload version) — the vendored proptest
    // subset has no `prop_oneof`, so one mapped tuple picks the op.
    (0u8..10, 0u8..6, 0u8..255).prop_map(|(which, k, v)| match which {
        0..=3 => Op::Put(k, v),
        4..=7 => Op::Get(k),
        8 => Op::Evict(k),
        _ => Op::CrashAndReopen,
    })
}

fn key(k: u8) -> StoreKey {
    StoreKey {
        graph: u64::from(k) + 1,
        config: 0xC0FFEE,
    }
}

fn payload(k: u8, v: u8) -> Vec<u8> {
    format!("payload for key {k} version {v}\n").into_bytes()
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dbds-store-parity-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `inner`, under `budget` when there is one.
fn wrap(inner: impl CompiledStore + 'static, budget: Option<u64>) -> Box<dyn CompiledStore> {
    match budget {
        Some(b) => Box::new(BoundedStore::new(Box::new(inner), b).expect("seed bounded store")),
        None => Box::new(inner),
    }
}

/// The in-memory side of a crash: a fresh [`MemStore`] holding what the
/// old one held — under a budget, with a freshly seeded clock and a
/// zeroed eviction counter, exactly what reopening the disk side gives.
fn reopen_mem(old: &mut dyn CompiledStore, budget: Option<u64>) -> Box<dyn CompiledStore> {
    let mut mem = MemStore::new();
    for k in old.keys().expect("mem keys") {
        let payload = old.get(&k).expect("mem get").expect("listed key is live");
        mem.put(&k, &payload).expect("mem put");
    }
    wrap(mem, budget)
}

/// Runs `ops` against a memory-backed and a disk-backed store, both
/// under `budget`, and requires the same answers, the same surviving
/// keys (so the same eviction victims) and the same eviction totals
/// after every step.
fn check_script(ops: &[Op], budget: Option<u64>) {
    let dir = fresh_dir();
    let mut mem = wrap(MemStore::new(), budget);
    let mut disk = wrap(DiskStore::open(&dir).expect("open disk store"), budget);
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Put(k, v) => {
                mem.put(&key(*k), &payload(*k, *v)).expect("mem put");
                disk.put(&key(*k), &payload(*k, *v)).expect("disk put");
            }
            Op::Get(k) => {
                let m = mem.get(&key(*k)).expect("mem get");
                let d = disk.get(&key(*k)).expect("disk get");
                assert_eq!(m, d, "get({k}) diverged at step {i}");
            }
            Op::Evict(k) => {
                let m = mem.evict(&key(*k)).expect("mem evict");
                let d = disk.evict(&key(*k)).expect("disk evict");
                assert_eq!(m, d, "evict({k}) diverged at step {i}");
            }
            Op::CrashAndReopen => {
                drop(disk);
                // What a writer killed mid-install leaves behind.
                std::fs::write(
                    dir.join(format!("{}.tmp4242", key(0))),
                    b"torn half-written entry",
                )
                .expect("plant stray tmp");
                disk = wrap(DiskStore::open(&dir).expect("reopen disk store"), budget);
                mem = reopen_mem(mem.as_mut(), budget);
                assert_eq!(
                    disk.health().quarantined,
                    0,
                    "recovery scan quarantined a healthy entry at step {i}"
                );
            }
        }
        assert_eq!(
            mem.keys().expect("mem keys"),
            disk.keys().expect("disk keys"),
            "keys() diverged at step {i}"
        );
        assert_eq!(
            mem.health().evictions,
            disk.health().evictions,
            "eviction totals diverged at step {i}"
        );
    }
    for k in 0u8..6 {
        assert_eq!(
            mem.get(&key(k)).expect("mem get"),
            disk.get(&key(k)).expect("disk get"),
            "final get({k}) diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mem_and_disk_backends_agree(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        check_script(&ops, None);
    }

    /// ~27-byte payloads under a 60-byte budget: two entries fit, so
    /// puts under pressure actually turn the clock.
    #[test]
    fn bounded_disk_matches_bounded_mem(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        check_script(&ops, Some(60));
    }
}
