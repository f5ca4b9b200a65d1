//! The content-addressed compiled-graph store: a swappable backend
//! trait, an in-memory backend, a crash-safe on-disk backend with
//! checksummed entries, atomic installs and self-healing quarantine, and
//! one decorator, [`BoundedStore`], that keeps either under a byte
//! budget. The service holds exactly one store behind one lock; there is
//! one on-disk layout (`DIR/<key>.entry`).
//!
//! Robustness contract (what the `servsim` sweep proves):
//!
//! - **No torn entry is ever served.** Every on-disk entry carries a
//!   header with its payload length and FNV-1a checksum; a mismatch on
//!   read quarantines the file and reports a miss, never bytes.
//! - **Writes are atomic.** Entries are written to a temp file, synced,
//!   and renamed into place. A crash before the rename loses only the
//!   new entry (the temp file is swept by the next recovery scan); a
//!   crash after the rename leaves a complete, checksummed entry.
//! - **The store is advisory.** Every operation returns a typed
//!   [`StoreError`] instead of panicking; the service layer retries
//!   transient errors and degrades to fresh compilation when the store
//!   stays unavailable. A dead store slows requests down, it never
//!   fails them.

use crate::key::StoreKey;
use dbds_ir::fnv1a;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// The header magic of one on-disk entry file.
const ENTRY_MAGIC: &str = "dbds-store-entry-v1";
/// Entry file suffix.
const ENTRY_SUFFIX: &str = ".entry";
/// Temp-file suffix used during atomic installs.
const TMP_SUFFIX: &str = ".tmp";

/// A typed store failure. All store errors are *advisory*: the caller
/// is expected to retry or degrade, never to crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreError(pub String);

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store error: {}", self.0)
    }
}

impl std::error::Error for StoreError {}

/// Liveness/integrity summary of a backend, served in the status
/// report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreHealth {
    /// Entries currently retrievable.
    pub entries: usize,
    /// Entries quarantined since the backend was opened (recovery scan
    /// plus read-time checksum failures).
    pub quarantined: u64,
    /// Entries evicted by a size budget (see [`BoundedStore`]) since
    /// the backend was opened. Explicit `evict` calls do not count.
    pub evictions: u64,
}

/// The swappable persistence layer of the compilation service.
///
/// Both backends observe identical get/put/evict semantics (gated by
/// the parity proptest in `tests/store_parity.rs`): `get` returns
/// exactly the last successfully `put` payload or `None`, `evict`
/// reports whether an entry existed, and `keys` lists live entries in
/// sorted order. The on-disk backend additionally survives crashes and
/// quarantines corrupt entries instead of serving them.
pub trait CompiledStore: Send + fmt::Debug {
    /// Stable backend name for reports.
    fn backend(&self) -> &'static str;

    /// Fetches the payload stored under `key`, or `None` when absent
    /// (including when a corrupt entry was quarantined on this read).
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the backend cannot currently
    /// answer (I/O failure) — *not* for misses or quarantines.
    fn get(&mut self, key: &StoreKey) -> Result<Option<Vec<u8>>, StoreError>;

    /// Durably stores `payload` under `key`, replacing any previous
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the payload could not be
    /// installed; the store is left without a *partial* entry either
    /// way (atomic install).
    fn put(&mut self, key: &StoreKey, payload: &[u8]) -> Result<(), StoreError>;

    /// Removes the entry under `key`; `Ok(true)` when one existed.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the backend cannot currently
    /// answer.
    fn evict(&mut self, key: &StoreKey) -> Result<bool, StoreError>;

    /// Lists the keys of live entries, sorted.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the backend cannot currently
    /// answer.
    fn keys(&mut self) -> Result<Vec<StoreKey>, StoreError>;

    /// Current health snapshot.
    fn health(&mut self) -> StoreHealth;
}

/// The in-memory backend: a sorted map. Fast, crash-oblivious (the
/// cache dies with the process), and the semantic reference model for
/// the parity tests.
#[derive(Debug, Default)]
pub struct MemStore {
    entries: BTreeMap<StoreKey, Vec<u8>>,
}

impl MemStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl CompiledStore for MemStore {
    fn backend(&self) -> &'static str {
        "mem"
    }

    fn get(&mut self, key: &StoreKey) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.entries.get(key).cloned())
    }

    fn put(&mut self, key: &StoreKey, payload: &[u8]) -> Result<(), StoreError> {
        self.entries.insert(*key, payload.to_vec());
        Ok(())
    }

    fn evict(&mut self, key: &StoreKey) -> Result<bool, StoreError> {
        Ok(self.entries.remove(key).is_some())
    }

    fn keys(&mut self) -> Result<Vec<StoreKey>, StoreError> {
        Ok(self.entries.keys().copied().collect())
    }

    fn health(&mut self) -> StoreHealth {
        StoreHealth {
            entries: self.entries.len(),
            quarantined: 0,
            evictions: 0,
        }
    }
}

/// The crash-safe on-disk backend: one checksummed file per entry,
/// atomic temp-file-plus-rename installs, and a recovery scan that
/// sweeps stray temp files and quarantines corrupt entries on open.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    quarantined: u64,
}

impl DiskStore {
    /// Opens (creating if needed) the store at `dir` and runs the
    /// recovery scan: stray temp files from writers that died
    /// mid-install are deleted, and every entry whose header or
    /// checksum does not validate is moved into `dir/quarantine/`.
    /// Subdirectories (`quarantine/`, or the `shard-<i>/` directories
    /// an older daemon wrote) are never read or touched.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the directory cannot be created
    /// or scanned at all.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DiskStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StoreError(format!("create {dir:?}: {e}")))?;
        let mut store = DiskStore {
            dir,
            quarantined: 0,
        };
        store.recover()?;
        Ok(store)
    }

    /// The recovery scan (also safe to run on a live store).
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] when the directory cannot be listed.
    pub fn recover(&mut self) -> Result<(), StoreError> {
        for name in self.dir_entries()? {
            let path = self.dir.join(&name);
            if name.contains(TMP_SUFFIX) {
                // A writer died between write and rename: the entry was
                // never installed, the temp file is garbage.
                let _ = fs::remove_file(&path);
                continue;
            }
            let Some(stem) = name.strip_suffix(ENTRY_SUFFIX) else {
                continue;
            };
            let valid =
                stem.parse::<StoreKey>().is_ok() && matches!(read_entry_file(&path), Ok(Some(_)));
            if !valid {
                self.quarantine(&name);
            }
        }
        Ok(())
    }

    fn dir_entries(&self) -> Result<Vec<String>, StoreError> {
        let rd = fs::read_dir(&self.dir).map_err(|e| StoreError(format!("read dir: {e}")))?;
        let mut names = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| StoreError(format!("read dir entry: {e}")))?;
            if entry.path().is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn entry_path(&self, key: &StoreKey) -> PathBuf {
        self.dir.join(format!("{key}{ENTRY_SUFFIX}"))
    }

    /// Moves a corrupt entry out of the serving namespace (into
    /// `quarantine/`) so it can be inspected but never served again;
    /// falls back to deletion when even the move fails.
    fn quarantine(&mut self, name: &str) {
        self.quarantined += 1;
        let from = self.dir.join(name);
        let qdir = self.dir.join("quarantine");
        let moved = fs::create_dir_all(&qdir)
            .and_then(|()| fs::rename(&from, qdir.join(name)))
            .is_ok();
        if !moved {
            let _ = fs::remove_file(&from);
        }
    }
}

/// Reads and validates one entry file: `Ok(Some(payload))` when intact,
/// `Ok(None)` when structurally corrupt (bad magic, length mismatch,
/// checksum mismatch), `Err` when unreadable.
fn read_entry_file(path: &Path) -> Result<Option<Vec<u8>>, String> {
    let mut bytes = Vec::new();
    fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("open {path:?}: {e}"))?;
    // Bit-flip-on-read fault: media corruption between disk and reader.
    if !bytes.is_empty() && take_store_fault(StoreOp::Get) == Some(StoreFault::BitFlipRead) {
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
    }
    let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
        return Ok(None);
    };
    let Ok(header) = std::str::from_utf8(&bytes[..nl]) else {
        return Ok(None);
    };
    let mut parts = header.split(' ');
    if parts.next() != Some(ENTRY_MAGIC) {
        return Ok(None);
    }
    let (Some(len), Some(sum)) = (
        parts.next().and_then(|v| v.parse::<usize>().ok()),
        parts.next().and_then(|v| u64::from_str_radix(v, 16).ok()),
    ) else {
        return Ok(None);
    };
    let payload = &bytes[nl + 1..];
    if payload.len() != len || fnv1a(payload) != sum {
        return Ok(None);
    }
    Ok(Some(payload.to_vec()))
}

impl CompiledStore for DiskStore {
    fn backend(&self) -> &'static str {
        "disk"
    }

    fn get(&mut self, key: &StoreKey) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.entry_path(key);
        if !path.exists() {
            return Ok(None);
        }
        match read_entry_file(&path) {
            Ok(Some(payload)) => Ok(Some(payload)),
            Ok(None) => {
                // Corrupt: heal by quarantine + miss; the service
                // recomputes and re-puts.
                self.quarantine(&format!("{key}{ENTRY_SUFFIX}"));
                Ok(None)
            }
            Err(e) => Err(StoreError(e)),
        }
    }

    fn put(&mut self, key: &StoreKey, payload: &[u8]) -> Result<(), StoreError> {
        let fault = take_store_fault(StoreOp::Put);
        if fault == Some(StoreFault::Enospc) {
            return Err(StoreError(
                "no space left on device (injected ENOSPC)".into(),
            ));
        }

        let mut file_bytes =
            format!("{ENTRY_MAGIC} {} {:016x}\n", payload.len(), fnv1a(payload)).into_bytes();
        file_bytes.extend_from_slice(payload);

        // Torn write: the file is cut short mid-payload but still
        // renamed into place — the checksum can no longer match, which
        // is exactly what the read path must catch.
        if fault == Some(StoreFault::TornWrite) {
            file_bytes.truncate(file_bytes.len() - payload.len() / 2 - 1);
        }

        let tmp = self
            .dir
            .join(format!("{key}{TMP_SUFFIX}{}", std::process::id()));
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&file_bytes)?;
            f.sync_all()
        };
        write().map_err(|e| {
            let _ = fs::remove_file(&tmp);
            StoreError(format!("write {tmp:?}: {e}"))
        })?;

        // Kill-during-write: the writer dies after the temp file hits
        // disk but before the atomic rename. Nobody observes an error
        // (the process is gone); the entry simply never appears and the
        // stray temp file waits for the next recovery scan.
        if fault == Some(StoreFault::AbortBeforeRename) {
            return Ok(());
        }

        fs::rename(&tmp, self.entry_path(key)).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            StoreError(format!("rename into place: {e}"))
        })
    }

    fn evict(&mut self, key: &StoreKey) -> Result<bool, StoreError> {
        match fs::remove_file(self.entry_path(key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError(format!("evict: {e}"))),
        }
    }

    fn keys(&mut self) -> Result<Vec<StoreKey>, StoreError> {
        let mut keys = Vec::new();
        for name in self.dir_entries()? {
            if let Some(stem) = name.strip_suffix(ENTRY_SUFFIX) {
                if let Ok(key) = stem.parse::<StoreKey>() {
                    keys.push(key);
                }
            }
        }
        keys.sort();
        Ok(keys)
    }

    fn health(&mut self) -> StoreHealth {
        StoreHealth {
            entries: self.keys().map_or(0, |k| k.len()),
            quarantined: self.quarantined,
            evictions: 0,
        }
    }
}

// ---------------------------------------------------------------------
// Injected store faults
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
/// the compile-phase `dbds_core::faultinject::FaultPlan`.
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

/// A store injection point: [`DiskStore`] calls this on every `op` and
/// enacts the returned fault. Counting is per op class, so a `nth = 1`
/// read fault fires on the second `get`, however many `put`s happen in
/// between. One thread-local read when no plan is armed.
fn take_store_fault(op: StoreOp) -> Option<StoreFault> {
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

/// A size-budgeted wrapper around any backend: keeps the sum of stored
/// payload bytes at or below `budget` by evicting entries with a
/// second-chance (clock) sweep over per-entry last-hit bits.
///
/// Determinism: the clock ring is ordered by insertion, seeded from the
/// inner backend's *sorted* key list on open, and advanced only by
/// get/put calls — so the eviction sequence is a pure function of the
/// operation sequence, independent of wall-clock time or thread count.
/// The budget is strict: an entry larger than the whole budget is
/// admitted durably and then evicted by the very next sweep, which
/// keeps the arithmetic simple and still bounds the steady state.
///
/// Like every store, the wrapper is advisory: when the inner backend
/// cannot evict (e.g. a read-only directory), the sweep stops and the
/// store temporarily exceeds its budget rather than failing requests.
#[derive(Debug)]
pub struct BoundedStore {
    inner: Box<dyn CompiledStore>,
    budget: u64,
    /// Clock ring in insertion order; `hand` indexes the next victim
    /// candidate.
    ring: Vec<StoreKey>,
    hand: usize,
    /// Payload size and second-chance bit per live entry.
    tracked: BTreeMap<StoreKey, (u64, bool)>,
    total: u64,
    evictions: u64,
}

impl BoundedStore {
    /// Wraps `inner` under a byte `budget`, seeding the clock from the
    /// inner store's current (sorted) keys and immediately enforcing
    /// the budget against pre-existing entries.
    ///
    /// # Errors
    ///
    /// When the inner store cannot list or read its entries during
    /// seeding, hands it back with the [`StoreError`] so the caller can
    /// keep serving from it unbounded.
    pub fn new(
        inner: Box<dyn CompiledStore>,
        budget: u64,
    ) -> Result<BoundedStore, (Box<dyn CompiledStore>, StoreError)> {
        let mut store = BoundedStore {
            inner,
            budget,
            ring: Vec::new(),
            hand: 0,
            tracked: BTreeMap::new(),
            total: 0,
            evictions: 0,
        };
        if let Err(e) = store.seed() {
            return Err((store.inner, e));
        }
        store.enforce();
        Ok(store)
    }

    fn seed(&mut self) -> Result<(), StoreError> {
        for key in self.inner.keys()? {
            if let Some(payload) = self.inner.get(&key)? {
                self.track(key, payload.len() as u64);
            }
        }
        Ok(())
    }

    fn track(&mut self, key: StoreKey, size: u64) {
        match self.tracked.insert(key, (size, false)) {
            Some((old, _)) => self.total = self.total - old + size,
            None => {
                self.total += size;
                self.ring.push(key);
            }
        }
    }

    fn untrack(&mut self, key: &StoreKey) {
        if let Some((size, _)) = self.tracked.remove(key) {
            self.total -= size;
            if let Some(pos) = self.ring.iter().position(|k| k == key) {
                self.ring.remove(pos);
                if pos < self.hand {
                    self.hand -= 1;
                }
            }
        }
    }

    /// The clock sweep: while over budget, clear-and-skip referenced
    /// entries, evict unreferenced ones. Every visit either clears a
    /// bit or removes an entry, so the sweep terminates.
    fn enforce(&mut self) {
        while self.total > self.budget && !self.ring.is_empty() {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let key = self.ring[self.hand];
            let referenced = self
                .tracked
                .get_mut(&key)
                .map(|entry| std::mem::take(&mut entry.1))
                .unwrap_or(false);
            if referenced {
                self.hand += 1;
            } else if self.inner.evict(&key).is_ok() {
                self.evictions += 1;
                self.untrack(&key);
            } else {
                // Advisory: the backend cannot evict right now; stop
                // rather than fail the request that triggered us.
                break;
            }
        }
    }
}

impl CompiledStore for BoundedStore {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn get(&mut self, key: &StoreKey) -> Result<Option<Vec<u8>>, StoreError> {
        let out = self.inner.get(key)?;
        match &out {
            Some(payload) => match self.tracked.get_mut(key) {
                Some(entry) => entry.1 = true,
                // An entry appeared behind our back (shared dir):
                // adopt it so the budget stays honest.
                None => {
                    self.track(*key, payload.len() as u64);
                    self.enforce();
                }
            },
            // The inner store lost the entry (e.g. quarantined it on
            // this read): release its budget share.
            None => self.untrack(key),
        }
        Ok(out)
    }

    fn put(&mut self, key: &StoreKey, payload: &[u8]) -> Result<(), StoreError> {
        self.inner.put(key, payload)?;
        self.track(*key, payload.len() as u64);
        self.enforce();
        Ok(())
    }

    fn evict(&mut self, key: &StoreKey) -> Result<bool, StoreError> {
        let existed = self.inner.evict(key)?;
        self.untrack(key);
        Ok(existed)
    }

    fn keys(&mut self) -> Result<Vec<StoreKey>, StoreError> {
        self.inner.keys()
    }

    fn health(&mut self) -> StoreHealth {
        let mut health = self.inner.health();
        health.evictions += self.evictions;
        health
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dbds-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> StoreKey {
        StoreKey {
            graph: n,
            config: n,
        }
    }

    #[test]
    fn disk_put_get_evict_round_trip() {
        let dir = tmpdir("roundtrip");
        let mut s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(&key(1)).unwrap(), None);
        s.put(&key(1), b"hello artifact").unwrap();
        assert_eq!(
            s.get(&key(1)).unwrap().as_deref(),
            Some(&b"hello artifact"[..])
        );
        s.put(&key(1), b"replaced").unwrap();
        assert_eq!(s.get(&key(1)).unwrap().as_deref(), Some(&b"replaced"[..]));
        assert_eq!(s.keys().unwrap(), vec![key(1)]);
        assert!(s.evict(&key(1)).unwrap());
        assert!(!s.evict(&key(1)).unwrap());
        assert_eq!(s.get(&key(1)).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_served() {
        let dir = tmpdir("corrupt");
        let mut s = DiskStore::open(&dir).unwrap();
        s.put(&key(2), b"payload bytes").unwrap();
        // Flip a payload byte behind the store's back.
        let path = dir.join(format!("{}{ENTRY_SUFFIX}", key(2)));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        assert_eq!(s.get(&key(2)).unwrap(), None, "corrupt entry served");
        assert_eq!(s.health().quarantined, 1);
        assert!(dir
            .join("quarantine")
            .join(format!("{}{ENTRY_SUFFIX}", key(2)))
            .exists());
        // Healed: a re-put serves again.
        s.put(&key(2), b"payload bytes").unwrap();
        assert!(s.get(&key(2)).unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_sweeps_tmp_files_and_quarantines_corrupt_entries() {
        let dir = tmpdir("recover");
        {
            let mut s = DiskStore::open(&dir).unwrap();
            s.put(&key(3), b"survives").unwrap();
        }
        // Crash leftovers: a stray temp file and a truncated entry.
        fs::write(dir.join(format!("{}{TMP_SUFFIX}999", key(4))), b"partial").unwrap();
        fs::write(
            dir.join(format!("{}{ENTRY_SUFFIX}", key(5))),
            b"dbds-store-entry-v1 99 0\ntrunc",
        )
        .unwrap();

        let mut s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(&key(3)).unwrap().as_deref(), Some(&b"survives"[..]));
        assert_eq!(s.get(&key(4)).unwrap(), None);
        assert_eq!(s.get(&key(5)).unwrap(), None);
        assert_eq!(s.health().quarantined, 1, "truncated entry quarantined");
        assert_eq!(s.keys().unwrap(), vec![key(3)]);
        assert!(!dir.join(format!("{}{TMP_SUFFIX}999", key(4))).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_dir_reports_errors_not_panics() {
        let dir = tmpdir("dead");
        let mut s = DiskStore::open(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert!(s.put(&key(6), b"x").is_err());
        assert!(s.keys().is_err());
        // A get of an absent entry is a clean miss even with the dir gone.
        assert_eq!(s.get(&key(6)).unwrap(), None);
    }

    #[test]
    fn recovery_quarantines_non_canonically_named_entries() {
        let dir = tmpdir("noncanon");
        {
            let mut s = DiskStore::open(&dir).unwrap();
            s.put(&key(0xbeef), b"canonical").unwrap();
        }
        // Plant a structurally valid entry under a non-canonical
        // filename: uppercase hex and a `+`-padded field both parse
        // under from_str_radix and would alias a canonical key.
        let body = b"dbds-store-entry-v1 4 c4bcadba8e631b86\nname";
        fs::write(dir.join("g000000000000BEEF-c0000000000000001.entry"), body).unwrap();
        fs::write(dir.join("g+00000000000beef-c0000000000000001.entry"), body).unwrap();

        let mut s = DiskStore::open(&dir).unwrap();
        assert_eq!(
            s.health().quarantined,
            2,
            "both non-canonical names quarantined"
        );
        assert_eq!(s.keys().unwrap(), vec![key(0xbeef)]);
        assert!(dir
            .join("quarantine")
            .join("g000000000000BEEF-c0000000000000001.entry")
            .exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_store_evicts_by_second_chance_clock() {
        let mut s = BoundedStore::new(Box::new(MemStore::new()), 8).unwrap();
        s.put(&key(1), b"aaaa").unwrap(); // 4 bytes
        s.put(&key(2), b"bbbb").unwrap(); // 8 bytes total: at budget
        assert_eq!(s.health().evictions, 0);

        // Touch key(1): its second-chance bit protects it from the
        // next sweep, so the third put evicts key(2) instead.
        assert!(s.get(&key(1)).unwrap().is_some());
        s.put(&key(3), b"cccc").unwrap();
        assert_eq!(s.health().evictions, 1);
        assert_eq!(s.keys().unwrap(), vec![key(1), key(3)]);

        // The hand rests where the sweep stopped and key(1)'s bit was
        // consumed: the next pressure evicts key(3), still unreferenced.
        s.put(&key(4), b"dddd").unwrap();
        assert_eq!(s.keys().unwrap(), vec![key(1), key(4)]);
        assert_eq!(s.health().evictions, 2);
        assert_eq!(s.health().entries, 2);
    }

    #[test]
    fn bounded_store_admits_then_evicts_oversized_entries() {
        let mut s = BoundedStore::new(Box::new(MemStore::new()), 4).unwrap();
        s.put(&key(1), b"way too large for the budget").unwrap();
        assert_eq!(s.keys().unwrap(), vec![], "over-budget entry swept");
        assert_eq!(s.health().evictions, 1);
    }

    #[test]
    fn bounded_store_seeds_clock_from_reopened_backend() {
        let dir = tmpdir("bounded-reopen");
        {
            let mut s = DiskStore::open(&dir).unwrap();
            s.put(&key(1), b"aaaa").unwrap();
            s.put(&key(2), b"bbbb").unwrap();
        }
        // Reopening under a tighter budget enforces it immediately, in
        // sorted-key ring order.
        let mut s = BoundedStore::new(Box::new(DiskStore::open(&dir).unwrap()), 4).unwrap();
        assert_eq!(s.keys().unwrap(), vec![key(2)]);
        assert_eq!(s.health().evictions, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Migration from the sharded layout: an older daemon wrote
    /// `DIR/shard-<i>/<key>.entry`. Those entries are a cold cache, never
    /// wrong bytes: not served, not quarantined, not touched.
    #[test]
    fn parent_layout_shard_dirs_are_ignored_and_left_alone() {
        let dir = tmpdir("shard-layout");
        let old = dir.join("shard-3");
        DiskStore::open(&old)
            .unwrap()
            .put(&key(1), b"written by the sharded daemon")
            .unwrap();
        let old_entry = old.join(format!("{}{ENTRY_SUFFIX}", key(1)));
        let old_bytes = fs::read(&old_entry).unwrap();

        let mut s = DiskStore::open(&dir).unwrap();
        assert_eq!(s.get(&key(1)).unwrap(), None, "cold start, not a hit");
        assert_eq!(s.keys().unwrap(), vec![]);
        s.put(&key(1), b"fresh").unwrap();
        s.put(&key(2), b"own entry").unwrap();
        assert_eq!(s.get(&key(1)).unwrap().as_deref(), Some(&b"fresh"[..]));
        assert_eq!(s.keys().unwrap(), vec![key(1), key(2)]);
        s.recover().unwrap();
        assert_eq!(s.health().quarantined, 0);
        assert_eq!(s.health().entries, 2);
        assert_eq!(fs::read(&old_entry).unwrap(), old_bytes);
        assert!(!dir.join("quarantine").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_and_disk_agree_on_a_simple_script() {
        let dir = tmpdir("agree");
        let mut mem = MemStore::new();
        let mut disk = DiskStore::open(&dir).unwrap();
        for s in [&mut mem as &mut dyn CompiledStore, &mut disk] {
            s.put(&key(7), b"a").unwrap();
            s.put(&key(8), b"b").unwrap();
            s.evict(&key(7)).unwrap();
        }
        assert_eq!(mem.keys().unwrap(), disk.keys().unwrap());
        assert_eq!(mem.get(&key(8)).unwrap(), disk.get(&key(8)).unwrap());
        let _ = fs::remove_dir_all(&dir);
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

    /// Each store fault, armed once against a real [`DiskStore`]: a torn
    /// or bit-flipped entry is never served, an injected ENOSPC is a
    /// typed error, and a writer killed before its rename leaves no
    /// entry, only a temp file the recovery scan removes.
    #[test]
    fn each_injected_store_fault_degrades_without_serving_bad_bytes() {
        let dir = tmpdir("faults");
        let mut s = DiskStore::open(&dir).unwrap();
        let payload = b"artifact bytes that must come back whole or not at all";
        let arm = |kind| {
            arm_store(StoreFaultPlan {
                kind,
                nth: 0,
                seed: 0,
            })
        };
        let tmp_files = || {
            fs::read_dir(&dir)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .contains(TMP_SUFFIX)
                })
                .count()
        };

        arm(StoreFault::TornWrite);
        s.put(&key(1), payload).unwrap();
        assert_eq!(disarm_store(), (1, true));
        assert_eq!(s.get(&key(1)).unwrap(), None, "a torn entry was served");
        assert_eq!(s.health().quarantined, 1);

        s.put(&key(2), payload).unwrap();
        arm(StoreFault::BitFlipRead);
        assert_eq!(s.get(&key(2)).unwrap(), None, "a flipped read was served");
        assert_eq!(disarm_store(), (1, true));
        assert_eq!(s.health().quarantined, 2);

        arm(StoreFault::Enospc);
        assert!(s.put(&key(3), payload).is_err());
        assert_eq!(disarm_store(), (1, true));
        assert_eq!(s.get(&key(3)).unwrap(), None);

        arm(StoreFault::AbortBeforeRename);
        s.put(&key(4), payload).unwrap();
        assert_eq!(disarm_store(), (1, true));
        assert_eq!(s.get(&key(4)).unwrap(), None, "an aborted write appeared");
        assert_eq!(tmp_files(), 1);
        s.recover().unwrap();
        assert_eq!(tmp_files(), 0);

        // Disarmed, every key heals with a plain re-put.
        assert!(s.keys().unwrap().is_empty());
        for n in 1..=4 {
            s.put(&key(n), payload).unwrap();
            assert_eq!(s.get(&key(n)).unwrap().as_deref(), Some(&payload[..]));
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
