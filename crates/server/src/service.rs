//! The compilation service: request resolution, cache lookup with
//! verification, parallel fresh compilation, and the graceful
//! degradation ladder that keeps the service correct when the store is
//! not. One store and its counters sit behind one lock, held only for
//! store calls and counter updates: a hit's parse and verify and a
//! batch's fresh compiles run outside it. Any number of threads
//! may call in at once (the daemon's connection threads do, one
//! single-request batch each).
//!
//! # Degradation ladder
//!
//! For every request the service walks down this ladder and stops at
//! the first rung that yields a verified artifact:
//!
//! 1. **Hit** — the store returns a payload whose checksum, structure
//!    and IR verification all pass, and whose embedded key matches the
//!    request. Served as `cached: true`.
//! 2. **Heal** — the payload exists but fails any check: the entry is
//!    evicted (quarantined), the `quarantined` counter ticks, and the
//!    request falls through to a fresh compile.
//! 3. **Retry** — a store operation returns a transient error: it is
//!    retried up to `STORE_RETRIES` times with linear backoff, ticking
//!    `retries`.
//! 4. **Degrade** — the store stays unavailable: the request is served
//!    by a fresh compile without caching, ticking `degraded`. A dead
//!    store never fails a request.
//!
//! Requests that a wall-clock deadline cut short get the typed
//! [`ServiceError::DeadlineExceeded`] and are *never* cached: a
//! deadline-truncated graph is wall-clock nondeterministic, and the
//! store's contract is that every entry is byte-identical to a fresh
//! compile of its key.

use crate::artifact::CompiledArtifact;
use crate::json::Json;
use crate::key::StoreKey;
use crate::store::{CompiledStore, StoreError};
use dbds_core::{compile, DbdsConfig, OptLevel, PhaseStats};
use dbds_costmodel::CostModel;
use dbds_ir::{parse_module, print_class_table, print_graph, Graph};
use dbds_workloads::all_workloads;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// What a request asks the service to compile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileSource {
    /// A named workload from the built-in suites.
    Workload(String),
    /// Inline IR text (class table + exactly one `func`).
    IrText(String),
}

/// One compile request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileRequest {
    /// What to compile.
    pub source: CompileSource,
    /// The optimization level to compile at.
    pub level: OptLevel,
    /// Optional per-request wall-clock deadline in milliseconds,
    /// installed into [`dbds_core::DbdsConfig::deadline`].
    pub deadline_ms: Option<u64>,
}

/// The typed failure responses of the service. Every error a client
/// can observe is one of these — the service never panics a request
/// and never surfaces a raw store error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The request queue was full; retry later.
    Overloaded,
    /// The per-request deadline cut the compilation short; the partial
    /// result was discarded (deadline-truncated graphs are wall-clock
    /// nondeterministic and therefore neither served nor cached).
    DeadlineExceeded,
    /// The request itself was malformed (unknown workload, unparsable
    /// IR, unknown level); the payload is a user-facing message.
    BadRequest(String),
    /// The response was produced but does not fit in one protocol
    /// frame ([`crate::proto::MAX_FRAME`]); the client should split the
    /// request or raise the cap, the stream itself stays intact.
    FrameTooLarge,
}

impl ServiceError {
    /// Stable wire tag of the error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceError::Overloaded => "overloaded",
            ServiceError::DeadlineExceeded => "deadline-exceeded",
            ServiceError::BadRequest(_) => "bad-request",
            ServiceError::FrameTooLarge => "frame-too-large",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded => write!(f, "server overloaded, retry later"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::FrameTooLarge => {
                write!(f, "response exceeds the protocol frame cap")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// A successfully served compilation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServedResult {
    /// The verified artifact.
    pub artifact: CompiledArtifact,
    /// `true` when it came out of the store, `false` when freshly
    /// compiled for this request.
    pub cached: bool,
}

/// The outcome of one request.
pub type CompileOutcome = Result<ServedResult, ServiceError>;

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Linear backoff step between store retries.
    pub store_backoff: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            store_backoff: Duration::from_millis(5),
        }
    }
}

/// Bounded retries for transient store errors (rung 3 of the
/// degradation ladder).
const STORE_RETRIES: u32 = 2;

/// Deterministic service counters. Every field is a function of the
/// request sequence and the store contents only — never of wall-clock
/// or thread interleaving — so status reports are byte-identical
/// across `DBDS_UNIT_THREADS` settings (gated by a harness test).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Requests accepted into a batch (sheds not included).
    pub requests: u64,
    /// Requests served from the store.
    pub hits: u64,
    /// Requests that required a fresh compile (including heals and
    /// degradations).
    pub misses: u64,
    /// Fresh results durably installed into the store.
    pub puts: u64,
    /// Store entries evicted because they failed parse, verification
    /// or key match after retrieval (store-internal checksum
    /// quarantines are reported separately via store health).
    pub quarantined: u64,
    /// Requests rejected with [`ServiceError::Overloaded`] before
    /// reaching a batch.
    pub shed: u64,
    /// Store-operation retries performed.
    pub retries: u64,
    /// Store operations abandoned after exhausting retries (the
    /// request was still served, uncached).
    pub degraded: u64,
    /// Requests rejected with [`ServiceError::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Requests rejected with [`ServiceError::BadRequest`].
    pub bad_requests: u64,
}

impl ServiceCounters {
    /// Field-wise `self - earlier`; used for per-pass session deltas.
    #[must_use]
    pub fn delta(&self, earlier: &ServiceCounters) -> ServiceCounters {
        ServiceCounters {
            requests: self.requests - earlier.requests,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            puts: self.puts - earlier.puts,
            quarantined: self.quarantined - earlier.quarantined,
            shed: self.shed - earlier.shed,
            retries: self.retries - earlier.retries,
            degraded: self.degraded - earlier.degraded,
            deadline_exceeded: self.deadline_exceeded - earlier.deadline_exceeded,
            bad_requests: self.bad_requests - earlier.bad_requests,
        }
    }

    /// The counters in stable report order.
    pub fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("requests", self.requests),
            ("hits", self.hits),
            ("misses", self.misses),
            ("puts", self.puts),
            ("quarantined", self.quarantined),
            ("shed", self.shed),
            ("retries", self.retries),
            ("degraded", self.degraded),
            ("deadline_exceeded", self.deadline_exceeded),
            ("bad_requests", self.bad_requests),
        ]
    }

    /// JSON object in stable report order.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.fields()
                .iter()
                .map(|(k, v)| ((*k).to_string(), Json::num(*v)))
                .collect(),
        )
    }
}

/// The store and the counters of the requests served from it, guarded
/// together by one lock so the counters are always consistent with the
/// store.
struct Slot {
    store: Box<dyn CompiledStore>,
    counters: ServiceCounters,
}

/// Linear backoff steps are capped here so the sleep can never
/// overflow (`Duration × u32` panics on overflow) and a larger
/// [`STORE_RETRIES`] cannot stall a request — and, since the backoff
/// sleeps under the store lock, every other request — for minutes.
const BACKOFF_CAP_STEPS: u32 = 8;

/// The backoff before retry number `attempt` (1-based): linear in the
/// attempt, clamped to `[1, BACKOFF_CAP_STEPS]` steps, saturating
/// instead of panicking on overflow.
fn retry_backoff(step: Duration, attempt: u32) -> Duration {
    step.saturating_mul(attempt.clamp(1, BACKOFF_CAP_STEPS))
}

/// The compilation service: one store (with its counters) behind one
/// lock, one cost model, one base configuration, and the built-in
/// workload table.
///
/// All entry points take `&self`. The lock is held only around store
/// calls and counter updates — the `get`, the `evict` of a payload that
/// failed its checks, the `put` of a fresh result — never while a
/// payload is parsed and verified and never while compiling. Within a
/// batch the store observes the requests strictly in submission order,
/// which is what keeps the counters byte-identical however many threads
/// compile the misses.
pub struct CompileService {
    slot: Mutex<Slot>,
    /// Requests shed by admission control before reaching the store.
    shed: AtomicU64,
    model: CostModel,
    base_cfg: DbdsConfig,
    cfg: ServiceConfig,
    /// The built-in workloads by name, each as the graph its request
    /// text parses to; built on the first by-name request, so a service
    /// that is only sent IR text never pays for it.
    workloads: OnceLock<BTreeMap<String, Graph>>,
}

impl fmt::Debug for CompileService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileService")
            .field("backend", &self.backend())
            .field("counters", &self.counters())
            .finish_non_exhaustive()
    }
}

impl CompileService {
    /// Builds a service over `store` compiling with `base_cfg`.
    pub fn new(store: Box<dyn CompiledStore>, base_cfg: DbdsConfig, cfg: ServiceConfig) -> Self {
        CompileService {
            slot: Mutex::new(Slot {
                store,
                counters: ServiceCounters::default(),
            }),
            shed: AtomicU64::new(0),
            model: CostModel::new(),
            base_cfg,
            cfg,
            workloads: OnceLock::new(),
        }
    }

    /// The built-in workload table. A workload requested by name must
    /// key, compile and store exactly like the same workload sent as its
    /// printed IR text, so each entry is the graph that text parses to,
    /// not the builder's graph: the parser numbers values in layout
    /// order, which the builders do not always do.
    fn workloads(&self) -> &BTreeMap<String, Graph> {
        self.workloads.get_or_init(|| {
            all_workloads()
                .into_iter()
                .map(|w| {
                    let text = print_class_table(w.graph.class_table()) + &print_graph(&w.graph);
                    let mut module =
                        parse_module(&text).expect("a built-in workload's IR text parses");
                    (w.name, module.graphs.remove(0))
                })
                .collect()
        })
    }

    /// Locks the store; a poisoned lock is taken over as-is (counters
    /// and store are always left internally consistent).
    fn slot(&self) -> MutexGuard<'_, Slot> {
        self.slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Backend name of the underlying store.
    pub fn backend(&self) -> &'static str {
        self.slot().store.backend()
    }

    /// Current counters snapshot.
    pub fn counters(&self) -> ServiceCounters {
        let mut total = self.slot().counters;
        total.shed += self.shed.load(Ordering::SeqCst);
        total
    }

    /// Records `n` requests shed by the admission queue.
    pub fn record_shed(&self, n: u64) {
        self.shed.fetch_add(n, Ordering::SeqCst);
    }

    /// Health snapshot of the underlying store (entry count plus
    /// store-internal checksum quarantines — which are distinct from
    /// the service-level verify quarantines in
    /// [`ServiceCounters::quarantined`] — plus budget evictions).
    pub fn store_health(&self) -> crate::store::StoreHealth {
        self.slot().store.health()
    }

    /// The status report: counters plus store health, as served to
    /// `dbds_client status` and embedded in harness reports. The shape
    /// deliberately excludes thread counts and timings, so quiescent
    /// status output is byte-identical for the same request sequence.
    pub fn status_json(&self) -> Json {
        let health = self.store_health();
        Json::Obj(vec![
            ("backend".into(), Json::str(self.backend())),
            ("counters".into(), self.counters().to_json()),
            (
                "store".into(),
                Json::Obj(vec![
                    ("entries".into(), Json::num(health.entries as u64)),
                    ("quarantined".into(), Json::num(health.quarantined)),
                    ("evictions".into(), Json::num(health.evictions)),
                ]),
            ),
        ])
    }

    /// Runs a store operation on the (locked) store with bounded retry
    /// plus clamped linear backoff (rung 3); `Err` means the ladder
    /// fell through to rung 4.
    fn with_retry<T>(
        cfg: &ServiceConfig,
        slot: &mut Slot,
        mut op: impl FnMut(&mut dyn CompiledStore) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut attempt = 0;
        loop {
            match op(slot.store.as_mut()) {
                Ok(v) => return Ok(v),
                Err(_) if attempt < STORE_RETRIES => {
                    attempt += 1;
                    slot.counters.retries += 1;
                    std::thread::sleep(retry_backoff(cfg.store_backoff, attempt));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Resolves a request into a pristine graph (cloned, unoptimized)
    /// or a typed [`ServiceError::BadRequest`].
    fn resolve(&self, source: &CompileSource) -> Result<Graph, ServiceError> {
        match source {
            CompileSource::Workload(name) => self
                .workloads()
                .get(name)
                .cloned()
                .ok_or_else(|| ServiceError::BadRequest(format!("unknown workload `{name}`"))),
            CompileSource::IrText(text) => {
                let mut module = dbds_ir::parse_module(text)
                    .map_err(|e| ServiceError::BadRequest(format!("IR does not parse: {e}")))?;
                if module.graphs.len() != 1 {
                    return Err(ServiceError::BadRequest(format!(
                        "expected exactly one func, found {}",
                        module.graphs.len()
                    )));
                }
                Ok(module.graphs.remove(0))
            }
        }
    }

    /// Serves a batch of requests.
    ///
    /// Store lookups and installs run sequentially in submission order
    /// (this is what makes the counters deterministic: a request's
    /// counter effects depend only on the request sequence); the fresh
    /// compiles of all misses fan out together on the
    /// [`dbds_core::par`] unit pool, outside the lock, and are
    /// committed back in submission order.
    pub fn compile_batch(&self, reqs: &[CompileRequest]) -> Vec<CompileOutcome> {
        // Rungs 1–2, sequentially per request: resolve, key, probe the
        // store, verify anything it returns.
        let mut outcomes: Vec<Option<CompileOutcome>> = Vec::with_capacity(reqs.len());
        let mut misses: Vec<(usize, Graph, StoreKey, DbdsConfig, OptLevel)> = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            let resolved = self.resolve(&req.source);
            let graph = match resolved {
                Ok(g) => g,
                Err(e) => {
                    let mut slot = self.slot();
                    slot.counters.requests += 1;
                    slot.counters.bad_requests += 1;
                    outcomes.push(Some(Err(e)));
                    continue;
                }
            };
            let mut cfg = self.base_cfg.clone();
            cfg.deadline = req.deadline_ms.map(Duration::from_millis);
            let key = StoreKey::compute(&graph, &cfg, req.level);
            if let Some(artifact) = self.lookup_verified(&key) {
                outcomes.push(Some(Ok(ServedResult {
                    artifact,
                    cached: true,
                })));
                continue;
            }
            // Only a miss pays for this: inline IR must verify before it
            // is compiled, served or stored.
            let checked = match &req.source {
                CompileSource::IrText(_) => dbds_ir::verify(&graph).map_err(|e| {
                    ServiceError::BadRequest(format!("IR does not verify: {}", e.summary()))
                }),
                CompileSource::Workload(_) => Ok(()),
            };
            let mut slot = self.slot();
            match checked {
                Ok(()) => {
                    slot.counters.misses += 1;
                    outcomes.push(None);
                    misses.push((i, graph, key, cfg, req.level));
                }
                Err(e) => {
                    slot.counters.bad_requests += 1;
                    outcomes.push(Some(Err(e)));
                }
            }
        }

        // Fresh compiles: fan out on the unit pool. Each unit carries
        // its own config (deadlines differ per request); the width still
        // comes from the base config so `DBDS_UNIT_THREADS` applies.
        let model = &self.model;
        let compiled = dbds_core::par::run_units(
            self.base_cfg.unit_workers(misses.len()),
            &misses,
            |_i, (_idx, graph, _key, cfg, level)| {
                let mut g = graph.clone();
                let stats = compile(&mut g, model, *level, cfg);
                (g, stats)
            },
        );

        // Commit in submission order: reject deadline-truncated
        // results, install the rest (rungs 3–4 for the put).
        for ((idx, _graph, key, _cfg, level), (g, stats)) in misses.into_iter().zip(compiled) {
            let outcome = Self::commit_fresh(&self.cfg, &mut self.slot(), key, level, &g, &stats);
            outcomes[idx] = Some(outcome);
        }

        outcomes
            .into_iter()
            .map(|o| o.unwrap_or(Err(ServiceError::Overloaded)))
            .collect()
    }

    /// Rungs 1–2: counts the request, probes the store for `key` and
    /// fully verifies whatever comes back, counting the hit. Any failure
    /// heals to a miss, never to an error.
    ///
    /// The lock is held for the `get` and again for the counter and the
    /// `evict` after it — not while the payload is parsed and verified,
    /// so hits on other connections proceed in parallel. In between, a
    /// concurrent request for the same key may `put` a fresh artifact
    /// that a failed verify here then evicts unconditionally. That race
    /// is benign: it costs at most one recompile of that key, and no
    /// wrong byte is ever served, since every served artifact passed
    /// this verify in the request that serves it.
    fn lookup_verified(&self, key: &StoreKey) -> Option<CompiledArtifact> {
        let payload = {
            let mut slot = self.slot();
            slot.counters.requests += 1;
            match Self::with_retry(&self.cfg, &mut slot, |s| s.get(key)) {
                Ok(p) => p?,
                Err(_) => {
                    // Rung 4: the store cannot even answer reads — compile
                    // fresh, uncached.
                    slot.counters.degraded += 1;
                    return None;
                }
            }
        };
        let ok = CompiledArtifact::parse(&payload)
            .ok()
            .filter(|a| a.key == *key)
            .filter(|a| a.verify().is_ok());
        let mut slot = self.slot();
        if ok.is_some() {
            slot.counters.hits += 1;
        } else {
            // Rung 2: structurally intact on disk (the checksum passed)
            // but semantically bad — evict and recompute.
            slot.counters.quarantined += 1;
            if Self::with_retry(&self.cfg, &mut slot, |s| s.evict(key)).is_err() {
                slot.counters.degraded += 1;
            }
        }
        ok
    }

    /// Turns one fresh compilation into an outcome: reject it if a
    /// deadline cut it short, otherwise serve it and try to install it
    /// into the store.
    fn commit_fresh(
        cfg: &ServiceConfig,
        slot: &mut Slot,
        key: StoreKey,
        level: OptLevel,
        g: &Graph,
        stats: &PhaseStats,
    ) -> CompileOutcome {
        if stats.hit_deadline() {
            slot.counters.deadline_exceeded += 1;
            return Err(ServiceError::DeadlineExceeded);
        }
        let artifact = CompiledArtifact::from_compiled(key, level, g, stats);
        match Self::with_retry(cfg, slot, |s| s.put(&key, &artifact.serialize())) {
            Ok(()) => slot.counters.puts += 1,
            Err(_) => slot.counters.degraded += 1,
        }
        Ok(ServedResult {
            artifact,
            cached: false,
        })
    }
}

/// Counter deltas of one pass of a repeated-workload session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionPass {
    /// Requests served (hits + misses) this pass.
    pub served: u64,
    /// Counter deltas attributable to this pass.
    pub counters: ServiceCounters,
}

/// The result of [`run_session`]: per-pass counter deltas over the
/// full workload corpus, for cache-effectiveness reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionReport {
    /// Store backend name.
    pub backend: String,
    /// One entry per pass, in order.
    pub passes: Vec<SessionPass>,
    /// Final cumulative counters.
    pub totals: ServiceCounters,
    /// Budget evictions performed by the store over the session (0 for
    /// unbounded stores).
    pub evictions: u64,
}

impl SessionReport {
    /// Hit rate of pass `i` (0-based), in [0, 1].
    pub fn hit_rate(&self, i: usize) -> f64 {
        let p = &self.passes[i];
        let looked = p.counters.hits + p.counters.misses;
        if looked == 0 {
            0.0
        } else {
            p.counters.hits as f64 / looked as f64
        }
    }

    /// JSON object in stable report order — the `store` block of the
    /// harness report. Every value is deterministic (store traffic is
    /// sequential in submission order).
    pub fn to_json(&self) -> Json {
        let passes = self.passes.iter().enumerate().map(|(i, pass)| {
            let mut pairs = vec![
                ("pass".into(), Json::num(i + 1)),
                ("served".into(), Json::num(pass.served)),
            ];
            let counters = pass.counters.fields();
            pairs.extend(counters.map(|(k, v)| (k.to_string(), Json::num(v))));
            let pct = self.hit_rate(i) * 100.0;
            pairs.push(("hit_rate_pct".into(), Json::Num(format!("{pct:?}"))));
            Json::Obj(pairs)
        });
        Json::Obj(vec![
            ("backend".into(), Json::str(self.backend.clone())),
            ("evictions".into(), Json::num(self.evictions)),
            ("passes".into(), Json::Arr(passes.collect())),
            ("totals".into(), self.totals.to_json()),
        ])
    }
}

/// One pass of the standard session: every built-in workload at every
/// `level`, workload-major.
pub(crate) fn session_requests(levels: &[OptLevel]) -> Vec<CompileRequest> {
    all_workloads()
        .iter()
        .flat_map(|w| {
            levels.iter().map(|&level| CompileRequest {
                source: CompileSource::Workload(w.name.clone()),
                level,
                deadline_ms: None,
            })
        })
        .collect()
}

/// The standard repeated-workload session: every built-in workload at
/// every `level`, `passes` times over. The first pass populates the
/// store; later passes measure its effectiveness (the acceptance gate
/// asserts a >90% second-pass hit rate).
pub fn run_session(svc: &CompileService, levels: &[OptLevel], passes: usize) -> SessionReport {
    let reqs = session_requests(levels);
    let mut report = SessionReport {
        backend: svc.backend().to_string(),
        ..SessionReport::default()
    };
    for _ in 0..passes {
        let before = svc.counters();
        let outcomes = svc.compile_batch(&reqs);
        let served = outcomes.iter().filter(|o| o.is_ok()).count() as u64;
        report.passes.push(SessionPass {
            served,
            counters: svc.counters().delta(&before),
        });
    }
    report.totals = svc.counters();
    report.evictions = svc.store_health().evictions;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn service() -> CompileService {
        CompileService::new(
            Box::new(MemStore::new()),
            DbdsConfig::default(),
            ServiceConfig::default(),
        )
    }

    fn req(name: &str, level: OptLevel) -> CompileRequest {
        CompileRequest {
            source: CompileSource::Workload(name.into()),
            level,
            deadline_ms: None,
        }
    }

    #[test]
    fn second_request_hits_and_is_byte_identical() {
        let svc = service();
        let r = req("wordcount", OptLevel::Dbds);
        let first = svc.compile_batch(std::slice::from_ref(&r));
        let second = svc.compile_batch(std::slice::from_ref(&r));
        let a = first[0].as_ref().unwrap();
        let b = second[0].as_ref().unwrap();
        assert!(!a.cached);
        assert!(b.cached);
        assert_eq!(a.artifact, b.artifact);
        let c = svc.counters();
        assert_eq!((c.hits, c.misses, c.puts), (1, 1, 1));
    }

    #[test]
    fn unknown_workload_is_a_typed_bad_request() {
        let svc = service();
        let out = svc.compile_batch(&[req("no-such-benchmark", OptLevel::Dbds)]);
        match &out[0] {
            Err(ServiceError::BadRequest(msg)) => assert!(msg.contains("no-such-benchmark")),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        assert_eq!(svc.counters().bad_requests, 1);
    }

    #[test]
    fn zero_deadline_is_a_typed_error_and_never_cached() {
        let svc = service();
        let mut r = req("wordcount", OptLevel::Dbds);
        r.deadline_ms = Some(0);
        let out = svc.compile_batch(std::slice::from_ref(&r));
        assert_eq!(out[0], Err(ServiceError::DeadlineExceeded));
        let c = svc.counters();
        assert_eq!(c.deadline_exceeded, 1);
        assert_eq!(c.puts, 0, "deadline-truncated result must not be cached");
        // The same request without a deadline is a miss (nothing was
        // cached under the no-deadline key either).
        let out = svc.compile_batch(&[req("wordcount", OptLevel::Dbds)]);
        assert!(!out[0].as_ref().unwrap().cached);
    }

    #[test]
    fn ir_text_source_compiles_and_hits() {
        let ir = "func @tiny(v0: int) {\nb0:\n  return v0\n}\n";
        let svc = service();
        let r = CompileRequest {
            source: CompileSource::IrText(ir.into()),
            level: OptLevel::Baseline,
            deadline_ms: None,
        };
        let first = svc.compile_batch(std::slice::from_ref(&r));
        let second = svc.compile_batch(std::slice::from_ref(&r));
        assert!(!first[0].as_ref().unwrap().cached);
        assert!(second[0].as_ref().unwrap().cached);

        let bad = CompileRequest {
            source: CompileSource::IrText("not ir at all".into()),
            level: OptLevel::Baseline,
            deadline_ms: None,
        };
        assert!(matches!(
            svc.compile_batch(&[bad])[0],
            Err(ServiceError::BadRequest(_))
        ));

        // Figure 1 with a constant defined in `bt` and used in `bm`: it
        // parses but does not verify, so it is a bad request every time
        // — never compiled, stored or served.
        let unverifiable = "func @foo(x: int) {\nentry:\n  zero: int = const 0\n  \
                            c: bool = cmp gt x, zero\n  branch c, bt, bf, prob 0.5\n\
                            bt:\n  one: int = const 1\n  jump bm\nbf:\n  jump bm\n\
                            bm:\n  p: int = phi [bt: x, bf: zero]\n  \
                            sum: int = add one, p\n  return sum\n}\n";
        assert!(dbds_ir::parse_module(unverifiable).is_ok());
        let before = svc.counters();
        let r = CompileRequest {
            source: CompileSource::IrText(unverifiable.into()),
            level: OptLevel::Dbds,
            deadline_ms: None,
        };
        for _ in 0..2 {
            match &svc.compile_batch(std::slice::from_ref(&r))[0] {
                Err(ServiceError::BadRequest(msg)) => {
                    assert!(msg.starts_with("IR does not verify: "), "{msg}")
                }
                other => panic!("expected BadRequest, got {other:?}"),
            }
        }
        let c = svc.counters().delta(&before);
        assert_eq!(
            (c.requests, c.bad_requests, c.misses, c.puts, c.quarantined),
            (2, 2, 0, 0, 0)
        );
    }

    #[test]
    fn ir_returning_a_void_value_is_a_bad_request_never_stored() {
        // DCE removes the dead store and leaves `return` naming it, so
        // this graph must be rejected before it is compiled or stored.
        let void_return = "class A { f: int }\nfunc @f(x: int) {\nentry:\n  \
                           o: ref A = new A\n  s: void = store o, A.f, x\n  return s\n}\n";
        let svc = service();
        let before = svc.counters();
        let r = CompileRequest {
            source: CompileSource::IrText(void_return.into()),
            level: OptLevel::Dbds,
            deadline_ms: None,
        };
        for _ in 0..2 {
            match &svc.compile_batch(std::slice::from_ref(&r))[0] {
                Err(ServiceError::BadRequest(msg)) => {
                    assert!(msg.contains("returns void value"), "{msg}")
                }
                other => panic!("expected BadRequest, got {other:?}"),
            }
        }
        let c = svc.counters().delta(&before);
        assert_eq!(
            (c.requests, c.bad_requests, c.misses, c.puts, c.quarantined),
            (2, 2, 0, 0, 0)
        );
    }

    #[test]
    fn ir_the_graph_primitives_reject_is_a_parse_error() {
        // A void parameter, a void field and a branch with one target
        // twice: each would trip an assert in a graph or class-table
        // primitive, so the parser rejects them first.
        let texts = [
            "func @f(x: void) {\nentry:\n  return\n}\n",
            "class A { f: void }\nfunc @f() {\nentry:\n  return\n}\n",
            "func @f(c: bool) {\nentry:\n  branch c, b, b, prob 0.5\nb:\n  return\n}\n",
        ];
        let svc = service();
        let before = svc.counters();
        for text in texts {
            let r = CompileRequest {
                source: CompileSource::IrText(text.into()),
                level: OptLevel::Dbds,
                deadline_ms: None,
            };
            match &svc.compile_batch(&[r])[0] {
                Err(ServiceError::BadRequest(msg)) => {
                    assert!(msg.starts_with("IR does not parse: "), "{msg}")
                }
                other => panic!("expected BadRequest, got {other:?}"),
            }
        }
        let c = svc.counters().delta(&before);
        assert_eq!((c.requests, c.bad_requests, c.misses, c.puts), (3, 3, 0, 0));
    }

    #[test]
    fn retry_backoff_is_linear_clamped_and_never_panics() {
        let step = Duration::from_millis(5);
        // The ladder starts at one step — attempt 0 (out of contract)
        // clamps up rather than sleeping zero.
        assert_eq!(retry_backoff(step, 0), step);
        assert_eq!(retry_backoff(step, 1), step);
        assert_eq!(retry_backoff(step, 2), step * 2);
        assert_eq!(retry_backoff(step, 3), step * 3);
        // ...and is capped: a huge attempt number stays bounded.
        assert_eq!(retry_backoff(step, 1000), step * BACKOFF_CAP_STEPS);
        assert_eq!(retry_backoff(step, u32::MAX), step * BACKOFF_CAP_STEPS);
        // `Duration::MAX * 2` would panic; saturating_mul must not.
        assert_eq!(retry_backoff(Duration::MAX, u32::MAX), Duration::MAX);
    }

    #[test]
    fn session_second_pass_hits_everything() {
        let svc = service();
        let report = run_session(&svc, &[OptLevel::Dbds], 2);
        assert_eq!(report.passes.len(), 2);
        assert_eq!(report.hit_rate(0), 0.0);
        assert!(
            report.hit_rate(1) > 0.9,
            "second pass hit rate {} ≤ 0.9",
            report.hit_rate(1)
        );
        assert_eq!(
            report.passes[1].counters.misses, 0,
            "identical second pass must not miss"
        );
    }
}
