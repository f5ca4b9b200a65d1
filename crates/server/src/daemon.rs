//! The `dbds-server` daemon: a socket in front of the
//! [`CompileService`], with bounded admission and load shedding.
//!
//! Architecture: one accept thread and one thread per connection. A
//! connection thread reads a frame, serves it itself — `status` and
//! `compile` alike go straight to the service, which is `&self` behind
//! one store lock — and writes the reply. There is no queue and no
//! hand-off: concurrent clients compile concurrently because they are
//! on separate threads, so the daemon's compile concurrency is the
//! number of requests in flight (capped by `max_queue`), not
//! `DBDS_UNIT_THREADS` — every batch the daemon submits has one unit.
//!
//! Determinism: the service takes the store lock per store call (the
//! `get`, an `evict`, the `put`) and every counter is a sum, so
//! quiescent `status` is a
//! function of the request multiset for one client and for any number
//! of clients on distinct keys. Concurrent clients on the *same* key
//! race for the install (two misses, or a miss and a hit); the served
//! bytes are identical either way.
//!
//! Admission control is a single atomic reserve-or-shed
//! (`try_admit`): the slot is reserved by the same compare-and-swap
//! that checks the bound, so concurrent clients can never overshoot
//! `max_queue` (the old check-then-enqueue pattern could, between the
//! load and the increment). The slot is a drop guard held until the
//! outcome exists — not until the reply is written, so a slow reader
//! cannot hold one, and an unwinding request returns its own.

use crate::client::Client;
use crate::json::Json;
use crate::proto::{
    error_json, read_frame, response_json, write_frame, FrameError, Request, PROTO_VERSION,
};
use crate::service::{CompileService, ServiceConfig, ServiceError};
use crate::store::{BoundedStore, CompiledStore, DiskStore, MemStore, StoreError};
use dbds_core::DbdsConfig;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Which store backend the daemon should open.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreChoice {
    /// In-memory cache (dies with the daemon).
    Mem,
    /// Crash-safe on-disk store rooted at the given directory.
    Disk(PathBuf),
}

impl StoreChoice {
    /// Opens the chosen backend. A store directory that cannot be
    /// opened degrades to the in-memory backend with a warning on
    /// stderr — a broken cache must not prevent serving.
    pub fn open(&self) -> Box<dyn CompiledStore> {
        match self {
            StoreChoice::Mem => Box::new(MemStore::new()),
            StoreChoice::Disk(dir) => match DiskStore::open(dir) {
                Ok(s) => Box::new(s),
                Err(StoreError(e)) => {
                    eprintln!(
                        "dbds-server: warning: store {} unusable ({e}); \
                         falling back to in-memory cache",
                        dir.display()
                    );
                    Box::new(MemStore::new())
                }
            },
        }
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address: `host:port` for TCP or `unix:<path>` for a Unix
    /// domain socket.
    pub listen: String,
    /// Store backend.
    pub store: StoreChoice,
    /// Compilation configuration. Its `unit_threads` does not set the
    /// daemon's compile width: each request is a batch of one unit.
    pub base_cfg: DbdsConfig,
    /// Store retry/backoff tuning.
    pub service: ServiceConfig,
    /// Admission bound: compile requests beyond this many in flight
    /// (admitted and not yet answered) are shed with a typed
    /// `overloaded` response. Also the daemon's compile concurrency cap.
    pub max_queue: usize,
    /// Byte budget for the whole store (the sum of stored payload
    /// bytes), enforced by second-chance eviction; `None` = unbounded.
    pub store_budget: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            store: StoreChoice::Mem,
            base_cfg: DbdsConfig::default(),
            service: ServiceConfig::default(),
            max_queue: 128,
            store_budget: None,
        }
    }
}

/// Either listener flavor.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// A running daemon: the resolved listen address plus what is needed
/// to stop and join it.
#[derive(Debug)]
pub struct ServerHandle {
    /// The resolved address clients should connect to (`host:port` or
    /// `unix:<path>`), useful when the config asked for port 0.
    pub addr: String,
    shutdown: Arc<AtomicBool>,
    depth: Arc<AtomicUsize>,
    peak_depth: Arc<AtomicUsize>,
    accept_thread: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// Blocks until the daemon has shut down (a client sent
    /// `shutdown`, or [`ServerHandle::stop`] was called): the accept
    /// loop has ended and every admitted request has its outcome.
    pub fn join(self) {
        let _ = self.accept_thread.join();
        // Requests admitted before the flag was set are still being
        // served on their connection threads.
        while self.depth.load(Ordering::SeqCst) > 0 {
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Requests shutdown from the hosting process (equivalent to a
    /// client `shutdown` op) and waits for the daemon to stop.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Nudge the accept loop out of `accept()`.
        let _ = Client::connect(&self.addr);
        self.join();
    }

    /// The highest number of requests in flight observed so far. The
    /// reserve-or-shed admission guarantees this never exceeds
    /// `max_queue` (gated by the multi-client daemon test).
    pub fn peak_queue(&self) -> usize {
        self.peak_depth.load(Ordering::SeqCst)
    }
}

/// One reserved admission slot, returned when dropped — on the normal
/// path and on unwind alike.
struct AdmissionSlot<'a>(&'a AtomicUsize);

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Reserve-or-shed admission: atomically takes a slot iff the depth is
/// under `max`. The check and the reservation are one compare-and-swap,
/// so the bound holds under any number of concurrent connection
/// threads.
fn try_admit(depth: &AtomicUsize, max: usize) -> Option<AdmissionSlot<'_>> {
    depth
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |d| {
            (d < max).then_some(d + 1)
        })
        .ok()
        .map(|_| AdmissionSlot(depth))
}

/// Binds the listener and starts the accept thread.
///
/// # Errors
///
/// Returns a message when the listen address cannot be parsed or
/// bound. Store problems do *not* fail startup: an unusable directory
/// degrades to memory ([`StoreChoice::open`]), a budget that cannot be
/// seeded to an unbounded store.
pub fn serve(cfg: ServerConfig) -> Result<ServerHandle, String> {
    let (listener, addr) = bind(&cfg.listen)?;
    let mut store = cfg.store.open();
    if let Some(budget) = cfg.store_budget {
        store = match BoundedStore::new(store, budget) {
            Ok(bounded) => Box::new(bounded),
            Err((unbounded, StoreError(e))) => {
                eprintln!("dbds-server: warning: store budget not enforced ({e})");
                unbounded
            }
        };
    }
    let service = Arc::new(CompileService::new(
        store,
        cfg.base_cfg.clone(),
        cfg.service.clone(),
    ));

    let shutdown = Arc::new(AtomicBool::new(false));
    let depth = Arc::new(AtomicUsize::new(0));
    let peak_depth = Arc::new(AtomicUsize::new(0));

    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let depth = Arc::clone(&depth);
        let peak_depth = Arc::clone(&peak_depth);
        let addr = addr.clone();
        let max_queue = cfg.max_queue;
        thread::Builder::new()
            .name("dbds-accept".into())
            .spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    let stream = match listener.accept() {
                        Ok(s) => s,
                        Err(_) => {
                            // A persistent error (fd exhaustion, when
                            // overloaded) must not spin this thread.
                            thread::sleep(Duration::from_millis(10));
                            continue;
                        }
                    };
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let conn = Conn {
                        service: Arc::clone(&service),
                        shutdown: Arc::clone(&shutdown),
                        depth: Arc::clone(&depth),
                        peak_depth: Arc::clone(&peak_depth),
                        max_queue,
                        addr: addr.clone(),
                    };
                    let _ = thread::Builder::new()
                        .name("dbds-conn".into())
                        .spawn(move || connection(stream, &conn));
                }
            })
            .map_err(|e| format!("spawn accept loop: {e}"))?
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        depth,
        peak_depth,
        accept_thread,
    })
}

fn bind(listen: &str) -> Result<(Listener, String), String> {
    if let Some(path) = listen.strip_prefix("unix:") {
        let _ = std::fs::remove_file(path);
        let l = UnixListener::bind(path).map_err(|e| format!("bind {path}: {e}"))?;
        Ok((Listener::Unix(l), format!("unix:{path}")))
    } else {
        let l = TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
        let addr = l
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .to_string();
        Ok((Listener::Tcp(l), addr))
    }
}

impl Listener {
    fn accept(&self) -> std::io::Result<Client> {
        match self {
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| Client::tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Client::Unix(s)),
        }
    }
}

/// Everything a connection thread needs, bundled to keep the spawn
/// site readable.
struct Conn {
    service: Arc<CompileService>,
    shutdown: Arc<AtomicBool>,
    depth: Arc<AtomicUsize>,
    peak_depth: Arc<AtomicUsize>,
    max_queue: usize,
    addr: String,
}

/// Writes a response frame; an oversized payload is replaced by the
/// typed `frame-too-large` error on the still-intact stream. Returns
/// `false` when the connection is dead.
fn write_response(stream: &mut Client, v: &Json) -> bool {
    match write_frame(stream, v) {
        Ok(()) => true,
        Err(FrameError::TooLarge(_)) => {
            write_frame(stream, &error_json(&ServiceError::FrameTooLarge)).is_ok()
        }
        Err(FrameError::Io(_)) => false,
    }
}

/// One client connection: read a frame, serve it on this thread, write
/// the reply.
fn connection(mut stream: Client, conn: &Conn) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(v)) => v,
            Ok(None) => return, // client hung up
            Err(_) => return,
        };
        let request = match Request::from_json(&frame) {
            Ok(r) => r,
            Err(msg) => {
                if !write_response(&mut stream, &error_json(&ServiceError::BadRequest(msg))) {
                    return;
                }
                continue;
            }
        };

        if conn.shutdown.load(Ordering::SeqCst) && !matches!(request, Request::Shutdown) {
            let _ = write_response(&mut stream, &error_json(&ServiceError::Overloaded));
            continue;
        }

        match request {
            Request::Status => {
                // Status only takes the store lock, it never compiles,
                // so it needs no admission slot — the lock serializes
                // it against in-flight lookups and installs.
                let mut status = conn.service.status_json();
                if let Json::Obj(pairs) = &mut status {
                    pairs.insert(0, ("proto".into(), Json::str(PROTO_VERSION)));
                }
                if !write_response(&mut stream, &status) {
                    return;
                }
            }
            Request::Shutdown => {
                conn.shutdown.store(true, Ordering::SeqCst);
                let ok = Json::Obj(vec![("ok".into(), Json::Bool(true))]);
                let _ = write_response(&mut stream, &ok);
                // Nudge the accept loop out of its blocking accept()
                // so it observes the flag.
                let _ = Client::connect(&conn.addr);
                return;
            }
            Request::Compile(req) => {
                // Admission control: one atomic reserve-or-shed.
                let Some(slot) = try_admit(&conn.depth, conn.max_queue) else {
                    conn.service.record_shed(1);
                    if !write_response(&mut stream, &error_json(&ServiceError::Overloaded)) {
                        return;
                    }
                    continue;
                };
                conn.peak_depth
                    .fetch_max(conn.depth.load(Ordering::SeqCst), Ordering::SeqCst);
                // Shutdown raced the check above: `join` may already
                // have seen a drained depth, so refuse. Read after the
                // reservation, a clear flag means `join` will see it.
                if conn.shutdown.load(Ordering::SeqCst) {
                    drop(slot);
                    let _ = write_response(&mut stream, &error_json(&ServiceError::Overloaded));
                    continue;
                }

                let outcomes = conn.service.compile_batch(std::slice::from_ref(&req));
                // The outcome exists: a slow reader holds no slot.
                drop(slot);
                if !write_response(&mut stream, &response_json(&outcomes[0])) {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unwinding_request_returns_its_admission_slot() {
        let depth = AtomicUsize::new(0);
        let unwound = std::panic::catch_unwind(|| {
            let _slot = try_admit(&depth, 1).expect("a free slot");
            assert!(try_admit(&depth, 1).is_none(), "the bound is 1");
            panic!("request panicked while holding its slot");
        });
        assert!(unwound.is_err());
        assert_eq!(depth.load(Ordering::SeqCst), 0);
        assert!(try_admit(&depth, 1).is_some(), "the slot is free again");
    }
}
