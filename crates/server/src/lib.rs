//! # dbds-server — the crash-safe DBDS compilation service
//!
//! A long-running daemon that accepts compile requests (a workload
//! name or inline IR, an opt level, an optional deadline) over a Unix
//! or TCP socket, serves each on the thread of the connection it
//! arrived on, and memoizes verified results in a content-addressed
//! store keyed by graph content hash × configuration fingerprint. There is one store behind one lock — in memory or one
//! directory of `<key>.entry` files, optionally under a total byte
//! budget.
//!
//! The design goal is *robustness as a feature*: a corrupted, dead or
//! read-only store must never produce a wrong compilation result or a
//! failed request — at worst a slower one. See the module docs of
//! [`store`] (crash-safety contract), [`service`] (graceful
//! degradation ladder) and [`daemon`] (admission control) for the
//! specific guarantees, and `DESIGN.md` §"Compilation service" for the
//! overall argument. The `servsim` binary arms deterministic store
//! faults ([`store::StoreFaultPlan`], one thread at a time) — torn writes, bit flips on read, ENOSPC, writers killed before their
//! atomic rename, dead and read-only store directories — and asserts
//! that every served result stays byte-identical to a fresh compile.
//!
//! # Examples
//!
//! In-process service with an in-memory store:
//!
//! ```
//! use dbds_core::OptLevel;
//! use dbds_server::{
//!     CompileRequest, CompileService, CompileSource, MemStore, ServiceConfig,
//! };
//!
//! let mut svc = CompileService::new(
//!     Box::new(MemStore::new()),
//!     dbds_core::DbdsConfig::default(),
//!     ServiceConfig::default(),
//! );
//! let req = CompileRequest {
//!     source: CompileSource::Workload("wordcount".into()),
//!     level: OptLevel::Dbds,
//!     deadline_ms: None,
//! };
//! let cold = svc.compile_batch(std::slice::from_ref(&req));
//! let warm = svc.compile_batch(std::slice::from_ref(&req));
//! assert!(!cold[0].as_ref().unwrap().cached);
//! assert!(warm[0].as_ref().unwrap().cached);
//! assert_eq!(
//!     cold[0].as_ref().unwrap().artifact,
//!     warm[0].as_ref().unwrap().artifact
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod artifact;
pub mod client;
pub mod daemon;
pub mod json;
pub mod key;
pub mod proto;
pub mod service;
pub mod store;

pub use artifact::{ArtifactCounters, ArtifactError, CompiledArtifact, ARTIFACT_MAGIC};
pub use client::Client;
pub use daemon::{serve, ServerConfig, ServerHandle, StoreChoice};
pub use key::StoreKey;
pub use proto::FrameError;
pub use proto::{level_from_name, Request, MAX_FRAME, PROTO_VERSION};
pub use service::{
    run_session, CompileOutcome, CompileRequest, CompileService, CompileSource, ServedResult,
    ServiceConfig, ServiceCounters, ServiceError, SessionPass, SessionReport,
};
pub use store::{BoundedStore, CompiledStore, DiskStore, MemStore, StoreError, StoreHealth};
