//! The benchmark's whole view of the program under test.
//!
//! Every item of the `dbds-*` crates the benchmark names is named here
//! and nowhere else, and all of them are front-door items: a PR that
//! changes one of these signatures needs a paired benchmark PR, and sees
//! so from this one file (the list is repeated in `README.md`). None of
//! the items ROADMAP schedules for deletion appear: thread counts are set
//! through `DBDS_UNIT_THREADS` / `DBDS_SIM_THREADS`, never through config
//! fields; the status report's JSON type is used without being named.

pub use dbds_analysis::AnalysisCache;
pub use dbds_backend::compile_to_machine_code;
pub use dbds_core::{
    checkpoint, compile, lint_frontier, select, simulate, DbdsConfig, OptLevel, PhaseStats,
    SelectionMode,
};
pub use dbds_costmodel::CostModel;
pub use dbds_harness::{run_suite, IcacheModel};
#[cfg(test)]
pub use dbds_ir::content_hash;
pub use dbds_ir::{
    execute, parse_module, print_class_table, print_graph, verify, Graph, Outcome, Value,
};
pub use dbds_opt::optimize_full;
pub use dbds_server::{
    serve, Client, CompileRequest, CompileService, CompileSource, CompiledArtifact, ServerConfig,
    ServerHandle, StoreChoice, StoreKey,
};
pub use dbds_workloads::{generate_graph, generate_inputs, Suite};

use std::path::Path;

/// The IR text a client sends for `g`: class table plus body, exactly
/// what `CompileSource::IrText` expects.
pub fn request_text(g: &Graph) -> String {
    let mut text = print_class_table(g.class_table());
    text.push_str(&print_graph(g));
    text
}

/// A Dbds-level compile request for inline IR text.
pub fn ir_request(text: &str) -> CompileRequest {
    CompileRequest {
        source: CompileSource::IrText(text.to_string()),
        level: OptLevel::Dbds,
        deadline_ms: None,
    }
}

/// The program's fixed inputs besides the graphs: the node cost model,
/// the phase configuration and the icache model, all at their defaults.
pub struct Ctx {
    pub model: CostModel,
    pub cfg: DbdsConfig,
    pub icache: IcacheModel,
}

impl Ctx {
    /// Reads `DBDS_UNIT_THREADS` / `DBDS_SIM_THREADS` as they are now.
    pub fn new() -> Ctx {
        Ctx {
            model: CostModel::new(),
            cfg: DbdsConfig::default(),
            icache: IcacheModel::default(),
        }
    }
}

/// A disk store in `dir`, or without one the default (in-memory) store.
fn store_choice(dir: Option<&Path>) -> StoreChoice {
    match dir {
        Some(dir) => StoreChoice::Disk(dir.to_path_buf()),
        None => ServerConfig::default().store,
    }
}

/// Starts the daemon in this process, listening on `listen` or, without
/// one, on the default address (TCP loopback, any port), with a disk
/// store in `store_dir` or, without one, the default store; every other
/// `ServerConfig` field keeps its default.
pub fn start_daemon(
    listen: Option<String>,
    store_dir: Option<&Path>,
) -> Result<ServerHandle, String> {
    let default = ServerConfig::default();
    serve(ServerConfig {
        listen: listen.unwrap_or_else(|| default.listen.clone()),
        store: store_choice(store_dir),
        ..default
    })
}

/// An in-process service over a fresh store of the same kind (no
/// socket, no queue), for the `server.service.*` spans.
pub fn service(store_dir: Option<&Path>) -> CompileService {
    CompileService::new(
        store_choice(store_dir).open(),
        DbdsConfig::default(),
        Default::default(),
    )
}

/// The daemon's status report, flattened to `(name, count)` pairs:
/// the service counters by their report names plus `store_entries`,
/// `store_quarantined` and `evictions`.
pub fn daemon_status(client: &mut Client) -> Result<Vec<(String, u64)>, String> {
    let status = client.status()?;
    let mut out = Vec::new();
    for name in [
        "requests",
        "hits",
        "misses",
        "puts",
        "quarantined",
        "shed",
        "degraded",
    ] {
        let v = status
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("status report lacks counters.{name}"))?;
        out.push((name.to_string(), v));
    }
    for (name, key) in [
        ("store_entries", "entries"),
        ("store_quarantined", "quarantined"),
        ("evictions", "evictions"),
    ] {
        let v = status
            .get("store")
            .and_then(|s| s.get(key))
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("status report lacks store.{key}"))?;
        out.push((name.to_string(), v));
    }
    Ok(out)
}

/// The graph a request text parses to (exactly one `func`).
pub fn parse_single(text: &str) -> Result<Graph, String> {
    let mut module = parse_module(text).map_err(|e| e.to_string())?;
    if module.graphs.len() != 1 {
        return Err(format!("expected one func, found {}", module.graphs.len()));
    }
    Ok(module.graphs.remove(0))
}

/// Microseconds one `lint_frontier` takes on `g`, for its first merge
/// and that merge's first predecessor; `None` for a graph without
/// merges.
pub fn frontier_probe_us(g: &Graph) -> Option<f64> {
    let merge = *g.merge_blocks().first()?;
    let pred = *g.preds(merge).first()?;
    let t = std::time::Instant::now();
    std::hint::black_box(lint_frontier(g, pred, merge));
    Some(t.elapsed().as_secs_f64() * 1e6)
}
