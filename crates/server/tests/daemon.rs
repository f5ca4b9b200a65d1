//! End-to-end daemon tests: a real listener, real sockets, the full
//! frame protocol — covering the hit/miss path, typed errors, load
//! shedding, status counters and clean shutdown.

use dbds_core::{DbdsConfig, OptLevel};
use dbds_ir::{parse_module, print_class_table, print_graph};
use dbds_server::json::Json;
use dbds_server::{
    serve, ArtifactCounters, Client, CompileRequest, CompileService, CompileSource,
    CompiledArtifact, ServerConfig, ServiceConfig, ServiceError, StoreChoice, StoreKey,
};

fn compile_req(name: &str) -> CompileRequest {
    CompileRequest {
        source: CompileSource::Workload(name.into()),
        level: OptLevel::Dbds,
        deadline_ms: None,
    }
}

/// `status.<section>.<name>` as a number.
fn stat(status: &Json, section: &str, name: &str) -> u64 {
    status
        .get(section)
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("status missing {section}.{name}: {status:?}"))
}

fn counter(status: &Json, name: &str) -> u64 {
    stat(status, "counters", name)
}

#[test]
fn tcp_session_hit_miss_status_shutdown() {
    let handle = serve(ServerConfig::default()).expect("serve");
    let addr = handle.addr.clone();

    let mut client = Client::connect(&addr).expect("connect");
    let cold = client.compile(compile_req("wordcount")).expect("compile");
    let warm = client.compile(compile_req("wordcount")).expect("compile");
    let cold = cold.expect("cold request failed");
    let warm = warm.expect("warm request failed");
    assert!(!cold.cached, "first request must miss");
    assert!(warm.cached, "second request must hit");
    assert_eq!(
        cold.artifact, warm.artifact,
        "hit must serve identical bytes"
    );
    assert!(!warm.artifact.ir.is_empty());

    // Typed errors: unknown workload, zero deadline.
    let bad = client
        .compile(compile_req("no-such-workload"))
        .expect("rpc");
    assert!(matches!(bad, Err(ServiceError::BadRequest(_))), "{bad:?}");
    let mut speedy = compile_req("wordcount");
    speedy.level = OptLevel::Dupalot; // distinct key: not already cached
    speedy.deadline_ms = Some(0);
    let timed_out = client.compile(speedy).expect("rpc");
    assert_eq!(timed_out, Err(ServiceError::DeadlineExceeded));

    // A second client sees the same daemon (and the cache).
    let mut other = Client::connect(&addr).expect("connect 2");
    let warm2 = other.compile(compile_req("wordcount")).expect("compile");
    assert!(warm2.expect("request failed").cached);

    let status = client.status().expect("status");
    assert_eq!(
        status.get("proto").and_then(Json::as_str),
        Some(dbds_server::PROTO_VERSION)
    );
    assert_eq!(counter(&status, "hits"), 2);
    assert_eq!(counter(&status, "misses"), 2); // wordcount cold + deadline try
    assert_eq!(counter(&status, "bad_requests"), 1);
    assert_eq!(counter(&status, "deadline_exceeded"), 1);

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn a_workload_by_name_and_as_its_text_share_one_store_entry() {
    // `lusearch`'s builder numbers its values out of layout order, so
    // its own graph and the graph its text parses to hash differently.
    let w = dbds_workloads::all_workloads()
        .into_iter()
        .find(|w| w.name == "lusearch")
        .expect("lusearch is built in");
    let text = print_class_table(w.graph.class_table()) + &print_graph(&w.graph);
    let handle = serve(ServerConfig::default()).expect("serve");
    let mut client = Client::connect(&handle.addr).expect("connect");

    let by_name = client.compile(compile_req("lusearch")).expect("rpc");
    let as_text = client
        .compile(CompileRequest {
            source: CompileSource::IrText(text),
            level: OptLevel::Dbds,
            deadline_ms: None,
        })
        .expect("rpc");
    let (by_name, as_text) = (by_name.expect("by name"), as_text.expect("as text"));
    assert!(!by_name.cached);
    assert!(as_text.cached, "the text must hit the entry the name put");
    assert_eq!(by_name.artifact, as_text.artifact);
    let status = client.status().expect("status");
    assert_eq!(counter(&status, "misses"), 1);
    assert_eq!(stat(&status, "store", "entries"), 1);

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn ir_the_parser_rejects_is_a_bad_request_and_the_connection_lives_on() {
    let handle = serve(ServerConfig::default()).expect("serve");
    let mut client = Client::connect(&handle.addr).expect("connect");
    let ir = |text: &str| CompileRequest {
        source: CompileSource::IrText(text.into()),
        level: OptLevel::Baseline,
        deadline_ms: None,
    };
    // Each of these once panicked a graph primitive inside the parser.
    for text in [
        "func @f(x: void) {\nentry:\n  return\n}\n",
        "class A { f: void }\nfunc @f() {\nentry:\n  return\n}\n",
        "func @f(c: bool) {\nentry:\n  branch c, b, b, prob 0.5\nb:\n  return\n}\n",
    ] {
        match client.compile(ir(text)).expect("rpc") {
            Err(ServiceError::BadRequest(msg)) => {
                assert!(msg.starts_with("IR does not parse: "), "{msg}")
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }
    let served = client
        .compile(ir("func @u(v0: int) {\nb0:\n  return v0\n}\n"))
        .expect("rpc")
        .expect("request failed");
    assert!(!served.cached);
    let status = client.status().expect("status");
    assert_eq!(counter(&status, "bad_requests"), 3);
    assert_eq!(counter(&status, "misses"), 1);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn unix_socket_transport_works() {
    let path = std::env::temp_dir().join(format!("dbds-daemon-test-{}.sock", std::process::id()));
    let handle = serve(ServerConfig {
        listen: format!("unix:{}", path.display()),
        ..ServerConfig::default()
    })
    .expect("serve");

    let mut client = Client::connect(&handle.addr).expect("connect");
    let served = client
        .compile(CompileRequest {
            source: CompileSource::IrText("func @u(v0: int) {\nb0:\n  return v0\n}\n".into()),
            level: OptLevel::Baseline,
            deadline_ms: None,
        })
        .expect("compile")
        .expect("request failed");
    assert!(!served.cached);
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn zero_queue_sheds_with_typed_overloaded() {
    let handle = serve(ServerConfig {
        max_queue: 0,
        ..ServerConfig::default()
    })
    .expect("serve");

    let mut client = Client::connect(&handle.addr).expect("connect");
    let out = client.compile(compile_req("wordcount")).expect("rpc");
    assert_eq!(out, Err(ServiceError::Overloaded));

    // Status and shutdown are always admitted, and the shed shows up
    // in the counters.
    let status = client.status().expect("status");
    assert_eq!(counter(&status, "shed"), 1);
    assert_eq!(counter(&status, "requests"), 0);
    client.shutdown().expect("shutdown");
    handle.join();
}

/// Fail-first: a frame of 200 000 `[` bytes — far under `MAX_FRAME` —
/// used to overflow the decoding thread's stack and abort the whole
/// daemon. Now the decoder rejects it, that one connection closes, and
/// every other connection is still served.
#[test]
fn a_deeply_nested_frame_closes_its_connection_only() {
    use std::io::{Read, Write};
    let handle = serve(ServerConfig::default()).expect("serve");
    let mut hostile = std::net::TcpStream::connect(&handle.addr).expect("connect");
    let payload = "[".repeat(200_000);
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(payload.as_bytes());
    hostile.write_all(&frame).expect("send");
    let mut rest = Vec::new();
    hostile
        .read_to_end(&mut rest)
        .expect("the daemon closes the connection");
    assert!(rest.is_empty(), "no reply to an undecodable frame");

    let mut client = Client::connect(&handle.addr).expect("connect");
    let status = client.status().expect("status is still answered");
    assert_eq!(counter(&status, "requests"), 0);
    client.shutdown().expect("shutdown");
    handle.join();
}

/// IR text of one function whose `blocks` blocks form a jump chain: a
/// dominator tree `blocks` levels deep.
fn jump_chain_ir(blocks: usize) -> String {
    let mut ir = String::from("func @chain(x: int) {\nb0:\n");
    for i in 1..blocks {
        ir += &format!("  jump b{i}\nb{i}:\n");
    }
    ir + "  return x\n}\n"
}

/// Fail-first: the optimizer's dominator-tree walks recursed once per
/// tree level, so one request with a 5 000-block chain overflowed its
/// connection thread's stack and aborted the whole daemon. Now a
/// 20 000-block chain is compiled and answered, and the daemon serves
/// the next request.
#[test]
fn a_dominator_tree_deeper_than_a_thread_stack_is_compiled() {
    let handle = serve(ServerConfig::default()).expect("serve");
    let mut client = Client::connect(&handle.addr).expect("connect");
    let served = client
        .compile(CompileRequest {
            source: CompileSource::IrText(jump_chain_ir(20_000)),
            level: OptLevel::Dbds,
            deadline_ms: None,
        })
        .expect("the daemon answers")
        .expect("the chain compiles");
    assert!(!served.cached);
    let status = client.status().expect("status is still answered");
    assert_eq!(counter(&status, "misses"), 1);
    client.shutdown().expect("shutdown");
    handle.join();
}

/// Regression for the check-then-increment admission race: with many
/// clients racing, the old two-step admission could admit more jobs
/// than `max_queue`. The daemon tracks the high-water mark of the queue
/// depth, so the bound is checked directly — and every request must be
/// either served or shed with the typed error, never dropped.
#[test]
fn concurrent_clients_never_exceed_the_admission_bound() {
    const CLIENTS: usize = 8;
    const REQS_PER_CLIENT: usize = 3;
    let handle = serve(ServerConfig {
        max_queue: 2,
        ..ServerConfig::default()
    })
    .expect("serve");
    let addr = handle.addr.clone();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut served = 0u64;
                let mut shed = 0u64;
                for _ in 0..REQS_PER_CLIENT {
                    match client.compile(compile_req("wordcount")).expect("rpc") {
                        Ok(_) => served += 1,
                        Err(ServiceError::Overloaded) => shed += 1,
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                }
                (served, shed)
            })
        })
        .collect();
    let (mut served, mut shed) = (0u64, 0u64);
    for worker in workers {
        let (s, d) = worker.join().expect("client thread");
        served += s;
        shed += d;
    }

    assert_eq!(served + shed, (CLIENTS * REQS_PER_CLIENT) as u64);
    assert!(
        handle.peak_queue() <= 2,
        "admission bound breached: peak queue depth {} > 2",
        handle.peak_queue()
    );
    let mut client = Client::connect(&addr).expect("connect");
    let status = client.status().expect("status");
    assert_eq!(counter(&status, "requests"), served);
    assert_eq!(counter(&status, "shed"), shed);
    client.shutdown().expect("shutdown");
    handle.join();
}

/// The same request sequence must produce byte-identical status output
/// on every daemon that serves it.
#[test]
fn status_is_identical_across_runs() {
    let status = || {
        let handle = serve(ServerConfig::default()).expect("serve");
        let mut client = Client::connect(&handle.addr).expect("connect");
        for name in ["wordcount", "charcount", "wordcount", "no-such-workload"] {
            let _ = client.compile(compile_req(name)).expect("rpc");
        }
        let status = client.status().expect("status").pretty();
        client.shutdown().expect("shutdown");
        handle.join();
        status
    };
    assert_eq!(status(), status());
}

#[test]
fn disk_store_persists_across_daemon_restarts() {
    let dir = std::env::temp_dir().join(format!("dbds-daemon-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        store: StoreChoice::Disk(dir.clone()),
        ..ServerConfig::default()
    };

    let handle = serve(config()).expect("serve 1");
    let mut client = Client::connect(&handle.addr).expect("connect");
    let cold = client
        .compile(compile_req("wordcount"))
        .expect("rpc")
        .expect("request failed");
    assert!(!cold.cached);
    client.shutdown().expect("shutdown");
    handle.join();

    // A fresh daemon over the same directory serves from the cache.
    let handle = serve(config()).expect("serve 2");
    let mut client = Client::connect(&handle.addr).expect("connect");
    let warm = client
        .compile(compile_req("wordcount"))
        .expect("rpc")
        .expect("request failed");
    assert!(warm.cached, "restarted daemon must hit the on-disk cache");
    assert_eq!(warm.artifact, cold.artifact);
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `store_budget` bounds the store, not a slice of it: entries totalling
/// exactly the budget all stay, whatever their keys. (With the budget
/// split over key-routed shards, each of these entries alone exceeded
/// its shard's share and was evicted on arrival.)
#[test]
fn store_budget_is_total_bytes_whatever_the_keys() {
    let names = ["wordcount", "charcount", "branchchain", "corrcond"];
    // Stored payloads are byte-identical to a fresh compile of their
    // key, so an in-process compile gives their exact sizes.
    let sizing = CompileService::new(
        StoreChoice::Mem.open(),
        Default::default(),
        ServiceConfig::default(),
    );
    let reqs: Vec<_> = names.iter().map(|n| compile_req(n)).collect();
    let budget: u64 = sizing
        .compile_batch(&reqs)
        .iter()
        .map(|o| {
            o.as_ref()
                .expect("sizing compile")
                .artifact
                .serialize()
                .len() as u64
        })
        .sum();

    let handle = serve(ServerConfig {
        store_budget: Some(budget),
        ..ServerConfig::default()
    })
    .expect("serve");
    let mut client = Client::connect(&handle.addr).expect("connect");
    for pass_hits in [false, true] {
        for name in names {
            let served = client.compile(compile_req(name)).expect("rpc");
            assert_eq!(served.expect("request failed").cached, pass_hits, "{name}");
        }
    }
    let status = client.status().expect("status");
    assert_eq!(stat(&status, "store", "evictions"), 0);
    assert_eq!(stat(&status, "store", "entries"), names.len() as u64);
    client.shutdown().expect("shutdown");
    handle.join();
}

/// `--store DIR` has one layout: what `StoreChoice::Disk(dir).open()`
/// (and so `figures --cache DIR`) wrote, a daemon over `dir` serves.
#[test]
fn daemon_hits_entries_put_through_store_choice_open() {
    let dir = std::env::temp_dir().join(format!("dbds-daemon-layout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let choice = StoreChoice::Disk(dir.clone());

    let svc = CompileService::new(choice.open(), Default::default(), ServiceConfig::default());
    let cold = svc.compile_batch(&[compile_req("wordcount")]).remove(0);
    let cold = cold.expect("in-process compile");
    assert!(!cold.cached);
    drop(svc);

    let handle = serve(ServerConfig {
        store: choice,
        ..ServerConfig::default()
    })
    .expect("serve");
    let mut client = Client::connect(&handle.addr).expect("connect");
    let warm = client
        .compile(compile_req("wordcount"))
        .expect("rpc")
        .expect("request failed");
    assert!(
        warm.cached,
        "the daemon must see entries put through open()"
    );
    assert_eq!(warm.artifact, cold.artifact);
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A compile slow enough (hundreds of milliseconds even in a release
/// build) that a hit served meanwhile finishes first by a wide margin.
fn slow_req() -> CompileRequest {
    CompileRequest {
        level: OptLevel::Backtracking,
        ..compile_req("scalac")
    }
}

/// A connection thread serves its own request: a run of hits on one
/// connection does not wait for another connection's compile. (Behind a
/// shared dispatcher the first hit queued until the compile had
/// finished.)
#[test]
fn hits_are_answered_while_another_connections_miss_compiles() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let handle = serve(ServerConfig::default()).expect("serve");
    let mut fast = Client::connect(&handle.addr).expect("connect");
    let cold = fast.compile(compile_req("wordcount")).expect("rpc");
    assert!(!cold.expect("cold request failed").cached);

    let slow_replied = Arc::new(AtomicBool::new(false));
    let slow = {
        let addr = handle.addr.clone();
        let replied = Arc::clone(&slow_replied);
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            let out = client.compile(slow_req()).expect("rpc");
            replied.store(true, Ordering::SeqCst);
            out
        })
    };
    // Two lookups so far — the cold request above and the slow one —
    // so the slow compile has begun.
    while counter(&fast.status().expect("status"), "requests") < 2 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    for _ in 0..16 {
        let warm = fast.compile(compile_req("wordcount")).expect("rpc");
        assert!(warm.expect("warm request failed").cached);
    }
    assert!(
        !slow_replied.load(Ordering::SeqCst),
        "the hits were answered only after the other connection's compile"
    );

    assert!(!slow.join().expect("slow client").expect("slow").cached);
    fast.shutdown().expect("shutdown");
    handle.join();
}

/// A one-block request whose stored artifact is a `blocks`-block jump
/// chain: a hit on it is cheap to key and expensive to re-verify.
/// Returns the request text after putting the artifact into `choice`.
fn store_a_slow_to_verify_hit(choice: &StoreChoice, blocks: usize) -> String {
    let request = "func @tiny(x: int) {\nb0:\n  return x\n}\n".to_string();
    let graph = parse_module(&request).expect("parses").graphs.remove(0);
    let key = StoreKey::compute(&graph, &DbdsConfig::default(), OptLevel::Dbds);
    let artifact = CompiledArtifact {
        key,
        level: OptLevel::Dbds.name().to_string(),
        classes: String::new(),
        ir: jump_chain_ir(blocks),
        counters: ArtifactCounters::default(),
    };
    let mut store = choice.open();
    store.put(&key, &artifact.serialize()).expect("put");
    request
}

/// The store lock covers store calls only: while one connection's hit
/// parses and re-verifies a large stored artifact, another connection's
/// hits are answered. (When the lock was held across the verify, the
/// other connection's first request — even `status` — waited for it.)
#[test]
fn hits_are_answered_while_another_connections_hit_verifies() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("dbds-daemon-lock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let choice = StoreChoice::Disk(dir.clone());
    let slow_text = store_a_slow_to_verify_hit(&choice, 200_000);
    let handle = serve(ServerConfig {
        store: choice,
        ..ServerConfig::default()
    })
    .expect("serve");
    let mut fast = Client::connect(&handle.addr).expect("connect");
    let cold = fast.compile(compile_req("wordcount")).expect("rpc");
    assert!(!cold.expect("cold request failed").cached);

    let slow_replied = Arc::new(AtomicBool::new(false));
    let slow = {
        let addr = handle.addr.clone();
        let replied = Arc::clone(&slow_replied);
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            let out = client.compile(CompileRequest {
                source: CompileSource::IrText(slow_text),
                level: OptLevel::Dbds,
                deadline_ms: None,
            });
            replied.store(true, Ordering::SeqCst);
            out.expect("rpc")
        })
    };
    // Two lookups so far — the cold request above and the slow hit — so
    // the slow hit has its payload and is verifying it.
    while counter(&fast.status().expect("status"), "requests") < 2 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    const HITS: u64 = 16;
    for _ in 0..HITS {
        let warm = fast.compile(compile_req("wordcount")).expect("rpc");
        assert!(warm.expect("warm request failed").cached);
    }
    let hits = counter(&fast.status().expect("status"), "hits");
    assert!(
        !slow_replied.load(Ordering::SeqCst) && hits == HITS,
        "the hits were answered only after the other connection's verify \
         ({hits} hits counted, slow hit replied: {})",
        slow_replied.load(Ordering::SeqCst)
    );

    let served = slow.join().expect("slow client").expect("slow hit failed");
    assert!(served.cached);
    assert_eq!(counter(&fast.status().expect("status"), "hits"), HITS + 1);
    fast.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same distinct-key requests leave byte-identical quiescent status
/// whether one client issues them or four do concurrently: every
/// counter is a sum taken under the store lock.
#[test]
fn status_is_identical_for_one_client_and_four_concurrent_clients() {
    const NAMES: [&str; 8] = [
        "wordcount",
        "charcount",
        "charhist",
        "chisquare",
        "branchchain",
        "corrcond",
        "testladder",
        "bufdecode",
    ];
    // Each client asks for its keys twice: a miss, then a hit.
    let run = |client: &mut Client, names: &[&str]| {
        for pass_hits in [false, true] {
            for name in names {
                let served = client.compile(compile_req(name)).expect("rpc");
                assert_eq!(served.expect("request failed").cached, pass_hits, "{name}");
            }
        }
    };
    let status_after = |clients: usize| {
        let handle = serve(ServerConfig::default()).expect("serve");
        std::thread::scope(|scope| {
            for names in NAMES.chunks(NAMES.len() / clients) {
                let addr = &handle.addr;
                scope.spawn(move || run(&mut Client::connect(addr).expect("connect"), names));
            }
        });
        let mut client = Client::connect(&handle.addr).expect("connect");
        let status = client.status().expect("status").pretty();
        client.shutdown().expect("shutdown");
        handle.join();
        status
    };
    assert_eq!(status_after(1), status_after(4));
}

/// `shutdown` while another connection's compile is in flight: that
/// request is still answered in full, and `join` returns only once its
/// outcome exists — observed as the entry already being in the store.
#[test]
fn shutdown_drains_the_in_flight_request_before_join_returns() {
    let dir = std::env::temp_dir().join(format!("dbds-daemon-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let choice = StoreChoice::Disk(dir.clone());
    let handle = serve(ServerConfig {
        store: choice.clone(),
        ..ServerConfig::default()
    })
    .expect("serve");

    let in_flight = {
        let addr = handle.addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.compile(slow_req()).expect("rpc")
        })
    };
    while handle.peak_queue() == 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut other = Client::connect(&handle.addr).expect("connect");
    other.shutdown().expect("shutdown");
    handle.join();

    let svc = CompileService::new(choice.open(), Default::default(), ServiceConfig::default());
    let stored = svc.compile_batch(&[slow_req()]).remove(0);
    let stored = stored.expect("in-process lookup");
    assert!(stored.cached, "join returned before the compile committed");

    let served = in_flight.join().expect("client thread");
    let served = served.expect("the in-flight request must be answered");
    assert!(!served.cached);
    assert_eq!(served.artifact, stored.artifact);
    let _ = std::fs::remove_dir_all(&dir);
}
