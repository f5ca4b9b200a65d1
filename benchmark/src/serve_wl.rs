//! The serve workloads: the daemon started in this process, driven over
//! persistent connections in a closed loop (each connection sends its
//! next request only after the previous reply is decoded; there is no
//! open-loop rate).

use crate::api::{
    compile_to_machine_code, daemon_status, execute, ir_request, parse_single, request_text,
    service, start_daemon, Client, CompileRequest, CompiledArtifact, Ctx, OptLevel, ServerHandle,
    StoreChoice, StoreKey, Suite,
};
use crate::gen::{self, Unit};
use crate::report::{PassTimes, RunReport};
use crate::run::{self, Job};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Spec {
    /// The default TCP listen address instead of a Unix socket.
    tcp: bool,
    /// Distinct request texts.
    keys: usize,
    /// Requests per pass, each key equally often.
    pass_requests: usize,
    /// Persistent connections (at most `nproc`).
    clients: usize,
    /// A hit workload: one daemon over a disk store that set-up populates
    /// with every key, and every timed request must come back `cached`.
    /// Otherwise a miss workload: every pass meets a fresh daemon with
    /// its default (in-memory) store, and no request may come back
    /// `cached`.
    hits: bool,
}

pub fn spec(workload: &str) -> Option<Spec> {
    match workload {
        "serve-hit" => Some(Spec {
            tcp: false,
            keys: 150,
            pass_requests: 600,
            clients: 2,
            hits: true,
        }),
        "serve-miss" => Some(Spec {
            tcp: false,
            keys: 400,
            pass_requests: 400,
            clients: 2,
            hits: false,
        }),
        "serve-tcp" => Some(Spec {
            tcp: true,
            keys: 25,
            pass_requests: 25,
            clients: 1,
            hits: true,
        }),
        _ => None,
    }
}

/// Requests probed layer by layer in a traced run.
const PROBES: usize = 64;

/// One request text and the unit it was printed from, with the artifact
/// the daemon first served for it.
struct Key {
    unit: Unit,
    text: String,
    artifact: Option<CompiledArtifact>,
}

/// Σ icache-adjusted cycles and Σ machine-code bytes of served code.
#[derive(Clone, Copy, Default)]
struct Quality {
    peak_cycles: f64,
    code_bytes: u64,
}

/// The independent check of a served artifact: it must verify, and the
/// graph it carries must compute what the pristine unit computes.
fn check_artifact(
    unit: &Unit,
    artifact: &CompiledArtifact,
    ctx: &Ctx,
    quality: &mut Quality,
) -> Result<(), String> {
    let g = artifact
        .verify()
        .map_err(|e| format!("{}: {e}", unit.name))?;
    if artifact.level != OptLevel::Dbds.name() {
        return Err(format!("{}: served at level {}", unit.name, artifact.level));
    }
    let mut cycles = 0;
    let mut outcomes = Vec::with_capacity(unit.inputs.len());
    for input in &unit.inputs {
        let r = execute(&g, input);
        cycles += ctx.model.dynamic_cycles(&r.counts);
        outcomes.push(r.outcome);
    }
    if outcomes != unit.reference {
        return Err(format!(
            "{}: served code's outcomes differ from the pristine graph's",
            unit.name
        ));
    }
    let bytes = compile_to_machine_code(&g).size() as u64;
    quality.peak_cycles += cycles as f64 * ctx.icache.factor(bytes);
    quality.code_bytes += bytes;
    Ok(())
}

/// A running daemon and the persistent connections to it.
struct Session {
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Session {
    /// Starts a daemon whose socket and disk store live in `dir`, and
    /// connects the workload's clients.
    fn open(spec: &Spec, dir: &Path) -> Session {
        std::fs::create_dir_all(dir).expect("create the daemon's directory");
        // The socket path stays relative (and so short): `sun_path` holds
        // about a hundred bytes and a checkout can sit anywhere.
        let listen = (!spec.tcp).then(|| format!("unix:{}", dir.join("sock").display()));
        let store = spec.hits.then(|| dir.join("store"));
        let handle = start_daemon(listen, store.as_deref()).expect("start the daemon");
        let clients = (0..spec.clients.min(run::nproc()))
            .map(|_| Client::connect(&handle.addr).expect("connect"))
            .collect();
        Session { handle, clients }
    }

    /// Closes the connections, stops the daemon and waits for its
    /// threads.
    fn close(self) {
        drop(self.clients);
        self.handle.stop();
    }
}

/// The workload, set up and warmed up.
struct Prepared {
    /// Where the daemons' sockets and stores go; removed at the end.
    dir: PathBuf,
    /// A hit workload's daemon, its store populated.
    session: Option<Session>,
    keys: Vec<Key>,
    /// The key of each of a pass's requests, the same in every pass.
    order: Vec<usize>,
    /// Of the code served so far, every key's counted once.
    quality: Quality,
}

impl Prepared {
    fn discard(self) {
        if let Some(session) = self.session {
            session.close();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn served(client: &mut Client, req: CompileRequest) -> Result<(bool, CompiledArtifact), String> {
    client
        .compile(req)?
        .map(|s| (s.cached, s.artifact))
        .map_err(|e| e.to_string())
}

/// One set-up round, up to the first timed pass: generate the request
/// texts with their references, start a daemon and connect; on a hit
/// workload populate the store and check what came back; run the
/// warm-up pass.
fn set_up(spec: &Spec, job: &Job, round: usize, ctx: &Ctx, report: &mut RunReport) -> Prepared {
    let dir = job
        .out_dir
        .join(format!("{}-{}-{round}", job.workload, std::process::id()));
    let mut keys: Vec<Key> = gen::units(job.seed, job.index, Suite::Micro, spec.keys, &ctx.model)
        .into_iter()
        .map(|unit| Key {
            text: request_text(&unit.graph),
            unit,
            artifact: None,
        })
        .collect();
    let mut session = Session::open(spec, &dir);
    let mut quality = Quality::default();
    if spec.hits {
        // Populate the store through the daemon. Over TCP each request
        // takes a connection of its own: a fresh connection does not
        // meet the stall the persistent one is here to measure.
        let mut client = Client::connect(&session.handle.addr).expect("connect");
        for key in &mut keys {
            if spec.tcp {
                client = Client::connect(&session.handle.addr).expect("connect");
            }
            let result = served(&mut client, ir_request(&key.text)).and_then(|(cached, a)| {
                if cached {
                    return Err(format!("{}: cached in an empty store", key.unit.name));
                }
                check_artifact(&key.unit, &a, ctx, &mut quality)?;
                key.artifact = Some(a);
                Ok(())
            });
            report.op(result);
        }
    }

    // Each key equally often, shuffled.
    assert_eq!(spec.pass_requests % spec.keys, 0);
    let mut order: Vec<usize> = (0..spec.pass_requests).map(|i| i % spec.keys).collect();
    gen::shuffle(&mut order, job.seed, job.index as u64);
    // Warm-up: a third of a pass.
    let warm = &order[..order.len().div_ceil(3)];
    let mut served = Served {
        keys: &mut keys,
        quality: &mut quality,
    };
    pass(spec, ctx, &mut session, &mut served, warm, None, report);
    // A miss workload's daemon has now seen those keys: every timed
    // pass starts its own.
    let session = if spec.hits {
        Some(session)
    } else {
        session.close();
        None
    };
    Prepared {
        dir,
        session,
        keys,
        order,
        quality,
    }
}

/// One reply, timed on the connection's own thread.
struct Reply {
    key: usize,
    start: Instant,
    end: Instant,
    result: Result<(bool, CompiledArtifact), String>,
}

fn drive(client: &mut Client, requests: Vec<(usize, CompileRequest)>) -> Vec<Reply> {
    requests
        .into_iter()
        .map(|(key, req)| {
            let start = Instant::now();
            let result = served(client, req);
            Reply {
                key,
                start,
                end: Instant::now(),
                result,
            }
        })
        .collect()
}

/// One pass: `order` names the key of each request; request `i` goes to
/// connection `i mod clients`. Returns the wall time in milliseconds and
/// the replies.
fn socket_pass(clients: &mut [Client], keys: &[Key], order: &[usize]) -> (f64, Vec<Reply>) {
    let mut per_client: Vec<Vec<(usize, CompileRequest)>> = vec![Vec::new(); clients.len()];
    for (i, &key) in order.iter().enumerate() {
        per_client[i % clients.len()].push((key, ir_request(&keys[key].text)));
    }
    let t0 = Instant::now();
    let replies: Vec<Reply> = if let [client] = clients {
        drive(client, per_client.remove(0))
    } else {
        std::thread::scope(|s| {
            let threads: Vec<_> = clients
                .iter_mut()
                .zip(per_client)
                .map(|(client, requests)| s.spawn(move || drive(client, requests)))
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("client thread"))
                .collect()
        })
    };
    (t0.elapsed().as_secs_f64() * 1e3, replies)
}

/// What one pass produced.
struct Pass {
    /// The pass's wall time and every request's round trip.
    times: PassTimes,
    /// The change the pass made to the daemon's status (traced passes).
    status: Vec<(String, u64)>,
    /// The daemon's deepest admission queue so far.
    peak_queue: usize,
}

/// The request texts, and the running quality total of the code served
/// for them: a key is checked in full, and counted, the first time it
/// is served.
struct Served<'a> {
    keys: &'a mut [Key],
    quality: &'a mut Quality,
}

/// Runs one pass over `session`, checks every reply, and records spans
/// when asked.
fn pass(
    spec: &Spec,
    ctx: &Ctx,
    session: &mut Session,
    served: &mut Served,
    order: &[usize],
    tracer: Option<&mut Tracer>,
    report: &mut RunReport,
) -> Pass {
    let before = tracer
        .is_some()
        .then(|| daemon_status(&mut session.clients[0]).expect("status"));
    let (pass_ms, replies) = socket_pass(&mut session.clients, served.keys, order);
    let status = before.map_or(Vec::new(), |before| {
        let after = daemon_status(&mut session.clients[0]).expect("status");
        after
            .into_iter()
            .zip(before)
            .map(|((name, a), (_, b))| (name, a - b))
            .collect()
    });
    if let Some(t) = tracer {
        let root = t.begin("pass", None, 0);
        for (i, r) in replies.iter().enumerate() {
            t.record("client.compile", Some(root), i, r.start, r.end);
        }
        t.end(root);
    }
    let op_ms = replies
        .iter()
        .map(|r| (r.end - r.start).as_secs_f64() * 1e3)
        .collect();

    for reply in replies {
        let key = &mut served.keys[reply.key];
        let name = &key.unit.name;
        let result = match reply.result {
            Err(e) => Err(format!("{name}: {e}")),
            Ok((cached, _)) if cached != spec.hits => {
                Err(format!("{name}: cached = {cached}, expected {}", spec.hits))
            }
            // A reply must be identical to what the daemon first served
            // for the same text (and that was checked in full).
            Ok((_, a)) if key.artifact.is_some() => (Some(&a) == key.artifact.as_ref())
                .then_some(())
                .ok_or_else(|| format!("{name}: differs from the artifact served before")),
            Ok((_, a)) => {
                let checked = check_artifact(&key.unit, &a, ctx, served.quality);
                key.artifact = Some(a);
                checked
            }
        };
        report.op(result);
    }
    Pass {
        times: PassTimes {
            part_ms: vec![pass_ms],
            op_ms,
        },
        status,
        peak_queue: session.handle.peak_queue(),
    }
}

fn times(passes: &[Pass]) -> Vec<&PassTimes> {
    passes.iter().map(|p| &p.times).collect()
}

pub fn run(job: &Job, spec: Spec) -> RunReport {
    // The daemon at its defaults: one dispatcher, misses compiled on a
    // 1 x 1 unit pool.
    for var in ["DBDS_SIM_THREADS", "DBDS_UNIT_THREADS", "DBDS_DISPATCHERS"] {
        std::env::remove_var(var);
    }
    let ctx = Ctx::new();
    let mut report = RunReport::default();

    let (prepared, setup_s) = run::repeat_setup(
        |round| set_up(&spec, job, round, &ctx, &mut report),
        Prepared::discard,
    );
    report.set("setup_s", setup_s);
    let Prepared {
        dir,
        mut session,
        mut keys,
        order,
        mut quality,
    } = prepared;

    let mut tracer = Tracer::new();
    let mut served = Served {
        keys: &mut keys,
        quality: &mut quality,
    };
    let (plain, traced) = run::timed_passes(job, |is_traced| {
        let tr = is_traced.then_some(&mut tracer);
        match &mut session {
            Some(session) => pass(&spec, &ctx, session, &mut served, &order, tr, &mut report),
            None => {
                let mut fresh = Session::open(&spec, &dir);
                let pass = pass(
                    &spec,
                    &ctx,
                    &mut fresh,
                    &mut served,
                    &order,
                    tr,
                    &mut report,
                );
                fresh.close();
                pass
            }
        }
    });

    let pristine_cycles: u64 = keys.iter().map(|k| k.unit.pristine_cycles).sum();
    let pristine_insts: usize = keys.iter().map(|k| k.unit.insts).sum();
    if !job.trace {
        report.set_end_to_end_times(&times(&plain));
        report.set(
            "peak_cycles_rel",
            quality.peak_cycles / pristine_cycles as f64,
        );
        report.set(
            "code_bytes_per_inst",
            quality.code_bytes as f64 / pristine_insts as f64,
        );
    } else {
        let p50 = |p: &PassTimes| percentile(&p.op_ms, 50.0).value;
        report.set_traced_times(&times(&plain), &times(&traced), p50);
        for pass in &traced[1..] {
            if pass.status != traced[0].status {
                report.fail("the daemon's counters changed between two equal passes".into());
                break;
            }
        }
        let status = |name: &str| {
            traced[0]
                .status
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v as f64)
        };
        for (metric, name) in [
            ("server.requests", "requests"),
            ("server.hits", "hits"),
            ("server.misses", "misses"),
            ("server.puts", "puts"),
            ("server.shed", "shed"),
            ("server.quarantined", "quarantined"),
            ("server.degraded", "degraded"),
            ("server.store_entries", "store_entries"),
            ("server.evictions", "evictions"),
        ] {
            report.set(metric, status(name));
        }
        report.set(
            "server.hit_ratio",
            status("hits") / status("requests").max(1.0),
        );
        let peak_queue = plain.iter().chain(&traced).map(|p| p.peak_queue).max();
        report.set("server.peak_queue", peak_queue.unwrap_or(0) as f64);
        report.set("backend.code_bytes", quality.code_bytes as f64);
        report.set("costmodel.peak_cycles", quality.peak_cycles.round());
        report.set("ir.insts_in", pristine_insts as f64);

        let service_us = probes(&spec, &keys, &dir, &ctx, &mut tracer, &mut report);
        // What a round trip costs beyond the service itself: queue wait,
        // dispatch, frame encode and decode, the socket.
        let plain_ops: Vec<f64> = plain.iter().flat_map(|p| p.times.op_ms.clone()).collect();
        let rtt_us = percentile(&plain_ops, 50.0).value * 1e3;
        report.set("server.daemon.overhead_us", rtt_us - service_us);
        report.set(
            "server.daemon.overhead_share",
            (rtt_us - service_us) / rtt_us,
        );
        run::write_trace(job, &tracer, &mut report);
    }

    if let Some(session) = session {
        session.close();
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// One public call per service layer on the run's real request texts
/// and artifacts, outside any pass and without a socket; every metric
/// is the median over the probed requests. Returns the in-process
/// service time (hit or miss, whichever the workload's requests are).
fn probes(
    spec: &Spec,
    keys: &[Key],
    dir: &Path,
    ctx: &Ctx,
    t: &mut Tracer,
    report: &mut RunReport,
) -> f64 {
    /// Span name and metric of each probed call.
    const CALLS: [(&str, &str); 10] = [
        ("ir.parse", "ir.parse_us"),
        ("ir.print", "ir.print_us"),
        ("server.key", "server.key_us"),
        ("server.artifact.serialize", "server.artifact.serialize_us"),
        ("server.store.put", "server.store.put_us"),
        ("server.store.get", "server.store.get_us"),
        ("server.artifact.parse", "server.artifact.parse_us"),
        ("server.artifact.verify", "server.artifact.verify_us"),
        ("server.service.miss", "server.service.miss_us"),
        ("server.service.hit", "server.service.hit_us"),
    ];
    let mut us: [Vec<f64>; 10] = Default::default();
    let (mut req_bytes, mut artifact_bytes) = (Vec::new(), Vec::new());
    let mut store = StoreChoice::Disk(dir.join("probe-store")).open();
    // The service over a store of the kind the workload's daemon has.
    let service = service(spec.hits.then(|| dir.join("probe-service")).as_deref());
    for (op, key) in keys.iter().take(PROBES).enumerate() {
        let Some(artifact) = &key.artifact else {
            continue;
        };
        let probe_span = t.begin("probe", None, op);
        let root = Some(probe_span);
        let probe = |t: &mut Tracer, i: usize, us: &mut [Vec<f64>; 10], f: &mut dyn FnMut()| {
            let (_, d) = t.timed(CALLS[i].0, root, op, f);
            us[i].push(d);
        };
        probe(t, 0, &mut us, &mut || {
            black_box(parse_single(&key.text).is_ok());
        });
        probe(t, 1, &mut us, &mut || {
            black_box(request_text(&key.unit.graph).len());
        });
        let mut store_key = None;
        probe(t, 2, &mut us, &mut || {
            store_key = Some(StoreKey::compute(&key.unit.graph, &ctx.cfg, OptLevel::Dbds));
        });
        let store_key = store_key.expect("key probe ran");
        let mut payload = Vec::new();
        probe(t, 3, &mut us, &mut || payload = artifact.serialize());
        probe(t, 4, &mut us, &mut || {
            black_box(store.put(&store_key, &payload).is_ok());
        });
        probe(t, 5, &mut us, &mut || {
            black_box(store.get(&store_key).is_ok());
        });
        probe(t, 6, &mut us, &mut || {
            black_box(CompiledArtifact::parse(&payload).is_ok());
        });
        probe(t, 7, &mut us, &mut || {
            black_box(artifact.verify().is_ok());
        });
        let req = [ir_request(&key.text)];
        for (i, want_cached) in [(8, false), (9, true)] {
            let mut cached = None;
            probe(t, i, &mut us, &mut || {
                cached = service.compile_batch(&req)[0]
                    .as_ref()
                    .ok()
                    .map(|s| s.cached);
            });
            report.op(if cached == Some(want_cached) {
                Ok(())
            } else {
                Err(format!(
                    "{}: in-process service answered {cached:?}",
                    key.unit.name
                ))
            });
        }
        t.end(probe_span);
        req_bytes.push(key.text.len() as f64);
        artifact_bytes.push(payload.len() as f64);
    }
    for ((_, metric), samples) in CALLS.iter().zip(&us) {
        report.set(metric, median(samples));
    }
    report.set("server.frame.req_bytes", median(&req_bytes));
    report.set("server.frame.resp_bytes", median(&artifact_bytes));
    report.set("server.artifact.bytes", median(&artifact_bytes));
    median(&us[if spec.hits { 9 } else { 8 }])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(workload: &str) -> Job<'_> {
        Job {
            workload,
            index: 8,
            seed: 11,
            seconds: 1.0,
            trace: false,
            out_dir: Path::new("out"),
        }
    }

    /// Three fresh request texts no daemon has seen.
    fn other_keys(ctx: &Ctx) -> Vec<Key> {
        gen::units(12, 8, Suite::Micro, 3, &ctx.model)
            .into_iter()
            .map(|unit| Key {
                text: request_text(&unit.graph),
                unit,
                artifact: None,
            })
            .collect()
    }

    #[test]
    fn hits_must_be_cached_and_identical_to_the_populate_pass() {
        let spec = Spec {
            tcp: false,
            keys: 3,
            pass_requests: 6,
            clients: 2,
            hits: true,
        };
        let ctx = Ctx::new();
        let mut report = RunReport::default();
        let mut p = set_up(&spec, &job("test-hit"), 0, &ctx, &mut report);
        // Three populate requests and a warm-up pass of a third of six.
        assert_eq!(
            (report.attempted, report.failed),
            (5, 0),
            "{:?}",
            report.notes
        );
        assert!(p.quality.code_bytes > 0 && p.quality.peak_cycles > 0.0);
        let mut sorted = p.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 0, 1, 1, 2, 2]);

        let session = p.session.as_mut().expect("a hit workload keeps its daemon");
        let populated = p.quality.code_bytes;
        let mut served = Served {
            keys: &mut p.keys,
            quality: &mut p.quality,
        };
        let order = [0, 1, 2, 2, 1, 0];
        let mut tracer = Tracer::new();
        let traced = pass(
            &spec,
            &ctx,
            session,
            &mut served,
            &order,
            Some(&mut tracer),
            &mut report,
        );
        assert_eq!(
            (report.attempted, report.failed),
            (11, 0),
            "{:?}",
            report.notes
        );
        assert_eq!(traced.times.op_ms.len(), 6);
        assert_eq!(traced.times.part_ms.len(), 1);
        let status = |name: &str| traced.status.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(
            (status("requests"), status("hits"), status("misses")),
            (6, 6, 0)
        );
        assert_eq!(
            tracer
                .spans
                .iter()
                .filter(|s| s.name == "client.compile")
                .count(),
            6
        );
        // Hits are not counted into the quality a second time.
        assert_eq!(served.quality.code_bytes, populated);

        // An artifact that differs from what the daemon serves: both
        // requests for that key must fail the gate.
        served.keys[1].artifact.as_mut().unwrap().counters.work += 1;
        pass(&spec, &ctx, session, &mut served, &order, None, &mut report);
        assert_eq!((report.attempted, report.failed), (17, 2));
        // A text the daemon has not stored comes back uncached: a
        // failure on a hit workload.
        let mut fresh = other_keys(&ctx);
        let mut unseen = Served {
            keys: &mut fresh,
            quality: &mut Quality::default(),
        };
        pass(&spec, &ctx, session, &mut unseen, &[0], None, &mut report);
        assert_eq!((report.attempted, report.failed), (18, 3));
        assert!(
            report.notes[2].contains("cached = false"),
            "{:?}",
            report.notes
        );
        p.discard();
    }

    #[test]
    fn misses_meet_a_fresh_daemon_and_are_checked_against_the_pristine_graph() {
        let spec = Spec {
            tcp: false,
            keys: 3,
            pass_requests: 3,
            clients: 1,
            hits: false,
        };
        let ctx = Ctx::new();
        let mut report = RunReport::default();
        let mut p = set_up(&spec, &job("test-miss"), 0, &ctx, &mut report);
        // The warm-up pass sent a third of the keys, and its daemon is
        // gone.
        assert_eq!(
            (report.attempted, report.failed),
            (1, 0),
            "{:?}",
            report.notes
        );
        assert!(p.session.is_none());
        assert_eq!(p.keys.iter().filter(|k| k.artifact.is_some()).count(), 1);
        let warmed = p.quality.code_bytes;
        assert!(warmed > 0);

        let mut served = Served {
            keys: &mut p.keys,
            quality: &mut p.quality,
        };
        let mut session = Session::open(&spec, &p.dir);
        pass(
            &spec,
            &ctx,
            &mut session,
            &mut served,
            &p.order,
            None,
            &mut report,
        );
        assert_eq!(
            (report.attempted, report.failed),
            (4, 0),
            "{:?}",
            report.notes
        );
        // Every key is counted once, the warmed-up one not again.
        assert!(served.keys.iter().all(|k| k.artifact.is_some()));
        let all = served.quality.code_bytes;
        assert!(all > warmed);
        // The same texts again are hits now: failures on a miss workload.
        pass(
            &spec,
            &ctx,
            &mut session,
            &mut served,
            &p.order,
            None,
            &mut report,
        );
        assert_eq!((report.attempted, report.failed), (7, 3));
        assert_eq!(served.quality.code_bytes, all);
        session.close();

        // A served graph that does not compute the reference fails it.
        let mut other = other_keys(&ctx);
        assert_ne!(other[0].unit.reference, other[1].unit.reference);
        other[0].unit.reference = other[1].unit.reference.clone();
        let mut unseen = Served {
            keys: &mut other,
            quality: &mut Quality::default(),
        };
        let mut session = Session::open(&spec, &p.dir);
        pass(
            &spec,
            &ctx,
            &mut session,
            &mut unseen,
            &[0, 1],
            None,
            &mut report,
        );
        session.close();
        assert_eq!((report.attempted, report.failed), (9, 4));
        assert!(
            report.notes[3].contains("outcomes differ"),
            "{:?}",
            report.notes
        );
        p.discard();
    }
}
