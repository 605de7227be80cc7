//! The nas-serve workload: two closed-loop keep-alive clients, like NAS
//! controllers that wait for each reply, against an in-process `Server`
//! with two workers over loopback.
//!
//! Each client runs epochs of [`EPOCH_SOLO`] requests drawn on its own
//! (a Zipf-ranked hot set, or now and then a fresh RandWire graph), then
//! meets the other client and both post the same fresh graph at once, so
//! single-flight coalesces them. About one request in ten carries a fresh
//! graph and about one in ten asks for `?verify=1`.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use serenity_allocator::Strategy;
use serenity_core::backend::AdaptiveBackend;
use serenity_core::capacity::CapacityTarget;
use serenity_core::pipeline::Serenity;
use serenity_core::{CancelToken, CompileCache};
use serenity_ir::fingerprint::fingerprint;
use serenity_ir::json::{from_json_checked, to_json, ImportLimits};
use serenity_ir::Graph;
use serenity_serve::http::Request;
use serenity_serve::{CompileService, Server, ServerConfig, ServiceConfig};

use crate::cold::{compile_layers, compile_times, LayerPass, COMPILE_TIME_METRICS};
use crate::graphs::{draw, fresh_graph, hot_set, zipf_cdf, Rng};
use crate::report::{repeat_setup, set_setup, Report, MIB};
use crate::speed::{Span, SpeedProbe};
use crate::stats::{geomean, median, percentile, samples_beyond};
use crate::trace::{ms, rerun, traced_compile};

/// Requests each client draws on its own per epoch, before the shared one.
const EPOCH_SOLO: usize = 15;
/// Chance that a solo request carries a fresh graph.
const FRESH_SOLO: f64 = 0.05;
/// Chance that a request asks for `?verify=1`.
const VERIFY: f64 = 0.10;
/// A run makes at least this many requests, so p99 rests on at least ten
/// samples beyond it.
const MIN_REQUESTS: u64 = 1000;
/// A run stops after this long even short of [`MIN_REQUESTS`].
const HARD_STOP: Duration = Duration::from_secs(120);
const SETUP_REPEATS: usize = 5;
/// In-process cold compiles of the hot set run for at least this many
/// passes and this long.
const HOT_COMPILE_PASSES: usize = 3;
const HOT_COMPILE_SECONDS: f64 = 5.0;
const CLIENTS: usize = 2;

/// A request of the plan: which graph, and whether it asks for a
/// certificate.
#[derive(Debug, Clone, Copy)]
struct Step {
    graph: usize,
    verify: bool,
}

/// The seeded request plan and every body it posts.
struct Plan {
    ids: Vec<String>,
    graphs: Vec<Graph>,
    bodies: Vec<Vec<u8>>,
    hot: usize,
    /// Per epoch: each client's solo steps, then the shared step.
    epochs: Vec<([Vec<Step>; CLIENTS], [Step; CLIENTS])>,
}

impl Plan {
    fn new(seed: u64, epochs: usize) -> Plan {
        let mut rng = Rng::new(seed);
        let (mut ids, mut graphs): (Vec<String>, Vec<Graph>) = hot_set().into_iter().unzip();
        let hot = graphs.len();
        let cdf = zipf_cdf(hot);
        // Fresh wiring seeds start far from the hot set's and never repeat.
        let mut next_wiring = 1_000 + (seed % 1_000_000) * 10_000;
        // A fresh graph is structurally new: small RandWire cells from two
        // wiring seeds can be isomorphic, and if both were in flight at
        // once the service would answer one under the other's name (see
        // `duplicate_probe`).
        let mut seen: HashSet<u64> = graphs.iter().map(fingerprint).collect();
        let mut fresh = |rng: &mut Rng, ids: &mut Vec<String>, graphs: &mut Vec<Graph>| loop {
            let (id, graph) = fresh_graph(rng, next_wiring);
            next_wiring += 1;
            if seen.insert(fingerprint(&graph)) {
                ids.push(id);
                graphs.push(graph);
                break graphs.len() - 1;
            }
        };
        let mut plan_epochs = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let solo: [Vec<Step>; CLIENTS] = std::array::from_fn(|_| {
                (0..EPOCH_SOLO)
                    .map(|_| {
                        let graph = if rng.unit() < FRESH_SOLO {
                            fresh(&mut rng, &mut ids, &mut graphs)
                        } else {
                            draw(&cdf, &mut rng)
                        };
                        Step { graph, verify: rng.unit() < VERIFY }
                    })
                    .collect()
            });
            let shared_graph = fresh(&mut rng, &mut ids, &mut graphs);
            let shared =
                std::array::from_fn(|_| Step { graph: shared_graph, verify: rng.unit() < VERIFY });
            plan_epochs.push((solo, shared));
        }
        let bodies = graphs.iter().map(|g| to_json(g).into_bytes()).collect();
        Plan { ids, graphs, bodies, hot, epochs: plan_epochs }
    }
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    head: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(150)))?;
        Ok(Conn { reader: BufReader::new(stream.try_clone()?), writer: stream, head: Vec::new() })
    }

    /// Sends one request and reads the whole response.
    fn request(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<(u16, String)> {
        self.head.clear();
        write!(
            self.head,
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.head.extend_from_slice(body);
        self.writer.write_all(&self.head)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::other("connection closed inside the response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(io::Error::other)?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8(body).map_err(io::Error::other)?))
    }
}

/// The `result` member of a compile response, verbatim: the service
/// splices it as pre-serialized text before `"meta"`.
fn result_of(body: &str) -> Option<&str> {
    let rest = body.strip_prefix("{\"result\":")?;
    Some(&rest[..rest.rfind(",\"meta\":")?])
}

fn status(addr: SocketAddr) -> Result<Value, String> {
    let (code, body) = Conn::connect(addr)
        .and_then(|mut c| c.request("GET", "/status", b""))
        .map_err(|e| e.to_string())?;
    if code != 200 {
        return Err(format!("GET /status answered {code}"));
    }
    serde_json::from_str(&body).map_err(|e| e.to_string())
}

fn counter(before: &Value, after: &Value, path: &[&str]) -> f64 {
    let at = |v: &Value| path.iter().try_fold(v, |v, key| v.get(key)).and_then(Value::as_f64);
    at(after).unwrap_or(0.0) - at(before).unwrap_or(0.0)
}

fn spawn(plan: &Plan) -> Result<(Server, Arc<CompileService>), String> {
    let service = Arc::new(CompileService::new(
        Arc::new(AdaptiveBackend::default()),
        Arc::new(CompileCache::new()),
        ServiceConfig::default(),
    ));
    let server = Server::spawn(
        ServerConfig { threads: CLIENTS, ..ServerConfig::default() },
        Arc::clone(&service),
    )
    .map_err(|e| format!("server spawn: {e}"))?;
    match warm_up(server.addr(), plan) {
        Ok(()) => Ok((server, service)),
        Err(e) => {
            stop(server);
            Err(e)
        }
    }
}

/// Compiles the hot set once, as a NAS controller's earlier generations
/// would have.
fn warm_up(addr: SocketAddr, plan: &Plan) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| e.to_string())?;
    for (id, body) in plan.ids.iter().zip(&plan.bodies).take(plan.hot) {
        match conn.request("POST", "/compile", body) {
            Ok((200, _)) => {}
            Ok((code, body)) => return Err(format!("warm-up {id}: {code} {body}")),
            Err(e) => return Err(format!("warm-up {id}: {e}")),
        }
    }
    Ok(())
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    latency_ms: Vec<f64>,
    /// The first `result` served per graph; later ones must match it.
    results: HashMap<usize, String>,
    failures: Vec<String>,
    /// Plan steps this client completed (solo and shared, in order).
    steps: Vec<Step>,
}

/// Drives both clients through the plan until `seconds` have passed and
/// at least `min_requests` were made. Returns the logs and the wall time.
fn drive(
    addr: SocketAddr,
    plan: &Plan,
    seconds: f64,
    min_requests: u64,
) -> (Vec<ClientLog>, f64, bool) {
    let barrier = Barrier::new(CLIENTS);
    let halt = AtomicBool::new(false);
    let made = AtomicU64::new(0);
    let exhausted = AtomicBool::new(false);
    let started = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (barrier, halt, made, exhausted) = (&barrier, &halt, &made, &exhausted);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut conn = match Conn::connect(addr) {
                        Ok(conn) => Some(conn),
                        Err(e) => {
                            log.failures.push(format!("client {client}: connect: {e}"));
                            None
                        }
                    };
                    let mut post = |log: &mut ClientLog, step: Step| {
                        let Some(c) = conn.as_mut() else { return };
                        let target = if step.verify { "/compile?verify=1" } else { "/compile" };
                        let t = Instant::now();
                        let response = c.request("POST", target, &plan.bodies[step.graph]);
                        log.latency_ms.push(ms(t.elapsed()));
                        log.steps.push(step);
                        made.fetch_add(1, Ordering::Relaxed);
                        let id = &plan.ids[step.graph];
                        match response {
                            Ok((200, body)) => {
                                if step.verify && !body.contains("\"verification\":") {
                                    log.failures
                                        .push(format!("{id}: ?verify=1 without a certificate"));
                                }
                                match result_of(&body) {
                                    Some(result) => match log.results.get(&step.graph) {
                                        Some(first) if first != result => log.failures.push(
                                            format!("{id}: served results differ between requests"),
                                        ),
                                        Some(_) => {}
                                        None => {
                                            log.results.insert(step.graph, result.to_string());
                                        }
                                    },
                                    None => log
                                        .failures
                                        .push(format!("{id}: response without a result")),
                                }
                            }
                            Ok((code, body)) => {
                                log.failures.push(format!("{id}: status {code}: {body}"))
                            }
                            Err(e) => {
                                log.failures.push(format!("{id}: {e}"));
                                conn = None;
                            }
                        }
                    };
                    for (epoch, (solo, shared)) in plan.epochs.iter().enumerate() {
                        for &step in &solo[client] {
                            post(&mut log, step);
                        }
                        // Meet, let one client decide whether to go on, then
                        // post the shared fresh graph together.
                        if barrier.wait().is_leader() {
                            let elapsed = started.elapsed();
                            let enough = elapsed.as_secs_f64() >= seconds
                                && made.load(Ordering::Relaxed) >= min_requests;
                            let last = epoch + 1 == plan.epochs.len();
                            exhausted.store(last && !enough, Ordering::Relaxed);
                            halt.store(enough || last || elapsed >= HARD_STOP, Ordering::Relaxed);
                        }
                        barrier.wait();
                        if halt.load(Ordering::Relaxed) {
                            break;
                        }
                        post(&mut log, shared[client]);
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    (logs, started.elapsed().as_secs_f64(), exhausted.load(Ordering::Relaxed))
}

/// Epochs to plan for a run of `seconds`: ten times what two clients post
/// today. A faster service may finish the plan early; the run then ends
/// there.
fn planned_epochs(seconds: f64) -> usize {
    ((seconds.max(1.0) * 400.0) / (CLIENTS * (EPOCH_SOLO + 1)) as f64).ceil() as usize + 32
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let http_seconds = if traced { seconds / 2.0 } else { seconds };

    let mut probe = SpeedProbe::default();
    let (prepared, setup_spans) = repeat_setup(
        SETUP_REPEATS,
        0.0,
        &mut probe,
        || {
            let plan = Plan::new(seed, planned_epochs(http_seconds));
            spawn(&plan).map(|(server, service)| (plan, server, service))
        },
        |previous| {
            if let Ok((_, server, _)) = previous {
                stop(server);
            }
        },
    );
    let (plan, server, service) = match prepared {
        Ok(prepared) => prepared,
        Err(e) => {
            report.attempted = 1;
            report.fail(format!("set-up: {e}"));
            return report;
        }
    };

    let addr = server.addr();
    let before = status(addr);
    // The traced run needs no tail percentile, so it spends half its time
    // on the client loop whatever the request count.
    let min_requests = if traced { 0 } else { MIN_REQUESTS };
    let (logs, wall_s, exhausted) = drive(addr, &plan, http_seconds, min_requests);
    let after = status(addr);
    duplicate_probe(&mut report, addr, &plan);
    stop(server);

    let latency: Vec<f64> = logs.iter().flat_map(|l| l.latency_ms.iter().copied()).collect();
    report.attempted = latency.len() as u64;
    for log in &logs {
        for failure in &log.failures {
            report.fail(failure.clone());
        }
    }
    report.note("plan_exhausted", json!(exhausted));
    if (latency.len() as u64) < min_requests {
        report.fail(format!("only {} requests, fewer than {min_requests}", latency.len()));
    }
    let p50 = percentile(&latency, 0.50).unwrap_or(0.0);
    report.set("req_p50_ms", p50);
    report.set("req_p99_ms", percentile(&latency, 0.99).unwrap_or(0.0));
    report.set("req_per_s", latency.len() as f64 / wall_s);

    check_served(&mut report, &plan, &logs);
    hot_compiles(&mut report, &plan, seed, &logs, &mut probe);
    // Set-up is left raw, like the request latencies: about half of it is
    // the hot-set warm-up's delayed-ACK waits, which host speed does not
    // move.
    set_setup(&mut report, None, &setup_spans);
    report.note_probe(&probe);

    let steps: Vec<Step> = logs.iter().flat_map(|l| l.steps.iter().copied()).collect();
    let fresh = steps.iter().filter(|s| s.graph >= plan.hot).count();
    let quantiles: Vec<f64> =
        [0.1, 0.25, 0.5, 0.75, 0.9, 0.99].iter().filter_map(|&q| percentile(&latency, q)).collect();
    report.note("latency_ms_q10_q25_q50_q75_q90_q99", json!(quantiles));
    report.note(
        "samples",
        json!({
            "req_p50_ms": latency.len(),
            "req_p99_ms": latency.len(),
            "req_p99_samples_beyond": samples_beyond(latency.len(), 0.99),
        }),
    );
    report.note(
        "mix",
        json!({
            "requests": steps.len(),
            "fresh_frac": fresh as f64 / steps.len().max(1) as f64,
            "verify_frac": steps.iter().filter(|s| s.verify).count() as f64 / steps.len().max(1) as f64,
            "distinct_graphs": steps.iter().map(|s| s.graph).collect::<std::collections::BTreeSet<_>>().len(),
            "wall_s": wall_s,
        }),
    );
    match (&before, &after) {
        (Ok(before), Ok(after)) => {
            let coalesced = counter(before, after, &["singleflight", "coalesced"]);
            let leads = counter(before, after, &["singleflight", "leads"]);
            report.note(
                "status_delta",
                json!({
                    "cache_hits": counter(before, after, &["cache", "hits"]),
                    "cache_misses": counter(before, after, &["cache", "misses"]),
                    "flight_leads": leads,
                    "flight_coalesced": coalesced,
                    "degraded": counter(before, after, &["robustness", "degraded_responses"]),
                    "shed": counter(before, after, &["robustness", "shed"]),
                }),
            );
            if traced {
                let hits = counter(before, after, &["cache", "hits"]);
                let lookups = hits + counter(before, after, &["cache", "misses"]);
                report.set("cache.hit_frac", if lookups > 0.0 { hits / lookups } else { 0.0 });
                let now = |path: &[&str]| counter(&Value::Null, after, path);
                report.set("cache.entries", now(&["cache", "entries"]));
                report.set("cache.entry_bytes", now(&["cache", "entry_bytes"]));
                report.set("cache.evictions", counter(before, after, &["cache", "evictions"]));
                let flights = leads + coalesced;
                report.set(
                    "singleflight.coalesced_frac",
                    if flights > 0.0 { coalesced / flights } else { 0.0 },
                );
                report.set(
                    "serve.degraded",
                    counter(before, after, &["robustness", "degraded_responses"]),
                );
                report.set("serve.shed", counter(before, after, &["robustness", "shed"]));
            }
        }
        (Err(e), _) | (_, Err(e)) => report.fail(format!("status: {e}")),
    }

    if traced {
        let budget = Duration::from_secs_f64(seconds / 4.0);
        replay_in_process(&mut report, &plan, &service, &logs, budget, p50);
        trace_compiles(&mut report, &plan, &steps, budget);
    }
    report
}

/// After the measured loop, both clients post one new graph at once, each
/// under its own name, and the served names are recorded. The service
/// keys single-flight on the structural fingerprint and hands a coalesced
/// waiter the leader's `result` verbatim, name included, so the waiter is
/// answered under the other request's name. Small RandWire cells from two
/// wiring seeds can be isomorphic, so the workload keeps its fresh graphs
/// structurally new (the check below counts such a reply as a failure);
/// this probe keeps the behaviour on record in every run instead.
fn duplicate_probe(report: &mut Report, addr: SocketAddr, plan: &Plan) {
    // The DARTS normal cell compiles cold in about a quarter of a second,
    // long enough that the second request arrives while the first is in
    // flight.
    let Some(mut graph) =
        serenity_nets::suite().into_iter().find(|b| b.id == "darts-normal").map(|b| b.graph)
    else {
        report.note("duplicate_probe", json!({ "skipped": "no darts-normal cell" }));
        return;
    };
    let known: HashSet<u64> = plan.graphs.iter().map(fingerprint).collect();
    if known.contains(&fingerprint(&graph)) {
        report.note("duplicate_probe", json!({ "skipped": "probe graph is in the plan" }));
        return;
    }
    let bodies: Vec<(String, Vec<u8>)> = (0..CLIENTS)
        .map(|client| {
            let name = format!("duplicate-probe-client-{client}");
            graph.set_name(name.clone());
            (name, to_json(&graph).into_bytes())
        })
        .collect();
    let barrier = Barrier::new(CLIENTS);
    let replies: Vec<Value> = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .iter()
            .map(|(name, body)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let reply = Conn::connect(addr).and_then(|mut conn| {
                        barrier.wait();
                        conn.request("POST", "/compile", body)
                    });
                    let served = reply.map_err(|e| e.to_string()).and_then(|(code, body)| {
                        let parsed: Value =
                            serde_json::from_str(&body).map_err(|e| e.to_string())?;
                        let name = parsed.get("result").and_then(|r| r.get("graph"));
                        let coalesced = parsed.get("meta").and_then(|m| m.get("coalesced"));
                        Ok((code, name.cloned(), coalesced.cloned()))
                    });
                    match served {
                        Ok((code, served, coalesced)) => json!({
                            "posted_name": name,
                            "status": code,
                            "served_name": served,
                            "coalesced": coalesced,
                        }),
                        Err(e) => json!({ "posted_name": name, "error": e }),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("probe client panicked")).collect()
    });
    let names_kept = replies.iter().all(|r| r.get("served_name") == r.get("posted_name"));
    report.note(
        "duplicate_probe",
        json!({ "replies": Value::Seq(replies), "names_kept": names_kept }),
    );
}

/// Every served `result` must equal, byte for byte, what an in-process
/// cold compile of the same graph serializes to, and its peak must not
/// exceed the graph's Kahn-order peak.
fn check_served(report: &mut Report, plan: &Plan, logs: &[ClientLog]) {
    let mut graphs: Vec<usize> = logs.iter().flat_map(|l| l.results.keys().copied()).collect();
    graphs.sort_unstable();
    graphs.dedup();
    for graph in graphs {
        let id = &plan.ids[graph];
        let service = CompileService::new(
            Arc::new(AdaptiveBackend::default()),
            Arc::new(CompileCache::new()),
            ServiceConfig::default(),
        );
        let reference = match service.compile_result_json(&plan.graphs[graph]) {
            Ok(reference) => reference,
            Err(e) => {
                report.fail(format!("{id}: reference compile: {e}"));
                continue;
            }
        };
        for (client, log) in logs.iter().enumerate() {
            if log.results.get(&graph).is_some_and(|served| *served != reference) {
                report.fail(format!(
                    "{id}: client {client} was served a result that differs from a cold compile"
                ));
            }
        }
        let peak = serde_json::from_str::<Value>(&reference)
            .ok()
            .and_then(|v| v.get("peak_bytes").and_then(Value::as_u64));
        let kahn = serenity_core::baseline::kahn(&plan.graphs[graph]).map(|s| s.peak_bytes);
        match (peak, kahn) {
            (Some(peak), Ok(kahn)) if peak <= kahn => {}
            (peak, kahn) => {
                report.fail(format!("{id}: peak {peak:?} not within the Kahn peak {kahn:?}"))
            }
        }
    }
}

/// In-process cold compiles of the hot set (no cache), in seeded order:
/// the nas-serve values of the compile-time and schedule-quality metrics.
fn hot_compiles(
    report: &mut Report,
    plan: &Plan,
    seed: u64,
    logs: &[ClientLog],
    probe: &mut SpeedProbe,
) {
    let mut rng = Rng::new(seed ^ 0x4807);
    let mut per_graph: Vec<Vec<Span>> = vec![Vec::new(); plan.hot];
    let mut passes: Vec<Vec<Span>> = Vec::new();
    let mut kept = vec![None; plan.hot];
    let started = Instant::now();
    while passes.len() < HOT_COMPILE_PASSES || started.elapsed().as_secs_f64() < HOT_COMPILE_SECONDS
    {
        let mut order: Vec<usize> = (0..plan.hot).collect();
        rng.shuffle(&mut order);
        let mut spans = Vec::with_capacity(order.len());
        for i in order {
            let (compiled, span) =
                Span::time(|| Serenity::builder().build().compile(&plan.graphs[i]));
            match compiled {
                Ok(compiled) => {
                    spans.push(span);
                    per_graph[i].push(span);
                    if let Err(e) = serenity_core::verify::verify(&plan.graphs[i], &compiled) {
                        report.fail(format!("{}: verify: {e}", plan.ids[i]));
                    }
                    kept[i] = Some(compiled);
                }
                Err(e) => report.fail(format!("{}: compile: {e}", plan.ids[i])),
            }
            probe.tick();
        }
        passes.push(spans);
    }
    let memo = kept.iter().flatten().map(|c| c.stats.peak_memo_bytes).max();
    report.set("search_memo_mib", memo.unwrap_or(0) as f64 / MIB);
    let mut peak_ratio = Vec::new();
    let mut arena_ratio = Vec::new();
    let mut traffic = 0u64;
    let mut rows = Vec::new();
    for (i, compiled) in kept.iter().enumerate() {
        let Some(compiled) = compiled else { continue };
        let graph = &plan.graphs[i];
        let kahn = serenity_core::baseline::kahn(graph).expect("hot graphs are acyclic");
        let kahn_arena = serenity_allocator::plan(graph, &kahn.order, Strategy::GreedyBySize)
            .map_or(0, |p| p.arena_bytes);
        if compiled.peak_bytes > kahn.peak_bytes {
            report.fail(format!("{}: peak above the Kahn peak", plan.ids[i]));
        }
        peak_ratio.push(kahn.peak_bytes as f64 / compiled.peak_bytes as f64);
        if let Some(arena) = compiled.arena_bytes() {
            arena_ratio.push(kahn_arena as f64 / arena as f64);
        }
        let capacity = compiled.peak_bytes * 3 / 4 + 1;
        let spill = serenity_core::capacity::assess(
            &compiled.graph,
            &compiled.schedule.order,
            CapacityTarget::fit(capacity),
        )
        .ok()
        .and_then(|r| r.traffic)
        .map(|t| t.total_traffic());
        traffic += spill.unwrap_or(0);
        let compile_ms: Vec<f64> = per_graph[i].iter().map(Span::ms).collect();
        let served_ms: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.steps.iter().zip(&l.latency_ms))
            .filter(|(step, _)| step.graph == i)
            .map(|(_, &ms)| ms)
            .collect();
        rows.push(json!({
            "id": plan.ids[i],
            "nodes": graph.len(),
            "kahn_peak_bytes": kahn.peak_bytes,
            "peak_bytes": compiled.peak_bytes,
            "kahn_arena_bytes": kahn_arena,
            "arena_bytes": compiled.arena_bytes(),
            "traffic_bytes": spill,
            "compile_ms_median": median(&compile_ms),
            "compile_samples": compile_ms.len(),
            "served_ms_median": median(&served_ms),
            "served_requests": served_ms.len(),
            "counters": json!({
                "transitions": compiled.stats.transitions,
                "states": compiled.stats.states,
                "probes": compiled.stats.probes,
                "bound_pruned": compiled.stats.bound_pruned,
                "memo_hits": compiled.stats.memo_hits,
                "candidates_scored": compiled.rewrite_search.as_ref().map(|s| s.candidates_scored),
            }),
        }));
    }
    let times = |f: &dyn Fn(&Span) -> f64| {
        compile_times(
            &passes.iter().map(|p| p.iter().map(f).collect()).collect::<Vec<_>>(),
            &per_graph.iter().map(|g| g.iter().map(f).collect()).collect::<Vec<_>>(),
        )
    };
    let (raw, scaled) = (times(&Span::ms), times(&|&s| probe.scaled_ms(s)));
    // Only the compile-time metrics: requests here are the HTTP ones.
    for ((name, raw), scaled) in COMPILE_TIME_METRICS[..2].iter().zip(raw).zip(scaled) {
        report.set_scaled(name, raw, scaled);
    }
    report.note("hot_compile_passes", json!(passes.len()));
    report.set("peak_reduction_geomean", geomean(&peak_ratio).unwrap_or(0.0));
    report.set("arena_reduction_geomean", geomean(&arena_ratio).unwrap_or(0.0));
    report.set("traffic_kib_total", traffic as f64 / 1024.0);
    report.rows = rows;
}

/// Replays served requests in process on the now-warm service, timing the
/// import, the fingerprint and `CompileService::handle` separately.
fn replay_in_process(
    report: &mut Report,
    plan: &Plan,
    service: &CompileService,
    logs: &[ClientLog],
    budget: Duration,
    client_p50_ms: f64,
) {
    let limits = ImportLimits::default();
    let cancel = CancelToken::new();
    let (mut parse_ms, mut fingerprint_us, mut handle_ms) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    for step in logs.iter().flat_map(|l| l.steps.iter()) {
        if started.elapsed() >= budget && !handle_ms.is_empty() {
            break;
        }
        let body = &plan.bodies[step.graph];
        let text = std::str::from_utf8(body).expect("bodies are JSON text");
        let t = Instant::now();
        let graph = from_json_checked(text, &limits);
        parse_ms.push(ms(t.elapsed()));
        if let Ok(graph) = graph {
            let t = Instant::now();
            std::hint::black_box(serenity_ir::fingerprint::fingerprint(&graph));
            fingerprint_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let request = Request {
            method: "POST".into(),
            path: "/compile".into(),
            query: if step.verify { "verify=1".into() } else { String::new() },
            headers: Vec::new(),
            body: body.clone(),
        };
        let t = Instant::now();
        let response = service.handle(&request, &cancel);
        handle_ms.push(ms(t.elapsed()));
        if response.map(|r| r.status) != Some(200) {
            report.fail(format!("{}: in-process replay failed", plan.ids[step.graph]));
        }
    }
    let handle = median(&handle_ms).unwrap_or(0.0);
    report.set("ir.json_parse_ms", median(&parse_ms).unwrap_or(0.0));
    report.set("ir.fingerprint_us", median(&fingerprint_us).unwrap_or(0.0));
    report.set("serve.handle_ms", handle);
    report.set("serve.http_overhead_ms", client_p50_ms - handle);
    report.note("replayed_requests", json!(handle_ms.len()));
}

/// The compile-layer trace of nas-serve: traced cold compiles and phase
/// re-runs of the hot set, then of the fresh graphs in the order they were
/// served, while the time budget lasts.
fn trace_compiles(report: &mut Report, plan: &Plan, steps: &[Step], budget: Duration) {
    let mut graphs: Vec<usize> = (0..plan.hot).collect();
    for step in steps {
        if step.graph >= plan.hot && !graphs.contains(&step.graph) {
            graphs.push(step.graph);
        }
    }
    let mut pass = LayerPass::default();
    let started = Instant::now();
    for (n, &i) in graphs.iter().enumerate() {
        if n >= plan.hot && started.elapsed() >= budget {
            break;
        }
        let graph = &plan.graphs[i];
        match Span::time(|| traced_compile(Serenity::builder(), graph)) {
            (Ok((compiled, probes)), span) => {
                pass.compile_s += span.ms() / 1e3;
                match rerun(graph, None, &compiled) {
                    Ok(phases) => pass.phases.push(phases),
                    Err(e) => report.fail(format!("{}: phase re-run: {e}", plan.ids[i])),
                }
                pass.probes.push(probes);
                pass.peaks.push(compiled.peak_bytes);
                pass.memo_hits += compiled.stats.memo_hits;
                if let Some(arena) = compiled.arena_bytes() {
                    pass.arena_over_peak.push(arena as f64 / compiled.peak_bytes as f64);
                }
            }
            (Err(e), _) => report.fail(format!("{}: traced compile: {e}", plan.ids[i])),
        }
    }
    report.note("traced_compiles", json!(pass.peaks.len()));
    compile_layers(report, &[pass]);
}
