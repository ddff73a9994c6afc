//! `spanner-serve` — the spanner-serving daemon (TCP wire protocol,
//! plus an optional HTTP/JSON facade over the same service).
//!
//! ```text
//! spanner-serve [--addr HOST:PORT] [--http-port PORT] [--workers N]
//!               [--queue N] [--cache N] [--shards N] [--cache-dir DIR]
//!               [--log-level LEVEL] [--trace-dir DIR]
//!               [--drain-timeout SECS] [--fault-plan PLAN]
//!               [--self-check [--http | --chaos | --graphs]]
//! ```
//!
//! `--log-level LEVEL` (error/warn/info/debug/trace, default `info`)
//! sets the threshold for the structured stderr log lines emitted via
//! [`dsa_runtime::obs`]. `--trace-dir DIR` exports the service's
//! bounded flight recorder — one JSONL line per job-lifecycle event,
//! tagged with a per-job trace id — to `DIR/trace-<pid>.jsonl`: a
//! background thread flushes every 2 s in serve mode, and the
//! self-check flavors export once on success.
//!
//! `--http-port PORT` additionally serves the HTTP/JSON facade
//! (`POST /v1/jobs`, `GET /v1/metrics`, `GET /healthz`) on the same
//! host as `--addr`, concurrently with the TCP listener and over the
//! *same* service — one cache, one worker pool, one coalescing map,
//! whichever surface a job arrives on. Port 0 asks for an ephemeral
//! port (the bound address is printed).
//!
//! `--shards N` makes every engine run execute with `N` in-iteration
//! shards (`0` = one per core), overriding per-request `shards`
//! headers. Responses are unaffected — the engine is
//! shard-count-deterministic — so this is purely a resource knob.
//!
//! `--cache-dir DIR` persists every completed result to an
//! append-only, checksummed record log in `DIR` and consults it on
//! cache misses, so a restarted server answers previously computed
//! instances byte-identically without re-running the engine (the log's
//! most recent records also warm the in-memory LRU at startup; a
//! corrupt or truncated log tail is dropped and counted, never fatal).
//!
//! Without `--self-check` the process binds the address (default
//! `127.0.0.1:7071`, port 0 for ephemeral), prints one
//! `listening <addr>` line (plus `http listening <addr>` with
//! `--http-port`), and serves until it receives SIGTERM or SIGINT —
//! then it **drains gracefully**: stops accepting, lets in-flight
//! requests finish (bounded by `--drain-timeout SECS`, default 10),
//! flushes the trace file, and exits 0. A drain that does not finish
//! inside the bound exits 1 so supervisors can tell abandonment from
//! a clean stop.
//!
//! `--fault-plan PLAN` arms the deterministic fault injector
//! ([`dsa_runtime::fault`]) with a seeded plan such as
//! `seed=42;store.append.err=0.5;engine.latency_ms=5@0.25;conn.drop=0.1`.
//! Injection can delay or abort engine runs, fail store I/O (demoting
//! the service to memory-only caching, `store_degraded` in metrics),
//! and drop connections mid-response — it can never change response
//! bytes.
//!
//! With `--self-check` it
//! binds ephemeral ports, drives all four variants plus a duplicate
//! through a loopback client, asserts the cache and the protocol
//! behave, prints `self-check ok`, and exits — the one-shot mode CI
//! uses. `--self-check --http` runs the HTTP flavor: all four
//! variants via `POST /v1/jobs`, cache byte-identity over response
//! bodies, a TCP+HTTP shared-cache check, and the
//! `jobs = hits + misses + coalesced` invariant read from
//! `/v1/metrics`. `--self-check --cache-dir DIR` runs the
//! *warm-restart* flavor instead: serve all four variants over TCP and
//! HTTP into a store at `DIR`, shut the service down, reopen the same
//! directory, and assert that every re-submission returns
//! byte-identical bodies on both surfaces with `disk_hits > 0` and the
//! metrics invariant intact. `--self-check --chaos` runs the *chaos*
//! flavor: compute fault-free reference responses, then hammer a
//! deliberately tiny service (one worker, depth-1 queue) through
//! retrying TCP and HTTP clients while a seeded fault plan injects
//! store failures, engine aborts and latency, and mid-response
//! connection drops — and assert that every delivered response is
//! byte-identical to the reference, that at least one job was shed and
//! retried to completion, that the store degraded without failing a
//! job, and that `jobs = hits + misses + coalesced + shed` holds.
//! `--self-check --graphs` runs the *named-graphs* flavor: negotiate
//! protocol v2 (`hello`), drive the full graph lifecycle
//! (create / patch / get / spanner / delete) on all four variants
//! across both surfaces, stream 1000 single-op insert patches at a
//! star graph (most of them covered by the maintained working cover)
//! and assert that `commuted > 0`, that incremental maintenance beat
//! the extrapolated cost of recomputing from scratch after every
//! delta, that every maintained spanner is byte-equal to a
//! from-scratch solve of its final edge set, and — after a restart on
//! the same `--cache-dir` — that both surfaces re-serve every spanner
//! byte-identically without an engine re-run. It prints one
//! `{"graphs_self_check":...}` JSON line with the delta-class counts
//! and timings (CI uploads it as an artifact).

#![deny(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsa_core::dist::{VariantInstance, VariantKind};
use dsa_graphs::{gen, DiGraph, EdgeSet, EdgeWeights, Graph};
use dsa_runtime::json::Json;
use dsa_runtime::obs;
use dsa_runtime::{FaultInjector, FaultPlan};
use dsa_service::{
    Client, DeltaOp, EdgeRole, GraphSpec, HttpClient, HttpServer, JobSpec, RetryPolicy, Server,
    Service, ServiceConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    addr: String,
    http_port: Option<u16>,
    cfg: ServiceConfig,
    self_check: bool,
    http: bool,
    chaos: bool,
    graphs: bool,
    drain_timeout: Duration,
    trace_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: spanner-serve [--addr HOST:PORT] [--http-port PORT] [--workers N] [--queue N] [--cache N] [--shards N] [--cache-dir DIR] [--log-level LEVEL] [--trace-dir DIR] [--drain-timeout SECS] [--fault-plan PLAN] [--self-check [--http | --chaos | --graphs]]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Explicit `--help` is a successful invocation, unlike bad usage.
fn help() -> ! {
    println!("{USAGE}");
    std::process::exit(0);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7071".to_string(),
        http_port: None,
        cfg: ServiceConfig {
            workers: 8,
            ..ServiceConfig::default()
        },
        self_check: false,
        http: false,
        chaos: false,
        graphs: false,
        drain_timeout: Duration::from_secs(10),
        trace_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                obs::error("spanner-serve", "missing flag value", &[("flag", &name)]);
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--http-port" => {
                // Parse as u16 directly: `as u16` on a wider parse
                // would silently wrap 65536 to an ephemeral bind.
                args.http_port = Some(value("--http-port").parse().unwrap_or_else(|_| {
                    obs::error(
                        "spanner-serve",
                        "invalid value for --http-port (expected 0..=65535)",
                        &[],
                    );
                    usage()
                }))
            }
            "--workers" => args.cfg.workers = parse_num(&value("--workers"), "--workers"),
            "--queue" => args.cfg.queue_capacity = parse_num(&value("--queue"), "--queue"),
            "--cache" => args.cfg.cache_capacity = parse_num(&value("--cache"), "--cache"),
            "--shards" => args.cfg.engine_shards = Some(parse_num(&value("--shards"), "--shards")),
            "--cache-dir" => args.cfg.cache_dir = Some(value("--cache-dir").into()),
            "--log-level" => {
                let raw = value("--log-level");
                match raw.parse() {
                    Ok(level) => obs::set_log_level(level),
                    Err(_) => {
                        obs::error(
                            "spanner-serve",
                            "invalid value for --log-level (expected error/warn/info/debug/trace)",
                            &[("value", &raw)],
                        );
                        usage()
                    }
                }
            }
            "--trace-dir" => args.trace_dir = Some(value("--trace-dir").into()),
            "--drain-timeout" => {
                args.drain_timeout = Duration::from_secs(parse_num(
                    &value("--drain-timeout"),
                    "--drain-timeout",
                ) as u64)
            }
            "--fault-plan" => {
                let raw = value("--fault-plan");
                match FaultPlan::parse(&raw) {
                    Ok(plan) => args.cfg.fault = Some(Arc::new(FaultInjector::new(plan))),
                    Err(e) => {
                        obs::error(
                            "spanner-serve",
                            "invalid --fault-plan",
                            &[("value", &raw), ("error", &e)],
                        );
                        usage()
                    }
                }
            }
            "--self-check" => args.self_check = true,
            "--http" => args.http = true,
            "--chaos" => args.chaos = true,
            "--graphs" => args.graphs = true,
            "--help" | "-h" => help(),
            other => {
                obs::error("spanner-serve", "unknown flag", &[("flag", &other)]);
                usage()
            }
        }
    }
    if args.http && !args.self_check {
        obs::error(
            "spanner-serve",
            "--http selects the HTTP self-check; it requires --self-check (use --http-port to serve HTTP)",
            &[],
        );
        usage()
    }
    if args.chaos && !args.self_check {
        obs::error(
            "spanner-serve",
            "--chaos selects the chaos self-check; it requires --self-check (use --fault-plan to serve with injection)",
            &[],
        );
        usage()
    }
    if args.graphs && !args.self_check {
        obs::error(
            "spanner-serve",
            "--graphs selects the named-graphs self-check; it requires --self-check",
            &[],
        );
        usage()
    }
    if args.graphs && (args.http || args.chaos) {
        obs::error(
            "spanner-serve",
            "--graphs is its own self-check flavor; combine it only with --cache-dir/--trace-dir",
            &[],
        );
        usage()
    }
    args
}

fn parse_num(value: &str, flag: &str) -> usize {
    value.parse().unwrap_or_else(|_| {
        obs::error(
            "spanner-serve",
            "invalid flag value",
            &[("flag", &flag), ("value", &value)],
        );
        usage()
    })
}

/// The HTTP listener binds the same host as `--addr`.
fn http_addr_of(tcp_addr: &str, port: u16) -> String {
    let host = tcp_addr.rsplit_once(':').map_or("127.0.0.1", |(h, _)| h);
    format!("{host}:{port}")
}

/// Set by the SIGTERM/SIGINT handler; the serve loop polls it and
/// starts the graceful drain when it flips.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the graceful-shutdown handler for SIGTERM and SIGINT.
/// Declared by hand (the build is offline, no libc crate): `signal`
/// is in every libc this binary links against.
#[cfg(unix)]
#[allow(unsafe_code)] // hand-declared libc `signal` FFI; the only unsafe in the workspace
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_shutdown_signal);
        signal(SIGINT, on_shutdown_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() -> ExitCode {
    let args = parse_args();
    if args.self_check {
        return self_check(
            &args.cfg,
            args.http,
            args.chaos,
            args.graphs,
            args.trace_dir.as_deref(),
        );
    }
    // Handlers go in before `listening` is announced: a supervisor
    // may SIGTERM the instant it sees the line, and that must already
    // be a drain, not a default-action kill.
    install_signal_handlers();
    // Open the service first (so a bad --cache-dir reports as a store
    // problem, not a bind problem), then attach the frontends to it.
    let service = match Service::open(&args.cfg) {
        Ok(service) => Arc::new(service),
        Err(e) => {
            obs::error(
                "spanner-serve",
                "cannot open result store",
                &[("error", &e)],
            );
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::with_service(args.addr.as_str(), service) {
        Ok(server) => server,
        Err(e) => {
            obs::error(
                "spanner-serve",
                "cannot bind",
                &[("addr", &args.addr), ("error", &e)],
            );
            return ExitCode::FAILURE;
        }
    };
    println!("listening {}", server.addr());
    // With --http-port, both frontends serve the same `Service`
    // concurrently, and both are shut down by the drain path.
    let http_frontend = match args.http_port {
        None => None,
        Some(port) => {
            let addr = http_addr_of(&args.addr, port);
            match HttpServer::with_service(addr.as_str(), server.service().clone()) {
                Ok(http) => {
                    println!("http listening {}", http.addr());
                    Some(http)
                }
                Err(e) => {
                    obs::error(
                        "spanner-serve",
                        "cannot bind http",
                        &[("addr", &addr), ("error", &e)],
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    // With --trace-dir, a background thread drains the flight recorder
    // to JSONL every 2 s; events between flushes stay in the bounded
    // ring (oldest evicted first under pressure). The drain path does
    // one final flush to the same file.
    let mut trace_path: Option<PathBuf> = None;
    if let Some(dir) = &args.trace_dir {
        match trace_file_in(dir) {
            Err(e) => {
                obs::error("spanner-serve", "cannot open trace dir", &[("error", &e)]);
                return ExitCode::FAILURE;
            }
            Ok(path) => {
                println!("tracing to {}", path.display());
                trace_path = Some(path.clone());
                let service = server.service().clone();
                let spawned = std::thread::Builder::new()
                    .name("spanner-trace-flush".into())
                    .spawn(move || loop {
                        std::thread::sleep(std::time::Duration::from_secs(2));
                        if let Err(e) = append_trace(&service, &path) {
                            obs::warn("spanner-serve", "trace flush failed", &[("error", &e)]);
                        }
                    });
                if let Err(e) = spawned {
                    obs::error(
                        "spanner-serve",
                        "cannot start trace flusher",
                        &[("error", &e)],
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    // Serve until SIGTERM/SIGINT, then drain: stop accepting (the
    // listener shutdown joins connection threads, so every response
    // already on a socket finishes), wait for queued and in-flight
    // runs, flush the trace, exit 0. The store needs no explicit
    // flush — every append is flushed before its job completes.
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    let service = server.service().clone();
    obs::info(
        "spanner-serve",
        "shutdown requested; draining",
        &[("drain_timeout_s", &args.drain_timeout.as_secs())],
    );
    if let Some(http) = http_frontend {
        http.shutdown();
    }
    server.shutdown();
    let drained = service.drain(args.drain_timeout);
    if let Some(path) = &trace_path {
        if let Err(e) = append_trace(&service, path) {
            obs::warn(
                "spanner-serve",
                "final trace flush failed",
                &[("error", &e)],
            );
        }
    }
    if !drained {
        obs::error(
            "spanner-serve",
            "drain timed out with work still in flight",
            &[("drain_timeout_s", &args.drain_timeout.as_secs())],
        );
        return ExitCode::FAILURE;
    }
    println!("drained");
    ExitCode::SUCCESS
}

/// The per-process trace file inside `dir` (created if missing).
fn trace_file_in(dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir.join(format!("trace-{}.jsonl", std::process::id())))
}

/// Drains the service's flight recorder and appends it to `path`.
fn append_trace(service: &Service, path: &Path) -> Result<(), String> {
    use std::io::Write;
    let lines = service.flight_recorder().drain_jsonl();
    if lines.is_empty() {
        return Ok(());
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    file.write_all(lines.as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn self_check(
    cfg: &ServiceConfig,
    http: bool,
    chaos: bool,
    graphs: bool,
    trace_dir: Option<&Path>,
) -> ExitCode {
    let result = if graphs {
        self_check_graphs(cfg, trace_dir)
    } else if chaos {
        self_check_chaos(cfg, trace_dir)
    } else if cfg.cache_dir.is_some() {
        self_check_persistent(cfg, trace_dir)
    } else if http {
        self_check_http(cfg, trace_dir)
    } else {
        self_check_tcp(cfg, trace_dir)
    };
    match result {
        Ok(()) => {
            println!("self-check ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            obs::error("spanner-serve", "self-check FAILED", &[("error", &e)]);
            ExitCode::FAILURE
        }
    }
}

/// One-shot flight-recorder export for the self-check flavors.
fn export_trace(service: &Service, trace_dir: Option<&Path>) -> Result<(), String> {
    let Some(dir) = trace_dir else {
        return Ok(());
    };
    let path = trace_file_in(dir)?;
    append_trace(service, &path)
}

/// Checks the counter invariant inside a Prometheus text exposition:
/// `spanner_jobs_total` must equal the sum of the
/// `spanner_jobs_by_class_total` series, and the body must carry the
/// format's structural markers.
fn check_prometheus(text: &str) -> Result<(), String> {
    if !text.starts_with("# HELP ") {
        return Err(format!(
            "prometheus exposition does not start with # HELP: {:?}",
            text.lines().next().unwrap_or("")
        ));
    }
    let sample_value = |line: &str| -> Result<u64, String> {
        line.rsplit(' ')
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("unparseable sample line: {line}"))
    };
    let mut jobs: Option<u64> = None;
    let mut class_sum: u64 = 0;
    let mut class_series = 0;
    for line in text.lines() {
        if line.starts_with("spanner_jobs_total ") {
            jobs = Some(sample_value(line)?);
        } else if line.starts_with("spanner_jobs_by_class_total{") {
            class_sum += sample_value(line)?;
            class_series += 1;
        }
    }
    let jobs = jobs.ok_or("exposition is missing spanner_jobs_total")?;
    if class_series != 4 {
        return Err(format!(
            "expected 4 spanner_jobs_by_class_total series (hit/miss/coalesced/shed), found {class_series}"
        ));
    }
    if jobs != class_sum {
        return Err(format!(
            "prometheus invariant violated: spanner_jobs_total {jobs} != class sum {class_sum}"
        ));
    }
    Ok(())
}

/// One instance per variant, from seeded generators (shared by both
/// self-check flavors so TCP and HTTP exercise identical jobs).
fn self_check_specs() -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(2018);
    let g = gen::gnp_connected(24, 0.3, &mut rng);
    let d = gen::random_digraph_connected(18, 0.12, &mut rng);
    let w = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
    let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
    vec![
        JobSpec::new(VariantInstance::Undirected { graph: g.clone() }, 1),
        JobSpec::new(VariantInstance::Directed { graph: d }, 2),
        JobSpec::new(
            VariantInstance::Weighted {
                graph: g.clone(),
                weights: w,
            },
            3,
        ),
        JobSpec::new(
            VariantInstance::ClientServer {
                graph: g,
                clients,
                servers,
            },
            4,
        ),
    ]
}

fn self_check_tcp(cfg: &ServiceConfig, trace_dir: Option<&Path>) -> Result<(), String> {
    let server =
        Server::start("127.0.0.1:0", cfg).map_err(|e| format!("bind ephemeral port: {e}"))?;
    let addr = server.addr();
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;

    let specs = self_check_specs();
    // The *first* submission of specs[0] is the cold computation;
    // capture its raw bytes so the later cache hit is compared against
    // a genuinely uncached response.
    let cold = client
        .run_raw(&specs[0])
        .map_err(|e| format!("cold run: {e}"))?;
    for spec in &specs {
        let resp = client
            .run(spec)
            .map_err(|e| format!("{} run: {e}", spec.instance.kind()))?;
        if !resp.converged {
            return Err(format!("{} run did not converge", spec.instance.kind()));
        }
    }
    let warm = client
        .run_raw(&specs[0])
        .map_err(|e| format!("warm run: {e}"))?;
    if cold != warm {
        return Err("cache hit was not byte-identical to cold response".into());
    }
    let stats = client.stats_json().map_err(|e| format!("stats: {e}"))?;
    let m = server.service().metrics();
    if m.cache_misses != specs.len() as u64 {
        return Err(format!(
            "expected {} engine runs, metrics: {stats}",
            specs.len()
        ));
    }
    if m.cache_hits < 2 {
        return Err(format!("expected >= 2 cache hits, metrics: {stats}"));
    }
    if m.jobs_submitted != m.cache_hits + m.cache_misses + m.coalesced {
        return Err(format!("counters do not add up: {stats}"));
    }
    // An invalid request must produce a wire error, not a dead server.
    let mut invalid = JobSpec::new(
        VariantInstance::ClientServer {
            graph: Graph::from_edges(3, [(0, 1), (1, 2)]),
            clients: EdgeSet::full(2),
            servers: EdgeSet::full(2),
        },
        0,
    );
    invalid.config.accept_denominator = 0;
    match client.run(&invalid) {
        Err(dsa_service::JobError::Remote(_)) => {}
        other => return Err(format!("invalid job: expected remote error, got {other:?}")),
    }
    client
        .ping()
        .map_err(|e| format!("ping after error: {e}"))?;
    export_trace(server.service(), trace_dir)?;
    server.shutdown();
    Ok(())
}

fn self_check_http(cfg: &ServiceConfig, trace_dir: Option<&Path>) -> Result<(), String> {
    // Both frontends over ONE service, exactly as `--http-port` runs
    // them, so the shared-cache claim is checked against the real
    // wiring.
    let server =
        Server::start("127.0.0.1:0", cfg).map_err(|e| format!("bind ephemeral port: {e}"))?;
    let http = HttpServer::with_service("127.0.0.1:0", server.service().clone())
        .map_err(|e| format!("bind ephemeral http port: {e}"))?;
    let addr = http.addr();
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.healthz().map_err(|e| format!("healthz: {e}"))?;

    let specs = self_check_specs();
    let (cold_status, cold) = client
        .run_raw(&specs[0])
        .map_err(|e| format!("cold run: {e}"))?;
    if cold_status != 200 {
        return Err(format!("cold run: HTTP {cold_status}"));
    }
    for spec in &specs {
        let resp = client
            .run(spec)
            .map_err(|e| format!("{} run: {e}", spec.instance.kind()))?;
        if !resp.converged {
            return Err(format!("{} run did not converge", spec.instance.kind()));
        }
    }
    let (warm_status, warm) = client
        .run_raw(&specs[0])
        .map_err(|e| format!("warm run: {e}"))?;
    if warm_status != 200 {
        return Err(format!("warm run: HTTP {warm_status}"));
    }
    if cold != warm {
        return Err("cache hit was not byte-identical to cold response body".into());
    }

    // A job submitted over TCP and the identical job submitted over
    // HTTP hit the same cache entry: the TCP run of a fresh spec is
    // the miss, the HTTP repeat is a pure hit (no new engine run).
    let misses_before = server.service().metrics().cache_misses;
    let mut rng = StdRng::seed_from_u64(4242);
    let shared_spec = JobSpec::new(
        VariantInstance::Undirected {
            graph: gen::gnp_connected(20, 0.3, &mut rng),
        },
        7,
    );
    let mut tcp = Client::connect(server.addr()).map_err(|e| format!("tcp connect: {e}"))?;
    let via_tcp = tcp.run(&shared_spec).map_err(|e| format!("tcp run: {e}"))?;
    let via_http = client
        .run(&shared_spec)
        .map_err(|e| format!("http run of tcp-cached spec: {e}"))?;
    if via_tcp != via_http {
        return Err("TCP and HTTP answered the same spec differently".into());
    }
    let m = server.service().metrics();
    if m.cache_misses != misses_before + 1 {
        return Err(format!(
            "TCP+HTTP submissions of one spec did not share a cache entry: {} misses for one spec",
            m.cache_misses - misses_before
        ));
    }

    // The /v1/metrics invariant, read back through the facade itself.
    let metrics_json = client.metrics_json().map_err(|e| format!("metrics: {e}"))?;
    let parsed =
        Json::parse(&metrics_json).map_err(|e| format!("metrics is not valid JSON: {e}"))?;
    let field = |k: &str| -> Result<u64, String> {
        parsed
            .get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("metrics missing `{k}`: {metrics_json}"))
    };
    let (jobs, hits, misses, coalesced) = (
        field("jobs_submitted")?,
        field("cache_hits")?,
        field("cache_misses")?,
        field("coalesced")?,
    );
    if jobs != hits + misses + coalesced {
        return Err(format!(
            "metrics invariant violated: {jobs} != {hits} + {misses} + {coalesced}"
        ));
    }
    if hits < 2 {
        return Err(format!("expected >= 2 cache hits, metrics: {metrics_json}"));
    }

    // The same snapshot as Prometheus text exposition: structurally
    // well-formed, and its class series sum back to the jobs total.
    let prom = client
        .metrics_prometheus()
        .map_err(|e| format!("prometheus metrics: {e}"))?;
    check_prometheus(&prom)?;
    let (status, _) = client
        .request("GET", "/v1/metrics?format=csv", None)
        .map_err(|e| format!("bad-format request: {e}"))?;
    if status != 400 {
        return Err(format!(
            "unknown metrics format: expected 400, got {status}"
        ));
    }

    // Errors must map to statuses without wedging the connection.
    let (status, _) = client
        .request("POST", "/v1/jobs", Some("{not json"))
        .map_err(|e| format!("bad-JSON request: {e}"))?;
    if status != 400 {
        return Err(format!("bad JSON: expected 400, got {status}"));
    }
    let (status, _) = client
        .request("GET", "/nope", None)
        .map_err(|e| format!("unknown-route request: {e}"))?;
    if status != 404 {
        return Err(format!("unknown route: expected 404, got {status}"));
    }
    let (status, _) = client
        .request("GET", "/v1/jobs", None)
        .map_err(|e| format!("wrong-method request: {e}"))?;
    if status != 405 {
        return Err(format!("wrong method: expected 405, got {status}"));
    }
    client
        .healthz()
        .map_err(|e| format!("healthz after errors: {e}"))?;
    export_trace(server.service(), trace_dir)?;
    http.shutdown();
    server.shutdown();
    Ok(())
}

/// The warm-restart flavor (`--self-check --cache-dir DIR`): serve all
/// four variants into a persistent store over BOTH surfaces, stop the
/// service, reopen the same directory, and prove that every
/// re-submission is answered byte-identically *without* an engine
/// re-run — with `disk_hits > 0` (the reopened LRU is kept smaller
/// than the record count so the disk path must carry part of the
/// load) and the metrics invariant intact at every observation point.
fn self_check_persistent(cfg: &ServiceConfig, trace_dir: Option<&Path>) -> Result<(), String> {
    let dir = cfg
        .cache_dir
        .as_deref()
        .expect("persistent self-check needs --cache-dir");
    let specs = self_check_specs();
    let check_invariant = |service: &Service, when: &str| -> Result<(), String> {
        let m = service.metrics();
        if m.jobs_submitted != m.cache_hits + m.cache_misses + m.coalesced {
            return Err(format!(
                "metrics invariant violated {when}: {} != {} + {} + {}",
                m.jobs_submitted, m.cache_hits, m.cache_misses, m.coalesced
            ));
        }
        if m.disk_hits > m.cache_hits {
            return Err(format!(
                "disk_hits {} exceeds cache_hits {} {when}",
                m.disk_hits, m.cache_hits
            ));
        }
        Ok(())
    };

    // Phase 1: a cold store fills from engine runs.
    let mut tcp_cold: Vec<Vec<u8>> = Vec::new();
    let mut http_cold: Vec<Vec<u8>> = Vec::new();
    {
        let service =
            Arc::new(Service::open(cfg).map_err(|e| format!("open store {}: {e}", dir.display()))?);
        let server = Server::with_service("127.0.0.1:0", Arc::clone(&service))
            .map_err(|e| format!("bind ephemeral port: {e}"))?;
        let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service))
            .map_err(|e| format!("bind ephemeral http port: {e}"))?;
        let mut tcp = Client::connect(server.addr()).map_err(|e| format!("tcp connect: {e}"))?;
        let mut hc = HttpClient::connect(http.addr()).map_err(|e| format!("http connect: {e}"))?;
        for spec in &specs {
            let kind = spec.instance.kind();
            tcp_cold.push(
                tcp.run_raw(spec)
                    .map_err(|e| format!("cold {kind} tcp: {e}"))?,
            );
            let (status, body) = hc
                .run_raw(spec)
                .map_err(|e| format!("cold {kind} http: {e}"))?;
            if status != 200 {
                return Err(format!("cold {kind} http: HTTP {status}"));
            }
            http_cold.push(body);
        }
        let m = service.metrics();
        if m.store_records != specs.len() as u64 {
            return Err(format!(
                "expected {} store records after cold phase, got {}",
                specs.len(),
                m.store_records
            ));
        }
        if m.disk_hits != 0 {
            return Err(format!("cold phase reported {} disk hits", m.disk_hits));
        }
        check_invariant(&service, "after cold phase")?;
        http.shutdown();
        server.shutdown();
    } // service drops here: the "restart"

    // Phase 2: reopen the same directory. The LRU is deliberately too
    // small to warm-hold every record, so some answers must travel the
    // verified disk path.
    let warm_cfg = ServiceConfig {
        cache_capacity: specs.len() / 2,
        ..cfg.clone()
    };
    let service = Arc::new(
        Service::open(&warm_cfg).map_err(|e| format!("reopen store {}: {e}", dir.display()))?,
    );
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service))
        .map_err(|e| format!("bind ephemeral port: {e}"))?;
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service))
        .map_err(|e| format!("bind ephemeral http port: {e}"))?;
    let mut tcp = Client::connect(server.addr()).map_err(|e| format!("tcp connect: {e}"))?;
    let mut hc = HttpClient::connect(http.addr()).map_err(|e| format!("http connect: {e}"))?;
    for (i, spec) in specs.iter().enumerate() {
        let kind = spec.instance.kind();
        let warm = tcp
            .run_raw(spec)
            .map_err(|e| format!("warm {kind} tcp: {e}"))?;
        if warm != tcp_cold[i] {
            return Err(format!(
                "{kind}: TCP response after restart is not byte-identical"
            ));
        }
        let (status, body) = hc
            .run_raw(spec)
            .map_err(|e| format!("warm {kind} http: {e}"))?;
        if status != 200 {
            return Err(format!("warm {kind} http: HTTP {status}"));
        }
        if body != http_cold[i] {
            return Err(format!(
                "{kind}: HTTP body after restart is not byte-identical"
            ));
        }
    }
    let m = service.metrics();
    if m.cache_misses != 0 {
        return Err(format!(
            "restart re-ran the engine: {} cache misses",
            m.cache_misses
        ));
    }
    if m.disk_hits == 0 {
        return Err("expected disk_hits > 0 after warm restart".into());
    }
    if m.store_records != specs.len() as u64 {
        return Err(format!(
            "expected {} store records after restart, got {}",
            specs.len(),
            m.store_records
        ));
    }
    check_invariant(&service, "after warm phase")?;

    // The same invariant, read back through the HTTP facade.
    let metrics_json = hc.metrics_json().map_err(|e| format!("metrics: {e}"))?;
    let parsed =
        Json::parse(&metrics_json).map_err(|e| format!("metrics is not valid JSON: {e}"))?;
    let field = |k: &str| -> Result<u64, String> {
        parsed
            .get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("metrics missing `{k}`: {metrics_json}"))
    };
    if field("jobs_submitted")?
        != field("cache_hits")? + field("cache_misses")? + field("coalesced")?
    {
        return Err(format!("served metrics invariant violated: {metrics_json}"));
    }
    if field("disk_hits")? == 0 {
        return Err(format!(
            "served metrics report no disk hits: {metrics_json}"
        ));
    }
    // The Prometheus exposition stays coherent across the restart too.
    let prom = hc
        .metrics_prometheus()
        .map_err(|e| format!("prometheus metrics: {e}"))?;
    check_prometheus(&prom)?;
    export_trace(&service, trace_dir)?;
    http.shutdown();
    server.shutdown();
    Ok(())
}

/// The default chaos plan (`--self-check --chaos` without
/// `--fault-plan`): every store, engine and connection fault point
/// armed (the run creates no named graphs, so the `graphs.append.*`
/// points would never be reached), seeded so the decision stream is
/// reproducible run to run.
const DEFAULT_CHAOS_PLAN: &str = "seed=7;store.append.err=0.5;store.append.short=0.3;store.append.corrupt=0.2;store.read.err=0.2;engine.latency_ms=3@0.4;engine.abort=0.25;conn.drop=0.2";

/// The chaos flavor (`--self-check --chaos`): fault-free reference
/// responses first, then a deliberately tiny service (one worker,
/// depth-1 queue, persistent store in a scratch dir) hammered through
/// retrying TCP and HTTP clients while the seeded plan injects store
/// failures, engine aborts/latency, and mid-response connection drops.
/// Asserts: every delivered response is byte-identical to the
/// reference, at least one job was shed, at least one fault fired, the
/// store degraded to memory-only without failing a job, and
/// `jobs = hits + misses + coalesced + shed` — scraped back out of the
/// Prometheus exposition, not just the in-process counters.
fn self_check_chaos(cfg: &ServiceConfig, trace_dir: Option<&Path>) -> Result<(), String> {
    // Twelve distinct jobs: the four variants under three seeds each.
    let specs: Vec<JobSpec> = (0..3u64)
        .flat_map(|salt| {
            self_check_specs().into_iter().map(move |mut spec| {
                spec.config.seed += 10 * salt;
                spec
            })
        })
        .collect();

    // Reference: a fault-free in-process service (no store, no
    // frontends) maps each spec to its canonical response.
    let reference_service = Service::new(&ServiceConfig {
        fault: None,
        cache_dir: None,
        ..cfg.clone()
    });
    let mut reference = Vec::with_capacity(specs.len());
    for spec in &specs {
        reference.push(
            reference_service
                .run(spec)
                .map_err(|e| format!("reference {} run: {e}", spec.instance.kind()))?,
        );
    }

    // The chaos service: user-supplied plan if one came via
    // --fault-plan, the default plan otherwise.
    let default_plan = cfg.fault.is_none();
    let fault = match &cfg.fault {
        Some(f) => Arc::clone(f),
        None => Arc::new(FaultInjector::new(
            FaultPlan::parse(DEFAULT_CHAOS_PLAN).map_err(|e| format!("default plan: {e}"))?,
        )),
    };
    let store_dir = std::env::temp_dir().join(format!("spanner-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let chaos_cfg = ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        cache_dir: Some(store_dir.clone()),
        fault: Some(Arc::clone(&fault)),
        ..cfg.clone()
    };
    let service =
        Arc::new(Service::open(&chaos_cfg).map_err(|e| format!("open chaos store: {e}"))?);
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service))
        .map_err(|e| format!("bind ephemeral port: {e}"))?;
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service))
        .map_err(|e| format!("bind ephemeral http port: {e}"))?;

    // Phase 1 — byte identity under chaos: four TCP clients and one
    // HTTP client, each retrying with its own jitter seed, each
    // submitting all twelve jobs in a rotated order. Everything that
    // is *delivered* must equal the reference, whatever was injected.
    let policy = |seed: u64| RetryPolicy {
        max_retries: 60,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(50),
        seed,
    };
    let tcp_addr = server.addr();
    let http_addr = http.addr();
    let worker_errors: Vec<String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..4usize {
            let (specs, reference) = (&specs, &reference);
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut client =
                    Client::connect(tcp_addr).map_err(|e| format!("tcp connect: {e}"))?;
                let policy = policy(t as u64);
                for i in 0..specs.len() {
                    let i = (i + 3 * t) % specs.len();
                    let resp = client
                        .run_with_retry(&specs[i], &policy)
                        .map_err(|e| format!("tcp client {t}, spec {i}: {e}"))?;
                    if resp != reference[i] {
                        return Err(format!("tcp client {t}: spec {i} diverged from reference"));
                    }
                }
                Ok(())
            }));
        }
        {
            let (specs, reference) = (&specs, &reference);
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut client =
                    HttpClient::connect(http_addr).map_err(|e| format!("http connect: {e}"))?;
                let policy = policy(99);
                for (i, spec) in specs.iter().enumerate() {
                    let resp = client
                        .run_with_retry(spec, &policy)
                        .map_err(|e| format!("http client, spec {i}: {e}"))?;
                    if resp != reference[i] {
                        return Err(format!("http client: spec {i} diverged from reference"));
                    }
                }
                Ok(())
            }));
        }
        handles
            .into_iter()
            .filter_map(|h| {
                h.join()
                    .unwrap_or(Err("client thread panicked".into()))
                    .err()
            })
            .collect()
    });
    if let Some(e) = worker_errors.first() {
        return Err(e.clone());
    }

    // Phase 2 — force admission control if phase 1 never tripped it:
    // rounds of three concurrent never-cached jobs against the
    // one-worker, depth-1 queue until a shed is counted.
    let mut hammer_seed = 1000u64;
    let mut rounds = 0;
    while service.metrics().shed == 0 && rounds < 50 {
        rounds += 1;
        let fresh: Vec<JobSpec> = (0..3)
            .map(|i| {
                let mut spec = specs[0].clone();
                spec.config.seed = hammer_seed + i;
                spec
            })
            .collect();
        hammer_seed += 3;
        std::thread::scope(|scope| {
            for spec in &fresh {
                scope.spawn(move || {
                    if let Ok(mut c) = Client::connect(tcp_addr) {
                        // Sheds and injected failures are the point
                        // here; only delivery integrity matters, and
                        // phase 1 already asserted that.
                        let _ = c.run(spec);
                    }
                });
            }
        });
    }
    let m = service.metrics();
    if m.shed == 0 {
        return Err(format!(
            "admission control never shed a job in {rounds} hammer rounds"
        ));
    }
    if m.jobs_submitted != m.cache_hits + m.cache_misses + m.coalesced + m.shed {
        return Err(format!(
            "metrics invariant violated: {} != {} + {} + {} + {}",
            m.jobs_submitted, m.cache_hits, m.cache_misses, m.coalesced, m.shed
        ));
    }
    if fault.fired() == 0 {
        return Err("the fault plan never fired".into());
    }
    if default_plan && m.store_degraded != 1 {
        return Err(format!(
            "expected the store to degrade under injected append failures, store_degraded = {}",
            m.store_degraded
        ));
    }

    // The same facts, scraped from the Prometheus exposition the way
    // CI scrapes them.
    let mut hc = HttpClient::connect(http_addr).map_err(|e| format!("http connect: {e}"))?;
    let prom = hc
        .metrics_prometheus()
        .map_err(|e| format!("prometheus metrics: {e}"))?;
    check_prometheus(&prom)?;
    let shed_line = format!("spanner_jobs_by_class_total{{class=\"shed\"}} {}", m.shed);
    if !prom.lines().any(|l| l == shed_line) {
        return Err(format!("exposition is missing `{shed_line}`"));
    }
    if default_plan && !prom.lines().any(|l| l == "spanner_store_degraded 1") {
        return Err("exposition is missing `spanner_store_degraded 1`".into());
    }

    println!(
        "chaos: shed={} degraded={} faults_fired={} timed_out={}",
        m.shed,
        m.store_degraded,
        fault.fired(),
        m.connections_timed_out,
    );
    export_trace(&service, trace_dir)?;
    http.shutdown();
    server.shutdown();
    drop(service);
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(())
}

/// A client-side mirror of a named graph's live edge list: endpoint
/// pairs plus the variant extras (weights, client/server roles), kept
/// in the registry's live-id order so a maintained spanner's edge ids
/// can be compared against a from-scratch solve of the same set.
/// Pairs are normalized exactly the way the graph constructors store
/// them: `(min, max)` for the undirected family, submitted order for
/// directed.
struct LiveEdges {
    kind: VariantKind,
    n: usize,
    /// `(u, v, weight, client, server)` per live edge.
    recs: Vec<(usize, usize, u64, bool, bool)>,
}

impl LiveEdges {
    fn of(instance: &VariantInstance) -> LiveEdges {
        let kind = instance.kind();
        let (n, recs) = match instance {
            VariantInstance::Undirected { graph } => (
                graph.num_vertices(),
                graph
                    .edges()
                    .map(|(_, u, v)| (u, v, 0, false, false))
                    .collect(),
            ),
            VariantInstance::Directed { graph } => (
                graph.num_vertices(),
                graph
                    .edges()
                    .map(|(_, u, v)| (u, v, 0, false, false))
                    .collect(),
            ),
            VariantInstance::Weighted { graph, weights } => (
                graph.num_vertices(),
                graph
                    .edges()
                    .map(|(e, u, v)| (u, v, weights.get(e), false, false))
                    .collect(),
            ),
            VariantInstance::ClientServer {
                graph,
                clients,
                servers,
            } => (
                graph.num_vertices(),
                graph
                    .edges()
                    .map(|(e, u, v)| (u, v, 0, clients.contains(e), servers.contains(e)))
                    .collect(),
            ),
        };
        LiveEdges { kind, n, recs }
    }

    fn pair(&self, u: usize, v: usize) -> (usize, usize) {
        if self.kind == VariantKind::Directed {
            (u, v)
        } else {
            (u.min(v), u.max(v))
        }
    }

    fn contains(&self, u: usize, v: usize) -> bool {
        let p = self.pair(u, v);
        self.recs.iter().any(|r| (r.0, r.1) == p)
    }

    fn insert(&mut self, u: usize, v: usize, weight: u64, role: Option<EdgeRole>) {
        let (u, v) = self.pair(u, v);
        let (client, server) = match role {
            Some(EdgeRole::Client) => (true, false),
            Some(EdgeRole::Server) => (false, true),
            Some(EdgeRole::Both) => (true, true),
            None => (false, false),
        };
        self.recs.push((u, v, weight, client, server));
    }

    fn delete(&mut self, u: usize, v: usize) {
        let p = self.pair(u, v);
        let i = self
            .recs
            .iter()
            .position(|r| (r.0, r.1) == p)
            .expect("deleting a live edge");
        // The registry compacts by removing the record and shifting the
        // tail down one id; `Vec::remove` is exactly that.
        self.recs.remove(i);
    }

    fn instance(&self) -> VariantInstance {
        let pairs: Vec<(usize, usize)> = self.recs.iter().map(|r| (r.0, r.1)).collect();
        match self.kind {
            VariantKind::Undirected => VariantInstance::Undirected {
                graph: Graph::from_edges(self.n, pairs),
            },
            VariantKind::Directed => VariantInstance::Directed {
                graph: DiGraph::from_edges(self.n, pairs),
            },
            VariantKind::Weighted => VariantInstance::Weighted {
                graph: Graph::from_edges(self.n, pairs),
                weights: EdgeWeights::from_vec(self.recs.iter().map(|r| r.2).collect()),
            },
            VariantKind::ClientServer => {
                let m = self.recs.len();
                VariantInstance::ClientServer {
                    graph: Graph::from_edges(self.n, pairs),
                    clients: EdgeSet::from_iter(
                        m,
                        self.recs
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| r.3)
                            .map(|(i, _)| i),
                    ),
                    servers: EdgeSet::from_iter(
                        m,
                        self.recs
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| r.4)
                            .map(|(i, _)| i),
                    ),
                }
            }
        }
    }
}

/// Asserts a maintained spanner equals a from-scratch solve of the
/// mirror's current edge set: same canonical job key, same endpoint
/// pairs (spanner edge ids mapped through the mirror's live order).
fn check_from_scratch(
    tcp: &mut Client,
    id: &str,
    live: &LiveEdges,
    config: &dsa_core::dist::EngineConfig,
) -> Result<(), String> {
    let gs = tcp
        .graph_spanner(id)
        .map_err(|e| format!("{id} spanner: {e}"))?;
    let spec = JobSpec {
        instance: live.instance(),
        config: config.clone(),
        timeout: None,
    };
    let resp = tcp
        .run(&spec)
        .map_err(|e| format!("{id} from-scratch run: {e}"))?;
    if resp.key != gs.key {
        return Err(format!(
            "{id}: maintained spanner key {:016x} != from-scratch key {:016x}",
            gs.key, resp.key
        ));
    }
    let want: Vec<(usize, usize)> = resp
        .spanner
        .iter()
        .map(|&e| (live.recs[e].0, live.recs[e].1))
        .collect();
    if gs.edges != want {
        return Err(format!(
            "{id}: maintained spanner ({} edges) diverges from the from-scratch solve ({} edges)",
            gs.edges.len(),
            want.len()
        ));
    }
    Ok(())
}

fn self_check_graphs(cfg: &ServiceConfig, trace_dir: Option<&Path>) -> Result<(), String> {
    // Graphs only persist with a store directory; fall back to a
    // scratch dir (removed on success) so the flavor runs without
    // --cache-dir too.
    let (dir, ephemeral) = match &cfg.cache_dir {
        Some(d) => (d.clone(), false),
        None => (
            std::env::temp_dir().join(format!("spanner-graphs-{}", std::process::id())),
            true,
        ),
    };
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let graphs_cfg = ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..cfg.clone()
    };

    let service = Arc::new(
        Service::open(&graphs_cfg).map_err(|e| format!("open store {}: {e}", dir.display()))?,
    );
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service))
        .map_err(|e| format!("bind ephemeral port: {e}"))?;
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service))
        .map_err(|e| format!("bind ephemeral http port: {e}"))?;
    let mut tcp = Client::connect(server.addr()).map_err(|e| format!("tcp connect: {e}"))?;
    let mut hc = HttpClient::connect(http.addr()).map_err(|e| format!("http connect: {e}"))?;

    // Protocol negotiation: a v2 server must advertise the graphs
    // feature to a v2 client.
    let (proto, features) = tcp.hello().map_err(|e| format!("hello: {e}"))?;
    if proto != 2 || !features.iter().any(|f| f == "graphs") {
        return Err(format!(
            "hello negotiated proto {proto} features {features:?}, expected proto 2 with `graphs`"
        ));
    }

    // Phase 1 — lifecycle on all four variants, mixing surfaces:
    // create over TCP, duplicate-create and patch over HTTP, reads
    // over TCP.
    let mut mirrors: Vec<(String, LiveEdges, dsa_core::dist::EngineConfig)> = Vec::new();
    for spec in self_check_specs() {
        let kind = spec.instance.kind();
        let id = format!("sc-{kind}");
        let gspec = GraphSpec {
            id: id.clone(),
            instance: spec.instance.clone(),
            config: spec.config.clone(),
        };
        let created = tcp
            .graph_create(&gspec)
            .map_err(|e| format!("{kind} create: {e}"))?;
        if created.existed || created.version != 0 || created.spanner_size == 0 {
            return Err(format!(
                "{kind} create: existed={} version={} spanner={}",
                created.existed, created.version, created.spanner_size
            ));
        }
        let again = hc
            .graph_create(&gspec)
            .map_err(|e| format!("{kind} re-create: {e}"))?;
        if !again.existed {
            return Err(format!("{kind}: HTTP re-create was not idempotent"));
        }

        let mut live = LiveEdges::of(&spec.instance);
        // One absent pair to insert, the last live edge to delete.
        let mut fresh = None;
        'scan: for u in 0..live.n {
            for v in (u + 1)..live.n {
                if !live.contains(u, v) {
                    fresh = Some((u, v));
                    break 'scan;
                }
            }
        }
        let (fu, fv) = fresh.ok_or_else(|| format!("{kind}: no absent pair to insert"))?;
        let (du, dv) = {
            let r = *live.recs.last().expect("initial edges");
            (r.0, r.1)
        };
        let (weight, role) = match kind {
            VariantKind::Weighted => (Some(5), None),
            VariantKind::ClientServer => (None, Some(EdgeRole::Both)),
            _ => (None, None),
        };
        let ops = vec![
            DeltaOp::Insert {
                u: fu,
                v: fv,
                weight,
                role,
            },
            DeltaOp::Delete { u: du, v: dv },
        ];
        let patched = hc
            .graph_patch(&id, &ops)
            .map_err(|e| format!("{kind} patch: {e}"))?;
        live.insert(fu, fv, weight.unwrap_or(0), role);
        live.delete(du, dv);
        if patched.version != 2 || patched.applied != 2 || patched.edges != live.recs.len() {
            return Err(format!(
                "{kind} patch: version={} applied={} edges={} (mirror has {})",
                patched.version,
                patched.applied,
                patched.edges,
                live.recs.len()
            ));
        }
        // A patch containing a delete invalidates the cover, so both
        // of its ops must classify as recomputed.
        if patched.classes.recomputed != 2 {
            return Err(format!(
                "{kind} patch with a delete must classify recomputed=2, got {:?}",
                patched.classes
            ));
        }
        check_from_scratch(&mut tcp, &id, &live, &spec.config)?;
        mirrors.push((id, live, spec.config.clone()));
    }

    // Lifecycle end: create on one surface, retire on the other, and
    // both surfaces must then answer not-found.
    let tmp = GraphSpec {
        id: "sc-tmp".to_string(),
        instance: VariantInstance::Undirected {
            graph: Graph::from_edges(3, [(0, 1), (1, 2)]),
        },
        config: dsa_core::dist::EngineConfig::seeded(7),
    };
    hc.graph_create(&tmp)
        .map_err(|e| format!("tmp create: {e}"))?;
    tcp.graph_delete("sc-tmp")
        .map_err(|e| format!("tmp delete: {e}"))?;
    if tcp.graph_get("sc-tmp").is_ok() || hc.graph_get("sc-tmp").is_ok() {
        return Err("deleted graph still answers".into());
    }
    match tcp.graph_patch("sc-tmp", &[DeltaOp::Delete { u: 0, v: 1 }]) {
        Err(dsa_service::JobError::Remote(_)) => {}
        other => {
            return Err(format!(
                "patch of deleted graph: expected error, got {other:?}"
            ))
        }
    }

    // Phase 2 — a 1000-delta insert stream against a star graph.
    // Spoke-to-spoke chords commute through the center's covering
    // 2-paths; pendant edges to fresh vertices need repair, and once
    // accumulated repair debt crosses the threshold the registry
    // recomputes — so the stream exercises all three classes.
    const SPOKES: usize = 300;
    const CHORDS: usize = 700;
    const PENDANTS: usize = 300;
    let n = 1 + SPOKES + PENDANTS;
    let star: Vec<(usize, usize)> = (1..=SPOKES).map(|v| (0, v)).collect();
    let stream_cfg = dsa_core::dist::EngineConfig::seeded(11);
    let stream_spec = GraphSpec {
        id: "stream".to_string(),
        instance: VariantInstance::Undirected {
            graph: Graph::from_edges(n, star.clone()),
        },
        config: stream_cfg.clone(),
    };
    let created = tcp
        .graph_create(&stream_spec)
        .map_err(|e| format!("stream create: {e}"))?;
    if created.existed {
        return Err("stream graph already existed".into());
    }
    let mut stream_live = LiveEdges::of(&stream_spec.instance);
    let mut ops: Vec<(usize, usize)> = Vec::new();
    // Chords in lexicographic order over spoke pairs.
    'chords: for u in 1..=SPOKES {
        for v in (u + 1)..=SPOKES {
            if ops.len() == CHORDS {
                break 'chords;
            }
            ops.push((u, v));
        }
    }
    // Pendants: each connects a spoke to a brand-new vertex, so the
    // new edge cannot be covered by the working cover.
    for j in 0..PENDANTS {
        ops.push((1 + (j % SPOKES), 1 + SPOKES + j));
    }
    let maintenance = Instant::now();
    for &(u, v) in &ops {
        let op = DeltaOp::Insert {
            u,
            v,
            weight: None,
            role: None,
        };
        tcp.graph_patch("stream", std::slice::from_ref(&op))
            .map_err(|e| format!("stream patch +{u} {v}: {e}"))?;
        stream_live.insert(u, v, 0, None);
    }
    let maintenance = maintenance.elapsed();
    let meta = tcp
        .graph_get("stream")
        .map_err(|e| format!("stream get: {e}"))?;
    let classes = meta.classes;
    if meta.version != ops.len() as u64 || meta.edges != SPOKES + ops.len() {
        return Err(format!(
            "stream meta: version={} edges={}, expected {} and {}",
            meta.version,
            meta.edges,
            ops.len(),
            SPOKES + ops.len()
        ));
    }
    let class_sum = classes.commuted + classes.repaired + classes.recomputed;
    if class_sum != ops.len() as u64 {
        return Err(format!(
            "stream classes sum to {class_sum}, expected {}: {classes:?}",
            ops.len()
        ));
    }
    // The issue's acceptance bar: a stream that is >= 50% covered
    // inserts must show commuted deltas.
    if classes.commuted < (ops.len() as u64) / 2 {
        return Err(format!(
            "expected >= {} commuted deltas, got {:?}",
            ops.len() / 2,
            classes
        ));
    }
    if classes.repaired == 0 || classes.recomputed == 0 {
        return Err(format!(
            "expected the stream to exercise repair and recompute too: {classes:?}"
        ));
    }
    // The served spanner is still exactly the from-scratch answer.
    check_from_scratch(&mut tcp, "stream", &stream_live, &stream_cfg)?;

    // Maintenance must beat recomputing from scratch after every
    // delta. Estimate the per-delta solve cost by timing fresh solves
    // of prefix snapshots (distinct cache keys, so every one is a real
    // engine run) and extrapolating to one solve per delta.
    let prefixes = [100, 300, 500, 700, 900];
    let solves = Instant::now();
    for &p in &prefixes {
        let mut snap = LiveEdges::of(&stream_spec.instance);
        for &(u, v) in &ops[..p] {
            snap.insert(u, v, 0, None);
        }
        let spec = JobSpec {
            instance: snap.instance(),
            config: stream_cfg.clone(),
            timeout: None,
        };
        tcp.run(&spec)
            .map_err(|e| format!("prefix {p} solve: {e}"))?;
    }
    let per_solve = solves.elapsed().as_secs_f64() / prefixes.len() as f64;
    let extrapolated = per_solve * ops.len() as f64;
    if maintenance.as_secs_f64() >= extrapolated {
        return Err(format!(
            "incremental maintenance ({:.3}s for {} deltas) did not beat {} extrapolated \
             from-scratch solves ({:.3}s)",
            maintenance.as_secs_f64(),
            ops.len(),
            ops.len(),
            extrapolated
        ));
    }

    // The per-graph gauges, scraped the way CI scrapes them.
    let prom = hc
        .metrics_prometheus()
        .map_err(|e| format!("prometheus metrics: {e}"))?;
    let live_line = format!("spanner_graphs_live {}", mirrors.len() + 1);
    if !prom.lines().any(|l| l == live_line) {
        return Err(format!("exposition is missing `{live_line}`"));
    }
    let commuted_prefix = "spanner_graph_deltas_by_class_total{class=\"commuted\"} ";
    let commuted_total: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix(commuted_prefix))
        .ok_or("exposition is missing the commuted delta counter")?
        .parse()
        .map_err(|e| format!("commuted counter did not parse: {e}"))?;
    if commuted_total < classes.commuted {
        return Err(format!(
            "service-wide commuted counter {commuted_total} < stream's {}",
            classes.commuted
        ));
    }

    // The artifact line CI extracts into graph_deltas.json.
    println!(
        "{{\"graphs_self_check\":{{\"deltas\":{},\"commuted\":{},\"repaired\":{},\
         \"recomputed\":{},\"maintenance_secs\":{:.6},\"per_solve_secs\":{:.6},\
         \"extrapolated_secs\":{:.6}}}}}",
        ops.len(),
        classes.commuted,
        classes.repaired,
        classes.recomputed,
        maintenance.as_secs_f64(),
        per_solve,
        extrapolated
    );

    // Capture every graph's spanner bytes on both surfaces, then
    // restart on the same directory.
    let mut ids: Vec<&str> = mirrors.iter().map(|(id, _, _)| id.as_str()).collect();
    ids.push("stream");
    let mut raws: Vec<(String, u64, Vec<u8>, Vec<u8>)> = Vec::new();
    for id in &ids {
        let version = tcp
            .graph_get(id)
            .map_err(|e| format!("{id} get: {e}"))?
            .version;
        let t = tcp
            .graph_spanner_raw(id)
            .map_err(|e| format!("{id} spanner raw tcp: {e}"))?;
        let (status, h) = hc
            .graph_spanner_raw(id)
            .map_err(|e| format!("{id} spanner raw http: {e}"))?;
        if status != 200 {
            return Err(format!("{id} spanner raw http: HTTP {status}"));
        }
        raws.push((id.to_string(), version, t, h));
    }
    export_trace(&service, trace_dir)?;
    http.shutdown();
    server.shutdown();
    drop(tcp);
    drop(hc);
    drop(service);

    // Phase 3 — warm restart: replaying the create+delta log must
    // rebuild every graph, and both surfaces must re-serve every
    // spanner byte-identically from the store, without engine runs.
    // The reopened LRU is deliberately too small to warm-hold every
    // record, so some answers must travel the verified disk path.
    let warm_cfg = ServiceConfig {
        cache_capacity: 2,
        ..graphs_cfg.clone()
    };
    let service = Arc::new(
        Service::open(&warm_cfg).map_err(|e| format!("reopen store {}: {e}", dir.display()))?,
    );
    if service.graphs_live() != ids.len() {
        return Err(format!(
            "restart replayed {} graphs, expected {}",
            service.graphs_live(),
            ids.len()
        ));
    }
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service))
        .map_err(|e| format!("bind ephemeral port: {e}"))?;
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service))
        .map_err(|e| format!("bind ephemeral http port: {e}"))?;
    let mut tcp = Client::connect(server.addr()).map_err(|e| format!("tcp reconnect: {e}"))?;
    let mut hc = HttpClient::connect(http.addr()).map_err(|e| format!("http reconnect: {e}"))?;
    for (id, version, tcp_raw, http_raw) in &raws {
        let meta = tcp
            .graph_get(id)
            .map_err(|e| format!("{id} get after restart: {e}"))?;
        if meta.version != *version {
            return Err(format!(
                "{id}: restart replayed to version {}, expected {version}",
                meta.version
            ));
        }
        let t2 = tcp
            .graph_spanner_raw(id)
            .map_err(|e| format!("{id} spanner after restart (tcp): {e}"))?;
        if t2 != *tcp_raw {
            return Err(format!(
                "{id}: TCP spanner not byte-identical after restart"
            ));
        }
        let (status, h2) = hc
            .graph_spanner_raw(id)
            .map_err(|e| format!("{id} spanner after restart (http): {e}"))?;
        if status != 200 || h2 != *http_raw {
            return Err(format!(
                "{id}: HTTP spanner not byte-identical after restart (HTTP {status})"
            ));
        }
    }
    let m = service.metrics();
    if m.cache_misses != 0 {
        return Err(format!(
            "post-restart spanner reads ran the engine {} times; all must come from the store",
            m.cache_misses
        ));
    }
    if m.disk_hits == 0 {
        return Err("post-restart spanner reads never touched the disk store".into());
    }
    export_trace(&service, trace_dir)?;
    http.shutdown();
    server.shutdown();
    drop(tcp);
    drop(hc);
    drop(service);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}
