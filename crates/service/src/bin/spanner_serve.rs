//! `spanner-serve` — the spanner-serving daemon (TCP wire protocol,
//! plus an optional HTTP/JSON facade over the same service).
//!
//! ```text
//! spanner-serve [--addr HOST:PORT] [--http-port PORT] [--workers N]
//!               [--queue N] [--cache N] [--shards N] [--cache-dir DIR]
//!               [--log-level LEVEL] [--trace-dir DIR]
//!               [--drain-timeout SECS] [--fault-plan PLAN]
//! ```
//!
//! `--log-level LEVEL` (error/warn/info/debug/trace, default `info`)
//! sets the threshold for the structured stderr log lines emitted via
//! [`dsa_runtime::obs`]. `--trace-dir DIR` exports the service's
//! bounded flight recorder — one JSONL line per job-lifecycle event,
//! tagged with a per-job trace id — to `DIR/trace-<pid>.jsonl`: a
//! background thread flushes every 2 s, and the drain flushes once
//! more before exit.
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
//! The process binds the address (default `127.0.0.1:7071`, port 0
//! for ephemeral), prints one `listening <addr>` line (plus
//! `http listening <addr>` with `--http-port`), and serves until it
//! receives SIGTERM or SIGINT — then it **drains gracefully**: stops
//! accepting, lets in-flight requests finish (bounded by
//! `--drain-timeout SECS`, default 10), flushes the trace file, and
//! exits 0. A drain that does not finish inside the bound exits 1 so
//! supervisors can tell abandonment from a clean stop.
//!
//! `--fault-plan PLAN` arms the deterministic fault injector
//! ([`dsa_runtime::fault`]) with a seeded plan such as
//! `seed=42;store.append.err=0.5;engine.latency_ms=5@0.25;conn.drop=0.1`.
//! Injection can delay or abort engine runs, fail store I/O (demoting
//! the service to memory-only caching, `store_degraded` in metrics),
//! and drop connections mid-response — it can never change response
//! bytes.
//!
//! End-to-end checks of what this binary serves live in the
//! integration tests: `tests/service.rs` (TCP), and
//! `crates/service/tests/{http,store,chaos,graphs,drain}.rs` (HTTP,
//! warm restarts, fault injection, named graphs, and SIGTERM drain of
//! this binary with `--trace-dir`).

#![deny(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dsa_runtime::obs;
use dsa_runtime::{FaultInjector, FaultPlan};
use dsa_service::{HttpServer, Server, Service, ServiceConfig};

struct Args {
    addr: String,
    http_port: Option<u16>,
    cfg: ServiceConfig,
    drain_timeout: Duration,
    trace_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: spanner-serve [--addr HOST:PORT] [--http-port PORT] [--workers N] [--queue N] [--cache N] [--shards N] [--cache-dir DIR] [--log-level LEVEL] [--trace-dir DIR] [--drain-timeout SECS] [--fault-plan PLAN]";

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
            "--help" | "-h" => help(),
            "--self-check" | "--http" | "--chaos" | "--graphs" => {
                obs::error(
                    "spanner-serve",
                    "--self-check and its --http/--chaos/--graphs flavors are retired; the integration tests cover them (use --http-port to serve HTTP, --fault-plan to serve with injection)",
                    &[("flag", &flag)],
                );
                usage()
            }
            other => {
                obs::error("spanner-serve", "unknown flag", &[("flag", &other)]);
                usage()
            }
        }
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
                        std::thread::sleep(Duration::from_secs(2));
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
