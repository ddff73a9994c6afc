//! Graceful-drain test against the real `spanner-serve` binary:
//! SIGTERM under load must stop accepting, let every in-flight job
//! finish, flush the `--trace-dir` flight recorder, and exit 0 — with
//! zero delivered-but-wrong responses. The single-writer store lock is
//! exercised across the restart too.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dsa_core::dist::VariantInstance;
use dsa_graphs::gen;
use dsa_runtime::json::Json;
use dsa_service::{Client, JobSpec, RetryPolicy, Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SERVE_BIN: &str = env!("CARGO_BIN_EXE_spanner-serve");

/// Starts `spanner-serve` on an ephemeral port and returns the child
/// plus the bound address parsed from its `listening <addr>` line.
fn start_server(extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(SERVE_BIN)
        .args(["--addr", "127.0.0.1:0", "--workers", "2", "--queue", "4"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn spanner-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before listening")
            .expect("read server stdout");
        if let Some(addr) = line.strip_prefix("listening ") {
            break addr.to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM failed");
}

#[test]
fn sigterm_under_load_drains_and_loses_no_delivered_response() {
    let specs: Vec<JobSpec> = {
        let mut rng = StdRng::seed_from_u64(31);
        (0..10)
            .map(|i| {
                JobSpec::new(
                    VariantInstance::Undirected {
                        graph: gen::gnp_connected(40 + 4 * (i as usize), 0.2, &mut rng),
                    },
                    i,
                )
            })
            .collect()
    };
    // Fault-free reference for every spec this test ever submits.
    let reference_service = Service::new(&ServiceConfig::default());
    let reference: Vec<_> = specs
        .iter()
        .map(|spec| reference_service.run(spec).unwrap())
        .collect();

    let trace_dir = std::env::temp_dir().join(format!("dsa-drain-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&trace_dir);
    let (child, addr) = start_server(&[
        "--drain-timeout",
        "30",
        "--trace-dir",
        trace_dir.to_str().unwrap(),
    ]);
    // Load: three retrying clients loop over the specs until the
    // server goes away; the SIGTERM lands mid-stream. Everything a
    // client *received* must match the reference — a drained server
    // may refuse or cut a request, but it must never corrupt one.
    let stop_at = Instant::now() + Duration::from_secs(10);
    let delivered: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..3usize {
            let (specs, reference, addr) = (&specs, &reference, addr.clone());
            handles.push(scope.spawn(move || {
                let Ok(mut client) = Client::connect(addr.as_str()) else {
                    return 0u64;
                };
                let policy = RetryPolicy {
                    max_retries: 3,
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(20),
                    seed: t as u64,
                };
                let mut delivered = 0u64;
                'outer: while Instant::now() < stop_at {
                    for (i, spec) in specs.iter().enumerate() {
                        match client.run_with_retry(spec, &policy) {
                            Ok(resp) => {
                                assert_eq!(resp, reference[i], "client {t}: spec {i} diverged");
                                delivered += 1;
                            }
                            // The server shut down underneath us —
                            // expected once SIGTERM lands.
                            Err(_) => break 'outer,
                        }
                    }
                }
                delivered
            }));
        }
        // Let the load ramp, then deliver SIGTERM mid-flight.
        std::thread::sleep(Duration::from_millis(300));
        sigterm(&child);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(delivered > 0, "no responses delivered before the drain");

    let mut child = child;
    let status = wait_with_deadline(&mut child, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0), "drain must exit 0");

    // The drain flushed the flight recorder: well-formed JSONL events,
    // deliveries among them.
    let trace = trace_dir.join(format!("trace-{}.jsonl", child.id()));
    let text = std::fs::read_to_string(&trace).expect("trace file written on drain");
    for line in text.lines() {
        let event = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        assert!(
            event.get("trace").is_some() && event.get("name").is_some(),
            "trace line without trace/name: {line}"
        );
    }
    assert!(
        text.contains("\"name\":\"job.delivered\""),
        "no job.delivered event in the final flush"
    );
    let _ = std::fs::remove_dir_all(&trace_dir);
}

#[test]
fn interrupted_connection_mid_request_does_not_block_the_drain() {
    // A client that sends half a frame and stalls (slow loris) must
    // not hold the drain hostage: shutdown turns the stalled read into
    // a clean close and the process still exits 0 inside the bound.
    let (child, addr) = start_server(&["--drain-timeout", "30"]);
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    // Frame header promising 1000 bytes, then silence.
    stalled.write_all(&1000u32.to_be_bytes()).unwrap();
    stalled.write_all(b"run v1\n").unwrap();
    stalled.flush().unwrap();
    std::thread::sleep(Duration::from_millis(200));
    sigterm(&child);
    let mut child = child;
    let status = wait_with_deadline(&mut child, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0), "drain must exit 0");
    // The stalled connection was closed server-side.
    let mut buf = [0u8; 16];
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(stalled.read(&mut buf).unwrap_or(0), 0);
}

#[test]
fn cache_dir_takes_a_single_writer_lock() {
    let dir = std::env::temp_dir().join(format!("dsa-drain-lock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_flag = dir.to_str().unwrap();
    let (child, _addr) = start_server(&["--cache-dir", dir_flag]);
    // A second server on the same directory must fail fast — the lock
    // holder's PID is alive.
    let second = Command::new(SERVE_BIN)
        .args(["--addr", "127.0.0.1:0", "--cache-dir", dir_flag])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn second server");
    assert_ne!(second.code(), Some(0), "second writer must be refused");
    // After a graceful stop the lock is released and a successor
    // starts cleanly.
    sigterm(&child);
    let mut child = child;
    let status = wait_with_deadline(&mut child, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0));
    let (successor, _addr) = start_server(&["--cache-dir", dir_flag]);
    sigterm(&successor);
    let mut successor = successor;
    let status = wait_with_deadline(&mut successor, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Child::wait` with a deadline: polls `try_wait`, kills on overrun.
fn wait_with_deadline(child: &mut Child, deadline: Duration) -> std::process::ExitStatus {
    let until = Instant::now() + deadline;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= until {
            let _ = child.kill();
            panic!("server did not exit within {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
