//! Chaos soak: a seeded fault plan drives store failures, engine
//! aborts and latency, and mid-response connection drops against all
//! four problem variants served over both frontends, while retrying
//! clients hammer a one-worker, depth-1-queue service. The contract
//! under fault injection: no panic, no wrong bytes (every delivered
//! response byte-identical to a fault-free reference), shedding that
//! retries to completion, a store that degrades without failing a
//! job, and exact admission accounting
//! (`jobs = hits + misses + coalesced + shed`), in process and in the
//! served Prometheus exposition.

use std::sync::Arc;
use std::time::Duration;

use dsa_core::dist::VariantInstance;
use dsa_graphs::gen;
use dsa_runtime::{FaultInjector, FaultPlan};
use dsa_service::{
    Client, HttpClient, HttpServer, JobSpec, RetryPolicy, Server, Service, ServiceConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All four variants under two engine seeds each.
fn soak_specs() -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(77);
    let g = gen::gnp_connected(22, 0.3, &mut rng);
    let d = gen::random_digraph_connected(16, 0.14, &mut rng);
    let w = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
    let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
    let instances = [
        VariantInstance::Undirected { graph: g.clone() },
        VariantInstance::Directed { graph: d },
        VariantInstance::Weighted {
            graph: g.clone(),
            weights: w,
        },
        VariantInstance::ClientServer {
            graph: g,
            clients,
            servers,
        },
    ];
    let mut specs = Vec::new();
    for engine_seed in [1u64, 2] {
        for instance in &instances {
            specs.push(JobSpec::new(instance.clone(), engine_seed));
        }
    }
    specs
}

/// The soak's fault plan: every store, engine and connection fault
/// point armed (the soak creates no named graphs, so `graphs.append.*`
/// is never reached), seeded so the decision stream is reproducible.
/// `spanner-serve --fault-plan` takes the same string to replay it
/// against a live server.
const SOAK_PLAN: &str = "seed=11;store.append.err=0.4;store.append.short=0.3;\
     store.append.corrupt=0.2;store.read.err=0.25;engine.latency_ms=2@0.4;engine.abort=0.3;\
     conn.drop=0.25";

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dsa-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn seeded_fault_plan_never_corrupts_a_delivered_response() {
    let specs = soak_specs();
    // Fault-free reference responses, computed in-process.
    let reference_service = Service::new(&ServiceConfig::default());
    let reference: Vec<_> = specs
        .iter()
        .map(|spec| reference_service.run(spec).unwrap())
        .collect();

    let fault = Arc::new(FaultInjector::new(FaultPlan::parse(SOAK_PLAN).unwrap()));
    let dir = scratch_dir("soak");
    // A deliberately tiny service — one worker, a depth-1 queue — so
    // admission control sheds under the clients below.
    let service = Arc::new(
        Service::open(&ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            cache_dir: Some(dir.clone()),
            fault: Some(Arc::clone(&fault)),
            ..ServiceConfig::default()
        })
        .unwrap(),
    );
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let (tcp_addr, http_addr) = (server.addr(), http.addr());

    // Three TCP clients and two HTTP clients, each retrying with its
    // own jitter seed, each submitting every spec twice in a rotated
    // order. Every *delivered* response must equal the reference.
    let policy = |seed: u64| RetryPolicy {
        max_retries: 60,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(40),
        seed,
    };
    std::thread::scope(|scope| {
        for t in 0..3usize {
            let (specs, reference) = (&specs, &reference);
            scope.spawn(move || {
                let mut client = Client::connect(tcp_addr).unwrap();
                let policy = policy(t as u64);
                for pass in 0..2 {
                    for i in 0..specs.len() {
                        let i = (i + 2 * t + pass) % specs.len();
                        let resp = client
                            .run_with_retry(&specs[i], &policy)
                            .unwrap_or_else(|e| panic!("tcp client {t}, spec {i}: {e}"));
                        assert_eq!(resp, reference[i], "tcp client {t}: spec {i} diverged");
                    }
                }
            });
        }
        for t in 0..2usize {
            let (specs, reference) = (&specs, &reference);
            scope.spawn(move || {
                let mut client = HttpClient::connect(http_addr).unwrap();
                let policy = policy(100 + t as u64);
                for pass in 0..2 {
                    for i in 0..specs.len() {
                        let i = (i + 3 * t + pass) % specs.len();
                        let resp = client
                            .run_with_retry(&specs[i], &policy)
                            .unwrap_or_else(|e| panic!("http client {t}, spec {i}: {e}"));
                        assert_eq!(resp, reference[i], "http client {t}: spec {i} diverged");
                    }
                }
            });
        }
    });

    // Force admission control if the clients never tripped it: rounds
    // of three concurrent never-cached jobs against the one-worker,
    // depth-1 queue until a shed is counted. Sheds and injected
    // failures are the point here; delivery integrity was asserted
    // above.
    let mut rounds = 0u64;
    while service.metrics().shed == 0 && rounds < 50 {
        std::thread::scope(|scope| {
            for i in 0..3 {
                let mut spec = specs[0].clone();
                spec.config.seed = 1000 + 3 * rounds + i;
                scope.spawn(move || {
                    if let Ok(mut client) = Client::connect(tcp_addr) {
                        let _ = client.run(&spec);
                    }
                });
            }
        });
        rounds += 1;
    }

    let m = service.metrics();
    assert!(m.shed > 0, "no job was shed in {rounds} hammer rounds");
    assert!(fault.fired() > 0, "the plan never fired");
    assert_eq!(
        m.jobs_submitted,
        m.cache_hits + m.cache_misses + m.coalesced + m.shed,
        "admission accounting broke under chaos"
    );
    // The injected append failures demoted the store without failing
    // a single job (every delivery above was asserted byte-identical).
    assert_eq!(m.store_degraded, 1);

    // The same facts, scraped from the served exposition. The scrape
    // itself is subject to `conn.drop`, so it reconnects until one
    // response arrives whole.
    let text = (0..50)
        .find_map(|_| {
            HttpClient::connect(http_addr)
                .ok()?
                .metrics_prometheus()
                .ok()
        })
        .expect("a whole Prometheus scrape in 50 attempts");
    assert!(text.starts_with("# HELP "), "{text}");
    for line in [
        format!("spanner_jobs_total {}", m.jobs_submitted),
        format!(
            "spanner_jobs_by_class_total{{class=\"cache_hit\"}} {}",
            m.cache_hits
        ),
        format!(
            "spanner_jobs_by_class_total{{class=\"cache_miss\"}} {}",
            m.cache_misses
        ),
        format!(
            "spanner_jobs_by_class_total{{class=\"coalesced\"}} {}",
            m.coalesced
        ),
        format!("spanner_jobs_by_class_total{{class=\"shed\"}} {}", m.shed),
        "spanner_store_degraded 1".to_string(),
    ] {
        assert!(text.lines().any(|l| l == line), "exposition lacks `{line}`");
    }

    http.shutdown();
    server.shutdown();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_store_leaves_a_recoverable_log_behind() {
    // A short-write fault leaves a crash-shaped ragged tail; the next
    // open must recover cleanly (dropping only the torn record) and
    // serve what was durably written before the fault.
    let specs = soak_specs();
    let dir = scratch_dir("recover");
    {
        // Two appends land durably through a fault-free service.
        let healthy = Service::open(&ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        healthy.run(&specs[0]).unwrap();
        healthy.run(&specs[1]).unwrap();
        assert_eq!(healthy.metrics().store_records, 2);
    }
    {
        let plan = FaultPlan::parse("seed=5;store.append.short=1.0").unwrap();
        let faulty = Service::open(&ServiceConfig {
            cache_dir: Some(dir.clone()),
            fault: Some(Arc::new(FaultInjector::new(plan))),
            ..ServiceConfig::default()
        })
        .unwrap();
        // The torn append degrades the store but still answers.
        faulty.run(&specs[2]).unwrap();
        assert_eq!(faulty.metrics().store_degraded, 1);
    }
    // Reopen healthy: the two whole records survive, the torn tail is
    // dropped, and the service answers them without engine re-runs.
    let reopened = Service::open(&ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    reopened.run(&specs[0]).unwrap();
    reopened.run(&specs[1]).unwrap();
    let m = reopened.metrics();
    assert_eq!(m.cache_misses, 0, "recovered records were not served");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
