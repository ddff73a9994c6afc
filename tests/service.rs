//! Integration tests of the `dsa-service` serving subsystem: a live
//! TCP server on an ephemeral port driven concurrently by client
//! threads across all four variants, with outputs checked by the
//! independent verifiers, counters reconciled, determinism asserted
//! across worker counts, and an invalid spec answered with a wire
//! error on a connection that keeps working.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use spanner_repro::core::dist::VariantInstance;
use spanner_repro::core::verify::{
    is_client_server_2_spanner, is_k_spanner, is_k_spanner_directed,
};
use spanner_repro::graphs::{gen, EdgeSet, Graph};
use spanner_repro::service::{Client, JobError, JobSpec, Server, Service, ServiceConfig};

/// One seeded spec per variant (plus a second undirected instance so
/// concurrency exceeds the variant count).
fn workload(seed: u64) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnp_connected(30, 0.22, &mut rng);
    let d = gen::random_digraph_connected(22, 0.1, &mut rng);
    let w = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
    let (clients, servers) = gen::client_server_split(&g, 0.65, 0.65, &mut rng);
    let g2 = gen::gnp_connected(26, 0.3, &mut rng);
    vec![
        JobSpec::new(VariantInstance::Undirected { graph: g.clone() }, 11),
        JobSpec::new(VariantInstance::Directed { graph: d }, 12),
        JobSpec::new(
            VariantInstance::Weighted {
                graph: g.clone(),
                weights: w,
            },
            13,
        ),
        JobSpec::new(
            VariantInstance::ClientServer {
                graph: g,
                clients,
                servers,
            },
            14,
        ),
        JobSpec::new(VariantInstance::Undirected { graph: g2 }, 15),
    ]
}

/// Checks a response against the independent verifier for its spec.
fn assert_valid(spec: &JobSpec, spanner_ids: &[usize]) {
    match &spec.instance {
        VariantInstance::Undirected { graph } => {
            let h = EdgeSet::from_iter(graph.num_edges(), spanner_ids.iter().copied());
            assert!(is_k_spanner(graph, &h, 2));
        }
        VariantInstance::Weighted { graph, .. } => {
            let h = EdgeSet::from_iter(graph.num_edges(), spanner_ids.iter().copied());
            assert!(is_k_spanner(graph, &h, 2));
        }
        VariantInstance::Directed { graph } => {
            let h = EdgeSet::from_iter(graph.num_edges(), spanner_ids.iter().copied());
            assert!(is_k_spanner_directed(graph, &h, 2));
        }
        VariantInstance::ClientServer {
            graph,
            clients,
            servers,
        } => {
            let h = EdgeSet::from_iter(graph.num_edges(), spanner_ids.iter().copied());
            assert!(h.is_subset_of(servers));
            assert!(is_client_server_2_spanner(graph, clients, servers, &h));
        }
    }
}

#[test]
fn wire_serves_variants_concurrently_and_counters_reconcile() {
    let server = Server::start(
        "127.0.0.1:0",
        &ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    let specs = workload(1);
    // One client thread per spec; each runs its spec twice (second
    // pass exercises the cache) and byte-compares the raw responses.
    std::thread::scope(|scope| {
        for spec in &specs {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let resp = client.run(spec).expect("run");
                assert!(
                    resp.converged,
                    "{:?} did not converge",
                    spec.instance.kind()
                );
                assert_eq!(resp.kind, spec.instance.kind());
                assert_valid(spec, &resp.spanner);
                let cold = spanner_repro::service::wire::encode_run_response(&resp);
                let warm = client.run_raw(spec).expect("cached run");
                assert_eq!(
                    cold.as_bytes(),
                    &warm[..],
                    "cache hit not byte-identical for {}",
                    spec.instance.kind()
                );
            });
        }
    });

    let m = server.service().metrics();
    // Every submission is classified exactly once: jobs = hits +
    // misses + coalesced + shed. Distinct specs per thread mean no
    // cross-thread duplicates, and the second pass of each thread is
    // strictly after its first, so nothing can coalesce; the default
    // queue is deep enough that nothing is shed.
    assert_eq!((m.coalesced, m.shed), (0, 0));
    assert_eq!(
        m.jobs_submitted,
        m.cache_hits + m.cache_misses + m.coalesced + m.shed
    );
    assert_eq!(m.cache_misses, specs.len() as u64);
    assert_eq!(m.cache_hits, specs.len() as u64);
    assert_eq!(m.jobs_completed, m.jobs_submitted);
    assert!(m.p95_latency_us >= m.p50_latency_us);
    server.shutdown();
}

#[test]
fn serving_is_deterministic_across_worker_counts() {
    let specs = workload(2);
    let results: Vec<Vec<Vec<usize>>> = [1usize, 4, 8]
        .iter()
        .map(|&workers| {
            let service = Arc::new(Service::new(&ServiceConfig {
                workers,
                ..ServiceConfig::default()
            }));
            // Submit everything concurrently to stress scheduling.
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| service.submit(spec).expect("submit"))
                .collect();
            handles
                .into_iter()
                .map(|h| h.wait().expect("wait").spanner)
                .collect()
        })
        .collect();
    assert_eq!(
        results[0], results[1],
        "1 worker vs 4 workers changed spanners"
    );
    assert_eq!(
        results[0], results[2],
        "1 worker vs 8 workers changed spanners"
    );
    // And the spanners are the real thing, not just consistent noise.
    for (spec, ids) in specs.iter().zip(&results[0]) {
        assert_valid(spec, ids);
    }
}

#[test]
fn wire_stats_and_ping_roundtrip() {
    let server = Server::start("127.0.0.1:0", &ServiceConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("ping");
    let specs = workload(3);
    client.run(&specs[0]).expect("run");
    let json = client.stats_json().expect("stats");
    assert!(json.contains("\"jobs_submitted\":1"), "stats: {json}");
    assert!(json.contains("\"cache_hit_rate\""), "stats: {json}");

    // An invalid spec is a wire error, not a dead server: the same
    // connection still answers afterwards.
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
        Err(JobError::Remote(_)) => {}
        other => panic!("invalid spec: expected a remote error, got {other:?}"),
    }
    client.ping().expect("ping after a remote error");
    server.shutdown();
}

#[test]
fn per_job_timeout_is_honored_without_poisoning_the_job() {
    let service = Service::new(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let specs = workload(4);
    // Pin the single worker with a job, then give the next job a
    // deadline it cannot meet while queued.
    let pin = service.submit(&specs[0]).expect("submit");
    let mut hurried = specs[4].clone();
    hurried.timeout = Some(Duration::from_nanos(1));
    let doomed = service.submit(&hurried).expect("submit");
    match doomed.wait() {
        Err(JobError::TimedOut) => {}
        Ok(_) => {} // single-core schedulers may still win the race
        Err(e) => panic!("expected TimedOut, got {e}"),
    }
    pin.wait().expect("pinned job");
    // The timed-out job is not poisoned: resubmitting yields the
    // normal result.
    let resp = service.run(&specs[4]).expect("resubmit");
    assert_valid(&specs[4], &resp.spanner);
}
