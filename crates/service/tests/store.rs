//! Integration tests for the persistent result store, driven entirely
//! through the public [`Service`] API and its two frontends: restart
//! byte-identity across all four variants (property-tested, and over
//! both TCP and HTTP with the served metrics intact), and corruption
//! recovery — truncated tails, flipped checksum bytes, and garbage
//! headers must cost records, never correctness or startup.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dsa_core::dist::VariantInstance;
use dsa_graphs::gen;
use dsa_runtime::json::Json;
use dsa_service::{
    wire, Client, GraphSpec, HttpClient, HttpServer, JobSpec, Server, Service, ServiceConfig,
};

/// A fresh per-test store directory (no tempfile dependency).
fn store_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dsa-store-it-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The store's single record log (found, not named, so the test does
/// not depend on the private file-name constant).
fn log_path(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 1, "store dir holds exactly the record log");
    files.pop().expect("one file")
}

fn persistent_cfg(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// One seeded instance of every variant.
fn four_variant_specs(seed: u64) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnp_connected(14 + (seed % 7) as usize, 0.3, &mut rng);
    let d = gen::random_digraph_connected(10 + (seed % 5) as usize, 0.15, &mut rng);
    let w = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
    let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
    vec![
        JobSpec::new(VariantInstance::Undirected { graph: g.clone() }, seed),
        JobSpec::new(VariantInstance::Directed { graph: d }, seed + 1),
        JobSpec::new(
            VariantInstance::Weighted {
                graph: g.clone(),
                weights: w,
            },
            seed + 2,
        ),
        JobSpec::new(
            VariantInstance::ClientServer {
                graph: g,
                clients,
                servers,
            },
            seed + 3,
        ),
    ]
}

/// Wire-encoded responses for `specs` against a service over `dir`,
/// plus the (misses, hits, disk hits) classification it ended with.
fn serve_all(
    dir: &Path,
    cache_capacity: usize,
    specs: &[JobSpec],
) -> (Vec<String>, (u64, u64, u64)) {
    let service = Service::new(&ServiceConfig {
        cache_capacity,
        ..persistent_cfg(dir)
    });
    let bodies = specs
        .iter()
        .map(|s| wire::encode_run_response(&service.run(s).expect("serve")))
        .collect();
    let m = service.metrics();
    assert_eq!(
        m.jobs_submitted,
        m.cache_hits + m.cache_misses + m.coalesced + m.shed,
        "classification invariant"
    );
    assert!(m.disk_hits <= m.cache_hits);
    (bodies, (m.cache_misses, m.cache_hits, m.disk_hits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A populated store, reopened, serves byte-identical responses
    /// for all four variants — through the warm LRU (ample capacity)
    /// and through the verified disk path (capacity starved) alike.
    #[test]
    fn reopened_store_serves_all_variants_byte_identically(seed in 0u64..200) {
        let dir = store_dir("prop");
        let specs = four_variant_specs(seed);
        let (cold, (misses, _, disk)) = serve_all(&dir, 256, &specs);
        prop_assert_eq!(misses, 4);
        prop_assert_eq!(disk, 0);
        // Restart 1: ample LRU — warm start answers from memory.
        let (warm, (misses, hits, disk)) = serve_all(&dir, 256, &specs);
        prop_assert_eq!(&warm, &cold);
        prop_assert_eq!((misses, hits, disk), (0, 4, 0));
        // Restart 2: starved LRU — the disk path must carry load,
        // with the same bytes.
        let (starved, (misses, hits, disk)) = serve_all(&dir, 1, &specs);
        prop_assert_eq!(&starved, &cold);
        prop_assert_eq!((misses, hits), (0, 4));
        prop_assert!(disk > 0, "expected verified disk hits, got none");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn truncated_tail_recovers_and_recomputes_only_the_lost_records() {
    let dir = store_dir("trunc");
    let specs = four_variant_specs(42);
    let (cold, _) = serve_all(&dir, 256, &specs);
    // Chop bytes off the end of the log: the tail record(s) die, the
    // prefix survives, startup succeeds, and every response still
    // matches its cold bytes (lost records are simply recomputed).
    let path = log_path(&dir);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();
    let (recovered, (misses, hits, _)) = serve_all(&dir, 1, &specs);
    assert_eq!(recovered, cold, "recovery must never change bytes");
    assert!(misses >= 1, "the truncated record must recompute");
    assert!(hits >= 1, "the intact prefix must still serve");
    // The recompute re-persisted the lost record: a further restart
    // serves everything from the store again.
    let (healed, (misses, _, disk)) = serve_all(&dir, 1, &specs);
    assert_eq!(healed, cold);
    assert_eq!(misses, 0);
    assert!(disk > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_skips_the_bad_record_not_the_startup() {
    let dir = store_dir("flip");
    let specs = four_variant_specs(7);
    let (cold, _) = serve_all(&dir, 256, &specs);
    // Flip one byte in the middle of the log (inside some record's
    // payload or checksum): that record fails verification and is
    // dropped; everything else keeps serving, and nothing wrong is
    // ever served.
    let path = log_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&path, &bytes).unwrap();
    let (recovered, (misses, hits, _)) = serve_all(&dir, 1, &specs);
    assert_eq!(
        recovered, cold,
        "a corrupt record must recompute, never lie"
    );
    assert!(misses >= 1, "the corrupted record must recompute");
    assert!(hits >= 1, "records before the flip must still serve");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_records_are_counted_and_exported() {
    // Regression test for the `store_records_dropped` metric: a
    // corrupted cache dir must surface the drop count through
    // `Service::metrics`, the JSON body of `GET /v1/metrics`, and the
    // Prometheus exposition — not just a log line.
    let dir = store_dir("dropcount");
    let specs = four_variant_specs(11);
    let (_, _) = serve_all(&dir, 256, &specs);
    let path = log_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&path, &bytes).unwrap();

    let service = Arc::new(Service::new(&persistent_cfg(&dir)));
    let m = service.metrics();
    assert!(
        m.store_records_dropped >= 1,
        "recovery dropped a corrupt record but the counter reads 0"
    );
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind http");
    let mut client = HttpClient::connect(http.addr()).expect("connect");
    let parsed = Json::parse(&client.metrics_json().expect("metrics")).expect("metrics json");
    let dropped = parsed
        .get("store_records_dropped")
        .and_then(Json::as_u64)
        .expect("store_records_dropped field");
    assert_eq!(dropped, m.store_records_dropped);
    let text = client.metrics_prometheus().expect("prometheus");
    assert!(
        text.contains(&format!("spanner_store_records_dropped_total {dropped}")),
        "exposition missing the dropped-records sample"
    );
    http.shutdown();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    // The named-graph log is recovered from the same directory and
    // counts into the same metric: a flipped checksum byte in an
    // otherwise intact `graphs.log` is exactly one dropped record.
    let dir = store_dir("dropcount-graphs");
    {
        let service = Service::new(&persistent_cfg(&dir));
        service
            .graph_create(GraphSpec {
                id: "g".into(),
                instance: VariantInstance::Undirected {
                    graph: dsa_graphs::Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]),
                },
                config: dsa_core::dist::EngineConfig::seeded(1),
            })
            .expect("create graph");
    }
    let graphs_log = dir.join("graphs.log");
    let mut bytes = std::fs::read(&graphs_log).expect("graphs.log exists");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x5a;
    std::fs::write(&graphs_log, &bytes).unwrap();
    let service = Service::new(&persistent_cfg(&dir));
    let m = service.metrics();
    assert_eq!(m.store_records_dropped, 1, "the graph-log drop is exported");
    assert!(m
        .to_prometheus()
        .contains("spanner_store_records_dropped_total 1\n"));
    assert!(
        service.graph_meta("g").is_err(),
        "a dropped create never replays"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_header_starts_fresh_without_failing() {
    let dir = store_dir("header");
    let specs = four_variant_specs(9);
    let (cold, _) = serve_all(&dir, 256, &specs);
    std::fs::write(log_path(&dir), b"\x00\x01\x02 this is not a store").unwrap();
    // Startup succeeds with an empty store; everything recomputes to
    // the same bytes and repopulates the log.
    let (recovered, (misses, _, disk)) = serve_all(&dir, 256, &specs);
    assert_eq!(recovered, cold);
    assert_eq!(misses, 4, "a dropped store recomputes everything");
    assert_eq!(disk, 0);
    let (warm, (misses, _, _)) = serve_all(&dir, 256, &specs);
    assert_eq!(warm, cold);
    assert_eq!(misses, 0, "the rewritten log must serve again");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_services_over_time_share_work_not_a_process() {
    // The store is the only channel between these two service
    // lifetimes, each served over both frontends: the second must not
    // re-run the engine at all and must answer byte-identically on
    // both surfaces, and `store_records` must count distinct keys, not
    // appends.
    let dir = store_dir("lifetimes");
    let specs = four_variant_specs(3);
    let (mut tcp_cold, mut http_cold) = (Vec::new(), Vec::new());
    {
        let service = Arc::new(Service::new(&persistent_cfg(&dir)));
        let server = Server::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind tcp");
        let http =
            HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind http");
        let mut tcp = Client::connect(server.addr()).expect("tcp connect");
        let mut hc = HttpClient::connect(http.addr()).expect("http connect");
        for s in &specs {
            tcp_cold.push(tcp.run_raw(s).unwrap());
            // The HTTP repeat is an in-memory hit: no new record.
            let (status, body) = hc.run_raw(s).unwrap();
            assert_eq!(status, 200);
            http_cold.push(body);
        }
        let m = service.metrics();
        assert_eq!(m.store_records, 4);
        assert_eq!(m.disk_hits, 0);
        assert_eq!(
            m.jobs_submitted,
            m.cache_hits + m.cache_misses + m.coalesced + m.shed
        );
        http.shutdown();
        server.shutdown();
    }
    // The reopened LRU is too small to warm-hold every record, so some
    // answers must travel the verified disk path.
    let service = Arc::new(Service::new(&ServiceConfig {
        cache_capacity: specs.len() / 2,
        ..persistent_cfg(&dir)
    }));
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind tcp");
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind http");
    let mut tcp = Client::connect(server.addr()).expect("tcp connect");
    let mut hc = HttpClient::connect(http.addr()).expect("http connect");
    for (i, s) in specs.iter().enumerate() {
        let kind = s.instance.kind();
        assert_eq!(
            tcp.run_raw(s).unwrap(),
            tcp_cold[i],
            "{kind}: TCP bytes changed"
        );
        let (status, body) = hc.run_raw(s).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, http_cold[i], "{kind}: HTTP bytes changed");
    }
    let m = service.metrics();
    assert_eq!(m.cache_misses, 0, "the restart re-ran the engine");
    assert!(m.disk_hits > 0, "expected verified disk hits, got none");
    assert!(m.disk_hits <= m.cache_hits);
    assert_eq!(m.store_records, 4);
    assert_eq!(
        m.jobs_submitted,
        m.cache_hits + m.cache_misses + m.coalesced + m.shed
    );

    // The same facts read back through the facade, in both formats.
    let json = hc.metrics_json().expect("metrics");
    let parsed = Json::parse(&json).expect("metrics json");
    let field = |k: &str| parsed.get(k).and_then(Json::as_u64).expect(k);
    assert_eq!(
        field("jobs_submitted"),
        field("cache_hits") + field("cache_misses") + field("coalesced") + field("jobs_shed"),
        "served metrics violate the invariant: {json}"
    );
    assert!(field("disk_hits") > 0, "served metrics report no disk hits");
    let text = hc.metrics_prometheus().expect("prometheus");
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
    ] {
        assert!(text.lines().any(|l| l == line), "exposition lacks `{line}`");
    }
    http.shutdown();
    server.shutdown();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
