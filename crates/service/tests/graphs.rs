//! Integration tests for named long-lived graphs: the lifecycle over
//! both surfaces, the determinism contract (any insert/delete
//! interleaving serves a spanner byte-identical to a from-scratch
//! solve of the final edge set — property-tested on all four
//! variants), a 1000-delta insert stream whose incremental upkeep must
//! beat from-scratch solves, a warm restart that re-serves every
//! graph's spanner byte-identically from the store, crash-mid-PATCH
//! recovery of the graph delta log, the live-graph gauge under
//! concurrent create/delete churn, and the v1-vs-v2 protocol
//! regression (old clients keep working against a v2 server).

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dsa_core::dist::{EngineConfig, VariantInstance, VariantKind};
use dsa_graphs::{gen, DiGraph, EdgeSet, EdgeWeights, Graph};
use dsa_service::{
    wire, Client, DeltaOp, EdgeRole, GraphSpec, HttpClient, HttpServer, JobError, JobSpec, Server,
    Service, ServiceConfig,
};

/// A fresh per-test store directory (no tempfile dependency).
fn store_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dsa-graphs-it-{}-{tag}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persistent_cfg(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// A client-side mirror of a graph's live edge list, in registry
/// live-id order: pairs normalized the way the graph constructors
/// store them (`(min, max)` except directed), plus variant extras.
#[derive(Clone)]
struct Mirror {
    kind: VariantKind,
    n: usize,
    recs: Vec<(usize, usize, u64, bool, bool)>,
}

impl Mirror {
    fn of(instance: &VariantInstance) -> Mirror {
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
        Mirror { kind, n, recs }
    }

    fn pair(&self, u: usize, v: usize) -> (usize, usize) {
        if self.kind == VariantKind::Directed {
            (u, v)
        } else {
            (u.min(v), u.max(v))
        }
    }

    fn position(&self, u: usize, v: usize) -> Option<usize> {
        let p = self.pair(u, v);
        self.recs.iter().position(|r| (r.0, r.1) == p)
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
        let i = self.position(u, v).expect("deleting a live edge");
        // The registry compacts by dropping the record and shifting
        // the tail down one id; `Vec::remove` is exactly that.
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

/// One small seeded instance per variant, sized for property cases.
fn variant_instances(seed: u64) -> Vec<VariantInstance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnp_connected(10 + (seed % 5) as usize, 0.35, &mut rng);
    let d = gen::random_digraph_connected(8 + (seed % 4) as usize, 0.2, &mut rng);
    let w = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
    let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
    vec![
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
    ]
}

/// Asserts the maintained spanner is byte-identical (over its wire
/// encoding) to a from-scratch solve of the mirror's edge set.
fn assert_matches_from_scratch(service: &Service, id: &str, mirror: &Mirror, seed: u64) {
    let gs = service.graph_spanner(id).expect("spanner");
    let resp = service
        .run(&JobSpec::new(mirror.instance(), seed))
        .expect("from-scratch solve");
    assert_eq!(gs.key, resp.key, "{id}: cache key diverged");
    let want: Vec<(usize, usize)> = resp
        .spanner
        .iter()
        .map(|&e| (mirror.recs[e].0, mirror.recs[e].1))
        .collect();
    assert_eq!(gs.edges, want, "{id}: spanner edges diverged");
    // Equal structs are a necessary condition; the guarantee is stated
    // over bytes, so compare the actual wire encoding too.
    let mut scratch = gs.clone();
    scratch.edges = want;
    assert_eq!(
        wire::encode_graph_spanner_response(&gs),
        wire::encode_graph_spanner_response(&scratch),
        "{id}: wire bytes diverged"
    );
}

#[test]
fn lifecycle_works_across_tcp_and_http() {
    // One service, both frontends — create over TCP, read and patch
    // over HTTP, spanners byte-identical on both surfaces, retire over
    // HTTP, both surfaces then answer not-found.
    let service = Arc::new(Service::new(&ServiceConfig::default()));
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind tcp");
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind http");
    let mut tcp = Client::connect(server.addr()).expect("tcp connect");
    let mut hc = HttpClient::connect(http.addr()).expect("http connect");

    let instance = variant_instances(3).remove(0);
    let spec = GraphSpec {
        id: "life".to_string(),
        instance: instance.clone(),
        config: EngineConfig::seeded(3),
    };
    let created = tcp.graph_create(&spec).expect("create");
    assert!(!created.existed);
    assert_eq!(created.version, 0);
    assert!(created.spanner_size > 0);
    let again = hc.graph_create(&spec).expect("re-create");
    assert!(again.existed, "HTTP re-create was not idempotent");

    let mut mirror = Mirror::of(&instance);
    let meta = hc.graph_get("life").expect("get");
    assert_eq!((meta.version, meta.edges), (0, mirror.recs.len()));

    // Insert one absent pair over HTTP, delete one live edge over TCP.
    let (mut fu, mut fv) = (0, 1);
    'scan: for u in 0..mirror.n {
        for v in (u + 1)..mirror.n {
            if mirror.position(u, v).is_none() {
                (fu, fv) = (u, v);
                break 'scan;
            }
        }
    }
    let patched = hc
        .graph_patch(
            "life",
            &[DeltaOp::Insert {
                u: fu,
                v: fv,
                weight: None,
                role: None,
            }],
        )
        .expect("http patch");
    mirror.insert(fu, fv, 0, None);
    assert_eq!((patched.version, patched.edges), (1, mirror.recs.len()));
    let (du, dv) = {
        let r = mirror.recs[0];
        (r.0, r.1)
    };
    let patched = tcp
        .graph_patch("life", &[DeltaOp::Delete { u: du, v: dv }])
        .expect("tcp patch");
    mirror.delete(du, dv);
    assert_eq!((patched.version, patched.edges), (2, mirror.recs.len()));

    // Both surfaces serve the same spanner for the same version.
    let t = tcp.graph_spanner("life").expect("tcp spanner");
    let h = hc.graph_spanner("life").expect("http spanner");
    assert_eq!(t.version, 2);
    assert_eq!((t.key, &t.edges), (h.key, &h.edges));
    assert_matches_from_scratch(&service, "life", &mirror, 3);

    hc.graph_delete("life").expect("delete");
    assert!(
        tcp.graph_get("life").is_err(),
        "TCP still serves a retired graph"
    );
    assert!(
        hc.graph_get("life").is_err(),
        "HTTP still serves a retired graph"
    );
    match tcp.graph_patch("life", &[DeltaOp::Delete { u: du, v: dv }]) {
        Err(JobError::Remote(_)) => {}
        other => panic!("patch of a retired graph: expected an error, got {other:?}"),
    }

    http.shutdown();
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The determinism contract: whatever interleaving of inserts and
    /// deletes a graph lives through, the spanner it serves is
    /// byte-identical to a from-scratch solve of the final edge set —
    /// for every variant.
    #[test]
    fn any_interleaving_serves_the_from_scratch_spanner(
        seed in 0u64..100,
        script in proptest::collection::vec((0usize..2, 0usize..64, 0usize..64), 1..14),
    ) {
        let service = Service::new(&ServiceConfig::default());
        for (i, instance) in variant_instances(seed).into_iter().enumerate() {
            let kind = instance.kind();
            let id = format!("prop-{kind}");
            let job_seed = seed + i as u64;
            service
                .graph_create(GraphSpec {
                    id: id.clone(),
                    instance: instance.clone(),
                    config: EngineConfig::seeded(job_seed),
                })
                .expect("create");
            let mut mirror = Mirror::of(&instance);
            for &(del, a, b) in &script {
                let is_delete = del == 1;
                let (u, v) = (a % mirror.n, b % mirror.n);
                if u == v {
                    continue;
                }
                let live = mirror.position(u, v).is_some();
                let op = if is_delete && live {
                    DeltaOp::Delete { u, v }
                } else if !is_delete && !live {
                    let (weight, role) = match kind {
                        VariantKind::Weighted => (Some((a + b) as u64 % 10), None),
                        VariantKind::ClientServer => (None, Some(EdgeRole::Both)),
                        _ => (None, None),
                    };
                    DeltaOp::Insert { u, v, weight, role }
                } else {
                    continue;
                };
                // Deleting the last edge would leave an instance the
                // engine rejects; keep at least one live edge.
                if matches!(op, DeltaOp::Delete { .. }) && mirror.recs.len() == 1 {
                    continue;
                }
                service
                    .graph_patch(&id, std::slice::from_ref(&op))
                    .expect("patch");
                match op {
                    DeltaOp::Insert { u, v, weight, role } => {
                        mirror.insert(u, v, weight.unwrap_or(0), role)
                    }
                    DeltaOp::Delete { u, v } => mirror.delete(u, v),
                }
            }
            assert_matches_from_scratch(&service, &id, &mirror, job_seed);
        }
    }
}

#[test]
fn delta_stream_commutes_and_every_graph_survives_a_warm_restart() {
    let dir = store_dir("stream");
    let service = Arc::new(Service::open(&persistent_cfg(&dir)).expect("open"));
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind tcp");
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind http");
    let mut tcp = Client::connect(server.addr()).expect("tcp connect");
    let mut hc = HttpClient::connect(http.addr()).expect("http connect");

    // One graph per variant, created over TCP and patched over HTTP
    // with one insert and one delete. A patch containing a delete
    // invalidates the cover, so both of its ops classify recomputed.
    let mut ids = Vec::new();
    for (i, instance) in variant_instances(21).into_iter().enumerate() {
        let kind = instance.kind();
        let (id, seed) = (format!("var-{kind}"), 21 + i as u64);
        let spec = GraphSpec {
            id: id.clone(),
            instance: instance.clone(),
            config: EngineConfig::seeded(seed),
        };
        assert!(!tcp.graph_create(&spec).expect("create").existed);
        let mut mirror = Mirror::of(&instance);
        let (du, dv) = {
            let r = mirror.recs[mirror.recs.len() - 1];
            (r.0, r.1)
        };
        let (fu, fv) = (0..mirror.n)
            .flat_map(|u| ((u + 1)..mirror.n).map(move |v| (u, v)))
            .find(|&(u, v)| mirror.position(u, v).is_none())
            .expect("an absent pair to insert");
        let (weight, role) = match kind {
            VariantKind::Weighted => (Some(5), None),
            VariantKind::ClientServer => (None, Some(EdgeRole::Both)),
            _ => (None, None),
        };
        let ops = [
            DeltaOp::Insert {
                u: fu,
                v: fv,
                weight,
                role,
            },
            DeltaOp::Delete { u: du, v: dv },
        ];
        let patched = hc.graph_patch(&id, &ops).expect("patch");
        mirror.insert(fu, fv, weight.unwrap_or(0), role);
        mirror.delete(du, dv);
        assert_eq!(
            (patched.version, patched.applied, patched.edges),
            (2, 2, mirror.recs.len()),
            "{kind} patch"
        );
        assert_eq!(
            patched.classes.recomputed, 2,
            "{kind}: {:?}",
            patched.classes
        );
        assert_matches_from_scratch(&service, &id, &mirror, seed);
        ids.push(id);
    }

    // A 1000-delta insert stream against a star graph, one op per
    // patch over TCP. Spoke-to-spoke chords commute through the
    // centre's covering 2-paths; pendant edges to fresh vertices need
    // repair, and once accumulated repair debt crosses the threshold
    // the registry recomputes — so the stream exercises all three
    // classes.
    const SPOKES: usize = 300;
    const CHORDS: usize = 700;
    const PENDANTS: usize = 300;
    const STREAM_SEED: u64 = 11;
    let star = VariantInstance::Undirected {
        graph: Graph::from_edges(1 + SPOKES + PENDANTS, (1..=SPOKES).map(|v| (0, v))),
    };
    let created = tcp
        .graph_create(&GraphSpec {
            id: "stream".to_string(),
            instance: star.clone(),
            config: EngineConfig::seeded(STREAM_SEED),
        })
        .expect("stream create");
    assert!(!created.existed);
    // Chords in lexicographic order over spoke pairs, then pendants,
    // each joining a spoke to a brand-new vertex.
    let mut ops: Vec<(usize, usize)> = (1..=SPOKES)
        .flat_map(|u| ((u + 1)..=SPOKES).map(move |v| (u, v)))
        .take(CHORDS)
        .collect();
    ops.extend((0..PENDANTS).map(|j| (1 + (j % SPOKES), 1 + SPOKES + j)));
    let mut mirror = Mirror::of(&star);
    let maintenance = Instant::now();
    for &(u, v) in &ops {
        let op = DeltaOp::Insert {
            u,
            v,
            weight: None,
            role: None,
        };
        tcp.graph_patch("stream", &[op])
            .unwrap_or_else(|e| panic!("stream patch +{u} {v}: {e}"));
        mirror.insert(u, v, 0, None);
    }
    let maintenance = maintenance.elapsed().as_secs_f64();
    let meta = tcp.graph_get("stream").expect("stream get");
    assert_eq!(
        (meta.version, meta.edges),
        (ops.len() as u64, SPOKES + ops.len())
    );
    let classes = meta.classes;
    assert_eq!(
        classes.commuted + classes.repaired + classes.recomputed,
        ops.len() as u64,
        "{classes:?}"
    );
    // A stream that is >= 50% covered inserts must commute that share.
    assert!(
        classes.commuted >= ops.len() as u64 / 2,
        "expected >= {} commuted deltas: {classes:?}",
        ops.len() / 2
    );
    assert!(
        classes.repaired > 0 && classes.recomputed > 0,
        "the stream must exercise repair and recompute too: {classes:?}"
    );
    assert_matches_from_scratch(&service, "stream", &mirror, STREAM_SEED);

    // Maintenance must beat recomputing from scratch after every
    // delta. Estimate the per-delta solve cost by timing fresh solves
    // of prefix snapshots (distinct cache keys, so every one is a real
    // engine run) and extrapolating to one solve per delta.
    let prefixes = [100, 300, 500, 700, 900];
    let solves = Instant::now();
    for &p in &prefixes {
        let mut snap = Mirror::of(&star);
        for &(u, v) in &ops[..p] {
            snap.insert(u, v, 0, None);
        }
        tcp.run(&JobSpec::new(snap.instance(), STREAM_SEED))
            .unwrap_or_else(|e| panic!("prefix {p} solve: {e}"));
    }
    let per_solve = solves.elapsed().as_secs_f64() / prefixes.len() as f64;
    let extrapolated = per_solve * ops.len() as f64;
    assert!(
        maintenance < extrapolated,
        "incremental maintenance ({maintenance:.3}s for {} deltas) did not beat {} \
         extrapolated from-scratch solves ({extrapolated:.3}s)",
        ops.len(),
        ops.len()
    );
    // The delta-classification summary, one JSON line on stdout.
    println!(
        "{{\"graphs_self_check\":{{\"deltas\":{},\"commuted\":{},\"repaired\":{},\
         \"recomputed\":{},\"maintenance_secs\":{maintenance:.6},\
         \"per_solve_secs\":{per_solve:.6},\"extrapolated_secs\":{extrapolated:.6}}}}}",
        ops.len(),
        classes.commuted,
        classes.repaired,
        classes.recomputed,
    );
    ids.push("stream".to_string());

    // The per-graph gauges, as served.
    let text = hc.metrics_prometheus().expect("prometheus");
    let live = format!("spanner_graphs_live {}", ids.len());
    assert!(text.lines().any(|l| l == live), "exposition lacks `{live}`");
    let commuted: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("spanner_graph_deltas_by_class_total{class=\"commuted\"} "))
        .expect("commuted delta counter")
        .parse()
        .expect("commuted counter parses");
    assert!(
        commuted >= classes.commuted,
        "service-wide {commuted} < stream's"
    );

    // Capture every graph's spanner bytes on both surfaces, then
    // restart on the same directory.
    let mut raws = Vec::new();
    for id in &ids {
        let version = tcp.graph_get(id).expect("get").version;
        let t = tcp.graph_spanner_raw(id).expect("tcp spanner");
        let (status, h) = hc.graph_spanner_raw(id).expect("http spanner");
        assert_eq!(status, 200, "{id}");
        raws.push((version, t, h));
    }
    http.shutdown();
    server.shutdown();
    drop((tcp, hc, service));

    // Warm restart: replaying the create+delta log rebuilds every
    // graph, and both surfaces re-serve every spanner byte-identically
    // from the store, without engine runs. The reopened LRU is too
    // small to warm-hold every record, so some answers must travel the
    // verified disk path.
    let service = Arc::new(
        Service::open(&ServiceConfig {
            cache_capacity: 2,
            ..persistent_cfg(&dir)
        })
        .expect("reopen"),
    );
    assert_eq!(service.graphs_live(), ids.len());
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind tcp");
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind http");
    let mut tcp = Client::connect(server.addr()).expect("tcp reconnect");
    let mut hc = HttpClient::connect(http.addr()).expect("http reconnect");
    for (id, (version, t, h)) in ids.iter().zip(&raws) {
        assert_eq!(tcp.graph_get(id).expect("get").version, *version, "{id}");
        let t2 = tcp.graph_spanner_raw(id).expect("tcp spanner");
        assert_eq!(&t2, t, "{id}: TCP spanner not byte-identical after restart");
        let (status, h2) = hc.graph_spanner_raw(id).expect("http spanner");
        assert_eq!(status, 200, "{id}");
        assert_eq!(
            &h2, h,
            "{id}: HTTP spanner not byte-identical after restart"
        );
    }
    let m = service.metrics();
    assert_eq!(
        m.cache_misses, 0,
        "post-restart spanner reads ran the engine"
    );
    assert!(
        m.disk_hits > 0,
        "post-restart reads never touched the store"
    );
    http.shutdown();
    server.shutdown();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: `spanner_graphs_live` was once pushed after the registry
/// lock was released, so two racing creates or deletes could store
/// their counts out of order and leave the gauge stale. Sampled at
/// snapshot time, it matches the registry after any interleaving. Each
/// phase starts all eight threads together on one create or delete
/// apiece; thread 0 records any stale gauge while the others wait for
/// the next phase (recorded, not asserted, so a stale gauge cannot
/// strand them at the barrier).
#[test]
fn graphs_live_gauge_matches_the_registry_after_concurrent_churn() {
    const THREADS: usize = 8;
    const PHASES: usize = 1000;
    let service = Service::new(&ServiceConfig::default());
    let instance = VariantInstance::Undirected {
        graph: gen::complete(4),
    };
    let barrier = std::sync::Barrier::new(THREADS);
    let stale = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (service, instance, barrier) = (&service, &instance, &barrier);
                scope.spawn(move || {
                    let mut stale = Vec::new();
                    for phase in 0..PHASES {
                        barrier.wait();
                        if phase % 2 == 0 {
                            service
                                .graph_create(GraphSpec {
                                    id: format!("churn-{t}-{phase}"),
                                    instance: instance.clone(),
                                    config: EngineConfig::seeded(1),
                                })
                                .expect("create");
                        } else if t % 2 == 1 {
                            // Odd threads delete what they just created.
                            let id = format!("churn-{t}-{}", phase - 1);
                            service.graph_delete(&id).expect("delete");
                        }
                        barrier.wait();
                        if t == 0 {
                            let (gauge, live) =
                                (service.metrics().graphs_live, service.graphs_live());
                            if gauge != live as u64 {
                                stale.push((phase, gauge, live));
                            }
                        }
                    }
                    stale
                })
            })
            .collect();
        let stale: Vec<Vec<_>> = handles
            .into_iter()
            .map(|h| h.join().expect("churn thread"))
            .collect();
        stale.concat()
    });
    assert!(
        stale.is_empty(),
        "(phase, gauge, live) went stale: {stale:?}"
    );
    let live = service.graphs_live();
    assert_eq!(live, THREADS / 2 * PHASES / 2);
    let m = service.metrics();
    assert_eq!(m.graphs_live, live as u64);
    let line = format!("spanner_graphs_live {live}");
    assert!(
        m.to_prometheus().lines().any(|l| l == line),
        "exposition lacks `{line}`"
    );
}

#[test]
fn crash_mid_patch_recovers_the_intact_prefix() {
    let dir = store_dir("crash");
    let instance = variant_instances(9).remove(0);
    let mut mirror = Mirror::of(&instance);
    let (mut inserts, mut probe) = (Vec::new(), Mirror::of(&instance));
    'scan: for u in 0..mirror.n {
        for v in (u + 1)..mirror.n {
            if probe.position(u, v).is_none() {
                probe.insert(u, v, 0, None);
                inserts.push((u, v));
                if inserts.len() == 3 {
                    break 'scan;
                }
            }
        }
    }
    assert_eq!(inserts.len(), 3, "instance too dense for the test");

    {
        let service = Service::open(&persistent_cfg(&dir)).expect("open");
        service
            .graph_create(GraphSpec {
                id: "crash".to_string(),
                instance: instance.clone(),
                config: EngineConfig::seeded(9),
            })
            .expect("create");
        for &(u, v) in &inserts {
            service
                .graph_patch(
                    "crash",
                    &[DeltaOp::Insert {
                        u,
                        v,
                        weight: None,
                        role: None,
                    }],
                )
                .expect("patch");
        }
    } // crash point: service drops, log holds create + 3 patches

    // Simulate a crash mid-PATCH append: a length header promising 400
    // bytes followed by a torn fragment of a record.
    let log = dir.join("graphs.log");
    let mut bytes = std::fs::read(&log).expect("graphs.log exists");
    let intact = bytes.len();
    bytes.extend_from_slice(&400u32.to_be_bytes());
    bytes.extend_from_slice(b"graph-patch v2\nid crash\ntorn");
    std::fs::write(&log, &bytes).expect("append torn tail");

    // Warm restart: the torn tail is dropped, the intact prefix
    // replays, and the graph serves exactly the prefix's edge set.
    let service = Service::open(&persistent_cfg(&dir)).expect("reopen after torn tail");
    for &(u, v) in &inserts {
        mirror.insert(u, v, 0, None);
    }
    let meta = service.graph_meta("crash").expect("meta after recovery");
    assert_eq!(meta.version, inserts.len() as u64);
    assert_eq!(meta.edges, mirror.recs.len());
    assert_matches_from_scratch(&service, "crash", &mirror, 9);

    // Recovery truncated the log back to the intact prefix, so the
    // next patch appends cleanly and survives another restart.
    assert_eq!(
        std::fs::metadata(&log).expect("log").len(),
        intact as u64,
        "torn tail must be truncated away"
    );
    let (u, v) = {
        let r = mirror.recs[0];
        (r.0, r.1)
    };
    service
        .graph_patch("crash", &[DeltaOp::Delete { u, v }])
        .expect("patch after recovery");
    mirror.delete(u, v);
    drop(service);

    let service = Service::open(&persistent_cfg(&dir)).expect("second reopen");
    let meta = service.graph_meta("crash").expect("meta");
    assert_eq!(meta.version, inserts.len() as u64 + 1);
    assert_matches_from_scratch(&service, "crash", &mirror, 9);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_clients_are_still_served_by_a_v2_server() {
    let server = Server::start("127.0.0.1:0", &ServiceConfig::default()).expect("bind");

    // A raw v1 peer: offers `hello v1`, must be answered with
    // `proto 1` and no feature tokens — the pre-handshake protocol.
    let mut raw = TcpStream::connect(server.addr()).expect("raw connect");
    wire::write_frame(&mut raw, wire::encode_hello_request(1).as_bytes()).expect("send hello v1");
    let reply = wire::read_frame(&mut raw)
        .expect("read hello reply")
        .expect("server closed");
    assert_eq!(reply, wire::encode_hello_response(1, &[]).as_bytes());

    // A v1 client that never says hello at all: plain `run v1` frames
    // keep working unchanged on the same connection.
    let spec = JobSpec::new(variant_instances(5).remove(0), 5);
    wire::write_frame(&mut raw, wire::encode_request(&spec).as_bytes()).expect("send run");
    let reply = wire::read_frame(&mut raw)
        .expect("read run reply")
        .expect("server closed");
    let v1_resp = match wire::decode_response(&reply).expect("decode run response") {
        wire::Response::Run(resp) => resp,
        other => panic!("expected a run response, got {other:?}"),
    };
    assert!(v1_resp.converged);

    // A v2 client on a fresh connection negotiates up and sees the
    // graphs feature; its runs return the same bytes as the v1 path.
    let mut v2 = Client::connect(server.addr()).expect("v2 connect");
    assert_eq!(v2.hello().expect("hello"), (2, vec!["graphs".to_string()]));
    let v2_raw = v2.run_raw(&spec).expect("v2 run");
    assert_eq!(v2_raw, wire::encode_run_response(&v1_resp).as_bytes());

    server.shutdown();
}

#[test]
fn http_graph_create_strips_execution_policy_like_tcp() {
    // Shards are execution policy, not part of a graph's definition:
    // both clients drop them from the create they send, so the two
    // creates are one definition and the second finds the first.
    let service = Arc::new(Service::new(&ServiceConfig::default()));
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind tcp");
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind http");
    let mut spec = GraphSpec {
        id: "wide".to_string(),
        instance: variant_instances(5).remove(0),
        config: EngineConfig::seeded(5),
    };
    spec.config.num_shards = 8;
    let mut hc = HttpClient::connect(http.addr()).expect("http connect");
    let created = hc.graph_create(&spec).expect("HTTP create with shards");
    assert!(!created.existed);
    let mut tcp = Client::connect(server.addr()).expect("tcp connect");
    let again = tcp.graph_create(&spec).expect("TCP create with shards");
    assert!(again.existed, "the two clients sent different definitions");
    http.shutdown();
    server.shutdown();
}

#[test]
fn http_graph_patch_refuses_an_insert_after_a_delete() {
    // A JSON patch body applies its inserts before its deletes, so it
    // cannot carry `- u v` then `+ u v`: the HTTP client refuses the
    // batch instead of sending a reordered one. A text frame keeps the
    // order, so the TCP client applies it.
    let service = Arc::new(Service::new(&ServiceConfig::default()));
    let server = Server::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind tcp");
    let http = HttpServer::with_service("127.0.0.1:0", Arc::clone(&service)).expect("bind http");
    let instance = variant_instances(6).remove(0);
    let (u, v) = {
        let first = Mirror::of(&instance).recs[0];
        (first.0, first.1)
    };
    let spec = GraphSpec {
        id: "order".to_string(),
        instance,
        config: EngineConfig::seeded(6),
    };
    let mut tcp = Client::connect(server.addr()).expect("tcp connect");
    tcp.graph_create(&spec).expect("create");
    let ops = [
        DeltaOp::Delete { u, v },
        DeltaOp::Insert {
            u,
            v,
            weight: None,
            role: None,
        },
    ];
    let mut hc = HttpClient::connect(http.addr()).expect("http connect");
    match hc.graph_patch("order", &ops) {
        Err(JobError::Protocol(m)) => assert!(m.contains("split"), "{m}"),
        other => panic!("HTTP sent a reordered patch: {other:?}"),
    }
    let patched = tcp
        .graph_patch("order", &ops)
        .expect("TCP applies the batch in order");
    assert_eq!((patched.version, patched.applied), (2, 2));
    http.shutdown();
    server.shutdown();
}
