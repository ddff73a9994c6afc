//! `graph-churn`: a warm restart of eight named graphs (two per variant,
//! m ≈ 3k) from a pre-filled `graphs.log` and `results.log`, then a
//! closed loop of two clients that each own one graph per variant, one
//! over TCP v2 frames and one over HTTP `/v1/graphs`, in lockstep rounds
//! (so a write runs beside a write and a read beside a read of the same
//! variant). Each graph cycles through
//! two single-edge insert PATCHes, one PATCH deleting two live edges
//! (so m stays level), and a GET of the maintained spanner, which
//! re-solves the changed edge set.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use dsa_core::dist::{EngineConfig, VariantInstance, VariantKind};
use dsa_graphs::{DiGraph, EdgeSet, EdgeWeights, Graph};
use dsa_service::wire::{self, Response};
use dsa_service::{
    http, DeltaClasses, DeltaOp, EdgeRole, GraphPatched, GraphSpannerResult, GraphSpec, JobSpec,
    Service, ServiceConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    self, closed_loop, digest, in_process, mix, open_median, Client, Counters, Finished, Op, Req,
    Surface, Until, WorkDir, THREADS,
};
use crate::jobs;
use crate::layers::{self, Traced};
use crate::reference::{self, EngineWork};
use crate::{Args, Outcome};

/// Graph shapes `(vertices, edges)` per variant.
const SHAPES: [(usize, usize); 4] = [(250, 3_100), (180, 3_200), (250, 3_100), (250, 3_100)];
/// Graphs per client: one per variant.
const OWNED: usize = 4;
/// Requests per graph cycle: two inserts, one delete patch, one read.
const CYCLE: usize = 4;
const DELETES: usize = 2;
/// Warm restarts per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Cycles per graph written before the restart.
const HISTORY: usize = 6;
/// Requests per client in the exact-count set and the layer pass: two
/// cycles of every owned graph.
const QUALITY: usize = 2 * CYCLE * OWNED;
/// LRU entries: the cache fills early in a run, so the peak resident
/// set does not depend on how many reads the run completes.
const CACHE: usize = 64;

/// One live edge, as the registry keeps it.
#[derive(Clone, Copy, Debug)]
struct Edge {
    u: usize,
    v: usize,
    weight: u64,
    client: bool,
    server: bool,
}

/// The benchmark's own copy of one graph's live edge list, updated with
/// the registry's rules (inserts append, a delete removes the record
/// and shifts later ids down).
#[derive(Clone, Debug)]
struct Track {
    id: String,
    kind: VariantKind,
    n: usize,
    seed: u64,
    edges: Vec<Edge>,
    present: HashSet<(usize, usize)>,
    version: u64,
}

impl Track {
    fn new(kind: VariantKind, owner: usize, seed: u64) -> Track {
        let (n, m) = SHAPES[VariantKind::ALL
            .iter()
            .position(|&k| k == kind)
            .unwrap_or(0)];
        let salt = (owner as u64) << 8 | kind as u64;
        let instance = jobs::instance(kind, n, m, mix(seed, 5 << 40 | salt));
        let blank = |(u, v): (usize, usize)| Edge {
            u,
            v,
            weight: 0,
            client: false,
            server: false,
        };
        let edges: Vec<Edge> = match &instance {
            VariantInstance::Undirected { graph } => {
                graph.edges().map(|(_, u, v)| blank((u, v))).collect()
            }
            VariantInstance::Directed { graph } => {
                graph.edges().map(|(_, u, v)| blank((u, v))).collect()
            }
            VariantInstance::Weighted { graph, weights } => graph
                .edges()
                .map(|(e, u, v)| Edge {
                    weight: weights.get(e),
                    ..blank((u, v))
                })
                .collect(),
            VariantInstance::ClientServer {
                graph,
                clients,
                servers,
            } => graph
                .edges()
                .map(|(e, u, v)| Edge {
                    client: clients.contains(e),
                    server: servers.contains(e),
                    ..blank((u, v))
                })
                .collect(),
        };
        Track {
            id: format!("g{owner}-{}", kind.as_str()),
            kind,
            n,
            seed: mix(seed, 6 << 40 | salt),
            present: edges.iter().map(|e| (e.u, e.v)).collect(),
            edges,
            version: 0,
        }
    }

    fn create_spec(&self) -> GraphSpec {
        GraphSpec {
            id: self.id.clone(),
            instance: self.job_spec().instance,
            config: EngineConfig::seeded(self.seed),
        }
    }

    /// The one-shot job whose solve defines the served spanner.
    fn job_spec(&self) -> JobSpec {
        let pairs: Vec<(usize, usize)> = self.edges.iter().map(|e| (e.u, e.v)).collect();
        let m = self.edges.len();
        let flagged = |f: fn(&Edge) -> bool| {
            EdgeSet::from_iter(
                m,
                self.edges
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| f(e))
                    .map(|(i, _)| i),
            )
        };
        let instance = match self.kind {
            VariantKind::Undirected => VariantInstance::Undirected {
                graph: Graph::from_edges(self.n, pairs),
            },
            VariantKind::Directed => VariantInstance::Directed {
                graph: DiGraph::from_edges(self.n, pairs),
            },
            VariantKind::Weighted => VariantInstance::Weighted {
                graph: Graph::from_edges(self.n, pairs),
                weights: EdgeWeights::from_fn(m, |e| self.edges[e].weight),
            },
            VariantKind::ClientServer => VariantInstance::ClientServer {
                graph: Graph::from_edges(self.n, pairs),
                clients: flagged(|e| e.client),
                servers: flagged(|e| e.server),
            },
        };
        JobSpec::new(instance, self.seed)
    }

    fn key(&self, u: usize, v: usize) -> (usize, usize) {
        if self.kind == VariantKind::Directed {
            (u, v)
        } else {
            (u.min(v), u.max(v))
        }
    }

    /// A seeded insert of an absent edge.
    fn random_insert(&self, rng: &mut StdRng) -> DeltaOp {
        loop {
            let (u, v) = (rng.gen_range(0..self.n), rng.gen_range(0..self.n));
            let (u, v) = self.key(u, v);
            if u != v && !self.present.contains(&(u, v)) {
                let weight = (self.kind == VariantKind::Weighted).then(|| rng.gen_range(0..=9u64));
                let role = (self.kind == VariantKind::ClientServer).then(|| {
                    [EdgeRole::Client, EdgeRole::Server, EdgeRole::Both][rng.gen_range(0..3usize)]
                });
                return DeltaOp::Insert { u, v, weight, role };
            }
        }
    }

    /// Seeded deletes of `k` distinct live edges.
    fn random_deletes(&self, k: usize, rng: &mut StdRng) -> Vec<DeltaOp> {
        let mut picked = HashSet::new();
        while picked.len() < k {
            picked.insert(rng.gen_range(0..self.edges.len()));
        }
        let mut picked: Vec<usize> = picked.into_iter().collect();
        picked.sort_unstable();
        picked
            .into_iter()
            .map(|i| DeltaOp::Delete {
                u: self.edges[i].u,
                v: self.edges[i].v,
            })
            .collect()
    }

    fn apply(&mut self, ops: &[DeltaOp]) {
        for op in ops {
            match *op {
                DeltaOp::Insert { u, v, weight, role } => {
                    let client = matches!(role, Some(EdgeRole::Client | EdgeRole::Both));
                    let server = matches!(role, Some(EdgeRole::Server | EdgeRole::Both));
                    self.edges.push(Edge {
                        u,
                        v,
                        weight: weight.unwrap_or(0),
                        client,
                        server,
                    });
                    self.present.insert((u, v));
                }
                DeltaOp::Delete { u, v } => {
                    if let Some(i) = self.edges.iter().position(|e| (e.u, e.v) == (u, v)) {
                        self.edges.remove(i);
                    }
                    self.present.remove(&(u, v));
                }
            }
        }
        self.version += ops.len() as u64;
    }

    /// The spanner result a from-scratch solve of the live edge set
    /// gives, under the served key.
    fn reference(&self) -> (GraphSpannerResult, EngineWork) {
        let (resp, work) = reference::solve(&self.job_spec());
        let result = GraphSpannerResult {
            id: self.id.clone(),
            version: self.version,
            key: 0,
            kind: resp.kind,
            converged: resp.converged,
            iterations: resp.iterations,
            local_rounds: resp.local_rounds,
            star_fallbacks: resp.star_fallbacks,
            edges: resp
                .spanner
                .iter()
                .map(|&e| (self.edges[e].u, self.edges[e].v))
                .collect(),
        };
        (result, work)
    }
}

/// The next step of graph `track`'s cycle: the ops of a write, or none
/// for a read.
fn step_ops(track: &Track, step: usize, rng: &mut StdRng) -> Option<Vec<DeltaOp>> {
    match step % CYCLE {
        0 | 1 => Some(vec![track.random_insert(rng)]),
        2 => Some(track.random_deletes(DELETES, rng)),
        _ => None,
    }
}

/// One request of a churn client, kept for the check.
struct Sent {
    graph: usize,
    /// The patch ops (`None`: a spanner read).
    ops: Option<Vec<DeltaOp>>,
    /// The graph's version and edge count after the request.
    version: u64,
    edges: usize,
    body: Option<Vec<u8>>,
}

struct ChurnClient {
    c: usize,
    graphs: Vec<Track>,
    rng: StdRng,
    step: usize,
    sent: Vec<Sent>,
}

impl ChurnClient {
    fn fleet(initial: &[Track], seed: u64) -> Vec<ChurnClient> {
        (0..THREADS)
            .map(|c| ChurnClient {
                c,
                graphs: initial[c * OWNED..(c + 1) * OWNED].to_vec(),
                rng: StdRng::seed_from_u64(mix(seed, 7 << 40 | c as u64)),
                step: 0,
                sent: Vec::new(),
            })
            .collect()
    }
}

fn request(surface: Surface, id: &str, ops: Option<&[DeltaOp]>) -> Req {
    match (surface, ops) {
        (Surface::Tcp, Some(ops)) => Req::Tcp(wire::encode_graph_patch(id, ops)),
        (Surface::Tcp, None) => Req::Tcp(wire::encode_graph_spanner_request(id)),
        (Surface::Http, Some(ops)) => Req::Http {
            method: "PATCH",
            path: format!("/v1/graphs/{id}"),
            body: Some(http::encode_graph_patch_body(ops)),
        },
        (Surface::Http, None) => Req::Http {
            method: "GET",
            path: format!("/v1/graphs/{id}/spanner"),
            body: None,
        },
    }
}

impl Client for ChurnClient {
    fn next(&mut self) -> (Req, Op) {
        let g = (self.step / CYCLE) % OWNED;
        let ops = step_ops(&self.graphs[g], self.step, &mut self.rng);
        self.step += 1;
        let track = &mut self.graphs[g];
        if let Some(ops) = &ops {
            track.apply(ops);
        }
        let req = request(Surface::of_client(self.c), &track.id, ops.as_deref());
        let op = if ops.is_some() { Op::Write } else { Op::Read };
        self.sent.push(Sent {
            graph: g,
            ops,
            version: track.version,
            edges: track.edges.len(),
            body: None,
        });
        (req, op)
    }

    fn served(&mut self, index: usize, body: Option<Vec<u8>>) {
        self.sent[index].body = body;
    }
}

fn decode_patched(surface: Surface, body: &[u8]) -> Result<GraphPatched, String> {
    match surface {
        Surface::Tcp => match wire::decode_response(body) {
            Ok(Response::GraphPatched(p)) => Ok(p),
            other => Err(format!("not a patch response: {other:?}")),
        },
        Surface::Http => http::decode_graph_patched_body(body).map_err(|e| e.to_string()),
    }
}

fn served_spanner_key(surface: Surface, body: &[u8]) -> Result<u64, String> {
    match surface {
        Surface::Tcp => match wire::decode_response(body) {
            Ok(Response::GraphSpanner(r)) => Ok(r.key),
            other => Err(format!("not a spanner response: {other:?}")),
        },
        Surface::Http => http::decode_graph_spanner_body(body)
            .map(|r| r.key)
            .map_err(|e| e.to_string()),
    }
}

fn encode_spanner(surface: Surface, r: &GraphSpannerResult) -> String {
    match surface {
        Surface::Tcp => wire::encode_graph_spanner_response(r),
        Surface::Http => http::encode_graph_spanner_body(r),
    }
}

/// Quality-set counts: spanner edges served, request bytes per surface,
/// and the delta classes the patches reported.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    spanner_edges: u64,
    request_bytes: [u64; 2],
    classes: [u64; 3],
}

/// From-scratch references, by `(graph id, version)`.
type Refs = HashMap<(String, u64), (GraphSpannerResult, EngineWork)>;

/// Replays each client's writes from the restart state and solves the
/// graph from scratch at every read of `passes`, on two threads.
fn solve_reads(initial: &[Track], passes: &[&[Finished<ChurnClient>]]) -> Refs {
    let mut states: Vec<Track> = Vec::new();
    let mut seen = HashSet::new();
    for pass in passes {
        for f in pass.iter() {
            let mut graphs = initial[f.client.c * OWNED..(f.client.c + 1) * OWNED].to_vec();
            for s in &f.client.sent {
                match &s.ops {
                    Some(ops) => graphs[s.graph].apply(ops),
                    None if s.body.is_some()
                        && seen.insert((graphs[s.graph].id.clone(), graphs[s.graph].version)) =>
                    {
                        states.push(graphs[s.graph].clone())
                    }
                    None => {}
                }
            }
        }
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let mine: Vec<&Track> = states.iter().skip(t).step_by(THREADS).collect();
                scope.spawn(move || {
                    mine.into_iter()
                        .map(|s| ((s.id.clone(), s.version), s.reference()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// Checks every served body of a pass; returns the quality-set counts.
fn check(
    pass: &str,
    clients: &[Finished<ChurnClient>],
    refs: &Refs,
    problems: &mut Vec<String>,
) -> Counts {
    let mut counts = Counts::default();
    for client in clients.iter().map(|f| &f.client) {
        let surface = Surface::of_client(client.c);
        for (i, s) in client.sent.iter().enumerate() {
            let Some(body) = &s.body else { continue };
            let id = &client.graphs[s.graph].id;
            let quality = i < QUALITY;
            if quality {
                counts.request_bytes[client.c] +=
                    request(surface, id, s.ops.as_deref()).bytes() as u64;
            }
            match &s.ops {
                Some(ops) => match decode_patched(surface, body) {
                    Ok(p) if (p.version, p.edges, p.applied) == (s.version, s.edges, ops.len()) => {
                        if quality {
                            let DeltaClasses {
                                commuted,
                                repaired,
                                recomputed,
                            } = p.classes;
                            for (k, v) in [commuted, repaired, recomputed].into_iter().enumerate() {
                                counts.classes[k] += v;
                            }
                        }
                    }
                    Ok(p) => problems.push(format!(
                        "{pass}: {id} patch answered version {} / {} edges, expected {} / {}",
                        p.version, p.edges, s.version, s.edges
                    )),
                    Err(e) => problems.push(format!("{pass}: {id}: {e}")),
                },
                None => {
                    let Some((reference, _)) = refs.get(&(id.clone(), s.version)) else {
                        problems.push(format!("{pass}: no reference for {id} v{}", s.version));
                        continue;
                    };
                    let ok = served_spanner_key(surface, body).map(|key| {
                        encode_spanner(
                            surface,
                            &GraphSpannerResult {
                                key,
                                ..reference.clone()
                            },
                        )
                        .as_bytes()
                            == body.as_slice()
                    });
                    match ok {
                        Ok(true) => {}
                        Ok(false) => problems.push(format!(
                            "{pass}: {id} v{} spanner differs from the from-scratch solve",
                            s.version
                        )),
                        Err(e) => problems.push(format!("{pass}: {id}: {e}")),
                    }
                    if quality {
                        counts.spanner_edges += reference.edges.len() as u64;
                    }
                }
            }
        }
    }
    counts
}

/// Creates the graphs and writes their history into `cfg`'s store; returns the
/// tracks as of the end of the history.
fn prefill(cfg: &ServiceConfig, seed: u64) -> Result<Vec<Track>, String> {
    let service = Service::open(cfg).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(mix(seed, 8 << 40));
    let mut tracks: Vec<Track> = (0..THREADS)
        .flat_map(|c| {
            VariantKind::ALL
                .into_iter()
                .map(move |k| Track::new(k, c, seed))
        })
        .collect();
    for t in &mut tracks {
        service
            .graph_create(t.create_spec())
            .map_err(|e| format!("create {}: {e}", t.id))?;
        for step in 0..HISTORY * CYCLE {
            match step_ops(t, step, &mut rng) {
                Some(ops) => {
                    service
                        .graph_patch(&t.id, &ops)
                        .map_err(|e| format!("patch {}: {e}", t.id))?;
                    t.apply(&ops);
                }
                None => {
                    service
                        .graph_spanner(&t.id)
                        .map_err(|e| format!("read {}: {e}", t.id))?;
                }
            }
        }
    }
    Ok(tracks)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create(
        &args.work_root,
        &format!("graph-churn-{}", std::process::id()),
    )?;
    let cfg = |dir: std::path::PathBuf| ServiceConfig {
        workers: THREADS,
        cache_capacity: CACHE,
        cache_dir: Some(dir),
        ..ServiceConfig::default()
    };
    let filled = work.0.join("prefill");
    let initial = prefill(&cfg(filled.clone()), args.seed)?;
    let mut copies = 0;
    let mut fresh = || -> Result<ServiceConfig, String> {
        copies += 1;
        Ok(cfg(work.copy_of(&filled, &format!("live{copies}"))?))
    };

    let length = Until::Time {
        seconds: args.seconds,
        cycle: CYCLE * OWNED,
    };
    let (stack, opened, at_open) = open_median(SETUPS, &mut fresh)?;
    let m0 = stack.service.metrics();
    let (a, throughput) = closed_loop(
        &stack,
        ChurnClient::fleet(&initial, args.seed),
        length,
        None,
    )?;
    let a_counters = Counters::between(&m0, &stack.service.metrics());
    let rss = common::peak_rss_mb();
    stack.shutdown();

    let epoch = Instant::now();
    let traced = if args.trace {
        let (stack, _, _) = open_median(1, &mut fresh)?;
        let (b, _) = closed_loop(
            &stack,
            ChurnClient::fleet(&initial, args.seed),
            length,
            Some(epoch),
        )?;
        stack.shutdown();
        let service = Service::open(&fresh()?).map_err(|e| e.to_string())?;
        let m0 = service.metrics();
        let c = in_process(
            &service,
            ChurnClient::fleet(&initial, args.seed),
            QUALITY,
            epoch,
        )?;
        Some((b, c, Counters::between(&m0, &service.metrics())))
    } else {
        None
    };

    let mut passes: Vec<&[Finished<ChurnClient>]> = vec![&a];
    if let Some((b, c, _)) = &traced {
        passes.extend([b.as_slice(), c.as_slice()]);
    }
    let refs = solve_reads(&initial, &passes);
    let mut out = Outcome::default();
    let counts = check("A", &a, &refs, &mut out.problems);
    out.problems.extend(common::accounting("A", &a_counters));

    let a_samples = common::samples(&a);
    common::e2e(
        &mut out,
        &a_samples,
        throughput,
        opened.setup_s,
        rss,
        counts.spanner_edges,
    );
    let exact = [
        counts.spanner_edges,
        counts.request_bytes[0],
        counts.request_bytes[1],
        counts.classes[0],
        counts.classes[1],
        counts.classes[2],
    ];
    out.detail.push(("counts".into(), format!("{exact:?}")));
    out.detail.push((
        "counts_digest".into(),
        format!("\"{:016x}\"", digest(&exact)),
    ));

    if let Some((b, c, c_counters)) = traced {
        check("B", &b, &refs, &mut out.problems);
        let c_counts = check("C", &c, &refs, &mut out.problems);
        out.problems.extend(common::accounting("C", &c_counters));
        // Engine runs of the layer pass: its reads, replayed from scratch.
        let engine: Vec<EngineWork> = {
            let mut graphs: Vec<Vec<Track>> = (0..THREADS)
                .map(|cl| initial[cl * OWNED..(cl + 1) * OWNED].to_vec())
                .collect();
            let mut works = Vec::new();
            for f in &c {
                for s in &f.client.sent {
                    let t = &mut graphs[f.client.c][s.graph];
                    match &s.ops {
                        Some(ops) => t.apply(ops),
                        None => works.extend(refs.get(&(t.id.clone(), t.version)).map(|r| r.1)),
                    }
                }
            }
            works
        };
        let b_spans = common::spans(&b);
        let c_spans = common::spans(&c);
        common::save_spans(args, &b_spans, &c_spans)?;
        let mut l = layers::compute(&Traced {
            a: &a_samples,
            b: &b.iter().map(|f| f.samples.clone()).collect::<Vec<_>>(),
            b_spans: b_spans.len(),
            c_spans: &c_spans,
            c_counters,
            engine: &engine,
            request_bytes: c_counts.request_bytes,
        });
        l.insert(
            "store.recovery_ms".into(),
            at_open.store_recovery_us as f64 / 1e3,
        );
        l.insert("store.records".into(), at_open.store_records as f64);
        l.insert(
            "graphs.replay_ms".into(),
            (opened.open_s * 1e3 - at_open.store_recovery_us as f64 / 1e3).max(0.0),
        );
        let exact_c = [
            c_counts.spanner_edges,
            c_counts.request_bytes[0],
            c_counts.request_bytes[1],
            c_counts.classes[0],
            c_counts.classes[1],
            c_counts.classes[2],
        ];
        let traced_digest = layers::counts(
            &mut l,
            &exact_c,
            c_counts.spanner_edges,
            exact == exact_c,
            &c_counters,
        );
        out.detail.push((
            "traced_counts_digest".into(),
            format!("\"{traced_digest:016x}\""),
        ));
        out.layers = l;
    }
    Ok(out)
}
