//! `cold-solve`: a closed loop of two clients (one TCP, one HTTP)
//! against two workers and a memory-only cache, every job distinct, so
//! every request is an engine run. Each client cycles through 22 jobs
//! over all four variants: sixteen small ones (m = 600–2,100 in steps of
//! 100, so their latencies spread evenly and the median sits between
//! close neighbours, not on the edge between two size classes) and six
//! gate-sized ones (m ≈ 8k–18.5k), three of them weighted, so the slowest
//! class makes up the latency tail by itself. Both clients walk the
//! same sequence in lockstep (each over its own instances), so every job
//! runs beside a job of its own shape, and serve a fixed number of whole
//! cycles, so every run serves the same mix.

use std::collections::HashMap;
use std::time::Instant;

use dsa_core::dist::{VariantInstance, VariantKind};
use dsa_service::{JobResponse, JobSpec, Service, ServiceConfig};

use crate::common::{
    self, closed_loop, digest, in_process, mix, open_median, Client, Counters, Finished, Op, Req,
    Surface, Until, THREADS,
};
use crate::jobs;
use crate::layers::{self, Traced};
use crate::reference::{self, EngineWork};
use crate::{Args, Outcome};

/// One client cycle: the small jobs, then [`GATES`].
const CYCLE: usize = 22;
const SMALL: usize = CYCLE - GATES.len();
/// The gate-sized jobs as `(variant, vertices, edges)`.
const GATES: [(VariantKind, usize, usize); 6] = [
    (VariantKind::Undirected, 600, 11_000),
    (VariantKind::Weighted, 500, 8_400),
    (VariantKind::Directed, 600, 18_500),
    (VariantKind::Weighted, 500, 9_200),
    (VariantKind::ClientServer, 800, 18_400),
    (VariantKind::Weighted, 500, 10_000),
];
/// A run serves `round(seconds / CYCLE_SECONDS)` whole cycles: the
/// nominal cycle time on two cores. A fixed count (rather than a
/// deadline) keeps the number of weighted gate jobs, and so what rank
/// the tail is, the same in every run of one length.
const CYCLE_SECONDS: f64 = 3.5;
/// Distinct instances per cycle position; jobs reuse them under
/// distinct engine seeds, which keeps every cache key distinct.
const POOL: usize = 6;
/// Service starts per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// LRU entries: the cache fills early in a run, so the peak resident
/// set does not depend on how many jobs the run completes.
const CACHE: usize = 64;
/// Requests per client that make the exact-count set and the in-process
/// layer pass: one full cycle.
const QUALITY: usize = CYCLE;

/// `(variant, vertices, edges)` of cycle position `i`: small jobs at an
/// average degree of 16 (20 for arcs).
fn shape(i: usize) -> (VariantKind, usize, usize) {
    if i < SMALL {
        let kind = VariantKind::ALL[i % 4];
        let m = 600 + 100 * i;
        let per_vertex = if kind == VariantKind::Directed { 10 } else { 8 };
        (kind, m / per_vertex, m)
    } else {
        GATES[i - SMALL]
    }
}

/// `instances[position][k]`.
struct Pool(Vec<Vec<VariantInstance>>);

impl Pool {
    fn new(seed: u64) -> Pool {
        Pool(
            (0..CYCLE)
                .map(|i| {
                    let (kind, n, m) = shape(i);
                    (0..POOL)
                        .map(|k| jobs::instance(kind, n, m, mix(seed, (i as u64) << 8 | k as u64)))
                        .collect()
                })
                .collect(),
        )
    }

    /// Job `j` of client `c`: the two clients take alternate instances,
    /// a new one each cycle.
    fn spec(&self, seed: u64, c: usize, j: usize) -> JobSpec {
        let k = (THREADS * (j / CYCLE) + c) % POOL;
        let instance = self.0[j % CYCLE][k].clone();
        JobSpec::new(instance, mix(seed, 1 << 40 | (c as u64) << 32 | j as u64))
    }
}

struct ColdClient<'a> {
    pool: &'a Pool,
    seed: u64,
    c: usize,
    next: usize,
    served: Vec<Option<Vec<u8>>>,
}

impl<'a> ColdClient<'a> {
    fn fleet(pool: &'a Pool, seed: u64) -> Vec<ColdClient<'a>> {
        (0..THREADS)
            .map(|c| ColdClient {
                pool,
                seed,
                c,
                next: 0,
                served: Vec::new(),
            })
            .collect()
    }
}

impl Client for ColdClient<'_> {
    fn next(&mut self) -> (Req, Op) {
        let spec = self.pool.spec(self.seed, self.c, self.next);
        self.next += 1;
        (
            jobs::job_request(&spec, Surface::of_client(self.c)),
            Op::Job,
        )
    }

    fn served(&mut self, _index: usize, body: Option<Vec<u8>>) {
        self.served.push(body);
    }
}

/// From-scratch solves of jobs `(client, index)`, on two threads.
fn solve_all(
    pool: &Pool,
    seed: u64,
    jobs: Vec<(usize, usize)>,
) -> HashMap<(usize, usize), (JobResponse, EngineWork)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let mine: Vec<_> = jobs.iter().copied().skip(t).step_by(THREADS).collect();
                scope.spawn(move || {
                    mine.into_iter()
                        .map(|(c, j)| ((c, j), reference::solve(&pool.spec(seed, c, j))))
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

/// Exact counts over the first [`QUALITY`] requests of each client.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    spanner_edges: u64,
    iterations: u64,
    request_bytes: [u64; 2],
}

/// Checks every served body of `clients` against the references,
/// recording problems; returns the quality-set counts.
fn check(
    pass: &str,
    clients: &[Finished<ColdClient>],
    refs: &HashMap<(usize, usize), (JobResponse, EngineWork)>,
    keys: &mut HashMap<(usize, usize), u64>,
    problems: &mut Vec<String>,
) -> Counts {
    let mut counts = Counts::default();
    for client in clients.iter().map(|f| &f.client) {
        let surface = Surface::of_client(client.c);
        for (j, body) in client.served.iter().enumerate() {
            let Some(body) = body else { continue };
            let Some((reference, _)) = refs.get(&(client.c, j)) else {
                problems.push(format!("{pass}: no reference for job {}/{j}", client.c));
                continue;
            };
            match jobs::check_job_body(surface, body, reference) {
                // One job, one key, across passes and surfaces.
                Ok(key) if *keys.entry((client.c, j)).or_insert(key) != key => {
                    problems.push(format!(
                        "{pass}: job {}/{j} served under two keys",
                        client.c
                    ));
                }
                Ok(_) => {}
                Err(e) => problems.push(format!("{pass}: job {}/{j}: {e}", client.c)),
            }
            if j < QUALITY {
                counts.spanner_edges += reference.spanner.len() as u64;
                counts.iterations += reference.iterations;
                counts.request_bytes[client.c] +=
                    jobs::job_request(&client.pool.spec(client.seed, client.c, j), surface).bytes()
                        as u64;
            }
        }
    }
    counts
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let pool = Pool::new(args.seed);
    let cfg = ServiceConfig {
        workers: THREADS,
        cache_capacity: CACHE,
        ..ServiceConfig::default()
    };
    let fleet = || ColdClient::fleet(&pool, args.seed);
    let cycles = (args.seconds / CYCLE_SECONDS).round().max(1.0) as usize;
    let length = Until::Requests(cycles * CYCLE);

    // Pass A: the measured, untraced pass.
    let (stack, opened, _) = open_median(SETUPS, || Ok(cfg.clone()))?;
    let m0 = stack.service.metrics();
    let (a, throughput) = closed_loop(&stack, fleet(), length, None)?;
    let a_counters = Counters::between(&m0, &stack.service.metrics());
    let rss = common::peak_rss_mb();
    stack.shutdown();

    // Passes B (client spans over the network) and C (in-process, a
    // span per layer call), each on a fresh service.
    let epoch = Instant::now();
    let traced = if args.trace {
        let (stack, _, _) = open_median(1, || Ok(cfg.clone()))?;
        let (b, _) = closed_loop(&stack, fleet(), length, Some(epoch))?;
        stack.shutdown();
        let service = Service::open(&cfg).map_err(|e| e.to_string())?;
        let m0 = service.metrics();
        let c = in_process(&service, fleet(), QUALITY, epoch)?;
        Some((b, c, Counters::between(&m0, &service.metrics())))
    } else {
        None
    };

    // Correctness, outside every timed pass.
    let served = |f: &[Finished<ColdClient>]| -> Vec<(usize, usize)> {
        f.iter()
            .flat_map(|x| (0..x.client.served.len()).map(move |j| (x.client.c, j)))
            .collect()
    };
    let mut wanted = served(&a);
    if let Some((b, _, _)) = &traced {
        wanted.extend(served(b));
    }
    wanted.sort_unstable();
    wanted.dedup();
    let refs = solve_all(&pool, args.seed, wanted);
    let mut keys = HashMap::new();
    let mut out = Outcome::default();
    let counts = check("A", &a, &refs, &mut keys, &mut out.problems);
    out.problems.extend(common::accounting("A", &a_counters));
    if a_counters.hits != 0 {
        out.problems.push(format!(
            "A: {} cache hits on distinct jobs",
            a_counters.hits
        ));
    }
    let mut distinct: Vec<u64> = keys.values().copied().collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() != keys.len() {
        out.problems.push("A: distinct jobs share a key".into());
    }

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
        counts.iterations,
        counts.request_bytes[0],
        counts.request_bytes[1],
    ];
    out.detail.push(("counts".into(), format!("{exact:?}")));
    out.detail.push((
        "counts_digest".into(),
        format!("\"{:016x}\"", digest(&exact)),
    ));

    if let Some((b, c, c_counters)) = traced {
        check("B", &b, &refs, &mut keys, &mut out.problems);
        let c_counts = check("C", &c, &refs, &mut keys, &mut out.problems);
        out.problems.extend(common::accounting("C", &c_counters));
        let engine: Vec<EngineWork> = (0..THREADS)
            .flat_map(|cl| (0..QUALITY).map(move |j| (cl, j)))
            .filter_map(|k| refs.get(&k).map(|r| r.1))
            .collect();
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
        let exact_c = [
            c_counts.spanner_edges,
            c_counts.iterations,
            c_counts.request_bytes[0],
            c_counts.request_bytes[1],
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
