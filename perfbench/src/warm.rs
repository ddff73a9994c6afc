//! `warm-hits`: a warm restart over a pre-filled result store, then an
//! open loop of repeated jobs, alternating between one TCP and one HTTP
//! connection, at a base rate and then a ladder of rising rates. The
//! engine never runs; decode, canonicalize, the verified lookup,
//! encode and the transports carry all of the cost.

use std::time::{Duration, Instant};

use dsa_core::dist::VariantKind;
use dsa_service::{JobResponse, JobSpec, Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::common::{
    self, digest, in_process, mix, open_median, Client, Counters, Finished, Op, Req, Sample, Stack,
    Surface, WorkDir, THREADS,
};
use crate::jobs;
use crate::layers::{self, Traced};
use crate::reference;
use crate::stats::{self, Summary};
use crate::trace::{Span, SpanLog};
use crate::{Args, Outcome};

/// The pool, all m = 6k (one size keeps the median away from a
/// boundary between job sizes): `(variant, vertices)` per job, two
/// instances per variant and two more weighted ones. With one variant
/// at 40% of the requests and three at 20%, the median lands inside one
/// variant's band whatever their cost order, not on the edge between
/// two.
const POOL_JOBS: [(VariantKind, usize); POOL] = [
    (VariantKind::Undirected, 400),
    (VariantKind::Undirected, 360),
    (VariantKind::Directed, 320),
    (VariantKind::Directed, 300),
    (VariantKind::Weighted, 400),
    (VariantKind::Weighted, 360),
    (VariantKind::Weighted, 380),
    (VariantKind::Weighted, 340),
    (VariantKind::ClientServer, 400),
    (VariantKind::ClientServer, 360),
];
const POOL: usize = 10;
const POOL_EDGES: usize = 6_000;
/// The base phase: offered rate (requests/s over both connections) and
/// share of the run. The end-to-end metrics are taken here, in
/// [`SEGMENTS`] equal segments whose median is reported, so a burst of
/// interference from outside the run moves one segment, not the result.
const BASE_RPS: f64 = 100.0;
const BASE_SHARE: f64 = 0.8;
const SEGMENTS: usize = 8;
/// The ladder above it, sharing the rest of the run equally; it gives
/// the highest rate meeting the latency limit (`openloop.max_rps`).
const LADDER_RPS: [f64; 3] = [120.0, 180.0, 260.0];
/// A rung meets the limit when its p90 latency is at most this and its
/// backlog does not grow.
const LIMIT_MS: f64 = 15.0;
/// Warm restarts per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Requests per connection in the exact-count set and the layer pass.
const QUALITY: usize = 100;
/// A send more than this past its due time counts as late.
const LATE_MS: f64 = 1.0;

fn pool(seed: u64) -> Vec<JobSpec> {
    (0..POOL)
        .map(|j| {
            let (kind, n) = POOL_JOBS[j];
            let instance = jobs::instance(kind, n, POOL_EDGES, mix(seed, 2 << 40 | j as u64));
            JobSpec::new(instance, mix(seed, 3 << 40 | j as u64))
        })
        .collect()
}

/// The pool job of connection `c`'s `i`-th request: each block of
/// [`POOL`] requests is a seeded permutation of the pool, so repeats are
/// uniform and every run serves the same job mix.
fn job_of(seed: u64, c: usize, i: usize) -> usize {
    let mut order: [usize; POOL] = std::array::from_fn(|k| k);
    order.shuffle(&mut StdRng::seed_from_u64(mix(
        seed,
        4 << 40 | (c as u64) << 32 | (i / POOL) as u64,
    )));
    order[i % POOL]
}

/// What every request needs, built before the timed phase.
struct Prepared {
    seed: u64,
    /// `requests[job][surface]`.
    requests: Vec<[Req; 2]>,
    /// The from-scratch bodies each surface must serve.
    expected: Vec<[Vec<u8>; 2]>,
    spanner_sizes: Vec<u64>,
}

/// One phase of the open loop: offered rate and length.
#[derive(Clone, Copy)]
struct Phase {
    rps: f64,
    seconds: f64,
}

impl Phase {
    fn plan(seconds: f64) -> Vec<Phase> {
        let rung = seconds * (1.0 - BASE_SHARE) / LADDER_RPS.len() as f64;
        std::iter::once(Phase {
            rps: BASE_RPS,
            seconds: seconds * BASE_SHARE,
        })
        .chain(LADDER_RPS.iter().map(|&rps| Phase { rps, seconds: rung }))
        .collect()
    }
}

struct Timed {
    phase: usize,
    sample: Sample,
    body_ok: bool,
}

/// One connection's timed requests and spans.
type ConnRun = (Vec<Timed>, Vec<Span>);

/// Runs the open loop: connection `c` sends the phase's requests
/// `q ≡ c (mod 2)`, each due at `phase start + q / rate`, and times it
/// from its due time. A connection carries one request at a time, so a
/// slow answer makes the following sends late; lateness is recorded.
fn open_loop(
    stack: &Stack,
    prep: &Prepared,
    phases: &[Phase],
    epoch: Option<Instant>,
) -> Result<Vec<ConnRun>, String> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|c| {
                scope.spawn(move || -> Result<ConnRun, String> {
                    let surface = Surface::of_client(c);
                    let mut conn = stack.connect(surface)?;
                    let mut log = epoch.map(|e| SpanLog::new(e, c as u64));
                    let mut out = Vec::new();
                    let mut phase_start = 0.0;
                    for (p, phase) in phases.iter().enumerate() {
                        let total = (phase.rps * phase.seconds).round() as usize;
                        for q in (c..total).step_by(THREADS) {
                            let due = Duration::from_secs_f64(phase_start + q as f64 / phase.rps);
                            if let Some(wait) = due.checked_sub(start.elapsed()) {
                                std::thread::sleep(wait);
                            }
                            let index = out.len();
                            let job = job_of(prep.seed, c, index);
                            let req = &prep.requests[job][c];
                            let sent = start.elapsed();
                            let result = match log.as_mut() {
                                None => conn.call(req),
                                Some(log) => {
                                    let request = ((c as u64) << 32) | index as u64;
                                    log.span("request", request, None, |log, root| {
                                        log.span("client.call", request, Some(root), |_, _| {
                                            conn.call(req)
                                        })
                                    })
                                }
                            };
                            let done = start.elapsed();
                            let body_ok =
                                result.as_ref().is_ok_and(|b| *b == prep.expected[job][c]);
                            let sample = Sample {
                                surface,
                                op: Op::Read,
                                due,
                                sent,
                                done,
                                ok: result.is_ok(),
                            };
                            out.push(Timed {
                                phase: p,
                                sample,
                                body_ok,
                            });
                        }
                        phase_start += phase.seconds;
                    }
                    Ok((out, log.map(|l| l.spans).unwrap_or_default()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}

/// One phase's figures.
#[derive(Debug)]
struct Rung {
    rps: f64,
    latency: Summary,
    p90: f64,
    late_sends: usize,
    max_late_ms: f64,
    backlog_grows: bool,
}

impl Rung {
    fn of(rps: f64, timed: &[&Timed]) -> Rung {
        let mut by_due: Vec<&Sample> = timed.iter().map(|t| &t.sample).collect();
        by_due.sort_by_key(|s| s.due);
        let lat: Vec<f64> = by_due
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.latency_ms())
            .collect();
        let mut sorted = lat.clone();
        sorted.sort_by(f64::total_cmp);
        let late: Vec<f64> = by_due.iter().map(|s| s.late_ms()).collect();
        let quarter = (late.len() / 4).max(1);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let growth = mean(&late[late.len().saturating_sub(quarter)..])
            - mean(&late[..quarter.min(late.len())]);
        Rung {
            rps,
            latency: Summary::of(&lat),
            p90: stats::percentile(&sorted, 90.0),
            late_sends: late.iter().filter(|&&l| l > LATE_MS).count(),
            max_late_ms: late.iter().copied().fold(0.0, f64::max),
            backlog_grows: growth > LIMIT_MS / 4.0 || lat.len() < timed.len(),
        }
    }

    fn meets_limit(&self) -> bool {
        self.p90 <= LIMIT_MS && !self.backlog_grows
    }
}

/// The highest sustainable rate: the last rung (base first) meeting the
/// limit, interpolated on p90 toward the first rung that misses it.
fn max_rps(rungs: &[Rung]) -> f64 {
    let Some(fail) = rungs.iter().position(|r| !r.meets_limit()) else {
        return rungs.last().map_or(0.0, |r| r.rps);
    };
    if fail == 0 {
        return rungs[0].rps * LIMIT_MS / rungs[0].p90.max(LIMIT_MS);
    }
    let (ok, bad) = (&rungs[fail - 1], &rungs[fail]);
    let share = if bad.p90 > ok.p90 {
        ((LIMIT_MS - ok.p90) / (bad.p90 - ok.p90)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    ok.rps + share * (bad.rps - ok.rps)
}

/// The warm-hits schedule as a [`Client`], for the in-process pass.
struct WarmClient<'a> {
    prep: &'a Prepared,
    c: usize,
    next: usize,
    served: Vec<bool>,
}

impl Client for WarmClient<'_> {
    fn next(&mut self) -> (Req, Op) {
        let job = job_of(self.prep.seed, self.c, self.next);
        self.next += 1;
        (self.prep.requests[job][self.c].clone(), Op::Read)
    }

    fn served(&mut self, index: usize, body: Option<Vec<u8>>) {
        let job = job_of(self.prep.seed, self.c, index);
        self.served
            .push(body.is_some_and(|b| b == self.prep.expected[job][self.c]));
    }
}

/// Exact counts over the first [`QUALITY`] requests per connection.
fn quality_counts(prep: &Prepared) -> [u64; 3] {
    let mut counts = [0u64; 3];
    for c in 0..THREADS {
        for i in 0..QUALITY {
            let job = job_of(prep.seed, c, i);
            counts[0] += prep.spanner_sizes[job];
            counts[1 + c] += prep.requests[job][c].bytes() as u64;
        }
    }
    counts
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create(
        &args.work_root,
        &format!("warm-hits-{}", std::process::id()),
    )?;
    let prefill = work.0.join("prefill");
    let cfg = |dir: std::path::PathBuf| ServiceConfig {
        workers: THREADS,
        cache_capacity: 64,
        cache_dir: Some(dir),
        ..ServiceConfig::default()
    };

    // Fill the result store once, and solve the same jobs from scratch.
    let specs = pool(args.seed);
    let keys: Vec<u64> = {
        let service = Service::open(&cfg(prefill.clone())).map_err(|e| e.to_string())?;
        let handles = specs
            .iter()
            .map(|s| service.submit(s))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        handles
            .into_iter()
            .map(|h| h.wait().map(|r| r.key))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?
    };
    let refs: Vec<JobResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|s| scope.spawn(move || reference::solve(s).0))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "reference solve panicked".to_string()))
            .collect::<Result<_, _>>()
    })?;
    let prep = Prepared {
        seed: args.seed,
        requests: specs
            .iter()
            .map(|s| {
                [
                    jobs::job_request(s, Surface::Tcp),
                    jobs::job_request(s, Surface::Http),
                ]
            })
            .collect(),
        expected: refs
            .iter()
            .zip(&keys)
            .map(|(r, &key)| {
                let r = JobResponse { key, ..r.clone() };
                [Surface::Tcp, Surface::Http].map(|s| jobs::encode_job(s, &r).into_bytes())
            })
            .collect(),
        spanner_sizes: refs.iter().map(|r| r.spanner.len() as u64).collect(),
    };
    drop(specs);

    // Warm restarts, each over a fresh copy of the filled store.
    let mut copies = 0;
    let (stack, opened, at_open) = open_median(SETUPS, || {
        copies += 1;
        Ok(cfg(work.copy_of(&prefill, &format!("live{copies}"))?))
    })?;
    let mut out = Outcome::default();
    if stack.service.cache_len() != POOL {
        out.problems.push(format!(
            "warm restart loaded {} of {POOL} results",
            stack.service.cache_len()
        ));
    }

    let phases = Phase::plan(args.seconds);
    let m0 = stack.service.metrics();
    let a = open_loop(&stack, &prep, &phases, None)?;
    let a_counters = Counters::between(&m0, &stack.service.metrics());
    let rss = common::peak_rss_mb();

    let epoch = Instant::now();
    let traced = if args.trace {
        let b = open_loop(&stack, &prep, &phases, Some(epoch))?;
        let m0 = stack.service.metrics();
        let fleet = (0..THREADS)
            .map(|c| WarmClient {
                prep: &prep,
                c,
                next: 0,
                served: Vec::new(),
            })
            .collect();
        let c = in_process(&stack.service, fleet, QUALITY, epoch)?;
        Some((b, c, Counters::between(&m0, &stack.service.metrics())))
    } else {
        None
    };
    stack.shutdown();

    // Correctness: every body was compared with its reference as it
    // arrived; the verdicts are read here.
    let bad_bodies = |runs: &[ConnRun]| {
        runs.iter()
            .flat_map(|r| &r.0)
            .filter(|t| t.sample.ok && !t.body_ok)
            .count()
    };
    if bad_bodies(&a) > 0 {
        out.problems.push(format!(
            "A: {} served bodies differ from the from-scratch solve",
            bad_bodies(&a)
        ));
    }
    out.problems.extend(common::accounting("A", &a_counters));
    if a_counters.engine_runs != 0 || a_counters.misses != 0 {
        out.problems.push(format!(
            "A: {} engine runs and {} misses after the warm restart",
            a_counters.engine_runs, a_counters.misses
        ));
    }

    let timed: Vec<&Timed> = a.iter().flat_map(|r| &r.0).collect();
    let in_phase = |p: usize| timed.iter().copied().filter(move |t| t.phase == p);
    let rungs: Vec<Rung> = phases
        .iter()
        .enumerate()
        .map(|(p, ph)| Rung::of(ph.rps, &in_phase(p).collect::<Vec<_>>()))
        .collect();
    let base: Vec<Sample> = in_phase(0).map(|t| t.sample.clone()).collect();
    // Per base segment: the figures of its requests, by due time, and its
    // achieved rate (answers over the time from its start to its last
    // answer).
    let span = phases[0].seconds / SEGMENTS as f64;
    let segments: Vec<[f64; 3]> = (0..SEGMENTS)
        .map(|k| {
            let start = Duration::from_secs_f64(span * k as f64);
            let seg: Vec<Sample> = base
                .iter()
                .filter(|s| s.due >= start && s.due.as_secs_f64() < span * (k + 1) as f64)
                .cloned()
                .collect();
            let all = common::summary(&seg, |_| true);
            let last = seg.iter().map(|s| s.done).max().unwrap_or_default();
            [
                all.p50,
                all.tail,
                seg.iter().filter(|s| s.ok).count() as f64
                    / last.saturating_sub(start).as_secs_f64().max(1e-9),
            ]
        })
        .collect();
    let med = |i: usize| stats::median(&segments.iter().map(|s| s[i]).collect::<Vec<_>>());
    for (i, name) in [
        (0, "latency_ms.p50"),
        (1, "latency_ms.tail"),
        (2, "throughput_rps"),
    ] {
        out.e2e.insert(name, med(i));
    }
    out.e2e.insert("setup_s", opened.setup_s);
    out.e2e.insert("peak_rss_mb", rss);
    out.e2e.insert(
        "spanner_edges",
        prep.spanner_sizes.iter().sum::<u64>() as f64,
    );
    let sustained = max_rps(&rungs);
    let exact = quality_counts(&prep);
    let segment = common::summary(&base[..base.len() / SEGMENTS], |_| true);
    out.detail.push(("segments".into(), format!("{SEGMENTS}")));
    out.detail
        .push(("tail_percentile".into(), format!("{}", segment.tail_pct)));
    out.detail
        .push(("segment_samples".into(), format!("{}", segment.samples)));
    out.detail
        .push(("samples".into(), format!("{}", base.len())));
    out.attempted = timed.len() as u64;
    out.failed = timed.iter().filter(|t| !t.sample.ok).count() as u64;
    let table: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "[{}, {}, {:.3}, {:.3}, {}, {:.3}, {}]",
                r.rps,
                r.latency.samples,
                r.latency.p50,
                r.p90,
                r.late_sends,
                r.max_late_ms,
                r.meets_limit()
            )
        })
        .collect();
    out.detail.push((
        "rungs_rps_n_p50_p90_late_maxlate_ok".into(),
        format!("[{}]", table.join(",")),
    ));
    out.detail.push(("max_rps".into(), format!("{sustained}")));
    out.detail.push(("counts".into(), format!("{exact:?}")));
    out.detail.push((
        "counts_digest".into(),
        format!("\"{:016x}\"", digest(&exact)),
    ));

    if let Some((b, c, c_counters)) = traced {
        if bad_bodies(&b) > 0 {
            out.problems.push(format!(
                "B: {} served bodies differ from the from-scratch solve",
                bad_bodies(&b)
            ));
        }
        if c.iter().any(|f| f.client.served.iter().any(|&ok| !ok)) {
            out.problems
                .push("C: an in-process body differs from the from-scratch solve".into());
        }
        out.problems.extend(common::accounting("C", &c_counters));
        let b_spans: Vec<Span> = b.iter().flat_map(|r| r.1.iter().cloned()).collect();
        let c_spans = common::spans(&c);
        common::save_spans(args, &b_spans, &c_spans)?;
        let b_samples: Vec<Vec<Sample>> = b
            .iter()
            .map(|r| {
                r.0.iter()
                    .filter(|t| t.phase == 0)
                    .map(|t| t.sample.clone())
                    .collect()
            })
            .collect();
        let mut l = layers::compute(&Traced {
            a: &base,
            b: &b_samples,
            b_spans: b_spans.len(),
            c_spans: &c_spans,
            c_counters,
            engine: &[],
            request_bytes: [exact[1], exact[2]],
        });
        let base_rung = &rungs[0];
        l.insert(
            "store.recovery_ms".into(),
            at_open.store_recovery_us as f64 / 1e3,
        );
        l.insert("store.records".into(), at_open.store_records as f64);
        l.insert("openloop.max_rps".into(), sustained);
        l.insert("openloop.late_sends".into(), base_rung.late_sends as f64);
        l.insert("openloop.max_late_ms".into(), base_rung.max_late_ms);
        // Rungs within the latency limit that still lost ground: the
        // backlog test, not p90, kept them out of `max_rps`.
        l.insert(
            "openloop.backlog_rungs".into(),
            rungs
                .iter()
                .filter(|r| r.p90 <= LIMIT_MS && r.backlog_grows)
                .count() as f64,
        );
        // Both passes served the exact-count set correctly, so its
        // counts hold for each.
        let a_quality_ok = a
            .iter()
            .all(|r| r.0.iter().take(QUALITY).all(|t| t.body_ok));
        let c_quality_ok = c.iter().all(|f: &Finished<WarmClient>| {
            f.client.served.len() == QUALITY && f.client.served.iter().all(|&ok| ok)
        });
        let traced_digest = layers::counts(
            &mut l,
            &exact,
            exact[0],
            a_quality_ok && c_quality_ok,
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
