//! What the three workloads share: the service stack under test, the
//! two client surfaces, request samples, and the run report.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dsa_service::wire::{read_frame, write_frame};
use dsa_service::{HttpClient, HttpServer, MetricsSnapshot, Server, Service, ServiceConfig};

use crate::stats::{self, Summary};

/// Client threads, connections and service workers: one per core of
/// the two-core machine the benchmark is sized for.
pub const THREADS: usize = 2;

/// The service under test with both frontends on one cache.
pub struct Stack {
    pub service: Arc<Service>,
    tcp: Server,
    http: HttpServer,
}

/// Where the set-up time of one [`Stack::open`] went.
#[derive(Clone, Copy, Debug)]
pub struct Opened {
    /// `Service::open` until both frontends listen.
    pub setup_s: f64,
    /// `Service::open` alone.
    pub open_s: f64,
}

impl Stack {
    pub fn open(cfg: &ServiceConfig) -> Result<(Stack, Opened), String> {
        let t = Instant::now();
        let service = Arc::new(Service::open(cfg).map_err(|e| format!("open service: {e}"))?);
        let open_s = t.elapsed().as_secs_f64();
        let local = ("127.0.0.1", 0);
        let tcp =
            Server::with_service(local, Arc::clone(&service)).map_err(|e| format!("tcp: {e}"))?;
        let http = HttpServer::with_service(local, Arc::clone(&service))
            .map_err(|e| format!("http: {e}"))?;
        let setup_s = t.elapsed().as_secs_f64();
        Ok((Stack { service, tcp, http }, Opened { setup_s, open_s }))
    }

    pub fn addr(&self, surface: Surface) -> SocketAddr {
        match surface {
            Surface::Tcp => self.tcp.addr(),
            Surface::Http => self.http.addr(),
        }
    }

    pub fn connect(&self, surface: Surface) -> Result<Conn, String> {
        let addr = self.addr(surface);
        match surface {
            Surface::Tcp => {
                let s = TcpStream::connect(addr).map_err(|e| format!("connect tcp: {e}"))?;
                let _ = s.set_nodelay(true);
                Ok(Conn::Tcp(s))
            }
            Surface::Http => Ok(Conn::Http(
                HttpClient::connect(addr).map_err(|e| format!("connect http: {e}"))?,
            )),
        }
    }

    /// Stops both frontends (joining their threads) and the workers.
    pub fn shutdown(self) {
        self.tcp.shutdown();
        self.http.shutdown();
    }
}

/// Opens `reps` stacks in turn (each from `prepare()`'s config), keeps
/// the last, and returns it with the median set-up and open times.
pub fn open_median(
    reps: usize,
    mut prepare: impl FnMut() -> Result<ServiceConfig, String>,
) -> Result<(Stack, Opened, MetricsSnapshot), String> {
    let mut setups = Vec::new();
    let mut opens = Vec::new();
    let mut last = None;
    for i in 0..reps {
        let (stack, opened) = Stack::open(&prepare()?)?;
        setups.push(opened.setup_s);
        opens.push(opened.open_s);
        if i + 1 == reps {
            last = Some(stack);
        } else {
            stack.shutdown();
        }
    }
    let stack = last.ok_or("no set-up repetitions")?;
    let at_open = stack.service.metrics();
    let opened = Opened {
        setup_s: stats::median(&setups),
        open_s: stats::median(&opens),
    };
    Ok((stack, opened, at_open))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Surface {
    Tcp,
    Http,
}

impl Surface {
    /// Client `c`'s surface: client 0 speaks TCP, client 1 HTTP.
    pub fn of_client(c: usize) -> Surface {
        if c == 0 {
            Surface::Tcp
        } else {
            Surface::Http
        }
    }
}

/// One pre-encoded request.
#[derive(Clone, Debug)]
pub enum Req {
    /// A TCP frame payload.
    Tcp(String),
    /// An HTTP method, path and optional body.
    Http {
        method: &'static str,
        path: String,
        body: Option<String>,
    },
}

impl Req {
    pub fn bytes(&self) -> usize {
        match self {
            Req::Tcp(p) => p.len(),
            Req::Http { body, .. } => body.as_ref().map_or(0, String::len),
        }
    }
}

/// One client connection.
pub enum Conn {
    Tcp(TcpStream),
    Http(HttpClient),
}

impl Conn {
    /// Sends `req` and returns the success body; a `busy`/`err` frame
    /// or a non-200 status is an error carrying the body text.
    pub fn call(&mut self, req: &Req) -> Result<Vec<u8>, String> {
        match (self, req) {
            (Conn::Tcp(s), Req::Tcp(payload)) => {
                write_frame(s, payload.as_bytes()).map_err(|e| format!("tcp write: {e}"))?;
                let body = read_frame(s)
                    .map_err(|e| format!("tcp read: {e}"))?
                    .ok_or("tcp: server closed")?;
                if body.starts_with(b"ok ") {
                    Ok(body)
                } else {
                    Err(String::from_utf8_lossy(&body).into_owned())
                }
            }
            (Conn::Http(c), Req::Http { method, path, body }) => {
                let (status, resp) = c
                    .request(method, path, body.as_deref())
                    .map_err(|e| format!("http: {e}"))?;
                if status == 200 {
                    Ok(resp)
                } else {
                    Err(format!("HTTP {status}: {}", String::from_utf8_lossy(&resp)))
                }
            }
            _ => Err("request does not match the connection's surface".into()),
        }
    }
}

/// What a request did, for the per-kind latency splits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Job,
    Write,
    Read,
}

/// One timed request.
#[derive(Clone, Debug)]
pub struct Sample {
    pub surface: Surface,
    pub op: Op,
    /// When it was due, sent and answered, relative to the pass start.
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time (equal to the send time in a closed
    /// loop), in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done.saturating_sub(self.due)).as_secs_f64() * 1e3
    }

    pub fn late_ms(&self) -> f64 {
        (self.sent.saturating_sub(self.due)).as_secs_f64() * 1e3
    }
}

pub fn latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok && keep(s))
        .map(Sample::latency_ms)
        .collect()
}

pub fn summary(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Summary {
    Summary::of(&latencies(samples, keep))
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Service counters the run checks and reports, as deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub jobs: u64,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub shed: u64,
    pub engine_runs: u64,
    pub engine_us: u64,
    pub store_write_us: u64,
    pub commuted: u64,
    pub repaired: u64,
    pub recomputed: u64,
}

impl Counters {
    pub fn between(a: &MetricsSnapshot, b: &MetricsSnapshot) -> Counters {
        Counters {
            jobs: b.jobs_submitted - a.jobs_submitted,
            hits: b.cache_hits - a.cache_hits,
            misses: b.cache_misses - a.cache_misses,
            coalesced: b.coalesced - a.coalesced,
            shed: b.shed - a.shed,
            engine_runs: b.latency_hist_count - a.latency_hist_count,
            engine_us: b.latency_hist_sum_us - a.latency_hist_sum_us,
            store_write_us: b.store_write_us - a.store_write_us,
            commuted: b.graph_deltas_commuted - a.graph_deltas_commuted,
            repaired: b.graph_deltas_repaired - a.graph_deltas_repaired,
            recomputed: b.graph_deltas_recomputed - a.graph_deltas_recomputed,
        }
    }

    /// The service's own accounting identity.
    pub fn balanced(&self) -> bool {
        self.jobs == self.hits + self.misses + self.coalesced + self.shed
    }
}

/// A scratch directory under the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(root: &Path, name: &str) -> Result<WorkDir, String> {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A fresh copy of directory `from` at `self/name`.
    pub fn copy_of(&self, from: &Path, name: &str) -> Result<PathBuf, String> {
        let to = self.0.join(name);
        let _ = std::fs::remove_dir_all(&to);
        std::fs::create_dir_all(&to).map_err(|e| format!("create {}: {e}", to.display()))?;
        for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
            let entry = entry.map_err(|e| e.to_string())?;
            if entry.file_type().map_err(|e| e.to_string())?.is_file() {
                std::fs::copy(entry.path(), to.join(entry.file_name()))
                    .map_err(|e| format!("copy: {e}"))?;
            }
        }
        Ok(to)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// splitmix64: derives independent seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a sequence of counts: the digest two runs of one seed
/// must agree on.
pub fn digest(values: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One client's deterministic request schedule.
pub trait Client: Send {
    /// The next request and what it does.
    fn next(&mut self) -> (Req, Op);
    /// The served body of request `index` (`None`: it failed).
    fn served(&mut self, index: usize, body: Option<Vec<u8>>);
}

/// A finished client: its schedule state, samples and spans.
pub struct Finished<C> {
    pub client: C,
    pub samples: Vec<Sample>,
    pub spans: Vec<crate::trace::Span>,
}

/// When a closed loop stops.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// At the first whole `cycle` of requests per client that ends after
    /// `seconds`.
    Time { seconds: f64, cycle: usize },
    /// After this many requests per client.
    Requests(usize),
}

/// Runs one closed-loop client per thread over the network (client 0
/// on TCP, client 1 on HTTP) in lockstep rounds: every client sends its
/// next request together, after all answered the last, so each request
/// runs beside the others' requests of the same round and the
/// contention it sees is fixed by the schedule, not by timing. Clients
/// stop together, after whole cycles of their schedule, so every run
/// serves the same request mix. With `epoch`, each request gets a
/// `request` span around a `client.call` span. Returns the clients and
/// the throughput in successful requests per second.
pub fn closed_loop<C: Client>(
    stack: &Stack,
    clients: Vec<C>,
    until: Until,
    epoch: Option<Instant>,
) -> Result<(Vec<Finished<C>>, f64), String> {
    let conns = (0..clients.len())
        .map(|c| stack.connect(Surface::of_client(c)))
        .collect::<Result<Vec<_>, _>>()?;
    let round = Barrier::new(clients.len());
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let done = |index: usize| match until {
        Until::Time { seconds, cycle } => {
            index > 0 && index.is_multiple_of(cycle) && start.elapsed().as_secs_f64() >= seconds
        }
        Until::Requests(n) => index >= n,
    };
    let finished = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(conns)
            .enumerate()
            .map(|(c, (mut client, mut conn))| {
                let (round, stop, done) = (&round, &stop, &done);
                scope.spawn(move || {
                    let surface = Surface::of_client(c);
                    let mut samples = Vec::new();
                    let mut log = epoch.map(|e| crate::trace::SpanLog::new(e, c as u64));
                    loop {
                        let index = samples.len();
                        if round.wait().is_leader() {
                            stop.store(done(index), Ordering::SeqCst);
                        }
                        round.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let (req, op) = client.next();
                        let sent = start.elapsed();
                        let result = match log.as_mut() {
                            None => conn.call(&req),
                            Some(log) => {
                                let request = ((c as u64) << 32) | index as u64;
                                log.span("request", request, None, |log, root| {
                                    log.span("client.call", request, Some(root), |_, _| {
                                        conn.call(&req)
                                    })
                                })
                            }
                        };
                        let done = start.elapsed();
                        samples.push(Sample {
                            surface,
                            op,
                            due: sent,
                            sent,
                            done,
                            ok: result.is_ok(),
                        });
                        client.served(index, result.ok());
                    }
                    let spans = log.map(|l| l.spans).unwrap_or_default();
                    Finished {
                        client,
                        samples,
                        spans,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let ok = finished
        .iter()
        .flat_map(|f| &f.samples)
        .filter(|s| s.ok)
        .count();
    let elapsed = finished
        .iter()
        .flat_map(|f| &f.samples)
        .map(|s| s.done)
        .max()
        .unwrap_or_default();
    Ok((finished, ok as f64 / elapsed.as_secs_f64().max(1e-9)))
}

/// Serves the first `count` requests of each client in-process, one
/// thread per client in lockstep rounds as in [`closed_loop`], spanning
/// every layer call ([`crate::jobs::serve_in_process`]). Any failed
/// request fails the pass.
pub fn in_process<C: Client>(
    service: &Service,
    clients: Vec<C>,
    count: usize,
    epoch: Instant,
) -> Result<Vec<Finished<C>>, String> {
    let round = Barrier::new(clients.len());
    let results: Vec<(Finished<C>, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let round = &round;
                scope.spawn(move || {
                    let mut log = crate::trace::SpanLog::new(epoch, 16 + c as u64);
                    let mut error = None;
                    for index in 0..count {
                        round.wait();
                        let (req, _) = client.next();
                        let request = (((16 + c) as u64) << 32) | index as u64;
                        let body = log.span("request", request, None, |log, root| {
                            crate::jobs::serve_in_process(service, &req, log, request, root)
                        });
                        if let Err(e) = &body {
                            error.get_or_insert_with(|| {
                                format!("in-process request {c}/{index}: {e}")
                            });
                        }
                        client.served(index, body.ok());
                    }
                    (
                        Finished {
                            client,
                            samples: Vec::new(),
                            spans: log.spans,
                        },
                        error,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "layer thread panicked".to_string()))
            .collect::<Result<Vec<_>, String>>()
    })?;
    if let Some(e) = results.iter().find_map(|r| r.1.clone()) {
        return Err(e);
    }
    Ok(results.into_iter().map(|r| r.0).collect())
}

/// Problems with the service's `jobs = hits + misses + coalesced +
/// shed` identity over a pass.
pub fn accounting(pass: &str, c: &Counters) -> Option<String> {
    (!c.balanced()).then(|| {
        format!(
            "{pass}: jobs {} != hits {} + misses {} + coalesced {} + shed {}",
            c.jobs, c.hits, c.misses, c.coalesced, c.shed
        )
    })
}

pub fn samples<C>(f: &[Finished<C>]) -> Vec<Sample> {
    f.iter().flat_map(|x| x.samples.iter().cloned()).collect()
}

pub fn spans<C>(f: &[Finished<C>]) -> Vec<crate::trace::Span> {
    f.iter().flat_map(|x| x.spans.iter().cloned()).collect()
}

/// Writes the traced passes' spans to
/// `<work root>/traces/<workload>-<seed>.jsonl`.
pub fn save_spans(
    args: &crate::Args,
    b: &[crate::trace::Span],
    c: &[crate::trace::Span],
) -> Result<(), String> {
    let dir = args.work_root.join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let all: Vec<_> = b.iter().chain(c).cloned().collect();
    crate::trace::write_jsonl(
        &dir.join(format!("{}-{}.jsonl", args.workload, args.seed)),
        &all,
    )
    .map_err(|e| format!("write spans: {e}"))
}

/// Fills the end-to-end metrics shared by every workload from the
/// measured pass's samples; `throughput` is the workload's own figure.
/// Records the tail's percentile and the sample count it came from.
pub fn e2e(
    out: &mut crate::Outcome,
    samples: &[Sample],
    throughput: f64,
    setup_s: f64,
    rss: f64,
    spanner_edges: u64,
) {
    let all = summary(samples, |_| true);
    out.attempted = samples.len() as u64;
    out.failed = samples.iter().filter(|s| !s.ok).count() as u64;
    out.e2e.insert("latency_ms.p50", all.p50);
    out.e2e.insert("latency_ms.tail", all.tail);
    out.e2e.insert("throughput_rps", throughput);
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("peak_rss_mb", rss);
    out.e2e.insert("spanner_edges", spanner_edges as f64);
    out.detail
        .push(("tail_percentile".into(), format!("{}", all.tail_pct)));
    out.detail
        .push(("samples".into(), format!("{}", all.samples)));
}
