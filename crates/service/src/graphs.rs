//! Named, long-lived graphs: the resource registry behind the
//! `/v1/graphs` HTTP surface and the `graph-*` wire frames.
//!
//! A named graph is a persistent, evolving edge set plus the engine
//! configuration it is solved under. Callers create it once (`PUT`),
//! stream edge insert/delete deltas at it (`PATCH`), and read the
//! maintained spanner (`GET .../spanner`) — instead of re-shipping and
//! re-solving a full edge list per request.
//!
//! # Determinism contract
//!
//! The served spanner is **always** `solve(current live edge set)`
//! under the graph's stored config — the exact bytes a one-shot job
//! over the same edges would return, executed through the same service
//! pipeline (canonicalization, cache, store, coalescing). Incremental
//! maintenance never changes *what* is served, only *when* the engine
//! runs:
//!
//! * **commuted** — an inserted edge is already covered by the current
//!   working cover (or is not a coverage target): no engine work.
//! * **repaired** — an inserted target is uncovered: a local repair
//!   pass ([`dsa_core::dist::repair_cover`]) patches the working cover
//!   in O(delta) and the engine still does not run. Each repair adds
//!   *repair debt*; debt is cleared by the next full solve.
//! * **recomputed** — a deletion, a restart (the replayed log carries
//!   no cover), or repair debt above [`REPAIR_DEBT_THRESHOLD`] makes
//!   the working cover untrustworthy as a classification basis: the
//!   next solve is a full engine run over the live edge set.
//!
//! The working cover is used only for classification and metadata; it
//! is never served. Class counts are process-local runtime metrics —
//! they depend on restart timing and patch batching — while the served
//! spanner bytes are a pure function of the delta history.
//!
//! # Persistence
//!
//! With a `--cache-dir`, every accepted create/patch/delete command is
//! appended to `graphs.log` in the store directory (the store's
//! advisory single-writer lock covers the whole directory, so the log
//! needs no lock of its own). The log is a [`RecordLog`] (magic
//! `DSAGRPH1`, checksum tag `dsa-graph-record-v1`, fault points
//! `graphs.append.*`) whose payloads are the wire codec's command text
//! — the wire protocol and the log can never drift. Recovery skips
//! corrupt records and truncates a ragged tail, so a crash mid-append
//! recovers to the last fully appended delta. An append failure
//! demotes the registry to memory-only (mirroring the result store's
//! degrade path) — the service keeps answering, it just stops
//! persisting graph history.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dsa_runtime::sync::OrderedMutex;

use dsa_core::dist::{
    plan_insertions, repair_cover, ClientServerTwoSpanner, DirectedTwoSpanner, EngineConfig,
    SpannerVariant, UndirectedTwoSpanner, VariantInstance, VariantKind, WeightedTwoSpanner,
};
use dsa_graphs::{DiGraph, EdgeSet, EdgeWeights, Graph};
use dsa_runtime::{obs, FaultInjector};

use crate::job::{JobError, JobResponse, JobSpec};
use crate::record_log::{LogFormat, RecordLog};
use crate::wire;

/// Repair debt (cover edges added by local repairs since the last full
/// solve) above which the next insert patch stops repairing and
/// recomputes instead. Repairs are individually sound but greedy; past
/// this bound a fresh engine solve both re-tightens the cover and
/// resets the classification basis.
pub const REPAIR_DEBT_THRESHOLD: usize = 256;

/// Maximum length of a graph id.
pub const MAX_GRAPH_ID_LEN: usize = 64;

/// Name of the delta log inside a store directory (next to the result
/// store's `results.log`; the directory's advisory lock covers both).
pub(crate) const GRAPH_LOG_FILE: &str = "graphs.log";

/// `graphs.log` on disk and in fault plans.
pub(crate) const GRAPHS_LOG: LogFormat = LogFormat {
    file: GRAPH_LOG_FILE,
    magic: b"DSAGRPH1",
    tag: "dsa-graph-record-v1",
    faults: "graphs",
};

// ---------------------------------------------------------------------
// Public request/response types
// ---------------------------------------------------------------------

/// A request to create a named graph: the instance (initial edges plus
/// variant-specific extras) and the result-relevant engine config it
/// will be solved under for its whole lifetime.
#[derive(Clone, Debug)]
pub struct GraphSpec {
    /// The graph's name: 1–64 characters from `[a-zA-Z0-9._-]`.
    pub id: String,
    /// The initial instance. Edge ids in the live graph start as this
    /// instance's edge ids (insertion order) and extend from there.
    pub instance: VariantInstance,
    /// Engine configuration. Execution policy (shard count, cancel
    /// flag, timing collection) is normalized away at registration:
    /// it never affects the served bytes.
    pub config: EngineConfig,
}

/// Role of an edge inserted into a client-server graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeRole {
    /// The edge needs covering (a client edge).
    Client,
    /// The edge may be used in covering 2-paths (a server edge).
    Server,
    /// Both of the above.
    Both,
}

impl EdgeRole {
    /// The wire spelling (`client` / `server` / `both`).
    pub fn as_str(&self) -> &'static str {
        match self {
            EdgeRole::Client => "client",
            EdgeRole::Server => "server",
            EdgeRole::Both => "both",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<EdgeRole> {
        match s {
            "client" => Some(EdgeRole::Client),
            "server" => Some(EdgeRole::Server),
            "both" => Some(EdgeRole::Both),
            _ => None,
        }
    }
}

/// One edge delta in a `PATCH`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Insert one edge. `weight` is required for the weighted variant
    /// and forbidden elsewhere; `role` is optional for the
    /// client-server variant (no role: neither client nor server) and
    /// forbidden elsewhere.
    Insert {
        /// One endpoint.
        u: usize,
        /// The other endpoint (the head, for directed graphs).
        v: usize,
        /// Edge weight (weighted variant only).
        weight: Option<u64>,
        /// Client/server role (client-server variant only).
        role: Option<EdgeRole>,
    },
    /// Delete the edge `{u, v}` (the ordered edge `(u, v)` for
    /// directed graphs).
    Delete {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
}

/// Per-patch (and per-graph cumulative) delta classification counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaClasses {
    /// Ops that commuted with the working cover: no engine work.
    pub commuted: u64,
    /// Ops answered by a local repair pass: no engine run.
    pub repaired: u64,
    /// Ops that invalidated the cover or forced a full solve.
    pub recomputed: u64,
}

impl DeltaClasses {
    fn add(&mut self, other: &DeltaClasses) {
        self.commuted += other.commuted;
        self.repaired += other.repaired;
        self.recomputed += other.recomputed;
    }
}

/// Result of a create.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphCreated {
    /// The graph id.
    pub id: String,
    /// Applied delta count (0 for a fresh create).
    pub version: u64,
    /// Live edge count.
    pub edges: usize,
    /// Size of the eagerly solved spanner (for an idempotent
    /// re-create: the current working cover, 0 if unsolved since
    /// restart).
    pub spanner_size: usize,
    /// True when the graph already existed with an identical
    /// definition (idempotent re-create; maps to HTTP 200 vs 201).
    pub existed: bool,
}

/// Result of a patch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphPatched {
    /// The graph id.
    pub id: String,
    /// Total deltas applied since creation (after this patch).
    pub version: u64,
    /// Ops applied by this patch.
    pub applied: usize,
    /// How this patch's ops were classified.
    pub classes: DeltaClasses,
    /// Live edge count after the patch.
    pub edges: usize,
}

/// Graph metadata/stats.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphMeta {
    /// The graph id.
    pub id: String,
    /// The variant.
    pub kind: VariantKind,
    /// Total deltas applied since creation.
    pub version: u64,
    /// Vertex count (fixed at creation).
    pub vertices: usize,
    /// Live edge count.
    pub edges: usize,
    /// The engine seed.
    pub seed: u64,
    /// Size of the working cover, absent when invalidated (after a
    /// delete or a restart, before the next solve).
    pub cover_size: Option<usize>,
    /// Repair debt accumulated since the last full solve.
    pub debt: usize,
    /// Cumulative per-graph delta classification counts (process-local;
    /// reset by restarts).
    pub classes: DeltaClasses,
}

/// The maintained spanner: the solve of the current live edge set,
/// with edges reported as endpoint pairs (live edge ids are internal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphSpannerResult {
    /// The graph id.
    pub id: String,
    /// The delta version this spanner answers.
    pub version: u64,
    /// The canonical job/cache key of the underlying solve.
    pub key: u64,
    /// The variant.
    pub kind: VariantKind,
    /// Whether the engine converged.
    pub converged: bool,
    /// Engine iterations of the underlying run.
    pub iterations: u64,
    /// LOCAL rounds of the underlying run.
    pub local_rounds: u64,
    /// Star-fallback count of the underlying run.
    pub star_fallbacks: u64,
    /// Spanner edges as `(u, v)` endpoint pairs, ordered by live edge
    /// id ascending — a pure function of the delta history.
    pub edges: Vec<(usize, usize)>,
}

/// Why a graph operation failed.
#[derive(Clone, Debug)]
pub enum GraphError {
    /// No graph with that id.
    NotFound(String),
    /// The id exists with a different definition (create conflict).
    Conflict(String),
    /// The request is structurally valid but semantically rejected
    /// (bad id, duplicate insert, missing delete target, ...).
    Invalid(String),
    /// The underlying solve failed (busy, timeout, ...).
    Job(JobError),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NotFound(id) => write!(f, "no graph named `{id}`"),
            GraphError::Conflict(m) => write!(f, "graph conflict: {m}"),
            GraphError::Invalid(m) => write!(f, "invalid graph request: {m}"),
            GraphError::Job(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for GraphError {}

/// Whether `id` is a well-formed graph name: 1–64 characters from
/// `[a-zA-Z0-9._-]` (URL-safe, shell-safe, filename-safe).
pub fn valid_graph_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_GRAPH_ID_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

/// One live edge. The record index in [`GraphState::edges`] is the
/// live edge id, which is also the engine edge id of the instance
/// rebuilt from the list (insertion-order CSR).
#[derive(Clone, Copy, Debug)]
struct EdgeRecord {
    u: usize,
    v: usize,
    /// Weight (weighted variant; 0 elsewhere).
    weight: u64,
    /// Client/server role flags (client-server variant; false
    /// elsewhere).
    client: bool,
    server: bool,
}

struct GraphState {
    kind: VariantKind,
    config: EngineConfig,
    n: usize,
    /// The canonical create command text — the idempotency identity of
    /// a re-create, and the bytes the log replays.
    create_cmd: String,
    /// Live edges in insertion order. Deletion compacts the list, so
    /// ids shift — which is fine, because deletion always invalidates
    /// the working cover.
    edges: Vec<EdgeRecord>,
    /// Normalized endpoint pair -> live edge id, for O(1) existence
    /// checks. Pairs are `(min, max)` except for directed graphs.
    index: HashMap<(usize, usize), usize>,
    /// Applied delta count.
    version: u64,
    /// The working cover over live edge ids (classification basis, a
    /// valid 2-spanner of the live graph when present — never served).
    cover: Option<EdgeSet>,
    /// Cover edges added by local repairs since the last full solve.
    debt: usize,
    /// Cumulative per-graph classification counts.
    classes: DeltaClasses,
}

struct GraphEntry {
    state: OrderedMutex<GraphState>,
}

/// What open-time log replay found.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ReplayReport {
    /// Graphs live after replay.
    pub graphs: usize,
    /// Commands applied.
    pub records: usize,
    /// Corrupt records dropped by the framing walk.
    pub dropped: u64,
    /// Well-framed records skipped by semantic replay (unknown id,
    /// un-decodable command).
    pub skipped: u64,
}

/// The named-graph registry shared by the TCP and HTTP frontends.
pub(crate) struct GraphRegistry {
    graphs: OrderedMutex<HashMap<String, Arc<GraphEntry>>>,
    log: Option<OrderedMutex<RecordLog>>,
    /// Cleared when an append fails: the registry keeps serving from
    /// memory but stops persisting (mirrors the result store).
    log_ok: AtomicBool,
}

impl GraphState {
    fn normalize_pair(&self, u: usize, v: usize) -> Result<(usize, usize), GraphError> {
        if u >= self.n || v >= self.n {
            return Err(GraphError::Invalid(format!(
                "edge ({u}, {v}) out of range for {} vertices",
                self.n
            )));
        }
        if u == v {
            return Err(GraphError::Invalid(format!("self-loop ({u}, {u})")));
        }
        Ok(match self.kind {
            VariantKind::Directed => (u, v),
            _ => (u.min(v), u.max(v)),
        })
    }

    /// Validates `ops` against the current live set without mutating
    /// it (a rejected patch applies nothing). Ops are checked
    /// sequentially, so an insert+delete of the same edge inside one
    /// patch is legal.
    fn validate_ops(&self, ops: &[DeltaOp]) -> Result<(), GraphError> {
        if ops.is_empty() {
            return Err(GraphError::Invalid("patch carries no ops".into()));
        }
        let mut present: HashSet<(usize, usize)> = self.index.keys().copied().collect();
        for op in ops {
            match *op {
                DeltaOp::Insert { u, v, weight, role } => {
                    let pair = self.normalize_pair(u, v)?;
                    match self.kind {
                        VariantKind::Weighted => {
                            if weight.is_none() {
                                return Err(GraphError::Invalid(format!(
                                    "insert ({u}, {v}): weighted graphs need a weight"
                                )));
                            }
                        }
                        _ => {
                            if weight.is_some() {
                                return Err(GraphError::Invalid(format!(
                                    "insert ({u}, {v}): only weighted graphs take a weight"
                                )));
                            }
                        }
                    }
                    if role.is_some() && self.kind != VariantKind::ClientServer {
                        return Err(GraphError::Invalid(format!(
                            "insert ({u}, {v}): only client-server graphs take a role"
                        )));
                    }
                    if !present.insert(pair) {
                        return Err(GraphError::Invalid(format!(
                            "insert ({u}, {v}): edge already exists"
                        )));
                    }
                }
                DeltaOp::Delete { u, v } => {
                    let pair = self.normalize_pair(u, v)?;
                    if !present.remove(&pair) {
                        return Err(GraphError::Invalid(format!(
                            "delete ({u}, {v}): no such edge"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies validated ops. Returns the live ids of inserted edges
    /// (meaningful only for insert-only patches: deletion shifts ids)
    /// and whether any op was a delete.
    ///
    /// Callers run [`GraphState::validate_ops`] first, so the fallible
    /// steps here cannot fail in practice; they still propagate as
    /// `GraphError` rather than panicking — a request-path invariant
    /// slip must degrade to a failed patch, not a dead worker.
    fn apply_ops(&mut self, ops: &[DeltaOp]) -> Result<(Vec<usize>, bool), GraphError> {
        let mut new_ids = Vec::new();
        let mut had_delete = false;
        for op in ops {
            match *op {
                DeltaOp::Insert { u, v, weight, role } => {
                    let pair = self.normalize_pair(u, v)?;
                    let id = self.edges.len();
                    self.edges.push(EdgeRecord {
                        u: pair.0,
                        v: pair.1,
                        weight: weight.unwrap_or(0),
                        client: matches!(role, Some(EdgeRole::Client | EdgeRole::Both)),
                        server: matches!(role, Some(EdgeRole::Server | EdgeRole::Both)),
                    });
                    self.index.insert(pair, id);
                    new_ids.push(id);
                }
                DeltaOp::Delete { u, v } => {
                    had_delete = true;
                    let pair = self.normalize_pair(u, v)?;
                    let id = *self.index.get(&pair).ok_or_else(|| {
                        GraphError::Invalid(format!("delete ({u}, {v}): no such edge"))
                    })?;
                    self.edges.remove(id);
                    self.index.clear();
                    for (i, r) in self.edges.iter().enumerate() {
                        self.index.insert((r.u, r.v), i);
                    }
                }
            }
        }
        self.version += ops.len() as u64;
        Ok((new_ids, had_delete))
    }

    /// Rebuilds the engine instance from the live edge list. Live edge
    /// ids equal instance edge ids (insertion-order construction).
    fn instance(&self) -> VariantInstance {
        let pairs: Vec<(usize, usize)> = self.edges.iter().map(|r| (r.u, r.v)).collect();
        match self.kind {
            VariantKind::Undirected => VariantInstance::Undirected {
                graph: Graph::from_edges(self.n, pairs),
            },
            VariantKind::Weighted => VariantInstance::Weighted {
                graph: Graph::from_edges(self.n, pairs),
                weights: EdgeWeights::from_vec(self.edges.iter().map(|r| r.weight).collect()),
            },
            VariantKind::Directed => VariantInstance::Directed {
                graph: DiGraph::from_edges(self.n, pairs),
            },
            VariantKind::ClientServer => {
                let m = self.edges.len();
                let flagged = |f: fn(&EdgeRecord) -> bool| {
                    EdgeSet::from_iter(
                        m,
                        self.edges
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| f(r))
                            .map(|(i, _)| i),
                    )
                };
                VariantInstance::ClientServer {
                    graph: Graph::from_edges(self.n, pairs),
                    clients: flagged(|r| r.client),
                    servers: flagged(|r| r.server),
                }
            }
        }
    }

    /// The one-shot job equivalent of this graph's current state — the
    /// spec whose solve defines the served bytes.
    fn job_spec(&self) -> JobSpec {
        JobSpec {
            instance: self.instance(),
            config: self.config.clone(),
            timeout: None,
        }
    }

    /// Installs a fresh engine solve as the working cover.
    fn install_cover(&mut self, resp: &JobResponse) {
        self.cover = Some(EdgeSet::from_iter(
            self.edges.len(),
            resp.spanner.iter().copied(),
        ));
        self.debt = 0;
    }

    fn meta(&self, id: &str) -> GraphMeta {
        GraphMeta {
            id: id.to_string(),
            kind: self.kind,
            version: self.version,
            vertices: self.n,
            edges: self.edges.len(),
            seed: self.config.seed,
            cover_size: self.cover.as_ref().map(EdgeSet::len),
            debt: self.debt,
            classes: self.classes,
        }
    }
}

/// Classifies `new_ids` against the cover and repairs the uncovered
/// ones. Returns `(commuted, repaired, cover edges added)`.
fn plan_and_repair<V: SpannerVariant>(
    variant: &V,
    cover: &mut EdgeSet,
    new_ids: &[usize],
) -> (usize, usize, usize) {
    let plan = plan_insertions(variant, cover, new_ids);
    let added = repair_cover(variant, cover, &plan.uncovered);
    (plan.commuted.len(), plan.uncovered.len(), added.len())
}

/// Variant dispatch for [`plan_and_repair`] over a rebuilt instance.
fn classify_inserts(
    instance: &VariantInstance,
    cover: &mut EdgeSet,
    new_ids: &[usize],
) -> (usize, usize, usize) {
    match instance {
        VariantInstance::Undirected { graph } => {
            plan_and_repair(&UndirectedTwoSpanner::new(graph), cover, new_ids)
        }
        VariantInstance::Weighted { graph, weights } => {
            plan_and_repair(&WeightedTwoSpanner::new(graph, weights), cover, new_ids)
        }
        VariantInstance::Directed { graph } => {
            plan_and_repair(&DirectedTwoSpanner::new(graph), cover, new_ids)
        }
        VariantInstance::ClientServer {
            graph,
            clients,
            servers,
        } => plan_and_repair(
            &ClientServerTwoSpanner::new(graph, clients, servers),
            cover,
            new_ids,
        ),
    }
}

/// Strips execution policy from a config: shard count, cancellation,
/// and timing collection never affect served bytes, so a graph's
/// stored config (and its log encoding) normalizes them away.
fn normalized_config(mut config: EngineConfig) -> EngineConfig {
    config.num_shards = 1;
    config.cancel = None;
    config.collect_timings = false;
    config
}

/// Extracts `(n, records)` from an instance. Infallible: instances are
/// normalized by construction (the graph types reject self-loops and
/// duplicates).
fn records_of(instance: &VariantInstance) -> (usize, Vec<EdgeRecord>) {
    let blank = |(u, v): (usize, usize)| EdgeRecord {
        u,
        v,
        weight: 0,
        client: false,
        server: false,
    };
    match instance {
        VariantInstance::Undirected { graph } => (
            graph.num_vertices(),
            graph.edges().map(|(_, u, v)| blank((u, v))).collect(),
        ),
        VariantInstance::Directed { graph } => (
            graph.num_vertices(),
            graph.edges().map(|(_, u, v)| blank((u, v))).collect(),
        ),
        VariantInstance::Weighted { graph, weights } => (
            graph.num_vertices(),
            graph
                .edges()
                .map(|(e, u, v)| EdgeRecord {
                    u,
                    v,
                    weight: weights.get(e),
                    client: false,
                    server: false,
                })
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
                .map(|(e, u, v)| EdgeRecord {
                    u,
                    v,
                    weight: 0,
                    client: clients.contains(e),
                    server: servers.contains(e),
                })
                .collect(),
        ),
    }
}

impl GraphRegistry {
    /// Opens the registry, replaying `dir/graphs.log` when a store
    /// directory is configured. Must be called *after* the result
    /// store takes the directory's advisory lock.
    pub fn open(
        dir: Option<&Path>,
        fault: Arc<FaultInjector>,
    ) -> std::io::Result<(GraphRegistry, ReplayReport)> {
        let mut registry = GraphRegistry {
            graphs: OrderedMutex::new("graphs_map", 10, HashMap::new()),
            log: None,
            log_ok: AtomicBool::new(true),
        };
        let mut report = ReplayReport::default();
        if let Some(dir) = dir {
            let log = RecordLog::open(dir, GRAPHS_LOG, fault, |_, payload| {
                if registry.replay(payload) {
                    report.records += 1;
                } else {
                    report.skipped += 1;
                }
                true
            })?;
            report.dropped = log.dropped();
            registry.log = Some(OrderedMutex::new("graph_log", 30, log));
        }
        report.graphs = registry.live();
        Ok((registry, report))
    }

    /// Applies one logged command. Replay never solves: covers start
    /// absent and the first post-restart patch or spanner read
    /// recomputes. Returns false when the record cannot be applied
    /// (un-decodable, unknown id, stale semantics) — such records are
    /// skipped, never fatal, mirroring store corruption recovery.
    fn replay(&mut self, payload: &[u8]) -> bool {
        let request = match wire::decode_request(payload) {
            Ok(r) => r,
            Err(_) => return false,
        };
        match request {
            wire::Request::GraphCreate(spec) => {
                let map = self.graphs.get_mut();
                if !valid_graph_id(&spec.id) || map.contains_key(&spec.id) {
                    return false;
                }
                let state = build_state(&spec);
                map.insert(
                    spec.id.clone(),
                    Arc::new(GraphEntry {
                        state: OrderedMutex::new("graph_state", 20, state),
                    }),
                );
                true
            }
            wire::Request::GraphPatch { id, ops } => {
                let map = self.graphs.get_mut();
                let Some(entry) = map.get(&id) else {
                    return false;
                };
                let mut st = entry.state.lock();
                if st.validate_ops(&ops).is_err() || st.apply_ops(&ops).is_err() {
                    return false;
                }
                st.cover = None;
                st.debt = 0;
                true
            }
            wire::Request::GraphDelete { id } => self.graphs.get_mut().remove(&id).is_some(),
            _ => false,
        }
    }

    /// Number of live graphs.
    pub fn live(&self) -> usize {
        self.graphs.lock().len()
    }

    /// Whether the delta log is still persisting (false after an
    /// append failure, or trivially true without a store directory).
    pub fn log_healthy(&self) -> bool {
        self.log_ok.load(Ordering::Relaxed)
    }

    fn entry(&self, id: &str) -> Result<Arc<GraphEntry>, GraphError> {
        self.graphs
            .lock()
            .get(id)
            .cloned()
            .ok_or_else(|| GraphError::NotFound(id.to_string()))
    }

    /// Appends one command to the delta log; an append failure demotes
    /// the registry to memory-only (returns whether the record was
    /// persisted, for the caller's degrade hook).
    fn append(&self, cmd: &str) -> bool {
        let Some(log) = &self.log else {
            return true;
        };
        if !self.log_ok.load(Ordering::Relaxed) {
            return false;
        }
        match log.lock().append(cmd.as_bytes()) {
            Ok(_) => true,
            Err(e) => {
                self.log_ok.store(false, Ordering::Relaxed);
                obs::error(
                    "dsa-service",
                    "graph log append failed; graph persistence disabled",
                    &[("error", &e)],
                );
                false
            }
        }
    }

    /// Creates a named graph, solving it eagerly (the baseline cover).
    /// Re-creating an existing graph with the byte-identical create
    /// command is idempotent; a different definition is a conflict.
    pub fn create(
        &self,
        spec: GraphSpec,
        solve: impl Fn(JobSpec) -> Result<JobResponse, JobError>,
    ) -> Result<(GraphCreated, bool), GraphError> {
        if !valid_graph_id(&spec.id) {
            return Err(GraphError::Invalid(format!(
                "graph id `{}` must be 1-{MAX_GRAPH_ID_LEN} characters from [a-zA-Z0-9._-]",
                spec.id
            )));
        }
        let spec = GraphSpec {
            config: normalized_config(spec.config),
            ..spec
        };
        let cmd = wire::encode_graph_create(&spec);
        let idempotent = |st: &GraphState| -> Result<(GraphCreated, bool), GraphError> {
            if st.create_cmd == cmd {
                Ok((
                    GraphCreated {
                        id: spec.id.clone(),
                        version: st.version,
                        edges: st.edges.len(),
                        spanner_size: st.cover.as_ref().map_or(0, EdgeSet::len),
                        existed: true,
                    },
                    false,
                ))
            } else {
                Err(GraphError::Conflict(format!(
                    "graph `{}` already exists with a different definition",
                    spec.id
                )))
            }
        };
        if let Some(entry) = self.graphs.lock().get(&spec.id).cloned() {
            return idempotent(&entry.state.lock());
        }
        // Solve before registering: a graph only exists once its
        // baseline spanner does, so a failed solve leaves no trace.
        let mut state = build_state(&spec);
        let resp = solve(state.job_spec()).map_err(GraphError::Job)?;
        state.install_cover(&resp);
        let spanner_size = resp.spanner.len();
        let edges = state.edges.len();
        let mut map = self.graphs.lock();
        if let Some(entry) = map.get(&spec.id).cloned() {
            // Lost a concurrent create race; fall back to the
            // idempotency check against the winner.
            return idempotent(&entry.state.lock());
        }
        let persisted = self.append(&cmd);
        map.insert(
            spec.id.clone(),
            Arc::new(GraphEntry {
                state: OrderedMutex::new("graph_state", 20, state),
            }),
        );
        Ok((
            GraphCreated {
                id: spec.id,
                version: 0,
                edges,
                spanner_size,
                existed: false,
            },
            !persisted,
        ))
    }

    /// Applies one patch: validate, log, apply, classify. Returns the
    /// patch result plus whether the log degraded on this call.
    pub fn patch(
        &self,
        id: &str,
        ops: &[DeltaOp],
        solve: impl Fn(JobSpec) -> Result<JobResponse, JobError>,
    ) -> Result<(GraphPatched, bool), GraphError> {
        let entry = self.entry(id)?;
        let mut st = entry.state.lock();
        st.validate_ops(ops)?;
        // Classification basis is decided *before* applying: a cover
        // already past the debt threshold (or absent after a restart)
        // recomputes this whole patch.
        let trusted_cover = st.cover.is_some() && st.debt <= REPAIR_DEBT_THRESHOLD;
        let cmd = wire::encode_graph_patch(id, ops);
        let persisted = self.append(&cmd);
        let (new_ids, had_delete) = st.apply_ops(ops)?;
        let mut classes = DeltaClasses::default();
        if had_delete {
            // Coverage is not monotone under deletion: the cover is
            // untrustworthy. The solve is deferred to the next read.
            st.cover = None;
            st.debt = 0;
            classes.recomputed = ops.len() as u64;
        } else if !trusted_cover {
            classes.recomputed = ops.len() as u64;
            st.classes.add(&classes);
            match solve(st.job_spec()) {
                Ok(resp) => st.install_cover(&resp),
                Err(e) => {
                    // The ops are applied and logged; only the solve
                    // failed. The next patch or read re-solves.
                    st.cover = None;
                    st.debt = 0;
                    return Err(GraphError::Job(e));
                }
            }
            return Ok((
                GraphPatched {
                    id: id.to_string(),
                    version: st.version,
                    applied: ops.len(),
                    classes,
                    edges: st.edges.len(),
                },
                !persisted,
            ));
        } else {
            // Insert-only with a trusted cover: widen the cover to the
            // grown edge universe (ids are stable under insertion),
            // classify, repair the uncovered stragglers locally.
            let m = st.edges.len();
            let old = st.cover.take().expect("trusted cover present"); // dsa-lint: allow(DSA-P001, reason="branch is only entered when a trusted cover is present")
            let mut cover = EdgeSet::from_iter(m, old.iter());
            let instance = st.instance();
            let (commuted, repaired, added) = classify_inserts(&instance, &mut cover, &new_ids);
            st.cover = Some(cover);
            st.debt += added;
            classes.commuted = commuted as u64;
            classes.repaired = repaired as u64;
        }
        st.classes.add(&classes);
        Ok((
            GraphPatched {
                id: id.to_string(),
                version: st.version,
                applied: ops.len(),
                classes,
                edges: st.edges.len(),
            },
            !persisted,
        ))
    }

    /// Metadata/stats for one graph.
    pub fn meta(&self, id: &str) -> Result<GraphMeta, GraphError> {
        let entry = self.entry(id)?;
        let st = entry.state.lock();
        Ok(st.meta(id))
    }

    /// The maintained spanner: solves the current live edge set
    /// through `solve` (the service pipeline, so unchanged graphs are
    /// answered from cache) and refreshes the working cover.
    pub fn spanner(
        &self,
        id: &str,
        solve: impl Fn(JobSpec) -> Result<JobResponse, JobError>,
    ) -> Result<GraphSpannerResult, GraphError> {
        let entry = self.entry(id)?;
        let mut st = entry.state.lock();
        let resp = solve(st.job_spec()).map_err(GraphError::Job)?;
        st.install_cover(&resp);
        let edges = resp
            .spanner
            .iter()
            .map(|&e| (st.edges[e].u, st.edges[e].v)) // dsa-lint: allow(DSA-P003, reason="spanner indices come from the solver over this instance, in range by construction")
            .collect();
        Ok(GraphSpannerResult {
            id: id.to_string(),
            version: st.version,
            key: resp.key,
            kind: resp.kind,
            converged: resp.converged,
            iterations: resp.iterations,
            local_rounds: resp.local_rounds,
            star_fallbacks: resp.star_fallbacks,
            edges,
        })
    }

    /// Retires a graph. Returns whether the log degraded on this call.
    pub fn delete(&self, id: &str) -> Result<bool, GraphError> {
        let mut map = self.graphs.lock();
        if map.remove(id).is_none() {
            return Err(GraphError::NotFound(id.to_string()));
        }
        let persisted = self.append(&wire::encode_graph_delete(id));
        Ok(!persisted)
    }
}

fn build_state(spec: &GraphSpec) -> GraphState {
    let (n, edges) = records_of(&spec.instance);
    let index = edges
        .iter()
        .enumerate()
        .map(|(i, r)| ((r.u, r.v), i))
        .collect();
    GraphState {
        kind: spec.instance.kind(),
        config: normalized_config(spec.config.clone()),
        n,
        create_cmd: wire::encode_graph_create(spec),
        edges,
        index,
        version: 0,
        cover: None,
        debt: 0,
        classes: DeltaClasses::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_core::dist::run_variant;
    use std::io::Write;

    /// A direct-engine solver: what the service pipeline reduces to
    /// with the cache cold (same engine, same config normalization).
    fn direct_solve(spec: JobSpec) -> Result<JobResponse, JobError> {
        let run = run_variant(&spec.instance, &spec.config);
        Ok(JobResponse {
            key: 0,
            kind: spec.instance.kind(),
            spanner: run.spanner.iter().collect(),
            iterations: run.iterations,
            local_rounds: run.local_rounds(),
            converged: run.converged,
            star_fallbacks: run.star_fallbacks,
        })
    }

    fn registry() -> GraphRegistry {
        GraphRegistry::open(None, Arc::new(FaultInjector::disabled()))
            .expect("memory registry")
            .0
    }

    fn undirected_spec(id: &str, n: usize, edges: &[(usize, usize)]) -> GraphSpec {
        GraphSpec {
            id: id.to_string(),
            instance: VariantInstance::Undirected {
                graph: Graph::from_edges(n, edges.iter().copied()),
            },
            config: EngineConfig::seeded(7),
        }
    }

    #[test]
    fn graph_ids_are_validated() {
        assert!(valid_graph_id("a"));
        assert!(valid_graph_id("prod.web-42_x"));
        assert!(!valid_graph_id(""));
        assert!(!valid_graph_id("a/b"));
        assert!(!valid_graph_id("a b"));
        assert!(!valid_graph_id(&"x".repeat(MAX_GRAPH_ID_LEN + 1)));
        let r = registry();
        let err = r
            .create(undirected_spec("no/slash", 3, &[(0, 1)]), direct_solve)
            .unwrap_err();
        assert!(matches!(err, GraphError::Invalid(_)), "{err}");
    }

    #[test]
    fn create_is_idempotent_and_conflicts_on_redefinition() {
        let r = registry();
        let spec = undirected_spec("g", 4, &[(0, 1), (1, 2), (0, 2)]);
        let (created, _) = r.create(spec.clone(), direct_solve).unwrap();
        assert!(!created.existed);
        assert_eq!(created.version, 0);
        assert_eq!(created.edges, 3);
        let (again, _) = r.create(spec, direct_solve).unwrap();
        assert!(again.existed);
        let err = r
            .create(undirected_spec("g", 4, &[(0, 1)]), direct_solve)
            .unwrap_err();
        assert!(matches!(err, GraphError::Conflict(_)), "{err}");
        assert_eq!(r.live(), 1);
        r.delete("g").unwrap();
        assert_eq!(r.live(), 0);
        assert!(matches!(r.meta("g"), Err(GraphError::NotFound(_))));
    }

    #[test]
    fn patches_validate_transactionally() {
        let r = registry();
        r.create(undirected_spec("g", 4, &[(0, 1), (1, 2)]), direct_solve)
            .unwrap();
        // Second op is invalid (duplicate insert): nothing applies.
        let err = r
            .patch(
                "g",
                &[
                    DeltaOp::Insert {
                        u: 2,
                        v: 3,
                        weight: None,
                        role: None,
                    },
                    DeltaOp::Insert {
                        u: 1,
                        v: 0,
                        weight: None,
                        role: None,
                    },
                ],
                direct_solve,
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::Invalid(_)), "{err}");
        assert_eq!(r.meta("g").unwrap().version, 0);
        assert_eq!(r.meta("g").unwrap().edges, 2);
        for (ops, why) in [
            (vec![DeltaOp::Delete { u: 0, v: 3 }], "missing delete"),
            (
                vec![DeltaOp::Insert {
                    u: 0,
                    v: 0,
                    weight: None,
                    role: None,
                }],
                "self-loop",
            ),
            (
                vec![DeltaOp::Insert {
                    u: 0,
                    v: 9,
                    weight: None,
                    role: None,
                }],
                "out of range",
            ),
            (
                vec![DeltaOp::Insert {
                    u: 0,
                    v: 3,
                    weight: Some(2),
                    role: None,
                }],
                "weight on unweighted",
            ),
            (
                vec![DeltaOp::Insert {
                    u: 0,
                    v: 3,
                    weight: None,
                    role: Some(EdgeRole::Both),
                }],
                "role on non-client-server",
            ),
            (vec![], "empty patch"),
        ] {
            assert!(
                matches!(
                    r.patch("g", &ops, direct_solve),
                    Err(GraphError::Invalid(_))
                ),
                "accepted: {why}"
            );
        }
        // Insert-then-delete of the same edge inside one patch is
        // legal and nets out.
        let (patched, _) = r
            .patch(
                "g",
                &[
                    DeltaOp::Insert {
                        u: 2,
                        v: 3,
                        weight: None,
                        role: None,
                    },
                    DeltaOp::Delete { u: 3, v: 2 },
                ],
                direct_solve,
            )
            .unwrap();
        assert_eq!(patched.version, 2);
        assert_eq!(patched.edges, 2);
    }

    #[test]
    fn covered_inserts_commute_and_uncovered_repair() {
        let r = registry();
        // A star around 0: every spoke is a bridge, so the baseline
        // spanner is the whole star and any spoke-to-spoke chord has a
        // 2-path through 0.
        let spokes: Vec<(usize, usize)> = (1..8).map(|v| (0, v)).collect();
        r.create(undirected_spec("star", 10, &spokes), direct_solve)
            .unwrap();
        let insert = |u, v| DeltaOp::Insert {
            u,
            v,
            weight: None,
            role: None,
        };
        let (p, _) = r
            .patch("star", &[insert(1, 2), insert(3, 4)], direct_solve)
            .unwrap();
        assert_eq!(p.classes.commuted, 2, "chords commute: {:?}", p.classes);
        assert_eq!(p.classes.repaired, 0);
        assert_eq!(p.classes.recomputed, 0);
        // Vertices 8 and 9 are isolated: (8, 9) has no 2-path and must
        // be repaired (the repair adds the edge itself to the cover).
        let (p, _) = r.patch("star", &[insert(8, 9)], direct_solve).unwrap();
        assert_eq!(p.classes.repaired, 1, "{:?}", p.classes);
        let meta = r.meta("star").unwrap();
        assert_eq!(meta.debt, 1);
        assert_eq!(meta.classes.commuted, 2);
        // A chord next to the repaired edge now commutes through it...
        // no 2-path exists, so instead verify a delete invalidates.
        let (p, _) = r
            .patch("star", &[DeltaOp::Delete { u: 8, v: 9 }], direct_solve)
            .unwrap();
        assert_eq!(p.classes.recomputed, 1);
        let meta = r.meta("star").unwrap();
        assert_eq!(meta.cover_size, None, "delete invalidates the cover");
        // The cover is absent, so the next insert patch recomputes.
        let (p, _) = r.patch("star", &[insert(5, 6)], direct_solve).unwrap();
        assert_eq!(p.classes.recomputed, 1);
        assert!(r.meta("star").unwrap().cover_size.is_some());
    }

    #[test]
    fn spanner_matches_from_scratch_solve() {
        let r = registry();
        r.create(
            undirected_spec("g", 6, &[(0, 1), (1, 2), (2, 3), (3, 4)]),
            direct_solve,
        )
        .unwrap();
        let insert = |u, v| DeltaOp::Insert {
            u,
            v,
            weight: None,
            role: None,
        };
        r.patch("g", &[insert(0, 2), insert(4, 5)], direct_solve)
            .unwrap();
        r.patch("g", &[DeltaOp::Delete { u: 1, v: 2 }], direct_solve)
            .unwrap();
        let got = r.spanner("g", direct_solve).unwrap();
        // From scratch: the same final edge set, same config.
        let final_edges = [(0, 1), (2, 3), (3, 4), (0, 2), (4, 5)];
        let spec = undirected_spec("scratch", 6, &final_edges);
        let resp = direct_solve(JobSpec {
            instance: spec.instance.clone(),
            config: normalized_config(spec.config),
            timeout: None,
        })
        .unwrap();
        let want: Vec<(usize, usize)> = resp
            .spanner
            .iter()
            .map(|&e| {
                let (u, v) = final_edges[e];
                (u.min(v), u.max(v))
            })
            .collect();
        assert_eq!(got.edges, want);
        assert_eq!(got.version, 3);
        // Serving refreshed the cover.
        let meta = r.meta("g").unwrap();
        assert_eq!(meta.cover_size, Some(got.edges.len()));
        assert_eq!(meta.debt, 0);
    }

    #[test]
    fn log_replays_and_recovers_from_truncation() {
        let dir =
            std::env::temp_dir().join(format!("dsa-graphlog-unit-{}-replay", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fault = Arc::new(FaultInjector::disabled());
        {
            let (r, report) = GraphRegistry::open(Some(&dir), Arc::clone(&fault)).unwrap();
            assert_eq!(report.graphs, 0);
            r.create(undirected_spec("g", 5, &[(0, 1), (1, 2)]), direct_solve)
                .unwrap();
            r.patch(
                "g",
                &[DeltaOp::Insert {
                    u: 2,
                    v: 3,
                    weight: None,
                    role: None,
                }],
                direct_solve,
            )
            .unwrap();
            r.create(undirected_spec("gone", 3, &[(0, 1)]), direct_solve)
                .unwrap();
            r.delete("gone").unwrap();
        }
        // Clean replay: one live graph at version 1, cover absent
        // (replay never solves).
        {
            let (r, report) = GraphRegistry::open(Some(&dir), Arc::clone(&fault)).unwrap();
            assert_eq!(report.graphs, 1);
            assert_eq!(report.records, 4);
            assert_eq!(report.dropped, 0);
            let meta = r.meta("g").unwrap();
            assert_eq!(meta.version, 1);
            assert_eq!(meta.edges, 3);
            assert_eq!(meta.cover_size, None);
            // Append another patch, then simulate a crash mid-append.
            r.patch(
                "g",
                &[DeltaOp::Insert {
                    u: 3,
                    v: 4,
                    weight: None,
                    role: None,
                }],
                direct_solve,
            )
            .unwrap();
        }
        // Crash mid-append: a ragged half-record at the tail.
        {
            use std::fs::OpenOptions;
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(GRAPH_LOG_FILE))
                .unwrap();
            f.write_all(&(400u32).to_be_bytes()).unwrap();
            f.write_all(b"partial record torn by a crash").unwrap();
        }
        {
            let (r, report) = GraphRegistry::open(Some(&dir), Arc::clone(&fault)).unwrap();
            assert_eq!(report.dropped, 1, "the torn tail is dropped");
            let meta = r.meta("g").unwrap();
            assert_eq!(meta.version, 2, "recovered to the last applied delta");
            assert_eq!(meta.edges, 4);
        }
        // And the truncation left a clean tail: appends work again.
        {
            let (r, _) = GraphRegistry::open(Some(&dir), Arc::clone(&fault)).unwrap();
            r.patch("g", &[DeltaOp::Delete { u: 0, v: 1 }], direct_solve)
                .unwrap();
        }
        let (r, report) = GraphRegistry::open(Some(&dir), fault).unwrap();
        assert_eq!(report.dropped, 0);
        assert_eq!(r.meta("g").unwrap().version, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_and_corrupt_appends_recover_to_the_durable_version() {
        let dir =
            std::env::temp_dir().join(format!("dsa-graphlog-unit-{}-faults", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = |plan: &str| {
            let plan = dsa_runtime::FaultPlan::parse(plan).unwrap();
            GraphRegistry::open(Some(&dir), Arc::new(FaultInjector::new(plan))).unwrap()
        };
        let insert = |u, v| DeltaOp::Insert {
            u,
            v,
            weight: None,
            role: None,
        };
        // The served spanner equals a from-scratch solve of `edges`.
        let assert_from_scratch = |r: &GraphRegistry, edges: &[(usize, usize)]| {
            let got = r.spanner("g", direct_solve).unwrap();
            let spec = undirected_spec("scratch", 6, edges);
            let want: Vec<(usize, usize)> = direct_solve(JobSpec {
                instance: spec.instance,
                config: normalized_config(spec.config),
                timeout: None,
            })
            .unwrap()
            .spanner
            .iter()
            .map(|&e| edges[e])
            .collect();
            assert_eq!(got.edges, want);
        };
        let mut edges = vec![(0, 1), (1, 2), (2, 3)];
        {
            let (r, _) = open("seed=1");
            r.create(undirected_spec("g", 6, &edges), direct_solve)
                .unwrap();
        }

        // A short write on a PATCH: the append fails (memory-only from
        // here on) and half a frame stays on disk.
        {
            let (r, _) = open("seed=1;graphs.append.short=1.0");
            let (patched, degraded) = r.patch("g", &[insert(3, 4)], direct_solve).unwrap();
            assert!(degraded);
            assert_eq!(patched.version, 1);
            assert_from_scratch(&r, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        }
        // Restart drops the torn tail; the graph reopens at its last
        // durable version and the next append lands cleanly.
        {
            let (r, report) = open("seed=1");
            assert_eq!((report.dropped, report.records), (1, 1));
            assert_eq!(r.meta("g").unwrap().version, 0);
            assert_from_scratch(&r, &edges);
            let (_, degraded) = r.patch("g", &[insert(4, 5)], direct_solve).unwrap();
            assert!(!degraded);
            edges.push((4, 5));
        }
        {
            let (r, report) = open("seed=1");
            assert_eq!((report.dropped, report.records), (0, 2));
            assert_eq!(r.meta("g").unwrap().version, 1);
            assert_from_scratch(&r, &edges);
        }

        // A corrupt append reports success but never replays: the
        // restart drops and counts it.
        {
            let (r, _) = open("seed=1;graphs.append.corrupt=1.0");
            let (patched, degraded) = r.patch("g", &[insert(0, 5)], direct_solve).unwrap();
            assert!(!degraded, "silent rot is not an append failure");
            assert_eq!(patched.version, 2);
        }
        let (r, report) = open("seed=1");
        assert_eq!((report.dropped, report.records), (1, 2));
        assert_eq!(r.meta("g").unwrap().version, 1);
        assert_from_scratch(&r, &edges);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_failure_degrades_to_memory_only() {
        let dir =
            std::env::temp_dir().join(format!("dsa-graphlog-unit-{}-degrade", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (r, _) =
                GraphRegistry::open(Some(&dir), Arc::new(FaultInjector::disabled())).unwrap();
            r.create(undirected_spec("g", 4, &[(0, 1), (1, 2)]), direct_solve)
                .unwrap();
            assert!(r.log_healthy());
        }
        // Reopen with every graph append failing: replay is pure reads
        // and still works, but the first patch append degrades the
        // registry to memory-only. The patch itself still applies.
        let plan = dsa_runtime::FaultPlan::parse("seed=1;graphs.append.err=1.0").unwrap();
        let (r, report) =
            GraphRegistry::open(Some(&dir), Arc::new(FaultInjector::new(plan))).unwrap();
        assert_eq!(report.graphs, 1);
        let (patched, degraded) = r
            .patch(
                "g",
                &[DeltaOp::Insert {
                    u: 2,
                    v: 3,
                    weight: None,
                    role: None,
                }],
                direct_solve,
            )
            .unwrap();
        assert!(degraded);
        assert_eq!(patched.version, 1);
        assert!(!r.log_healthy());
        // Restart sees only the create: the patch was never persisted.
        drop(r);
        let (r, _) = GraphRegistry::open(Some(&dir), Arc::new(FaultInjector::disabled())).unwrap();
        assert_eq!(r.meta("g").unwrap().version, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
