//! From-scratch reference solves: the correctness oracle every served
//! body is compared against, and the engine layer's timing seam.
//!
//! A job is canonicalized with `dsa_graphs::canon` (the order the
//! service solves in), solved with `run_variant_timed`, and its
//! spanner mapped back into the submitted edge-id space. The cache key
//! is not recomputed here: it is an identity hash, not solver output,
//! so the reference takes the served key and the run checks key
//! consistency separately.

use std::time::Instant;

use dsa_core::dist::{run_variant_timed, PhaseTimings, VariantInstance, VariantKind};
use dsa_graphs::canon;
use dsa_graphs::{EdgeId, EdgeSet, EdgeWeights};
use dsa_service::JobResponse;
use dsa_service::JobSpec;

/// Engine work of one reference solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineWork {
    pub kind: Option<VariantKind>,
    pub solve_ms: f64,
    pub phases: PhaseTimings,
    pub iterations: u64,
    pub candidates: u64,
    pub accepted: u64,
}

/// Rewrites `instance` into canonical edge order, returning it with
/// `from_canonical[canonical_id] = submitted_id`.
pub fn canonicalize(instance: &VariantInstance) -> (VariantInstance, Vec<EdgeId>) {
    let remap = |set: &EdgeSet, to: &[EdgeId]| {
        EdgeSet::from_iter(set.universe(), set.iter().map(|e| to[e]))
    };
    match instance {
        VariantInstance::Undirected { graph } => {
            let c = canon::canonicalize(graph);
            (
                VariantInstance::Undirected { graph: c.graph },
                c.from_canonical,
            )
        }
        VariantInstance::Directed { graph } => {
            let c = canon::canonicalize_digraph(graph);
            (
                VariantInstance::Directed { graph: c.graph },
                c.from_canonical,
            )
        }
        VariantInstance::Weighted { graph, weights } => {
            let c = canon::canonicalize(graph);
            let weights =
                EdgeWeights::from_fn(graph.num_edges(), |e| weights.get(c.from_canonical[e]));
            (
                VariantInstance::Weighted {
                    graph: c.graph,
                    weights,
                },
                c.from_canonical,
            )
        }
        VariantInstance::ClientServer {
            graph,
            clients,
            servers,
        } => {
            let c = canon::canonicalize(graph);
            let clients = remap(clients, &c.to_canonical);
            let servers = remap(servers, &c.to_canonical);
            (
                VariantInstance::ClientServer {
                    graph: c.graph,
                    clients,
                    servers,
                },
                c.from_canonical,
            )
        }
    }
}

/// Solves `spec` from scratch. The response's `key` is 0; callers set
/// it to the served key before encoding.
pub fn solve(spec: &JobSpec) -> (JobResponse, EngineWork) {
    let (instance, from_canonical) = canonicalize(&spec.instance);
    let t = Instant::now();
    let (run, phases) = run_variant_timed(&instance, &spec.config);
    let solve_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut spanner: Vec<EdgeId> = run.spanner.iter().map(|e| from_canonical[e]).collect();
    spanner.sort_unstable();
    let work = EngineWork {
        kind: Some(instance.kind()),
        solve_ms,
        phases,
        iterations: run.iterations,
        candidates: run.stats.iter().map(|s| s.candidates as u64).sum(),
        accepted: run.stats.iter().map(|s| s.accepted as u64).sum(),
    };
    let resp = JobResponse {
        key: 0,
        kind: instance.kind(),
        spanner,
        iterations: run.iterations,
        local_rounds: run.local_rounds(),
        converged: run.converged,
        star_fallbacks: run.star_fallbacks,
    };
    (resp, work)
}
