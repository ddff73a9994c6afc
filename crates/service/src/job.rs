//! Job specifications, canonicalization, and responses.
//!
//! A [`JobSpec`] is one spanner-computation request: a
//! [`VariantInstance`] in whatever edge order the caller submitted,
//! plus the [`EngineConfig`] (seed and ablation toggles) and an
//! optional per-job timeout. Before execution the service rewrites the
//! spec into *canonical* form — the graph rebuilt with edges in
//! [`dsa_graphs::canon`] order, weights and client/server sets
//! permuted to match — and derives the [`CanonicalJob::key`] hash the
//! cache, the in-flight coalescing table, *and the persistent result
//! store* ([`crate::store`]) are keyed by. Two submissions of the same
//! edge set in different orders therefore collapse to one engine run
//! — in this process lifetime or a previous one — and each caller
//! still receives spanner edge ids in *its own* id space via
//! [`JobResponse`]. The key is a hash, never an identity: every
//! consumer (LRU, coalescing map, disk store) re-verifies the full
//! canonical instance before serving across it.

use std::sync::Arc;
use std::time::Duration;

use dsa_core::dist::{EngineConfig, SpannerRun, VariantInstance, VariantKind};
use dsa_graphs::canon::{self, Fnv1a};
use dsa_graphs::{EdgeId, EdgeSet, EdgeWeights};

/// One spanner-computation request.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The problem instance, in the caller's edge order.
    pub instance: VariantInstance,
    /// Engine seed and ablation toggles. The seed, denominator,
    /// toggles, and iteration cap are result-relevant and thus part of
    /// the cache key; `num_shards` and `cancel` are execution policy
    /// (the engine's result is bit-identical for every shard count)
    /// and deliberately excluded, so jobs differing only in them
    /// dedup.
    pub config: EngineConfig,
    /// Optional deadline for [`crate::JobHandle::wait`]; `None` falls
    /// back to the service default. The timeout does not affect the
    /// computed result and is not part of the cache key.
    pub timeout: Option<Duration>,
}

impl JobSpec {
    /// A spec with the paper's engine defaults and the given seed.
    pub fn new(instance: VariantInstance, seed: u64) -> Self {
        JobSpec {
            instance,
            config: EngineConfig::seeded(seed),
            timeout: None,
        }
    }
}

/// A [`JobSpec`] rewritten into canonical edge order, plus what it
/// takes to answer the original caller.
pub(crate) struct CanonicalJob {
    /// Cache/coalescing key: hash of the canonical instance + config.
    pub key: u64,
    /// The instance with edges in canonical order.
    pub instance: VariantInstance,
    /// Result-relevant engine configuration.
    pub config: EngineConfig,
    /// `from_canonical[canonical_edge_id] = submitted_edge_id`.
    pub from_canonical: Vec<EdgeId>,
}

/// Why a job failed. Execution itself cannot fail (the engine is
/// total); failures are rejections, cancellations, deadlines, and —
/// for remote submissions — transport problems.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The spec failed validation before being queued.
    Invalid(String),
    /// The handle was cancelled before a result was available.
    Cancelled,
    /// The deadline passed before a result was available. The engine
    /// run, if already started, still completes and populates the
    /// cache; only this wait gives up.
    TimedOut,
    /// The service shed the job at admission (queue depth or byte
    /// budget exhausted). Safe to retry after the hinted delay:
    /// responses are byte-deterministic, so a retried job returns
    /// exactly what the shed attempt would have.
    Busy {
        /// Suggested client wait before retrying, in milliseconds
        /// (derived from the observed p95 service time and backlog).
        retry_after_ms: u64,
    },
    /// A wire-protocol violation (client side).
    Protocol(String),
    /// A transport error (client side).
    Io(String),
    /// The server rejected or failed the request.
    Remote(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Invalid(m) => write!(f, "invalid job: {m}"),
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::TimedOut => write!(f, "job timed out"),
            JobError::Busy { retry_after_ms } => {
                write!(f, "server busy: retry after {retry_after_ms}ms")
            }
            JobError::Protocol(m) => write!(f, "protocol error: {m}"),
            JobError::Io(m) => write!(f, "transport error: {m}"),
            JobError::Remote(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The answer to one [`JobSpec`], in the caller's edge-id space.
///
/// Deliberately free of serving-side incidentals (no cached/coalesced
/// flag, no timing): the same spec always yields the same response
/// bytes whether it was computed cold, coalesced, or served from
/// cache.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobResponse {
    /// The canonical job key (also the cache key).
    pub key: u64,
    /// Which variant ran.
    pub kind: VariantKind,
    /// Spanner edge ids in the *submitted* graph's id space, ascending.
    pub spanner: Vec<EdgeId>,
    /// Engine iterations executed.
    pub iterations: u64,
    /// LOCAL protocol rounds this run corresponds to
    /// ([`SpannerRun::local_rounds`]).
    pub local_rounds: u64,
    /// Whether every target item was covered.
    pub converged: bool,
    /// Claim-4.4 fallback count (0 in every observed run).
    pub star_fallbacks: u64,
}

impl JobResponse {
    /// Assembles the caller-facing response from a canonical-space run.
    pub(crate) fn from_run(
        key: u64,
        kind: VariantKind,
        run: &Arc<SpannerRun>,
        from_canonical: &[EdgeId],
    ) -> Self {
        let mut spanner: Vec<EdgeId> = run.spanner.iter().map(|e| from_canonical[e]).collect();
        spanner.sort_unstable();
        JobResponse {
            key,
            kind,
            spanner,
            iterations: run.iterations,
            local_rounds: run.local_rounds(),
            converged: run.converged,
            star_fallbacks: run.star_fallbacks,
        }
    }
}

/// Permutes an id-indexed edge set into canonical id space.
fn remap_set(set: &EdgeSet, to_canonical: &[EdgeId]) -> EdgeSet {
    EdgeSet::from_iter(set.universe(), set.iter().map(|e| to_canonical[e]))
}

/// Validates `spec` and rewrites it into canonical form.
pub(crate) fn canonicalize_job(spec: &JobSpec) -> Result<CanonicalJob, JobError> {
    spec.instance.validate().map_err(JobError::Invalid)?;
    if spec.config.accept_denominator == 0 {
        return Err(JobError::Invalid(
            "accept denominator must be positive".into(),
        ));
    }

    let mut hasher = Fnv1a::new();
    hasher.write_bytes(b"dsa-service-job-v1");
    let (instance, from_canonical) = match &spec.instance {
        VariantInstance::Undirected { graph } => {
            let c = canon::canonicalize(graph);
            hasher.write_u64(canon::graph_hash(&c.graph));
            (
                VariantInstance::Undirected { graph: c.graph },
                c.from_canonical,
            )
        }
        VariantInstance::Directed { graph } => {
            let c = canon::canonicalize_digraph(graph);
            hasher.write_u64(canon::digraph_hash(&c.graph));
            (
                VariantInstance::Directed { graph: c.graph },
                c.from_canonical,
            )
        }
        VariantInstance::Weighted { graph, weights } => {
            let c = canon::canonicalize(graph);
            let weights = EdgeWeights::from_fn(graph.num_edges(), |canonical| {
                weights.get(c.from_canonical[canonical])
            });
            hasher.write_u64(canon::weighted_graph_hash(&c.graph, &weights));
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
            let clients = remap_set(clients, &c.to_canonical);
            let servers = remap_set(servers, &c.to_canonical);
            hasher.write_u64(canon::graph_hash(&c.graph));
            for set in [&clients, &servers] {
                hasher.write_usize(set.len());
                for e in set.iter() {
                    hasher.write_usize(e);
                }
            }
            (
                VariantInstance::ClientServer {
                    graph: c.graph,
                    clients,
                    servers,
                },
                c.from_canonical,
            )
        }
    };

    // Variant discriminant and result-relevant engine configuration
    // (num_shards and cancel stay out: execution policy, not result).
    hasher.write_u64(match instance.kind() {
        VariantKind::Undirected => 1,
        VariantKind::Directed => 2,
        VariantKind::Weighted => 3,
        VariantKind::ClientServer => 4,
    });
    hasher.write_u64(spec.config.seed);
    hasher.write_u64(spec.config.accept_denominator);
    hasher.write_u64(u64::from(spec.config.monotone_stars));
    hasher.write_u64(u64::from(spec.config.round_densities));
    hasher.write_u64(spec.config.max_iterations);

    Ok(CanonicalJob {
        key: hasher.finish(),
        instance,
        config: spec.config.clone(),
        from_canonical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_graphs::Graph;

    fn spec_of(edges: &[(usize, usize)], seed: u64) -> JobSpec {
        JobSpec::new(
            VariantInstance::Undirected {
                graph: Graph::from_edges(5, edges.iter().copied()),
            },
            seed,
        )
    }

    #[test]
    fn key_ignores_submission_order() {
        let a = canonicalize_job(&spec_of(&[(0, 1), (1, 2), (2, 3), (0, 4)], 3)).unwrap();
        let b = canonicalize_job(&spec_of(&[(0, 4), (2, 1), (3, 2), (1, 0)], 3)).unwrap();
        assert_eq!(a.key, b.key);
        let other_seed = canonicalize_job(&spec_of(&[(0, 1), (1, 2), (2, 3), (0, 4)], 4)).unwrap();
        assert_ne!(a.key, other_seed.key);
        let other_graph = canonicalize_job(&spec_of(&[(0, 1), (1, 2), (2, 3), (1, 4)], 3)).unwrap();
        assert_ne!(a.key, other_graph.key);
    }

    #[test]
    fn key_sees_ablation_toggles() {
        let base = spec_of(&[(0, 1), (1, 2)], 0);
        let a = canonicalize_job(&base).unwrap();
        let mut ablated = base.clone();
        ablated.config.monotone_stars = false;
        assert_ne!(a.key, canonicalize_job(&ablated).unwrap().key);
        let mut denom = base.clone();
        denom.config.accept_denominator = 4;
        assert_ne!(a.key, canonicalize_job(&denom).unwrap().key);
    }

    #[test]
    fn shards_and_cancel_are_not_result_relevant() {
        use std::sync::atomic::AtomicBool;
        let base = spec_of(&[(0, 1), (1, 2)], 0);
        let mut tuned = base.clone();
        tuned.config.num_shards = 8;
        tuned.config.cancel = Some(Arc::new(AtomicBool::new(false)));
        assert_eq!(
            canonicalize_job(&base).unwrap().key,
            canonicalize_job(&tuned).unwrap().key,
            "execution policy must not split the cache key space"
        );
    }

    #[test]
    fn timeout_is_not_result_relevant() {
        let mut a = spec_of(&[(0, 1), (1, 2)], 0);
        a.timeout = Some(Duration::from_secs(1));
        let b = spec_of(&[(0, 1), (1, 2)], 0);
        assert_eq!(
            canonicalize_job(&a).unwrap().key,
            canonicalize_job(&b).unwrap().key
        );
    }

    #[test]
    fn from_canonical_translates_ids() {
        let spec = spec_of(&[(2, 3), (0, 1), (1, 2)], 0);
        let job = canonicalize_job(&spec).unwrap();
        let VariantInstance::Undirected { graph: c } = &job.instance else {
            panic!("kind changed");
        };
        let VariantInstance::Undirected { graph: g } = &spec.instance else {
            unreachable!();
        };
        for canonical in 0..c.num_edges() {
            assert_eq!(
                c.endpoints(canonical),
                g.endpoints(job.from_canonical[canonical])
            );
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let bad = JobSpec::new(
            VariantInstance::Weighted {
                graph: g,
                weights: EdgeWeights::constant(1, 1),
            },
            0,
        );
        assert!(matches!(canonicalize_job(&bad), Err(JobError::Invalid(_))));
    }
}
