//! Owned problem instances and the single dispatch entry point over
//! the four Section-4 variants.
//!
//! The free functions of [`crate::dist`] each borrow their own input
//! shape, which is the right API for direct callers but forces any
//! *generic* caller — a job queue, a network server, a load generator —
//! to match on four signatures. [`VariantInstance`] packages one
//! problem instance (graph plus variant-specific data) as an owned
//! value, [`VariantKind`] names its shape, and [`run_variant`] is the
//! one dispatch point, so layers above `dsa-core` never touch the
//! individual entry points.

use std::fmt;
use std::str::FromStr;

use dsa_graphs::{DiGraph, EdgeSet, EdgeWeights, Graph};

use super::engine::{run_engine_timed, EngineConfig, PhaseTimings, SpannerRun};
use super::{
    min_2_spanner, min_2_spanner_client_server, min_2_spanner_directed, min_2_spanner_weighted,
    ClientServerTwoSpanner, DirectedTwoSpanner, UndirectedTwoSpanner, WeightedTwoSpanner,
};

/// The shape of a minimum 2-spanner problem variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum VariantKind {
    /// Theorem 1.3: undirected, unweighted.
    #[default]
    Undirected,
    /// Theorem 4.9: directed.
    Directed,
    /// Theorem 4.12: weighted.
    Weighted,
    /// Theorem 4.15: client-server.
    ClientServer,
}

impl VariantKind {
    /// All four kinds, in theorem order.
    pub const ALL: [VariantKind; 4] = [
        VariantKind::Undirected,
        VariantKind::Directed,
        VariantKind::Weighted,
        VariantKind::ClientServer,
    ];

    /// The stable lowercase name, used on the wire and in CLIs.
    pub fn as_str(self) -> &'static str {
        match self {
            VariantKind::Undirected => "undirected",
            VariantKind::Directed => "directed",
            VariantKind::Weighted => "weighted",
            VariantKind::ClientServer => "client-server",
        }
    }
}

impl fmt::Display for VariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for VariantKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        VariantKind::ALL
            .into_iter()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| format!("unknown variant `{s}` (expected one of: undirected, directed, weighted, client-server)"))
    }
}

/// One owned problem instance: the graph together with the data its
/// variant needs.
///
/// Equality is structural (same vertex count, same edges in the same
/// id order, same per-variant data) — what a serving layer needs to
/// confirm that two hash-keyed lookups really are the same job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VariantInstance {
    /// An undirected instance (Theorem 1.3).
    Undirected {
        /// The input graph.
        graph: Graph,
    },
    /// A directed instance (Theorem 4.9).
    Directed {
        /// The input digraph.
        graph: DiGraph,
    },
    /// A weighted instance (Theorem 4.12).
    Weighted {
        /// The input graph.
        graph: Graph,
        /// Per-edge costs, indexed by edge id.
        weights: EdgeWeights,
    },
    /// A client-server instance (Theorem 4.15).
    ClientServer {
        /// The input graph.
        graph: Graph,
        /// The client edges (those needing coverage).
        clients: EdgeSet,
        /// The server edges (those allowed into the spanner).
        servers: EdgeSet,
    },
}

impl VariantInstance {
    /// The shape of this instance.
    pub fn kind(&self) -> VariantKind {
        match self {
            VariantInstance::Undirected { .. } => VariantKind::Undirected,
            VariantInstance::Directed { .. } => VariantKind::Directed,
            VariantInstance::Weighted { .. } => VariantKind::Weighted,
            VariantInstance::ClientServer { .. } => VariantKind::ClientServer,
        }
    }

    /// Vertex count of the underlying graph.
    pub fn num_vertices(&self) -> usize {
        match self {
            VariantInstance::Undirected { graph } => graph.num_vertices(),
            VariantInstance::Directed { graph } => graph.num_vertices(),
            VariantInstance::Weighted { graph, .. } => graph.num_vertices(),
            VariantInstance::ClientServer { graph, .. } => graph.num_vertices(),
        }
    }

    /// Edge count of the underlying graph (the spanner-edge universe).
    pub fn num_edges(&self) -> usize {
        match self {
            VariantInstance::Undirected { graph } => graph.num_edges(),
            VariantInstance::Directed { graph } => graph.num_edges(),
            VariantInstance::Weighted { graph, .. } => graph.num_edges(),
            VariantInstance::ClientServer { graph, .. } => graph.num_edges(),
        }
    }

    /// Checks the cross-field invariants the borrowing constructors
    /// would `assert!`, as a recoverable error — the form a serving
    /// layer needs before feeding untrusted input to [`run_variant`].
    pub fn validate(&self) -> Result<(), String> {
        match self {
            VariantInstance::Undirected { .. } | VariantInstance::Directed { .. } => Ok(()),
            VariantInstance::Weighted { graph, weights } => {
                if weights.len() != graph.num_edges() {
                    return Err(format!(
                        "weight count {} does not match edge count {}",
                        weights.len(),
                        graph.num_edges()
                    ));
                }
                Ok(())
            }
            VariantInstance::ClientServer {
                graph,
                clients,
                servers,
            } => {
                if clients.universe() != graph.num_edges() {
                    return Err(format!(
                        "client universe {} does not match edge count {}",
                        clients.universe(),
                        graph.num_edges()
                    ));
                }
                if servers.universe() != graph.num_edges() {
                    return Err(format!(
                        "server universe {} does not match edge count {}",
                        servers.universe(),
                        graph.num_edges()
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Runs the engine on `instance`, dispatching to the matching
/// Section-4 entry point.
///
/// # Panics
///
/// Panics if the instance's cross-field invariants are violated (call
/// [`VariantInstance::validate`] first on untrusted input).
pub fn run_variant(instance: &VariantInstance, cfg: &EngineConfig) -> SpannerRun {
    match instance {
        VariantInstance::Undirected { graph } => min_2_spanner(graph, cfg),
        VariantInstance::Directed { graph } => min_2_spanner_directed(graph, cfg),
        VariantInstance::Weighted { graph, weights } => min_2_spanner_weighted(graph, weights, cfg),
        VariantInstance::ClientServer {
            graph,
            clients,
            servers,
        } => min_2_spanner_client_server(graph, clients, servers, cfg),
    }
}

/// [`run_variant`] plus the engine's per-phase wall-clock accounting —
/// the dispatch point the benchmarks use. The [`SpannerRun`] is
/// byte-identical to [`run_variant`]'s.
///
/// # Panics
///
/// Panics if the instance's cross-field invariants are violated (call
/// [`VariantInstance::validate`] first on untrusted input).
pub fn run_variant_timed(
    instance: &VariantInstance,
    cfg: &EngineConfig,
) -> (SpannerRun, PhaseTimings) {
    match instance {
        VariantInstance::Undirected { graph } => {
            run_engine_timed(&UndirectedTwoSpanner::new(graph), cfg)
        }
        VariantInstance::Directed { graph } => {
            run_engine_timed(&DirectedTwoSpanner::new(graph), cfg)
        }
        VariantInstance::Weighted { graph, weights } => {
            run_engine_timed(&WeightedTwoSpanner::new(graph, weights), cfg)
        }
        VariantInstance::ClientServer {
            graph,
            clients,
            servers,
        } => run_engine_timed(&ClientServerTwoSpanner::new(graph, clients, servers), cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_graphs::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kind_names_roundtrip() {
        for kind in VariantKind::ALL {
            assert_eq!(kind.as_str().parse::<VariantKind>(), Ok(kind));
        }
        assert!("bogus".parse::<VariantKind>().is_err());
    }

    #[test]
    fn dispatch_matches_direct_entry_points() {
        let mut rng = StdRng::seed_from_u64(41);
        let cfg = EngineConfig::seeded(6);

        let g = gen::gnp_connected(20, 0.3, &mut rng);
        let via = run_variant(&VariantInstance::Undirected { graph: g.clone() }, &cfg);
        assert_eq!(via.spanner, min_2_spanner(&g, &cfg).spanner);

        let d = gen::random_digraph_connected(16, 0.12, &mut rng);
        let via = run_variant(&VariantInstance::Directed { graph: d.clone() }, &cfg);
        assert_eq!(via.spanner, min_2_spanner_directed(&d, &cfg).spanner);

        let w = gen::random_weights(g.num_edges(), 0, 5, &mut rng);
        let via = run_variant(
            &VariantInstance::Weighted {
                graph: g.clone(),
                weights: w.clone(),
            },
            &cfg,
        );
        assert_eq!(via.spanner, min_2_spanner_weighted(&g, &w, &cfg).spanner);

        let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
        let via = run_variant(
            &VariantInstance::ClientServer {
                graph: g.clone(),
                clients: clients.clone(),
                servers: servers.clone(),
            },
            &cfg,
        );
        assert_eq!(
            via.spanner,
            min_2_spanner_client_server(&g, &clients, &servers, &cfg).spanner
        );
    }

    #[test]
    fn validate_catches_mismatches() {
        let g = gen::complete(4);
        let ok = VariantInstance::Weighted {
            graph: g.clone(),
            weights: EdgeWeights::unit(&g),
        };
        assert!(ok.validate().is_ok());
        let bad = VariantInstance::Weighted {
            graph: g.clone(),
            weights: EdgeWeights::constant(2, 1),
        };
        assert!(bad.validate().is_err());
        let bad = VariantInstance::ClientServer {
            graph: g.clone(),
            clients: EdgeSet::full(g.num_edges()),
            servers: EdgeSet::full(1),
        };
        assert!(bad.validate().is_err());
        let ok = VariantInstance::ClientServer {
            graph: g.clone(),
            clients: EdgeSet::full(g.num_edges()),
            servers: EdgeSet::full(g.num_edges()),
        };
        assert!(ok.validate().is_ok());
    }
}
