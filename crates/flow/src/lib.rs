//! Max-flow and densest-subgraph machinery.
//!
//! Section 4 of *Distributed Spanner Approximation* computes, at every
//! vertex `v`, the **densest v-star** with respect to the uncovered edges
//! between `v`'s neighbors. Choosing the leaf set `A ⊆ N(v)` of a star is
//! exactly choosing a vertex subset of the *local graph* on `N(v)` whose
//! edges are the uncovered edges, and the star's density `|C_S|/|S|` is
//! the classic subgraph density `|E(A)|/|A|`. The paper points to the
//! parametric flow of Gallo–Grigoriadis–Tarjan; we use the better-known
//! Goldberg reduction on top of [Dinic's max-flow algorithm](MaxFlow)
//! and search the density with Dinkelbach's method: each flow either
//! finds a strictly denser set or proves the current density optimal,
//! so a query costs a handful of flows, plus one exact test that fixes
//! the returned set ([`densest_weighted_subgraph`] documents both). A
//! query builds one network and re-solves it by rewriting capacities
//! ([`MaxFlow::set_capacity`]); [`Densest::flows`] counts the flows.
//!
//! # Example
//!
//! ```
//! use dsa_flow::densest_subgraph;
//!
//! // A triangle {0,1,2} plus an isolated vertex 3: the densest subgraph
//! // is the triangle, with density 3/3 = 1 (the full vertex set only
//! // reaches 3/4).
//! let edges = [(0, 1), (1, 2), (0, 2)];
//! let best = densest_subgraph(4, &edges).unwrap();
//! assert_eq!(best.vertices, vec![0, 1, 2]);
//! assert_eq!(best.density, dsa_graphs::Ratio::new(1, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dinic;
mod goldberg;

pub use dinic::MaxFlow;
pub use goldberg::{
    densest_subgraph, densest_subgraph_brute_force, densest_weighted_subgraph,
    densest_weighted_subgraph_brute_force, Densest,
};
