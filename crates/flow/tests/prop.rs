//! Property tests for the flow crate: the Goldberg reduction must agree
//! with exhaustive search on every small graph.

use dsa_flow::{
    densest_subgraph, densest_subgraph_brute_force, densest_weighted_subgraph,
    densest_weighted_subgraph_brute_force,
};
use dsa_graphs::Ratio;
use proptest::bits::BitSetLike;
use proptest::prelude::*;

/// Strategy: a small random undirected simple graph as (n, edges).
fn small_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..=9).prop_flat_map(|n| {
        let all_pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let k = all_pairs.len();
        (Just(n), proptest::bits::bitset::between(0, k)).prop_map(move |(n, mask)| {
            let edges = all_pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask.test(*i))
                .map(|(_, &e)| e)
                .collect();
            (n, edges)
        })
    })
}

/// Strategy: a small weighted instance as (vertex weights, edges with
/// multiplicities): up to 9 vertices of weight 0..=5, each pair present
/// with multiplicity 1 or 2, and no pair between two zero-weight
/// vertices (the caller's invariant: weight-0 stars are pre-added).
fn small_weighted() -> impl Strategy<Value = (Vec<u64>, Vec<(usize, usize, u64)>)> {
    (2usize..=9).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        (
            proptest::collection::vec(0u64..=5, n),
            proptest::collection::vec(0u64..=2, pairs),
        )
            .prop_map(move |(weights, mults)| {
                let all_pairs = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)));
                let edges = all_pairs
                    .zip(mults)
                    .filter(|&((u, v), mult)| mult > 0 && weights[u] + weights[v] > 0)
                    .map(|((u, v), mult)| (u, v, mult))
                    .collect();
                (weights, edges)
            })
    })
}

/// The witness the oracle must return for optimum `density`: the
/// inclusion-minimal maximizer of `d·e(A) − t·W(A)` with `d = max(W², 2)`
/// and `t = ⌈density·d⌉ − 1`, found by enumerating every subset. The
/// objective is supermodular, so the maximizers are closed under
/// intersection and their intersection is the unique minimal one;
/// that closure is asserted too.
fn minimal_maximizer(weights: &[u64], edges: &[(usize, usize, u64)], density: Ratio) -> Vec<usize> {
    let n = weights.len();
    let total: i128 = weights.iter().map(|&w| i128::from(w)).sum();
    let d = (total * total).max(2);
    let t = (i128::from(density.numerator()) * d - 1) / i128::from(density.denominator());
    let objective = |mask: u32| -> i128 {
        let e: i128 = edges
            .iter()
            .filter(|&&(u, v, _)| mask >> u & 1 == 1 && mask >> v & 1 == 1)
            .map(|&(_, _, mult)| i128::from(mult))
            .sum();
        let w: i128 = (0..n)
            .filter(|&v| mask >> v & 1 == 1)
            .map(|v| i128::from(weights[v]))
            .sum();
        d * e - t * w
    };
    let best = (0u32..1 << n).map(objective).max().unwrap_or(0);
    let minimal = (0u32..1 << n)
        .filter(|&mask| objective(mask) == best)
        .fold(u32::MAX, |acc, mask| acc & mask);
    assert_eq!(objective(minimal), best, "maximizers not closed under ∩");
    (0..n).filter(|&v| minimal >> v & 1 == 1).collect()
}

proptest! {
    #[test]
    fn weighted_oracle_matches_brute_force_and_pins_the_witness(
        (weights, edges) in small_weighted()
    ) {
        let fast = densest_weighted_subgraph(&weights, &edges);
        let slow = densest_weighted_subgraph_brute_force(&weights, &edges);
        match (fast, slow) {
            (None, None) => prop_assert!(edges.is_empty()),
            (Some(f), Some(s)) => {
                prop_assert_eq!(f.density, s.density);
                prop_assert_eq!(
                    &f.vertices,
                    &minimal_maximizer(&weights, &edges, f.density)
                );
                // At least one Dinkelbach flow plus the exact test.
                prop_assert!(f.flows >= 2, "flows = {}", f.flows);
            }
            (f, s) => prop_assert!(false, "mismatch: fast={f:?} slow={s:?}"),
        }
    }

    #[test]
    fn goldberg_matches_brute_force((n, edges) in small_graph()) {
        let fast = densest_subgraph(n, &edges);
        let slow = densest_subgraph_brute_force(n, &edges);
        match (fast, slow) {
            (None, None) => {}
            (Some(f), Some(s)) => {
                prop_assert_eq!(f.density, s.density);
                // The returned vertex set must actually achieve the density.
                let inside: Vec<bool> = {
                    let mut v = vec![false; n];
                    for &x in &f.vertices { v[x] = true; }
                    v
                };
                let count = edges.iter()
                    .filter(|&&(u, v)| inside[u] && inside[v])
                    .count() as u64;
                prop_assert_eq!(Ratio::new(count, f.vertices.len() as u64), f.density);
            }
            (f, s) => prop_assert!(false, "mismatch: fast={f:?} slow={s:?}"),
        }
    }

    #[test]
    fn densest_is_at_least_any_single_edge((n, edges) in small_graph()) {
        if let Some(best) = densest_subgraph(n, &edges) {
            // Any single edge's endpoints give density 1/2.
            prop_assert!(best.density >= Ratio::new(1, 2));
            prop_assert!(!best.vertices.is_empty());
        } else {
            prop_assert!(edges.is_empty());
        }
    }
}
