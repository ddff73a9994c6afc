//! Densest subgraph via Goldberg's max-flow reduction, searched with
//! Dinkelbach's method on one reusable flow network.

use dsa_graphs::Ratio;

use crate::MaxFlow;

/// A maximum-density subgraph: the vertex set (sorted), its exact
/// density `|E(A)| / |A|`, and the work the search took.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Densest {
    /// The vertices of the densest subgraph, sorted increasingly.
    pub vertices: Vec<usize>,
    /// Its density.
    pub density: Ratio,
    /// Max-flow runs spent finding it (0 for the brute-force
    /// references). A deterministic work counter: it depends only on
    /// the instance, so it can pin the cost of the search in tests.
    pub flows: u32,
}

/// Computes a maximum-density subgraph of the graph on vertices `0..n`
/// with the given undirected `edges`, where the density of a vertex set
/// `A` is `|{e : both endpoints in A}| / |A|`.
///
/// Returns `None` when there are no edges (every subgraph has density 0,
/// and the spanner algorithm treats that vertex as having no candidate
/// star).
///
/// This is Goldberg's classic reduction: for a density `g`, a network
/// with source capacities `deg(v)`, internal capacities 1 in both
/// directions per edge, and sink capacities `2g` has a minimum cut
/// smaller than `2|E|` iff some subgraph is denser than `g`, and the
/// source side of the minimal minimum cut is such a subgraph. The
/// search starts at the density of the whole graph and jumps to the
/// density of each cut's subgraph (Dinkelbach's method) until a cut
/// proves that nothing is denser; one more flow then fixes the
/// returned vertex set. See [`densest_weighted_subgraph`], which this
/// calls with unit weights.
///
/// # Panics
///
/// Panics if an edge references a vertex `>= n` or is a self-loop.
///
/// # Example
///
/// ```
/// use dsa_flow::densest_subgraph;
/// use dsa_graphs::Ratio;
///
/// // K4 minus an edge: the densest subgraph is the whole thing only if
/// // no triangle beats it. Triangle density 1 vs K4-minus-edge 5/4.
/// let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)];
/// let best = densest_subgraph(4, &edges).unwrap();
/// assert_eq!(best.density, Ratio::new(5, 4));
/// assert_eq!(best.vertices, vec![0, 1, 2, 3]);
/// ```
pub fn densest_subgraph(n: usize, edges: &[(usize, usize)]) -> Option<Densest> {
    let weighted: Vec<(usize, usize, u64)> = edges.iter().map(|&(u, v)| (u, v, 1)).collect();
    densest_weighted_subgraph(&vec![1; n], &weighted)
}

/// Generalized densest subgraph: vertices carry positive weights,
/// edges carry positive multiplicities, and the density of a set `A` is
/// `Σ mult(e inside A) / Σ weight(v in A)`.
///
/// This is exactly the **densest v-star** objective for every variant of
/// Section 4 of the paper:
///
/// * unweighted 2-spanner — all weights and multiplicities 1;
/// * weighted 2-spanner — the weight of leaf `u` is `w({v, u})`
///   (leaves of weight 0 are modeled with weight 0, see below);
/// * directed 2-spanner — the weight of leaf `u` is the number of
///   directed star edges it contributes (1 or 2) and a pair's
///   multiplicity is the number of uncovered directed edges it 2-spans.
///
/// Vertex weights of **zero** are allowed (zero-weight edges of the
/// weighted problem): such vertices are free to include. The returned
/// subgraph is guaranteed to have positive total weight; if a
/// zero-weight set spans an edge, the density is unbounded and the
/// function returns `None` (the caller's invariants — weight-0 stars
/// are pre-added to the spanner — rule that case out).
///
/// Returns `None` when `edges` is empty.
///
/// # Algorithm
///
/// Write `e(A)` for the multiplicity inside `A`, `W(A)` for its weight,
/// `m = e(V)` and `W = W(V)`. For a density `p/q`, the network with
/// source capacities `q·deg(v)`, capacities `q·mult` both ways on every
/// edge and sink capacities `2p·weight(v)` has, for source side `A`, a
/// cut of `2q·m − 2(q·e(A) − p·W(A))`. So its minimum cut is below
/// `2q·m` iff some set is denser than `p/q`, and the source side of the
/// minimal minimum cut then is one. Dinkelbach's method starts at the
/// whole vertex set and moves to each such witness, so the density
/// strictly increases, usually reaching the optimum `ρ*` within a
/// handful of flows; the flow that finds no denser set proves `ρ*`.
///
/// The returned set is then fixed by one exact test with `d = W²`
/// (at least 2): the inclusion-minimal maximizer of
/// `d·e(A) − t·W(A)` at `t = ⌈ρ*·d⌉ − 1`. Distinct densities are at
/// least `1/W²` apart, so every maximizer has density exactly `ρ*`; the
/// objective is supermodular, so the minimal maximizer is unique and
/// the answer does not depend on the path the search took. All
/// capacities are integers, built once into one [`MaxFlow`] whose
/// capacities every flow rewrites; [`Densest::flows`] counts the flows.
///
/// # Panics
///
/// Panics on out-of-range endpoints, self-loops, zero multiplicities,
/// or magnitudes large enough to overflow the scaled capacities
/// (`2 · W² · m` must fit in `i64`), on every build profile.
pub fn densest_weighted_subgraph(
    vertex_weights: &[u64],
    edges: &[(usize, usize, u64)],
) -> Option<Densest> {
    const TOO_LARGE: &str = "instance too large for exact densest-subgraph arithmetic";
    let n = vertex_weights.len();
    if edges.is_empty() {
        return None;
    }
    for &(u, v, mult) in edges {
        assert!(u < n && v < n, "edge ({u}, {v}) out of range");
        assert!(u != v, "self-loop ({u}, {v})");
        assert!(mult > 0, "zero multiplicity on ({u}, {v})");
    }
    let to_i64 = |x: u64| i64::try_from(x).expect(TOO_LARGE);
    let weights: Vec<i64> = vertex_weights.iter().map(|&w| to_i64(w)).collect();
    let mults: Vec<i64> = edges.iter().map(|&(_, _, mult)| to_i64(mult)).collect();
    let m = mults
        .iter()
        .try_fold(0i64, |acc, &x| acc.checked_add(x))
        .expect(TOO_LARGE);
    let total_weight = weights
        .iter()
        .try_fold(0i64, |acc, &w| acc.checked_add(w))
        .expect(TOO_LARGE);
    let d = total_weight
        .checked_mul(total_weight)
        .expect(TOO_LARGE)
        .max(2);
    // Every capacity below is at most 2·m·d (sink capacities of the
    // exact test saturate instead, see `Goldberg::denser_than`).
    assert!(
        m.checked_mul(d).and_then(|x| x.checked_mul(2)).is_some(),
        "{TOO_LARGE}"
    );
    if total_weight == 0 {
        // Zero-weight vertices span an edge: unbounded density.
        return None;
    }

    let mut goldberg = Goldberg::new(&weights, edges, &mults, m);
    // Dinkelbach: p/q is the density of the whole set, then of each
    // witness, until no set is denser.
    let (mut p, mut q) = (m, total_weight);
    while goldberg.denser_than(p, q) {
        let (inside, weight) = goldberg.witness_totals(&weights, edges, &mults);
        if weight == 0 {
            // A zero-weight set spans something: unbounded density.
            return None;
        }
        (p, q) = (inside, weight);
    }
    // The exact test at t = ⌈ρ*·d⌉ − 1 (p ≥ 1, and p·d ≤ m·d fits).
    let t = (p * d - 1) / q;
    let found = goldberg.denser_than(t, d);
    debug_assert!(found, "a set of density p/q beats t/d");
    let vertices: Vec<usize> = goldberg.source_side().collect();
    let density = weighted_subgraph_density(&vertices, vertex_weights, edges)?;
    debug_assert_eq!(density, Ratio::new(p.unsigned_abs(), q.unsigned_abs()));
    Some(Densest {
        vertices,
        density,
        flows: goldberg.flows,
    })
}

/// Goldberg's network for one instance: nodes `0..n`, source `n`, sink
/// `n + 1`. The topology is built once; each density test rewrites
/// every capacity and solves again, allocating nothing.
struct Goldberg {
    net: MaxFlow,
    m: i64,
    /// `(edge id, coefficient)` of the source arcs (`deg(v)`) and of the
    /// two arcs per edge (`mult`), whose capacities scale with the
    /// density's denominator.
    scaled: Vec<(usize, i64)>,
    /// `(edge id, weight(v))` of the sink arcs of positive-weight
    /// vertices, whose capacities scale with twice the numerator.
    sink: Vec<(usize, i64)>,
    flows: u32,
}

impl Goldberg {
    fn new(weights: &[i64], edges: &[(usize, usize, u64)], mults: &[i64], m: i64) -> Self {
        let n = weights.len();
        let (s, t) = (n, n + 1);
        // deg(v) <= m, so no sum here overflows.
        let mut deg = vec![0i64; n];
        for (&(u, v, _), &mult) in edges.iter().zip(mults) {
            deg[u] += mult;
            deg[v] += mult;
        }
        let mut net = MaxFlow::new(n + 2);
        let mut scaled = Vec::with_capacity(n + 2 * edges.len());
        let mut sink = Vec::with_capacity(n);
        for v in 0..n {
            if deg[v] > 0 {
                scaled.push((net.add_edge(s, v, 0), deg[v]));
            }
            if weights[v] > 0 {
                sink.push((net.add_edge(v, t, 0), weights[v]));
            }
        }
        for (&(u, v, _), &mult) in edges.iter().zip(mults) {
            scaled.push((net.add_edge(u, v, 0), mult));
            scaled.push((net.add_edge(v, u, 0), mult));
        }
        Goldberg {
            net,
            m,
            scaled,
            sink,
            flows: 0,
        }
    }

    /// Whether some vertex set `A` has `den·e(A) > num·W(A)`, i.e. is
    /// denser than `num/den`. When it does, the source side of the
    /// solved network is the inclusion-minimal maximizer of
    /// `den·e(A) − num·W(A)`.
    ///
    /// Needs `0 <= num` and `2·m·den`, `2·num` in range. A sink
    /// capacity that would overflow saturates instead: any capacity
    /// above `2·m·den`, the cut around the source, is never cut, so the
    /// minimum cut is the same.
    fn denser_than(&mut self, num: i64, den: i64) -> bool {
        for &(id, coef) in &self.scaled {
            self.net.set_capacity(id, coef * den);
        }
        for &(id, weight) in &self.sink {
            self.net.set_capacity(id, weight.saturating_mul(2 * num));
        }
        self.flows += 1;
        let n = self.net.num_nodes() - 2;
        self.net.max_flow(n, n + 1) < 2 * self.m * den
    }

    /// The vertices on the source side of the last solve, ascending.
    fn source_side(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.net.num_nodes() - 2).filter(|&v| self.net.on_source_side(v))
    }

    /// `(e(A), W(A))` of the last solve's source side `A`.
    fn witness_totals(
        &self,
        weights: &[i64],
        edges: &[(usize, usize, u64)],
        mults: &[i64],
    ) -> (i64, i64) {
        let inside = |v: usize| self.net.on_source_side(v);
        let e = edges
            .iter()
            .zip(mults)
            .filter(|&(&(u, v, _), _)| inside(u) && inside(v))
            .map(|(_, &mult)| mult)
            .sum();
        let w = self.source_side().map(|v| weights[v]).sum();
        (e, w)
    }
}

/// Exact density of a vertex set, or `None` when its total weight is
/// zero (which the caller invariants rule out for witnesses).
fn weighted_subgraph_density(
    a: &[usize],
    vertex_weights: &[u64],
    edges: &[(usize, usize, u64)],
) -> Option<Ratio> {
    let mut inside = vec![false; vertex_weights.len()];
    for &x in a {
        inside[x] = true;
    }
    let count: u64 = edges
        .iter()
        .filter(|&&(u, v, _)| inside[u] && inside[v])
        .map(|&(_, _, mult)| mult)
        .sum();
    let weight: u64 = a.iter().map(|&v| vertex_weights[v]).sum();
    if weight == 0 {
        return None;
    }
    Some(Ratio::new(count, weight))
}

/// Exhaustive reference for the weighted problem: tries every non-empty
/// vertex subset of positive total weight. Only usable for `n <= 20`.
///
/// # Panics
///
/// Panics if there are more than 20 vertices.
pub fn densest_weighted_subgraph_brute_force(
    vertex_weights: &[u64],
    edges: &[(usize, usize, u64)],
) -> Option<Densest> {
    let n = vertex_weights.len();
    assert!(n <= 20, "brute force limited to 20 vertices");
    if edges.is_empty() {
        return None;
    }
    let mut best: Option<Densest> = None;
    for mask in 1u32..(1 << n) {
        let vertices: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
        let Some(density) = weighted_subgraph_density(&vertices, vertex_weights, edges) else {
            continue;
        };
        if best.as_ref().is_none_or(|b| density > b.density) {
            best = Some(Densest {
                vertices,
                density,
                flows: 0,
            });
        }
    }
    best
}

/// Exhaustive reference implementation for testing: tries every
/// non-empty vertex subset. Only usable for `n <= 20`.
///
/// Ties are broken toward the subset found first in increasing bitmask
/// order, so callers should compare densities, not vertex sets.
///
/// # Panics
///
/// Panics if `n > 20`.
pub fn densest_subgraph_brute_force(n: usize, edges: &[(usize, usize)]) -> Option<Densest> {
    assert!(n <= 20, "brute force limited to 20 vertices");
    if edges.is_empty() {
        return None;
    }
    let mut best: Option<Densest> = None;
    for mask in 1u32..(1 << n) {
        let count = edges
            .iter()
            .filter(|&&(u, v)| mask >> u & 1 == 1 && mask >> v & 1 == 1)
            .count() as u64;
        let size = mask.count_ones() as u64;
        let density = Ratio::new(count, size);
        if best.as_ref().is_none_or(|b| density > b.density) {
            best = Some(Densest {
                vertices: (0..n).filter(|&v| mask >> v & 1 == 1).collect(),
                density,
                flows: 0,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_edge_set_is_none() {
        assert_eq!(densest_subgraph(5, &[]), None);
        assert_eq!(densest_subgraph_brute_force(5, &[]), None);
    }

    #[test]
    fn single_edge() {
        let best = densest_subgraph(3, &[(0, 2)]).unwrap();
        assert_eq!(best.density, Ratio::new(1, 2));
        assert_eq!(best.vertices, vec![0, 2]);
    }

    #[test]
    fn clique_is_densest() {
        // K5: density (10)/5 = 2; any sub-clique is sparser.
        let mut edges = Vec::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let best = densest_subgraph(5, &edges).unwrap();
        assert_eq!(best.density, Ratio::new(2, 1));
        assert_eq!(best.vertices, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn prefers_dense_core_over_sparse_whole() {
        // Triangle plus two isolated vertices: the whole vertex set has
        // density 3/5 < 1, the triangle exactly 1.
        let edges = [(0, 1), (1, 2), (0, 2)];
        let best = densest_subgraph(5, &edges).unwrap();
        assert_eq!(best.vertices, vec![0, 1, 2]);
        assert_eq!(best.density, Ratio::new(1, 1));
    }

    #[test]
    fn tree_attachments_tie_at_density_one() {
        // Triangle plus pendant path: whole graph also has density 1;
        // either answer is a valid maximizer, but the density must be 1.
        let edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)];
        let best = densest_subgraph(6, &edges).unwrap();
        assert_eq!(best.density, Ratio::new(1, 1));
    }

    #[test]
    fn matches_brute_force_on_fixed_cases() {
        let cases: Vec<(usize, Vec<(usize, usize)>)> = vec![
            (4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
            (5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]),
            (
                6,
                vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
            ),
            (7, vec![(0, 1), (2, 3), (4, 5), (5, 6), (4, 6), (1, 2)]),
        ];
        for (n, edges) in cases {
            let fast = densest_subgraph(n, &edges).unwrap();
            let slow = densest_subgraph_brute_force(n, &edges).unwrap();
            assert_eq!(fast.density, slow.density, "n={n} edges={edges:?}");
        }
    }
}

#[cfg(test)]
mod weighted_tests {
    use super::*;

    #[test]
    fn weighted_matches_brute_force() {
        // Star densities of the weighted 2-spanner problem: leaf weights
        // are edge weights; cheap leaves make sparse sets denser.
        let weights = vec![1, 10, 1, 3];
        let edges = vec![(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 2)];
        let fast = densest_weighted_subgraph(&weights, &edges).unwrap();
        let slow = densest_weighted_subgraph_brute_force(&weights, &edges).unwrap();
        assert_eq!(fast.density, slow.density);
        // {0, 2}: one edge over weight 2 = 1/2; {0, 2, 3}: 3 units over
        // weight 5 = 3/5, the best.
        assert_eq!(fast.density, Ratio::new(3, 5));
    }

    #[test]
    fn zero_weight_vertices_are_free() {
        // Leaf 1 is free (weight 0): including it adds spanned pairs at
        // no cost. Pairs between zero-weight leaves never appear by the
        // caller invariant, so the pair (0,1) has the positive-weight
        // endpoint 0.
        let weights = vec![2, 0, 2];
        let edges = vec![(0, 1, 1), (1, 2, 1)];
        let best = densest_weighted_subgraph(&weights, &edges).unwrap();
        assert_eq!(best.vertices, vec![0, 1, 2]);
        assert_eq!(best.density, Ratio::new(2, 4));
    }

    #[test]
    fn multiplicities_count_directed_pairs() {
        // A pair spanning two directed edges counts twice in the
        // numerator: {0, 1} has density 2/2 = 1, and the whole set ties
        // at 3/3, so only the density is pinned down.
        let weights = vec![1, 1, 1];
        let edges = vec![(0, 1, 2), (1, 2, 1)];
        let best = densest_weighted_subgraph(&weights, &edges).unwrap();
        assert_eq!(best.density, Ratio::new(1, 1));
        // Dropping the second pair makes {0, 1} strictly densest.
        let best2 = densest_weighted_subgraph(&weights, &edges[..1]).unwrap();
        assert_eq!(best2.vertices, vec![0, 1]);
        assert_eq!(best2.density, Ratio::new(2, 2));
    }

    #[test]
    fn zero_weight_set_spanning_an_edge_is_unbounded() {
        // Against the caller's invariant, leaves 0 and 1 are both free
        // and span a pair: the density is unbounded and no
        // positive-weight witness exists.
        let weights = vec![0, 0, 1];
        let edges = vec![(0, 1, 1), (1, 2, 1)];
        assert_eq!(densest_weighted_subgraph(&weights, &edges), None);
        // Same when the whole set has positive weight, so the search
        // has to find the free pair.
        let weights = vec![0, 0, 3, 3];
        let edges = vec![(0, 1, 1), (2, 3, 1), (1, 2, 1)];
        assert_eq!(densest_weighted_subgraph(&weights, &edges), None);
    }

    #[test]
    fn search_takes_a_handful_of_flows() {
        // The whole set is optimal: one flow proves it, one more fixes
        // the witness.
        let best = densest_subgraph(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(best.flows, 2);
        // Triangle plus two isolated vertices: the first flow jumps
        // from density 3/5 straight to the triangle.
        let best = densest_subgraph(5, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(best.vertices, vec![0, 1, 2]);
        assert_eq!(best.flows, 3);
    }

    #[test]
    #[should_panic(expected = "instance too large")]
    fn weight_sum_overflow_panics_on_every_profile() {
        // d = W² = 2^82 overflows i64.
        densest_weighted_subgraph(&[1 << 40, 1 << 40], &[(0, 1, 1)]);
    }

    #[test]
    #[should_panic(expected = "instance too large")]
    fn weights_beyond_i64_panic_on_every_profile() {
        densest_weighted_subgraph(&[1 << 63, 1], &[(0, 1, 1)]);
    }

    #[test]
    fn unweighted_delegates_consistently() {
        let edges = [(0usize, 1usize), (1, 2), (0, 2)];
        let a = densest_subgraph(3, &edges).unwrap();
        let weighted: Vec<_> = edges.iter().map(|&(u, v)| (u, v, 1)).collect();
        let b = densest_weighted_subgraph(&[1, 1, 1], &weighted).unwrap();
        assert_eq!(a, b);
    }
}
