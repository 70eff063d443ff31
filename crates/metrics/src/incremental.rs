//! Largest-component tracking for high-frequency sampling loops, without the CSR build.
//!
//! The CSR pipeline ([`MetricsContext`](crate::context::MetricsContext)) sorts and
//! scatters the whole undirected graph and sweeps it with BFS on every sample.
//! [`IncrementalComponents`] answers the one question the sampling loop asks —
//! how large is the biggest component — from a union-find over the observed nodes:
//!
//! * When the snapshot carries a capture-to-capture diff (see
//!   [`OverlaySnapshot::enable_delta_tracking`]) with unchanged membership and **no
//!   removed edge**, the previous partition is still exact and the added edges are pure
//!   unions — O(α) each, idempotent, order-independent. This is the only shortcut a
//!   union-find supports natively.
//! * Every other update is one union pass over the snapshot's directed edge list: no
//!   sort, no scatter, no adjacency, no traversal.
//!
//! A shuffling overlay swaps view entries every round, so a live run presents removed
//! edges on practically every sample and takes the union pass; the shortcut serves
//! grow-only phases and staged snapshots. Nothing is recorded to survive a removal:
//! spanning-forest bookkeeping measured 12x the cost of the plain pass on a live 8k-node
//! overlay and never saved one (DESIGN.md §12.2).
//!
//! # Equivalence with the CSR reference
//!
//! The result of [`largest_component_fraction`](IncrementalComponents::largest_component_fraction)
//! is `largest / n` where both operands are exact integers: the size of the largest
//! connected component over the same vertex set (observed nodes, isolated nodes
//! included) and edge set (self-loops and edges touching unobserved nodes dropped,
//! direction and duplicates collapsed) that [`CsrGraph`](crate::graph::CsrGraph) builds.
//! Union-find and BFS compute the same partition on the same graph, so the two integer
//! operands — and therefore the one floating-point division — are **bit-identical** to
//! the CSR + BFS path, which `tests/property_tests.rs` pins down under randomized churn.

use croupier_simulator::NodeId;

use crate::ranks::RankTable;
use crate::snapshot::OverlaySnapshot;

/// A union-find connectivity structure fed one snapshot per sample. See the module
/// documentation for the algorithm and the equivalence argument.
///
/// The structure tracks **one** snapshot instance: feed it the same
/// delta-tracking-enabled [`OverlaySnapshot`] on every sample (the experiment driver's
/// pattern). Handing it unrelated snapshots is safe — any capture without a valid delta,
/// with membership changes or with removed edges is recomputed from its edge list.
///
/// # Examples
///
/// ```
/// use croupier_metrics::{IncrementalComponents, NodeObservation, OverlaySnapshot};
/// use croupier_simulator::{NatClass, NodeId};
///
/// let snapshot = OverlaySnapshot::from_parts(
///     (0..3)
///         .map(|i| NodeObservation {
///             id: NodeId::new(i),
///             class: NatClass::Public,
///             ratio_estimate: None,
///             rounds_executed: 5,
///         })
///         .collect(),
///     vec![(NodeId::new(0), NodeId::new(1))],
/// );
/// let mut components = IncrementalComponents::new();
/// components.update(&snapshot);
/// assert!((components.largest_component_fraction() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default)]
pub struct IncrementalComponents {
    /// The observed nodes' rank space (the same as [`CsrGraph`](crate::graph::CsrGraph)'s).
    ranks: RankTable,
    /// Union-find parent per rank.
    parent: Vec<u32>,
    /// Component size at each root rank.
    size: Vec<u32>,
    /// Size of the largest component (monotone under unions; recomputed on rebuild).
    largest: u32,
    /// Number of full union passes performed (diagnostics).
    rebuilds: u64,
    /// Number of additions-only updates performed (diagnostics).
    sublinear_updates: u64,
}

impl IncrementalComponents {
    /// Creates an empty structure; the first [`update`](Self::update) performs a full
    /// rebuild.
    pub fn new() -> Self {
        IncrementalComponents::default()
    }

    /// Brings the structure in sync with `snapshot`: by unioning the added edges when the
    /// snapshot's delta is valid, membership is unchanged and nothing was removed, and by
    /// one union pass over all edges otherwise.
    pub fn update(&mut self, snapshot: &OverlaySnapshot) {
        match snapshot.edge_delta() {
            // The first update has no partition of the previous capture to extend.
            Some(delta)
                if self.rebuilds > 0 && !delta.membership_changed && delta.removed.is_empty() =>
            {
                self.union_edges(delta.added);
                self.sublinear_updates += 1;
            }
            _ => {
                self.rebuild(snapshot);
                self.rebuilds += 1;
            }
        }
    }

    /// Fraction of observed nodes inside the largest connected component (0.0 for an
    /// empty snapshot) — bit-identical to
    /// [`MetricsContext::largest_component_fraction`](crate::context::MetricsContext::largest_component_fraction)
    /// on the same snapshot.
    pub fn largest_component_fraction(&self) -> f64 {
        if self.parent.is_empty() {
            return 0.0;
        }
        self.largest as f64 / self.parent.len() as f64
    }

    /// Number of connected components among the observed nodes.
    pub fn component_count(&self) -> usize {
        (0..self.parent.len() as u32)
            .filter(|&v| self.parent[v as usize] == v)
            .count()
    }

    /// Full union passes performed so far (the first `update` always counts one).
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Updates that avoided the full edge scan: additions-only deltas, whose cost is
    /// independent of the total edge count.
    pub fn sublinear_update_count(&self) -> u64 {
        self.sublinear_updates
    }

    /// Recomputes the partition from scratch: one pass over the snapshot's directed
    /// edges, unioning every resolvable pair. No adjacency is materialised and no
    /// traversal runs, so this is considerably cheaper than a CSR build + BFS.
    fn rebuild(&mut self, snapshot: &OverlaySnapshot) {
        self.ranks.rebuild(snapshot);
        let n = self.ranks.ids().len();
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.size.clear();
        self.size.resize(n, 1);
        self.largest = if n == 0 { 0 } else { 1 };
        self.union_edges(&snapshot.edges);
    }

    /// Unions the endpoints of every edge whose two ends are observed; self-loops and
    /// edges touching unobserved nodes never enter the graph.
    fn union_edges(&mut self, edges: &[(NodeId, NodeId)]) {
        for &(a, b) in edges {
            if a == b {
                continue;
            }
            if let (Some(ra), Some(rb)) = (self.ranks.rank_of(a), self.ranks.rank_of(b)) {
                self.union(ra, rb);
            }
        }
    }

    /// Unions the components of two ranks (by size, with path halving).
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.largest = self.largest.max(self.size[big as usize]);
    }

    /// Root of `v`'s component, halving the path as it walks.
    fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            let grandparent = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = grandparent;
            v = grandparent;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::largest_component_fraction;
    use crate::snapshot::NodeObservation;
    use croupier_simulator::NatClass;

    fn snapshot(nodes: &[u64], edges: &[(u64, u64)]) -> OverlaySnapshot {
        OverlaySnapshot::from_parts(
            nodes
                .iter()
                .map(|id| NodeObservation {
                    id: NodeId::new(*id),
                    class: NatClass::Public,
                    ratio_estimate: None,
                    rounds_executed: 5,
                })
                .collect(),
            edges
                .iter()
                .map(|(a, b)| (NodeId::new(*a), NodeId::new(*b)))
                .collect(),
        )
    }

    #[test]
    fn matches_the_csr_pipeline_on_fresh_snapshots() {
        for (nodes, edges) in [
            (vec![1u64, 2, 3], vec![(1u64, 2u64), (2, 3)]),
            (vec![1, 2, 3, 4, 5], vec![(1, 2), (2, 3)]),
            (vec![1, 2, 3, 4], vec![]),
            (vec![], vec![]),
            (
                vec![1, 2, 3, 4, 5, 6, 7],
                vec![(1, 2), (2, 3), (4, 5), (5, 4), (6, 42), (3, 3)],
            ),
        ] {
            let s = snapshot(&nodes, &edges);
            let mut inc = IncrementalComponents::new();
            inc.update(&s);
            let expected = largest_component_fraction(&s);
            assert_eq!(
                inc.largest_component_fraction().to_bits(),
                expected.to_bits(),
                "nodes {nodes:?} edges {edges:?}"
            );
        }
    }

    #[test]
    fn every_update_without_delta_tracking_rebuilds() {
        let s = snapshot(&[1, 2, 3], &[(1, 2)]);
        let mut inc = IncrementalComponents::new();
        inc.update(&s);
        inc.update(&s);
        assert_eq!(inc.rebuild_count(), 2);
        assert_eq!(inc.sublinear_update_count(), 0);
    }

    /// A delta-tracked snapshot primed with `edges`, already fed to a fresh structure.
    fn tracked(nodes: &[u64], edges: &[(u64, u64)]) -> (OverlaySnapshot, IncrementalComponents) {
        let mut s = OverlaySnapshot::default();
        s.enable_delta_tracking();
        restage(&mut s, nodes, edges);
        let mut inc = IncrementalComponents::new();
        inc.update(&s);
        (s, inc)
    }

    fn restage(s: &mut OverlaySnapshot, nodes: &[u64], edges: &[(u64, u64)]) {
        let staged = snapshot(nodes, edges);
        s.replace_from_parts(staged.nodes, staged.edges);
    }

    fn assert_matches_csr(inc: &IncrementalComponents, s: &OverlaySnapshot) {
        assert_eq!(
            inc.largest_component_fraction().to_bits(),
            largest_component_fraction(s).to_bits()
        );
    }

    #[test]
    fn additions_only_delta_takes_the_shortcut() {
        let nodes = [1, 2, 3, 4, 5, 6];
        let (mut s, mut inc) = tracked(&nodes, &[(1, 2), (3, 4)]);
        // Gains a bridge, a reverse duplicate, a self-loop and a dangling edge.
        restage(
            &mut s,
            &nodes,
            &[(1, 2), (3, 4), (2, 3), (2, 1), (5, 5), (6, 42)],
        );
        inc.update(&s);
        assert_eq!((inc.rebuild_count(), inc.sublinear_update_count()), (1, 1));
        assert_eq!(inc.component_count(), 3);
        assert!((inc.largest_component_fraction() - 4.0 / 6.0).abs() < 1e-12);
        assert_matches_csr(&inc, &s);
    }

    #[test]
    fn removing_a_bridge_rebuilds_and_reports_the_split() {
        let nodes = [1, 2, 3, 4];
        let (mut s, mut inc) = tracked(&nodes, &[(1, 2), (2, 3), (3, 4)]);
        assert_eq!(inc.largest_component_fraction(), 1.0);
        restage(&mut s, &nodes, &[(1, 2), (3, 4)]);
        inc.update(&s);
        assert_eq!((inc.rebuild_count(), inc.sublinear_update_count()), (2, 0));
        assert_eq!(inc.component_count(), 2);
        assert_eq!(inc.largest_component_fraction(), 0.5);
        assert_matches_csr(&inc, &s);
    }

    #[test]
    fn membership_change_rebuilds() {
        let (mut s, mut inc) = tracked(&[1, 2, 3], &[(1, 2)]);
        // Additions only, but node 4 is new: the rank space is stale.
        restage(&mut s, &[1, 2, 3, 4], &[(1, 2), (3, 4)]);
        inc.update(&s);
        assert_eq!((inc.rebuild_count(), inc.sublinear_update_count()), (2, 0));
        assert_eq!(inc.component_count(), 2);
        assert_matches_csr(&inc, &s);
    }

    #[test]
    fn component_count_partitions_the_nodes() {
        let mut inc = IncrementalComponents::new();
        inc.update(&snapshot(&[1, 2, 3, 4, 5], &[(1, 2), (3, 4)]));
        assert_eq!(inc.component_count(), 3);
        assert!((inc.largest_component_fraction() - 0.4).abs() < 1e-12);
    }
}
