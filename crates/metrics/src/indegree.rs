//! In-degree distribution of the directed overlay graph (Fig. 6(a) of the paper), plus
//! the Gini coefficient of that distribution and an incremental tracker that maintains
//! the whole family from snapshot edge deltas.
//!
//! # Dense storage, deterministic accumulation
//!
//! The distribution is stored as a rank-indexed vector in snapshot node order (ascending
//! id for engine captures) — the same arena invariant [`CsrGraph`](crate::graph::CsrGraph)
//! rides. There is no hash map anywhere in this module, which removes the
//! iteration-order hazard class outright: every accumulation (stats, histogram, Gini)
//! walks the same storage order on every run, so the floating-point outputs are
//! bit-identical for a fixed snapshot regardless of process, thread count or hasher seed.
//!
//! # Incremental tracking
//!
//! [`IncrementalIndegree`] consumes the capture-to-capture diff recorded by
//! [`OverlaySnapshot::enable_delta_tracking`]: a directed edge `a → b` contributes one
//! in-degree to `b` iff `b` is observed and `a != b` (multiset semantics — duplicates
//! count), so an edge appearing or disappearing is a single counter increment or
//! decrement at `b`'s rank. When membership changes (the rank space moved) or no valid
//! delta exists, the tracker falls back to one O(E) rebuild pass. Either way the counts
//! vector is element-for-element equal to [`indegree_distribution`], and the derived
//! stats/histogram/Gini accumulate in the same order with the same integer operands, so
//! they are bit-identical to the snapshot-based reference — pinned by
//! `tests/property_tests.rs` under randomized membership and edge churn.

use croupier_simulator::NodeId;
use serde::{Deserialize, Serialize};

use crate::ranks::{is_dense, RankTable, NO_RANK};
use crate::snapshot::OverlaySnapshot;

/// Summary statistics of an in-degree distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IndegreeStats {
    /// Smallest in-degree among observed nodes.
    pub min: usize,
    /// Largest in-degree among observed nodes.
    pub max: usize,
    /// Mean in-degree.
    pub mean: f64,
    /// Population standard deviation of the in-degree.
    pub std_dev: f64,
}

/// The in-degree of every observed node — how many view entries point at it — as a dense
/// vector in snapshot node order. An edge `(from, to)` counts iff `to` is observed and
/// `from != to`; duplicates count once each (multiset semantics).
pub fn indegree_distribution(snapshot: &OverlaySnapshot) -> Vec<(NodeId, usize)> {
    let mut counts = vec![0usize; snapshot.nodes.len()];
    let index = RankIndex::build(snapshot);
    for &(from, to) in &snapshot.edges {
        if from == to {
            continue;
        }
        if let Some(rank) = index.rank_of(to) {
            counts[rank as usize] += 1;
        }
    }
    snapshot.nodes.iter().map(|n| n.id).zip(counts).collect()
}

/// Histogram of the in-degree distribution: for each in-degree value present, the number
/// of nodes with that in-degree, ascending — the exact series plotted in Fig. 6(a).
pub fn indegree_histogram(snapshot: &OverlaySnapshot) -> Vec<(usize, usize)> {
    let mut buckets = Vec::new();
    bucket_degrees(
        indegree_distribution(snapshot).iter().map(|&(_, d)| d),
        &mut buckets,
    );
    collect_histogram(&buckets)
}

/// Summary statistics of the in-degree distribution, accumulated in snapshot node order.
pub fn indegree_stats(snapshot: &OverlaySnapshot) -> IndegreeStats {
    stats_of_degrees(indegree_distribution(snapshot).iter().map(|&(_, d)| d))
}

/// Gini coefficient of the in-degree distribution: 0.0 when every observed node has the
/// same in-degree, approaching 1.0 when a few hubs hold all incoming view entries. The
/// PeerSwap-style randomness checks use this as their global load-balance score; an
/// empty or all-zero distribution reports 0.0.
pub fn indegree_gini(snapshot: &OverlaySnapshot) -> f64 {
    gini_from_degree_counts(indegree_histogram(snapshot).iter().copied())
}

/// One-shot id → rank index over a snapshot's node list (rank = position in
/// `snapshot.nodes`), with the same dense/sparse split as the incremental trackers.
enum RankIndex {
    /// Id-indexed rank slots, `NO_RANK` where unobserved (dense id spaces).
    Dense(Vec<u32>),
    /// `(id, rank)` pairs sorted by id, binary-searched (sparse id spaces).
    Sparse(Vec<(NodeId, u32)>),
}

impl RankIndex {
    fn build(snapshot: &OverlaySnapshot) -> Self {
        let n = snapshot.nodes.len();
        let bound = snapshot.id_upper_bound();
        if is_dense(n, bound) {
            let mut slots = vec![NO_RANK; bound as usize];
            for (rank, node) in snapshot.nodes.iter().enumerate() {
                slots[node.id.as_u64() as usize] = rank as u32;
            }
            RankIndex::Dense(slots)
        } else {
            let mut pairs: Vec<(NodeId, u32)> = snapshot
                .nodes
                .iter()
                .enumerate()
                .map(|(rank, node)| (node.id, rank as u32))
                .collect();
            pairs.sort_unstable_by_key(|&(id, _)| id);
            RankIndex::Sparse(pairs)
        }
    }

    #[inline]
    fn rank_of(&self, id: NodeId) -> Option<u32> {
        match self {
            RankIndex::Dense(slots) => {
                let slot = id.as_u64() as usize;
                match slots.get(slot) {
                    Some(&rank) if rank != NO_RANK => Some(rank),
                    _ => None,
                }
            }
            RankIndex::Sparse(pairs) => pairs
                .binary_search_by_key(&id, |&(id, _)| id)
                .ok()
                .map(|i| pairs[i].1),
        }
    }
}

/// Counting-sorts `degrees` into `buckets` (index = degree, value = node count).
fn bucket_degrees(degrees: impl Iterator<Item = usize>, buckets: &mut Vec<usize>) {
    buckets.clear();
    for degree in degrees {
        if degree >= buckets.len() {
            buckets.resize(degree + 1, 0);
        }
        buckets[degree] += 1;
    }
}

/// Compacts counting-sort buckets into the `(degree, count)` histogram form.
fn collect_histogram(buckets: &[usize]) -> Vec<(usize, usize)> {
    buckets
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(degree, &count)| (degree, count))
        .collect()
}

/// Shared stats accumulation: one order, one set of floating-point operations, used by
/// both the snapshot-based reference and [`IncrementalIndegree::stats`] so the two are
/// bit-identical by construction.
fn stats_of_degrees(degrees: impl Iterator<Item = usize> + Clone) -> IndegreeStats {
    let mut len = 0usize;
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0usize;
    for d in degrees.clone() {
        len += 1;
        min = min.min(d);
        max = max.max(d);
        sum += d;
    }
    if len == 0 {
        return IndegreeStats::default();
    }
    let mean = sum as f64 / len as f64;
    let variance = degrees
        .map(|d| {
            let diff = d as f64 - mean;
            diff * diff
        })
        .sum::<f64>()
        / len as f64;
    IndegreeStats {
        min,
        max,
        mean,
        std_dev: variance.sqrt(),
    }
}

/// Gini coefficient from `(degree, count)` pairs in ascending degree order.
///
/// With the degrees sorted ascending and 0-indexed position `j`, the Gini numerator is
/// `Σ_j (2j + 1 − n)·x_j`; a block of `c` equal degrees starting at position `r`
/// contributes `d·c·(2r + c − n)` (the inner arithmetic series in closed form). All
/// accumulation is exact integer arithmetic in `i128`; the single `f64` division at the
/// end makes the result bit-identical wherever the same histogram goes in.
fn gini_from_degree_counts(pairs: impl Iterator<Item = (usize, usize)>) -> f64 {
    // The block term needs the final population count, so split it off: the numerator is
    // Σ d·c·(2r + c) − n·Σ d·c, with the first sum accumulated positionally (`n` holds
    // the running position `r` during the loop and the final count after it).
    let mut n: i128 = 0;
    let mut total: i128 = 0;
    let mut positional: i128 = 0;
    for (degree, count) in pairs {
        let (d, c) = (degree as i128, count as i128);
        positional += d * c * (2 * n + c);
        n += c;
        total += d * c;
    }
    let numerator = positional - n * total;
    let denominator = n * total;
    if denominator == 0 {
        return 0.0;
    }
    numerator as f64 / denominator as f64
}

/// Incrementally maintained in-degree family: the dense counts vector plus histogram,
/// stats and Gini, updated from snapshot edge deltas in O(Δ) per sample instead of the
/// O(E) full recount.
///
/// The structure tracks **one** snapshot instance: feed it the same
/// delta-tracking-enabled [`OverlaySnapshot`] on every sample (the experiment driver's
/// pattern). Handing it unrelated snapshots is safe — any capture without a valid delta,
/// or with membership changes, triggers a full rebuild — but forfeits the fast path.
///
/// # Examples
///
/// ```
/// use croupier_metrics::{indegree_stats, IncrementalIndegree, NodeObservation, OverlaySnapshot};
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
///     vec![(NodeId::new(0), NodeId::new(1)), (NodeId::new(2), NodeId::new(1))],
/// );
/// let mut tracker = IncrementalIndegree::new();
/// tracker.update(&snapshot);
/// assert_eq!(tracker.stats(), indegree_stats(&snapshot));
/// assert_eq!(tracker.stats().max, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct IncrementalIndegree {
    /// The observed nodes' rank space (the same as [`CsrGraph`](crate::graph::CsrGraph)'s).
    ranks: RankTable,
    /// Rank → in-degree, element-for-element equal to [`indegree_distribution`].
    counts: Vec<u32>,
    /// Whether the counts describe the previous capture of the tracked snapshot
    /// (fast-path precondition).
    synced: bool,
    /// Number of full O(E) recounts performed (diagnostics; sublinearity tests).
    rebuilds: u64,
    /// Number of O(Δ) delta-only updates performed (diagnostics; sublinearity tests).
    fast_updates: u64,
    /// Counting-sort scratch reused by [`histogram`](Self::histogram),
    /// [`gini`](Self::gini) — no steady-state allocation once grown.
    buckets: Vec<usize>,
}

impl IncrementalIndegree {
    /// Creates an empty tracker; the first [`update`](Self::update) performs a full
    /// rebuild.
    pub fn new() -> Self {
        IncrementalIndegree::default()
    }

    /// Brings the counts in sync with `snapshot`, by delta replay when the snapshot
    /// carries a usable diff and by a full recount otherwise.
    pub fn update(&mut self, snapshot: &OverlaySnapshot) {
        let fast = self.synced
            && matches!(snapshot.edge_delta(), Some(delta) if !delta.membership_changed);
        if fast {
            self.apply_delta(snapshot);
            self.fast_updates += 1;
        } else {
            self.rebuild(snapshot);
            self.rebuilds += 1;
        }
        self.synced = true;
    }

    /// Number of tracked nodes.
    pub fn node_count(&self) -> usize {
        self.ranks.ids().len()
    }

    /// The tracked in-degrees in rank (ascending id) order.
    pub fn degrees(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.counts.iter().map(|&c| c as usize)
    }

    /// Histogram of the tracked distribution — equal to [`indegree_histogram`] on the
    /// snapshot the tracker last updated from.
    pub fn histogram(&mut self) -> Vec<(usize, usize)> {
        let mut buckets = std::mem::take(&mut self.buckets);
        bucket_degrees(self.degrees(), &mut buckets);
        let histogram = collect_histogram(&buckets);
        self.buckets = buckets;
        histogram
    }

    /// Summary statistics of the tracked distribution — bit-identical to
    /// [`indegree_stats`] on the snapshot the tracker last updated from (same
    /// accumulation order, same operations).
    pub fn stats(&self) -> IndegreeStats {
        stats_of_degrees(self.degrees())
    }

    /// Gini coefficient of the tracked distribution — bit-identical to
    /// [`indegree_gini`] on the snapshot the tracker last updated from (the exact
    /// integer numerator and denominator match, so the one division does too).
    pub fn gini(&mut self) -> f64 {
        let mut buckets = std::mem::take(&mut self.buckets);
        bucket_degrees(self.degrees(), &mut buckets);
        let gini = gini_from_degree_counts(
            buckets
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(degree, &count)| (degree, count)),
        );
        self.buckets = buckets;
        gini
    }

    /// Full recounts performed so far (the first `update` always counts one).
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Delta-only updates performed so far.
    pub fn fast_update_count(&self) -> u64 {
        self.fast_updates
    }

    /// O(Δ) update: every removed directed edge decrements its target's count, every
    /// added one increments it. Sources need not be observed (matching the reference:
    /// only the *target* must be live) and membership is unchanged, so the delta is an
    /// exact multiset diff over a stable rank space — removals replay as readily as
    /// additions, unlike connectivity, because in-degree is a per-node sum, not a global
    /// property.
    fn apply_delta(&mut self, snapshot: &OverlaySnapshot) {
        let delta = snapshot.edge_delta().expect("caller checked the delta");
        for &(from, to) in delta.removed {
            if from == to {
                continue;
            }
            if let Some(rank) = self.ranks.rank_of(to) {
                self.counts[rank as usize] -= 1;
            }
        }
        for &(from, to) in delta.added {
            if from == to {
                continue;
            }
            if let Some(rank) = self.ranks.rank_of(to) {
                self.counts[rank as usize] += 1;
            }
        }
    }

    /// Full recount: one pass over the snapshot's directed edges.
    fn rebuild(&mut self, snapshot: &OverlaySnapshot) {
        self.ranks.rebuild(snapshot);
        self.counts.clear();
        self.counts.resize(self.ranks.ids().len(), 0);
        for &(from, to) in &snapshot.edges {
            if from == to {
                continue;
            }
            if let Some(rank) = self.ranks.rank_of(to) {
                self.counts[rank as usize] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn degree_of(distribution: &[(NodeId, usize)], id: u64) -> usize {
        distribution
            .iter()
            .find(|(node, _)| *node == NodeId::new(id))
            .map(|&(_, d)| d)
            .expect("node present")
    }

    #[test]
    fn counts_incoming_edges_per_node() {
        let s = snapshot(&[1, 2, 3], &[(1, 2), (3, 2), (2, 3), (2, 2)]);
        let d = indegree_distribution(&s);
        assert_eq!(d.len(), 3);
        assert_eq!(degree_of(&d, 1), 0);
        assert_eq!(degree_of(&d, 2), 2);
        assert_eq!(degree_of(&d, 3), 1);
    }

    #[test]
    fn distribution_is_in_snapshot_node_order() {
        let s = snapshot(&[1, 2, 3], &[(1, 2)]);
        let ids: Vec<NodeId> = indegree_distribution(&s)
            .iter()
            .map(|&(id, _)| id)
            .collect();
        assert_eq!(ids, s.node_ids());
    }

    #[test]
    fn histogram_buckets_by_degree() {
        let s = snapshot(&[1, 2, 3, 4], &[(1, 2), (3, 2), (1, 3)]);
        // Degrees: node1=0, node2=2, node3=1, node4=0.
        assert_eq!(indegree_histogram(&s), vec![(0, 2), (1, 1), (2, 1)]);
    }

    #[test]
    fn stats_summarise_the_distribution() {
        let s = snapshot(&[1, 2, 3, 4], &[(1, 2), (3, 2), (1, 3), (2, 4)]);
        let stats = indegree_stats(&s);
        assert_eq!(stats.min, 0);
        assert_eq!(stats.max, 2);
        assert!((stats.mean - 1.0).abs() < 1e-9);
        assert!(stats.std_dev > 0.0);
    }

    #[test]
    fn empty_snapshot_has_zeroed_stats() {
        assert_eq!(
            indegree_stats(&OverlaySnapshot::default()),
            IndegreeStats::default()
        );
        assert!(indegree_histogram(&OverlaySnapshot::default()).is_empty());
        assert_eq!(indegree_gini(&OverlaySnapshot::default()), 0.0);
    }

    #[test]
    fn edges_to_unknown_nodes_are_ignored() {
        let s = snapshot(&[1, 2], &[(1, 2), (1, 77)]);
        let d = indegree_distribution(&s);
        assert_eq!(d.len(), 2);
        assert_eq!(degree_of(&d, 2), 1);
    }

    #[test]
    fn gini_is_zero_for_uniform_distributions() {
        // Ring: everyone has in-degree exactly 1.
        let s = snapshot(&[1, 2, 3, 4], &[(1, 2), (2, 3), (3, 4), (4, 1)]);
        assert_eq!(indegree_gini(&s), 0.0);
    }

    #[test]
    fn gini_detects_hub_concentration() {
        // Star: node 1 receives everything, the rest receive nothing.
        let s = snapshot(&[1, 2, 3, 4, 5], &[(2, 1), (3, 1), (4, 1), (5, 1)]);
        // All mass in one of five nodes: G = (n - 1)/n = 0.8.
        assert!((indegree_gini(&s) - 0.8).abs() < 1e-12);
        // Two nodes, one holds everything: G = 0.5.
        let two = snapshot(&[1, 2], &[(2, 1)]);
        assert!((indegree_gini(&two) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn incremental_rebuild_matches_reference_on_fresh_snapshots() {
        for (nodes, edges) in [
            (vec![1u64, 2, 3], vec![(1u64, 2u64), (3, 2), (2, 3), (2, 2)]),
            (vec![1, 2, 3, 4, 5], vec![(1, 2), (2, 3)]),
            (vec![1, 2, 3, 4], vec![]),
            (vec![], vec![]),
            (
                vec![1, 2, 3, 4, 5, 6, 7],
                vec![(1, 2), (2, 3), (4, 5), (5, 4), (6, 42), (3, 3), (9, 2)],
            ),
        ] {
            let s = snapshot(&nodes, &edges);
            let mut tracker = IncrementalIndegree::new();
            tracker.update(&s);
            let reference: Vec<usize> = indegree_distribution(&s).iter().map(|&(_, d)| d).collect();
            assert_eq!(
                tracker.degrees().collect::<Vec<_>>(),
                reference,
                "nodes {nodes:?} edges {edges:?}"
            );
            assert_eq!(tracker.histogram(), indegree_histogram(&s));
            assert_eq!(tracker.stats(), indegree_stats(&s));
            assert_eq!(
                tracker.gini().to_bits(),
                indegree_gini(&s).to_bits(),
                "nodes {nodes:?} edges {edges:?}"
            );
        }
    }

    #[test]
    fn every_update_without_delta_tracking_rebuilds() {
        let s = snapshot(&[1, 2, 3], &[(1, 2)]);
        let mut tracker = IncrementalIndegree::new();
        tracker.update(&s);
        tracker.update(&s);
        assert_eq!(tracker.rebuild_count(), 2);
        assert_eq!(tracker.fast_update_count(), 0);
    }

    #[test]
    fn delta_updates_follow_edge_churn() {
        let nodes: Vec<NodeObservation> = [1u64, 2, 3]
            .iter()
            .map(|&id| NodeObservation {
                id: NodeId::new(id),
                class: NatClass::Public,
                ratio_estimate: None,
                rounds_executed: 5,
            })
            .collect();
        let edge = |a: u64, b: u64| (NodeId::new(a), NodeId::new(b));
        let mut tracked = OverlaySnapshot::default();
        tracked.enable_delta_tracking();
        tracked.replace_from_parts(nodes.clone(), vec![edge(1, 2), edge(3, 2)]);
        let mut tracker = IncrementalIndegree::new();
        tracker.update(&tracked);
        assert_eq!(tracker.rebuild_count(), 1);
        // Same membership, different edges: the second capture carries a valid delta.
        tracked.replace_from_parts(nodes, vec![edge(1, 2), edge(2, 3), edge(1, 3)]);
        tracker.update(&tracked);
        assert_eq!(tracker.fast_update_count(), 1, "delta fast path must fire");
        assert_eq!(
            tracker.degrees().collect::<Vec<_>>(),
            indegree_distribution(&tracked)
                .iter()
                .map(|&(_, d)| d)
                .collect::<Vec<_>>()
        );
        assert_eq!(tracker.histogram(), indegree_histogram(&tracked));
        assert_eq!(tracker.gini().to_bits(), indegree_gini(&tracked).to_bits());
    }

    #[test]
    fn membership_change_forces_a_rebuild() {
        let obs = |id: u64| NodeObservation {
            id: NodeId::new(id),
            class: NatClass::Public,
            ratio_estimate: None,
            rounds_executed: 5,
        };
        let edge = |a: u64, b: u64| (NodeId::new(a), NodeId::new(b));
        let mut tracked = OverlaySnapshot::default();
        tracked.enable_delta_tracking();
        tracked.replace_from_parts(vec![obs(1), obs(2)], vec![edge(1, 2)]);
        let mut tracker = IncrementalIndegree::new();
        tracker.update(&tracked);
        tracked.replace_from_parts(vec![obs(1), obs(2), obs(3)], vec![edge(1, 2), edge(1, 3)]);
        tracker.update(&tracked);
        assert_eq!(tracker.rebuild_count(), 2, "new node invalidates ranks");
        assert_eq!(tracker.fast_update_count(), 0);
        assert_eq!(tracker.stats(), indegree_stats(&tracked));
    }
}
