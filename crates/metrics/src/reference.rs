//! Naive tree/hash-based reference implementations of the graph metrics.
//!
//! These are the original (pre-CSR) implementations, retained verbatim as the executable
//! specification of the fast pipeline in [`graph`](crate::graph) and
//! [`context`](crate::context): the randomized properties at the end of this module assert
//! that the CSR-based metrics are **exactly** equal — bit-identical floats included — to
//! what this module computes on arbitrary snapshots and on live captures. They allocate a
//! `BTreeMap`/`BTreeSet` adjacency and `HashMap`-backed BFS state on every call, so the
//! module is compiled for tests only; the per-sample path is
//! [`MetricsContext`](crate::context::MetricsContext).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use croupier_simulator::NodeId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

use crate::snapshot::OverlaySnapshot;

/// An undirected graph over node identifiers, built from the "knows-about" edges of an
/// [`OverlaySnapshot`].
///
/// The paper's connectivity, path-length and clustering metrics treat view edges as
/// undirected communication links (once a node knows another it can initiate an exchange,
/// and the exchange flows both ways), which is the standard convention in the peer-sampling
/// literature. The per-sample pipeline uses the CSR [`CsrGraph`](crate::graph::CsrGraph)
/// representation of the same graph; this type is the reference it is checked against.
#[derive(Clone, Debug, Default)]
pub(crate) struct UndirectedGraph {
    // Ordered maps keep every traversal (and therefore every floating-point accumulation
    // downstream) deterministic for a fixed seed.
    adjacency: BTreeMap<NodeId, BTreeSet<NodeId>>,
}

impl UndirectedGraph {
    /// Builds the graph from a snapshot, ignoring self-loops and edges to unobserved nodes.
    pub(crate) fn from_snapshot(snapshot: &OverlaySnapshot) -> Self {
        let live: HashSet<NodeId> = snapshot.nodes.iter().map(|n| n.id).collect();
        let mut graph = UndirectedGraph::default();
        for node in &live {
            graph.adjacency.entry(*node).or_default();
        }
        for (a, b) in &snapshot.edges {
            if a == b || !live.contains(a) || !live.contains(b) {
                continue;
            }
            graph.adjacency.entry(*a).or_default().insert(*b);
            graph.adjacency.entry(*b).or_default().insert(*a);
        }
        graph
    }

    /// Number of vertices.
    pub(crate) fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.adjacency.values().map(|n| n.len()).sum::<usize>() / 2
    }

    /// The neighbours of `node`.
    pub(crate) fn neighbours(&self, node: NodeId) -> Option<&BTreeSet<NodeId>> {
        self.adjacency.get(&node)
    }

    /// All vertices.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency.keys().copied()
    }

    /// Breadth-first distances (in hops) from `source` to every reachable vertex.
    pub(crate) fn bfs_distances(&self, source: NodeId) -> HashMap<NodeId, u32> {
        let mut distances = HashMap::new();
        if !self.adjacency.contains_key(&source) {
            return distances;
        }
        distances.insert(source, 0);
        let mut queue = VecDeque::from([source]);
        while let Some(current) = queue.pop_front() {
            let d = distances[&current];
            if let Some(neighbours) = self.adjacency.get(&current) {
                for next in neighbours {
                    if !distances.contains_key(next) {
                        distances.insert(*next, d + 1);
                        queue.push_back(*next);
                    }
                }
            }
        }
        distances
    }

    /// Sizes of all connected components, in descending order.
    pub(crate) fn component_sizes(&self) -> Vec<usize> {
        let mut visited: HashSet<NodeId> = HashSet::new();
        let mut sizes = Vec::new();
        for start in self.adjacency.keys() {
            if visited.contains(start) {
                continue;
            }
            let mut size = 0;
            let mut queue = VecDeque::from([*start]);
            visited.insert(*start);
            while let Some(current) = queue.pop_front() {
                size += 1;
                if let Some(neighbours) = self.adjacency.get(&current) {
                    for next in neighbours {
                        if visited.insert(*next) {
                            queue.push_back(*next);
                        }
                    }
                }
            }
            sizes.push(size);
        }
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }
}

/// Reference implementation of [`average_path_length`](crate::paths::average_path_length):
/// BFS-sampled average shortest-path length over a freshly built [`UndirectedGraph`].
pub(crate) fn naive_average_path_length(
    snapshot: &OverlaySnapshot,
    sources: usize,
    rng: &mut SmallRng,
) -> Option<f64> {
    let graph = UndirectedGraph::from_snapshot(snapshot);
    if graph.node_count() < 2 {
        return None;
    }
    let mut nodes: Vec<_> = graph.nodes().collect();
    nodes.sort_unstable();
    nodes.shuffle(rng);
    nodes.truncate(sources.max(1).min(nodes.len()));

    let mut total_hops: u64 = 0;
    let mut pairs: u64 = 0;
    for source in nodes {
        for (target, hops) in graph.bfs_distances(source) {
            if target != source {
                total_hops += hops as u64;
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        None
    } else {
        Some(total_hops as f64 / pairs as f64)
    }
}

/// Reference implementation of
/// [`average_clustering_coefficient`](crate::clustering::average_clustering_coefficient):
/// per-node neighbour-pair probing against `BTreeSet` adjacency.
pub(crate) fn naive_average_clustering_coefficient(snapshot: &OverlaySnapshot) -> f64 {
    let graph = UndirectedGraph::from_snapshot(snapshot);
    let n = graph.node_count();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for node in graph.nodes() {
        let neighbours = match graph.neighbours(node) {
            Some(set) if set.len() >= 2 => set,
            _ => continue,
        };
        let k = neighbours.len();
        let mut links = 0usize;
        let neighbour_list: Vec<_> = neighbours.iter().copied().collect();
        for i in 0..neighbour_list.len() {
            for j in (i + 1)..neighbour_list.len() {
                if graph
                    .neighbours(neighbour_list[i])
                    .map(|set| set.contains(&neighbour_list[j]))
                    .unwrap_or(false)
                {
                    links += 1;
                }
            }
        }
        total += 2.0 * links as f64 / (k as f64 * (k as f64 - 1.0));
    }
    total / n as f64
}

/// Reference implementation of [`indegree_gini`](crate::indegree::indegree_gini):
/// hash-map in-degree counting, an explicit sort of the degree list, and the textbook
/// positional Gini sum `Σ_j (2j + 1 − n)·x_j / (n·Σx)` over the sorted degrees. The
/// numerator and denominator are exact integers, so the production counting-sort
/// formulation must reproduce this bit for bit.
pub(crate) fn naive_indegree_gini(snapshot: &OverlaySnapshot) -> f64 {
    let live: HashSet<NodeId> = snapshot.nodes.iter().map(|n| n.id).collect();
    let mut indegree: HashMap<NodeId, u64> = live.iter().map(|&id| (id, 0)).collect();
    for (from, to) in &snapshot.edges {
        if from == to {
            continue;
        }
        if let Some(count) = indegree.get_mut(to) {
            *count += 1;
        }
    }
    let mut degrees: Vec<u64> = indegree.into_values().collect();
    degrees.sort_unstable();
    let n = degrees.len() as i128;
    let total: i128 = degrees.iter().map(|&d| d as i128).sum();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let numerator: i128 = degrees
        .iter()
        .enumerate()
        .map(|(j, &d)| (2 * j as i128 + 1 - n) * d as i128)
        .sum();
    numerator as f64 / (n * total) as f64
}

/// Reference implementation of
/// [`largest_component_fraction`](crate::components::largest_component_fraction).
pub(crate) fn naive_largest_component_fraction(snapshot: &OverlaySnapshot) -> f64 {
    let graph = UndirectedGraph::from_snapshot(snapshot);
    let n = graph.node_count();
    if n == 0 {
        return 0.0;
    }
    let largest = graph.component_sizes().into_iter().next().unwrap_or(0);
    largest as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::MetricsContext;
    use crate::indegree::{indegree_gini, indegree_histogram, indegree_stats, IncrementalIndegree};
    use crate::snapshot::NodeObservation;
    use croupier_simulator::NatClass;
    use rand::{Rng, SeedableRng};

    fn snapshot(nodes: &[u64], edges: &[(u64, u64)]) -> OverlaySnapshot {
        OverlaySnapshot::from_parts(
            nodes
                .iter()
                .map(|id| NodeObservation {
                    id: NodeId::new(*id),
                    class: NatClass::Public,
                    ratio_estimate: None,
                    rounds_executed: 10,
                })
                .collect(),
            edges
                .iter()
                .map(|(a, b)| (NodeId::new(*a), NodeId::new(*b)))
                .collect(),
        )
    }

    #[test]
    fn builds_undirected_adjacency_without_self_loops() {
        let g = UndirectedGraph::from_snapshot(&snapshot(
            &[1, 2, 3],
            &[(1, 2), (2, 1), (2, 2), (2, 3), (1, 99)],
        ));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g
            .neighbours(NodeId::new(2))
            .unwrap()
            .contains(&NodeId::new(1)));
        assert!(g
            .neighbours(NodeId::new(1))
            .unwrap()
            .contains(&NodeId::new(2)));
        assert!(!g
            .neighbours(NodeId::new(2))
            .unwrap()
            .contains(&NodeId::new(2)));
    }

    #[test]
    fn bfs_computes_hop_distances() {
        let g =
            UndirectedGraph::from_snapshot(&snapshot(&[1, 2, 3, 4, 5], &[(1, 2), (2, 3), (3, 4)]));
        let d = g.bfs_distances(NodeId::new(1));
        assert_eq!(d[&NodeId::new(1)], 0);
        assert_eq!(d[&NodeId::new(2)], 1);
        assert_eq!(d[&NodeId::new(3)], 2);
        assert_eq!(d[&NodeId::new(4)], 3);
        assert!(
            !d.contains_key(&NodeId::new(5)),
            "disconnected node is unreachable"
        );
        assert!(g.bfs_distances(NodeId::new(42)).is_empty());
    }

    #[test]
    fn component_sizes_are_sorted_descending() {
        let g = UndirectedGraph::from_snapshot(&snapshot(
            &[1, 2, 3, 4, 5, 6],
            &[(1, 2), (2, 3), (4, 5)],
        ));
        assert_eq!(g.component_sizes(), vec![3, 2, 1]);
    }

    #[test]
    fn naive_gini_matches_textbook_values() {
        // Ring (uniform in-degree 1): perfectly equal.
        let ring = snapshot(&[1, 2, 3, 4], &[(1, 2), (2, 3), (3, 4), (4, 1)]);
        assert_eq!(naive_indegree_gini(&ring), 0.0);
        // Star: one of five nodes holds all in-degree, G = (n - 1)/n.
        let star = snapshot(&[1, 2, 3, 4, 5], &[(2, 1), (3, 1), (4, 1), (5, 1)]);
        assert!((naive_indegree_gini(&star) - 0.8).abs() < 1e-12);
        assert_eq!(naive_indegree_gini(&OverlaySnapshot::default()), 0.0);
    }

    #[test]
    fn empty_snapshot_gives_empty_graph() {
        let g = UndirectedGraph::from_snapshot(&OverlaySnapshot::default());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.component_sizes().is_empty());
    }

    // Randomized properties: the CSR pipeline and the incremental in-degree tracker
    // against this module. Each runs a fixed number of independently seeded cases and
    // reports the case seed on failure, so a failing case reproduces exactly.

    /// Number of random cases per property.
    const CASES: u64 = 250;

    /// Cases for the properties whose naive reference runs one `HashMap` BFS per node of a
    /// snapshot of up to 200 nodes.
    const LARGE_CASES: u64 = 50;

    /// Runs `check` once per case with an independently seeded generator.
    fn for_cases(name: &str, cases: u64, mut check: impl FnMut(&mut SmallRng)) {
        for case in 0..cases {
            let seed = 0x5eed_0000 + case;
            let mut rng = SmallRng::seed_from_u64(seed);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                check(&mut rng);
            }));
            if let Err(panic) = result {
                eprintln!("property `{name}` failed for case seed {seed:#x}");
                std::panic::resume_unwind(panic);
            }
        }
    }

    fn arb_class(rng: &mut SmallRng) -> NatClass {
        if rng.gen_bool(0.5) {
            NatClass::Public
        } else {
            NatClass::Private
        }
    }

    /// An arbitrary overlay snapshot with a node count drawn from `nodes`: possibly empty,
    /// with isolated nodes, dangling edges to unobserved (departed) ids, duplicate directed
    /// edges and self-loops.
    fn arb_snapshot_of(rng: &mut SmallRng, nodes: std::ops::Range<usize>) -> OverlaySnapshot {
        let n = rng.gen_range(nodes);
        let mut ids: Vec<u64> = (0..n as u64 * 2).collect();
        // Non-contiguous ids: keep a random half of a larger id range.
        for i in (1..ids.len()).rev() {
            let j = rng.gen_range(0..=i);
            ids.swap(i, j);
        }
        ids.truncate(n);
        ids.sort_unstable();
        let nodes: Vec<NodeObservation> = ids
            .iter()
            .map(|id| NodeObservation {
                id: NodeId::new(*id),
                class: if rng.gen_bool(0.2) {
                    NatClass::Public
                } else {
                    NatClass::Private
                },
                ratio_estimate: None,
                rounds_executed: 5,
            })
            .collect();
        let edge_count = rng.gen_range(0usize..(4 * n.max(1)));
        let edges: Vec<(NodeId, NodeId)> = (0..edge_count)
            .map(|_| {
                // Mostly live endpoints, sometimes dangling ids, sometimes self-loops.
                let pick = |rng: &mut SmallRng| {
                    if ids.is_empty() || rng.gen_bool(0.15) {
                        NodeId::new(rng.gen_range(0u64..150))
                    } else {
                        NodeId::new(ids[rng.gen_range(0..ids.len())])
                    }
                };
                let a = pick(rng);
                let b = if rng.gen_bool(0.05) { a } else { pick(rng) };
                (a, b)
            })
            .collect();
        OverlaySnapshot::from_parts(nodes, edges)
    }

    /// The CSR metrics pipeline is **exactly** equal — bit-identical floats — to the naive
    /// `BTreeMap`/`BTreeSet` reference on arbitrary snapshots, including dangling edges,
    /// isolated nodes and the empty graph, for both sampled and exact BFS source counts.
    #[test]
    fn csr_metrics_equal_naive_reference_exactly() {
        for_cases("csr_equals_naive", CASES, |rng| {
            let snapshot = arb_snapshot_of(rng, 0..60);
            let sources = if rng.gen_bool(0.4) {
                usize::MAX
            } else {
                rng.gen_range(1usize..20)
            };
            let draw_seed = rng.gen::<u64>();

            let mut ctx = MetricsContext::new(1);
            ctx.build(&snapshot);
            let fast_apl =
                ctx.average_path_length(sources, &mut SmallRng::seed_from_u64(draw_seed));
            let naive_apl = naive_average_path_length(
                &snapshot,
                sources,
                &mut SmallRng::seed_from_u64(draw_seed),
            );
            assert_eq!(
                fast_apl.map(f64::to_bits),
                naive_apl.map(f64::to_bits),
                "path length diverged: {fast_apl:?} vs {naive_apl:?}"
            );

            let fast_cc = ctx.average_clustering_coefficient();
            let naive_cc = naive_average_clustering_coefficient(&snapshot);
            assert_eq!(
                fast_cc.to_bits(),
                naive_cc.to_bits(),
                "clustering diverged: {fast_cc} vs {naive_cc}"
            );

            let fast_lcc = ctx.largest_component_fraction();
            let naive_lcc = naive_largest_component_fraction(&snapshot);
            assert_eq!(
                fast_lcc.to_bits(),
                naive_lcc.to_bits(),
                "largest component diverged: {fast_lcc} vs {naive_lcc}"
            );
        });
    }

    /// Snapshots of 60–200 nodes put more than 64 sources in play, so the path-length sweep
    /// runs several 64-source batches (and a partial last one) per worker chunk. Exact and
    /// sampled source counts both stay bit-identical to the naive one-BFS-per-source
    /// reference at every thread count, as does the triangle-counting clustering
    /// coefficient.
    #[test]
    fn metrics_across_batch_boundaries_equal_naive_reference() {
        for_cases("batch_boundaries", LARGE_CASES, |rng| {
            let snapshot = arb_snapshot_of(rng, 60..200);
            let sampled = rng.gen_range(1usize..=snapshot.node_count());
            let draw_seed = rng.gen::<u64>();
            let naive_cc = naive_average_clustering_coefficient(&snapshot);
            for sources in [usize::MAX, sampled] {
                let naive = naive_average_path_length(
                    &snapshot,
                    sources,
                    &mut SmallRng::seed_from_u64(draw_seed),
                );
                for threads in [1, 2, 3, 8] {
                    let mut ctx = MetricsContext::new(threads);
                    ctx.build(&snapshot);
                    let mut draw = SmallRng::seed_from_u64(draw_seed);
                    let fast = ctx.average_path_length(sources, &mut draw);
                    assert_eq!(
                        fast.map(f64::to_bits),
                        naive.map(f64::to_bits),
                        "sources={sources} threads={threads}: {fast:?} vs {naive:?}"
                    );
                    let cc = ctx.average_clustering_coefficient();
                    assert_eq!(cc.to_bits(), naive_cc.to_bits(), "threads={threads}");
                }
            }
        });
    }

    /// The incremental in-degree tracker produces bit-identical histograms, stats and Gini
    /// coefficients to the full per-sample recount — and to the textbook Gini reference —
    /// on arbitrary capture sequences, including dangling edges, self-loops, node
    /// arrivals/departures and pure edge churn.
    #[test]
    fn incremental_indegree_equals_full_recount_under_arbitrary_churn() {
        for_cases("incremental_indegree_churn", CASES, |rng| {
            let base = arb_snapshot_of(rng, 0..60);
            let mut nodes = base.nodes.clone();
            let mut edges = base.edges.clone();
            let mut snapshot = OverlaySnapshot::default();
            snapshot.enable_delta_tracking();
            let mut tracker = IncrementalIndegree::new();
            for _ in 0..4 {
                // Membership churn: drop a node (leaving its edges dangling) or insert a
                // new one at its sorted rank, as engine captures keep nodes id-sorted.
                if !nodes.is_empty() && rng.gen_bool(0.3) {
                    nodes.remove(rng.gen_range(0..nodes.len()));
                }
                if rng.gen_bool(0.3) {
                    let id = NodeId::new(rng.gen_range(0u64..200));
                    if let Err(rank) = nodes.binary_search_by_key(&id, |n| n.id) {
                        nodes.insert(
                            rank,
                            NodeObservation {
                                id,
                                class: arb_class(rng),
                                ratio_estimate: None,
                                rounds_executed: 5,
                            },
                        );
                    }
                }
                // Edge churn: re-target, append (sometimes self-loops or dangling ids),
                // drop.
                for _ in 0..rng.gen_range(0usize..6) {
                    if !edges.is_empty() && rng.gen_bool(0.5) {
                        let i = rng.gen_range(0..edges.len());
                        edges[i].1 = NodeId::new(rng.gen_range(0u64..200));
                    } else if !edges.is_empty() && rng.gen_bool(0.3) {
                        edges.swap_remove(rng.gen_range(0..edges.len()));
                    } else {
                        let from = NodeId::new(rng.gen_range(0u64..200));
                        let to = if rng.gen_bool(0.1) {
                            from
                        } else {
                            NodeId::new(rng.gen_range(0u64..200))
                        };
                        edges.push((from, to));
                    }
                }
                snapshot.replace_from_parts(nodes.clone(), edges.clone());
                tracker.update(&snapshot);
                assert_eq!(
                    tracker.histogram(),
                    indegree_histogram(&snapshot),
                    "histogram diverged from the full recount"
                );
                assert_eq!(tracker.stats(), indegree_stats(&snapshot));
                let fast = tracker.gini();
                let full = indegree_gini(&snapshot);
                let naive = naive_indegree_gini(&snapshot);
                assert_eq!(fast.to_bits(), full.to_bits(), "{fast} vs {full}");
                assert_eq!(full.to_bits(), naive.to_bits(), "{full} vs naive {naive}");
            }
        });
    }

    /// On a live, churning simulation the incremental in-degree tracker stays
    /// bit-identical to the full recount on every capture while actually exercising both
    /// of its tiers: the O(delta) fast path on quiet rounds and the rebuild on membership
    /// changes.
    #[test]
    fn incremental_indegree_equals_full_recount_on_live_captures() {
        use croupier::{CroupierConfig, CroupierNode};
        use croupier_simulator::{
            SimDuration, SimTime, Simulation, SimulationConfig, SimulationEngine,
        };

        let mut fast = 0;
        let mut rebuilds = 0;
        for seed in 0..10u64 {
            let mut rng = SmallRng::seed_from_u64(0x1DE6 ^ seed);
            let mut sim: Simulation<CroupierNode> = Simulation::from_config(
                SimulationConfig::default()
                    .with_seed(seed)
                    .with_round_period(SimDuration::from_secs(1)),
            );
            let mut alive = Vec::new();
            for raw in 0..24u64 {
                let id = NodeId::new(raw);
                let class = if raw.is_multiple_of(4) {
                    NatClass::Public
                } else {
                    NatClass::Private
                };
                if class.is_public() {
                    sim.register_public(id);
                }
                sim.add_node(id, CroupierNode::new(id, class, CroupierConfig::default()));
                alive.push(id);
            }
            let mut snapshot = OverlaySnapshot::default();
            snapshot.enable_delta_tracking();
            let mut tracker = IncrementalIndegree::new();
            for round in 1..=30u64 {
                sim.run_until(SimTime::from_secs(round));
                // Occasional departures force the rebuild tier; the quiet rounds in
                // between leave pure edge deltas for the fast path.
                if rng.gen_bool(0.15) && alive.len() > 8 {
                    let victim = alive.swap_remove(rng.gen_range(0..alive.len()));
                    sim.remove_node(victim);
                }
                snapshot.capture_into(&sim, 2);
                tracker.update(&snapshot);
                assert_eq!(tracker.stats(), indegree_stats(&snapshot));
                let fast_gini = tracker.gini();
                let full_gini = indegree_gini(&snapshot);
                assert_eq!(
                    fast_gini.to_bits(),
                    full_gini.to_bits(),
                    "seed {seed} round {round}: {fast_gini} vs {full_gini}"
                );
                assert_eq!(
                    full_gini.to_bits(),
                    naive_indegree_gini(&snapshot).to_bits()
                );
            }
            fast += tracker.fast_update_count();
            rebuilds += tracker.rebuild_count();
        }
        assert!(fast > 0, "the O(delta) fast path must be exercised");
        assert!(
            rebuilds > 10,
            "membership churn must force rebuilds beyond the initial one per seed ({fast} fast)"
        );
    }
}
