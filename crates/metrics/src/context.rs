//! The reusable per-sample metrics pipeline.
//!
//! [`MetricsContext`] owns one [`CsrGraph`] plus all traversal scratch (the source bitsets,
//! the triangle counters, an epoch-stamped visited buffer and its frontiers, the BFS source
//! permutation) and computes every graph metric of a sample — average path length, average
//! clustering coefficient, largest-component fraction — from **one** graph build. Keeping
//! the context alive across samples means the steady-state sampling loop performs no
//! allocation at all: no `BTreeMap`/`BTreeSet` adjacency, no `HashMap` BFS state, no
//! per-call scratch.
//!
//! # Path length: 64 sources per bitset sweep
//!
//! Path-length estimation is a bit-parallel multi-source BFS (MS-BFS). Sources are taken in
//! batches of up to 64; bit `i` of a vertex's `seen`, `frontier` and `next` words stands
//! for the batch's `i`-th source. A level pushes `next[v] |= frontier[u]` along the rows of
//! the vertices active on it, then sweeps every vertex once: `fresh = next & !seen` are the
//! sources that reach it at this depth, so the level adds `depth · popcount(fresh)` to the
//! hop sum and `popcount(fresh)` to the pair count. One edge visit thus serves every
//! source of the batch that is active on it, instead of one BFS per source walking the
//! whole graph. Bits never interact, so a source listed twice occupies two lanes and is
//! counted twice, exactly as two single-source BFS runs would be.
//!
//! With `threads > 1` the sources are split into contiguous chunks in their (already
//! canonical) sampled order and each chunk runs its batches on its own scoped worker
//! thread — the same `std::thread::scope` worker model the sharded engine uses for its
//! phases — with its own bitsets. Every batch produces exact integer `(Σ hops, pairs)`
//! totals equal to the sum of its sources' single-source BFS totals; the per-chunk sums are
//! merged in chunk order. Integer addition is associative and commutative, so the merged
//! totals — and therefore the final floating-point division — are **bit-identical for any
//! thread count and any batching**, which `tests/property_tests.rs` pins down against the
//! naive one-BFS-per-source reference.
//!
//! # Clustering: every triangle once
//!
//! A vertex's clustering term needs `links`, the number of edges among its neighbours,
//! which is the number of triangles it lies on. Forward counting finds each triangle once,
//! from its lowest rank: with `N⁺(u)` the part of `u`'s sorted row above `u`, stamp
//! `N⁺(u)`, and every stamped `w ∈ N⁺(v)` for `v ∈ N⁺(u)` closes the triangle `u < v < w`,
//! which adds one to the counts of all three. The counts are exact integers equal to the
//! reference's pair probes, and the per-vertex terms `2·links / (k(k−1))` are summed in the
//! same rank order, so the average is bit-identical to the reference.

use croupier_simulator::NodeId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

use crate::graph::CsrGraph;
use crate::snapshot::OverlaySnapshot;

/// Sources per MS-BFS batch: one bit of a `u64` lane word each.
const BATCH: usize = u64::BITS as usize;

/// Reusable single-traversal scratch for the component sweep: an epoch-stamped visited
/// buffer and two frontiers.
///
/// `mark[v] == epoch` means vertex `v` was reached by the current traversal; bumping
/// `epoch` resets the whole buffer in O(1). The buffers persist across samples, so a
/// traversal allocates nothing once they have grown to the overlay size.
#[derive(Clone, Debug, Default)]
struct BfsScratch {
    mark: Vec<u32>,
    epoch: u32,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl BfsScratch {
    /// Prepares the scratch for one traversal over `n` vertices and returns the fresh
    /// epoch value.
    fn begin(&mut self, n: usize) -> u32 {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.frontier.clear();
        self.next.clear();
        // A frontier never exceeds the vertex count: sizing both once keeps a later,
        // differently shaped graph of the same size from growing them.
        self.frontier.reserve(n);
        self.next.reserve(n);
        self.epoch
    }
}

/// Reusable MS-BFS scratch of one worker thread: three source-bitset words per vertex and
/// the list of vertices active on the current level.
#[derive(Clone, Debug, Default)]
struct LaneScratch {
    /// Sources that have reached each vertex so far.
    seen: Vec<u64>,
    /// Sources that reached each vertex on the current level.
    frontier: Vec<u64>,
    /// Sources pushed to each vertex by the current level.
    next: Vec<u64>,
    /// Vertices with a non-zero `frontier` word.
    active: Vec<u32>,
}

impl LaneScratch {
    /// Runs one MS-BFS over `batch` (at most [`BATCH`] sources, duplicates allowed) and
    /// returns the exact `(Σ hops, reached pairs)` summed over the batch's sources, each
    /// source counting the vertices reachable from and distinct from it.
    fn batch_sums(&mut self, graph: &CsrGraph, batch: &[u32]) -> (u64, u64) {
        debug_assert!(batch.len() <= BATCH);
        let n = graph.node_count();
        for words in [&mut self.seen, &mut self.frontier, &mut self.next] {
            words.clear();
            words.resize(n, 0);
        }
        self.active.clear();
        self.active.reserve(n);
        for (lane, &source) in batch.iter().enumerate() {
            let s = source as usize;
            if self.frontier[s] == 0 {
                self.active.push(source);
            }
            self.frontier[s] |= 1 << lane;
            self.seen[s] |= 1 << lane;
        }
        let mut depth = 0u64;
        let mut hops = 0u64;
        let mut pairs = 0u64;
        while !self.active.is_empty() {
            depth += 1;
            for &u in &self.active {
                let reach = self.frontier[u as usize];
                for &v in graph.row(u) {
                    self.next[v as usize] |= reach;
                }
            }
            self.active.clear();
            let words = self
                .seen
                .iter_mut()
                .zip(&mut self.frontier)
                .zip(&mut self.next);
            for (v, ((seen, frontier), next)) in words.enumerate() {
                let fresh = *next & !*seen;
                *next = 0;
                *frontier = fresh;
                if fresh != 0 {
                    *seen |= fresh;
                    let reached = u64::from(fresh.count_ones());
                    hops += depth * reached;
                    pairs += reached;
                    self.active.push(v as u32);
                }
            }
        }
        (hops, pairs)
    }

    /// Sums [`batch_sums`](Self::batch_sums) over `sources` taken [`BATCH`] at a time.
    fn sums(&mut self, graph: &CsrGraph, sources: &[u32]) -> (u64, u64) {
        sources.chunks(BATCH).fold((0, 0), |acc, batch| {
            let (hops, pairs) = self.batch_sums(graph, batch);
            (acc.0 + hops, acc.1 + pairs)
        })
    }
}

/// Builds all per-sample graph metrics from one shared CSR overlay graph.
///
/// # Examples
///
/// ```
/// use croupier_metrics::{MetricsContext, NodeObservation, OverlaySnapshot};
/// use croupier_simulator::{NatClass, NodeId};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let snapshot = OverlaySnapshot::from_parts(
///     (0..4)
///         .map(|i| NodeObservation {
///             id: NodeId::new(i),
///             class: NatClass::Public,
///             ratio_estimate: None,
///             rounds_executed: 5,
///         })
///         .collect(),
///     vec![
///         (NodeId::new(0), NodeId::new(1)),
///         (NodeId::new(1), NodeId::new(2)),
///         (NodeId::new(2), NodeId::new(3)),
///     ],
/// );
/// let mut ctx = MetricsContext::new(1);
/// ctx.build(&snapshot);
/// let mut rng = SmallRng::seed_from_u64(7);
/// assert!((ctx.largest_component_fraction() - 1.0).abs() < 1e-9);
/// assert_eq!(ctx.average_clustering_coefficient(), 0.0);
/// assert!(ctx.average_path_length(usize::MAX, &mut rng).is_some());
/// ```
#[derive(Debug)]
pub struct MetricsContext {
    threads: usize,
    graph: CsrGraph,
    /// Source permutation scratch for path-length sampling.
    sources: Vec<u32>,
    /// One MS-BFS scratch per worker thread, reused across samples.
    lanes: Vec<LaneScratch>,
    /// Per-chunk `(Σ hops, pairs)` partials for the parallel merge.
    partials: Vec<(u64, u64)>,
    /// Component-sweep scratch.
    components: BfsScratch,
    /// Clustering scratch: `N⁺(u)` stamps, all `false` between calls.
    stamped: Vec<bool>,
    /// Clustering scratch: triangles through each vertex.
    triangles: Vec<u64>,
}

impl MetricsContext {
    /// Creates a context that runs multi-source BFS on `threads` worker threads
    /// (clamped to at least one). `1` keeps everything on the calling thread.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        MetricsContext {
            threads,
            graph: CsrGraph::new(),
            sources: Vec::new(),
            lanes: vec![LaneScratch::default(); threads],
            partials: vec![(0, 0); threads],
            components: BfsScratch::default(),
            stamped: Vec::new(),
            triangles: Vec::new(),
        }
    }

    /// The number of worker threads multi-source BFS fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// (Re)builds the shared CSR graph for `snapshot`, reusing all internal buffers.
    /// Call once per sample, then evaluate any subset of the metrics.
    pub fn build(&mut self, snapshot: &OverlaySnapshot) {
        self.graph.rebuild(snapshot);
    }

    /// The CSR graph of the current sample.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Average shortest-path length (in hops) between reachable node pairs, sampled from
    /// `sources` BFS sources (`usize::MAX` for the exact all-pairs value). Semantics and
    /// results are exactly those of [`average_path_length`](crate::paths::average_path_length),
    /// including the RNG draw sequence used to pick the sources.
    pub fn average_path_length(&mut self, sources: usize, rng: &mut SmallRng) -> Option<f64> {
        let n = self.graph.node_count();
        let mut drawn = std::mem::take(&mut self.sources);
        draw_path_sources(n, sources, rng, &mut drawn);
        self.sources = drawn;
        if n < 2 {
            return None;
        }
        let (hops, pairs) = self.multi_source_sums();
        if pairs == 0 {
            None
        } else {
            Some(hops as f64 / pairs as f64)
        }
    }

    /// Average shortest-path length over pre-drawn BFS source ranks, as produced by
    /// [`draw_path_sources`] for this graph's vertex count. Bit-identical to
    /// [`average_path_length`](Self::average_path_length) with the same RNG state — the
    /// split exists so a driver thread can consume the RNG draws in sample order while
    /// the BFS sweep itself runs later on a metrics worker.
    pub fn average_path_length_with_sources(&mut self, sources: &[u32]) -> Option<f64> {
        if self.graph.node_count() < 2 || sources.is_empty() {
            return None;
        }
        self.sources.clear();
        self.sources.extend_from_slice(sources);
        let (hops, pairs) = self.multi_source_sums();
        if pairs == 0 {
            None
        } else {
            Some(hops as f64 / pairs as f64)
        }
    }

    /// Runs the MS-BFS batches of `self.sources`, fanned out over the worker threads, and
    /// returns the exact merged `(Σ hops, pairs)` totals.
    fn multi_source_sums(&mut self) -> (u64, u64) {
        let threads = self.threads.min(self.sources.len()).max(1);
        let graph = &self.graph;
        if threads == 1 {
            return self.lanes[0].sums(graph, &self.sources);
        }
        let chunk_len = self.sources.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for ((chunk, lanes), partial) in self
                .sources
                .chunks(chunk_len)
                .zip(self.lanes.iter_mut())
                .zip(self.partials.iter_mut())
            {
                scope.spawn(move || *partial = lanes.sums(graph, chunk));
            }
        });
        let chunks = self.sources.len().div_ceil(chunk_len);
        self.partials[..chunks]
            .iter()
            .fold((0, 0), |acc, p| (acc.0 + p.0, acc.1 + p.1))
    }

    /// Average local clustering coefficient over all observed nodes, from forward triangle
    /// counting (see the module documentation). Results are bit-identical to
    /// [`average_clustering_coefficient`](crate::clustering::average_clustering_coefficient)'s
    /// reference semantics (same per-node terms, same accumulation order).
    pub fn average_clustering_coefficient(&mut self) -> f64 {
        let n = self.graph.node_count();
        if n == 0 {
            return 0.0;
        }
        let graph = &self.graph;
        // `N⁺(u)`, read from the top of the sorted row down.
        let forward = |u: u32| graph.row(u).iter().rev().take_while(move |&&v| v > u);
        let (stamped, triangles) = (&mut self.stamped, &mut self.triangles);
        if stamped.len() < n {
            stamped.resize(n, false);
        }
        triangles.clear();
        triangles.resize(n, 0);
        for u in 0..n as u32 {
            for &v in forward(u) {
                stamped[v as usize] = true;
            }
            for &v in forward(u) {
                for &w in forward(v) {
                    if stamped[w as usize] {
                        triangles[u as usize] += 1;
                        triangles[v as usize] += 1;
                        triangles[w as usize] += 1;
                    }
                }
            }
            for &v in forward(u) {
                stamped[v as usize] = false;
            }
        }
        let mut total = 0.0;
        for (u, &links) in self.triangles.iter().enumerate() {
            let k = graph.row(u as u32).len();
            if k < 2 {
                continue;
            }
            total += 2.0 * links as f64 / (k as f64 * (k as f64 - 1.0));
        }
        total / n as f64
    }

    /// Fraction of observed nodes inside the largest connected component (0.0 for an
    /// empty snapshot), exactly as
    /// [`largest_component_fraction`](crate::components::largest_component_fraction).
    pub fn largest_component_fraction(&mut self) -> f64 {
        let n = self.graph.node_count();
        if n == 0 {
            return 0.0;
        }
        let graph = &self.graph;
        let scratch = &mut self.components;
        let epoch = scratch.begin(n);
        let mut largest = 0usize;
        for start in 0..n as u32 {
            if scratch.mark[start as usize] == epoch {
                continue;
            }
            // Flat frontier sweep counting the component around `start`.
            scratch.mark[start as usize] = epoch;
            scratch.frontier.clear();
            scratch.frontier.push(start);
            let mut size = 1usize;
            while !scratch.frontier.is_empty() {
                scratch.next.clear();
                for &u in &scratch.frontier {
                    for &v in graph.row(u) {
                        if scratch.mark[v as usize] != epoch {
                            scratch.mark[v as usize] = epoch;
                            scratch.next.push(v);
                        }
                    }
                }
                size += scratch.next.len();
                std::mem::swap(&mut scratch.frontier, &mut scratch.next);
            }
            largest = largest.max(size);
        }
        largest as f64 / n as f64
    }

    /// Node ids of the current sample's vertices, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes()
    }
}

/// Draws the BFS source ranks for a path-length sample over `n` vertices, exactly as
/// [`MetricsContext::average_path_length`] does internally: for `n < 2` no RNG draw is
/// consumed and `out` is left empty (the metric is undefined); otherwise ranks `0..n`
/// are shuffled and truncated to `sources.max(1).min(n)` entries.
///
/// Shuffling ranks consumes the same draws — and selects the same positions — as the
/// reference implementation's shuffle of the sorted node-id list, because rank order
/// equals ascending id order.
pub fn draw_path_sources(n: usize, sources: usize, rng: &mut SmallRng, out: &mut Vec<u32>) {
    out.clear();
    if n < 2 {
        return;
    }
    out.extend(0..n as u32);
    out.shuffle(rng);
    out.truncate(sources.max(1).min(n));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::NodeObservation;
    use croupier_simulator::NatClass;
    use rand::SeedableRng;

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
    fn one_context_serves_all_metrics_from_one_build() {
        // Triangle 1-2-3 plus pendant 4 attached to 1, plus isolated 5.
        let s = snapshot(&[1, 2, 3, 4, 5], &[(1, 2), (2, 3), (1, 3), (1, 4)]);
        let mut ctx = MetricsContext::new(2);
        ctx.build(&s);
        let mut rng = SmallRng::seed_from_u64(3);
        let apl = ctx.average_path_length(usize::MAX, &mut rng).unwrap();
        // Reachable pairs within {1,2,3,4}: twelve ordered pairs, Σ hops = 16.
        assert!((apl - 16.0 / 12.0).abs() < 1e-9);
        let expected_cc = (1.0 / 3.0 + 1.0 + 1.0 + 0.0 + 0.0) / 5.0;
        assert!((ctx.average_clustering_coefficient() - expected_cc).abs() < 1e-9);
        assert!((ctx.largest_component_fraction() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn rebuilds_track_shrinking_and_growing_samples() {
        let mut ctx = MetricsContext::new(1);
        ctx.build(&snapshot(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]));
        assert!((ctx.largest_component_fraction() - 1.0).abs() < 1e-9);
        ctx.build(&snapshot(&[0, 1, 2], &[(0, 1)]));
        assert!((ctx.largest_component_fraction() - 2.0 / 3.0).abs() < 1e-9);
        ctx.build(&snapshot(&[0, 1, 2, 3, 4], &[]));
        assert!((ctx.largest_component_fraction() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_and_degenerate_snapshots() {
        let mut ctx = MetricsContext::new(4);
        ctx.build(&OverlaySnapshot::default());
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(ctx.average_path_length(5, &mut rng).is_none());
        assert_eq!(ctx.average_clustering_coefficient(), 0.0);
        assert_eq!(ctx.largest_component_fraction(), 0.0);
        ctx.build(&snapshot(&[7], &[]));
        assert!(ctx.average_path_length(5, &mut rng).is_none());
        assert!((ctx.largest_component_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_and_sequential_path_length_agree_bitwise() {
        // Two rings of 40 and a few chords, enough sources to span all chunks.
        let nodes: Vec<u64> = (0..80).collect();
        let mut edges: Vec<(u64, u64)> = (0..40).map(|i| (i, (i + 1) % 40)).collect();
        edges.extend((40..80).map(|i| (i, 40 + (i + 1) % 40)));
        edges.push((0, 40));
        let s = snapshot(&nodes, &edges);
        let run = |threads: usize| {
            let mut ctx = MetricsContext::new(threads);
            ctx.build(&s);
            let mut rng = SmallRng::seed_from_u64(42);
            ctx.average_path_length(usize::MAX, &mut rng).unwrap()
        };
        let sequential = run(1);
        assert_eq!(sequential.to_bits(), run(2).to_bits());
        assert_eq!(sequential.to_bits(), run(4).to_bits());
        assert_eq!(sequential.to_bits(), run(7).to_bits());
    }

    #[test]
    fn predrawn_sources_match_the_inline_draw_bitwise() {
        use rand::Rng;
        let s = snapshot(
            &[1, 2, 3, 4, 5, 6],
            &[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 4)],
        );
        let mut ctx = MetricsContext::new(2);
        ctx.build(&s);
        let mut inline_rng = SmallRng::seed_from_u64(42);
        let inline = ctx.average_path_length(3, &mut inline_rng);
        let mut split_rng = SmallRng::seed_from_u64(42);
        let mut sources = Vec::new();
        draw_path_sources(s.node_count(), 3, &mut split_rng, &mut sources);
        let split = ctx.average_path_length_with_sources(&sources);
        assert_eq!(inline.map(f64::to_bits), split.map(f64::to_bits));
        assert_eq!(
            inline_rng.gen::<u64>(),
            split_rng.gen::<u64>(),
            "both paths must consume the same RNG draws"
        );
        // Degenerate graphs consume no draws on either path.
        ctx.build(&snapshot(&[7], &[]));
        let before = inline_rng.clone().gen::<u64>();
        assert!(ctx.average_path_length(3, &mut inline_rng).is_none());
        assert_eq!(inline_rng.gen::<u64>(), before, "no draw for n < 2");
        draw_path_sources(1, 3, &mut split_rng, &mut sources);
        assert!(sources.is_empty());
        assert!(ctx.average_path_length_with_sources(&sources).is_none());
    }

    /// A ring of `n` vertices `0..n`.
    fn ring(n: u64) -> OverlaySnapshot {
        let nodes: Vec<u64> = (0..n).collect();
        let edges: Vec<(u64, u64)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        snapshot(&nodes, &edges)
    }

    /// Exact `(Σ hops, pairs)` of one source on a ring of `n`: distances 1..n/2, each twice
    /// except the antipode of an even ring.
    fn ring_sums(n: u64) -> (u64, u64) {
        let half = n / 2;
        let hops: u64 = (1..=half).map(|d| 2 * d).sum();
        if n.is_multiple_of(2) {
            (hops - half, n - 1)
        } else {
            (hops, n - 1)
        }
    }

    #[test]
    fn partial_last_batch_counts_every_source() {
        // 100 sources: one full batch of 64 and a partial one of 36.
        let s = ring(100);
        let mut ctx = MetricsContext::new(1);
        ctx.build(&s);
        let sources: Vec<u32> = (0..100).collect();
        let (hops, pairs) = ring_sums(100);
        let expected = (100 * hops) as f64 / (100 * pairs) as f64;
        let apl = ctx.average_path_length_with_sources(&sources).unwrap();
        assert_eq!(apl.to_bits(), expected.to_bits());
        // 65 sources leave a last batch of one.
        let apl = ctx
            .average_path_length_with_sources(&sources[..65])
            .unwrap();
        assert_eq!(apl.to_bits(), expected.to_bits());
    }

    #[test]
    fn duplicated_sources_count_once_per_listing() {
        // A path 0-1-2-3: source 0 sums 1+2+3 over 3 pairs, source 3 the same, source 1
        // sums 1+1+2 over 3.
        let s = snapshot(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]);
        let mut ctx = MetricsContext::new(1);
        ctx.build(&s);
        let apl = ctx.average_path_length_with_sources(&[0, 0, 1]).unwrap();
        assert_eq!(apl.to_bits(), (16.0f64 / 9.0).to_bits());
        // A duplicate split across two batches counts the same as within one.
        let mut sources = vec![1u32; 64];
        sources.push(1);
        let apl = ctx.average_path_length_with_sources(&sources).unwrap();
        assert_eq!(apl.to_bits(), (4.0f64 / 3.0).to_bits());
    }

    #[test]
    fn disconnected_components_contribute_only_reachable_pairs() {
        // A triangle {0,1,2}, an edge {3,4} and an isolated 5.
        let s = snapshot(&[0, 1, 2, 3, 4, 5], &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let mut ctx = MetricsContext::new(1);
        ctx.build(&s);
        // Every source reaches its own component only: 3·2 + 2·1 pairs, all one hop.
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(ctx.average_path_length(usize::MAX, &mut rng), Some(1.0));
        assert_eq!(ctx.average_path_length_with_sources(&[5]), None);
        let expected = (1.0f64 + 1.0 + 1.0) / 6.0;
        assert_eq!(
            ctx.average_clustering_coefficient().to_bits(),
            expected.to_bits()
        );
    }

    #[test]
    fn clique_closes_every_neighbour_pair() {
        let n = 9u64;
        let nodes: Vec<u64> = (0..n).collect();
        let edges: Vec<(u64, u64)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect();
        let mut ctx = MetricsContext::new(1);
        ctx.build(&snapshot(&nodes, &edges));
        assert_eq!(ctx.average_clustering_coefficient(), 1.0);
        let pairs = (n - 1) * (n - 2) / 2;
        assert!(ctx.triangles.iter().all(|&t| t == pairs));
        assert!(ctx.stamped.iter().all(|&s| !s));
    }

    #[test]
    fn epoch_buffer_survives_many_builds() {
        let s = snapshot(&[0, 1, 2], &[(0, 1), (1, 2)]);
        let mut ctx = MetricsContext::new(1);
        for _ in 0..100 {
            ctx.build(&s);
            assert!((ctx.largest_component_fraction() - 1.0).abs() < 1e-9);
        }
    }
}
