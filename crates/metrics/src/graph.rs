//! Compressed-sparse-row (CSR) representation of the undirected overlay graph.
//!
//! Every metrics sample used to rebuild a `BTreeMap<NodeId, BTreeSet<NodeId>>` adjacency
//! **three times** (once per metric); at 100k nodes the tree insertions and pointer chasing
//! dominated the whole analysis. [`CsrGraph`] replaces that with the classic flat layout —
//! one `offsets` array and one `neighbours` array of dense `u32` node indices — built in
//! two linear passes over the snapshot's edge list and shared by all metrics of the sample.
//!
//! **Dense indexing.** Vertices are ranks in the ascending order of observed node ids, so
//! rank order equals the old `BTreeMap` iteration order and every float accumulation
//! downstream reproduces the reference implementation bit for bit. `NodeId → rank`
//! resolution reuses the engines' dense-id invariant (ids double as `NodeArena` slot
//! indices, see [`SimulationEngine::node_id_upper_bound`]): a stamped id-indexed table
//! turns each edge-endpoint lookup into one array load — no hashing, no tree descent.
//! All build scratch (the stamp table, row cursors) lives in the `CsrGraph` value and is
//! reused across samples, so steady-state rebuilds allocate nothing.
//!
//! [`SimulationEngine::node_id_upper_bound`]:
//!     croupier_simulator::SimulationEngine::node_id_upper_bound

use croupier_simulator::NodeId;

use crate::ranks::{RankTable, NO_RANK};
use crate::snapshot::OverlaySnapshot;

/// An undirected overlay graph in compressed-sparse-row form, with reusable build buffers.
///
/// Semantics match [`UndirectedGraph`](crate::reference::UndirectedGraph) exactly: one
/// vertex per observed node (isolated nodes included), self-loops and edges touching
/// unobserved nodes dropped, duplicate directed edges collapsed into one undirected edge.
/// Each row of `neighbours` is sorted ascending and duplicate-free, which the clustering
/// metric exploits for merge-style intersection counting.
///
/// # Examples
///
/// ```
/// use croupier_metrics::{CsrGraph, OverlaySnapshot};
///
/// let mut graph = CsrGraph::new();
/// graph.rebuild(&OverlaySnapshot::default());
/// assert_eq!(graph.node_count(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CsrGraph {
    /// Rank ↔ node id: ranks are positions in the ascending list of observed ids.
    ranks: RankTable,
    /// Row start offsets into `neighbours`; `offsets.len() == node_count() + 1`.
    offsets: Vec<u32>,
    /// Concatenated adjacency rows of dense ranks; sorted and deduped per row.
    neighbours: Vec<u32>,
    /// Per-row write cursors used while filling `neighbours`.
    cursor: Vec<u32>,
}

impl CsrGraph {
    /// Creates an empty graph with no buffers allocated yet.
    pub fn new() -> Self {
        CsrGraph::default()
    }

    /// Builds the graph for `snapshot`, a convenience for one-off use. Per-sample loops
    /// should keep one `CsrGraph` (or a [`MetricsContext`](crate::context::MetricsContext))
    /// alive and call [`rebuild`](CsrGraph::rebuild) so buffers are reused.
    pub fn from_snapshot(snapshot: &OverlaySnapshot) -> Self {
        let mut graph = CsrGraph::new();
        graph.rebuild(snapshot);
        graph
    }

    /// Rebuilds the graph from `snapshot`, reusing every internal buffer.
    pub fn rebuild(&mut self, snapshot: &OverlaySnapshot) {
        self.ranks.rebuild(snapshot);
        let n = self.ranks.ids().len();

        // Pass 1: count row degrees (duplicates included; they are removed per row below).
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(a, b) in &snapshot.edges {
            if let Some((ra, rb)) = self.resolve_pair(a, b) {
                self.offsets[ra as usize + 1] += 1;
                self.offsets[rb as usize + 1] += 1;
            }
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }

        // Pass 2: scatter both directions of every surviving edge.
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[..n]);
        self.neighbours.clear();
        self.neighbours.resize(self.offsets[n] as usize, 0);
        for &(a, b) in &snapshot.edges {
            if let Some((ra, rb)) = self.resolve_pair(a, b) {
                self.neighbours[self.cursor[ra as usize] as usize] = rb;
                self.cursor[ra as usize] += 1;
                self.neighbours[self.cursor[rb as usize] as usize] = ra;
                self.cursor[rb as usize] += 1;
            }
        }

        // Sort and dedup each row, compacting the rows in place (a directed edge pair
        // `a → b`, `b → a` produces the same undirected edge twice).
        let mut write = 0usize;
        let mut row_start = self.offsets[0] as usize;
        for i in 0..n {
            let row_end = self.offsets[i + 1] as usize;
            self.neighbours[row_start..row_end].sort_unstable();
            self.offsets[i] = write as u32;
            let mut previous = NO_RANK;
            for read in row_start..row_end {
                let value = self.neighbours[read];
                if value != previous {
                    self.neighbours[write] = value;
                    write += 1;
                    previous = value;
                }
            }
            row_start = row_end;
        }
        self.offsets[n] = write as u32;
        self.neighbours.truncate(write);
    }

    /// Resolves an edge to dense rank endpoints, dropping self-loops and edges touching
    /// unobserved nodes (exactly the reference implementation's filtering).
    #[inline]
    fn resolve_pair(&self, a: NodeId, b: NodeId) -> Option<(u32, u32)> {
        if a == b {
            return None;
        }
        Some((self.rank_of(a)?, self.rank_of(b)?))
    }

    /// The dense rank of `id` in this sample, if the node was observed.
    #[inline]
    pub fn rank_of(&self, id: NodeId) -> Option<u32> {
        self.ranks.rank_of(id)
    }

    /// The node id at dense rank `rank`.
    #[inline]
    pub fn id_of(&self, rank: u32) -> NodeId {
        self.ranks.ids()[rank as usize]
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.ranks.ids().len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.neighbours.len() / 2
    }

    /// The sorted, duplicate-free adjacency row of the vertex at `rank`.
    #[inline]
    pub fn row(&self, rank: u32) -> &[u32] {
        &self.neighbours
            [self.offsets[rank as usize] as usize..self.offsets[rank as usize + 1] as usize]
    }

    /// All vertices in ascending id order (equals ascending rank order).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ranks.ids().iter().copied()
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
        let g = CsrGraph::from_snapshot(&snapshot(
            &[1, 2, 3],
            &[(1, 2), (2, 1), (2, 2), (2, 3), (1, 99)],
        ));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2, "duplicates and self-loops are dropped");
        let rank_of = |raw: u64| g.rank_of(NodeId::new(raw)).unwrap();
        assert_eq!(g.row(rank_of(2)), &[rank_of(1), rank_of(3)]);
        assert_eq!(g.row(rank_of(1)), &[rank_of(2)]);
        assert!(g.rank_of(NodeId::new(99)).is_none());
    }

    #[test]
    fn ranks_follow_ascending_id_order() {
        let g = CsrGraph::from_snapshot(&snapshot(&[30, 10, 20], &[(10, 30)]));
        assert_eq!(g.id_of(0), NodeId::new(10));
        assert_eq!(g.id_of(1), NodeId::new(20));
        assert_eq!(g.id_of(2), NodeId::new(30));
        assert_eq!(g.row(0), &[2]);
        assert!(g.row(1).is_empty(), "isolated nodes keep an empty row");
    }

    #[test]
    fn rebuild_reuses_buffers_and_invalidates_old_ranks() {
        let mut g = CsrGraph::from_snapshot(&snapshot(&[1, 2, 3, 4], &[(1, 2), (3, 4)]));
        assert_eq!(g.node_count(), 4);
        g.rebuild(&snapshot(&[2, 3], &[(2, 3)]));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(
            g.rank_of(NodeId::new(1)).is_none(),
            "stamping must forget the previous sample's nodes"
        );
        assert_eq!(g.row(g.rank_of(NodeId::new(2)).unwrap()), &[1]);
    }

    #[test]
    fn sparse_ids_fall_back_to_binary_search() {
        // An id range vastly larger than the node count must not allocate an
        // id-range-sized table; the graph still answers every query correctly.
        let huge = u64::MAX - 1;
        let g = CsrGraph::from_snapshot(&snapshot(&[5, huge], &[(5, huge), (huge, 5)]));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(
            g.ranks.lookup_len(),
            0,
            "sparse build must not size the table"
        );
        assert_eq!(g.rank_of(NodeId::new(5)), Some(0));
        assert_eq!(g.rank_of(NodeId::new(huge)), Some(1));
        assert_eq!(g.rank_of(NodeId::new(6)), None);
        assert_eq!(g.row(0), &[1]);
    }

    #[test]
    fn empty_snapshot_gives_empty_graph() {
        let g = CsrGraph::from_snapshot(&OverlaySnapshot::default());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.nodes().next().is_none());
    }

    #[test]
    fn rows_are_sorted_and_deduped() {
        let g = CsrGraph::from_snapshot(&snapshot(
            &[0, 1, 2, 3],
            &[(0, 3), (0, 1), (3, 0), (0, 2), (1, 0), (2, 0)],
        ));
        assert_eq!(g.row(0), &[1, 2, 3]);
        assert_eq!(g.edge_count(), 3);
    }
}
