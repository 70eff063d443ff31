//! Protocol-agnostic snapshots of the overlay graph.

use croupier_simulator::{NatClass, NodeId, Protocol, PssNode, SimulationEngine};

/// What the evaluation observes about one node at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeObservation {
    /// The node's identity.
    pub id: NodeId,
    /// The node's connectivity class.
    pub class: NatClass,
    /// The node's estimate of the public/private ratio, if the protocol computes one.
    pub ratio_estimate: Option<f64>,
    /// Rounds the node has executed since joining.
    pub rounds_executed: u64,
}

/// A snapshot of the overlay: every live node plus the directed edges induced by the
/// partial views (an edge `a → b` means `b` appears in `a`'s view).
///
/// Snapshots are designed to be **reused across samples**:
/// [`capture_into`](OverlaySnapshot::capture_into) refills the node, edge and cached
/// live-id buffers in place, so a sampling loop that keeps one snapshot alive performs no
/// steady-state allocation. Equality compares the observable state (`nodes` and `edges`)
/// only.
#[derive(Clone, Debug, Default)]
pub struct OverlaySnapshot {
    /// Observations of every live node.
    pub nodes: Vec<NodeObservation>,
    /// Directed "knows-about" edges.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Sorted live node ids, maintained as a reusable buffer for edge filtering.
    live_ids: Vec<NodeId>,
    /// Exclusive upper bound on live node ids, as reported by the engine's dense-index
    /// capture path (0 for hand-built snapshots; consumers fall back to the largest
    /// observed id).
    id_bound: u64,
    /// Whether [`capture_into`](OverlaySnapshot::capture_into) diffs consecutive
    /// captures (see [`enable_delta_tracking`](OverlaySnapshot::enable_delta_tracking)).
    track_deltas: bool,
    /// `true` once at least one tracked capture has run (the next one has a predecessor
    /// to diff against).
    delta_primed: bool,
    /// `true` when the current capture carries a valid diff against its predecessor.
    delta_valid: bool,
    /// Whether the observed node set changed between the last two tracked captures.
    membership_changed: bool,
    /// The previous capture's sorted edge list (double buffer for the diff).
    prev_edges: Vec<(NodeId, NodeId)>,
    /// The previous capture's sorted live-id list (double buffer for the diff).
    prev_live_ids: Vec<NodeId>,
    /// Directed edges present now but not in the previous capture (multiset diff).
    added_edges: Vec<(NodeId, NodeId)>,
    /// Directed edges present in the previous capture but not now (multiset diff).
    removed_edges: Vec<(NodeId, NodeId)>,
}

/// The difference between a snapshot's two most recent tracked captures, borrowed from
/// [`OverlaySnapshot::edge_delta`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct EdgeDelta<'a> {
    /// Directed edges that appeared since the previous capture (multiset semantics: a
    /// duplicate directed edge gained counts once per extra occurrence).
    pub added: &'a [(NodeId, NodeId)],
    /// Directed edges that disappeared since the previous capture.
    pub removed: &'a [(NodeId, NodeId)],
    /// Whether the observed node set itself changed. When it did, consumers relying on
    /// stable node ranks must fall back to a full rebuild.
    pub membership_changed: bool,
}

impl PartialEq for OverlaySnapshot {
    fn eq(&self, other: &Self) -> bool {
        // `live_ids` is a derived cache and `id_bound` a capacity hint; neither carries
        // observable information, so engine-to-engine snapshot comparisons ignore them.
        self.nodes == other.nodes && self.edges == other.edges
    }
}

impl OverlaySnapshot {
    /// Captures a snapshot from a running simulation (either execution engine).
    ///
    /// Only nodes that have executed at least `min_rounds` gossip rounds are included —
    /// the paper excludes nodes younger than two rounds from its metrics so freshly joined
    /// nodes do not skew estimation errors.
    pub fn capture<P, E>(sim: &E, min_rounds: u64) -> Self
    where
        P: Protocol + PssNode,
        E: SimulationEngine<P>,
    {
        let mut snapshot = OverlaySnapshot::default();
        snapshot.capture_into(sim, min_rounds);
        snapshot
    }

    /// Re-captures this snapshot from a running simulation, reusing the node, edge and
    /// live-id buffers — the allocation-free path for per-sample loops.
    pub fn capture_into<P, E>(&mut self, sim: &E, min_rounds: u64)
    where
        P: Protocol + PssNode,
        E: SimulationEngine<P>,
    {
        let had_previous_capture = self.begin_tracked_capture();
        self.nodes.clear();
        self.edges.clear();
        let (nodes, edges) = (&mut self.nodes, &mut self.edges);
        sim.for_each_node(&mut |id, proto| {
            if proto.rounds_executed() < min_rounds {
                return;
            }
            nodes.push(NodeObservation {
                id,
                class: proto.nat_class(),
                ratio_estimate: proto.ratio_estimate(),
                rounds_executed: proto.rounds_executed(),
            });
            // Each row shares its source id, so sorting its 10-20 entries as they land
            // keeps the whole list sorted while the nodes arrive in ascending id order.
            let row = edges.len();
            proto.for_each_known_peer(&mut |peer| edges.push((id, peer)));
            edges[row..].sort_unstable();
        });
        self.sort_unless_sorted();
        self.id_bound = sim.node_id_upper_bound();
        self.finish_tracked_capture(had_previous_capture);
    }

    /// Re-captures this snapshot from explicit parts, running the exact bookkeeping of
    /// [`capture_into`](OverlaySnapshot::capture_into) — node/edge sorting, live-id
    /// refresh and (when enabled) delta diffing — without an engine. This is how tests
    /// and benchmarks stage a snapshot that carries a valid
    /// `edge_delta` for the incremental metrics.
    pub fn replace_from_parts(
        &mut self,
        nodes: Vec<NodeObservation>,
        edges: Vec<(NodeId, NodeId)>,
    ) {
        let had_previous_capture = self.begin_tracked_capture();
        self.nodes = nodes;
        self.edges = edges;
        self.sort_unless_sorted();
        self.id_bound = 0;
        self.finish_tracked_capture(had_previous_capture);
    }

    /// Puts `nodes` and `edges` in ascending order, so snapshots (and every metric derived
    /// from them) are deterministic for a fixed seed and engine-agnostic. An engine
    /// capture arrives sorted (engines visit nodes in ascending id order), so the sorts
    /// only run for parts handed in unsorted. Ids are unique, so the unstable sorts are
    /// deterministic and allocation-free.
    fn sort_unless_sorted(&mut self) {
        if !self.nodes.is_sorted_by_key(|n| n.id) {
            self.nodes.sort_unstable_by_key(|n| n.id);
        }
        if !self.edges.is_sorted() {
            self.edges.sort_unstable();
        }
    }

    /// Copies the observable state (nodes, edges) and capture caches (live ids, id
    /// bound) of `other` into `self`, reusing `self`'s buffers — the transfer path the
    /// overlapped experiment driver uses to hand a stable copy of its delta-tracked
    /// snapshot to a metrics worker. Delta-tracking state is deliberately not copied:
    /// the copy answers read-only full-graph queries, it does not feed incremental
    /// consumers.
    pub fn copy_observations_from(&mut self, other: &OverlaySnapshot) {
        self.nodes.clone_from(&other.nodes);
        self.edges.clone_from(&other.edges);
        self.live_ids.clone_from(&other.live_ids);
        self.id_bound = other.id_bound;
    }

    /// Starts one tracked capture: double-buffers the previous capture's edges and live
    /// ids (so the new capture can be diffed without cloning either list) and reports
    /// whether a predecessor exists to diff against.
    fn begin_tracked_capture(&mut self) -> bool {
        let had_previous_capture = self.delta_primed;
        if self.track_deltas {
            std::mem::swap(&mut self.prev_edges, &mut self.edges);
            std::mem::swap(&mut self.prev_live_ids, &mut self.live_ids);
        }
        had_previous_capture
    }

    /// Finishes one capture over the freshly sorted `nodes`/`edges`: refreshes the
    /// live-id cache and, when tracking, records the membership/edge diff.
    fn finish_tracked_capture(&mut self, had_previous_capture: bool) {
        self.refresh_live_ids();
        if self.track_deltas {
            self.membership_changed = self.prev_live_ids != self.live_ids;
            self.diff_edges();
            self.delta_valid = had_previous_capture;
            self.delta_primed = true;
        }
    }

    /// Turns on capture-to-capture diffing: every subsequent
    /// [`capture_into`](OverlaySnapshot::capture_into) records which directed edges
    /// appeared and disappeared (and whether membership changed) relative to the capture
    /// before it, served by `edge_delta`. Costs three extra edge-list-sized buffers (the
    /// previous capture's edges and the added and removed edges), a previous live-id
    /// buffer and a two-pointer diff per capture; incremental metrics (see
    /// [`IncrementalComponents`](crate::incremental::IncrementalComponents)) are the
    /// consumer. On a shuffling overlay the diff rarely pays for itself, so the
    /// experiment driver leaves it off and the trackers take their one-pass paths.
    pub fn enable_delta_tracking(&mut self) {
        self.track_deltas = true;
    }

    /// The diff between the two most recent tracked captures, or `None` when delta
    /// tracking is off or fewer than two captures have run.
    pub(crate) fn edge_delta(&self) -> Option<EdgeDelta<'_>> {
        if self.delta_valid {
            Some(EdgeDelta {
                added: &self.added_edges,
                removed: &self.removed_edges,
                membership_changed: self.membership_changed,
            })
        } else {
            None
        }
    }

    /// Two-pointer multiset diff of the sorted `prev_edges`/`edges` lists into
    /// `added_edges`/`removed_edges`.
    fn diff_edges(&mut self) {
        self.added_edges.clear();
        self.removed_edges.clear();
        let (old, new) = (&self.prev_edges, &self.edges);
        let (mut i, mut j) = (0usize, 0usize);
        while i < old.len() && j < new.len() {
            match old[i].cmp(&new[j]) {
                std::cmp::Ordering::Less => {
                    self.removed_edges.push(old[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    self.added_edges.push(new[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        self.removed_edges.extend_from_slice(&old[i..]);
        self.added_edges.extend_from_slice(&new[j..]);
    }

    /// Builds a snapshot directly from parts; useful in tests and synthetic analyses.
    pub fn from_parts(nodes: Vec<NodeObservation>, edges: Vec<(NodeId, NodeId)>) -> Self {
        let mut snapshot = OverlaySnapshot {
            nodes,
            edges,
            ..OverlaySnapshot::default()
        };
        snapshot.refresh_live_ids();
        snapshot
    }

    /// Number of observed nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Identifiers of the observed nodes.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.id).collect()
    }

    /// Exclusive upper bound on observed node ids: the engine-reported dense-id bound
    /// when captured from a simulation, otherwise the largest observed id plus one.
    pub(crate) fn id_upper_bound(&self) -> u64 {
        self.id_bound
            .max(self.live_ids.last().map_or(0, |id| id.as_u64() + 1))
    }

    /// Refreshes the cached sorted live-id buffer from `nodes`. Called by the capture and
    /// construction paths; call it again after mutating `nodes` by hand.
    fn refresh_live_ids(&mut self) {
        self.live_ids.clear();
        self.live_ids.extend(self.nodes.iter().map(|n| n.id));
        if !self.live_ids.windows(2).all(|w| w[0] < w[1]) {
            self.live_ids.sort_unstable();
        }
    }

    /// Keeps only edges whose endpoints are both observed nodes (drops dangling references
    /// to departed nodes). Filtering binary-searches the cached sorted live-id buffer —
    /// no per-call `HashSet` — and refreshes that cache first so direct mutation of
    /// `nodes` is still honoured.
    pub fn retain_live_edges(&mut self) {
        self.refresh_live_ids();
        let live = &self.live_ids;
        self.edges
            .retain(|(a, b)| live.binary_search(a).is_ok() && live.binary_search(b).is_ok());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OverlaySnapshot {
        /// The true public/private ratio among the observed nodes.
        pub(crate) fn true_ratio(&self) -> f64 {
            if self.nodes.is_empty() {
                return 0.0;
            }
            let public = self.nodes.iter().filter(|n| n.class.is_public()).count();
            public as f64 / self.nodes.len() as f64
        }
    }

    fn obs(id: u64, class: NatClass) -> NodeObservation {
        NodeObservation {
            id: NodeId::new(id),
            class,
            ratio_estimate: None,
            rounds_executed: 10,
        }
    }

    #[test]
    fn true_ratio_counts_public_fraction() {
        let snapshot = OverlaySnapshot::from_parts(
            vec![
                obs(1, NatClass::Public),
                obs(2, NatClass::Private),
                obs(3, NatClass::Private),
                obs(4, NatClass::Private),
            ],
            vec![],
        );
        assert!((snapshot.true_ratio() - 0.25).abs() < 1e-9);
        assert_eq!(OverlaySnapshot::default().true_ratio(), 0.0);
    }

    #[test]
    fn retain_live_edges_drops_dangling_references() {
        let mut snapshot = OverlaySnapshot::from_parts(
            vec![obs(1, NatClass::Public), obs(2, NatClass::Private)],
            vec![
                (NodeId::new(1), NodeId::new(2)),
                (NodeId::new(1), NodeId::new(99)),
                (NodeId::new(50), NodeId::new(2)),
            ],
        );
        snapshot.retain_live_edges();
        assert_eq!(snapshot.edge_count(), 1);
        assert_eq!(snapshot.edges[0], (NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn retain_live_edges_tracks_direct_node_mutation() {
        let mut snapshot = OverlaySnapshot::from_parts(
            vec![obs(1, NatClass::Public), obs(2, NatClass::Private)],
            vec![(NodeId::new(1), NodeId::new(2))],
        );
        snapshot.nodes.retain(|n| n.id != NodeId::new(2));
        snapshot.retain_live_edges();
        assert_eq!(snapshot.edge_count(), 0, "cache must be refreshed");
    }

    #[test]
    fn accessors_report_counts() {
        let snapshot = OverlaySnapshot::from_parts(
            vec![obs(1, NatClass::Public)],
            vec![(NodeId::new(1), NodeId::new(1))],
        );
        assert_eq!(snapshot.node_count(), 1);
        assert_eq!(snapshot.edge_count(), 1);
        assert_eq!(snapshot.node_ids(), vec![NodeId::new(1)]);
        assert_eq!(snapshot.id_upper_bound(), 2);
        assert_eq!(OverlaySnapshot::default().id_upper_bound(), 0);
    }

    #[test]
    fn replace_from_parts_tracks_deltas_like_captures() {
        let edge = |a: u64, b: u64| (NodeId::new(a), NodeId::new(b));
        let nodes = vec![obs(2, NatClass::Public), obs(1, NatClass::Private)];
        let mut snapshot = OverlaySnapshot::default();
        snapshot.enable_delta_tracking();
        snapshot.replace_from_parts(nodes.clone(), vec![edge(2, 1)]);
        assert!(
            snapshot.edge_delta().is_none(),
            "the first capture has no predecessor to diff against"
        );
        assert_eq!(snapshot.nodes[0].id, NodeId::new(1), "nodes are sorted");
        snapshot.replace_from_parts(nodes, vec![edge(1, 2)]);
        let delta = snapshot.edge_delta().expect("second capture has a delta");
        assert!(!delta.membership_changed);
        assert_eq!(delta.added, &[edge(1, 2)]);
        assert_eq!(delta.removed, &[edge(2, 1)]);
    }

    #[test]
    fn copy_observations_reproduces_the_source_snapshot() {
        let mut source = OverlaySnapshot::default();
        source.replace_from_parts(
            vec![obs(1, NatClass::Public), obs(5, NatClass::Private)],
            vec![(NodeId::new(1), NodeId::new(5))],
        );
        let mut copy = OverlaySnapshot::default();
        copy.copy_observations_from(&source);
        assert_eq!(copy, source);
        assert_eq!(copy.id_upper_bound(), source.id_upper_bound());
    }

    #[test]
    fn equality_ignores_derived_caches() {
        let a = OverlaySnapshot::from_parts(vec![obs(1, NatClass::Public)], vec![]);
        let mut b = OverlaySnapshot::from_parts(vec![obs(1, NatClass::Public)], vec![]);
        b.id_bound = 99;
        assert_eq!(a, b);
    }
}
