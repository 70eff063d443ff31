//! # croupier-metrics
//!
//! Evaluation metrics for the Croupier reproduction, covering every quantity reported in
//! §VII of the paper:
//!
//! * **Estimation accuracy** ([`estimation_errors`]): average and maximum
//!   (Kolmogorov–Smirnov style) error between each node's public/private-ratio estimate
//!   and the true ratio (equations 10–13) — Figures 1–5.
//! * **Randomness of the overlay** ([`indegree_stats`], [`average_path_length`],
//!   [`average_clustering_coefficient`]): in-degree distribution, average shortest path
//!   length and average clustering coefficient of the overlay graph induced by the partial
//!   views — Figure 6.
//! * **Protocol overhead** ([`class_overhead`]): average bytes per second per node, split
//!   by connectivity class and optionally reported relative to a Cyclon baseline —
//!   Figure 7(a).
//! * **Resilience** ([`largest_component_fraction`]): size of the biggest connected
//!   cluster among surviving nodes after catastrophic failure — Figure 7(b).
//!
//! All graph metrics operate on an [`OverlaySnapshot`] extracted from a running simulation,
//! so they are protocol-agnostic: Croupier, Cyclon, Gozar and Nylon are measured with the
//! same code.
//!
//! ## The per-sample pipeline
//!
//! The graph metrics share one compressed-sparse-row overlay graph built once per sample
//! by a [`MetricsContext`], which also owns every traversal scratch
//! buffer (epoch-stamped BFS visited sets, frontiers, the source permutation) and can fan
//! multi-source BFS out over worker threads deterministically. Sampling loops keep one
//! context (and one reusable snapshot, see [`OverlaySnapshot::capture_into`]) alive, so
//! the steady-state measurement path performs **no allocation and no hashing**. The
//! original tree/hash-based implementations are kept as a test-only `reference` module:
//! the executable specification the crate's unit tests check the CSR pipeline and the
//! incremental in-degree tracker against, bit for bit.
//!
//! ## Incremental trackers
//!
//! The million-node tier cannot afford the CSR pipeline every sample. The in-degree
//! family ([`IncrementalIndegree`]) maintains its state from snapshot **edge deltas**
//! (enable with [`OverlaySnapshot::enable_delta_tracking`]) and falls back to a full
//! rebuild whenever membership changes or no valid delta is available. The
//! largest-component metric ([`IncrementalComponents`]) is a union-find that replays a
//! delta only when it removed nothing — a live shuffling overlay practically never
//! presents one — and otherwise runs one union pass over the edge list, with no sort,
//! scatter or traversal. Both are property-tested bit-identical to the full recount and
//! both count their full and delta-only updates (`rebuild_count`, and
//! `fast_update_count` / `sublinear_update_count`) so callers can see which path
//! ran. On a shuffling overlay the diff costs more than the updates it saves, so the
//! experiment driver leaves tracking off and both trackers run their one-pass paths.
//! A hand-built snapshot exercises the same code paths as an engine capture:
//!
//! ```
//! use croupier_metrics::{
//!     indegree_stats, IncrementalComponents, IncrementalIndegree, NodeObservation,
//!     OverlaySnapshot,
//! };
//! use croupier_simulator::{NatClass, NodeId};
//!
//! let observe = |i: u64| NodeObservation {
//!     id: NodeId::new(i),
//!     class: NatClass::Public,
//!     ratio_estimate: None,
//!     rounds_executed: 5,
//! };
//! // Three nodes; node 1 sits in two views (in-degree 2), the overlay is connected.
//! let snapshot = OverlaySnapshot::from_parts(
//!     (0..3).map(observe).collect(),
//!     vec![(NodeId::new(0), NodeId::new(1)), (NodeId::new(2), NodeId::new(1))],
//! );
//!
//! let mut indegree = IncrementalIndegree::new();
//! indegree.update(&snapshot);
//! assert_eq!(indegree.stats(), indegree_stats(&snapshot)); // ≡ the full recount
//! assert_eq!(indegree.stats().max, 2);
//!
//! let mut components = IncrementalComponents::new();
//! components.update(&snapshot);
//! assert_eq!(components.largest_component_fraction(), 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod clustering;
mod components;
mod context;
mod estimation;
mod graph;
mod incremental;
mod indegree;
mod overhead;
mod paths;
mod ranks;
mod snapshot;

pub use clustering::average_clustering_coefficient;
pub use components::largest_component_fraction;
pub use context::{draw_path_sources, MetricsContext};
pub use estimation::{estimation_errors, EstimationErrors};
pub use incremental::IncrementalComponents;
pub use indegree::{
    indegree_gini, indegree_histogram, indegree_stats, IncrementalIndegree, IndegreeStats,
};
pub use overhead::{class_overhead, ClassOverhead, OverheadReport};
pub use paths::average_path_length;
pub use snapshot::{NodeObservation, OverlaySnapshot};

#[cfg(test)]
mod reference;
