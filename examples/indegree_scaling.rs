//! In-degree family scaling demo: the full per-sample recount vs the incremental
//! delta-fed tracker on a synthetic steady-state snapshot, at any node count.
//!
//! ```text
//! cargo run --release --example indegree_scaling [nodes] [churn_permille]
//! ```
//!
//! Defaults to 1 000 000 nodes and 5 ‰ edge churn (the steady-state shape a gossip
//! overlay produces between consecutive samples). The program stages a tracker synced to
//! capture `k`, re-targets the given fraction of edges to form capture `k + 1`, then
//! times the O(E) full recount (histogram + stats + Gini) against the O(Δ) incremental
//! update of the same family — and asserts the two Gini coefficients are bit-identical,
//! which is the invariant `tests/property_tests.rs` pins at small scale. On a live run
//! the benchmark's traced `metrics_every_round` workload reports the same pair as
//! `metrics.gini_ms` against `metrics.incr_indegree_ms` (and how often the fast path
//! fired, `metrics.incr_indegree_fast_share`); this example exists so the 1M-node point
//! stays reproducible without a minutes-long benchmark workload.

use std::time::Instant;

use croupier_suite::metrics::{
    indegree_gini, indegree_histogram, indegree_stats, IncrementalIndegree, NodeObservation,
    OverlaySnapshot,
};
use croupier_suite::simulator::{NatClass, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Out-edges per node: roughly a Croupier node's two view capacities.
const OUT_DEGREE: u64 = 20;

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: u64 = args
        .next()
        .map(|a| a.parse().expect("nodes must be a number"))
        .unwrap_or(1_000_000);
    let churn_permille: u64 = args
        .next()
        .map(|a| a.parse().expect("churn_permille must be a number"))
        .unwrap_or(5);

    let mut rng = SmallRng::seed_from_u64(0x1DE6);
    let observations: Vec<NodeObservation> = (0..nodes)
        .map(|i| NodeObservation {
            id: NodeId::new(i),
            class: if i % 5 == 0 {
                NatClass::Public
            } else {
                NatClass::Private
            },
            ratio_estimate: Some(0.2),
            rounds_executed: 50,
        })
        .collect();
    let mut edges = Vec::with_capacity((nodes * OUT_DEGREE) as usize);
    for i in 0..nodes {
        for _ in 0..OUT_DEGREE {
            edges.push((NodeId::new(i), NodeId::new(rng.gen_range(0..nodes))));
        }
    }
    edges.sort_unstable();
    println!(
        "{} nodes, {} directed edges, {} permille churn per sample",
        nodes,
        edges.len(),
        churn_permille
    );

    // Capture k: sync the tracker (this first update is the one-off O(E) rebuild).
    let mut snapshot = OverlaySnapshot::default();
    snapshot.enable_delta_tracking();
    snapshot.replace_from_parts(observations.clone(), edges.clone());
    let mut tracker = IncrementalIndegree::new();
    tracker.update(&snapshot);

    // Capture k+1: the churned edge set with an exact delta against capture k.
    let churned = edges.len() as u64 * churn_permille / 1000;
    for _ in 0..churned {
        let i = rng.gen_range(0..edges.len());
        edges[i].1 = NodeId::new(rng.gen_range(0..nodes));
    }
    snapshot.replace_from_parts(observations, edges);

    let start = Instant::now();
    let full_histogram = indegree_histogram(&snapshot);
    let full_stats = indegree_stats(&snapshot);
    let full_gini = indegree_gini(&snapshot);
    let full_elapsed = start.elapsed();

    let start = Instant::now();
    tracker.update(&snapshot);
    let fast_histogram = tracker.histogram();
    let fast_stats = tracker.stats();
    let fast_gini = tracker.gini();
    let fast_elapsed = start.elapsed();

    assert_eq!(tracker.fast_update_count(), 1, "delta fast path must fire");
    assert_eq!(fast_histogram, full_histogram);
    assert_eq!(fast_stats, full_stats);
    assert_eq!(
        fast_gini.to_bits(),
        full_gini.to_bits(),
        "incremental Gini must be bit-identical to the recount"
    );

    println!(
        "full recount:  {:>10.3} ms  (gini {:.6}, mean in-degree {:.2})",
        full_elapsed.as_secs_f64() * 1e3,
        full_gini,
        full_stats.mean
    );
    println!(
        "incremental:   {:>10.3} ms  (bit-identical family)",
        fast_elapsed.as_secs_f64() * 1e3
    );
    println!(
        "speedup:       {:>10.1}x",
        full_elapsed.as_secs_f64() / fast_elapsed.as_secs_f64()
    );
}
