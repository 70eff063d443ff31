//! Side-by-side comparison of the four peer-sampling services on the same workload:
//! randomness of the resulting overlay (in-degree statistics, path length, clustering) and
//! per-class protocol overhead — a condensed, text-only version of the paper's Figures 6
//! and 7(a).
//!
//! ```text
//! cargo run --release --example protocol_comparison
//! ```

use croupier_experiments::figures::{fig6_randomness, fig7_overhead};
use croupier_experiments::Scale;
use croupier_metrics::indegree_histogram;

fn main() {
    let scale = Scale::Tiny;
    println!("running the four protocols at the reduced '{scale:?}' scale ...\n");

    // Randomness properties (Fig. 6).
    let outputs = fig6_randomness::run_protocols(scale);
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>14} {:>12}",
        "protocol", "nodes", "indeg. min", "indeg. max", "avg path len", "clustering"
    );
    for (kind, output) in &outputs {
        let histogram = indegree_histogram(&output.final_snapshot);
        let min = histogram.first().map(|(d, _)| *d).unwrap_or(0);
        let max = histogram.last().map(|(d, _)| *d).unwrap_or(0);
        let last = output.samples.last().expect("samples exist");
        println!(
            "{:<10} {:>8} {:>12} {:>12} {:>14.2} {:>12.3}",
            kind.name(),
            output.final_snapshot.node_count(),
            min,
            max,
            last.avg_path_length.unwrap_or(f64::NAN),
            last.clustering.unwrap_or(f64::NAN),
        );
    }

    // Protocol overhead (Fig. 7a).
    println!("\nper-node load at steady state (bytes per second):\n");
    println!(
        "{:<10} {:>16} {:>16}",
        "protocol", "public nodes", "private nodes"
    );
    for (kind, report) in fig7_overhead::measure(scale) {
        println!(
            "{:<10} {:>16.1} {:>16.1}",
            kind.name(),
            report.public.avg_load_bytes_per_sec,
            report.private.avg_load_bytes_per_sec,
        );
    }
    println!("\n(run the `figures` binary with --scale paper for the full-scale series)");
}
