//! Large-scale smoke tests: 100k-node and million-node Croupier deployments on the
//! sharded engine.
//!
//! These are the CI `scale-smoke` and `huge-smoke` jobs' workloads (`cargo test
//! --release --test scale_smoke -- --ignored <name>`); they are `#[ignore]`d by default
//! so plain `cargo test` stays fast for local iteration.

use croupier::{CroupierConfig, CroupierNode};
use croupier_suite::experiments::figures::fig3_system_size;
use croupier_suite::experiments::runner::{run_pss, RunOutput};
use croupier_suite::experiments::Scale;

/// Peak resident set size of this process in MB (`VmHWM`), or `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Writes the per-sample metrics timing, the process's peak RSS (on Linux) and the
/// overlap summary (when metrics workers ran) as a JSON artifact the CI `scale-smoke` and
/// `huge-smoke` jobs upload; integration tests in the root package run with the workspace
/// root as cwd, so the relative path lands in `target/`.
fn write_metrics_timing_artifact(out: &RunOutput, name: &str) {
    let dir = std::path::Path::new("target/metrics-timing");
    std::fs::create_dir_all(dir).expect("create target/metrics-timing");
    let mut json = String::from("{\n  \"samples\": [\n");
    for (i, t) in out.metrics_timing.iter().enumerate() {
        let comma = if i + 1 < out.metrics_timing.len() {
            ","
        } else {
            ""
        };
        json.push_str(&format!(
            "    {{\"round\": {}, \"capture_ns\": {}, \"analysis_ns\": {}, \
             \"offloaded\": {}}}{comma}\n",
            t.round, t.capture_ns, t.analysis_ns, t.offloaded
        ));
    }
    json.push_str("  ]");
    if let Some(mb) = peak_rss_mb() {
        json.push_str(&format!(",\n  \"peak_rss_mb\": {mb:.1}"));
    }
    if let Some(overlap) = &out.metrics_overlap {
        json.push_str(&format!(
            ",\n  \"overlap\": {{\"workers\": {}, \"offloaded_samples\": {}, \
             \"analysis_ns\": {}, \"blocked_ns\": {}, \"overlap_ratio\": {:.4}}}",
            overlap.workers,
            overlap.offloaded_samples,
            overlap.analysis_ns,
            overlap.blocked_ns,
            overlap.overlap_ratio
        ));
    }
    json.push_str("\n}\n");
    std::fs::write(dir.join(name), json).expect("write metrics-timing artifact");
}

/// 100k nodes, 20 % public, four worker threads, a handful of rounds: enough to exercise
/// joins, striped shard assignment, cross-shard mailbox merges and metric sampling at the
/// `Scale::Large` system size on every PR.
///
/// The parameters come from `fig3_system_size::params(Scale::Large, ..)` — the same
/// configuration `figures --scale large` runs — with only the duration shortened, so the
/// smoke keeps guarding whatever the Large tier actually does.
#[test]
#[ignore = "100k-node run; executed by the CI scale-smoke job"]
fn croupier_100k_nodes_on_the_sharded_engine() {
    let params = fig3_system_size::params(Scale::Large, 100_000, 0x10_0000)
        .with_rounds(12)
        .with_sample_every(4);
    assert_eq!(params.engine_threads, 4, "Large runs on the sharded engine");
    let out = run_pss(&params, |id, class| {
        CroupierNode::new(id, class, CroupierConfig::default())
    });
    write_metrics_timing_artifact(&out, "scale_smoke_metrics_timing.json");
    let last = out.last_sample().expect("samples were taken");
    assert_eq!(last.node_count, 100_000, "every node joined and survived");
    assert!(
        (out.final_true_ratio - 0.2).abs() < 1e-9,
        "ratio intact: {}",
        out.final_true_ratio
    );
    assert!(
        last.estimation.average < 0.5,
        "estimates must be sane after a few rounds, got {}",
        last.estimation.average
    );
    assert!(
        out.traffic.total_messages_sent() > 100_000,
        "the overlay must actually gossip at scale"
    );
    assert!(
        out.final_snapshot.node_count() > 90_000,
        "most nodes have executed enough rounds to be observed: {}",
        out.final_snapshot.node_count()
    );
}

/// The million-node tier: 1M nodes, 20 % public, eight worker threads and union-find
/// connectivity sampling. Beyond what the 100k smoke covers, this exercises the packed
/// descriptor/estimate layouts and the u32 NAT mapping tables at a population where the
/// unpacked layouts would not fit in CI memory, and asserts that every sample's largest
/// component came from the union-find tracker without the CSR pipeline, that the
/// in-degree family rode its O(delta) fast path, and that the driver analysed every
/// sample in place, without metrics workers.
#[test]
#[ignore = "million-node run; executed by the CI huge-smoke job"]
fn croupier_one_million_nodes_on_the_sharded_engine() {
    let params = fig3_system_size::params(Scale::Huge, 1_000_000, 0x100_0000)
        .with_rounds(8)
        .with_sample_every(2);
    assert_eq!(
        params.engine_threads, 8,
        "Huge runs on eight sharded workers"
    );
    assert!(params.incremental_components);
    assert!(params.incremental_indegree);
    assert_eq!(params.metrics_workers, 0, "Huge analyses samples in place");
    let out = run_pss(&params, |id, class| {
        CroupierNode::new(id, class, CroupierConfig::default())
    });
    write_metrics_timing_artifact(&out, "huge_smoke_metrics_timing.json");
    let last = out.last_sample().expect("samples were taken");
    assert_eq!(last.node_count, 1_000_000, "every node joined and survived");
    assert!(
        (out.final_true_ratio - 0.2).abs() < 1e-9,
        "ratio intact: {}",
        out.final_true_ratio
    );
    assert!(
        params.graph_metric_sources.is_none()
            && out.samples.iter().all(|s| s.largest_component.is_some()),
        "the union-find tracker populates the component metric without the CSR pipeline"
    );
    let (rebuilds, sublinear) = out
        .incremental_component_updates
        .expect("incremental diagnostics are reported");
    assert_eq!(
        rebuilds + sublinear,
        out.samples.len() as u64,
        "every sample updates the tracker exactly once"
    );
    assert!(
        out.traffic.total_messages_sent() > 1_000_000,
        "the overlay must actually gossip at scale"
    );
    assert!(
        last.indegree_gini.is_some(),
        "the incremental tracker populates the Gini metric per sample"
    );
    let (in_rebuilds, in_fast) = out
        .incremental_indegree_updates
        .expect("incremental in-degree diagnostics are reported");
    assert!(
        in_fast >= 1,
        "once membership settles, in-degree must ride the O(delta) fast path \
         ({in_rebuilds} rebuilds vs {in_fast} fast updates)"
    );
    assert!(
        out.metrics_overlap.is_none(),
        "no metrics worker ran, so there is no overlap to report"
    );
    assert_eq!(
        out.metrics_timing.len(),
        out.samples.len(),
        "one timing per sample"
    );
    assert!(
        out.metrics_timing.iter().all(|t| !t.offloaded),
        "every sample's analysis ran in place on the driver thread"
    );
    let (capture_ns, analysis_ns) = out
        .metrics_timing
        .iter()
        .fold((0, 0), |(c, a), t| (c + t.capture_ns, a + t.analysis_ns));
    println!(
        "metrics: {} samples analysed in place, capture {:.1} ms, analysis {:.1} ms",
        out.metrics_timing.len(),
        capture_ns as f64 / 1e6,
        analysis_ns as f64 / 1e6
    );
}
