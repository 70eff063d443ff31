//! Integration tests asserting the paper's qualitative claims at a reduced scale — the
//! quantitative tables are regenerated by the `figures` binary and recorded in
//! `EXPERIMENTS.md`.

use croupier_suite::experiments::figures::{fig6_randomness, fig7_overhead};
use croupier_suite::experiments::protocols::{
    run_failure_kind, run_kind, ProtocolConfigs, ProtocolKind,
};
use croupier_suite::experiments::runner::ExperimentParams;
use croupier_suite::experiments::Scale;
use croupier_suite::metrics::indegree_stats;

fn nat_params(seed: u64) -> ExperimentParams {
    ExperimentParams::default()
        .with_seed(seed)
        .with_population(30, 120)
        .with_rounds(80)
        .with_sample_every(10)
        .with_graph_metrics(20)
}

/// §VII-B / Figures 1–4: the estimator converges to the true ratio, for every node.
#[test]
fn estimation_converges_for_all_nodes() {
    let out = run_kind(
        ProtocolKind::Croupier,
        &nat_params(1),
        &ProtocolConfigs::default(),
    );
    let last = out.last_sample().unwrap();
    assert_eq!(last.estimation.nodes_without_estimate, 0);
    assert!(
        last.estimation.average < 0.05,
        "average estimation error should be a few percent, got {}",
        last.estimation.average
    );
    assert!(
        last.estimation.maximum < 0.15,
        "maximum estimation error should be bounded, got {}",
        last.estimation.maximum
    );
}

/// Figure 6(a): Croupier's in-degree distribution stays balanced — no node is wildly
/// over-represented even though only 20 % of the nodes handle every shuffle request.
#[test]
fn croupier_indegree_distribution_is_balanced() {
    let out = run_kind(
        ProtocolKind::Croupier,
        &nat_params(2),
        &ProtocolConfigs::default(),
    );
    let stats = indegree_stats(&out.final_snapshot);
    assert!(
        stats.min >= 1,
        "every node should be known by someone, min={}",
        stats.min
    );
    assert!(
        (stats.max as f64) < stats.mean * 4.0,
        "no node should be disproportionately popular: max={} mean={:.1}",
        stats.max,
        stats.mean
    );
}

/// Figure 6(b): the overlay stays a connected small world: short paths, full connectivity.
#[test]
fn croupier_overlay_is_connected_with_short_paths() {
    let out = run_kind(
        ProtocolKind::Croupier,
        &nat_params(3),
        &ProtocolConfigs::default(),
    );
    let last = out.last_sample().unwrap();
    assert!(
        (last.largest_component.unwrap() - 1.0).abs() < 1e-9,
        "overlay must be connected"
    );
    let path = last.avg_path_length.unwrap();
    assert!(
        path < 3.0,
        "average path length should be small-world short, got {path}"
    );
}

/// Figure 7(a): private nodes pay less for Croupier than for the relaying/hole-punching
/// baselines, and public croupiers are loaded but not pathologically so.
#[test]
fn croupier_private_overhead_is_the_lowest() {
    let reports = fig7_overhead::measure(Scale::Tiny);
    let load = |kind: ProtocolKind| {
        reports
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, r)| r.private.avg_load_bytes_per_sec)
            .unwrap()
    };
    let croupier = load(ProtocolKind::Croupier);
    let gozar = load(ProtocolKind::Gozar);
    let nylon = load(ProtocolKind::Nylon);
    assert!(
        croupier < gozar,
        "croupier ({croupier:.0} B/s) should undercut gozar ({gozar:.0} B/s)"
    );
    assert!(
        croupier < nylon,
        "croupier ({croupier:.0} B/s) should undercut nylon ({nylon:.0} B/s)"
    );
}

/// Figure 7(b): after a massive simultaneous failure, Croupier keeps more of the surviving
/// overlay connected than Gozar and Nylon (whose traversal infrastructure died with the
/// failed nodes).
#[test]
fn croupier_survives_catastrophic_failure_better_than_the_baselines() {
    let configs = ProtocolConfigs::default();
    // With 90% failures only ~15 nodes survive, so a single run is noisy; average a few
    // seeds, like the paper averages several Kompics runs per point.
    let mean_over_seeds = |kind: ProtocolKind| {
        let seeds = [4u64, 5, 6];
        let total: f64 = seeds
            .iter()
            .map(|&seed| {
                let params = ExperimentParams::default()
                    .with_seed(seed)
                    .with_population(30, 120)
                    .with_rounds(60)
                    .with_sample_every(60);
                run_failure_kind(kind, &params, &configs, 0.9)
            })
            .sum();
        total / seeds.len() as f64
    };
    let croupier = mean_over_seeds(ProtocolKind::Croupier);
    let gozar = mean_over_seeds(ProtocolKind::Gozar);
    let nylon = mean_over_seeds(ProtocolKind::Nylon);
    assert!(
        croupier >= gozar - 0.05,
        "croupier ({croupier:.2}) should be at least as connected as gozar ({gozar:.2})"
    );
    assert!(
        croupier > nylon,
        "croupier ({croupier:.2}) should beat nylon ({nylon:.2}) after 90% failures"
    );
    assert!(
        croupier > 0.8,
        "croupier should keep most survivors connected after 90% failures, got {croupier:.2}"
    );
}

/// Figure 6: all four systems produce overlays whose path length is close to Cyclon's
/// random baseline.
#[test]
fn all_protocols_produce_random_like_overlays() {
    let outputs = fig6_randomness::run_protocols(Scale::Tiny);
    let path = |kind: ProtocolKind| {
        outputs
            .iter()
            .find(|(k, _)| *k == kind)
            .and_then(|(_, out)| out.samples.last().and_then(|s| s.avg_path_length))
            .expect("path length measured")
    };
    let cyclon = path(ProtocolKind::Cyclon);
    for kind in ProtocolKind::NAT_AWARE {
        let value = path(kind);
        assert!(
            (value - cyclon).abs() < 1.0,
            "{kind} path length {value:.2} should track cyclon's {cyclon:.2}"
        );
    }
}
