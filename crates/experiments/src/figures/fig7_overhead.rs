//! Figure 7(a): protocol overhead per connectivity class, relative to Cyclon.
//!
//! Paper setup: 1000 nodes, ratio 0.2, α = 25, γ = 100, at most 10 piggy-backed estimates
//! per message; the average per-node load (bytes per second) is measured at steady state
//! for public and private nodes separately, and reported relative to Cyclon's plain gossip
//! load. Expected shape: Croupier < Gozar < Nylon for private nodes (roughly 1 : 2 : 4) and
//! Croupier lowest for public nodes as well.

use croupier::CroupierConfig;
use croupier_metrics::OverheadReport;

use crate::output::{FigureData, Scale, Series};
use crate::pool::run_all;
use crate::protocols::{run_kind, ProtocolConfigs, ProtocolKind};
use crate::runner::ExperimentParams;

const PAPER_NODES: usize = 1_000;
const PAPER_ROUNDS: u64 = 150;

/// X coordinate used for the public-node bar.
pub(crate) const PUBLIC_X: f64 = 0.0;
/// X coordinate used for the private-node bar.
pub(crate) const PRIVATE_X: f64 = 1.0;

/// Builds the experiment parameters for one protocol.
pub fn params(scale: Scale, kind: ProtocolKind, seed: u64) -> ExperimentParams {
    let (n_public, n_private) = kind.population(scale.nodes(PAPER_NODES));
    let rounds = scale.rounds(PAPER_ROUNDS);
    let window_start = rounds / 2;
    ExperimentParams::default()
        .with_seed(seed)
        .with_population(n_public, n_private)
        .with_rounds(rounds)
        .with_sample_every(rounds) // only the final sample matters here
        .with_overhead_window(window_start, rounds)
}

/// The Croupier configuration used by the overhead experiment (the paper uses γ = 100
/// here).
pub(crate) fn croupier_config() -> CroupierConfig {
    CroupierConfig::default().with_neighbour_history(100)
}

/// Measures the per-class overhead of every protocol.
pub fn measure(scale: Scale) -> Vec<(ProtocolKind, OverheadReport)> {
    let runs = ProtocolKind::ALL.map(|kind| (kind, params(scale, kind, 0xF167)));
    let threads = runs[0].1.engine_threads;
    run_all(runs.into(), threads, |(kind, params)| {
        let configs = ProtocolConfigs {
            croupier: croupier_config(),
            ..ProtocolConfigs::default()
        };
        let output = run_kind(kind, &params, &configs);
        (kind, output.overhead.expect("overhead window configured"))
    })
}

/// Runs the experiment and returns two figures: the per-class load of every protocol
/// (the comparison of the paper's Fig. 7(a)), and the extra load relative to the Cyclon
/// baseline.
pub fn run(scale: Scale) -> Vec<FigureData> {
    let reports = measure(scale);
    let cyclon = reports
        .iter()
        .find(|(kind, _)| *kind == ProtocolKind::Cyclon)
        .map(|(_, report)| *report)
        .unwrap_or_default();

    let mut absolute = FigureData::new(
        "fig7a",
        "Average load per node",
        "class (0=public, 1=private)",
        "avg load per node (B/s)",
    );
    let mut relative = FigureData::new(
        "fig7a-relative-cyclon",
        "Average load per node relative to Cyclon",
        "class (0=public, 1=private)",
        "avg extra load per node (B/s)",
    );

    for (kind, report) in &reports {
        if *kind == ProtocolKind::Cyclon {
            let mut series = Series::new(kind.name());
            series.push(PUBLIC_X, report.public.avg_load_bytes_per_sec);
            series.push(PRIVATE_X, report.private.avg_load_bytes_per_sec);
            absolute.series.push(series);
            continue;
        }
        let mut abs_series = Series::new(kind.name());
        abs_series.push(PUBLIC_X, report.public.avg_load_bytes_per_sec);
        abs_series.push(PRIVATE_X, report.private.avg_load_bytes_per_sec);
        absolute.series.push(abs_series);

        // Cyclon's experiment is all-public, so its public-node load is the baseline gossip
        // cost for both classes.
        let baseline = OverheadReport {
            public: cyclon.public,
            private: cyclon.public,
        };
        let rel = report.relative_to(&baseline);
        let mut rel_series = Series::new(kind.name());
        rel_series.push(PUBLIC_X, rel.public.avg_load_bytes_per_sec);
        rel_series.push(PRIVATE_X, rel.private.avg_load_bytes_per_sec);
        relative.series.push(rel_series);
    }

    vec![absolute, relative]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn croupier_private_nodes_pay_the_least_overhead() {
        let figures = run(Scale::Tiny);
        let absolute = &figures[0];
        let private_load = |name: &str| {
            absolute
                .series(name)
                .unwrap()
                .points
                .iter()
                .find(|(x, _)| (*x - PRIVATE_X).abs() < 1e-9)
                .unwrap()
                .1
        };
        let croupier = private_load("croupier");
        let gozar = private_load("gozar");
        let nylon = private_load("nylon");
        assert!(
            croupier < gozar,
            "croupier private overhead ({croupier}) should be below gozar ({gozar})"
        );
        assert!(
            croupier < nylon,
            "croupier private overhead ({croupier}) should be below nylon ({nylon})"
        );
    }

    #[test]
    fn absolute_figure_includes_all_protocols() {
        let figures = run(Scale::Tiny);
        assert_eq!(figures.len(), 2);
        assert_eq!(figures[0].series.len(), ProtocolKind::ALL.len());
        assert_eq!(figures[1].series.len(), ProtocolKind::NAT_AWARE.len());
    }

    #[test]
    fn params_configure_the_overhead_window() {
        let p = params(Scale::Paper, ProtocolKind::Croupier, 1);
        let (start, end) = p.overhead_window.unwrap();
        assert!(end > start);
        assert_eq!(croupier_config().neighbour_history, 100);
    }
}
