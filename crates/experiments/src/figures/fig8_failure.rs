//! Figure 7(b): connectivity after **catastrophic failure**.
//!
//! Paper setup: the overlay is brought to steady state (1000 nodes, 80 % private), then a
//! large fraction of the nodes (40 % to 90 %) crashes at a single instant; the metric is the
//! fraction of surviving nodes contained in the biggest connected cluster. Expected shape:
//! Croupier remains the most connected (≥ ~85 % at 90 % failures), clearly above Gozar and
//! Nylon, whose relay/rendezvous infrastructure dies with the failed nodes.

use crate::output::{FigureData, Scale, Series};
use crate::pool::run_all;
use crate::protocols::{run_failure_kind, ProtocolConfigs, ProtocolKind};
use crate::runner::ExperimentParams;

/// Failure fractions evaluated by the paper (40 % … 90 %).
pub(crate) const PAPER_FAILURE_FRACTIONS: [f64; 6] = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
const PAPER_NODES: usize = 1_000;
const PAPER_WARMUP_ROUNDS: u64 = 100;

/// Failure fractions evaluated at a given scale.
pub(crate) fn failure_fractions(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Tiny => vec![0.5, 0.9],
        Scale::Quick | Scale::Paper | Scale::Large | Scale::Huge => {
            PAPER_FAILURE_FRACTIONS.to_vec()
        }
    }
}

/// Builds the warm-up parameters for one protocol.
pub fn params(scale: Scale, kind: ProtocolKind, seed: u64) -> ExperimentParams {
    let (n_public, n_private) = kind.population(scale.nodes(PAPER_NODES));
    ExperimentParams::default()
        .with_seed(seed)
        .with_population(n_public, n_private)
        .with_rounds(scale.rounds(PAPER_WARMUP_ROUNDS))
        .with_sample_every(scale.rounds(PAPER_WARMUP_ROUNDS))
}

/// Runs the experiment and returns Fig. 7(b): biggest-cluster size (% of survivors) as a
/// function of the failure percentage, one series per protocol.
pub fn run(scale: Scale) -> Vec<FigureData> {
    let fractions = failure_fractions(scale);
    let mut figure = FigureData::new(
        "fig7b",
        "Connectivity after catastrophic failure (80% private nodes)",
        "percentage of failed nodes (%)",
        "biggest cluster size (% of survivors)",
    );

    // One flat (protocol, fraction) list: a slow protocol's fractions spread over the
    // pool instead of queueing behind each other.
    let runs = ProtocolKind::ALL
        .into_iter()
        .flat_map(|kind| fractions.iter().map(move |&fraction| (kind, fraction)))
        .collect();
    let threads = params(scale, ProtocolKind::ALL[0], 0xF168).engine_threads;
    let connected = run_all(runs, threads, |(kind, fraction)| {
        let params = params(scale, kind, 0xF168);
        run_failure_kind(kind, &params, &ProtocolConfigs::default(), fraction)
    });

    for (kind, connected) in ProtocolKind::ALL
        .iter()
        .zip(connected.chunks(fractions.len()))
    {
        let mut series = Series::new(kind.name());
        for (fraction, connected) in fractions.iter().zip(connected) {
            series.push(fraction * 100.0, connected * 100.0);
        }
        figure.series.push(series);
    }
    vec![figure]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_series_per_protocol() {
        let figures = run(Scale::Tiny);
        assert_eq!(figures.len(), 1);
        assert_eq!(figures[0].series.len(), ProtocolKind::ALL.len());
        for series in &figures[0].series {
            assert_eq!(series.points.len(), failure_fractions(Scale::Tiny).len());
            for (_, y) in &series.points {
                assert!((0.0..=100.0).contains(y));
            }
        }
    }

    #[test]
    fn croupier_stays_connected_after_moderate_failures() {
        let figures = run(Scale::Tiny);
        let croupier = figures[0].series("croupier").unwrap();
        let at_50 = croupier
            .points
            .iter()
            .find(|(x, _)| (*x - 50.0).abs() < 1e-9)
            .unwrap()
            .1;
        assert!(
            at_50 > 70.0,
            "croupier should keep most survivors connected at 50% failures, got {at_50}%"
        );
    }

    #[test]
    fn croupier_is_at_least_as_robust_as_nylon_at_massive_failures() {
        let figures = run(Scale::Tiny);
        let value_at = |name: &str, x: f64| {
            figures[0]
                .series(name)
                .unwrap()
                .points
                .iter()
                .find(|(px, _)| (*px - x).abs() < 1e-9)
                .unwrap()
                .1
        };
        let croupier = value_at("croupier", 90.0);
        let nylon = value_at("nylon", 90.0);
        assert!(
            croupier + 10.0 >= nylon,
            "croupier ({croupier}%) should not be clearly less robust than nylon ({nylon}%)"
        );
    }
}
