//! Figure 6: randomness properties of the overlay — in-degree distribution, average path
//! length and clustering coefficient — for Croupier, Gozar, Nylon and Cyclon.
//!
//! Paper setup: 1000 nodes (20 % public for the NAT-aware protocols; Cyclon runs on an
//! all-public population), view size 10, shuffle size 5, 250 rounds. Expected shape: all
//! four systems have nearly identical, narrow in-degree distributions and path lengths;
//! Croupier's clustering coefficient is slightly *below* Cyclon's because two private nodes
//! never exchange views directly.

use croupier_metrics::indegree_histogram;

use crate::output::{FigureData, Scale, Series};
use crate::pool::run_all;
use crate::protocols::{run_kind, ProtocolConfigs, ProtocolKind};
use crate::runner::{ExperimentParams, RunOutput};

const PAPER_NODES: usize = 1_000;
const PAPER_ROUNDS: u64 = 250;

/// Builds the experiment parameters for one protocol. Cyclon runs on an all-public
/// population, as in the paper.
pub fn params(scale: Scale, kind: ProtocolKind, seed: u64) -> ExperimentParams {
    let (n_public, n_private) = kind.population(scale.nodes(PAPER_NODES));
    ExperimentParams::default()
        .with_seed(seed)
        .with_population(n_public, n_private)
        .with_rounds(scale.rounds(PAPER_ROUNDS))
        .with_sample_every(scale.sample_every())
        .with_graph_metrics(32)
}

/// Runs all four protocols (side by side, as far as the host's cores allow) and returns
/// their outputs keyed by protocol.
pub fn run_protocols(scale: Scale) -> Vec<(ProtocolKind, RunOutput)> {
    let runs = ProtocolKind::ALL.map(|kind| (kind, params(scale, kind, 0xF166)));
    let threads = runs[0].1.engine_threads;
    run_all(runs.into(), threads, |(kind, params)| {
        (kind, run_kind(kind, &params, &ProtocolConfigs::default()))
    })
}

/// Runs the experiment and returns Fig. 6(a) (in-degree distribution after the final
/// round), Fig. 6(b) (average path length over time) and Fig. 6(c) (clustering coefficient
/// over time).
pub fn run(scale: Scale) -> Vec<FigureData> {
    let outputs = run_protocols(scale);

    let mut indegree_figure = FigureData::new(
        "fig6a",
        "In-degree distribution",
        "in-degree",
        "number of nodes",
    );
    let mut path_figure = FigureData::new(
        "fig6b",
        "Average path length",
        "time (rounds)",
        "avg path length",
    );
    let mut clustering_figure = FigureData::new(
        "fig6c",
        "Clustering coefficient",
        "time (rounds)",
        "clustering coefficient",
    );

    for (kind, output) in &outputs {
        let mut indegree_series = Series::new(kind.name());
        for (degree, count) in indegree_histogram(&output.final_snapshot) {
            indegree_series.push(degree as f64, count as f64);
        }
        indegree_figure.series.push(indegree_series);

        let mut path_series = Series::new(kind.name());
        let mut clustering_series = Series::new(kind.name());
        for sample in &output.samples {
            if let Some(apl) = sample.avg_path_length {
                path_series.push(sample.round as f64, apl);
            }
            if let Some(cc) = sample.clustering {
                clustering_series.push(sample.round as f64, cc);
            }
        }
        path_figure.series.push(path_series);
        clustering_figure.series.push(clustering_series);
    }

    vec![indegree_figure, path_figure, clustering_figure]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_three_figures_with_all_protocols() {
        let figures = run(Scale::Tiny);
        assert_eq!(figures.len(), 3);
        for figure in &figures {
            assert_eq!(figure.series.len(), ProtocolKind::ALL.len());
        }
        assert_eq!(figures[0].id, "fig6a");
        assert_eq!(figures[1].id, "fig6b");
        assert_eq!(figures[2].id, "fig6c");
    }

    #[test]
    fn croupier_randomness_tracks_cyclon() {
        let figures = run(Scale::Tiny);
        let paths = &figures[1];
        let croupier = paths.series("croupier").unwrap().tail_mean(3).unwrap();
        let cyclon = paths.series("cyclon").unwrap().tail_mean(3).unwrap();
        assert!(
            (croupier - cyclon).abs() < 1.0,
            "croupier path length ({croupier}) should track cyclon ({cyclon})"
        );

        // The paper's "Croupier clusters less than Cyclon" effect only appears once the
        // number of public nodes is much larger than the view size (Cyclon's views then
        // spread over the whole population while Croupier's public views concentrate on a
        // still-large public set). At the tiny test scale both views cover a large fraction
        // of the population, so here we only check that the metric is well-formed; the
        // ordering itself is asserted by the quick/paper-scale runs in EXPERIMENTS.md.
        let clustering = &figures[2];
        for name in ["croupier", "cyclon", "gozar", "nylon"] {
            let cc = clustering.series(name).unwrap().tail_mean(3).unwrap();
            assert!(
                (0.0..=1.0).contains(&cc),
                "{name} clustering out of range: {cc}"
            );
        }
    }

    #[test]
    fn cyclon_population_is_all_public() {
        let p = params(Scale::Paper, ProtocolKind::Cyclon, 1);
        assert_eq!(p.n_private, 0);
        let p = params(Scale::Paper, ProtocolKind::Croupier, 1);
        assert_eq!(p.n_public, 200);
        assert_eq!(p.n_private, 800);
    }
}
