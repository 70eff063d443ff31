//! Figure 3: effect of the **system size** on estimation accuracy.
//!
//! Paper setup: systems of 50, 100, 500, 1000 and 5000 nodes with a stable ratio of 0.2 and
//! the medium history windows (α = 25, γ = 50). Expected shape: accuracy improves quickly up
//! to a few hundred nodes and only marginally beyond.

use croupier::CroupierConfig;

use crate::figures::{estimation_error_figures, run_labelled, LabelledRun};
use crate::output::{FigureData, Scale};
use crate::protocols::ProtocolKind;
use crate::runner::ExperimentParams;

/// System sizes evaluated by the paper.
pub(crate) const PAPER_SIZES: [usize; 5] = [50, 100, 500, 1_000, 5_000];
const PAPER_ROUNDS: u64 = 200;

/// System sizes evaluated beyond the paper by [`Scale::Large`] on the sharded engine.
pub(crate) const LARGE_SIZES: [usize; 3] = [10_000, 50_000, 100_000];

/// System sizes evaluated at the million-node [`Scale::Huge`] tier.
pub(crate) const HUGE_SIZES: [usize; 2] = [500_000, 1_000_000];

/// System sizes evaluated at a given scale.
pub(crate) fn sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Tiny => vec![50, 100],
        Scale::Quick => vec![50, 100, 500],
        Scale::Paper => PAPER_SIZES.to_vec(),
        Scale::Large => LARGE_SIZES.to_vec(),
        Scale::Huge => HUGE_SIZES.to_vec(),
    }
}

/// Builds the experiment parameters for one system size.
pub fn params(scale: Scale, total_nodes: usize, seed: u64) -> ExperimentParams {
    let (n_public, n_private) = ProtocolKind::Croupier.population(total_nodes);
    // The paper uses a 10 ms inter-arrival time for the 1000-node experiments; keep the join
    // phase proportionally short for every size. At the 100k-node Large scale the Poisson
    // join phase would outlast the run, so joins are compressed to sub-millisecond spacing
    // and the sharded engine is enabled.
    let mut params = ExperimentParams::default()
        .with_seed(seed)
        .with_population(n_public, n_private)
        .with_rounds(scale.rounds(PAPER_ROUNDS))
        .with_sample_every(scale.sample_every())
        .with_engine_threads(scale.engine_threads());
    if scale == Scale::Large {
        params.public_interarrival_ms = 0.05;
        params.private_interarrival_ms = 0.0125;
    }
    if scale == Scale::Huge {
        // Ten times tighter again than Large: a million joins must still fit inside the
        // first round or two of a heavily shortened run.
        params.public_interarrival_ms = 0.005;
        params.private_interarrival_ms = 0.00125;
    }
    if scale.incremental_components() {
        params = params
            .with_incremental_components()
            .with_incremental_indegree();
    }
    params
}

/// Runs the experiment and returns Fig. 3(a) (average error) and Fig. 3(b) (maximum error),
/// one series per system size.
pub fn run(scale: Scale) -> Vec<FigureData> {
    let runs: Vec<LabelledRun> = sizes(scale)
        .into_iter()
        .map(|size| LabelledRun {
            label: format!("{size} nodes"),
            params: params(scale, size, 0xF163),
            config: CroupierConfig::default(),
        })
        .collect();
    let outputs = run_labelled(runs);
    estimation_error_figures("fig3", "Estimation error vs system size", &outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_series_per_size() {
        let figures = run(Scale::Tiny);
        assert_eq!(figures.len(), 2);
        assert_eq!(figures[0].series.len(), sizes(Scale::Tiny).len());
        assert_eq!(figures[0].id, "fig3a");
        assert_eq!(figures[1].id, "fig3b");
    }

    #[test]
    fn larger_systems_estimate_at_least_as_well() {
        let figures = run(Scale::Tiny);
        let small = figures[0].series("50 nodes").unwrap().tail_mean(5).unwrap();
        let large = figures[0]
            .series("100 nodes")
            .unwrap()
            .tail_mean(5)
            .unwrap();
        // The paper reports a clear accuracy improvement with size; allow generous slack for
        // the tiny test scale, but the large system must not be dramatically worse.
        assert!(
            large <= small * 1.5 + 0.01,
            "estimation should not degrade with size (50 nodes: {small}, 100 nodes: {large})"
        );
    }

    #[test]
    fn paper_scale_lists_all_sizes() {
        assert_eq!(sizes(Scale::Paper), PAPER_SIZES.to_vec());
        let p = params(Scale::Paper, 1_000, 1);
        assert_eq!(p.n_public, 200);
        assert_eq!(p.n_private, 800);
        assert_eq!(p.engine_threads, 0);
    }

    #[test]
    fn huge_scale_reaches_a_million_nodes_with_incremental_metrics() {
        assert_eq!(sizes(Scale::Huge), HUGE_SIZES.to_vec());
        let p = params(Scale::Huge, 1_000_000, 1);
        assert_eq!(p.n_public + p.n_private, 1_000_000);
        assert_eq!(p.engine_threads, 8, "Huge runs on eight sharded workers");
        assert!(p.incremental_components, "Huge samples incrementally");
        assert!(
            p.incremental_indegree,
            "Huge tracks in-degree incrementally"
        );
        assert_eq!(p.metrics_workers, 0, "Huge analyses every sample in place");
        assert!(p.public_interarrival_ms < 1.0);
    }

    #[test]
    fn large_scale_reaches_100k_nodes_on_the_sharded_engine() {
        assert_eq!(sizes(Scale::Large), LARGE_SIZES.to_vec());
        let p = params(Scale::Large, 100_000, 1);
        assert_eq!(p.n_public + p.n_private, 100_000);
        assert_eq!(p.engine_threads, 4, "Large runs on the sharded engine");
        assert!(
            p.public_interarrival_ms < 1.0,
            "joins must be compressed so the join phase fits the run"
        );
    }
}
