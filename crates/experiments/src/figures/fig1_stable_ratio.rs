//! Figure 1: estimation accuracy for a **stable** public/private ratio under different
//! history-window sizes.
//!
//! Paper setup: 1000 public and 4000 private nodes join following Poisson processes with
//! 50 ms / 12.5 ms inter-arrival times; the average and maximum estimation errors are
//! tracked over 250 rounds for (α, γ) ∈ {(10, 25), (25, 50), (100, 250)}. Expected shape:
//! larger windows converge more slowly but to lower steady-state error.

use croupier::CroupierConfig;

use crate::figures::{
    estimation_error_figures, run_labelled, window_label, LabelledRun, HISTORY_WINDOWS,
};
use crate::output::{FigureData, Scale};
use crate::runner::ExperimentParams;

/// Paper-scale populations for this experiment.
const PAPER_PUBLIC: usize = 1_000;
const PAPER_PRIVATE: usize = 4_000;
const PAPER_ROUNDS: u64 = 250;

/// Builds the experiment parameters for one history-window configuration.
pub fn params(scale: Scale, seed: u64) -> ExperimentParams {
    ExperimentParams::default()
        .with_seed(seed)
        .with_population(scale.nodes(PAPER_PUBLIC), scale.nodes(PAPER_PRIVATE))
        .with_rounds(scale.rounds(PAPER_ROUNDS))
        .with_sample_every(scale.sample_every())
}

/// Runs the experiment and returns Fig. 1(a) (average error) and Fig. 1(b) (maximum error).
pub fn run(scale: Scale) -> Vec<FigureData> {
    let runs: Vec<LabelledRun> = HISTORY_WINDOWS
        .iter()
        .map(|(alpha, gamma)| LabelledRun {
            label: window_label(*alpha, *gamma),
            params: params(scale, 0xF161),
            config: CroupierConfig::default()
                .with_local_history(*alpha)
                .with_neighbour_history(*gamma),
        })
        .collect();
    let outputs = run_labelled(runs);
    estimation_error_figures("fig1", "Stable ratio, varying history windows", &outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first round at which a series' value drops below `threshold` and never rises above
    /// it again — the convergence test used in §VII-B of the paper to compare history
    /// windows ("it takes roughly 100 rounds longer for the largest history windows to converge
    /// on good estimates compared to the smallest").
    ///
    /// Returns `None` if the series never converges under that definition.
    fn convergence_round(points: &[(f64, f64)], threshold: f64) -> Option<u64> {
        let last_bad = points
            .iter()
            .rposition(|(_, y)| *y > threshold)
            .map(|i| i + 1)
            .unwrap_or(0);
        points.get(last_bad).map(|(x, _)| *x as u64)
    }

    #[test]
    fn produces_two_figures_with_all_window_configs() {
        let figures = run(Scale::Tiny);
        assert_eq!(figures.len(), 2);
        assert_eq!(figures[0].id, "fig1a");
        assert_eq!(figures[1].id, "fig1b");
        for figure in &figures {
            assert_eq!(figure.series.len(), HISTORY_WINDOWS.len());
            for series in &figure.series {
                assert!(!series.points.is_empty());
            }
        }
    }

    #[test]
    fn convergence_round_finds_the_first_stable_point() {
        let points = vec![
            (1.0, 0.5),
            (2.0, 0.05),
            (3.0, 0.2),
            (4.0, 0.03),
            (5.0, 0.02),
        ];
        assert_eq!(convergence_round(&points, 0.1), Some(4));
        assert_eq!(convergence_round(&points, 0.01), None);
        assert_eq!(convergence_round(&points, 1.0), Some(1));
        assert_eq!(convergence_round(&[], 0.1), None);
    }

    #[test]
    fn smaller_windows_converge_no_later_than_larger_ones() {
        let figures = run(Scale::Tiny);
        let threshold = 0.05;
        let small = convergence_round(
            &figures[0].series(&window_label(10, 25)).unwrap().points,
            threshold,
        );
        let large = convergence_round(
            &figures[0].series(&window_label(100, 250)).unwrap().points,
            threshold,
        );
        if let (Some(small), Some(large)) = (small, large) {
            assert!(
                small <= large,
                "the small window should converge no later than the large one ({small} vs {large})"
            );
        }
    }

    #[test]
    fn estimation_error_converges_for_every_window() {
        let figures = run(Scale::Tiny);
        for series in &figures[0].series {
            let tail = series.tail_mean(5).unwrap();
            assert!(
                tail < 0.12,
                "steady-state average error too high for {}: {tail}",
                series.label
            );
        }
        // Maximum error is always at least the average error.
        for (avg_series, max_series) in figures[0].series.iter().zip(&figures[1].series) {
            assert!(max_series.tail_mean(5).unwrap() >= avg_series.tail_mean(5).unwrap());
        }
    }
}
