//! Figure 5: estimation accuracy under **churn**.
//!
//! Paper setup: 1000 nodes, ratio 0.2, medium history windows; from round 61 onwards a
//! fixed fraction of the population (0.1 %, 1 %, 2.5 % or 5 % per round) is replaced by
//! fresh nodes every round. Expected shape: churn up to 5 % per round (50× the rate
//! measured in deployed P2P systems) has no significant effect on the estimation error.

use croupier::CroupierConfig;

use crate::figures::{estimation_error_figures, run_labelled, LabelledRun};
use crate::output::{FigureData, Scale};
use crate::protocols::ProtocolKind;
use crate::runner::ExperimentParams;
use crate::scenario::ChurnSpec;

/// Churn rates (fraction of nodes replaced per round) evaluated by the paper.
pub const PAPER_CHURN_RATES: [f64; 4] = [0.001, 0.01, 0.025, 0.05];
const PAPER_NODES: usize = 1_000;
const PAPER_ROUNDS: u64 = 250;
const PAPER_CHURN_START: u64 = 61;

/// Builds the experiment parameters for one churn rate.
pub fn params(scale: Scale, churn_rate: f64, seed: u64) -> ExperimentParams {
    let (n_public, n_private) = ProtocolKind::Croupier.population(scale.nodes(PAPER_NODES));
    let rounds = scale.rounds(PAPER_ROUNDS);
    let start = PAPER_CHURN_START.min(rounds / 3).max(5);
    ExperimentParams::default()
        .with_seed(seed)
        .with_population(n_public, n_private)
        .with_rounds(rounds)
        .with_sample_every(scale.sample_every())
        .with_churn(ChurnSpec::new(start, churn_rate))
}

/// Runs the experiment and returns Fig. 5(a) (average error) and Fig. 5(b) (maximum error),
/// one series per churn rate.
pub fn run(scale: Scale) -> Vec<FigureData> {
    let runs: Vec<LabelledRun> = PAPER_CHURN_RATES
        .iter()
        .map(|rate| LabelledRun {
            label: format!("{:.1}%/round", rate * 100.0),
            params: params(scale, *rate, 0xF165),
            config: CroupierConfig::default(),
        })
        .collect();
    let outputs = run_labelled(runs);
    estimation_error_figures("fig5", "Estimation error under churn", &outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_series_per_churn_rate() {
        let figures = run(Scale::Tiny);
        assert_eq!(figures.len(), 2);
        assert_eq!(figures[0].series.len(), PAPER_CHURN_RATES.len());
    }

    #[test]
    fn churn_does_not_blow_up_the_estimation_error() {
        let figures = run(Scale::Tiny);
        for series in &figures[0].series {
            let tail = series.tail_mean(5).unwrap();
            assert!(
                tail < 0.15,
                "estimation should survive churn ({}): {tail}",
                series.label
            );
        }
    }

    #[test]
    fn churn_starts_after_the_join_phase() {
        let p = params(Scale::Paper, 0.01, 1);
        assert_eq!(p.churn.unwrap().start_round, 61);
        let tiny = params(Scale::Tiny, 0.01, 1);
        assert!(tiny.churn.unwrap().start_round >= 5);
    }
}
