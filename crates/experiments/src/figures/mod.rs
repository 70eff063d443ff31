//! One module per figure of the paper's evaluation (§VII).
//!
//! Every module exposes `run(scale) -> Vec<FigureData>`; the returned figures carry the same
//! series the paper plots. `Scale::Paper` reproduces the paper's populations and durations,
//! the smaller scales keep tests and benchmarks fast.

pub mod fig1_stable_ratio;
pub mod fig2_dynamic_ratio;
pub mod fig3_system_size;
pub mod fig4_ratio_sweep;
pub mod fig5_churn;
pub mod fig6_randomness;
pub mod fig7_overhead;
pub mod fig8_failure;

use croupier::CroupierConfig;

use crate::output::{FigureData, Series};
use crate::pool::run_all;
use crate::protocols::{run_kind, ProtocolConfigs, ProtocolKind};
use crate::runner::{ExperimentParams, RunOutput};

/// A labelled Croupier run: the label appears in figure legends.
pub(crate) struct LabelledRun {
    pub label: String,
    pub params: ExperimentParams,
    pub config: CroupierConfig,
}

/// Runs a set of labelled Croupier experiments on the crate's pool and returns the
/// outputs in input order.
pub(crate) fn run_labelled(runs: Vec<LabelledRun>) -> Vec<(String, RunOutput)> {
    let threads = runs.iter().map(|run| run.params.engine_threads).max();
    run_all(runs, threads.unwrap_or(0), |run| {
        let configs = ProtocolConfigs {
            croupier: run.config,
            ..ProtocolConfigs::default()
        };
        let output = run_kind(ProtocolKind::Croupier, &run.params, &configs);
        (run.label, output)
    })
}

/// Builds the paper's paired (average-error, maximum-error) time-series figures from a set
/// of labelled runs — the layout shared by Figures 1 through 5.
pub(crate) fn estimation_error_figures(
    id_prefix: &str,
    title: &str,
    outputs: &[(String, RunOutput)],
) -> Vec<FigureData> {
    let mut avg_figure = FigureData::new(
        format!("{id_prefix}a"),
        format!("{title} — average estimation error"),
        "time (rounds)",
        "avg estimation error",
    );
    let mut max_figure = FigureData::new(
        format!("{id_prefix}b"),
        format!("{title} — maximum estimation error"),
        "time (rounds)",
        "max estimation error",
    );
    for (label, output) in outputs {
        let mut avg_series = Series::new(label.clone());
        let mut max_series = Series::new(label.clone());
        for sample in &output.samples {
            avg_series.push(sample.round as f64, sample.estimation.average);
            max_series.push(sample.round as f64, sample.estimation.maximum);
        }
        avg_figure.series.push(avg_series);
        max_figure.series.push(max_series);
    }
    vec![avg_figure, max_figure]
}

/// The three (α, γ) history-window pairs evaluated in Figures 1 and 2.
pub(crate) const HISTORY_WINDOWS: [(usize, u32); 3] = [(10, 25), (25, 50), (100, 250)];

/// Builds the label used for a history-window configuration.
pub(crate) fn window_label(alpha: usize, gamma: u32) -> String {
    format!("alpha={alpha}, gamma={gamma}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::Scale;

    /// Every figure's population split, written out by hand so that a change to
    /// `ProtocolKind::population` shows up here: NAT-aware runs are 20 % public, Cyclon
    /// runs all public.
    #[test]
    fn figure_populations_are_unchanged() {
        let split = |p: ExperimentParams| (p.n_public, p.n_private);
        let scales = [Scale::Tiny, Scale::Quick, Scale::Paper];
        let fig3 = [
            vec![(10, 40), (20, 80)],
            vec![(10, 40), (20, 80), (100, 400)],
            vec![(10, 40), (20, 80), (100, 400), (200, 800), (1_000, 4_000)],
        ];
        // Figures 5–8 all start from `Scale::nodes(1000)`: 25, 100 and 1000 nodes.
        let nat_aware = [(5, 20), (20, 80), (200, 800)];
        let cyclon = [(25, 0), (100, 0), (1_000, 0)];
        for (i, scale) in scales.into_iter().enumerate() {
            let sizes = fig3_system_size::sizes(scale).into_iter();
            let fig3_splits: Vec<_> = sizes
                .map(|size| split(fig3_system_size::params(scale, size, 1)))
                .collect();
            assert_eq!(fig3_splits, fig3[i], "fig3 at {scale:?}");
            assert_eq!(split(fig5_churn::params(scale, 0.01, 1)), nat_aware[i]);
            for kind in ProtocolKind::ALL {
                let expected = if kind.is_nat_aware() {
                    nat_aware[i]
                } else {
                    cyclon[i]
                };
                let figs = [
                    fig6_randomness::params(scale, kind, 1),
                    fig7_overhead::params(scale, kind, 1),
                    fig8_failure::params(scale, kind, 1),
                ];
                for (fig, params) in [6, 7, 8].into_iter().zip(figs) {
                    assert_eq!(split(params), expected, "fig{fig} {kind} at {scale:?}");
                }
            }
        }
    }
}
