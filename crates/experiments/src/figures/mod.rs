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
use crate::runner::{run_pss, ExperimentParams, RunOutput};

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
        let config = run.config;
        let output = run_pss(&run.params, move |id, class, _| {
            croupier::CroupierNode::new(id, class, config.clone())
        });
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
