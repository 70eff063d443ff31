//! # croupier-experiments
//!
//! Workload generators and experiment runners that regenerate every figure of the Croupier
//! paper's evaluation (§VII). Each figure has a dedicated module under [`figures`] returning
//! a [`FigureData`] with the same series the paper plots; the `figures` binary prints them
//! as tables.
//!
//! The mapping between paper figures and modules is listed in `DESIGN.md` (per-experiment
//! index) and the measured outcomes are recorded in `EXPERIMENTS.md`.
//!
//! ## Structure
//!
//! * [`scenario`] — join schedules (Poisson arrivals), churn and catastrophic-failure
//!   specifications, plus scripted NAT-dynamics scenarios ([`ScenarioScript`]) executed
//!   at round barriers.
//! * [`runner`] — the generic experiment driver: builds a NAT topology and a simulation for
//!   any [`PssNode`](croupier_simulator::PssNode) protocol, executes the scenario and
//!   samples metrics every round.
//! * [`protocols`] — constructors for the four systems under test (Croupier, Cyclon, Gozar,
//!   Nylon) behind a common [`ProtocolKind`] switch.
//! * [`output`] — figure/series containers and table rendering.
//! * [`figures`] — one module per paper figure.
//! * [`matrix`] — the scenario-matrix runner: canned NAT-dynamics scripts × protocols,
//!   with per-scenario JSON reports and a connectivity-recovery gate (the `scenario_matrix`
//!   binary and the CI `scenario-matrix` job drive it), plus the workload tier (the
//!   `workload_matrix` binary and the CI `workload-matrix` job).
//! * [`workload`] — the streaming-dissemination workload engine: publishers, sampled
//!   push/pull chunk transfer through the NAT filter and fault plane, the per-chunk
//!   delivery tracker and its SLO gates (`DESIGN.md` §16).
//!
//! ## Example: a miniature Figure 1
//!
//! ```
//! use croupier_experiments::figures::fig1_stable_ratio;
//! use croupier_experiments::output::Scale;
//!
//! // The tiny scale keeps doc tests fast; Scale::Paper reproduces the paper's population.
//! let figures = fig1_stable_ratio::run(Scale::Tiny);
//! assert_eq!(figures[0].id, "fig1a");
//! assert!(!figures[0].series.is_empty());
//! ```
//!
//! ## Example: a custom experiment, scripted dynamics and a streaming workload
//!
//! [`ExperimentParams`] is the one knob-box every tier shares: population, rounds,
//! engine/metrics threading, an optional [`ScenarioScript`] applied at round barriers,
//! and an optional [`WorkloadSpec`] streaming chunks over the
//! sampled overlay while the dynamics play out. `run_pss` drives any
//! [`PssNode`](croupier_simulator::PssNode) protocol through it:
//!
//! ```
//! use croupier::{CroupierConfig, CroupierNode};
//! use croupier_experiments::runner::run_pss;
//! use croupier_experiments::workload::WorkloadSpec;
//! use croupier_experiments::{ExperimentParams, ScenarioScript};
//!
//! let params = ExperimentParams::default()
//!     .with_seed(7)
//!     .with_population(4, 12)          // 25% public, like the paper's harshest setting
//!     .with_rounds(12)
//!     .with_scenario(ScenarioScript::reboot_storm(12))
//!     .with_workload(
//!         WorkloadSpec::default()
//!             .with_window(2, 3)       // publish one chunk on rounds 2..=4
//!             .with_coverage_rounds(4) // seal (freeze coverage) 4 rounds later
//!     );
//! let output = run_pss(&params, |id, class, _| {
//!     CroupierNode::new(id, class, CroupierConfig::default())
//! });
//! let report = output.workload.expect("a workload was configured");
//! assert_eq!(report.chunks_published, 3);
//! assert!(report.coverage > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod matrix;
pub mod output;
mod pool;
pub mod protocols;
pub mod runner;
pub mod scenario;
pub mod workload;

pub use output::{FigureData, Scale, Series};
pub use protocols::ProtocolKind;
pub use runner::{ExperimentParams, RoundSample, RunOutput};
pub use scenario::{
    ChurnSpec, FaultAction, FaultEvent, JoinSchedule, NatDynamicsEvent, ScenarioAction,
    ScenarioExecutor, ScenarioScript,
};
pub use workload::{WorkloadExecutor, WorkloadReport, WorkloadSlo, WorkloadSpec, WorkloadState};
