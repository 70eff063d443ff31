//! Command-line driver for the scenario matrix: scripted NAT-dynamics scenarios × the
//! four peer-sampling protocols, with per-scenario JSON reports and a recovery gate.
//!
//! ```text
//! scenario_matrix [--scale tiny|quick|paper|large|huge] [--seed N] [--out DIR]
//!                 [--protocols croupier,cyclon,gozar,nylon] [--scenarios a,b,...]
//! ```
//!
//! One `SCENARIO_<name>.json` is written per scenario into `--out` (default
//! `target/scenario-json`). The process exits non-zero when any protocol fails to
//! recover connectivity after the scripted disruption — the CI `scenario-matrix` job's
//! gate.

use croupier_experiments::matrix::run_matrix;
use croupier_experiments::scenario::ScenarioScript;

#[path = "shared/matrix_cli.rs"]
mod matrix_cli;

const USAGE: &str = "usage: scenario_matrix [--scale tiny|quick|paper|large|huge] [--seed N] \
                     [--out DIR] [--protocols a,b] [--scenarios x,y]\n\
                     scenarios: reboot_storm mobility_wave nat_flux flash_crowd \
                     regional_outage croupier_stress symmetric_shift cgn_migration \
                     lossy_10 burst_loss dup_reorder (default: all)";

matrix_cli::matrix_main! {
    usage: USAGE,
    out: "target/scenario-json",
    scenarios: ScenarioScript::MATRIX_NAMES,
    run: run_matrix,
    gates: [
        all_recovered => "a protocol failed to recover connectivity",
        croupier_gini_ok => "croupier's in-degree Gini degraded more than the baselines'",
    ],
    pass: "scenario-matrix: every protocol recovered connectivity",
    fail: "scenario-matrix: at least one gate failed",
}
