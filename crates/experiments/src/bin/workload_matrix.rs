//! Command-line driver for the workload tier: a streaming dissemination workload rides
//! scripted NAT-dynamics scenarios for every peer-sampling protocol, with per-scenario
//! JSON reports and SLO gates.
//!
//! ```text
//! workload_matrix [--scale tiny|quick|paper|large|huge] [--seed N] [--out DIR]
//!                 [--protocols croupier,cyclon,gozar,nylon] [--scenarios a,b,...]
//! ```
//!
//! One `SCENARIO_<name>.json` is written per scenario into `--out` (default
//! `target/workload-json`). The process exits non-zero when croupier misses a declared
//! SLO — chunk coverage within the seal window, absolute p95 delivery latency, or the
//! p95 regression bound against the no-dynamics control — the CI `workload-matrix`
//! job's gate.

use croupier_experiments::matrix::{run_workload_matrix, WORKLOAD_TIER_NAMES};

#[path = "shared/matrix_cli.rs"]
mod matrix_cli;

const USAGE: &str = "usage: workload_matrix [--scale tiny|quick|paper|large|huge] [--seed N] \
                     [--out DIR] [--protocols a,b] [--scenarios x,y]\n\
                     scenarios: reboot_storm mobility_wave lossy_10 (default: all three); \
                     any scenario_matrix name is accepted";

matrix_cli::matrix_main! {
    usage: USAGE,
    out: "target/workload-json",
    scenarios: WORKLOAD_TIER_NAMES,
    run: run_workload_matrix,
    gates: [croupier_slo_ok => "croupier missed a delivery SLO"],
    pass: "workload-matrix: croupier met every delivery SLO",
    fail: "workload-matrix: at least one SLO gate failed",
}
