//! The workload-tier SLO table for croupier vs cyclon: the same streaming dissemination
//! the `workload_matrix` binary gates, run for both protocols under the tier's three
//! scenarios (`reboot_storm`, `mobility_wave`, `lossy_10`) at quick scale.
//!
//! Each cell streams chunks through the scenario's dynamics and through a no-dynamics
//! control of the same seed; the table reports coverage, delivery-latency percentiles
//! and the p95 regression against the control, with the SLO verdict per cell. Note the
//! matrix convention: cyclon is NAT-oblivious, so its cells run on an all-public
//! population of the same size (see `examples/streaming_overlay.rs` for cyclon on the
//! NATed population itself).
//!
//! ```text
//! cargo run --release --example workload_slo
//! ```

use croupier_experiments::matrix::{
    matrix_rounds, matrix_workload_spec, run_workload_matrix, WORKLOAD_TIER_NAMES,
};
use croupier_experiments::protocols::ProtocolKind;
use croupier_experiments::scenario::ScenarioScript;
use croupier_experiments::Scale;

fn main() {
    let scale = Scale::Quick;
    let rounds = matrix_rounds(scale);
    let spec = matrix_workload_spec(scale);
    println!(
        "Workload tier at quick scale: {} rounds, publish {} chunks from round {}, \
         fan-out {}, sealed after {} rounds",
        rounds, spec.publish_rounds, spec.start_round, spec.fanout, spec.coverage_rounds
    );
    println!(
        "SLOs: coverage >= {:.0}% within the seal window, p95 <= {} rounds, \
         p95 regression vs control <= {} rounds\n",
        spec.slo.min_coverage * 100.0,
        spec.slo.max_p95_latency_rounds,
        spec.slo.max_p95_regression_rounds
    );
    let scenarios: Vec<ScenarioScript> = WORKLOAD_TIER_NAMES
        .iter()
        .map(|name| ScenarioScript::by_name(name, rounds).expect("canned script"))
        .collect();
    let protocols = [ProtocolKind::Croupier, ProtocolKind::Cyclon];
    for report in run_workload_matrix(&scenarios, &protocols, scale, 42) {
        print!("{}", report.render_table());
    }
}
