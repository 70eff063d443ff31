//! The workload tier's headline invariants: for a fixed seed the dissemination
//! `WorkloadReport` is bit-identical across engine worker counts and metrics-worker
//! counts, and chunk coverage only degrades as the fault plane drops more traffic.

use croupier_suite::croupier::{CroupierConfig, CroupierNode};
use croupier_suite::experiments::runner::run_pss;
use croupier_suite::experiments::scenario::{FaultEvent, ScenarioScript};
use croupier_suite::experiments::ExperimentParams;
use croupier_suite::experiments::{WorkloadReport, WorkloadSpec};
use croupier_suite::simulator::FaultProfile;

const ROUNDS: u64 = 30;

fn streaming_params(seed: u64) -> ExperimentParams {
    ExperimentParams::default()
        .with_seed(seed)
        .with_population(20, 80)
        .with_rounds(ROUNDS)
        .with_sample_every(4)
        .with_workload(
            WorkloadSpec::default()
                .with_window(5, 10)
                .with_rate(1.0)
                .with_fanout(4)
                .with_coverage_rounds(12),
        )
}

fn run_streaming(params: ExperimentParams) -> WorkloadReport {
    run_pss(&params, |id, class| {
        CroupierNode::new(id, class, CroupierConfig::default())
    })
    .workload
    .expect("a workload was configured")
}

/// The acceptance pin: the whole report — coverage, every percentile, every counter —
/// must be `==`-identical across 1/2/4/8 engine workers and 0/2 metrics workers, with a
/// scripted NAT disruption and the stream riding it.
#[test]
fn workload_report_is_bit_identical_across_worker_counts() {
    let run = |threads: usize, metrics_workers: usize| {
        run_streaming(
            streaming_params(42)
                .with_scenario(ScenarioScript::reboot_storm(ROUNDS))
                .with_engine_threads(threads)
                .with_metrics_workers(metrics_workers),
        )
    };
    let baseline = run(1, 0);
    assert!(
        baseline.chunks_published > 0 && baseline.unique_deliveries > 0,
        "the baseline run must actually stream: {baseline:?}"
    );
    for threads in [2usize, 4, 8] {
        assert_eq!(
            baseline,
            run(threads, 0),
            "workload report diverged at {threads} engine threads"
        );
    }
    for metrics_workers in [0usize, 2] {
        assert_eq!(
            baseline,
            run(4, metrics_workers),
            "workload report diverged at {metrics_workers} metrics workers"
        );
    }
}

/// Different seeds must explore different executions — a sanity check that the pin above
/// is not comparing constants.
#[test]
fn workload_reports_diverge_across_seeds() {
    let a = run_streaming(streaming_params(42));
    let b = run_streaming(streaming_params(43));
    assert_ne!(a, b, "two seeds produced identical workload reports");
}

/// Coverage is monotone non-increasing in the fault plane's drop rate: more loss can
/// only hurt delivery. Each rate runs the same seeded cell with a fault script that
/// switches the default profile to `lossy(p)` from round 1.
#[test]
fn coverage_is_monotone_non_increasing_in_drop_rate() {
    let coverage_at = |drop_rate: f64| {
        let script = ScenarioScript::new("drop_sweep").fault_at(
            1,
            FaultEvent::FaultProfileChange {
                profile: FaultProfile::lossy(drop_rate),
            },
        );
        let report = run_streaming(streaming_params(42).with_scenario(script));
        (report.coverage, report.fault_dropped)
    };
    let rates = [0.0, 0.3, 0.7, 0.95];
    let runs: Vec<(f64, u64)> = rates.iter().map(|&p| coverage_at(p)).collect();
    assert_eq!(runs[0].1, 0, "lossy(0.0) must drop nothing");
    assert!(
        runs.last().unwrap().1 > 0,
        "lossy(0.95) must drop workload traffic"
    );
    for (pair, rate_pair) in runs.windows(2).zip(rates.windows(2)) {
        assert!(
            pair[1].0 <= pair[0].0,
            "coverage rose from {} to {} when the drop rate rose from {} to {}",
            pair[0].0,
            pair[1].0,
            rate_pair[0],
            rate_pair[1]
        );
    }
    assert!(
        runs.last().unwrap().0 < runs[0].0,
        "near-total loss must visibly dent coverage ({} vs {})",
        runs.last().unwrap().0,
        runs[0].0
    );
}
