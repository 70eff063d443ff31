//! Estimation-error metrics (equations 10–13 of the paper, Figures 1–5).
//!
//! Unlike the graph metrics, estimation errors need no overlay graph: one linear pass
//! over the snapshot's observations suffices, so [`estimation_errors`] allocates nothing
//! and sits on the per-sample path as-is (the runner evaluates it before building the
//! sample's [`MetricsContext`](crate::context::MetricsContext)).

use crate::snapshot::OverlaySnapshot;

/// Estimation-error summary across all nodes that hold an estimate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EstimationErrors {
    /// Average absolute error |ω − Eₙ(ω)| over all nodes with an estimate
    /// (equations 12–13; the absolute value makes the metric meaningful on the paper's
    /// logarithmic axes).
    pub average: f64,
    /// Maximum absolute error over all nodes — the Kolmogorov–Smirnov-style bound of
    /// equations 10–11.
    pub maximum: f64,
    /// Number of nodes that held an estimate at snapshot time.
    pub nodes_with_estimate: usize,
    /// Number of observed nodes without any estimate yet.
    pub nodes_without_estimate: usize,
}

/// Computes the estimation errors of a snapshot against the true ratio `omega`.
///
/// Nodes without an estimate are counted separately rather than treated as maximally wrong,
/// mirroring the paper's exclusion of nodes that have not completed two rounds.
pub fn estimation_errors(snapshot: &OverlaySnapshot, omega: f64) -> EstimationErrors {
    let mut sum = 0.0;
    let mut max: f64 = 0.0;
    let mut with = 0usize;
    let mut without = 0usize;
    for node in &snapshot.nodes {
        match node.ratio_estimate {
            Some(estimate) if estimate.is_finite() => {
                let error = (omega - estimate).abs();
                sum += error;
                max = max.max(error);
                with += 1;
            }
            _ => without += 1,
        }
    }
    EstimationErrors {
        average: if with > 0 { sum / with as f64 } else { 0.0 },
        maximum: max,
        nodes_with_estimate: with,
        nodes_without_estimate: without,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::NodeObservation;
    use croupier_simulator::{NatClass, NodeId};

    fn obs(id: u64, estimate: Option<f64>) -> NodeObservation {
        NodeObservation {
            id: NodeId::new(id),
            class: NatClass::Private,
            ratio_estimate: estimate,
            rounds_executed: 5,
        }
    }

    #[test]
    fn average_and_maximum_are_computed_over_estimating_nodes() {
        let snapshot = OverlaySnapshot::from_parts(
            vec![obs(1, Some(0.25)), obs(2, Some(0.15)), obs(3, None)],
            vec![],
        );
        let errors = estimation_errors(&snapshot, 0.2);
        assert!((errors.average - 0.05).abs() < 1e-9);
        assert!((errors.maximum - 0.05).abs() < 1e-9);
        assert_eq!(errors.nodes_with_estimate, 2);
        assert_eq!(errors.nodes_without_estimate, 1);
    }

    #[test]
    fn asymmetric_errors_use_absolute_values() {
        let snapshot =
            OverlaySnapshot::from_parts(vec![obs(1, Some(0.1)), obs(2, Some(0.4))], vec![]);
        let errors = estimation_errors(&snapshot, 0.2);
        assert!((errors.average - 0.15).abs() < 1e-9);
        assert!((errors.maximum - 0.2).abs() < 1e-9);
    }

    #[test]
    fn perfect_estimates_have_zero_error() {
        let snapshot =
            OverlaySnapshot::from_parts(vec![obs(1, Some(0.2)), obs(2, Some(0.2))], vec![]);
        let errors = estimation_errors(&snapshot, 0.2);
        assert_eq!(errors.average, 0.0);
        assert_eq!(errors.maximum, 0.0);
    }

    #[test]
    fn non_finite_estimates_are_ignored() {
        let snapshot =
            OverlaySnapshot::from_parts(vec![obs(1, Some(f64::NAN)), obs(2, Some(0.3))], vec![]);
        let errors = estimation_errors(&snapshot, 0.2);
        assert_eq!(errors.nodes_with_estimate, 1);
        assert_eq!(errors.nodes_without_estimate, 1);
        assert!((errors.maximum - 0.1).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_reports_zeroes() {
        let errors = estimation_errors(&OverlaySnapshot::default(), 0.2);
        assert_eq!(errors, EstimationErrors::default());
    }
}
