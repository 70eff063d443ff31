//! `--compare A.json B.json`: do two result sets (files written by the all-workloads
//! mode) agree? B is judged against A, per workload and end-to-end metric, with the
//! bound `BENCHMARK.json` fixes for the metric.

use crate::json::{self, Value};
use crate::spec::{BenchmarkSpec, MetricSpec};
use crate::stats::{median, quartile_spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the medians settle nothing.
    Unresolved,
}

/// Judges one metric. `a` and `b` are the per-run values of each side (at least one
/// each). Returns the verdict and B's worsening as a share of A's median (negative when
/// B is better).
pub(crate) fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (a_mid, b_mid) = (median(a), median(b));
    let worsening = if a_mid == 0.0 {
        0.0
    } else if metric.higher_is_better {
        (a_mid - b_mid) / a_mid
    } else {
        (b_mid - a_mid) / a_mid
    };
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    let spread = quartile_spread(a)
        .into_iter()
        .chain(quartile_spread(b))
        .fold(0.0, f64::max);
    let b_always_better = if metric.higher_is_better {
        b.iter().all(|vb| a.iter().all(|va| vb > va))
    } else {
        b.iter().all(|vb| a.iter().all(|va| vb < va))
    };
    let verdict = if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, worsening)
}

fn values_of(workload: &Value, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .map(|v| v.as_arr().iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(false)` when any metric is worse or any digest differs.
pub(crate) fn run(path_a: &str, path_b: &str, spec: &BenchmarkSpec) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (label, set) in [("A", &a), ("B", &b)] {
        let host = set.get("host");
        let field = |key: &str| {
            host.and_then(|h| h.get(key))
                .map(|v| v.as_str().map_or_else(|| v.to_line(), str::to_string))
                .unwrap_or_else(|| "unknown".to_string())
        };
        println!(
            "{label}: {} cores, {}, {}, git {}",
            field("cores"),
            field("cpu_model"),
            field("rustc"),
            field("git_sha")
        );
    }
    let same_seed = a.get("seed") == b.get("seed");
    let mut agree = true;
    for (name, workload_a) in a.get("workloads").map(Value::as_obj).unwrap_or_default() {
        let Some(workload_b) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name}: missing from {path_b}");
            agree = false;
            continue;
        };
        let (digest_a, digest_b) = (workload_a.get("digest"), workload_b.get("digest"));
        if !same_seed {
            println!("{name}: seeds differ, digests not compared");
        } else if digest_a == digest_b {
            println!("{name}: digests equal");
        } else {
            println!("{name}: DIGEST MISMATCH {digest_a:?} vs {digest_b:?}");
            agree = false;
        }
        for metric in &spec.end_to_end {
            let (va, vb) = (
                values_of(workload_a, &metric.name),
                values_of(workload_b, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("  {:<20} missing", metric.name);
                agree = false;
                continue;
            }
            let (verdict, worsening) = judge(metric, &va, &vb);
            println!(
                "  {:<20} A {:>14.6}  B {:>14.6} {:<6} worse by {:>+7.2} % (bound {:.0} %)  {}",
                metric.name,
                median(&va),
                median(&vb),
                metric.unit,
                worsening * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
            agree &= verdict != Verdict::Worse;
        }
    }
    println!(
        "compare: {}",
        if agree {
            "the sets agree"
        } else {
            "the sets DISAGREE"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: "m".to_string(),
            unit: "s".to_string(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn medians_within_the_bound_agree_and_beyond_it_are_worse() {
        let lower = metric(false);
        assert_eq!(judge(&lower, &[10.0], &[10.9]).0, Verdict::Ok);
        assert_eq!(judge(&lower, &[10.0], &[11.1]).0, Verdict::Worse);
        assert_eq!(judge(&lower, &[10.0], &[5.0]).0, Verdict::Ok);
        let higher = metric(true);
        assert_eq!(judge(&higher, &[100.0], &[91.0]).0, Verdict::Ok);
        assert_eq!(judge(&higher, &[100.0], &[89.0]).0, Verdict::Worse);
        let (_, worsening) = judge(&higher, &[100.0], &[110.0]);
        assert!((worsening + 0.10).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let lower = metric(false);
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(judge(&lower, &noisy, &[10.0, 10.1]).0, Verdict::Unresolved);
        assert_eq!(judge(&lower, &noisy, &[13.0, 13.1]).0, Verdict::Unresolved);
        assert_eq!(judge(&lower, &noisy, &[5.0, 5.1]).0, Verdict::Ok);
    }
}
