//! `BENCHMARK.json`, compiled in: the one place metric names, units, directions and
//! bounds are written down. The binary reads its own units and `--compare` its bounds
//! from here, so the file and the program cannot drift apart (a unit test checks that
//! every name the program emits is declared, and the reverse).

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct MetricSpec {
    pub(crate) name: String,
    pub(crate) unit: String,
    /// `true` when a higher value is better.
    pub(crate) higher_is_better: bool,
    /// Share of the reference value by which the metric may worsen; end-to-end only.
    pub(crate) bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct BenchmarkSpec {
    pub(crate) run_seconds: f64,
    pub(crate) workloads: Vec<(String, String)>,
    pub(crate) end_to_end: Vec<MetricSpec>,
    pub(crate) per_layer: Vec<MetricSpec>,
}

impl BenchmarkSpec {
    pub(crate) fn load() -> Self {
        Self::parse(BENCHMARK_JSON).expect("the compiled-in BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .map(Value::as_arr)
                .ok_or(format!("missing {key}"))
        };
        let text = |entry: &Value, field: &str| {
            entry
                .get(field)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("an entry lacks {field}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        higher_is_better: text(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(BenchmarkSpec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("missing run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub(crate) fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// `{name: {value, unit}}` for the result line, in declaration order.
    pub(crate) fn metrics_object(&self, values: &[(&str, f64)]) -> Value {
        Value::Obj(
            values
                .iter()
                .map(|(name, value)| {
                    let unit = self.metric(name).map_or("", |m| m.unit.as_str());
                    (
                        name.to_string(),
                        Value::obj(vec![
                            ("value", Value::Num(*value)),
                            ("unit", Value::str(unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_meets_the_declared_limits() {
        let spec = BenchmarkSpec::load();
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec.metric("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .map(|(name, _)| name.as_str())
            .chain(spec.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "every name is used once");
        for (_, why) in &spec.workloads {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for metric in &spec.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(
                bound > 0.0 && bound <= 0.25,
                "{}: bound {bound}",
                metric.name
            );
        }
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!metric.unit.is_empty() && metric.unit.len() <= 16);
            assert!(metric
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
