//! The benchmark's definition, read from the repo's `BENCHMARK.json` at
//! compile time so that metric names, units, directions and bounds, and
//! workload names and reasons, exist in exactly one place.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the base median by which the metric may worsen before it
    /// counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// One named workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDef {
    /// Workload name.
    pub name: String,
    /// Why it is in the set.
    pub why: String,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkDef {
    /// How long one run measures, seconds.
    pub run_seconds: u64,
    /// The workloads, in file order.
    pub workloads: Vec<WorkloadDef>,
    /// Metrics a user of the system sees (reported with tracing off).
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of single layers (reported by the traced run).
    pub per_layer: Vec<MetricDef>,
}

fn text(obj: &Json, key: &str) -> String {
    match obj.get(key) {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("BENCHMARK.json: `{key}` must be a string, got {other:?}"),
    }
}

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("BENCHMARK.json: `{key}` must be an array, got {other:?}"),
    }
}

fn metric(obj: &Json) -> MetricDef {
    MetricDef {
        name: text(obj, "name"),
        unit: text(obj, "unit"),
        better: match text(obj, "better").as_str() {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => panic!("BENCHMARK.json: bad `better` value `{other}`"),
        },
        bound: obj.get("bound").map(|b| b.as_f64().expect("numeric bound")),
    }
}

impl BenchmarkDef {
    /// The definition compiled into this binary.
    ///
    /// # Panics
    /// If the embedded `BENCHMARK.json` is malformed — a build-time fact,
    /// caught by this package's tests.
    pub fn embedded() -> Self {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Self {
            run_seconds: doc.get_u64("run_seconds").expect("run_seconds"),
            workloads: items(&doc, "workloads")
                .iter()
                .map(|w| WorkloadDef {
                    name: text(w, "name"),
                    why: text(w, "why"),
                })
                .collect(),
            end_to_end: items(&doc, "end_to_end").iter().map(metric).collect(),
            per_layer: items(&doc, "per_layer").iter().map(metric).collect(),
        }
    }

    /// The definition of metric `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn embedded_definition_meets_the_contract() {
        let def = BenchmarkDef::embedded();
        assert!((1..=60).contains(&def.run_seconds));
        assert!((2..=8).contains(&def.workloads.len()));
        let mut seen = HashSet::new();
        for w in &def.workloads {
            assert!(name_ok(&w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.clone()), "duplicate name {}", w.name);
        }
        for m in def.end_to_end.iter().chain(&def.per_layer) {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit `{}`",
                m.unit
            );
        }
        for m in &def.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(def.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = def.metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = def
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }
}
