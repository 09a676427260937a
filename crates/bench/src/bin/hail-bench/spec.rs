//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions, bounds and workload names are declared. The suite emits
//! exactly these names (a test holds it to that) and `diff` applies
//! exactly these bounds.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// True when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the baseline's median the metric may worsen by;
    /// per-layer metrics carry none.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(list: &Json) -> Vec<MetricSpec> {
    list.as_arr()
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Json::as_str).unwrap_or("").to_string();
            MetricSpec {
                name: field("name"),
                unit: field("unit"),
                lower_is_better: field("better") == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

pub fn load() -> Spec {
    let root = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let list = |key: &str| root.get(key).cloned().unwrap_or(Json::Arr(Vec::new()));
    Spec {
        run_seconds: root
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("BENCHMARK.json has run_seconds"),
        workloads: list("workloads")
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
            .collect(),
        end_to_end: metrics(&list("end_to_end")),
        per_layer: metrics(&list("per_layer")),
    }
}

impl Spec {
    pub fn unit_of(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
    }
}
