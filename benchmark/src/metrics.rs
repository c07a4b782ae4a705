//! The benchmark's contract: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics.  `BENCHMARK.json` at the repo root is
//! the one list; it is compiled in and read here.  Which workloads
//! report a per-layer metric and which end-to-end metric it should move
//! is documentation and lives in `benchmark/README.md`.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::sut::{self, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the contract.
#[derive(Debug)]
pub struct MetricDef {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for a per-layer metric, which has no bound.
    pub bound: f64,
}

/// What `BENCHMARK.json` lists.
#[derive(Debug)]
pub struct Contract {
    /// Seconds the driver asks a run to measure for; the full sizes are
    /// made to fill them on the reference host.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics; every workload reports every one.
    pub e2e: Vec<MetricDef>,
    /// Per-layer metrics; a workload prints 0 where it has no value.
    pub layer: Vec<MetricDef>,
}

fn text(v: &JsonValue, key: &str) -> String {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks `{key}`"))
        .to_string()
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no `{key}` list"))
}

fn metric_defs(doc: &JsonValue, key: &str) -> Vec<MetricDef> {
    entries(doc, key)
        .iter()
        .map(|m| MetricDef {
            name: text(m, "name"),
            unit: text(m, "unit"),
            bound: m.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0),
        })
        .collect()
}

/// The compiled-in contract.
pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        let doc = sut::json(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .expect("BENCHMARK.json: no `run_seconds`") as u64,
            workloads: entries(&doc, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            e2e: metric_defs(&doc, "end_to_end"),
            layer: metric_defs(&doc, "per_layer"),
        }
    })
}

/// Metric values collected by one run, by name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`, which must be a metric of the
    /// contract.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let c = contract();
        assert!(
            c.e2e.iter().chain(&c.layer).any(|m| m.name == name),
            "{name} is not in BENCHMARK.json"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the driver refuses a `BENCHMARK.json` for, and the
    /// README's tables: every name is documented there.
    #[test]
    fn contract_is_well_formed_and_documented() {
        let c = contract();
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.e2e.len()) && (1..=128).contains(&c.layer.len()));
        let readme = include_str!("../README.md");
        let metrics = c.e2e.iter().chain(&c.layer);
        let mut names: Vec<&str> = c.workloads.iter().map(String::as_str).collect();
        names.extend(metrics.clone().map(|m| m.name.as_str()));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(readme.contains(&format!("`{n}`")), "README lacks `{n}`");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for m in metrics {
            assert!(m.unit.len() <= 16, "{}", m.name);
        }
        // Every end-to-end metric has a bound; set-up time the largest.
        let setup = c.e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        for m in &c.e2e {
            assert!(
                m.bound > 0.0 && m.bound <= setup.bound && setup.bound <= 0.25,
                "{}",
                m.name
            );
        }
    }
}
