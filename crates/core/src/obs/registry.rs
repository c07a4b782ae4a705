//! Named metrics registry: counters, gauges, histograms, exporters.
//!
//! The registry is the *cold* path: instrumentation sites call
//! [`Registry::counter`] / [`gauge`](Registry::gauge) /
//! [`histogram`](Registry::histogram) **once** (at setup, or lazily on
//! first use) and keep the returned `Arc` handle; the hot path is then
//! a single relaxed atomic op on the handle with no name lookup and no
//! lock.  The maps behind the lookup are mutex-guarded `BTreeMap`s so
//! exports are deterministically name-ordered.
//!
//! Metric names use Prometheus-safe `[a-z0-9_]` characters so the same
//! name appears verbatim in both exporters; per-shard instances embed
//! the shard in the name (`store_apply_us_shard0`).
//!
//! Two exporters, both allocation-only (no I/O):
//! * [`Registry::metrics_json`] — one JSON object with `counters`,
//!   `gauges`, and `histograms` sections (histograms carry
//!   `count/sum/max/mean/p50/p90/p99`),
//! * [`Registry::prometheus_text`] — a Prometheus text-format page
//!   (`counter` / `gauge` / `summary` families, quantiles as labelled
//!   `name{quantile="0.5"}` samples).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::hist::Histogram;
use super::json::{escape_json, fmt_f64};
use crate::lock;

/// A monotonically increasing `u64` counter.
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    fn new() -> Counter {
        Counter { v: AtomicU64::new(0) }
    }

    /// Adds `n`.  Relaxed; multi-producer safe.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge (stored as bits in an atomic word).
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The named-metric registry.  See the module docs for the
/// handle-then-hot-path usage pattern.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    hists: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
        }
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock(&self.counters);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.gauges);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock(&self.hists);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// One-call JSON snapshot of every registered metric.
    pub fn metrics_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":{");
        for (i, (name, c)) in lock(&self.counters).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape_json(name), c.get()));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, g)) in lock(&self.gauges).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape_json(name), fmt_f64(g.get())));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in lock(&self.hists).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{}}}",
                escape_json(name),
                h.count(),
                h.sum(),
                h.max(),
                fmt_f64(h.mean()),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
            ));
        }
        out.push_str("}}");
        out
    }

    /// Prometheus text-format exposition page.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, c) in lock(&self.counters).iter() {
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
        }
        for (name, g) in lock(&self.gauges).iter() {
            out.push_str(&format!(
                "# TYPE {name} gauge\n{name} {}\n",
                fmt_f64(g.get())
            ));
        }
        for (name, h) in lock(&self.hists).iter() {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "{name}{{quantile=\"{label}\"}} {}\n",
                    h.quantile(q)
                ));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
            out.push_str(&format!("{name}_max {}\n", h.max()));
        }
        out
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::super::json::parse_json;
    use super::*;

    #[test]
    fn handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("hits");
        let b = r.counter("hits");
        a.add(2);
        b.inc();
        assert_eq!(r.counter("hits").get(), 3);
    }

    #[test]
    fn json_export_parses_and_contains_sections() {
        let r = Registry::new();
        r.counter("c_one").add(7);
        r.gauge("g_rate").set(1.5);
        r.histogram("h_us").record(42);
        let js = r.metrics_json();
        let v = parse_json(&js).expect("valid json");
        let obj = v.as_object().unwrap();
        assert_eq!(
            obj.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["counters", "gauges", "histograms"]
        );
        let hist = v.get("histograms").unwrap().get("h_us").unwrap();
        assert_eq!(hist.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(hist.get("max").unwrap().as_f64(), Some(42.0));
    }

    #[test]
    fn prometheus_text_shape() {
        let r = Registry::new();
        r.counter("reqs").inc();
        r.histogram("lat_us").record(100);
        let page = r.prometheus_text();
        assert!(page.contains("# TYPE reqs counter\nreqs 1\n"));
        assert!(page.contains("# TYPE lat_us summary\n"));
        assert!(page.contains("lat_us{quantile=\"0.99\"}"));
        assert!(page.contains("lat_us_count 1\n"));
    }
}
