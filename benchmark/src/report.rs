//! Output: the result line the driver reads, the JSONL records, the
//! Chrome trace, the host fingerprint and the committed baseline.
//!
//! Every record is one line of JSON with stable field names, so a
//! question about a run is answered with `grep`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::harness::{results_dir, ChromeEvent, RunResult};
use crate::metrics::contract;
use crate::sut::{self, JsonValue};

/// Quotes a string for JSON.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits; a non-finite value prints as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One `(workload, metric)` record.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// `e2e` or `layer`.
    pub kind: String,
    /// Unit.
    pub unit: String,
    /// The value: of one run, or the median of `n` runs.
    pub value: f64,
    /// Smallest of the `n` runs.
    pub min: f64,
    /// Largest of the `n` runs.
    pub max: f64,
    /// Runs behind the value.
    pub n: usize,
}

impl Record {
    /// The JSONL line.
    pub fn line(&self) -> String {
        format!(
            "{{\"workload\":{},\"metric\":{},\"kind\":{},\"unit\":{},\"value\":{},\"min\":{},\"max\":{},\"n\":{}}}",
            quote(&self.workload),
            quote(&self.metric),
            quote(&self.kind),
            quote(&self.unit),
            num(self.value),
            num(self.min),
            num(self.max),
            self.n
        )
    }

    /// Parses a JSONL line written by [`line`](Self::line).
    pub fn parse(line: &str) -> Option<Record> {
        Record::from_json(&sut::json(line).ok()?)
    }

    fn from_json(v: &JsonValue) -> Option<Record> {
        let s = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        let f = |k: &str| v.get(k).and_then(JsonValue::as_f64);
        Some(Record {
            workload: s("workload")?,
            metric: s("metric")?,
            kind: s("kind")?,
            unit: s("unit")?,
            value: f("value")?,
            min: f("min")?,
            max: f("max")?,
            n: f("n")? as usize,
        })
    }
}

/// The records of one run: every end-to-end metric of an untraced run,
/// every per-layer metric of a traced one (0 where the workload has no
/// value for it).
pub fn records(workload: &str, trace: bool, result: &RunResult) -> Vec<Record> {
    let one = |metric: &str, kind: &str, unit: &str, value: f64| Record {
        workload: workload.to_string(),
        metric: metric.to_string(),
        kind: kind.to_string(),
        unit: unit.to_string(),
        value,
        min: value,
        max: value,
        n: 1,
    };
    let c = contract();
    if trace {
        c.layer
            .iter()
            .map(|m| {
                one(
                    &m.name,
                    "layer",
                    &m.unit,
                    result.layer.get(&m.name).unwrap_or(0.0),
                )
            })
            .collect()
    } else {
        c.e2e
            .iter()
            .map(|m| {
                one(
                    &m.name,
                    "e2e",
                    &m.unit,
                    result.e2e.get(&m.name).unwrap_or(f64::NAN),
                )
            })
            .collect()
    }
}

/// The last line of a run: what the driver reads.
pub fn result_line(records: &[Record], result: &RunResult) -> String {
    let finite = records.iter().all(|r| r.value.is_finite());
    let metrics: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&r.metric),
                num(r.value),
                quote(&r.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.failed == 0 && finite && result.attempted > 0,
        result.attempted.max(1),
        result.failed,
        metrics.join(",")
    )
}

/// Writes the traced repetition as Chrome `trace_event` JSON
/// (`about://tracing`, Perfetto) under `benchmark/results/`.
pub fn write_chrome(workload: &str, events: &[ChromeEvent]) -> std::io::Result<PathBuf> {
    let mut tracks: Vec<&str> = Vec::new();
    let mut body = String::new();
    for e in events {
        let tid = match tracks.iter().position(|t| *t == e.track) {
            Some(i) => i,
            None => {
                tracks.push(&e.track);
                tracks.len() - 1
            }
        };
        if !body.is_empty() {
            body.push_str(",\n");
        }
        let _ = write!(
            body,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"request\":{}}}}}",
            quote(&e.name),
            quote(&e.track),
            num(e.ts_us),
            num(e.dur_us),
            tid,
            e.request
        );
    }
    for (tid, track) in tracks.iter().enumerate() {
        let _ = write!(
            body,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            quote(track)
        );
    }
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, format!("{{\"traceEvents\":[\n{body}\n]}}\n"))?;
    Ok(path)
}

// ---- host fingerprint -----------------------------------------------------

/// What a number was measured on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical cores available to the process.
    pub cores: usize,
    /// CPU model name.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Git commit of the checkout, `unknown` outside a repository.
    pub commit: String,
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The commit `.git/HEAD` of the repo names, read without running git.
fn git_commit() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = read_trimmed(git.join("HEAD"))?;
    let full = match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read_trimmed(git.join(reference)).or_else(|| {
            read_trimmed(git.join("packed-refs"))?
                .lines()
                .find_map(|l| {
                    l.strip_suffix(reference)
                        .map(|hash| hash.trim().to_string())
                })
        })?,
    };
    Some(full.chars().take(12).collect())
}

impl Fingerprint {
    /// Reads the fingerprint of this host and build.
    pub fn read() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            rustc: env!("BENCH_RUSTC_VERSION").to_string(),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"cores\":{},\"cpu\":{},\"kernel\":{},\"rustc\":{},\"commit\":{}}}",
            self.cores,
            quote(&self.cpu),
            quote(&self.kernel),
            quote(&self.rustc),
            quote(&self.commit)
        )
    }

    fn parse(v: &JsonValue) -> Option<Self> {
        let s = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        Some(Fingerprint {
            cores: v.get("cores").and_then(JsonValue::as_f64)? as usize,
            cpu: s("cpu")?,
            kernel: s("kernel")?,
            rustc: s("rustc")?,
            commit: s("commit")?,
        })
    }

    /// Whether numbers from `other` compare with numbers from here:
    /// same cores, CPU, kernel and compiler (the commit may differ —
    /// that is what a comparison is for).
    pub fn comparable(&self, other: &Fingerprint) -> bool {
        self.cores == other.cores
            && self.cpu == other.cpu
            && self.kernel == other.kernel
            && self.rustc == other.rustc
    }
}

// ---- baseline -------------------------------------------------------------

/// The committed reference numbers.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Where they were measured.
    pub fingerprint: Fingerprint,
    /// Seed of the runs.
    pub seed: u64,
    /// Untraced runs behind each end-to-end record.
    pub reps: usize,
    /// One record per `(workload, metric)`.
    pub records: Vec<Record>,
}

/// `benchmark/baseline.json`.
pub fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline.json")
}

impl Baseline {
    /// The file's text: a header object, then one record per line.
    pub fn text(&self) -> String {
        let mut out = format!(
            "{{\"fingerprint\":{},\"seed\":{},\"reps\":{},\"records\":[\n",
            self.fingerprint.json(),
            self.seed,
            self.reps
        );
        let lines: Vec<String> = self.records.iter().map(Record::line).collect();
        out.push_str(&lines.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// Parses [`text`](Self::text).
    pub fn parse(text: &str) -> Option<Baseline> {
        let v = sut::json(text).ok()?;
        let records = v
            .get("records")?
            .as_array()?
            .iter()
            .map(Record::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(Baseline {
            fingerprint: Fingerprint::parse(v.get("fingerprint")?)?,
            seed: v.get("seed")?.as_f64()? as u64,
            reps: v.get("reps")?.as_f64()? as usize,
            records,
        })
    }

    /// Loads the committed baseline, if there is one.
    pub fn load() -> Option<Baseline> {
        Baseline::parse(&std::fs::read_to_string(baseline_path()).ok()?)
    }

    /// The baseline value of `(workload, metric)`.
    pub fn value(&self, workload: &str, metric: &str) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .map(|r| r.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> Record {
        Record {
            workload: "batch_shared".into(),
            metric: "ops_per_s".into(),
            kind: "e2e".into(),
            unit: "1/s".into(),
            value: 4.256087833111604,
            min: 4.1,
            max: 4.3,
            n: 5,
        }
    }

    #[test]
    fn record_lines_round_trip_with_all_digits() {
        let r = record();
        let line = r.line();
        assert!(line.contains("4.256087833111604"));
        assert!(!line.contains('\n'));
        assert_eq!(Record::parse(&line), Some(r));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut result = RunResult { attempted: 10, ..Default::default() };
        let recs = vec![record()];
        let v = sut::json(&result_line(&recs, &result)).expect("valid json");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("ops_per_s"))
            .expect("metric");
        assert_eq!(
            m.get("value").and_then(JsonValue::as_f64),
            Some(4.256087833111604)
        );
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("1/s"));
        assert!(result_line(&recs, &result).contains("\"correct\":true"));
        result.failed = 1;
        assert!(result_line(&recs, &result).contains("\"correct\":false"));
    }

    #[test]
    fn a_missing_end_to_end_metric_is_not_correct() {
        let result = RunResult { attempted: 3, ..Default::default() };
        let recs = records("batch_shared", false, &result);
        assert_eq!(recs.len(), contract().e2e.len());
        assert!(result_line(&recs, &result).contains("\"correct\":false"));
        // Per-layer metrics a workload has no value for print as 0.
        let layer = records("batch_shared", true, &result);
        assert_eq!(layer.len(), contract().layer.len());
        assert!(layer.iter().all(|r| r.value == 0.0 && r.kind == "layer"));
    }

    #[test]
    fn baseline_round_trips_and_fingerprints_compare() {
        let fp = Fingerprint {
            cores: 2,
            cpu: "Some \"CPU\" @ 2GHz".into(),
            kernel: "6.1".into(),
            rustc: "rustc 1.80".into(),
            commit: "abc".into(),
        };
        let b = Baseline { fingerprint: fp.clone(), seed: 1, reps: 5, records: vec![record()] };
        let back = Baseline::parse(&b.text()).expect("parses");
        assert_eq!(back.fingerprint, fp);
        assert_eq!(back.records, b.records);
        assert_eq!(
            back.value("batch_shared", "ops_per_s"),
            Some(4.256087833111604)
        );
        assert_eq!(back.value("batch_shared", "absent"), None);
        let other_commit = Fingerprint { commit: "def".into(), ..fp.clone() };
        assert!(fp.comparable(&other_commit));
        let other_host = Fingerprint { cores: 8, ..fp.clone() };
        assert!(!fp.comparable(&other_host));
    }

    #[test]
    fn quote_escapes_control_characters() {
        assert_eq!(quote("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
