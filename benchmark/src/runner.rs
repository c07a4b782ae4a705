//! `--all`, `--check-repeat` and `--write-baseline`: each workload runs
//! in a child process of its own (so `peak_rss_mb` is per workload),
//! several untraced runs for the end-to-end medians and one traced run
//! for the per-layer numbers.

use std::process::{Command, Stdio};

use crate::metrics::contract;
use crate::report::{baseline_path, Baseline, Fingerprint, Record};
use crate::stats;

/// What the multi-run modes share.
#[derive(Clone, Copy, Debug)]
pub struct SetOpts<'a> {
    /// The one workload to run, or every workload.
    pub only: Option<&'a str>,
    /// Input seed of every run.
    pub seed: u64,
    /// Untraced runs per workload (at least 2).
    pub reps: usize,
}

impl SetOpts<'_> {
    /// The workloads these options select.
    fn workloads(&self) -> impl Iterator<Item = &'static str> + '_ {
        contract()
            .workloads
            .iter()
            .map(String::as_str)
            .filter(move |w| self.only.is_none_or(|name| name == *w))
    }
}

/// One child run's records plus its verdict.
struct ChildRun {
    records: Vec<Record>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// Runs one workload once in a child process and reads back its JSONL
/// records and result line.
fn child(workload: &str, opts: &SetOpts, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &contract().run_seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {workload} run exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let records: Vec<Record> = text.lines().filter_map(Record::parse).collect();
    let last = text.lines().last().unwrap_or_default();
    let verdict =
        crate::sut::json(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let field = |k: &str| verdict.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
    Ok(ChildRun {
        records,
        correct: last.contains("\"correct\":true"),
        attempted: field("attempted"),
        failed: field("failed"),
    })
}

/// The median record of several runs' records for one metric.
fn fold(runs: &[&Record]) -> Record {
    let values: Vec<f64> = runs.iter().map(|r| r.value).collect();
    Record {
        value: stats::median(&values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
        ..runs[0].clone()
    }
}

/// One full set: every workload, `reps` untraced runs and (when
/// `traced`) one traced run.  Returns the folded records and whether
/// every run was correct.
fn run_set(opts: &SetOpts, traced: bool) -> Result<(Vec<Record>, bool), String> {
    let mut all = Vec::new();
    let mut correct = true;
    for w in opts.workloads() {
        let mut runs = Vec::with_capacity(opts.reps);
        for rep in 0..opts.reps.max(2) {
            let run = child(w, opts, false)?;
            eprintln!(
                "# {} run {}/{}: attempted {}, failed {}",
                w,
                rep + 1,
                opts.reps.max(2),
                run.attempted,
                run.failed
            );
            correct &= run.correct;
            runs.push(run);
        }
        for m in &contract().e2e {
            let of_metric: Vec<&Record> = runs
                .iter()
                .filter_map(|r| r.records.iter().find(|x| x.metric == m.name))
                .collect();
            if of_metric.len() != runs.len() {
                return Err(format!("{}: a run did not report {}", w, m.name));
            }
            all.push(fold(&of_metric));
        }
        if traced {
            let run = child(w, opts, true)?;
            eprintln!(
                "# {} traced run: attempted {}, failed {}",
                w, run.attempted, run.failed
            );
            correct &= run.correct;
            all.extend(run.records);
        }
    }
    Ok((all, correct))
}

fn print_header(mode: &str, opts: &SetOpts, fp: &Fingerprint) {
    println!(
        "# cgraph-benchmark {mode} seed={} reps={}",
        opts.seed, opts.reps
    );
    println!("# host: {}", fp.json());
}

/// Prints the records as JSONL, each followed (as a comment) by its
/// ratio to the committed baseline where there is one.
fn print_records(records: &[Record], baseline: Option<&Baseline>) {
    for r in records {
        println!("{}", r.line());
        if let Some(base) = baseline.and_then(|b| b.value(&r.workload, &r.metric)) {
            if r.kind == "e2e" && base != 0.0 {
                println!(
                    "#   {} / baseline {} = {:.4}",
                    r.value,
                    base,
                    r.value / base
                );
            }
        }
    }
}

/// `--all`: one full set, printed as JSONL and compared with the
/// committed baseline.  Returns the process exit code.
pub fn all(opts: &SetOpts) -> i32 {
    let fp = Fingerprint::read();
    print_header("--all", opts, &fp);
    let baseline = Baseline::load();
    match &baseline {
        Some(b) if !b.fingerprint.comparable(&fp) => println!(
            "# WARNING: the baseline was measured on a different host or compiler ({}); \
             ratios to it compare hosts, not code",
            b.fingerprint.json()
        ),
        Some(b) if b.seed != opts.seed => println!(
            "# WARNING: the baseline used seed {}; ratios to it compare inputs too",
            b.seed
        ),
        Some(_) => {}
        None => println!("# no baseline at {}", baseline_path().display()),
    }
    match run_set(opts, true) {
        Ok((records, correct)) => {
            print_records(&records, baseline.as_ref());
            println!("# every run correct: {correct}");
            i32::from(!correct)
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// `--check-repeat`: two sets of untraced runs of the same code; fails
/// when the two medians of any end-to-end metric differ, either way, by
/// more than the metric's own bound.
pub fn check_repeat(opts: &SetOpts) -> i32 {
    let fp = Fingerprint::read();
    print_header("--check-repeat", opts, &fp);
    let sets = (run_set(opts, false), run_set(opts, false));
    let ((first, ok_a), (second, ok_b)) = match sets {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let mut violations = 0;
    for (a, b) in first.iter().zip(&second) {
        let def = contract()
            .e2e
            .iter()
            .find(|m| m.name == a.metric)
            .expect("records hold e2e metrics only");
        let differ = stats::difference(a.value, b.value);
        let verdict = if differ > def.bound {
            "EXCEEDS"
        } else {
            "within"
        };
        violations += usize::from(differ > def.bound);
        println!(
            "{} {}: first {} second {} {} differ by {:.4} {verdict} bound {}",
            a.workload, a.metric, a.value, b.value, a.unit, differ, def.bound
        );
    }
    println!("# every run correct: {}", ok_a && ok_b);
    println!("# metrics beyond their bound: {violations}");
    i32::from(violations > 0 || !ok_a || !ok_b)
}

/// `--write-baseline`: one full set written to `benchmark/baseline.json`.
pub fn write_baseline(opts: &SetOpts) -> i32 {
    let fp = Fingerprint::read();
    print_header("--write-baseline", opts, &fp);
    match run_set(opts, true) {
        Ok((records, correct)) => {
            print_records(&records, None);
            if !correct {
                eprintln!("error: a run was not correct; baseline not written");
                return 1;
            }
            let b = Baseline { fingerprint: fp, seed: opts.seed, reps: opts.reps, records };
            match std::fs::write(baseline_path(), b.text()) {
                Ok(()) => {
                    println!("# wrote {}", baseline_path().display());
                    0
                }
                Err(e) => {
                    eprintln!("error: cannot write the baseline: {e}");
                    2
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_reports_median_min_max_and_count() {
        let rec = |v: f64| Record {
            workload: "w".into(),
            metric: "m".into(),
            kind: "e2e".into(),
            unit: "s".into(),
            value: v,
            min: v,
            max: v,
            n: 1,
        };
        let (a, b, c) = (rec(3.0), rec(1.0), rec(2.0));
        let f = fold(&[&a, &b, &c]);
        assert_eq!((f.value, f.min, f.max, f.n), (2.0, 1.0, 3.0, 3));
        assert_eq!(f.metric, "m");
    }
}
