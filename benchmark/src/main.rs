//! The repo benchmark: wall-clock end-to-end and per-layer metrics over
//! five workloads.  See `benchmark/README.md`.
//!
//! ```text
//! cgraph-benchmark --workload W --seed N --seconds S --trace 0|1   one run
//! cgraph-benchmark --all [--seed N] [--reps R]                     every workload
//! cgraph-benchmark --check-repeat [--seed N] [--reps R]
//! cgraph-benchmark --write-baseline [--seed N] [--reps R]
//! (--all and --check-repeat take --workload W to run only W)
//! cgraph-benchmark --smoke                                         tiny, checks only
//! ```

mod gen;
mod harness;
mod metrics;
mod oracle;
mod report;
mod runner;
mod spans;
mod stats;
mod sut;
mod workloads;

use harness::{RunCtx, Sizes};
use report::Fingerprint;
use runner::SetOpts;

/// Seed of the multi-run modes unless `--seed` is given.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str =
    "usage: cgraph-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       cgraph-benchmark --all | --check-repeat | --write-baseline [--seed <n>] [--reps <r>]
       cgraph-benchmark --smoke";

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    reps: Option<usize>,
    mode: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => {
                out.seed = Some(value()?.parse().map_err(|_| "--seed: not a whole number")?)
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err("--seconds: must be in (0, 3600]".to_string());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".to_string()),
                })
            }
            "--reps" => {
                let r: usize = value()?.parse().map_err(|_| "--reps: not a whole number")?;
                if !(2..=100).contains(&r) {
                    return Err("--reps: must be in 2..=100".to_string());
                }
                out.reps = Some(r);
            }
            "--all" | "--check-repeat" | "--write-baseline" | "--smoke" => {
                if out.mode.replace(flag.clone()).is_some() {
                    return Err("one mode at a time".to_string());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// One run of one workload: prints the header, one JSONL record per
/// metric and, last, the result line the driver reads.  `seconds` is
/// what the driver passed and is only echoed: a run does a fixed amount
/// of work (see [`Sizes`]).
fn run_one(workload: &str, ctx: &RunCtx, seconds: f64) -> i32 {
    let result = workloads::run(workload, ctx).expect("workload is defined");
    println!(
        "# cgraph-benchmark workload={workload} seed={} seconds={seconds} trace={}",
        ctx.seed, ctx.trace as u8
    );
    println!("# host: {}", Fingerprint::read().json());
    println!(
        "# engine: workers={} wavefront={} prefetch_depth={} io_workers=0",
        sut::WORKERS,
        sut::WAVEFRONT,
        sut::PREFETCH_DEPTH
    );
    for note in &result.notes {
        println!("# {note}");
    }
    if ctx.trace {
        match report::write_chrome(workload, &result.chrome) {
            Ok(path) => println!("# chrome trace: {}", path.display()),
            Err(e) => println!("# chrome trace not written: {e}"),
        }
    }
    let records = report::records(workload, ctx.trace, &result);
    for r in &records {
        println!("{}", r.line());
    }
    println!("{}", report::result_line(&records, &result));
    0
}

/// `--smoke`: every workload once at tiny sizes, traced, so every code
/// path and every oracle check runs.
fn smoke() -> i32 {
    let ctx = RunCtx { seed: DEFAULT_SEED, trace: true, sizes: Sizes::smoke() };
    let mut bad = 0;
    for w in &metrics::contract().workloads {
        let r = workloads::run(w, &ctx).expect("workload is defined");
        let dropped = r.layer.get("obs.dropped_events").unwrap_or(0.0);
        let ok = r.failed == 0 && r.attempted > 0 && dropped == 0.0;
        println!(
            "{w}: {} checks, {} failed, {} dropped events: {}",
            r.attempted,
            r.failed,
            dropped,
            if ok { "ok" } else { "FAILED" }
        );
        for note in r.notes.iter().filter(|n| n.starts_with("FAILED")) {
            println!("  {note}");
        }
        bad += i32::from(!ok);
    }
    i32::from(bad > 0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let set = SetOpts {
        only: args.workload.as_deref(),
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        reps: args.reps.unwrap_or(3),
    };
    let names = &metrics::contract().workloads;
    if let Some(w) = set.only.filter(|w| !names.iter().any(|n| n == w)) {
        eprintln!("error: unknown workload {w}; one of {}", names.join(", "));
        std::process::exit(2);
    }
    let code = match (args.mode.as_deref(), &args.workload) {
        (Some("--smoke"), None) => smoke(),
        (Some("--all"), _) => runner::all(&set),
        (Some("--check-repeat"), _) => runner::check_repeat(&set),
        (Some("--write-baseline"), None) => {
            runner::write_baseline(&SetOpts { reps: args.reps.unwrap_or(5), ..set })
        }
        (None, Some(workload)) => match (args.seed, args.seconds, args.trace) {
            (Some(seed), Some(seconds), Some(trace)) => run_one(
                workload,
                &RunCtx { seed, trace, sizes: Sizes::full() },
                seconds,
            ),
            _ => {
                eprintln!("error: --workload needs --seed, --seconds and --trace\n{USAGE}");
                2
            }
        },
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&argv(
            "--workload batch_shared --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("batch_shared"));
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(7), Some(12.0), Some(true))
        );
        assert_eq!(a.mode, None);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&argv("--seed x")).is_err());
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--seconds")).is_err());
        assert!(parse(&argv("--trace 2")).is_err());
        assert!(parse(&argv("--reps 1")).is_err());
        assert!(parse(&argv("--all --smoke")).is_err());
        assert!(parse(&argv("--frobnicate")).is_err());
    }

    /// Every workload at smoke sizes: all oracle checks execute and
    /// pass, every end-to-end metric is positive, no event is dropped.
    #[test]
    fn smoke_sizes_pass_every_check() {
        for trace in [false, true] {
            let ctx = RunCtx { seed: 5, trace, sizes: Sizes::smoke() };
            for w in &metrics::contract().workloads {
                let r = workloads::run(w, &ctx).expect("defined");
                assert_eq!(r.failed, 0, "{w} trace={trace}: {:?}", r.notes);
                assert!(r.attempted > 0, "{w}");
                for m in &metrics::contract().e2e {
                    let v = r.e2e.get(&m.name).unwrap_or(f64::NAN);
                    assert!(v.is_finite() && v > 0.0, "{w} {} = {v}", m.name);
                }
                if trace {
                    assert_eq!(r.layer.get("obs.dropped_events"), Some(0.0), "{w}");
                    assert_eq!(r.layer.get("run.failed_share"), Some(0.0), "{w}");
                }
            }
        }
    }
}
