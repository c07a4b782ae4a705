//! Figure 1: (a) concurrent CGP jobs over a week-long trace;
//! (b) ratio of active partitions shared by more than k jobs.

use cgraph_bench::print_table;
use cgraph_trace::{active_jobs_per_hour, generate_trace, sample_shared_ratios, TraceConfig};

fn main() {
    let cfg = TraceConfig::default();
    let trace = generate_trace(&cfg);
    let counts = active_jobs_per_hour(&trace, cfg.hours);

    // (a) hourly concurrency, summarized per day.
    let mut rows = Vec::new();
    for day in 0..(cfg.hours / 24) {
        let slice = &counts[(day * 24) as usize..((day + 1) * 24) as usize];
        rows.push(vec![
            format!("day {}", day + 1),
            format!("{}", slice.iter().min().unwrap()),
            format!("{:.1}", slice.iter().map(|&c| c as f64).sum::<f64>() / 24.0),
            format!("{}", slice.iter().max().unwrap()),
        ]);
    }
    print_table(
        "Fig. 1(a): concurrent CGP jobs per day (min/avg/peak)",
        &["day", "min", "avg", "peak"],
        &rows,
    );
    println!(
        "\ntrace: {} jobs over {} h; peak concurrency {} (paper: >20 at peak)",
        trace.len(),
        cfg.hours,
        counts.iter().max().unwrap(),
    );

    // (b) shared-partition ratios at the paper's thresholds.
    let ratios = sample_shared_ratios(&trace, cfg.hours);
    let thresholds = ["#>1", "#>2", "#>4", "#>8", "#>16"];
    let mut rows = Vec::new();
    for (h, row) in ratios.iter().enumerate().step_by(24) {
        let mut cells = vec![format!("hour {h}")];
        cells.extend(row.iter().map(|r| format!("{:.0}%", r * 100.0)));
        rows.push(cells);
    }
    let avg: Vec<f64> = (0..5)
        .map(|i| ratios.iter().map(|r| r[i]).sum::<f64>() / ratios.len() as f64)
        .collect();
    let mut cells = vec!["average".to_string()];
    cells.extend(avg.iter().map(|r| format!("{:.0}%", r * 100.0)));
    rows.push(cells);
    print_table(
        "Fig. 1(b): ratio of active partitions shared by more than k jobs",
        &[
            "sample",
            thresholds[0],
            thresholds[1],
            thresholds[2],
            thresholds[3],
            thresholds[4],
        ],
        &rows,
    );
    println!(
        "\npaper: intersections exceed 75% of active partitions on average; ours: {:.0}%",
        avg[0] * 100.0,
    );
}
