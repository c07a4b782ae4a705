//! Shared-partition ratio analysis (paper Fig. 1(b)).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::JobSpan;

/// Number of graph partitions the per-job active sets are drawn over.
const NUM_PARTITIONS: usize = 64;
/// RNG seed for the per-job active sets.
const SEED: u64 = 0xBEEF;

/// Fraction of *active* partitions (needed by ≥ 1 job) that are needed by
/// **more than** `min_jobs` jobs — exactly the paper's Fig. 1(b) y-axis.
pub fn shared_ratio(job_sets: &[Vec<bool>], min_jobs: usize) -> f64 {
    if job_sets.is_empty() {
        return 0.0;
    }
    let np = job_sets[0].len();
    let mut active = 0usize;
    let mut shared = 0usize;
    for p in 0..np {
        let count = job_sets.iter().filter(|s| s[p]).count();
        if count >= 1 {
            active += 1;
            if count > min_jobs {
                shared += 1;
            }
        }
    }
    if active == 0 {
        0.0
    } else {
        shared as f64 / active as f64
    }
}

/// Samples Fig. 1(b): for each hour, the ratios of active partitions shared
/// by more than 1, 2, 4, 8 and 16 jobs.
///
/// Each running job's active set is drawn from its kind's coverage with a
/// popularity skew: low-id partitions (the core subgraph) are active for
/// every job, mirroring the skewed partition popularity the paper traces.
pub fn sample_shared_ratios(trace: &[JobSpan], hours: u32) -> Vec<[f64; 5]> {
    let thresholds = [1usize, 2, 4, 8, 16];
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..hours)
        .map(|h| {
            let t = h as f64 + 0.5;
            let sets: Vec<Vec<bool>> = trace
                .iter()
                .filter(|s| s.active_at(t))
                .map(|s| {
                    let coverage = s.kind.coverage();
                    (0..NUM_PARTITIONS)
                        .map(|p| {
                            // Popularity decays with partition id; hot
                            // partitions are in every job's active set.
                            let popularity = 1.0 - 0.6 * (p as f64 / NUM_PARTITIONS as f64);
                            rng.gen::<f64>() < coverage * popularity
                        })
                        .collect()
                })
                .collect();
            let mut row = [0.0f64; 5];
            for (i, &k) in thresholds.iter().enumerate() {
                row[i] = shared_ratio(&sets, k);
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_trace, TraceConfig};

    #[test]
    fn ratio_counts_strictly_more_than_k() {
        // Partition 0 used by 2 jobs, partition 1 by 1 job.
        let sets = vec![vec![true, true], vec![true, false]];
        assert!((shared_ratio(&sets, 1) - 0.5).abs() < 1e-12);
        assert_eq!(shared_ratio(&sets, 2), 0.0);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(shared_ratio(&[], 1), 0.0);
        let sets = vec![vec![false, false]];
        assert_eq!(shared_ratio(&sets, 0), 0.0);
    }

    #[test]
    fn ratios_monotone_in_threshold() {
        let cfg = TraceConfig::default();
        let trace = generate_trace(&cfg);
        let rows = sample_shared_ratios(&trace, 48);
        for row in rows {
            for w in row.windows(2) {
                assert!(w[0] >= w[1], "row not monotone: {row:?}");
            }
        }
    }

    #[test]
    fn busy_hours_share_more() {
        let cfg = TraceConfig::default();
        let trace = generate_trace(&cfg);
        let rows = sample_shared_ratios(&trace, cfg.hours);
        let counts = crate::workload::active_jobs_per_hour(&trace, cfg.hours);
        let busiest = (0..cfg.hours as usize).max_by_key(|&h| counts[h]).unwrap();
        let quietest = (0..cfg.hours as usize).min_by_key(|&h| counts[h]).unwrap();
        assert!(rows[busiest][0] >= rows[quietest][0]);
    }

    #[test]
    fn high_concurrency_reproduces_paper_headline() {
        // At hours with >= 4 jobs, >75 % of active partitions should be
        // shared by more than one job (the paper's headline observation).
        let cfg = TraceConfig::default();
        let trace = generate_trace(&cfg);
        let counts = crate::workload::active_jobs_per_hour(&trace, cfg.hours);
        let rows = sample_shared_ratios(&trace, cfg.hours);
        let busy: Vec<f64> = (0..cfg.hours as usize)
            .filter(|&h| counts[h] >= 4)
            .map(|h| rows[h][0])
            .collect();
        assert!(!busy.is_empty());
        let avg = busy.iter().sum::<f64>() / busy.len() as f64;
        assert!(avg > 0.75, "average shared ratio {avg}");
    }
}
