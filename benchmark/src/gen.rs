//! Seeded input generators.
//!
//! Every input the program sees — job mixes, source vertices, arrival
//! times, delta streams — is drawn here from the run's `--seed`; the
//! base graphs come from the repo's own seeded R-MAT generator.  The
//! same seed gives the same inputs; nothing below reads a clock or the
//! environment.

/// One job of a workload: the program and, where it has one, its source
/// vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobSpec {
    /// Delta-PageRank with the program's default damping and epsilon.
    PageRank,
    /// Single-source shortest paths.
    Sssp(u32),
    /// Breadth-first search.
    Bfs(u32),
    /// Weakly connected components.
    Wcc,
    /// Single-source widest paths.
    Sswp(u32),
    /// Forward reachability.
    Reach(u32),
}

impl JobSpec {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            JobSpec::PageRank => "PageRank",
            JobSpec::Sssp(_) => "SSSP",
            JobSpec::Bfs(_) => "BFS",
            JobSpec::Wcc => "WCC",
            JobSpec::Sswp(_) => "SSWP",
            JobSpec::Reach(_) => "Reachability",
        }
    }

    /// Whole-graph programs that run many iterations (PageRank, WCC),
    /// as opposed to the short source-rooted traversals.
    pub fn is_long(self) -> bool {
        matches!(self, JobSpec::PageRank | JobSpec::Wcc)
    }

    fn words(self) -> [u64; 2] {
        match self {
            JobSpec::PageRank => [1, 0],
            JobSpec::Sssp(s) => [2, s as u64],
            JobSpec::Bfs(s) => [3, s as u64],
            JobSpec::Wcc => [4, 0],
            JobSpec::Sswp(s) => [5, s as u64],
            JobSpec::Reach(s) => [6, s as u64],
        }
    }
}

/// One graph update: `(src, dst)` pairs to add (unit weight) and to
/// remove.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaSpec {
    /// Edges to add.
    pub adds: Vec<(u32, u32)>,
    /// Edges to remove; each was added by an earlier delta.
    pub removes: Vec<(u32, u32)>,
}

/// SplitMix64: small, seedable, and good enough to draw inputs from.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of the run seeded `seed`: distinct
    /// streams of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate (mean `1 / rate`).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

// Independent random streams of one seed.
const STREAM_MIX: u64 = 1;
const STREAM_ARRIVALS: u64 = 2;
const STREAM_DELTAS: u64 = 3;
const STREAM_ADHOC: u64 = 4;

/// Out-degree a vertex needs to be drawn as a traversal source, so a
/// source-rooted job does real work instead of converging at once.
pub const MIN_SOURCE_DEGREE: u32 = 4;

/// The vertices eligible as traversal sources, ascending.
pub fn eligible_sources(out_degrees: &[u32]) -> Vec<u32> {
    let picked: Vec<u32> = (0..out_degrees.len() as u32)
        .filter(|&v| out_degrees[v as usize] >= MIN_SOURCE_DEGREE)
        .collect();
    if picked.is_empty() {
        // A degenerate graph: fall back to every vertex.
        (0..out_degrees.len().max(1) as u32).collect()
    } else {
        picked
    }
}

fn draw(rng: &mut Rng, sources: &[u32]) -> u32 {
    sources[rng.below(sources.len() as u64) as usize]
}

/// The batch workloads' twelve jobs: two each of PageRank, SSSP, BFS,
/// WCC, SSWP and Reachability, sources drawn from `sources`.  Every
/// repetition of a run draws its own sources, so a run's medians do not
/// hang on one lucky or unlucky draw.
pub fn job_mix(seed: u64, repetition: u64, sources: &[u32]) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, STREAM_MIX.wrapping_add(repetition << 8));
    let programs: [fn(u32) -> JobSpec; 6] = [
        |_| JobSpec::PageRank,
        JobSpec::Sssp,
        JobSpec::Bfs,
        |_| JobSpec::Wcc,
        JobSpec::Sswp,
        JobSpec::Reach,
    ];
    let mut jobs = Vec::with_capacity(12);
    for program in programs {
        for _ in 0..2 {
            jobs.push(program(draw(&mut rng, sources)));
        }
    }
    jobs
}

/// One arrival of the serve workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrivalSpec {
    /// Seconds after the stream starts at which the job is due.
    pub due_s: f64,
    /// The job.
    pub job: JobSpec,
}

/// `count` arrivals at `rate` jobs per second with exponential gaps.
/// Every block of eight holds exactly one PageRank, one WCC and two
/// each of SSSP, BFS and SSWP in a seeded order, so the share of long
/// jobs is the same for every seed.
pub fn arrivals(seed: u64, count: usize, rate: f64, sources: &[u32]) -> Vec<ArrivalSpec> {
    let mut rng = Rng::new(seed, STREAM_ARRIVALS);
    let mut out = Vec::with_capacity(count);
    let mut due = 0.0;
    while out.len() < count {
        let mut block = [
            JobSpec::PageRank,
            JobSpec::Wcc,
            JobSpec::Sssp(draw(&mut rng, sources)),
            JobSpec::Sssp(draw(&mut rng, sources)),
            JobSpec::Bfs(draw(&mut rng, sources)),
            JobSpec::Bfs(draw(&mut rng, sources)),
            JobSpec::Sswp(draw(&mut rng, sources)),
            JobSpec::Sswp(draw(&mut rng, sources)),
        ];
        rng.shuffle(&mut block);
        for job in block {
            if out.len() == count {
                break;
            }
            due += rng.exp(rate);
            out.push(ArrivalSpec { due_s: due, job });
        }
    }
    out
}

fn additions(rng: &mut Rng, n: u32, per_delta: usize, fan_sources: usize) -> Vec<(u32, u32)> {
    let fan_sources = fan_sources.clamp(1, per_delta.max(1));
    // Sources spread over the vertex range: one per equal stripe.
    let stripe = (n as u64 / fan_sources as u64).max(1);
    let srcs: Vec<u32> = (0..fan_sources as u64)
        .map(|k| ((k * stripe + rng.below(stripe)) % n as u64) as u32)
        .collect();
    (0..per_delta)
        .map(|j| {
            let src = srcs[j % fan_sources];
            let mut dst = rng.below(n as u64) as u32;
            if dst == src {
                dst = (dst + 1) % n;
            }
            (src, dst)
        })
        .collect()
}

/// The ingest stream: every delta adds `per_delta` edges fanning out of
/// `fan_sources` spread sources and removes what the previous delta
/// added, so the graph stays the same size while every apply both adds
/// and removes.
pub fn churn_stream(
    seed: u64,
    n: u32,
    deltas: usize,
    per_delta: usize,
    fan_sources: usize,
) -> Vec<DeltaSpec> {
    let mut rng = Rng::new(seed, STREAM_DELTAS);
    let mut prev: Vec<(u32, u32)> = Vec::new();
    (0..deltas)
        .map(|_| {
            let adds = additions(&mut rng, n, per_delta, fan_sources);
            let removes = std::mem::replace(&mut prev, adds.clone());
            DeltaSpec { adds, removes }
        })
        .collect()
}

/// The standing-job stream: every delta adds `per_delta` edges; every
/// `removal_every`-th also removes the first `removals` edges the
/// previous delta added, which forces resumed jobs to start over.
pub fn growth_stream(
    seed: u64,
    n: u32,
    deltas: usize,
    per_delta: usize,
    removal_every: usize,
    removals: usize,
) -> Vec<DeltaSpec> {
    let mut rng = Rng::new(seed, STREAM_DELTAS);
    let mut prev: Vec<(u32, u32)> = Vec::new();
    (0..deltas)
        .map(|i| {
            let adds = additions(&mut rng, n, per_delta, 8);
            let removes = if removal_every > 0 && (i + 1) % removal_every == 0 {
                prev.iter().take(removals).copied().collect()
            } else {
                Vec::new()
            };
            prev = adds.clone();
            DeltaSpec { adds, removes }
        })
        .collect()
}

/// The serve store's history: `snapshots` deltas, each adding `churn`
/// random edges and removing `churn` edges of the base graph (distinct
/// base edges, so every removal finds its edge).
pub fn evolve_stream(
    seed: u64,
    base: &[(u32, u32)],
    n: u32,
    snapshots: usize,
    churn: usize,
) -> Vec<DeltaSpec> {
    let mut rng = Rng::new(seed, STREAM_DELTAS);
    let mut victims: Vec<u32> = (0..base.len() as u32).collect();
    rng.shuffle(&mut victims);
    let churn = churn.min(base.len() / snapshots.max(1));
    (0..snapshots)
        .map(|i| DeltaSpec {
            adds: additions(&mut rng, n, churn, 8),
            removes: victims[i * churn..(i + 1) * churn]
                .iter()
                .map(|&e| base[e as usize])
                .collect(),
        })
        .collect()
}

/// One seed-drawn source per version for the standing workload's
/// from-scratch job.
pub fn adhoc_sources(seed: u64, versions: usize, sources: &[u32]) -> Vec<u32> {
    let mut rng = Rng::new(seed, STREAM_ADHOC);
    (0..versions).map(|_| draw(&mut rng, sources)).collect()
}

// ---- input hashes ---------------------------------------------------

/// FNV-1a over a stream of 64-bit words.
pub fn hash_words<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Hash of a graph's `(src, dst, weight)` triples.
pub fn hash_edges<I: IntoIterator<Item = (u32, u32, f32)>>(edges: I) -> u64 {
    hash_words(
        edges
            .into_iter()
            .flat_map(|(s, d, w)| [s as u64, d as u64, w.to_bits() as u64]),
    )
}

/// Hash of a job list.
pub fn hash_jobs(jobs: &[JobSpec]) -> u64 {
    hash_words(jobs.iter().flat_map(|j| j.words()))
}

/// Hash of an arrival stream.
pub fn hash_arrivals(arrivals: &[ArrivalSpec]) -> u64 {
    hash_words(arrivals.iter().flat_map(|a| {
        let [k, s] = a.job.words();
        [a.due_s.to_bits(), k, s]
    }))
}

/// Hash of a delta stream.
pub fn hash_deltas(deltas: &[DeltaSpec]) -> u64 {
    hash_words(deltas.iter().flat_map(|d| {
        let pairs = |v: &[(u32, u32)]| -> Vec<u64> {
            std::iter::once(v.len() as u64)
                .chain(v.iter().flat_map(|&(s, t)| [s as u64, t as u64]))
                .collect()
        };
        let mut w = pairs(&d.adds);
        w.extend(pairs(&d.removes));
        w
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut;

    fn degrees() -> Vec<u32> {
        (0..512u32).map(|v| v % 9).collect()
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let deg = degrees();
        let src = eligible_sources(&deg);
        let graph = |seed| hash_edges(sut::edge_triples(&sut::build_graph(8, 4, seed)));
        assert_eq!(graph(7), graph(7));
        assert_ne!(graph(7), graph(8));

        let mix = |seed| hash_jobs(&job_mix(seed, 0, &src));
        assert_eq!(mix(7), mix(7));
        assert_ne!(mix(7), mix(8));
        assert_ne!(job_mix(7, 0, &src), job_mix(7, 1, &src));

        let arr = |seed| hash_arrivals(&arrivals(seed, 64, 18.0, &src));
        assert_eq!(arr(7), arr(7));
        assert_ne!(arr(7), arr(8));

        let churn = |seed| hash_deltas(&churn_stream(seed, 512, 20, 16, 4));
        assert_eq!(churn(7), churn(7));
        assert_ne!(churn(7), churn(8));

        let growth = |seed| hash_deltas(&growth_stream(seed, 512, 20, 16, 10, 4));
        assert_eq!(growth(7), growth(7));
        assert_ne!(growth(7), growth(8));

        assert_eq!(adhoc_sources(7, 10, &src), adhoc_sources(7, 10, &src));
        assert_ne!(adhoc_sources(7, 10, &src), adhoc_sources(8, 10, &src));
    }

    #[test]
    fn job_mix_has_two_of_each_program_with_eligible_sources() {
        let deg = degrees();
        let src = eligible_sources(&deg);
        let jobs = job_mix(3, 0, &src);
        assert_eq!(jobs.len(), 12);
        for name in ["PageRank", "SSSP", "BFS", "WCC", "SSWP", "Reachability"] {
            assert_eq!(
                jobs.iter().filter(|j| j.name() == name).count(),
                2,
                "{name}"
            );
        }
        for j in jobs {
            if let JobSpec::Sssp(s) | JobSpec::Bfs(s) | JobSpec::Sswp(s) | JobSpec::Reach(s) = j {
                assert!(deg[s as usize] >= MIN_SOURCE_DEGREE);
            }
        }
    }

    #[test]
    fn arrival_blocks_fix_the_share_of_long_jobs() {
        let src = eligible_sources(&degrees());
        let a = arrivals(11, 240, 18.0, &src);
        assert_eq!(a.len(), 240);
        assert_eq!(a.iter().filter(|x| x.job == JobSpec::PageRank).count(), 30);
        assert_eq!(a.iter().filter(|x| x.job == JobSpec::Wcc).count(), 30);
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        // 240 arrivals at 18/s take about 13.3 s.
        let last = a.last().unwrap().due_s;
        assert!(last > 9.0 && last < 18.0, "last due {last}");
    }

    #[test]
    fn churn_removes_exactly_what_the_previous_delta_added() {
        let s = churn_stream(5, 1000, 6, 16, 4);
        assert!(s[0].removes.is_empty());
        for w in s.windows(2) {
            assert_eq!(w[1].removes, w[0].adds);
        }
        for d in &s {
            assert_eq!(d.adds.len(), 16);
            assert!(d.adds.iter().all(|&(a, b)| a != b && a < 1000 && b < 1000));
            let mut srcs: Vec<u32> = d.adds.iter().map(|e| e.0).collect();
            srcs.sort_unstable();
            srcs.dedup();
            assert!(srcs.len() <= 4);
        }
    }

    #[test]
    fn growth_removes_only_on_every_nth_delta() {
        let s = growth_stream(5, 1000, 30, 16, 10, 4);
        for (i, d) in s.iter().enumerate() {
            if (i + 1) % 10 == 0 {
                assert_eq!(d.removes, s[i - 1].adds[..4].to_vec());
            } else {
                assert!(d.removes.is_empty());
            }
        }
    }

    #[test]
    fn evolve_removes_distinct_base_edges() {
        let base: Vec<(u32, u32)> = (0..100u32).map(|i| (i, (i + 1) % 100)).collect();
        let s = evolve_stream(3, &base, 100, 4, 5);
        assert_eq!(s.len(), 4);
        let mut removed: Vec<(u32, u32)> = s.iter().flat_map(|d| d.removes.clone()).collect();
        assert_eq!(removed.len(), 20);
        removed.sort_unstable();
        removed.dedup();
        assert_eq!(removed.len(), 20, "each base edge is removed at most once");
        assert!(s.iter().all(|d| d.adds.len() == 5));
        assert_eq!(
            hash_deltas(&s),
            hash_deltas(&evolve_stream(3, &base, 100, 4, 5))
        );
        assert_ne!(
            hash_deltas(&s),
            hash_deltas(&evolve_stream(4, &base, 100, 4, 5))
        );
    }

    #[test]
    fn rng_streams_are_independent_and_uniform_enough() {
        let mut a = Rng::new(1, 1);
        let mut b = Rng::new(1, 2);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut r = Rng::new(9, 9);
        let mean: f64 = (0..10_000).map(|_| r.unit()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02);
        let mean_gap: f64 = (0..10_000).map(|_| r.exp(20.0)).sum::<f64>() / 10_000.0;
        assert!((mean_gap - 0.05).abs() < 0.005);
    }
}
