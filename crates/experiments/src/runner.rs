//! Running simulations: seed fan-out, averaging and CDFs.

use comap_mac::time::SimDuration;
use comap_sim::config::SimConfig;
use comap_sim::frame::NodeId;
use comap_sim::sim::Simulator;
use comap_sim::stats::SimReport;

/// Runs one configuration per seed and returns the reports in seed
/// order.
///
/// The work is spread over at most
/// [`std::thread::available_parallelism`] worker threads (not one thread
/// per seed — a 500-seed CDF sweep must not spawn 500 OS threads).
/// Workers pull seed indices from a shared counter and write each report
/// into its seed's slot, so the output order — and, since every
/// simulation is deterministic in its seed, the output itself — does not
/// depend on scheduling.
#[expect(
    clippy::expect_used,
    reason = "lock poisoning means a worker already panicked, and scope() has joined every \
              worker, so poisoning re-raises their panic; the index loop covers \
              0..seeds.len(), so every slot was written"
)]
pub fn run_many<F>(build: F, seeds: &[u64], duration: SimDuration) -> Vec<SimReport>
where
    F: Fn(u64) -> SimConfig + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    if seeds.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(seeds.len());
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<SimReport>>> = Mutex::new(vec![None; seeds.len()]);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= seeds.len() {
                    break;
                }
                let report = Simulator::new(build(seeds[i])).run(duration);
                out.lock().expect("no panics while holding the lock")[i] = Some(report);
            });
        }
    });
    out.into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// Mean goodput of one directed link across seeds, in bits/s.
pub fn average_goodput<F>(
    build: F,
    seeds: &[u64],
    duration: SimDuration,
    link: (NodeId, NodeId),
) -> f64
where
    F: Fn(u64) -> SimConfig + Sync,
{
    let reports = run_many(build, seeds, duration);
    reports
        .iter()
        .map(|r| r.link_goodput_bps(link.0, link.1))
        .sum::<f64>()
        / reports.len() as f64
}

/// An empirical cumulative distribution function.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// The mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics when the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of an empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile order must be in [0, 1]");
        // Nearest rank, with `quantile(0.0)` pinned to the smallest
        // sample (rank never drops below 1). `q ≤ 1` keeps the ceiling
        // within bounds.
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1);
        self.sorted[rank - 1]
    }

    /// `P(X ≤ x)`, by binary search over the sorted samples.
    pub fn probability_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let below = self.sorted.partition_point(|&v| v <= x);
        below as f64 / self.sorted.len() as f64
    }

    /// `(value, cumulative probability)` points for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// Builds an empirical CDF from samples.
pub fn empirical_cdf(mut samples: Vec<f64>) -> Cdf {
    samples.retain(|v| v.is_finite());
    samples.sort_by(f64::total_cmp);
    Cdf { sorted: samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comap_radio::Position;
    use comap_sim::config::{NodeSpec, Traffic};

    fn tiny(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::testbed(seed);
        let a = cfg.add_node(NodeSpec::client("a", Position::new(0.0, 0.0)));
        let b = cfg.add_node(NodeSpec::ap("b", Position::new(8.0, 0.0)));
        cfg.add_flow(a, b, Traffic::Saturated);
        cfg
    }

    #[test]
    fn run_many_preserves_seed_order_and_determinism() {
        let d = SimDuration::from_millis(50);
        let a = run_many(tiny, &[1, 2, 3], d);
        let b = run_many(tiny, &[1, 2, 3], d);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.links, y.links);
        }
    }

    #[test]
    fn average_goodput_is_positive() {
        let g = average_goodput(
            tiny,
            &[1, 2],
            SimDuration::from_millis(100),
            (NodeId(0), NodeId(1)),
        );
        assert!(g > 1e6, "goodput = {g}");
    }

    #[test]
    fn cdf_basics() {
        let cdf = empirical_cdf(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.mean(), 2.5);
        assert_eq!(cdf.quantile(0.5), 2.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.probability_at(2.5), 0.5);
        assert_eq!(cdf.points().last().unwrap().1, 1.0);
    }

    #[test]
    fn quantile_zero_is_the_smallest_sample() {
        let cdf = empirical_cdf(vec![5.0, 1.5, 9.0]);
        assert_eq!(cdf.quantile(0.0), 1.5);
        assert_eq!(cdf.quantile(1.0), 9.0);
        // A single-sample CDF answers every quantile with that sample.
        let one = empirical_cdf(vec![7.0]);
        assert_eq!(one.quantile(0.0), 7.0);
        assert_eq!(one.quantile(1.0), 7.0);
    }

    #[test]
    fn probability_at_counts_ties_and_boundaries() {
        let cdf = empirical_cdf(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(cdf.probability_at(0.5), 0.0);
        assert_eq!(cdf.probability_at(2.0), 0.75);
        assert_eq!(cdf.probability_at(3.0), 1.0);
        assert_eq!(cdf.probability_at(99.0), 1.0);
        assert_eq!(empirical_cdf(vec![]).probability_at(1.0), 0.0);
    }

    #[test]
    fn run_many_queues_past_the_worker_pool() {
        // More seeds than any plausible core count: indices must still
        // map to their seeds after queueing through the bounded pool.
        let seeds: Vec<u64> = (1..=40).collect();
        let d = SimDuration::from_millis(5);
        let reports = run_many(tiny, &seeds, d);
        assert_eq!(reports.len(), seeds.len());
        let direct = Simulator::new(tiny(17)).run(d);
        assert_eq!(reports[16].links, direct.links);
        assert!(run_many(tiny, &[], d).is_empty());
    }

    #[test]
    fn cdf_drops_non_finite() {
        let cdf = empirical_cdf(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty CDF")]
    fn empty_quantile_panics() {
        let _ = empirical_cdf(vec![]).quantile(0.5);
    }
}
