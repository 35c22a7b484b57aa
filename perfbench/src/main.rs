//! `perfbench` — the CO-MAP simulator's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//! perfbench --record-digests <seed>[,<seed>|<lo>-<hi>...]
//! ```
//!
//! `--trace 0` times whole jobs (`Simulator::new` plus `run`) through the
//! public API and prints the end-to-end metrics; `--trace 1` replays each
//! job layer by layer (see `traced.rs`) and prints the per-layer metrics.
//! Both print one JSON object as the last line of standard output and
//! exit 0 only when every job passed its output check.

mod check;
mod layers;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use comap_sim::{LatencySink, MetricsSink, Observer, SimConfig, SimReport, Simulator};

use check::Digests;
use workloads::Workload;

pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]\n       perfbench --record-digests <seeds>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, seeds] = argv.as_slice() {
        if flag == "--record-digests" {
            return match parse_seeds(seeds) {
                Some(seeds) => {
                    record_digests(&seeds);
                    ExitCode::SUCCESS
                }
                None => usage(),
            };
        }
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let digests = Digests::reference();
    let outcome = if args.trace {
        layers::run(&args, &digests)
    } else {
        end_to_end(&args, &digests)
    };
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_out) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value)?),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--spans-out" => spans_out = Some(value.clone()),
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
        spans_out,
    })
}

/// `"1,4,10-12"` → `[1, 4, 10, 11, 12]`.
fn parse_seeds(text: &str) -> Option<Vec<u64>> {
    let mut seeds = Vec::new();
    for part in text.split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => seeds.extend(lo.parse::<u64>().ok()?..=hi.parse().ok()?),
            None => seeds.push(part.parse().ok()?),
        }
    }
    Some(seeds)
}

/// The sinks a job of `workload` runs with, as `--metrics` and
/// `--latency-json` attach them.
pub fn sinks(workload: Workload) -> Vec<Box<dyn Observer>> {
    if workload.observed() {
        vec![Box::new(MetricsSink::new()), Box::new(LatencySink::new())]
    } else {
        Vec::new()
    }
}

/// One untraced job: its report and the wall time of `Simulator::new`
/// and of `run`.
pub struct Timed {
    pub report: SimReport,
    pub setup: Duration,
    pub run: Duration,
}

/// Runs one job through the public API only.
pub fn timed_job(workload: Workload, cfg: SimConfig) -> Timed {
    let sinks = sinks(workload);
    let started = Instant::now();
    let mut sim = Simulator::new(cfg);
    let setup = started.elapsed();
    let started = Instant::now();
    for sink in sinks {
        sim.attach_sink(sink);
    }
    let report = sim.run(workload.duration());
    Timed {
        report,
        setup,
        run: started.elapsed(),
    }
}

/// The result line and the tallies behind it.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks a job's report, printing every violation to standard error.
/// Returns `true` when it passed.
pub fn passes(digests: &Digests, args: &Args, job: usize, report: &SimReport) -> bool {
    let name = args.workload.name();
    let errors = check::check(report, digests.get(name, args.seed, job));
    for e in &errors {
        eprintln!("FAILED {name} seed {} job {job}: {e}", args.seed);
    }
    errors.is_empty()
}

/// The `p`-quantile (0..=1) of `values` by the nearest-rank rule.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run: the job set in order, wrapping around, until
/// `--seconds` have elapsed (at least one job).
fn end_to_end(args: &Args, digests: &Digests) -> Outcome {
    let w = args.workload;
    let jobs: Vec<SimConfig> = (0..w.jobs()).map(|j| w.job(args.seed, j)).collect();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let (mut run_wall, mut sim_secs) = (0.0, 0.0);
    let mut failed = 0u64;
    while walls.is_empty() || started.elapsed() < budget {
        let j = walls.len() % jobs.len();
        let t = timed_job(w, jobs[j].clone());
        if !passes(digests, args, j, &t.report) {
            failed += 1;
        }
        setups.push(t.setup.as_secs_f64());
        walls.push((t.setup + t.run).as_secs_f64());
        run_wall += t.run.as_secs_f64();
        sim_secs += w.duration().as_secs_f64();
    }
    let rss = peak_rss_mb();
    let attempted = walls.len() as u64;
    // The highest percentile reported is the one with at least ten jobs
    // beyond it.
    let p90 = if walls.len() >= 100 {
        format!("{:.6} s", quantile(&walls, 0.9))
    } else {
        format!("not reported: {attempted} jobs leave fewer than 10 beyond it")
    };
    println!(
        "{} seed {}: {attempted} jobs from a set of {}",
        w.name(),
        args.seed,
        w.jobs()
    );
    println!("  job_wall_p90_s  {p90}");
    println!(
        "  failed_frac     {} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("sim_s_per_wall_s".into(), sim_secs / run_wall, "s/s"),
            ("setup_s".into(), quantile(&setups, 0.5), "s"),
            ("job_wall_p50_s".into(), quantile(&walls, 0.5), "s"),
            ("peak_rss_mb".into(), rss, "MiB"),
        ],
    }
}

/// Writes `workload seed job digest` lines for every workload and seed.
fn record_digests(seeds: &[u64]) {
    println!("# Reference digests of every job's report without its `events` field.");
    println!("# Regenerate: perfbench --record-digests <seeds> > digests.txt");
    for w in Workload::ALL {
        for &seed in seeds {
            for j in 0..w.jobs() {
                let t = timed_job(w, w.job(seed, j));
                let errors = check::check(&t.report, None);
                assert!(
                    errors.is_empty(),
                    "{} seed {seed} job {j}: {errors:?}",
                    w.name()
                );
                println!("{} {seed} {j} {:016x}", w.name(), check::digest(&t.report));
            }
        }
    }
}
