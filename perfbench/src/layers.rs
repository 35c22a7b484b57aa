//! The traced run (`--trace 1`): every job runs untraced, traced and
//! profiled; the traced replay must reproduce the other two exactly (the
//! mirror-fidelity guard) before its spans and counts feed the per-layer
//! metrics.
//!
//! Counts are totals over one pass of the job set, so they are exact and
//! repeat for a seed. Times are total self nanoseconds over one pass;
//! when the time budget allows several passes, each time is the median
//! over passes.

use std::collections::HashMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

use comap_sim::event::Event;
use comap_sim::{SimConfig, Simulator};

use crate::check::Digests;
use crate::traced::{self, Counts, Name, Span, MAC_KINDS};
use crate::{passes, quantile, sinks, timed_job, Args, Outcome};

/// Span names as the per-layer metrics and the span dump spell them.
fn span_name(name: Name) -> String {
    match name {
        Name::Job => "job".into(),
        Name::Event(k) => format!("event.{}", Event::KIND_NAMES[k as usize]),
        Name::QueuePop => "queue.pop".into(),
        Name::QueueSchedule => "queue.schedule".into(),
        Name::MediumBegin => "medium.begin".into(),
        Name::MediumEnd => "medium.end".into(),
        Name::MediumCtxRead => "medium.ctx_read".into(),
        Name::MediumSetPosition => "medium.set_position".into(),
        Name::Mac(k) => format!("mac.{}", MAC_KINDS[k as usize]),
        Name::NeighborMoved => "mac.mobility.neighbor_moved".into(),
        Name::PositionReport => "mac.mobility.position_report".into(),
        Name::OnMoved => "mac.mobility.on_moved".into(),
        Name::ObserveFanout => "observe.fanout".into(),
        Name::ObserveMediumDrain => "observe.medium_drain".into(),
        Name::ObserveFinish => "observe.finish".into(),
        Name::SetupMedium => "setup.medium".into(),
        Name::SetupProtocols => "setup.protocols".into(),
        Name::SetupMacs => "setup.macs".into(),
        Name::SetupQueue => "setup.queue".into(),
    }
}

/// Span count and total self time per span name, over one pass.
#[derive(Default)]
struct Pass {
    spans: HashMap<Name, (u64, u64)>,
    counts: Vec<Counts>,
    untraced_run: Duration,
    traced_loop: Duration,
}

impl Pass {
    fn fold(&mut self, spans: &[Span]) {
        for (s, self_ns) in spans.iter().zip(traced::self_times(spans)) {
            let e = self.spans.entry(s.name).or_default();
            e.0 += 1;
            e.1 += self_ns;
        }
    }

    fn get(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .find(|(k, _)| span_name(**k) == name)
            .map_or((0, 0), |(_, v)| *v)
    }

    fn calls(&self, name: &str) -> u64 {
        self.get(name).0
    }

    fn ns(&self, name: &str) -> f64 {
        self.get(name).1 as f64
    }

    fn sum(&self, f: impl Fn(&Counts) -> u64) -> u64 {
        self.counts.iter().map(f).sum()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The mirror-fidelity guard for one job. Returns every mismatch.
fn mirror(
    workload: crate::Workload,
    cfg: &SimConfig,
    untraced: &str,
    job: &traced::TracedJob,
) -> Vec<String> {
    let mut errors = Vec::new();
    let traced_json = job.report.to_json();
    if traced_json.to_string_compact() != untraced {
        errors.push("traced report differs from Simulator::run's".to_string());
    }
    let mut sim = Simulator::new(cfg.clone());
    for sink in sinks(workload) {
        sim.attach_sink(sink);
    }
    let (profiled, profile) = sim.run_profiled(workload.duration());
    let profiled_json = profiled.to_json();
    if workload.observed()
        && (traced_json.get("metrics") != profiled_json.get("metrics")
            || matches!(
                profiled_json.get("metrics"),
                None | Some(comap_sim::Json::Null)
            ))
    {
        errors.push("traced metrics/latency sections differ or are missing".to_string());
    }
    for (k, t) in profile.by_type.iter().enumerate() {
        if job.counts.pops[k] != t.count {
            errors.push(format!(
                "{} pops: traced {}, run_profiled {}",
                t.name, job.counts.pops[k], t.count
            ));
        }
    }
    if job.counts.medium != profile.medium_counters {
        errors.push(format!(
            "medium counters: traced {:?}, run_profiled {:?}",
            job.counts.medium, profile.medium_counters
        ));
    }
    if job.counts.peak_len != profile.queue_peak {
        errors.push(format!(
            "queue peak: traced {}, run_profiled {}",
            job.counts.peak_len, profile.queue_peak
        ));
    }
    errors
}

/// The traced run: whole passes until `--seconds` have elapsed (at least
/// one).
pub fn run(args: &Args, digests: &Digests) -> Outcome {
    let w = args.workload;
    let jobs: Vec<SimConfig> = (0..w.traced_jobs()).map(|j| w.job(args.seed, j)).collect();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut passes_done: Vec<Pass> = Vec::new();
    let mut span_capacity = 0;
    while passes_done.is_empty() || started.elapsed() < budget {
        let mut pass = Pass::default();
        for (j, cfg) in jobs.iter().enumerate() {
            attempted += 1;
            let untraced = timed_job(w, cfg.clone());
            let job = traced::run_job(cfg.clone(), sinks(w), w.duration(), span_capacity);
            span_capacity = span_capacity.max(job.spans.len());
            let untraced_json = untraced.report.to_json().to_string_compact();
            let mut ok = passes(digests, args, j, &untraced.report);
            for e in mirror(w, cfg, &untraced_json, &job) {
                eprintln!(
                    "MIRROR MISMATCH {} seed {} job {j}: {e}",
                    w.name(),
                    args.seed
                );
                ok = false;
            }
            if !ok {
                failed += 1;
            }
            if let (Some(path), true) = (&args.spans_out, passes_done.is_empty() && j == 0) {
                if let Err(e) = write_spans(path, &job.spans) {
                    eprintln!("cannot write spans to {path}: {e}");
                    failed += 1;
                }
            }
            pass.untraced_run += untraced.run;
            pass.traced_loop += job.loop_wall;
            pass.fold(&job.spans);
            pass.counts.push(job.counts);
        }
        if let Some(first) = passes_done.first() {
            if first.counts != pass.counts {
                eprintln!(
                    "NONDETERMINISM {} seed {}: counts differ between passes",
                    w.name(),
                    args.seed
                );
                failed += 1;
            }
        }
        passes_done.push(pass);
    }
    let metrics = layer_metrics(&passes_done);
    println!(
        "{} seed {}: {} traced passes of {} jobs",
        w.name(),
        args.seed,
        passes_done.len(),
        w.traced_jobs()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<44} {value:>16.4} {unit}");
    }
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// The per-layer metrics: counts from the first pass (every pass has the
/// same), times as the median over passes.
fn layer_metrics(passes: &[Pass]) -> Vec<(String, f64, &'static str)> {
    let time = |f: &dyn Fn(&Pass) -> f64| {
        let v: Vec<f64> = passes.iter().map(f).collect();
        quantile(&v, 0.5)
    };
    let p = &passes[0];
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let count = |m: &mut Vec<_>, name: &str, v: u64| m.push((name.to_string(), v as f64, "count"));

    let pops: u64 = p.sum(|c| c.pops.iter().sum());
    let stale = p.sum(|c| c.stale_pops);
    count(&mut m, "queue.pops", pops);
    count(&mut m, "queue.schedules", p.sum(|c| c.schedules));
    count(
        &mut m,
        "queue.peak_len",
        p.counts.iter().map(|c| c.peak_len).max().unwrap_or(0),
    );
    count(&mut m, "queue.stale_pops", stale);
    m.push((
        "queue.useful_pop_frac".into(),
        ratio(pops - stale, pops),
        "ratio",
    ));
    m.push(("queue.pop_ns".into(), time(&|p| p.ns("queue.pop")), "ns"));
    m.push((
        "queue.schedule_ns".into(),
        time(&|p| p.ns("queue.schedule")),
        "ns",
    ));

    for layer in ["begin", "end"] {
        let span = format!("medium.{layer}");
        count(&mut m, &format!("{span}.calls"), p.calls(&span));
        m.push((format!("{span}.ns"), time(&|p| p.ns(&span)), "ns"));
    }
    m.push((
        "medium.ctx_read.ns".into(),
        time(&|p| p.ns("medium.ctx_read")),
        "ns",
    ));
    for (i, kind) in ["sense", "rx", "tx_done", "announce"].iter().enumerate() {
        count(
            &mut m,
            &format!("medium.notes.{kind}"),
            p.sum(|c| c.notes[i]),
        );
    }
    count(
        &mut m,
        "medium.set_position.calls",
        p.calls("medium.set_position"),
    );
    m.push((
        "medium.set_position.ns".into(),
        time(&|p| p.ns("medium.set_position")),
        "ns",
    ));
    let lookups = p.sum(|c| c.medium.cache_lookups);
    let recomputes = p.sum(|c| c.medium.cache_recomputes);
    let candidates = p.sum(|c| c.medium.cull_candidates);
    let relevant = p.sum(|c| c.medium.cull_relevant);
    count(&mut m, "medium.cache_lookups", lookups);
    count(&mut m, "medium.cache_recomputes", recomputes);
    m.push((
        "medium.recompute_per_lookup".into(),
        ratio(recomputes, lookups),
        "ratio",
    ));
    count(&mut m, "medium.cull_candidates", candidates);
    count(&mut m, "medium.cull_relevant", relevant);
    m.push((
        "medium.relevant_per_candidate".into(),
        ratio(relevant, candidates),
        "ratio",
    ));

    for (k, kind) in MAC_KINDS.iter().enumerate() {
        let span = format!("mac.{kind}");
        let calls = p.calls(&span);
        count(&mut m, &format!("{span}.calls"), calls);
        m.push((format!("{span}.ns"), time(&|p| p.ns(&span)), "ns"));
        m.push((
            format!("{span}.noop_frac"),
            ratio(p.sum(|c| c.mac_noops[k]), calls),
            "ratio",
        ));
    }
    let mobility = [
        ("neighbor_moved", p.sum(|c| c.neighbor_moved)),
        ("position_report", p.sum(|c| c.position_reports)),
        ("on_moved", p.calls("mac.mobility.on_moved")),
    ];
    for (call, calls) in mobility {
        let span = format!("mac.mobility.{call}");
        count(&mut m, &format!("{span}.calls"), calls);
        m.push((format!("{span}.ns"), time(&|p| p.ns(&span)), "ns"));
    }

    count(&mut m, "core.cooc_hits", p.sum(|c| c.cooc_hits));
    count(&mut m, "core.cooc_misses", p.sum(|c| c.cooc_misses));
    count(
        &mut m,
        "core.location_reports",
        p.sum(|c| c.location_reports),
    );
    count(
        &mut m,
        "core.location_suppressed",
        p.sum(|c| c.location_suppressed),
    );

    for part in ["medium", "protocols", "macs", "queue"] {
        let span = format!("setup.{part}");
        m.push((format!("{span}_ns"), time(&|p| p.ns(&span)), "ns"));
    }

    count(&mut m, "observe.events", p.sum(|c| c.observed_events));
    m.push((
        "observe.fanout_ns".into(),
        time(&|p| p.ns("observe.fanout")),
        "ns",
    ));
    m.push((
        "observe.medium_drain_ns".into(),
        time(&|p| p.ns("observe.medium_drain")),
        "ns",
    ));
    m.push((
        "observe.finish_ns".into(),
        time(&|p| p.ns("observe.finish")),
        "ns",
    ));

    let loop_self = |p: &Pass| {
        Event::KIND_NAMES
            .iter()
            .map(|k| p.ns(&format!("event.{k}")))
            .sum::<f64>()
    };
    m.push(("loop.self_ns".into(), time(&loop_self), "ns"));
    // Untraced over traced simulated-seconds-per-wall-second: both runs
    // simulate the same seconds, so it is the wall-time ratio.
    m.push((
        "trace.overhead".into(),
        time(&|p| p.traced_loop.as_secs_f64() / p.untraced_run.as_secs_f64()),
        "ratio",
    ));
    m
}

/// Writes one job's spans as JSON lines.
fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, self_ns)) in spans.iter().zip(traced::self_times(spans)).enumerate() {
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"self_ns\": {self_ns}}}",
            span_name(s.name),
            s.start,
            s.end,
            s.parent
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_written_one_json_object_per_line() {
        let spans = [
            Span {
                name: Name::Job,
                start: 0,
                end: 9,
                parent: 0,
            },
            Span {
                name: Name::Mac(5),
                start: 2,
                end: 5,
                parent: 0,
            },
        ];
        let path =
            std::env::temp_dir().join(format!("perfbench-spans-{}.jsonl", std::process::id()));
        write_spans(path.to_str().expect("a UTF-8 temp path"), &spans).expect("writable temp dir");
        let text = std::fs::read_to_string(&path).expect("just written");
        std::fs::remove_file(&path).expect("just written");
        let lines: Vec<_> = text
            .lines()
            .map(|l| comap_sim::Json::parse(l).expect("JSON"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1].get("name").and_then(comap_sim::Json::as_str),
            Some("mac.traffic")
        );
        assert_eq!(
            lines[0].get("self_ns").and_then(comap_sim::Json::as_u64),
            Some(6)
        );
    }
}
