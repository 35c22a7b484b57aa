//! CI helper: validates a `--profile-json` artifact.
//!
//! Usage: `profile_check <profile.json>`. Parses the file, checks the
//! invariants every healthy run profile satisfies (events processed,
//! positive throughput, per-type counts summing to the total, a
//! non-empty queue at some point) and prints the summary. Exits 1 on
//! any violation so the CI smoke run fails loudly, and 2 with the usage
//! line unless given exactly one argument that is not a flag.

use comap_sim::{Json, RunProfile};

const USAGE: &str = "usage: profile_check <profile.json>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [path] if !path.starts_with('-') => path.clone(),
        _ => {
            eprintln!("profile_check: {USAGE}");
            std::process::exit(2);
        }
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let json = Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: invalid JSON: {e}")));
    let profile = RunProfile::from_json(&json).unwrap_or_else(|e| fail(&format!("{path}: {e}")));

    check(profile.events > 0, "no events were processed");
    check(
        profile.events_per_sec() > 0.0,
        "events/sec must be positive",
    );
    check(profile.queue_peak > 0, "event queue was never non-empty");
    let by_type: u64 = profile.by_type.iter().map(|t| t.count).sum();
    check(
        by_type == profile.events,
        "per-type counts do not sum to the total",
    );
    check(profile.sim_nanos > 0, "no simulated time elapsed");

    // The lazy link cache must never recompute more directed entries
    // than it serves: recomputes > lookups means rows are being thrown
    // away before they are read (the mobility cache-thrash bug).
    let mc = profile.medium_counters;
    if mc.cache_lookups > 0 {
        check(
            mc.cache_recomputes <= mc.cache_lookups,
            "link cache thrash: cache_recomputes exceeds cache_lookups",
        );
        println!(
            "link cache recompute/lookup ratio: {:.3} ({} / {})",
            mc.cache_recomputes as f64 / mc.cache_lookups as f64,
            mc.cache_recomputes,
            mc.cache_lookups
        );
    }

    print!("{}", profile.summary());
    println!("profile OK: {path}");
}

fn check(ok: bool, what: &str) {
    if !ok {
        fail(what);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("profile_check: {msg}");
    std::process::exit(1);
}
