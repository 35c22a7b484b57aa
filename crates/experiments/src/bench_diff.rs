//! Perf-regression gate over `BENCH_*.json` profiling artifacts.
//!
//! CI profiles a representative run of the heaviest experiments and
//! checks the resulting [`RunProfile`] in as a `BENCH_*` artifact. This
//! module compares a freshly measured candidate profile against a
//! pinned baseline and decides whether the difference is a regression.
//!
//! Two families of metrics get two very different tolerances:
//!
//! * **Deterministic counters** — `events`, `sim_nanos`, `queue_peak`,
//!   per-type event counts and the link-cache recompute/lookup ratio
//!   are bit-reproducible for a fixed binary and seed. The gate holds
//!   them (near-)exactly: any drift means the simulation itself
//!   changed, which must be an explicit, reviewed decision
//!   (regenerate the envelope and say why in its `rationale`).
//! * **Wall-clock metrics** — `events_per_sec` and per-type dispatch
//!   cost vary with machine load, so they get loose multiplicative
//!   envelopes, wide enough for CI-runner jitter yet tight enough that
//!   a genuine 2× slowdown fails.
//!
//! The pinned baseline lives in `results/BENCH_envelope.json` next to
//! the raw artifacts: a [`RunProfile`] plus [`Tolerances`] plus a
//! human-readable rationale for the last regeneration. The
//! `bench_diff` binary applies it; see `scripts/check.sh` and the CI
//! workflow for the wiring.

use comap_sim::json::{check_schema_version, Json, SchemaError, SCHEMA_VERSION};
use comap_sim::RunProfile;

/// Per-metric tolerance envelopes applied by [`diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct Tolerances {
    /// Maximum allowed `events_per_sec` slowdown factor
    /// (baseline / candidate). Wall-clock: loose, but below 2.0 so a
    /// doubled runtime always fails.
    pub max_slowdown: f64,
    /// Maximum allowed per-event-type dispatch-cost growth factor
    /// (candidate ns/event over baseline ns/event). Wall-clock.
    pub max_per_type_slowdown: f64,
    /// Event types with fewer baseline events than this are exempt
    /// from the per-type cost check — their timings are noise.
    pub min_type_count: u64,
    /// Maximum allowed relative drift of deterministic counters
    /// (`events`, `sim_nanos`, `queue_peak`, per-type counts).
    /// 0.0 demands exact equality.
    pub max_count_drift: f64,
    /// Maximum allowed absolute increase of the link-cache
    /// recompute/lookup ratio over the baseline's.
    pub max_recompute_ratio_increase: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            max_slowdown: 1.75,
            max_per_type_slowdown: 2.5,
            min_type_count: 200,
            max_count_drift: 0.0,
            max_recompute_ratio_increase: 0.05,
        }
    }
}

impl Tolerances {
    /// Serializes the tolerances as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("max_slowdown", Json::Num(self.max_slowdown)),
            (
                "max_per_type_slowdown",
                Json::Num(self.max_per_type_slowdown),
            ),
            ("min_type_count", Json::Uint(self.min_type_count)),
            ("max_count_drift", Json::Num(self.max_count_drift)),
            (
                "max_recompute_ratio_increase",
                Json::Num(self.max_recompute_ratio_increase),
            ),
        ])
    }

    /// Parses tolerances from their [`Tolerances::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] when a field is absent or malformed.
    pub fn from_json(v: &Json) -> Result<Tolerances, SchemaError> {
        let malformed = || SchemaError::new("tolerances: missing or malformed field");
        let num = |key: &str| v.get(key).and_then(Json::as_f64).ok_or_else(malformed);
        Ok(Tolerances {
            max_slowdown: num("max_slowdown")?,
            max_per_type_slowdown: num("max_per_type_slowdown")?,
            min_type_count: v
                .get("min_type_count")
                .and_then(Json::as_u64)
                .ok_or_else(malformed)?,
            max_count_drift: num("max_count_drift")?,
            max_recompute_ratio_increase: num("max_recompute_ratio_increase")?,
        })
    }
}

/// A pinned baseline: profile, tolerances, and the reason it was last
/// regenerated. Stored as `results/BENCH_envelope.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Which experiment/profile this envelope pins (e.g. `fig_scale`).
    pub name: String,
    /// Why the baseline was (re)generated — updated on every regen.
    pub rationale: String,
    /// The pinned baseline profile.
    pub baseline: RunProfile,
    /// Tolerances applied when diffing against the baseline.
    pub tolerances: Tolerances,
}

impl Envelope {
    /// Serializes the envelope as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(SCHEMA_VERSION)),
            ("name", Json::str(self.name.clone())),
            ("rationale", Json::str(self.rationale.clone())),
            ("tolerances", self.tolerances.to_json()),
            ("baseline", self.baseline.to_json()),
        ])
    }

    /// Parses an envelope from its [`Envelope::to_json`] form.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] when the `schema_version` stamp is
    /// missing or mismatched, or when a field is absent or malformed.
    pub fn from_json(v: &Json) -> Result<Envelope, SchemaError> {
        check_schema_version(v, "bench envelope")?;
        let malformed = || SchemaError::new("bench envelope: missing or malformed field");
        Ok(Envelope {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(malformed)?
                .to_string(),
            rationale: v
                .get("rationale")
                .and_then(Json::as_str)
                .ok_or_else(malformed)?
                .to_string(),
            tolerances: Tolerances::from_json(v.get("tolerances").ok_or_else(malformed)?)?,
            baseline: RunProfile::from_json(v.get("baseline").ok_or_else(malformed)?)?,
        })
    }
}

/// One compared metric: values on both sides and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name (e.g. `events_per_sec`, `count[tx_end]`).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Human-readable bound the comparison applied.
    pub bound: String,
    /// `false` when the candidate broke the bound.
    pub ok: bool,
}

impl Delta {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("metric", Json::str(self.metric.clone())),
            ("baseline", Json::Num(self.baseline)),
            ("candidate", Json::Num(self.candidate)),
            ("bound", Json::str(self.bound.clone())),
            ("ok", Json::Bool(self.ok)),
        ])
    }
}

/// Outcome of one envelope comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Every metric compared, in a stable order.
    pub deltas: Vec<Delta>,
}

impl DiffReport {
    /// `true` when no compared metric broke its bound.
    pub fn passed(&self) -> bool {
        self.deltas.iter().all(|d| d.ok)
    }

    /// The subset of deltas that broke their bound.
    pub fn violations(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| !d.ok).collect()
    }

    /// Serializes the report (verdict plus every delta) as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Uint(SCHEMA_VERSION)),
            ("passed", Json::Bool(self.passed())),
            (
                "deltas",
                Json::Arr(self.deltas.iter().map(Delta::to_json).collect()),
            ),
        ])
    }

    /// Multi-line human-readable report: one line per metric, verdict
    /// last.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "  {} {:<24} baseline {:>14.2}  candidate {:>14.2}  ({})",
                if d.ok { "ok  " } else { "FAIL" },
                d.metric,
                d.baseline,
                d.candidate,
                d.bound
            );
        }
        let _ = writeln!(
            out,
            "bench_diff: {} ({} metrics, {} violations)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.deltas.len(),
            self.violations().len()
        );
        out
    }
}

fn within_drift(baseline: f64, candidate: f64, drift: f64) -> bool {
    // simlint: allow(float-eq) — both sides come from integer counters; 0 is exact
    if baseline == 0.0 {
        // simlint: allow(float-eq) — relative drift from zero is undefined; demand exact zero
        return candidate == 0.0;
    }
    ((candidate - baseline) / baseline).abs() <= drift
}

fn count_delta(metric: &str, baseline: u64, candidate: u64, drift: f64) -> Delta {
    Delta {
        metric: metric.to_string(),
        baseline: baseline as f64,
        candidate: candidate as f64,
        bound: if drift > 0.0 {
            format!("deterministic, drift <= {:.1}%", drift * 100.0)
        } else {
            "deterministic, exact".to_string()
        },
        ok: within_drift(baseline as f64, candidate as f64, drift),
    }
}

/// Compares a candidate profile against an envelope's baseline,
/// applying its tolerances metric by metric.
pub fn diff(envelope: &Envelope, candidate: &RunProfile) -> DiffReport {
    let base = &envelope.baseline;
    let tol = &envelope.tolerances;
    let mut deltas = Vec::new();

    // Deterministic counters: exact (or near-exact) by construction.
    deltas.push(count_delta(
        "events",
        base.events,
        candidate.events,
        tol.max_count_drift,
    ));
    deltas.push(count_delta(
        "sim_nanos",
        base.sim_nanos,
        candidate.sim_nanos,
        tol.max_count_drift,
    ));
    deltas.push(count_delta(
        "queue_peak",
        base.queue_peak,
        candidate.queue_peak,
        tol.max_count_drift,
    ));
    for bt in &base.by_type {
        let cand = candidate
            .by_type
            .iter()
            .find(|ct| ct.name == bt.name)
            .map(|ct| ct.count)
            .unwrap_or(0);
        deltas.push(count_delta(
            &format!("count[{}]", bt.name),
            bt.count,
            cand,
            tol.max_count_drift,
        ));
    }
    for ct in &candidate.by_type {
        if ct.count > 0 && !base.by_type.iter().any(|bt| bt.name == ct.name) {
            // A type the baseline has never seen: the simulation
            // changed shape — regenerate the envelope deliberately.
            deltas.push(count_delta(
                &format!("count[{}]", ct.name),
                0,
                ct.count,
                0.0,
            ));
        }
    }

    // Link-cache health: the recompute/lookup ratio is deterministic
    // and regressing it re-opens the mobility cache-thrash bug.
    let ratio = |p: &RunProfile| {
        let mc = p.medium_counters;
        if mc.cache_lookups == 0 {
            0.0
        } else {
            mc.cache_recomputes as f64 / mc.cache_lookups as f64
        }
    };
    let (base_ratio, cand_ratio) = (ratio(base), ratio(candidate));
    deltas.push(Delta {
        metric: "recompute_per_lookup".to_string(),
        baseline: base_ratio,
        candidate: cand_ratio,
        bound: format!("<= baseline + {:.3}", tol.max_recompute_ratio_increase),
        ok: cand_ratio <= base_ratio + tol.max_recompute_ratio_increase,
    });

    // Wall-clock throughput: loose envelope, slowdown-only. A faster
    // candidate always passes.
    let base_eps = base.events_per_sec();
    let cand_eps = candidate.events_per_sec();
    deltas.push(Delta {
        metric: "events_per_sec".to_string(),
        baseline: base_eps,
        candidate: cand_eps,
        bound: format!("slowdown < {:.2}x", tol.max_slowdown),
        ok: cand_eps * tol.max_slowdown > base_eps,
    });

    // Per-type dispatch cost, for types busy enough to time reliably.
    for bt in &base.by_type {
        if bt.count < tol.min_type_count || bt.nanos == 0 {
            continue;
        }
        let Some(ct) = candidate
            .by_type
            .iter()
            .find(|ct| ct.name == bt.name && ct.count > 0)
        else {
            continue; // the count check above already flagged it
        };
        let base_cost = bt.nanos as f64 / bt.count as f64;
        let cand_cost = ct.nanos as f64 / ct.count as f64;
        deltas.push(Delta {
            metric: format!("ns_per_event[{}]", bt.name),
            baseline: base_cost,
            candidate: cand_cost,
            bound: format!("growth < {:.2}x", tol.max_per_type_slowdown),
            ok: cand_cost < base_cost * tol.max_per_type_slowdown,
        });
    }

    DiffReport { deltas }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comap_sim::MediumCounters;

    fn baseline_profile() -> RunProfile {
        RunProfile {
            events: 25_000,
            wall_nanos: 180_000_000,
            sim_nanos: 400_000_000,
            queue_peak: 700,
            by_type: vec![
                comap_sim::profile::EventTypeProfile {
                    name: "tx_end".to_string(),
                    count: 4_000,
                    nanos: 80_000_000,
                },
                comap_sim::profile::EventTypeProfile {
                    name: "flow_timer".to_string(),
                    count: 18_000,
                    nanos: 60_000_000,
                },
                comap_sim::profile::EventTypeProfile {
                    name: "mobility".to_string(),
                    count: 100,
                    nanos: 1_000_000,
                },
            ],
            ledger_checks: 0,
            ledger_check_nanos: 0,
            medium_counters: MediumCounters {
                cache_recomputes: 17_000,
                cache_lookups: 70_000,
                cull_candidates: 150_000,
                cull_relevant: 70_000,
                moves_applied: 500,
                moves_coalesced: 0,
            },
        }
    }

    fn envelope() -> Envelope {
        Envelope {
            name: "fig_scale".to_string(),
            rationale: "test fixture".to_string(),
            baseline: baseline_profile(),
            tolerances: Tolerances::default(),
        }
    }

    #[test]
    fn identical_profiles_pass() {
        let report = diff(&envelope(), &baseline_profile());
        assert!(report.passed(), "{}", report.summary());
        assert!(report.violations().is_empty());
    }

    #[test]
    fn wall_clock_jitter_passes() {
        // 40% slower: within the loose wall-clock envelope.
        let mut cand = baseline_profile();
        cand.wall_nanos = (cand.wall_nanos as f64 * 1.4) as u64;
        for t in &mut cand.by_type {
            t.nanos = (t.nanos as f64 * 1.4) as u64;
        }
        let report = diff(&envelope(), &cand);
        assert!(report.passed(), "{}", report.summary());
    }

    #[test]
    fn doubled_runtime_fails() {
        // The synthetic regression the gate exists for: same events,
        // twice the wall time — events/sec halves.
        let mut cand = baseline_profile();
        cand.wall_nanos *= 2;
        let report = diff(&envelope(), &cand);
        assert!(!report.passed(), "{}", report.summary());
        let bad: Vec<_> = report
            .violations()
            .iter()
            .map(|d| d.metric.clone())
            .collect();
        assert!(bad.contains(&"events_per_sec".to_string()), "{bad:?}");
    }

    #[test]
    fn per_type_cost_blowup_fails_only_busy_types() {
        let mut cand = baseline_profile();
        for t in &mut cand.by_type {
            t.nanos *= 3;
        }
        let report = diff(&envelope(), &cand);
        let bad: Vec<_> = report
            .violations()
            .iter()
            .map(|d| d.metric.clone())
            .collect();
        assert!(bad.contains(&"ns_per_event[tx_end]".to_string()), "{bad:?}");
        // 100 mobility events are below min_type_count: noise, exempt.
        assert!(!bad.iter().any(|m| m.contains("mobility")), "{bad:?}");
    }

    #[test]
    fn deterministic_count_drift_fails_exactly() {
        let mut cand = baseline_profile();
        cand.events += 1;
        let report = diff(&envelope(), &cand);
        assert!(!report.passed());
        let mut cand = baseline_profile();
        cand.by_type[0].count += 1;
        let report = diff(&envelope(), &cand);
        assert!(!report.passed());
        assert!(report
            .violations()
            .iter()
            .any(|d| d.metric == "count[tx_end]"));
    }

    #[test]
    fn new_event_type_is_flagged() {
        let mut cand = baseline_profile();
        cand.by_type.push(comap_sim::profile::EventTypeProfile {
            name: "novel".to_string(),
            count: 5,
            nanos: 10,
        });
        let report = diff(&envelope(), &cand);
        assert!(report
            .violations()
            .iter()
            .any(|d| d.metric == "count[novel]"));
    }

    #[test]
    fn cache_thrash_regression_fails() {
        let mut cand = baseline_profile();
        cand.medium_counters.cache_recomputes = cand.medium_counters.cache_lookups;
        let report = diff(&envelope(), &cand);
        assert!(report
            .violations()
            .iter()
            .any(|d| d.metric == "recompute_per_lookup"));
    }

    #[test]
    fn envelope_round_trips_through_json() {
        let e = envelope();
        let text = e.to_json().to_string_compact();
        let back = Envelope::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn unstamped_envelope_is_rejected() {
        let err = Envelope::from_json(&Json::parse("{\"name\":\"x\"}").unwrap()).unwrap_err();
        assert!(err.to_string().contains("schema_version"), "{err}");
    }

    #[test]
    fn diff_report_json_carries_the_verdict() {
        let report = diff(&envelope(), &baseline_profile());
        let j = report.to_json();
        assert_eq!(j.get("passed").and_then(Json::as_bool), Some(true));
        assert!(j.get("deltas").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn pinned_envelope_accepts_a_fresh_fig_scale_profile() {
        // The repo's own gate must hold against the code, not against a
        // checked-in copy of its output: profile the representative
        // fig_scale run in-process and require every deterministic
        // delta to pass. Wall-clock bounds stay with the release-mode
        // `bench_diff` step, since this test may run unoptimized.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let envelope_text =
            std::fs::read_to_string(format!("{root}/results/BENCH_envelope.json")).unwrap();
        let envelope = Envelope::from_json(&Json::parse(&envelope_text).unwrap()).unwrap();
        let (cfg, duration) = crate::instrument::representative("fig_scale");
        let (_, candidate) = comap_sim::Simulator::new(cfg).run_profiled(duration);
        let report = diff(&envelope, &candidate);
        let wall_clock =
            |d: &Delta| d.metric == "events_per_sec" || d.metric.starts_with("ns_per_event[");
        let deterministic: Vec<&Delta> = report.deltas.iter().filter(|d| !wall_clock(d)).collect();
        assert!(deterministic.iter().any(|d| d.metric == "events"));
        assert!(deterministic.iter().all(|d| d.ok), "{}", report.summary());
    }
}
