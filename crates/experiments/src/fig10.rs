//! **Fig. 10** — large-scale simulation: the empirical CDF of per-link
//! average goodput over random topologies under basic DCF, CO-MAP with
//! perfect positions, and CO-MAP with synthetic position errors. The
//! paper reports a 1.385× mean aggregated-goodput gain with perfect
//! positions and a reduced-but-substantial gain under position error.
//!
//! The OCR of the paper reads "1 m" for the error radius where the
//! surrounding text (13.7 m GPS error, room-level indoor localization)
//! suggests 10 m; the experiment therefore sweeps {1, 2, 5, 10} m.

use comap_mac::time::SimDuration;
use comap_sim::config::MacFeatures;

use crate::runner::{empirical_cdf, run_many, Cdf};
use crate::topology::large_scale;

/// The protocol variants compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    /// Basic DCF.
    Dcf,
    /// CO-MAP with the given position-error radius in meters.
    CoMap(f64),
}

impl Variant {
    /// Display label ("DCF", "CO-MAP(0)", "CO-MAP(10)").
    pub fn label(&self) -> String {
        match self {
            Variant::Dcf => "DCF".to_string(),
            Variant::CoMap(e) => format!("CO-MAP({e:.0})"),
        }
    }
}

/// Results of one variant.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// The variant.
    pub variant: Variant,
    /// Per-link average goodputs pooled across topologies (bits/s).
    pub link_goodputs: Vec<f64>,
    /// Mean aggregated goodput per topology (bits/s).
    pub mean_aggregate: f64,
}

impl VariantResult {
    /// CDF over per-link goodputs (the paper's y-axis).
    pub fn cdf(&self) -> Cdf {
        empirical_cdf(self.link_goodputs.clone())
    }
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// One result per variant, in sweep order.
    pub variants: Vec<VariantResult>,
}

/// The error radii swept for the tolerance study.
pub const ERROR_SWEEP: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

/// Runs all variants over random topologies.
pub fn run(quick: bool) -> Fig10 {
    let (topologies, seeds, duration): (usize, &[u64], _) = if quick {
        (3, &[1], SimDuration::from_millis(400))
    } else {
        (30, &[1, 2, 3], SimDuration::from_secs(3))
    };
    let mut variant_list = vec![Variant::Dcf, Variant::CoMap(0.0)];
    variant_list.extend(ERROR_SWEEP.iter().map(|&e| Variant::CoMap(e)));

    let variants = variant_list
        .into_iter()
        .map(|variant| {
            let (features, error) = match variant {
                Variant::Dcf => (MacFeatures::DCF, 0.0),
                Variant::CoMap(e) => (MacFeatures::COMAP, e),
            };
            let mut link_goodputs = Vec::new();
            let mut aggregates = Vec::new();
            for topo in 0..topologies {
                let reports = run_many(
                    |seed| large_scale(topo as u64, seed, features, error).0,
                    seeds,
                    duration,
                );
                let (cfg, _) = large_scale(topo as u64, 0, features, error);
                // Average each directed flow's goodput across seeds.
                for flow in &cfg.flows {
                    let g = reports
                        .iter()
                        .map(|r| r.link_goodput_bps(flow.src, flow.dst))
                        .sum::<f64>()
                        / reports.len() as f64;
                    link_goodputs.push(g);
                }
                let agg = reports
                    .iter()
                    .map(|r| r.aggregate_goodput_bps())
                    .sum::<f64>()
                    / reports.len() as f64;
                aggregates.push(agg);
            }
            let mean_aggregate = aggregates.iter().sum::<f64>() / aggregates.len() as f64;
            VariantResult {
                variant,
                link_goodputs,
                mean_aggregate,
            }
        })
        .collect();
    Fig10 { variants }
}

impl Fig10 {
    /// The result of one variant.
    pub fn variant(&self, v: Variant) -> Option<&VariantResult> {
        self.variants.iter().find(|r| r.variant == v)
    }

    /// Mean aggregated-goodput gain of a variant over DCF.
    pub fn gain_over_dcf(&self, v: Variant) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "run() always evaluates the DCF baseline variant"
        )]
        let dcf = self
            .variant(Variant::Dcf)
            .expect("DCF present")
            .mean_aggregate;
        #[expect(
            clippy::expect_used,
            reason = "run() evaluates every Variant in the enum"
        )]
        let it = self.variant(v).expect("variant present").mean_aggregate;
        it / dcf - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comap_holds_up_at_floor_scale() {
        // The quick pass (3 topologies, 1 seed, 0.4 s) is statistically
        // coarse; the full `--bin fig10` run is the measured result in
        // EXPERIMENTS.md. Here we assert the stable facts: CO-MAP with
        // perfect positions does not lose materially to DCF, and a 10 m
        // position error does not break the protocol.
        let fig = run(true);
        let perfect = fig.gain_over_dcf(Variant::CoMap(0.0));
        assert!(perfect > -0.07, "perfect-position gain = {perfect:.3}");
        let with_error = fig.gain_over_dcf(Variant::CoMap(10.0));
        assert!(
            with_error > -0.12,
            "10 m error must not break CO-MAP: {with_error:.3}"
        );
        // Every variant still moves real traffic.
        for v in &fig.variants {
            assert!(v.mean_aggregate > 1e6, "{:?}", v.variant);
        }
    }
}
