//! Packet-size / contention-window adaptation (paper Section IV-D3).
//!
//! "To reduce the computation overhead on mobile devices, we calculate the
//! best packet configurations for different number of HTs and contending
//! nodes beforehand. The results are recorded in a 2-dimension array."
//!
//! [`AdaptationTable::precompute`] grid-searches the analytical model over
//! candidate windows and payload sizes for every `(h, c)` cell; lookups
//! clamp out-of-range counts to the table edge.

use comap_mac::timing::PhyTiming;
use comap_radio::rates::Rate;

use crate::model::{DcfModel, HiddenProfile, ModelInput};

/// One precomputed best setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxSetting {
    /// Contention window to install.
    pub cw: u32,
    /// Payload size in bytes.
    pub payload_bytes: u32,
    /// The model-predicted per-node goodput at this setting (bits/s).
    pub predicted_goodput: f64,
}

/// The 2-D array of best `(CW, payload)` settings, indexed by
/// `(hidden terminals, contenders)`.
///
/// ```rust
/// use comap_core::AdaptationTable;
/// use comap_mac::timing::PhyTiming;
/// use comap_radio::rates::Rate;
///
/// let table = AdaptationTable::precompute(PhyTiming::dsss(), Rate::Mbps11, 5, 5);
/// let calm = table.setting(0, 4);
/// let noisy = table.setting(5, 4);
/// // More hidden terminals ⇒ shorter packets.
/// assert!(noisy.payload_bytes <= calm.payload_bytes);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationTable {
    max_hidden: usize,
    max_contenders: usize,
    /// Row-major `[h][c]`.
    settings: Vec<TxSetting>,
}

/// Candidate contention windows (the `2^k − 1` ladder the paper sweeps in
/// Fig. 7).
pub const CW_CANDIDATES: [u32; 6] = [31, 63, 127, 255, 511, 1023];

/// Candidate payload sizes in bytes (100 B steps up to the Ethernet-ish
/// 2200 B the paper sweeps).
pub fn payload_candidates() -> impl Iterator<Item = u32> {
    (1..=22).map(|i| i * 100)
}

/// MTU-ish ceiling installed by the protocol's own table: real stacks do
/// not send 2200-byte MPDUs.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1500;

impl AdaptationTable {
    /// Precomputes best settings for `h ∈ 0..=max_hidden` and
    /// `c ∈ 0..=max_contenders`, with payload candidates capped at
    /// [`DEFAULT_MAX_PAYLOAD`] and hidden terminals modelled as stock DCF
    /// stations ([`HiddenProfile::DCF_DEFAULT`]) — they keep *their* window
    /// whatever we install for ourselves.
    pub fn precompute(
        phy: PhyTiming,
        rate: Rate,
        max_hidden: usize,
        max_contenders: usize,
    ) -> Self {
        Self::precompute_with(
            phy,
            rate,
            max_hidden,
            max_contenders,
            DEFAULT_MAX_PAYLOAD,
            Some(HiddenProfile::DCF_DEFAULT),
            &CW_CANDIDATES,
        )
    }

    /// Fully parameterized precomputation (ablations use this to restore
    /// the homogeneous model or other payload ceilings). `cw_choices`
    /// restricts the window candidates — pass `&[31]` for payload-only
    /// adaptation.
    pub fn precompute_with(
        phy: PhyTiming,
        rate: Rate,
        max_hidden: usize,
        max_contenders: usize,
        max_payload: u32,
        hidden_profile: Option<HiddenProfile>,
        cw_choices: &[u32],
    ) -> Self {
        assert!(
            !cw_choices.is_empty(),
            "at least one window candidate required"
        );
        let mut settings = Vec::with_capacity((max_hidden + 1) * (max_contenders + 1));
        for h in 0..=max_hidden {
            for c in 0..=max_contenders {
                settings.push(Self::optimize(
                    phy,
                    rate,
                    h,
                    c,
                    max_payload,
                    hidden_profile,
                    cw_choices,
                ));
            }
        }
        AdaptationTable {
            max_hidden,
            max_contenders,
            settings,
        }
    }

    /// Grid-argmax of the analytical model for one `(h, c)` cell.
    fn optimize(
        phy: PhyTiming,
        rate: Rate,
        hidden: usize,
        contenders: usize,
        max_payload: u32,
        hidden_profile: Option<HiddenProfile>,
        cw_choices: &[u32],
    ) -> TxSetting {
        let mut best = TxSetting {
            cw: cw_choices[0],
            payload_bytes: 100,
            predicted_goodput: f64::MIN,
        };
        for &cw in cw_choices {
            for payload_bytes in payload_candidates().filter(|&p| p <= max_payload) {
                let input = ModelInput {
                    phy,
                    rate,
                    cw,
                    contenders,
                    hidden,
                    payload_bytes,
                    hidden_profile,
                };
                let goodput = DcfModel::per_node_goodput(&input);
                if goodput > best.predicted_goodput {
                    best = TxSetting {
                        cw,
                        payload_bytes,
                        predicted_goodput: goodput,
                    };
                }
            }
        }
        best
    }

    /// The best setting for `hidden` HTs and `contenders` contending
    /// nodes; out-of-range counts clamp to the table edge.
    pub fn setting(&self, hidden: usize, contenders: usize) -> TxSetting {
        let h = hidden.min(self.max_hidden);
        let c = contenders.min(self.max_contenders);
        self.settings[h * (self.max_contenders + 1) + c]
    }

    /// Largest hidden-terminal count materialized in the table.
    pub fn max_hidden(&self) -> usize {
        self.max_hidden
    }

    /// Largest contender count materialized in the table.
    pub fn max_contenders(&self) -> usize {
        self.max_contenders
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> AdaptationTable {
        AdaptationTable::precompute(PhyTiming::dsss(), Rate::Mbps11, 5, 5)
    }

    #[test]
    fn no_ht_prefers_large_payload_small_window() {
        // Section VI-B: "the highest goodput of a link without HT is
        // achieved with the largest payload length and a small CW size".
        let t = table();
        let s = t.setting(0, 4);
        assert_eq!(
            s.payload_bytes, DEFAULT_MAX_PAYLOAD,
            "largest payload, got {s:?}"
        );
        assert!(s.cw <= 127, "small window, got {s:?}");
    }

    #[test]
    fn many_hts_prefer_short_payload() {
        let t = table();
        let calm = t.setting(0, 4);
        let noisy = t.setting(5, 4);
        assert!(
            noisy.payload_bytes < calm.payload_bytes,
            "payload must shrink with HTs: {calm:?} vs {noisy:?}"
        );
        // Under the heterogeneous model, growing our own window cannot
        // slow down the hidden terminals, so the optimizer must not pick
        // a pointlessly passive window either.
        assert!(
            noisy.cw <= 255,
            "window should stay reactive, got {noisy:?}"
        );
    }

    #[test]
    fn payload_is_monotone_nonincreasing_in_hidden_count() {
        let t = table();
        for c in 0..=5 {
            let mut prev = u32::MAX;
            for h in 0..=5 {
                let s = t.setting(h, c);
                assert!(
                    s.payload_bytes <= prev,
                    "payload grew from {prev} to {} at h={h}, c={c}",
                    s.payload_bytes
                );
                prev = s.payload_bytes;
            }
        }
    }

    #[test]
    fn lookups_clamp_to_edges() {
        let t = table();
        assert_eq!(t.setting(50, 50), t.setting(5, 5));
        assert_eq!(t.setting(0, 99), t.setting(0, 5));
    }

    #[test]
    fn predicted_goodput_is_positive_and_consistent() {
        let t = table();
        for h in 0..=5 {
            for c in 0..=5 {
                let s = t.setting(h, c);
                assert!(s.predicted_goodput > 0.0);
                let input = ModelInput {
                    phy: PhyTiming::dsss(),
                    rate: Rate::Mbps11,
                    cw: s.cw,
                    contenders: c,
                    hidden: h,
                    payload_bytes: s.payload_bytes,
                    hidden_profile: Some(HiddenProfile::DCF_DEFAULT),
                };
                let re = DcfModel::per_node_goodput(&input);
                assert!((re - s.predicted_goodput).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn stored_setting_beats_alternatives() {
        let t = table();
        let s = t.setting(3, 4);
        for &cw in &CW_CANDIDATES {
            for payload_bytes in payload_candidates().filter(|&p| p <= DEFAULT_MAX_PAYLOAD) {
                let input = ModelInput {
                    phy: PhyTiming::dsss(),
                    rate: Rate::Mbps11,
                    cw,
                    contenders: 4,
                    hidden: 3,
                    payload_bytes,
                    hidden_profile: Some(HiddenProfile::DCF_DEFAULT),
                };
                assert!(DcfModel::per_node_goodput(&input) <= s.predicted_goodput + 1e-9);
            }
        }
    }
}
