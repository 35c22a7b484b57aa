//! Property-based tests of the CO-MAP protocol invariants.

use comap_core::adapt::{payload_candidates, AdaptationTable, CW_CANDIDATES};
use comap_core::cooccurrence::CoOccurrenceMap;
use comap_core::hidden::{HtCensus, HtCensusEngine, NeighborClass};
use comap_core::model::{DcfModel, HiddenProfile, ModelInput};
use comap_core::validate::ConcurrencyValidator;
use comap_core::{MobilityConfig, NeighborTable, ProtocolConfig};
use comap_mac::timing::PhyTiming;
use comap_radio::rates::Rate;
use comap_radio::units::{Db, Dbm};
use comap_radio::{LogNormalShadowing, Position};
use proptest::prelude::*;

fn arb_pos() -> impl Strategy<Value = Position> {
    ((-150.0..150.0f64), (-150.0..150.0f64)).prop_map(|(x, y)| Position::new(x, y))
}

/// The census presets: testbed, large-scale, and the testbed with a
/// deterministic (`σ = 0`) channel.
fn census_config(preset: usize) -> ProtocolConfig {
    match preset {
        0 => ProtocolConfig::testbed(),
        1 => ProtocolConfig::large_scale(),
        _ => ProtocolConfig {
            channel: LogNormalShadowing::from_friis(Dbm::new(0.0), 2.9, Db::ZERO),
            ..ProtocolConfig::testbed()
        },
    }
}

fn census_engine(cfg: &ProtocolConfig) -> HtCensusEngine {
    HtCensusEngine::new(
        cfg.reception(),
        cfg.t_cs,
        cfg.census_interference_prr,
        cfg.ht_miss_probability,
    )
}

/// The census without the range cull: `classify` on every neighbor.
fn reference_census(
    engine: &HtCensusEngine,
    table: &NeighborTable<u32>,
    (s_addr, s): (u32, Position),
    (r_addr, r): (u32, Position),
) -> HtCensus<u32> {
    let mut census = HtCensus {
        hidden: Vec::new(),
        contenders: Vec::new(),
        independent: Vec::new(),
    };
    for (addr, entry) in table.iter() {
        if addr == s_addr || addr == r_addr {
            continue;
        }
        match engine.classify(s, r, entry.position) {
            NeighborClass::Hidden => census.hidden.push(addr),
            NeighborClass::Contender => census.contenders.push(addr),
            NeighborClass::Independent => census.independent.push(addr),
        }
    }
    census
}

/// `from` moved `dist` meters along the unit direction `(ux, uy)`.
fn toward(from: Position, (ux, uy): (f64, f64), dist: f64) -> Position {
    from.offset(ux * dist, uy * dist)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The range-culled census equals `classify` on every neighbor: all
    /// three lists, in the same order. Besides a campus-wide scatter,
    /// neighbors sit at each cull radius × (1 ± 1e-9), both straight out
    /// from the link (where the other radius is already cleared, so the
    /// boundary decides) and at a random bearing.
    #[test]
    fn culled_census_matches_classify_on_every_neighbor(
        preset in 0usize..3,
        s in arb_pos(),
        link in (0.0..60.0f64, 0.0..std::f64::consts::TAU, any::<bool>()),
        scatter in prop::collection::vec(((-700.0..700.0f64), (-700.0..700.0f64)), 0..60),
        bearings in prop::collection::vec(0.0..std::f64::consts::TAU, 8..9),
    ) {
        let cfg = census_config(preset);
        let engine = census_engine(&cfg);
        // Half the links are shorter than d0 = 1 m.
        let (len, theta, short) = link;
        let len = if short { len / 60.0 } else { len };
        let r = s.offset(len * theta.cos(), len * theta.sin());
        let d = s.distance_to(r);
        let (int_cull, cs_cull) = engine.cull_radii(d);
        // Unit vector s → r (an arbitrary one for a zero-length link).
        let axis = if d.value() > 0.0 {
            ((r.x - s.x) / d.value(), (r.y - s.y) / d.value())
        } else {
            (1.0, 0.0)
        };
        let back = (-axis.0, -axis.1);

        let mut table = NeighborTable::new(MobilityConfig::default());
        table.insert(0, s);
        table.insert(1, r);
        let mut next = 2u32;
        let mut add = |table: &mut NeighborTable<u32>, p: Position| {
            table.insert(next, p);
            next += 1;
        };
        for &(x, y) in &scatter {
            add(&mut table, s.offset(x, y));
        }
        for (k, factor) in [1.0 - 1e-9, 1.0 + 1e-9].into_iter().enumerate() {
            let (a, b) = (bearings[4 * k], bearings[4 * k + 1]);
            let (c, e) = (bearings[4 * k + 2], bearings[4 * k + 3]);
            let int_at = int_cull.value() * factor;
            let cs_at = cs_cull.value() * factor;
            add(&mut table, toward(r, axis, int_at));
            add(&mut table, toward(s, back, cs_at));
            add(&mut table, toward(r, (a.cos(), a.sin()), int_at));
            add(&mut table, toward(s, (b.cos(), b.sin()), cs_at));
            add(&mut table, toward(r, (c.cos(), c.sin()), cs_at));
            add(&mut table, toward(s, (e.cos(), e.sin()), int_at));
        }

        let culled = engine.census(&table, 0, s, 1, r);
        let reference = reference_census(&engine, &table, (0, s), (1, r));
        prop_assert_eq!(culled, reference);
    }
}

proptest! {
    /// The concurrency decision is a pure function of geometry: swapping
    /// the two links swaps the directional PRRs.
    #[test]
    fn validation_is_geometrically_symmetric(
        a in arb_pos(), b in arb_pos(), c in arb_pos(), d in arb_pos(),
    ) {
        let cfg = ProtocolConfig::testbed();
        let v = ConcurrencyValidator::new(cfg.reception(), cfg.t_prr);
        let (p1, p2) = v.pairwise(a, b, c, d);
        let (q1, q2) = v.pairwise(c, d, a, b);
        prop_assert!((p1 - q2).abs() < 1e-9 && (p2 - q1).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&p1) && (0.0..=1.0).contains(&p2));
    }

    /// Model probabilities stay probabilities over the whole parameter
    /// grid, and goodput is finite and non-negative.
    #[test]
    fn model_is_well_behaved(
        cw in 1u32..2048,
        contenders in 0usize..20,
        hidden in 0usize..10,
        payload in 50u32..2400,
        hetero in any::<bool>(),
    ) {
        let input = ModelInput {
            phy: PhyTiming::dsss(),
            rate: Rate::Mbps11,
            cw,
            contenders,
            hidden,
            payload_bytes: payload,
            hidden_profile: hetero.then_some(HiddenProfile::DCF_DEFAULT),
        };
        let stats = DcfModel::slot_stats(&input);
        for v in [stats.tau, stats.p_tr, stats.p_s, stats.p_s_i] {
            prop_assert!((0.0..=1.0).contains(&v), "{stats:?}");
        }
        let s = DcfModel::per_node_goodput(&input);
        prop_assert!(s.is_finite() && s >= 0.0);
        prop_assert!(s <= Rate::Mbps11.bits_per_second());
    }

    /// Adding hidden terminals never increases modeled goodput.
    #[test]
    fn model_monotone_in_hidden_terminals(
        cw in prop::sample::select(CW_CANDIDATES.to_vec()),
        contenders in 0usize..10,
        payload in 100u32..2200,
        hidden in 0usize..8,
    ) {
        let mk = |h: usize| ModelInput {
            phy: PhyTiming::dsss(),
            rate: Rate::Mbps11,
            cw,
            contenders,
            hidden: h,
            payload_bytes: payload,
            hidden_profile: Some(HiddenProfile::DCF_DEFAULT),
        };
        let a = DcfModel::per_node_goodput(&mk(hidden));
        let b = DcfModel::per_node_goodput(&mk(hidden + 1));
        prop_assert!(b <= a + 1e-9);
    }

    /// The adaptation table's stored entry beats (or ties) every
    /// candidate it was allowed to choose from.
    #[test]
    fn adaptation_entry_is_argmax(h in 0usize..4, c in 0usize..4) {
        let t = AdaptationTable::precompute(PhyTiming::dsss(), Rate::Mbps11, 4, 4);
        let s = t.setting(h, c);
        for &cw in &CW_CANDIDATES {
            for payload in payload_candidates().filter(|&p| p <= 1500) {
                let g = DcfModel::per_node_goodput(&ModelInput {
                    phy: PhyTiming::dsss(),
                    rate: Rate::Mbps11,
                    cw,
                    contenders: c,
                    hidden: h,
                    payload_bytes: payload,
                    hidden_profile: Some(HiddenProfile::DCF_DEFAULT),
                });
                prop_assert!(g <= s.predicted_goodput + 1e-9);
            }
        }
    }

    /// The co-occurrence map behaves like a map: last write wins, lookup
    /// reflects exactly the recorded set, invalidation removes precisely
    /// the entries involving the node.
    #[test]
    fn cooccurrence_map_semantics(
        ops in prop::collection::vec((0u8..3, 0u32..6, 0u32..6, 0u32..6, any::<bool>()), 0..120),
    ) {
        let mut map: CoOccurrenceMap<u32> = CoOccurrenceMap::new();
        let mut shadow: std::collections::BTreeMap<((u32, u32), u32), bool> =
            std::collections::BTreeMap::new();
        for (op, a, b, r, allowed) in ops {
            match op {
                0 => {
                    if a != b {
                        map.record((a, b), r, allowed);
                        shadow.insert(((a, b), r), allowed);
                    }
                }
                1 => {
                    if a != b {
                        let got = map.lookup((a, b), r);
                        prop_assert_eq!(got, shadow.get(&((a, b), r)).copied());
                    }
                }
                _ => {
                    map.invalidate_involving(a);
                    shadow.retain(|&((s, d), rx), _| s != a && d != a && rx != a);
                }
            }
        }
    }
}
