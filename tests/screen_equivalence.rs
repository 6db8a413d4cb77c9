//! The screened tracking hot path must be *bit-identical* to the
//! unscreened reference path on well-formed streams — every estimate,
//! not just statistically close. The singleton screen is only allowed
//! to skip decodes it can prove irrelevant.

use ddos_streams::{
    DestAddr, FlowUpdate, GroupBy, ScenarioBuilder, SketchConfig, SourceAddr, TrackingDcs,
};

fn config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(256)
        .seed(seed)
        .build()
        .unwrap()
}

fn assert_equivalent(screened: &TrackingDcs, reference: &TrackingDcs) {
    for k in [1, 5, 10] {
        assert_eq!(
            screened.track_top_k(k, 0.25),
            reference.track_top_k(k, 0.25),
            "track_top_k diverged at k = {k}"
        );
    }
    assert_eq!(
        screened.estimate_distinct_pairs(0.25),
        reference.estimate_distinct_pairs(0.25)
    );
    assert_eq!(
        screened.sketch().estimate_top_k(10, 0.25),
        reference.sketch().estimate_top_k(10, 0.25)
    );
    // Every counter, singleton multiset and heap slot array.
    assert_eq!(screened.to_state(), reference.to_state());
    screened.check_tracking_invariants().unwrap();
    reference.check_tracking_invariants().unwrap();
    assert_eq!(screened.untracked_decrements(), 0);
    assert_eq!(reference.untracked_decrements(), 0);
    assert_eq!(screened.heap_underflows(), 0);
    assert_eq!(reference.heap_underflows(), 0);
}

#[test]
fn screened_updates_match_reference_on_attack_scenario() {
    // Fixed-seed scenario with background churn (flows opening and
    // closing, i.e. deletions) plus a SYN flood.
    let scenario = ScenarioBuilder::new(17)
        .background(4_000, 60, 0.8)
        .syn_flood(0x0a00_0001, 600)
        .build();

    let mut screened = TrackingDcs::new(config(23));
    let mut reference = TrackingDcs::new(config(23));
    for u in scenario.updates() {
        screened.update(*u);
        reference.update_reference(*u);
    }
    assert_equivalent(&screened, &reference);
}

#[test]
fn screened_updates_match_reference_on_random_churn() {
    // Seeded random well-formed insert/delete stream: deletes only
    // remove currently-live packets, so no net count ever goes
    // negative. A third of the inserts repeat an already-live pair
    // (multi-packet flows), driving per-pair net counts above one —
    // the case the screen's own-singleton fast skip absorbs.
    use rand::prelude::*;

    for seed in [3u64, 29, 71] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut screened = TrackingDcs::new(config(seed));
        let mut reference = TrackingDcs::new(config(seed));
        let mut live: Vec<(u32, u32)> = Vec::new();
        for _ in 0..6_000 {
            let update = if !live.is_empty() && rng.gen_bool(0.4) {
                let i = rng.gen_range(0..live.len());
                let (s, d) = live.swap_remove(i);
                FlowUpdate::delete(SourceAddr(s), DestAddr(d))
            } else {
                let (s, d) = if !live.is_empty() && rng.gen_bool(0.33) {
                    live[rng.gen_range(0..live.len())]
                } else {
                    (rng.gen(), rng.gen_range(0..12))
                };
                live.push((s, d));
                FlowUpdate::insert(SourceAddr(s), DestAddr(d))
            };
            screened.update(update);
            reference.update_reference(update);
        }
        assert_equivalent(&screened, &reference);
    }
}

#[test]
fn screened_updates_match_reference_on_flood_plus_flash_crowd() {
    // The pipeline's traffic shape: each pair is inserted once (SYN)
    // and deleted at most once (ACK), and both the flood and the crowd
    // bind all their pairs to one destination. Buckets the two fill
    // collide pairs that share the destination half of the key.
    for seed in [5u64, 41] {
        let scenario = ScenarioBuilder::new(seed)
            .background(2_000, 40, 0.9)
            .syn_flood(0x0a00_0001, 3_000)
            .flash_crowd(0x0a00_0002, 3_000, 0.95)
            .build();
        let mut screened = TrackingDcs::new(config(seed));
        let mut reference = TrackingDcs::new(config(seed));
        for u in scenario.updates() {
            screened.update(*u);
            reference.update_reference(*u);
        }
        assert_equivalent(&screened, &reference);
    }
}

#[test]
fn screened_updates_match_reference_on_port_scan_by_source() {
    // One scanner probing many destinations, grouped by source: the
    // colliding pairs share the source half of the key instead.
    let cfg = SketchConfig::builder()
        .buckets_per_table(256)
        .group_by(GroupBy::Source)
        .seed(13)
        .build()
        .unwrap();
    let scenario = ScenarioBuilder::new(13)
        .background(1_000, 30, 0.9)
        .port_scan(0xc0a8_0001, 4_000)
        .build();
    let mut screened = TrackingDcs::new(cfg.clone());
    let mut reference = TrackingDcs::new(cfg);
    for u in scenario.updates() {
        screened.update(*u);
        reference.update_reference(*u);
    }
    assert_equivalent(&screened, &reference);
    let top = screened.track_top_k(1, 0.25);
    assert_eq!(
        top.entries.first().map(|e| e.group),
        Some(0xc0a8_0001),
        "the scanner leads the by-source ranking"
    );
}
