//! The wide read-side kernels (DESIGN.md §16) must be *bit-identical*
//! to the retained scalar reference paths on well-formed streams —
//! every singleton, occupancy gauge, merged counter, and difference
//! state, not just statistically close. The wide screen is only
//! allowed to skip signature decodes it can prove irrelevant, and the
//! fixed-width merge/subtract kernels may only reorder independent
//! wrapping lane operations.
//!
//! Boundary shapes are chosen around the kernels' chunk widths:
//! `SCREEN_LANES = 64` (the screen mask width — `r·s ∈ {62, 64, 66}`
//! exercises the chunk tail) and the 64-lane slab chunks at the
//! `r = 2, s = 128` level size (`r·s ∈ {254, 256, 258}`: four chunks
//! short of a lane, exact, and with a two-lane tail).

use ddos_streams::{
    DestAddr, DistinctCountSketch, FlowUpdate, ScenarioBuilder, SketchConfig, SourceAddr,
};

/// `(num_tables, buckets_per_table)` shapes straddling the wide-kernel
/// thresholds, plus the default-ish shape the scenario tests use.
const BOUNDARY_SHAPES: &[(usize, usize)] = &[
    // r·s around SCREEN_LANES = 64: one short chunk, one exact, one +tail.
    (2, 31),
    (2, 32),
    (2, 33),
    // r·s around 256 (four slab chunks): short of a lane, exact, +tail.
    (2, 127),
    (2, 128),
    (2, 129),
];

fn config(r: usize, s: usize, seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .num_tables(r)
        .buckets_per_table(s)
        .seed(seed)
        .build()
        .unwrap()
}

/// Every wide read of `sketch` must agree bit-for-bit with its scalar
/// reference twin.
fn assert_reads_equivalent(sketch: &DistinctCountSketch, context: &str) {
    assert_eq!(
        sketch.singletons(),
        sketch.singletons_reference(),
        "singleton enumeration diverged ({context})"
    );
    for level in 0..sketch.config().max_levels() {
        assert_eq!(
            sketch.level_occupancy(level),
            sketch.level_occupancy_reference(level),
            "occupancy diverged at level {level} ({context})"
        );
    }
}

/// Applies a fixed-seed attack scenario (background churn with
/// deletions plus a SYN flood) to one sketch.
fn attacked(config: SketchConfig) -> DistinctCountSketch {
    let scenario = ScenarioBuilder::new(17)
        .background(4_000, 60, 0.8)
        .syn_flood(0x0a00_0001, 600)
        .build();
    let mut sketch = DistinctCountSketch::new(config);
    for u in scenario.updates() {
        sketch.update(*u);
    }
    sketch
}

/// Seeded well-formed random churn: deletes only remove live pairs, a
/// third of inserts repeat a live pair, and the all-zero flow key
/// `(0, 0)` — invisible to both screen sums — is kept live throughout.
fn churned(config: SketchConfig, seed: u64, updates: usize) -> DistinctCountSketch {
    use rand::prelude::*;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut sketch = DistinctCountSketch::new(config);
    sketch.update(FlowUpdate::insert(SourceAddr(0), DestAddr(0)));
    let mut live: Vec<(u32, u32)> = Vec::new();
    for _ in 0..updates {
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
        sketch.update(update);
    }
    sketch
}

#[test]
fn wide_reads_match_reference_on_attack_scenario() {
    for &(r, s) in BOUNDARY_SHAPES {
        let sketch = attacked(config(r, s, 23));
        assert_reads_equivalent(&sketch, &format!("attack, r = {r}, s = {s}"));
    }
}

#[test]
fn wide_reads_match_reference_on_random_churn() {
    for seed in [3u64, 29, 71] {
        for &(r, s) in BOUNDARY_SHAPES {
            let sketch = churned(config(r, s, seed), seed, 6_000);
            assert_reads_equivalent(&sketch, &format!("churn seed {seed}, r = {r}, s = {s}"));
        }
    }
}

#[test]
fn wide_merge_matches_reference_merge_bit_for_bit() {
    for &(r, s) in BOUNDARY_SHAPES {
        // Same sketch seed (merge requires identical configs), two
        // different streams.
        let a = attacked(config(r, s, 23));
        let b = churned(config(r, s, 23), 29, 6_000);

        let mut wide = a.clone();
        wide.merge_from(&b).unwrap();
        let mut reference = a.clone();
        reference.merge_from_reference(&b).unwrap();

        assert_eq!(
            wide.to_state(),
            reference.to_state(),
            "merged state diverged (r = {r}, s = {s})"
        );
        assert_reads_equivalent(&wide, &format!("post-merge, r = {r}, s = {s}"));
    }
}

#[test]
fn wide_difference_matches_reference_difference_bit_for_bit() {
    for &(r, s) in BOUNDARY_SHAPES {
        // Build the snapshot as a mid-stream clone so `difference`
        // subtracts a genuine earlier state with shared levels.
        let mut sketch = churned(config(r, s, 3), 3, 3_000);
        let snapshot = sketch.clone();
        let scenario = ScenarioBuilder::new(17).syn_flood(0x0a00_0001, 600).build();
        for u in scenario.updates() {
            sketch.update(*u);
        }

        let wide = sketch.difference(&snapshot).unwrap();
        let reference = sketch.difference_reference(&snapshot).unwrap();
        assert_eq!(
            wide.to_state(),
            reference.to_state(),
            "difference state diverged (r = {r}, s = {s})"
        );
        assert_reads_equivalent(&wide, &format!("post-difference, r = {r}, s = {s}"));
    }
}

#[test]
fn batched_point_queries_match_single_shot_queries() {
    let sketch = attacked(config(3, 256, 23));
    let groups: Vec<u32> = vec![0x0a00_0001, 0, 1, 7, 0xdead_beef, 42];

    let batched = sketch.estimate_group_frequencies(&groups, 0.25);
    assert_eq!(batched.len(), groups.len());

    let sample = sketch.distinct_sample(0.25);
    for (group, &batch_estimate) in groups.iter().zip(&batched) {
        assert_eq!(
            batch_estimate,
            sketch.estimate_group_frequency(*group, 0.25),
            "batched estimate diverged from single-shot for group {group:#x}"
        );
        assert_eq!(
            batch_estimate,
            sample.group_frequency(sketch.config().group_by(), *group),
            "batched estimate diverged from sample handle for group {group:#x}"
        );
    }
}

#[test]
fn zero_key_survives_every_read_path() {
    // FlowKey(0, 0) packs to 0 and fingerprints to 0, so both screen
    // sums stay zero for a bucket holding only that key — the wide
    // screen must still report it via the signature total.
    let mut sketch = DistinctCountSketch::new(config(2, 32, 5));
    sketch.update(FlowUpdate::insert(SourceAddr(0), DestAddr(0)));

    assert_eq!(sketch.singletons(), sketch.singletons_reference());
    assert!(
        !sketch.singletons().is_empty(),
        "the all-zero key vanished from the wide singleton enumeration"
    );
    for level in 0..sketch.config().max_levels() {
        assert_eq!(
            sketch.level_occupancy(level),
            sketch.level_occupancy_reference(level)
        );
    }
    assert_eq!(sketch.estimate_group_frequency(0, 0.25), 1);
    assert_eq!(sketch.estimate_group_frequencies(&[0], 0.25), vec![1]);
}
