//! Churn soak for the arena-backed batched update path.
//!
//! The flat-arena refactor and `update_batch` promise *bit-identical*
//! state to the pre-arena per-update reference path — same singleton
//! decodes, same top-k (including heap tie-breaking, which depends on
//! `adjust()` call order), same `heap_bytes`. These properties drive
//! random insert/delete churn through both paths and compare exactly.

use proptest::prelude::*;
use std::collections::HashMap;

use ddos_streams::{
    Delta, DestAddr, DistinctCountSketch, FlowUpdate, SketchConfig, SourceAddr, TrackingDcs,
};

fn config(seed: u64) -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(64)
        .seed(seed)
        .build()
        .unwrap()
}

/// Turns a raw op list into a well-formed stream: a delete is only
/// emitted for a pair currently present, so per-pair net counts stay in
/// `{0, 1, …}` (the paper's §3 stream model).
fn well_formed(ops: Vec<(u32, u32, bool)>) -> Vec<FlowUpdate> {
    let mut net: HashMap<(u32, u32), i64> = HashMap::new();
    ops.into_iter()
        .map(|(s, d, del)| {
            let entry = net.entry((s, d)).or_insert(0);
            if del && *entry > 0 {
                *entry -= 1;
                FlowUpdate::new(SourceAddr(s), DestAddr(d), Delta::Delete)
            } else {
                *entry += 1;
                FlowUpdate::new(SourceAddr(s), DestAddr(d), Delta::Insert)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `update_batch` (arena + screening + prefetch) leaves a tracking
    /// sketch in exactly the state the unscreened per-update reference
    /// path produces, under heavy insert/delete churn and uneven batch
    /// splits.
    #[test]
    fn batched_churn_matches_reference_exactly(
        seed in 0u64..100,
        ops in proptest::collection::vec((0u32..300, 0u32..12, any::<bool>()), 1..400),
        splits in proptest::collection::vec(1usize..97, 1..8),
    ) {
        let updates = well_formed(ops);
        let mut batched = TrackingDcs::new(config(seed));
        let mut reference = TrackingDcs::new(config(seed));
        for u in &updates {
            reference.update_reference(*u);
        }
        // Feed the batched sketch in uneven chunks so chunk boundaries
        // land at arbitrary offsets, cycling through the split sizes.
        let mut offset = 0;
        let mut split_idx = 0;
        while offset < updates.len() {
            let take = splits[split_idx % splits.len()].min(updates.len() - offset);
            batched.update_batch(&updates[offset..offset + take]);
            offset += take;
            split_idx += 1;
        }

        prop_assert_eq!(batched.sketch().singletons(), reference.sketch().singletons());
        prop_assert_eq!(
            batched.sketch().estimate_top_k(10, 0.25),
            reference.sketch().estimate_top_k(10, 0.25)
        );
        prop_assert_eq!(
            batched.track_top_k(10, 0.25),
            reference.track_top_k(10, 0.25)
        );
        prop_assert_eq!(batched.heap_bytes(), reference.heap_bytes());
        prop_assert_eq!(batched.updates_processed(), reference.updates_processed());

        // The screen must never have clamped or missed: all tracking
        // side counters stay zero and invariants hold on both sides.
        prop_assert_eq!(batched.untracked_decrements(), 0);
        prop_assert_eq!(batched.heap_underflows(), 0);
        prop_assert_eq!(batched.heap_overflows(), 0);
        batched.check_tracking_invariants().map_err(TestCaseError::fail)?;
        reference.check_tracking_invariants().map_err(TestCaseError::fail)?;
    }

    /// The basic sketch's `update_batch` equals its per-update path on
    /// every observable: decoded singletons, the distinct sample, top-k,
    /// allocated levels, and allocation footprint.
    #[test]
    fn basic_batch_equals_sequential_slabs(
        seed in 0u64..100,
        ops in proptest::collection::vec((0u32..500, 0u32..8, any::<bool>()), 1..300),
    ) {
        let updates = well_formed(ops);
        let mut batched = DistinctCountSketch::new(config(seed));
        let mut sequential = DistinctCountSketch::new(config(seed));
        for u in &updates {
            sequential.update(*u);
        }
        batched.update_batch(&updates);
        prop_assert_eq!(batched.singletons(), sequential.singletons());
        prop_assert_eq!(batched.distinct_sample(0.25), sequential.distinct_sample(0.25));
        prop_assert_eq!(
            batched.estimate_top_k(10, 0.25),
            sequential.estimate_top_k(10, 0.25)
        );
        prop_assert_eq!(batched.allocated_levels(), sequential.allocated_levels());
        prop_assert_eq!(batched.heap_bytes(), sequential.heap_bytes());
        prop_assert_eq!(batched.net_updates(), sequential.net_updates());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bit-identity of `update_batch` against the per-update loop at
    /// every dispatch and chunking boundary: both sides of
    /// `BATCH_MIN_ROUTED` (where the batch entry point switches between
    /// the scalar loop and the routed plan) and of `BATCH_CHUNK` (where
    /// the routed plan splits into a second chunk), plus the empty and
    /// single-update batches, across `r ∈ {2, 3, 4}` and mixed
    /// insert/delete streams. `to_state` compares the full serialized
    /// sketch — every counter of every arena — so equality here is
    /// bit-identity, not observable-level agreement.
    #[test]
    fn batch_boundary_sizes_bit_identical(
        seed in 0u64..50,
        r in 2usize..5,
        raw in proptest::collection::vec(
            (any::<u32>(), 0u32..16, any::<bool>()),
            ddos_streams::core::BATCH_CHUNK + 1,
        ),
    ) {
        use ddos_streams::core::{BATCH_CHUNK, BATCH_MIN_ROUTED};
        let updates = well_formed(raw);
        let sizes = [
            0,
            1,
            BATCH_MIN_ROUTED - 1,
            BATCH_MIN_ROUTED,
            BATCH_MIN_ROUTED + 1,
            BATCH_CHUNK - 1,
            BATCH_CHUNK,
            BATCH_CHUNK + 1,
        ];
        for n in sizes {
            let slice = &updates[..n];
            let cfg = SketchConfig::builder()
                .num_tables(r)
                .buckets_per_table(64)
                .seed(seed)
                .build()
                .unwrap();
            let mut batched = DistinctCountSketch::new(cfg.clone());
            let mut sequential = DistinctCountSketch::new(cfg);
            batched.update_batch(slice);
            for u in slice {
                sequential.update(*u);
            }
            prop_assert_eq!(batched.to_state(), sequential.to_state(), "batch size {}", n);
        }
    }

    /// The tracking twin of `batch_boundary_sizes_bit_identical`: at the
    /// same dispatch and chunking boundaries and `r ∈ {2, 3, 4}`,
    /// `TrackingDcs::update_batch` leaves exactly the state of the
    /// per-update screened path and of the unscreened
    /// `update_reference` path. `TrackingState` holds every counter,
    /// the singleton multisets and each heap's slot array in order, so
    /// equality covers the heap arrangement too.
    #[test]
    fn tracking_batch_boundary_sizes_bit_identical(
        seed in 0u64..50,
        r in 2usize..5,
        raw in proptest::collection::vec(
            (any::<u32>(), 0u32..16, any::<bool>()),
            ddos_streams::core::BATCH_CHUNK + 1,
        ),
    ) {
        use ddos_streams::core::{BATCH_CHUNK, BATCH_MIN_ROUTED};
        let updates = well_formed(raw);
        let sizes = [
            0,
            1,
            BATCH_MIN_ROUTED - 1,
            BATCH_MIN_ROUTED,
            BATCH_MIN_ROUTED + 1,
            BATCH_CHUNK - 1,
            BATCH_CHUNK,
            BATCH_CHUNK + 1,
        ];
        for n in sizes {
            let slice = &updates[..n];
            let cfg = SketchConfig::builder()
                .num_tables(r)
                .buckets_per_table(64)
                .seed(seed)
                .build()
                .unwrap();
            let mut batched = TrackingDcs::new(cfg.clone());
            let mut sequential = TrackingDcs::new(cfg.clone());
            let mut reference = TrackingDcs::new(cfg);
            batched.update_batch(slice);
            for u in slice {
                sequential.update(*u);
                reference.update_reference(*u);
            }
            let state = batched.to_state();
            prop_assert_eq!(&state, &sequential.to_state(), "batch size {}", n);
            prop_assert_eq!(&state, &reference.to_state(), "batch size {}", n);
        }
    }
}
