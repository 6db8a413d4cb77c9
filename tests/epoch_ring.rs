//! Edge cases of the epoch window ring, with and without a checkpoint
//! round trip in the middle.
//!
//! The ring is the subtlest state the checkpoint format carries: it
//! wraps (oldest deltas subtracted out), it can be partially filled or
//! empty, and its declared capacity must bound what a document holds.
//! Each scenario here runs against a windowed monitor that has been
//! serialized to bytes (the kind-5 `Window` document) and restored,
//! asserting the restored monitor answers exactly like the original.
//! Ring wrap and eviction order are pinned by `tests/window_equivalence.rs`.

use ddos_streams::netsim::window::{EpochWindow, WindowPolicy, WindowedMonitor};
use ddos_streams::persist::{decode, encode, Checkpoint, PersistError};
use ddos_streams::{AlarmPolicy, DestAddr, FlowUpdate, SketchConfig, SourceAddr};

fn config() -> SketchConfig {
    SketchConfig::builder()
        .buckets_per_table(128)
        .seed(21)
        .build()
        .unwrap()
}

/// Serializes a windowed monitor through the full codec (the kind-5
/// `Window` document) and restores it.
fn window_roundtrip(wm: &WindowedMonitor, policy: WindowPolicy) -> WindowedMonitor {
    let bytes = encode(&Checkpoint::Window(wm.to_checkpoint()));
    let Checkpoint::Window(checkpoint) = decode(&bytes).unwrap() else {
        panic!("wrong document kind");
    };
    WindowedMonitor::from_checkpoint(checkpoint, wm.monitor().policy().clone(), policy).unwrap()
}

#[test]
fn window_slide_before_ring_full_keeps_partial_coverage_across_restore() {
    // Two rotations into a four-epoch window: the ring is half full,
    // the window covers exactly the two closed epochs, and a checkpoint
    // taken in that state must restore the short ring as-is.
    let window_policy = WindowPolicy::Sliding { epochs: 4 };
    let mut wm =
        WindowedMonitor::new(config(), AlarmPolicy::default(), window_policy.clone()).unwrap();
    for epoch in 0..2u32 {
        for s in 0..30u32 {
            wm.ingest_one(FlowUpdate::insert(
                SourceAddr(epoch * 1_000 + s),
                DestAddr(epoch),
            ));
        }
        wm.rotate().unwrap();
    }
    // Open-epoch traffic that must stay out of the window.
    for s in 0..40u32 {
        wm.ingest_one(FlowUpdate::insert(SourceAddr(70_000 + s), DestAddr(9)));
    }
    assert_eq!(wm.window().len(), 2, "partial ring holds the closed epochs");
    assert_eq!(wm.window().sketch().updates_processed(), 60);
    let top = wm.windowed_top_k(4);
    assert!(top.frequency_of(9).is_none(), "open epoch leaked: {top}");
    let restored = window_roundtrip(&wm, window_policy);
    assert_eq!(restored.window().len(), 2);
    assert_eq!(
        restored.window().sketch().to_state(),
        wm.window().sketch().to_state()
    );
    assert_eq!(restored.windowed_top_k(4), wm.windowed_top_k(4));
}

#[test]
fn rotation_landing_exactly_on_checkpoint_save_resumes_identically() {
    // A checkpoint taken at the instant an epoch closes (rotate, then
    // save, no updates in between) is the boundary case for the epoch
    // base: the restored base must equal the cumulative state, so the
    // next epoch's delta starts empty instead of replaying the closed
    // epoch. The restored run must track an uninterrupted one
    // state-for-state.
    let window_policy = WindowPolicy::Sliding { epochs: 3 };
    let mut live =
        WindowedMonitor::new(config(), AlarmPolicy::default(), window_policy.clone()).unwrap();
    for epoch in 0..4u32 {
        for s in 0..25u32 {
            live.ingest_one(FlowUpdate::insert(
                SourceAddr(epoch * 2_000 + s),
                DestAddr(epoch % 2),
            ));
        }
        live.rotate().unwrap();
    }
    // Save lands exactly on the rotation boundary.
    let mut restored = window_roundtrip(&live, window_policy);
    assert_eq!(restored.window().epochs_rotated(), 4);
    for epoch in 4..7u32 {
        for s in 0..25u32 {
            let u = FlowUpdate::insert(SourceAddr(epoch * 2_000 + s), DestAddr(epoch % 2));
            live.ingest_one(u);
            restored.ingest_one(u);
        }
        assert_eq!(live.rotate().unwrap(), restored.rotate().unwrap());
        assert_eq!(
            live.window().sketch().to_state(),
            restored.window().sketch().to_state(),
            "diverged at epoch {epoch}"
        );
    }
}

#[test]
fn empty_ring_restores() {
    // No rotations at all: the delta list is empty and only the live
    // sketch carries traffic; the document must round-trip exactly.
    let window_policy = WindowPolicy::Sliding { epochs: 4 };
    let mut wm =
        WindowedMonitor::new(config(), AlarmPolicy::default(), window_policy.clone()).unwrap();
    for s in 0..50u32 {
        wm.ingest_one(FlowUpdate::insert(SourceAddr(s), DestAddr(3)));
    }
    let restored = window_roundtrip(&wm, window_policy);
    assert!(restored.window().is_empty());
    assert_eq!(restored.window().epochs_rotated(), 0);
    assert_eq!(restored.to_checkpoint(), wm.to_checkpoint());
}

#[test]
fn oversized_delta_list_is_rejected() {
    // A document holding more deltas than the ring capacity it declares
    // cannot have come from a live window; it must be refused, not
    // truncated.
    let window_policy = WindowPolicy::Sliding { epochs: 2 };
    let mut wm =
        WindowedMonitor::new(config(), AlarmPolicy::default(), window_policy.clone()).unwrap();
    for epoch in 0..2u32 {
        for s in 0..10u32 {
            wm.ingest_one(FlowUpdate::insert(
                SourceAddr(epoch * 1_000 + s),
                DestAddr(epoch),
            ));
        }
        wm.rotate().unwrap();
    }
    let mut checkpoint = wm.to_checkpoint();
    let extra = checkpoint.deltas[0].clone();
    checkpoint.deltas.push(extra);
    assert!(matches!(
        EpochWindow::from_checkpoint(checkpoint, window_policy),
        Err(PersistError::Incompatible { .. })
    ));
}
