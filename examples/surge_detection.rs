//! Windowed surge detection: epoch-differenced sketches over a phased
//! timeline, including a low-rate pulse attack.
//!
//! Two things the plain all-time sketch cannot do on its own:
//!
//! 1. Spot a *surge* at a destination whose all-time total is
//!    unremarkable — solved by differencing the all-time sketch against
//!    its state at the last epoch boundary (sketches are linear).
//! 2. Catch a Kuzmanovic–Knightly-style low-rate *pulse* attack whose
//!    long-run average is tiny — the within-burst window shows the
//!    spike that coarse averages hide.
//!
//! Run: `cargo run --release --example surge_detection`

use ddos_streams::netsim::{EpochWindow, WindowPolicy};
use ddos_streams::streamgen::timeline::TimelineBuilder;
use ddos_streams::{DestAddr, SketchConfig, TrackingDcs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let steady_heavy = 0x0a00_0001u32; // always-busy destination
    let surge_victim = 0x0a00_0002u32; // quiet, then attacked
    let pulse_victim = 0x0a00_0003u32; // low-rate pulsed

    // 10 epochs of 100 ticks each. The surge hits in the final epoch;
    // the pulse attack fires one 5-tick burst per epoch.
    let timeline = TimelineBuilder::new(11)
        .steady_background(900, 20, 8, 0.92)
        .plateau_flood(surge_victim, 100, 12) // 1200 sources, final epoch
        .build();
    // The pulse attack runs concurrently; build it separately and merge
    // by tick so its periods align with epochs.
    let pulses = TimelineBuilder::new(12)
        .pulse_attack(pulse_victim, 10, 100, 5, 300)
        .build();
    // The steady-heavy destination accumulates 200 half-open flows per
    // epoch throughout (unanswered probes at a popular server).
    let chatter = TimelineBuilder::new(13)
        .plateau_flood(steady_heavy, 1_000, 2)
        .build();

    let mut all: Vec<_> = timeline
        .updates()
        .iter()
        .chain(pulses.updates())
        .chain(chatter.updates())
        .copied()
        .collect();
    all.sort_by_key(|t| t.at);

    let config = SketchConfig::builder()
        .buckets_per_table(1024)
        .seed(99)
        .build()?;
    let mut all_time_sketch = TrackingDcs::new(config.clone());
    let mut window = EpochWindow::new(config, WindowPolicy::Tumbling)?;

    // Epochs of half the 100-tick pulse period: a pulse burst is alive
    // in the first half of its period and torn down by the end, so the
    // burst and its teardown close in different epochs. Whole-period
    // epochs would always net the burst out.
    let epoch_ticks = 50u64;
    let mut next_rotation = epoch_ticks;
    let mut pulse_caught_in_window = false;

    for timed in &all {
        while timed.at >= next_rotation {
            window.advance(all_time_sketch.sketch())?;
            let recent = window.top_k(3, 0.25);
            if recent.frequency_of(pulse_victim).unwrap_or(0) >= 150 {
                pulse_caught_in_window = true;
            }
            next_rotation += epoch_ticks;
        }
        all_time_sketch.update(timed.update);
    }
    // End of run: close the final epoch (the surge's) and compare views.
    window.advance(all_time_sketch.sketch())?;

    let all_time = all_time_sketch.track_top_k(3, 0.25);
    let last_window = window.top_k(3, 0.25);

    println!("all-time top destinations:");
    for e in &all_time.entries {
        println!("  {} ≈ {}", DestAddr(e.group), e.estimated_frequency);
    }
    println!("\nlast-epoch window top destinations:");
    for e in &last_window.entries {
        println!("  {} ≈ {}", DestAddr(e.group), e.estimated_frequency);
    }

    // The windowed view ranks the fresh surge first…
    assert_eq!(last_window.entries[0].group, surge_victim);
    // …and the steady-heavy destination tops the all-time view.
    assert_eq!(all_time.entries[0].group, steady_heavy);
    // The pulse attack was visible inside at least one epoch window.
    assert!(pulse_caught_in_window, "pulse attack went unnoticed");
    // Yet its long-run residue is ~zero (bursts tear down):
    let residue = all_time_sketch
        .track_top_k(10, 0.25)
        .frequency_of(pulse_victim)
        .unwrap_or(0);
    println!("\npulse victim: caught in-window, all-time residue ≈ {residue} (true residue 0)");

    println!("\nOK: surge and pulse both surfaced by windows the all-time view hides.");
    Ok(())
}
