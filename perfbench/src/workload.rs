//! The benchmark's workloads: packet feeds generated from a seed with
//! `TrafficDriver`, and the pipeline configuration each one runs under.

use std::path::Path;

use dcs_core::{DestAddr, SketchConfig};
use dcs_netsim::{
    CheckpointSidecar, PipelineConfig, TcpSegment, TelemetrySidecar, TrafficDriver, WindowPolicy,
};

/// The attacked destination in every workload.
pub const VICTIM: u32 = 0x0a00_0001;
/// The flash-crowd server (complete handshakes; never asserted on).
pub const FLASH_SERVER: u32 = 0x0a00_0002;
/// Legitimate sessions rotate over servers from here on.
const LEGIT_SERVER_BASE: u32 = 0x0a00_1000;
/// Ticks between rounds; a session's segments span at most 110 ticks.
const ROUND_TICKS: u64 = 200;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two feeds fanning in to one direct-mode monitor (Fig. 1).
    FloodFanin,
    /// One feed with a pulse-wave flood under a sliding window.
    PulseWindow,
    /// One feed of a spoofed flood into sharded ingest with checkpoints.
    SpoofSharded,
}

/// Every workload, in the order the benchmark lists them.
pub const ALL: [Workload; 3] = [
    Workload::FloodFanin,
    Workload::PulseWindow,
    Workload::SpoofSharded,
];

/// One generated job: the router feeds and how to run them.
#[derive(Debug, Clone)]
pub struct Job {
    /// The workload this job belongs to.
    pub workload: Workload,
    /// One time-ordered segment feed per edge router.
    pub feeds: Vec<Vec<TcpSegment>>,
    /// The pipeline configuration (sidecar paths included).
    pub config: PipelineConfig,
}

impl Job {
    /// Segments offered across all feeds.
    pub fn segments(&self) -> u64 {
        self.feeds.iter().map(|f| f.len() as u64).sum()
    }

    /// Removes the sidecar files so the next pass starts fresh (a
    /// leftover checkpoint would make the pass restore).
    pub fn clear_sidecars(&self) {
        if let Some(c) = &self.config.checkpoint {
            let _ = std::fs::remove_file(&c.path);
        }
        if let Some(t) = &self.config.telemetry {
            let _ = std::fs::remove_file(&t.path);
        }
    }
}

/// SplitMix64 step: derives independent driver seeds from one seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sketch(buckets: usize) -> SketchConfig {
    SketchConfig::builder()
        .num_tables(3)
        .buckets_per_table(buckets)
        .seed(7)
        .build()
        .expect("benchmark sketch configuration is valid")
}

/// One round of legitimate sessions spread over four servers that
/// rotate from round to round.
fn legit_round(driver: &mut TrafficDriver, round: u32, sessions: u32) {
    for k in 0..4 {
        let server = LEGIT_SERVER_BASE + (round * 4 + k) % 32;
        driver.legitimate_sessions(DestAddr(server), sessions / 4);
    }
}

impl Workload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FloodFanin => "flood_fanin",
            Workload::PulseWindow => "pulse_window",
            Workload::SpoofSharded => "spoof_sharded",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's feeds from `seed` and configures the
    /// pipeline, with any sidecar files under `dir`.
    pub fn generate(self, seed: u64, dir: &Path) -> Job {
        let mut config = PipelineConfig::default();
        let feeds = match self {
            Workload::FloodFanin => {
                config.sketch = sketch(512);
                config.batch_size = 1024;
                config.evaluate_every = 10_000;
                (0..2u32)
                    .map(|f| {
                        let mut d = TrafficDriver::new(mix(seed, 0x10 + u64::from(f)))
                            .with_source_base(0x2000_0000 + f * 0x0800_0000);
                        for round in 0..28 {
                            legit_round(&mut d, round, 3_000);
                            d.syn_flood(DestAddr(VICTIM), 800);
                            d.flash_crowd(DestAddr(FLASH_SERVER), 400);
                            d.advance_clock(ROUND_TICKS);
                        }
                        d.into_segments()
                    })
                    .collect()
            }
            Workload::PulseWindow => {
                config.sketch = sketch(128);
                config.batch_size = 1024;
                config.evaluate_every = 5_000;
                config.window = Some(WindowPolicy::Sliding { epochs: 8 });
                config.telemetry = Some(TelemetrySidecar {
                    path: dir.join("pulse_window.telemetry.jsonl"),
                    every: 20_000,
                });
                let mut d = TrafficDriver::new(mix(seed, 0x20));
                for round in 0..32 {
                    legit_round(&mut d, round, 3_000);
                    if round % 4 == 0 {
                        d.syn_flood(DestAddr(VICTIM), 3_000);
                    }
                    d.flash_crowd(DestAddr(FLASH_SERVER), 500);
                    d.advance_clock(ROUND_TICKS);
                }
                vec![d.into_segments()]
            }
            Workload::SpoofSharded => {
                config.sketch = sketch(512);
                config.batch_size = 1024;
                config.evaluate_every = 10_000;
                config.ingest_shards = Some(2);
                config.checkpoint = Some(CheckpointSidecar {
                    path: dir.join("spoof_sharded.ckpt"),
                    every: 150_000,
                });
                let mut d = TrafficDriver::new(mix(seed, 0x30));
                for round in 0..20 {
                    d.syn_flood(DestAddr(VICTIM), 20_000);
                    legit_round(&mut d, round, 1_000);
                    d.advance_clock(ROUND_TICKS);
                }
                vec![d.into_segments()]
            }
        };
        Job {
            workload: self,
            feeds,
            config,
        }
    }
}
