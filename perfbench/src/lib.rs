//! Segment-to-alarm benchmark for `dcs_netsim::run_pipeline`.
//!
//! [`workload`] generates each workload's packet feeds from a seed;
//! [`replay`] drives the same job through the layers' public calls from
//! one thread, optionally inside [`trace`] spans; [`checks`] is the
//! correctness gate every pass must meet. `src/main.rs` runs the
//! measurements and `run.py` assembles them into the result line.

pub mod checks;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;
