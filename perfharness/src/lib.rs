//! Benchmark harness for ppsim.
//!
//! Three workloads exercise the simulator's crates through their public
//! API only; each run measures for a fixed time, checks every output and
//! reports either the end-to-end metrics (untraced) or the per-layer
//! metrics (traced). See `README.md` next to this crate.

pub mod cbpgen;
pub mod metrics;
pub mod probes;
pub mod span;
pub mod workloads;

pub use metrics::Outcome;
pub use workloads::{per_layer, run, Inject, RunSpec, Size, Workload, END_TO_END};
