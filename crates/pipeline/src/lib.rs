//! # ppsim-pipeline — the eight-stage out-of-order core
//!
//! An execution-driven timing model of the machine in Table 1 of the
//! paper: 6-wide fetch/rename/commit, 256-entry ROB, 80/80/32-entry issue
//! queues, dual 64-entry load/store queues, the `ppsim-mem` hierarchy, and
//! a pluggable branch-prediction organization ([`SchemeKind`]):
//!
//! * `Conventional` — 4 KB gshare at fetch overridden by a 148 KB
//!   perceptron at rename (the baseline),
//! * `PepPa` — the 144 KB PEP-PA baseline with out-of-order
//!   predicate-register writes,
//! * `Predicate` — **the paper's scheme**: per-compare predictions stored
//!   in the predicate physical register file, consumed by branches (and,
//!   under [`PredicationModel::Selective`], by if-converted instructions)
//!   at rename, with early-resolved branches reading computed values,
//! * `Ideal*` — alias-free, perfect-history variants for the sensitivity
//!   studies.
//!
//! # Example
//!
//! ```
//! use ppsim_isa::{Asm, CmpRel, CmpType, Gr, Operand, Pr};
//! use ppsim_pipeline::{PredicationModel, SchemeKind, SimOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! let top = a.new_label();
//! a.bind(top);
//! a.addi(Gr::new(1), Gr::new(1), 1);
//! a.cmp(CmpType::Unc, CmpRel::Lt, Pr::new(1), Pr::new(2), Gr::new(1), Operand::imm(1000));
//! a.pred(Pr::new(1)).br(top);
//! a.halt();
//! let program = a.assemble()?;
//!
//! let mut sim = SimOptions::new(SchemeKind::Predicate, PredicationModel::Selective)
//!     .build_source(ppsim_isa::Machine::new(&program))?;
//! let result = sim.run(100_000);
//! assert!(result.halted);
//! assert!(result.stats.ipc() > 0.5);
//! assert_eq!(result.stats.stall.total(), result.stats.cycles);
//! # Ok(())
//! # }
//! ```

mod config;
mod core;
pub mod decode;
mod fxhash;
mod options;
pub mod phases;
mod resources;
mod sample;
mod stats;

pub use crate::core::{RunResult, Simulator};
pub use config::{CoreConfig, Latencies, PredicationModel};
pub use options::{SimOptions, SimOptionsError, TestFault};
pub use phases::PhaseReport;
/// Re-exported trace-engine types: capture a program's dynamic stream
/// once ([`TraceBuffer`]) and drive any number of timing cells from it,
/// one cursor per cell ([`SimOptions::build_source`]).
pub use ppsim_isa::{InsnSource, TraceBuffer, TraceCursor};
pub use ppsim_obs::{EventKind, EventRing, StallBreakdown, StallBucket, TraceEvent};
pub use ppsim_predictors::SchemeSpec;
/// Backwards-compatible alias for [`SchemeSpec`] (the enum moved to
/// `ppsim-predictors` so every layer shares one scheme authority).
pub use ppsim_predictors::SchemeSpec as SchemeKind;
pub use resources::{Pool, UnitSet, WidthLimiter};
pub use sample::{SampleSpec, SampleSpecError};
pub use stats::SimStats;
