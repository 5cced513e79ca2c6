//! The differential oracle.
//!
//! [`check_program`] runs one program through the architectural emulator
//! (`ppsim_isa::Machine`) to establish ground truth — recording the
//! committed stream into a [`TraceBuffer`] along the way — then through
//! the timing pipeline under every scheme × predication-model cell.
//!
//! One designated cell (the paper's headline predicate/selective point,
//! see [`Cell::lockstep`]) still carries an inline `Machine` and diffs
//! committed effects against the reference: dynamic instruction count,
//! every architectural register file, and memory at every stored-to
//! address. That cell guards the `Machine`-in-`Simulator` coupling
//! itself. The remaining cells replay the shared capture — the
//! architectural stream is then the reference stream *by construction*
//! (which is exactly the property that makes capture-once/replay-many
//! sound), so re-diffing it per cell would be redundant; they are
//! checked against the trace's halt and step count instead.
//!
//! On top of the architectural diff every cell pins the cross-scheme
//! invariants that must hold for *any* program:
//!
//! * stall-bucket conservation — every cycle charged to exactly one
//!   bucket (`stall.total() == cycles`),
//! * stage monotonicity — `fetched >= renamed >= committed`,
//! * flush accounting — every flush-replayed instruction traces back to
//!   a mispredict or predication flush
//!   (`fetched - committed <= mispredicts + predication_flushes`),
//! * early resolution is exact — a branch that consumed a computed
//!   predicate at rename never flushes (§3.2),
//! * the oracle-final ideal predictor never mispredicts.
//!
//! A simulator panic is caught and reported as a divergence rather than
//! tearing down the whole fuzz run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ppsim_isa::{ExecInfo, Fr, Gr, Machine, Pr, Program, TraceBuffer};
use ppsim_pipeline::{PredicationModel, SchemeSpec, SimOptions, SimStats, TestFault, TraceCursor};

/// Step budget for the reference emulator run. Generated programs halt
/// within a few thousand steps; hitting this bound means the *generator*
/// is broken, which is itself reported as a divergence.
pub const MAX_REF_STEPS: u64 = 200_000;

/// One point of the check grid: a scheme, a predication model, and
/// whether the ideal-conventional predictor runs in oracle-final mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Branch-prediction organization.
    pub scheme: SchemeSpec,
    /// How if-converted code is handled.
    pub predication: PredicationModel,
    /// Oracle-exact final direction (ideal-conventional only).
    pub oracle_final: bool,
}

impl Cell {
    /// The full grid: every scheme × {cmov, selective}, plus the
    /// oracle-final ideal-conventional cell — that is,
    /// `2 × SchemeSpec::ALL.len() + 1` cells, derived so a newly
    /// registered scheme joins the grid automatically.
    pub fn grid() -> Vec<Cell> {
        let mut cells = Vec::new();
        for scheme in SchemeSpec::ALL {
            for predication in [PredicationModel::Cmov, PredicationModel::Selective] {
                cells.push(Cell {
                    scheme,
                    predication,
                    oracle_final: false,
                });
            }
        }
        cells.push(Cell {
            scheme: SchemeSpec::IdealConventional,
            predication: PredicationModel::Selective,
            oracle_final: true,
        });
        cells
    }

    /// Whether this cell runs lockstep with an inline `Machine` (full
    /// architectural register/memory diff against the reference) instead
    /// of replaying the shared capture. Exactly one grid cell — the
    /// paper's headline predicate/selective point — keeps lockstep mode,
    /// guarding the functional/timing coupling that replay cells take as
    /// given.
    pub fn lockstep(&self) -> bool {
        self.scheme == SchemeSpec::Predicate
            && self.predication == PredicationModel::Selective
            && !self.oracle_final
    }

    /// Human-readable cell label (`predicate/selective`,
    /// `ideal-conventional/selective/oracle`, ...).
    pub fn label(&self) -> String {
        let model = match self.predication {
            PredicationModel::Cmov => "cmov",
            PredicationModel::Selective => "selective",
        };
        if self.oracle_final {
            format!("{}/{model}/oracle", self.scheme.name())
        } else {
            format!("{}/{model}", self.scheme.name())
        }
    }
}

/// What went wrong in one cell (or in the reference run).
#[derive(Clone, Debug, PartialEq)]
pub enum DivergenceKind {
    /// The reference emulator did not halt within [`MAX_REF_STEPS`].
    RefDidNotHalt {
        /// Steps executed before giving up.
        steps: u64,
    },
    /// The reference emulator reported a malformed program.
    RefError {
        /// The emulator's error message.
        message: String,
    },
    /// The timing simulator panicked.
    SimPanicked {
        /// Panic payload, when it was a string.
        message: String,
    },
    /// The simulator failed to commit the halt within the step budget.
    SimDidNotHalt {
        /// Instructions it did commit.
        committed: u64,
    },
    /// Committed dynamic instruction counts disagree.
    StepMismatch {
        /// Simulator machine steps.
        sim: u64,
        /// Reference machine steps.
        reference: u64,
    },
    /// A register differs between the two machines after the run.
    RegisterMismatch {
        /// `r5 = 3 vs 4`-style description of the first mismatch.
        detail: String,
    },
    /// A stored-to memory word differs between the two machines.
    MemoryMismatch {
        /// Byte address of the mismatching word.
        addr: u64,
        /// Simulator value.
        sim: u64,
        /// Reference value.
        reference: u64,
    },
    /// Stall buckets do not sum to the cycle count.
    StallLeak {
        /// Sum over all buckets.
        total: u64,
        /// The run's cycle count.
        cycles: u64,
    },
    /// `fetched >= renamed >= committed` violated.
    StageOrder {
        /// Fetch-stage events.
        fetched: u64,
        /// Rename-stage events.
        renamed: u64,
        /// Commits.
        committed: u64,
    },
    /// More flush-replayed instructions than flush causes.
    FlushAccounting {
        /// Fetch-stage events.
        fetched: u64,
        /// Commits.
        committed: u64,
        /// Branch mispredict flushes.
        mispredicts: u64,
        /// Predicate-speculation flushes.
        predication_flushes: u64,
    },
    /// An early-resolved branch flushed (§3.2 forbids this).
    EarlyResolveMispredict {
        /// Offending branch count.
        count: u64,
    },
    /// The oracle-final ideal predictor mispredicted.
    OracleMispredict {
        /// Mispredict count (must be zero).
        mispredicts: u64,
    },
    /// A single sampled window covering the whole committed stream (no
    /// skip, no warmup) did not reproduce the full run bit-for-bit.
    SampleIdentity {
        /// First differing headline counter, `name: sampled vs full`.
        detail: String,
    },
    /// The multi-window sampled aggregate misprediction rate drifted
    /// from the full run's beyond the allowed epsilon.
    SampleDrift {
        /// Full-run misprediction rate.
        full: f64,
        /// Window-aggregate misprediction rate.
        sampled: f64,
        /// The configured tolerance.
        epsilon: f64,
    },
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivergenceKind::RefDidNotHalt { steps } => {
                write!(f, "reference emulator did not halt within {steps} steps")
            }
            DivergenceKind::RefError { message } => {
                write!(f, "reference emulator error: {message}")
            }
            DivergenceKind::SimPanicked { message } => {
                write!(f, "simulator panicked: {message}")
            }
            DivergenceKind::SimDidNotHalt { committed } => {
                write!(f, "simulator stalled after committing {committed}")
            }
            DivergenceKind::StepMismatch { sim, reference } => {
                write!(f, "executed {sim} dynamic insns, reference executed {reference}")
            }
            DivergenceKind::RegisterMismatch { detail } => {
                write!(f, "final register state diverged: {detail}")
            }
            DivergenceKind::MemoryMismatch {
                addr,
                sim,
                reference,
            } => write!(
                f,
                "memory diverged at {addr:#x}: {sim:#x} vs reference {reference:#x}"
            ),
            DivergenceKind::StallLeak { total, cycles } => {
                write!(f, "stall buckets sum to {total}, cycles = {cycles}")
            }
            DivergenceKind::StageOrder {
                fetched,
                renamed,
                committed,
            } => write!(
                f,
                "stage counters out of order: fetched {fetched}, renamed {renamed}, committed {committed}"
            ),
            DivergenceKind::FlushAccounting {
                fetched,
                committed,
                mispredicts,
                predication_flushes,
            } => write!(
                f,
                "{} flush replays but only {} flush causes ({mispredicts} mispredicts + {predication_flushes} predication flushes)",
                fetched - committed,
                mispredicts + predication_flushes
            ),
            DivergenceKind::EarlyResolveMispredict { count } => {
                write!(f, "{count} early-resolved branches flushed")
            }
            DivergenceKind::OracleMispredict { mispredicts } => {
                write!(f, "oracle-final predictor mispredicted {mispredicts} branches")
            }
            DivergenceKind::SampleIdentity { detail } => {
                write!(f, "whole-stream sampled window diverged from the full run: {detail}")
            }
            DivergenceKind::SampleDrift {
                full,
                sampled,
                epsilon,
            } => write!(
                f,
                "sampled misprediction rate {sampled:.4} vs full {full:.4} exceeds epsilon {epsilon}"
            ),
        }
    }
}

/// A divergence pinned to the cell that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// [`Cell::label`] of the failing cell (`"reference"` when the
    /// reference run itself failed).
    pub cell: String,
    /// What diverged.
    pub kind: DivergenceKind,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.cell, self.kind)
    }
}

/// Ground truth from the reference emulator: final machine state, the
/// set of addresses any store touched, and the committed stream as a
/// capture every replay cell shares.
struct Reference {
    machine: Machine,
    store_addrs: Vec<u64>,
    trace: Arc<TraceBuffer>,
}

fn reference_run(program: &Program) -> Result<Reference, Divergence> {
    let mut machine = Machine::new(program);
    let mut store_addrs = Vec::new();
    let mut trace = TraceBuffer::new(program);
    let fail = |kind| {
        Err(Divergence {
            cell: "reference".to_string(),
            kind,
        })
    };
    for _ in 0..MAX_REF_STEPS {
        match machine.step() {
            Ok(Some(rec)) => {
                if rec.insn.is_store() {
                    if let ExecInfo::Mem { addr } = rec.info {
                        store_addrs.push(addr);
                    }
                }
                trace.push(&rec);
            }
            Ok(None) => {
                trace.mark_halted();
                break;
            }
            Err(e) => {
                return fail(DivergenceKind::RefError {
                    message: e.to_string(),
                })
            }
        }
    }
    if !machine.is_halted() {
        return fail(DivergenceKind::RefDidNotHalt {
            steps: machine.steps(),
        });
    }
    store_addrs.sort_unstable();
    store_addrs.dedup();
    Ok(Reference {
        machine,
        store_addrs,
        trace: Arc::new(trace),
    })
}

/// Diffs every architectural register file between the two machines,
/// returning a description of the first mismatch.
fn diff_registers(sim: &Machine, reference: &Machine) -> Option<String> {
    for i in 1..u8::MAX {
        let Some(r) = Gr::try_new(i) else { break };
        if sim.gr(r) != reference.gr(r) {
            return Some(format!("{r} = {} vs {}", sim.gr(r), reference.gr(r)));
        }
    }
    for i in 1..u8::MAX {
        let Some(r) = Fr::try_new(i) else { break };
        if sim.fr(r).to_bits() != reference.fr(r).to_bits() {
            return Some(format!("{r} = {} vs {}", sim.fr(r), reference.fr(r)));
        }
    }
    for i in 1..u8::MAX {
        let Some(r) = Pr::try_new(i) else { break };
        if sim.pr(r) != reference.pr(r) {
            return Some(format!("{r} = {} vs {}", sim.pr(r), reference.pr(r)));
        }
    }
    None
}

/// The cross-scheme timing invariants every cell must satisfy,
/// regardless of whether it ran lockstep or from the shared capture.
fn timing_invariants(s: &SimStats, cell: Cell) -> Result<(), DivergenceKind> {
    if s.stall.total() != s.cycles {
        return Err(DivergenceKind::StallLeak {
            total: s.stall.total(),
            cycles: s.cycles,
        });
    }
    if s.fetched < s.renamed || s.renamed < s.committed {
        return Err(DivergenceKind::StageOrder {
            fetched: s.fetched,
            renamed: s.renamed,
            committed: s.committed,
        });
    }
    if s.fetched - s.committed > s.mispredicts + s.predication_flushes {
        return Err(DivergenceKind::FlushAccounting {
            fetched: s.fetched,
            committed: s.committed,
            mispredicts: s.mispredicts,
            predication_flushes: s.predication_flushes,
        });
    }
    if s.early_resolved_mispredicts != 0 {
        return Err(DivergenceKind::EarlyResolveMispredict {
            count: s.early_resolved_mispredicts,
        });
    }
    if cell.oracle_final && s.mispredicts != 0 {
        return Err(DivergenceKind::OracleMispredict {
            mispredicts: s.mispredicts,
        });
    }
    Ok(())
}

/// `name: a vs b` for the first differing headline counter.
fn first_counter_diff(a: &SimStats, b: &SimStats) -> String {
    [
        ("committed", a.committed, b.committed),
        ("cycles", a.cycles, b.cycles),
        ("fetched", a.fetched, b.fetched),
        ("cond_branches", a.cond_branches, b.cond_branches),
        ("mispredicts", a.mispredicts, b.mispredicts),
    ]
    .iter()
    .find(|(_, x, y)| x != y)
    .map(|(name, x, y)| format!("{name}: {x} vs {y}"))
    .unwrap_or_else(|| "non-headline counters differ".to_string())
}

/// Unwraps a caught panic payload into a printable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs one cell against the reference and returns its first divergence.
fn check_cell(
    program: &Program,
    reference: &Reference,
    cell: Cell,
    fault: Option<TestFault>,
) -> Result<(), Divergence> {
    let fail = |kind| {
        Err(Divergence {
            cell: cell.label(),
            kind,
        })
    };
    let mut opts = SimOptions::new(cell.scheme, cell.predication);
    if cell.oracle_final {
        opts = opts.oracle_final(true);
    }
    if let Some(f) = fault {
        opts = opts.test_fault(f);
    }
    let budget = reference.machine.steps() + 8;

    let (run, machine_steps) = if cell.lockstep() {
        let mut sim = match opts.build_source(Machine::new(program)) {
            Ok(s) => s,
            Err(e) => {
                return fail(DivergenceKind::SimPanicked {
                    message: format!("build failed: {e}"),
                })
            }
        };
        let run = match catch_unwind(AssertUnwindSafe(|| sim.run(budget))) {
            Ok(r) => r,
            Err(payload) => {
                return fail(DivergenceKind::SimPanicked {
                    message: panic_message(payload),
                })
            }
        };

        // Architectural diff against the reference machine — only this
        // cell carries an inline machine whose state can drift. Halt and
        // step-count mismatches are reported by the shared checks below,
        // so only diff state when both already line up.
        if run.halted && sim.machine().steps() == reference.machine.steps() {
            let machine = sim.machine();
            if let Some(detail) = diff_registers(machine, &reference.machine) {
                return fail(DivergenceKind::RegisterMismatch { detail });
            }
            for &addr in &reference.store_addrs {
                let (got, want) = (
                    machine.mem().read_u64(addr),
                    reference.machine.mem().read_u64(addr),
                );
                if got != want {
                    return fail(DivergenceKind::MemoryMismatch {
                        addr,
                        sim: got,
                        reference: want,
                    });
                }
            }
        }
        let steps = sim.machine().steps();
        (run, steps)
    } else {
        let mut sim = match opts.build_source(TraceCursor::new(Arc::clone(&reference.trace))) {
            Ok(s) => s,
            Err(e) => {
                return fail(DivergenceKind::SimPanicked {
                    message: format!("build failed: {e}"),
                })
            }
        };
        let run = match catch_unwind(AssertUnwindSafe(|| sim.run(budget))) {
            Ok(r) => r,
            Err(payload) => {
                return fail(DivergenceKind::SimPanicked {
                    message: panic_message(payload),
                })
            }
        };
        // A replay cell consumes the reference stream itself, so its
        // commit count *is* its architectural step count.
        let steps = run.stats.committed;
        (run, steps)
    };

    let s = &run.stats;
    if !run.halted {
        return fail(DivergenceKind::SimDidNotHalt {
            committed: s.committed,
        });
    }
    if machine_steps != reference.machine.steps() {
        return fail(DivergenceKind::StepMismatch {
            sim: machine_steps,
            reference: reference.machine.steps(),
        });
    }
    timing_invariants(s, cell).or_else(fail)
}

/// Checks `program` across the whole cell grid, returning the number of
/// cells verified or the first divergence.
///
/// `fault` injects a deliberate predictor fault into every cell (inert
/// where inapplicable) — the self-test proving the oracle has teeth.
pub fn check_program(program: &Program, fault: Option<TestFault>) -> Result<u64, Divergence> {
    let reference = reference_run(program)?;
    let mut cells = 0;
    for cell in Cell::grid() {
        check_cell(program, &reference, cell, fault)?;
        cells += 1;
    }
    Ok(cells)
}

/// Formerly the fused cross-lane isolation check. Cells are no longer
/// fused, so there is nothing left to check: this verifies nothing and
/// returns `Ok(0)`, which keeps `check_program` plus `check_fused` equal
/// to the per-program cell count of [`crate::run_check`].
#[deprecated(
    note = "cells are no longer fused, so this checks nothing and returns Ok(0); \
            kept only so the benchmark harness builds, and removed with its next change"
)]
pub fn check_fused(_program: &Program, _fault: Option<TestFault>) -> Result<u64, Divergence> {
    Ok(0)
}

/// The sampled-simulation invariants (`ppsim check --sample-epsilon`),
/// run on the headline predicate/selective cell against the reference
/// capture:
///
/// 1. **Identity** — one window covering the whole committed stream with
///    no skip and no warmup must reproduce the full replay run's
///    statistics bit-for-bit (the windowing machinery must add nothing
///    and lose nothing).
/// 2. **Drift** — tiling the stream into three warmed-up windows, the
///    counter-summed aggregate misprediction rate must stay within
///    `epsilon` of the full run's rate (skipped for programs too short
///    to tile).
///
/// Returns the number of sampled checks performed (1 or 2).
pub fn check_sampled(
    program: &Program,
    fault: Option<TestFault>,
    epsilon: f64,
) -> Result<u64, Divergence> {
    let reference = reference_run(program)?;
    let cell = Cell {
        scheme: SchemeSpec::Predicate,
        predication: PredicationModel::Selective,
        oracle_final: false,
    };
    let label = format!("{}/sampled", cell.label());
    let diverge = |kind| Divergence {
        cell: label.clone(),
        kind,
    };
    let mut opts = SimOptions::new(cell.scheme, cell.predication);
    if let Some(f) = fault {
        opts = opts.test_fault(f);
    }
    let steps = reference.machine.steps();
    let budget = steps + 8;

    let run_window = |start: u64, len: u64, warmup: u64, measure: u64| {
        let mut sim = opts
            .build_source(TraceCursor::window(
                Arc::clone(&reference.trace),
                start,
                len,
            ))
            .map_err(|e| {
                diverge(DivergenceKind::SimPanicked {
                    message: format!("build failed: {e}"),
                })
            })?;
        match catch_unwind(AssertUnwindSafe(|| sim.run_sample(warmup, measure))) {
            Ok(r) => Ok(r.stats),
            Err(payload) => Err(diverge(DivergenceKind::SimPanicked {
                message: panic_message(payload),
            })),
        }
    };

    // Ground truth: the plain full replay of the capture.
    let full = run_window(0, steps, 0, budget)?;
    let mut sim = opts
        .build_source(TraceCursor::new(Arc::clone(&reference.trace)))
        .map_err(|e| {
            diverge(DivergenceKind::SimPanicked {
                message: format!("build failed: {e}"),
            })
        })?;
    let plain = match catch_unwind(AssertUnwindSafe(|| sim.run(budget))) {
        Ok(r) => r.stats,
        Err(payload) => {
            return Err(diverge(DivergenceKind::SimPanicked {
                message: panic_message(payload),
            }))
        }
    };
    if full != plain {
        return Err(diverge(DivergenceKind::SampleIdentity {
            detail: first_counter_diff(&full, &plain),
        }));
    }
    let mut checks = 1;

    // Multi-window drift: three equal windows tiling the stream, the
    // first quarter of each used as warmup.
    if steps >= 48 {
        let stride = steps / 3;
        let warmup = stride / 4;
        let measure = stride - warmup;
        let mut aggregate = SimStats::default();
        for i in 0..3u64 {
            aggregate.merge(&run_window(i * stride, stride, warmup, measure)?);
        }
        // A windowed rate estimate is only meaningful when the measured
        // phases saw a representative share of the stream's conditional
        // branches. Tiny generated programs routinely park their handful
        // of branches inside a warmup phase (where statistics are
        // deliberately suppressed), making the comparison 0-vs-something
        // by construction — skip those rather than cry divergence.
        let representative =
            plain.cond_branches >= 16 && aggregate.cond_branches * 2 >= plain.cond_branches;
        if representative {
            let (f, s) = (plain.misprediction_rate(), aggregate.misprediction_rate());
            if (s - f).abs() > epsilon {
                return Err(diverge(DivergenceKind::SampleDrift {
                    full: f,
                    sampled: s,
                    epsilon,
                }));
            }
            checks += 1;
        }
    }
    Ok(checks)
}

/// Re-checks only `cell` (the shrinker's cheap predicate: one cell
/// instead of the whole grid per candidate).
pub fn check_single_cell(
    program: &Program,
    cell: Cell,
    fault: Option<TestFault>,
) -> Result<(), Divergence> {
    let reference = reference_run(program)?;
    check_cell(program, &reference, cell, fault)
}

/// Finds the grid cell whose [`Cell::label`] matches `label`.
pub fn cell_by_label(label: &str) -> Option<Cell> {
    Cell::grid().into_iter().find(|c| c.label() == label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Form};
    use ppsim_isa::Asm;

    #[test]
    fn grid_covers_all_schemes_and_models() {
        // The teeth against grid rot: a scheme registered in
        // `SchemeSpec::ALL` but missing from the check grid — in either
        // predication model — fails here, so new schemes cannot dodge
        // the differential oracle.
        let grid = Cell::grid();
        assert_eq!(grid.len(), 2 * SchemeSpec::ALL.len() + 1);
        for scheme in SchemeSpec::ALL {
            for predication in [PredicationModel::Cmov, PredicationModel::Selective] {
                assert!(
                    grid.iter()
                        .any(|c| c.scheme == scheme && c.predication == predication),
                    "scheme {} missing from the {predication:?} grid column",
                    scheme.name()
                );
            }
        }
        assert_eq!(grid.iter().filter(|c| c.oracle_final).count(), 1);
        for cell in &grid {
            assert_eq!(cell_by_label(&cell.label()), Some(*cell));
        }
    }

    #[test]
    fn trivial_program_passes_everywhere() {
        let mut a = Asm::new();
        a.movi(ppsim_isa::Gr::new(4), 7);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(check_program(&p, None), Ok(Cell::grid().len() as u64));
    }

    #[test]
    fn generated_programs_pass_without_faults() {
        for iter in 0..5 {
            for form in Form::ALL {
                let p = generate(0xBEEF, iter, form);
                if let Err(d) = check_program(&p, None) {
                    panic!("iter {iter} {form:?}: {d}\n{}", p.listing());
                }
            }
        }
    }

    #[test]
    fn sampled_invariants_hold_on_generated_programs() {
        for iter in 0..5 {
            for form in Form::ALL {
                let p = generate(0xBEEF, iter, form);
                if let Err(d) = check_sampled(&p, None, 0.25) {
                    panic!("iter {iter} {form:?}: {d}\n{}", p.listing());
                }
            }
        }
    }

    #[test]
    fn sampled_drift_detector_has_teeth() {
        // A negative epsilon turns any drift — even zero — into a
        // violation on every program long enough to tile into windows.
        let mut found = false;
        for iter in 0..10 {
            let p = generate(0xBEEF, iter, Form::Branchy);
            match check_sampled(&p, None, -1.0) {
                Err(d) => {
                    assert!(matches!(d.kind, DivergenceKind::SampleDrift { .. }), "{d}");
                    assert!(d.cell.ends_with("/sampled"), "{}", d.cell);
                    found = true;
                    break;
                }
                Ok(checks) => assert_eq!(checks, 1, "a tiled program must trip the detector"),
            }
        }
        assert!(found, "no generated program was long enough to tile");
    }

    #[test]
    fn injected_oracle_fault_is_caught() {
        // A program with at least one dynamic conditional branch.
        let p = generate(0xBEEF, 0, Form::Branchy);
        let d = check_program(&p, Some(TestFault::InvertOracle))
            .expect_err("the inverted oracle must be detected");
        assert!(
            matches!(d.kind, DivergenceKind::OracleMispredict { .. }),
            "{d}"
        );
        assert!(d.cell.ends_with("/oracle"), "{}", d.cell);
    }

    #[test]
    fn injected_early_resolve_fault_is_caught() {
        let mut found = false;
        for iter in 0..10 {
            let p = generate(0xBEEF, iter, Form::Branchy);
            if let Err(d) = check_program(&p, Some(TestFault::InvertEarlyResolve)) {
                assert!(
                    matches!(d.kind, DivergenceKind::EarlyResolveMispredict { .. }),
                    "{d}"
                );
                found = true;
                break;
            }
        }
        assert!(
            found,
            "no generated program exercised an early-resolved branch"
        );
    }
}
