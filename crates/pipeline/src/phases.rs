//! In-tree phase profiler for the per-record hot loop.
//!
//! The container has no sampling profiler, so attribution of
//! `process()` time is measured directly: when a simulator is built with
//! [`crate::SimOptions::profile_phases`], the record loop reads a
//! monotonic timestamp at each section boundary and accumulates the
//! deltas into five buckets — fetch, rename, predict, execute, commit.
//! Consecutive laps telescope, so the bucket sum equals the measured
//! wall time spent inside `process()` *exactly* (timestamp-read overhead
//! is attributed to the section it ends, never lost).
//!
//! The instrumentation is monomorphized behind a `const PROFILING: bool`
//! parameter of the record loop: a simulator built without the option
//! runs code containing no timestamp reads and no accumulator — the
//! profiler is zero-cost when off, so measurement runs and profiled runs
//! produce bit-identical statistics (pinned by tests).

/// Number of attributed sections.
pub const COUNT: usize = 5;

/// Section names, indexed by the `PHASE_*` constants.
pub const NAMES: [&str; COUNT] = ["fetch", "rename", "predict", "exec", "commit"];

/// Fetch: width booking and I-cache access.
pub const FETCH: usize = 0;
/// Rename: width booking and the structural resource gate.
pub const RENAME: usize = 1;
/// Predict: first-level lookup, compare predictions, final direction
/// selection and override re-steer.
pub const PREDICT: usize = 2;
/// Execute: dependencies, issue, functional units, memory access,
/// flush verification, branch resolution/training and writeback.
pub const EXEC: usize = 3;
/// Commit: in-order retirement, stall attribution, store commit,
/// resource holds, statistics and event flush.
pub const COMMIT: usize = 4;

/// The per-simulator accumulator (heap-boxed; only profiled runs carry
/// one).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PhaseAcc {
    pub(crate) nanos: [u64; COUNT],
    pub(crate) records: u64,
}

/// Accumulated `process()` time attribution for one simulator run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseReport {
    /// Nanoseconds attributed to each section (see [`NAMES`]).
    pub nanos: [u64; COUNT],
    /// Records processed while profiling.
    pub records: u64,
}

impl PhaseReport {
    /// Total measured time inside `process()` — exactly the bucket sum
    /// (laps telescope).
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Merges another report into this one (per-cell reports aggregate).
    pub fn merge(&mut self, other: &PhaseReport) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos) {
            *a += b;
        }
        self.records += other.records;
    }
}

impl From<PhaseAcc> for PhaseReport {
    fn from(acc: PhaseAcc) -> Self {
        PhaseReport {
            nanos: acc.nanos,
            records: acc.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merge() {
        let mut a = PhaseReport {
            nanos: [1, 2, 3, 4, 5],
            records: 10,
        };
        assert_eq!(a.total_nanos(), 15);
        a.merge(&PhaseReport {
            nanos: [5, 4, 3, 2, 1],
            records: 7,
        });
        assert_eq!(a.nanos, [6; COUNT]);
        assert_eq!(a.records, 17);
        assert_eq!(NAMES.len(), COUNT);
    }
}
