//! Typed, validated simulator construction.
//!
//! [`SimOptions`] replaces the old `Simulator::with_*` method chain: every
//! knob is set on the builder and checked once at
//! [`SimOptions::build_source`], so an inapplicable override (a perceptron
//! geometry on a PEP-PA job, say) is a loud [`SimOptionsError`] instead of
//! a silently ignored call. The source passed to `build_source` selects
//! the execution mode — an inline [`ppsim_isa::Machine`] or a replaying
//! [`ppsim_isa::TraceCursor`] — through one constructor, so every caller
//! (CLI, serve, check, bench) shares a single build path.

use std::fmt;

use ppsim_isa::InsnSource;
use ppsim_predictors::{PerceptronConfig, PredicateConfig, SchemeSpec};

use crate::config::{CoreConfig, PredicationModel};
use crate::core::Simulator;

/// Builder for a [`Simulator`]: scheme, predication model, machine
/// configuration and the optional instrumentation/override knobs.
///
/// ```
/// use ppsim_pipeline::{PredicationModel, SchemeSpec, SimOptions};
/// # use ppsim_isa::{Asm, Machine};
/// # let mut a = Asm::new();
/// # a.halt();
/// # let program = a.assemble().unwrap();
/// let mut sim = SimOptions::new(SchemeSpec::Predicate, PredicationModel::Selective)
///     .trace_events(256)
///     .build_source(Machine::new(&program))
///     .unwrap();
/// let result = sim.run(10_000);
/// assert!(result.halted);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    pub(crate) scheme: SchemeSpec,
    pub(crate) predication: PredicationModel,
    pub(crate) core: CoreConfig,
    pub(crate) shadow: bool,
    pub(crate) trace_events: usize,
    pub(crate) perceptron: Option<PerceptronConfig>,
    pub(crate) predicate: Option<PredicateConfig>,
    pub(crate) oracle_final: bool,
    pub(crate) fault: Option<TestFault>,
    pub(crate) profile_phases: bool,
}

/// A deliberate, test-only predictor fault.
///
/// The differential check harness (`ppsim-check`) injects one of these to
/// prove its oracle actually catches a broken predictor: each variant
/// violates exactly one invariant the oracle pins. Never set on
/// measurement runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TestFault {
    /// Inverts the oracle-exact final direction under
    /// [`SimOptions::oracle_final`], breaking the "oracle predictor ⇒
    /// zero mispredict flushes" invariant. Inert on other schemes/modes.
    InvertOracle,
    /// Inverts the computed guard consumed by early-resolved branches
    /// (predicate schemes), breaking the §3.2 "early-resolved branches
    /// never mispredict" invariant. Inert on non-predicate schemes.
    InvertEarlyResolve,
}

impl SimOptions {
    /// Options for `scheme` under `predication`, on the paper's Table-1
    /// machine, with no instrumentation.
    pub fn new(scheme: SchemeSpec, predication: PredicationModel) -> Self {
        SimOptions {
            scheme,
            predication,
            core: CoreConfig::paper(),
            shadow: false,
            trace_events: 0,
            perceptron: None,
            predicate: None,
            oracle_final: false,
            fault: None,
            profile_phases: false,
        }
    }

    /// Replaces the machine configuration (default: [`CoreConfig::paper`]).
    pub fn core(mut self, core: CoreConfig) -> Self {
        self.core = core;
        self
    }

    /// Enables the shadow conventional predictor used to attribute gains
    /// between early resolution and correlation (Figure 6b).
    pub fn shadow(mut self, on: bool) -> Self {
        self.shadow = on;
        self
    }

    /// Records the last `capacity` pipeline events in a ring buffer
    /// (`0` disables tracing; see [`ppsim_obs::EventRing`]).
    pub fn trace_events(mut self, capacity: usize) -> Self {
        self.trace_events = capacity;
        self
    }

    /// Attributes `process()` wall time to pipeline sections (fetch,
    /// rename, predict, execute, commit), read back with
    /// [`Simulator::phase_report`]. The instrumentation is monomorphized
    /// out when off, so simulated results are bit-identical either way;
    /// only host-time measurement is affected.
    pub fn profile_phases(mut self, on: bool) -> Self {
        self.profile_phases = on;
        self
    }

    /// Overrides the second-level conventional predictor's geometry.
    /// Only valid for schemes with
    /// [`SchemeSpec::has_override_perceptron`]; rejected at `build()`.
    pub fn perceptron(mut self, cfg: PerceptronConfig) -> Self {
        self.perceptron = Some(cfg);
        self
    }

    /// Overrides the predicate predictor's geometry. Only valid for
    /// schemes with [`SchemeSpec::has_predicate_predictor`] (the
    /// TAGE-indexed variant maps it onto its own geometry); rejected at
    /// `build()`.
    pub fn predicate(mut self, cfg: PredicateConfig) -> Self {
        self.predicate = Some(cfg);
        self
    }

    /// Check-harness mode: the ideal-conventional scheme's final direction
    /// prediction comes straight from the oracle outcome instead of the
    /// perfect-history perceptron, making "zero mispredict flushes" an
    /// exact invariant the differential oracle can pin. Only valid for
    /// [`SchemeSpec::IdealConventional`]; rejected at `build()`.
    pub fn oracle_final(mut self, on: bool) -> Self {
        self.oracle_final = on;
        self
    }

    /// Injects a deliberate predictor fault (see [`TestFault`]). Used by
    /// the check harness to validate that the oracle detects a broken
    /// predictor; never set on measurement runs.
    pub fn test_fault(mut self, fault: TestFault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Checks option consistency without building.
    ///
    /// Overrides are gated on the scheme's *capability predicates*
    /// ([`SchemeSpec::has_override_perceptron`],
    /// [`SchemeSpec::has_predicate_predictor`],
    /// [`SchemeSpec::supports_oracle_final`]) rather than scheme equality,
    /// so a new scheme that grows a second-level or predicate predictor
    /// gets its overrides accepted by declaring the capability — no
    /// validation edit needed (and no silently wrong rejection).
    pub fn validate(&self) -> Result<(), SimOptionsError> {
        if self.perceptron.is_some() && !self.scheme.has_override_perceptron() {
            return Err(SimOptionsError::PerceptronOverride {
                scheme: self.scheme,
            });
        }
        if self.predicate.is_some() && !self.scheme.has_predicate_predictor() {
            return Err(SimOptionsError::PredicateOverride {
                scheme: self.scheme,
            });
        }
        if self.oracle_final && !self.scheme.supports_oracle_final() {
            return Err(SimOptionsError::OracleFinal {
                scheme: self.scheme,
            });
        }
        Ok(())
    }

    /// Validates the options and builds the timing model around any
    /// instruction source: an inline [`ppsim_isa::Machine`]
    /// (execution-driven mode — fresh, or restored from a
    /// [`ppsim_isa::Checkpoint`] so a sampled run starts at its window
    /// position), or a
    /// [`ppsim_isa::TraceCursor`] replaying a shared capture (whole
    /// stream via `TraceCursor::new`, one sampled window via
    /// `TraceCursor::window`).
    ///
    /// This is the single constructor behind every execution mode; the
    /// source value *is* the mode. A capture shorter than the run's
    /// commit budget ends the run early with `halted == false` (see
    /// [`ppsim_isa::TraceBuffer::capture`]); trace windows past the
    /// capture's end clamp to empty.
    ///
    /// # Errors
    ///
    /// The [`SimOptionsError`] consistency checks of
    /// [`SimOptions::validate`].
    pub fn build_source<S: InsnSource>(self, source: S) -> Result<Simulator<S>, SimOptionsError> {
        self.validate()?;
        Ok(Simulator::from_source(source, self))
    }
}

/// An inconsistent [`SimOptions`] combination, reported by
/// [`SimOptions::build_source`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimOptionsError {
    /// A perceptron geometry override was supplied for a scheme without a
    /// second-level perceptron.
    PerceptronOverride {
        /// The offending scheme.
        scheme: SchemeSpec,
    },
    /// A predicate-predictor geometry override was supplied for a scheme
    /// without a realistic predicate predictor.
    PredicateOverride {
        /// The offending scheme.
        scheme: SchemeSpec,
    },
    /// Oracle-exact final prediction was requested for a scheme other than
    /// the ideal-conventional one.
    OracleFinal {
        /// The offending scheme.
        scheme: SchemeSpec,
    },
}

impl fmt::Display for SimOptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimOptionsError::PerceptronOverride { scheme } => write!(
                f,
                "perceptron geometry override requires a scheme with a \
                 second-level perceptron (conventional), not `{}`",
                scheme.name()
            ),
            SimOptionsError::PredicateOverride { scheme } => write!(
                f,
                "predicate predictor override requires a scheme with a \
                 configurable predicate predictor (predicate, tage-predicate), not `{}`",
                scheme.name()
            ),
            SimOptionsError::OracleFinal { scheme } => write!(
                f,
                "oracle-exact final prediction only applies to the ideal-conventional scheme, not `{}`",
                scheme.name()
            ),
        }
    }
}

impl std::error::Error for SimOptionsError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim_isa::{Asm, Machine, Program};

    fn halt_program() -> Program {
        let mut a = Asm::new();
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn plain_options_build() {
        for scheme in SchemeSpec::ALL {
            let sim = SimOptions::new(scheme, PredicationModel::Cmov)
                .build_source(Machine::new(&halt_program()));
            assert!(sim.is_ok(), "{scheme:?}");
        }
    }

    #[test]
    fn inapplicable_overrides_are_rejected() {
        let err = SimOptions::new(SchemeSpec::PepPa, PredicationModel::Cmov)
            .perceptron(PerceptronConfig::paper_148kb())
            .validate()
            .unwrap_err();
        assert!(matches!(err, SimOptionsError::PerceptronOverride { .. }));
        assert!(err.to_string().contains("pep-pa"), "{err}");
        assert!(SimOptions::new(SchemeSpec::PepPa, PredicationModel::Cmov)
            .perceptron(PerceptronConfig::paper_148kb())
            .build_source(Machine::new(&halt_program()))
            .is_err());

        let err = SimOptions::new(SchemeSpec::Conventional, PredicationModel::Cmov)
            .predicate(PredicateConfig::paper_148kb())
            .validate()
            .unwrap_err();
        assert!(matches!(err, SimOptionsError::PredicateOverride { .. }));

        // The TAGE branch schemes have no second-level perceptron and no
        // configurable predicate predictor: both overrides are rejected.
        for scheme in [SchemeSpec::Tage, SchemeSpec::TageH2p] {
            assert!(matches!(
                SimOptions::new(scheme, PredicationModel::Cmov)
                    .perceptron(PerceptronConfig::paper_148kb())
                    .validate(),
                Err(SimOptionsError::PerceptronOverride { .. })
            ));
            assert!(matches!(
                SimOptions::new(scheme, PredicationModel::Cmov)
                    .predicate(PredicateConfig::paper_148kb())
                    .validate(),
                Err(SimOptionsError::PredicateOverride { .. })
            ));
        }
    }

    #[test]
    fn oracle_final_is_ideal_conventional_only() {
        let err = SimOptions::new(SchemeSpec::Predicate, PredicationModel::Selective)
            .oracle_final(true)
            .validate()
            .unwrap_err();
        assert!(matches!(err, SimOptionsError::OracleFinal { .. }));
        assert!(err.to_string().contains("ideal-conventional"), "{err}");
        assert!(
            SimOptions::new(SchemeSpec::IdealConventional, PredicationModel::Cmov)
                .oracle_final(true)
                .test_fault(TestFault::InvertOracle)
                .build_source(Machine::new(&halt_program()))
                .is_ok()
        );
    }

    #[test]
    fn applicable_overrides_pass() {
        assert!(
            SimOptions::new(SchemeSpec::Conventional, PredicationModel::Cmov)
                .perceptron(PerceptronConfig::paper_148kb())
                .validate()
                .is_ok()
        );
        assert!(
            SimOptions::new(SchemeSpec::Predicate, PredicationModel::Selective)
                .predicate(PredicateConfig::paper_148kb())
                .shadow(true)
                .trace_events(128)
                .validate()
                .is_ok()
        );
        // Capability-predicate regression (the old scheme-equality check
        // wrongly rejected every new scheme): the TAGE-indexed predicate
        // scheme accepts — and builds with — the predicate override.
        let program = halt_program();
        assert!(
            SimOptions::new(SchemeSpec::TagePredicate, PredicationModel::Selective)
                .predicate(PredicateConfig::paper_148kb())
                .build_source(Machine::new(&program))
                .is_ok()
        );
    }
}
