//! Repro replay — re-running dumped `.pisa` repros through the oracle.
//!
//! Every divergence [`crate::run_check`] dumps starts with a structured
//! header line:
//!
//! ```text
//! // ppsim-check repro: seed 0x0 iter 1 form branchy cell predicate/selective/fused
//! ```
//!
//! [`replay_repro`] parses that header and re-runs the listing through
//! the *same* oracle that recorded it: grid-cell failures go back
//! through [`crate::oracle::check_single_cell`], and anything else (no
//! header, `reference`, sampled labels, or the `*/fused` labels of the
//! retired fused-isolation check) through the full sweep. The caller
//! learns whether the recorded divergence still reproduces — the
//! `ppsim check --replay <file.pisa>` workflow for confirming a fix
//! without re-fuzzing.

use ppsim_isa::parse_program;
use ppsim_pipeline::TestFault;

use crate::oracle::{self, Divergence};

/// The structured first line of a dumped repro.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReproHeader {
    /// Fuzz seed that produced the program.
    pub seed: u64,
    /// Iteration within the sweep.
    pub iter: u64,
    /// Generator form name (`branchy` / `ifconv`).
    pub form: String,
    /// Recorded failing cell label (`predicate/selective/fused`, ...).
    pub cell: String,
}

fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(h) => u64::from_str_radix(h, 16).ok(),
        None => v.parse().ok(),
    }
}

/// Parses the `// ppsim-check repro:` header out of a repro source.
/// Returns `None` when no line carries the marker or the key/value
/// pairs don't parse — replay then falls back to the full sweep.
pub fn parse_repro_header(source: &str) -> Option<ReproHeader> {
    let marker = "// ppsim-check repro:";
    let line = source
        .lines()
        .find(|l| l.trim_start().starts_with(marker))?;
    let rest = line.trim_start().strip_prefix(marker)?.trim();
    let (mut seed, mut iter, mut form, mut cell) = (None, None, None, None);
    let mut toks = rest.split_whitespace();
    while let Some(k) = toks.next() {
        let v = toks.next()?;
        match k {
            "seed" => seed = parse_u64(v),
            "iter" => iter = v.parse().ok(),
            "form" => form = Some(v.to_string()),
            "cell" => cell = Some(v.to_string()),
            _ => return None,
        }
    }
    Some(ReproHeader {
        seed: seed?,
        iter: iter?,
        form: form?,
        cell: cell?,
    })
}

/// What replaying a repro found.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The parsed header, when the file carried one.
    pub header: Option<ReproHeader>,
    /// Cells/lanes verified when the program passed.
    pub checks: u64,
    /// The divergence, when the recorded failure still reproduces.
    pub divergence: Option<Divergence>,
}

impl ReplayOutcome {
    /// Whether the repro passes everywhere it was checked.
    pub fn passed(&self) -> bool {
        self.divergence.is_none()
    }
}

/// The fallback when no header (or an unrecognized cell label) routes
/// the replay: the full grid.
fn full_sweep(program: &ppsim_isa::Program, fault: Option<TestFault>) -> (u64, Option<Divergence>) {
    match oracle::check_program(program, fault) {
        Ok(n) => (n, None),
        Err(d) => (0, Some(d)),
    }
}

/// Re-runs a dumped `.pisa` repro through the oracle that recorded it.
/// `fault` optionally re-injects the predictor fault the original sweep
/// carried. Errors only on unparsable assembly; a reproducing
/// divergence is a *successful* replay (see [`ReplayOutcome`]).
pub fn replay_repro(source: &str, fault: Option<TestFault>) -> Result<ReplayOutcome, String> {
    let program = parse_program(source).map_err(|e| e.to_string())?;
    let header = parse_repro_header(source);

    // Divergent cells report through `catch_unwind`; keep expected
    // panics from spraying backtraces, as `run_check` does.
    let _guard = crate::HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let (checks, divergence) = match header.as_ref().and_then(|h| oracle::cell_by_label(&h.cell)) {
        Some(cell) => match oracle::check_single_cell(&program, cell, fault) {
            Ok(()) => (1, None),
            Err(d) => (0, Some(d)),
        },
        None => full_sweep(&program, fault),
    };

    std::panic::set_hook(prev_hook);
    Ok(ReplayOutcome {
        header,
        checks,
        divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seven divergences the retired fused lane-parallel engine
    /// shipped with, pinned verbatim from the repros `ppsim check` dumped
    /// when the bug was live (`check-failures/` itself is transient). All
    /// were `predicate/selective/fused` cycle divergences. They stay as
    /// torture inputs for the whole grid, `predicate/selective` replay
    /// included, and as legacy headers that replay must still accept.
    const PINNED_FUSED_REPROS: [(&str, &str); 7] = [
        (
            "seed-0-iter1-branchy",
            "// ppsim-check repro: seed 0x0 iter 1 form branchy cell predicate/selective/fused\n\
             // [predicate/selective/fused] fused lane diverged from its solo run: cycles: 205 vs 212\n\
             \x20   movl r1 = 5\n\
             .L1:\n\
             \x20   (p7) br.cond .L2\n\
             .L2:\n\
             \x20   add r1 = r1, -1\n\
             \x20   cmp.unc.gt p1, p2 = r1, 0\n\
             \x20   (p1) br.cond .L1\n\
             \x20   halt\n",
        ),
        (
            "seed-0-iter2-branchy",
            "// ppsim-check repro: seed 0x0 iter 2 form branchy cell predicate/selective/fused\n\
             // [predicate/selective/fused] fused lane diverged from its solo run: cycles: 163 vs 170\n\
             .L0:\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   cmp.unc.le p13, p6 = r20, r13\n\
             \x20   nop\n\
             \x20   (p13) br.cond .L5\n\
             .L5:\n\
             \x20   (p1) br.cond .L0\n\
             \x20   halt\n",
        ),
        (
            "seed-0-iter2-ifconv",
            "// ppsim-check repro: seed 0x0 iter 2 form ifconv cell predicate/selective/fused\n\
             // [predicate/selective/fused] fused lane diverged from its solo run: cycles: 472 vs 477\n\
             \x20   movl r1 = 3\n\
             .L1:\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   nop\n\
             \x20   (p4) br.cond .L18\n\
             \x20   nop\n\
             .L18:\n\
             \x20   nop\n\
             \x20   add r1 = r1, -1\n\
             \x20   cmp.unc.gt p1, p2 = r1, 0\n\
             \x20   (p1) br.cond .L1\n\
             \x20   halt\n",
        ),
        (
            "seed-0-iter4-ifconv",
            "// ppsim-check repro: seed 0x0 iter 4 form ifconv cell predicate/selective/fused\n\
             // [predicate/selective/fused] fused lane diverged from its solo run: cycles: 205 vs 212\n\
             \x20   movl r1 = 5\n\
             .L1:\n\
             \x20   (p11) br.cond .L2\n\
             .L2:\n\
             \x20   add r1 = r1, -1\n\
             \x20   cmp.unc.gt p1, p2 = r1, 0\n\
             \x20   (p1) br.cond .L1\n\
             \x20   halt\n",
        ),
        (
            "seed-c0ffee-iter0-branchy",
            "// ppsim-check repro: seed 0xc0ffee iter 0 form branchy cell predicate/selective/fused\n\
             // [predicate/selective/fused] fused lane diverged from its solo run: cycles: 205 vs 212\n\
             \x20   movl r1 = 5\n\
             .L1:\n\
             \x20   (p9) br.cond .L2\n\
             .L2:\n\
             \x20   add r1 = r1, -1\n\
             \x20   cmp.unc.gt p1, p2 = r1, 0\n\
             \x20   (p1) br.cond .L1\n\
             \x20   halt\n",
        ),
        (
            "seed-c0ffee-iter2-branchy",
            "// ppsim-check repro: seed 0xc0ffee iter 2 form branchy cell predicate/selective/fused\n\
             // [predicate/selective/fused] fused lane diverged from its solo run: cycles: 205 vs 212\n\
             \x20   movl r1 = 5\n\
             .L1:\n\
             \x20   (p6) br.cond .L2\n\
             .L2:\n\
             \x20   add r1 = r1, -1\n\
             \x20   cmp.unc.gt p1, p2 = r1, 0\n\
             \x20   (p1) br.cond .L1\n\
             \x20   halt\n",
        ),
        (
            "seed-c0ffee-iter4-branchy",
            "// ppsim-check repro: seed 0xc0ffee iter 4 form branchy cell predicate/selective/fused\n\
             // [predicate/selective/fused] fused lane diverged from its solo run: cycles: 319 vs 326\n\
             \x20   movl r1 = 3\n\
             .L1:\n\
             \x20   nop\n\
             \x20   (p10) br.cond .L4\n\
             \x20   nop\n\
             .L4:\n\
             \x20   nop\n\
             \x20   add r1 = r1, -1\n\
             \x20   cmp.unc.gt p1, p2 = r1, 0\n\
             \x20   (p1) br.cond .L1\n\
             \x20   halt\n",
        ),
    ];

    #[test]
    fn pinned_fused_repros_pass_the_full_grid() {
        let grid = crate::oracle::Cell::grid().len() as u64;
        for (name, src) in PINNED_FUSED_REPROS {
            let program = parse_program(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                oracle::check_program(&program, None),
                Ok(grid),
                "{name}: regressed"
            );
            // A legacy `*/fused` header routes to the full sweep.
            let header =
                parse_repro_header(src).unwrap_or_else(|| panic!("{name}: header must parse"));
            assert!(header.cell.ends_with("/fused"), "{name}: {}", header.cell);
            let out = replay_repro(src, None).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                out.passed(),
                "{name}: regressed — {}",
                out.divergence.unwrap()
            );
            assert_eq!(out.checks, grid, "{name}: every grid cell verified");
        }
    }

    #[test]
    fn header_parses_and_survives_odd_whitespace() {
        let h = parse_repro_header(
            "// ppsim-check repro: seed 0xc0ffee iter 4 form branchy cell predicate/selective\nnop\nhalt\n",
        )
        .unwrap();
        assert_eq!(h.seed, 0xC0FFEE);
        assert_eq!(h.iter, 4);
        assert_eq!(h.form, "branchy");
        assert_eq!(h.cell, "predicate/selective");
        assert!(parse_repro_header("nop\nhalt\n").is_none());
        assert!(parse_repro_header("// ppsim-check repro: seed\n").is_none());
    }

    #[test]
    fn grid_cell_headers_route_to_the_single_cell_checker() {
        let src = "// ppsim-check repro: seed 0x1 iter 0 form branchy cell predicate/selective\n\
                   \x20   movl r1 = 2\n\
                   .L1:\n\
                   \x20   add r1 = r1, -1\n\
                   \x20   cmp.unc.gt p1, p2 = r1, 0\n\
                   \x20   (p1) br.cond .L1\n\
                   \x20   halt\n";
        let out = replay_repro(src, None).unwrap();
        assert!(out.passed());
        assert_eq!(out.checks, 1, "exactly the recorded cell re-ran");
    }

    #[test]
    fn headerless_sources_get_the_full_sweep_and_faults_reproduce() {
        let src = "    movl r1 = 2\n.L1:\n    add r1 = r1, -1\n    cmp.unc.gt p1, p2 = r1, 0\n    (p1) br.cond .L1\n    halt\n";
        let out = replay_repro(src, None).unwrap();
        assert!(out.passed());
        let full_sweep = crate::oracle::Cell::grid().len() as u64;
        assert_eq!(out.checks, full_sweep, "all grid cells");
        // Re-injecting a fault must make the same source diverge again —
        // replay has the same teeth as the sweep.
        let out = replay_repro(src, Some(TestFault::InvertOracle)).unwrap();
        assert!(!out.passed());
        assert!(
            out.divergence.unwrap().cell.ends_with("/oracle"),
            "inverted oracle is caught by the oracle-final cell"
        );
    }

    #[test]
    fn unparsable_assembly_is_an_error_not_a_divergence() {
        assert!(replay_repro("this is not assembly\n", None).is_err());
    }
}
