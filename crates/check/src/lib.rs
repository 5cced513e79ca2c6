//! # ppsim-check — the differential cosimulation oracle
//!
//! The timing simulator and the architectural emulator implement the
//! same ISA twice: once as stage-timestamped resource bookkeeping, once
//! as plain interpretation. This crate fuzzes the gap between them.
//! [`run_check`] generates seeded random predicated torture programs
//! ([`gen`]), runs each one through every prediction scheme ×
//! if-conversion × predication-model cell against the emulator's ground
//! truth ([`oracle`]), and on any divergence greedily minimizes the
//! program to a reparseable `.pisa` repro ([`shrink()`]).
//!
//! Checking is parallel (the runner's work-stealing pool) and cached
//! (passing verdicts are content-addressed on disk, so a re-run with the
//! same seed and generator version is instant).
//!
//! ```
//! use ppsim_check::{run_check, CheckOptions};
//! let report = run_check(&CheckOptions {
//!     seed: 0xC0FFEE,
//!     iters: 2,
//!     jobs: 1,
//!     use_cache: false,
//!     ..CheckOptions::default()
//! });
//! assert!(report.passed());
//! ```

pub mod gen;
pub mod oracle;
pub mod replay;
pub mod shrink;

use std::path::PathBuf;
use std::sync::Mutex;

use ppsim_core::Table;
use ppsim_isa::Program;
use ppsim_pipeline::TestFault;
use ppsim_runner::hash::{fnv1a64, hex64};
use ppsim_runner::{pool, DiskCache};

pub use gen::{generate, Form};
#[allow(deprecated)]
pub use oracle::check_fused;
pub use oracle::{check_program, check_sampled, Cell, Divergence, DivergenceKind};
pub use replay::{parse_repro_header, replay_repro, ReplayOutcome, ReproHeader};
pub use shrink::shrink;

/// Bump to invalidate every cached verdict (generator change, new grid
/// cell, new invariant — anything that could turn a cached pass stale).
/// v2: grid cells replay the reference capture instead of running
/// lockstep (one designated cell keeps the full architectural diff).
/// v3: optional sampled-simulation invariants (identity + epsilon drift)
/// join the sweep; the epsilon is part of the verdict key.
/// v4: the fused cross-lane isolation check joins the sweep (fused
/// lanes over one decode must match their solo replays bit for bit).
/// v5: the TAGE frontier (tage, tage-h2p, tage-predicate) joins the
/// scheme grid and a TAGE lane joins the fused-isolation lane set.
/// v6: the fused-isolation lanes leave the sweep with fused execution
/// itself (cells per program go from 21 to 17).
const VERDICT_VERSION: &str = "ppsim-check v6";

/// Configuration for one [`run_check`] sweep.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Base seed; each iteration derives an independent stream from it.
    pub seed: u64,
    /// Iterations (each checks two programs: branchy and if-converted).
    pub iters: u64,
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// Deliberate predictor fault injected into every cell (self-test).
    pub fault: Option<TestFault>,
    /// Consult and populate the on-disk verdict cache.
    pub use_cache: bool,
    /// Verdict cache directory (`None` = `<runner cache>/check`).
    pub cache_dir: Option<PathBuf>,
    /// Where to write minimized `.pisa` repros (`None` = don't write).
    pub dump_dir: Option<PathBuf>,
    /// Shrinker budget: failure-predicate evaluations per divergence.
    pub max_shrink_evals: usize,
    /// Also run the sampled-simulation invariants, allowing the
    /// multi-window aggregate misprediction rate to drift at most this
    /// far from the full run (`None` = sampled checks off).
    pub sample_epsilon: Option<f64>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            seed: 0,
            iters: 100,
            jobs: 0,
            fault: None,
            use_cache: true,
            cache_dir: None,
            dump_dir: None,
            max_shrink_evals: shrink::DEFAULT_MAX_EVALS,
            sample_epsilon: None,
        }
    }
}

/// One confirmed, minimized divergence.
#[derive(Clone, Debug)]
pub struct CheckFinding {
    /// Iteration that produced the failing program.
    pub iter: u64,
    /// Program form (branchy vs if-converted hammocks).
    pub form: Form,
    /// Failing grid cell ([`Cell::label`], or `"reference"`).
    pub cell: String,
    /// Human-readable divergence, re-derived on the minimized program.
    pub message: String,
    /// Minimized program, as reparseable assembly.
    pub repro: String,
    /// Instruction count of the minimized program.
    pub repro_insns: usize,
    /// Where the repro was written, when a dump directory was set.
    pub repro_path: Option<PathBuf>,
}

/// The outcome of a [`run_check`] sweep.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Programs generated and examined (including cached ones).
    pub programs: u64,
    /// Grid cells actually simulated this run.
    pub cells_checked: u64,
    /// Programs whose passing verdict came from the cache.
    pub cache_hits: u64,
    /// Divergences found, in grid order.
    pub findings: Vec<CheckFinding>,
}

impl CheckReport {
    /// Whether the sweep found no divergence.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }

    /// The findings as a rendered table (empty table when all clear).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Differential check findings",
            &["iter", "form", "cell", "insns", "divergence"],
        );
        for f in &self.findings {
            t.row(vec![
                f.iter.to_string(),
                f.form.name().to_string(),
                f.cell.clone(),
                f.repro_insns.to_string(),
                f.message.clone(),
            ]);
        }
        t
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} programs ({} cells simulated, {} cached): {}",
            ppsim_core::report::count(self.programs),
            ppsim_core::report::count(self.cells_checked),
            ppsim_core::report::count(self.cache_hits),
            if self.passed() {
                "no divergences".to_string()
            } else {
                format!("{} divergence(s)", self.findings.len())
            }
        )
    }
}

/// Per-task result inside the parallel sweep.
enum TaskOut {
    CacheHit,
    Pass { cells: u64 },
    Fail(Box<CheckFinding>),
}

/// Content-address of one task's passing verdict.
fn verdict_key(opts: &CheckOptions, iter: u64, form: Form) -> String {
    let canon = format!(
        "{VERDICT_VERSION}|seed={:#x}|iter={iter}|form={}|fault={:?}|sample={}",
        opts.seed,
        form.name(),
        opts.fault,
        opts.sample_epsilon
            .map_or("-".to_string(), |e| format!("{:016x}", e.to_bits()))
    );
    hex64(fnv1a64(canon.as_bytes()))
}

/// Serializes panic-hook swapping across concurrent [`run_check`] (and
/// [`replay_repro`]) calls — tests run in-process and in parallel.
pub(crate) static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// Minimizes a failing program, preserving the original divergence's
/// cell and kind so the shrinker cannot slide onto a different bug.
fn minimize(program: &Program, d: &Divergence, opts: &CheckOptions) -> (Program, String) {
    // Sampled-invariant failures are reproduced through the sampled
    // checker, not a grid cell.
    if matches!(
        d.kind,
        DivergenceKind::SampleIdentity { .. } | DivergenceKind::SampleDrift { .. }
    ) {
        let eps = opts.sample_epsilon.unwrap_or(0.0);
        let want_cell = d.cell.clone();
        let want_kind = std::mem::discriminant(&d.kind);
        let minimized = shrink(program, opts.max_shrink_evals, |p| {
            matches!(
                oracle::check_sampled(p, opts.fault, eps),
                Err(e) if e.cell == want_cell && std::mem::discriminant(&e.kind) == want_kind
            )
        });
        let message = oracle::check_sampled(&minimized, opts.fault, eps)
            .err()
            .map(|e| e.to_string())
            .unwrap_or_else(|| d.to_string());
        return (minimized, message);
    }
    let cell = oracle::cell_by_label(&d.cell).unwrap_or_else(|| oracle::Cell::grid()[0]);
    let want_cell = d.cell.clone();
    let want_kind = std::mem::discriminant(&d.kind);
    let minimized = shrink(program, opts.max_shrink_evals, |p| {
        matches!(
            oracle::check_single_cell(p, cell, opts.fault),
            Err(e) if e.cell == want_cell && std::mem::discriminant(&e.kind) == want_kind
        )
    });
    let message = oracle::check_single_cell(&minimized, cell, opts.fault)
        .err()
        .map(|e| e.to_string())
        .unwrap_or_else(|| d.to_string());
    (minimized, message)
}

fn run_task(opts: &CheckOptions, cache_dir: Option<&PathBuf>, k: usize) -> TaskOut {
    let iter = k as u64 / 2;
    let form = Form::ALL[k % 2];

    let verdict_path = cache_dir.map(|d| d.join(format!("{}.ok", verdict_key(opts, iter, form))));
    if let Some(p) = &verdict_path {
        if p.exists() {
            return TaskOut::CacheHit;
        }
    }

    let program = generate(opts.seed, iter, form);
    let outcome = check_program(&program, opts.fault).and_then(|cells| match opts.sample_epsilon {
        Some(eps) => oracle::check_sampled(&program, opts.fault, eps).map(|extra| cells + extra),
        None => Ok(cells),
    });
    match outcome {
        Ok(cells) => {
            if let Some(p) = &verdict_path {
                // A failed store just means a re-check next run.
                let _ = std::fs::write(p, "ok\n");
            }
            TaskOut::Pass { cells }
        }
        Err(d) => {
            let (minimized, message) = minimize(&program, &d, opts);
            let repro = format!(
                "// ppsim-check repro: seed {:#x} iter {iter} form {} cell {}\n// {}\n{}",
                opts.seed,
                form.name(),
                d.cell,
                message,
                minimized.listing()
            );
            let repro_path = opts.dump_dir.as_ref().map(|dir| {
                let path = dir.join(format!(
                    "seed-{:x}-iter{iter}-{}.pisa",
                    opts.seed,
                    form.name()
                ));
                if std::fs::create_dir_all(dir).is_ok() {
                    let _ = std::fs::write(&path, &repro);
                }
                path
            });
            TaskOut::Fail(Box::new(CheckFinding {
                iter,
                form,
                cell: d.cell,
                message,
                repro,
                repro_insns: minimized.insns.len(),
                repro_path,
            }))
        }
    }
}

/// Runs the full differential sweep: `2 × iters` generated programs
/// (branchy and if-converted forms), each checked across the full
/// scheme × predication grid ([`Cell::grid`]), in parallel, with passing
/// verdicts cached.
pub fn run_check(opts: &CheckOptions) -> CheckReport {
    let cache_dir = if opts.use_cache {
        let dir = opts
            .cache_dir
            .clone()
            .unwrap_or_else(|| DiskCache::default_dir().join("check"));
        std::fs::create_dir_all(&dir).ok().map(|_| dir)
    } else {
        None
    };

    let jobs = if opts.jobs > 0 {
        opts.jobs
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };

    // Divergent cells are reported through `catch_unwind`; silence the
    // default hook so expected panics don't spray backtraces, restoring
    // it afterwards. The lock serializes concurrent sweeps in-process.
    let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let n = (opts.iters * 2) as usize;
    let outs = pool::run_indexed(n, jobs, |k| run_task(opts, cache_dir.as_ref(), k));

    std::panic::set_hook(prev_hook);

    let mut report = CheckReport {
        programs: n as u64,
        ..CheckReport::default()
    };
    for out in outs {
        match out {
            TaskOut::CacheHit => report.cache_hits += 1,
            TaskOut::Pass { cells } => report.cells_checked += cells,
            TaskOut::Fail(f) => report.findings.push(*f),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_cache(seed: u64, iters: u64) -> CheckOptions {
        CheckOptions {
            seed,
            iters,
            jobs: 2,
            use_cache: false,
            ..CheckOptions::default()
        }
    }

    #[test]
    fn clean_sweep_passes() {
        let report = run_check(&no_cache(0xC0FFEE, 5));
        assert!(report.passed(), "{:#?}", report.findings);
        assert_eq!(report.programs, 10);
        // The full grid per program — derived, so the sweep grows with
        // the scheme registry.
        let per_program = Cell::grid().len() as u64;
        assert_eq!(report.cells_checked, 10 * per_program);
        assert_eq!(report.cache_hits, 0);
        assert!(report.summary().contains("no divergences"));
    }

    #[test]
    fn verdict_cache_skips_rechecks() {
        let dir = std::env::temp_dir().join(format!("ppsim-check-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = CheckOptions {
            seed: 0xCACE,
            iters: 3,
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..CheckOptions::default()
        };
        let first = run_check(&opts);
        assert!(first.passed());
        assert_eq!(first.cache_hits, 0);
        let second = run_check(&opts);
        assert!(second.passed());
        assert_eq!(second.cache_hits, 6, "all verdicts served from cache");
        assert_eq!(second.cells_checked, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampled_sweep_adds_checks_and_passes() {
        let opts = CheckOptions {
            sample_epsilon: Some(0.25),
            ..no_cache(0xC0FFEE, 3)
        };
        let report = run_check(&opts);
        assert!(report.passed(), "{:#?}", report.findings);
        assert_eq!(report.programs, 6);
        let grid_only = 6 * Cell::grid().len() as u64;
        assert!(
            report.cells_checked > grid_only,
            "sampled checks must add cells beyond the {grid_only}-cell grid sweep: {}",
            report.cells_checked
        );
    }

    #[test]
    fn injected_fault_yields_minimized_repro() {
        let opts = CheckOptions {
            fault: Some(TestFault::InvertOracle),
            ..no_cache(0xC0FFEE, 1)
        };
        let report = run_check(&opts);
        assert!(!report.passed(), "inverted oracle must be caught");
        let f = &report.findings[0];
        assert!(f.cell.ends_with("/oracle"), "{}", f.cell);
        assert!(
            f.repro_insns <= 20,
            "repro should minimize to <= 20 insns, got {}:\n{}",
            f.repro_insns,
            f.repro
        );
        // The dumped repro must reparse to a program that still fails.
        let reparsed = ppsim_isa::parse_program(&f.repro).expect("repro reparses");
        let d = check_program(&reparsed, opts.fault).expect_err("repro still fails");
        assert_eq!(d.cell, f.cell);
        assert!(report.table().to_string().contains("oracle"));
    }
}
