//! The three workloads: untraced passes for the end-to-end metrics, and
//! traced passes that make the same crate calls inside spans for the
//! per-layer metrics, together with the runner's own accounting and the
//! layer probes that run after the passes.
//!
//! Every pass's output is checked; a failed check or a panic counts as a
//! failed operation. All on-disk state lives in fresh private
//! directories under the build directory, never in the repository's
//! `target/ppsim-cache`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ppsim_check::{check_fused, check_program, generate, oracle::MAX_REF_STEPS, run_check};
use ppsim_check::{CheckOptions, Form};
use ppsim_compiler::{compile, spec2000_suite, CompileOptions};
use ppsim_core::experiments::{plan, PlanResults, PlanSpec, FIG6A_SCHEMES};
use ppsim_core::ExperimentConfig;
use ppsim_isa::{pptrace, Machine, Program, TraceBuffer};
use ppsim_pipeline::{SchemeSpec, SimStats};
use ppsim_runner::{DiskCache, Job, JobTiming, Runner, RunnerOptions, Telemetry};

use crate::cbpgen;
use crate::metrics::{geomean, median, median_of_means, peak_rss_bytes, reset_peak_rss, Outcome};
use crate::probes;
use crate::span::{Reduced, Tracer};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The full report grid from an empty private cache.
    SuiteCold,
    /// A synthetic CBP log: import, `.pptrace` round trip, six cells.
    TraceImport,
    /// The differential checker with its verdict cache off.
    CheckSweep,
}

impl Workload {
    /// Every workload, in listing order.
    pub const ALL: [Workload; 3] = [
        Workload::SuiteCold,
        Workload::TraceImport,
        Workload::CheckSweep,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::TraceImport => "trace-import",
            Workload::CheckSweep => "check-sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. [`Size::full`] is the benchmark; [`Size::tiny`] keeps
/// every code path but runs in a fraction of a second, for self-tests.
#[derive(Clone, Debug)]
pub struct Size {
    /// Committed instructions per suite cell.
    pub commits: u64,
    /// Profiling steps per compile.
    pub profile_steps: u64,
    /// Suite benchmarks (empty = all 22).
    pub only: Vec<String>,
    /// Static sites in the synthetic CBP log.
    pub cbp_sites: usize,
    /// Dynamic branches in each synthetic CBP log.
    pub cbp_branches: usize,
    /// Checker iterations per pass (two programs each).
    pub check_iters: u64,
    /// Set-ups per timed block, per workload in [`Workload::ALL`] order:
    /// enough for a block to last about 50 ms.
    pub setups_per_block: [usize; 3],
    /// Set-up blocks timed before the first pass.
    pub setup_blocks: usize,
    /// Set-up blocks timed before every pass.
    pub setup_blocks_per_pass: usize,
    /// Events per predictor replay.
    pub replay_events: usize,
    /// Records per memory-hierarchy replay.
    pub mem_records: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            commits: 100_000,
            profile_steps: 200_000,
            only: Vec::new(),
            cbp_sites: 24_576,
            cbp_branches: 150_000,
            check_iters: 800,
            setups_per_block: [100, 1, 5],
            setup_blocks: 4,
            setup_blocks_per_pass: 2,
            replay_events: 1_000_000,
            mem_records: 4_000_000,
        }
    }

    /// Self-test sizes: one benchmark, short streams.
    pub fn tiny() -> Size {
        Size {
            commits: 3_000,
            profile_steps: 5_000,
            only: vec!["gzip".to_string()],
            cbp_sites: 256,
            cbp_branches: 1_500,
            check_iters: 2,
            setups_per_block: [2, 1, 1],
            setup_blocks: 1,
            setup_blocks_per_pass: 1,
            replay_events: 5_000,
            mem_records: 5_000,
        }
    }

    fn config(&self) -> ExperimentConfig {
        ExperimentConfig {
            commits: self.commits,
            profile_steps: self.profile_steps,
            only: self.only.clone(),
            ..ExperimentConfig::default()
        }
    }
}

/// Synthetic CBP logs per `trace-import` pass. Each log's six cells fuse
/// into one lane pass; four passes share the workers of the two-core
/// reference host two by two, or three and one when one core runs slow,
/// so a pass is not as slow as its slowest core.
const IMPORT_LOGS: usize = 4;

/// Groups the set-up blocks are dealt into for `setup_s`, a median of
/// the groups' means (see [`median_of_means`]).
const SETUP_GROUPS: usize = 5;

/// A deliberate corruption, so self-tests can show the output checks fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Corrupt the first untraced pass's checked output.
    Output,
    /// Corrupt the first traced pass's simulated statistics.
    Traced,
    /// Corrupt the report rendered from the warm cache (`suite-cold`,
    /// traced runs).
    Warm,
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time (s).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Self-test corruption.
    pub inject: Option<Inject>,
}

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_minsts_per_s", "Minsts/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: (name, unit, better), in listing order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = [
        ("compiler.calls", "count", "lower"),
        ("compiler.busy_s", "s", "lower"),
        ("isa.capture_records", "count", "lower"),
        ("isa.capture_busy_s", "s", "lower"),
        ("isa.capture_minsts_per_s", "Minsts/s", "higher"),
        ("isa.cbp_import_mb_per_s", "MB/s", "higher"),
        ("isa.pptrace_encode_mb_per_s", "MB/s", "higher"),
        ("isa.pptrace_decode_mb_per_s", "MB/s", "higher"),
        ("isa.pptrace_bytes", "bytes", "lower"),
        ("isa.emulate_minsts_per_s", "Minsts/s", "higher"),
    ]
    .iter()
    .map(|&(n, u, b)| (n.to_string(), u, b))
    .collect();
    for s in SchemeSpec::ALL {
        let n = s.name();
        v.push((format!("predictors.{n}.ns_per_pred"), "ns", "lower"));
        v.push((format!("predictors.{n}.predictions"), "count", "higher"));
        v.push((format!("predictors.{n}.mispredict_pct"), "%", "lower"));
    }
    v.extend(
        [
            ("mem.accesses", "count", "lower"),
            ("mem.ns_per_access", "ns", "lower"),
            ("mem.l1d_miss_ratio", "ratio", "lower"),
            ("mem.l2_miss_ratio", "ratio", "lower"),
            ("pipeline.busy_s", "s", "lower"),
            ("pipeline.lane_records", "count", "lower"),
            ("pipeline.ns_per_lane_record", "ns", "lower"),
            ("pipeline.committed_insts", "count", "higher"),
            ("pipeline.sim_cycles", "count", "lower"),
            ("pipeline.ipc_geomean", "insts/cycle", "higher"),
            ("runner.cache_store_calls", "count", "lower"),
            ("runner.cache_store_busy_s", "s", "lower"),
            ("runner.cache_load_calls", "count", "lower"),
            ("runner.cache_load_busy_s", "s", "lower"),
            ("runner.cache_hit_ratio", "ratio", "higher"),
            ("runner.cache_bytes", "bytes", "lower"),
            ("runner.bundles", "count", "lower"),
            ("runner.lanes_per_bundle", "count", "higher"),
            ("runner.pool_idle_frac", "ratio", "lower"),
            ("core.plan_busy_s", "s", "lower"),
            ("core.collect_busy_s", "s", "lower"),
            ("core.render_busy_s", "s", "lower"),
            ("core.report_bytes", "bytes", "lower"),
            ("check.programs", "count", "higher"),
            ("check.cells", "count", "higher"),
            ("check.gen_busy_s", "s", "lower"),
            ("check.oracle_busy_s", "s", "lower"),
            ("check.ms_per_program", "ms", "lower"),
            ("trace.overhead_frac", "ratio", "lower"),
            ("trace.unattributed_frac", "ratio", "lower"),
            ("model.stats_digest", "hash", "lower"),
        ]
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b)),
    );
    for s in SchemeSpec::ALL {
        let n = s.name();
        v.push((format!("model.{n}.committed"), "count", "higher"));
        v.push((format!("model.{n}.cycles"), "count", "lower"));
        v.push((format!("model.{n}.mispredicts"), "count", "lower"));
    }
    v
}

/// Where private working directories go: under the build directory.
fn work_root() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => PathBuf::from(dir).join("perfharness-work"),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("target/perfharness-work"),
    }
}

/// The run's private working directory, removed with everything in it
/// when the run ends. The directories made inside it stay until then,
/// so no file-system deletion runs while the run is measuring.
struct WorkDir {
    root: PathBuf,
    next: AtomicU64,
}

impl WorkDir {
    fn new() -> WorkDir {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let n = RUNS.fetch_add(1, Ordering::Relaxed);
        let root = work_root().join(format!("run-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create a private working directory");
        WorkDir {
            root,
            next: AtomicU64::new(0),
        }
    }

    /// A fresh path inside the run's directory, for a cache that its
    /// opener creates.
    fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn cached_runner(dir: &Path) -> Runner {
    Runner::new(RunnerOptions {
        cache_dir: Some(dir.to_path_buf()),
        ..RunnerOptions::default()
    })
}

fn uncached_runner() -> Runner {
    Runner::new(RunnerOptions {
        cache: false,
        ..RunnerOptions::default()
    })
}

/// The report text followed by the report JSON: what `ppsim suite`
/// shows and what `--json` writes.
fn render(results: &PlanResults, cfg: &ExperimentConfig) -> String {
    let mut s = results.report_text(cfg);
    s.push_str(&results.report_json(cfg).to_string());
    s
}

/// Damages a checked output on purpose (see [`Inject`]).
fn corrupt(s: &mut String) {
    let flipped: String = s.chars().rev().collect();
    *s = flipped;
}

fn same<T: PartialEq>(what: &str, a: &T, b: &T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what} differs"))
    }
}

fn expect(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

fn elapsed(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Exact per-scheme counts and a digest of every cell's statistics, so a
/// comparison of two builds shows any change to the simulated model.
fn model_counts(stats: &[(SchemeSpec, &SimStats)], layers: &mut BTreeMap<String, f64>) {
    let mut text = String::new();
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    for (scheme, s) in stats {
        text.push_str(&format!("{}:{s:?}\n", scheme.name()));
        for (key, v) in [
            ("committed", s.committed),
            ("cycles", s.cycles),
            ("mispredicts", s.mispredicts),
        ] {
            *sums
                .entry(format!("model.{}.{key}", scheme.name()))
                .or_default() += v;
        }
    }
    for (key, v) in sums {
        layers.insert(key, v as f64);
    }
    let digest = ppsim_runner::hash::fnv1a64(text.as_bytes()) & ((1 << 52) - 1);
    layers.insert("model.stats_digest".into(), digest as f64);
}

fn pipeline_counts(
    stats: &[&SimStats],
    lane_records: u64,
    busy: f64,
    layers: &mut BTreeMap<String, f64>,
) {
    let ipcs: Vec<f64> = stats.iter().map(|s| s.ipc()).filter(|&x| x > 0.0).collect();
    let set = |layers: &mut BTreeMap<String, f64>, k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    set(layers, "pipeline.busy_s", busy);
    set(layers, "pipeline.lane_records", lane_records as f64);
    set(
        layers,
        "pipeline.ns_per_lane_record",
        busy * 1e9 / lane_records.max(1) as f64,
    );
    set(
        layers,
        "pipeline.committed_insts",
        stats.iter().map(|s| s.committed).sum::<u64>() as f64,
    );
    set(
        layers,
        "pipeline.sim_cycles",
        stats.iter().map(|s| s.cycles).sum::<u64>() as f64,
    );
    set(layers, "pipeline.ipc_geomean", geomean(&ipcs));
}

fn predictor_counts(events: &[probes::Event], layers: &mut BTreeMap<String, f64>) {
    for scheme in SchemeSpec::ALL {
        let c = probes::replay_predictor(scheme, events);
        let n = scheme.name();
        let p = c.predictions.max(1) as f64;
        layers.insert(format!("predictors.{n}.ns_per_pred"), c.busy_s * 1e9 / p);
        layers.insert(format!("predictors.{n}.predictions"), c.predictions as f64);
        layers.insert(
            format!("predictors.{n}.mispredict_pct"),
            c.mispredicts as f64 * 100.0 / p,
        );
    }
}

/// Runs `f` inside a span when a tracer is given, bare otherwise, so an
/// untraced and a traced pass make exactly the same calls.
fn within<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// The runner's own accounting of one grid, filed as layer metrics:
/// per simulated job its compile, capture, simulation and total wall
/// times, plus fused passes, lanes and cache hits. `grid_wall` is the
/// wall time of the call that ran the grid.
fn runner_layers(tel: &Telemetry, grid_wall: f64, layers: &mut BTreeMap<String, f64>) {
    let micros = |f: fn(&JobTiming) -> u64| tel.per_job.iter().map(f).sum::<u64>() as f64 / 1e6;
    let compiles = tel.per_job.iter().filter(|j| j.compile_micros > 0).count();
    // A fused pass runs its lanes as one bundle; every other simulated
    // job is a bundle of its own.
    let bundles = tel.fused_passes + tel.jobs_run - tel.fused_lanes;
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(bundles.max(1) as usize);
    let capacity = workers as f64 * grid_wall;
    for (key, v) in [
        ("compiler.calls", compiles as f64),
        ("compiler.busy_s", micros(|j| j.compile_micros)),
        ("isa.capture_busy_s", micros(|j| j.capture_micros)),
        ("pipeline.busy_s", micros(|j| j.sim_micros)),
        ("runner.bundles", bundles as f64),
        (
            "runner.lanes_per_bundle",
            tel.jobs_run as f64 / bundles.max(1) as f64,
        ),
        (
            "runner.pool_idle_frac",
            ((capacity - micros(|j| j.wall_micros)) / capacity.max(1e-12)).max(0.0),
        ),
        (
            "runner.cache_hit_ratio",
            tel.cache_hits as f64 / tel.jobs_total.max(1) as f64,
        ),
    ] {
        layers.insert(key.to_string(), v);
    }
}

/// What identifies a suite cell's stream: binary and commit budget.
type StreamKey = (String, bool, u64, u64, u64);

fn stream_key(j: &Job) -> StreamKey {
    (
        j.benchmark.clone(),
        j.ifconv,
        j.ifconv_threshold.map_or(u64::MAX, f64::to_bits),
        j.profile_steps,
        j.commits,
    )
}

/// Compiles `job`'s benchmark and captures its stream through the public
/// `compile` and `TraceBuffer::capture`, for the layer probes.
fn capture_for(job: &Job) -> TraceBuffer {
    let suite = spec2000_suite();
    let spec = suite
        .iter()
        .find(|s| s.name == job.benchmark)
        .expect("plan names suite benchmarks");
    let mut opts = if job.ifconv {
        CompileOptions::with_ifconv()
    } else {
        CompileOptions::no_ifconv()
    };
    opts.profile_steps = job.profile_steps;
    if let Some(th) = job.ifconv_threshold {
        opts.ifconvert.misp_threshold = th;
    }
    let compiled = compile(spec, &opts).expect("suite benchmarks compile");
    TraceBuffer::capture(&compiled.program, job.commits).expect("suite benchmarks run")
}

/// One `suite-cold` pass: a runner on a fresh private cache directory
/// (`Runner::new` creates it, as `ppsim suite` does on a first run), the
/// grid through `PlanResults::collect`, then the report.
fn cold_pass(
    tracer: Option<&Tracer>,
    cfg: &ExperimentConfig,
    dir: &Path,
    jobs: &[Job],
) -> (Runner, PlanResults, String) {
    let runner = within(tracer, "runner.open", || cached_runner(dir));
    let results = within(tracer, "core.collect", || {
        PlanResults::collect(&runner, cfg, jobs)
    });
    let report = within(tracer, "core.render", || render(&results, cfg));
    (runner, results, report)
}

/// What one `trace-import` pass produced.
struct ImportPass {
    runner: Runner,
    jobs: Vec<Job>,
    results: PlanResults,
    /// The decoded streams, one per log.
    streams: Vec<Arc<TraceBuffer>>,
    /// Per log: `content_hash` before and after the round trip, and the
    /// branches the import saw.
    checks: Vec<((u64, u64), u64)>,
    pptrace_bytes: usize,
}

/// One `trace-import` pass: each log through `import_cbp`, a `.pptrace`
/// round trip and `Runner::register_trace`, then the six Figure 6a cells
/// per log through `PlanResults::collect`.
fn import_pass(
    tracer: Option<&Tracer>,
    cfg: &ExperimentConfig,
    texts: &[String],
) -> Result<ImportPass, String> {
    let runner = within(tracer, "runner.open", uncached_runner);
    let mut pass = ImportPass {
        runner,
        jobs: Vec::new(),
        results: PlanResults::default(),
        streams: Vec::new(),
        checks: Vec::new(),
        pptrace_bytes: 0,
    };
    for (i, text) in texts.iter().enumerate() {
        let name = format!("synthetic-cbp-{i}");
        let (buf, summary) = within(tracer, "isa.cbp_import", || pptrace::import_cbp(text))
            .map_err(|e| e.to_string())?;
        let bytes = within(tracer, "isa.pptrace_encode", || {
            pptrace::encode(&buf, &name, "", true)
        });
        let (back, meta) = within(tracer, "isa.pptrace_decode", || pptrace::decode(&bytes))
            .map_err(|e| e.to_string())?;
        let hashes = within(tracer, "isa.content_hash", || {
            (pptrace::content_hash(&buf), pptrace::content_hash(&back))
        });
        pass.checks.push((hashes, summary.branches));
        pass.pptrace_bytes += bytes.len();
        let back = Arc::new(back);
        let id = within(tracer, "runner.register", || {
            pass.runner
                .register_trace(Arc::clone(&back), meta.branches_only)
        });
        pass.jobs
            .extend(FIG6A_SCHEMES.iter().map(|&(scheme, predication, _)| {
                Job::traced(&name, id, scheme, predication, back.len(), cfg.core)
            }));
        pass.streams.push(back);
    }
    pass.results = within(tracer, "core.collect", || {
        PlanResults::collect(&pass.runner, cfg, &pass.jobs)
    });
    Ok(pass)
}

/// Per-run state shared by the workloads.
struct Bench {
    spec: RunSpec,
    work: WorkDir,
    cfg: ExperimentConfig,
    out: Outcome,
    /// Time per set-up, one entry per timed block (s).
    setup_s: Vec<f64>,
    /// Untraced pass walls (s).
    walls: Vec<f64>,
    /// Traced pass walls (s).
    traced: Vec<f64>,
    layers: BTreeMap<String, f64>,
    /// Simulated committed instructions per pass, in millions.
    minsts: f64,
    /// The first untraced pass's output, which later passes must match.
    ref_report: Option<String>,
    ref_stats: Option<Vec<SimStats>>,
    /// Resident memory each untraced pass added at its peak (bytes).
    peak_rss: Vec<f64>,
}

/// Runs one benchmark run and returns what it reports.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut bench = Bench {
        spec: spec.clone(),
        work: WorkDir::new(),
        cfg: spec.size.config(),
        out: Outcome::default(),
        setup_s: Vec::new(),
        walls: Vec::new(),
        traced: Vec::new(),
        layers: BTreeMap::new(),
        minsts: 0.0,
        ref_report: None,
        ref_stats: None,
        peak_rss: Vec::new(),
    };
    match spec.workload {
        Workload::SuiteCold => bench.suite_cold(),
        Workload::TraceImport => bench.trace_import(),
        Workload::CheckSweep => bench.check_sweep(),
    }
    let mut out = std::mem::take(&mut bench.out);
    if spec.trace {
        let overhead = median(&bench.traced) / median(&bench.walls).max(1e-12) - 1.0;
        bench.layers.insert("trace.overhead_frac".into(), overhead);
        for (name, unit, _) in per_layer() {
            let v = bench.layers.get(&name).copied().unwrap_or(0.0);
            out.push(name, unit, v);
        }
    } else {
        // The timed region's wall per pass: a mean, which moves smoothly
        // when passes fall into two speed modes, where a median jumps.
        let wall = bench.walls.iter().sum::<f64>() / bench.walls.len().max(1) as f64;
        out.push(
            "setup_s",
            "s",
            median_of_means(&bench.setup_s, SETUP_GROUPS),
        );
        out.push("wall_s", "s", wall);
        out.push(
            "sim_minsts_per_s",
            "Minsts/s",
            bench.minsts / wall.max(1e-12),
        );
        out.push(
            "peak_rss_mb",
            "MB",
            median(&bench.peak_rss) / (1024.0 * 1024.0),
        );
    }
    out.pass_walls = bench.walls;
    out.setup_blocks = bench.setup_s;
    out
}

impl Bench {
    /// Times one block of set-ups and records the time per set-up. The
    /// set-ups are dropped after the clock stops, so tear-down does not
    /// count.
    fn time_setups<T>(&mut self, mut setup: impl FnMut(&Bench) -> T) {
        let n = self.spec.size.setups_per_block[self.spec.workload as usize].max(1);
        let t = Instant::now();
        let kept: Vec<T> = (0..n).map(|_| setup(self)).collect();
        self.setup_s.push(elapsed(t) / n as f64);
        drop(kept);
    }

    /// Times the first set-up blocks, then runs untraced passes until the
    /// measuring time is up — at least two — each after more set-up
    /// blocks, alternating them with traced passes in a traced run. A
    /// panic counts as a failed pass. Peak memory is tracked per untraced
    /// pass, above the memory live when it starts, so set-up does not
    /// count.
    fn passes(
        &mut self,
        mut setup: impl FnMut(&mut Bench),
        mut untraced: impl FnMut(&mut Bench, usize) -> Result<(), String>,
        mut traced: impl FnMut(&mut Bench, usize) -> Result<(), String>,
    ) {
        for _ in 0..self.spec.size.setup_blocks {
            setup(self);
        }
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(self.spec.seconds);
        let mut k = 0;
        while k < 2 || Instant::now() < deadline {
            for _ in 0..self.spec.size.setup_blocks_per_pass {
                setup(self);
            }
            let baseline = reset_peak_rss();
            let r = catch_unwind(AssertUnwindSafe(|| untraced(self, k)))
                .unwrap_or_else(|_| Err(format!("untraced pass {k} panicked")));
            self.peak_rss
                .push(peak_rss_bytes().saturating_sub(baseline) as f64);
            self.out.record(r);
            if self.spec.trace {
                let r = catch_unwind(AssertUnwindSafe(|| traced(self, k)))
                    .unwrap_or_else(|_| Err(format!("traced pass {k} panicked")));
                self.out.record(r);
            }
            k += 1;
        }
    }

    /// Runs the layer probes of a traced run; a panic or a failed check
    /// counts as one failed operation.
    fn probe(&mut self, f: impl FnOnce(&mut Bench) -> Result<(), String>) {
        let r = catch_unwind(AssertUnwindSafe(|| f(self)))
            .unwrap_or_else(|_| Err("layer probes panicked".to_string()));
        self.out.record(r);
    }

    fn inject(&self, k: usize, which: Inject) -> bool {
        k == 0 && self.spec.inject == Some(which)
    }

    fn set(&mut self, key: &str, v: f64) {
        self.layers.insert(key.to_string(), v);
    }

    /// Checks an untraced pass's output against the first pass's.
    fn against_reference(
        &mut self,
        what: &str,
        report: String,
        stats: Vec<SimStats>,
    ) -> Result<(), String> {
        match (&self.ref_report, &self.ref_stats) {
            (Some(r), Some(s)) => {
                same(&format!("{what} report"), r, &report)?;
                same(&format!("{what} statistics"), s, &stats)
            }
            _ => {
                self.ref_report = Some(report);
                self.ref_stats = Some(stats);
                Ok(())
            }
        }
    }

    /// Checks a traced pass's statistics (and report, when it renders
    /// one) against the untraced reference.
    fn traced_matches(
        &self,
        k: usize,
        mut stats: Vec<SimStats>,
        report: Option<&String>,
    ) -> Result<(), String> {
        if self.inject(k, Inject::Traced) {
            if let Some(s) = stats.first_mut() {
                s.committed += 1;
            }
        }
        let ref_stats = self.ref_stats.as_ref().ok_or("no untraced reference")?;
        same("traced statistics", ref_stats, &stats)?;
        match (report, &self.ref_report) {
            (Some(r), Some(want)) => same("traced report", want, r),
            _ => Ok(()),
        }
    }

    /// Stops the tracer and records the traced wall and its unattributed
    /// share.
    fn reduce(&mut self, tracer: Tracer) -> Reduced {
        let r = tracer.finish();
        self.traced.push(r.wall_s);
        self.set("trace.unattributed_frac", r.unattributed_frac);
        r
    }

    fn model(&mut self, jobs: &[Job], stats: &[SimStats]) {
        let pairs: Vec<(SchemeSpec, &SimStats)> =
            jobs.iter().map(|j| j.scheme).zip(stats).collect();
        model_counts(&pairs, &mut self.layers);
    }

    /// Replays up to the run's event budget of `streams`' compare and
    /// branch outcomes through every scheme's predictors.
    fn predictor_probe(&mut self, streams: &[&TraceBuffer]) {
        let mut events = Vec::new();
        for t in streams {
            probes::events(
                t,
                self.spec.size.replay_events / streams.len().max(1),
                &mut events,
            );
        }
        predictor_counts(&events, &mut self.layers);
    }

    // ----- suite-cold: the full report grid from an empty cache --------

    fn suite_cold(&mut self) {
        // The last traced pass's grid, statistics and the cache it wrote.
        let mut last: Option<(PathBuf, Vec<Job>, Vec<SimStats>)> = None;
        self.passes(
            |b| b.time_setups(|b| plan(&b.cfg, PlanSpec::FullReport)),
            |b, k| {
                let jobs = plan(&b.cfg, PlanSpec::FullReport);
                let dir = b.work.fresh("cold");
                let t = Instant::now();
                let (runner, results, mut report) = cold_pass(None, &b.cfg, &dir, &jobs);
                b.walls.push(elapsed(t));

                let stats: Vec<SimStats> =
                    jobs.iter().map(|j| results.stats_of(j).clone()).collect();
                b.minsts = stats.iter().map(|s| s.committed).sum::<u64>() as f64 / 1e6;
                let hits = runner.telemetry().cache_hits;
                if b.inject(k, Inject::Output) {
                    corrupt(&mut report);
                }
                b.against_reference("cold pass", report, stats)?;
                expect(hits == 0, || format!("cold pass {k} saw {hits} cache hits"))
            },
            |b, k| {
                let t = Instant::now();
                let jobs = plan(&b.cfg, PlanSpec::FullReport);
                b.set("core.plan_busy_s", elapsed(t));
                let dir = b.work.fresh("cold");
                let tracer = Tracer::new();
                let (runner, results, report) = cold_pass(Some(&tracer), &b.cfg, &dir, &jobs);
                let r = b.reduce(tracer);

                runner_layers(&runner.telemetry(), r.busy("core.collect"), &mut b.layers);
                b.set("core.render_busy_s", r.busy("core.render"));
                b.set("core.report_bytes", report.len() as f64);
                b.set(
                    "runner.cache_bytes",
                    runner.cache().map_or(0, |c| c.usage().bytes) as f64,
                );
                let stats: Vec<SimStats> =
                    jobs.iter().map(|j| results.stats_of(j).clone()).collect();
                b.model(&jobs, &stats);
                let verdict = b.traced_matches(k, stats.clone(), Some(&report));
                last = Some((dir, jobs, stats));
                verdict
            },
        );
        if let Some((dir, jobs, stats)) = last {
            self.probe(|b| b.cold_probes(&dir, &jobs, &stats));
        }
    }

    /// After a traced `suite-cold` run: the warm read of the cache the
    /// last traced pass wrote (cell by cell, then a whole report from a
    /// fresh runner, which must be byte-identical to the cold report),
    /// the cache's store path, and the predictor and memory probes over
    /// the grid's streams.
    fn cold_probes(&mut self, dir: &Path, jobs: &[Job], stats: &[SimStats]) -> Result<(), String> {
        let cache = DiskCache::open(dir).map_err(|e| format!("open the warm cache: {e}"))?;
        let t = Instant::now();
        let loaded: Vec<_> = jobs.iter().map(|j| cache.load(j)).collect();
        self.set("runner.cache_load_busy_s", elapsed(t));
        self.set("runner.cache_load_calls", jobs.len() as f64);
        let store =
            DiskCache::open(self.work.fresh("store")).map_err(|e| format!("open a cache: {e}"))?;
        let t = Instant::now();
        let mut stored = 0;
        for (j, r) in jobs.iter().zip(&loaded) {
            if let Some(r) = r {
                store.store(j, r).map_err(|e| format!("cache store: {e}"))?;
                stored += 1;
            }
        }
        self.set("runner.cache_store_busy_s", elapsed(t));
        self.set("runner.cache_store_calls", stored as f64);

        let warm = cached_runner(dir);
        let t = Instant::now();
        let results = PlanResults::collect(&warm, &self.cfg, jobs);
        self.set("core.collect_busy_s", elapsed(t));
        let mut report = render(&results, &self.cfg);
        if self.spec.inject == Some(Inject::Warm) {
            corrupt(&mut report);
        }
        let hits = warm.telemetry().cache_hits;
        expect(hits == jobs.len() as u64, || {
            format!("warm read saw {hits} of {} cache hits", jobs.len())
        })?;
        same(
            "warm report",
            self.ref_report.as_ref().ok_or("no cold reference")?,
            &report,
        )?;

        // One stream per binary and budget, as the runner shares them.
        let mut streams: BTreeMap<StreamKey, (bool, TraceBuffer)> = BTreeMap::new();
        for j in jobs {
            streams
                .entry(stream_key(j))
                .or_insert_with(|| (j.ifconv, capture_for(j)));
        }
        let records: u64 = streams.values().map(|(_, t)| t.len()).sum();
        self.set("isa.capture_records", records as f64);
        let capture_s = self.layers["isa.capture_busy_s"];
        self.set(
            "isa.capture_minsts_per_s",
            records as f64 / capture_s.max(1e-12) / 1e6,
        );
        let lane_records: u64 = jobs.iter().map(|j| streams[&stream_key(j)].1.len()).sum();
        let refs: Vec<&SimStats> = stats.iter().collect();
        let busy = self.layers["pipeline.busy_s"];
        pipeline_counts(&refs, lane_records, busy, &mut self.layers);

        let mem = probes::replay_mem(
            streams.values().map(|(_, t)| t),
            self.spec.size.mem_records / streams.len().max(1),
        );
        self.set("mem.accesses", mem.accesses as f64);
        self.set(
            "mem.ns_per_access",
            mem.busy_s * 1e9 / mem.accesses.max(1) as f64,
        );
        self.set("mem.l1d_miss_ratio", mem.l1d_miss_ratio);
        self.set("mem.l2_miss_ratio", mem.l2_miss_ratio);
        // Predictors replay the if-converted streams: the Figure 6a code.
        let ifconv: Vec<&TraceBuffer> = streams
            .values()
            .filter(|(ifconv, _)| *ifconv)
            .map(|(_, t)| t)
            .collect();
        self.predictor_probe(&ifconv);
        Ok(())
    }

    // ----- trace-import: CBP log → .pptrace round trip → six cells ----

    fn trace_import(&mut self) {
        let (seed, sites, branches) = (
            self.spec.seed,
            self.spec.size.cbp_sites,
            self.spec.size.cbp_branches,
        );
        let generate_logs = move |_: &Bench| -> Vec<String> {
            (0..IMPORT_LOGS)
                .map(|i| {
                    let seed = seed.wrapping_add(i as u64 * 0x9E37_79B9);
                    cbpgen::generate(seed, sites, branches)
                })
                .collect()
        };
        let texts = generate_logs(self);
        let branches = branches as u64;
        let check_import = move |k: usize, pass: &ImportPass| -> Result<(), String> {
            for &((want, got), seen) in &pass.checks {
                expect(want == got, || {
                    format!("pass {k}: .pptrace round trip changed content_hash")
                })?;
                expect(seen == branches, || {
                    format!("pass {k}: imported {seen} branches")
                })?;
            }
            Ok(())
        };
        // The last traced pass's streams, for the predictor probe.
        let mut last: Vec<Arc<TraceBuffer>> = Vec::new();
        self.passes(
            |b| b.time_setups(generate_logs),
            |b, k| {
                let t = Instant::now();
                let mut pass = import_pass(None, &b.cfg, &texts)?;
                b.walls.push(elapsed(t));

                let stats: Vec<SimStats> = pass
                    .jobs
                    .iter()
                    .map(|j| pass.results.stats_of(j).clone())
                    .collect();
                b.minsts = stats.iter().map(|s| s.committed).sum::<u64>() as f64 / 1e6;
                if b.inject(k, Inject::Output) {
                    pass.checks[0].0 .1 ^= 1;
                }
                check_import(k, &pass)?;
                b.against_reference("import pass", String::new(), stats)
            },
            |b, k| {
                let tracer = Tracer::new();
                let pass = import_pass(Some(&tracer), &b.cfg, &texts)?;
                let r = b.reduce(tracer);
                check_import(k, &pass)?;

                let text_bytes: usize = texts.iter().map(String::len).sum();
                let mb = |n: usize, span: &str| n as f64 / r.busy(span).max(1e-12) / 1e6;
                b.set("isa.cbp_import_mb_per_s", mb(text_bytes, "isa.cbp_import"));
                b.set(
                    "isa.pptrace_encode_mb_per_s",
                    mb(pass.pptrace_bytes, "isa.pptrace_encode"),
                );
                b.set(
                    "isa.pptrace_decode_mb_per_s",
                    mb(pass.pptrace_bytes, "isa.pptrace_decode"),
                );
                b.set("isa.pptrace_bytes", pass.pptrace_bytes as f64);
                runner_layers(
                    &pass.runner.telemetry(),
                    r.busy("core.collect"),
                    &mut b.layers,
                );
                let stats: Vec<SimStats> = pass
                    .jobs
                    .iter()
                    .map(|j| pass.results.stats_of(j).clone())
                    .collect();
                let lane_records =
                    pass.streams.iter().map(|t| t.len()).sum::<u64>() * FIG6A_SCHEMES.len() as u64;
                let refs: Vec<&SimStats> = stats.iter().collect();
                let busy = b.layers["pipeline.busy_s"];
                pipeline_counts(&refs, lane_records, busy, &mut b.layers);
                b.model(&pass.jobs, &stats);
                last = pass.streams;
                b.traced_matches(k, stats, None)
            },
        );
        if !last.is_empty() {
            self.probe(|b| {
                let streams: Vec<&TraceBuffer> = last.iter().map(|t| &**t).collect();
                b.predictor_probe(&streams);
                Ok(())
            });
        }
    }

    // ----- check-sweep: generator plus lockstep oracle ------------------

    fn check_sweep(&mut self) {
        let (seed, iters) = (self.spec.seed, self.spec.size.check_iters);
        let programs = 2 * iters;
        let program = move |k: u64| generate(seed, k / 2, Form::ALL[(k % 2) as usize]);
        // Set-up: every program generated and run on the reference
        // emulator for its committed count.
        let steps_of_all = move |_: &Bench| -> u64 {
            (0..programs)
                .map(|k| {
                    Machine::new(&program(k))
                        .run(MAX_REF_STEPS)
                        .map_or(0, |o| o.steps)
                })
                .sum()
        };
        let steps = steps_of_all(self);
        // The verdict cache is off; the private path keeps the sweep out
        // of the repository's `target/ppsim-cache` should that change.
        let opts = CheckOptions {
            seed,
            iters,
            use_cache: false,
            cache_dir: Some(self.work.fresh("verdicts")),
            ..CheckOptions::default()
        };
        let sweep = |tracer: Option<&Tracer>| within(tracer, "check.sweep", || run_check(&opts));
        let ref_cells = std::cell::Cell::new(None);
        self.passes(
            |b| b.time_setups(steps_of_all),
            |b, k| {
                let t = Instant::now();
                let mut report = sweep(None);
                b.walls.push(elapsed(t));

                if b.inject(k, Inject::Output) {
                    report.programs += 1;
                }
                let cells_per_program = report.cells_checked as f64 / report.programs.max(1) as f64;
                b.minsts = steps as f64 * cells_per_program / 1e6;
                b.set(
                    "runner.cache_hit_ratio",
                    report.cache_hits as f64 / report.programs.max(1) as f64,
                );
                expect(report.findings.is_empty(), || {
                    format!("pass {k}: {} divergences", report.findings.len())
                })?;
                expect(report.programs == programs, || {
                    format!("pass {k}: {} programs, want {programs}", report.programs)
                })?;
                expect(report.cache_hits == 0, || {
                    format!("pass {k}: {} verdict cache hits", report.cache_hits)
                })?;
                match ref_cells.get() {
                    None => ref_cells.set(Some(report.cells_checked)),
                    Some(c) => same(&format!("pass {k} cells"), &c, &report.cells_checked)?,
                }
                Ok(())
            },
            |b, k| {
                let tracer = Tracer::new();
                let mut report = sweep(Some(&tracer));
                b.reduce(tracer);
                b.set("check.programs", report.programs as f64);
                b.set("check.cells", report.cells_checked as f64);
                if b.inject(k, Inject::Traced) {
                    report.cells_checked += 1;
                }
                expect(report.findings.is_empty(), || {
                    format!("traced pass {k}: {} divergences", report.findings.len())
                })?;
                same(
                    "traced check cells",
                    &ref_cells.get().ok_or("no untraced reference")?,
                    &report.cells_checked,
                )
            },
        );
        if self.spec.trace {
            self.probe(|b| {
                // The sweep's two stages, one program at a time on this
                // thread: generation, then the lockstep oracle over every
                // cell. They must check as many cells as the sweep did.
                let t = Instant::now();
                let all: Vec<Program> = (0..programs).map(program).collect();
                let gen_s = elapsed(t);
                let t = Instant::now();
                let mut cells = 0;
                for p in &all {
                    cells += check_program(p, None)
                        .and_then(|c| check_fused(p, None).map(|l| c + l))
                        .map_err(|d| d.to_string())?;
                }
                let oracle_s = elapsed(t);
                b.set("check.gen_busy_s", gen_s);
                b.set("check.oracle_busy_s", oracle_s);
                b.set(
                    "check.ms_per_program",
                    (gen_s + oracle_s) * 1e3 / programs.max(1) as f64,
                );
                same(
                    "oracle probe cells",
                    &ref_cells.get().ok_or("no untraced reference")?,
                    &cells,
                )?;
                let t = Instant::now();
                let steps: u64 = all
                    .iter()
                    .map(|p| Machine::new(p).run(MAX_REF_STEPS).map_or(0, |o| o.steps))
                    .sum();
                b.set(
                    "isa.emulate_minsts_per_s",
                    steps as f64 / elapsed(t).max(1e-12) / 1e6,
                );
                Ok(())
            });
        }
    }
}
