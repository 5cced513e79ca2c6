//! `ppsim-runner` — parallel, cache-aware experiment execution.
//!
//! The runner owns the path from "a grid of experiment cells" to "a vector
//! of results": it probes the on-disk cache, memoizes compilation per
//! (benchmark, compile-flags), fans cache misses across a deterministic
//! work-stealing thread pool, stores fresh results back, and assembles
//! everything in canonical grid order. Reports built from a grid are
//! byte-identical for any `--jobs N` and for cold vs. warm caches; only
//! the telemetry (wall times, hit counts) differs, and that never enters
//! the deterministic report stream.
//!
//! ```text
//! Vec<Job> ──cache probe──▶ misses ──pool──▶ simulate ──store──▶
//!          ──────────────── hits ─────────────────────▶ assemble (grid order)
//! ```

pub mod cache;
pub mod hash;
pub mod inflight;
pub mod job;
pub mod pool;

/// The hand-rolled JSON value (moved to `ppsim-obs`; re-exported so
/// `ppsim_runner::json::Json` paths keep working).
pub use ppsim_obs::json;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ppsim_compiler::{compile, spec2000_suite, CompileOptions, Compiled, WorkloadSpec};
use ppsim_pipeline::{SampleSpec, SimOptions, TraceBuffer, TraceCursor};

pub use cache::{CacheUsage, DiskCache};
pub use inflight::Inflight;
pub use job::{Job, JobResult, SampleSlice, TraceId};
pub use ppsim_obs::Json;

/// Upper bound on explicit worker counts. Worker threads each cost a
/// stack and scheduler churn; anything beyond this is a typo, not a
/// machine.
pub const MAX_JOBS: usize = 1024;

/// How a [`Runner`] executes grids.
#[derive(Clone, Debug)]
pub struct RunnerOptions {
    /// Worker threads; `0` means "one per available CPU".
    pub jobs: usize,
    /// Consult and populate the on-disk result cache.
    pub cache: bool,
    /// Cache directory override (`None` = [`DiskCache::default_dir`]).
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the on-disk cache (`None` = unbounded). When set,
    /// every store evicts least-recently-used entries down to the cap.
    pub cache_max_bytes: Option<u64>,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            jobs: 0,
            cache: true,
            cache_dir: None,
            cache_max_bytes: None,
        }
    }
}

impl RunnerOptions {
    /// Parses `--jobs N`, `--no-cache`, `--cache-dir P` and
    /// `--cache-max-bytes B` from a raw argument list, returning the
    /// validated options and the unconsumed arguments.
    pub fn from_args(args: &[String]) -> Result<(RunnerOptions, Vec<String>), String> {
        let mut opts = RunnerOptions::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--jobs" | "-j" => {
                    let v = it.next().ok_or("--jobs needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
                    if n == 0 {
                        return Err(
                            "--jobs must be at least 1 (omit the flag for one worker per CPU)"
                                .to_string(),
                        );
                    }
                    opts.jobs = n;
                }
                "--no-cache" => opts.cache = false,
                "--cache-dir" => {
                    let v = it.next().ok_or("--cache-dir needs a value")?;
                    opts.cache_dir = Some(PathBuf::from(v));
                }
                "--cache-max-bytes" => {
                    let v = it.next().ok_or("--cache-max-bytes needs a value")?;
                    let b: u64 = v
                        .parse()
                        .map_err(|_| format!("bad --cache-max-bytes value `{v}`"))?;
                    opts.cache_max_bytes = Some(b);
                }
                _ => rest.push(a.clone()),
            }
        }
        opts.validate()?;
        Ok((opts, rest))
    }
    /// Rejects nonsensical combinations before they reach the pool: a
    /// worker count beyond [`MAX_JOBS`], an empty cache-directory path,
    /// or a byte budget on a disabled cache. `jobs == 0` remains the
    /// *programmatic* "one worker per CPU" default — only the explicit
    /// CLI flag refuses it (in [`RunnerOptions::from_args`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.jobs > MAX_JOBS {
            return Err(format!(
                "--jobs {} is beyond the supported maximum of {MAX_JOBS}",
                self.jobs
            ));
        }
        if let Some(dir) = &self.cache_dir {
            if dir.as_os_str().is_empty() {
                return Err("--cache-dir must not be empty".to_string());
            }
        }
        if self.cache_max_bytes.is_some() && !self.cache {
            return Err("--cache-max-bytes is meaningless with --no-cache".to_string());
        }
        Ok(())
    }

    fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Execution telemetry for one grid (and cumulatively for a runner's
/// lifetime). Telemetry is *observational*: it never feeds back into
/// results or report bytes.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Jobs requested.
    pub jobs_total: u64,
    /// Jobs actually simulated (cache misses).
    pub jobs_run: u64,
    /// Jobs served from the on-disk cache.
    pub cache_hits: u64,
    /// Wall time of simulated jobs, summed (µs).
    pub wall_micros_total: u64,
    /// Fresh trace captures performed (one per (binary, budget) key).
    pub captures: u64,
    /// Compiled-benchmark jobs whose trace came from the in-process memo.
    pub trace_memo_hits: u64,
    /// Wall time spent capturing traces, summed (µs).
    pub capture_micros_total: u64,
    /// Entries dropped from the in-process memos (compile, trace) by the
    /// size caps — relevant for long-lived runners (`ppsim serve`),
    /// always 0 for one-shot grids.
    pub memo_evictions: u64,
    /// Always 0: every cache-missing cell runs as its own replay job.
    #[deprecated(
        note = "cells are no longer fused, so this is always 0; kept only so the \
                benchmark harness builds, and removed with its next change"
    )]
    pub fused_passes: u64,
    /// Always 0: every cache-missing cell runs as its own replay job.
    #[deprecated(
        note = "cells are no longer fused, so this is always 0; kept only so the \
                benchmark harness builds, and removed with its next change"
    )]
    pub fused_lanes: u64,
    /// Per-simulated-job timing phases, in grid order. Capped at
    /// [`Telemetry::MAX_PER_JOB`] entries (oldest dropped) so a
    /// long-running daemon's telemetry stays bounded.
    pub per_job: Vec<JobTiming>,
}

/// Wall-time phases of one simulated job: compilation (0 when the memo
/// already held the binary), trace capture (0 on a trace-memo hit or for
/// a registered external trace), simulation, and everything else
/// (simulator construction, bookkeeping) folded into the total.
#[derive(Clone, Debug, Default)]
pub struct JobTiming {
    /// The job's [`Job::label`].
    pub label: String,
    /// End-to-end wall time (µs).
    pub wall_micros: u64,
    /// Time spent compiling the benchmark (µs).
    pub compile_micros: u64,
    /// Time spent capturing the functional trace (µs).
    pub capture_micros: u64,
    /// Time spent replaying the cell's stream (`Simulator::run` or
    /// `run_sample`, µs).
    pub sim_micros: u64,
}

impl Telemetry {
    /// Upper bound on retained [`Telemetry::per_job`] rows.
    pub const MAX_PER_JOB: usize = 1024;

    fn absorb(&mut self, jobs: &[Job], results: &[JobResult]) {
        self.jobs_total += jobs.len() as u64;
        for (job, r) in jobs.iter().zip(results) {
            if r.from_cache {
                self.cache_hits += 1;
            } else {
                self.jobs_run += 1;
                self.wall_micros_total += r.wall_micros;
                if r.capture_micros > 0 {
                    self.captures += 1;
                    self.capture_micros_total += r.capture_micros;
                }
                if r.trace_memo_hit {
                    self.trace_memo_hits += 1;
                }
                self.per_job.push(JobTiming {
                    label: job.label(),
                    wall_micros: r.wall_micros,
                    compile_micros: r.compile_micros,
                    capture_micros: r.capture_micros,
                    sim_micros: r.sim_micros,
                });
            }
        }
        if self.per_job.len() > Self::MAX_PER_JOB {
            let excess = self.per_job.len() - Self::MAX_PER_JOB;
            self.per_job.drain(..excess);
        }
    }

    /// Fraction of compiled-benchmark jobs whose capture was shared from
    /// the memo (`trace_memo_hits / (trace_memo_hits + captures)`; 0 when
    /// no such job ran).
    pub fn trace_memo_hit_rate(&self) -> f64 {
        let lookups = self.trace_memo_hits + self.captures;
        if lookups == 0 {
            0.0
        } else {
            self.trace_memo_hits as f64 / lookups as f64
        }
    }

    /// Renders the telemetry as a JSON object (for `--json` artifacts).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("jobs_total", self.jobs_total)
            .field("jobs_run", self.jobs_run)
            .field("cache_hits", self.cache_hits)
            .field("wall_micros_total", self.wall_micros_total)
            .field("captures", self.captures)
            .field("trace_memo_hits", self.trace_memo_hits)
            .field("trace_memo_hit_rate", self.trace_memo_hit_rate())
            .field("capture_micros_total", self.capture_micros_total)
            .field("memo_evictions", self.memo_evictions)
            .field(
                "per_job",
                Json::Arr(
                    self.per_job
                        .iter()
                        .map(|t| {
                            Json::obj()
                                .field("job", t.label.as_str())
                                .field("wall_micros", t.wall_micros)
                                .field("compile_micros", t.compile_micros)
                                .field("capture_micros", t.capture_micros)
                                .field("sim_micros", t.sim_micros)
                        })
                        .collect(),
                ),
            )
    }

    /// One-line human summary (stderr-friendly).
    pub fn summary(&self) -> String {
        format!(
            "{} jobs: {} simulated, {} from cache, {:.2}s simulation time",
            self.jobs_total,
            self.jobs_run,
            self.cache_hits,
            self.wall_micros_total as f64 / 1e6,
        )
    }
}

/// Compilation memo key: everything that affects the compiled binary.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CompileKey {
    benchmark: String,
    ifconv: bool,
    /// `f64::to_bits` of the threshold override (`u64::MAX` = none).
    threshold_bits: u64,
    profile_steps: u64,
}

impl CompileKey {
    fn of(job: &Job) -> CompileKey {
        CompileKey {
            benchmark: job.benchmark.clone(),
            ifconv: job.ifconv,
            threshold_bits: job.ifconv_threshold.map_or(u64::MAX, f64::to_bits),
            profile_steps: job.profile_steps,
        }
    }
}

/// Trace memo key: the binary identity plus the capture budget. Jobs
/// with different commit budgets need different capture lengths, so the
/// budget is part of the key (in practice a sweep uses one budget, so
/// every cell of a benchmark shares one capture; a sampled sweep's cells
/// all share one capture spanning the last window's end).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct TraceKey {
    compile: CompileKey,
    steps: u64,
}

impl TraceKey {
    /// The capture a job replays: `job.commits` records for a full run,
    /// the schedule's whole span for a sampled window.
    fn of(job: &Job) -> TraceKey {
        TraceKey {
            compile: CompileKey::of(job),
            steps: job.sample.map_or(job.commits, |slice| slice.spec.span()),
        }
    }
}

/// One sampled grid cell after aggregation: the merged estimate plus the
/// per-window results it was built from (reports show both).
#[derive(Clone, Debug)]
pub struct SampledResult {
    /// Counter-summed aggregate of every window (see
    /// `SimStats::merge`): rates derived from it are the sampled
    /// estimates of the full run's rates.
    pub aggregate: JobResult,
    /// Per-window results, in window order.
    pub samples: Vec<JobResult>,
}

/// The experiment execution engine.
pub struct Runner {
    opts: RunnerOptions,
    cache: Option<DiskCache>,
    suite: Vec<WorkloadSpec>,
    /// Per-key compile memo. The `Arc<OnceLock>` two-step keeps the map
    /// lock held only for the lookup, so two workers needing *different*
    /// benchmarks compile concurrently while two needing the *same* one
    /// compile once.
    compiled: Mutex<HashMap<CompileKey, Arc<OnceLock<Arc<Compiled>>>>>,
    /// Per-(binary, budget) captured-trace memo, same locking discipline
    /// as `compiled`: capture once, replay from every cell.
    traces: Mutex<HashMap<TraceKey, Arc<OnceLock<Arc<TraceBuffer>>>>>,
    /// Externally supplied trace streams, keyed by content hash (see
    /// [`Runner::register_trace`]). Unlike the capture memo these are
    /// provided, not derived, so they are never evicted: the runner
    /// cannot recreate them.
    ext_traces: Mutex<HashMap<u64, Arc<TraceBuffer>>>,
    telemetry: Mutex<Telemetry>,
}

impl Runner {
    /// A runner with the given options. Cache-open failures degrade to
    /// running without a cache rather than erroring.
    pub fn new(opts: RunnerOptions) -> Runner {
        let cache = if opts.cache {
            let dir = opts
                .cache_dir
                .clone()
                .unwrap_or_else(DiskCache::default_dir);
            DiskCache::open_capped(dir, opts.cache_max_bytes).ok()
        } else {
            None
        };
        Runner {
            opts,
            cache,
            suite: spec2000_suite(),
            compiled: Mutex::new(HashMap::new()),
            traces: Mutex::new(HashMap::new()),
            ext_traces: Mutex::new(HashMap::new()),
            telemetry: Mutex::new(Telemetry::default()),
        }
    }

    /// Registers an externally supplied trace stream (an imported
    /// `.pptrace` file or CBP import) and returns the [`TraceId`] that
    /// names it in [`Job::trace`]. The identity is the stream's content
    /// hash, so registering the same stream twice is idempotent and two
    /// renamed copies of one file share cache entries.
    pub fn register_trace(&self, trace: Arc<TraceBuffer>, branches_only: bool) -> TraceId {
        let content = ppsim_isa::pptrace::content_hash(&trace);
        self.ext_traces.lock().unwrap().insert(content, trace);
        TraceId {
            content,
            branches_only,
        }
    }

    /// Looks up a registered external trace.
    fn ext_trace(&self, id: TraceId) -> Arc<TraceBuffer> {
        self.ext_traces
            .lock()
            .unwrap()
            .get(&id.content)
            .cloned()
            .unwrap_or_else(|| {
                panic!(
                    "trace {:016x} was not registered with this runner",
                    id.content
                )
            })
    }

    /// A serial, cache-less runner (unit tests; guaranteed hermetic).
    pub fn serial_no_cache() -> Runner {
        Runner::new(RunnerOptions {
            jobs: 1,
            cache: false,
            cache_dir: None,
            ..RunnerOptions::default()
        })
    }

    /// Cumulative telemetry since construction.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.lock().unwrap().clone()
    }

    /// The on-disk result cache, when one is open.
    pub fn cache(&self) -> Option<&DiskCache> {
        self.cache.as_ref()
    }

    /// Probes the on-disk cache for `job` without simulating or touching
    /// telemetry — the warm fast path of a serving front end: a hit can
    /// be returned immediately, bypassing any scheduling or coalescing
    /// machinery reserved for cold simulations.
    pub fn probe(&self, job: &Job) -> Option<JobResult> {
        self.cache.as_ref()?.load(job)
    }

    /// Runs a grid of jobs and returns results in grid order.
    ///
    /// Cache hits are resolved serially up front (file reads — not worth
    /// threading); misses fan out over the pool, one cell per task.
    /// Results are assembled by grid index, so the output order — and
    /// any report rendered from it — is independent of worker count and
    /// scheduling.
    pub fn run_grid(&self, jobs: &[Job]) -> Vec<JobResult> {
        // 1. Serial cache probe.
        let mut slots: Vec<Option<JobResult>> = match &self.cache {
            Some(cache) => jobs.iter().map(|j| cache.load(j)).collect(),
            None => vec![None; jobs.len()],
        };

        // 2. Simulate the misses, each cell on its own.
        let misses = Self::stream_order(jobs, &slots);
        let fresh = pool::run_indexed(misses.len(), self.opts.effective_jobs(), |k| {
            self.execute(&jobs[misses[k]])
        });

        // 3. Store fresh results and fill their slots.
        for (&i, result) in misses.iter().zip(fresh) {
            if let Some(cache) = &self.cache {
                // A failed store is not fatal — the result is still
                // good, the next run just recomputes.
                let _ = cache.store(&jobs[i], &result);
            }
            slots[i] = Some(result);
        }

        let results: Vec<JobResult> = slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect();
        self.telemetry.lock().unwrap().absorb(jobs, &results);
        results
    }

    /// The indices of the cache misses, grouped by stream (binary, commit
    /// budget and external trace), groups in order of first appearance
    /// and grid order within each. The cells of one stream then run back
    /// to back while its capture sits in the memo, instead of being
    /// recaptured after the memo cap flushed it.
    fn stream_order(jobs: &[Job], slots: &[Option<JobResult>]) -> Vec<usize> {
        let mut keys: Vec<(TraceKey, Option<TraceId>)> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            if slots[i].is_some() {
                continue;
            }
            let key = (TraceKey::of(job), job.trace);
            match keys.iter().position(|k| *k == key) {
                Some(g) => groups[g].push(i),
                None => {
                    keys.push(key);
                    groups.push(vec![i]);
                }
            }
        }
        groups.concat()
    }

    /// Runs a single job (grid of one).
    pub fn run_job(&self, job: &Job) -> JobResult {
        self.run_grid(std::slice::from_ref(job)).pop().unwrap()
    }

    /// Runs a grid of cells in sampled mode: each cell expands into
    /// `spec.count` window jobs (cached and scheduled independently, like
    /// any other job), and the windows' counters are merged back into one
    /// aggregate per cell. Results come back in grid order, so reports
    /// built from them are as deterministic as full-run reports.
    ///
    /// Cells carrying their own `sample` slice are rejected — the
    /// schedule is this call's to assign.
    pub fn run_grid_sampled(&self, jobs: &[Job], spec: SampleSpec) -> Vec<SampledResult> {
        assert!(
            jobs.iter().all(|j| j.sample.is_none()),
            "sampled grids are expanded here; cells must not pre-assign windows"
        );
        let expanded: Vec<Job> = jobs
            .iter()
            .flat_map(|j| {
                (0..spec.count).map(move |index| Job {
                    sample: Some(SampleSlice { spec, index }),
                    ..j.clone()
                })
            })
            .collect();
        let results = self.run_grid(&expanded);
        results
            .chunks(spec.count as usize)
            .map(|samples| {
                let mut aggregate = samples[0].clone();
                aggregate.stats = samples[0].stats.clone();
                for s in &samples[1..] {
                    aggregate.stats.merge(&s.stats);
                    aggregate.from_cache &= s.from_cache;
                    aggregate.wall_micros += s.wall_micros;
                    aggregate.compile_micros += s.compile_micros;
                    aggregate.capture_micros += s.capture_micros;
                    aggregate.sim_micros += s.sim_micros;
                    aggregate.trace_memo_hit |= s.trace_memo_hit;
                }
                SampledResult {
                    aggregate,
                    samples: samples.to_vec(),
                }
            })
            .collect()
    }

    /// Runs a single cell in sampled mode (sampled grid of one).
    pub fn run_job_sampled(&self, job: &Job, spec: SampleSpec) -> SampledResult {
        self.run_grid_sampled(std::slice::from_ref(job), spec)
            .pop()
            .unwrap()
    }

    /// In-process memo size caps. A one-shot grid never reaches them;
    /// they exist so a long-lived runner (`ppsim serve`) holds bounded
    /// memory. Overflow flushes the whole memo — in-flight holders keep
    /// their `Arc`s, future jobs re-derive — which is crude but cheap
    /// and, crucially, invisible to results. Traces are the big entries
    /// (~5 B per captured record), so their cap is the tightest.
    const COMPILE_MEMO_CAP: usize = 256;
    const TRACE_MEMO_CAP: usize = 32;

    /// Flushes `map` when inserting a new `key` would exceed `cap`,
    /// recording the eviction count in telemetry.
    fn bound_memo<K: std::hash::Hash + Eq, V>(&self, map: &mut HashMap<K, V>, key: &K, cap: usize) {
        if map.len() >= cap && !map.contains_key(key) {
            let evicted = map.len() as u64;
            map.clear();
            self.telemetry.lock().unwrap().memo_evictions += evicted;
        }
    }

    /// Compiles (or returns the memoized binary for) a job's benchmark.
    fn compiled_for(&self, job: &Job) -> Arc<Compiled> {
        let key = CompileKey::of(job);
        let cell = {
            let mut map = self.compiled.lock().unwrap();
            self.bound_memo(&mut map, &key, Self::COMPILE_MEMO_CAP);
            Arc::clone(map.entry(key).or_default())
        };
        cell.get_or_init(|| {
            let spec = self
                .suite
                .iter()
                .find(|s| s.name == job.benchmark)
                .unwrap_or_else(|| panic!("unknown benchmark `{}`", job.benchmark));
            let mut opts = if job.ifconv {
                CompileOptions::with_ifconv()
            } else {
                CompileOptions::no_ifconv()
            };
            opts.profile_steps = job.profile_steps;
            if let Some(t) = job.ifconv_threshold {
                opts.ifconvert.misp_threshold = t;
            }
            Arc::new(compile(spec, &opts).expect("suite benchmarks compile"))
        })
        .clone()
    }

    /// Returns the shared capture a job replays (see [`TraceKey::of`]),
    /// capturing it on first use. Yields `(trace, capture_micros,
    /// memo_hit)`: `capture_micros` is nonzero only for the worker that
    /// performed the capture.
    fn trace_for(&self, job: &Job, compiled: &Compiled) -> (Arc<TraceBuffer>, u64, bool) {
        let key = TraceKey::of(job);
        let steps = key.steps;
        let cell = {
            let mut map = self.traces.lock().unwrap();
            self.bound_memo(&mut map, &key, Self::TRACE_MEMO_CAP);
            Arc::clone(map.entry(key).or_default())
        };
        let mut capture_micros = 0u64;
        let mut fresh = false;
        let trace = cell
            .get_or_init(|| {
                fresh = true;
                let started = Instant::now();
                let buf = TraceBuffer::capture(&compiled.program, steps)
                    .unwrap_or_else(|e| panic!("functional machine died: {e}"));
                capture_micros = started.elapsed().as_micros() as u64;
                Arc::new(buf)
            })
            .clone();
        (trace, capture_micros, !fresh)
    }

    /// The simulator options a job's cell axes translate to.
    fn sim_options_for(job: &Job) -> SimOptions {
        let mut opts = SimOptions::new(job.scheme, job.predication)
            .core(job.core)
            .shadow(job.shadow);
        if let Some(p) = job.perceptron {
            opts = opts.perceptron(p);
        }
        if let Some(p) = job.predicate {
            opts = opts.predicate(p);
        }
        opts
    }

    /// Simulates one cache-missing cell: gets its stream — a registered
    /// external trace, or the compile+capture memo — then replays it,
    /// whole or through the cell's sample window. Every phase is measured
    /// on this cell alone, so `compile + capture + sim <= wall`.
    fn execute(&self, job: &Job) -> JobResult {
        let started = Instant::now();
        let (trace, compile_micros, capture_micros, trace_memo_hit) = match job.trace {
            Some(id) => (self.ext_trace(id), 0, 0, false),
            None => {
                let compiled = self.compiled_for(job);
                let compile_micros = started.elapsed().as_micros() as u64;
                let (trace, capture_micros, memo_hit) = self.trace_for(job, &compiled);
                (trace, compile_micros, capture_micros, memo_hit)
            }
        };
        let static_insns = trace.code().len() as u64;
        let static_cond_branches =
            trace.code().iter().filter(|i| i.is_cond_branch()).count() as u64;

        let cursor = match job.sample {
            Some(slice) => TraceCursor::window(
                trace,
                slice.spec.window_start(slice.index),
                slice.spec.warmup + slice.spec.measure,
            ),
            None => TraceCursor::new(trace),
        };
        let mut sim = Self::sim_options_for(job)
            .build_source(cursor)
            .expect("grid jobs carry only applicable overrides");
        let sim_started = Instant::now();
        let run = match job.sample {
            Some(slice) => sim.run_sample(slice.spec.warmup, slice.spec.measure),
            None => sim.run(job.commits),
        };
        let sim_micros = sim_started.elapsed().as_micros() as u64;

        JobResult {
            stats: run.stats,
            static_insns,
            static_cond_branches,
            from_cache: false,
            wall_micros: started.elapsed().as_micros() as u64,
            compile_micros,
            capture_micros,
            sim_micros,
            trace_memo_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim_pipeline::{CoreConfig, PredicationModel, SchemeKind};

    fn tiny(scheme: SchemeKind) -> Job {
        Job::new(
            "gzip",
            false,
            scheme,
            PredicationModel::Cmov,
            5_000,
            20_000,
            CoreConfig::paper(),
        )
    }

    #[test]
    fn serial_runner_produces_nonempty_stats() {
        let r = Runner::serial_no_cache();
        let out = r.run_job(&tiny(SchemeKind::Conventional));
        assert!(out.stats.committed >= 5_000);
        assert!(out.stats.cond_branches > 0);
        assert!(out.static_insns > 0);
        assert!(out.static_cond_branches > 0);
        assert!(!out.from_cache);
    }

    #[test]
    fn compile_memo_shares_across_jobs() {
        let r = Runner::serial_no_cache();
        let grid = vec![tiny(SchemeKind::Conventional), tiny(SchemeKind::Predicate)];
        let out = r.run_grid(&grid);
        assert_eq!(out.len(), 2);
        // Same binary → same static counts.
        assert_eq!(out[0].static_insns, out[1].static_insns);
        assert_eq!(
            r.compiled.lock().unwrap().len(),
            1,
            "one compile for two jobs"
        );
    }

    #[test]
    fn telemetry_counts_runs() {
        let r = Runner::serial_no_cache();
        r.run_grid(&[tiny(SchemeKind::Conventional)]);
        let t = r.telemetry();
        assert_eq!(t.jobs_total, 1);
        assert_eq!(t.jobs_run, 1);
        assert_eq!(t.cache_hits, 0);
        assert_eq!(t.per_job.len(), 1);
        assert_eq!(t.per_job[0].label, "gzip/conventional");
        assert!(
            t.per_job[0].wall_micros >= t.per_job[0].sim_micros,
            "phases nest inside the total"
        );
    }

    /// Compiles `gzip` exactly as the runner does for [`tiny`] jobs.
    fn gzip_program() -> ppsim_isa::Program {
        let suite = spec2000_suite();
        let spec = suite.iter().find(|s| s.name == "gzip").unwrap();
        let mut opts = CompileOptions::no_ifconv();
        opts.profile_steps = 20_000;
        compile(spec, &opts).unwrap().program
    }

    #[test]
    fn replay_matches_inline_bit_for_bit() {
        let r = Runner::serial_no_cache();
        let program = gzip_program();
        for scheme in [SchemeKind::Conventional, SchemeKind::Predicate] {
            let j = tiny(scheme);
            let replayed = r.run_job(&j);
            let inline = Runner::sim_options_for(&j)
                .build_source(ppsim_isa::Machine::new(&program))
                .unwrap()
                .run(j.commits);
            assert_eq!(
                replayed.stats, inline.stats,
                "trace replay must be invisible to statistics ({scheme:?})"
            );
        }
    }

    #[test]
    fn per_cell_phases_nest_inside_each_cells_wall_time() {
        // Three cells share one stream: the first compiles and captures,
        // the others replay the memoized capture. Each cell's phases are
        // measured on that cell alone, so they fit inside its own wall.
        let r = Runner::serial_no_cache();
        let grid = vec![
            tiny(SchemeKind::Conventional),
            tiny(SchemeKind::PepPa),
            tiny(SchemeKind::Predicate),
            tiny(SchemeKind::Tage),
        ];
        let out = r.run_grid(&grid);
        for (res, job) in out.iter().zip(&grid) {
            assert!(!res.from_cache);
            assert!(res.sim_micros > 0, "{}: replay time measured", job.label());
            assert!(
                res.compile_micros + res.capture_micros + res.sim_micros <= res.wall_micros,
                "{}: compile {} + capture {} + sim {} > wall {}",
                job.label(),
                res.compile_micros,
                res.capture_micros,
                res.sim_micros,
                res.wall_micros
            );
        }
        assert!(out[0].capture_micros > 0, "the first cell captures");
    }

    #[test]
    fn trace_memo_shares_one_capture_across_cells() {
        let r = Runner::serial_no_cache();
        let grid = vec![
            tiny(SchemeKind::Conventional),
            tiny(SchemeKind::Predicate),
            tiny(SchemeKind::PepPa),
        ];
        let out = r.run_grid(&grid);
        assert_eq!(
            r.traces.lock().unwrap().len(),
            1,
            "one capture, three cells"
        );
        let t = r.telemetry();
        assert_eq!(t.captures, 1);
        assert_eq!(t.trace_memo_hits, 2);
        assert!((t.trace_memo_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            out.iter().filter(|o| o.trace_memo_hit).count(),
            2,
            "exactly the two replaying cells report a memo hit"
        );
        assert_eq!(
            out.iter().filter(|o| o.capture_micros > 0).count(),
            1,
            "only the capturing cell is charged capture time"
        );
    }

    #[test]
    fn distinct_budgets_capture_separately() {
        let r = Runner::serial_no_cache();
        let long = Job {
            commits: 6_000,
            ..tiny(SchemeKind::Conventional)
        };
        r.run_grid(&[tiny(SchemeKind::Conventional), long]);
        assert_eq!(
            r.traces.lock().unwrap().len(),
            2,
            "a longer budget needs its own (longer) capture"
        );
        assert_eq!(r.compiled.lock().unwrap().len(), 1, "but shares the binary");
    }

    #[test]
    fn sampled_grid_shares_one_capture_and_merges_windows() {
        let spec = SampleSpec {
            skip: 1_000,
            warmup: 500,
            measure: 1_000,
            stride: 2_000,
            count: 3,
        };
        let r = Runner::serial_no_cache();
        let base = tiny(SchemeKind::Conventional);
        let out = r.run_grid_sampled(std::slice::from_ref(&base), spec);
        assert_eq!(out.len(), 1);
        let cell = &out[0];
        assert_eq!(cell.samples.len(), 3);
        for s in &cell.samples {
            assert_eq!(s.stats.committed, spec.measure, "one measured window");
            assert_eq!(s.stats.stall.total(), s.stats.cycles);
        }
        assert_eq!(cell.aggregate.stats.committed, 3 * spec.measure);
        assert_eq!(
            cell.aggregate.stats.stall.total(),
            cell.aggregate.stats.cycles,
            "the invariant survives aggregation"
        );
        assert_eq!(
            r.traces.lock().unwrap().len(),
            1,
            "three windows share one span capture"
        );
    }

    #[test]
    fn sampled_windows_match_inline_fast_forward() {
        let spec = SampleSpec {
            skip: 1_500,
            warmup: 400,
            measure: 800,
            stride: 1_500,
            count: 2,
        };
        let r = Runner::serial_no_cache();
        let program = gzip_program();
        for scheme in [SchemeKind::Conventional, SchemeKind::Predicate] {
            let j = tiny(scheme);
            let replayed = r.run_job_sampled(&j, spec);
            for (index, window) in replayed.samples.iter().enumerate() {
                let mut machine = ppsim_isa::Machine::new(&program);
                machine.run(spec.window_start(index as u32)).unwrap();
                let inline = Runner::sim_options_for(&j)
                    .build_source(machine)
                    .unwrap()
                    .run_sample(spec.warmup, spec.measure);
                assert_eq!(
                    window.stats, inline.stats,
                    "{scheme:?} window {index}: trace window and inline fast-forward must agree"
                );
            }
        }
    }

    #[test]
    fn misses_run_grouped_by_stream_in_first_appearance_order() {
        let r = Runner::serial_no_cache();
        let id = r.register_trace(gzip_trace(2_000), false);
        let long = Job {
            commits: 6_000,
            ..tiny(SchemeKind::Conventional)
        };
        let traced = Job {
            trace: Some(id),
            ..tiny(SchemeKind::Conventional)
        };
        let grid = vec![
            tiny(SchemeKind::Conventional),
            long.clone(),
            traced.clone(),
            tiny(SchemeKind::Predicate),
            traced,
            long,
        ];
        let mut slots = vec![None; grid.len()];
        assert_eq!(Runner::stream_order(&grid, &slots), vec![0, 3, 1, 5, 2, 4]);
        // Cache hits are not scheduled at all.
        slots[0] = Some(r.run_job(&grid[0]));
        assert_eq!(Runner::stream_order(&grid, &slots), vec![1, 5, 2, 4, 3]);
    }

    #[test]
    fn options_parse_runner_flags() {
        let args: Vec<String> = [
            "--json",
            "out.json",
            "--jobs",
            "4",
            "--no-cache",
            "--cache-dir",
            "/tmp/c",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (opts, rest) = RunnerOptions::from_args(&args).unwrap();
        assert_eq!(opts.jobs, 4);
        assert!(!opts.cache);
        assert_eq!(
            opts.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
        assert_eq!(rest, vec!["--json".to_string(), "out.json".to_string()]);
    }

    #[test]
    fn bad_jobs_value_is_an_error() {
        let args = vec!["--jobs".to_string(), "many".to_string()];
        assert!(RunnerOptions::from_args(&args).is_err());
    }

    #[test]
    fn zero_jobs_flag_is_an_error() {
        let args = vec!["--jobs".to_string(), "0".to_string()];
        let err = RunnerOptions::from_args(&args).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        // The programmatic default (0 = one worker per CPU) stays legal.
        assert!(RunnerOptions::default().validate().is_ok());
    }

    #[test]
    fn nonsensical_options_are_rejected() {
        let absurd = RunnerOptions {
            jobs: MAX_JOBS + 1,
            ..RunnerOptions::default()
        };
        assert!(absurd.validate().is_err());
        let empty_dir = RunnerOptions {
            cache_dir: Some(PathBuf::new()),
            ..RunnerOptions::default()
        };
        assert!(empty_dir.validate().is_err());
        let capped_no_cache = RunnerOptions {
            cache: false,
            cache_max_bytes: Some(1 << 20),
            ..RunnerOptions::default()
        };
        assert!(capped_no_cache.validate().is_err());
        let args = vec!["--jobs".to_string(), (MAX_JOBS + 1).to_string()];
        assert!(RunnerOptions::from_args(&args).is_err());
    }

    #[test]
    fn cache_max_bytes_flag_parses() {
        let args: Vec<String> = ["--cache-max-bytes", "1048576"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (opts, rest) = RunnerOptions::from_args(&args).unwrap();
        assert_eq!(opts.cache_max_bytes, Some(1 << 20));
        assert!(rest.is_empty());
    }

    #[test]
    fn probe_misses_cold_and_hits_warm() {
        let dir = std::env::temp_dir().join(format!("ppsim-probe-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = Runner::new(RunnerOptions {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..RunnerOptions::default()
        });
        let job = tiny(SchemeKind::Conventional);
        assert!(r.probe(&job).is_none(), "cold cache must miss");
        let fresh = r.run_job(&job);
        let hit = r.probe(&job).expect("warm cache must hit");
        assert!(hit.from_cache);
        assert_eq!(hit.stats, fresh.stats, "probe replays the stored stats");
        // Probing never counts as a runner job.
        assert_eq!(r.telemetry().jobs_total, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cacheless_runner_never_probes() {
        let r = Runner::serial_no_cache();
        assert!(r.cache().is_none());
        assert!(r.probe(&tiny(SchemeKind::Conventional)).is_none());
    }

    /// Captures `steps` records of [`gzip_program`]'s stream.
    fn gzip_trace(steps: u64) -> Arc<TraceBuffer> {
        Arc::new(TraceBuffer::capture(&gzip_program(), steps).unwrap())
    }

    #[test]
    fn registered_trace_replays_like_the_benchmark() {
        let r = Runner::serial_no_cache();
        let id = r.register_trace(gzip_trace(5_000), false);
        for scheme in [SchemeKind::Conventional, SchemeKind::Predicate] {
            let bench = tiny(scheme);
            let traced = Job {
                trace: Some(id),
                ..bench.clone()
            };
            let a = r.run_job(&traced);
            let b = r.run_job(&bench);
            assert_eq!(
                a.stats, b.stats,
                "an exported/registered stream must be indistinguishable \
                 from the in-process capture ({scheme:?})"
            );
            assert_eq!(a.static_insns, b.static_insns);
            assert_eq!(a.static_cond_branches, b.static_cond_branches);
        }
    }

    #[test]
    fn registering_the_same_stream_twice_is_idempotent() {
        let r = Runner::serial_no_cache();
        let a = r.register_trace(gzip_trace(2_000), false);
        let b = r.register_trace(gzip_trace(2_000), false);
        assert_eq!(a, b, "content-addressed identity");
        assert_eq!(r.ext_traces.lock().unwrap().len(), 1);
    }

    #[test]
    fn trace_cells_hit_the_disk_cache() {
        let dir = std::env::temp_dir().join(format!("ppsim-trace-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunnerOptions {
            jobs: 1,
            cache_dir: Some(dir.clone()),
            ..RunnerOptions::default()
        };
        let cold = Runner::new(opts.clone());
        let id = cold.register_trace(gzip_trace(2_000), false);
        let job = Job {
            trace: Some(id),
            commits: 2_000,
            ..tiny(SchemeKind::Predicate)
        };
        let fresh = cold.run_job(&job);
        assert!(!fresh.from_cache);
        // A new runner (same cache dir) serves the cell without needing
        // the trace registered at all — the cache carries the stats.
        let warm = Runner::new(opts);
        let hit = warm.run_job(&job);
        assert!(hit.from_cache, "trace cells are cached by content hash");
        assert_eq!(hit.stats, fresh.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampled_trace_windows_match_sampled_benchmark() {
        let spec = SampleSpec {
            skip: 1_000,
            warmup: 500,
            measure: 1_000,
            stride: 2_000,
            count: 2,
        };
        let r = Runner::serial_no_cache();
        // The benchmark path captures the schedule's span; hand the
        // runner an identical external capture.
        let id = r.register_trace(gzip_trace(spec.span()), false);
        let bench = tiny(SchemeKind::Predicate);
        let traced = Job {
            trace: Some(id),
            ..bench.clone()
        };
        let a = r.run_job_sampled(&traced, spec);
        let b = r.run_job_sampled(&bench, spec);
        assert_eq!(a.aggregate.stats, b.aggregate.stats);
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.stats, y.stats, "per-window agreement");
        }
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_trace_panics_with_a_clear_message() {
        let r = Runner::serial_no_cache();
        let job = Job {
            trace: Some(TraceId {
                content: 0x1234,
                branches_only: false,
            }),
            ..tiny(SchemeKind::Conventional)
        };
        r.run_job(&job);
    }

    #[test]
    fn trace_memo_cap_flushes_and_counts() {
        let r = Runner::serial_no_cache();
        // Distinct commit budgets force distinct trace-memo keys.
        let jobs: Vec<Job> = (0..=Runner::TRACE_MEMO_CAP as u64)
            .map(|n| Job {
                commits: 1_000 + n,
                ..tiny(SchemeKind::Conventional)
            })
            .collect();
        r.run_grid(&jobs);
        let t = r.telemetry();
        assert_eq!(
            t.memo_evictions,
            Runner::TRACE_MEMO_CAP as u64,
            "overflow flushed the full memo once"
        );
        assert!(
            r.traces.lock().unwrap().len() <= Runner::TRACE_MEMO_CAP,
            "memo stays bounded"
        );
    }
}
