//! End-to-end bit-identity of the trace-replay engine (the acceptance
//! criterion of the capture-once/replay-many subsystem). The runner only
//! ever replays captured streams; the inline functional machine is the
//! reference it is held to:
//!
//! 1. **Report identity** — a full suite sweep through the runner emits
//!    byte-identical `full_report_json` to the same report rendered from
//!    inline-machine results of every cell.
//! 2. **Cell identity** — every `SchemeKind` × `PredicationModel` cell
//!    (with the shadow predictor attached) produces equal statistics
//!    replayed and inline, on both compile modes.
//! 3. **Telemetry** — the runner reports shared captures: far fewer
//!    captures than jobs, with the memo hit rate accounting for the rest.

use std::collections::HashMap;

use ppsim::compiler::{compile, spec2000_suite, CompileOptions};
use ppsim::core::experiments::{self, PlanSpec};
use ppsim::core::{DiskCache, ExperimentConfig, Job, JobResult, Runner, RunnerOptions};
use ppsim::isa::{Machine, Program};
use ppsim::pipeline::{CoreConfig, PredicationModel, SchemeKind, SimOptions};

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig {
        commits: 20_000,
        profile_steps: 50_000,
        only: vec!["gzip".into(), "twolf".into()],
        ..ExperimentConfig::default()
    }
}

fn runner(cache_dir: Option<std::path::PathBuf>) -> Runner {
    Runner::new(RunnerOptions {
        jobs: 4,
        cache: cache_dir.is_some(),
        cache_dir,
        ..RunnerOptions::default()
    })
}

/// The reference: every job simulated through the inline functional
/// machine, each binary compiled exactly as the runner compiles it.
fn inline_results(jobs: &[Job]) -> Vec<JobResult> {
    let suite = spec2000_suite();
    let mut programs: HashMap<(String, bool), Program> = HashMap::new();
    jobs.iter()
        .map(|job| {
            assert!(job.ifconv_threshold.is_none() && job.sample.is_none() && job.trace.is_none());
            let program = programs
                .entry((job.benchmark.clone(), job.ifconv))
                .or_insert_with(|| {
                    let spec = suite.iter().find(|s| s.name == job.benchmark).unwrap();
                    let mut opts = if job.ifconv {
                        CompileOptions::with_ifconv()
                    } else {
                        CompileOptions::no_ifconv()
                    };
                    opts.profile_steps = job.profile_steps;
                    compile(spec, &opts).unwrap().program
                });
            let mut opts = SimOptions::new(job.scheme, job.predication)
                .core(job.core)
                .shadow(job.shadow);
            if let Some(p) = job.perceptron {
                opts = opts.perceptron(p);
            }
            if let Some(p) = job.predicate {
                opts = opts.predicate(p);
            }
            let run = opts
                .build_source(Machine::new(program))
                .unwrap()
                .run(job.commits);
            JobResult {
                stats: run.stats,
                static_insns: program.count_insns(|_| true) as u64,
                static_cond_branches: program.count_insns(|i| i.is_cond_branch()) as u64,
                from_cache: false,
                wall_micros: 0,
                compile_micros: 0,
                capture_micros: 0,
                sim_micros: 0,
                trace_memo_hit: false,
            }
        })
        .collect()
}

#[test]
fn full_report_is_byte_identical_under_replay() {
    let cfg = tiny_cfg();
    let replayed = runner(None);
    let a = experiments::full_report_json(&replayed, &cfg).to_string();
    assert!(!a.is_empty());
    assert!(
        replayed.telemetry().captures > 0,
        "the runner actually captured traces"
    );

    // Render the same report from inline results: store every cell's
    // inline outcome under its cache key, then let a runner over that
    // cache assemble the report without simulating anything.
    let dir = std::env::temp_dir().join(format!("ppsim-trace-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = DiskCache::open(&dir).unwrap();
    let jobs = experiments::plan(&cfg, PlanSpec::FullReport);
    for (job, result) in jobs.iter().zip(inline_results(&jobs)) {
        cache.store(job, &result).unwrap();
    }
    let inline = runner(Some(dir.clone()));
    let b = experiments::full_report_json(&inline, &cfg).to_string();
    assert_eq!(
        inline.telemetry().jobs_run,
        0,
        "the inline report comes from the stored inline results alone"
    );
    assert_eq!(a, b, "replay must never change report bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_cell_matches_inline_statistics() {
    for ifconv in [false, true] {
        let jobs: Vec<Job> = SchemeKind::ALL
            .into_iter()
            .flat_map(|scheme| {
                [PredicationModel::Cmov, PredicationModel::Selective]
                    .into_iter()
                    .map(move |predication| {
                        let mut j = Job::new(
                            "vpr",
                            ifconv,
                            scheme,
                            predication,
                            10_000,
                            50_000,
                            CoreConfig::paper(),
                        );
                        j.shadow = true;
                        j
                    })
            })
            .collect();
        let a = runner(None).run_grid(&jobs);
        let b = inline_results(&jobs);
        for ((ra, rb), job) in a.iter().zip(&b).zip(&jobs) {
            assert_eq!(
                ra.stats,
                rb.stats,
                "cell {} (ifconv={ifconv}) diverged under replay",
                job.label()
            );
            assert_eq!(ra.static_insns, rb.static_insns, "{}", job.label());
            assert_eq!(
                ra.static_cond_branches,
                rb.static_cond_branches,
                "{}",
                job.label()
            );
        }
    }
}

#[test]
fn replay_telemetry_reports_shared_captures() {
    let cfg = tiny_cfg();
    let r = runner(None);
    experiments::full_report_json(&r, &cfg);
    let t = r.telemetry();
    // Two benchmarks, two compile modes, one commit budget → a handful of
    // distinct captures serve the whole sweep.
    assert!(t.captures > 0);
    assert!(
        t.captures < t.jobs_run,
        "captures ({}) must be shared across the {} simulated jobs",
        t.captures,
        t.jobs_run
    );
    assert_eq!(
        t.captures + t.trace_memo_hits,
        t.jobs_run,
        "every simulated job either captured or hit the trace memo"
    );
    assert!(t.trace_memo_hit_rate() > 0.5);
    let json = t.to_json().to_string();
    for key in ["captures", "trace_memo_hits", "trace_memo_hit_rate"] {
        assert!(json.contains(key), "telemetry JSON missing {key}");
    }
}
