//! `ppsim` — command-line front end for the simulator.
//!
//! ```text
//! ppsim run <file.s> [--scheme S] [--commits N] [--trace-events N] [--tiny]
//! ppsim compile <benchmark> [--ifconv] [--listing]
//! ppsim bench [benchmark] [--only a,b] [--commits N] [--json P] [--repeat N] [--phases] [--sample [SPEC]] [--trace FILE]
//! ppsim suite [--jobs N] [--no-cache] [--cache-dir P] [--json P] [--commits N] [--only a,b] [--sample [SPEC]]
//! ppsim check [--seed S] [--iters N] [--fault F] [--dump DIR] [--jobs N] [--no-cache] [--sample-epsilon E] [--replay FILE.pisa]
//! ppsim trace export <benchmark> <out.pptrace> [--commits N] [--ifconv] [--note S]
//! ppsim trace import <file> [--commits N] [--top N] [--name S] [--json P] [--jobs N] [--no-cache] [--cache-dir P]
//! ppsim trace info <file.pptrace>
//! ppsim serve [--addr A] [--jobs N] [--max-clients N] [--cache-dir P] [--cache-max-bytes B]
//! ppsim submit [request.json|-] [--addr A] [--raw PATH] [--quiet]
//! ppsim cache stats|clear [--cache-dir P]
//! ppsim list
//! ```
//!
//! `run` executes a hand-written assembly file (the syntax printed by the
//! disassembler; see `ppsim::isa::parse_program`), `compile` builds one of
//! the 22 synthetic benchmarks and prints its listing or statistics,
//! `bench` measures the simulator's own throughput — every fig-6a cell
//! timed through both the inline machine and the trace-replay engine,
//! with the artifact written to `BENCH_sim.json`; `--repeat N` reports
//! the median and minimum of N timed repetitions, and `--phases` adds a
//! profiled pass attributing `process()` time to pipeline phases (or,
//! with `--sample`,
//! every cell run full-length *and* through the Pinpoint-style sampled
//! path, reporting misprediction error and wall-clock speedup; with
//! `--trace FILE`, repeat-replay identity over an imported stream) —
//! `suite` regenerates the paper's full evaluation through the parallel
//! runner (with `--sample`, through checkpointed sample windows),
//! `check` fuzzes the timing model against the architectural emulator
//! (the differential cosimulation oracle; `--sample-epsilon` adds the
//! sampled-simulation invariants, `--replay` re-runs one dumped repro
//! instead of fuzzing), `trace` moves workloads across the process
//! boundary (`export` captures a benchmark to a versioned `.pptrace`
//! file, `import` simulates a `.pptrace` or CBP-style `<ip> <taken>`
//! branch log and reports MPKI and top-N hard-to-predict branches,
//! `info` prints a file's header without decoding the body), `serve`
//! runs the persistent experiment daemon (shared warm state, request
//! dedup, streaming progress over NDJSON), `submit` is its scriptable
//! client (reads request lines from a file or stdin), `cache` inspects
//! or clears the on-disk result cache, and `list` prints the benchmark
//! suite. `SPEC` is `skip:warmup:measure:stride:count`; a bare
//! `--sample` uses the default schedule.
//!
//! Every subcommand rejects flags it does not understand, and
//! `--help`/`-h` prints usage and exits 0 before any work happens.

use std::process::ExitCode;

use ppsim::check::{replay_repro, run_check, CheckOptions};
use ppsim::compiler::{compile, CompileOptions};
use ppsim::core::{
    experiments, simbench, trace_report, DiskCache, ExperimentConfig, Json, Runner, RunnerOptions,
    SampleSpec, Table, TraceWorkload,
};
use ppsim::isa::{parse_program, Program, TraceBuffer};
use ppsim::pipeline::TestFault;
use ppsim::prelude::*;
use ppsim::serve::{install_sigint_handler, submit, ServeOptions, Server, SubmitOptions};

const FAULTS: &str = "invert-oracle|invert-early-resolve";

/// `a|b|c` listing of every registered scheme, derived from
/// [`SchemeSpec::ALL`] so the usage text can never lag the registry.
fn schemes_help() -> String {
    SchemeSpec::ALL
        .iter()
        .map(|s| s.name())
        .collect::<Vec<_>>()
        .join("|")
}

fn usage_text() -> String {
    let schemes = schemes_help();
    format!(
        "usage:\n  ppsim run <file.s> [--scheme {schemes}] [--commits N] [--trace-events N] [--tiny]\n  ppsim compile <benchmark> [--ifconv] [--listing]\n  ppsim bench [benchmark] [--only a,b] [--commits N] [--json PATH] [--repeat N] [--phases] [--sample [SPEC]] [--trace FILE]\n  ppsim suite [--jobs N] [--no-cache] [--cache-dir PATH] [--json PATH] [--commits N] [--only a,b] [--sample [SPEC]]\n  ppsim check [--seed S] [--iters N] [--fault {FAULTS}] [--dump DIR] [--jobs N] [--no-cache] [--cache-dir PATH] [--sample-epsilon E] [--replay FILE.pisa]\n  ppsim trace export <benchmark> <out.pptrace> [--commits N] [--ifconv] [--note S]\n  ppsim trace import <file> [--commits N] [--top N] [--name S] [--json PATH] [--jobs N] [--no-cache] [--cache-dir PATH]\n  ppsim trace info <file.pptrace>\n  ppsim serve [--addr A] [--jobs N] [--max-clients N] [--cache-dir PATH] [--cache-max-bytes B]\n  ppsim submit [request.json|-] [--addr A] [--raw PATH] [--quiet]\n  ppsim cache stats|clear [--cache-dir PATH]\n  ppsim list\n(SPEC = skip:warmup:measure:stride:count; bare --sample = {}; trace import\n accepts .pptrace files and CBP-style `<ip> <taken>` branch logs)",
        SampleSpec::default_spec().canon()
    )
}

fn usage() -> ExitCode {
    eprintln!("{}", usage_text());
    ExitCode::FAILURE
}

/// `--help` path: usage on **stdout**, exit 0, no work performed.
fn help() -> ExitCode {
    println!("{}", usage_text());
    ExitCode::SUCCESS
}

/// How many arguments a flag consumes beyond itself.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Arity {
    /// A bare switch.
    Switch,
    /// Requires a value.
    Value,
    /// Takes a value when the next argument isn't a flag (`--sample`).
    OptionalValue,
}

/// The runner flags `RunnerOptions::from_args` consumes, for the
/// whitelists of subcommands that delegate to it.
const RUNNER_FLAGS: &[(&str, Arity)] = &[
    ("--jobs", Arity::Value),
    ("-j", Arity::Value),
    ("--no-cache", Arity::Switch),
    ("--cache-dir", Arity::Value),
    ("--cache-max-bytes", Arity::Value),
];

/// Strict argument validation: every flag must appear in `spec`, and at
/// most `max_positionals` non-flag arguments are accepted. Runs before
/// any subcommand does work, so a typo'd flag can never silently start
/// a 200-program fuzz sweep.
fn reject_unknown(
    cmd: &str,
    args: &[String],
    spec: &[(&str, Arity)],
    max_positionals: usize,
) -> Result<(), String> {
    let mut positionals = 0usize;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with('-') && a != "-" {
            match spec.iter().find(|(name, _)| *name == a) {
                None => return Err(format!("unknown flag `{a}` (see `ppsim {cmd} --help`)")),
                Some((_, Arity::Switch)) => {}
                Some((_, Arity::Value)) => {
                    if i + 1 >= args.len() || args[i + 1].starts_with("--") {
                        return Err(format!("flag `{a}` needs a value"));
                    }
                    i += 1;
                }
                Some((_, Arity::OptionalValue)) => {
                    if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                        i += 1;
                    }
                }
            }
        } else {
            positionals += 1;
            if positionals > max_positionals {
                return Err(format!(
                    "unexpected argument `{a}` (see `ppsim {cmd} --help`)"
                ));
            }
        }
        i += 1;
    }
    Ok(())
}

struct Flags {
    args: Vec<String>,
}

impl Flags {
    fn value_of(&self, flag: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }
}

fn simulate(program: &Program, scheme: SchemeSpec, commits: u64, trace_events: usize, tiny: bool) {
    let core = if tiny {
        CoreConfig::tiny()
    } else {
        CoreConfig::paper()
    };
    let mut sim = SimOptions::new(scheme, PredicationModel::Selective)
        .core(core)
        .trace_events(trace_events)
        .build_source(ppsim::isa::Machine::new(program))
        .expect("no overrides supplied");
    let r = sim.run(commits);
    let s = &r.stats;
    if let Some(ring) = sim.events() {
        if ring.dropped() > 0 {
            println!("... {} earlier events dropped ...", ring.dropped());
        }
        for e in ring.events() {
            println!("{e}");
        }
    }
    println!(
        "{}: {} committed in {} cycles (IPC {:.3}){}",
        scheme.name(),
        s.committed,
        s.cycles,
        s.ipc(),
        if r.halted { ", halted" } else { "" }
    );
    println!(
        "  branches: {} conditional, {} mispredicted ({:.2}%), {:.2}% early-resolved",
        s.cond_branches,
        s.mispredicts,
        s.misprediction_rate() * 100.0,
        s.early_resolved_rate() * 100.0
    );
    println!(
        "  predication: {} nullified, {} cancelled, {} unguarded, {} flushes",
        s.nullified, s.cancelled_at_rename, s.unguarded_at_rename, s.predication_flushes
    );
    println!(
        "  memory: L1D {:.1}% miss, L2 {:.1}% miss, {} ITLB misses",
        s.mem.l1d.miss_ratio() * 100.0,
        s.mem.l2.miss_ratio() * 100.0,
        s.mem.itlb.1
    );
    let total = s.stall.total().max(1) as f64;
    println!(
        "  stalls: {}",
        StallBucket::ALL
            .iter()
            .map(|&b| format!("{} {:.1}%", b.name(), s.stall.get(b) as f64 / total * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

/// Parses `--sample [SPEC]`: absent → `None`, bare or `default` → the
/// default schedule, otherwise `skip:warmup:measure:stride:count`.
fn sample_flag(flags: &Flags) -> Result<Option<SampleSpec>, String> {
    if !flags.has("--sample") {
        return Ok(None);
    }
    match flags.value_of("--sample").filter(|v| !v.starts_with("--")) {
        None | Some("default") => Ok(Some(SampleSpec::default_spec())),
        Some(v) => SampleSpec::parse(v).map(Some).map_err(|e| e.to_string()),
    }
}

fn find_benchmark(name: &str) -> Option<ppsim::compiler::WorkloadSpec> {
    ppsim::compiler::spec2000_suite()
        .into_iter()
        .find(|s| s.name == name)
}

/// Loads an external trace file, auto-detecting the format: files that
/// open with the `.pptrace` magic decode through the versioned codec;
/// anything else is treated as a CBP-style `<ip> <taken>` branch log.
/// Returns the workload and the CBP import summary when applicable.
fn load_trace_workload(
    path: &str,
    name_override: Option<&str>,
) -> Result<(TraceWorkload, Option<ppsim::isa::CbpSummary>), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if bytes.starts_with(&ppsim::isa::pptrace::MAGIC) {
        let mut w =
            TraceWorkload::from_pptrace_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
        if let Some(name) = name_override {
            w.name = name.to_string();
        }
        return Ok((w, None));
    }
    let text = String::from_utf8(bytes)
        .map_err(|_| format!("{path}: neither a .pptrace file nor UTF-8 CBP text"))?;
    let name = name_override.map(str::to_string).unwrap_or_else(|| {
        std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "import".to_string())
    });
    let (w, summary) =
        TraceWorkload::from_cbp_text(name, &text).map_err(|e| format!("{path}: {e}"))?;
    Ok((w, Some(summary)))
}

/// `ppsim trace export|import|info` — moving workloads across the
/// process boundary through the versioned `.pptrace` format.
fn trace_cmd(flags: &Flags, commits: u64) -> ExitCode {
    let verb = flags
        .args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str);
    let rest = Flags {
        args: flags.args.iter().skip(1).cloned().collect(),
    };
    match verb {
        Some("export") => {
            if let Err(e) = reject_unknown(
                "trace",
                &rest.args,
                &[
                    ("--commits", Arity::Value),
                    ("--ifconv", Arity::Switch),
                    ("--note", Arity::Value),
                ],
                2,
            ) {
                eprintln!("trace export: {e}");
                return usage();
            }
            // Skip over flag values when collecting positionals: the two
            // remaining non-flag tokens are <benchmark> <out.pptrace>.
            let mut pos = Vec::new();
            let mut i = 0;
            while i < rest.args.len() {
                let a = rest.args[i].as_str();
                if a == "--commits" || a == "--note" {
                    i += 2;
                    continue;
                }
                if !a.starts_with("--") {
                    pos.push(a);
                }
                i += 1;
            }
            let (Some(name), Some(out)) = (pos.first().copied(), pos.get(1).copied()) else {
                eprintln!("trace export: expected <benchmark> <out.pptrace>");
                return usage();
            };
            let Some(spec) = find_benchmark(name) else {
                eprintln!("trace export: unknown benchmark `{name}` (try `ppsim list`)");
                return ExitCode::FAILURE;
            };
            let opts = if rest.has("--ifconv") {
                CompileOptions::with_ifconv()
            } else {
                CompileOptions::no_ifconv()
            };
            let compiled = compile(&spec, &opts).expect("suite benchmarks compile");
            let buf = match TraceBuffer::capture(&compiled.program, commits) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("trace export: capture failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let note = rest.value_of("--note").unwrap_or("").to_string();
            let w = TraceWorkload::from_capture(name, note, buf);
            let bytes = w.export_bytes();
            if let Err(e) = std::fs::write(out, &bytes) {
                eprintln!("trace export: failed to write {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "trace export: wrote {out} ({} records, {} bytes)",
                w.records(),
                bytes.len()
            );
            ExitCode::SUCCESS
        }
        Some("import") => {
            let (ropts, runner_rest) = match RunnerOptions::from_args(&rest.args) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("trace import: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let rest = Flags { args: runner_rest };
            if let Err(e) = reject_unknown(
                "trace",
                &rest.args,
                &[
                    ("--commits", Arity::Value),
                    ("--top", Arity::Value),
                    ("--name", Arity::Value),
                    ("--json", Arity::Value),
                ],
                1,
            ) {
                eprintln!("trace import: {e}");
                return usage();
            }
            let Some(path) = rest.args.first().filter(|a| !a.starts_with("--")) else {
                eprintln!("trace import: expected a trace file");
                return usage();
            };
            let (w, summary) = match load_trace_workload(path, rest.value_of("--name")) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("trace import: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(s) = &summary {
                eprintln!(
                    "trace import: CBP log — {} branches ({} taken) over {} static sites",
                    s.branches, s.taken, s.static_branches
                );
            }
            let top: usize = match rest.value_of("--top").map(str::parse) {
                None => 10,
                Some(Ok(n)) => n,
                Some(Err(_)) => {
                    eprintln!("trace import: bad --top value");
                    return ExitCode::FAILURE;
                }
            };
            let cfg = ExperimentConfig {
                commits,
                ..ExperimentConfig::default()
            };
            let runner = Runner::new(ropts);
            let report = trace_report(&runner, &cfg, &w, top);
            print!("{}", report.text());
            if let Some(out) = rest.value_of("--json") {
                let doc = Json::obj()
                    .field("experiment", "trace-import")
                    .field("data", report.to_json())
                    .field("telemetry", runner.telemetry().to_json());
                if let Err(e) = std::fs::write(out, format!("{doc}\n")) {
                    eprintln!("trace import: failed to write {out}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("trace import: wrote {out}");
            }
            eprintln!("trace import: {}", runner.telemetry().summary());
            ExitCode::SUCCESS
        }
        Some("info") => {
            if let Err(e) = reject_unknown("trace", &rest.args, &[], 1) {
                eprintln!("trace info: {e}");
                return usage();
            }
            let Some(path) = rest.args.first() else {
                eprintln!("trace info: expected a .pptrace file");
                return usage();
            };
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("trace info: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match ppsim::isa::pptrace::peek_meta(&bytes) {
                Ok(meta) => {
                    println!(
                        "{}",
                        Json::obj()
                            .field("name", meta.name.as_str())
                            .field("note", meta.note.as_str())
                            .field("halted", meta.halted)
                            .field("branches_only", meta.branches_only)
                            .field("records", meta.records)
                            .field("static_insns", meta.static_insns)
                            .field("addrs", meta.addrs)
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("trace info: {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("trace: expected a verb: export | import | info");
            usage()
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };
    let flags = Flags {
        args: args[1..].to_vec(),
    };
    // `--help` anywhere wins before any parsing or work: `ppsim check
    // --help` must never start a fuzz sweep.
    if cmd == "--help" || cmd == "-h" || cmd == "help" || flags.has("--help") || flags.has("-h") {
        return help();
    }
    let commits: u64 = flags
        .value_of("--commits")
        .and_then(|v| v.parse().ok())
        .unwrap_or(500_000);

    match cmd.as_str() {
        "run" => {
            if let Err(e) = reject_unknown(
                "run",
                &flags.args,
                &[
                    ("--scheme", Arity::Value),
                    ("--commits", Arity::Value),
                    ("--trace-events", Arity::Value),
                    ("--trace", Arity::Value),
                    ("--tiny", Arity::Switch),
                ],
                1,
            ) {
                eprintln!("run: {e}");
                return usage();
            }
            let Some(path) = flags.args.first().filter(|a| !a.starts_with("--")) else {
                return usage();
            };
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let program = match parse_program(&source) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let scheme = match flags.value_of("--scheme") {
                None => SchemeSpec::Predicate,
                Some(s) => match SchemeSpec::parse(s) {
                    Some(k) => k,
                    None => {
                        eprintln!("unknown scheme `{s}` (expected {})", schemes_help());
                        return ExitCode::FAILURE;
                    }
                },
            };
            // `--trace` kept as an alias for one release.
            let trace_events = flags
                .value_of("--trace-events")
                .or_else(|| flags.value_of("--trace"))
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            simulate(&program, scheme, commits, trace_events, flags.has("--tiny"));
            ExitCode::SUCCESS
        }
        "compile" => {
            if let Err(e) = reject_unknown(
                "compile",
                &flags.args,
                &[("--ifconv", Arity::Switch), ("--listing", Arity::Switch)],
                1,
            ) {
                eprintln!("compile: {e}");
                return usage();
            }
            let Some(name) = flags.args.first().filter(|a| !a.starts_with("--")) else {
                return usage();
            };
            let Some(spec) = find_benchmark(name) else {
                eprintln!("unknown benchmark `{name}` (try `ppsim suite`)");
                return ExitCode::FAILURE;
            };
            let opts = if flags.has("--ifconv") {
                CompileOptions::with_ifconv()
            } else {
                CompileOptions::no_ifconv()
            };
            let compiled = compile(&spec, &opts).expect("suite benchmarks compile");
            if flags.has("--listing") {
                print!("{}", compiled.program.listing());
            }
            eprintln!(
                "{name}: {} instructions, {} conditional branches, {} compares{}",
                compiled.program.len(),
                compiled.program.count_insns(|i| i.is_cond_branch()),
                compiled.program.count_insns(|i| i.is_cmp()),
                compiled
                    .ifconvert
                    .map(|s| format!(", {} branches if-converted", s.converted))
                    .unwrap_or_default()
            );
            ExitCode::SUCCESS
        }
        "bench" => {
            // Simulator-throughput benchmark: every fig-6a cell timed
            // through the inline machine AND the trace-replay engine.
            // Exit code 1 if any cell's statistics diverge between the
            // two paths (the bit-identity guarantee the replay engine
            // rests on). With `--trace FILE`, times an imported stream
            // and checks that repeated replays agree instead (no inline
            // machine exists there).
            if let Err(e) = reject_unknown(
                "bench",
                &flags.args,
                &[
                    ("--only", Arity::Value),
                    ("--commits", Arity::Value),
                    ("--json", Arity::Value),
                    ("--sample", Arity::OptionalValue),
                    ("--trace", Arity::Value),
                    ("--repeat", Arity::Value),
                    ("--phases", Arity::Switch),
                ],
                1,
            ) {
                eprintln!("bench: {e}");
                return usage();
            }
            // --repeat / --phases belong to the grid bench; the sampled
            // and imported-trace variants time a different schedule, so
            // silently ignoring the flags there would misreport.
            let repeat = match flags.value_of("--repeat") {
                None => 1u32,
                Some(v) => match v.parse::<u32>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("bench: --repeat expects an integer >= 1, got `{v}`");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let phases = flags.has("--phases");
            if (repeat > 1 || phases)
                && (flags.value_of("--trace").is_some() || flags.has("--sample"))
            {
                eprintln!(
                    "bench: --repeat/--phases apply to the grid bench only, not --sample/--trace"
                );
                return ExitCode::FAILURE;
            }
            if let Some(path) = flags.value_of("--trace") {
                let (w, _) = match load_trace_workload(path, None) {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("bench: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let report = simbench::run_trace(&w.name, w.buf.clone(), commits);
                let out = flags.value_of("--json").unwrap_or("BENCH_trace.json");
                if let Err(e) = std::fs::write(out, format!("{}\n", report.to_json())) {
                    eprintln!("bench: failed to write {out}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("bench: wrote {out}");
                println!("bench: {}", report.summary());
                return if report.identical {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            let mut cfg = simbench::BenchConfig {
                commits,
                repeat,
                phases,
                ..simbench::BenchConfig::default()
            };
            if let Some(name) = flags.args.first().filter(|a| !a.starts_with("--")) {
                if find_benchmark(name).is_none() {
                    eprintln!("unknown benchmark `{name}` (try `ppsim list`)");
                    return ExitCode::FAILURE;
                }
                cfg.only = vec![name.clone()];
            }
            if let Some(v) = flags.value_of("--only") {
                cfg.only = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            match sample_flag(&flags) {
                Err(e) => {
                    eprintln!("bench: {e}");
                    return ExitCode::FAILURE;
                }
                Ok(Some(spec)) => {
                    // Sampled-vs-full comparison: how much accuracy the
                    // schedule gives up and how much wall time it saves.
                    let report = simbench::run_sampled(&cfg, spec);
                    let path = flags.value_of("--json").unwrap_or("BENCH_sample.json");
                    if let Err(e) = std::fs::write(path, format!("{}\n", report.to_json())) {
                        eprintln!("bench: failed to write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("bench: wrote {path}");
                    println!("bench: {}", report.summary());
                    return ExitCode::SUCCESS;
                }
                Ok(None) => {}
            }
            let report = simbench::run(&cfg);
            let path = flags.value_of("--json").unwrap_or("BENCH_sim.json");
            if let Err(e) = std::fs::write(path, format!("{}\n", report.to_json())) {
                eprintln!("bench: failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("bench: wrote {path}");
            println!("bench: {}", report.summary());
            if report.reports_identical() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "suite" => {
            // Full paper evaluation through the parallel, cache-aware
            // runner. The stdout report is deterministic — identical for
            // any --jobs value and cache state; telemetry goes to stderr
            // and the optional --json artifact.
            let mut spec: Vec<(&str, Arity)> = RUNNER_FLAGS.to_vec();
            spec.extend([
                ("--json", Arity::Value),
                ("--commits", Arity::Value),
                ("--only", Arity::Value),
                ("--sample", Arity::OptionalValue),
            ]);
            if let Err(e) = reject_unknown("suite", &flags.args, &spec, 0) {
                eprintln!("suite: {e}");
                return usage();
            }
            let (opts, rest) = match RunnerOptions::from_args(&flags.args) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("suite: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let rest_flags = Flags { args: rest };
            let mut cfg = ExperimentConfig::from_env();
            if let Some(v) = rest_flags.value_of("--commits") {
                match v.parse() {
                    Ok(n) => cfg.commits = n,
                    Err(_) => {
                        eprintln!("suite: bad --commits value `{v}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if let Some(v) = rest_flags.value_of("--only") {
                cfg.only = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            match sample_flag(&rest_flags) {
                Err(e) => {
                    eprintln!("suite: {e}");
                    return ExitCode::FAILURE;
                }
                Ok(Some(spec)) => cfg.sample = Some(spec),
                Ok(None) => {}
            }
            let runner = Runner::new(opts);
            // One deduplicated grid pass feeds both the text report and
            // the --json artifact.
            let results = experiments::full_results(&runner, &cfg);
            print!("{}", results.report_text(&cfg));
            if let Some(path) = rest_flags.value_of("--json") {
                // Telemetry sits beside (not inside) the deterministic
                // `data` object: stripping it yields byte-identical
                // artifacts across cache states and worker counts.
                let doc = Json::obj()
                    .field("experiment", "suite")
                    .field("commits", cfg.commits)
                    .field("data", results.report_json(&cfg))
                    .field("telemetry", runner.telemetry().to_json());
                if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                    eprintln!("suite: failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("suite: wrote {path}");
            }
            eprintln!("suite: {}", runner.telemetry().summary());
            ExitCode::SUCCESS
        }
        "check" => {
            // Differential cosimulation: fuzz the timing model against
            // the architectural emulator across every scheme ×
            // predication cell. Exit code 1 on any divergence. With
            // `--replay FILE.pisa`, re-runs one dumped repro through the
            // oracle that recorded it instead of fuzzing.
            let mut spec: Vec<(&str, Arity)> = RUNNER_FLAGS.to_vec();
            spec.extend([
                ("--seed", Arity::Value),
                ("--iters", Arity::Value),
                ("--fault", Arity::Value),
                ("--dump", Arity::Value),
                ("--sample-epsilon", Arity::Value),
                ("--replay", Arity::Value),
            ]);
            if let Err(e) = reject_unknown("check", &flags.args, &spec, 0) {
                eprintln!("check: {e}");
                return usage();
            }
            let (ropts, rest) = match RunnerOptions::from_args(&flags.args) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("check: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let rest_flags = Flags { args: rest };
            let parse_u64 = |v: &str| -> Option<u64> {
                match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(h) => u64::from_str_radix(h, 16).ok(),
                    None => v.parse().ok(),
                }
            };
            let fault = match rest_flags.value_of("--fault") {
                None => None,
                Some("invert-oracle") => Some(TestFault::InvertOracle),
                Some("invert-early-resolve") => Some(TestFault::InvertEarlyResolve),
                Some(other) => {
                    eprintln!("check: unknown --fault `{other}` (expected {FAULTS})");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(path) = rest_flags.value_of("--replay") {
                let source = match std::fs::read_to_string(path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("check: cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let out = match replay_repro(&source, fault) {
                    Ok(o) => o,
                    Err(e) => {
                        eprintln!("check: {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match &out.header {
                    Some(h) => eprintln!(
                        "check: replaying {path} (seed {:#x} iter {} form {} cell {})",
                        h.seed, h.iter, h.form, h.cell
                    ),
                    None => eprintln!("check: replaying {path} (no repro header: full sweep)"),
                }
                return match out.divergence {
                    None => {
                        println!("check: repro passes ({} cell(s) verified)", out.checks);
                        ExitCode::SUCCESS
                    }
                    Some(d) => {
                        println!("check: repro still diverges: {d}");
                        ExitCode::FAILURE
                    }
                };
            }
            let mut opts = CheckOptions {
                jobs: ropts.jobs,
                use_cache: ropts.cache,
                cache_dir: ropts.cache_dir.map(|d| d.join("check")),
                dump_dir: Some(std::path::PathBuf::from(
                    rest_flags.value_of("--dump").unwrap_or("check-failures"),
                )),
                fault,
                ..CheckOptions::default()
            };
            if let Some(v) = rest_flags.value_of("--seed") {
                match parse_u64(v) {
                    Some(s) => opts.seed = s,
                    None => {
                        eprintln!("check: bad --seed value `{v}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if let Some(v) = rest_flags.value_of("--iters") {
                match v.parse() {
                    Ok(n) => opts.iters = n,
                    Err(_) => {
                        eprintln!("check: bad --iters value `{v}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if let Some(v) = rest_flags.value_of("--sample-epsilon") {
                match v.parse::<f64>() {
                    Ok(e) if e.is_finite() && e >= 0.0 => opts.sample_epsilon = Some(e),
                    _ => {
                        eprintln!("check: bad --sample-epsilon value `{v}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let report = run_check(&opts);
            if !report.passed() {
                print!("{}", report.table());
                for f in &report.findings {
                    if let Some(p) = &f.repro_path {
                        eprintln!("check: repro written to {}", p.display());
                    }
                }
            }
            println!("check: {}", report.summary());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "trace" => trace_cmd(&flags, commits),
        "serve" => {
            // The persistent experiment daemon: one warm runner for the
            // process lifetime, NDJSON requests over TCP, graceful
            // drain on SIGINT or a `shutdown` request.
            let mut spec: Vec<(&str, Arity)> = RUNNER_FLAGS.to_vec();
            spec.extend([("--addr", Arity::Value), ("--max-clients", Arity::Value)]);
            if let Err(e) = reject_unknown("serve", &flags.args, &spec, 0) {
                eprintln!("serve: {e}");
                return usage();
            }
            let (ropts, rest) = match RunnerOptions::from_args(&flags.args) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("serve: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let rest_flags = Flags { args: rest };
            let mut sopts = ServeOptions {
                runner: ropts,
                ..ServeOptions::default()
            };
            if let Some(a) = rest_flags.value_of("--addr") {
                sopts.addr = a.to_string();
            }
            if let Some(v) = rest_flags.value_of("--max-clients") {
                match v.parse::<usize>() {
                    Ok(n) => sopts.max_clients = n,
                    Err(_) => {
                        eprintln!("serve: bad --max-clients value `{v}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if let Err(e) = sopts.validate() {
                eprintln!("serve: {e}");
                return ExitCode::FAILURE;
            }
            let server = match Server::bind(&sopts) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("serve: cannot bind {}: {e}", sopts.addr);
                    return ExitCode::FAILURE;
                }
            };
            install_sigint_handler();
            match server.local_addr() {
                Ok(addr) => eprintln!(
                    "serve: listening on {addr} (max {} clients)",
                    sopts.max_clients
                ),
                Err(e) => eprintln!("serve: listening ({e})"),
            }
            let state = server.run();
            eprintln!("serve: drained; {}", state.runner.telemetry().summary());
            ExitCode::SUCCESS
        }
        "submit" => {
            // Scriptable client: sends request lines from a file (or
            // stdin with `-`), prints one deterministic `data` line per
            // request on stdout; progress goes to stderr.
            if let Err(e) = reject_unknown(
                "submit",
                &flags.args,
                &[
                    ("--addr", Arity::Value),
                    ("--raw", Arity::Value),
                    ("--quiet", Arity::Switch),
                ],
                1,
            ) {
                eprintln!("submit: {e}");
                return usage();
            }
            let source = flags
                .args
                .first()
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str)
                .unwrap_or("-");
            let requests = if source == "-" {
                use std::io::Read as _;
                let mut s = String::new();
                if let Err(e) = std::io::stdin().read_to_string(&mut s) {
                    eprintln!("submit: cannot read stdin: {e}");
                    return ExitCode::FAILURE;
                }
                s
            } else {
                match std::fs::read_to_string(source) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("submit: cannot read {source}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            let mut opts = SubmitOptions {
                quiet: flags.has("--quiet"),
                ..SubmitOptions::default()
            };
            if let Some(a) = flags.value_of("--addr") {
                opts.addr = a.to_string();
            }
            if let Some(p) = flags.value_of("--raw") {
                opts.raw = Some(p.to_string());
            }
            match submit(&opts, &requests, &mut std::io::stdout().lock()) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("submit: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "cache" => {
            // Inspect or clear the on-disk result cache the runner (and
            // the serve daemon) share.
            if let Err(e) =
                reject_unknown("cache", &flags.args, &[("--cache-dir", Arity::Value)], 1)
            {
                eprintln!("cache: {e}");
                return usage();
            }
            let dir = flags
                .value_of("--cache-dir")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(DiskCache::default_dir);
            let cache = match DiskCache::open(&dir) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cache: cannot open {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            };
            match flags.args.first().map(String::as_str) {
                Some("stats") => {
                    let usage = cache.usage();
                    println!(
                        "{}",
                        Json::obj()
                            .field("dir", dir.display().to_string().as_str())
                            .field("entries", usage.entries)
                            .field("bytes", usage.bytes)
                    );
                    ExitCode::SUCCESS
                }
                Some("clear") => match cache.clear() {
                    Ok(n) => {
                        eprintln!("cache: removed {n} entries from {}", dir.display());
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("cache: clear failed: {e}");
                        ExitCode::FAILURE
                    }
                },
                _ => usage(),
            }
        }
        "list" => {
            if let Err(e) = reject_unknown("list", &flags.args, &[], 0) {
                eprintln!("list: {e}");
                return usage();
            }
            let mut t = Table::new(
                "The 22 synthetic SPEC2000-like benchmarks",
                &["name", "class", "kernels", "array words"],
            );
            for s in ppsim::compiler::spec2000_suite() {
                t.row(vec![
                    s.name.to_string(),
                    format!("{:?}", s.class),
                    s.kernels.len().to_string(),
                    s.array_words.to_string(),
                ]);
            }
            println!("{t}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    }
}
