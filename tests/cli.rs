//! CLI contract tests: strict flag parsing, `--help` behaviour, the
//! `trace` verbs and `check --replay` — exercised against the real
//! binary so regressions in argument routing can't hide behind unit
//! tests of the library layers.
//!
//! The load-bearing guarantees:
//!
//! * `--help` prints usage on **stdout** and exits 0 without doing any
//!   work — `ppsim check --help` must never start a fuzz sweep;
//! * every subcommand rejects flags it does not understand instead of
//!   silently ignoring them and running anyway;
//! * a trace exported to `.pptrace` and re-imported reports the same
//!   workload, and a CBP branch log import surfaces MPKI and the
//!   ip-labelled H2P table.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ppsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppsim"))
        .args(args)
        .env("PPSIM_COMMITS", "") // keep host env out of suite-config paths
        .output()
        .expect("spawn ppsim")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch path under the target-adjacent temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppsim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    // `check --help` is the one that used to silently run 200 programs
    // across 2,800 oracle cells; the whole matrix is cheap insurance.
    let cases: &[&[&str]] = &[
        &["--help"],
        &["-h"],
        &["help"],
        &["run", "--help"],
        &["compile", "--help"],
        &["bench", "--help"],
        &["suite", "--help"],
        &["check", "--help"],
        &["check", "-h"],
        &["trace", "--help"],
        &["trace", "import", "--help"],
        &["serve", "--help"],
        &["submit", "--help"],
        &["cache", "--help"],
        &["list", "--help"],
    ];
    for args in cases {
        let out = ppsim(args);
        assert!(out.status.success(), "ppsim {args:?} should exit 0");
        assert!(
            stdout(&out).contains("usage:"),
            "ppsim {args:?} should print usage on stdout"
        );
        assert!(
            stdout(&out).contains("trace import"),
            "usage for {args:?} should mention the trace verbs"
        );
    }
}

#[test]
fn every_subcommand_rejects_unknown_flags() {
    let cases: &[&[&str]] = &[
        &["run", "--definitely-bogus"],
        &["compile", "--definitely-bogus"],
        &["bench", "--definitely-bogus"],
        &["suite", "--definitely-bogus"],
        &["check", "--definitely-bogus"],
        &["trace", "export", "--definitely-bogus"],
        &["trace", "import", "--definitely-bogus"],
        &["trace", "info", "--definitely-bogus"],
        &["serve", "--definitely-bogus"],
        &["submit", "--definitely-bogus"],
        &["cache", "stats", "--definitely-bogus"],
        &["list", "--definitely-bogus"],
    ];
    for args in cases {
        let out = ppsim(args);
        assert!(
            !out.status.success(),
            "ppsim {args:?} should fail on an unknown flag"
        );
        assert!(
            stderr(&out).contains("unknown flag"),
            "ppsim {args:?} should name the unknown flag on stderr, got: {}",
            stderr(&out)
        );
    }
}

#[test]
fn missing_flag_values_and_unknown_commands_fail() {
    let out = ppsim(&[]);
    assert!(!out.status.success(), "bare ppsim is a usage error");

    let out = ppsim(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));

    let out = ppsim(&["bench", "--only"]);
    assert!(!out.status.success(), "--only with no value is an error");
    assert!(stderr(&out).contains("needs a value"));
}

#[test]
fn trace_export_info_import_round_trips_a_benchmark() {
    let path = scratch("gzip.pptrace");
    let path_s = path.to_str().unwrap();

    let out = ppsim(&["trace", "export", "gzip", path_s, "--commits", "4000"]);
    assert!(out.status.success(), "export failed: {}", stderr(&out));
    assert!(path.exists());

    let out = ppsim(&["trace", "info", path_s]);
    assert!(out.status.success(), "info failed: {}", stderr(&out));
    let info = stdout(&out);
    assert!(info.contains("\"name\":\"gzip\""), "info: {info}");
    assert!(info.contains("\"records\":4000"), "info: {info}");
    assert!(info.contains("\"branches_only\":false"), "info: {info}");

    let out = ppsim(&[
        "trace",
        "import",
        path_s,
        "--commits",
        "4000",
        "--top",
        "3",
        "--no-cache",
    ]);
    assert!(out.status.success(), "import failed: {}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("gzip"), "report: {report}");
    assert!(report.contains("MPKI"), "report: {report}");
    assert!(report.contains("H2P"), "report: {report}");
}

#[test]
fn cbp_fixture_import_reports_mpki_and_ip_labelled_h2p() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/cbp-branches.txt");
    let out = ppsim(&[
        "trace",
        "import",
        fixture,
        "--commits",
        "20000",
        "--top",
        "5",
        "--no-cache",
    ]);
    assert!(out.status.success(), "import failed: {}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("MPKI"), "report: {report}");
    assert!(report.contains("H2P"), "report: {report}");
    // The alternating site must surface by its original instruction
    // pointer, not a synthetic slot number.
    assert!(report.contains("0x40200c"), "report: {report}");
    assert!(
        stderr(&out).contains("CBP log"),
        "import should summarize the parsed log on stderr"
    );
}

#[test]
fn check_replay_reruns_a_dumped_repro() {
    let repro = "\
// ppsim-check repro: seed 0x0 iter 1 form branchy cell predicate/selective/fused
    movl r1 = 5
.L1:
    add r1 = r1, -1
    cmp.unc.gt p1, p2 = r1, 0
    (p1) br.cond .L1
    halt
";
    let path = scratch("repro.pisa");
    std::fs::write(&path, repro).unwrap();
    let out = ppsim(&["check", "--replay", path.to_str().unwrap()]);
    assert!(out.status.success(), "replay failed: {}", stderr(&out));
    assert!(
        stdout(&out).contains("repro passes"),
        "stdout: {}",
        stdout(&out)
    );

    let out = ppsim(&["check", "--replay", "/nonexistent/file.pisa"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn bench_trace_verifies_replay_identity_on_an_import() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/cbp-branches.txt");
    let json = scratch("bench-trace.json");
    let out = ppsim(&[
        "bench",
        "--trace",
        fixture,
        "--commits",
        "20000",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "bench --trace failed: {}",
        stderr(&out)
    );
    let doc = std::fs::read_to_string(&json).unwrap();
    assert!(doc.contains("\"reports_identical\":true"), "json: {doc}");
}
