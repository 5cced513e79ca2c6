//! Harness self-tests: every workload at a tiny size, untraced and traced.

use ppsim_perfharness::{per_layer, run, Inject, Outcome, RunSpec, Size, Workload, END_TO_END};
use ppsim_runner::Json;

/// Largest share of the traced wall that spans may leave uncovered.
const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

fn tiny(workload: Workload, trace: bool, inject: Option<Inject>) -> Outcome {
    run(&RunSpec {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        size: Size::tiny(),
        inject,
    })
}

fn names_units(o: &Outcome) -> Vec<(String, &'static str)> {
    o.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect()
}

#[test]
fn untraced_runs_report_every_end_to_end_metric_nonzero() {
    for w in Workload::ALL {
        let o = tiny(w, false, None);
        assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.failures);
        assert!(o.attempted >= 2, "{}", w.name());
        let want: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(names_units(&o), want, "{}", w.name());
        for m in &o.metrics {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_reconcile() {
    for w in Workload::ALL {
        let o = tiny(w, true, None);
        assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.failures);
        let want: Vec<(String, &str)> = per_layer().into_iter().map(|(n, u, _)| (n, u)).collect();
        assert_eq!(names_units(&o), want, "{}", w.name());
        let unattributed = o.get("trace.unattributed_frac").expect("listed");
        assert!(
            (0.0..UNATTRIBUTED_TOLERANCE).contains(&unattributed),
            "{}: unattributed share {unattributed}",
            w.name()
        );
        let layer = |n: &str| o.get(n).expect("listed");
        match w {
            Workload::SuiteCold => {
                assert!(layer("compiler.calls") > 0.0 && layer("pipeline.busy_s") > 0.0);
                assert!(
                    layer("mem.accesses") > 0.0 && layer("predictors.predicate.predictions") > 0.0
                );
                assert_eq!(layer("runner.cache_hit_ratio"), 0.0);
                assert!(layer("model.stats_digest") > 0.0);
                assert_eq!(
                    layer("runner.cache_store_calls"),
                    layer("runner.cache_load_calls")
                );
            }
            Workload::TraceImport => {
                assert!(
                    layer("isa.pptrace_bytes") > 0.0 && layer("predictors.tage.predictions") > 0.0
                );
                assert!(layer("model.stats_digest") > 0.0);
                assert_eq!(layer("compiler.calls"), 0.0);
                assert_eq!(layer("mem.accesses"), 0.0);
            }
            Workload::CheckSweep => {
                assert_eq!(
                    layer("check.programs"),
                    2.0 * Size::tiny().check_iters as f64
                );
                assert!(layer("check.cells") > 0.0 && layer("isa.emulate_minsts_per_s") > 0.0);
                assert_eq!(layer("runner.cache_hit_ratio"), 0.0);
            }
        }
    }
}

#[test]
fn corrupted_outputs_are_counted_as_failures() {
    let cases = Workload::ALL
        .into_iter()
        .flat_map(|w| [(w, false, Inject::Output), (w, true, Inject::Traced)])
        .chain([(Workload::SuiteCold, true, Inject::Warm)]);
    for (w, trace, inject) in cases {
        {
            let o = tiny(w, trace, Some(inject));
            assert_eq!(o.failed, 1, "{} {inject:?}: {:?}", w.name(), o.failures);
            assert!(
                o.to_json().starts_with("{\"correct\": false"),
                "{}",
                w.name()
            );
        }
    }
}

#[test]
fn benchmark_json_lists_the_harness_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the harness");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = list("end_to_end")
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect();
    let want: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.into(), u.into()))
        .collect();
    assert_eq!(e2e, want);
    let layers: Vec<(String, String, String)> = per_layer()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect();
    assert_eq!(list("per_layer"), layers);
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, want);
}
