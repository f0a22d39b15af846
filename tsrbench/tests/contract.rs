//! The benchmark's own checks, at a tiny scale: counts that must repeat
//! exactly across two runs of one seed, every named metric emitted with
//! its unit, and `BENCHMARK.json` naming the same metrics.

use std::path::PathBuf;

use tsr_wire::Json;
use tsrbench::args::{Options, Workload};
use tsrbench::run::{self, Metrics, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 11,
        seconds: 1.0,
        trace,
        scale: 0.001,
        key_bits: 512,
        setups: 1,
        recoveries: 1,
        rounds: 2,
    }
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn run(opts: &Options, name: &str) -> Metrics {
    let out = run::run(opts, &scratch(name), &scratch("trace-out"))
        .unwrap_or_else(|e| panic!("run {name} failed: {e}"));
    assert_eq!(out.failed, 0, "checks failed: {:?}", out.errors);
    assert!(out.attempted > 0);
    out.metrics
}

fn assert_names(metrics: &Metrics, expected: &[(&str, &str)]) {
    assert_eq!(metrics.len(), expected.len());
    for (name, unit) in expected {
        let (_, got) = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("metric {name} not emitted"));
        assert_eq!(got, unit, "unit of {name}");
    }
}

#[test]
fn traced_counts_repeat_exactly_and_every_metric_is_named() {
    let a = run(&tiny(Workload::Update, true), "traced-a");
    let b = run(&tiny(Workload::Update, true), "traced-b");
    assert_names(&a, &PER_LAYER);
    for name in [
        "sanitize.pkgs",
        "sanitize.rejected",
        "sanitize.files_signed",
        "crypto.signs_per_wave",
        "store.wal_bytes_per_wave",
        "store.blob_bytes_per_wave",
        "store.fsyncs_per_wave",
        "quorum.index_read_sim_ms",
        "quorum.download_sim_ms",
    ] {
        assert_eq!(
            a[name].0, b[name].0,
            "{name} differs between runs of one seed"
        );
    }
    assert!(a["sanitize.pkgs"].0 > 0.0);
    assert!(a["crypto.signs_per_wave"].0 > 0.0);
    assert!(a["store.wal_bytes_per_wave"].0 > 0.0);
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric_nonzero() {
    for workload in [Workload::Poll, Workload::Fetch] {
        let m = run(&tiny(workload, false), workload.name());
        assert_names(&m, &END_TO_END);
        for (name, (value, _)) in &m {
            assert!(*value > 0.0, "{name} is {value} on {}", workload.name());
        }
    }
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_names_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
}
