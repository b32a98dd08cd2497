//! Self-test of the quick Test-scale mode: every metric `BENCHMARK.json`
//! names is emitted with its unit, and a tampered recorded digest fails
//! the run.

use bioarch::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Run the benchmark binary in quick mode on seed 7.
fn quick(workload: &str, trace: &str, digests: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--trace", trace, "--quick", "--digests"])
        .arg(digests)
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

/// The result line: the last line of standard output.
fn result(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("the benchmark printed a result line");
    Json::parse(last).expect("the result line is JSON")
}

/// A fresh file path in the test's scratch directory.
fn scratch(name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn quick_mode_emits_every_named_metric_with_its_unit() {
    let spec = spec();
    let digests = scratch("no-digests.txt");
    let workloads = spec.get("workloads").and_then(Json::as_array).expect("workloads");
    for workload in workloads {
        let name = workload.get("name").and_then(Json::as_str).expect("workload name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = quick(name, trace, &digests, &[]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{name} --trace {trace} failed:\n{stderr}");
            let doc = result(&out);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{name} --trace {trace}");
            assert!(doc.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
            assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = doc.get("metrics").expect("metrics");
            let named = spec.get(list).and_then(Json::as_array).expect("metric list");
            for m in named {
                let metric = m.get("name").and_then(Json::as_str).expect("metric name");
                let unit = m.get("unit").and_then(Json::as_str).expect("metric unit");
                let got = metrics.get(metric).unwrap_or_else(|| panic!("{name}: no {metric}"));
                assert_eq!(got.get("unit").and_then(Json::as_str), Some(unit), "{name}: {metric}");
                let value = got.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {metric} = {value:?}");
            }
            let Json::Obj(emitted) = metrics else { panic!("metrics is not an object") };
            assert_eq!(emitted.len(), named.len(), "{name} --trace {trace}: only named metrics");
        }
    }
}

#[test]
fn a_tampered_digest_fails_the_run() {
    let digests = scratch("recorded-digests.txt");
    let record = quick("sampled-scan", "0", &digests, &["--record"]);
    assert!(
        record.status.success(),
        "recording failed:\n{}",
        String::from_utf8_lossy(&record.stderr)
    );
    assert!(
        quick("sampled-scan", "0", &digests, &[]).status.success(),
        "the recorded digest verifies"
    );
    let text = std::fs::read_to_string(&digests).expect("a digest was recorded");
    let tampered: String = text
        .lines()
        .map(|line| {
            let mut line = line.to_string();
            if !line.starts_with('#') {
                let last = line.pop().expect("a digest digit");
                line.push(if last == '0' { '1' } else { '0' });
            }
            line + "\n"
        })
        .collect();
    std::fs::write(&digests, tampered).expect("tamper with the digest");
    let out = quick("sampled-scan", "0", &digests, &[]);
    assert!(!out.status.success(), "a tampered digest must fail the run");
    assert_eq!(result(&out).get("correct"), Some(&Json::Bool(false)));
}
