//! Runs the real binary at `--scale 0.01` and checks what it prints
//! against `BENCHMARK.json`. Timing values are only required to be finite:
//! at this scale they mean nothing.
//!
//! The binary refuses to measure a debug build, so under plain `cargo test`
//! this only checks the refusal; run `cargo test --release` for the rest.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXACT: [&str; 4] = [
    "client.stream_digest",
    "obs.events_per_req",
    "store.rows_total_end",
    "platform.exports_blocked_per_req",
];

fn w5bench(out_dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_w5bench"))
        .args(args)
        .env("CARGO_TARGET_DIR", out_dir)
        .env_remove("W5_NET_WORKERS")
        .output()
        .expect("run w5bench")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(
        &std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"),
    )
    .expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Value::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// The metrics of one result object: every name in `want` exactly once,
/// every value finite, the declared unit.
fn check_metrics(metrics: &Value, want: &[String], spec: &Value, key: &str, context: &str) {
    let got = metrics.as_obj().expect("metrics object");
    let mut got_names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    let mut want_names: Vec<&str> = want.iter().map(String::as_str).collect();
    got_names.sort_unstable();
    want_names.sort_unstable();
    assert_eq!(
        got_names, want_names,
        "{context}: metric names differ from BENCHMARK.json {key}"
    );
    for (name, m) in got {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{context}: {name} has no numeric value"));
        assert!(value.is_finite(), "{context}: {name} = {value}");
        let declared = spec
            .get(key)
            .and_then(Value::as_arr)
            .expect(key)
            .iter()
            .find(|d| d.get("name").and_then(Value::as_str) == Some(name))
            .expect("declared");
        assert_eq!(
            m.get("unit"),
            declared.get("unit"),
            "{context}: unit of {name}"
        );
    }
}

fn value(metrics: &Value, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{name} missing"))
}

fn field<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(v, |v, key| match v {
        Value::Obj(fields) => {
            &mut fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no field {key}"))
                .1
        }
        _ => panic!("{key}: not an object"),
    })
}

fn suite(dir: &Path, seed: &str) -> Value {
    let run = w5bench(dir, &["--scale", "0.01", "--seconds", "1", "--seed", seed]);
    assert!(
        run.status.success(),
        "suite failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    serde_json::from_str(
        &std::fs::read_to_string(dir.join("w5bench/result.json")).expect("result.json"),
    )
    .expect("result.json parses")
}

#[test]
fn every_workload_prints_every_metric_and_repeats_exactly() {
    if cfg!(debug_assertions) {
        let refused = w5bench(
            &out_dir("debug"),
            &[
                "--workload",
                "invoke_mix",
                "--seconds",
                "1",
                "--scale",
                "0.01",
            ],
        );
        assert_eq!(
            refused.status.code(),
            Some(2),
            "a debug build must refuse to measure"
        );
        return;
    }
    let spec = spec();
    let (end_to_end, per_layer) = (names(&spec, "end_to_end"), names(&spec, "per_layer"));
    assert!(end_to_end.iter().any(|n| n == "setup_s"));

    let dir_a = out_dir("suite_a");
    let a = suite(&dir_a, "99");
    let host = a.get("host").expect("host");
    for key in ["nproc", "kernel", "rustc", "git_commit", "scale", "seed"] {
        assert!(host.get(key).is_some(), "result.json host records {key}");
    }
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .expect("workloads");
    assert_eq!(
        workloads.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        names(&spec, "workloads"),
        "workloads differ from BENCHMARK.json"
    );
    for (name, w) in workloads {
        assert_eq!(
            w.get("correct").and_then(Value::as_bool),
            Some(true),
            "{name} correct"
        );
        assert_eq!(
            w.get("failed").and_then(Value::as_u64),
            Some(0),
            "{name} failed"
        );
        check_metrics(
            w.get("end_to_end").expect("end_to_end"),
            &end_to_end,
            &spec,
            "end_to_end",
            name,
        );
        let layers = w.get("per_layer").expect("per_layer");
        check_metrics(layers, &per_layer, &spec, "per_layer", name);
        assert!(
            dir_a.join(format!("w5bench/trace_{name}.json")).exists(),
            "{name} wrote its spans"
        );

        // The self times telescope to the traced p50.
        let sum: f64 = [
            "net.socket_self_us",
            "net.pipeline_self_us",
            "platform.gateway_self_us",
            "platform.invoke_us",
        ]
        .iter()
        .map(|n| value(layers, n))
        .sum();
        let traced = value(layers, "client.traced_p50_us");
        assert!(
            (sum - traced).abs() <= 0.02 * traced,
            "{name}: self times sum to {sum}, traced p50 is {traced}"
        );
        if name.starts_with("invoke_") {
            assert_eq!(
                traced,
                value(layers, "platform.invoke_us"),
                "{name} enters at depth 4"
            );
            assert_eq!(value(layers, "net.socket_self_us"), 0.0);
        }
        assert_eq!(
            value(layers, "kernel.live_processes_end"),
            0.0,
            "{name} leaked processes"
        );
    }

    // The same seed gives the same inputs and the same exact counters.
    let b = suite(&out_dir("suite_b"), "99");
    for (name, w) in workloads {
        let again = b
            .get("workloads")
            .and_then(|ws| ws.get(name))
            .and_then(|w| w.get("per_layer"))
            .expect("second run");
        for exact in EXACT {
            assert_eq!(
                value(w.get("per_layer").expect("per_layer"), exact),
                value(again, exact),
                "{name}: {exact} differs between two runs of seed 99"
            );
        }
    }

    // Another seed gives other inputs.
    let other = w5bench(
        &out_dir("seed7"),
        &[
            "--workload",
            "mix_keepalive",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--scale",
            "0.01",
        ],
    );
    assert!(other.status.success());
    let last = String::from_utf8_lossy(&other.stdout)
        .lines()
        .last()
        .expect("a result line")
        .to_string();
    let result: Value =
        serde_json::from_str(&last).expect("the last line of stdout is the result object");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );
    let seed99 = value(
        workloads
            .iter()
            .find(|(k, _)| k == "mix_keepalive")
            .expect("mix_keepalive")
            .1
            .get("per_layer")
            .expect("per_layer"),
        "client.stream_digest",
    );
    assert_ne!(
        value(
            result.get("metrics").expect("metrics"),
            "client.stream_digest"
        ),
        seed99,
        "seed 7 and seed 99 gave the same request stream"
    );

    // compare: a run passes against itself and fails against a slower copy.
    let baseline = dir_a.join("w5bench/result.json");
    let same = w5bench(
        &dir_a,
        &[
            "compare",
            baseline.to_str().expect("path"),
            baseline.to_str().expect("path"),
        ],
    );
    assert_eq!(
        same.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let mut slow = a.clone();
    let halved = Value::Float(
        value(
            workloads[0].1.get("end_to_end").expect("end_to_end"),
            "throughput_rps",
        ) * 0.5,
    );
    *field(
        &mut slow,
        &[
            "workloads",
            &workloads[0].0,
            "end_to_end",
            "throughput_rps",
            "value",
        ],
    ) = halved;
    let doctored = dir_a.join("w5bench/slow.json");
    std::fs::write(&doctored, serde_json::to_string(&slow).expect("render")).expect("write");
    let worse = w5bench(
        &dir_a,
        &[
            "compare",
            baseline.to_str().expect("path"),
            doctored.to_str().expect("path"),
        ],
    );
    assert_eq!(
        worse.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&worse.stdout)
    );
    assert!(String::from_utf8_lossy(&worse.stdout).contains("REGRESSED"));
}
