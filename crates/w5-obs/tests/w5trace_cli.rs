//! The `w5trace` binary end to end: it reads a `Ledger::traces_json`
//! export, renders the tree and critical path, and exits 2 on usage and
//! input errors.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::Arc;
use w5_obs::{Layer, Ledger, ObsLabel};

/// Write `contents` to a file of this test binary's scratch directory.
fn scratch_file(name: &str, contents: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn w5trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_w5trace"))
        .args(args)
        .output()
        .unwrap()
}

/// One nested trace — net root, platform child, kernel grandchild —
/// exported from a scoped ledger to the file `name`.
fn one_trace_export(name: &str) -> PathBuf {
    let ledger = Arc::new(Ledger::new());
    {
        let _scope = w5_obs::scoped(Arc::clone(&ledger));
        let _root = w5_obs::span("net.http GET /app/photos", Layer::Net, &ObsLabel::empty());
        let _invoke = w5_obs::span(
            "platform.invoke devA/photos",
            Layer::Platform,
            &ObsLabel::singleton(7),
        );
        let _spawn = w5_obs::span(
            "kernel.create_process",
            Layer::Kernel,
            &ObsLabel::singleton(7),
        );
    }
    assert_eq!(ledger.spans_recorded(), 3);
    scratch_file(name, &ledger.traces_json().unwrap())
}

#[test]
fn tree_and_critical_path_print_every_span_and_layer() {
    let export = one_trace_export("w5trace_cli_tree.json");
    let out = w5trace(&["--tree", "--critical-path", export.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("1 trace(s), 3 span(s)"), "{stdout}");
    for name in [
        "net.http GET /app/photos",
        "platform.invoke devA/photos",
        "kernel.create_process",
    ] {
        assert!(stdout.contains(name), "missing span {name:?}:\n{stdout}");
    }
    assert!(
        stdout.contains("{7}"),
        "the operator sees labels:\n{stdout}"
    );
    let attribution = &stdout[stdout.find("per-layer self time:").expect("no attribution")..];
    for layer in ["net", "platform", "kernel"] {
        assert!(
            attribution
                .lines()
                .any(|l| l.trim_start().starts_with(layer) && l.ends_with("µs")),
            "no self time for {layer}:\n{stdout}"
        );
    }
}

#[test]
fn usage_and_input_errors_exit_2() {
    let export = one_trace_export("w5trace_cli_errors.json");
    let export = export.to_str().unwrap();
    let malformed = scratch_file("w5trace_cli_malformed.json", "{\"spans\": [");
    for args in [
        vec![malformed.to_str().unwrap()],
        vec!["--slowest", "x", export],
        vec!["--clearance", "all", export],
    ] {
        let out = w5trace(&args);
        assert_eq!(out.status.code(), Some(2), "w5trace {args:?}");
        assert!(out.stdout.is_empty(), "w5trace {args:?} printed a report");
    }
}

/// A reader that takes one line and closes the pipe (`| head -1`) ends
/// the report: exit 0, no panic. The tree is far larger than a pipe's
/// buffer, so the binary is still writing when the pipe closes.
#[test]
fn a_reader_that_stops_early_ends_the_report_quietly() {
    let ledger = Arc::new(Ledger::new());
    {
        let _scope = w5_obs::scoped(Arc::clone(&ledger));
        let _root = w5_obs::span("net.http GET /app/blog", Layer::Net, &ObsLabel::empty());
        for i in 0..4000 {
            let _step = w5_obs::span(format!("store.sql_select step {i}"), Layer::Store, &ObsLabel::singleton(7));
        }
    }
    let export = scratch_file("w5trace_cli_pipe.json", &ledger.traces_json().unwrap());
    let mut child = Command::new(env!("CARGO_BIN_EXE_w5trace"))
        .args(["--tree", "--critical-path", export.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(first.starts_with("1 trace(s), 4001 span(s)"), "{first}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
