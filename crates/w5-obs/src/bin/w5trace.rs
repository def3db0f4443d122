//! w5trace — causal-trace query CLI for the operator.
//!
//! Reads one or more span-list JSON exports (`Ledger::traces_json`, e.g.
//! from the `trace_smoke` harness), merges their spans — exports from
//! different providers stitch into one tree when a trace crossed the
//! federation wire — and answers queries:
//!
//! ```text
//! w5trace [--tree] [--critical-path] [--slowest N] [--json] TRACES.json...
//! ```
//!
//! An export is the ledger's operator record (DESIGN §9): every span with
//! its name, label and exact timing. The CLI reports what the exports
//! hold and changes none of it.
//!
//! Exit codes: `0` = ok, `2` = usage or input error. A reader that stops
//! early (`w5trace … | head -1`) closes the pipe; the report then simply
//! ends, with exit code `0`.

#![forbid(unsafe_code)]

use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;
use w5_obs::trace::{critical_path, layer_attribution, render_tree, slowest_traces, trace_ids};
use w5_obs::SpanRecord;

const USAGE: &str = "usage: w5trace [--tree] [--critical-path] [--slowest N] [--json] TRACES.json...

  --tree           render each trace as an indented span tree
  --critical-path  per trace: the slowest root-to-leaf chain and per-layer self time
  --slowest N      rank the N slowest traces by root span duration
  --json           emit the merged span list as JSON";

fn main() -> ExitCode {
    let mut tree = false;
    let mut crit = false;
    let mut json = false;
    let mut slowest: Option<usize> = None;
    let mut files: Vec<String> = Vec::new();

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--tree" => tree = true,
            "--critical-path" => crit = true,
            "--json" => json = true,
            "--slowest" => {
                let Some(v) = argv.next() else {
                    eprintln!("w5trace: --slowest requires a count\n{USAGE}");
                    return ExitCode::from(2);
                };
                match v.parse::<usize>() {
                    Ok(n) => slowest = Some(n),
                    Err(_) => {
                        eprintln!("w5trace: bad count {v:?}\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => return finish(writeln!(io::stdout().lock(), "{USAGE}")),
            other if other.starts_with('-') => {
                eprintln!("w5trace: unknown flag {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            file => files.push(file.to_string()),
        }
    }

    if files.is_empty() {
        eprintln!("w5trace: no trace exports given\n{USAGE}");
        return ExitCode::from(2);
    }

    // Merge every export's spans; files from different providers carry
    // disjoint span ids within a shared trace id, so stitching is a
    // plain concatenation.
    let mut spans: Vec<SpanRecord> = Vec::new();
    for file in &files {
        let raw = match std::fs::read_to_string(file) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("w5trace: {file}: {e}");
                return ExitCode::from(2);
            }
        };
        match serde_json::from_str::<Vec<SpanRecord>>(&raw) {
            Ok(export) => spans.extend(export),
            Err(e) => {
                eprintln!("w5trace: {file}: not a span-list export: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let mut out = io::stdout().lock();
    if json {
        return match serde_json::to_string_pretty(&spans) {
            Ok(s) => finish(writeln!(out, "{s}").and_then(|()| out.flush())),
            Err(e) => {
                eprintln!("w5trace: serialize failed: {e}");
                ExitCode::from(2)
            }
        };
    }
    finish(report(&mut out, &spans, slowest, tree, crit).and_then(|()| out.flush()))
}

/// The text report: the counts, then each query asked for.
fn report(
    out: &mut impl Write,
    spans: &[SpanRecord],
    slowest: Option<usize>,
    tree: bool,
    crit: bool,
) -> io::Result<()> {
    let traces = trace_ids(spans);
    writeln!(out, "{} trace(s), {} span(s)", traces.len(), spans.len())?;

    if let Some(n) = slowest {
        writeln!(out, "\nslowest {n} trace(s) by root duration:")?;
        for (trace, dur) in slowest_traces(spans, n) {
            writeln!(out, "  trace {trace:016x}  {dur}µs")?;
        }
    }

    if tree {
        writeln!(out)?;
        write!(out, "{}", render_tree(spans))?;
    }

    if crit {
        for trace in &traces {
            writeln!(out, "\ncritical path, trace {trace:016x}:")?;
            for step in critical_path(spans, *trace) {
                writeln!(
                    out,
                    "  {:<40} [{:?}] total {}µs  self {}µs",
                    step.name, step.layer, step.total_us, step.self_us
                )?;
            }
            writeln!(out, "  per-layer self time:")?;
            for (layer, us) in layer_attribution(spans, *trace) {
                writeln!(out, "    {layer:<10} {us}µs")?;
            }
        }
    }
    Ok(())
}

/// The exit code once the report is written: a closed pipe is a reader
/// that has read enough, any other write error is an error.
fn finish(written: io::Result<()>) -> ExitCode {
    match written {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("w5trace: write failed: {e}");
            ExitCode::from(2)
        }
        _ => ExitCode::SUCCESS,
    }
}
