//! `w5bench`: one socket-to-store benchmark for W5 with per-layer
//! attribution. See `BENCHMARK.md` beside this package.
//!
//! ```text
//! w5bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//! w5bench [--seed <n>] [--seconds <s>] [--scale <f>]      every workload, both ways
//! w5bench compare <baseline.json> <candidate.json>
//! ```

mod client;
mod report;
mod round;
mod spec;
mod stats;
mod trace;
mod world;

use report::Outcome;
use round::{run_round, Leak, Round};
use serde_json::Value;
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 99,
        seconds: 20.0,
        trace: false,
        scale: 1.0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not understood");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    spec::workload(value).ok_or_else(|| format!("no workload named {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--scale" => {
                args.scale = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// The end-to-end run: identical fixed-count rounds until another would
/// not fit in `seconds`; every time metric is the quiet quartile over the
/// run's slices or rounds.
fn measure(w: &Workload, args: &Args) -> Result<Outcome, Leak> {
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        rounds.push(run_round(w, args.seed, args.scale)?);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / rounds.len() as f64 > args.seconds {
            break;
        }
    }
    let over_slices = |f: fn(&round::Slice) -> f64, higher_is_better| {
        stats::quiet_quartile(
            &mut rounds
                .iter()
                .flat_map(|r| &r.slices)
                .map(f)
                .collect::<Vec<_>>(),
            higher_is_better,
        )
    };
    let over_rounds = |f: fn(&Round) -> f64| {
        stats::quiet_quartile(&mut rounds.iter().map(f).collect::<Vec<_>>(), false)
    };
    let measured: usize = rounds.iter().map(|r| r.samples.len()).sum();
    for e in rounds.iter().flat_map(|r| &r.errors) {
        eprintln!("w5bench: {}: {e}", w.name);
    }
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    eprintln!(
        "w5bench: {}: {} rounds, {measured} measured requests",
        w.name,
        rounds.len()
    );
    Ok(Outcome {
        correct: failed == 0 && rounds.iter().all(|r| r.errors.is_empty()),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed,
        metrics: vec![
            ("throughput_rps", over_slices(|s| s.rps, true)),
            ("latency_p50_us", over_slices(|s| s.p50_us, false)),
            ("latency_p99_us", over_slices(|s| s.p99_us, false)),
            (
                "cpu_us_per_req",
                over_rounds(|r| r.cpu_us as f64 / r.samples.len() as f64),
            ),
            ("peak_rss_mb", rounds[0].peak_rss_mb),
            ("setup_s", over_rounds(|r| r.setup_s)),
        ],
    })
}

/// The traced run: per-layer metrics, and the spans written out at exit.
fn traced(w: &Workload, args: &Args) -> Result<Outcome, Leak> {
    let t = trace::run_traced(w, args.seed, args.scale)?;
    for e in &t.errors {
        eprintln!("w5bench: {}: {e}", w.name);
    }
    let spans: Vec<String> = t
        .spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            format!(
                "{{\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )
        })
        .collect();
    report::write(
        &report::out_dir().join(format!("trace_{}.json", w.name)),
        &format!("[\n{}\n]\n", spans.join(",\n")),
    );
    Ok(Outcome {
        correct: t.round.failed == 0 && t.errors.is_empty(),
        attempted: t.round.attempted,
        failed: t.round.failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, _, _)| {
                (
                    name,
                    *t.metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{name} was not measured")),
                )
            })
            .collect(),
    })
}

fn run(w: &Workload, args: &Args) -> Result<Outcome, Leak> {
    eprintln!("w5bench: {}: {}", w.name, w.why);
    let outcome = if args.trace {
        traced(w, args)
    } else {
        measure(w, args)
    }?;
    for (name, value) in &outcome.metrics {
        println!(
            "{:<18} {name:<38} {value:>16.4} {}",
            w.name,
            spec::unit_of(name)
        );
    }
    Ok(outcome)
}

/// Run this program on one workload in a process of its own, as the driver
/// does, and read the result object off the last line of its output. A
/// process per run keeps `VmHWM` and the global ledger one workload's own.
fn run_child(w: &Workload, args: &Args, trace: bool) -> Result<Value, String> {
    let output = std::process::Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args([
            "--workload",
            w.name,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", ""));
    println!("{table}");
    if !output.status.success() {
        return Err(format!("{} exited with {}", w.name, output.status));
    }
    serde_json::from_str(last).map_err(|e| format!("{}: {e}", w.name))
}

/// Every workload, measured then traced, into one `result.json`.
fn suite(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let (measured, traced) = (run_child(w, args, false)?, run_child(w, args, true)?);
        let field =
            |v: &Value, key: &str| v.get(key).cloned().ok_or(format!("{}: no {key}", w.name));
        let correct = [&measured, &traced]
            .iter()
            .all(|v| v.get("correct").and_then(Value::as_bool) == Some(true));
        all_correct &= correct;
        workloads.push((
            w.name.to_string(),
            Value::Obj(vec![
                ("correct".into(), Value::Bool(correct)),
                ("attempted".into(), field(&measured, "attempted")?),
                ("failed".into(), field(&measured, "failed")?),
                ("end_to_end".into(), field(&measured, "metrics")?),
                ("per_layer".into(), field(&traced, "metrics")?),
            ]),
        ));
    }
    let result = Value::Obj(vec![
        (
            "host".into(),
            report::host(args.seed, args.scale, args.seconds),
        ),
        ("workloads".into(), Value::Obj(workloads)),
    ]);
    let path = report::out_dir().join("result.json");
    report::write(
        &path,
        &(serde_json::to_string_pretty(&result).expect("render") + "\n"),
    );
    eprintln!("w5bench: wrote {}", path.display());
    Ok(all_correct)
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".into());
    };
    let load = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    report::compare(&load(a)?, &load(b)?)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("w5bench: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return match compare(&argv[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("w5bench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("w5bench: {e}");
            eprintln!("workloads: {}", WORKLOADS.map(|w| w.name).join(" "));
            eprintln!(
                "end-to-end metrics: {}",
                END_TO_END
                    .iter()
                    .map(|m| m.name)
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return match suite(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("w5bench: {e}");
                ExitCode::from(2)
            }
        };
    };
    match run(w, &args) {
        // The driver's contract: the last line of stdout is the result.
        Ok(outcome) => {
            println!(
                "{}",
                serde_json::to_string(&outcome.to_json()).expect("render")
            );
            ExitCode::SUCCESS
        }
        Err(Leak) => {
            eprintln!("w5bench: LEAK: a request that must be refused with 403 was answered 200");
            ExitCode::from(3)
        }
    }
}
