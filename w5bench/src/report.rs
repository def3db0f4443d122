//! Result files and the baseline comparator.

use crate::spec::{unit_of, END_TO_END};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// What one invocation on one workload found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Outcome {
    /// The one-line result object the driver reads.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                (
                    name,
                    obj(vec![
                        ("value", Value::Float(value)),
                        ("unit", Value::Str(unit_of(name).into())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", obj(metrics)),
        ])
    }
}

/// Where result and trace files go: under the build directory, which the
/// root `.gitignore` names.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = target.join("w5bench");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

pub fn write(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The host a result was recorded on. Results that depend on threads mean
/// nothing without the core count.
pub fn host(seed: u64, scale: f64, seconds: f64) -> Value {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    obj(vec![
        (
            "nproc",
            Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("kernel", Value::Str(kernel)),
        ("rustc", Value::Str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::UInt(seed)),
        ("scale", Value::Float(scale)),
        ("seconds", Value::Float(seconds)),
    ])
}

/// Counters that repeat exactly for one seed and scale.
const EXACT: [&str; 4] = [
    "client.stream_digest",
    "obs.events_per_req",
    "store.rows_total_end",
    "platform.exports_blocked_per_req",
];

fn metric(workload: &Value, group: &str, name: &str) -> Option<f64> {
    workload.get(group)?.get(name)?.get("value")?.as_f64()
}

/// Apply the bounds to candidate `b` against baseline `a`, one row per
/// workload. Returns whether `b` is acceptable.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let workloads = |v: &'_ Value| {
        v.get("workloads")
            .and_then(Value::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("no \"workloads\" object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let same_inputs = ["seed", "scale"].iter().all(|k| {
        let of = |v: &Value| v.get("host").and_then(|h| h.get(k)).and_then(Value::as_f64);
        of(a).is_some() && of(a) == of(b)
    });
    let mut ok = true;
    for (name, base) in &wa {
        let Some((_, cand)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<18} MISSING from the candidate");
            ok = false;
            continue;
        };
        let mut row = format!("{name:<18}");
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (
                metric(base, "end_to_end", m.name),
                metric(cand, "end_to_end", m.name),
            ) else {
                return Err(format!("{name}: {} missing", m.name));
            };
            let worsening = if m.higher_is_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let regressed = worsening > m.bound;
            ok &= !regressed;
            row.push_str(&format!(
                " {}{:+.1}%{}",
                m.name,
                100.0 * (y - x) / x,
                if regressed { " REGRESSED" } else { "" }
            ));
        }
        let failed = |v: &Value| v.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if failed(cand) > failed(base) || cand.get("correct").and_then(Value::as_bool) != Some(true)
        {
            row.push_str(&format!(
                " failed {}->{} INCORRECT",
                failed(base),
                failed(cand)
            ));
            ok = false;
        }
        if same_inputs {
            for exact in EXACT {
                let (x, y) = (
                    metric(base, "per_layer", exact),
                    metric(cand, "per_layer", exact),
                );
                if x != y {
                    row.push_str(&format!(" {exact} {x:?}->{y:?} DRIFTED"));
                    ok = false;
                }
            }
        }
        println!("{row}");
    }
    Ok(ok)
}
