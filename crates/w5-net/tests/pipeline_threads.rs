//! The pipeline owns no threads. Alone in its test binary so the count is
//! not disturbed by other tests' threads.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use w5_net::{OpenAdmission, Pipeline, PipelineConfig, Request, Response, Status};

fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn start_serve_and_stop_spawn_no_thread() {
    let before = process_threads();
    let p = Pipeline::start(
        PipelineConfig::default(),
        Arc::new(|_r: Request, _| Response::text("ok")),
        Arc::new(OpenAdmission),
    );
    assert_eq!(process_threads(), before, "Pipeline::start spawned a thread");
    let resp = p.submit(Request::get("/x"), "127.0.0.1:9".parse().unwrap());
    assert_eq!(resp.status, Status::OK);
    assert_eq!(process_threads(), before, "serving spawned a thread");
    p.stop();
    assert_eq!(process_threads(), before);
}
