//! The server's connection threads are a pool: a connection reuses a
//! waiting thread instead of costing one, and shutdown takes every thread
//! back. Alone in its test binary so the count is not disturbed by other
//! tests' threads.

#![cfg(target_os = "linux")]

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use w5_net::{Request, Response, Server, ServerConfig};
use w5_sync::Mutex;

const MAX_CONNECTIONS: usize = 4;

fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn connections_reuse_threads_and_shutdown_takes_them_back() {
    let before = process_threads();
    // The handler runs on the connection's thread: note which one.
    let serving = Arc::new(Mutex::new("test.fixture", HashSet::new()));
    let seen = Arc::clone(&serving);
    let h = Server::start(
        "127.0.0.1:0",
        ServerConfig { max_connections: MAX_CONNECTIONS, ..ServerConfig::default() },
        Arc::new(move |r: Request, _| {
            seen.lock().insert(std::thread::current().id());
            if r.path == "/slow" {
                std::thread::sleep(Duration::from_micros(200));
            }
            Response::text("ok")
        }),
    )
    .unwrap();
    let started = process_threads();
    let mut most = started;
    for i in 0..200 {
        let reply = get(h.addr(), &format!("/r{i}"));
        assert!(reply.starts_with("HTTP/1.1 200"), "request {i}: {reply}");
        most = most.max(process_threads());
    }
    assert!(
        most <= started + 2,
        "200 sequential connections grew the process from {started} to {most} threads"
    );
    assert_eq!(h.requests_served(), 200);
    let threads = serving.lock().len();
    assert!(threads <= 3, "200 sequential connections were served by {threads} threads");

    // Twice as many concurrent clients as slots: the pool never holds more
    // than `max_connections + 1` threads, whatever gets the 503.
    let clients = 2 * MAX_CONNECTIONS;
    let addr = h.addr();
    let most = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                (0..50).fold(0, |most, _| {
                    // A shed peer may find the socket closed before its
                    // request is written; it is the thread count that matters.
                    let reply = get(addr, "/slow");
                    assert!(
                        ["", "HTTP/1.1 200", "HTTP/1.1 503"].iter().any(|s| reply.starts_with(s)),
                        "{reply}"
                    );
                    most.max(process_threads())
                })
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|c| c.join().unwrap())
        .max()
        .unwrap();
    let pool = most.saturating_sub(before + clients);
    assert!(pool <= MAX_CONNECTIONS + 1, "{clients} clients grew the pool to {pool} threads");

    h.shutdown();
    // The listener is closed once `shutdown` returns; the threads that let
    // go of it are on their way out.
    let err = TcpStream::connect(addr).expect_err("connect after shutdown");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    let deadline = Instant::now() + Duration::from_secs(10);
    while process_threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(process_threads(), before, "shutdown left connection threads behind");
}

/// One `connection: close` GET, read to the server's close; what could
/// be read if the server shed the connection.
fn get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = write!(s, "GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n");
    let mut reply = Vec::new();
    let _ = s.read_to_end(&mut reply);
    String::from_utf8_lossy(&reply).into_owned()
}
