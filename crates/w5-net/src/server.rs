//! Threaded HTTP front end with keep-alive and graceful shutdown.
//!
//! Connection threads share one listener: a thread accepts, spawns a
//! successor only if no other thread waits in `accept`, serves the
//! connection through a [`Serve`] engine (one socket write per response),
//! and goes back to `accept`. [`Server`] runs the staged
//! [`Pipeline`](crate::pipeline::Pipeline). Shutdown raises a flag and
//! connects to itself; each woken thread wakes the next — no busy-wait.

use crate::http::{buf_reader, write_once, HttpError, Limits, Request, Response, Status};
use crate::pipeline::{fault_line, OpenAdmission, Pipeline, PipelineConfig, Serve};
use w5_sync::{lockdep, Mutex};
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::time::Duration;

/// A request handler. Receives the parsed request and the peer address;
/// returns the response to send.
pub trait Handler: Send + Sync + 'static {
    /// Handle one request.
    fn handle(&self, request: Request, peer: SocketAddr) -> Response;
}

impl<F> Handler for F
where
    F: Fn(Request, SocketAddr) -> Response + Send + Sync + 'static,
{
    fn handle(&self, request: Request, peer: SocketAddr) -> Response {
        self(request, peer)
    }
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Parser limits per request.
    pub limits: Limits,
    /// Maximum concurrent connections; excess connections receive 503.
    pub max_connections: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Maximum requests served on one keep-alive connection.
    pub max_requests_per_connection: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            limits: Limits::default(),
            max_connections: 256,
            read_timeout: Duration::from_secs(10),
            max_requests_per_connection: 1000,
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle(Arc<Pool>);

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// Total requests served so far.
    pub fn requests_served(&self) -> usize {
        self.0.served.load(Ordering::Relaxed)
    }

    /// Connections currently being handled.
    pub fn active_connections(&self) -> usize {
        self.0.active.load(Ordering::Relaxed)
    }

    /// Stop accepting, wait until the listener is closed, then stop the
    /// engine (the pipeline refuses new requests; queued ones still get
    /// their slot). In-flight connections finish their current request
    /// and close.
    pub fn shutdown(&self) {
        if self.0.stop.swap(true, Ordering::SeqCst) {
            return; // already stopped
        }
        // Wake one thread out of accept(); each passes the wake-up on, and
        // `closed` disconnects when the last one lets go of the socket.
        let _ = TcpStream::connect(self.0.addr);
        let _ = self.0.closed.lock().recv();
        self.0.engine.stop();
    }
}

/// The server factory. [`Server::start`] serves through a default
/// pipeline; [`Server::start_engine`] takes one built by the caller (other
/// tuning, kernel-backed admission).
pub struct Server;

impl Server {
    /// Bind and serve on background threads through a
    /// [`Pipeline`](crate::pipeline::Pipeline) with the default
    /// [`PipelineConfig`] and classify-only admission. `addr` may use port
    /// 0 to let the OS pick; read the effective address from the returned
    /// handle.
    pub fn start(
        addr: &str,
        config: ServerConfig,
        handler: Arc<dyn Handler>,
    ) -> std::io::Result<ServerHandle> {
        let engine = Pipeline::start(PipelineConfig::default(), handler, Arc::new(OpenAdmission));
        Server::start_engine(addr, config, engine)
    }

    /// Bind and serve through an explicit engine.
    pub fn start_engine(
        addr: &str,
        config: ServerConfig,
        engine: Arc<dyn Serve>,
    ) -> std::io::Result<ServerHandle> {
        let (closed_tx, closed) = mpsc::channel();
        let listener: Arc<Listener> = Arc::new((TcpListener::bind(addr)?, closed_tx));
        let pool = Arc::new(Pool {
            addr: listener.0.local_addr()?,
            config,
            engine,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            served: AtomicUsize::new(0),
            idle: AtomicUsize::new(1),
            listener: Arc::downgrade(&listener),
            closed: Mutex::new("net.accept", closed),
        });
        pool.spawn(listener)?;
        Ok(ServerHandle(pool))
    }
}

/// The socket, and the sender whose drop disconnects `Pool::closed`.
type Listener = (TcpListener, mpsc::Sender<()>);

/// What the connection threads and the handle share.
struct Pool {
    addr: SocketAddr,
    config: ServerConfig,
    engine: Arc<dyn Serve>,
    stop: AtomicBool,
    active: AtomicUsize,
    served: AtomicUsize,
    /// Threads holding `listener` to accept on it: ≥ 1 until shutdown. A
    /// thread is idle or holds a slot, and one is spawned only when none
    /// is idle, so there are at most `max_connections + 1`.
    idle: AtomicUsize,
    listener: Weak<Listener>,
    closed: Mutex<mpsc::Receiver<()>>,
}

impl Pool {
    /// Start a connection thread, detached: `shutdown` waits for the
    /// socket to close, not for connections still being served.
    fn spawn(self: &Arc<Self>, listener: Arc<Listener>) -> std::io::Result<()> {
        let pool = Arc::clone(self);
        std::thread::Builder::new()
            .name("w5-http-conn".into())
            .spawn(move || pool.run(listener))
            .map(drop)
    }

    /// One connection thread: accept, hand its place on, serve, come back.
    fn run(self: Arc<Self>, mut listener: Arc<Listener>) {
        while !self.stop.load(Ordering::SeqCst) {
            let Ok((stream, _)) = listener.0.accept() else { continue };
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            // The last idle thread hands its place on; if no thread can be
            // spawned, the connection is shed like an overload.
            let Some(slot) = ConnGuard::take(&self.active, self.config.max_connections)
                .filter(|_| {
                    let update = |n: usize| (n > 1).then(|| n - 1);
                    self.idle.fetch_update(Ordering::SeqCst, Ordering::SeqCst, update).is_ok()
                        || self.spawn(Arc::clone(&listener)).is_ok()
                })
            else {
                let _ = overloaded(stream);
                continue;
            };
            drop(listener);
            let _ = serve_connection(stream, &self.config, &*self.engine, &self.served, &self.stop);
            // Idle again before the slot goes back, which keeps the bound.
            let Some(rejoined) = self.listener.upgrade() else { return }; // shut down
            self.idle.fetch_add(1, Ordering::SeqCst);
            listener = rejoined;
            drop(slot);
        }
        // Shutdown: wake the next idle thread, then let go of the socket.
        if self.idle.fetch_sub(1, Ordering::SeqCst) > 1 {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// An occupied connection slot. The `Drop` impl releases it, so the count
/// balances on every path, an unwinding engine included.
struct ConnGuard<'a>(&'a AtomicUsize);

impl ConnGuard<'_> {
    /// A slot, if fewer than `max` are taken.
    fn take(active: &AtomicUsize, max: usize) -> Option<ConnGuard<'_>> {
        let update = |n: usize| (n < max).then_some(n + 1);
        active.fetch_update(Ordering::Relaxed, Ordering::Relaxed, update).ok()?;
        Some(ConnGuard(active))
    }
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn overloaded(mut stream: TcpStream) -> Result<(), HttpError> {
    // Same shed contract as the pipeline's admission stage: a Retry-After
    // hint plus a fault-report body in the faultreport.rs log-line format.
    // The connection carries no labels yet, so the detail is never
    // redacted.
    let resp = Response::error(
        Status::SERVICE_UNAVAILABLE,
        &fault_line("net/server", "infrastructure", Some("server overloaded: connection limit reached")),
    )
    .with_header("retry-after", "1");
    lockdep::blocking("net.socket.write");
    write_once(&mut stream, &mut Vec::new(), |buf| resp.write_to(buf, false))?;
    // Half of the rejected clients have already sent (part of) a request;
    // without an explicit shutdown they sit in their own read until their
    // timeout. Close both directions so they see EOF right after the 503.
    stream.shutdown(std::net::Shutdown::Both)?;
    Ok(())
}

fn serve_connection(
    stream: TcpStream,
    config: &ServerConfig,
    engine: &dyn Serve,
    served: &AtomicUsize,
    stop: &AtomicBool,
) -> Result<(), HttpError> {
    let peer = stream.peer_addr().map_err(HttpError::Io)?;
    stream
        .set_read_timeout(Some(config.read_timeout))
        .map_err(HttpError::Io)?;
    stream.set_nodelay(true).ok();
    let mut write_half = stream.try_clone().map_err(HttpError::Io)?;
    let mut reader = buf_reader(stream);
    serve_stream(&mut reader, &mut write_half, peer, config, engine, served, stop)
}

/// The keep-alive loop over any byte stream: parse, serve, answer with
/// exactly one `write_all` per response from a per-connection buffer.
fn serve_stream<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    peer: SocketAddr,
    config: &ServerConfig,
    engine: &dyn Serve,
    served: &AtomicUsize,
    stop: &AtomicBool,
) -> Result<(), HttpError> {
    let mut out = Vec::new();
    for _ in 0..config.max_requests_per_connection {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let request = match Request::read_from(reader, &config.limits) {
            Ok(r) => r,
            Err(HttpError::UnexpectedEof) => break, // clean close
            Err(HttpError::Io(ref e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                break;
            }
            Err(e) => {
                // Tell the peer what category of mistake it made and close.
                let status = match e {
                    HttpError::TooLarge(_) => Status::PAYLOAD_TOO_LARGE,
                    HttpError::UnsupportedMethod(_) => Status::METHOD_NOT_ALLOWED,
                    _ => Status::BAD_REQUEST,
                };
                let resp = Response::error(status, &e.to_string());
                let _ = write_once(writer, &mut out, |buf| resp.write_to(buf, false));
                break;
            }
        };
        let keep = request.keep_alive() && !stop.load(Ordering::SeqCst);
        let (method, path) = (request.method, request.path.clone());
        // Root span per request; a wire-propagated trace context (e.g. a
        // federation peer's `x-w5-trace`) stitches this server's tree under
        // the caller's, including the caller's sampling decision.
        let remote = request
            .header(w5_obs::TRACE_HEADER)
            .and_then(w5_obs::TraceContext::parse);
        let response = {
            let _span = w5_obs::span_with_remote(
                format!("net.http {method} {path}"),
                w5_obs::Layer::Net,
                &w5_obs::ObsLabel::empty(),
                remote.as_ref(),
            );
            engine.serve(request, peer)
        };
        // The HTTP front end sees only the wire: request spans are public
        // (any label-bearing data is the platform's concern downstream).
        // Its timing is the `net.http` span's alone.
        w5_obs::record(
            &w5_obs::ObsLabel::empty(),
            w5_obs::EventKind::HttpRequest {
                method: format!("{method}"),
                path,
                status: response.status.0,
            },
        );
        served.fetch_add(1, Ordering::Relaxed);
        lockdep::blocking("net.socket.write");
        write_once(writer, &mut out, |buf| response.write_to(buf, keep))?;
        if !keep {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::http::Method;

    impl ConnGuard<'_> {
        fn new(active: &AtomicUsize) -> ConnGuard<'_> {
            ConnGuard::take(active, usize::MAX).expect("an unbounded slot")
        }
    }

    fn echo_server() -> ServerHandle {
        Server::start(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(|req: Request, _peer: SocketAddr| {
                Response::text(format!("{} {}", req.method, req.path))
            }),
        )
        .unwrap()
    }

    #[test]
    fn serves_and_shuts_down() {
        let h = echo_server();
        let client = HttpClient::new();
        let resp = client.get(h.addr(), "/hello").unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body_string(), "GET /hello");
        assert_eq!(h.requests_served(), 1);
        h.shutdown();
        // Idempotent.
        h.shutdown();
        assert!(HttpClient::new().get(h.addr(), "/x").is_err());
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let h = echo_server();
        let mut conn = HttpClient::new().connect(h.addr()).unwrap();
        for i in 0..5 {
            let resp = conn.request(&Request::get(&format!("/r{i}"))).unwrap();
            assert_eq!(resp.body_string(), format!("GET /r{i}"));
        }
        assert_eq!(h.requests_served(), 5);
        h.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let h = echo_server();
        let addr = h.addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let c = HttpClient::new();
                    for j in 0..10 {
                        let resp = c.get(addr, &format!("/t{i}/{j}")).unwrap();
                        assert!(resp.status.is_success());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.requests_served(), 80);
        h.shutdown();
    }

    #[test]
    fn bad_request_gets_400() {
        let h = echo_server();
        // Unknown method → 405.
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"BANANA / HTTP/1.1\r\n\r\n").unwrap();
        let mut r = buf_reader(s);
        let resp = Response::read_from(&mut r, &Limits::default()).unwrap();
        assert_eq!(resp.status, Status::METHOD_NOT_ALLOWED);
        // Malformed target → 400.
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET noslash HTTP/1.1\r\n\r\n").unwrap();
        let mut r = buf_reader(s);
        let resp = Response::read_from(&mut r, &Limits::default()).unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
        h.shutdown();
    }

    #[test]
    fn post_roundtrip() {
        let h = Server::start(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(|req: Request, _| Response::text(String::from_utf8_lossy(&req.body).into_owned())),
        )
        .unwrap();
        let c = HttpClient::new();
        let resp = c
            .post(h.addr(), "/submit", "application/x-www-form-urlencoded", b"a=1&b=2")
            .unwrap();
        assert_eq!(resp.body_string(), "a=1&b=2");
        h.shutdown();
    }

    #[test]
    fn conn_guard_releases_slot_even_if_the_thread_never_runs() {
        // The failed-spawn path: the guard is moved into a closure that is
        // dropped without ever executing (exactly what `Builder::spawn`
        // does with it on error). The slot must come back.
        let active = Arc::new(AtomicUsize::new(0));
        let guard = ConnGuard::new(&active);
        assert_eq!(active.load(Ordering::Relaxed), 1);
        let never_run = move || {
            let _guard = guard;
        };
        drop(never_run);
        assert_eq!(
            active.load(Ordering::Relaxed),
            0,
            "a dropped connection closure must release its slot"
        );
    }

    #[test]
    fn overloaded_clients_get_503_then_eof_and_server_recovers() {
        use std::io::Read;
        use std::sync::mpsc;

        // A handler that parks until released, so one connection can pin
        // the single slot for as long as the test needs.
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new("test.fixture", rx);
        let h = Server::start(
            "127.0.0.1:0",
            ServerConfig { max_connections: 1, ..ServerConfig::default() },
            Arc::new(move |_req: Request, _peer: SocketAddr| {
                let _ = rx.lock().recv();
                Response::text("released")
            }),
        )
        .unwrap();

        // Occupy the only slot with an in-flight request.
        let mut busy = TcpStream::connect(h.addr()).unwrap();
        busy.write_all(b"GET /hold HTTP/1.1\r\n\r\n").unwrap();
        for _ in 0..2000 {
            if h.active_connections() >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.active_connections(), 1, "busy connection never registered");

        // The next client has already sent a request; it must receive the
        // 503 followed promptly by EOF — not hang until its read timeout.
        let mut rejected = TcpStream::connect(h.addr()).unwrap();
        rejected.write_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        rejected.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = Vec::new();
        rejected.read_to_end(&mut buf).expect("socket must reach EOF after the 503");
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 503"), "got: {text}");
        // The shed carries a retry hint and a fault-report body, same
        // contract as the pipeline's admission stage.
        assert!(text.to_ascii_lowercase().contains("retry-after: 1"), "got: {text}");
        assert!(text.contains("fault app=net/server kind=infrastructure"), "got: {text}");

        // Release the parked handler; the slot drains and new clients are
        // served again — the counter balanced.
        tx.send(()).unwrap();
        let mut r = buf_reader(busy);
        let resp = Response::read_from(&mut r, &Limits::default()).unwrap();
        assert_eq!(resp.status, Status::OK);
        drop(r);
        for _ in 0..2000 {
            if h.active_connections() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.active_connections(), 0, "slot leaked after connection closed");
        // Disconnect the channel so later handler invocations return at
        // once instead of parking.
        drop(tx);
        let resp = HttpClient::new().get(h.addr(), "/again").unwrap();
        assert_eq!(resp.status, Status::OK);
        h.shutdown();
    }

    #[test]
    fn silent_clients_hold_slots_but_not_the_server() {
        use std::io::Read;
        let read_timeout = Duration::from_secs(5);
        let config = ServerConfig { max_connections: 4, read_timeout, ..ServerConfig::default() };
        let h = Server::start(
            "127.0.0.1:0",
            config,
            Arc::new(|req: Request, _peer: SocketAddr| Response::text(req.path)),
        )
        .unwrap();
        let settle = |n: usize| {
            for _ in 0..2000 {
                if h.active_connections() == n {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(h.active_connections(), n);
        };

        // Three peers connect and say nothing; each holds a slot and a
        // thread blocked in its read.
        let mut silent: Vec<TcpStream> =
            (0..3).map(|_| TcpStream::connect(h.addr()).unwrap()).collect();
        settle(3);
        // An honest client beside them is answered at once, not after
        // anyone's read timeout.
        let started = std::time::Instant::now();
        let resp = HttpClient::new().with_timeout(read_timeout).get(h.addr(), "/honest").unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body_string(), "/honest");
        assert!(started.elapsed() < read_timeout / 5, "took {:?}", started.elapsed());
        settle(3);

        // A fourth silent peer takes the last slot: the next client gets
        // the 503 and then EOF.
        silent.push(TcpStream::connect(h.addr()).unwrap());
        settle(4);
        let mut rejected = TcpStream::connect(h.addr()).unwrap();
        rejected.write_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        rejected.set_read_timeout(Some(read_timeout)).unwrap();
        let mut buf = Vec::new();
        rejected.read_to_end(&mut buf).expect("socket must reach EOF after the 503");
        assert!(buf.starts_with(b"HTTP/1.1 503"), "got: {}", String::from_utf8_lossy(&buf));

        // The silent peers leave; every slot comes back.
        drop(silent);
        settle(0);
        assert_eq!(HttpClient::new().get(h.addr(), "/after").unwrap().status, Status::OK);
        h.shutdown();
    }

    fn panicky_handler() -> Arc<dyn Handler> {
        Arc::new(|req: Request, _peer: SocketAddr| {
            if req.path == "/boom" {
                panic!("handler exploded");
            }
            Response::text("fine")
        })
    }

    #[test]
    fn pipelined_server_turns_handler_panic_into_500_and_recovers() {
        let h = Server::start("127.0.0.1:0", ServerConfig::default(), panicky_handler()).unwrap();
        let c = HttpClient::new();
        // The pipeline catches the panic and the connection gets a real 500.
        let resp = c.get(h.addr(), "/boom").unwrap();
        assert_eq!(resp.status, Status::INTERNAL_ERROR);
        // The connection slot drains (the conn thread never panicked).
        for _ in 0..2000 {
            if h.active_connections() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.active_connections(), 0, "slot leaked across a handler panic");
        // The handler slot came back: the next request is admitted and served.
        let resp = c.get(h.addr(), "/ok").unwrap();
        assert_eq!(resp.status, Status::OK);
        h.shutdown();
    }

    /// Counts `write` calls the way a `TCP_NODELAY` socket turns them
    /// into segments.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn serve_bytes(raw: &[u8], handler: Arc<dyn Handler>) -> CountingWriter {
        let engine = Pipeline::start(PipelineConfig::default(), handler, Arc::new(OpenAdmission));
        let mut out = CountingWriter::default();
        serve_stream(
            &mut std::io::Cursor::new(raw.to_vec()),
            &mut out,
            "127.0.0.1:9".parse().unwrap(),
            &ServerConfig::default(),
            &*engine,
            &AtomicUsize::new(0),
            &AtomicBool::new(false),
        )
        .unwrap();
        out
    }

    #[test]
    fn each_response_reaches_the_socket_in_one_write() {
        let handler: Arc<dyn Handler> = Arc::new(|_req: Request, _peer: SocketAddr| {
            Response::text("x".repeat(4096))
                .with_header("x-w5-app", "photo")
                .with_header("cache-control", "no-store")
        });
        // One keep-alive request, then one that closes.
        let out = serve_bytes(
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nconnection: close\r\n\r\n",
            Arc::clone(&handler),
        );
        assert_eq!(out.writes, 2, "two responses, one write each");
        let mut r = std::io::Cursor::new(out.bytes);
        for connection in ["keep-alive", "close"] {
            let resp = Response::read_from(&mut r, &Limits::default()).unwrap();
            assert_eq!(resp.status, Status::OK);
            assert_eq!(resp.header("x-w5-app"), Some("photo"));
            assert_eq!(resp.header("cache-control"), Some("no-store"));
            assert_eq!(resp.header("content-type"), Some("text/plain; charset=utf-8"));
            assert_eq!(resp.header("connection"), Some(connection));
            assert_eq!(resp.body.len(), 4096);
        }
        // The parse-error answer takes the same path.
        let out = serve_bytes(b"BANANA / HTTP/1.1\r\n\r\n", handler);
        assert_eq!(out.writes, 1);
        assert!(out.bytes.starts_with(b"HTTP/1.1 405 "));
    }

    #[test]
    fn reference_server_releases_slot_when_handler_panics() {
        use std::io::Read;
        /// An engine with no `catch_unwind` of its own.
        struct Bare(Arc<dyn Handler>);
        impl Serve for Bare {
            fn serve(&self, request: Request, peer: SocketAddr) -> Response {
                self.0.handle(request, peer)
            }
        }
        let engine = Arc::new(Bare(panicky_handler()));
        let h = Server::start_engine("127.0.0.1:0", ServerConfig::default(), engine).unwrap();
        // The panic unwinds the connection thread, so the client sees EOF
        // with no response…
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(b"GET /boom HTTP/1.1\r\n\r\n").unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf);
        assert!(buf.is_empty(), "an unwinding engine should not answer a panicked request");
        // …but the ConnGuard still releases the slot, so the active count
        // returns to zero and the next request is admitted.
        for _ in 0..2000 {
            if h.active_connections() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.active_connections(), 0, "panicked connection leaked its slot");
        let resp = HttpClient::new().get(h.addr(), "/ok").unwrap();
        assert_eq!(resp.status, Status::OK);
        h.shutdown();
    }

    #[test]
    fn method_routing_in_handler() {
        let h = Server::start(
            "127.0.0.1:0",
            ServerConfig::default(),
            Arc::new(|req: Request, _| {
                if req.method == Method::Post {
                    Response::new(Status::CREATED)
                } else {
                    Response::new(Status::OK)
                }
            }),
        )
        .unwrap();
        let c = HttpClient::new();
        assert_eq!(c.get(h.addr(), "/").unwrap().status, Status::OK);
        assert_eq!(
            c.post(h.addr(), "/", "text/plain", b"x").unwrap().status,
            Status::CREATED
        );
        h.shutdown();
    }
}
