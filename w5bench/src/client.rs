//! The benchmark's own load generator: closed loop, pre-serialised
//! requests, a minimal response reader. It shares no code with
//! `w5_net::HttpClient`, so a client-side change in the repository cannot
//! move the server's numbers.

use crate::world::{Bench, Req, Wrong};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use w5_net::{Handler, Request, Serve};
use w5_platform::AppRequest;

/// The parts of an HTTP response the harness looks at.
pub struct Reply<'a> {
    pub status: u16,
    /// Header block, status line included.
    pub head: &'a [u8],
    pub body: &'a [u8],
}

impl Reply<'_> {
    pub fn header(&self, name: &str) -> Option<&[u8]> {
        self.head.split(|&b| b == b'\n').skip(1).find_map(|line| {
            let colon = line.iter().position(|&b| b == b':')?;
            line[..colon]
                .eq_ignore_ascii_case(name.as_bytes())
                .then(|| line[colon + 1..].trim_ascii())
        })
    }
}

/// One client connection and its read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Send one request and read exactly one response: status line,
    /// `content-length`, body.
    pub fn round_trip(&mut self, wire: &[u8]) -> io::Result<Reply<'_>> {
        self.send(wire)?;
        self.receive()
    }

    pub fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)
    }

    pub fn receive(&mut self) -> io::Result<Reply<'_>> {
        self.buf.clear();
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut scanned = 0;
        let head_end = loop {
            if let Some(p) = self.buf[scanned..]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                break scanned + p + 4;
            }
            scanned = self.buf.len().saturating_sub(3);
            self.fill()?;
        };
        let status = std::str::from_utf8(
            self.buf
                .get(9..12)
                .ok_or_else(|| bad("short status line"))?,
        )
        .ok()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("status code"))?;
        let length = Reply {
            status,
            head: &self.buf[..head_end],
            body: &[],
        }
        .header("content-length")
        .and_then(|v| std::str::from_utf8(v).ok()?.parse::<usize>().ok())
        .ok_or_else(|| bad("content-length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        if self.buf.len() != head_end + length {
            return Err(bad("bytes after the body"));
        }
        Ok(Reply {
            status,
            head: &self.buf[..head_end],
            body: &self.buf[head_end..],
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

/// Somewhere a request can be sent. `call` is what `drive` times, so
/// implementations do their preparation in `new`.
pub trait Target {
    /// Send request `i` and check the answer; returns the response's
    /// length in bytes (head and body on the socket, body below it).
    fn call(&mut self, i: usize, req: &Req, photo: &[u8]) -> Result<usize, Wrong>;
}

fn checked(req: &Req, photo: &[u8], reply: io::Result<Reply<'_>>) -> Result<usize, Wrong> {
    let reply = reply.map_err(|_| Wrong::Transport)?;
    req.check(reply.status, reply.body, photo)
        .map(|()| reply.head.len() + reply.body.len())
}

/// Depth 1 on keep-alive workloads: one connection for the whole phase.
pub struct KeepAlive(pub Conn);

impl Target for KeepAlive {
    fn call(&mut self, _i: usize, req: &Req, photo: &[u8]) -> Result<usize, Wrong> {
        checked(req, photo, self.0.round_trip(&req.wire))
    }
}

/// Depth 1 on `mix_connclose`: connect, one round trip, drop.
pub struct ConnClose(pub SocketAddr);

impl Target for ConnClose {
    fn call(&mut self, _i: usize, req: &Req, photo: &[u8]) -> Result<usize, Wrong> {
        let mut conn = Conn::connect(self.0).map_err(|_| Wrong::Transport)?;
        checked(req, photo, conn.round_trip(&req.wire))
    }
}

/// Inputs built ahead of the timed call, taken by index.
struct Prebuilt<T> {
    first: usize,
    items: Vec<Option<T>>,
}

impl<T> Prebuilt<T> {
    fn new(range: Range<usize>, build: impl Fn(usize) -> T) -> Prebuilt<T> {
        Prebuilt {
            first: range.start,
            items: range.map(|i| Some(build(i))).collect(),
        }
    }

    fn take(&mut self, i: usize) -> T {
        self.items[i - self.first]
            .take()
            .expect("each request is sent once")
    }
}

/// The peer address handed to entry points below the socket.
pub const PEER: SocketAddr =
    SocketAddr::new(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST), 1);

/// Depth 2: `Serve::serve` on a pipeline, no socket.
pub struct Engine {
    engine: Arc<dyn Serve>,
    requests: Prebuilt<Request>,
}

impl Engine {
    pub fn new(engine: Arc<dyn Serve>, bench: &Bench, range: Range<usize>) -> Engine {
        Engine {
            engine,
            requests: Prebuilt::new(range, |i| bench.reqs[i].net_request()),
        }
    }
}

impl Target for Engine {
    fn call(&mut self, i: usize, req: &Req, photo: &[u8]) -> Result<usize, Wrong> {
        let response = self.engine.serve(self.requests.take(i), PEER);
        req.check(response.status.0, &response.body, photo)
            .map(|()| response.body.len())
    }
}

/// Depth 3: `Handler::handle` on the gateway.
pub struct Gateway<'a> {
    gateway: &'a w5_platform::Gateway,
    requests: Prebuilt<Request>,
}

impl<'a> Gateway<'a> {
    pub fn new(
        gateway: &'a w5_platform::Gateway,
        bench: &Bench,
        range: Range<usize>,
    ) -> Gateway<'a> {
        Gateway {
            gateway,
            requests: Prebuilt::new(range, |i| bench.reqs[i].net_request()),
        }
    }
}

impl Target for Gateway<'_> {
    fn call(&mut self, i: usize, req: &Req, photo: &[u8]) -> Result<usize, Wrong> {
        let response = self.gateway.handle(self.requests.take(i), PEER);
        req.check(response.status.0, &response.body, photo)
            .map(|()| response.body.len())
    }
}

/// Depth 4: `Platform::invoke`.
pub struct Invoke<'a> {
    bench: &'a Bench,
    requests: Prebuilt<AppRequest>,
}

impl<'a> Invoke<'a> {
    pub fn new(bench: &'a Bench, range: Range<usize>) -> Invoke<'a> {
        Invoke {
            bench,
            requests: Prebuilt::new(range, |i| bench.reqs[i].app_request(&bench.world)),
        }
    }
}

impl Target for Invoke<'_> {
    fn call(&mut self, i: usize, req: &Req, photo: &[u8]) -> Result<usize, Wrong> {
        let world = &self.bench.world;
        let result = world.platform.invoke(
            Some(&world.accounts[req.gen.viewer]),
            &req.gen.app,
            self.requests.take(i),
        );
        req.check(result.status, &result.body, photo)
            .map(|()| result.body.len())
    }
}

/// One timed call.
#[derive(Clone, Copy)]
pub struct Sample {
    pub req: u32,
    /// Nanoseconds from the phase's start to the call's start and end.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Sample {
    /// Latency as the `u32` nanoseconds the percentiles are taken from;
    /// saturates at 4.29 s.
    pub fn latency_ns(&self) -> u32 {
        u32::try_from(self.end_ns - self.start_ns).unwrap_or(u32::MAX)
    }
}

/// What one client saw over one phase.
#[derive(Default)]
pub struct Driven {
    pub samples: Vec<Sample>,
    pub failed: u64,
    pub leaks: u64,
    pub acked_writes: u64,
    pub resp_bytes: u64,
}

impl Driven {
    pub fn merge(&mut self, other: Driven) {
        self.samples.extend(other.samples);
        self.failed += other.failed;
        self.leaks += other.leaks;
        self.acked_writes += other.acked_writes;
        self.resp_bytes += other.resp_bytes;
    }
}

/// Closed loop: send request `i`, wait for its answer, send the next.
pub fn drive(
    target: &mut dyn Target,
    bench: &Bench,
    indices: impl Iterator<Item = usize>,
    t0: Instant,
) -> Driven {
    let mut out = Driven::default();
    for i in indices {
        let req = &bench.reqs[i];
        let start = t0.elapsed();
        let result = target.call(i, req, &bench.photo);
        let end = t0.elapsed();
        out.samples.push(Sample {
            req: i as u32,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        match result {
            Ok(n) => {
                out.resp_bytes += n as u64;
                out.acked_writes += u64::from(!req.class.is_read_only());
            }
            Err(Wrong::Leak) => out.leaks += 1,
            Err(_) => out.failed += 1,
        }
    }
    out
}
