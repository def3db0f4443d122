//! Staged request pipeline: label-aware admission control, a fair permit
//! scheduler bounding concurrent handlers, and container-backed
//! backpressure.
//!
//! The seed server ran every connection's handler the moment its request
//! parsed, so a rogue principal could occupy every core with its own
//! requests and starve honest ones. This module puts explicit stages
//! between the parser and the handler — all of them on the connection's
//! own thread; the pipeline owns none:
//!
//! 1. **Classify** — an [`Admission`] policy maps the parsed request to a
//!    [`PrincipalClass`] (anonymous, session user, or target app).
//! 2. **Charge (request)** — the same policy charges the request's bytes
//!    against the principal's kernel resource container; a quota denial
//!    becomes 429 with a fault-report body, before any queueing.
//! 3. **Admit** — one scheduler holds a fixed number of handler *slots*.
//!    A free slot with nobody waiting is taken at once; otherwise the
//!    thread joins its class's bounded ticket queue. A full
//!    class queue (or a full class table) sheds with 503 + `Retry-After`
//!    computed from that class's own depth — never from another
//!    principal's, so queue occupancy is not a cross-principal covert
//!    channel.
//! 4. **Execute** — the handler runs on the submitting thread while it
//!    holds a slot. Whoever releases a slot grants it to the next ticket
//!    by deficit round-robin over classes, so a flooding class gets at
//!    most `quantum` consecutive grants before the scheduler rotates.
//! 5. **Charge (response)** — response bytes are charged before the body
//!    is released; a denial withholds the body and answers 429.
//!
//! The connection front end (accepting, keep-alive, parsing) reaches
//! the engine through the [`Serve`] trait, so a harness can put the bare
//! handler behind the same loop: `w5_sim::netdiff` proves the pipeline
//! request/response equivalent to that with a four-arm differential
//! oracle.

use crate::http::{Request, Response, Status};
use crate::server::Handler;
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Duration;
use w5_sync::{lockdep, Mutex};

/// A request-serving engine behind the connection front end. [`Pipeline`]
/// is the one this crate ships; oracles and benches implement it over a
/// bare handler. The handler runs on the calling thread.
pub trait Serve: Send + Sync + 'static {
    /// Serve one parsed request to completion.
    fn serve(&self, request: Request, peer: SocketAddr) -> Response;
    /// Stop taking new requests. Idempotent; the default is a no-op for
    /// engines with nothing to wind down.
    fn stop(&self) {}
}

/// The principal a request is billed to and queued under. Classes — not
/// connections — are the unit of fairness and backpressure.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrincipalClass {
    /// No session cookie and no app target.
    Anonymous,
    /// An authenticated session user.
    Session(String),
    /// A request addressed to an installed app (`"dev/app"`).
    App(String),
}

impl PrincipalClass {
    /// Stable queue/telemetry key: `"anon"`, `"session:<user>"`,
    /// `"app:<key>"`.
    pub fn key(&self) -> String {
        match self {
            PrincipalClass::Anonymous => "anon".to_string(),
            PrincipalClass::Session(user) => format!("session:{user}"),
            PrincipalClass::App(key) => format!("app:{key}"),
        }
    }
}

/// Where in the pipeline a charge lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChargePoint {
    /// Admission: the request's wire bytes, before queueing.
    Request,
    /// Completion: the response body's bytes, before it is released.
    Response,
}

/// A refused charge. `detail` feeds the 429 fault-report body unless
/// `redacted` (set when the principal's labels forbid exporting it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChargeDenied {
    /// Human-readable reason (e.g. which resource ran out).
    pub detail: String,
    /// Replace the detail with `<redacted>` in the response body.
    pub redacted: bool,
    /// `Retry-After` seconds to suggest (epoch-based policies know when
    /// the budget refills).
    pub retry_after: u64,
}

/// Admission policy: classifies requests into principals and charges
/// resource containers. The policy that bridges to the platform kernel
/// lives in `w5-platform` (`NetAdmission`); [`OpenAdmission`] is the
/// classify-only default.
pub trait Admission: Send + Sync + 'static {
    /// Map a request to its principal class.
    fn classify(&self, request: &Request, peer: SocketAddr) -> PrincipalClass;
    /// Charge `bytes` at `point` against the class's resource container.
    fn charge(
        &self,
        class: &PrincipalClass,
        point: ChargePoint,
        bytes: u64,
    ) -> Result<(), ChargeDenied>;
    /// Secrecy label for the class's queue telemetry; events recorded
    /// under it are clearance-gated in ledger views, so a hidden
    /// principal's queue activity stays hidden.
    fn telemetry_label(&self, class: &PrincipalClass) -> w5_obs::ObsLabel {
        let _ = class;
        w5_obs::ObsLabel::empty()
    }
}

/// Everyone is anonymous-or-session by cookie, nothing is ever charged.
/// This is the engine-equivalence configuration: with charging disabled
/// the pipeline must be request/response identical to the bare handler.
pub struct OpenAdmission;

impl Admission for OpenAdmission {
    fn classify(&self, request: &Request, _peer: SocketAddr) -> PrincipalClass {
        match request.cookie(crate::SESSION_COOKIE_NAME) {
            Some(token) if !token.is_empty() => PrincipalClass::Session(token.to_string()),
            _ => PrincipalClass::Anonymous,
        }
    }

    fn charge(
        &self,
        _class: &PrincipalClass,
        _point: ChargePoint,
        _bytes: u64,
    ) -> Result<(), ChargeDenied> {
        Ok(())
    }
}

/// Pipeline tuning knobs.
#[derive(Clone)]
pub struct PipelineConfig {
    /// Concurrent handler slots (no threads are created).
    pub workers: usize,
    /// Maximum queued requests per principal class; excess sheds with 503.
    pub queue_depth: usize,
    /// Maximum live (queued) classes; new classes beyond this shed.
    pub max_classes: usize,
    /// Deficit round-robin quantum: consecutive requests one class may
    /// take before the scheduler rotates.
    pub quantum: u64,
    /// How long a queued request waits for a handler slot before its
    /// connection thread answers 503 instead. Bounds the wait only: once
    /// the handler has started it runs to completion.
    pub response_timeout: Duration,
    /// Fault injector for the pipeline's own sites (`net.queue_full`,
    /// `net.slow_worker`). Deliberately *not* the ambient thread
    /// injector, which the handler sees unchanged: arming handler sites
    /// stays deterministic across engines while pipeline faults are
    /// opt-in.
    pub chaos: Option<Arc<w5_chaos::Injector>>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 8,
            queue_depth: 64,
            max_classes: 64,
            quantum: 4,
            response_timeout: Duration::from_secs(30),
            chaos: None,
        }
    }
}

impl std::fmt::Debug for PipelineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineConfig")
            .field("workers", &self.workers)
            .field("queue_depth", &self.queue_depth)
            .field("max_classes", &self.max_classes)
            .field("quantum", &self.quantum)
            .field("response_timeout", &self.response_timeout)
            .field("chaos", &self.chaos.is_some())
            .finish()
    }
}

/// Minimum `Retry-After` seconds on a shed.
const RETRY_AFTER_FLOOR: u64 = 1;

/// Counters for shed/charge decisions; cheap enough to keep always-on.
/// Read through [`PipelineStats::snapshot`].
#[derive(Debug, Default)]
pub struct PipelineStats {
    /// Requests admitted (given a slot at once, or queued for one).
    admitted: AtomicU64,
    /// Requests shed at admission (queue or class table full).
    shed: AtomicU64,
    /// Requests refused by the resource container (either charge point).
    quota_denied: AtomicU64,
    /// Responses completed by handlers.
    served: AtomicU64,
    /// Handler panics converted to 500s.
    panics: AtomicU64,
}

/// A point-in-time stats snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct PipelineSnapshot {
    /// Requests admitted (given a slot at once, or queued for one).
    pub admitted: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests refused by the resource container.
    pub quota_denied: u64,
    /// Responses completed by handlers.
    pub served: u64,
    /// Handler panics converted to 500s.
    pub panics: u64,
}

impl PipelineStats {
    /// Read all counters.
    pub fn snapshot(&self) -> PipelineSnapshot {
        PipelineSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            quota_denied: self.quota_denied.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// One queued request: its connection thread, parked on the receiving
/// end of a capacity-1 grant channel.
struct Ticket {
    /// Unique, so a waiter that times out can find its own ticket.
    id: u64,
    /// Sending the slot occupancy here hands the waiter a slot.
    grant: SyncSender<usize>,
}

/// A per-class FIFO with its deficit round-robin budget.
struct ClassQueue {
    tickets: VecDeque<Ticket>,
    deficit: u64,
}

/// The scheduler's state, under the one `net.pipeline` lock.
#[derive(Default)]
struct SchedState {
    queues: BTreeMap<String, ClassQueue>,
    /// Round-robin order over live class keys (each key appears once).
    order: VecDeque<String>,
    /// Total queued tickets across classes (gauge for tests/benches).
    depth: usize,
    /// Slots taken: handlers executing, plus grants not yet picked up.
    running: usize,
    next_ticket_id: u64,
}

/// How admission placed a request, decided under the scheduler lock.
enum Placement {
    /// A slot was free and nobody was waiting; carries the occupancy.
    Run(usize),
    /// Queued behind `depth - 1` others of its class.
    Wait { id: u64, granted: Receiver<usize>, depth: usize },
    /// Refused at the class's current depth.
    Shed(usize),
}

/// A held handler slot. Dropping it frees the slot and grants it on, so
/// a panic anywhere on the submitting thread cannot leak one.
struct Slot<'a>(&'a Pipeline);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let config = &self.0.config;
        let mut st = self.0.state.lock();
        st.running -= 1;
        while st.running < config.workers {
            let Some(ticket) = next_ticket(&mut st, config.quantum) else { break };
            // A waiter keeps its receiver until it has looked for its
            // ticket under this lock, so the send lands; were it gone,
            // the slot simply stays free for the next ticket.
            if ticket.grant.try_send(st.running + 1).is_ok() {
                st.running += 1;
            }
        }
    }
}

/// The staged engine: admission, bounded per-class queues, and a fixed
/// number of handler slots handed out by deficit round-robin.
/// It owns no threads — every stage runs on the thread that calls
/// [`Pipeline::submit`]. Construct with [`Pipeline::start`]; it implements
/// [`Serve`] so the TCP front end (or a test harness) can drive it.
pub struct Pipeline {
    config: PipelineConfig,
    handler: Arc<dyn Handler>,
    admission: Arc<dyn Admission>,
    state: Mutex<SchedState>,
    stopped: AtomicBool,
    /// Shed/charge counters.
    pub stats: PipelineStats,
}

impl Pipeline {
    /// Build the engine. Nothing is spawned: handlers run on submitting
    /// threads and so see their scoped ledger, lock-order recorder, fault
    /// injector and open trace span with no hand-off.
    pub fn start(
        config: PipelineConfig,
        handler: Arc<dyn Handler>,
        admission: Arc<dyn Admission>,
    ) -> Arc<Pipeline> {
        let mut config = config;
        config.workers = config.workers.max(1);
        config.quantum = config.quantum.max(1);
        config.queue_depth = config.queue_depth.max(1);
        config.max_classes = config.max_classes.max(1);

        Arc::new(Pipeline {
            config,
            handler,
            admission,
            state: Mutex::new("net.pipeline", SchedState::default()),
            stopped: AtomicBool::new(false),
            stats: PipelineStats::default(),
        })
    }

    /// Run one request through classify → charge → admit → execute →
    /// charge on the calling (connection) thread. Blocks only while the
    /// request waits for a slot, for at most `response_timeout`.
    pub fn submit(&self, request: Request, peer: SocketAddr) -> Response {
        if self.stopped.load(Ordering::SeqCst) {
            return shed_response("shutting down", RETRY_AFTER_FLOOR);
        }
        let class = self.admission.classify(&request, peer);
        let label = self.admission.telemetry_label(&class);
        // Wire-cost estimate: request line + body, plus a small fixed
        // overhead for headers we don't re-serialize.
        let req_bytes = (request.path.len() + request.body.len() + 64) as u64;
        if let Err(denied) = self.admission.charge(&class, ChargePoint::Request, req_bytes) {
            self.stats.quota_denied.fetch_add(1, Ordering::Relaxed);
            return quota_response(&class, &denied);
        }

        let slots = self.config.workers;
        let forced_full = self
            .config
            .chaos
            .as_ref()
            .map(|c| c.roll(w5_chaos::Site::NetQueueFull).is_some())
            .unwrap_or(false);
        let key = class.key();
        let placement = {
            let mut st = self.state.lock();
            let depth = st.queues.get(&key).map(|q| q.tickets.len()).unwrap_or(0);
            let table_full =
                !st.queues.contains_key(&key) && st.queues.len() >= self.config.max_classes;
            if forced_full || depth >= self.config.queue_depth || table_full {
                Placement::Shed(depth)
            } else if st.depth == 0 && st.running < slots {
                st.running += 1;
                Placement::Run(st.running)
            } else {
                let (grant, granted) = sync_channel(1);
                let id = st.next_ticket_id;
                st.next_ticket_id += 1;
                st.depth += 1;
                let SchedState { queues, order, .. } = &mut *st;
                let q = queues.entry(key.clone()).or_insert_with(|| {
                    order.push_back(key.clone());
                    // A class enters holding its quantum: entering empty
                    // would send it to the back once more on its first
                    // visit, behind the flooder it was already waiting on.
                    ClassQueue { tickets: VecDeque::new(), deficit: self.config.quantum }
                });
                q.tickets.push_back(Ticket { id, grant });
                Placement::Wait { id, granted, depth: q.tickets.len() }
            }
        };

        let busy = match placement {
            Placement::Shed(depth) => {
                // Retry-After derives from THIS class's depth and the
                // static slot count only — another principal's queue must
                // not modulate it (see tests/noninterference.rs).
                let retry = RETRY_AFTER_FLOOR + (depth / slots) as u64;
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                w5_obs::record(
                    &label,
                    w5_obs::EventKind::QueueShed {
                        class: key,
                        depth: depth as u64,
                        retry_after: retry,
                    },
                );
                return shed_response("class queue full: request shed", retry);
            }
            Placement::Run(busy) => {
                self.note_admit(&label, key, 0);
                busy
            }
            Placement::Wait { id, granted, depth } => {
                self.note_admit(&label, key.clone(), depth);
                lockdep::blocking("net.pipeline.await_slot");
                match granted.recv_timeout(self.config.response_timeout) {
                    Ok(busy) => busy,
                    Err(_) => {
                        // Leave the queue so the handler never runs for a
                        // client that was told 503. If a grant raced the
                        // timeout in, the slot is ours: hand it straight on.
                        let withdrawn = withdraw(&mut self.state.lock(), &key, id);
                        if !withdrawn {
                            drop(Slot(self));
                        }
                        return shed_response("request timed out in pipeline", RETRY_AFTER_FLOOR);
                    }
                }
            }
        };

        let _slot = Slot(self);
        w5_obs::record(
            &w5_obs::ObsLabel::empty(),
            w5_obs::EventKind::WorkerOccupancy { busy: busy as u64, workers: slots as u64 },
        );
        if let Some(chaos) = &self.config.chaos {
            if chaos.roll(w5_chaos::Site::NetSlowWorker).is_some() {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let handler = &self.handler;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler.handle(request, peer)
        })) {
            Ok(resp) => {
                let bytes = resp.body.len() as u64;
                match self.admission.charge(&class, ChargePoint::Response, bytes) {
                    Ok(()) => {
                        self.stats.served.fetch_add(1, Ordering::Relaxed);
                        resp
                    }
                    Err(denied) => {
                        // The body is withheld: the principal's budget
                        // could not cover exporting it.
                        self.stats.quota_denied.fetch_add(1, Ordering::Relaxed);
                        quota_response(&class, &denied)
                    }
                }
            }
            Err(_) => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                Response::error(Status::INTERNAL_ERROR, "application error")
            }
        }
    }

    fn note_admit(&self, label: &w5_obs::ObsLabel, class: String, depth: usize) {
        self.stats.admitted.fetch_add(1, Ordering::Relaxed);
        w5_obs::record(label, w5_obs::EventKind::QueueAdmit { class, depth: depth as u64 });
    }

    /// Total queued (not yet executing) requests. Trusted-observer gauge
    /// for tests and benches.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().depth
    }

    /// Handler slots currently taken.
    pub fn busy_workers(&self) -> usize {
        self.state.lock().running
    }

    /// Refuse new requests with 503. Requests already queued keep their
    /// tickets and are granted slots as running handlers finish (a ticket
    /// only ever waits behind a full set of them). Idempotent.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
    }
}

impl Serve for Pipeline {
    fn serve(&self, request: Request, peer: SocketAddr) -> Response {
        self.submit(request, peer)
    }

    fn stop(&self) {
        Pipeline::stop(self)
    }
}

/// Deficit round-robin dequeue. Each live class key appears exactly once
/// in `order`; a class with deficit left keeps the front of the rotation
/// (batch service up to `quantum`), an exhausted class is refreshed and
/// rotated to the back, a drained class is removed entirely (the class
/// table only holds live classes).
fn next_ticket(st: &mut SchedState, quantum: u64) -> Option<Ticket> {
    while let Some(key) = st.order.pop_front() {
        let Some(q) = st.queues.get_mut(&key) else { continue };
        if q.deficit == 0 && !q.tickets.is_empty() {
            q.deficit = quantum;
            st.order.push_back(key);
            continue;
        }
        let Some(ticket) = q.tickets.pop_front() else {
            st.queues.remove(&key);
            continue;
        };
        q.deficit -= 1;
        st.depth -= 1;
        if q.tickets.is_empty() {
            q.deficit = 0;
            st.queues.remove(&key);
        } else {
            st.order.push_front(key);
        }
        return Some(ticket);
    }
    None
}

/// Take ticket `id` back out of class `key`'s queue. `false` means it is
/// no longer queued: a grant already popped it.
fn withdraw(st: &mut SchedState, key: &str, id: u64) -> bool {
    let Some(q) = st.queues.get_mut(key) else { return false };
    let Some(pos) = q.tickets.iter().position(|t| t.id == id) else { return false };
    q.tickets.remove(pos);
    st.depth -= 1;
    if q.tickets.is_empty() {
        st.queues.remove(key);
        st.order.retain(|k| k != key);
    }
    true
}

/// Render a fault-report log line exactly like
/// `w5_platform::faultreport::FaultReport::to_log_line`, without pulling
/// the platform crate in as a dependency. `None` detail means redacted.
/// A platform-side test pins the two formats together.
pub fn fault_line(app: &str, kind: &str, detail: Option<&str>) -> String {
    match detail {
        Some(d) => format!("fault app={app} kind={kind} detail={d:?}"),
        None => format!("fault app={app} kind={kind} detail=<redacted>"),
    }
}

fn shed_response(reason: &str, retry_after: u64) -> Response {
    Response::error(
        Status::SERVICE_UNAVAILABLE,
        &fault_line("net/pipeline", "infrastructure", Some(reason)),
    )
    .with_header("retry-after", &retry_after.to_string())
}

fn quota_response(class: &PrincipalClass, denied: &ChargeDenied) -> Response {
    let app = format!("net/{}", class.key());
    let detail = if denied.redacted { None } else { Some(denied.detail.as_str()) };
    Response::error(Status::TOO_MANY_REQUESTS, &fault_line(&app, "quota-exceeded", detail))
        .with_header("retry-after", &denied.retry_after.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn req(path: &str) -> Request {
        Request::get(path)
    }

    fn peer() -> SocketAddr {
        "127.0.0.1:9999".parse().unwrap()
    }

    fn echo_pipeline(config: PipelineConfig) -> Arc<Pipeline> {
        Pipeline::start(
            config,
            Arc::new(|r: Request, _| Response::text(format!("{} {}", r.method, r.path))),
            Arc::new(OpenAdmission),
        )
    }

    #[test]
    fn serves_and_stops() {
        let p = echo_pipeline(PipelineConfig::default());
        let resp = p.submit(req("/hello"), peer());
        assert_eq!(resp.status, Status::OK);
        assert_eq!(String::from_utf8_lossy(&resp.body), "GET /hello");
        assert_eq!(p.stats.snapshot().served, 1);
        p.stop();
        // After stop, submits shed instead of hanging.
        let resp = p.submit(req("/late"), peer());
        assert_eq!(resp.status, Status::SERVICE_UNAVAILABLE);
        assert!(resp.header("retry-after").is_some());
        p.stop(); // idempotent
    }

    #[test]
    fn full_class_queue_sheds_with_retry_after_from_own_depth() {
        // One slot, held by a parked handler: the queue fills
        // deterministically.
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new("test.fixture", rx);
        let p = Pipeline::start(
            PipelineConfig {
                workers: 1,
                queue_depth: 2,
                response_timeout: Duration::from_secs(10),
                ..PipelineConfig::default()
            },
            Arc::new(move |_r: Request, _| {
                let _ = rx.lock().recv();
                Response::text("ok")
            }),
            Arc::new(OpenAdmission),
        );
        // Fill deterministically: park the first request in the only
        // slot, then queue exactly queue_depth more.
        let mut submits = Vec::new();
        {
            let ps = Arc::clone(&p);
            submits.push(std::thread::spawn(move || ps.submit(req("/0"), peer())));
        }
        for _ in 0..2000 {
            if p.busy_workers() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(p.busy_workers(), 1, "the parked request never took the slot");
        for i in 1..3 {
            let ps = Arc::clone(&p);
            let path = format!("/{i}");
            submits.push(std::thread::spawn(move || ps.submit(req(&path), peer())));
            for _ in 0..2000 {
                if p.queue_depth() == i {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(p.queue_depth(), 2, "queue never saturated");
        let resp = p.submit(req("/overflow"), peer());
        assert_eq!(resp.status, Status::SERVICE_UNAVAILABLE);
        let retry: u64 = resp.header("retry-after").unwrap().parse().unwrap();
        // floor 1 + depth 2 / 1 slot = 3.
        assert_eq!(retry, 3);
        assert_eq!(p.stats.snapshot().shed, 1);
        // Release the parked handler; everything queued completes.
        for _ in 0..3 {
            tx.send(()).unwrap();
        }
        for s in submits {
            assert_eq!(s.join().unwrap().status, Status::OK);
        }
        p.stop();
    }

    #[test]
    fn deficit_round_robin_interleaves_classes() {
        // Single slot, parked; flood class A, then add one B request.
        // With quantum 2, B must run after at most 2 more A's, not after
        // all of them.
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new("test.fixture", rx);
        let order = Arc::new(Mutex::new("test.fixture", Vec::<String>::new()));
        let order_h = Arc::clone(&order);
        let p = Pipeline::start(
            PipelineConfig {
                workers: 1,
                quantum: 2,
                queue_depth: 64,
                response_timeout: Duration::from_secs(10),
                ..PipelineConfig::default()
            },
            Arc::new(move |r: Request, _| {
                let _ = rx.lock().recv();
                order_h.lock().push(r.path.clone());
                Response::text("ok")
            }),
            Arc::new(TestAdmission),
        );
        // Park a warm-up request in the slot so enqueue order is ours.
        let warm = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.submit(req("/warm"), peer()))
        };
        for _ in 0..2000 {
            if p.busy_workers() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut waiters = Vec::new();
        for i in 0..6 {
            let ps = Arc::clone(&p);
            let path = format!("/a/{i}");
            waiters.push(std::thread::spawn(move || ps.submit(req(&path), peer())));
            for _ in 0..2000 {
                if p.queue_depth() == i + 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        {
            let p = Arc::clone(&p);
            waiters.push(std::thread::spawn(move || p.submit(req("/b/0"), peer())));
        }
        for _ in 0..2000 {
            if p.queue_depth() == 7 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(p.queue_depth(), 7, "expected 6 A + 1 B queued");
        for _ in 0..8 {
            tx.send(()).unwrap();
        }
        for w in waiters {
            assert_eq!(w.join().unwrap().status, Status::OK);
        }
        assert_eq!(warm.join().unwrap().status, Status::OK);
        let served: Vec<String> = order.lock().clone();
        let b_pos = served.iter().position(|s| s == "/b/0").expect("B was served");
        // /warm + at most quantum(2) A's may precede B.
        assert!(
            b_pos <= 3,
            "DRR failed to interleave: B served at position {b_pos} in {served:?}"
        );
        p.stop();
    }

    /// One slot; class A floods and is one grant into its quantum when a
    /// single B request queues. Returns how many more A requests are
    /// granted the slot before B is.
    fn flooder_grants_before_newcomer(quantum: u64) -> usize {
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new("test.fixture", rx);
        let started = Arc::new(Mutex::new("test.fixture", Vec::<String>::new()));
        let started_h = Arc::clone(&started);
        let p = Pipeline::start(
            PipelineConfig { workers: 1, quantum, ..PipelineConfig::default() },
            Arc::new(move |r: Request, _| {
                started_h.lock().push(r.path.clone());
                let _ = rx.lock().recv();
                Response::text("ok")
            }),
            Arc::new(TestAdmission),
        );
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            for _ in 0..2000 {
                if done() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("timed out waiting for {what}");
        };
        let submit = |path: String| {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.submit(req(&path), peer()))
        };
        let mut threads = vec![submit("/warm".into())];
        wait_for("the warm-up to take the slot", &|| p.busy_workers() == 1);
        for i in 0..8 {
            threads.push(submit(format!("/a/{i}")));
            wait_for("an A request to queue", &|| p.queue_depth() == i + 1);
        }
        // Let the warm-up finish: /a/0 is granted and parks in the handler,
        // so A is mid-quantum when B arrives.
        tx.send(()).unwrap();
        wait_for("/a/0 to start", &|| started.lock().len() == 2);
        threads.push(submit("/b/0".into()));
        wait_for("B to queue", &|| p.queue_depth() == 8);
        for _ in 0..9 {
            tx.send(()).unwrap();
        }
        for t in threads {
            assert_eq!(t.join().unwrap().status, Status::OK);
        }
        let started = started.lock();
        assert_eq!(started[..2], ["/warm", "/a/0"]);
        started.iter().position(|s| s == "/b/0").expect("B was served") - 2
    }

    #[test]
    fn newly_queued_class_waits_at_most_one_quantum_of_a_flooder() {
        for quantum in [1, 3] {
            let ahead = flooder_grants_before_newcomer(quantum);
            assert!(
                ahead as u64 <= quantum,
                "quantum {quantum}: {ahead} flooder grants between B's enqueue and B's grant"
            );
        }
    }

    /// Classifies by first path segment so tests control class placement.
    struct TestAdmission;

    impl Admission for TestAdmission {
        fn classify(&self, request: &Request, _peer: SocketAddr) -> PrincipalClass {
            let seg = request.path.split('/').nth(1).unwrap_or("");
            match seg {
                "" => PrincipalClass::Anonymous,
                s => PrincipalClass::Session(s.to_string()),
            }
        }

        fn charge(
            &self,
            _class: &PrincipalClass,
            _point: ChargePoint,
            _bytes: u64,
        ) -> Result<(), ChargeDenied> {
            Ok(())
        }
    }

    #[test]
    fn request_charge_denial_is_429_with_fault_body() {
        struct Broke;
        impl Admission for Broke {
            fn classify(&self, _r: &Request, _p: SocketAddr) -> PrincipalClass {
                PrincipalClass::App("dev/app".into())
            }
            fn charge(
                &self,
                _class: &PrincipalClass,
                point: ChargePoint,
                _bytes: u64,
            ) -> Result<(), ChargeDenied> {
                match point {
                    ChargePoint::Request => Err(ChargeDenied {
                        detail: "network quota exhausted".into(),
                        redacted: false,
                        retry_after: 7,
                    }),
                    ChargePoint::Response => Ok(()),
                }
            }
        }
        let p = Pipeline::start(
            PipelineConfig::default(),
            Arc::new(|_r: Request, _| Response::text("unreachable")),
            Arc::new(Broke),
        );
        let resp = p.submit(req("/x"), peer());
        assert_eq!(resp.status, Status::TOO_MANY_REQUESTS);
        assert_eq!(resp.header("retry-after"), Some("7"));
        let body = String::from_utf8_lossy(&resp.body).to_string();
        assert!(
            body.contains("fault app=net/app:dev/app kind=quota-exceeded"),
            "body: {body}"
        );
        assert!(body.contains("network quota exhausted"), "body: {body}");
        assert_eq!(p.stats.snapshot().quota_denied, 1);
        assert_eq!(p.stats.snapshot().admitted, 0, "denied request must not queue");
        p.stop();
    }

    #[test]
    fn response_charge_denial_withholds_body() {
        struct ResponseBroke;
        impl Admission for ResponseBroke {
            fn classify(&self, _r: &Request, _p: SocketAddr) -> PrincipalClass {
                PrincipalClass::Session("alice".into())
            }
            fn charge(
                &self,
                _class: &PrincipalClass,
                point: ChargePoint,
                _bytes: u64,
            ) -> Result<(), ChargeDenied> {
                match point {
                    ChargePoint::Request => Ok(()),
                    ChargePoint::Response => Err(ChargeDenied {
                        detail: "secret budget state".into(),
                        redacted: true,
                        retry_after: 2,
                    }),
                }
            }
        }
        let p = Pipeline::start(
            PipelineConfig::default(),
            Arc::new(|_r: Request, _| Response::text("the secret payload")),
            Arc::new(ResponseBroke),
        );
        let resp = p.submit(req("/x"), peer());
        assert_eq!(resp.status, Status::TOO_MANY_REQUESTS);
        let body = String::from_utf8_lossy(&resp.body).to_string();
        assert!(!body.contains("secret payload"), "body leaked: {body}");
        assert!(body.contains("detail=<redacted>"), "body: {body}");
        p.stop();
    }

    #[test]
    fn worker_survives_handler_panic_and_serves_next_request() {
        let p = Pipeline::start(
            PipelineConfig { workers: 1, ..PipelineConfig::default() },
            Arc::new(|r: Request, _| {
                if r.path == "/boom" {
                    panic!("handler exploded");
                }
                Response::text("fine")
            }),
            Arc::new(OpenAdmission),
        );
        let resp = p.submit(req("/boom"), peer());
        assert_eq!(resp.status, Status::INTERNAL_ERROR);
        assert_eq!(p.stats.snapshot().panics, 1);
        // The single slot must have come back.
        assert_eq!(p.busy_workers(), 0, "handler slot leaked across a panic");
        let resp = p.submit(req("/next"), peer());
        assert_eq!(resp.status, Status::OK);
        assert_eq!(String::from_utf8_lossy(&resp.body), "fine");
        p.stop();
    }

    #[test]
    fn class_table_bound_sheds_new_classes_only() {
        let p = Pipeline::start(
            PipelineConfig { workers: 1, max_classes: 2, ..PipelineConfig::default() },
            Arc::new(|_r: Request, _| Response::text("ok")),
            Arc::new(TestAdmission),
        );
        // The class table holds only *live* (queued) classes. Driven
        // serially every request takes the free slot without queueing, so
        // the table never fills and everything is served.
        for i in 0..8 {
            let resp = p.submit(req(&format!("/u{i}/x")), peer());
            assert_eq!(resp.status, Status::OK, "drained classes must not count");
        }
        assert_eq!(p.stats.snapshot().shed, 0);
        p.stop();
    }

    #[test]
    fn timed_out_waiter_leaves_the_queue_and_its_handler_never_runs() {
        // One slot held by a gated request; a second request waits 50 ms
        // for it, is told 503 — and must then never execute, or a client
        // that retries a write would see it applied twice.
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new("test.fixture", rx);
        let ran = Arc::new(Mutex::new("test.fixture", Vec::<String>::new()));
        let ran_h = Arc::clone(&ran);
        let p = Pipeline::start(
            PipelineConfig {
                workers: 1,
                response_timeout: Duration::from_millis(50),
                ..PipelineConfig::default()
            },
            Arc::new(move |r: Request, _| {
                ran_h.lock().push(r.path.clone());
                if r.path == "/gate" {
                    let _ = rx.lock().recv();
                }
                Response::text("ok")
            }),
            Arc::new(OpenAdmission),
        );
        let gate = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.submit(req("/gate"), peer()))
        };
        for _ in 0..2000 {
            if p.busy_workers() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(p.busy_workers(), 1, "the gated request never took the slot");

        let resp = p.submit(req("/write"), peer());
        assert_eq!(resp.status, Status::SERVICE_UNAVAILABLE);
        assert!(String::from_utf8_lossy(&resp.body).contains("timed out"));
        assert_eq!(p.queue_depth(), 0, "the timed-out ticket is still queued");

        tx.send(()).unwrap();
        assert_eq!(gate.join().unwrap().status, Status::OK);
        assert_eq!(p.busy_workers(), 0, "slot leaked");
        assert_eq!(p.queue_depth(), 0);
        // The slot is free again and the next request is served.
        assert_eq!(p.submit(req("/next"), peer()).status, Status::OK);
        assert_eq!(*ran.lock(), ["/gate", "/next"], "the 503'd request must never run");
        let snap = p.stats.snapshot();
        assert_eq!((snap.admitted, snap.served), (3, 2));
        p.stop();
    }

    #[test]
    fn at_most_workers_handlers_ever_run_concurrently() {
        use std::sync::atomic::AtomicUsize;
        // Every handler parks on the gate, so the three slots fill and
        // stay full while the other 61 submitters queue behind them.
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new("test.fixture", rx);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (running_h, peak_h) = (Arc::clone(&running), Arc::clone(&peak));
        let p = Pipeline::start(
            PipelineConfig { workers: 3, ..PipelineConfig::default() },
            Arc::new(move |_r: Request, _| {
                let now = running_h.fetch_add(1, Ordering::SeqCst) + 1;
                peak_h.fetch_max(now, Ordering::SeqCst);
                let _ = rx.lock().recv();
                running_h.fetch_sub(1, Ordering::SeqCst);
                Response::text("ok")
            }),
            Arc::new(OpenAdmission),
        );
        // One class (anonymous) with the default queue_depth of 64, so
        // none of the 61 waiters is shed.
        let submits: Vec<_> = (0..64)
            .map(|i| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || p.submit(req(&format!("/{i}")), peer()))
            })
            .collect();
        for _ in 0..5000 {
            if running.load(Ordering::SeqCst) == 3 && p.queue_depth() == 61 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!((running.load(Ordering::SeqCst), p.queue_depth()), (3, 61));
        assert_eq!(p.busy_workers(), 3);
        // Drain: every release grants the slot on, never a fourth.
        for _ in 0..64 {
            tx.send(()).unwrap();
        }
        for s in submits {
            assert_eq!(s.join().unwrap().status, Status::OK);
        }
        assert_eq!(peak.load(Ordering::SeqCst), 3);
        assert_eq!((p.busy_workers(), p.queue_depth()), (0, 0));
        assert_eq!(p.stats.snapshot().served, 64);
        p.stop();
    }

    #[test]
    fn queued_requests_are_still_served_after_stop() {
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new("test.fixture", rx);
        let p = Pipeline::start(
            PipelineConfig { workers: 1, ..PipelineConfig::default() },
            Arc::new(move |_r: Request, _| {
                let _ = rx.lock().recv();
                Response::text("ok")
            }),
            Arc::new(OpenAdmission),
        );
        let submits: Vec<_> = (0..2)
            .map(|i| {
                let ps = Arc::clone(&p);
                let t = std::thread::spawn(move || ps.submit(req("/x"), peer()));
                for _ in 0..2000 {
                    if p.busy_workers() + p.queue_depth() == i + 1 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                t
            })
            .collect();
        assert_eq!((p.busy_workers(), p.queue_depth()), (1, 1));
        p.stop();
        assert_eq!(p.submit(req("/late"), peer()).status, Status::SERVICE_UNAVAILABLE);
        for _ in 0..2 {
            tx.send(()).unwrap();
        }
        for s in submits {
            assert_eq!(s.join().unwrap().status, Status::OK);
        }
        assert_eq!((p.busy_workers(), p.queue_depth()), (0, 0));
    }

    #[test]
    fn chaos_queue_full_forces_shed() {
        let injector = w5_chaos::Injector::new(
            w5_chaos::FaultPlan::new(77).with(w5_chaos::Site::NetQueueFull, 1.0),
        );
        let p = Pipeline::start(
            PipelineConfig { chaos: Some(injector), ..PipelineConfig::default() },
            Arc::new(|_r: Request, _| Response::text("ok")),
            Arc::new(OpenAdmission),
        );
        let resp = p.submit(req("/x"), peer());
        assert_eq!(resp.status, Status::SERVICE_UNAVAILABLE);
        assert!(resp.header("retry-after").is_some());
        assert_eq!(p.stats.snapshot().shed, 1);
        p.stop();
    }
}
