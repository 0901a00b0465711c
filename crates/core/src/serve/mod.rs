//! `tesc-serve` — a std-only HTTP/1.1 daemon over [`TescContext`].
//!
//! The context module made the core serving-shaped (immutable
//! versioned snapshots, non-blocking [`TescContext::snapshot`],
//! thread-safe engines); this module puts a socket in front of it.
//! The design follows the classic bounded-thread-pool server (the
//! shape YDB-class systems use per shard, scaled down to std):
//!
//! ```text
//!   accept loop ──► bounded connection queue ──► N worker threads
//!   (nonblocking,      (admission control:          (keep-alive
//!    polls shutdown)     full ⇒ 503 at the door)     request loop)
//!                                                        │
//!             ┌──────────────────────────────────────────┤
//!             ▼ queries (concurrent)                     ▼ ingests (serialized)
//!   Snapshot::engine / run_batch / rank_pairs    stage + /commit ⇒ writer path
//!   against ONE pinned snapshot per request      publishes version v+1, v+2, …
//! ```
//!
//! * **Queries never block ingestion and vice versa.** Each query
//!   pins the current snapshot (`Arc` clone) and runs entirely
//!   against it; the response echoes the snapshot version so clients
//!   can assert consistency.
//! * **Admission control is explicit.** The connection queue is
//!   bounded; when it is full the accept loop answers 503 directly
//!   and closes, so overload degrades loudly instead of queueing
//!   without bound.
//! * **Long-lived serving needs a bounded cache.** Pair servers with
//!   [`TescContext::with_cache_budget`]: the per-snapshot
//!   [`DensityCache`](crate::cache::DensityCache) then evicts under a
//!   byte budget (second-chance policy) with bit-identical results.
//! * **Workers never die.** Handlers run under `catch_unwind`; a
//!   panicking handler produces a 500 and the worker lives on.
//!
//! See `docs/SERVING.md` for the endpoint reference and operational
//! guidance, and `tests/serve.rs` for the black-box contract.

pub mod http;
pub mod json;
pub mod metrics;
mod router;

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::context::TescContext;
use http::{HttpError, Response};
use metrics::Metrics;
use tesc_graph::NodeId;

/// Tuning knobs for [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads; each serves one connection at a time.
    pub workers: usize,
    /// Accepted-but-unserved connections held before the accept loop
    /// starts answering 503.
    pub queue_depth: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Enable the test-only endpoints (`POST /sleep`). Integration
    /// suites use them to make timing-sensitive behavior
    /// deterministic; production configs leave this off.
    pub debug_endpoints: bool,
    /// Append one JSON line per handled request (`ts_us`, `endpoint`,
    /// `status`, `bytes`, `us`, `version`) to this file. `None`
    /// disables access logging.
    pub access_log: Option<PathBuf>,
    /// Deadline applied to query requests that do not carry their own
    /// `deadline_ms`. `None` leaves such requests unbudgeted.
    pub default_deadline: Option<Duration>,
    /// Hard cap on per-request `deadline_ms` values; larger requests
    /// are clamped down to this. `None` accepts any client deadline.
    pub max_deadline: Option<Duration>,
    /// Slowloris guard: total wall-clock budget for reading one
    /// request (head + body) once its first byte arrives. Clients that
    /// trickle bytes slower than this get a 408 and the connection
    /// closed.
    pub max_request_read: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            max_body_bytes: 1 << 20,
            debug_endpoints: false,
            access_log: None,
            default_deadline: None,
            max_deadline: None,
            max_request_read: Duration::from_secs(5),
        }
    }
}

/// Edge/event deltas staged by `POST /edges` / `POST /events`,
/// applied atomically by `POST /commit`.
#[derive(Debug, Default)]
pub(crate) struct Staged {
    pub(crate) edges: Vec<(NodeId, NodeId)>,
    pub(crate) events: Vec<(String, Vec<NodeId>)>,
}

/// Bounded MPMC hand-off between the accept loop and the workers.
///
/// `push` fails (returning the connection) when the queue is at
/// capacity — that is the admission-control point. `pop` blocks until
/// a connection arrives or the queue is closed *and* drained, which
/// is exactly the graceful-shutdown contract: queued connections are
/// still served after shutdown begins.
#[derive(Debug)]
pub(crate) struct ConnQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueInner {
    /// Accepted connections with their enqueue instants, so workers
    /// can report queue-wait time to the metrics histogram.
    items: VecDeque<(TcpStream, Instant)>,
    closed: bool,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue a connection; gives it back, tagged with the rejection
    /// cause, if the queue is full or closed (the caller answers 503).
    fn push(&self, stream: TcpStream) -> Result<(), (TcpStream, metrics::RejectCause)> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return Err((stream, metrics::RejectCause::ShuttingDown));
        }
        if inner.items.len() >= self.capacity {
            return Err((stream, metrics::RejectCause::QueueFull));
        }
        inner.items.push_back((stream, Instant::now()));
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue the next connection and its enqueue instant; `None`
    /// once closed and drained.
    fn pop(&self) -> Option<(TcpStream, Instant)> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(entry) = inner.items.pop_front() {
                return Some(entry);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue lock poisoned");
        }
    }

    /// Stop accepting new connections and wake blocked workers; the
    /// backlog still drains.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("queue lock poisoned").closed = true;
        self.ready.notify_all();
    }
}

/// Everything the handlers see. One instance per server, shared by
/// the accept loop and all workers.
#[derive(Debug)]
pub(crate) struct ServerState {
    pub(crate) ctx: TescContext,
    pub(crate) staged: Mutex<Staged>,
    pub(crate) metrics: Metrics,
    pub(crate) queue: ConnQueue,
    pub(crate) shutdown: AtomicBool,
    pub(crate) debug_endpoints: bool,
    pub(crate) queue_depth: usize,
    pub(crate) workers: usize,
    pub(crate) max_body_bytes: usize,
    pub(crate) default_deadline: Option<Duration>,
    pub(crate) max_deadline: Option<Duration>,
    pub(crate) max_request_read: Duration,
    pub(crate) started: Instant,
    /// Structured access log sink (append mode, flushed per record so
    /// lines survive a crash of the daemon).
    access_log: Option<Mutex<BufWriter<File>>>,
}

impl ServerState {
    /// Append one JSON line to the access log (no-op when disabled).
    /// `bytes` is the response body length; `version` the context
    /// version at response time.
    fn log_access(&self, endpoint: &str, status: u16, bytes: usize, elapsed: Duration) {
        let Some(log) = &self.access_log else { return };
        let ts_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let line = format!(
            "{{\"ts_us\":{ts_us},\"endpoint\":\"{endpoint}\",\"status\":{status},\
             \"bytes\":{bytes},\"us\":{},\"version\":{}}}\n",
            elapsed.as_micros() as u64,
            self.ctx.version(),
        );
        let mut w = log.lock().expect("access log lock poisoned");
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }
}

/// A running server: the listener thread, the worker pool, and the
/// handles to stop them.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, start the worker pool and the accept loop, and return.
    /// The server owns `ctx`; point clients at [`Server::addr`].
    pub fn spawn(ctx: TescContext, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let access_log = match &cfg.access_log {
            Some(path) => Some(Mutex::new(BufWriter::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ))),
            None => None,
        };
        let state = Arc::new(ServerState {
            ctx,
            staged: Mutex::new(Staged::default()),
            metrics: Metrics::default(),
            queue: ConnQueue::new(cfg.queue_depth.max(1)),
            shutdown: AtomicBool::new(false),
            debug_endpoints: cfg.debug_endpoints,
            queue_depth: cfg.queue_depth.max(1),
            workers,
            max_body_bytes: cfg.max_body_bytes,
            default_deadline: cfg.default_deadline,
            max_deadline: cfg.max_deadline,
            max_request_read: cfg.max_request_read,
            started: Instant::now(),
            access_log,
        });

        let worker_handles = (0..workers)
            .map(|i| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("tesc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker thread")
            })
            .collect();
        let accept_state = state.clone();
        let accept_handle = std::thread::Builder::new()
            .name("tesc-serve-accept".into())
            .spawn(move || accept_loop(listener, &accept_state))
            .expect("spawn accept thread");

        Ok(Server {
            addr,
            state,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (use this after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Has shutdown been requested (via [`Server::shutdown`] or
    /// `POST /shutdown`)?
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown from outside (equivalent to `POST /shutdown`).
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.queue.close();
    }

    /// Block until the accept loop and every worker have exited —
    /// i.e. until all queued connections have drained. Call after
    /// [`Server::shutdown`] (or let `POST /shutdown` trigger it).
    pub fn join(mut self) {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Shut down and wait for the drain in one call.
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// How often the nonblocking accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Idle read timeout on worker connections: bounds how long a worker
/// camps on a silent keep-alive peer before re-checking shutdown.
const IDLE_TICK: Duration = Duration::from_millis(50);

fn accept_loop(listener: TcpListener, state: &ServerState) {
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            state.queue.close();
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                if let Err((mut rejected, cause)) = state.queue.push(stream) {
                    // Admission control: the pool is saturated (or
                    // draining for shutdown). Answer at the door so
                    // the client sees backpressure instead of an
                    // unbounded queue, with a Retry-After hint.
                    state.metrics.record_rejected_connection(cause);
                    let message = match cause {
                        metrics::RejectCause::QueueFull => "server is at capacity",
                        metrics::RejectCause::ShuttingDown => "server is shutting down",
                    };
                    let resp =
                        Response::error(503, "Service Unavailable", message).with_retry_after(1);
                    let _ = rejected.set_write_timeout(Some(Duration::from_millis(500)));
                    let _ = resp.send(&mut rejected, true);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn worker_loop(state: &ServerState) {
    while let Some((stream, enqueued)) = state.queue.pop() {
        state.metrics.record_queue_wait(enqueued.elapsed());
        serve_connection(state, stream);
    }
}

/// Serve one connection: a keep-alive loop of read → route → respond.
/// In-flight requests always complete; after shutdown is requested
/// the final response carries `Connection: close` and the loop ends.
fn serve_connection(state: &ServerState, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IDLE_TICK));
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut stream = stream;
    loop {
        let request =
            match http::read_request(&mut reader, state.max_body_bytes, state.max_request_read) {
                Ok(req) => req,
                Err(HttpError::IdleTimeout) => {
                    if state.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
                Err(e) => {
                    if let Some((status, reason)) = e.status() {
                        let resp = Response::error(status, reason, &e.message());
                        state
                            .metrics
                            .endpoint("other")
                            .record(status, Duration::ZERO);
                        state.log_access("other", status, resp.body.len(), Duration::ZERO);
                        let _ = resp.send(&mut stream, true);
                    }
                    return;
                }
            };
        let start = Instant::now();
        let (endpoint, response) =
            match std::panic::catch_unwind(AssertUnwindSafe(|| router::route(state, &request))) {
                Ok(handled) => handled,
                Err(_) => (
                    "other",
                    Response::error(
                        500,
                        "Internal Server Error",
                        "handler panicked; see server logs",
                    ),
                ),
            };
        state
            .metrics
            .endpoint(endpoint)
            .record(response.status, start.elapsed());
        state.log_access(
            endpoint,
            response.status,
            response.body.len(),
            start.elapsed(),
        );
        let closing = !request.keep_alive || state.shutdown.load(Ordering::SeqCst);
        if response.send(&mut stream, closing).is_err() || closing {
            let _ = stream.flush();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_accepts_up_to_capacity_then_rejects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let queue = ConnQueue::new(2);
        let c1 = TcpStream::connect(addr).unwrap();
        let c2 = TcpStream::connect(addr).unwrap();
        let c3 = TcpStream::connect(addr).unwrap();
        assert!(queue.push(c1).is_ok());
        assert!(queue.push(c2).is_ok());
        match queue.push(c3) {
            Err((_, cause)) => assert_eq!(cause, metrics::RejectCause::QueueFull),
            Ok(()) => panic!("full queue must return the stream"),
        }
        assert!(queue.pop().is_some());
        let c4 = TcpStream::connect(addr).unwrap();
        assert!(queue.push(c4).is_ok(), "popping frees a slot");
    }

    use json::Json;

    /// One request on a fresh `Connection: close` socket: `(status, body)`.
    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
        use std::io::Read;
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        (status, Json::parse(body).unwrap())
    }

    fn durability_stats(addr: SocketAddr) -> (bool, bool) {
        let (status, stats) = request(addr, "GET", "/stats", "");
        assert_eq!(status, 200);
        let d = stats.get("durability").expect("durability object");
        let flag = |key| d.get(key).and_then(Json::as_bool).unwrap();
        (flag("attached"), flag("writer_failed"))
    }

    #[test]
    fn stats_report_a_failed_wal_writer() {
        let ctx = || TescContext::new(tesc_graph::generators::grid(6, 6), Default::default(), 1);
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::spawn(ctx(), cfg.clone()).unwrap();
        assert_eq!(durability_stats(server.addr()), (false, false));
        server.shutdown_and_join();

        let dir =
            std::env::temp_dir().join(format!("tesc-serve-durability-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let durable = ctx()
            .with_durability(&dir, crate::persist::StoreOptions::default())
            .unwrap();
        let server = Server::spawn(durable, cfg).unwrap();
        let addr = server.addr();
        assert_eq!(durability_stats(addr), (true, false));
        // The append's sync and its rollback's sync both fail.
        server.state.ctx.fail_wal_syncs(2);
        request(addr, "POST", "/edges", r#"{"edges":[[0,35]]}"#);
        let (status, _) = request(addr, "POST", "/commit", "");
        assert!(status >= 500, "commit on a failing WAL answered {status}");
        assert_eq!(durability_stats(addr), (true, true));
        server.shutdown_and_join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn closed_queue_drains_then_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let queue = ConnQueue::new(4);
        queue.push(TcpStream::connect(addr).unwrap()).unwrap();
        queue.close();
        assert!(queue.pop().is_some(), "backlog still drains after close");
        assert!(queue.pop().is_none(), "then pop reports closed");
        match queue.push(TcpStream::connect(addr).unwrap()) {
            Err((_, cause)) => assert_eq!(cause, metrics::RejectCause::ShuttingDown),
            Ok(()) => panic!("closed queue must refuse new connections"),
        }
    }
}
