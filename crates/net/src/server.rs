//! The listener and the bounded worker pool that waits in epoll itself.
//!
//! ```text
//!  accept thread ──registers──▶ epoll (one-shot readable)
//!                                  │ one wake-up per ready connection
//!                                  ▼
//!                     N workers in epoll_wait ◀──▶ ready queue (backlog)
//!                                  │
//!  parked connection table ◀──re-arm/keep-alive──┘
//! ```
//!
//! A connection is **parked** (owned by the table, armed one-shot in
//! epoll) whenever no request is in flight, so ten thousand idle
//! keep-alive connections cost a file descriptor and a table entry each —
//! no thread. The workers wait on the shared epoll fd themselves. A
//! one-shot fd reports to exactly one waiter, so when bytes arrive the
//! kernel wakes one worker, and that worker takes the connection out of
//! the table, reads one full request (with the socket's read timeout as
//! the slow-client bound), calls the [`Handler`], writes the response,
//! and either re-parks + re-arms the connection or closes it. On an idle
//! pool the thread epoll wakes is the thread that serves. Pipelined
//! requests already in the connection's buffer are served before parking
//! — re-arming would never fire for bytes this process has already read.
//!
//! A worker that is the only idle one takes every ready event, serves
//! the first and queues the rest; every worker drains that queue before
//! it waits in epoll again. So a backlog behind busy workers is counted
//! in [`Pressure::queue_depth`], while an idle worker never leaves a
//! connection queued behind a request in progress.
//!
//! Protocol errors are answered with the status mapped by
//! [`HttpError::status`] (or a silent close for idle timeouts) and the
//! connection is dropped; a handler panic is caught per-request and
//! answered with `500`, so one bad request can never take the worker —
//! let alone the process — down.
//!
//! On non-Linux hosts (the epoll module is Linux-only) a portable
//! fallback serves each connection on a worker thread for its whole
//! lifetime; the API is identical, concurrency is bounded by the pool.

use crate::wire::{
    read_request_body, read_request_head, write_response, HttpError, Limits, Request, RequestHead,
    Response, DEFAULT_READ_TIMEOUT,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A live snapshot of transport pressure, handed to [`Handler::admit`]
/// so the application can decide to shed before any work is done.
#[derive(Debug, Clone, Copy)]
pub struct Pressure {
    /// Readiness taken from epoll and not yet fully served — requests in
    /// flight plus the backlog queued behind busy workers, *including*
    /// the request being admitted. It can exceed `workers`. (The portable
    /// fallback counts in-flight requests only.)
    pub queue_depth: usize,
    /// Connections currently open (parked or in flight).
    pub open_connections: usize,
    /// Worker threads in the pool.
    pub workers: usize,
}

/// The admission decision a [`Handler`] makes before a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the handler.
    Accept,
    /// Don't: answer a fast `503 overloaded` with a `Retry-After`
    /// header. Costs microseconds, sheds the work — including the body
    /// transfer: the decision is made on the framed head, and a body
    /// still in flight is never waited out (the connection closes with
    /// the refusal instead).
    Shed {
        /// Seconds the client should wait before retrying.
        retry_after_s: u32,
    },
}

/// The application half of the server: turns one request into one
/// response. Implementations must be shareable across the worker pool.
pub trait Handler: Send + Sync + 'static {
    /// Handles one parsed request.
    fn handle(&self, request: &Request) -> Response;

    /// A fast admission check run on the framed request head — *before*
    /// the body is read, before [`Handler::handle`] — with live
    /// transport pressure. The default accepts everything; an overloaded
    /// service returns [`Admission::Shed`] for work it would rather
    /// reject in microseconds than serve in seconds.
    fn admit(&self, _head: &RequestHead, _pressure: Pressure) -> Admission {
        Admission::Accept
    }
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, request: &Request) -> Response {
        self(request)
    }
}

/// Transport configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Worker threads reading requests and running the handler.
    pub workers: usize,
    /// Open-connection ceiling; connections past it are answered `503`
    /// and closed at accept time.
    pub max_connections: usize,
    /// Per-read socket timeout — the bound on a slow or stalled client
    /// holding a worker mid-request (and, in the portable fallback, the
    /// keep-alive idle bound).
    pub read_timeout: Duration,
    /// Wire-level size ceilings ([`Limits`]).
    pub limits: Limits,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 8,
            max_connections: 4096,
            read_timeout: DEFAULT_READ_TIMEOUT,
            limits: Limits::default(),
        }
    }
}

/// Live transport counters, all monotonic except `open_connections`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused with `503` at the `max_connections` ceiling.
    pub rejected: u64,
    /// Connections currently open (parked or in flight).
    pub open_connections: usize,
    /// Requests fully parsed and handled (shed requests not included).
    pub requests: u64,
    /// Requests answered with a wire-level error status (`400`, `408`,
    /// `413`, `431`, `501`) or dropped mid-message. Idle timeouts and
    /// peer resets have their own counters and are not in here.
    pub protocol_errors: u64,
    /// Handler panics caught and answered with `500`.
    pub handler_panics: u64,
    /// Parked keep-alive connections closed for idling past the read
    /// timeout — routine housekeeping, not an error.
    pub idle_timeouts: u64,
    /// Connections the peer reset (RST / abort / broken pipe) mid-use.
    pub peer_resets: u64,
    /// Requests rejected by [`Handler::admit`] with a fast `503`.
    pub shed: u64,
    /// Requests whose deadline lapsed before the handler ran — on
    /// arrival at a worker, or while the body was still being read.
    /// Answered `504`; never counted as a protocol error.
    pub deadlines_exceeded: u64,
    /// Readiness taken from epoll and not yet fully served: requests in
    /// flight plus the backlog queued behind busy workers (the live
    /// [`Pressure::queue_depth`]).
    pub queue_depth: usize,
}

/// Shared across the accept thread and the workers.
struct Shared {
    handler: Arc<dyn Handler>,
    config: NetConfig,
    shutdown: AtomicBool,
    /// Parked connections, keyed by token.
    parked: Mutex<HashMap<u64, Conn>>,
    #[cfg(target_os = "linux")]
    epoll: crate::sys::Epoll,
    #[cfg(target_os = "linux")]
    ready: Mutex<Ready>,
    accepted: AtomicU64,
    rejected: AtomicU64,
    open: AtomicUsize,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    handler_panics: AtomicU64,
    idle_timeouts: AtomicU64,
    peer_resets: AtomicU64,
    shed: AtomicU64,
    deadlines_exceeded: AtomicU64,
    depth: AtomicUsize,
}

/// One connection between requests: the socket plus any buffered bytes a
/// previous read pulled in past the last message boundary.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// What to do with the connection after serving from it.
enum Served {
    /// Keep the connection; more buffered bytes may follow.
    KeepAlive,
    /// Close it (response asked, protocol error, or socket error).
    Close,
}

/// Holds one unit of worker queue depth for a scope. The portable
/// fallback uses it to count only in-flight requests (head framed →
/// response written) — never a parked keep-alive connection idling on
/// its worker — so idle connections cannot masquerade as queue pressure.
struct DepthGuard<'a>(&'a AtomicUsize);

impl<'a> DepthGuard<'a> {
    fn hold(depth: &'a AtomicUsize) -> DepthGuard<'a> {
        depth.fetch_add(1, Ordering::Relaxed);
        DepthGuard(depth)
    }
}

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Shared {
    /// Accounts one failed read to the right counter and answers it
    /// (when the error taxonomy says an answer is owed). Always closes.
    fn fail_read(&self, conn: &mut Conn, error: HttpError) -> Served {
        match &error {
            HttpError::Closed => {}
            HttpError::IdleTimeout => {
                self.idle_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            HttpError::Reset => {
                self.peer_resets.fetch_add(1, Ordering::Relaxed);
            }
            HttpError::DeadlineLapsed => {
                // The client spent its own budget on the upload: a
                // lapsed deadline, not a protocol error — operators and
                // CI treat `protocol_errors` as a must-be-zero signal.
                self.deadlines_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(status) = error.status() {
            let response = Response::error(status, error.code(), &error.to_string()).closing();
            let _ = write_response(&mut conn.stream, &response);
        }
        Served::Close
    }

    /// Reads + handles exactly one request on `conn`. The caller owns the
    /// connection for the duration. `track_depth` is set by the portable
    /// fallback, where no epoll wake-up is counted: the depth is then
    /// held here, per in-flight request.
    fn serve_one(&self, conn: &mut Conn, track_depth: bool) -> Served {
        let head = match read_request_head(&mut conn.stream, &mut conn.buf, &self.config.limits) {
            Ok(head) => head,
            Err(error) => return self.fail_read(conn, error),
        };
        let _depth = track_depth.then(|| DepthGuard::hold(&self.depth));
        // Admission: the handler may shed in microseconds what it cannot
        // afford to serve in seconds. Decided on the head alone, so a
        // shed POST never occupies this worker for its body transfer.
        let pressure = Pressure {
            queue_depth: self.depth.load(Ordering::Relaxed),
            open_connections: self.open.load(Ordering::Relaxed),
            workers: self.config.workers.max(1),
        };
        if let Admission::Shed { retry_after_s } = self.handler.admit(&head, pressure) {
            self.shed.fetch_add(1, Ordering::Relaxed);
            // If the peer already delivered the whole body, drop it and
            // keep the connection; otherwise answer-and-close so the
            // unread bytes die with the socket instead of holding the
            // worker at the peer's pace.
            let body_buffered = conn.buf.len() >= head.content_length;
            if body_buffered {
                conn.buf.drain(..head.content_length);
            }
            let mut response =
                Response::error(503, "overloaded", "server is shedding load; retry later");
            response
                .headers
                .push(("retry-after".into(), retry_after_s.to_string()));
            response.close = head.close || !body_buffered;
            if write_response(&mut conn.stream, &response).is_err() || response.close {
                return Served::Close;
            }
            return Served::KeepAlive;
        }
        let request =
            match read_request_body(&mut conn.stream, &mut conn.buf, head, &self.config.limits) {
                Ok(request) => request,
                Err(error) => return self.fail_read(conn, error),
            };
        // A request whose client already gave up is not worth running —
        // and must never reach a durable append it would orphan.
        if request.expired() {
            self.deadlines_exceeded.fetch_add(1, Ordering::Relaxed);
            let mut response = Response::error(
                504,
                "deadline_exceeded",
                "request deadline lapsed before the work ran",
            );
            response.close = request.close;
            if write_response(&mut conn.stream, &response).is_err() || response.close {
                return Served::Close;
            }
            return Served::KeepAlive;
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        // A panicking handler answers 500 and costs the request, not the
        // worker: the session table and registry are lock-poisoning-free
        // (parking_lot), so the service stays coherent.
        let handler = Arc::clone(&self.handler);
        let mut response =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler.handle(&request)))
                .unwrap_or_else(|_| {
                    self.handler_panics.fetch_add(1, Ordering::Relaxed);
                    Response::error(500, "internal", "handler panicked").closing()
                });
        if request.close {
            response.close = true;
        }
        if write_response(&mut conn.stream, &response).is_err() || response.close {
            return Served::Close;
        }
        Served::KeepAlive
    }

    fn close_conn(&self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            open_connections: self.open.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
            idle_timeouts: self.idle_timeouts.load(Ordering::Relaxed),
            peer_resets: self.peer_resets.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadlines_exceeded: self.deadlines_exceeded.load(Ordering::Relaxed),
            queue_depth: self.depth.load(Ordering::Relaxed),
        }
    }
}

/// Readiness handed between Linux workers: tokens a worker took from
/// epoll beyond the one it serves, and how many workers are waiting in
/// (or about to enter) `epoll_wait`. One lock guards both, so a token is
/// queued only while no worker sleeps in epoll unable to see it.
#[cfg(target_os = "linux")]
#[derive(Default)]
struct Ready {
    tokens: std::collections::VecDeque<u64>,
    idle: usize,
}

#[cfg(target_os = "linux")]
impl Shared {
    /// The next parked connection for this worker to serve: a token
    /// another worker queued, else one from `epoll_wait` (`None` when the
    /// wait times out). Every token returned is already in `depth`.
    ///
    /// The only idle worker takes every ready event, serves the first and
    /// queues the rest, so a backlog behind busy workers shows in
    /// `depth`. With other workers idle it takes one, leaving the rest in
    /// epoll to wake them — nothing waits behind a request in progress.
    fn next_ready(&self, events: &mut Vec<crate::sys::EpollEvent>) -> std::io::Result<Option<u64>> {
        let only_idle = {
            let mut ready = self.ready.lock().expect("not poisoned");
            if let Some(token) = ready.tokens.pop_front() {
                return Ok(Some(token));
            }
            ready.idle += 1;
            ready.idle == 1
        };
        let max = if only_idle { events.capacity() } else { 1 };
        let waited = self.epoll.wait(events, max, 100);
        let mut ready = self.ready.lock().expect("not poisoned");
        ready.idle -= 1;
        waited?;
        let Some((first, rest)) = events.split_first() else {
            return Ok(None);
        };
        self.depth.fetch_add(1 + rest.len(), Ordering::Relaxed);
        if ready.idle == 0 {
            ready.tokens.extend(rest.iter().map(|event| event.data));
        } else {
            // Other workers are idle: hand the surplus back to epoll,
            // which wakes them for it.
            drop(ready);
            for event in rest {
                self.hand_back(event.data);
            }
        }
        Ok(Some(first.data))
    }

    /// Re-arms a connection taken from epoll but not served here, and
    /// releases the unit of `depth` it carried.
    fn hand_back(&self, token: u64) {
        use std::os::fd::AsRawFd;
        self.depth.fetch_sub(1, Ordering::Relaxed);
        let mut parked = self.parked.lock().expect("not poisoned");
        let Some(fd) = parked.get(&token).map(|conn| conn.stream.as_raw_fd()) else {
            return;
        };
        if self.epoll.rearm(fd, token).is_err() {
            parked.remove(&token);
            self.close_conn();
        }
    }

    /// Claims the parked connection `token`, serves the request that woke
    /// it (and any pipelined behind it), then re-parks + re-arms it or
    /// closes it. Releases the unit of `depth` the token carried.
    fn serve_parked(&self, token: u64) {
        use std::os::fd::AsRawFd;
        // A token may outlive its connection (closed by a racing error
        // path); missing entries are stale.
        let conn = self.parked.lock().expect("not poisoned").remove(&token);
        let Some(mut conn) = conn else {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return;
        };
        let served = loop {
            match self.serve_one(&mut conn, false) {
                // Pipelined: the next request is already in userspace,
                // epoll would never fire.
                Served::KeepAlive if !conn.buf.is_empty() => continue,
                served => break served,
            }
        };
        // Served: release the depth before the connection can wake a
        // worker again, so one connection never counts twice.
        self.depth.fetch_sub(1, Ordering::Relaxed);
        match served {
            Served::Close => self.close_conn(),
            Served::KeepAlive => {
                let fd = conn.stream.as_raw_fd();
                self.parked
                    .lock()
                    .expect("not poisoned")
                    .insert(token, conn);
                if self.epoll.rearm(fd, token).is_err() {
                    self.parked.lock().expect("not poisoned").remove(&token);
                    self.close_conn();
                }
            }
        }
    }
}

/// A cloneable handle onto a running server's live [`NetStats`], for
/// consumers that are not the owner of the [`Server`] — e.g. the gateway
/// surfacing transport counters on `GET /v1/stats`.
#[derive(Clone)]
pub struct StatsHandle {
    shared: Arc<Shared>,
}

impl StatsHandle {
    /// A snapshot of the transport counters.
    pub fn snapshot(&self) -> NetStats {
        self.shared.snapshot()
    }
}

impl std::fmt::Debug for StatsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsHandle")
            .field("stats", &self.shared.snapshot())
            .finish()
    }
}

/// A running HTTP server. Dropping it shuts it down gracefully.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (`"127.0.0.1:0"` picks a free loopback port) and
    /// starts the accept thread and `config.workers` workers. The server
    /// runs until [`Server::shutdown`] (or drop).
    pub fn bind(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn Handler>,
        config: NetConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            handler,
            config,
            shutdown: AtomicBool::new(false),
            parked: Mutex::new(HashMap::new()),
            #[cfg(target_os = "linux")]
            epoll: crate::sys::Epoll::new()?,
            #[cfg(target_os = "linux")]
            ready: Mutex::default(),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            open: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
            idle_timeouts: AtomicU64::new(0),
            peer_resets: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadlines_exceeded: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
        });
        let threads = Self::spawn_threads(&shared, listener, workers)?;
        Ok(Server {
            local_addr,
            shared,
            threads,
        })
    }

    /// The bound address (with the OS-assigned port when `:0` was asked).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the transport counters.
    pub fn stats(&self) -> NetStats {
        self.shared.snapshot()
    }

    /// A cloneable [`StatsHandle`] for consumers (like the gateway's
    /// `GET /v1/stats`) that need the live counters without owning the
    /// server.
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops accepting, drains the threads, and closes every parked
    /// connection. In-flight requests finish; parked keep-alive
    /// connections are dropped without ceremony.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept thread with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        self.shared.parked.lock().expect("not poisoned").clear();
    }

    #[cfg(target_os = "linux")]
    fn spawn_threads(
        shared: &Arc<Shared>,
        listener: TcpListener,
        workers: usize,
    ) -> std::io::Result<Vec<std::thread::JoinHandle<()>>> {
        use std::os::fd::AsRawFd;

        let mut threads = Vec::with_capacity(workers + 1);

        // Accept thread: park + arm each connection.
        {
            let shared = Arc::clone(shared);
            let next_token = AtomicU64::new(0);
            threads.push(
                std::thread::Builder::new()
                    .name("jqi-net-accept".into())
                    .spawn(move || {
                        for incoming in listener.incoming() {
                            if shared.shutdown.load(Ordering::SeqCst) {
                                break;
                            }
                            let Ok(stream) = incoming else { continue };
                            shared.accepted.fetch_add(1, Ordering::Relaxed);
                            if shared.open.load(Ordering::Relaxed) >= shared.config.max_connections
                            {
                                shared.rejected.fetch_add(1, Ordering::Relaxed);
                                let mut stream = stream;
                                let mut refusal =
                                    Response::error(503, "overloaded", "connection limit reached")
                                        .closing();
                                refusal.headers.push(("retry-after".into(), "1".into()));
                                let _ = write_response(&mut stream, &refusal);
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
                            let fd = stream.as_raw_fd();
                            let token = next_token.fetch_add(1, Ordering::Relaxed);
                            shared.open.fetch_add(1, Ordering::Relaxed);
                            shared.parked.lock().expect("not poisoned").insert(
                                token,
                                Conn {
                                    stream,
                                    buf: Vec::new(),
                                },
                            );
                            if shared.epoll.add(fd, token).is_err() {
                                shared.parked.lock().expect("not poisoned").remove(&token);
                                shared.close_conn();
                            }
                        }
                    })?,
            );
        }

        // Workers: each waits in epoll itself, serves one connection per
        // wake-up, then re-parks + re-arms it.
        for w in 0..workers {
            let shared = Arc::clone(shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("jqi-net-worker-{w}"))
                    .spawn(move || {
                        let mut events = Vec::with_capacity(256);
                        while !shared.shutdown.load(Ordering::SeqCst) {
                            match shared.next_ready(&mut events) {
                                Ok(Some(token)) => shared.serve_parked(token),
                                Ok(None) => {}
                                Err(_) => return,
                            }
                        }
                    })?,
            );
        }
        Ok(threads)
    }

    /// Portable fallback: each accepted connection is owned by one worker
    /// for its whole keep-alive lifetime (concurrency = pool size).
    #[cfg(not(target_os = "linux"))]
    fn spawn_threads(
        shared: &Arc<Shared>,
        listener: TcpListener,
        workers: usize,
    ) -> std::io::Result<Vec<std::thread::JoinHandle<()>>> {
        use std::sync::mpsc;

        let (conn_tx, conn_rx) = mpsc::channel::<Conn>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shared = Arc::clone(shared);
            threads.push(
                std::thread::Builder::new()
                    .name("jqi-net-accept".into())
                    .spawn(move || {
                        for incoming in listener.incoming() {
                            if shared.shutdown.load(Ordering::SeqCst) {
                                break;
                            }
                            let Ok(stream) = incoming else { continue };
                            shared.accepted.fetch_add(1, Ordering::Relaxed);
                            if shared.open.load(Ordering::Relaxed) >= shared.config.max_connections
                            {
                                shared.rejected.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
                            shared.open.fetch_add(1, Ordering::Relaxed);
                            if conn_tx
                                .send(Conn {
                                    stream,
                                    buf: Vec::new(),
                                })
                                .is_err()
                            {
                                break;
                            }
                        }
                    })?,
            );
        }
        for w in 0..workers {
            let shared = Arc::clone(shared);
            let conn_rx = Arc::clone(&conn_rx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("jqi-net-worker-{w}"))
                    .spawn(move || loop {
                        let conn = {
                            let rx = conn_rx.lock().expect("not poisoned");
                            match rx.recv() {
                                Ok(conn) => conn,
                                Err(_) => return,
                            }
                        };
                        let mut conn = conn;
                        // serve_one holds the queue depth per in-flight
                        // request (track_depth), so a connection idling
                        // between keep-alive requests — which occupies
                        // this worker, but queues no work — never counts
                        // as pressure.
                        loop {
                            if shared.shutdown.load(Ordering::SeqCst) {
                                break;
                            }
                            if matches!(shared.serve_one(&mut conn, true), Served::Close) {
                                break;
                            }
                        }
                        shared.close_conn();
                    })?,
            );
        }
        Ok(threads)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats())
            .finish()
    }
}

// Unused-field lint helper: the portable fallback never touches `parked`.
#[cfg(not(target_os = "linux"))]
impl Shared {
    #[allow(dead_code)]
    fn touch_parked(&self) -> usize {
        self.parked.lock().expect("not poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn echo_server() -> Server {
        let handler: Arc<dyn Handler> = Arc::new(|request: &Request| {
            if request.path == "/panic" {
                panic!("boom");
            }
            Response::json(
                200,
                format!(
                    "{{\"method\": \"{}\", \"path\": \"{}\", \"body_len\": {}}}",
                    request.method,
                    request.path,
                    request.body.len()
                ),
            )
        });
        Server::bind("127.0.0.1:0", handler, NetConfig::default()).expect("loopback bind")
    }

    #[test]
    fn serves_keep_alive_requests_over_one_connection() {
        let mut server = echo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for i in 0..10 {
            let response = client.get(&format!("/ping/{i}")).unwrap();
            assert_eq!(response.status, 200);
            assert!(response.body_str().unwrap().contains(&format!("/ping/{i}")));
        }
        let stats = server.stats();
        assert_eq!(stats.accepted, 1, "keep-alive reused the connection");
        assert_eq!(stats.requests, 10);
        server.shutdown();
    }

    #[test]
    fn serves_many_concurrent_connections_with_a_small_pool() {
        let mut server = echo_server();
        let addr = server.local_addr();
        // 64 connections, 4× the worker pool: parked connections must not
        // hold workers.
        let mut clients: Vec<Client> = (0..64).map(|_| Client::connect(addr).unwrap()).collect();
        for round in 0..3 {
            for (i, client) in clients.iter_mut().enumerate() {
                let response = client.get(&format!("/c{i}/r{round}")).unwrap();
                assert_eq!(response.status, 200);
            }
        }
        let stats = server.stats();
        assert_eq!(stats.accepted, 64);
        assert_eq!(stats.requests, 64 * 3);
        assert_eq!(stats.open_connections, 64);
        server.shutdown();
    }

    #[test]
    fn a_handler_panic_costs_the_request_not_the_server() {
        let mut server = echo_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let response = client.get("/panic").unwrap();
        assert_eq!(response.status, 500);
        assert!(response.body_str().unwrap().contains("internal"));
        // The server still answers fresh connections.
        let mut client2 = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client2.get("/ok").unwrap().status, 200);
        assert_eq!(server.stats().handler_panics, 1);
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_4xx_and_a_close() {
        use std::io::{Read, Write};
        let mut server = echo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"BOGUS\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "got {response:?}");
        assert!(response.contains("malformed_request"));
        assert_eq!(server.stats().protocol_errors, 1);
        server.shutdown();
    }

    #[test]
    fn admit_shed_answers_fast_503_with_retry_after_and_keeps_the_connection() {
        struct Shedder;
        impl Handler for Shedder {
            fn handle(&self, _: &Request) -> Response {
                Response::json(200, "{\"ok\": true}".into())
            }
            fn admit(&self, head: &RequestHead, pressure: Pressure) -> Admission {
                assert!(pressure.queue_depth >= 1, "the admitted request counts");
                assert!(pressure.workers >= 1);
                if head.path.starts_with("/cheap") {
                    Admission::Shed { retry_after_s: 3 }
                } else {
                    Admission::Accept
                }
            }
        }
        let mut server =
            Server::bind("127.0.0.1:0", Arc::new(Shedder), NetConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let response = client.get("/cheap/q").unwrap();
        assert_eq!(response.status, 503);
        assert!(response.body_str().unwrap().contains("overloaded"));
        let retry_after = response
            .headers
            .iter()
            .find(|(n, _)| n == "retry-after")
            .map(|(_, v)| v.as_str());
        assert_eq!(retry_after, Some("3"));
        // Same connection still serves accepted work.
        assert_eq!(client.get("/fine").unwrap().status, 200);
        let stats = server.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.requests, 1, "shed requests are not counted as served");
        assert_eq!(stats.protocol_errors, 0);
        server.shutdown();
    }

    #[test]
    fn a_shed_post_does_not_wait_for_its_body() {
        struct ShedEverything;
        impl Handler for ShedEverything {
            fn handle(&self, _: &Request) -> Response {
                Response::json(200, "{}".into())
            }
            fn admit(&self, _: &RequestHead, _: Pressure) -> Admission {
                Admission::Shed { retry_after_s: 1 }
            }
        }
        let mut server = Server::bind(
            "127.0.0.1:0",
            Arc::new(ShedEverything),
            NetConfig::default(),
        )
        .unwrap();
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Promise a large body and send none of it: the 503 must come
        // back immediately (with a close, since the body is in flight),
        // not after the 30 s read budget drains the transfer.
        stream
            .write_all(b"POST /x HTTP/1.1\r\ncontent-length: 500000\r\n\r\n")
            .unwrap();
        let started = std::time::Instant::now();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 503"), "got {response:?}");
        assert!(response.contains("overloaded"));
        assert!(response.contains("connection: close"), "got {response:?}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the shed waited on the body: {:?}",
            started.elapsed()
        );
        let stats = server.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.requests, 0);
        server.shutdown();
    }

    #[test]
    fn a_deadline_lapsing_mid_body_counts_as_deadline_not_protocol_error() {
        let handler: Arc<dyn Handler> = Arc::new(|_req: &Request| Response::json(200, "{}".into()));
        let config = NetConfig {
            read_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        };
        let mut server = Server::bind("127.0.0.1:0", handler, config).unwrap();
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // A 50 ms deadline against a 1000-byte promise that never
        // arrives: the deadline lapses first (long before the read
        // budget), and the answer is a 504, accounted as a lapsed
        // deadline.
        stream
            .write_all(b"POST /x HTTP/1.1\r\nx-deadline-ms: 50\r\ncontent-length: 1000\r\n\r\nxx")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 504"), "got {response:?}");
        assert!(response.contains("deadline_exceeded"));
        let stats = server.stats();
        assert_eq!(stats.deadlines_exceeded, 1, "{stats:?}");
        assert_eq!(stats.protocol_errors, 0, "{stats:?}");
        assert_eq!(stats.requests, 0);
        server.shutdown();
    }

    #[test]
    fn an_expired_deadline_gets_504_without_running_the_handler() {
        let ran = Arc::new(AtomicU64::new(0));
        let handler: Arc<dyn Handler> = {
            let ran = Arc::clone(&ran);
            Arc::new(move |_req: &Request| {
                ran.fetch_add(1, Ordering::Relaxed);
                Response::json(200, "{}".into())
            })
        };
        let mut server = Server::bind("127.0.0.1:0", handler, NetConfig::default()).unwrap();
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"GET /x HTTP/1.1\r\nx-deadline-ms: 0\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 504"), "got {response:?}");
        assert!(response.contains("deadline_exceeded"));
        assert_eq!(ran.load(Ordering::Relaxed), 0, "handler must not run");
        let stats = server.stats();
        assert_eq!(stats.deadlines_exceeded, 1);
        assert_eq!(stats.requests, 0);
        server.shutdown();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_workers_wait_in_epoll_themselves() {
        let handler: Arc<dyn Handler> = Arc::new(|_req: &Request| Response::json(200, "{}".into()));
        let config = NetConfig {
            workers: 3,
            ..NetConfig::default()
        };
        let mut server = Server::bind("127.0.0.1:0", handler, config).unwrap();
        assert_eq!(
            server.threads.len(),
            3 + 1,
            "the workers plus the accept thread"
        );
        server.shutdown();
    }

    // Linux only: the portable fallback counts in-flight requests alone.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_backlog_behind_busy_workers_shows_as_queue_depth() {
        /// Holds every request in the handler until the test hands out a
        /// permit, recording the deepest queue any admit saw.
        #[derive(Default)]
        struct Gated {
            permits: Mutex<usize>,
            released: std::sync::Condvar,
            entered: AtomicUsize,
            max_depth: AtomicUsize,
        }
        impl Gated {
            fn release(&self, permits: usize) {
                *self.permits.lock().unwrap() += permits;
                self.released.notify_all();
            }
        }
        impl Handler for Gated {
            fn handle(&self, _: &Request) -> Response {
                self.entered.fetch_add(1, Ordering::SeqCst);
                let mut permits = self.permits.lock().unwrap();
                while *permits == 0 {
                    permits = self.released.wait(permits).unwrap();
                }
                *permits -= 1;
                Response::json(200, "{}".into())
            }
            fn admit(&self, _: &RequestHead, pressure: Pressure) -> Admission {
                self.max_depth
                    .fetch_max(pressure.queue_depth, Ordering::SeqCst);
                Admission::Accept
            }
        }
        let wait_for = |done: &dyn Fn() -> bool| {
            let started = std::time::Instant::now();
            while !done() {
                assert!(started.elapsed() < Duration::from_secs(10), "timed out");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let gate = Arc::new(Gated::default());
        let workers = 2;
        let config = NetConfig {
            workers,
            ..NetConfig::default()
        };
        let mut server = Server::bind("127.0.0.1:0", gate.clone(), config).unwrap();
        let addr = server.local_addr();
        let clients: Vec<_> = (0..6)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.get(&format!("/r{i}")).unwrap().status
                })
            })
            .collect();
        // Both workers held, the other four requests waiting in epoll.
        wait_for(&|| gate.entered.load(Ordering::SeqCst) == workers);
        wait_for(&|| server.stats().open_connections == 6);
        std::thread::sleep(Duration::from_millis(100));
        // Free one worker: the only idle one, it takes the whole backlog.
        gate.release(1);
        wait_for(&|| gate.entered.load(Ordering::SeqCst) == workers + 1);
        gate.release(usize::MAX / 2);
        for client in clients {
            assert_eq!(client.join().unwrap(), 200);
        }
        let max_depth = gate.max_depth.load(Ordering::SeqCst);
        assert!(
            max_depth > workers,
            "a backlog of four behind two busy workers read as depth {max_depth}"
        );
        // Every wake-up taken from epoll is released once served.
        wait_for(&|| server.stats().queue_depth == 0);
        server.shutdown();
    }

    #[test]
    fn an_idle_worker_never_waits_behind_a_slow_request() {
        use std::io::{Read, Write};
        let handler: Arc<dyn Handler> = Arc::new(|request: &Request| {
            if request.path == "/slow" {
                std::thread::sleep(Duration::from_millis(300));
            }
            Response::json(200, "{}".into())
        });
        let config = NetConfig {
            workers: 2,
            ..NetConfig::default()
        };
        let mut server = Server::bind("127.0.0.1:0", handler, config).unwrap();
        for round in 0..5 {
            let mut slow = TcpStream::connect(server.local_addr()).unwrap();
            let mut fast = TcpStream::connect(server.local_addr()).unwrap();
            // Back to back, so one worker may take both readiness events
            // from a single epoll wait.
            slow.write_all(b"GET /slow HTTP/1.1\r\nconnection: close\r\n\r\n")
                .unwrap();
            let started = std::time::Instant::now();
            fast.write_all(b"GET /fast HTTP/1.1\r\nconnection: close\r\n\r\n")
                .unwrap();
            let mut response = String::new();
            fast.read_to_string(&mut response).unwrap();
            let elapsed = started.elapsed();
            assert!(response.starts_with("HTTP/1.1 200"), "got {response:?}");
            assert!(
                elapsed < Duration::from_millis(50),
                "round {round}: the fast request waited {elapsed:?} behind the slow one"
            );
            response.clear();
            slow.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 200"), "got {response:?}");
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_cleanly() {
        let mut server = echo_server();
        let addr = server.local_addr();
        let _parked = Client::connect(addr).unwrap();
        server.shutdown();
        server.shutdown();
        assert!(
            Client::connect(addr).is_err() || {
                // The OS may accept into the dead listener's backlog; a
                // request must at least fail.
                let mut c = Client::connect(addr).unwrap();
                c.get("/x").is_err()
            }
        );
    }
}
