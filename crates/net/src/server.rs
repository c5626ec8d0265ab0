//! The multi-tenant serving front-end.
//!
//! Thread shape (no async runtime — non-blocking sockets on a polling
//! readiness loop, the repo's offline-shim discipline applied to I/O):
//!
//! - an **accept thread** blocks on the listener and deals new
//!   connections round-robin to the net threads;
//! - **N net threads** ([`ServerConfig::net_threads`]) each own their
//!   connections: non-blocking reads accumulate bytes per connection and
//!   [`mnn_wire::frame_len`] carves complete frames out zero-copy,
//!   non-blocking writes drain each connection's outbox, and a condvar
//!   park bounds the poll when nothing is ready. Authentication, text
//!   encoding, the per-connection in-flight cap, and idle timeouts all
//!   live here, off the scheduler's critical path;
//! - one **scheduler thread** owns the [`SessionPool`] and is the only
//!   thread that touches model state. Network asks feed the pool's
//!   coalescing queues via `enqueue_tracked` — batching **across tenants
//!   and connections** — and the loop is work-conserving: it blocks only
//!   while nothing is queued, drains whatever requests have arrived, and
//!   flushes every queue the moment the channel is empty. A lone question
//!   is served at once; under load a batch is whatever arrived while the
//!   previous pass was computing, full batches flush inline, and
//!   [`BatchConfig::max_wait`] only caps how long a question may sit
//!   behind a backlog of *other* requests. No timer, no poll.
//!
//! Overload never drops a connection: admission-control sheds and
//! in-flight-cap rejections both answer a typed [`NetFrame::Overloaded`]
//! with a retry-after hint derived from the token bucket's refill rate.
//! Shutdown drains: every queued question is flushed and answered before
//! the acknowledgement goes out and the threads exit.

use crate::error::{NetError, NetErrorCode};
use crate::proto::{NetFrame, NetStatsWire, MAGIC, NO_REQUEST, VERSION};
use mnn_dataset::text;
use mnn_dataset::{Vocabulary, WordId};
use mnn_memnn::MemNet;
use mnn_serve::{
    AdmissionConfig, BatchConfig, BatchedAnswer, PoolError, SessionConfig, SessionPool,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One tenant's authentication mapping: a client presenting `token` in
/// its [`NetFrame::Hello`] acts as `tenant` for the connection's life.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantAuth {
    /// The secret the client presents.
    pub token: String,
    /// The pool tenant the token maps to.
    pub tenant: String,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (port 0 picks a free port; the bound address is
    /// [`NetServer::addr`]).
    pub listen: SocketAddr,
    /// Connection-handling threads.
    pub net_threads: usize,
    /// Tenant authentication table. Every named tenant is created in the
    /// pool at startup.
    pub tenants: Vec<TenantAuth>,
    /// Requests a single connection may have in flight before further
    /// asks are answered [`NetFrame::Overloaded`] immediately.
    pub max_inflight: u32,
    /// Close a connection after this long with no traffic and nothing in
    /// flight.
    pub idle_timeout: Duration,
    /// Pool admission control (token bucket over work units); `None`
    /// admits everything.
    pub admission: Option<AdmissionConfig>,
    /// Coalescing-batch policy; `None` degenerates to batches of one.
    pub batching: Option<BatchConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            listen: SocketAddr::from(([127, 0, 0, 1], 0)),
            net_threads: 2,
            tenants: vec![TenantAuth {
                token: "default".into(),
                tenant: "default".into(),
            }],
            max_inflight: 64,
            idle_timeout: Duration::from_secs(60),
            admission: None,
            batching: Some(BatchConfig::default()),
        }
    }
}

/// How long a net thread parks when no connection made progress. The
/// loop is a polling readiness scan, so this bounds added latency.
const PARK_BUSY: Duration = Duration::from_micros(200);
/// Park bound when a net thread owns no connections at all.
const PARK_IDLE: Duration = Duration::from_millis(2);
/// Grace period for draining outboxes at shutdown.
const DRAIN_GRACE: Duration = Duration::from_millis(500);
/// Retry hint when the per-connection in-flight cap rejects an ask.
const INFLIGHT_RETRY_MS: u64 = 1;
/// Retry hint when admission control sheds but the bucket never refills.
const NO_REFILL_RETRY_MS: u64 = 100;

/// Lifetime counters for the network plane, shared by every thread.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    active: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
}

/// A net thread's parking spot: `true` means "work arrived, wake up".
type Waker = Arc<(Mutex<bool>, Condvar)>;

fn wake(waker: &Waker) {
    let (flag, cv) = &**waker;
    *flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
    cv.notify_all();
}

/// Pending response bytes for one connection, drained by its net thread.
#[derive(Debug, Default)]
struct Outbox {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written (non-blocking writes can
    /// land mid-frame).
    front_written: usize,
}

/// The connection state shared between its net thread and the scheduler.
#[derive(Debug)]
struct ConnShared {
    outbox: Mutex<Outbox>,
    closed: AtomicBool,
    inflight: AtomicU32,
    waker: Waker,
}

impl ConnShared {
    /// Queues one response frame; dropped silently when the connection is
    /// already closed (the socket is gone — there is nowhere to send it).
    fn push(&self, frame: &NetFrame) {
        if self.closed.load(Ordering::Acquire) {
            return;
        }
        self.outbox
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .push_back(frame.encode());
        wake(&self.waker);
    }

    fn settle(&self, frame: &NetFrame) {
        // An in-flight request is settled by exactly one response.
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        self.push(frame);
    }
}

/// A request forwarded from a net thread to the scheduler.
enum Request {
    Observe {
        conn: Arc<ConnShared>,
        tenant: String,
        id: u64,
        tokens: Vec<WordId>,
    },
    Ask {
        conn: Arc<ConnShared>,
        tenant: String,
        id: u64,
        tokens: Vec<WordId>,
    },
    Stats {
        conn: Arc<ConnShared>,
    },
    Shutdown {
        conn: Arc<ConnShared>,
    },
}

/// A running serving front-end.
///
/// Dropping the server shuts it down (draining queued work); call
/// [`NetServer::shutdown`] to do so explicitly.
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wakers: Vec<Waker>,
    handles: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Boots the front-end: binds the listener, builds the pool (one
    /// session per configured tenant, all sharing the one `model`), and
    /// spawns the accept, net, and scheduler threads.
    ///
    /// # Errors
    ///
    /// [`NetError::Spawn`] when the bind or pool bootstrap fails.
    pub fn spawn(
        model: impl Into<Arc<MemNet>>,
        vocab: Vocabulary,
        session: SessionConfig,
        config: ServerConfig,
    ) -> Result<NetServer, NetError> {
        if config.net_threads == 0 {
            return Err(NetError::Spawn("net_threads must be at least 1".into()));
        }
        if config.tenants.is_empty() {
            return Err(NetError::Spawn("no tenants configured".into()));
        }
        let listener = TcpListener::bind(config.listen)
            .map_err(|e| NetError::Spawn(format!("bind {}: {e}", config.listen)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| NetError::Spawn(format!("local_addr: {e}")))?;

        let mut pool = SessionPool::new(model, session)
            .map_err(|e| NetError::Spawn(format!("session pool: {e}")))?;
        if let Some(batching) = config.batching {
            pool = pool.with_batching(batching);
        }
        if let Some(admission) = config.admission {
            pool = pool.with_admission(admission);
        }
        let mut auth = BTreeMap::new();
        for t in &config.tenants {
            pool.create_tenant(&t.tenant)
                .map_err(|e| NetError::Spawn(format!("tenant '{}': {e}", t.tenant)))?;
            if auth.insert(t.token.clone(), t.tenant.clone()).is_some() {
                return Err(NetError::Spawn(format!(
                    "token '{}' maps to two tenants",
                    t.token
                )));
            }
        }
        let auth = Arc::new(auth);
        let vocab = Arc::new(vocab);
        let counters = Arc::new(Counters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<Request>();

        let mut handles = Vec::new();
        let mut wakers = Vec::new();
        let mut registries: Vec<Arc<Mutex<Vec<TcpStream>>>> = Vec::new();
        for i in 0..config.net_threads {
            let waker: Waker = Arc::new((Mutex::new(false), Condvar::new()));
            let registry: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
            let thread = NetThread {
                registry: registry.clone(),
                waker: waker.clone(),
                auth: auth.clone(),
                vocab: vocab.clone(),
                counters: counters.clone(),
                shutdown: shutdown.clone(),
                tx: tx.clone(),
                max_inflight: config.max_inflight,
                idle_timeout: config.idle_timeout,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mnn-net-{i}"))
                    .spawn(move || thread.run())
                    .map_err(|e| NetError::Spawn(format!("net thread: {e}")))?,
            );
            wakers.push(waker);
            registries.push(registry);
        }
        drop(tx); // the scheduler's rx disconnects once every net thread exits

        let scheduler = Scheduler {
            pool,
            vocab,
            rx,
            admission: config.admission,
            shutdown: shutdown.clone(),
            counters: counters.clone(),
            wakers: wakers.clone(),
            addr,
            pending: HashMap::new(),
        };
        handles.push(
            std::thread::Builder::new()
                .name("mnn-net-sched".into())
                .spawn(move || scheduler.run())
                .map_err(|e| NetError::Spawn(format!("scheduler thread: {e}")))?,
        );

        let accept = AcceptLoop {
            listener,
            registries,
            wakers: wakers.clone(),
            counters,
            shutdown: shutdown.clone(),
        };
        handles.push(
            std::thread::Builder::new()
                .name("mnn-net-accept".into())
                .spawn(move || accept.run())
                .map_err(|e| NetError::Spawn(format!("accept thread: {e}")))?,
        );

        Ok(NetServer {
            addr,
            shutdown,
            wakers,
            handles,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server: queued questions are flushed and answered, open
    /// connections closed, and every thread joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the server stops — i.e. until some client sends a
    /// [`NetFrame::Shutdown`]. This is what the `mnn-serve` binary parks
    /// on.
    pub fn wait(mut self) {
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for waker in &self.wakers {
            wake(waker);
        }
        // Unblock the accept thread's blocking accept.
        let _ = TcpStream::connect(self.addr);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.stop();
        }
    }
}

/// The accept loop: blocks on the listener, deals connections
/// round-robin to net threads.
struct AcceptLoop {
    listener: TcpListener,
    registries: Vec<Arc<Mutex<Vec<TcpStream>>>>,
    wakers: Vec<Waker>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
}

impl AcceptLoop {
    fn run(self) {
        let mut next = 0usize;
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    continue;
                }
            };
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            self.counters.accepted.fetch_add(1, Ordering::Relaxed);
            self.counters.active.fetch_add(1, Ordering::Relaxed);
            self.registries[next]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(stream);
            wake(&self.wakers[next]);
            next = (next + 1) % self.registries.len();
        }
    }
}

/// One live connection as its net thread sees it.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    inbuf: Vec<u8>,
    tenant: Option<String>,
    last_activity: Instant,
    /// Close once the outbox drains (set after an unrecoverable frame
    /// error — the byte stream can no longer be trusted to re-sync).
    draining: bool,
    dead: bool,
}

/// One connection-handling thread.
struct NetThread {
    registry: Arc<Mutex<Vec<TcpStream>>>,
    waker: Waker,
    auth: Arc<BTreeMap<String, String>>,
    vocab: Arc<Vocabulary>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
    tx: mpsc::Sender<Request>,
    max_inflight: u32,
    idle_timeout: Duration,
}

impl NetThread {
    fn run(self) {
        let mut conns: Vec<Conn> = Vec::new();
        loop {
            // Adopt newly accepted connections.
            for stream in self
                .registry
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .drain(..)
            {
                conns.push(Conn {
                    stream,
                    shared: Arc::new(ConnShared {
                        outbox: Mutex::new(Outbox::default()),
                        closed: AtomicBool::new(false),
                        inflight: AtomicU32::new(0),
                        waker: self.waker.clone(),
                    }),
                    inbuf: Vec::new(),
                    tenant: None,
                    last_activity: Instant::now(),
                    draining: false,
                    dead: false,
                });
            }

            if self.shutdown.load(Ordering::Acquire) {
                self.drain_and_close(&mut conns);
                return;
            }

            let mut progress = false;
            for conn in &mut conns {
                progress |= self.write_conn(conn);
                if !conn.dead && !conn.draining {
                    progress |= self.read_conn(conn);
                }
                if conn.draining
                    && !conn.dead
                    && conn
                        .shared
                        .outbox
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .queue
                        .is_empty()
                {
                    Self::close(conn, &self.counters);
                }
                if !conn.dead
                    && conn.last_activity.elapsed() > self.idle_timeout
                    && conn.shared.inflight.load(Ordering::Acquire) == 0
                {
                    Self::close(conn, &self.counters);
                }
            }
            conns.retain(|c| !c.dead);

            if !progress {
                let park = if conns.is_empty() {
                    PARK_IDLE
                } else {
                    PARK_BUSY
                };
                let (flag, cv) = &*self.waker;
                let mut ready = flag.lock().unwrap_or_else(|e| e.into_inner());
                if !*ready {
                    let (guard, _) = cv
                        .wait_timeout(ready, park)
                        .unwrap_or_else(|e| e.into_inner());
                    ready = guard;
                }
                *ready = false;
            }
        }
    }

    fn close(conn: &mut Conn, counters: &Counters) {
        if conn.dead {
            return;
        }
        conn.dead = true;
        conn.shared.closed.store(true, Ordering::Release);
        counters.active.fetch_sub(1, Ordering::Relaxed);
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Drains response bytes into the socket; returns whether any byte
    /// moved.
    fn write_conn(&self, conn: &mut Conn) -> bool {
        if conn.dead {
            return false;
        }
        let mut progress = false;
        let mut outbox = conn.shared.outbox.lock().unwrap_or_else(|e| e.into_inner());
        while let Some(front) = outbox.queue.front() {
            let frame_len = front.len();
            let offset = outbox.front_written;
            match conn.stream.write(&front[offset..]) {
                Ok(0) => {
                    drop(outbox);
                    Self::close(conn, &self.counters);
                    return progress;
                }
                Ok(n) => {
                    progress = true;
                    outbox.front_written += n;
                    if outbox.front_written == frame_len {
                        outbox.queue.pop_front();
                        outbox.front_written = 0;
                        self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    drop(outbox);
                    Self::close(conn, &self.counters);
                    return progress;
                }
            }
        }
        progress
    }

    /// Reads available bytes, carves complete frames out of the
    /// accumulation buffer, and handles each; returns whether any byte
    /// moved.
    fn read_conn(&self, conn: &mut Conn) -> bool {
        let mut progress = false;
        let mut tmp = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut tmp) {
                Ok(0) => {
                    Self::close(conn, &self.counters);
                    return progress;
                }
                Ok(n) => {
                    progress = true;
                    conn.last_activity = Instant::now();
                    conn.inbuf.extend_from_slice(&tmp[..n]);
                    if n < tmp.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    Self::close(conn, &self.counters);
                    return progress;
                }
            }
        }
        // Carve complete frames out of the buffer (zero-copy probe).
        loop {
            match mnn_wire::frame_len(&conn.inbuf, MAGIC, VERSION) {
                Ok(Some(end)) => {
                    let decoded = NetFrame::decode(&conn.inbuf[..end]);
                    conn.inbuf.drain(..end);
                    match decoded {
                        Ok(frame) => {
                            self.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                            self.handle_frame(conn, frame);
                        }
                        Err(e) => {
                            // The envelope was whole but rotten (CRC or
                            // payload): answer typed, then drop the
                            // connection — the stream may be desynced.
                            conn.shared.push(&NetFrame::Error {
                                id: NO_REQUEST,
                                code: NetErrorCode::BadRequest,
                                message: e.to_string(),
                            });
                            conn.draining = true;
                            return true;
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Garbled header: there is no way to find the next
                    // frame boundary. Answer typed and drain.
                    conn.shared.push(&NetFrame::Error {
                        id: NO_REQUEST,
                        code: NetErrorCode::BadRequest,
                        message: NetError::from(e).to_string(),
                    });
                    conn.inbuf.clear();
                    conn.draining = true;
                    return true;
                }
            }
        }
        progress
    }

    fn handle_frame(&self, conn: &mut Conn, frame: NetFrame) {
        if self.shutdown.load(Ordering::Acquire) {
            conn.shared.push(&NetFrame::Error {
                id: NO_REQUEST,
                code: NetErrorCode::Shutdown,
                message: "server is shutting down".into(),
            });
            return;
        }
        match frame {
            NetFrame::Hello { token } => match self.auth.get(&token) {
                Some(tenant) => {
                    conn.tenant = Some(tenant.clone());
                    conn.shared.push(&NetFrame::HelloAck {
                        tenant: tenant.clone(),
                        max_inflight: self.max_inflight,
                    });
                }
                None => conn.shared.push(&NetFrame::Error {
                    id: NO_REQUEST,
                    code: NetErrorCode::Auth,
                    message: "unknown token".into(),
                }),
            },
            NetFrame::Observe { id, text } => match text::encode(&text, &self.vocab) {
                Ok(tokens) => self.submit(conn, id, tokens, false),
                Err(e) => conn.shared.push(&NetFrame::Error {
                    id,
                    code: NetErrorCode::BadRequest,
                    message: e,
                }),
            },
            NetFrame::ObserveTokens { id, tokens } => self.submit(conn, id, tokens, false),
            NetFrame::Ask { id, text } => match text::encode(&text, &self.vocab) {
                Ok(tokens) => self.submit(conn, id, tokens, true),
                Err(e) => conn.shared.push(&NetFrame::Error {
                    id,
                    code: NetErrorCode::BadRequest,
                    message: e,
                }),
            },
            NetFrame::AskTokens { id, tokens } => self.submit(conn, id, tokens, true),
            NetFrame::Stats => {
                let _ = self.tx.send(Request::Stats {
                    conn: conn.shared.clone(),
                });
            }
            NetFrame::Shutdown => {
                let _ = self.tx.send(Request::Shutdown {
                    conn: conn.shared.clone(),
                });
            }
            // Server-to-client frames arriving at the server are a
            // protocol violation.
            other => conn.shared.push(&NetFrame::Error {
                id: NO_REQUEST,
                code: NetErrorCode::BadRequest,
                message: format!("unexpected client frame: {other:?}"),
            }),
        }
    }

    /// Forwards an observe/ask to the scheduler, enforcing authentication
    /// and the per-connection in-flight cap.
    fn submit(&self, conn: &mut Conn, id: u64, tokens: Vec<WordId>, is_ask: bool) {
        let Some(tenant) = conn.tenant.clone() else {
            conn.shared.push(&NetFrame::Error {
                id,
                code: NetErrorCode::Auth,
                message: "authenticate with hello first".into(),
            });
            return;
        };
        // The in-flight cap bounds this connection's claim on scheduler
        // memory: beyond it the client is told to back off, not hung up.
        if conn.shared.inflight.load(Ordering::Acquire) >= self.max_inflight {
            conn.shared.push(&NetFrame::Overloaded {
                id,
                retry_after_ms: INFLIGHT_RETRY_MS,
            });
            return;
        }
        conn.shared.inflight.fetch_add(1, Ordering::AcqRel);
        let request = if is_ask {
            Request::Ask {
                conn: conn.shared.clone(),
                tenant,
                id,
                tokens,
            }
        } else {
            Request::Observe {
                conn: conn.shared.clone(),
                tenant,
                id,
                tokens,
            }
        };
        if self.tx.send(request).is_err() {
            conn.shared.settle(&NetFrame::Error {
                id,
                code: NetErrorCode::Shutdown,
                message: "scheduler is gone".into(),
            });
        }
    }

    /// Shutdown path: give each connection a grace period to flush its
    /// outbox, then close everything.
    fn drain_and_close(&self, conns: &mut Vec<Conn>) {
        let start = Instant::now();
        while start.elapsed() < DRAIN_GRACE {
            let mut outstanding = false;
            for conn in conns.iter_mut() {
                if conn.dead {
                    continue;
                }
                self.write_conn(conn);
                if !conn.dead
                    && !conn
                        .shared
                        .outbox
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .queue
                        .is_empty()
                {
                    outstanding = true;
                }
            }
            if !outstanding {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for conn in conns.iter_mut() {
            Self::close(conn, &self.counters);
        }
        conns.clear();
    }
}

/// An ask the scheduler has accepted into the pool's coalescing queues,
/// keyed by pool request id.
struct PendingAsk {
    conn: Arc<ConnShared>,
    client_id: u64,
}

/// The scheduler thread: sole owner of the [`SessionPool`].
struct Scheduler {
    pool: SessionPool,
    vocab: Arc<Vocabulary>,
    rx: mpsc::Receiver<Request>,
    admission: Option<AdmissionConfig>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    wakers: Vec<Waker>,
    addr: SocketAddr,
    pending: HashMap<u64, PendingAsk>,
}

impl Scheduler {
    /// The drain-then-flush loop. Invariant: the thread never blocks with
    /// a question queued — so there is nothing to time out and nothing to
    /// poll, and shutdown is just the channel disconnecting once every
    /// net thread has exited.
    fn run(mut self) {
        loop {
            let request = if self.pool.pending_questions() == 0 {
                match self.rx.recv() {
                    Ok(request) => request,
                    Err(_) => return,
                }
            } else {
                match self.rx.try_recv() {
                    Ok(request) => request,
                    // Nothing else has arrived that a batch could wait
                    // for: the scheduler is idle, so every queue goes.
                    Err(why) => {
                        self.route_all(SessionPool::flush_all);
                        if why == TryRecvError::Disconnected {
                            return;
                        }
                        continue;
                    }
                }
            };
            self.handle(request);
            // Backlog cap: more requests may be waiting behind this one,
            // but no queued question sits through more than `max_wait` of
            // them.
            if self.pool.pending_questions() > 0 {
                self.route_all(SessionPool::flush_due);
            }
        }
    }

    /// Runs one of the pool's flushes and routes every answer it yields.
    fn route_all(
        &mut self,
        flush: impl FnOnce(&mut SessionPool) -> Result<Vec<BatchedAnswer>, PoolError>,
    ) {
        if let Ok(answers) = flush(&mut self.pool) {
            for ba in answers {
                self.route(ba);
            }
        }
    }

    fn handle(&mut self, request: Request) {
        let shutting_down = self.shutdown.load(Ordering::Acquire);
        match request {
            Request::Observe {
                conn,
                tenant,
                id,
                tokens,
            } => {
                if shutting_down {
                    conn.settle(&NetFrame::Error {
                        id,
                        code: NetErrorCode::Shutdown,
                        message: "server is shutting down".into(),
                    });
                    return;
                }
                // Questions this tenant asked before the sentence arrived
                // are answered against the memory as it stood then.
                self.route_all(|pool| pool.flush_tenant(&tenant));
                let frame = match self.pool.observe(&tenant, &tokens) {
                    Ok(_) => NetFrame::ObserveAck {
                        id,
                        sentences: self.pool.tenant_sentences(&tenant).unwrap_or(0) as u64,
                    },
                    Err(e) => NetFrame::Error {
                        id,
                        code: NetErrorCode::Session,
                        message: e.to_string(),
                    },
                };
                conn.settle(&frame);
            }
            Request::Ask {
                conn,
                tenant,
                id,
                tokens,
            } => {
                if shutting_down {
                    conn.settle(&NetFrame::Error {
                        id,
                        code: NetErrorCode::Shutdown,
                        message: "server is shutting down".into(),
                    });
                    return;
                }
                match self.pool.enqueue_tracked(&tenant, &tokens) {
                    Ok((request_id, flushed)) => {
                        self.pending.insert(
                            request_id,
                            PendingAsk {
                                conn,
                                client_id: id,
                            },
                        );
                        for ba in flushed {
                            self.route(ba);
                        }
                    }
                    Err(e) => conn.settle(&NetFrame::Error {
                        id,
                        code: NetErrorCode::Session,
                        message: e.to_string(),
                    }),
                }
            }
            Request::Stats { conn } => {
                conn.push(&NetFrame::StatsResp(self.stats()));
            }
            Request::Shutdown { conn } => {
                // Questions accepted earlier in this drain are answered
                // before the acknowledgement goes out.
                self.route_all(SessionPool::flush_all);
                conn.push(&NetFrame::ShutdownAck);
                self.shutdown.store(true, Ordering::Release);
                for waker in &self.wakers {
                    wake(waker);
                }
                // Unblock the accept thread.
                let _ = TcpStream::connect(self.addr);
            }
        }
    }

    /// Routes one batched answer back to the connection that asked.
    fn route(&mut self, ba: BatchedAnswer) {
        let Some(PendingAsk { conn, client_id }) = self.pending.remove(&ba.request) else {
            return;
        };
        let frame = match ba.answer {
            Ok(answer) => NetFrame::Answer {
                id: client_id,
                word: answer.word,
                text: self.vocab.word(answer.word).unwrap_or("").to_owned(),
                probability: answer.probability,
                degraded: answer.degraded,
            },
            Err(PoolError::Overloaded { needed, available }) => NetFrame::Overloaded {
                id: client_id,
                retry_after_ms: retry_after_ms(needed, available, self.admission),
            },
            Err(e) => NetFrame::Error {
                id: client_id,
                code: NetErrorCode::Session,
                message: e.to_string(),
            },
        };
        // settle() drops the frame if the client hung up mid-request; the
        // in-flight slot is reclaimed either way.
        conn.settle(&frame);
    }

    fn stats(&self) -> NetStatsWire {
        let s = self.pool.stats();
        NetStatsWire {
            tenants: s.tenants as u64,
            total_sentences: s.total_sentences as u64,
            questions_answered: s.questions_answered,
            shed_questions: s.shed_questions,
            deadline_misses: s.deadline_misses,
            degraded_answers: s.degraded_answers,
            batches_dispatched: s.batches_dispatched,
            batched_questions: s.batched_questions,
            max_batch_occupancy: s.max_batch_occupancy as u64,
            pending_questions: s.pending_questions as u64,
            batch_occupancy: s.batch_occupancy,
            net_connections_accepted: self.counters.accepted.load(Ordering::Relaxed),
            net_connections_active: self.counters.active.load(Ordering::Relaxed),
            net_frames_in: self.counters.frames_in.load(Ordering::Relaxed),
            net_frames_out: self.counters.frames_out.load(Ordering::Relaxed),
            sheds_by_tenant: self
                .pool
                .sheds_by_tenant()
                .iter()
                .map(|(t, n)| (t.clone(), *n))
                .collect(),
        }
    }
}

/// Computes the retry-after hint for an admission-control shed: the time
/// the token bucket needs to refill the deficit, rounded up.
fn retry_after_ms(needed: u64, available: u64, admission: Option<AdmissionConfig>) -> u64 {
    match admission {
        Some(a) if a.refill_per_sec > 0 => {
            let deficit = needed.saturating_sub(available).max(1);
            (deficit.saturating_mul(1000))
                .div_ceil(a.refill_per_sec)
                .max(1)
        }
        _ => NO_REFILL_RETRY_MS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_hint_tracks_the_refill_rate() {
        let admission = Some(AdmissionConfig {
            capacity: 100,
            refill_per_sec: 50,
        });
        // Deficit 25 units at 50 units/s = 500 ms.
        assert_eq!(retry_after_ms(30, 5, admission), 500);
        // Rounds up, never zero.
        assert_eq!(retry_after_ms(6, 5, admission), 20);
        assert_eq!(
            retry_after_ms(10, 0, None),
            NO_REFILL_RETRY_MS,
            "no admission config: fixed hint"
        );
        assert_eq!(
            retry_after_ms(
                10,
                0,
                Some(AdmissionConfig {
                    capacity: 5,
                    refill_per_sec: 0
                })
            ),
            NO_REFILL_RETRY_MS,
            "bucket never refills: fixed hint"
        );
    }
}
