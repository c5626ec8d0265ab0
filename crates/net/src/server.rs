//! The multi-tenant serving front-end.
//!
//! Thread shape (no async runtime — non-blocking sockets parked in POSIX
//! `poll(2)`, so the server builds on unix only):
//!
//! - **N net threads** ([`ServerConfig::net_threads`]) each own their
//!   connections: non-blocking reads accumulate bytes per connection and
//!   [`mnn_wire::frame_len`] carves complete frames out zero-copy,
//!   non-blocking writes drain each connection's outbox, and with nothing
//!   left to do the thread sleeps in `poll` on its own sockets plus a wake
//!   pipe, so a frame's bytes, a queued reply or shutdown wake it at once
//!   and an idle thread wakes only for the next idle-timeout deadline.
//!   Net thread 0 also polls the listener and deals new connections
//!   round-robin. Authentication, text encoding, the per-connection
//!   in-flight cap, idle timeouts and backpressure (a connection whose
//!   outbox holds `max_inflight` frames is not read until its client
//!   reads) all live here, off the scheduler's critical path;
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
use crate::poll::{poll, PollFd, POLLIN, POLLOUT};
use crate::proto::{NetFrame, NetStatsWire, MAGIC, MAX_CLIENT_PAYLOAD, NO_REQUEST, VERSION};
use mnn_dataset::text;
use mnn_dataset::{Vocabulary, WordId};
use mnn_memnn::MemNet;
use mnn_serve::{
    AdmissionConfig, BatchConfig, BatchedAnswer, PoolError, SessionConfig, SessionPool,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex};
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
    /// asks are answered [`NetFrame::Overloaded`] immediately. It also
    /// bounds a client that does not read its replies: while this many
    /// frames (at least one) wait in its outbox, its socket is not read.
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

/// The write end of a net thread's wake pipe: a byte in it means "work
/// arrived, wake up". The thread polls the read end with its sockets and
/// drains it after each `poll`, so a wake is never lost.
type Waker = Arc<UnixStream>;

/// A connected, non-blocking wake pipe: (write end, read end).
fn wake_pipe() -> std::io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Arc::new(tx), rx))
}

fn wake(waker: &Waker) {
    // `WouldBlock` means the pipe is full: a wake is pending already.
    let _ = (&**waker).write(&[1]);
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

    /// Response frames not yet fully written.
    fn queued(&self) -> usize {
        self.outbox
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
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
    /// spawns the net and scheduler threads.
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
        listener
            .set_nonblocking(true)
            .map_err(|e| NetError::Spawn(format!("listener: {e}")))?;

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

        let mut pipes = Vec::new();
        for _ in 0..config.net_threads {
            pipes.push(wake_pipe().map_err(|e| NetError::Spawn(format!("wake pipe: {e}")))?);
        }
        let wakers: Vec<Waker> = pipes.iter().map(|(waker, _)| waker.clone()).collect();
        let registries: Vec<Registry> = pipes.iter().map(|_| Registry::default()).collect();
        let mut listener = Some(Listener {
            listener,
            registries: registries.clone(),
            wakers: wakers.clone(),
            next: 0,
        });

        let mut handles = Vec::new();
        for (i, (waker, wake_rx)) in pipes.into_iter().enumerate() {
            let thread = NetThread {
                listener: listener.take(),
                registry: registries[i].clone(),
                waker,
                wake_rx,
                fds: Vec::new(),
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
        }
        drop(tx); // the scheduler's rx disconnects once every net thread exits

        let scheduler = Scheduler {
            pool,
            vocab,
            rx,
            admission: config.admission,
            shutdown: shutdown.clone(),
            counters,
            wakers: wakers.clone(),
            pending: HashMap::new(),
        };
        handles.push(
            std::thread::Builder::new()
                .name("mnn-net-sched".into())
                .spawn(move || scheduler.run())
                .map_err(|e| NetError::Spawn(format!("scheduler thread: {e}")))?,
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

/// Connections accepted for a net thread but not yet adopted by it.
type Registry = Arc<Mutex<Vec<TcpStream>>>;

/// The listening socket, polled by net thread 0, which deals each new
/// connection round-robin to the net threads' registries.
struct Listener {
    listener: TcpListener,
    registries: Vec<Registry>,
    wakers: Vec<Waker>,
    next: usize,
}

impl Listener {
    /// Accepts every pending connection.
    fn accept(&mut self, counters: &Counters) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // `WouldBlock`, or a failure (a connection reset before it
                // was accepted, no fds left) the next poll retries.
                Err(_) => return,
            };
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            counters.accepted.fetch_add(1, Ordering::Relaxed);
            counters.active.fetch_add(1, Ordering::Relaxed);
            self.registries[self.next]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(stream);
            wake(&self.wakers[self.next]);
            self.next = (self.next + 1) % self.registries.len();
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
    /// The last `poll` reported bytes or a hang-up (a new connection
    /// starts readable).
    readable: bool,
    /// Close once the outbox drains (set after an unrecoverable frame
    /// error — the byte stream can no longer be trusted to re-sync).
    draining: bool,
    dead: bool,
}

/// One connection-handling thread.
struct NetThread {
    /// Net thread 0 owns the listener.
    listener: Option<Listener>,
    registry: Registry,
    waker: Waker,
    wake_rx: UnixStream,
    /// The poll set, kept across parks so a park allocates nothing.
    fds: Vec<PollFd>,
    auth: Arc<BTreeMap<String, String>>,
    vocab: Arc<Vocabulary>,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
    tx: mpsc::Sender<Request>,
    max_inflight: u32,
    idle_timeout: Duration,
}

impl NetThread {
    fn run(mut self) {
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
                    readable: true,
                    draining: false,
                    dead: false,
                });
            }

            if self.shutdown.load(Ordering::Acquire) {
                self.drain_and_close(&mut conns);
                return;
            }

            for conn in &mut conns {
                self.write_conn(conn);
                if !conn.dead && !conn.draining && conn.readable {
                    conn.readable = false;
                    self.read_conn(conn);
                }
                if conn.draining && !conn.dead && conn.shared.queued() == 0 {
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
            self.park(&mut conns);
        }
    }

    /// Frames a connection's outbox may hold before its socket stops
    /// being read: past it, TCP flow control holds a client that does not
    /// read its replies.
    fn outbox_cap(&self) -> usize {
        self.max_inflight.max(1) as usize
    }

    /// Sleeps in `poll` until a socket this thread owns is ready, its wake
    /// pipe holds a byte, or the earliest idle-timeout deadline passes.
    /// `poll` is level-triggered: anything the last pass left ready (bytes
    /// not yet read, a reply not yet written) returns at once.
    fn park(&mut self, conns: &mut [Conn]) {
        let cap = self.outbox_cap();
        self.fds.clear();
        self.fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
        if let Some(listener) = &self.listener {
            self.fds
                .push(PollFd::new(listener.listener.as_raw_fd(), POLLIN));
        }
        let mut deadline: Option<Instant> = None;
        for conn in conns.iter() {
            let queued = conn.shared.queued();
            let mut events = 0;
            if !conn.draining && queued < cap {
                events |= POLLIN;
            }
            // Only while there is something to write, so a client that
            // reads slowly cannot make the thread spin.
            if queued > 0 {
                events |= POLLOUT;
            }
            self.fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            if conn.shared.inflight.load(Ordering::Acquire) == 0 {
                if let Some(at) = conn.last_activity.checked_add(self.idle_timeout) {
                    deadline = Some(deadline.map_or(at, |d| d.min(at)));
                }
            }
        }
        let timeout = deadline.map(|at| at.saturating_duration_since(Instant::now()));
        // An error (no memory for the poll set) only costs a rescan.
        if poll(&mut self.fds, timeout).is_err() {
            return;
        }
        if self.fds[0].revents() != 0 {
            let mut drained = [0u8; 64];
            while matches!((&self.wake_rx).read(&mut drained), Ok(n) if n == drained.len()) {}
        }
        if let Some(listener) = &mut self.listener {
            if self.fds[1].revents() != 0 {
                listener.accept(&self.counters);
            }
        }
        let socks = &self.fds[self.fds.len() - conns.len()..];
        for (conn, fd) in conns.iter_mut().zip(socks) {
            conn.readable = fd.revents() & !POLLOUT != 0;
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

    /// Drains response bytes into the socket until it would block.
    fn write_conn(&self, conn: &mut Conn) {
        if conn.dead {
            return;
        }
        let mut outbox = conn.shared.outbox.lock().unwrap_or_else(|e| e.into_inner());
        while let Some(front) = outbox.queue.front() {
            let frame_len = front.len();
            let offset = outbox.front_written;
            match conn.stream.write(&front[offset..]) {
                Ok(0) => {
                    drop(outbox);
                    Self::close(conn, &self.counters);
                    return;
                }
                Ok(n) => {
                    outbox.front_written += n;
                    if outbox.front_written == frame_len {
                        outbox.queue.pop_front();
                        outbox.front_written = 0;
                        self.counters.frames_out.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    drop(outbox);
                    Self::close(conn, &self.counters);
                    return;
                }
            }
        }
    }

    /// Reads available bytes and handles every complete frame they
    /// finish, until the socket would block or the outbox is full.
    fn read_conn(&self, conn: &mut Conn) {
        let mut tmp = [0u8; 16 * 1024];
        while conn.shared.queued() < self.outbox_cap() {
            match conn.stream.read(&mut tmp) {
                Ok(0) => {
                    Self::close(conn, &self.counters);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.inbuf.extend_from_slice(&tmp[..n]);
                    self.carve_frames(conn);
                    if conn.draining || n < tmp.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    Self::close(conn, &self.counters);
                    return;
                }
            }
        }
    }

    /// Carves complete frames out of the accumulation buffer (zero-copy
    /// probe) and handles each.
    fn carve_frames(&self, conn: &mut Conn) {
        loop {
            let probe = mnn_wire::frame_len(&conn.inbuf, MAGIC, VERSION);
            let declared = declared_payload(&conn.inbuf).unwrap_or(0);
            match probe {
                // A header declaring more than any client frame holds is
                // refused before its payload is buffered.
                Ok(_) if declared > MAX_CLIENT_PAYLOAD => {
                    let why = format!(
                        "frame declares a {declared}-byte payload; \
                         a client frame holds at most {MAX_CLIENT_PAYLOAD}"
                    );
                    return Self::reject(conn, why);
                }
                Ok(Some(end)) => {
                    let decoded = NetFrame::decode(&conn.inbuf[..end]);
                    conn.inbuf.drain(..end);
                    match decoded {
                        Ok(frame) => {
                            self.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                            self.handle_frame(conn, frame);
                        }
                        // The envelope was whole but rotten (CRC or
                        // payload): the stream may be desynced.
                        Err(e) => return Self::reject(conn, e.to_string()),
                    }
                }
                Ok(None) => return,
                // Garbled header: there is no way to find the next frame
                // boundary.
                Err(e) => return Self::reject(conn, NetError::from(e).to_string()),
            }
        }
    }

    /// Answers a connection-level typed `BadRequest`, then drains the
    /// connection: nothing more is read, and it closes once the reply is
    /// written.
    fn reject(conn: &mut Conn, message: String) {
        conn.shared.push(&NetFrame::Error {
            id: NO_REQUEST,
            code: NetErrorCode::BadRequest,
            message,
        });
        conn.inbuf.clear();
        conn.draining = true;
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

    /// Shutdown path: give each connection until a grace deadline to
    /// flush its outbox, sleeping in `poll` until a socket takes more
    /// bytes, then close everything.
    fn drain_and_close(&mut self, conns: &mut Vec<Conn>) {
        let deadline = Instant::now() + DRAIN_GRACE;
        loop {
            self.fds.clear();
            for conn in conns.iter_mut() {
                self.write_conn(conn);
                if !conn.dead && conn.shared.queued() > 0 {
                    self.fds.push(PollFd::new(conn.stream.as_raw_fd(), POLLOUT));
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if self.fds.is_empty() || left.is_zero() || poll(&mut self.fds, Some(left)).is_err() {
                break;
            }
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

/// The payload length a buffered frame's header declares (envelope bytes
/// 4..8, little-endian), once the whole header has arrived.
fn declared_payload(buf: &[u8]) -> Option<usize> {
    let len = buf.get(4..mnn_wire::HEADER_LEN)?;
    Some(u32::from_le_bytes(len.try_into().ok()?) as usize)
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
