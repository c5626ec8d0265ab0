//! The worker half of the distributed plane: a thread-per-connection TCP
//! server that owns per-shard [`SegmentedStore`]s and answers the
//! [`crate::frame`] RPCs.
//!
//! A worker is deliberately dumb: it holds rows the coordinator pushed,
//! and on [`Frame::Forward`] runs the *same* chunk kernels as the
//! single-node engine over one shard's local store — via
//! [`mnnfast::forward_chunk_partials`] — and streams the encoded
//! per-chunk [`mnn_tensor::PartialState`]s back. All fold order, retry,
//! and failover policy lives in the coordinator; the worker's answers are
//! bit-exact fragments of the single-node pass by construction.
//!
//! The server is config-complete at spawn (embedding dimension, placement
//! chunk size, int8 mirroring, optional armed [`RpcFaultState`]), so
//! request connections need no stateful handshake: [`Frame::Hello`] merely
//! *verifies* the peer agrees on the layout parameters.

use crate::error::FrameError;
use crate::fault::{RpcFaultKind, RpcFaultState};
use crate::frame::{read_frame, write_frame, ErrorCode, ForwardSpec, Frame, WireStats, HEADER_LEN};
use mnnfast::store::SegmentedStore;
use mnnfast::{
    forward_chunk_partials, Budget, MemView, MnnFastConfig, Precision, Scratch, SkipPolicy,
    SoftmaxMode, Trace,
};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Spawn-time parameters of a [`WorkerServer`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Embedding dimension of every stored row.
    pub ed: usize,
    /// Placement chunk size (rows per global chunk). Forward requests
    /// must agree, or local chunk boundaries would not be global ones.
    pub chunk_size: usize,
    /// Maintain int8 quantized mirrors on every shard store.
    pub quant: bool,
    /// Optional armed RPC fault (tests / fault drills).
    pub fault: Option<crate::fault::RpcFaultPlan>,
}

impl WorkerConfig {
    /// A plain f32 worker with no armed fault.
    pub fn new(ed: usize, chunk_size: usize) -> Self {
        WorkerConfig {
            ed,
            chunk_size,
            quant: false,
            fault: None,
        }
    }
}

struct Shared {
    config: WorkerConfig,
    stores: Mutex<HashMap<u32, SegmentedStore>>,
    fault: Mutex<Option<RpcFaultState>>,
    shutdown: AtomicBool,
    conns: Mutex<Vec<TcpStream>>,
}

impl Shared {
    fn fault_decision(&self) -> Option<RpcFaultKind> {
        let fault = self.fault.lock().unwrap_or_else(|e| e.into_inner());
        fault.as_ref().and_then(RpcFaultState::on_response)
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("config", &self.config)
            .field("shutdown", &self.shutdown)
            .finish_non_exhaustive()
    }
}

/// A running worker: listener thread + one thread per connection.
///
/// Dropping the handle shuts the worker down (listener closed, in-flight
/// connections severed) — [`WorkerServer::shutdown`] does the same
/// explicitly, which doubles as the "kill a worker mid-question" lever in
/// the fault tests.
#[derive(Debug)]
pub struct WorkerServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl WorkerServer {
    /// Binds `127.0.0.1:0` (an ephemeral port) and starts serving.
    ///
    /// # Errors
    ///
    /// The bind error, if the loopback socket cannot be opened.
    pub fn spawn(config: WorkerConfig) -> std::io::Result<WorkerServer> {
        Self::spawn_on("127.0.0.1:0", config)
    }

    /// Binds an explicit address and starts serving.
    ///
    /// # Errors
    ///
    /// The bind error.
    pub fn spawn_on(addr: &str, config: WorkerConfig) -> std::io::Result<WorkerServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            fault: Mutex::new(config.fault.map(RpcFaultState::new)),
            config,
            stores: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(WorkerServer {
            shared,
            addr: local,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the worker is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total rows resident across all shard stores.
    pub fn rows(&self) -> usize {
        let stores = self.shared.stores.lock().unwrap_or_else(|e| e.into_inner());
        stores.values().map(SegmentedStore::len).sum()
    }

    /// How many responses the armed RPC fault has damaged (0 when none).
    pub fn fault_fired(&self) -> u64 {
        let fault = self.shared.fault.lock().unwrap_or_else(|e| e.into_inner());
        fault.as_ref().map_or(0, RpcFaultState::fired)
    }

    /// Arms (or re-arms) the RPC fault injector while serving — counting
    /// starts from this call, so tests can schedule damage relative to
    /// the request they are about to make rather than the whole session.
    pub fn arm_fault(&self, plan: crate::fault::RpcFaultPlan) {
        let mut fault = self.shared.fault.lock().unwrap_or_else(|e| e.into_inner());
        *fault = Some(RpcFaultState::new(plan));
    }

    /// Disarms the RPC fault injector.
    pub fn disarm_fault(&self) {
        let mut fault = self.shared.fault.lock().unwrap_or_else(|e| e.into_inner());
        *fault = None;
    }

    /// Stops the worker: closes the listener, severs every open
    /// connection (mid-request work is abandoned at the socket), and
    /// joins the accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        {
            let conns = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            for c in conns.iter() {
                let _ = c.shutdown(Shutdown::Both);
            }
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            break;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(clone) = stream.try_clone() {
            let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            conns.push(clone);
        }
        let conn_shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &conn_shared);
        });
    }
}

/// What the fault layer decided to do with a scheduled response.
enum Delivery {
    Continue,
    CloseConnection,
}

fn deliver(stream: &mut TcpStream, frame: &Frame, shared: &Shared) -> Result<Delivery, FrameError> {
    match shared.fault_decision() {
        None => {
            write_frame(stream, frame).map_err(FrameError::Io)?;
            Ok(Delivery::Continue)
        }
        Some(RpcFaultKind::Drop) => Ok(Delivery::Continue),
        Some(RpcFaultKind::Delay(d)) => {
            std::thread::sleep(d);
            write_frame(stream, frame).map_err(FrameError::Io)?;
            Ok(Delivery::Continue)
        }
        Some(RpcFaultKind::Corrupt) => {
            let mut bytes = frame.encode();
            // Flip one payload bit; the frame CRC makes this detectable.
            let target = HEADER_LEN.min(bytes.len() - 1);
            bytes[target] ^= 0x01;
            stream.write_all(&bytes).map_err(FrameError::Io)?;
            stream.flush().map_err(FrameError::Io)?;
            Ok(Delivery::Continue)
        }
        Some(RpcFaultKind::Disconnect) => {
            let _ = stream.shutdown(Shutdown::Both);
            Ok(Delivery::CloseConnection)
        }
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) -> Result<(), FrameError> {
    let mut scratch = Scratch::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let request = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(FrameError::Io(_)) => return Ok(()), // peer went away
            Err(decode_err) => {
                // A garbled request frame: tell the peer and keep serving
                // (byte-stream framing survives because the length prefix
                // was already consumed by read_frame).
                let resp = Frame::Error {
                    code: ErrorCode::BadRequest,
                    message: decode_err.to_string(),
                };
                match deliver(&mut stream, &resp, shared)? {
                    Delivery::Continue => continue,
                    Delivery::CloseConnection => return Ok(()),
                }
            }
        };
        let response = handle(&request, shared, &mut scratch);
        match deliver(&mut stream, &response, shared)? {
            Delivery::Continue => {}
            Delivery::CloseConnection => return Ok(()),
        }
    }
}

fn bad_request(message: impl Into<String>) -> Frame {
    Frame::Error {
        code: ErrorCode::BadRequest,
        message: message.into(),
    }
}

fn handle(request: &Frame, shared: &Shared, scratch: &mut Scratch) -> Frame {
    let cfg = &shared.config;
    match request {
        Frame::Hello {
            ed,
            chunk_size,
            quant,
        } => {
            if *ed as usize != cfg.ed || *chunk_size as usize != cfg.chunk_size {
                return bad_request(format!(
                    "layout mismatch: worker is ed={} chunk={}, peer wants ed={ed} chunk={chunk_size}",
                    cfg.ed, cfg.chunk_size
                ));
            }
            if *quant != cfg.quant {
                return bad_request(format!(
                    "quant mismatch: worker quant={}, peer wants {quant}",
                    cfg.quant
                ));
            }
            let stores = shared.stores.lock().unwrap_or_else(|e| e.into_inner());
            let rows = stores.values().map(SegmentedStore::len).sum::<usize>() as u64;
            Frame::HelloAck { rows }
        }
        Frame::PushRows {
            shard,
            ed,
            in_rows,
            out_rows,
        } => {
            if *ed as usize != cfg.ed {
                return bad_request(format!("push ed {ed} != worker ed {}", cfg.ed));
            }
            if in_rows.len() != out_rows.len() || in_rows.len() % cfg.ed != 0 {
                return bad_request("push rows are not n × ed in/out pairs");
            }
            let mut stores = shared.stores.lock().unwrap_or_else(|e| e.into_inner());
            let store = stores.entry(*shard).or_insert_with(|| {
                let mut s = SegmentedStore::new(cfg.ed, None);
                if cfg.quant {
                    s.enable_quant();
                }
                s
            });
            for (i_row, o_row) in in_rows
                .chunks_exact(cfg.ed)
                .zip(out_rows.chunks_exact(cfg.ed))
            {
                store.push(i_row, o_row);
            }
            Frame::PushAck {
                shard_rows: store.len() as u64,
            }
        }
        Frame::Clear => {
            let mut stores = shared.stores.lock().unwrap_or_else(|e| e.into_inner());
            stores.clear();
            Frame::ClearAck
        }
        Frame::Forward(spec) => forward(spec, shared, scratch),
        Frame::Health => {
            let stores = shared.stores.lock().unwrap_or_else(|e| e.into_inner());
            Frame::HealthAck {
                rows: stores.values().map(SegmentedStore::len).sum::<usize>() as u64,
                shards: stores.len() as u32,
            }
        }
        Frame::HelloAck { .. }
        | Frame::PushAck { .. }
        | Frame::ClearAck
        | Frame::ForwardResp { .. }
        | Frame::HealthAck { .. }
        | Frame::Error { .. } => bad_request("response frame sent as a request"),
    }
}

fn forward(spec: &ForwardSpec, shared: &Shared, scratch: &mut Scratch) -> Frame {
    let cfg = &shared.config;
    if spec.chunk_size as usize != cfg.chunk_size {
        return bad_request(format!(
            "forward chunk {} != placement chunk {}",
            spec.chunk_size, cfg.chunk_size
        ));
    }
    if spec.u.len() != cfg.ed {
        return bad_request(format!(
            "query dim {} != worker ed {}",
            spec.u.len(),
            cfg.ed
        ));
    }
    let mut engine_config = MnnFastConfig::new(cfg.chunk_size).with_softmax(if spec.online {
        SoftmaxMode::Online
    } else {
        SoftmaxMode::Lazy
    });
    if let Some(th) = spec.skip_raw {
        engine_config = engine_config.with_skip(SkipPolicy::RawWeight(th));
    }
    let budget = if spec.deadline_ms == 0 {
        Budget::unlimited()
    } else {
        Budget::with_deadline(Duration::from_millis(spec.deadline_ms))
    };
    let stores = shared.stores.lock().unwrap_or_else(|e| e.into_inner());
    let Some(store) = stores.get(&spec.shard) else {
        // No rows routed to this shard yet: an empty (but valid) reply.
        return Frame::ForwardResp {
            partials: Vec::new(),
            stats: WireStats::default(),
        };
    };
    let mut partials = Vec::new();
    let mut trace = Trace::disabled();
    let view = if spec.int8 {
        let Some((m_in, m_out)) = store.quant() else {
            return Frame::Error {
                code: ErrorCode::Engine,
                message: "int8 forward on a worker without quant mirrors".into(),
            };
        };
        MemView::Int8 { m_in, m_out }
    } else {
        store.view(Precision::F32)
    };
    let result = forward_chunk_partials(
        &engine_config,
        view,
        store.len(),
        &spec.u,
        scratch,
        &mut trace,
        &budget,
        &mut partials,
    );
    match result {
        Ok(stats) => Frame::ForwardResp {
            partials: partials.iter().map(|p| p.to_bytes()).collect(),
            stats: WireStats {
                rows_total: stats.rows_total,
                rows_skipped: stats.rows_skipped,
                flops: stats.flops,
                memory_bytes: stats.memory_bytes,
                chunks: stats.chunks,
            },
        },
        Err(e) => Frame::Error {
            code: ErrorCode::Engine,
            message: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    fn rpc(addr: SocketAddr, request: &Frame) -> Frame {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(&mut stream, request).unwrap();
        read_frame(&mut stream).unwrap()
    }

    #[test]
    fn push_health_forward_roundtrip() {
        let mut worker = WorkerServer::spawn(WorkerConfig::new(4, 2)).unwrap();
        let addr = worker.addr();

        assert_eq!(
            rpc(
                addr,
                &Frame::Hello {
                    ed: 4,
                    chunk_size: 2,
                    quant: false
                }
            ),
            Frame::HelloAck { rows: 0 }
        );
        // Layout mismatches are refused.
        assert!(matches!(
            rpc(
                addr,
                &Frame::Hello {
                    ed: 8,
                    chunk_size: 2,
                    quant: false
                }
            ),
            Frame::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));

        let resp = rpc(
            addr,
            &Frame::PushRows {
                shard: 0,
                ed: 4,
                in_rows: vec![0.1; 12],
                out_rows: vec![0.2; 12],
            },
        );
        assert_eq!(resp, Frame::PushAck { shard_rows: 3 });
        assert_eq!(worker.rows(), 3);

        let resp = rpc(
            addr,
            &Frame::Forward(ForwardSpec {
                shard: 0,
                chunk_size: 2,
                online: false,
                int8: false,
                skip_raw: None,
                deadline_ms: 0,
                u: vec![0.5; 4],
            }),
        );
        let Frame::ForwardResp { partials, stats } = resp else {
            panic!("expected ForwardResp, got {resp:?}");
        };
        assert_eq!(partials.len(), 2, "3 rows at chunk 2 = 2 chunks");
        assert_eq!(stats.chunks, 2);
        assert_eq!(stats.rows_total, 3);
        for p in &partials {
            mnn_tensor::PartialState::from_bytes(p).unwrap();
        }

        // Unknown shards answer empty rather than erroring.
        let resp = rpc(
            addr,
            &Frame::Forward(ForwardSpec {
                shard: 7,
                chunk_size: 2,
                online: false,
                int8: false,
                skip_raw: None,
                deadline_ms: 0,
                u: vec![0.5; 4],
            }),
        );
        assert_eq!(
            resp,
            Frame::ForwardResp {
                partials: Vec::new(),
                stats: WireStats::default()
            }
        );

        assert_eq!(
            rpc(addr, &Frame::Health),
            Frame::HealthAck { rows: 3, shards: 1 }
        );
        assert_eq!(rpc(addr, &Frame::Clear), Frame::ClearAck);
        assert_eq!(worker.rows(), 0);
        worker.shutdown();
    }

    #[test]
    fn shutdown_refuses_new_connections() {
        let mut worker = WorkerServer::spawn(WorkerConfig::new(4, 2)).unwrap();
        let addr = worker.addr();
        worker.shutdown();
        // The listener is gone: either the connect fails outright or the
        // connection is immediately closed without an answer.
        let outcome = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        if let Ok(mut stream) = outcome {
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let _ = write_frame(&mut stream, &Frame::Health);
            assert!(read_frame(&mut stream).is_err());
        }
    }
}
