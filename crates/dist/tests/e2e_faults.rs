//! End-to-end fault drills for the coordinator/worker plane, all over
//! real loopback TCP:
//!
//! - fault-free distributed answers are **bitwise identical** to the
//!   single-node pass,
//! - a worker killed before a question fails over to its replica — still
//!   bit-exact,
//! - with no replica, the caller gets a *flagged* degraded answer (equal
//!   to the fold that skips the dead shard's chunks) or a typed error,
//!   never a hang or a wrong-but-clean answer,
//! - corrupted / dropped / severed responses are retried to identity,
//! - a hedged duplicate beats an injected straggler,
//! - worker health walks Live → Suspect → Dead and resurrects on probe.

use mnn_dist::{
    Coordinator, DistConfig, ForwardOpts, RpcFaultKind, RpcFaultPlan, WorkerConfig, WorkerServer,
};
use mnn_tensor::{Matrix, QuantMatrix};
use mnnfast::{
    forward_chunk_partials, Budget, ColumnEngine, InferenceStats, MemView, MnnFastConfig,
    PartialFold, Scratch, SoftmaxMode, Trace,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const ED: usize = 8;
const CHUNK: usize = 4;
const ROWS: usize = 53; // awkward: last chunk is short, chunks don't divide the fleet

fn memories(rows: usize, ed: usize, seed: u64) -> (Matrix, Matrix, Vec<f32>) {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    };
    let m_in = Matrix::from_fn(rows, ed, |_, _| next());
    let m_out = Matrix::from_fn(rows, ed, |_, _| next());
    let u: Vec<f32> = (0..ed).map(|_| next()).collect();
    (m_in, m_out, u)
}

fn spawn_fleet(n: usize, quant: bool) -> (Vec<WorkerServer>, Vec<SocketAddr>) {
    let workers: Vec<WorkerServer> = (0..n)
        .map(|_| {
            let mut config = WorkerConfig::new(ED, CHUNK);
            config.quant = quant;
            WorkerServer::spawn(config).expect("spawn worker")
        })
        .collect();
    let addrs = workers.iter().map(WorkerServer::addr).collect();
    (workers, addrs)
}

fn push_all(coordinator: &mut Coordinator, m_in: &Matrix, m_out: &Matrix) {
    for r in 0..m_in.rows() {
        coordinator
            .push(m_in.row(r), m_out.row(r))
            .expect("push row");
    }
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Single-node reference answer `(o, denominator)` for the same pass.
fn single_node(m_in: &Matrix, m_out: &Matrix, u: &[f32], config: MnnFastConfig) -> (Vec<f32>, f32) {
    let out = ColumnEngine::new(config)
        .forward(m_in, m_out, u)
        .expect("single-node reference");
    (out.o, out.denominator)
}

#[test]
fn fault_free_fleet_matches_single_node_bitwise() {
    let (m_in, m_out, u) = memories(ROWS, ED, 0xA11CE);
    let (_workers, addrs) = spawn_fleet(4, false);
    let mut coordinator =
        Coordinator::connect(&addrs, ED, CHUNK, false, DistConfig::default()).unwrap();
    push_all(&mut coordinator, &m_in, &m_out);
    assert_eq!(coordinator.rows(), ROWS);

    for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        let config = MnnFastConfig::new(CHUNK).with_softmax(mode);
        let (ref_o, ref_denom) = single_node(&m_in, &m_out, &u, config);
        let opts = ForwardOpts::from_config(&config).unwrap();
        let answer = coordinator
            .forward(&u, opts, &Budget::unlimited(), false)
            .expect("distributed forward");
        assert!(!answer.degraded);
        assert!(answer.skipped_shards.is_empty());
        assert_eq!(bits(&answer.o), bits(&ref_o), "mode {mode:?}");
        assert_eq!(answer.denominator.to_bits(), ref_denom.to_bits());
        assert_eq!(answer.stats.rows_total, ROWS as u64);
    }
    let (retries, failovers, hedges, skipped) = coordinator.counters().snapshot();
    assert_eq!((retries, failovers, hedges, skipped), (0, 0, 0, 0));
}

#[test]
fn killed_worker_fails_over_to_replica_bitwise() {
    let (m_in, m_out, u) = memories(ROWS, ED, 0xBEE);
    let (mut workers, addrs) = spawn_fleet(4, false);
    let config = DistConfig {
        replicas: 2,
        connect_timeout: Duration::from_millis(200),
        ..DistConfig::default()
    };
    let mut coordinator = Coordinator::connect(&addrs, ED, CHUNK, false, config).unwrap();
    push_all(&mut coordinator, &m_in, &m_out);

    // Kill worker 1 *after* the rows are resident — its shard must now be
    // answered by the replica on worker 2.
    workers[1].shutdown();

    let engine_config = MnnFastConfig::new(CHUNK);
    let (ref_o, ref_denom) = single_node(&m_in, &m_out, &u, engine_config);
    let opts = ForwardOpts::from_config(&engine_config).unwrap();
    let answer = coordinator
        .forward(&u, opts, &Budget::unlimited(), false)
        .expect("failover forward");
    assert!(!answer.degraded, "replica failover is not degradation");
    assert_eq!(bits(&answer.o), bits(&ref_o));
    assert_eq!(answer.denominator.to_bits(), ref_denom.to_bits());
    let (_retries, failovers, _hedges, skipped) = coordinator.counters().snapshot();
    assert!(failovers >= 1, "expected at least one failover");
    assert_eq!(skipped, 0);
}

#[test]
fn killed_worker_without_replica_degrades_with_flag() {
    let (m_in, m_out, u) = memories(ROWS, ED, 0xD0E);
    let (mut workers, addrs) = spawn_fleet(4, false);
    let config = DistConfig {
        replicas: 1,
        connect_timeout: Duration::from_millis(200),
        rpc_timeout: Duration::from_millis(500),
        max_retries: 1,
        ..DistConfig::default()
    };
    let mut coordinator = Coordinator::connect(&addrs, ED, CHUNK, false, config).unwrap();
    push_all(&mut coordinator, &m_in, &m_out);
    workers[1].shutdown();

    let engine_config = MnnFastConfig::new(CHUNK);
    let opts = ForwardOpts::from_config(&engine_config).unwrap();

    // Strict callers get a typed error, never a silently partial answer.
    let strict = coordinator.forward(&u, opts, &Budget::unlimited(), false);
    assert!(strict.is_err(), "no replica + strict must fail");

    // Degraded callers get shard 1's chunks skipped — and the answer is
    // exactly the local fold over the surviving chunks.
    let answer = coordinator
        .forward(&u, opts, &Budget::unlimited(), true)
        .expect("degraded forward");
    assert!(answer.degraded);
    assert_eq!(answer.skipped_shards, vec![1]);

    let engine = ColumnEngine::new(engine_config);
    let mut scratch = Scratch::new();
    let mut partials = Vec::new();
    forward_chunk_partials(
        &engine,
        MemView::from((&m_in, &m_out)),
        ROWS,
        &u,
        &mut scratch,
        &mut Trace::disabled(),
        &Budget::unlimited(),
        &mut partials,
    )
    .unwrap();
    let mut fold = PartialFold::new(SoftmaxMode::Lazy, ED);
    for (c, p) in partials.iter().enumerate() {
        if c % 4 != 1 {
            fold.absorb(p).unwrap();
        }
    }
    let mut ref_o = Vec::new();
    let mut stats = InferenceStats::default();
    let ref_denom = fold.finish_into(&mut ref_o, &mut stats).unwrap();
    assert_eq!(bits(&answer.o), bits(&ref_o));
    assert_eq!(answer.denominator.to_bits(), ref_denom.to_bits());
    let (_retries, _failovers, _hedges, skipped) = coordinator.counters().snapshot();
    assert!(skipped >= 1);
}

/// Drives one injected RPC fault through a single-worker fleet and
/// asserts the coordinator retries to the exact fault-free answer.
fn retried_to_identity(kind: RpcFaultKind) {
    let (m_in, m_out, u) = memories(31, ED, 0xFA17);
    let (workers, addrs) = spawn_fleet(1, false);
    let config = DistConfig {
        rpc_timeout: Duration::from_millis(250),
        connect_timeout: Duration::from_millis(200),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        ..DistConfig::default()
    };
    let mut coordinator = Coordinator::connect(&addrs, ED, CHUNK, false, config).unwrap();
    push_all(&mut coordinator, &m_in, &m_out);

    // Arm *after* the pushes so the very next response — the Forward
    // answer — is the damaged one.
    workers[0].arm_fault(RpcFaultPlan {
        kind,
        after: 0,
        fires: 1,
    });

    let engine_config = MnnFastConfig::new(CHUNK);
    let (ref_o, ref_denom) = single_node(&m_in, &m_out, &u, engine_config);
    let opts = ForwardOpts::from_config(&engine_config).unwrap();
    let answer = coordinator
        .forward(&u, opts, &Budget::unlimited(), false)
        .unwrap_or_else(|e| panic!("{kind:?} not recovered: {e}"));
    assert!(!answer.degraded);
    assert_eq!(bits(&answer.o), bits(&ref_o), "{kind:?}");
    assert_eq!(answer.denominator.to_bits(), ref_denom.to_bits());
    assert_eq!(
        workers[0].fault_fired(),
        1,
        "{kind:?} should have fired once"
    );
    let (retries, _failovers, _hedges, skipped) = coordinator.counters().snapshot();
    assert!(retries >= 1, "{kind:?} should need a retry");
    assert_eq!(skipped, 0);
}

#[test]
fn corrupt_response_is_retried_to_identity() {
    retried_to_identity(RpcFaultKind::Corrupt);
}

#[test]
fn dropped_response_times_out_and_retries_to_identity() {
    retried_to_identity(RpcFaultKind::Drop);
}

#[test]
fn disconnect_mid_stream_reconnects_to_identity() {
    retried_to_identity(RpcFaultKind::Disconnect);
}

/// Workers armed before the handshake damage their `HelloAck`: a
/// dropped, delayed, corrupted or severed ack is a transient the connect
/// retries through, not a dead worker.
#[test]
fn damaged_handshake_is_retried_not_dead() {
    let (m_in, m_out, u) = memories(ROWS, ED, 0x4E110);
    let (workers, addrs) = spawn_fleet(4, false);
    let kinds = [
        RpcFaultKind::Drop,
        RpcFaultKind::Delay(Duration::from_millis(5)),
        RpcFaultKind::Corrupt,
        RpcFaultKind::Disconnect,
    ];
    for (worker, kind) in workers.iter().zip(kinds) {
        worker.arm_fault(RpcFaultPlan {
            kind,
            after: 0,
            fires: 1,
        });
    }
    let config = DistConfig {
        rpc_timeout: Duration::from_millis(250),
        connect_timeout: Duration::from_millis(200),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        ..DistConfig::default()
    };
    let mut coordinator = Coordinator::connect(&addrs, ED, CHUNK, false, config)
        .expect("a damaged ack must not fail the connect");
    for (worker, kind) in workers.iter().zip(kinds) {
        assert_eq!(worker.fault_fired(), 1, "{kind:?} should fire on the ack");
    }
    assert_eq!(
        coordinator.worker_states(),
        vec![mnn_dist::WorkerState::Live; 4],
        "no worker may be marked dead by a damaged ack"
    );
    let (retries, _failovers, _hedges, _skipped) = coordinator.counters().snapshot();
    assert!(
        retries >= 3,
        "drop, corrupt and disconnect each need a retry: {retries}"
    );

    push_all(&mut coordinator, &m_in, &m_out);
    let engine_config = MnnFastConfig::new(CHUNK);
    let (ref_o, ref_denom) = single_node(&m_in, &m_out, &u, engine_config);
    let opts = ForwardOpts::from_config(&engine_config).unwrap();
    let answer = coordinator
        .forward(&u, opts, &Budget::unlimited(), false)
        .expect("forward after a damaged handshake");
    assert!(!answer.degraded);
    assert_eq!(bits(&answer.o), bits(&ref_o));
    assert_eq!(answer.denominator.to_bits(), ref_denom.to_bits());
}

#[test]
fn hedged_request_beats_an_injected_straggler() {
    let (m_in, m_out, u) = memories(ROWS, ED, 0x510);
    let (workers, addrs) = spawn_fleet(2, false);
    let config = DistConfig {
        replicas: 2,
        hedge: Some(Duration::from_millis(50)),
        rpc_timeout: Duration::from_secs(2),
        connect_timeout: Duration::from_millis(200),
        ..DistConfig::default()
    };
    let mut coordinator = Coordinator::connect(&addrs, ED, CHUNK, false, config).unwrap();
    push_all(&mut coordinator, &m_in, &m_out);

    // Worker 0's next response (its Forward answer) stalls 600 ms; the
    // hedge fires at 50 ms and worker 1's replica answers instead.
    workers[0].arm_fault(RpcFaultPlan {
        kind: RpcFaultKind::Delay(Duration::from_millis(600)),
        after: 0,
        fires: 1,
    });

    let engine_config = MnnFastConfig::new(CHUNK);
    let (ref_o, ref_denom) = single_node(&m_in, &m_out, &u, engine_config);
    let opts = ForwardOpts::from_config(&engine_config).unwrap();
    let start = Instant::now();
    let answer = coordinator
        .forward(&u, opts, &Budget::unlimited(), false)
        .expect("hedged forward");
    let elapsed = start.elapsed();
    assert_eq!(bits(&answer.o), bits(&ref_o));
    assert_eq!(answer.denominator.to_bits(), ref_denom.to_bits());
    assert!(
        elapsed < Duration::from_millis(500),
        "hedge did not beat the 600 ms straggler: {elapsed:?}"
    );
    let (_retries, _failovers, hedges, _skipped) = coordinator.counters().snapshot();
    assert!(hedges >= 1, "expected a hedged duplicate");
}

#[test]
fn health_walks_suspect_to_dead_and_resurrects() {
    use mnn_dist::WorkerState;
    let (m_in, m_out, _u) = memories(16, ED, 0xCAFE);
    let (mut workers, addrs) = spawn_fleet(2, false);
    let config = DistConfig {
        dead_after: 2,
        rpc_timeout: Duration::from_millis(300),
        connect_timeout: Duration::from_millis(200),
        ..DistConfig::default()
    };
    let mut coordinator = Coordinator::connect(&addrs, ED, CHUNK, false, config).unwrap();
    push_all(&mut coordinator, &m_in, &m_out);
    assert_eq!(
        coordinator.probe(),
        vec![WorkerState::Live, WorkerState::Live]
    );

    workers[1].shutdown();
    assert_eq!(coordinator.probe()[1], WorkerState::Suspect, "first miss");
    assert_eq!(coordinator.probe()[1], WorkerState::Dead, "second miss");

    // Resurrect: rebind the same port (retry briefly — the old listener
    // may take a moment to release it) and probe back to Live.
    let addr = addrs[1].to_string();
    let mut revived = None;
    for _ in 0..50 {
        match WorkerServer::spawn_on(&addr, WorkerConfig::new(ED, CHUNK)) {
            Ok(w) => {
                revived = Some(w);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(40)),
        }
    }
    let _revived = revived.expect("rebind worker 1's port");
    assert_eq!(coordinator.probe()[1], WorkerState::Live, "resurrected");
}

#[test]
fn quant_fleet_matches_single_node_quant_bitwise() {
    let (m_in, m_out, u) = memories(ROWS, ED, 0x1D8);
    let (_workers, addrs) = spawn_fleet(2, true);
    let mut coordinator =
        Coordinator::connect(&addrs, ED, CHUNK, true, DistConfig::default()).unwrap();
    push_all(&mut coordinator, &m_in, &m_out);

    // Reference: quantize the full memories locally (quantization is
    // per-row, so shard-local mirrors are the same rows) and fold the
    // chunk partials of the int8 pass.
    let mut q_in = QuantMatrix::with_capacity(ROWS, ED);
    let mut q_out = QuantMatrix::with_capacity(ROWS, ED);
    for r in 0..ROWS {
        q_in.push_row(m_in.row(r));
        q_out.push_row(m_out.row(r));
    }
    for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
        let engine_config = MnnFastConfig::new(CHUNK).with_softmax(mode);
        let engine = ColumnEngine::new(engine_config);
        let mut scratch = Scratch::new();
        let mut partials = Vec::new();
        forward_chunk_partials(
            &engine,
            MemView::from((&q_in, &q_out)),
            ROWS,
            &u,
            &mut scratch,
            &mut Trace::disabled(),
            &Budget::unlimited(),
            &mut partials,
        )
        .unwrap();
        let mut fold = PartialFold::new(mode, ED);
        for p in &partials {
            fold.absorb(p).unwrap();
        }
        let mut ref_o = Vec::new();
        let mut stats = InferenceStats::default();
        let ref_denom = fold.finish_into(&mut ref_o, &mut stats).unwrap();

        let mut opts = ForwardOpts::from_config(&engine_config).unwrap();
        opts.int8 = true;
        let answer = coordinator
            .forward(&u, opts, &Budget::unlimited(), false)
            .expect("int8 distributed forward");
        assert!(!answer.degraded);
        assert_eq!(bits(&answer.o), bits(&ref_o), "mode {mode:?}");
        assert_eq!(answer.denominator.to_bits(), ref_denom.to_bits());
    }
}
