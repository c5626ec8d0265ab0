//! The coordinator: routes rows and questions across a worker fleet and
//! folds the streamed chunk partials back into the single-node answer.
//!
//! # Placement
//!
//! Global chunk `c` (rows `c·chunk_size ..`) belongs to shard `c % S`
//! (S = fleet size); shard `s` is stored on workers
//! `(s + k) % W, k < replicas` — primary first, then replicas. Rows are
//! pushed to *every* replica synchronously, so any replica can serve the
//! shard's chunk partials bit-identically.
//!
//! # Parity
//!
//! A forward pass fans one [`Frame::Forward`] out per shard (each replica
//! chain raced/retried independently), then folds the returned
//! [`PartialState`]s in **global chunk order** through
//! [`mnnfast::PartialFold`] — the same merge plane, denominator guard,
//! and final division as the in-process segmented engine. When nothing
//! fails the distributed answer is bitwise identical to the single-node
//! one; the fault tests assert exactly that.
//!
//! # Robustness
//!
//! Per-RPC deadlines are carved from the question's [`Budget`]
//! (`min(rpc_timeout, remaining)`); failures retry with
//! decorrelated-jitter backoff, failing over across the replica chain;
//! an optional hedge fires a duplicate request at the next replica when
//! the primary dawdles; per-worker health walks Live → Suspect → Dead on
//! consecutive failures (probes resurrect); and when every replica of a
//! shard is gone the pass degrades — the dead shard's chunks are skipped,
//! the answer is flagged — instead of erroring, if the caller allows it.

use crate::error::{DistError, FrameError};
use crate::frame::{read_frame, write_frame, ErrorCode, ForwardSpec, Frame, WireStats};
use mnn_tensor::PartialState;
use mnnfast::{
    Budget, EngineError, InferenceStats, MnnFastConfig, PartialFold, Precision, SkipPolicy,
    SoftmaxMode,
};
use rand::{Rng, SeedableRng, StdRng};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Retry / failover / hedging policy for the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistConfig {
    /// Copies of every shard (1 = no replication). Clamped to fleet size.
    pub replicas: usize,
    /// Per-RPC ceiling; the effective deadline is
    /// `min(rpc_timeout, budget.remaining())`.
    pub rpc_timeout: Duration,
    /// TCP connect ceiling.
    pub connect_timeout: Duration,
    /// Attempts per shard beyond the first (walking the replica chain).
    pub max_retries: u32,
    /// Decorrelated-jitter backoff floor.
    pub backoff_base: Duration,
    /// Decorrelated-jitter backoff ceiling.
    pub backoff_cap: Duration,
    /// Fire a duplicate request at the next replica when the primary has
    /// not answered within this long. `None` disables hedging.
    pub hedge: Option<Duration>,
    /// Consecutive failures that demote a worker Suspect → Dead.
    pub dead_after: u32,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            replicas: 1,
            rpc_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(500),
            max_retries: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            hedge: None,
            dead_after: 3,
        }
    }
}

/// Coordinator-side liveness verdict for one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Answering normally.
    Live,
    /// Failed recently; still tried, but replicas are preferred sooner.
    Suspect,
    /// Failed [`DistConfig::dead_after`] times in a row; skipped until a
    /// probe resurrects it.
    Dead,
}

#[derive(Debug)]
struct Health {
    state: WorkerState,
    consecutive_failures: u32,
}

#[derive(Debug)]
struct WorkerSlot {
    addr: SocketAddr,
    health: Mutex<Health>,
    pool: Mutex<Vec<TcpStream>>,
}

impl WorkerSlot {
    fn new(addr: SocketAddr) -> Self {
        WorkerSlot {
            addr,
            health: Mutex::new(Health {
                state: WorkerState::Live,
                consecutive_failures: 0,
            }),
            pool: Mutex::new(Vec::new()),
        }
    }

    fn state(&self) -> WorkerState {
        self.health.lock().unwrap_or_else(|e| e.into_inner()).state
    }

    fn record_success(&self) {
        let mut h = self.health.lock().unwrap_or_else(|e| e.into_inner());
        h.state = WorkerState::Live;
        h.consecutive_failures = 0;
    }

    fn record_failure(&self, dead_after: u32) {
        let mut h = self.health.lock().unwrap_or_else(|e| e.into_inner());
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        h.state = if h.consecutive_failures >= dead_after {
            WorkerState::Dead
        } else {
            WorkerState::Suspect
        };
        // A failed exchange may leave a stale response in flight on pooled
        // connections; drop them all.
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// Running totals of the fault machinery, readable at any time.
#[derive(Debug, Default)]
pub struct DistCounters {
    /// RPC attempts beyond the first, summed over shards and questions.
    pub retries: AtomicU64,
    /// Shard requests answered by a non-primary replica.
    pub failovers: AtomicU64,
    /// Hedged duplicate requests fired at stragglers.
    pub hedges: AtomicU64,
    /// Shards skipped entirely (degraded answers).
    pub shards_skipped: AtomicU64,
}

impl DistCounters {
    /// Plain-value snapshot `(retries, failovers, hedges, shards_skipped)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.retries.load(Ordering::Relaxed),
            self.failovers.load(Ordering::Relaxed),
            self.hedges.load(Ordering::Relaxed),
            self.shards_skipped.load(Ordering::Relaxed),
        )
    }
}

/// Engine knobs a distributed forward pins on every worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardOpts {
    /// Softmax plane.
    pub mode: SoftmaxMode,
    /// Run over the int8 mirrors.
    pub int8: bool,
    /// Raw-weight zero-skip threshold.
    pub skip_raw: Option<f32>,
}

impl ForwardOpts {
    /// Derives the options from an engine config.
    ///
    /// # Errors
    ///
    /// [`DistError::Config`] for [`SkipPolicy::Probability`], which needs
    /// a global denominator pre-pass no shard can run.
    pub fn from_config(config: &MnnFastConfig) -> Result<ForwardOpts, DistError> {
        let skip_raw = match config.skip {
            SkipPolicy::None => None,
            SkipPolicy::RawWeight(th) => Some(th),
            SkipPolicy::Probability(_) => {
                return Err(DistError::Config(
                    "SkipPolicy::Probability cannot run on the distributed plane \
                     (needs a global denominator pre-pass)"
                        .into(),
                ))
            }
        };
        Ok(ForwardOpts {
            mode: config.softmax,
            int8: config.precision == Precision::Int8,
            skip_raw,
        })
    }
}

/// A distributed answer plus its provenance.
#[derive(Debug, Clone)]
pub struct DistOutput {
    /// The attention response vector.
    pub o: Vec<f32>,
    /// The softmax denominator that was divided out.
    pub denominator: f32,
    /// Aggregated work counters (worker wire stats + fold divisions).
    pub stats: InferenceStats,
    /// Shards whose every replica failed; empty on a clean pass.
    pub skipped_shards: Vec<u32>,
    /// `true` when any shard was skipped — the answer is a partial one.
    pub degraded: bool,
}

/// The coordinator half of the distributed plane. See the module docs.
#[derive(Debug)]
pub struct Coordinator {
    workers: Vec<WorkerSlot>,
    ed: usize,
    chunk_size: usize,
    quant: bool,
    rows: usize,
    config: DistConfig,
    counters: DistCounters,
    rng: Mutex<StdRng>,
}

impl Coordinator {
    /// Connects to `addrs` and verifies each worker's layout via
    /// [`Frame::Hello`]. Workers that fail the handshake are marked
    /// [`WorkerState::Dead`] (pushes and questions route around them);
    /// only a fully-unreachable fleet is an error.
    ///
    /// # Errors
    ///
    /// [`DistError::Config`] for an empty fleet or zero dims;
    /// [`DistError::Handshake`] when no worker at all answered.
    pub fn connect(
        addrs: &[SocketAddr],
        ed: usize,
        chunk_size: usize,
        quant: bool,
        config: DistConfig,
    ) -> Result<Coordinator, DistError> {
        if addrs.is_empty() {
            return Err(DistError::Config("no worker addresses".into()));
        }
        if ed == 0 || chunk_size == 0 {
            return Err(DistError::Config(
                "ed and chunk_size must be positive".into(),
            ));
        }
        if config.replicas == 0 {
            return Err(DistError::Config("replicas must be at least 1".into()));
        }
        let coordinator = Coordinator {
            workers: addrs.iter().copied().map(WorkerSlot::new).collect(),
            ed,
            chunk_size,
            quant,
            rows: 0,
            config,
            counters: DistCounters::default(),
            rng: Mutex::new(StdRng::seed_from_u64(0x006d_6e6e_6661_7374)),
        };
        let hello = Frame::Hello {
            ed: ed as u32,
            chunk_size: chunk_size as u32,
            quant,
        };
        let mut alive = 0usize;
        for slot in &coordinator.workers {
            // The handshake rides the same retry net as every other RPC:
            // a dropped or corrupted ack is a transient, not a dead
            // worker.
            let mut result = coordinator.exchange(slot, &hello, coordinator.config.rpc_timeout);
            let mut backoff = coordinator.config.backoff_base;
            for _ in 0..coordinator.config.max_retries {
                if result.is_ok() {
                    break;
                }
                coordinator.counters.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff.min(coordinator.config.backoff_cap));
                backoff = coordinator.next_backoff(backoff);
                result = coordinator.exchange(slot, &hello, coordinator.config.rpc_timeout);
            }
            match result {
                Ok(Frame::HelloAck { .. }) => {
                    slot.record_success();
                    alive += 1;
                }
                Ok(Frame::Error { message, .. }) => {
                    return Err(DistError::Handshake(format!("{}: {message}", slot.addr)))
                }
                Ok(other) => {
                    return Err(DistError::Handshake(format!(
                        "{}: unexpected {other:?}",
                        slot.addr
                    )))
                }
                Err(_) => {
                    // Unreachable at connect time: dead until probed back.
                    let mut h = slot.health.lock().unwrap_or_else(|e| e.into_inner());
                    h.state = WorkerState::Dead;
                    h.consecutive_failures = coordinator.config.dead_after;
                }
            }
        }
        if alive == 0 {
            return Err(DistError::Handshake(
                "no worker answered the handshake".into(),
            ));
        }
        Ok(coordinator)
    }

    /// Fleet size (= shard count).
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Global rows pushed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The fault-machinery counters.
    pub fn counters(&self) -> &DistCounters {
        &self.counters
    }

    /// Per-worker health states, indexed like the address list.
    pub fn worker_states(&self) -> Vec<WorkerState> {
        self.workers.iter().map(WorkerSlot::state).collect()
    }

    /// Replica chain for `shard`: worker indices, primary first.
    fn candidates(&self, shard: usize) -> Vec<usize> {
        let w = self.workers.len();
        let r = self.config.replicas.min(w);
        (0..r).map(|k| (shard + k) % w).collect()
    }

    /// Appends one row pair to every replica of the owning shard.
    ///
    /// # Errors
    ///
    /// [`DistError::Config`] on a dimension mismatch;
    /// [`DistError::ShardUnavailable`] when **no** replica accepted the
    /// row (accepting replicas keep it — re-pushing after such an error
    /// would duplicate rows on them; rebuild the fleet instead).
    pub fn push(&mut self, in_row: &[f32], out_row: &[f32]) -> Result<(), DistError> {
        if in_row.len() != self.ed || out_row.len() != self.ed {
            return Err(DistError::Config(format!(
                "push rows of dim {}/{} into an ed={} fleet",
                in_row.len(),
                out_row.len(),
                self.ed
            )));
        }
        let chunk = self.rows / self.chunk_size;
        let shard = (chunk % self.workers.len()) as u32;
        let frame = Frame::PushRows {
            shard,
            ed: self.ed as u32,
            in_rows: in_row.to_vec(),
            out_rows: out_row.to_vec(),
        };
        let mut accepted = 0usize;
        for &w in &self.candidates(shard as usize) {
            let slot = &self.workers[w];
            if slot.state() == WorkerState::Dead {
                continue;
            }
            match self.exchange(slot, &frame, self.config.rpc_timeout) {
                Ok(Frame::PushAck { .. }) => {
                    slot.record_success();
                    accepted += 1;
                }
                Ok(_) | Err(_) => slot.record_failure(self.config.dead_after),
            }
        }
        if accepted == 0 {
            return Err(DistError::ShardUnavailable { shard });
        }
        self.rows += 1;
        Ok(())
    }

    /// Drops every shard store on every reachable worker and resets the
    /// global row count — the distributed mirror of a session reset.
    ///
    /// # Errors
    ///
    /// [`DistError::Worker`] if any worker failed to clear (including
    /// dead ones — they could resurrect still holding pre-clear rows):
    /// the caller must not keep routing to the fleet as if empty (tear
    /// the plane down or retry).
    pub fn clear(&mut self) -> Result<(), DistError> {
        let mut first_err = None;
        for slot in &self.workers {
            // A dead worker could resurrect later still holding rows from
            // before the clear — that is a failed clear, not a skip.
            match self.exchange(slot, &Frame::Clear, self.config.rpc_timeout) {
                Ok(Frame::ClearAck) => slot.record_success(),
                Ok(_) | Err(_) => {
                    slot.record_failure(self.config.dead_after);
                    first_err.get_or_insert_with(|| {
                        DistError::Worker(format!("{} refused clear", slot.addr))
                    });
                }
            }
        }
        self.rows = 0;
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Probes every worker with [`Frame::Health`], updating states —
    /// including resurrecting [`WorkerState::Dead`] workers that answer.
    /// Returns the refreshed states.
    pub fn probe(&self) -> Vec<WorkerState> {
        for slot in &self.workers {
            match self.exchange(slot, &Frame::Health, self.config.rpc_timeout) {
                Ok(Frame::HealthAck { .. }) => slot.record_success(),
                Ok(_) | Err(_) => slot.record_failure(self.config.dead_after),
            }
        }
        self.worker_states()
    }

    /// Runs one distributed forward pass.
    ///
    /// When `allow_degraded` is set, shards whose every replica failed are
    /// skipped and reported in [`DistOutput::skipped_shards`]; otherwise
    /// the first unavailable shard is a [`DistError::ShardUnavailable`].
    ///
    /// # Errors
    ///
    /// Shape/config mismatches, budget expiry ([`EngineError`] via
    /// [`DistError::Engine`]), or shard loss (above).
    pub fn forward(
        &self,
        u: &[f32],
        opts: ForwardOpts,
        budget: &Budget,
        allow_degraded: bool,
    ) -> Result<DistOutput, DistError> {
        if u.len() != self.ed {
            return Err(DistError::Config(format!(
                "query dim {} != fleet ed {}",
                u.len(),
                self.ed
            )));
        }
        if opts.int8 && !self.quant {
            return Err(DistError::Config(
                "int8 forward on a fleet without quant mirrors".into(),
            ));
        }
        let shards = self.workers.len();
        let chunks_total = self.rows.div_ceil(self.chunk_size);
        let mut shard_results: Vec<Result<(Vec<PartialState>, WireStats), DistError>> =
            Vec::with_capacity(shards);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|s| {
                    let expected = (0..chunks_total).filter(|c| c % shards == s).count();
                    scope.spawn(move || self.ask_shard(s, expected, u, opts, budget))
                })
                .collect();
            for h in handles {
                shard_results.push(h.join().expect("shard dispatch thread"));
            }
        });

        let mut skipped_shards = Vec::new();
        let mut per_shard: Vec<Option<(Vec<PartialState>, WireStats)>> = Vec::with_capacity(shards);
        for (s, r) in shard_results.into_iter().enumerate() {
            match r {
                Ok(v) => per_shard.push(Some(v)),
                Err(e) => {
                    // A blown question budget is the *caller's* deadline,
                    // not a shard fault — degrading would silently return
                    // a partial answer the caller never got to veto.
                    let budget_expired = matches!(
                        e,
                        DistError::Engine(
                            EngineError::DeadlineExceeded { .. } | EngineError::Cancelled
                        )
                    );
                    if !allow_degraded || budget_expired {
                        return Err(e);
                    }
                    skipped_shards.push(s as u32);
                    self.counters.shards_skipped.fetch_add(1, Ordering::Relaxed);
                    per_shard.push(None);
                }
            }
        }

        // Fold in global chunk order: chunk c is shard (c % S)'s
        // (c / S)-th partial — skipping dead shards entirely.
        let mut fold = PartialFold::new(opts.mode, self.ed);
        let mut stats = InferenceStats::default();
        for c in 0..chunks_total {
            if let Some((partials, _)) = &per_shard[c % shards] {
                fold.absorb(&partials[c / shards])?;
            }
        }
        for (_, ws) in per_shard.iter().flatten() {
            stats.rows_total += ws.rows_total;
            stats.rows_skipped += ws.rows_skipped;
            stats.flops += ws.flops;
            stats.memory_bytes += ws.memory_bytes;
            stats.chunks += ws.chunks;
        }
        let mut o = Vec::with_capacity(self.ed);
        let denominator = fold.finish_into(&mut o, &mut stats)?;
        Ok(DistOutput {
            o,
            denominator,
            stats,
            degraded: !skipped_shards.is_empty(),
            skipped_shards,
        })
    }

    /// One shard's request: walk the replica chain with retries, backoff,
    /// and (optionally) a hedged duplicate racing the primary.
    fn ask_shard(
        &self,
        shard: usize,
        expected_chunks: usize,
        u: &[f32],
        opts: ForwardOpts,
        budget: &Budget,
    ) -> Result<(Vec<PartialState>, WireStats), DistError> {
        let candidates = self.candidates(shard);
        let attempts = candidates.len().max(self.config.max_retries as usize + 1);
        let mut backoff = self.config.backoff_base;
        let mut last_err: Option<DistError> = None;
        for attempt in 0..attempts {
            budget.check().map_err(DistError::Engine)?;
            // Prefer non-dead candidates; fall back to anyone once the
            // chain is exhausted (a "dead" worker may have come back).
            let pick = candidates
                .iter()
                .cycle()
                .skip(attempt)
                .take(candidates.len())
                .find(|&&w| self.workers[w].state() != WorkerState::Dead)
                .copied()
                .unwrap_or(candidates[attempt % candidates.len()]);
            if attempt > 0 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff.min(self.config.backoff_cap));
                backoff = self.next_backoff(backoff);
            }
            let deadline = self.effective_deadline(budget)?;
            let hedge_with = self.config.hedge.filter(|_| candidates.len() > 1).map(|d| {
                (
                    d,
                    candidates[(candidates.iter().position(|&w| w == pick).unwrap_or(0) + 1)
                        % candidates.len()],
                )
            });
            let result = match hedge_with {
                Some((hedge_after, secondary)) if secondary != pick => {
                    self.hedged_forward(shard, pick, secondary, hedge_after, u, opts, deadline)
                }
                _ => self.one_forward(shard, pick, u, opts, deadline),
            };
            match result {
                Ok((winner, partials, stats)) => {
                    if partials.len() != expected_chunks {
                        self.workers[winner].record_failure(self.config.dead_after);
                        last_err = Some(DistError::Config(format!(
                            "shard {shard}: worker returned {} chunks, expected {expected_chunks}",
                            partials.len()
                        )));
                        continue;
                    }
                    self.workers[winner].record_success();
                    if winner != candidates[0] {
                        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok((partials, stats));
                }
                Err(e) => {
                    self.workers[pick].record_failure(self.config.dead_after);
                    // A non-retryable protocol error will fail every
                    // replica identically; bail out now.
                    let retryable = match &e {
                        DistError::Frame(f) => f.is_retryable(),
                        DistError::Engine(_) => false,
                        _ => true,
                    };
                    if !retryable {
                        return Err(e);
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or(DistError::ShardUnavailable {
            shard: shard as u32,
        }))
    }

    /// Races `primary` against `secondary`, firing the duplicate only
    /// after `hedge_after` without an answer. First success wins; the
    /// request threads are detached so a straggler never blocks the
    /// winner (its late result lands in a dropped channel).
    #[allow(clippy::too_many_arguments)]
    fn hedged_forward(
        &self,
        shard: usize,
        primary: usize,
        secondary: usize,
        hedge_after: Duration,
        u: &[f32],
        opts: ForwardOpts,
        deadline: Duration,
    ) -> Result<(usize, Vec<PartialState>, WireStats), DistError> {
        let frame = self.forward_frame(shard, u, opts, deadline);
        let (tx, rx) = mpsc::channel();
        let fire = |worker: usize, tx: mpsc::Sender<_>| {
            let addr = self.workers[worker].addr;
            let frame = frame.clone();
            let connect_timeout = self.config.connect_timeout;
            std::thread::spawn(move || {
                let r = rpc_forward_once(addr, connect_timeout, deadline, &frame)
                    .map(|(p, s)| (worker, p, s));
                let _ = tx.send(r);
            });
        };
        fire(primary, tx.clone());
        match rx.recv_timeout(hedge_after) {
            Ok(Ok(win)) => return Ok(win),
            Ok(Err(_primary_err)) => {
                // Primary failed fast: go straight to the secondary.
            }
            Err(_) => {
                // Straggler: fire the duplicate and race both.
                self.counters.hedges.fetch_add(1, Ordering::Relaxed);
            }
        }
        fire(secondary, tx.clone());
        drop(tx);
        let mut last = None;
        while let Ok(r) = rx.recv() {
            match r {
                Ok(win) => return Ok(win),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or(DistError::ShardUnavailable {
            shard: shard as u32,
        }))
    }

    fn forward_frame(
        &self,
        shard: usize,
        u: &[f32],
        opts: ForwardOpts,
        deadline: Duration,
    ) -> Frame {
        Frame::Forward(ForwardSpec {
            shard: shard as u32,
            chunk_size: self.chunk_size as u32,
            online: opts.mode == SoftmaxMode::Online,
            int8: opts.int8,
            skip_raw: opts.skip_raw,
            deadline_ms: deadline.as_millis() as u64,
            u: u.to_vec(),
        })
    }

    /// One forward RPC to one worker (pooled connection).
    fn one_forward(
        &self,
        shard: usize,
        worker: usize,
        u: &[f32],
        opts: ForwardOpts,
        deadline: Duration,
    ) -> Result<(usize, Vec<PartialState>, WireStats), DistError> {
        let frame = self.forward_frame(shard, u, opts, deadline);
        let response = self.exchange(&self.workers[worker], &frame, deadline)?;
        parse_forward_response(response).map(|(p, s)| (worker, p, s))
    }

    /// `min(rpc_timeout, budget.remaining())`, erring when the budget is
    /// already gone.
    fn effective_deadline(&self, budget: &Budget) -> Result<Duration, DistError> {
        budget.check().map_err(DistError::Engine)?;
        Ok(match budget.remaining() {
            Some(rem) => rem.min(self.config.rpc_timeout),
            None => self.config.rpc_timeout,
        })
    }

    /// Decorrelated jitter: `sleep = min(cap, uniform(base, prev·3))`.
    fn next_backoff(&self, prev: Duration) -> Duration {
        let base = self.config.backoff_base.as_millis().max(1) as u64;
        let hi = (prev.as_millis() as u64).saturating_mul(3).max(base + 1);
        let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
        let picked = rng.random_range(base..hi);
        Duration::from_millis(picked).min(self.config.backoff_cap)
    }

    /// One request/response exchange with `slot`, reusing a pooled
    /// connection when one is idle.
    fn exchange(
        &self,
        slot: &WorkerSlot,
        request: &Frame,
        deadline: Duration,
    ) -> Result<Frame, DistError> {
        let deadline = deadline.max(Duration::from_millis(1));
        let pooled = {
            let mut pool = slot.pool.lock().unwrap_or_else(|e| e.into_inner());
            pool.pop()
        };
        let mut stream = match pooled {
            Some(s) => s,
            None => TcpStream::connect_timeout(&slot.addr, self.config.connect_timeout)?,
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
        write_frame(&mut stream, request).map_err(|e| DistError::from(FrameError::Io(e)))?;
        let response = read_frame(&mut stream)?;
        let mut pool = slot.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < 4 {
            pool.push(stream);
        }
        Ok(response)
    }
}

/// Connect-and-ask forward RPC on a fresh connection — used by detached
/// hedge threads, which cannot borrow the coordinator.
fn rpc_forward_once(
    addr: SocketAddr,
    connect_timeout: Duration,
    deadline: Duration,
    frame: &Frame,
) -> Result<(Vec<PartialState>, WireStats), DistError> {
    let deadline = deadline.max(Duration::from_millis(1));
    let mut stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(deadline))?;
    stream.set_write_timeout(Some(deadline))?;
    write_frame(&mut stream, frame).map_err(|e| DistError::from(FrameError::Io(e)))?;
    let response = read_frame(&mut stream)?;
    parse_forward_response(response)
}

fn parse_forward_response(response: Frame) -> Result<(Vec<PartialState>, WireStats), DistError> {
    match response {
        Frame::ForwardResp { partials, stats } => {
            let decoded = Frame::decode_partials(&partials)?;
            Ok((decoded, stats))
        }
        Frame::Error { code, message } => match code {
            ErrorCode::Engine => Err(DistError::Engine(EngineError::Config(message))),
            _ => Err(DistError::Worker(message)),
        },
        other => Err(DistError::Worker(format!("unexpected response {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_chains_wrap_the_fleet() {
        let workers: Vec<SocketAddr> = Vec::new();
        assert!(matches!(
            Coordinator::connect(&workers, 8, 16, false, DistConfig::default()),
            Err(DistError::Config(_))
        ));
    }

    #[test]
    fn forward_opts_reject_probability_skip() {
        let config = MnnFastConfig::new(16).with_skip(SkipPolicy::Probability(0.01));
        assert!(matches!(
            ForwardOpts::from_config(&config),
            Err(DistError::Config(_))
        ));
        let config = MnnFastConfig::new(16).with_skip(SkipPolicy::RawWeight(0.5));
        let opts = ForwardOpts::from_config(&config).unwrap();
        assert_eq!(opts.skip_raw, Some(0.5));
    }
}
