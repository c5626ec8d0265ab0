//! Multi-tenant serving: many independent QA sessions in one process.
//!
//! The cache-contention analysis (paper Section 2.2.3) assumes "multiple
//! question answering tasks can be executed simultaneously (i.e., assuming
//! multi-tenant setting)". [`SessionPool`] is that setting's software
//! shape: per-tenant sessions with isolated memories, one shared model, and
//! pooled statistics that expose the embedding-vs-inference traffic split
//! the MnnFast embedding cache addresses.

use crate::embed_cache::SentenceCache;
use crate::session::{question_budget, serving_model, Answer, ServeError, Session, SessionConfig};
use mnn_dataset::WordId;
use mnn_memnn::MemNet;
use mnnfast::{Budget, InferenceStats, Phase, PhaseHistograms, Trace};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors specific to the pool.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// No tenant with that name exists.
    UnknownTenant(String),
    /// A tenant with that name already exists.
    DuplicateTenant(String),
    /// The admission controller shed this question: admitting it would
    /// exceed the pool's pending-work budget. Callers should back off and
    /// resubmit; the bucket refills at [`AdmissionConfig::refill_per_sec`].
    Overloaded {
        /// Work units this question would cost (memory rows × hops).
        needed: u64,
        /// Work units currently available in the bucket.
        available: u64,
    },
    /// Error from the tenant's session.
    Session(ServeError),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::UnknownTenant(t) => write!(f, "unknown tenant '{t}'"),
            PoolError::DuplicateTenant(t) => write!(f, "tenant '{t}' already exists"),
            PoolError::Overloaded { needed, available } => write!(
                f,
                "overloaded: question needs {needed} work units, {available} available"
            ),
            PoolError::Session(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Session(e) => Some(e),
            _ => None,
        }
    }
}

/// Admission-control parameters: a token bucket over *work units*, where
/// one unit is one memory row attended over one hop. Bounding work units
/// rather than question count keeps the shed decision proportional to the
/// actual O(rows × hops × ed) cost a question would add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Bucket capacity: the largest burst of pending work the pool admits.
    pub capacity: u64,
    /// Refill rate in work units per second (`0` never refills — useful
    /// for deterministic tests).
    pub refill_per_sec: u64,
}

impl From<ServeError> for PoolError {
    fn from(e: ServeError) -> Self {
        PoolError::Session(e)
    }
}

/// Coalescing-batch parameters for [`SessionPool::enqueue`].
///
/// Concurrent questions over the same tenant's story are grouped into one
/// batched streaming pass (the cross-request GEMM fast path). The policy
/// is work-conserving — batching exists to amortise memory traffic, never
/// to make a lone question wait — and [`BatchConfig::should_flush`] is the
/// whole of it: a tenant's queue is dispatched when it holds `max_batch`
/// questions, when the serving loop has nothing else to do, or when its
/// oldest question has sat for `max_wait` while the loop was busy with
/// other requests. Batches therefore form from whatever arrived while the
/// previous pass was computing. Queue wait is charged against each
/// question's deadline: a question that waited `w` runs under
/// `deadline.saturating_sub(w)`, so coalescing never silently extends
/// [`SessionConfig::deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush a tenant's queue when it reaches this many questions.
    pub max_batch: usize,
    /// The longest a queued question may sit behind *other* work: a cap
    /// that only binds while the serving loop is draining a backlog (a
    /// pipelined bulk load, say) — an idle loop flushes at once, whatever
    /// this says. `0` never lets a question sit behind another request.
    pub max_wait: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
        }
    }
}

impl BatchConfig {
    /// The flush policy for one tenant queue, as a pure function: `queued`
    /// questions are waiting, the oldest for `oldest_wait`, and `idle`
    /// says whether the serving loop has run out of other requests.
    pub fn should_flush(&self, queued: usize, idle: bool, oldest_wait: Duration) -> bool {
        queued > 0 && (idle || queued >= self.max_batch || oldest_wait >= self.max_wait)
    }
}

/// One answered (or failed) question from a coalesced batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedAnswer {
    /// Request id assigned by [`SessionPool::enqueue`], in submission order.
    pub request: u64,
    /// The tenant the question was asked of.
    pub tenant: String,
    /// The per-question outcome; failures (deadline, shed, unknown token)
    /// are isolated to their own slot.
    pub answer: Result<Answer, PoolError>,
}

/// A question waiting in a tenant's coalescing queue.
#[derive(Debug, Clone)]
struct QueuedQuestion {
    id: u64,
    tokens: Vec<WordId>,
    enqueued: Instant,
}

/// Number of buckets in [`PoolStats::batch_occupancy`].
pub const OCCUPANCY_BUCKETS: usize = 8;

/// Inclusive upper bound of each [`PoolStats::batch_occupancy`] bucket
/// (the last bucket is open-ended).
pub const OCCUPANCY_BOUNDS: [usize; OCCUPANCY_BUCKETS - 1] = [1, 2, 4, 8, 16, 32, 64];

/// Maps a dispatched batch's occupancy (questions per pass) to its
/// histogram bucket: 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+.
pub fn occupancy_bucket(nq: usize) -> usize {
    OCCUPANCY_BOUNDS
        .iter()
        .position(|&bound| nq <= bound)
        .unwrap_or(OCCUPANCY_BUCKETS - 1)
}

/// Aggregate statistics across the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Tenants currently served.
    pub tenants: usize,
    /// Sentences resident across all tenant memories.
    pub total_sentences: usize,
    /// Questions answered pool-wide.
    pub questions_answered: u64,
    /// Inference counters merged across tenants.
    pub inference: InferenceStats,
    /// Embedding lookups performed pool-wide (one per word observed —
    /// the traffic stream the paper isolates with the embedding cache).
    pub embedding_lookups: u64,
    /// Per-phase wall time summed across tenants (all zero unless sessions
    /// run with [`SessionConfig::trace`] set).
    pub trace: Trace,
    /// Per-phase latency histograms merged across tenants (empty unless
    /// sessions run with [`SessionConfig::trace`] set).
    pub phases: PhaseHistograms,
    /// Questions shed by the admission controller ([`PoolError::Overloaded`]).
    pub shed_questions: u64,
    /// Questions abandoned pool-wide because their deadline expired.
    pub deadline_misses: u64,
    /// Numeric faults observed pool-wide.
    pub numeric_faults: u64,
    /// Answers produced by the safe path pool-wide (degradation retries
    /// plus questions answered while pinned).
    pub degraded_answers: u64,
    /// Tenants currently pinned to the safe path after repeated numeric
    /// faults ([`crate::DegradationStats::pinned_safe`]).
    pub pinned_sessions: usize,
    /// Distributed RPC retries pool-wide (re-sent requests after a
    /// transport fault or per-RPC deadline).
    pub dist_retries: u64,
    /// Distributed replica failovers pool-wide (a shard answered by a
    /// backup replica after its primary worker failed).
    pub dist_failovers: u64,
    /// Distributed hedged re-dispatches pool-wide (a duplicate request
    /// raced against a straggling worker).
    pub dist_hedges: u64,
    /// Sessions that tore down their worker fleet and fell back to exact
    /// local execution after a mid-flight distributed failure.
    pub dist_fallbacks: u64,
    /// Batched passes dispatched ([`SessionPool::ask_many`] calls plus
    /// coalescing-queue flushes).
    pub batches_dispatched: u64,
    /// Questions that went through a dispatched batched pass (whether the
    /// per-question slot succeeded or failed).
    pub batched_questions: u64,
    /// Largest batch occupancy seen so far (questions in one pass).
    pub max_batch_occupancy: usize,
    /// Histogram of dispatched-batch occupancies (buckets 1, 2, 3–4, 5–8,
    /// 9–16, 17–32, 33–64, 65+ — see [`occupancy_bucket`]). Shows whether
    /// cross-tenant coalescing actually fills batches under real traffic.
    pub batch_occupancy: [u64; OCCUPANCY_BUCKETS],
    /// Connections the network front-end has accepted over its lifetime
    /// (0 when no server reports through this pool).
    pub net_connections_accepted: u64,
    /// Connections currently open on the network front-end.
    pub net_connections_active: u64,
    /// Request frames the network front-end has decoded.
    pub net_frames_in: u64,
    /// Response frames the network front-end has written.
    pub net_frames_out: u64,
    /// Questions currently waiting in coalescing queues.
    pub pending_questions: usize,
    /// Sentence-cache hits pool-wide (zero when
    /// [`SessionConfig::embed_cache`] is off). A hit skips the gather-sum
    /// entirely — the serving-layer analogue of the paper's embedding
    /// cache hit.
    pub embed_hits: u64,
    /// Sentence-cache misses pool-wide (each one embedded and inserted).
    pub embed_misses: u64,
    /// Sentence-cache entries displaced by the clock hand pool-wide.
    pub embed_evictions: u64,
    /// Entries resident in the shared sentence cache right now.
    pub embed_cache_entries: usize,
    /// Memory segments visited pool-wide (one count per segment per
    /// question per hop; unsegmented sessions count one segment per pass).
    pub segments_total: u64,
    /// Segments skipped by zone-map pruning pool-wide — whole slices of
    /// story memory whose logit upper bound provably could not affect any
    /// answer. Always 0 for unsegmented or lazy-softmax sessions.
    pub segments_pruned: u64,
    /// Index clusters probed pool-wide by top-K candidate attention (one
    /// count per cluster scored against a question state). Always 0 for
    /// exact-attention sessions.
    pub index_probes: u64,
    /// Memory rows exactly rescored pool-wide after an index probe (the
    /// sparse path's actual compute volume).
    pub candidates_scored: u64,
    /// Memory rows the candidate index excluded pool-wide — rows never
    /// touched by scoring at all, the sublinear-attention win.
    pub rows_skipped_by_index: u64,
    /// Questions where the top-K candidate path stood down and the session
    /// answered with exact attention (declined probes plus contained
    /// sparse-pass faults).
    pub sparse_fallbacks: u64,
}

/// Token-bucket state for the admission controller.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    config: AdmissionConfig,
    tokens: f64,
    last_refill: Instant,
}

impl Bucket {
    fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            tokens: config.capacity as f64,
            last_refill: Instant::now(),
        }
    }

    /// Refills from elapsed wall time, then either debits `cost` work
    /// units or reports how many were available.
    fn admit(&mut self, cost: u64) -> Result<(), u64> {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill);
        self.last_refill = now;
        let refill = elapsed.as_secs_f64() * self.config.refill_per_sec as f64;
        self.tokens = (self.tokens + refill).min(self.config.capacity as f64);
        if self.tokens >= cost as f64 {
            self.tokens -= cost as f64;
            Ok(())
        } else {
            Err(self.tokens as u64)
        }
    }
}

/// A pool of per-tenant [`Session`]s sharing one trained model.
#[derive(Debug)]
pub struct SessionPool {
    /// The one copy of the weights every tenant session shares.
    model: Arc<MemNet>,
    /// `model`'s embedding fingerprint, hashed once for all tenants
    /// (`None` without a sentence cache: nothing keys on it).
    model_fingerprint: Option<u64>,
    config: SessionConfig,
    sessions: BTreeMap<String, Session>,
    /// Pool-wide sentence cache, shared by every tenant session (present
    /// iff [`SessionConfig::embed_cache`] is set).
    embed_cache: Option<Arc<SentenceCache>>,
    embedding_lookups: u64,
    bucket: Option<Bucket>,
    shed_questions: u64,
    admission_trace: Trace,
    batching: Option<BatchConfig>,
    queues: BTreeMap<String, Vec<QueuedQuestion>>,
    /// Questions across all of `queues` (a serving loop reads this between
    /// every two requests, so it is kept, not counted).
    queued: usize,
    next_request: u64,
    batches_dispatched: u64,
    batched_questions: u64,
    max_batch_occupancy: usize,
    batch_occupancy: [u64; OCCUPANCY_BUCKETS],
    sheds_by_tenant: BTreeMap<String, u64>,
}

impl SessionPool {
    /// Creates a pool; every tenant gets the same model and configuration.
    ///
    /// # Errors
    ///
    /// As [`Session::new`] (incompatible model configurations).
    pub fn new(model: impl Into<Arc<MemNet>>, config: SessionConfig) -> Result<Self, ServeError> {
        let model = serving_model(model.into())?;
        // Validate eagerly by constructing (and discarding) one session.
        let _probe = Session::with_cache(model.clone(), config, None, None)?;
        let embed_cache = config
            .embed_cache
            .map(|cap| Arc::new(SentenceCache::new(cap)));
        Ok(Self {
            model_fingerprint: embed_cache.as_ref().map(|_| model.weights_fingerprint()),
            model,
            config,
            sessions: BTreeMap::new(),
            embed_cache,
            embedding_lookups: 0,
            bucket: None,
            shed_questions: 0,
            admission_trace: if config.trace {
                Trace::enabled()
            } else {
                Trace::disabled()
            },
            batching: None,
            queues: BTreeMap::new(),
            queued: 0,
            next_request: 0,
            batches_dispatched: 0,
            batched_questions: 0,
            max_batch_occupancy: 0,
            batch_occupancy: [0; OCCUPANCY_BUCKETS],
            sheds_by_tenant: BTreeMap::new(),
        })
    }

    /// Enables admission control (builder-style). Without it the pool
    /// admits every question.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.bucket = Some(Bucket::new(admission));
        self
    }

    /// Enables the coalescing batch queue (builder-style). Without it,
    /// [`SessionPool::enqueue`] degenerates to an immediate batch of one.
    pub fn with_batching(mut self, batching: BatchConfig) -> Self {
        self.batching = Some(batching);
        self
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Returns `true` if no tenants exist.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Creates a tenant.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::DuplicateTenant`] if the name is taken.
    pub fn create_tenant(&mut self, name: &str) -> Result<(), PoolError> {
        if self.sessions.contains_key(name) {
            return Err(PoolError::DuplicateTenant(name.to_owned()));
        }
        // All tenants share the pool's weights and its one sentence cache:
        // a sentence embedded for any tenant is a hit for every other.
        let session = Session::with_cache(
            self.model.clone(),
            self.config,
            self.embed_cache.clone(),
            self.model_fingerprint,
        )
        .map_err(PoolError::Session)?;
        self.sessions.insert(name.to_owned(), session);
        Ok(())
    }

    /// The pool-wide sentence-embedding cache, if enabled via
    /// [`SessionConfig::embed_cache`].
    pub fn embed_cache(&self) -> Option<&Arc<SentenceCache>> {
        self.embed_cache.as_ref()
    }

    /// Removes a tenant and returns how many sentences its memory held.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownTenant`] if absent.
    pub fn remove_tenant(&mut self, name: &str) -> Result<usize, PoolError> {
        self.sessions
            .remove(name)
            .map(|s| s.memory_len())
            .ok_or_else(|| PoolError::UnknownTenant(name.to_owned()))
    }

    /// Observes a sentence for `tenant`.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownTenant`] or the session's error.
    pub fn observe(&mut self, tenant: &str, sentence: &[WordId]) -> Result<usize, PoolError> {
        let evicted = self.session_mut(tenant)?.observe(sentence)?;
        self.embedding_lookups += sentence.len() as u64;
        Ok(evicted)
    }

    /// Asks `tenant` a question, subject to admission control when
    /// configured via [`SessionPool::with_admission`].
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownTenant`], [`PoolError::Overloaded`] when the
    /// pending-work budget is exhausted, or the session's error.
    pub fn ask(&mut self, tenant: &str, question: &[WordId]) -> Result<Answer, PoolError> {
        self.admit(tenant, 1)?;
        self.embedding_lookups += question.len() as u64;
        Ok(self.session_mut(tenant)?.ask(question)?)
    }

    /// Asks `tenant` a batch of questions in one streaming pass over its
    /// memory — the cross-request batched fast path: every question shares
    /// each memory chunk while it is cache-resident. Admission control
    /// charges the batch's total work (rows × hops × questions) in a single
    /// decision, so a batch sheds or admits as a unit.
    ///
    /// # Errors
    ///
    /// Batch-level: [`PoolError::UnknownTenant`], [`PoolError::Overloaded`],
    /// or the session's batch-level error. Per-question failures (deadline,
    /// unknown tokens, unrecovered faults) sit in the inner `Result` slots.
    pub fn ask_many(
        &mut self,
        tenant: &str,
        questions: &[Vec<WordId>],
    ) -> Result<Vec<Result<Answer, PoolError>>, PoolError> {
        if questions.is_empty() {
            return Ok(Vec::new());
        }
        let budgets = vec![question_budget(self.config.deadline, Duration::ZERO); questions.len()];
        self.dispatch(tenant, questions, &budgets)
    }

    /// Submits one question to `tenant`'s coalescing queue. Returns the
    /// flushed batch's answers when this question fills the queue to
    /// [`BatchConfig::max_batch`], an empty vec when it merely queues.
    /// Without [`SessionPool::with_batching`] every enqueue is an immediate
    /// batch of one.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownTenant`], or a batch-level flush error (shed
    /// batches come back as per-question [`PoolError::Overloaded`] slots,
    /// not a batch-level error — the requests were already accepted into
    /// the queue).
    pub fn enqueue(
        &mut self,
        tenant: &str,
        question: &[WordId],
    ) -> Result<Vec<BatchedAnswer>, PoolError> {
        self.enqueue_tracked(tenant, question).map(|(_, a)| a)
    }

    /// As [`SessionPool::enqueue`], but also returns the request id assigned
    /// to this question — the handle a network scheduler needs to route the
    /// eventual [`BatchedAnswer`] (which may surface from a *later*
    /// `flush_due`/`enqueue` call) back to its connection.
    ///
    /// # Errors
    ///
    /// As [`SessionPool::enqueue`].
    pub fn enqueue_tracked(
        &mut self,
        tenant: &str,
        question: &[WordId],
    ) -> Result<(u64, Vec<BatchedAnswer>), PoolError> {
        self.session(tenant)?;
        let id = self.next_request;
        self.next_request += 1;
        let queue = self.queues.entry(tenant.to_owned()).or_default();
        queue.push(QueuedQuestion {
            id,
            tokens: question.to_vec(),
            enqueued: Instant::now(),
        });
        self.queued += 1;
        let flushed = if queue.len() >= self.policy().max_batch.max(1) {
            self.flush_tenant(tenant)?
        } else {
            Vec::new()
        };
        Ok((id, flushed))
    }

    /// Flushes every tenant queue whose oldest question has waited at least
    /// [`BatchConfig::max_wait`] — the backlog cap: call it between
    /// requests while the serving loop is busy, so a queued question never
    /// sits behind more than `max_wait` of other work.
    ///
    /// # Errors
    ///
    /// As [`SessionPool::enqueue`]'s flush path.
    pub fn flush_due(&mut self) -> Result<Vec<BatchedAnswer>, PoolError> {
        self.flush_queues(false)
    }

    /// Flushes every non-empty tenant queue regardless of age: what an
    /// idle serving loop does (nothing else is coming that a batch could
    /// wait for), and what shutdown does so no queued question is dropped.
    ///
    /// # Errors
    ///
    /// As [`SessionPool::enqueue`]'s flush path.
    pub fn flush_all(&mut self) -> Result<Vec<BatchedAnswer>, PoolError> {
        self.flush_queues(true)
    }

    /// Dispatches every queue [`BatchConfig::should_flush`] selects.
    fn flush_queues(&mut self, idle: bool) -> Result<Vec<BatchedAnswer>, PoolError> {
        let policy = self.policy();
        let now = Instant::now();
        let selected: Vec<String> = self
            .queues
            .iter()
            .filter(|(_, q)| {
                let oldest_wait = q
                    .first()
                    .map_or(Duration::ZERO, |r| now.duration_since(r.enqueued));
                policy.should_flush(q.len(), idle, oldest_wait)
            })
            .map(|(t, _)| t.clone())
            .collect();
        let mut answers = Vec::new();
        for tenant in selected {
            answers.extend(self.flush_tenant(&tenant)?);
        }
        Ok(answers)
    }

    /// The configured batching policy, or batches of one without
    /// [`SessionPool::with_batching`].
    fn policy(&self) -> BatchConfig {
        self.batching.unwrap_or(BatchConfig {
            max_batch: 1,
            max_wait: Duration::ZERO,
        })
    }

    /// Questions currently waiting in coalescing queues.
    pub fn pending_questions(&self) -> usize {
        self.queued
    }

    /// Questions shed by the admission controller, broken down by tenant.
    pub fn sheds_by_tenant(&self) -> &BTreeMap<String, u64> {
        &self.sheds_by_tenant
    }

    /// Sentences resident in one tenant's memory.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownTenant`] if absent.
    pub fn tenant_sentences(&self, tenant: &str) -> Result<usize, PoolError> {
        self.session(tenant).map(Session::memory_len)
    }

    /// Dispatches one tenant's queued questions as a single batched pass,
    /// now, whatever their age or number. Queue wait is charged against
    /// each question's deadline, so a question that waited `w` runs under
    /// `deadline - w`. A serving loop calls this before applying a write to
    /// the tenant's memory, so questions queued *before* the write are
    /// answered against the memory they were asked of.
    ///
    /// # Errors
    ///
    /// As [`SessionPool::enqueue`]'s flush path.
    pub fn flush_tenant(&mut self, tenant: &str) -> Result<Vec<BatchedAnswer>, PoolError> {
        let queued = match self.queues.get_mut(tenant) {
            Some(q) if !q.is_empty() => std::mem::take(q),
            _ => return Ok(Vec::new()),
        };
        self.queued -= queued.len();
        let now = Instant::now();
        let budgets: Vec<Budget> = queued
            .iter()
            .map(|r| question_budget(self.config.deadline, now.duration_since(r.enqueued)))
            .collect();
        let (ids, questions): (Vec<u64>, Vec<Vec<WordId>>) =
            queued.into_iter().map(|r| (r.id, r.tokens)).unzip();
        // The requests were already accepted, and a network scheduler
        // routing by request id needs every id back: a shed batch, a
        // batch-level failure (asking before any sentence was observed) or
        // a tenant removed with questions still queued fills every slot.
        let results = self
            .dispatch(tenant, &questions, &budgets)
            .unwrap_or_else(|e| vec![Err(e); ids.len()]);
        Ok(ids
            .into_iter()
            .zip(results)
            .map(|(id, answer)| BatchedAnswer {
                request: id,
                tenant: tenant.to_owned(),
                answer,
            })
            .collect())
    }

    /// One batched pass for `tenant`: admission, the session's ladder, and
    /// the batch-occupancy counters.
    fn dispatch(
        &mut self,
        tenant: &str,
        questions: &[Vec<WordId>],
        budgets: &[Budget],
    ) -> Result<Vec<Result<Answer, PoolError>>, PoolError> {
        let nq = questions.len();
        self.admit(tenant, nq)?;
        self.embedding_lookups += questions.iter().map(|q| q.len() as u64).sum::<u64>();
        let results = self
            .session_mut(tenant)?
            .ask_many_budgeted(questions, budgets)?;
        self.batches_dispatched += 1;
        self.batched_questions += nq as u64;
        self.max_batch_occupancy = self.max_batch_occupancy.max(nq);
        self.batch_occupancy[occupancy_bucket(nq)] += 1;
        Ok(results
            .into_iter()
            .map(|r| r.map_err(PoolError::from))
            .collect())
    }

    /// The tenant's session.
    fn session(&self, tenant: &str) -> Result<&Session, PoolError> {
        self.sessions
            .get(tenant)
            .ok_or_else(|| PoolError::UnknownTenant(tenant.to_owned()))
    }

    /// The tenant's session, mutably.
    fn session_mut(&mut self, tenant: &str) -> Result<&mut Session, PoolError> {
        self.sessions
            .get_mut(tenant)
            .ok_or_else(|| PoolError::UnknownTenant(tenant.to_owned()))
    }

    /// Charges `nq` questions over `tenant`'s memory (rows × hops each) to
    /// the admission bucket, when one is configured.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownTenant`], or [`PoolError::Overloaded`] (counted
    /// as `nq` shed questions, pool-wide and for `tenant`) when the bucket
    /// cannot cover the charge.
    fn admit(&mut self, tenant: &str, nq: usize) -> Result<(), PoolError> {
        let session = self.session(tenant)?;
        let per_question = session.memory_len() as u64 * session.model().config().hops as u64;
        let Some(bucket) = &mut self.bucket else {
            return Ok(());
        };
        let t0 = self.admission_trace.begin();
        let cost = per_question.max(1) * nq as u64;
        let decision = bucket.admit(cost);
        self.admission_trace.record(Phase::Admission, t0, nq as u64);
        decision.map_err(|available| {
            self.shed_questions += nq as u64;
            *self.sheds_by_tenant.entry(tenant.to_owned()).or_insert(0) += nq as u64;
            PoolError::Overloaded {
                needed: cost,
                available,
            }
        })
    }

    /// Aggregated pool statistics.
    pub fn stats(&self) -> PoolStats {
        let mut stats = PoolStats {
            tenants: self.sessions.len(),
            embedding_lookups: self.embedding_lookups,
            shed_questions: self.shed_questions,
            batches_dispatched: self.batches_dispatched,
            batched_questions: self.batched_questions,
            max_batch_occupancy: self.max_batch_occupancy,
            batch_occupancy: self.batch_occupancy,
            pending_questions: self.pending_questions(),
            ..PoolStats::default()
        };
        stats.trace.absorb(&self.admission_trace);
        if let Some(cache) = &self.embed_cache {
            let c = cache.stats();
            stats.embed_hits = c.hits;
            stats.embed_misses = c.misses;
            stats.embed_evictions = c.evictions;
            stats.embed_cache_entries = cache.len();
        }
        for session in self.sessions.values() {
            stats.total_sentences += session.memory_len();
            stats.questions_answered += session.questions_answered();
            stats.inference.merge(&session.cumulative_stats());
            stats.trace.absorb(&session.cumulative_trace());
            stats.phases.merge(session.phase_histograms());
            let d = session.degradation_stats();
            stats.deadline_misses += d.deadline_misses;
            stats.numeric_faults += d.numeric_faults;
            stats.degraded_answers += d.degraded_answers;
            stats.pinned_sessions += usize::from(d.pinned_safe);
            stats.dist_retries += d.dist_retries;
            stats.dist_failovers += d.dist_failovers;
            stats.dist_hedges += d.dist_hedges;
            stats.dist_fallbacks += d.dist_fallbacks;
            stats.sparse_fallbacks += d.sparse_fallbacks;
        }
        stats.segments_total = stats.inference.segments_total;
        stats.segments_pruned = stats.inference.segments_pruned;
        stats.index_probes = stats.inference.index_probes;
        stats.candidates_scored = stats.inference.candidates_scored;
        stats.rows_skipped_by_index = stats.inference.rows_skipped_by_index;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_dataset::babi::{BabiGenerator, TaskKind};
    use mnn_memnn::train::Trainer;
    use mnn_memnn::ModelConfig;

    fn pool() -> (BabiGenerator, SessionPool) {
        let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 61);
        let stories = generator.dataset(40, 6, 2);
        let config = ModelConfig {
            temporal: false,
            ..ModelConfig::for_generator(&generator, 16, 8)
        };
        let mut model = MemNet::new(config, 3);
        Trainer::new().epochs(15).train(&mut model, &stories);
        let pool = SessionPool::new(model, SessionConfig::default()).unwrap();
        (generator, pool)
    }

    #[test]
    fn tenants_are_isolated() {
        let (mut generator, mut pool) = pool();
        pool.create_tenant("alice").unwrap();
        pool.create_tenant("bob").unwrap();

        let story_a = generator.story(4, 1);
        let story_b = generator.story(6, 1);
        for s in &story_a.sentences {
            pool.observe("alice", s).unwrap();
        }
        for s in &story_b.sentences {
            pool.observe("bob", s).unwrap();
        }
        // Each tenant attends only over its own memory.
        let a = pool.ask("alice", &story_a.questions[0].tokens).unwrap();
        let b = pool.ask("bob", &story_b.questions[0].tokens).unwrap();
        assert_eq!(a.stats.rows_total, 4);
        assert_eq!(b.stats.rows_total, 6);

        let stats = pool.stats();
        assert_eq!(stats.tenants, 2);
        assert_eq!(stats.total_sentences, 10);
        assert_eq!(stats.questions_answered, 2);
        assert_eq!(stats.inference.rows_total, 10);
        // Embedding lookups: every observed/asked word.
        let words: usize = story_a
            .sentences
            .iter()
            .chain(story_b.sentences.iter())
            .map(Vec::len)
            .sum();
        let qwords = story_a.questions[0].tokens.len() + story_b.questions[0].tokens.len();
        assert_eq!(stats.embedding_lookups, (words + qwords) as u64);
    }

    #[test]
    fn tenant_lifecycle_errors() {
        let (_, mut pool) = pool();
        assert!(pool.is_empty());
        pool.create_tenant("x").unwrap();
        assert_eq!(
            pool.create_tenant("x"),
            Err(PoolError::DuplicateTenant("x".into()))
        );
        assert!(matches!(
            pool.observe("ghost", &[0]),
            Err(PoolError::UnknownTenant(_))
        ));
        assert!(matches!(
            pool.ask("ghost", &[0]),
            Err(PoolError::UnknownTenant(_))
        ));
        pool.observe("x", &[0, 1]).unwrap();
        assert_eq!(pool.remove_tenant("x"), Ok(1));
        assert_eq!(
            pool.remove_tenant("x"),
            Err(PoolError::UnknownTenant("x".into()))
        );
    }

    #[test]
    fn session_errors_propagate() {
        let (_, mut pool) = pool();
        pool.create_tenant("t").unwrap();
        // Asking before observing anything.
        assert_eq!(
            pool.ask("t", &[0]),
            Err(PoolError::Session(ServeError::EmptyMemory))
        );
    }

    #[test]
    fn admission_controller_sheds_when_overloaded() {
        let (mut generator, pool) = pool();
        // refill 0 makes the bucket deterministic: capacity admits exactly
        // one 5-row × 1-hop question (cost 5) and then sheds.
        let mut pool = pool.with_admission(AdmissionConfig {
            capacity: 7,
            refill_per_sec: 0,
        });
        pool.create_tenant("t").unwrap();
        let story = generator.story(5, 1);
        for s in &story.sentences {
            pool.observe("t", s).unwrap();
        }
        let q = &story.questions[0].tokens;
        pool.ask("t", q).unwrap();
        match pool.ask("t", q) {
            Err(PoolError::Overloaded { needed, available }) => {
                assert_eq!(needed, 5);
                assert_eq!(available, 2);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let stats = pool.stats();
        assert_eq!(stats.shed_questions, 1);
        // The shed question never reached the session.
        assert_eq!(stats.questions_answered, 1);
        assert_eq!(stats.inference.rows_total, 5);
    }

    #[test]
    fn admission_bucket_refills_over_time() {
        let (mut generator, pool) = pool();
        // Capacity covers one question exactly; the generous refill rate
        // restores the bucket within a millisecond.
        let mut pool = pool.with_admission(AdmissionConfig {
            capacity: 5,
            refill_per_sec: 10_000_000,
        });
        pool.create_tenant("t").unwrap();
        let story = generator.story(5, 1);
        for s in &story.sentences {
            pool.observe("t", s).unwrap();
        }
        let q = &story.questions[0].tokens;
        pool.ask("t", q).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        pool.ask("t", q).unwrap();
        assert_eq!(pool.stats().shed_questions, 0);
    }

    #[test]
    fn batched_ask_updates_occupancy_counters() {
        let (mut generator, mut pool) = pool();
        pool.create_tenant("t").unwrap();
        let story = generator.story(5, 2);
        for s in &story.sentences {
            pool.observe("t", s).unwrap();
        }
        let questions: Vec<Vec<WordId>> =
            story.questions.iter().map(|q| q.tokens.clone()).collect();
        let answers = pool.ask_many("t", &questions).unwrap();
        assert_eq!(answers.len(), 2);
        for a in &answers {
            assert!(a.is_ok());
        }
        let stats = pool.stats();
        assert_eq!(stats.batches_dispatched, 1);
        assert_eq!(stats.batched_questions, 2);
        assert_eq!(stats.max_batch_occupancy, 2);
        assert_eq!(stats.questions_answered, 2);
        assert_eq!(stats.pending_questions, 0);
        assert!(matches!(
            pool.ask_many("ghost", &questions),
            Err(PoolError::UnknownTenant(_))
        ));
    }

    #[test]
    fn coalescing_queue_flushes_at_max_batch() {
        let (mut generator, pool) = pool();
        let mut pool = pool.with_batching(BatchConfig {
            max_batch: 2,
            max_wait: std::time::Duration::from_secs(3600),
        });
        pool.create_tenant("t").unwrap();
        let story = generator.story(5, 2);
        for s in &story.sentences {
            pool.observe("t", s).unwrap();
        }
        let q0 = &story.questions[0].tokens;
        let q1 = &story.questions[1].tokens;
        assert_eq!(pool.enqueue("t", q0).unwrap(), Vec::new());
        assert_eq!(pool.pending_questions(), 1);
        // No queue is due yet, so flush_due leaves it alone.
        assert_eq!(pool.flush_due().unwrap(), Vec::new());
        let flushed = pool.enqueue("t", q1).unwrap();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].request, 0);
        assert_eq!(flushed[1].request, 1);
        assert!(flushed.iter().all(|b| b.tenant == "t" && b.answer.is_ok()));
        assert_eq!(pool.pending_questions(), 0);
        let stats = pool.stats();
        assert_eq!(stats.batches_dispatched, 1);
        assert_eq!(stats.max_batch_occupancy, 2);
        assert!(matches!(
            pool.enqueue("ghost", q0),
            Err(PoolError::UnknownTenant(_))
        ));
    }

    #[test]
    fn flush_due_and_flush_all_drain_partial_batches() {
        let (mut generator, pool) = pool();
        let mut pool = pool.with_batching(BatchConfig {
            max_batch: 100,
            max_wait: std::time::Duration::ZERO,
        });
        pool.create_tenant("t").unwrap();
        let story = generator.story(4, 2);
        for s in &story.sentences {
            pool.observe("t", s).unwrap();
        }
        assert_eq!(
            pool.enqueue("t", &story.questions[0].tokens).unwrap(),
            Vec::new()
        );
        // max_wait zero: the queued question is immediately due.
        let due = pool.flush_due().unwrap();
        assert_eq!(due.len(), 1);
        assert!(due[0].answer.is_ok());
        pool.enqueue("t", &story.questions[1].tokens).unwrap();
        let all = pool.flush_all().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].request, 1);
        assert_eq!(pool.stats().batches_dispatched, 2);
    }

    #[test]
    fn queue_wait_is_charged_against_the_deadline() {
        use crate::session::SessionConfig;
        use mnnfast::engine::EngineError;

        let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 61);
        let stories = generator.dataset(40, 6, 2);
        let config = ModelConfig {
            temporal: false,
            ..ModelConfig::for_generator(&generator, 16, 8)
        };
        let mut model = MemNet::new(config, 3);
        Trainer::new().epochs(15).train(&mut model, &stories);
        let session_config = SessionConfig {
            deadline: Some(std::time::Duration::from_millis(50)),
            ..SessionConfig::default()
        };
        let mut pool = SessionPool::new(model, session_config)
            .unwrap()
            .with_batching(BatchConfig {
                max_batch: 2,
                max_wait: std::time::Duration::from_secs(3600),
            });
        pool.create_tenant("t").unwrap();
        let story = generator.story(5, 2);
        for s in &story.sentences {
            pool.observe("t", s).unwrap();
        }
        pool.enqueue("t", &story.questions[0].tokens).unwrap();
        // By flush time the first question has burned its whole deadline in
        // the queue; the second arrives fresh and still has its 50 ms.
        std::thread::sleep(std::time::Duration::from_millis(60));
        let flushed = pool.enqueue("t", &story.questions[1].tokens).unwrap();
        assert_eq!(flushed.len(), 2);
        assert!(matches!(
            flushed[0].answer,
            Err(PoolError::Session(ServeError::Engine(
                EngineError::DeadlineExceeded { .. }
            )))
        ));
        assert!(flushed[1].answer.is_ok());
        assert_eq!(pool.stats().deadline_misses, 1);
    }

    #[test]
    fn shed_batch_returns_overloaded_slots() {
        let (mut generator, pool) = pool();
        let mut pool = pool
            .with_admission(AdmissionConfig {
                capacity: 7,
                refill_per_sec: 0,
            })
            .with_batching(BatchConfig {
                max_batch: 2,
                max_wait: std::time::Duration::from_secs(3600),
            });
        pool.create_tenant("t").unwrap();
        let story = generator.story(5, 2);
        for s in &story.sentences {
            pool.observe("t", s).unwrap();
        }
        // Batch cost is 5 rows × 1 hop × 2 questions = 10 > capacity 7.
        pool.enqueue("t", &story.questions[0].tokens).unwrap();
        let flushed = pool.enqueue("t", &story.questions[1].tokens).unwrap();
        assert_eq!(flushed.len(), 2);
        for b in &flushed {
            match &b.answer {
                Err(PoolError::Overloaded { needed, available }) => {
                    assert_eq!(*needed, 10);
                    assert_eq!(*available, 7);
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
        }
        let stats = pool.stats();
        assert_eq!(stats.shed_questions, 2);
        assert_eq!(stats.batches_dispatched, 0);
        assert_eq!(stats.questions_answered, 0);
    }

    #[test]
    fn occupancy_buckets_partition_the_axis() {
        assert_eq!(occupancy_bucket(1), 0);
        assert_eq!(occupancy_bucket(2), 1);
        assert_eq!(occupancy_bucket(3), 2);
        assert_eq!(occupancy_bucket(4), 2);
        assert_eq!(occupancy_bucket(5), 3);
        assert_eq!(occupancy_bucket(8), 3);
        assert_eq!(occupancy_bucket(64), 6);
        assert_eq!(occupancy_bucket(65), 7);
        assert_eq!(occupancy_bucket(100_000), 7);
    }

    #[test]
    fn enqueue_tracked_returns_request_ids() {
        let (mut generator, pool) = pool();
        let mut pool = pool.with_batching(BatchConfig {
            max_batch: 2,
            max_wait: std::time::Duration::from_secs(3600),
        });
        pool.create_tenant("t").unwrap();
        let story = generator.story(5, 2);
        for s in &story.sentences {
            pool.observe("t", s).unwrap();
        }
        let (id0, flushed) = pool
            .enqueue_tracked("t", &story.questions[0].tokens)
            .unwrap();
        assert_eq!(id0, 0);
        assert!(flushed.is_empty());
        assert_eq!(pool.pending_questions(), 1);
        let (id1, flushed) = pool
            .enqueue_tracked("t", &story.questions[1].tokens)
            .unwrap();
        assert_eq!(id1, 1);
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].request, id0);
        assert_eq!(flushed[1].request, id1);
        assert_eq!(pool.pending_questions(), 0);
        // The two-question flush landed in the occupancy histogram.
        let stats = pool.stats();
        assert_eq!(stats.batch_occupancy[occupancy_bucket(2)], 1);
        assert_eq!(stats.batch_occupancy.iter().sum::<u64>(), 1);
    }

    #[test]
    fn batch_level_failures_fill_every_slot() {
        let (mut generator, pool) = pool();
        let mut pool = pool.with_batching(BatchConfig {
            max_batch: 2,
            max_wait: std::time::Duration::from_secs(3600),
        });
        pool.create_tenant("t").unwrap();
        // No sentences observed: the flush's batch-level EmptyMemory must
        // come back as one error slot per queued question, ids intact.
        let story = generator.story(5, 2);
        pool.enqueue("t", &story.questions[0].tokens).unwrap();
        let flushed = pool.enqueue("t", &story.questions[1].tokens).unwrap();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].request, 0);
        assert_eq!(flushed[1].request, 1);
        for b in &flushed {
            assert_eq!(
                b.answer,
                Err(PoolError::Session(ServeError::EmptyMemory)),
                "request {}",
                b.request
            );
        }
    }

    #[test]
    fn sheds_are_attributed_to_their_tenant() {
        let (mut generator, pool) = pool();
        let mut pool = pool.with_admission(AdmissionConfig {
            capacity: 7,
            refill_per_sec: 0,
        });
        pool.create_tenant("a").unwrap();
        pool.create_tenant("b").unwrap();
        let story = generator.story(5, 1);
        for s in &story.sentences {
            pool.observe("a", s).unwrap();
            pool.observe("b", s).unwrap();
        }
        let q = &story.questions[0].tokens;
        pool.ask("a", q).unwrap();
        assert!(matches!(
            pool.ask("b", q),
            Err(PoolError::Overloaded { .. })
        ));
        assert!(matches!(
            pool.ask("b", q),
            Err(PoolError::Overloaded { .. })
        ));
        assert_eq!(pool.sheds_by_tenant().get("b"), Some(&2));
        assert_eq!(pool.sheds_by_tenant().get("a"), None);
        assert_eq!(pool.stats().shed_questions, 2);
    }

    #[test]
    fn flush_policy_table() {
        let ms = Duration::from_millis;
        let policy = BatchConfig {
            max_batch: 4,
            max_wait: ms(2),
        };
        // (queued, idle, oldest wait) -> flush?
        for (queued, idle, waited, flush, why) in [
            (0, true, ms(0), false, "an empty queue never flushes"),
            (0, false, ms(9), false, "nor does its age matter"),
            (1, true, ms(0), true, "idle: a lone question goes at once"),
            (3, true, ms(0), true, "idle flushes a partial batch"),
            (1, false, ms(0), false, "busy and fresh: let a batch form"),
            (3, false, ms(1), false, "busy, under both limits: hold"),
            (4, false, ms(0), true, "a full batch goes, busy or not"),
            (9, false, ms(0), true, "so does an over-full one"),
            (1, false, ms(2), true, "backlog cap: waited max_wait"),
            (1, false, ms(50), true, "backlog cap, past the boundary"),
        ] {
            assert_eq!(policy.should_flush(queued, idle, waited), flush, "{why}");
        }
        // max_wait = 0: a question never sits behind another request.
        let eager = BatchConfig {
            max_batch: 64,
            max_wait: Duration::ZERO,
        };
        assert!(eager.should_flush(1, false, Duration::ZERO));
        assert!(!eager.should_flush(0, false, Duration::ZERO));
        // A huge cap never fires on its own: only occupancy or idleness do.
        let patient = BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(3600),
        };
        assert!(!patient.should_flush(63, false, Duration::from_secs(3599)));
        assert!(patient.should_flush(63, true, Duration::ZERO));
    }

    #[test]
    fn flush_tenant_answers_only_that_tenant() {
        let (mut generator, pool) = pool();
        let mut pool = pool.with_batching(BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(3600),
        });
        pool.create_tenant("a").unwrap();
        pool.create_tenant("b").unwrap();
        let story = generator.story(5, 2);
        for s in &story.sentences {
            pool.observe("a", s).unwrap();
            pool.observe("b", s).unwrap();
        }
        pool.enqueue("a", &story.questions[0].tokens).unwrap();
        pool.enqueue("b", &story.questions[1].tokens).unwrap();
        let flushed = pool.flush_tenant("a").unwrap();
        assert_eq!(flushed.len(), 1);
        assert_eq!((flushed[0].request, flushed[0].tenant.as_str()), (0, "a"));
        assert!(flushed[0].answer.is_ok());
        assert_eq!(pool.pending_questions(), 1, "b's question still waits");
        assert_eq!(pool.flush_tenant("a").unwrap(), Vec::new());
        assert_eq!(pool.flush_tenant("ghost").unwrap(), Vec::new());
    }

    #[test]
    fn removing_a_tenant_answers_its_queued_requests() {
        let (mut generator, pool) = pool();
        let mut pool = pool.with_batching(BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(3600),
        });
        pool.create_tenant("a").unwrap();
        pool.create_tenant("b").unwrap();
        let story = generator.story(5, 2);
        for s in &story.sentences {
            pool.observe("a", s).unwrap();
            pool.observe("b", s).unwrap();
        }
        pool.enqueue("a", &story.questions[0].tokens).unwrap();
        pool.enqueue("b", &story.questions[1].tokens).unwrap();
        pool.remove_tenant("a").unwrap();
        // One flush gives every id back: the orphan as a per-slot error,
        // and the other tenant's due question is not held behind it.
        let flushed = pool.flush_all().unwrap();
        assert_eq!(flushed.len(), 2);
        assert_eq!((flushed[0].request, flushed[0].tenant.as_str()), (0, "a"));
        assert_eq!(flushed[0].answer, Err(PoolError::UnknownTenant("a".into())));
        assert_eq!((flushed[1].request, flushed[1].tenant.as_str()), (1, "b"));
        assert!(flushed[1].answer.is_ok());
        assert_eq!(pool.pending_questions(), 0);
    }

    #[test]
    fn tenants_share_one_copy_of_the_model() {
        let (_, pool) = pool();
        let mut pool = pool;
        pool.create_tenant("a").unwrap();
        pool.create_tenant("b").unwrap();
        let a: *const MemNet = pool.sessions["a"].model();
        let b: *const MemNet = pool.sessions["b"].model();
        assert!(std::ptr::eq(a, b), "no per-tenant clone of the weights");
        assert!(std::ptr::eq(a, &*pool.model));
    }

    #[test]
    fn error_source_chains_to_engine_error() {
        use mnnfast::engine::EngineError;
        use std::error::Error as _;

        let e = PoolError::Session(ServeError::Engine(EngineError::Cancelled));
        let serve = e.source().expect("pool error wraps a serve error");
        assert_eq!(serve.to_string(), "request cancelled");
        let engine = serve.source().expect("serve error wraps an engine error");
        assert_eq!(engine.to_string(), "request cancelled");
        assert!(engine.source().is_none());
        assert!(PoolError::UnknownTenant("x".into()).source().is_none());
    }
}
