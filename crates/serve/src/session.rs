//! A serving session: observe sentences, answer questions.

use crate::embed_cache::{EmbedCacheStats, SentenceCache};
use mnn_dataset::text;
use mnn_dataset::{Vocabulary, WordId};
use mnn_dist::{
    Coordinator, DistConfig, DistError, ForwardOpts, WorkerConfig, WorkerServer, WorkerState,
};
use mnn_memnn::{MemNet, ModelConfig, OutputStage};
use mnn_tensor::{read_var, EnvVarError};
use mnnfast::engine::EngineError;
use mnnfast::store::SegmentedStore;
use mnnfast::{
    hop_chain, multi_hop_batch, Budget, ColumnOutput, ExecPlan, HopsOutput, InferenceStats,
    MnnFastConfig, Phase, PhaseHistograms, PlanExecutor, Precision, Route, Scratch, SegmentMap,
    SegmentPlan, SoftmaxMode, Trace,
};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Numeric faults, retried or surfaced, after which a session is pinned to
/// the Safe rung. The degradation ladder (a paper-adjacent robustness
/// extension) retries a faulted exact pass once on the online-softmax
/// safe pass; one fault is noise that retry absorbs, but a session that
/// keeps faulting pays a wasted fast pass for every question, so from the
/// third fault on its questions start on the Safe rung.
const PIN_AFTER_FAULTS: u64 = 3;

/// Session configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Execution plan: the MnnFast engine configuration (chunk size,
    /// skipping, softmax mode, threads) plus which engine variant runs it
    /// ([`mnnfast::EngineKind::Auto`] picks per question from the current
    /// memory size).
    ///
    /// Threads are held, not borrowed per question: a session with
    /// `threads = t` starts `t − 1` worker threads the first time a pass
    /// splits and keeps them, spinning briefly after each pass and then
    /// parked, until the session is dropped; its output stage splits on
    /// the same threads. With `threads = 1` (the default, and what a
    /// [`crate::SessionPool`] and the `mnn-serve` daemon run by default)
    /// no thread is ever started.
    pub plan: ExecPlan,
    /// Memory bound in sentences (`None` = unbounded).
    pub max_sentences: Option<usize>,
    /// Record per-phase timings for every question (cumulative breakdowns
    /// via [`Session::cumulative_trace`] / [`Session::phase_histograms`]).
    /// Off by default: disabled tracing costs nothing on the hot path.
    pub trace: bool,
    /// Per-question deadline. Every [`Session::ask`] runs under a
    /// [`Budget`] with this limit; engines check it once per chunk and
    /// abandon the question with [`EngineError::DeadlineExceeded`] instead
    /// of finishing late. `None` (default) never expires.
    pub deadline: Option<Duration>,
    /// Sentence-embedding memoization bound in entries (`None`, the
    /// default, disables it). A standalone [`Session`] builds a private
    /// [`SentenceCache`] of this capacity; sessions created by a
    /// [`crate::SessionPool`] share one pool-wide cache instead, so a
    /// sentence embedded for one tenant is a hit for every other.
    pub embed_cache: Option<usize>,
    /// Number of routed memory segments. `1` keeps the classic
    /// single-range prefix pass; with more the session partitions the
    /// store into chunk-aligned segments via its zone map and enables
    /// segment pruning: online-softmax passes skip whole segments whose
    /// logit upper bound provably cannot affect the answer
    /// (bitwise-identical results either way; lazy-softmax passes route
    /// through the same plan but never prune). Default 1; `0` is a
    /// configuration error at session creation.
    pub segments: usize,
    /// Numeric precision of the memory plane. [`Precision::F32`] (the
    /// default) serves from the f32 row store; [`Precision::Int8`] keeps a
    /// per-row symmetric int8 mirror (re-quantized incrementally on every
    /// observe/evict) and answers through the exact-integer kernels, moving
    /// roughly a quarter of the bytes per question. Numeric faults on the
    /// int8 path degrade to the f32 safe path exactly like f32 faults.
    pub precision: Precision,
    /// Distributed serving fleet size. With `>= 2` the session spawns that
    /// many in-process loopback [`WorkerServer`]s, mirrors every observed
    /// sentence to them (whole chunks round-robin), and answers questions
    /// through a fault-tolerant [`Coordinator`] — bitwise-identical to
    /// local serving when nothing fails, with retry/failover/hedging when
    /// something does. The session keeps its full local store as the
    /// fallback plane: if the whole fleet fails a question, it is
    /// re-answered locally and the fleet is torn down. `1` (the default) is
    /// local serving; `0` is a configuration error at session creation.
    /// Incompatible with [`Self::max_sentences`]
    /// (eviction is not mirrored), top-K attention ([`Self::topk`]), and
    /// [`mnnfast::SkipPolicy::Probability`].
    pub workers: usize,
    /// Copies of every shard across the fleet (failover capacity). Default
    /// 1 (no replication); `0` is a configuration error at session
    /// creation. Otherwise ignored for local serving.
    pub replicas: usize,
    /// Hedge delay for the distributed plane: a duplicate shard request is
    /// fired at the next replica when the primary has not answered within
    /// this long. `None` (the default) never hedges. Ignored for local
    /// serving.
    pub hedge: Option<Duration>,
    /// Top-K candidate attention. With `topk >= 1` the session maintains a
    /// clustered candidate index over the memory store and answers each
    /// question by probing the nearest clusters, then running the *exact*
    /// fused kernels over only the candidate rows — sublinear in memory
    /// size, bitwise-identical to exact attention restricted to those rows.
    /// Low-confidence probes (collapsed score margins) decline per question
    /// and the session falls back to exact attention, counted in
    /// [`DegradationStats::sparse_fallbacks`]. `0` (the default) is exact
    /// attention.
    /// Incompatible with distributed serving (`workers >= 2`),
    /// [`mnnfast::SkipPolicy::Probability`], and a [`Self::max_sentences`]
    /// window no larger than `topk`.
    pub topk: usize,
    /// Clusters probed per top-K question before candidate gathering stops
    /// (probing always continues until `topk` candidates are found, so this
    /// is a floor, not a cap). Higher values trade candidate-scoring work
    /// for recall. Default 8: wide enough for near-perfect recall on
    /// clustered memories, still sublinear against the `~sqrt(rows)`
    /// cluster count. `0` is a configuration error at session creation.
    /// Otherwise ignored unless top-K attention is active.
    pub nprobe: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            plan: ExecPlan::new(MnnFastConfig::new(64)),
            max_sentences: None,
            trace: false,
            deadline: None,
            embed_cache: None,
            segments: 1,
            precision: Precision::F32,
            workers: 1,
            replicas: 1,
            hedge: None,
            topk: 0,
            nprobe: 8,
        }
    }
}

impl SessionConfig {
    /// The session half of a binary's resolver: each of the six serving
    /// knobs set in `source` replaces `self`'s value, and an unset or blank
    /// one keeps it. An edge passes a lookup over [`std::env::var`] and
    /// then applies its flags over the result, so a flag wins, the
    /// environment fills, and `self` is the default. The library never
    /// calls this: a [`Session`] is a function of its `SessionConfig`.
    ///
    /// | variable | field | accepts |
    /// |----------|-------|---------|
    /// | `MNNFAST_SEGMENTS` | [`Self::segments`] | a positive count |
    /// | `MNNFAST_WORKERS` | [`Self::workers`] | a positive count |
    /// | `MNNFAST_REPLICAS` | [`Self::replicas`] | a positive count |
    /// | `MNNFAST_HEDGE_MS` | [`Self::hedge`] | milliseconds, `0` = no hedging |
    /// | `MNNFAST_TOPK` | [`Self::topk`] | a positive count |
    /// | `MNNFAST_NPROBE` | [`Self::nprobe`] | a positive count |
    ///
    /// # Errors
    ///
    /// The first malformed variable, as an [`EnvVarError`].
    pub fn with_env(self, source: &dyn Fn(&str) -> Option<String>) -> Result<Self, EnvVarError> {
        let count = |var, current| {
            read_var(source, var, "a positive integer", |&n: &usize| n > 0)
                .map(|n| n.unwrap_or(current))
        };
        let hedge_ms = read_var(
            source,
            "MNNFAST_HEDGE_MS",
            "a non-negative integer of milliseconds (0 disables hedging)",
            |_: &u64| true,
        )?;
        Ok(Self {
            segments: count("MNNFAST_SEGMENTS", self.segments)?,
            workers: count("MNNFAST_WORKERS", self.workers)?,
            replicas: count("MNNFAST_REPLICAS", self.replicas)?,
            hedge: hedge_ms.map_or(self.hedge, |ms| (ms > 0).then(|| Duration::from_millis(ms))),
            topk: count("MNNFAST_TOPK", self.topk)?,
            nprobe: count("MNNFAST_NPROBE", self.nprobe)?,
            ..self
        })
    }
}

/// Errors from the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The model configuration is incompatible with online serving.
    Model(String),
    /// A token is outside the model's vocabulary.
    UnknownToken(WordId),
    /// No sentences have been observed yet.
    EmptyMemory,
    /// The underlying engine failed.
    Engine(mnnfast::engine::EngineError),
    /// The distributed serving plane failed to come up (worker spawn or
    /// coordinator handshake), or its configuration is incompatible with
    /// the session (sliding window, top-K attention, probability skip).
    /// Mid-flight fleet failures never surface here — questions fall back
    /// to the local plane instead.
    Dist(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Model(msg) => write!(f, "incompatible model: {msg}"),
            ServeError::UnknownToken(t) => write!(f, "token {t} outside vocabulary"),
            ServeError::EmptyMemory => write!(f, "no sentences observed yet"),
            ServeError::Engine(e) => write!(f, "{e}"),
            ServeError::Dist(msg) => write!(f, "distributed serving: {msg}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mnnfast::engine::EngineError> for ServeError {
    fn from(e: mnnfast::engine::EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// Robustness counters for one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Numeric faults (NaN/Inf caught in an accumulator) plus contained
    /// scale-out worker panics ([`EngineError::WorkerPanicked`]) on the
    /// exact passes, fast or safe — whether the safe-path retry recovered
    /// the question or not. A fault on the top-K pass counts in
    /// [`Self::sparse_fallbacks`] instead.
    pub numeric_faults: u64,
    /// Questions answered via the safe path (retries plus every question
    /// answered while pinned).
    pub degraded_answers: u64,
    /// Questions abandoned because their deadline expired.
    pub deadline_misses: u64,
    /// Whether the session is pinned to the safe path: after three
    /// numeric faults, retried or surfaced, every question starts there.
    pub pinned_safe: bool,
    /// Distributed plane: shard RPC attempts beyond the first (running
    /// total from the coordinator; 0 for local sessions).
    pub dist_retries: u64,
    /// Distributed plane: shard requests answered by a non-primary replica.
    pub dist_failovers: u64,
    /// Distributed plane: hedged duplicate requests fired at stragglers.
    pub dist_hedges: u64,
    /// Fleet teardowns: the distributed plane failed a question (or a
    /// mirrored write) entirely, and the session answers from its local
    /// store from then on (so this is at most 1 per session today).
    pub dist_fallbacks: u64,
    /// Questions where the top-K candidate path stood down and the session
    /// answered with exact attention instead: the index declined (low
    /// probe-confidence margin, empty index, or a candidate set covering
    /// every live row) or the sparse pass was abandoned by a contained
    /// fault. Every such question still gets a full-precision answer; this
    /// only counts the lost sublinear speedup.
    pub sparse_fallbacks: u64,
}

/// One answered question.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The predicted answer word.
    pub word: WordId,
    /// Softmax probability of the predicted word.
    pub probability: f32,
    /// Engine counters for this question.
    pub stats: InferenceStats,
    /// Per-phase timings for this question (all zero unless
    /// [`SessionConfig::trace`] is set). Answers from a batched ask
    /// ([`Session::ask_many`]) carry the *batch-wide* trace: the batched
    /// engine streams every chunk once for all questions, so phase time is
    /// shared and cannot be attributed per question.
    pub trace: Trace,
    /// `true` if the safe path, the ladder's last rung, answered — a retry
    /// after a numeric fault, or a session pinned after repeated faults.
    /// The safe path runs the same fused kernels with the online softmax
    /// over the f32 plane: finite for arbitrary logits, at the price of
    /// the running-max rescaling (and, on an int8 session, of reading the
    /// full-width rows).
    pub degraded: bool,
}

/// A long-lived question-answering session.
///
/// Holds a trained [`MemNet`], a growable [`SegmentedStore`], and a
/// [`PlanExecutor`]. Incoming story sentences are embedded immediately
/// (`A` and `C` sides) and appended; questions are embedded through `B`
/// and answered through that executor over however many hops the model
/// uses. One [`Scratch`] arena is reused across questions, so the engine
/// forward pass allocates nothing once the buffers have grown to the
/// store's capacity.
#[derive(Debug)]
pub struct Session {
    /// The trained weights, shared with every other session created from
    /// the same `Arc` (one copy per [`crate::SessionPool`]).
    model: Arc<MemNet>,
    store: SegmentedStore,
    config: SessionConfig,
    executor: PlanExecutor,
    /// Safe-path executor: the same plan in online-softmax mode — the
    /// same fused kernels and engine kind, finite for arbitrary logits and
    /// free of the lazy path's fast exp. Used for numeric-fault retries
    /// and for sessions pinned after repeated faults.
    safe_executor: PlanExecutor,
    scratch: Scratch,
    cumulative: InferenceStats,
    cumulative_trace: Trace,
    histograms: PhaseHistograms,
    questions_answered: u64,
    degradation: DegradationStats,
    /// Sentence/question embedding memoization (`None` = embed every time).
    embed_cache: Option<Arc<SentenceCache>>,
    /// Weight fingerprint baked into every cache key (0 without a cache).
    model_fingerprint: u64,
    /// Reusable `2 * ed` buffer for the sentence pair in [`Session::observe`].
    pair_buf: Vec<f32>,
    /// Reusable buffers of the output stage ([`MemNet::output_answers`]).
    output_stage: OutputStage,
    /// Cached routed map over the store, rebuilt lazily whenever the store
    /// version moves (only maintained when `segments > 1`).
    seg_map: SegmentMap,
    /// Store version `seg_map` was built at (`None` = never built).
    seg_map_version: Option<u64>,
    /// Distributed serving plane: in-process worker fleet + coordinator
    /// (`None` = local serving, including after a total-failure teardown).
    dist: Option<DistPlane>,
}

/// The session-owned distributed plane: the spawned loopback workers and
/// the coordinator that routes to them. The workers live exactly as long
/// as this value — dropping it shuts the fleet down.
#[derive(Debug)]
struct DistPlane {
    workers: Vec<WorkerServer>,
    coordinator: Coordinator,
}

impl Session {
    /// Creates a session around a trained model.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] if the model uses the learned temporal
    /// encoding: its age-based indexing would require re-embedding the whole
    /// memory on every append, which contradicts the online-serving premise.
    /// Train serving models with `temporal: false` (use position encoding
    /// for order information instead).
    pub fn new(model: impl Into<Arc<MemNet>>, config: SessionConfig) -> Result<Self, ServeError> {
        let cache = config
            .embed_cache
            .map(|cap| Arc::new(SentenceCache::new(cap)));
        Self::with_cache(model.into(), config, cache, None)
    }

    /// As [`Session::new`], but memoizing embeddings in `cache` — typically
    /// one cache shared across every session of a [`crate::SessionPool`],
    /// so a sentence embedded for one tenant is a hit for all of them. The
    /// capacity in [`SessionConfig::embed_cache`] is ignored; the given
    /// cache is used as-is.
    ///
    /// # Errors
    ///
    /// As [`Session::new`].
    pub fn with_shared_cache(
        model: impl Into<Arc<MemNet>>,
        config: SessionConfig,
        cache: Arc<SentenceCache>,
    ) -> Result<Self, ServeError> {
        Self::with_cache(model.into(), config, Some(cache), None)
    }

    /// The one constructor. `fingerprint` is `model`'s
    /// [`MemNet::weights_fingerprint`] when the caller already has it (a
    /// pool hashes its shared weights once, not once per tenant).
    pub(crate) fn with_cache(
        model: Arc<MemNet>,
        config: SessionConfig,
        cache: Option<Arc<SentenceCache>>,
        fingerprint: Option<u64>,
    ) -> Result<Self, ServeError> {
        for (name, value) in [
            ("segments", config.segments),
            ("workers", config.workers),
            ("replicas", config.replicas),
            ("nprobe", config.nprobe),
        ] {
            if value == 0 {
                return Err(ServeError::Engine(EngineError::Config(format!(
                    "{name} must be at least 1"
                ))));
            }
        }
        let topk = config.topk;
        if topk > 0 {
            if matches!(config.plan.config.skip, mnnfast::SkipPolicy::Probability(_)) {
                return Err(ServeError::Engine(EngineError::Config(
                    "probability zero-skip sweeps the full memory for its denominator; \
                     incompatible with top-K candidate attention"
                        .into(),
                )));
            }
            if let Some(bound) = config.max_sentences {
                if topk >= bound {
                    return Err(ServeError::Engine(EngineError::Config(format!(
                        "topk = {topk} covers the whole {bound}-sentence sliding window; \
                         the candidate index could never skip a row"
                    ))));
                }
            }
        }
        let model = serving_model(model)?;
        let ed = model.embedding_dim();
        let safe_plan = ExecPlan::new(config.plan.config.with_softmax(SoftmaxMode::Online))
            .with_kind(config.plan.kind);
        // The fingerprint hashes every embedding weight; skip it entirely
        // when no cache will ever key on it.
        let model_fingerprint = match (&cache, fingerprint) {
            (None, _) => 0,
            (Some(_), Some(known)) => known,
            (Some(_), None) => model.weights_fingerprint(),
        };
        let mut store = SegmentedStore::new(ed, config.max_sentences);
        if config.precision == Precision::Int8 {
            // Enable the int8 mirror up front (the store is empty, so this
            // is free); every subsequent push re-quantizes incrementally.
            store.enable_quant();
        }
        let dist = build_dist_plane(&config, ed)?;
        if topk > 0 && dist.is_some() {
            return Err(ServeError::Dist(
                "top-K candidate attention probes a local index the worker fleet \
                 does not hold; configure sparse serving or distributed serving, \
                 not both"
                    .into(),
            ));
        }
        Ok(Self {
            model,
            store,
            config,
            executor: config.plan.executor(),
            safe_executor: safe_plan.executor(),
            scratch: Scratch::new(),
            cumulative: InferenceStats::default(),
            cumulative_trace: Trace::enabled(),
            histograms: PhaseHistograms::new(),
            questions_answered: 0,
            degradation: DegradationStats::default(),
            embed_cache: cache,
            model_fingerprint,
            pair_buf: Vec::new(),
            output_stage: OutputStage::default(),
            seg_map: SegmentMap::default(),
            seg_map_version: None,
            dist,
        })
    }

    /// The number of sentences currently in memory.
    pub fn memory_len(&self) -> usize {
        self.store.len()
    }

    /// Segment count this session routes over (`1` = unsegmented prefix
    /// pass).
    pub fn segments(&self) -> usize {
        self.config.segments
    }

    /// Numeric precision of this session's memory plane.
    pub fn precision(&self) -> Precision {
        self.config.precision
    }

    /// Top-K candidate count (`0` = exact attention).
    pub fn topk(&self) -> usize {
        self.config.topk
    }

    /// Probe floor for top-K questions (meaningless unless
    /// [`Session::topk`] is non-zero).
    pub fn nprobe(&self) -> usize {
        self.config.nprobe
    }

    /// Bytes resident in the f32 memory plane (populated rows of both
    /// memories).
    pub fn memory_resident_bytes(&self) -> u64 {
        (self.store.len() * self.store.embedding_dim() * 4 * 2) as u64
    }

    /// Bytes resident in the int8 mirror (0 for f32 sessions).
    pub fn quant_resident_bytes(&self) -> u64 {
        self.store.quant_resident_bytes()
    }

    /// Rebuilds the cached segment map if the store changed since the last
    /// question. No-op for unsegmented sessions; the map is always built
    /// with the engine's chunk size so segment boundaries stay
    /// chunk-aligned (the bitwise-parity requirement).
    fn refresh_segment_map(&mut self) {
        if self.config.segments <= 1 {
            return;
        }
        let version = self.store.version();
        if self.seg_map_version != Some(version) {
            self.seg_map = self
                .store
                .segment_map(self.config.segments, self.config.plan.config.chunk_size);
            self.seg_map_version = Some(version);
        }
    }

    /// Counters accumulated over every question answered so far.
    pub fn cumulative_stats(&self) -> InferenceStats {
        self.cumulative
    }

    /// Per-phase timings summed over every question answered so far
    /// (all zero unless [`SessionConfig::trace`] is set).
    pub fn cumulative_trace(&self) -> Trace {
        self.cumulative_trace
    }

    /// Cumulative per-phase latency histograms over answered questions
    /// (empty unless [`SessionConfig::trace`] is set).
    pub fn phase_histograms(&self) -> &PhaseHistograms {
        &self.histograms
    }

    /// Questions answered so far.
    pub fn questions_answered(&self) -> u64 {
        self.questions_answered
    }

    /// Robustness counters: numeric faults, degraded answers, deadline
    /// misses, and whether the session is pinned to the safe path.
    pub fn degradation_stats(&self) -> DegradationStats {
        self.degradation
    }

    /// Worker-fleet size of the distributed plane (0 = local serving,
    /// including after a total-failure teardown).
    pub fn dist_shards(&self) -> usize {
        self.dist.as_ref().map_or(0, |d| d.coordinator.shards())
    }

    /// Probes every worker of the distributed plane, returning the
    /// refreshed per-worker health states (`None` for local sessions).
    /// Dead workers that answer the probe are resurrected.
    pub fn dist_probe(&self) -> Option<Vec<WorkerState>> {
        self.dist.as_ref().map(|d| d.coordinator.probe())
    }

    /// Fault-drill lever: shuts down one in-process worker of the
    /// distributed plane, as if its process died. Returns `false` for
    /// local sessions or an out-of-range index. Subsequent questions
    /// exercise the real failover machinery — replicas if configured,
    /// otherwise total-failure fallback to the local store.
    pub fn kill_dist_worker(&mut self, index: usize) -> bool {
        match &mut self.dist {
            Some(d) if index < d.workers.len() => {
                d.workers[index].shutdown();
                true
            }
            _ => false,
        }
    }

    /// Copies the coordinator's running fault counters into this session's
    /// [`DegradationStats`] (they are cumulative totals, not deltas).
    fn sync_dist_counters(&mut self) {
        if let Some(dist) = &self.dist {
            let (retries, failovers, hedges, _skipped) = dist.coordinator.counters().snapshot();
            self.degradation.dist_retries = retries;
            self.degradation.dist_failovers = failovers;
            self.degradation.dist_hedges = hedges;
        }
    }

    /// The sentence-embedding cache this session consults, if any (shared
    /// pool-wide for sessions created by a [`crate::SessionPool`]).
    pub fn embed_cache(&self) -> Option<&Arc<SentenceCache>> {
        self.embed_cache.as_ref()
    }

    /// Counter snapshot of the sentence-embedding cache (`None` when
    /// memoization is disabled). For pooled sessions the counters are
    /// pool-wide, not per tenant.
    pub fn embed_cache_stats(&self) -> Option<EmbedCacheStats> {
        self.embed_cache.as_ref().map(|c| c.stats())
    }

    /// Forgets every observed sentence and invalidates the sentence cache.
    ///
    /// The invalidation is deliberately conservative: resident cache
    /// entries are still keyed to the current weights and would remain
    /// correct, but a reset marks a session boundary, and for a shared
    /// cache it guarantees no embedding computed before the reset can
    /// influence anything after it. Sessions sharing the cache repopulate
    /// it on their next misses.
    pub fn reset(&mut self) {
        self.store.clear();
        // A fleet that cannot confirm the clear may still hold rows; fall
        // back to local serving rather than risk stale answers.
        if self
            .dist
            .as_mut()
            .is_some_and(|d| d.coordinator.clear().is_err())
        {
            self.note(Degradation::FleetLost);
        }
        if let Some(cache) = &self.embed_cache {
            cache.invalidate_all();
        }
    }

    /// Swaps in freshly trained weights (same embedding width), e.g. after
    /// a periodic retrain. The memory store is cleared — resident rows were
    /// embedded with the old weights — and the sentence cache is both
    /// version-invalidated and re-keyed to the new weights' fingerprint,
    /// so a stale embedding can never answer a post-reload question.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] when the new model's embedding width
    /// differs from the session's store, or its configuration is invalid.
    pub fn reload_model(&mut self, model: impl Into<Arc<MemNet>>) -> Result<(), ServeError> {
        let model = serving_model(model.into())?;
        if model.embedding_dim() != self.model.embedding_dim() {
            return Err(ServeError::Model(format!(
                "reloaded embedding dim {} != session dim {}",
                model.embedding_dim(),
                self.model.embedding_dim()
            )));
        }
        self.model = model;
        // Resident rows, local and on the fleet, were embedded with the old
        // weights.
        self.reset();
        if self.embed_cache.is_some() {
            self.model_fingerprint = self.model.weights_fingerprint();
        }
        Ok(())
    }

    /// The underlying model (e.g. to decode answers via its vocabulary).
    pub fn model(&self) -> &MemNet {
        &self.model
    }

    /// The executor answering this session's questions.
    pub fn executor(&self) -> &PlanExecutor {
        &self.executor
    }

    /// Embeds and appends one story sentence. Returns the number of evicted
    /// sentences (0, or 1 when the sliding window is full).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownToken`] if a token is out of vocabulary.
    pub fn observe(&mut self, sentence: &[WordId]) -> Result<usize, ServeError> {
        self.check_tokens(sentence)?;
        let ed = self.model.embedding_dim();
        let mut trace = if self.config.trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        let t0 = trace.begin();
        let mut buf = std::mem::take(&mut self.pair_buf);
        buf.clear();
        buf.resize(2 * ed, 0.0);
        let (in_row, out_row) = buf.split_at_mut(ed);
        let cached = match &self.embed_cache {
            Some(cache) => cache.lookup_pair(self.model_fingerprint, sentence, in_row, out_row),
            None => false,
        };
        if !cached {
            self.model.embed_sentence_pair(sentence, in_row, out_row);
            if let Some(cache) = &self.embed_cache {
                cache.insert_pair(self.model_fingerprint, sentence, in_row, out_row);
            }
        }
        trace.record(Phase::Embed, t0, sentence.len() as u64);
        let evicted = self.store.push(in_row, out_row);
        // Mirror the row to the worker fleet (synchronously, to every
        // replica of its shard). A failed mirror would leave the fleet's
        // copy behind the local truth, so it tears the plane down: the
        // session falls back to local serving rather than ever answering
        // over partial memory without saying so.
        if let Some(dist) = &mut self.dist {
            if dist.coordinator.push(in_row, out_row).is_err() {
                self.note(Degradation::FleetLost);
            }
        }
        self.pair_buf = buf;
        // Observe-side embed time feeds the cumulative trace only: the
        // per-question histograms measure question latency, and a sentence
        // arrival is not a question.
        self.cumulative_trace.absorb(&trace);
        Ok(evicted)
    }

    /// Embeds and answers one question against the current memory, under
    /// the deadline from [`SessionConfig::deadline`] (if any).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::EmptyMemory`] before any sentence has been
    /// observed, [`ServeError::UnknownToken`] for out-of-vocabulary tokens,
    /// or an engine error ([`EngineError::DeadlineExceeded`] when the
    /// deadline expires mid-question; [`EngineError::NumericFault`] only if
    /// the safe-path retry faults too).
    pub fn ask(&mut self, question: &[WordId]) -> Result<Answer, ServeError> {
        let budget = question_budget(self.config.deadline, Duration::ZERO);
        self.ask_with_budget(question, &budget)
    }

    /// [`Session::ask`] under a caller-supplied [`Budget`] — e.g. a shared
    /// cancellation token, or a deadline spanning several questions. This is
    /// [`Session::ask_many_budgeted`] over one question, so an answer never
    /// depends on which of the two entry points served it.
    ///
    /// A failed question (deadline, cancellation, unrecovered fault) leaves
    /// the session intact: memory, cumulative statistics and scratch are
    /// unchanged, and subsequent questions run normally.
    ///
    /// # Errors
    ///
    /// As [`Session::ask`].
    pub fn ask_with_budget(
        &mut self,
        question: &[WordId],
        budget: &Budget,
    ) -> Result<Answer, ServeError> {
        self.ask_many_budgeted(&[question.to_vec()], std::slice::from_ref(budget))?
            .pop()
            .expect("one slot per question")
    }

    /// Answers a batch of questions, slot `i` bitwise [`Session::ask`] of
    /// `questions[i]`.
    ///
    /// Every question runs under its own [`Budget`] built from
    /// [`SessionConfig::deadline`]; see [`Session::ask_many_budgeted`] for
    /// the per-question semantics.
    ///
    /// # Errors
    ///
    /// As [`Session::ask_many_budgeted`].
    pub fn ask_many(
        &mut self,
        questions: &[Vec<WordId>],
    ) -> Result<Vec<Result<Answer, ServeError>>, ServeError> {
        let budgets = vec![question_budget(self.config.deadline, Duration::ZERO); questions.len()];
        self.ask_many_budgeted(questions, &budgets)
    }

    /// [`Session::ask_many`] under caller-supplied per-question [`Budget`]s
    /// (`budgets[q]` governs `questions[q]` across all hops).
    ///
    /// Every question climbs the one degradation ladder: fleet, then
    /// top-K, then the fast exact pass, then the safe pass. The questions
    /// that reach the same exact rung share each memory chunk while it is
    /// cache-resident, so each hop streams `M_IN`/`M_OUT` once per *group*
    /// instead of once per question; questions on the top-K rung run one
    /// by one, each over its own candidate rows. Slots come back in question order and failures
    /// are isolated per question: a question whose budget expires carries a
    /// typed [`EngineError::DeadlineExceeded`] (or
    /// [`EngineError::Cancelled`]) in its slot while its batchmates finish
    /// normally.
    ///
    /// # Errors
    ///
    /// The outer `Err` is batch-level: [`ServeError::EmptyMemory`], a
    /// budget-count mismatch, or an engine configuration error. Everything
    /// per-question (unknown tokens, deadlines, unrecovered faults) is in
    /// the inner `Result` slots.
    pub fn ask_many_budgeted(
        &mut self,
        questions: &[Vec<WordId>],
        budgets: &[Budget],
    ) -> Result<Vec<Result<Answer, ServeError>>, ServeError> {
        if budgets.len() != questions.len() {
            return Err(ServeError::Engine(EngineError::Config(format!(
                "budget count {} != question count {}",
                budgets.len(),
                questions.len()
            ))));
        }
        if questions.is_empty() {
            return Ok(Vec::new());
        }
        if self.store.is_empty() {
            return Err(ServeError::EmptyMemory);
        }

        let mut trace = if self.config.trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        // Per-question token validation: a bad question's slot is settled
        // up front, so it never reaches the ladder.
        let mut slots = Vec::with_capacity(questions.len());
        let mut us = Vec::with_capacity(questions.len());
        for question in questions {
            let slot = self.check_tokens(question).err().map(Err);
            us.push(match slot {
                Some(_) => Vec::new(),
                None => self.embed_question_cached(question, &mut trace),
            });
            slots.push(slot);
        }
        let results = self.climb(&us, budgets, slots, &mut trace)?;
        let answers = self.answer_outputs(results, trace);
        // The call is one trace observation: phases are shared across the
        // batch, so absorbing it per answer would multiply the time.
        self.cumulative_trace.absorb(&trace);
        self.histograms.observe(&trace);
        Ok(answers)
    }

    /// The output stage of every ask: each successful pass goes through
    /// one [`MemNet::output_answers`] call — `W` streamed once for the
    /// whole batch, split over the worker threads the engine pass already
    /// holds in the session's scratch — and each answered slot adds to the cumulative stats
    /// and the answered count (the ladder counters were settled by
    /// [`Session::climb`]). Slots come back in `results` order; answers
    /// carry `trace`.
    fn answer_outputs(
        &mut self,
        results: Vec<Slot>,
        trace: Trace,
    ) -> Vec<Result<Answer, ServeError>> {
        let mut stage = std::mem::take(&mut self.output_stage);
        self.model.output_answers(
            results
                .iter()
                .flatten()
                .map(|(out, _)| (out.o.as_slice(), out.u_last.as_slice())),
            &mut stage,
            self.scratch.team(),
        );
        let mut predicted = stage.answers().iter();
        let answers = results
            .into_iter()
            .map(|result| {
                let (out, degraded) = result?;
                let (word, probability) = predicted
                    .next()
                    .expect("one prediction per engine output")
                    .ok_or_else(|| ServeError::Model("model produced empty logits".into()))?;
                self.cumulative.merge(&out.stats);
                self.questions_answered += 1;
                // Hand the response buffer back so the next question reuses it.
                self.scratch.recycle(out.o);
                Ok(Answer {
                    word,
                    probability,
                    stats: out.stats,
                    trace,
                    degraded,
                })
            })
            .collect();
        self.output_stage = stage;
        answers
    }

    /// Embeds a question through `B`, consulting the sentence cache first.
    /// This is the single question-embedding call site; the sentence side
    /// ([`Session::observe`]) shares the same kernel dispatch via
    /// [`MemNet::embed_sentence_pair`]. Cached and computed results are
    /// bitwise identical (the kernels are deterministic and the cache
    /// stores exact bytes), so hits never change an answer.
    fn embed_question_cached(&mut self, tokens: &[WordId], trace: &mut Trace) -> Vec<f32> {
        let mut u = vec![0.0; self.model.embedding_dim()];
        let t0 = trace.begin();
        let cached = match &self.embed_cache {
            Some(cache) => cache.lookup_question(self.model_fingerprint, tokens, &mut u),
            None => false,
        };
        if !cached {
            self.model.embed_question(tokens, &mut u);
            if let Some(cache) = &self.embed_cache {
                cache.insert_question(self.model_fingerprint, tokens, &u);
            }
        }
        trace.record(Phase::Embed, t0, tokens.len() as u64);
        u
    }

    /// The degradation ladder, run once per ask over all its questions
    /// (those whose slot is still `None`). Every question starts on
    /// [`start`]'s rung and only moves forward ([`next`]), so there are at
    /// most four rounds, and each round runs the questions that reached its
    /// rung as one group. Results are in `us` order.
    fn climb(
        &mut self,
        us: &[Vec<f32>],
        budgets: &[Budget],
        mut slots: Vec<Option<Slot>>,
        trace: &mut Trace,
    ) -> Result<Vec<Slot>, EngineError> {
        // A memory no larger than `topk` has no row for the index to skip.
        let topk = self.config.topk;
        let sparse = topk > 0 && self.store.len() > topk;
        let first = start(self.degradation.pinned_safe, self.dist.is_some(), sparse);
        let mut rungs = vec![first; us.len()];
        for rung in [Rung::Fleet, Rung::Sparse, Rung::Fast, Rung::Safe] {
            let group: Vec<usize> = (0..us.len())
                .filter(|&q| slots[q].is_none() && rungs[q] == rung)
                .collect();
            if group.is_empty() {
                continue;
            }
            let t0 = trace.begin();
            let results = self.run(rung, &group, us, budgets, trace)?;
            if rung == Rung::Safe && first != Rung::Safe {
                trace.record(Phase::Retry, t0, group.len() as u64);
            }
            // The one place a question's ladder events are recorded.
            for (&q, result) in group.iter().zip(results) {
                let safe = rung == Rung::Safe;
                let (to, event) = match &result {
                    Ok(_) => (None, safe.then_some(Degradation::SafeAnswer)),
                    Err(e) => next(rung, Failure::of(e), sparse),
                };
                if let Some(event) = event {
                    self.note(event);
                }
                match to {
                    Some(to) => rungs[q] = to,
                    None => slots[q] = Some(result.map(|out| (out, safe))),
                }
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("no rung follows Safe, so every question settles"))
            .collect())
    }

    /// Runs one rung over its group (indices into `us`) as one batched hop
    /// chain: one result per member, in group order, each bitwise its lone
    /// ask however the executor splits the group.
    fn run(
        &mut self,
        rung: Rung,
        group: &[usize],
        us: &[Vec<f32>],
        budgets: &[Budget],
        trace: &mut Trace,
    ) -> Result<Vec<Result<HopsOutput, ServeError>>, EngineError> {
        let (us, budgets) = (members(group, us), members(group, budgets));
        if rung == Rung::Fleet {
            return Ok(self.run_fleet(&us, &budgets, trace));
        }
        let hops = self.model.config().hops;
        let safe = rung == Rung::Safe;
        let precision = if safe {
            Precision::F32
        } else {
            self.config.precision
        };
        if precision == Precision::Int8 {
            // A no-op when current; rebuilt after any mutation path that
            // bypassed the incremental maintenance.
            self.store.enable_quant();
        }
        let plan;
        let route = if rung == Rung::Sparse {
            // No-op when the index is current and undrifted; retrains after
            // clears or enough membership churn to unbalance the clusters.
            self.store.enable_index();
            Route::TopK {
                index: self.store.index().expect("index just synced"),
                topk: self.config.topk,
                nprobe: self.config.nprobe,
            }
        } else {
            self.refresh_segment_map();
            plan = exact_plan(self.config.segments, &self.seg_map, self.store.len());
            Route::Plan(&plan)
        };
        let exec = if safe {
            &self.safe_executor
        } else {
            &self.executor
        };
        let (view, scratch) = (self.store.view(precision), &mut self.scratch);
        let outs = multi_hop_batch(exec, view, route, &us, hops, scratch, trace, &budgets)?;
        Ok(outs.into_iter().map(|r| Ok(r?)).collect())
    }

    /// The Fleet rung: [`hop_chain`] with each hop fanned out to the worker
    /// fleet, which answers bitwise like the local pass and absorbs
    /// retries, failovers and hedges itself. A budget expiry surfaces as
    /// itself; any other fleet error loses the question as
    /// [`ServeError::Dist`], and every later pass of the rung with it.
    fn run_fleet(
        &mut self,
        us: &[Vec<f32>],
        budgets: &[Budget],
        trace: &mut Trace,
    ) -> Vec<Result<HopsOutput, ServeError>> {
        let t0 = trace.begin();
        let hops = self.model.config().hops;
        let dist = self
            .dist
            .as_ref()
            .expect("the Fleet rung runs only while the fleet is up");
        let opts = ForwardOpts {
            int8: self.config.precision == Precision::Int8,
            ..ForwardOpts::from_config(&self.config.plan.config)
                .expect("validated when the fleet was built")
        };
        let mut lost: Option<ServeError> = None;
        let mut fleet_pass = |u: &Vec<f32>, budget: &Budget| {
            if let Some(e) = &lost {
                return Err(e.clone());
            }
            // Degraded (shard-skipping) answers are refused: a full local
            // answer always beats a partial distributed one.
            match dist.coordinator.forward(u, opts, budget, false) {
                Ok(out) => Ok(ColumnOutput {
                    o: out.o,
                    denominator: out.denominator,
                    stats: out.stats,
                }),
                Err(DistError::Engine(
                    e @ (EngineError::DeadlineExceeded { .. } | EngineError::Cancelled),
                )) => Err(ServeError::Engine(e)),
                Err(e) => Err(lost.insert(ServeError::Dist(e.to_string())).clone()),
            }
        };
        let chains = hop_chain(us, hops, &mut self.scratch, |states, live, _| {
            let pass = |(u, &q): (&Vec<f32>, &usize)| fleet_pass(u, &budgets[q]);
            Ok(states.iter().zip(live).map(pass).collect())
        });
        self.sync_dist_counters();
        trace.record(Phase::Dist, t0, (us.len() * hops) as u64);
        chains.unwrap_or_else(|e| vec![Err(e); us.len()])
    }

    /// Records one ladder event: the only place the
    /// [`DegradationStats`] counters move.
    fn note(&mut self, event: Degradation) {
        let stats = &mut self.degradation;
        match event {
            // Every question a lost fleet hands back notes the loss; the
            // first tears the fleet down, so the counter counts teardowns.
            Degradation::FleetLost => {
                if self.dist.is_some() {
                    self.sync_dist_counters();
                    self.dist = None;
                    self.degradation.dist_fallbacks += 1;
                }
            }
            Degradation::SparseFallback => stats.sparse_fallbacks += 1,
            Degradation::NumericFault => {
                stats.numeric_faults += 1;
                stats.pinned_safe |= stats.numeric_faults >= PIN_AFTER_FAULTS;
            }
            Degradation::DeadlineMiss => stats.deadline_misses += 1,
            Degradation::SafeAnswer => stats.degraded_answers += 1,
        }
    }

    /// Text-level [`Session::observe`]: tokenizes against `vocab` first.
    ///
    /// # Errors
    ///
    /// As [`Session::observe`], plus [`ServeError::Model`] when a word is
    /// not in the vocabulary.
    pub fn observe_text(
        &mut self,
        sentence: &str,
        vocab: &Vocabulary,
    ) -> Result<usize, ServeError> {
        self.observe(&encode(sentence, vocab)?)
    }

    /// Text-level [`Session::ask`]: tokenizes against `vocab` and decodes
    /// the answer back to a word ([`Session::ask_many_text`] over one
    /// question).
    ///
    /// # Errors
    ///
    /// As [`Session::ask`], plus [`ServeError::Model`] for unknown words.
    pub fn ask_text(
        &mut self,
        question: &str,
        vocab: &Vocabulary,
    ) -> Result<(String, Answer), ServeError> {
        self.ask_many_text(&[question.to_owned()], vocab)?
            .pop()
            .expect("one slot per question")
    }

    /// Text-level [`Session::ask_many`]: tokenizes every question against
    /// `vocab`, answers all of them in one batched pass, and decodes each
    /// answer back to a word. Questions with unknown words get a
    /// per-question [`ServeError::Model`] slot without failing the batch.
    ///
    /// # Errors
    ///
    /// Batch-level errors as [`Session::ask_many`].
    #[allow(clippy::type_complexity)]
    pub fn ask_many_text(
        &mut self,
        questions: &[String],
        vocab: &Vocabulary,
    ) -> Result<Vec<Result<(String, Answer), ServeError>>, ServeError> {
        let encoded: Vec<Result<Vec<WordId>, ServeError>> =
            questions.iter().map(|q| encode(q, vocab)).collect();
        let valid: Vec<Vec<WordId>> = encoded.iter().flatten().cloned().collect();
        let mut batched = self.ask_many(&valid)?.into_iter();
        Ok(encoded
            .into_iter()
            .map(|tokens| {
                tokens?;
                let answer = batched.next().expect("one slot per encodable question")?;
                Ok((vocab.word(answer.word).unwrap_or("<?>").to_owned(), answer))
            })
            .collect())
    }

    fn check_tokens(&self, tokens: &[WordId]) -> Result<(), ServeError> {
        let v = self.model.config().vocab_size as WordId;
        for &t in tokens {
            if t >= v {
                return Err(ServeError::UnknownToken(t));
            }
        }
        Ok(())
    }
}

/// Tokenizes `text` against `vocab`; an unknown word is a
/// [`ServeError::Model`].
fn encode(text: &str, vocab: &Vocabulary) -> Result<Vec<WordId>, ServeError> {
    text::encode(text, vocab).map_err(|w| ServeError::Model(format!("unknown word '{w}'")))
}

/// The model as a session serves it: the age-indexed temporal encoding
/// off (it would need the whole memory re-embedded on every append). A
/// model already in that shape is shared as-is; only a temporal one is
/// copied to be fixed.
pub(crate) fn serving_model(model: Arc<MemNet>) -> Result<Arc<MemNet>, ServeError> {
    let mc = model.config();
    if !mc.temporal {
        return Ok(model);
    }
    let fixed = ModelConfig {
        temporal: false,
        ..mc
    };
    if fixed.validate().is_err() {
        return Err(ServeError::Model("invalid model configuration".into()));
    }
    let mut model = Arc::unwrap_or_clone(model);
    model.set_config(fixed);
    Ok(Arc::new(model))
}

/// `all`'s members at `group` (ascending indices into it), borrowed when
/// the group is all of them.
fn members<'a, T: Clone>(group: &[usize], all: &'a [T]) -> Cow<'a, [T]> {
    if group.len() == all.len() {
        Cow::Borrowed(all)
    } else {
        Cow::Owned(group.iter().map(|&q| all[q].clone()).collect())
    }
}

/// The exact pass's plan: routed over the (refreshed) segment map with
/// pruning on, or the populated prefix for unsegmented sessions.
fn exact_plan(segments: usize, seg_map: &SegmentMap, rows: usize) -> SegmentPlan<'_> {
    if segments > 1 {
        SegmentPlan::routed(seg_map, true)
    } else {
        SegmentPlan::unsegmented(rows)
    }
}

/// The budget a question runs under: [`SessionConfig::deadline`] less the
/// time it already `waited` (in a coalescing queue), or no limit.
pub(crate) fn question_budget(deadline: Option<Duration>, waited: Duration) -> Budget {
    deadline.map_or_else(Budget::unlimited, |limit| {
        Budget::with_deadline(limit.saturating_sub(waited))
    })
}

/// One question's way off the ladder: its hop output and whether the Safe
/// rung produced it, or the error that ended it.
type Slot = Result<(HopsOutput, bool), ServeError>;

/// A rung of the degradation ladder, in the order questions descend it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    /// The distributed worker fleet, one question at a time.
    Fleet,
    /// Top-K candidate attention ([`Route::TopK`]), one question at a time.
    Sparse,
    /// Exact attention on the configured executor and precision plane.
    Fast,
    /// Exact attention on the configured plan in online-softmax mode over
    /// the f32 plane: the same fused kernels, finite for arbitrary logits.
    Safe,
}

/// Why a rung handed a question back unanswered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Failure {
    /// The fleet failed the question as a whole.
    FleetLost,
    /// The question's deadline expired.
    Deadline,
    /// The question's cancel token tripped.
    Cancelled,
    /// The top-K index declined the probe.
    IndexDeclined,
    /// A numeric fault or a contained worker panic.
    Fault,
    /// Anything else (configuration, shapes).
    Other,
}

impl Failure {
    fn of(e: &ServeError) -> Self {
        match e {
            ServeError::Dist(_) => Failure::FleetLost,
            ServeError::Engine(EngineError::DeadlineExceeded { .. }) => Failure::Deadline,
            ServeError::Engine(EngineError::Cancelled) => Failure::Cancelled,
            ServeError::Engine(EngineError::IndexDeclined { .. }) => Failure::IndexDeclined,
            ServeError::Engine(EngineError::NumericFault { .. } | EngineError::WorkerPanicked) => {
                Failure::Fault
            }
            _ => Failure::Other,
        }
    }
}

/// One event the [`DegradationStats`] counters record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Degradation {
    /// The fleet was lost and is torn down (`dist_fallbacks`).
    FleetLost,
    /// The top-K pass stood down for a question (`sparse_fallbacks`).
    SparseFallback,
    /// A numeric fault on the Fast or Safe rung (`numeric_faults`, and the
    /// [`PIN_AFTER_FAULTS`] check).
    NumericFault,
    /// A question's deadline expired (`deadline_misses`).
    DeadlineMiss,
    /// The Safe rung answered a question (`degraded_answers`).
    SafeAnswer,
}

/// The rung every question of an ask starts on, from the session's state
/// alone: the fleet while it is up, else top-K while it is `sparse` (an
/// index configured and more rows than `topk`), else the fast exact pass —
/// and the Safe rung, whatever else holds, once the session is `pinned`:
/// its trouble was numeric, and the safe pass is local.
pub(crate) fn start(pinned: bool, fleet_up: bool, sparse: bool) -> Rung {
    match (pinned, fleet_up, sparse) {
        (true, _, _) => Rung::Safe,
        (false, true, _) => Rung::Fleet,
        (false, false, true) => Rung::Sparse,
        (false, false, false) => Rung::Fast,
    }
}

/// The degradation ladder: where a question goes when `rung` fails it with
/// `failure` (`None` ends the question with the failure in its slot), and
/// the event the failure records, whether the question moves or stops. A
/// question only moves forward, so it climbs at most four rungs.
///
/// Numeric-fault counting rule: every numeric fault or contained worker
/// panic on the Fast or Safe rung is one `numeric_faults` event, and the
/// pin check runs on each — the one retried on Safe, and one that ends its
/// question on the Safe rung (a pinned session's pass, or a retry that
/// faults again). A fault on the Sparse rung is a `sparse_fallbacks`
/// event instead, and a fleet that cannot absorb a fault is lost. An expired deadline is a `deadline_misses` event on
/// every rung; a cancellation records nothing.
pub(crate) fn next(
    rung: Rung,
    failure: Failure,
    sparse: bool,
) -> (Option<Rung>, Option<Degradation>) {
    match (rung, failure) {
        // The caller's budget is not a fault: never mask it by burning
        // more time on another rung. A configuration or shape error would
        // fail on every rung alike.
        (_, Failure::Deadline) => (None, Some(Degradation::DeadlineMiss)),
        (_, Failure::Cancelled | Failure::Other) => (None, None),
        (Rung::Fleet, _) => (
            Some(start(false, false, sparse)),
            Some(Degradation::FleetLost),
        ),
        (Rung::Sparse, Failure::IndexDeclined | Failure::Fault) => {
            (Some(Rung::Fast), Some(Degradation::SparseFallback))
        }
        (Rung::Fast, Failure::Fault) => (Some(Rung::Safe), Some(Degradation::NumericFault)),
        (Rung::Safe, Failure::Fault) => (None, Some(Degradation::NumericFault)),
        _ => (None, None),
    }
}

/// Builds the distributed plane when the worker count asks for one:
/// validates the combination, spawns the loopback fleet, and connects a
/// coordinator.
fn build_dist_plane(config: &SessionConfig, ed: usize) -> Result<Option<DistPlane>, ServeError> {
    let workers = config.workers;
    if workers <= 1 {
        return Ok(None);
    }
    if config.max_sentences.is_some() {
        return Err(ServeError::Dist(
            "max_sentences (sliding-window eviction) is not mirrored to workers; \
             use an unbounded store with distributed serving"
                .into(),
        ));
    }
    // Probability skip needs a global denominator pre-pass no shard can
    // run; surface that at session creation, not per question.
    ForwardOpts::from_config(&config.plan.config).map_err(|e| match e {
        DistError::Config(msg) => ServeError::Dist(msg),
        other => ServeError::Dist(other.to_string()),
    })?;
    let quant = config.precision == Precision::Int8;
    let chunk_size = config.plan.config.chunk_size;
    let mut fleet = Vec::with_capacity(workers);
    for _ in 0..workers {
        let mut wc = WorkerConfig::new(ed, chunk_size);
        wc.quant = quant;
        fleet.push(
            WorkerServer::spawn(wc)
                .map_err(|e| ServeError::Dist(format!("worker spawn failed: {e}")))?,
        );
    }
    let addrs: Vec<_> = fleet.iter().map(WorkerServer::addr).collect();
    let dist_config = DistConfig {
        replicas: config.replicas,
        hedge: config.hedge,
        ..DistConfig::default()
    };
    let coordinator = Coordinator::connect(&addrs, ed, chunk_size, quant, dist_config)
        .map_err(|e| ServeError::Dist(format!("coordinator handshake failed: {e}")))?;
    Ok(Some(DistPlane {
        workers: fleet,
        coordinator,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_dataset::babi::{BabiGenerator, TaskKind};
    use mnn_memnn::train::Trainer;
    use mnn_memnn::{eval, ModelConfig};
    use mnnfast::{EngineKind, Phase};

    /// Every (rung, failure class) row of the ladder, with the event each
    /// row records — the whole counting rule stated on [`next`]: a Fast
    /// fault counts and moves to Safe, a Safe fault counts and stops, a
    /// Sparse fault is a sparse fallback, a deadline counts on every rung.
    #[test]
    fn ladder_table() {
        use Degradation as D;
        use Failure as F;
        use Rung as R;
        // A lost fleet (any fleet error but the budget) answers locally; a
        // declined or faulted probe answers exactly; a Fast fault is
        // retried on Safe. Everything else — a budget expiry, an error no
        // rung can cure, any Safe failure — surfaces.
        let local = (Some(R::Fast), Some(D::FleetLost));
        let exact = (Some(R::Fast), Some(D::SparseFallback));
        let retry = (Some(R::Safe), Some(D::NumericFault));
        let fault = (None, Some(D::NumericFault));
        let missed = (None, Some(D::DeadlineMiss));
        let quiet = (None, None);
        for (rung, failure, then) in [
            (R::Fleet, F::FleetLost, local),
            (R::Fleet, F::Deadline, missed),
            (R::Fleet, F::Cancelled, quiet),
            (R::Fleet, F::IndexDeclined, local),
            (R::Fleet, F::Fault, local),
            (R::Fleet, F::Other, quiet),
            (R::Sparse, F::FleetLost, quiet),
            (R::Sparse, F::Deadline, missed),
            (R::Sparse, F::Cancelled, quiet),
            (R::Sparse, F::IndexDeclined, exact),
            (R::Sparse, F::Fault, exact),
            (R::Sparse, F::Other, quiet),
            (R::Fast, F::FleetLost, quiet),
            (R::Fast, F::Deadline, missed),
            (R::Fast, F::Cancelled, quiet),
            (R::Fast, F::IndexDeclined, quiet),
            (R::Fast, F::Fault, retry),
            (R::Fast, F::Other, quiet),
            (R::Safe, F::FleetLost, quiet),
            (R::Safe, F::Deadline, missed),
            (R::Safe, F::Cancelled, quiet),
            (R::Safe, F::IndexDeclined, quiet),
            (R::Safe, F::Fault, fault),
            (R::Safe, F::Other, quiet),
        ] {
            assert_eq!(next(rung, failure, false), then, "{rung:?} {failure:?}");
        }
        // With top-K live a lost fleet falls to the Sparse rung; nothing
        // else depends on it.
        assert_eq!(
            next(R::Fleet, F::FleetLost, true),
            (Some(R::Sparse), Some(D::FleetLost))
        );
        assert_eq!(next(R::Sparse, F::Fault, true), exact);
        // (pinned, fleet up, sparse) -> first rung: state alone decides.
        for (pinned, fleet, sparse, rung) in [
            (true, true, true, R::Safe),
            (true, false, false, R::Safe),
            (false, true, false, R::Fleet),
            (false, true, true, R::Fleet),
            (false, false, true, R::Sparse),
            (false, false, false, R::Fast),
        ] {
            assert_eq!(start(pinned, fleet, sparse), rung);
        }
    }

    fn trained_serving_model() -> (BabiGenerator, MemNet) {
        let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 71);
        let stories = generator.dataset(80, 8, 2);
        // Serving model: no temporal encoding, position encoding instead.
        let config = ModelConfig {
            temporal: false,
            ..ModelConfig::for_generator(&generator, 24, 8)
        }
        .with_position_encoding(true);
        let mut model = MemNet::new(config, 17);
        Trainer::new().epochs(30).train(&mut model, &stories);
        (generator, model)
    }

    #[test]
    fn session_matches_offline_inference() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(8, 3);
        let offline = eval::accuracy(&model, std::slice::from_ref(&story));

        let mut session = Session::new(model.clone(), SessionConfig::default()).unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        let mut correct = 0;
        for q in &story.questions {
            let a = session.ask(&q.tokens).unwrap();
            correct += usize::from(a.word == q.answer);
        }
        let online = correct as f32 / story.questions.len() as f32;
        assert!(
            (online - offline).abs() < 1e-6,
            "online {online} vs offline {offline}"
        );
    }

    #[test]
    fn all_engine_kinds_agree() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(8, 2);
        let mut answers = Vec::new();
        for kind in [EngineKind::Column, EngineKind::Parallel, EngineKind::Auto] {
            let config = SessionConfig {
                plan: ExecPlan::new(MnnFastConfig::new(4).with_threads(2)).with_kind(kind),
                ..SessionConfig::default()
            };
            let mut session = Session::new(model.clone(), config).unwrap();
            for s in &story.sentences {
                session.observe(s).unwrap();
            }
            let a = session.ask(&story.questions[0].tokens).unwrap();
            answers.push(a.word);
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
    }

    #[test]
    fn empty_memory_and_unknown_tokens_error() {
        let (_, model) = trained_serving_model();
        let mut session = Session::new(model, SessionConfig::default()).unwrap();
        assert_eq!(session.ask(&[0]), Err(ServeError::EmptyMemory));
        assert_eq!(
            session.observe(&[9999]),
            Err(ServeError::UnknownToken(9999))
        );
        session.observe(&[0, 1]).unwrap();
        assert!(matches!(
            session.ask(&[9999]),
            Err(ServeError::UnknownToken(9999))
        ));
    }

    #[test]
    fn sliding_window_forgets_oldest_facts() {
        let (mut generator, model) = trained_serving_model();
        let config = SessionConfig {
            max_sentences: Some(4),
            ..SessionConfig::default()
        };
        let mut session = Session::new(model, config).unwrap();
        let story = generator.story(8, 1);
        let mut evictions = 0;
        for s in &story.sentences {
            evictions += session.observe(s).unwrap();
        }
        assert_eq!(session.memory_len(), 4);
        assert_eq!(evictions, 4);
    }

    #[test]
    fn eviction_between_questions_keeps_answers_consistent() {
        let (mut generator, model) = trained_serving_model();
        let config = SessionConfig {
            max_sentences: Some(3),
            ..SessionConfig::default()
        };
        let mut session = Session::new(model, config).unwrap();
        let story = generator.story(8, 2);
        for s in &story.sentences[..3] {
            session.observe(s).unwrap();
        }
        let a1 = session.ask(&story.questions[0].tokens).unwrap();
        assert_eq!(a1.stats.rows_total, 3);
        // Push the window past its bound between questions; the next
        // answer attends only over the surviving rows.
        for s in &story.sentences[3..] {
            session.observe(s).unwrap();
        }
        assert_eq!(session.memory_len(), 3);
        let a2 = session.ask(&story.questions[1].tokens).unwrap();
        assert_eq!(a2.stats.rows_total, 3);
        assert!(a2.probability > 0.0 && a2.probability.is_finite());
    }

    #[test]
    fn cumulative_stats_accumulate() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(6, 3);
        let mut session = Session::new(model, SessionConfig::default()).unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        for q in &story.questions {
            session.ask(&q.tokens).unwrap();
        }
        assert_eq!(session.questions_answered(), 3);
        assert_eq!(session.cumulative_stats().rows_total, 3 * 6);
    }

    #[test]
    fn tracing_surfaces_phase_breakdowns() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(6, 2);
        let config = SessionConfig {
            trace: true,
            ..SessionConfig::default()
        };
        let mut session = Session::new(model, config).unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        let hops = session.model().config().hops as u64;
        let a = session.ask(&story.questions[0].tokens).unwrap();
        assert_eq!(a.trace.count(Phase::FusedChunk), 6 * hops);
        assert!(a.trace.total_nanos() > 0);
        session.ask(&story.questions[1].tokens).unwrap();
        // Cumulative trace sums both questions; histograms saw each once.
        assert_eq!(
            session.cumulative_trace().count(Phase::FusedChunk),
            2 * 6 * hops
        );
        assert_eq!(session.phase_histograms().total().count(), 2);
        assert_eq!(
            session.phase_histograms().phase(Phase::FusedChunk).count(),
            2
        );
    }

    #[test]
    fn tracing_off_records_nothing() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(4, 1);
        let mut session = Session::new(model, SessionConfig::default()).unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        let a = session.ask(&story.questions[0].tokens).unwrap();
        assert_eq!(a.trace.total_nanos(), 0);
        assert_eq!(session.cumulative_trace().total_nanos(), 0);
        assert_eq!(session.phase_histograms().total().count(), 0);
    }

    #[test]
    fn scratch_output_buffer_is_reused_across_questions() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(6, 3);
        let mut session = Session::new(model, SessionConfig::default()).unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        session.ask(&story.questions[0].tokens).unwrap();
        let pooled = session.scratch.pooled_outputs();
        assert!(pooled >= 1, "answer buffer must return to the pool");
        // Steady state: the pool neither grows nor drains.
        session.ask(&story.questions[1].tokens).unwrap();
        assert_eq!(session.scratch.pooled_outputs(), pooled);
    }

    /// One thread is a budget the output stage keeps too: a threads-1
    /// session, even pinned to the parallel walk, answers a hundred asks
    /// without starting a worker, while a two-thread one holds one.
    #[test]
    fn a_threads_1_session_starts_no_worker() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(6, 3);
        for (threads, kind, held) in [
            (1, EngineKind::Auto, 1),
            (1, EngineKind::Parallel, 1),
            (2, EngineKind::Parallel, 2),
        ] {
            let config = SessionConfig {
                plan: ExecPlan::new(MnnFastConfig::new(2).with_threads(threads)).with_kind(kind),
                ..SessionConfig::default()
            };
            let mut session = Session::new(model.clone(), config).unwrap();
            for s in &story.sentences {
                session.observe(s).unwrap();
            }
            for k in 0..100 {
                let q = &story.questions[k % story.questions.len()];
                session.ask(&q.tokens).unwrap();
            }
            assert_eq!(session.scratch.team().threads(), held, "{threads} {kind}");
        }
    }

    #[test]
    fn text_level_api_round_trips() {
        let (mut generator, model) = trained_serving_model();
        let vocab = generator.vocab().clone();
        let _ = generator.story(1, 1);
        let mut session = Session::new(model, SessionConfig::default()).unwrap();
        session
            .observe_text("mary went to the kitchen", &vocab)
            .unwrap();
        session
            .observe_text("john moved to the garden", &vocab)
            .unwrap();
        let (word, answer) = session.ask_text("where is mary?", &vocab).unwrap();
        assert!(!word.is_empty());
        assert!(answer.probability > 0.0);
        // Unknown words surface as errors, not panics.
        assert!(session.observe_text("xyzzy teleported", &vocab).is_err());
        assert!(session.ask_text("where is xyzzy", &vocab).is_err());
    }

    #[test]
    fn expired_deadline_fails_cleanly_and_session_survives() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(6, 2);
        let mut session = Session::new(model, SessionConfig::default()).unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        let budget = Budget::with_deadline(Duration::ZERO);
        let err = session
            .ask_with_budget(&story.questions[0].tokens, &budget)
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Engine(EngineError::DeadlineExceeded { .. })
        ));
        // The abandoned question corrupted nothing.
        assert_eq!(session.degradation_stats().deadline_misses, 1);
        assert_eq!(session.questions_answered(), 0);
        assert_eq!(session.cumulative_stats().rows_total, 0);
        assert_eq!(session.memory_len(), 6);
        // The same question answers normally once the pressure is off.
        let a = session.ask(&story.questions[0].tokens).unwrap();
        assert!(!a.degraded);
        assert_eq!(session.questions_answered(), 1);
    }

    #[test]
    fn per_question_deadline_comes_from_config() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(4, 1);
        let config = SessionConfig {
            deadline: Some(Duration::ZERO),
            ..SessionConfig::default()
        };
        let mut session = Session::new(model, config).unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        let err = session.ask(&story.questions[0].tokens).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Engine(EngineError::DeadlineExceeded { .. })
        ));
        assert_eq!(session.degradation_stats().deadline_misses, 1);
    }

    #[test]
    fn cancellation_token_aborts_question() {
        use mnnfast::CancelToken;

        let (mut generator, model) = trained_serving_model();
        let story = generator.story(4, 1);
        let mut session = Session::new(model, SessionConfig::default()).unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let err = session
            .ask_with_budget(&story.questions[0].tokens, &budget)
            .unwrap_err();
        assert_eq!(err, ServeError::Engine(EngineError::Cancelled));
        // Cancellation is not a deadline miss.
        assert_eq!(session.degradation_stats().deadline_misses, 0);
    }

    #[test]
    fn batched_ask_traces_the_batch_gemm_phase_once() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(6, 2);
        let config = SessionConfig {
            trace: true,
            ..SessionConfig::default()
        };
        let mut session = Session::new(model, config).unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        let questions: Vec<Vec<WordId>> =
            story.questions.iter().map(|q| q.tokens.clone()).collect();
        let answers = session.ask_many(&questions).unwrap();
        let hops = session.model().config().hops as u64;
        for a in &answers {
            let a = a.as_ref().unwrap();
            // Each answer carries the batch-wide trace: all questions share
            // every chunk, so the count is rows × live questions per hop.
            assert_eq!(a.trace.count(Phase::BatchGemm), 6 * 2 * hops);
            assert_eq!(a.trace.count(Phase::FusedChunk), 0);
        }
        // The batch pass is absorbed once, not once per answer.
        assert_eq!(
            session.cumulative_trace().count(Phase::BatchGemm),
            6 * 2 * hops
        );
        assert_eq!(session.phase_histograms().total().count(), 1);
    }

    #[test]
    fn batched_ask_edge_cases_error_cleanly() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(4, 1);
        let mut session = Session::new(model, SessionConfig::default()).unwrap();
        assert_eq!(session.ask_many(&[]).unwrap(), Vec::new());
        assert_eq!(
            session.ask_many(&[story.questions[0].tokens.clone()]),
            Err(ServeError::EmptyMemory)
        );
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        let err = session
            .ask_many_budgeted(&[story.questions[0].tokens.clone()], &[])
            .unwrap_err();
        assert!(matches!(err, ServeError::Engine(EngineError::Config(_))));
    }

    #[test]
    fn batched_expired_deadlines_fail_per_question_and_session_survives() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(6, 2);
        let mut session = Session::new(model, SessionConfig::default()).unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        let questions: Vec<Vec<WordId>> =
            story.questions.iter().map(|q| q.tokens.clone()).collect();
        let budgets = vec![Budget::unlimited(), Budget::with_deadline(Duration::ZERO)];
        let answers = session.ask_many_budgeted(&questions, &budgets).unwrap();
        assert!(answers[0].is_ok());
        assert!(matches!(
            answers[1],
            Err(ServeError::Engine(EngineError::DeadlineExceeded { .. }))
        ));
        assert_eq!(session.degradation_stats().deadline_misses, 1);
        assert_eq!(session.questions_answered(), 1);
        // The failed slot corrupted nothing: the question answers next time.
        assert!(session.ask(&questions[1]).is_ok());
    }

    #[test]
    fn batched_text_api_round_trips() {
        let (mut generator, model) = trained_serving_model();
        let vocab = generator.vocab().clone();
        let _ = generator.story(1, 1);
        let mut session = Session::new(model, SessionConfig::default()).unwrap();
        session
            .observe_text("mary went to the kitchen", &vocab)
            .unwrap();
        session
            .observe_text("john moved to the garden", &vocab)
            .unwrap();
        let questions = vec![
            "where is mary?".to_owned(),
            "where is xyzzy?".to_owned(),
            "where is john?".to_owned(),
        ];
        let answers = session.ask_many_text(&questions, &vocab).unwrap();
        assert_eq!(answers.len(), 3);
        let (word, answer) = answers[0].as_ref().unwrap();
        assert!(!word.is_empty());
        assert!(answer.probability > 0.0);
        assert!(matches!(answers[1], Err(ServeError::Model(_))));
        assert!(answers[2].is_ok());
        assert_eq!(session.questions_answered(), 2);
    }

    #[test]
    fn int8_serving_answers_match_f32() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(8, 3);
        let mut f32_session = Session::new(model.clone(), SessionConfig::default()).unwrap();
        let int8_config = SessionConfig {
            precision: Precision::Int8,
            ..SessionConfig::default()
        };
        let mut int8_session = Session::new(model, int8_config).unwrap();
        assert_eq!(int8_session.precision(), Precision::Int8);
        for s in &story.sentences {
            f32_session.observe(s).unwrap();
            int8_session.observe(s).unwrap();
        }
        for q in &story.questions {
            let a32 = f32_session.ask(&q.tokens).unwrap();
            let a8 = int8_session.ask(&q.tokens).unwrap();
            assert_eq!(a8.word, a32.word, "int8 answer diverged from f32");
            assert!((a8.probability - a32.probability).abs() < 0.05);
            assert!(!a8.degraded);
            // The quantized pass moves (ed + 4)-byte rows instead of
            // 4·ed-byte rows.
            assert!(a8.stats.memory_bytes < a32.stats.memory_bytes);
        }
        // Footprint: the mirror holds both memories at ~(ed + 4)/row.
        let ed = int8_session.model().config().embedding_dim;
        assert_eq!(
            int8_session.quant_resident_bytes(),
            (2 * story.sentences.len() * (ed + 4)) as u64
        );
        assert_eq!(f32_session.quant_resident_bytes(), 0);
        assert_eq!(
            int8_session.memory_resident_bytes(),
            (2 * story.sentences.len() * ed * 4) as u64
        );
    }

    #[test]
    fn int8_segmented_serving_stays_consistent() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(8, 2);
        let base_config = SessionConfig {
            precision: Precision::Int8,
            plan: ExecPlan::new(MnnFastConfig::new(4)),
            ..SessionConfig::default()
        };
        let mut answers = Vec::new();
        for segments in [1usize, 2, 4] {
            let config = SessionConfig {
                segments,
                ..base_config
            };
            let mut session = Session::new(model.clone(), config).unwrap();
            for s in &story.sentences {
                session.observe(s).unwrap();
            }
            let a = session.ask(&story.questions[0].tokens).unwrap();
            answers.push((a.word, a.probability.to_bits()));
        }
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "segment routing changed an int8 answer: {answers:?}"
        );
    }

    #[test]
    fn int8_reload_requantizes_instead_of_serving_stale_rows() {
        // The stale-quantization regression: after a model reload the old
        // mirror rows must be gone (the store is cleared), and rows
        // observed post-reload must be quantized from the *new* weights —
        // answers have to match a session that never saw the old model.
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(8, 2);
        let config = SessionConfig {
            precision: Precision::Int8,
            ..SessionConfig::default()
        };
        let mut session = Session::new(model.clone(), config).unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        session.ask(&story.questions[0].tokens).unwrap();
        assert!(session.quant_resident_bytes() > 0);

        // Reload with differently-initialized weights.
        let reloaded = {
            let mc = ModelConfig {
                temporal: false,
                ..session.model().config()
            };
            let mut m = MemNet::new(mc, 99);
            Trainer::new()
                .epochs(5)
                .train(&mut m, &generator.dataset(20, 8, 1));
            m
        };
        session.reload_model(reloaded.clone()).unwrap();
        assert_eq!(session.memory_len(), 0);
        assert_eq!(
            session.quant_resident_bytes(),
            0,
            "stale mirror survived reload"
        );

        let mut fresh = Session::new(reloaded, config).unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
            fresh.observe(s).unwrap();
        }
        let a = session.ask(&story.questions[0].tokens).unwrap();
        let b = fresh.ask(&story.questions[0].tokens).unwrap();
        assert_eq!(a.word, b.word, "reloaded session served stale quantization");
        assert_eq!(a.probability.to_bits(), b.probability.to_bits());
    }

    /// The six variables [`SessionConfig::with_env`] reads.
    const ENV_KNOBS: [&str; 6] = [
        "MNNFAST_SEGMENTS",
        "MNNFAST_WORKERS",
        "MNNFAST_REPLICAS",
        "MNNFAST_HEDGE_MS",
        "MNNFAST_TOPK",
        "MNNFAST_NPROBE",
    ];

    /// The session resolver, driven by a table instead of the process
    /// environment: every knob fills from its variable, blank or unset
    /// keeps the base value, and anything malformed names its variable.
    #[test]
    fn with_env_table() {
        let resolve = |vars: &[(&str, &str)]| {
            let vars: Vec<(String, String)> = vars
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect();
            SessionConfig::default().with_env(&move |name: &str| {
                vars.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
            })
        };
        let base = SessionConfig::default();
        assert_eq!(resolve(&[]), Ok(base));
        let blank: Vec<(&str, &str)> = ENV_KNOBS.iter().map(|&k| (k, "  ")).collect();
        assert_eq!(resolve(&blank), Ok(base), "blank means the default");
        let set = resolve(&[
            ("MNNFAST_SEGMENTS", "3"),
            ("MNNFAST_WORKERS", "4"),
            ("MNNFAST_REPLICAS", "2"),
            ("MNNFAST_HEDGE_MS", " 35 "),
            ("MNNFAST_TOPK", "16"),
            ("MNNFAST_NPROBE", "5"),
        ])
        .unwrap();
        assert_eq!(
            (
                set.segments,
                set.workers,
                set.replicas,
                set.topk,
                set.nprobe
            ),
            (3, 4, 2, 16, 5)
        );
        assert_eq!(set.hedge, Some(Duration::from_millis(35)));
        let off = SessionConfig {
            hedge: Some(Duration::from_millis(9)),
            ..base
        }
        .with_env(&|name: &str| (name == "MNNFAST_HEDGE_MS").then(|| "0".to_owned()));
        assert_eq!(off.unwrap().hedge, None, "0 turns hedging off");
        for (var, bad) in [
            ("MNNFAST_SEGMENTS", "0"),
            ("MNNFAST_SEGMENTS", "banana"),
            ("MNNFAST_WORKERS", "four"),
            ("MNNFAST_REPLICAS", "-1"),
            ("MNNFAST_HEDGE_MS", "fast"),
            ("MNNFAST_TOPK", "0"),
            ("MNNFAST_TOPK", "2.5"),
            ("MNNFAST_NPROBE", "1e3"),
        ] {
            let err = resolve(&[(var, bad)]).unwrap_err();
            assert_eq!((err.var(), err.value()), (var, bad));
        }
    }

    #[test]
    fn zero_counts_fail_at_creation() {
        let (_, model) = trained_serving_model();
        for zero in [
            SessionConfig {
                segments: 0,
                ..SessionConfig::default()
            },
            SessionConfig {
                workers: 0,
                ..SessionConfig::default()
            },
            SessionConfig {
                replicas: 0,
                ..SessionConfig::default()
            },
            SessionConfig {
                nprobe: 0,
                ..SessionConfig::default()
            },
        ] {
            let err = Session::new(model.clone(), zero).unwrap_err();
            assert!(
                matches!(err, ServeError::Engine(EngineError::Config(_))),
                "{err}"
            );
        }
    }

    #[test]
    fn incompatible_topk_configurations_fail_at_creation() {
        let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 5);
        let _ = generator.story(2, 1);
        let model = MemNet::new(
            ModelConfig {
                temporal: false,
                ..ModelConfig::for_generator(&generator, 8, 4)
            },
            1,
        );
        let base = SessionConfig {
            topk: 8,
            ..SessionConfig::default()
        };

        // Sparse serving alone is fine, and the knobs are observable.
        let session = Session::new(model.clone(), base).unwrap();
        assert_eq!(session.topk(), 8);
        assert_eq!(session.nprobe(), 8);

        for bad in [
            // Probability skip needs a full-memory denominator sweep.
            SessionConfig {
                plan: ExecPlan::new(
                    MnnFastConfig::new(8).with_skip(mnnfast::SkipPolicy::Probability(0.01)),
                ),
                ..base
            },
            // A window no larger than topk can never skip a row.
            SessionConfig {
                max_sentences: Some(8),
                ..base
            },
            // The worker fleet holds no candidate index.
            SessionConfig { workers: 2, ..base },
        ] {
            assert!(
                Session::new(model.clone(), bad).is_err(),
                "incompatible sparse configuration accepted: {bad:?}"
            );
        }

        // A window strictly wider than topk is fine.
        Session::new(
            model,
            SessionConfig {
                max_sentences: Some(9),
                ..base
            },
        )
        .unwrap();

        // Segment routing composes: the sparse pass is tried first and
        // never looks at the segment map, so top-K + segments answers
        // bitwise what top-K alone answers...
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(20, 3);
        let sparse = SessionConfig {
            plan: ExecPlan::new(MnnFastConfig::new(4)),
            topk: 10,
            nprobe: 3,
            segments: 1,
            ..SessionConfig::default()
        };
        let routed = SessionConfig {
            segments: 3,
            ..sparse
        };
        let mut alone = Session::new(model.clone(), sparse).unwrap();
        let mut composed = Session::new(model.clone(), routed).unwrap();
        assert_eq!(composed.segments(), 3);
        for s in &story.sentences {
            alone.observe(s).unwrap();
            composed.observe(s).unwrap();
        }
        for q in &story.questions {
            let a = alone.ask(&q.tokens).unwrap();
            let b = composed.ask(&q.tokens).unwrap();
            assert_eq!(a.word, b.word);
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        }
        assert!(composed.cumulative_stats().rows_skipped_by_index > 0);
        // ...and a declined probe (identical rows: every centroid ties)
        // falls back to the *segmented* exact pass, bitwise the exact
        // answer of a session with neither feature.
        let mut exact = Session::new(model.clone(), SessionConfig { topk: 0, ..sparse }).unwrap();
        let mut composed = Session::new(model, routed).unwrap();
        for _ in 0..40 {
            exact.observe(&story.sentences[0]).unwrap();
            composed.observe(&story.sentences[0]).unwrap();
        }
        let a = exact.ask(&story.questions[0].tokens).unwrap();
        let b = composed.ask(&story.questions[0].tokens).unwrap();
        assert!(composed.degradation_stats().sparse_fallbacks >= 1);
        assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        let hops = composed.model().config().hops as u64;
        assert_eq!(b.stats.segments_total, 3 * hops, "fallback not routed");
    }

    #[test]
    fn temporal_models_are_converted_not_rejected() {
        let (_, model) = trained_serving_model();
        // trained_serving_model is already temporal-free; build a temporal
        // one and confirm the session strips the flag.
        let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 1);
        let _ = generator.story(2, 1);
        let config = ModelConfig::for_generator(&generator, 8, 4); // temporal: true
        let temporal_model = MemNet::new(config, 1);
        let session = Session::new(temporal_model, SessionConfig::default()).unwrap();
        assert!(!session.model().config().temporal);
        drop(model);
    }

    /// Column engine with a small chunk so a handful of story sentences
    /// spread across all four worker shards.
    fn dist_plan() -> ExecPlan {
        ExecPlan::new(MnnFastConfig::new(4)).with_kind(EngineKind::Column)
    }

    #[test]
    fn dist_session_matches_local_bitwise() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(8, 3);

        let mut local = Session::new(
            model.clone(),
            SessionConfig {
                plan: dist_plan(),
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let mut dist = Session::new(
            model,
            SessionConfig {
                plan: dist_plan(),
                workers: 4,
                replicas: 1,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        assert_eq!(dist.dist_shards(), 4);
        assert_eq!(local.dist_shards(), 0);

        for s in &story.sentences {
            local.observe(s).unwrap();
            dist.observe(s).unwrap();
        }
        for q in &story.questions {
            let a = local.ask(&q.tokens).unwrap();
            let b = dist.ask(&q.tokens).unwrap();
            assert_eq!(a.word, b.word);
            assert_eq!(
                a.probability.to_bits(),
                b.probability.to_bits(),
                "distributed answer drifted from single-node"
            );
        }
        let d = dist.degradation_stats();
        assert_eq!(d.dist_fallbacks, 0, "fault-free run must not fall back");
        assert_eq!(d.dist_retries, 0);
    }

    /// The RPC fault matrix: the session's own fleet is armed with each
    /// spec before any row is mirrored, so pushes and forwards eat the
    /// damage. Retries, failover or a local fallback absorb it; the answers
    /// never move.
    #[test]
    fn dist_rpc_faults_keep_local_parity() {
        let (mut generator, model) = trained_serving_model();
        // Two fully replicated workers each answer every one of the 30
        // pushes, so the `after=` specs fire mid-push.
        let story = generator.story(30, 3);
        let config = |workers| SessionConfig {
            plan: dist_plan(),
            workers,
            replicas: 2,
            ..SessionConfig::default()
        };
        let mut local = Session::new(model.clone(), config(1)).unwrap();
        for s in &story.sentences {
            local.observe(s).unwrap();
        }
        let expected: Vec<Answer> = story
            .questions
            .iter()
            .map(|q| local.ask(&q.tokens).unwrap())
            .collect();
        for spec in [
            "drop",
            "delay:5",
            "corrupt",
            "disconnect",
            "corrupt;after=25",
            "disconnect;after=10",
        ] {
            let plan = mnn_dist::RpcFaultPlan::parse(spec).unwrap().unwrap();
            let mut dist = Session::new(model.clone(), config(2)).unwrap();
            for worker in &dist.dist.as_ref().unwrap().workers {
                worker.arm_fault(plan);
            }
            for s in &story.sentences {
                dist.observe(s).unwrap();
            }
            for (q, a) in story.questions.iter().zip(&expected) {
                let b = dist.ask(&q.tokens).unwrap();
                assert_eq!(a.word, b.word, "{spec}");
                assert_eq!(a.probability.to_bits(), b.probability.to_bits(), "{spec}");
            }
            let fired: u64 = match &dist.dist {
                Some(plane) => plane.workers.iter().map(WorkerServer::fault_fired).sum(),
                None => 1, // torn down: the fault cost the fleet
            };
            assert!(fired > 0, "{spec}: no fault fired");
            // A delay is only late; every damaging fault costs a retry, a
            // failover or the fleet.
            let d = dist.degradation_stats();
            let absorbed = d.dist_retries + d.dist_failovers + d.dist_fallbacks;
            let delay = matches!(plan.kind, mnn_dist::RpcFaultKind::Delay(_));
            assert!(delay || absorbed > 0, "{spec}: {d:?}");
        }
    }

    #[test]
    fn dist_failover_keeps_parity_and_fleet() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(8, 2);

        let mut local = Session::new(
            model.clone(),
            SessionConfig {
                plan: dist_plan(),
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let mut dist = Session::new(
            model,
            SessionConfig {
                plan: dist_plan(),
                workers: 4,
                replicas: 2,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        for s in &story.sentences {
            local.observe(s).unwrap();
            dist.observe(s).unwrap();
        }
        // Kill one worker after the push phase; every shard it owned has a
        // live replica, so answers stay exact and the fleet stays up.
        assert!(dist.kill_dist_worker(1));
        for q in &story.questions {
            let a = local.ask(&q.tokens).unwrap();
            let b = dist.ask(&q.tokens).unwrap();
            assert_eq!(a.word, b.word);
            assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        }
        assert_eq!(dist.dist_shards(), 4, "failover must not tear down");
        let d = dist.degradation_stats();
        assert!(d.dist_failovers >= 1, "{d:?}");
        assert_eq!(d.dist_fallbacks, 0);
    }

    #[test]
    fn dist_fleet_loss_falls_back_to_exact_local() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(8, 2);

        let mut local = Session::new(
            model.clone(),
            SessionConfig {
                plan: dist_plan(),
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let mut dist = Session::new(
            model,
            SessionConfig {
                plan: dist_plan(),
                workers: 2,
                replicas: 1,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        for s in &story.sentences {
            local.observe(s).unwrap();
            dist.observe(s).unwrap();
        }
        // No replica for worker 0's shards: the session keeps every row
        // locally, so it tears the fleet down and answers exactly rather
        // than serving a degraded partial.
        assert!(dist.kill_dist_worker(0));
        let q = &story.questions[0];
        let a = local.ask(&q.tokens).unwrap();
        let b = dist.ask(&q.tokens).unwrap();
        assert_eq!(a.word, b.word);
        assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        assert_eq!(dist.dist_shards(), 0, "fleet must be torn down");
        assert_eq!(dist.degradation_stats().dist_fallbacks, 1);
        // Later questions keep serving locally with no further fallback.
        let c = dist.ask(&q.tokens).unwrap();
        assert_eq!(c.probability.to_bits(), a.probability.to_bits());
        assert_eq!(dist.degradation_stats().dist_fallbacks, 1);
    }

    #[test]
    fn dist_rejects_incompatible_session_features() {
        let (_, model) = trained_serving_model();
        // Sliding-window eviction is not mirrored to workers.
        let err = Session::new(
            model.clone(),
            SessionConfig {
                plan: dist_plan(),
                workers: 2,
                max_sentences: Some(4),
                ..SessionConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Dist(_)), "{err}");
        // Segment routing composes with the fleet, which is tried first
        // and never looks at the segment map: same bits as workers alone;
        // only the local fallback after a fleet loss routes by it.
        let (mut generator, _) = trained_serving_model();
        let story = generator.story(12, 2);
        let sharded = SessionConfig {
            plan: dist_plan(),
            workers: 2,
            replicas: 1,
            segments: 1,
            ..SessionConfig::default()
        };
        let mut alone = Session::new(model.clone(), sharded).unwrap();
        let mut composed = Session::new(
            model.clone(),
            SessionConfig {
                segments: 3,
                ..sharded
            },
        )
        .unwrap();
        for s in &story.sentences {
            alone.observe(s).unwrap();
            composed.observe(s).unwrap();
        }
        let q = &story.questions[0].tokens;
        let a = alone.ask(q).unwrap();
        let b = composed.ask(q).unwrap();
        assert_eq!(composed.degradation_stats().dist_fallbacks, 0);
        assert_eq!(a.probability.to_bits(), b.probability.to_bits());
        assert!(composed.kill_dist_worker(0));
        let c = composed.ask(q).unwrap();
        assert_eq!(composed.degradation_stats().dist_fallbacks, 1);
        assert_eq!(a.probability.to_bits(), c.probability.to_bits());
        let hops = composed.model().config().hops as u64;
        assert_eq!(c.stats.segments_total, 3 * hops, "fallback not routed");
        // Probability skip needs a global denominator no shard can see.
        let err = Session::new(
            model,
            SessionConfig {
                plan: ExecPlan::new(
                    MnnFastConfig::new(4).with_skip(mnnfast::SkipPolicy::Probability(0.01)),
                )
                .with_kind(EngineKind::Column),
                workers: 2,
                ..SessionConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Dist(_)), "{err}");
    }

    #[test]
    fn explicit_single_worker_serves_locally() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(6, 1);
        let mut session = Session::new(
            model,
            SessionConfig {
                plan: dist_plan(),
                workers: 1,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        assert_eq!(session.dist_shards(), 0);
        assert!(session.dist_probe().is_none());
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        let a = session.ask(&story.questions[0].tokens).unwrap();
        assert!(a.probability > 0.0);
    }

    #[test]
    fn dist_reset_clears_workers_too() {
        let (mut generator, model) = trained_serving_model();
        let story = generator.story(6, 2);
        let mut session = Session::new(
            model,
            SessionConfig {
                plan: dist_plan(),
                workers: 2,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        let before = session.ask(&story.questions[0].tokens).unwrap();
        session.reset();
        assert_eq!(session.memory_len(), 0);
        assert_eq!(session.dist_shards(), 2, "reset keeps the fleet");
        // Re-observing from scratch reproduces the original answer.
        for s in &story.sentences {
            session.observe(s).unwrap();
        }
        let after = session.ask(&story.questions[0].tokens).unwrap();
        assert_eq!(before.word, after.word);
        assert_eq!(before.probability.to_bits(), after.probability.to_bits());
    }
}
