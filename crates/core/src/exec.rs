//! The unified execution layer: one dispatch seam for every pass.
//!
//! The paper's argument is that a *single* dataflow — chunked column-based
//! lazy softmax with zero-skipping — scales from one core to multi-threaded
//! execution. This module encodes that claim in the type system:
//!
//! * [`Executor`] — the one forward seam. Serving, CLI, and bench layers
//!   all hold `&dyn Executor`; nothing above `crates/core` dispatches over
//!   walks by hand. Two implementors: [`PlanExecutor`] (production: the
//!   one pass of [`crate::parallel`], for one question or a batch) and
//!   [`crate::ColumnEngine`] (the inline reference the parity suites
//!   compare against).
//! * [`ExecPlan`] / [`EngineKind`] — declarative walk selection, including
//!   [`EngineKind::Auto`] which picks inline or scale-out from the rows
//!   walked and the configured thread count at call time (the store grows
//!   while serving, so the right walk changes over a session's lifetime).
//! * [`Scratch`] — a reusable arena for every buffer the forward pass needs
//!   (one [`crate::batch`] lane per worker, recycled output vectors, the
//!   top-K gather staging) plus the parked worker [`Team`] a split pass
//!   runs on. A serving loop that reuses one `Scratch` performs zero
//!   per-question heap allocations, inline or split.
//! * [`Trace`] / [`Phase`] — per-phase wall-time and work counters threaded
//!   through the same seam. Zero-cost when disabled (no clock reads), and
//!   aggregated into [`PhaseHistograms`] by the serving layer.
//!
//! # Phase taxonomy
//!
//! | Phase | What is timed | Count unit |
//! |-------|---------------|------------|
//! | [`Phase::FusedChunk`] | the single-pass fused chunk kernel (inner products + exp + weighted accumulate) | rows processed |
//! | [`Phase::Skip`] | skip-threshold resolution (the Probability pre-pass) | rows skipped |
//! | [`Phase::Merge`] | folding chunk partials into the running total | partials merged |
//! | [`Phase::SegmentMerge`] | nothing (count only): segments whose chunks were folded into the running total | segments folded |
//! | [`Phase::Divide`] | the single lazy-softmax division | `ed` divisions |
//! | [`Phase::Admission`] | pool admission-control decision (serve layer) | admission checks |
//! | [`Phase::Retry`] | the Safe rung's online-softmax re-execution after a numeric fault (serve layer) | retries |
//! | [`Phase::BatchGemm`] | the batched chunk GEMM + accumulate (batched path) | rows × live questions |
//! | [`Phase::Embed`] | token gather-sum embedding, including sentence-cache lookups (serve layer) | tokens embedded |
//!
//! A single-question chunk lands in `FusedChunk`, a tiled chunk of several
//! questions in `BatchGemm`; skipped rows are counted under `Skip` on
//! both.
//!
//! On the inline path the phase times sum to ≈ the total forward latency
//! (the residual is loop control). When a pass splits over threads, worker
//! phases are CPU time summed across threads, so the sum legitimately
//! *exceeds* wall time.

use crate::budget::Budget;
use crate::config::{MnnFastConfig, SkipPolicy};
use crate::engine::{ChunkOps, ColumnOutput, EngineError};
use crate::index::{ClusterIndex, ProbeResult};
use crate::segment::SegmentPlan;
use mnn_tensor::{Matrix, QuantMatrix, ShapeError, Team};
use std::fmt;
use std::time::Instant;

/// The execution phases of one forward pass. See the module docs for the
/// taxonomy table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The fused single-pass chunk kernel: inner products, exponentiation
    /// and weighted accumulation in one traversal.
    FusedChunk,
    /// Zero-skip bookkeeping: threshold resolution time, skipped-row count.
    Skip,
    /// Chunk-partial accumulator merging (sequential fold or scale-out
    /// reduction — one merge per chunk either way).
    Merge,
    /// The final lazy-softmax division.
    Divide,
    /// Admission-control decision time (recorded by the serving pool, not
    /// the engines).
    Admission,
    /// Degraded re-execution after a numeric fault: the time spent on the
    /// online-softmax retry pass (recorded by the serving session).
    Retry,
    /// The batched chunk kernel: one tiled GEMM over all questions of a
    /// cache-resident chunk plus the per-question exp/skip/accumulate
    /// (the cross-request batched path).
    BatchGemm,
    /// The embedding phase: gather-sum of embedding rows for observed
    /// sentences and asked questions, including sentence-cache lookups
    /// (recorded by the serving session, not the engines). The count unit
    /// is tokens embedded, so the embedding:inference time split and the
    /// per-token cost are both observable.
    Embed,
    /// Segments folded into the running total, counted separately from the
    /// per-chunk [`Phase::Merge`] folds and never timed (pruned segments
    /// never merge and are counted in
    /// [`crate::InferenceStats::segments_pruned`] instead).
    SegmentMerge,
    /// Distributed shard fan-out: wall time spent inside coordinator RPCs
    /// — dispatching one question to every shard's worker, waiting out
    /// retries/hedges, and folding the streamed partials (recorded by the
    /// serving session, not the engines). The count unit is hops served
    /// through the distributed plane.
    Dist,
    /// Top-K candidate-index work: centroid scoring, cluster ranking and
    /// posting-list gathering before the exact rescoring pass (plus the
    /// candidate gather into a staging memory, when one is built). The
    /// count unit is clusters probed.
    IndexProbe,
}

/// Number of [`Phase`] variants (array sizes in [`Trace`] and
/// [`PhaseHistograms`]).
const PHASES: usize = 11;

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Embed,
        Phase::IndexProbe,
        Phase::FusedChunk,
        Phase::BatchGemm,
        Phase::Skip,
        Phase::Merge,
        Phase::SegmentMerge,
        Phase::Divide,
        Phase::Admission,
        Phase::Retry,
        Phase::Dist,
    ];

    /// Stable machine-readable name (used in JSON output and CLI tables).
    pub fn label(self) -> &'static str {
        match self {
            Phase::FusedChunk => "fused_chunk",
            Phase::Skip => "skip",
            Phase::Merge => "merge",
            Phase::Divide => "divide",
            Phase::Admission => "admission",
            Phase::Retry => "retry",
            Phase::BatchGemm => "batch_gemm",
            Phase::Embed => "embed",
            Phase::SegmentMerge => "segment_merge",
            Phase::Dist => "dist",
            Phase::IndexProbe => "index_probe",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        match self {
            Phase::FusedChunk => 0,
            Phase::Skip => 1,
            Phase::Merge => 2,
            Phase::Divide => 3,
            Phase::Admission => 4,
            Phase::Retry => 5,
            Phase::BatchGemm => 6,
            Phase::Embed => 7,
            Phase::SegmentMerge => 8,
            Phase::Dist => 9,
            Phase::IndexProbe => 10,
        }
    }
}

/// Per-phase wall-time and work counters for forward passes.
///
/// A disabled trace never reads the clock: [`Trace::begin`] returns `None`
/// and [`Trace::record`] is a no-op, so the hot path pays two predictable
/// branches per chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Trace {
    enabled: bool,
    nanos: [u64; PHASES],
    counts: [u64; PHASES],
}

impl Trace {
    /// A trace that records nothing (the hot-path default).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// A trace that records per-phase timings and counters.
    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    /// Whether this trace records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing a phase; `None` when disabled (no clock read).
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a phase started by [`Trace::begin`], attributing the elapsed
    /// time and `count` units of work to `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase, started: Option<Instant>, count: u64) {
        if let Some(t0) = started {
            self.nanos[phase.idx()] += t0.elapsed().as_nanos() as u64;
            self.counts[phase.idx()] += count;
        }
    }

    /// Adds work units to a phase without timing (e.g. skipped rows counted
    /// inside the accumulate loop).
    #[inline]
    pub fn bump(&mut self, phase: Phase, count: u64) {
        if self.enabled {
            self.counts[phase.idx()] += count;
        }
    }

    /// Adds raw nanoseconds and counts to a phase (worker absorption).
    pub fn add(&mut self, phase: Phase, nanos: u64, count: u64) {
        self.nanos[phase.idx()] += nanos;
        self.counts[phase.idx()] += count;
    }

    /// Folds another trace's phases into this one (cumulative serving
    /// stats, scale-out worker absorption).
    pub fn absorb(&mut self, other: &Trace) {
        for i in 0..PHASES {
            self.nanos[i] += other.nanos[i];
            self.counts[i] += other.counts[i];
        }
    }

    /// Nanoseconds attributed to `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.idx()]
    }

    /// Work units attributed to `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.idx()]
    }

    /// Sum of all phase times.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Zeroes all counters, keeping the enabled flag.
    pub fn reset(&mut self) {
        self.nanos = [0; PHASES];
        self.counts = [0; PHASES];
    }

    /// Multi-line human-readable per-phase breakdown.
    pub fn render(&self) -> String {
        let total = self.total_nanos().max(1);
        let mut out = String::from("phase            time         share   work\n");
        for phase in Phase::ALL {
            let ns = self.nanos(phase);
            out.push_str(&format!(
                "{:<16} {:>12}  {:>5.1}%  {:>8}\n",
                phase.label(),
                format_nanos(ns),
                ns as f64 * 100.0 / total as f64,
                self.count(phase),
            ));
        }
        out.push_str(&format!(
            "{:<16} {:>12}\n",
            "total",
            format_nanos(self.total_nanos())
        ));
        out
    }
}

/// Formats a nanosecond count with an adaptive unit.
pub fn format_nanos(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// A log₂-bucketed latency histogram (buckets of nanoseconds).
///
/// Bucket `i` covers `[2^i, 2^{i+1})` ns; recording is one `leading_zeros`
/// plus an increment, cheap enough for per-question serving stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
    count: u64,
    total_nanos: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `nanos`.
    pub fn record(&mut self, nanos: u64) {
        let bucket = (63 - nanos.max(1).leading_zeros() as usize).min(31);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_nanos += nanos;
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_nanos += other.total_nanos;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `p`-quantile (`0 < p <= 1`),
    /// or 0 when empty.
    pub fn quantile_upper_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }

    /// The raw bucket counts; bucket `i` covers `[2^i, 2^{i+1})` ns.
    pub fn bucket_counts(&self) -> &[u64; 32] {
        &self.buckets
    }
}

/// Cumulative per-phase latency histograms, one total + one per [`Phase`].
///
/// Serving sessions feed every per-question [`Trace`] through
/// [`PhaseHistograms::observe`]; pools merge per-tenant histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseHistograms {
    total: LatencyHistogram,
    per_phase: [LatencyHistogram; PHASES],
}

impl PhaseHistograms {
    /// Empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one question's trace (a no-op for disabled/empty traces).
    pub fn observe(&mut self, trace: &Trace) {
        let total = trace.total_nanos();
        if total == 0 {
            return;
        }
        self.total.record(total);
        for phase in Phase::ALL {
            let ns = trace.nanos(phase);
            if ns > 0 {
                self.per_phase[phase.idx()].record(ns);
            }
        }
    }

    /// Folds another set of histograms into this one.
    pub fn merge(&mut self, other: &PhaseHistograms) {
        self.total.merge(&other.total);
        for (a, b) in self.per_phase.iter_mut().zip(&other.per_phase) {
            a.merge(b);
        }
    }

    /// The histogram of total forward latency.
    pub fn total(&self) -> &LatencyHistogram {
        &self.total
    }

    /// The histogram for one phase.
    pub fn phase(&self, phase: Phase) -> &LatencyHistogram {
        &self.per_phase[phase.idx()]
    }
}

/// Maximum recycled output vectors a scratch keeps (hops hand back one
/// buffer per hop; serving hands back one per question).
const OUT_POOL_LIMIT: usize = 8;

/// The shared, reusable arena for forward passes.
///
/// One `Scratch` holds every buffer a pass needs: one lane per worker
/// (each holding its questions' block, accumulators, chunk partials,
/// counters and trace slot — see [`crate::batch`]), a small pool of
/// recycled output vectors, and the top-K gather staging. Reusing a
/// scratch across questions makes every pass allocation-free once the
/// buffers have grown to the store's capacity.
///
/// It also owns the [`Team`] a split pass runs its lanes on. The team
/// starts no thread until a pass first splits, then keeps `threads − 1`
/// workers (spinning for [`mnn_tensor::team::SPIN`], then parked) until
/// the scratch is dropped, which joins them. A cloned scratch gets its own
/// team, not yet started.
///
/// A scratch is engine-agnostic: the same instance can serve one question
/// or a batch, inline or over worker threads, interchangeably.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    pub(crate) lanes: Vec<crate::batch::Lane>,
    pub(crate) out_pool: Vec<Vec<f32>>,
    pub(crate) team: Team,
    // Top-K gather mode: the contiguous staging memory the candidate rows
    // are copied into, one pair per plane. Empty until a probe gathers.
    gather: GatherStage,
}

/// The top-K gather staging of a [`Scratch`] (see [`Route::TopK`]).
#[derive(Debug, Clone, Default)]
struct GatherStage {
    f32: Option<(Matrix, Matrix)>,
    int8: (QuantMatrix, QuantMatrix),
}

impl GatherStage {
    /// Copies rows `rows` of `view` into the staging pair of its plane, in
    /// the order given, and returns the staged rows as a view (attend over
    /// its first `rows.len()` rows). Int8 codes and scales are copied
    /// *verbatim*, so a gathered pass shares the rounding history of the
    /// full quantized plane.
    fn gather(&mut self, view: MemView<'_>, rows: &[u32]) -> MemView<'_> {
        match view {
            MemView::F32 { m_in, m_out } => {
                let (n, ed) = (rows.len(), m_in.cols());
                let fits = |(m, _): &(Matrix, Matrix)| m.rows() >= n && m.cols() == ed;
                if !self.f32.as_ref().is_some_and(fits) {
                    let cap = n.next_power_of_two();
                    self.f32 = Some((Matrix::zeros(cap, ed), Matrix::zeros(cap, ed)));
                }
                let (s_in, s_out) = self.f32.as_mut().expect("sized above");
                for (i, &r) in rows.iter().enumerate() {
                    s_in.row_mut(i).copy_from_slice(m_in.row(r as usize));
                    s_out.row_mut(i).copy_from_slice(m_out.row(r as usize));
                }
                MemView::F32 {
                    m_in: s_in,
                    m_out: s_out,
                }
            }
            MemView::Int8 { m_in, m_out } => {
                let (s_in, s_out) = &mut self.int8;
                for (staged, m) in [(&mut *s_in, m_in), (&mut *s_out, m_out)] {
                    if staged.cols() != m.cols() {
                        *staged = QuantMatrix::new(m.cols());
                    }
                    staged.clear();
                    for &r in rows {
                        staged.push_quantized_row(m.row(r as usize), m.scale(r as usize));
                    }
                }
                MemView::Int8 {
                    m_in: s_in,
                    m_out: s_out,
                }
            }
        }
    }
}

impl Scratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Scratch {
            out_pool: Vec::with_capacity(OUT_POOL_LIMIT),
            ..Scratch::default()
        }
    }

    /// Hands an output vector (e.g. a consumed [`ColumnOutput::o`]) back to
    /// the pool so the next forward pass can reuse its allocation.
    pub fn recycle(&mut self, mut buf: Vec<f32>) {
        if buf.capacity() > 0 && self.out_pool.len() < OUT_POOL_LIMIT {
            buf.clear();
            self.out_pool.push(buf);
        }
    }

    /// The worker team this scratch's passes split over; the answer layer
    /// splits on the same threads ([`Team::threads`] counts them).
    pub fn team(&mut self) -> &mut Team {
        &mut self.team
    }

    /// Number of pooled output buffers currently available.
    pub fn pooled_outputs(&self) -> usize {
        self.out_pool.len()
    }

    /// Takes an output vector from the pool (or allocates the first time)
    /// with capacity for `ed` elements.
    pub(crate) fn take_out(&mut self, ed: usize) -> Vec<f32> {
        let mut v = self.out_pool.pop().unwrap_or_default();
        v.clear();
        v.reserve(ed);
        v
    }
}

/// How a plan walks a pass's chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Pick a walk per call from the rows walked and the thread count
    /// (see [`ExecPlan::resolve`]).
    #[default]
    Auto,
    /// Sequential chunked execution on the calling thread.
    Column,
    /// Multi-threaded scale-out over [`MnnFastConfig::threads`] threads
    /// ([`crate::parallel`]: by question range when a batch has at least
    /// as many questions as threads, else by chunk range).
    Parallel,
}

impl EngineKind {
    /// Stable machine-readable name.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Auto => "auto",
            EngineKind::Column => "column",
            EngineKind::Parallel => "parallel",
        }
    }

    /// Parses a label produced by [`EngineKind::label`].
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "auto" => Some(EngineKind::Auto),
            "column" => Some(EngineKind::Column),
            "parallel" => Some(EngineKind::Parallel),
            _ => None,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether a pass over `rows` entries is big enough to split across the
/// configured threads: more than one thread, and two chunks of rows for
/// each — the floor [`ExecPlan::resolve`] applies to one question and to a
/// batch alike (which range a split cuts is [`crate::parallel`]'s rule).
/// The answer layer has its own floor on the threads a pass holds: two
/// 32 KiB blocks of `W` per lane (`mnn_memnn::model::OUTPUT_SPLIT_BLOCKS`).
pub(crate) fn clears_parallel_floor(config: &MnnFastConfig, rows: usize) -> bool {
    config.threads > 1 && rows >= config.threads * config.chunk_size * 2
}

/// Declarative engine selection: a [`MnnFastConfig`] plus an
/// [`EngineKind`].
///
/// ```
/// use mnnfast::{EngineKind, ExecPlan, MnnFastConfig};
///
/// let plan = ExecPlan::new(MnnFastConfig::new(64).with_threads(4));
/// assert_eq!(plan.kind, EngineKind::Auto);
/// // Tiny stores run sequentially; big ones use the configured threads.
/// assert_eq!(plan.resolve(10, 16), EngineKind::Column);
/// assert_eq!(plan.resolve(1_000_000, 16), EngineKind::Parallel);
/// // One configured thread is a budget: nothing is spawned, however big.
/// let single = ExecPlan::new(MnnFastConfig::new(64));
/// assert_eq!(single.resolve(1_000_000, 16), EngineKind::Column);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPlan {
    /// The dataflow configuration shared by both walks.
    pub config: MnnFastConfig,
    /// Which walk to run ([`EngineKind::Auto`] resolves per call).
    pub kind: EngineKind,
}

impl ExecPlan {
    /// A plan with [`EngineKind::Auto`] selection.
    pub fn new(config: MnnFastConfig) -> Self {
        ExecPlan {
            config,
            kind: EngineKind::Auto,
        }
    }

    /// Pins the plan to a specific engine kind.
    pub fn with_kind(mut self, kind: EngineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Resolves the concrete walk for a pass over `rows` memory entries
    /// (the embedding dimension `_ed` does not enter the rule).
    ///
    /// [`EngineKind::Auto`] never uses more threads than
    /// [`MnnFastConfig::threads`] grants. It picks
    /// [`EngineKind::Parallel`] when more than one thread is configured
    /// and each gets at least two chunks of work, else
    /// [`EngineKind::Column`]. Waking the scratch's parked workers and
    /// joining them costs a few µs per pass; at the default 64-row chunk
    /// a two-thread split breaks even between 512 and 1 024 rows, so the
    /// 256-row floor is within about a microsecond of the crossover
    /// (EXPERIMENTS.md, "The parallel floor on a worker team").
    pub fn resolve(&self, rows: usize, _ed: usize) -> EngineKind {
        match self.kind {
            EngineKind::Auto if clears_parallel_floor(&self.config, rows) => EngineKind::Parallel,
            EngineKind::Auto => EngineKind::Column,
            kind => kind,
        }
    }

    /// Builds the executor implementing this plan.
    pub fn executor(self) -> PlanExecutor {
        PlanExecutor::new(self)
    }
}

/// The memory plane a pass reads: the `(M_IN, M_OUT)` pair, either as f32
/// rows or as their per-row symmetric int8 mirror ([`QuantMatrix`]: int8
/// codes plus per-row scales).
///
/// On the int8 plane the query is quantized once per pass and every chunk
/// runs on the exact-integer int8 kernels. Logits carry a bounded relative
/// error ([`mnn_tensor::simd::I8_LOGIT_MAX_REL_ERROR`]); the result is
/// bitwise identical across engine variants and SIMD backends (the int8
/// kernels share one rounding history — see [`mnn_tensor::simd`]).
#[derive(Debug, Clone, Copy)]
pub enum MemView<'a> {
    /// The f32 row store.
    F32 {
        /// Input memory `M_IN`.
        m_in: &'a Matrix,
        /// Output memory `M_OUT`.
        m_out: &'a Matrix,
    },
    /// The int8 mirror.
    Int8 {
        /// Quantized input memory.
        m_in: &'a QuantMatrix,
        /// Quantized output memory.
        m_out: &'a QuantMatrix,
    },
}

impl<'a> MemView<'a> {
    fn shapes(&self) -> ((usize, usize), (usize, usize)) {
        match self {
            MemView::F32 { m_in, m_out } => (m_in.shape(), m_out.shape()),
            MemView::Int8 { m_in, m_out } => {
                ((m_in.rows(), m_in.cols()), (m_out.rows(), m_out.cols()))
            }
        }
    }

    /// Rows both memories hold (a pass attends over a prefix or a routed
    /// subset of them).
    pub fn rows(&self) -> usize {
        let (m_in, m_out) = self.shapes();
        m_in.0.min(m_out.0)
    }

    /// The embedding dimension (`M_IN`'s row width).
    pub fn cols(&self) -> usize {
        self.shapes().0 .1
    }

    /// Bytes one row of one memory moves: `4·ed` f32, or `ed` int8 codes
    /// plus the f32 scale — where the ~4x bandwidth saving shows up in
    /// [`crate::InferenceStats::memory_bytes`].
    pub(crate) fn row_bytes(&self) -> usize {
        match self {
            MemView::F32 { .. } => self.cols() * 4,
            MemView::Int8 { .. } => self.cols() + 4,
        }
    }

    /// Checks that the two memories agree in shape and `u` in width.
    pub(crate) fn check(&self, u: &[f32]) -> Result<(), EngineError> {
        let (m_in, m_out) = self.shapes();
        if m_in != m_out {
            return Err(EngineError::MemoryMismatch { m_in, m_out });
        }
        if u.len() != m_in.1 {
            return Err(ShapeError::new(
                "Executor::forward",
                format!("u of length {}", m_in.1),
                format!("u of length {}", u.len()),
            )
            .into());
        }
        Ok(())
    }

    /// Checks that a pass over `rows` rows stays inside the memories.
    pub(crate) fn check_rows(&self, rows: usize) -> Result<(), EngineError> {
        if rows > self.rows() {
            return Err(ShapeError::new(
                "Executor::forward",
                format!("rows <= {}", self.rows()),
                format!("rows = {rows}"),
            )
            .into());
        }
        Ok(())
    }

    /// Rows `row..row + n` of both memories.
    pub(crate) fn chunk(&self, row: usize, n: usize) -> ChunkOps<'a> {
        match *self {
            MemView::F32 { m_in, m_out } => ChunkOps::F32 {
                m_in: m_in.rows_slice(row, n),
                m_out: m_out.rows_slice(row, n),
            },
            MemView::Int8 { m_in, m_out } => ChunkOps::Int8 {
                m_in: m_in.rows_slice(row, n),
                in_scales: m_in.scales_slice(row, n),
                m_out: m_out.rows_slice(row, n),
                out_scales: m_out.scales_slice(row, n),
            },
        }
    }
}

impl<'a> From<(&'a Matrix, &'a Matrix)> for MemView<'a> {
    /// The f32 plane over `(M_IN, M_OUT)`.
    fn from((m_in, m_out): (&'a Matrix, &'a Matrix)) -> Self {
        MemView::F32 { m_in, m_out }
    }
}

impl<'a> From<(&'a QuantMatrix, &'a QuantMatrix)> for MemView<'a> {
    /// The int8 plane over `(M_IN, M_OUT)` mirrors.
    fn from((m_in, m_out): (&'a QuantMatrix, &'a QuantMatrix)) -> Self {
        MemView::Int8 { m_in, m_out }
    }
}

/// Which rows of a [`MemView`] a single-question pass attends over.
#[derive(Debug, Clone, Copy)]
pub enum Route<'a> {
    /// The rows of a [`SegmentPlan`]: a prefix
    /// ([`SegmentPlan::unsegmented`]) or a routed map whose segments are
    /// visited in order, folding each segment's chunk partials into one
    /// running accumulator through the [`mnn_tensor::partial`] merge plane
    /// and — when the plan enables pruning — skipping segments whose
    /// zone-map score upper bound provably cannot survive the running
    /// softmax max (see [`crate::segment`]; int8 bounds come from
    /// exactly-dequantized row norms and the quantized query's own norm).
    /// Any routed plan answers bitwise the unsegmented pass: segments are
    /// chunk-aligned, the fold stays in global chunk order, and pruning
    /// only removes exactly-zero contributions.
    Plan(&'a SegmentPlan<'a>),
    /// Approximate-first, exact-second attention: probe the clustered
    /// top-K candidate [`ClusterIndex`] for the rows most likely to carry
    /// the softmax mass, then rescore *only those rows* with the unchanged
    /// exact kernels. Sublinear in memory size — `O(k·ed)` centroid scoring
    /// plus `O(candidates·ed)` exact work instead of `O(ns·ed)`.
    ///
    /// The route is resolved above the engines into one of two plan walks,
    /// chosen per probe:
    ///
    /// * **Plan mode** — when the candidates are spatially clustered (the
    ///   covered chunk-run span is at most twice the candidate count), walk
    ///   a zero-copy *gappy* routed plan
    ///   ([`crate::SegmentMap::from_segments`]) covering the candidate
    ///   chunks. The answer is bitwise identical to exact attention
    ///   restricted to the covered chunk runs.
    /// * **Gather mode** — when the candidates are scattered (covering
    ///   their chunks would rescore mostly non-candidates), copy the
    ///   candidate rows into the [`Scratch`]'s contiguous staging memory
    ///   and walk it as a prefix. The answer is bitwise identical to exact
    ///   attention over a memory holding exactly the candidate rows in
    ///   ascending order (int8 codes and scales are copied verbatim).
    ///
    /// Either way the exact kernels do all scoring — the index only chooses
    /// *which* rows they see, never *how* a row is scored. The probe is
    /// identical on both planes (centroids are f32). Probe and gather time
    /// land under [`Phase::IndexProbe`];
    /// [`crate::InferenceStats::index_probes`],
    /// [`crate::InferenceStats::candidates_scored`] and
    /// [`crate::InferenceStats::rows_skipped_by_index`] account the sparse
    /// work.
    ///
    /// A pass over this route fails with [`EngineError::IndexDeclined`]
    /// when the index cannot stand behind a sparse answer — the index is
    /// empty, `topk` covers every live row, the probe's confidence margin
    /// collapsed (centroid-score ties), or the gathered candidate set spans
    /// every live row (near-duplicate memories cascade the probe through
    /// every cluster). Callers degrade to exact attention; nothing is wrong
    /// with the request. It fails with [`EngineError::Config`] on
    /// `topk == 0` / `nprobe == 0`, a [`SkipPolicy::Probability`]
    /// configuration (its two-pass threshold sweep is defined over the full
    /// memory, not a candidate subset), an index larger than the memory it
    /// claims to mirror, or a query width mismatch.
    TopK {
        /// The candidate index over the view's live rows.
        index: &'a ClusterIndex,
        /// Candidates wanted per probe.
        topk: usize,
        /// Floor on the clusters probed.
        nprobe: usize,
    },
}

/// Anything that can run the forward pass
/// `o = softmax(u · M_INᵀ) · M_OUT` over a [`MemView`].
///
/// This is the single dispatch seam of the codebase: `serve`, `cli` and
/// `bench` all hold `&dyn Executor`, and [`crate::hops::multi_hop`] accepts
/// the same trait object. Exactly two types implement it: [`PlanExecutor`]
/// — what production runs: one pass over a questions × chunk-ranges grid
/// ([`crate::parallel`]), inline or over worker threads — and
/// [`crate::ColumnEngine`] — always inline, batches as a per-question
/// loop; the reference the parity suites and the lattice hold the first
/// one to, bit for bit. Which plane and which rows are *values* — a
/// [`MemView`] and a [`Route`] — not method names; an unbudgeted pass is
/// one under [`Budget::unlimited`] (whose check never reads the clock).
pub trait Executor: Send + Sync + fmt::Debug {
    /// Computes the response vector for `u` over `route`'s rows of `view`
    /// under an execution [`Budget`], reusing `scratch` buffers and
    /// recording per-phase timings into `trace` (free when the trace is
    /// disabled). A warm inline pass over a [`Route::Plan`] allocates
    /// nothing.
    ///
    /// Every walk checks `budget` once per chunk and validates the
    /// softmax denominator at each merge, so a deadline, a cancellation, or
    /// a numeric fault surfaces within one chunk's work — never as silent
    /// garbage — and a panicking chunk kernel surfaces as
    /// [`EngineError::WorkerPanicked`], on the caller's thread too.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on invalid configuration, mismatched operand
    /// shapes, or a plan reaching past the view's rows
    /// ([`EngineError::Shape`], never a panic);
    /// [`EngineError::DeadlineExceeded`] / [`EngineError::Cancelled`] when
    /// the budget fails mid-pass; [`EngineError::NumericFault`] when a
    /// non-finite value reaches an accumulator; and the admission errors
    /// of [`Route::TopK`].
    fn forward(
        &self,
        view: MemView<'_>,
        route: Route<'_>,
        u: &[f32],
        scratch: &mut Scratch,
        trace: &mut Trace,
        budget: &Budget,
    ) -> Result<ColumnOutput, EngineError>;

    /// Answers a batch of same-dimension `questions` over `route`'s rows
    /// of `view`, each question under its own [`Budget`] (`budgets[q]`
    /// governs `questions[q]`; the two slices must have equal length).
    /// Every slot is bitwise the [`Executor::forward`] answer for that
    /// question alone, and its work counters (`rows_*`, `chunks`, `flops`,
    /// `ws_flops`, `flops_skipped`, `memory_bytes`, `divisions`,
    /// `segments_*`) are that lone pass's. `intermediate_bytes` is a
    /// footprint, not work: a batch of two or more reports one question's
    /// share of the batched tile, `(logit_rows + ed) · 4` bytes, whichever
    /// split served it.
    ///
    /// Per-question failures are isolated: a deadline, cancellation,
    /// numeric fault or contained panic on question `q` lands as the `Err`
    /// in slot `q` while the remaining questions complete normally — the
    /// outer `Err` is reserved for batch-level problems (invalid config,
    /// ragged batch, mismatched budget count, bad operand shapes).
    ///
    /// The default implementation loops [`Executor::forward`] per question
    /// — correct, but it re-streams both memories once per question.
    /// [`PlanExecutor`] runs a [`Route::Plan`] batch as one pass that
    /// streams each chunk once per *batch* and applies it to every live
    /// question while it is cache-resident (a warm call allocates only its
    /// result vector); a [`Route::TopK`] batch probes per question, since
    /// each question's candidates are its own.
    ///
    /// # Errors
    ///
    /// Batch-level: [`EngineError::Config`] on ragged question batches or
    /// `budgets.len() != questions.len()`, [`EngineError::Shape`] on bad
    /// operand shapes. Per-question errors are carried in the inner
    /// `Result`s.
    fn forward_batch(
        &self,
        view: MemView<'_>,
        route: Route<'_>,
        questions: &[Vec<f32>],
        scratch: &mut Scratch,
        trace: &mut Trace,
        budgets: &[Budget],
    ) -> Result<Vec<Result<ColumnOutput, EngineError>>, EngineError> {
        one_at_a_time(self, view, route, questions, scratch, trace, budgets)
    }

    /// The dataflow configuration this executor runs.
    fn config(&self) -> MnnFastConfig;
}

/// A batch as a loop of [`Executor::forward`] calls: the trait's default
/// batch, and [`PlanExecutor`]'s top-K batch (each question probes its own
/// candidates).
fn one_at_a_time<E: Executor + ?Sized>(
    exec: &E,
    view: MemView<'_>,
    route: Route<'_>,
    questions: &[Vec<f32>],
    scratch: &mut Scratch,
    trace: &mut Trace,
    budgets: &[Budget],
) -> Result<Vec<Result<ColumnOutput, EngineError>>, EngineError> {
    crate::parallel::check_batch(questions, budgets)?;
    Ok(questions
        .iter()
        .zip(budgets)
        .map(|(u, b)| exec.forward(view, route, u, scratch, trace, b))
        .collect())
}

/// Resolves `route` into the plan walk `pass` runs — the one place a
/// [`Route::TopK`] is turned into rows: admission checks → probe → gappy
/// plan or gathered view → the same `pass` a [`Route::Plan`] gets.
pub(crate) fn resolve_route(
    config: &MnnFastConfig,
    view: MemView<'_>,
    route: Route<'_>,
    u: &[f32],
    scratch: &mut Scratch,
    trace: &mut Trace,
    mut pass: impl FnMut(
        MemView<'_>,
        &SegmentPlan<'_>,
        &mut Scratch,
        &mut Trace,
    ) -> Result<ColumnOutput, EngineError>,
) -> Result<ColumnOutput, EngineError> {
    let (index, topk, nprobe) = match route {
        Route::Plan(plan) => return pass(view, plan, scratch, trace),
        Route::TopK {
            index,
            topk,
            nprobe,
        } => (index, topk, nprobe),
    };
    check_topk_request(config, index, u.len(), topk, nprobe, view.rows())?;
    let t0 = trace.begin();
    let probe = index.probe(u, topk, nprobe, config.chunk_size);
    let probe = admit_probe(probe, index.len(), trace, t0)?;
    let rescored = if rescore_via_plan(&probe) {
        trace.record(Phase::IndexProbe, t0, probe.probes as u64);
        pass(
            view,
            &SegmentPlan::routed(&probe.covered, false),
            scratch,
            trace,
        )
    } else {
        // The staging leaves the scratch for the pass, which borrows both.
        let mut stage = std::mem::take(&mut scratch.gather);
        let staged = stage.gather(view, &probe.candidates);
        trace.record(Phase::IndexProbe, t0, probe.probes as u64);
        let plan = SegmentPlan::unsegmented(probe.candidates.len());
        let rescored = pass(staged, &plan, scratch, trace);
        scratch.gather = stage;
        rescored
    };
    let mut out = rescored?;
    patch_topk_stats(&mut out.stats, &probe, index.len());
    Ok(out)
}

/// Admission checks of the top-K route.
fn check_topk_request(
    config: &MnnFastConfig,
    index: &ClusterIndex,
    query_width: usize,
    topk: usize,
    nprobe: usize,
    memory_rows: usize,
) -> Result<(), EngineError> {
    if topk == 0 {
        return Err(EngineError::Config("topk must be positive".into()));
    }
    if nprobe == 0 {
        return Err(EngineError::Config("nprobe must be positive".into()));
    }
    if matches!(config.skip, SkipPolicy::Probability(_)) {
        return Err(EngineError::Config(
            "probability zero-skip sweeps the full memory; \
             incompatible with top-K candidate attention"
                .into(),
        ));
    }
    if query_width != index.ed() {
        return Err(EngineError::Config(format!(
            "query width {} != index embedding width {}",
            query_width,
            index.ed()
        )));
    }
    if index.len() > memory_rows {
        return Err(EngineError::Config(format!(
            "index covers {} rows but the memory holds {}",
            index.len(),
            memory_rows
        )));
    }
    if index.is_empty() {
        return Err(EngineError::IndexDeclined {
            reason: "index is empty",
        });
    }
    if topk >= index.len() {
        return Err(EngineError::IndexDeclined {
            reason: "topk covers every live row",
        });
    }
    Ok(())
}

/// Gate on the probe's outcome: a collapsed margin means the cluster cut
/// was arbitrary, and a candidate set spanning every live row means there
/// is no cut at all (near-duplicate memories cascade the probe through
/// every cluster) — either way exact attention must answer. Records the
/// probe time in both cases — declined probes are real work.
fn admit_probe(
    probe: ProbeResult,
    rows: usize,
    trace: &mut Trace,
    t0: Option<Instant>,
) -> Result<ProbeResult, EngineError> {
    let reason = if probe.low_margin {
        Some("probe confidence margin collapsed")
    } else if probe.candidates.len() >= rows {
        Some("candidate set covers every live row")
    } else {
        None
    };
    if let Some(reason) = reason {
        trace.record(Phase::IndexProbe, t0, probe.probes as u64);
        return Err(EngineError::IndexDeclined { reason });
    }
    Ok(probe)
}

/// Plan-vs-gather mode rule: zero-copy chunk covering pays off only while
/// the covered span stays within 2x the candidate count; scattered
/// candidates are gathered into a staging memory instead.
fn rescore_via_plan(probe: &ProbeResult) -> bool {
    probe.covered.rows() <= probe.candidates.len().saturating_mul(2)
}

/// Folds the sparse-pass accounting into the rescoring engine's stats:
/// `rows_total` after the pass is exactly the rows rescored (covered rows
/// in plan mode, candidates in gather mode).
fn patch_topk_stats(stats: &mut crate::InferenceStats, probe: &ProbeResult, store_rows: usize) {
    let rescored = stats.rows_total;
    stats.index_probes += probe.probes as u64;
    stats.candidates_scored += rescored;
    stats.rows_skipped_by_index += (store_rows as u64).saturating_sub(rescored);
}

/// The executor built from an [`ExecPlan`]: one pass, walked inline or
/// over the configured threads as [`ExecPlan::resolve`] says per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanExecutor {
    plan: ExecPlan,
}

impl PlanExecutor {
    /// Builds the executor for `plan`.
    pub fn new(plan: ExecPlan) -> Self {
        PlanExecutor { plan }
    }

    /// The plan this executor implements.
    pub fn plan(&self) -> ExecPlan {
        self.plan
    }

    /// The threads a pass over `rows` rows may use: the configured count
    /// when the plan resolves to the scale-out walk, else one (inline).
    fn threads(&self, rows: usize, ed: usize) -> usize {
        match self.plan.resolve(rows, ed) {
            EngineKind::Parallel => self.plan.config.threads,
            EngineKind::Column | EngineKind::Auto => 1,
        }
    }
}

impl Executor for PlanExecutor {
    /// Resolves the walk from the rows actually walked: a top-K pass
    /// picks by its rescored rows, not by the memory it probed.
    fn forward(
        &self,
        view: MemView<'_>,
        route: Route<'_>,
        u: &[f32],
        scratch: &mut Scratch,
        trace: &mut Trace,
        budget: &Budget,
    ) -> Result<ColumnOutput, EngineError> {
        let config = &self.plan.config;
        resolve_route(config, view, route, u, scratch, trace, |v, p, s, t| {
            let threads = self.threads(p.rows(), u.len());
            crate::parallel::forward_one(config, threads, v, p, u, s, t, budget)
        })
    }

    fn forward_batch(
        &self,
        view: MemView<'_>,
        route: Route<'_>,
        questions: &[Vec<f32>],
        scratch: &mut Scratch,
        trace: &mut Trace,
        budgets: &[Budget],
    ) -> Result<Vec<Result<ColumnOutput, EngineError>>, EngineError> {
        let Route::Plan(plan) = route else {
            return one_at_a_time(self, view, route, questions, scratch, trace, budgets);
        };
        let ed = questions.first().map_or(0, Vec::len);
        let threads = self.threads(plan.rows(), ed);
        let mut slots = Vec::with_capacity(questions.len());
        let config = &self.plan.config;
        crate::parallel::pass(
            config,
            threads,
            view,
            plan,
            questions,
            budgets,
            scratch,
            trace,
            |slot| slots.push(slot),
        )?;
        Ok(slots)
    }

    fn config(&self) -> MnnFastConfig {
        self.plan.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MnnFastConfig;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        assert!(t.begin().is_none());
        t.record(Phase::FusedChunk, None, 100);
        t.bump(Phase::Skip, 5);
        assert_eq!(t.total_nanos(), 0);
        assert_eq!(t.count(Phase::Skip), 0);
    }

    #[test]
    fn enabled_trace_accumulates() {
        let mut t = Trace::enabled();
        let t0 = t.begin();
        assert!(t0.is_some());
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.record(Phase::FusedChunk, t0, 7);
        assert!(t.nanos(Phase::FusedChunk) >= 1_000_000);
        assert_eq!(t.count(Phase::FusedChunk), 7);
        assert_eq!(t.total_nanos(), t.nanos(Phase::FusedChunk));

        let mut sum = Trace::enabled();
        sum.absorb(&t);
        sum.absorb(&t);
        assert_eq!(sum.count(Phase::FusedChunk), 14);

        t.reset();
        assert_eq!(t.total_nanos(), 0);
        assert!(t.is_enabled());
    }

    #[test]
    fn trace_render_lists_all_phases() {
        let mut t = Trace::enabled();
        t.add(Phase::FusedChunk, 1_500, 10);
        t.add(Phase::Divide, 500, 8);
        let s = t.render();
        for phase in Phase::ALL {
            assert!(s.contains(phase.label()), "{s}");
        }
        assert!(s.contains("total"));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(1_000); // bucket 9 (512..1024? no: 2^9=512, 1000 in [512,1024))
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 100);
        assert!(h.mean_nanos() >= 1_000);
        let p50 = h.quantile_upper_bound(0.5);
        assert!(p50 <= 2_048, "p50 {p50}");
        let p99 = h.quantile_upper_bound(0.99);
        assert!(p99 >= 1_000_000, "p99 {p99}");

        let mut other = LatencyHistogram::new();
        other.record(1_000);
        h.merge(&other);
        assert_eq!(h.count(), 101);
    }

    #[test]
    fn phase_histograms_observe_traces() {
        let mut hist = PhaseHistograms::new();
        let mut t = Trace::enabled();
        t.add(Phase::FusedChunk, 2_000, 64);
        t.add(Phase::Divide, 300, 8);
        hist.observe(&t);
        hist.observe(&t);
        assert_eq!(hist.total().count(), 2);
        assert_eq!(hist.phase(Phase::FusedChunk).count(), 2);
        assert_eq!(hist.phase(Phase::Merge).count(), 0);

        // Disabled traces are ignored.
        hist.observe(&Trace::disabled());
        assert_eq!(hist.total().count(), 2);

        let mut merged = PhaseHistograms::new();
        merged.merge(&hist);
        assert_eq!(merged.total().count(), 2);
    }

    #[test]
    fn auto_plan_resolution() {
        let plan = ExecPlan::new(MnnFastConfig::new(100).with_threads(4));
        assert_eq!(plan.resolve(10, 8), EngineKind::Column);
        assert_eq!(plan.resolve(2_000, 8), EngineKind::Parallel);

        // One thread is a budget: a 25.6 MB working set still runs on it.
        let single = ExecPlan::new(MnnFastConfig::new(100));
        assert_eq!(single.resolve(2_000, 8), EngineKind::Column);
        assert_eq!(single.resolve(200_000, 16), EngineKind::Column);
        // With two threads but too few rows to split, the pass stays
        // inline however large the working set is.
        let wide = ExecPlan::new(MnnFastConfig::new(100_000).with_threads(2));
        assert_eq!(wide.resolve(200_000, 16), EngineKind::Column);
        let under_floor = ExecPlan::new(MnnFastConfig::new(1000).with_threads(2));
        assert_eq!(under_floor.resolve(3_000, 256), EngineKind::Column);

        let pinned = ExecPlan::new(MnnFastConfig::new(100)).with_kind(EngineKind::Parallel);
        assert_eq!(pinned.resolve(1, 1), EngineKind::Parallel);
    }

    proptest::proptest! {
        #[test]
        fn auto_resolves_to_parallel_exactly_above_the_floor(
            threads in 1usize..9,
            chunk in 1usize..2049,
            rows in 0usize..(1 << 20) + 1,
            ed in 1usize..513,
        ) {
            let config = MnnFastConfig::new(chunk).with_threads(threads);
            let expect = if clears_parallel_floor(&config, rows) {
                EngineKind::Parallel
            } else {
                EngineKind::Column
            };
            proptest::prop_assert_eq!(ExecPlan::new(config).resolve(rows, ed), expect);
        }
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in [EngineKind::Auto, EngineKind::Column, EngineKind::Parallel] {
            assert_eq!(EngineKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(EngineKind::parse("gpu"), None);
        assert_eq!(EngineKind::parse("streaming"), None);
    }

    #[test]
    fn scratch_pools_output_buffers() {
        let mut s = Scratch::new();
        let a = s.take_out(8);
        assert_eq!(s.pooled_outputs(), 0);
        let ptr = a.as_ptr();
        s.recycle(a);
        assert_eq!(s.pooled_outputs(), 1);
        let b = s.take_out(8);
        assert_eq!(b.as_ptr(), ptr, "pooled buffer must be reused");
    }

    #[test]
    fn format_nanos_units() {
        assert_eq!(format_nanos(900), "900 ns");
        assert!(format_nanos(1_500).contains("µs"));
        assert!(format_nanos(2_000_000).contains("ms"));
        assert!(format_nanos(3_000_000_000).contains(" s"));
    }
}
