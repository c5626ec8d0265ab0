//! Batched column-based inference: many questions per chunk pass.
//!
//! The default [`crate::Executor::forward_batch`] answers questions one at
//! a time, re-streaming the memories per question. The batched engine
//! exploits the
//! chunk residency the column-based algorithm creates: each chunk of
//! `M_IN`/`M_OUT` is loaded once and applied to *all* `nq` questions while
//! resident (the paper's GPU formulation — Section 4.1.2: "Inner product is
//! matrix multiplication between M_IN and U").
//!
//! # The contract: batched == sequential, by construction
//!
//! Every answer a batch returns is bitwise the answer a single-question
//! [`crate::Executor::forward`] run with the same config returns — whatever the batch's composition, the tile shapes the kernels
//! pick, or the number of worker threads. Two things make that a property
//! of the code rather than of its tuning:
//!
//! * **One reduction order.** Every f32 logit, denominator and weighted-sum
//!   element has one canonical order per backend (see [`mnn_tensor::simd`]);
//!   the register tiles (1 question × 8 rows, 2 questions × 4 rows) share
//!   loads between questions, never arithmetic. The batched chunk kernel
//!   ([`LazyAccumulator::accumulate_chunk_batch`] /
//!   [`OnlineSoftmax::accumulate_chunk_batch`]) therefore hands each
//!   question exactly what the single-question kernel would — the
//!   single-question kernel *is* its `nq = 1` call.
//! * **One chunk-partial discipline.** Per chunk, each live question's
//!   chunk partial is reset, one batched kernel call fills them all, and
//!   each is merged into its question's running accumulator — the fold
//!   every walk performs, in the same chunk order.
//!
//! A question's arithmetic never depends on its batchmates, so the batch
//! is split over `config.threads` workers by **contiguous question
//! ranges**: each worker walks all chunks for its own questions in its own
//! `BatchLanes` arena, and per-question [`Budget`] isolation is untouched.
//! The split is taken when the pass clears the floor
//! [`crate::ExecPlan::resolve`] uses for the parallel engine (every thread
//! would get two chunks of rows); it is derived from the inputs, not a
//! knob.
//!
//! The quantized plane runs the same driver with the single-question int8
//! chunk kernel per question (an int8 tile is future work).
//!
//! Entry points: [`BatchEngine::forward_batch`] is the serving path (what
//! [`crate::PlanExecutor`] runs for [`crate::Executor::forward_batch`]) —
//! it reuses a [`Scratch`] arena (a warm single-worker pass allocates only
//! its result vector), records the [`Phase::BatchGemm`] trace phase, and
//! gives every question its own [`Budget`]. [`BatchEngine::forward`] is a
//! one-shot convenience over it that adds batch-level counters.

use crate::budget::Budget;
use crate::config::{MnnFastConfig, SkipPolicy, SoftmaxMode};
use crate::engine::{check_denom, check_output, AccumMut, ColumnEngine, ColumnOutput, EngineError};
use crate::exec::{MemView, Phase, Scratch, Trace};
use crate::segment::{self, SegmentPlan};
use crate::stats::InferenceStats;
use mnn_tensor::softmax::{LazyAccumulator, OnlineSoftmax};
use mnn_tensor::{kernels, Matrix, QuantMatrix};

/// Batched column-based engine.
///
/// Produces results bitwise identical to running [`ColumnEngine`] per
/// question, while streaming the memories once per *batch* instead of once
/// per question.
///
/// ```
/// use mnn_tensor::Matrix;
/// use mnnfast::{batch::BatchEngine, ColumnEngine, MnnFastConfig};
///
/// let m_in = Matrix::from_fn(50, 4, |r, c| ((r + c) as f32 * 0.1).sin());
/// let m_out = m_in.clone();
/// let questions: Vec<Vec<f32>> = (0..3).map(|q| vec![q as f32 * 0.1; 4]).collect();
/// let config = MnnFastConfig::new(10);
///
/// let batched = BatchEngine::new(config).forward(&m_in, &m_out, &questions).unwrap();
/// let single = ColumnEngine::new(config).forward(&m_in, &m_out, &questions[0]).unwrap();
/// assert_eq!(batched.outputs[0].o, single.o);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchEngine {
    config: MnnFastConfig,
}

/// Result of a batched forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutput {
    /// Per-question outputs, in question order.
    pub outputs: Vec<ColumnOutput>,
    /// Batch-level counters: the memories count once, not per question.
    pub stats: InferenceStats,
}

/// The running accumulators and chunk partials of one worker's questions,
/// both softmax formulations side by side (a pass uses the pair its mode
/// names; keeping both lets a scratch alternate modes without
/// reallocating).
#[derive(Debug, Clone, Default)]
struct LaneAccums {
    mode: SoftmaxMode,
    lazy: Vec<LazyAccumulator>,
    chunk_lazy: Vec<LazyAccumulator>,
    online: Vec<OnlineSoftmax>,
    chunk_online: Vec<OnlineSoftmax>,
}

impl LaneAccums {
    /// Readies `nq` reset accumulator pairs of width `ed` for `mode`.
    fn reset(&mut self, mode: SoftmaxMode, nq: usize, ed: usize) {
        fn ready<A: Default>(accs: &mut Vec<A>, nq: usize, reset: impl Fn(&mut A)) {
            if accs.len() < nq {
                accs.resize_with(nq, A::default);
            }
            accs[..nq].iter_mut().for_each(reset);
        }
        self.mode = mode;
        match mode {
            SoftmaxMode::Lazy => {
                ready(&mut self.lazy, nq, |a| a.reset(ed));
                ready(&mut self.chunk_lazy, nq, |a| a.reset(ed));
            }
            SoftmaxMode::Online => {
                ready(&mut self.online, nq, |a| a.reset(ed));
                ready(&mut self.chunk_online, nq, |a| a.reset(ed));
            }
        }
    }

    /// Question `q`'s running accumulator and chunk partial.
    fn pair(&mut self, q: usize) -> (AccumMut<'_>, AccumMut<'_>) {
        match self.mode {
            SoftmaxMode::Lazy => (
                AccumMut::Lazy(&mut self.lazy[q]),
                AccumMut::Lazy(&mut self.chunk_lazy[q]),
            ),
            SoftmaxMode::Online => (
                AccumMut::Online(&mut self.online[q]),
                AccumMut::Online(&mut self.chunk_online[q]),
            ),
        }
    }

    /// Question `q`'s running softmax max (`None` in lazy mode, which has
    /// none until the division and therefore never prunes).
    fn running_max(&self, q: usize) -> Option<f32> {
        match self.mode {
            SoftmaxMode::Lazy => None,
            SoftmaxMode::Online => Some(self.online[q].max_logit()),
        }
    }

    fn denom(&self, q: usize) -> f32 {
        match self.mode {
            SoftmaxMode::Lazy => self.lazy[q].denom(),
            SoftmaxMode::Online => self.online[q].denom(),
        }
    }

    fn finish_into(&self, q: usize, out: &mut Vec<f32>) {
        match self.mode {
            SoftmaxMode::Lazy => self.lazy[q].finish_into(out),
            SoftmaxMode::Online => self.online[q].finish_into(out),
        }
    }
}

/// One worker's share of a batched pass: everything the questions of one
/// contiguous range need, struct-of-arrays so the tile kernels get flat
/// slices. Lives in a [`Scratch`] and is reused across passes.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchLanes {
    ed: usize,
    /// The flattened question block (`nq × ed`), and on the quantized plane
    /// its int8 codes and per-question scales.
    us: Vec<f32>,
    uq: Vec<i8>,
    uscales: Vec<f32>,
    query_norms: Vec<f64>,
    logits: Vec<f32>,
    acc: LaneAccums,
    thresholds: Vec<Option<f32>>,
    /// Budget still good.
    live: Vec<bool>,
    /// Live and not pruned out of the current segment.
    visit: Vec<bool>,
    /// Rows each question zero-skipped in the current f32 chunk.
    skipped: Vec<u64>,
    stats: Vec<InferenceStats>,
    prepass: Vec<f64>,
}

impl BatchLanes {
    fn nq(&self) -> usize {
        self.live.len()
    }

    /// Stages `questions` for a pass: flattens them (and quantizes them for
    /// the int8 plane — its kernels only ever see i8 operands), resets the
    /// accumulators and bookkeeping, grows the logits workspace to
    /// `logit_rows` rows per question.
    fn stage(&mut self, mode: SoftmaxMode, questions: &[Vec<f32>], quant: bool, logit_rows: usize) {
        let nq = questions.len();
        let ed = questions.first().map_or(0, Vec::len);
        self.ed = ed;
        self.us.clear();
        for q in questions {
            self.us.extend_from_slice(q);
        }
        self.query_norms.clear();
        if quant {
            self.uq.clear();
            self.uq.resize(nq * ed, 0);
            self.uscales.clear();
            for (q, codes) in questions.iter().zip(self.uq.chunks_exact_mut(ed.max(1))) {
                let scale = mnn_tensor::quant::quantize_row(q, codes);
                self.uscales.push(scale);
                // Zone maps are built from exactly-dequantized row norms,
                // so Cauchy–Schwarz must use the quantized query's norm.
                self.query_norms
                    .push(segment::query_norm_upper_i8(codes, scale));
            }
        } else {
            self.query_norms
                .extend(questions.iter().map(|q| segment::query_norm_upper(q)));
        }
        self.acc.reset(mode, nq, ed);
        for flags in [&mut self.live, &mut self.visit] {
            flags.clear();
            flags.resize(nq, true);
        }
        self.skipped.clear();
        self.skipped.resize(nq, 0);
        self.stats.clear();
        self.stats.resize(nq, InferenceStats::default());
        if self.logits.len() < nq * logit_rows {
            self.logits.resize(nq * logit_rows, 0.0);
        }
    }

    /// One f32 chunk for every visiting question: reset their chunk
    /// partials, fill them with one batched kernel call, merge each into
    /// its running accumulator. Leaves in `self.skipped[q]` the rows
    /// question `q` zero-skipped in this chunk.
    fn fold_chunk(&mut self, in_flat: &[f32], out_flat: &[f32], n: usize, fused: bool) {
        let (nq, ed) = (self.nq(), self.ed);
        self.skipped.fill(0);
        match self.acc.mode {
            SoftmaxMode::Lazy => {
                let parts = &mut self.acc.chunk_lazy[..nq];
                parts.iter_mut().for_each(|p| p.reset(ed));
                LazyAccumulator::accumulate_chunk_batch(
                    parts,
                    in_flat,
                    out_flat,
                    n,
                    &self.us,
                    &self.thresholds,
                    &self.visit,
                    fused,
                    &mut self.skipped,
                );
            }
            SoftmaxMode::Online => {
                let parts = &mut self.acc.chunk_online[..nq];
                parts.iter_mut().for_each(|p| p.reset(ed));
                OnlineSoftmax::accumulate_chunk_batch(
                    parts,
                    in_flat,
                    out_flat,
                    n,
                    &self.us,
                    &self.thresholds,
                    &self.visit,
                    fused,
                    &mut self.logits,
                    &mut self.skipped,
                );
            }
        }
        for q in (0..nq).filter(|&q| self.visit[q]) {
            let (mut run, part) = self.acc.pair(q);
            run.merge_from(&part);
        }
    }

    /// One int8 chunk for every visiting question, each through the
    /// single-question chunk kernel (which also does the stats and trace
    /// accounting) and the same partial → merge fold.
    fn fold_chunk_quant(
        &mut self,
        engine: &ColumnEngine,
        m_in: &QuantMatrix,
        m_out: &QuantMatrix,
        row: usize,
        n: usize,
        trace: &mut Trace,
    ) {
        let ed = self.ed;
        for q in (0..self.nq()).filter(|&q| self.visit[q]) {
            let (mut run, mut part) = self.acc.pair(q);
            part.reset(ed);
            engine.process_chunk_quant(
                m_in.rows_slice(row, n),
                m_in.scales_slice(row, n),
                m_out.rows_slice(row, n),
                m_out.scales_slice(row, n),
                n,
                &self.uq[q * ed..(q + 1) * ed],
                self.uscales[q],
                self.thresholds[q],
                &mut part,
                &mut self.stats[q],
                &mut self.logits[q * n..(q + 1) * n],
                trace,
            );
            let t0 = trace.begin();
            run.merge_from(&part);
            trace.record(Phase::Merge, t0, 1);
        }
    }
}

impl BatchEngine {
    /// Creates a batched engine.
    pub fn new(config: MnnFastConfig) -> Self {
        Self { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> MnnFastConfig {
        self.config
    }

    /// Answers all `questions` with one streaming pass over the memories:
    /// the serving path ([`BatchEngine::forward_batch`]) with unlimited
    /// budgets and a throwaway [`Scratch`], plus batch-level counters.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on invalid configuration or mismatched
    /// shapes, and the first per-question error (a numeric fault) if any
    /// question failed. [`SkipPolicy::Probability`] is resolved per
    /// question with the same two-pass semantics as the single-question
    /// engine.
    pub fn forward(
        &self,
        m_in: &Matrix,
        m_out: &Matrix,
        questions: &[Vec<f32>],
    ) -> Result<BatchOutput, EngineError> {
        let budgets = vec![Budget::unlimited(); questions.len()];
        let rows = m_in.rows();
        let outputs = self
            .forward_batch(
                MemView::F32 { m_in, m_out },
                &SegmentPlan::unsegmented(rows),
                questions,
                &mut Scratch::new(),
                &mut Trace::disabled(),
                &budgets,
            )?
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        // Shared work counts once: each pass over a memory streams it once
        // for the whole batch (the Probability pre-pass reads `M_IN` again),
        // and the arena holds one logits tile and one partial per question.
        let (nq, ed) = (questions.len(), m_in.cols());
        let passes = 2 + u64::from(matches!(self.config.skip, SkipPolicy::Probability(_)));
        let logit_rows = self.config.chunk_size.min(rows.max(1));
        let mut stats = InferenceStats {
            memory_bytes: passes * (rows * ed * 4) as u64,
            intermediate_bytes: (nq * (logit_rows + ed) * 4) as u64,
            ..InferenceStats::default()
        };
        for ColumnOutput { stats: s, .. } in &outputs {
            stats.rows_total += s.rows_total;
            stats.rows_skipped += s.rows_skipped;
            stats.flops += s.flops;
            stats.ws_flops += s.ws_flops;
            stats.flops_skipped += s.flops_skipped;
            stats.divisions += s.divisions;
        }
        Ok(BatchOutput { outputs, stats })
    }

    /// The batched serving path: `questions` over `plan`'s rows of `view`,
    /// each question under its own [`Budget`] (`budgets[q]` governs
    /// `questions[q]`).
    ///
    /// Each chunk of memories is streamed once per batch and folded into
    /// every live question while cache-resident; every answer is bitwise
    /// identical to a per-question [`crate::Executor::forward`] run with
    /// the same config, at any thread count and on either plane (see the
    /// module docs for why). Network serving relies on this: a coalesced
    /// batch returns the same bits as a sequence of single-question asks.
    ///
    /// Every live question's budget is checked once per chunk. A question
    /// whose budget fails mid-pass goes *dead* — it stops accumulating and
    /// its slot carries the typed budget error — while the remaining
    /// questions complete the pass unaffected. Numeric faults are likewise
    /// isolated per question by the usual denominator/output guards.
    ///
    /// Pruning is decided *per question*: a question in Online mode whose
    /// running max provably dominates a segment's zone-map logit upper
    /// bound skips that segment (its rows contribute exactly-zero terms, so
    /// the answer is bitwise unchanged), while its batchmates still process
    /// it. Lazy-mode questions never prune (no running max exists until the
    /// division). Int8 bounds use zone maps built from dequantized row
    /// norms and each quantized query's own norm.
    ///
    /// Per-question [`InferenceStats`] carry the question's compute share
    /// (its inner products as a GEMV count, exp, weighted-sum and divide
    /// flops); f32 memory traffic is a batch-level quantity and is not
    /// attributed per question here. Worker phase times are CPU time summed
    /// across workers.
    ///
    /// # Errors
    ///
    /// Batch-level: [`EngineError::Config`] on invalid configuration, a
    /// ragged question batch, or `budgets.len() != questions.len()`;
    /// [`EngineError::Shape`] / [`EngineError::MemoryMismatch`] on bad
    /// operands. Per-question deadline/cancellation/numeric errors are
    /// carried in the inner `Result` slots.
    pub fn forward_batch(
        &self,
        view: MemView<'_>,
        plan: &SegmentPlan<'_>,
        questions: &[Vec<f32>],
        scratch: &mut Scratch,
        trace: &mut Trace,
        budgets: &[Budget],
    ) -> Result<Vec<Result<ColumnOutput, EngineError>>, EngineError> {
        check_batch(questions, budgets)?;
        if let Some(first) = questions.first() {
            self.config.validate().map_err(EngineError::Config)?;
            view.check(first)?;
            view.check_rows(plan.rows())?;
        }
        Ok(self.run(view, plan, questions, scratch, trace, budgets))
    }

    /// The validated pass: stage one [`BatchLanes`] per worker, walk the
    /// plan (workers beyond the first on scoped threads), finish every
    /// question in order.
    fn run(
        &self,
        plane: MemView<'_>,
        plan: &SegmentPlan<'_>,
        questions: &[Vec<f32>],
        scratch: &mut Scratch,
        trace: &mut Trace,
        budgets: &[Budget],
    ) -> Vec<Result<ColumnOutput, EngineError>> {
        let nq = questions.len();
        if nq == 0 {
            return Vec::new();
        }
        let rows = plan.rows();
        let logit_rows = self.config.chunk_size.min(rows.max(1));
        let workers = if crate::exec::clears_parallel_floor(&self.config, rows) {
            self.config.threads.min(nq)
        } else {
            1
        };
        let per = nq.div_ceil(workers);
        // The arena leaves the scratch for the pass so the finish loop can
        // draw output buffers from it.
        let mut arena = std::mem::take(&mut scratch.batch);
        if arena.len() < workers {
            arena.resize_with(workers, BatchLanes::default);
        }
        let lanes = &mut arena[..workers];
        let quant = matches!(plane, MemView::Int8 { .. });
        for (lane, qs) in lanes.iter_mut().zip(questions.chunks(per)) {
            lane.stage(self.config.softmax, qs, quant, logit_rows);
        }

        let (first, rest) = lanes.split_first_mut().expect("workers >= 1");
        let own_budgets = &budgets[..per.min(nq)];
        if rest.is_empty() {
            // No scope for a lone worker: a warm pass stays allocation-free.
            self.walk(plane, plan, first, own_budgets, trace);
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = rest
                    .iter_mut()
                    .zip(budgets.chunks(per).skip(1))
                    .map(|(lane, budgets)| {
                        let mut local = if trace.is_enabled() {
                            Trace::enabled()
                        } else {
                            Trace::disabled()
                        };
                        scope.spawn(move || {
                            self.walk(plane, plan, lane, budgets, &mut local);
                            local
                        })
                    })
                    .collect();
                self.walk(plane, plan, first, own_budgets, trace);
                for handle in handles {
                    match handle.join() {
                        Ok(local) => trace.absorb(&local),
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
            });
        }

        // Finish: per-question numeric guards + lazy division. Dead
        // questions carry their budget's typed error.
        let t0 = trace.begin();
        let ed = questions[0].len();
        let mut results = Vec::with_capacity(nq);
        let mut divisions = 0u64;
        for (lane, budgets) in lanes.iter().zip(budgets.chunks(per)) {
            for (q, budget) in budgets.iter().enumerate() {
                if !lane.live[q] {
                    // A deadline cannot un-expire and a token cannot
                    // un-cancel, so re-checking reproduces the error that
                    // killed the slot.
                    results.push(Err(budget.check().err().unwrap_or(EngineError::Cancelled)));
                    continue;
                }
                let denominator = lane.acc.denom(q);
                if let Err(e) = check_denom(denominator, "batch merge") {
                    results.push(Err(e));
                    continue;
                }
                let mut o = scratch.take_out(ed);
                lane.acc.finish_into(q, &mut o);
                if let Err(e) = check_output(&o) {
                    scratch.recycle(o);
                    results.push(Err(e));
                    continue;
                }
                let mut stats = lane.stats[q];
                stats.divisions = ed as u64;
                stats.flops += ed as u64;
                if !quant {
                    // The int8 chunk kernel charges its inner products per
                    // chunk; the f32 tile's are charged here, as one GEMV.
                    stats.flops += kernels::gemv_flops(stats.rows_total as usize, ed);
                }
                stats.intermediate_bytes = (logit_rows * 4 + ed * 4) as u64;
                divisions += ed as u64;
                results.push(Ok(ColumnOutput {
                    o,
                    denominator,
                    stats,
                }));
            }
        }
        trace.record(Phase::Divide, t0, divisions);
        scratch.batch = arena;
        results
    }

    /// One worker's pass: resolves its questions' skip thresholds, then
    /// walks every segment and chunk of the plan for them.
    fn walk(
        &self,
        plane: MemView<'_>,
        plan: &SegmentPlan<'_>,
        lanes: &mut BatchLanes,
        budgets: &[Budget],
        trace: &mut Trace,
    ) {
        let (nq, ed) = (lanes.nq(), lanes.ed);
        let chunk = self.config.chunk_size;
        let engine = ColumnEngine::new(self.config);

        // The Probability pre-pass streams the plan prefix once for the
        // worker's questions; timed under Skip like the single path.
        let t0 = trace.begin();
        self.resolve_thresholds(plane, plan.rows(), lanes, budgets);
        trace.record(Phase::Skip, t0, 0);

        for seg in plan.segments() {
            // Per-question prune decision for this segment. A freshly reset
            // accumulator's running max is -inf, so the first segment can
            // never prune.
            let mut any_visit = false;
            for q in 0..nq {
                let mut visit = lanes.live[q];
                if visit {
                    lanes.stats[q].segments_total += 1;
                    let dominated = plan.prune()
                        && lanes.acc.running_max(q).is_some_and(|running_max| {
                            let ub = seg.logit_upper_bound(lanes.query_norms[q]);
                            segment::can_prune(running_max, ub)
                        });
                    if dominated {
                        lanes.stats[q].segments_pruned += 1;
                        lanes.stats[q].rows_pruned += seg.rows as u64;
                        visit = false;
                    }
                }
                lanes.visit[q] = visit;
                any_visit |= visit;
            }
            let seg_end = seg.start + seg.rows;
            let mut row = seg.start;
            while any_visit && row < seg_end {
                let mut n_live = 0u64;
                for (q, budget) in budgets.iter().enumerate() {
                    if lanes.live[q] && budget.check().is_err() {
                        lanes.live[q] = false;
                    }
                    lanes.visit[q] &= lanes.live[q];
                    n_live += u64::from(lanes.visit[q]);
                }
                if n_live == 0 {
                    break;
                }
                let n = chunk.min(seg_end - row);
                match plane {
                    MemView::F32 { m_in, m_out } => {
                        let t0 = trace.begin();
                        lanes.fold_chunk(
                            m_in.rows_slice(row, n),
                            m_out.rows_slice(row, n),
                            n,
                            self.config.fused,
                        );
                        trace.record(Phase::BatchGemm, t0, n as u64 * n_live);
                        let mut chunk_skipped = 0u64;
                        for q in (0..nq).filter(|&q| lanes.visit[q]) {
                            let d = lanes.skipped[q];
                            chunk_skipped += d;
                            let kept = n as u64 - d;
                            let s = &mut lanes.stats[q];
                            s.chunks += 1;
                            s.rows_total += n as u64;
                            s.rows_skipped += d;
                            s.flops += n as u64 + kept * 2 * ed as u64;
                            s.ws_flops += kept * 2 * ed as u64;
                            s.flops_skipped += d * 2 * ed as u64;
                        }
                        trace.bump(Phase::Skip, chunk_skipped);
                    }
                    MemView::Int8 { m_in, m_out } => {
                        lanes.fold_chunk_quant(&engine, m_in, m_out, row, n, trace)
                    }
                }
                row += n;
            }
            trace.bump(Phase::SegmentMerge, 1);
        }
    }

    /// Resolves [`SkipPolicy`] into per-question raw thresholds in
    /// `lanes.thresholds`. The Probability pre-pass streams the prefix once
    /// for all of the worker's questions and accumulates each question's
    /// denominators exactly as the single-question engine does (same
    /// logits, same f32 max/subtract, same f64 sums), so resolved
    /// thresholds match it bitwise. Questions whose budget fails during the
    /// pre-pass go dead in `lanes.live` and keep a `None` threshold; their
    /// error is reconstructed at finish time.
    fn resolve_thresholds(
        &self,
        plane: MemView<'_>,
        rows: usize,
        lanes: &mut BatchLanes,
        budgets: &[Budget],
    ) {
        let (nq, ed) = (lanes.nq(), lanes.ed);
        lanes.thresholds.clear();
        let th = match self.config.skip {
            SkipPolicy::None => return lanes.thresholds.resize(nq, None),
            SkipPolicy::RawWeight(th) => return lanes.thresholds.resize(nq, Some(th)),
            SkipPolicy::Probability(th) => th,
        };
        lanes.thresholds.resize(nq, None);
        let chunk = self.config.chunk_size;
        let BatchLanes {
            us,
            uq,
            uscales,
            logits,
            thresholds,
            live,
            stats,
            prepass,
            ..
        } = lanes;
        prepass.clear();
        prepass.resize(3 * nq, 0.0);
        let (max_logit, rest) = prepass.split_at_mut(nq);
        let (denom_rel, raw_denom) = rest.split_at_mut(nq);
        max_logit.fill(f64::NEG_INFINITY);

        let mut row = 0usize;
        while row < rows {
            let mut any_live = false;
            for (alive, budget) in live.iter_mut().zip(budgets) {
                *alive = *alive && budget.check().is_ok();
                any_live |= *alive;
            }
            if !any_live {
                break;
            }
            let n = chunk.min(rows - row);
            let logits = &mut logits[..nq * n];
            match plane {
                MemView::F32 { m_in, .. } => {
                    kernels::gemm_chunk(m_in.rows_slice(row, n), n, us, nq, logits)
                }
                MemView::Int8 { m_in, .. } => {
                    for q in (0..nq).filter(|&q| live[q]) {
                        kernels::gemv_chunk_i8(
                            m_in.rows_slice(row, n),
                            m_in.scales_slice(row, n),
                            n,
                            &uq[q * ed..(q + 1) * ed],
                            uscales[q],
                            &mut logits[q * n..(q + 1) * n],
                        );
                        stats[q].memory_bytes += (n * (ed + 4)) as u64;
                    }
                }
            }
            for q in (0..nq).filter(|&q| live[q]) {
                // The `max_logit` slots hold f32 values.
                for &x in &logits[q * n..(q + 1) * n] {
                    if x > max_logit[q] as f32 {
                        denom_rel[q] *= ((max_logit[q] as f32 - x) as f64).exp();
                        max_logit[q] = x as f64;
                    }
                    denom_rel[q] += ((x - max_logit[q] as f32) as f64).exp();
                    raw_denom[q] += (x as f64).exp();
                }
                // This question's share of the pre-pass: its inner
                // products plus the exp sweep.
                stats[q].flops += kernels::gemv_flops(n, ed) + n as u64;
            }
            row += n;
        }
        for q in (0..nq).filter(|&q| live[q]) {
            thresholds[q] = Some(match self.config.softmax {
                SoftmaxMode::Lazy => (th as f64 * raw_denom[q]) as f32,
                SoftmaxMode::Online => (th as f64 * denom_rel[q]) as f32,
            });
        }
    }
}

/// Rejects a budget slice that does not pair up with the questions, and
/// ragged question batches.
pub(crate) fn check_batch(questions: &[Vec<f32>], budgets: &[Budget]) -> Result<(), EngineError> {
    if budgets.len() != questions.len() {
        return Err(EngineError::Config(format!(
            "budget count {} != question count {}",
            budgets.len(),
            questions.len()
        )));
    }
    let ed = questions.first().map_or(0, Vec::len);
    match questions.iter().find(|q| q.len() != ed) {
        Some(q) => Err(EngineError::Config(format!(
            "ragged question batch: {} vs {}",
            q.len(),
            ed
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_tensor::assert_slice_approx_eq;

    fn setup(ns: usize, ed: usize, nq: usize) -> (Matrix, Matrix, Vec<Vec<f32>>) {
        let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 7 + c) as f32 * 0.13).sin() * 0.6);
        let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 5 * c) as f32 * 0.09).cos() * 0.6);
        let questions = (0..nq)
            .map(|q| {
                (0..ed)
                    .map(|k| ((q * ed + k) as f32 * 0.21).sin())
                    .collect()
            })
            .collect();
        (m_in, m_out, questions)
    }

    #[test]
    fn batched_matches_per_question_engine() {
        let (m_in, m_out, questions) = setup(83, 8, 5);
        for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
            let config = MnnFastConfig::new(16).with_softmax(mode);
            let batched = BatchEngine::new(config)
                .forward(&m_in, &m_out, &questions)
                .unwrap();
            let single = ColumnEngine::new(config);
            for (q, out) in batched.outputs.iter().enumerate() {
                let expect = single.forward(&m_in, &m_out, &questions[q]).unwrap();
                assert_slice_approx_eq(&out.o, &expect.o, 1e-4);
                assert_eq!(out.stats.rows_total, expect.stats.rows_total, "q{q}");
            }
        }
    }

    #[test]
    fn batched_skipping_matches_per_question_counts() {
        let (m_in, m_out, questions) = setup(60, 6, 4);
        let config = MnnFastConfig::new(10).with_skip(SkipPolicy::Probability(0.01));
        let batched = BatchEngine::new(config)
            .forward(&m_in, &m_out, &questions)
            .unwrap();
        let single = ColumnEngine::new(config);
        for (q, out) in batched.outputs.iter().enumerate() {
            let expect = single.forward(&m_in, &m_out, &questions[q]).unwrap();
            assert_eq!(out.stats.rows_skipped, expect.stats.rows_skipped, "q{q}");
            assert_slice_approx_eq(&out.o, &expect.o, 1e-4);
        }
    }

    #[test]
    fn batch_memory_traffic_is_per_batch_not_per_question() {
        let (m_in, m_out, questions) = setup(100, 8, 6);
        let config = MnnFastConfig::new(20);
        let batched = BatchEngine::new(config)
            .forward(&m_in, &m_out, &questions)
            .unwrap();
        // Memories counted once: 2 * ns * ed * 4 bytes, independent of nq.
        assert_eq!(batched.stats.memory_bytes, 2 * 100 * 8 * 4);
        // A per-question engine would count 6x (plus skip effects).
        let single = ColumnEngine::new(config)
            .forward(&m_in, &m_out, &questions[0])
            .unwrap();
        assert!(single.stats.memory_bytes * 5 < batched.stats.memory_bytes * 6);
    }

    #[test]
    fn parallel_batched_matches_sequential() {
        let (m_in, m_out, questions) = setup(120, 8, 4);
        for skip in [SkipPolicy::None, SkipPolicy::Probability(0.01)] {
            let seq = BatchEngine::new(MnnFastConfig::new(16).with_skip(skip))
                .forward(&m_in, &m_out, &questions)
                .unwrap();
            for threads in [2usize, 3, 8] {
                let par =
                    BatchEngine::new(MnnFastConfig::new(16).with_skip(skip).with_threads(threads))
                        .forward(&m_in, &m_out, &questions)
                        .unwrap();
                for (a, b) in par.outputs.iter().zip(&seq.outputs) {
                    assert_slice_approx_eq(&a.o, &b.o, 1e-4);
                    assert_eq!(a.stats.rows_skipped, b.stats.rows_skipped);
                }
                assert_eq!(par.stats.rows_total, seq.stats.rows_total);
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (m_in, m_out, _) = setup(10, 4, 1);
        let out = BatchEngine::new(MnnFastConfig::new(4))
            .forward(&m_in, &m_out, &[])
            .unwrap();
        assert!(out.outputs.is_empty());
    }

    #[test]
    fn ragged_batch_is_rejected() {
        let (m_in, m_out, mut questions) = setup(10, 4, 2);
        questions[1] = vec![0.0; 3];
        let err = BatchEngine::new(MnnFastConfig::new(4)).forward(&m_in, &m_out, &questions);
        assert!(matches!(err, Err(EngineError::Config(_))));
    }

    #[test]
    fn budgeted_batch_matches_forward() {
        let (m_in, m_out, questions) = setup(83, 8, 5);
        for mode in [SoftmaxMode::Lazy, SoftmaxMode::Online] {
            let config = MnnFastConfig::new(16).with_softmax(mode);
            let engine = BatchEngine::new(config);
            let plain = engine.forward(&m_in, &m_out, &questions).unwrap();
            let mut scratch = Scratch::new();
            let mut trace = Trace::enabled();
            let budgets = vec![Budget::unlimited(); questions.len()];
            let results = engine
                .forward_batch(
                    MemView::from((&m_in, &m_out)),
                    &SegmentPlan::unsegmented(m_in.rows()),
                    &questions,
                    &mut scratch,
                    &mut trace,
                    &budgets,
                )
                .unwrap();
            assert_eq!(results.len(), questions.len());
            for (r, expect) in results.iter().zip(&plain.outputs) {
                let out = r.as_ref().unwrap();
                assert_slice_approx_eq(&out.o, &expect.o, 1e-5);
                assert_eq!(out.stats.rows_total, expect.stats.rows_total);
                assert_eq!(out.stats.rows_skipped, expect.stats.rows_skipped);
            }
            assert!(trace.nanos(Phase::BatchGemm) > 0);
            assert_eq!(
                trace.count(Phase::BatchGemm),
                (m_in.rows() * questions.len()) as u64
            );
        }
    }

    #[test]
    fn budgeted_batch_isolates_cancellation() {
        use crate::budget::CancelToken;
        let (m_in, m_out, questions) = setup(64, 8, 3);
        let engine = BatchEngine::new(MnnFastConfig::new(8));
        let token = CancelToken::new();
        token.cancel();
        let budgets = vec![
            Budget::unlimited(),
            Budget::unlimited().with_cancel(token),
            Budget::unlimited(),
        ];
        let mut scratch = Scratch::new();
        let mut trace = Trace::disabled();
        let results = engine
            .forward_batch(
                MemView::from((&m_in, &m_out)),
                &SegmentPlan::unsegmented(m_in.rows()),
                &questions,
                &mut scratch,
                &mut trace,
                &budgets,
            )
            .unwrap();
        assert!(matches!(results[1], Err(EngineError::Cancelled)));
        let expect = engine.forward(&m_in, &m_out, &questions).unwrap();
        for q in [0usize, 2] {
            let out = results[q].as_ref().unwrap();
            assert_slice_approx_eq(&out.o, &expect.outputs[q].o, 1e-5);
        }
    }

    #[test]
    fn budgeted_batch_rejects_mismatched_budgets() {
        let (m_in, m_out, questions) = setup(10, 4, 2);
        let engine = BatchEngine::new(MnnFastConfig::new(4));
        let err = engine.forward_batch(
            MemView::from((&m_in, &m_out)),
            &SegmentPlan::unsegmented(m_in.rows()),
            &questions,
            &mut Scratch::new(),
            &mut Trace::disabled(),
            &[Budget::unlimited()],
        );
        assert!(matches!(err, Err(EngineError::Config(_))));
    }
}
