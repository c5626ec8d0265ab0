//! The per-worker arena of the one pass: many questions per chunk.
//!
//! The column-based algorithm makes a chunk of `M_IN`/`M_OUT` the unit of
//! work: load it once, apply it to the question(s) while it is resident.
//! A `Lane` holds everything one worker needs to do that for a set of
//! questions — their flattened block (quantized once on the int8 plane),
//! skip thresholds, running accumulators, chunk partials, counters and
//! per-question errors — so the same code answers one question or a batch
//! (the paper's GPU formulation, Section 4.1.2: "Inner product is matrix
//! multiplication between M_IN and U"). [`crate::parallel`] decides how
//! many lanes a pass uses and what each one walks.
//!
//! # Batched == sequential, by construction
//!
//! * **One reduction order.** Every f32 logit, denominator and
//!   weighted-sum element has one canonical order per backend (see
//!   [`mnn_tensor::simd`]); the register tiles share loads between
//!   questions, never arithmetic. So a lane of several f32 questions runs
//!   the tiled kernel ([`LazyAccumulator::accumulate_chunk_batch`] /
//!   [`OnlineSoftmax::accumulate_chunk_batch`], traced as
//!   [`Phase::BatchGemm`]) and a lane of one runs the single-question
//!   kernel — the tile's `nq = 1` case, bit for bit — and the int8 plane
//!   runs the single-question int8 kernel per question (an int8 tile is
//!   future work).
//! * **One chunk-partial discipline.** Per chunk, each visiting question's
//!   partial is reset, filled, and merged into its running total in global
//!   chunk order, with the denominator guard after every merge.
//! * **One threshold resolver.** [`SkipPolicy::Probability`] streams the
//!   plan prefix once for all of a lane's questions through
//!   [`kernels::gemm_chunk`], whose row `q` is bitwise
//!   [`kernels::gemv_chunk`] over question `q`.
//!
//! A question's arithmetic never depends on its batchmates, and its
//! [`Budget`] and numeric faults are its own: a failure parks the
//! question's typed error in its slot and the question stops, while the
//! rest of the lane carries on.

use crate::budget::Budget;
use crate::config::{MnnFastConfig, SkipPolicy, SoftmaxMode};
use crate::engine::{
    charge_chunk, check_denom, check_output, AccumMut, ChunkOps, ColumnEngine, ColumnOutput,
    EngineError, Query,
};
use crate::exec::{MemView, Phase, Scratch, Trace};
use crate::segment::{self, Segment, SegmentPlan};
use crate::stats::InferenceStats;
use mnn_tensor::softmax::{LazyAccumulator, OnlineSoftmax};
use mnn_tensor::{kernels, PartialState};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// A vector of accumulators in both softmax formulations (a pass uses the
/// one its mode names; keeping both lets a scratch alternate modes without
/// reallocating).
#[derive(Debug, Clone, Default)]
struct Accs {
    mode: SoftmaxMode,
    lazy: Vec<LazyAccumulator>,
    online: Vec<OnlineSoftmax>,
}

impl Accs {
    /// Readies `n` reset accumulators of width `ed` for `mode`.
    fn ready(&mut self, mode: SoftmaxMode, n: usize, ed: usize) {
        fn ready<A: Default>(accs: &mut Vec<A>, n: usize, reset: impl Fn(&mut A)) {
            if accs.len() < n {
                accs.resize_with(n, A::default);
            }
            accs[..n].iter_mut().for_each(reset);
        }
        self.mode = mode;
        match mode {
            SoftmaxMode::Lazy => ready(&mut self.lazy, n, |a| a.reset(ed)),
            SoftmaxMode::Online => ready(&mut self.online, n, |a| a.reset(ed)),
        }
    }

    /// Grows to at least `n` accumulators without touching existing ones.
    fn reserve(&mut self, mode: SoftmaxMode, n: usize) {
        self.mode = mode;
        match mode {
            SoftmaxMode::Lazy if self.lazy.len() < n => {
                self.lazy.resize_with(n, LazyAccumulator::default)
            }
            SoftmaxMode::Online if self.online.len() < n => {
                self.online.resize_with(n, OnlineSoftmax::default)
            }
            _ => {}
        }
    }

    fn get(&mut self, i: usize) -> AccumMut<'_> {
        match self.mode {
            SoftmaxMode::Lazy => AccumMut::Lazy(&mut self.lazy[i]),
            SoftmaxMode::Online => AccumMut::Online(&mut self.online[i]),
        }
    }

    fn merge_into(&self, i: usize, run: &mut Accs, q: usize) {
        match self.mode {
            SoftmaxMode::Lazy => run.lazy[q].merge(&self.lazy[i]),
            SoftmaxMode::Online => run.online[q].merge(&self.online[i]),
        }
    }

    /// The running softmax max zone-map pruning compares segment bounds
    /// against; `None` in lazy mode, which has none until the division
    /// and therefore never prunes.
    fn running_max(&self, i: usize) -> Option<f32> {
        match self.mode {
            SoftmaxMode::Lazy => None,
            SoftmaxMode::Online => Some(self.online[i].max_logit()),
        }
    }

    fn denom(&self, i: usize) -> f32 {
        match self.mode {
            SoftmaxMode::Lazy => self.lazy[i].denom(),
            SoftmaxMode::Online => self.online[i].denom(),
        }
    }

    fn finish_into(&self, i: usize, out: &mut Vec<f32>) {
        match self.mode {
            SoftmaxMode::Lazy => self.lazy[i].finish_into(out),
            SoftmaxMode::Online => self.online[i].finish_into(out),
        }
    }

    fn state(&self, i: usize) -> PartialState {
        match self.mode {
            SoftmaxMode::Lazy => PartialState::Lazy(self.lazy[i].clone()),
            SoftmaxMode::Online => PartialState::Online(self.online[i].clone()),
        }
    }
}

/// The staged questions of a lane, read-only while chunks are walked (a
/// chunk split's shares all read the caller's block).
#[derive(Debug, Clone, Default)]
pub(crate) struct Block {
    nq: usize,
    ed: usize,
    /// Logit rows per question in the lane's workspace.
    logit_rows: usize,
    /// The flattened f32 states (`nq × ed`), and on the int8 plane their
    /// codes and per-question scales.
    us: Vec<f32>,
    uq: Vec<i8>,
    uscales: Vec<f32>,
    query_norms: Vec<f64>,
    thresholds: Vec<Option<f32>>,
}

impl Block {
    /// Flattens `questions`, quantizing them for the int8 plane (its
    /// kernels only ever see i8 operands). A non-finite question quantizes
    /// to scale +∞ over zero codes, which drives every logit non-finite and
    /// surfaces as a numeric fault at the first merge — as on f32.
    fn stage<Q: AsRef<[f32]>>(&mut self, questions: &[Q], quant: bool, logit_rows: usize) {
        let nq = questions.len();
        let ed = questions.first().map_or(0, |q| q.as_ref().len());
        (self.nq, self.ed, self.logit_rows) = (nq, ed, logit_rows);
        self.us.clear();
        for q in questions {
            self.us.extend_from_slice(q.as_ref());
        }
        self.query_norms.clear();
        if quant {
            self.uq.clear();
            self.uq.resize(nq * ed, 0);
            self.uscales.clear();
            for (q, codes) in questions.iter().zip(self.uq.chunks_exact_mut(ed.max(1))) {
                let scale = mnn_tensor::quant::quantize_row(q.as_ref(), codes);
                self.uscales.push(scale);
                // Zone maps are built from exactly-dequantized row norms,
                // so Cauchy–Schwarz must use the quantized query's norm:
                // that is the vector the int8 kernels actually dot.
                self.query_norms
                    .push(segment::query_norm_upper_i8(codes, scale));
            }
        } else {
            self.uq.clear();
            self.uscales.clear();
            self.query_norms.extend(
                questions
                    .iter()
                    .map(|q| segment::query_norm_upper(q.as_ref())),
            );
        }
    }

    /// Question `q` as the chunk kernels read it.
    fn query(&self, q: usize) -> Query<'_> {
        let ed = self.ed;
        let span = q * ed..(q + 1) * ed;
        Query {
            u: &self.us[span.clone()],
            uq: self.uq.get(span).unwrap_or(&[]),
            scale: self.uscales.get(q).copied().unwrap_or(0.0),
        }
    }
}

/// What a worker writes while it walks chunks: the chunk partials (`nq`
/// per chunk slot), the logits workspace and the per-question counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct Work {
    parts: Accs,
    /// Chunk slots the last chunk-split share filled.
    used: usize,
    logits: Vec<f32>,
    /// Live and not pruned out of the current segment.
    pub(crate) visit: Vec<bool>,
    /// Rows each question zero-skipped in the current tiled chunk.
    skipped: Vec<u64>,
    stats: Vec<InferenceStats>,
}

impl Work {
    fn ready(&mut self, mode: SoftmaxMode, block: &Block) {
        let nq = block.nq;
        self.parts.ready(mode, nq, block.ed);
        self.used = 0;
        if self.logits.len() < nq * block.logit_rows {
            self.logits.resize(nq * block.logit_rows, 0.0);
        }
        self.visit.clear();
        self.visit.resize(nq, true);
        self.skipped.clear();
        self.skipped.resize(nq, 0);
        self.stats.clear();
        self.stats.resize(nq, InferenceStats::default());
    }

    /// One chunk for every visiting question of `block`, into chunk slot
    /// `slot` of the partials: reset, fill, count. A lane of several f32
    /// questions makes one tiled kernel call; otherwise each question runs
    /// the single-question chunk kernel, which counts and traces itself.
    fn step(
        &mut self,
        engine: &ColumnEngine,
        block: &Block,
        ops: ChunkOps<'_>,
        n: usize,
        slot: usize,
        trace: &mut Trace,
    ) {
        let (nq, ed) = (block.nq, block.ed);
        let mode = self.parts.mode;
        self.parts.reserve(mode, (slot + 1) * nq);
        let slots = slot * nq..(slot + 1) * nq;
        match ops {
            ChunkOps::F32 { m_in, m_out } if nq > 1 => {
                self.skipped.fill(0);
                let t0 = trace.begin();
                match mode {
                    SoftmaxMode::Lazy => {
                        let parts = &mut self.parts.lazy[slots];
                        parts.iter_mut().for_each(|p| p.reset(ed));
                        LazyAccumulator::accumulate_chunk_batch(
                            parts,
                            m_in,
                            m_out,
                            n,
                            &block.us,
                            &block.thresholds,
                            &self.visit,
                            &mut self.skipped,
                        );
                    }
                    SoftmaxMode::Online => {
                        let parts = &mut self.parts.online[slots];
                        parts.iter_mut().for_each(|p| p.reset(ed));
                        OnlineSoftmax::accumulate_chunk_batch(
                            parts,
                            m_in,
                            m_out,
                            n,
                            &block.us,
                            &block.thresholds,
                            &self.visit,
                            &mut self.logits,
                            &mut self.skipped,
                        );
                    }
                }
                let visiting = self.visit.iter().filter(|&&v| v).count() as u64;
                trace.record(Phase::BatchGemm, t0, n as u64 * visiting);
                let mut chunk_skipped = 0u64;
                for q in (0..nq).filter(|&q| self.visit[q]) {
                    charge_chunk(&mut self.stats[q], n, ed, self.skipped[q], ed * 4);
                    chunk_skipped += self.skipped[q];
                }
                trace.bump(Phase::Skip, chunk_skipped);
            }
            _ => {
                for q in (0..nq).filter(|&q| self.visit[q]) {
                    let mut part = self.parts.get(slots.start + q);
                    part.reset(ed);
                    engine.process_chunk(
                        ops,
                        n,
                        block.query(q),
                        block.thresholds[q],
                        &mut part,
                        &mut self.stats[q],
                        trace,
                    );
                }
            }
        }
    }

    /// Drops every visiting question whose budget has failed; `true` while
    /// any question still visits.
    fn check_budgets(
        &mut self,
        budgets: &[Budget],
        mut failed: impl FnMut(usize, EngineError),
    ) -> bool {
        let mut any = false;
        for (q, budget) in budgets.iter().enumerate() {
            if !self.visit[q] {
                continue;
            }
            match budget.check() {
                Ok(()) => any = true,
                Err(e) => {
                    self.visit[q] = false;
                    failed(q, e);
                }
            }
        }
        any
    }

    /// A chunk split's share: the chunks of `rows`, for the questions the
    /// caller's `visit` names, one partial slot per chunk and nothing
    /// folded — the caller folds every share in global chunk order. Stops
    /// early when `abort` is raised (a peer panicked); a question whose
    /// budget fails is dropped here and again by the caller, which
    /// re-checks after the join (expiry and cancellation are monotone).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn share(
        &mut self,
        engine: &ColumnEngine,
        block: &Block,
        visit: &[bool],
        view: MemView<'_>,
        rows: Range<usize>,
        budgets: &[Budget],
        abort: &AtomicBool,
        trace: &mut Trace,
    ) {
        self.ready(engine.config().softmax, block);
        self.visit.copy_from_slice(visit);
        let chunk = engine.config().chunk_size;
        let mut row = rows.start;
        while row < rows.end
            && !abort.load(Ordering::Relaxed)
            && self.check_budgets(budgets, |_, _| {})
        {
            let n = chunk.min(rows.end - row);
            self.step(engine, block, view.chunk(row, n), n, self.used, trace);
            self.used += 1;
            row += n;
        }
    }
}

/// One worker's arena: the questions it answers and everything their pass
/// needs. Lives in a [`Scratch`] and is reused across passes, so a warm
/// pass allocates nothing here.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lane {
    pub(crate) block: Block,
    run: Accs,
    pub(crate) work: Work,
    /// A question's error ends its pass; `None` while it is live.
    errors: Vec<Option<EngineError>>,
    prepass: Vec<f64>,
    /// Whether the lane's last contained run panicked.
    pub(crate) panicked: bool,
    /// What the lane's last split run recorded, for the caller to absorb.
    pub(crate) trace: Trace,
}

impl Lane {
    /// Number of questions staged.
    pub(crate) fn nq(&self) -> usize {
        self.block.nq
    }

    /// Stages `questions` for a pass: flattens (and on the int8 plane
    /// quantizes) them, resets the accumulators, counters and errors, and
    /// grows the logits workspace to `logit_rows` rows per question.
    pub(crate) fn stage<Q: AsRef<[f32]>>(
        &mut self,
        mode: SoftmaxMode,
        questions: &[Q],
        quant: bool,
        logit_rows: usize,
    ) {
        self.block.stage(questions, quant, logit_rows);
        let (nq, ed) = (self.block.nq, self.block.ed);
        self.run.ready(mode, nq, ed);
        self.work.ready(mode, &self.block);
        self.errors.clear();
        self.errors.resize(nq, None);
        self.panicked = false;
    }

    /// Fails every still-live question with `e`.
    pub(crate) fn fail_live(&mut self, e: EngineError) {
        for slot in self.errors.iter_mut().filter(|s| s.is_none()) {
            *slot = Some(e.clone());
        }
    }

    /// Resolves [`SkipPolicy`] into each question's raw-weight threshold:
    /// the one resolver every pass runs. The Probability pre-pass streams
    /// rows `0..rows` once for all live questions — pruned segments
    /// included, so thresholds do not depend on the segmentation — and
    /// accumulates each question's denominators in f64 (the max in f32),
    /// charging each question its own inner products, exponentials and
    /// `M_IN` bytes. A question whose budget fails during it is failed.
    pub(crate) fn resolve_thresholds(
        &mut self,
        config: &MnnFastConfig,
        view: MemView<'_>,
        rows: usize,
        budgets: &[Budget],
    ) {
        let (nq, ed) = (self.block.nq, self.block.ed);
        let thresholds = &mut self.block.thresholds;
        thresholds.clear();
        let th = match config.skip {
            SkipPolicy::None => return thresholds.resize(nq, None),
            SkipPolicy::RawWeight(th) => return thresholds.resize(nq, Some(th)),
            SkipPolicy::Probability(th) => th,
        };
        thresholds.resize(nq, None);
        let Lane {
            block,
            work,
            errors,
            prepass,
            ..
        } = self;
        prepass.clear();
        prepass.resize(3 * nq, 0.0);
        let (max_logit, rest) = prepass.split_at_mut(nq);
        let (denom_rel, raw_denom) = rest.split_at_mut(nq);
        max_logit.fill(f64::NEG_INFINITY);
        let chunk = config.chunk_size;
        let mut row = 0usize;
        while row < rows {
            let mut any_live = false;
            for (slot, budget) in errors.iter_mut().zip(budgets) {
                if slot.is_none() {
                    match budget.check() {
                        Ok(()) => any_live = true,
                        Err(e) => *slot = Some(e),
                    }
                }
            }
            if !any_live {
                break;
            }
            let n = chunk.min(rows - row);
            let logits = &mut work.logits[..nq * n];
            match view.chunk(row, n) {
                ChunkOps::F32 { m_in, .. } => kernels::gemm_chunk(m_in, n, &block.us, nq, logits),
                ChunkOps::Int8 {
                    m_in, in_scales, ..
                } => {
                    for q in (0..nq).filter(|&q| errors[q].is_none()) {
                        let query = block.query(q);
                        let out = &mut logits[q * n..(q + 1) * n];
                        kernels::gemv_chunk_i8(m_in, in_scales, n, query.uq, query.scale, out);
                    }
                }
            }
            for q in (0..nq).filter(|&q| errors[q].is_none()) {
                // The `max_logit` slots hold f32 values.
                for &x in &logits[q * n..(q + 1) * n] {
                    if x > max_logit[q] as f32 {
                        denom_rel[q] *= ((max_logit[q] as f32 - x) as f64).exp();
                        max_logit[q] = x as f64;
                    }
                    denom_rel[q] += ((x - max_logit[q] as f32) as f64).exp();
                    raw_denom[q] += (x as f64).exp();
                }
                let s = &mut work.stats[q];
                s.flops += kernels::gemv_flops(n, ed) + n as u64;
                s.memory_bytes += (n * view.row_bytes()) as u64;
            }
            row += n;
        }
        for q in (0..nq).filter(|&q| errors[q].is_none()) {
            block.thresholds[q] = Some(match config.softmax {
                // p_i = e^{x_i} / Σe^{x_j}  <  th  ⟺  e^{x_i} < th·Σ.
                SoftmaxMode::Lazy => (th as f64 * raw_denom[q]) as f32,
                // Relative weight e^{x_i - max} < th · Σe^{x_j - max}.
                SoftmaxMode::Online => (th as f64 * denom_rel[q]) as f32,
            });
        }
    }

    /// Enters `seg`: checks each live question's budget and decides, per
    /// question, whether it visits the segment or prunes it (Online mode,
    /// its running max provably dominating the segment's zone-map logit
    /// bound — the rows would add exactly-zero terms). `true` when any
    /// question visits.
    pub(crate) fn enter(
        &mut self,
        seg: Segment,
        plan: &SegmentPlan<'_>,
        budgets: &[Budget],
    ) -> bool {
        let mut any = false;
        for (q, budget) in budgets.iter().enumerate() {
            self.work.visit[q] = false;
            if self.errors[q].is_some() {
                continue;
            }
            if let Err(e) = budget.check() {
                self.errors[q] = Some(e);
                continue;
            }
            let s = &mut self.work.stats[q];
            s.segments_total += 1;
            // A freshly reset accumulator's running max is -inf, so the
            // first segment never prunes.
            let dominated = plan.prune()
                && self.run.running_max(q).is_some_and(|running_max| {
                    let bound = seg.logit_upper_bound(self.block.query_norms[q]);
                    segment::can_prune(running_max, bound)
                });
            if dominated {
                s.segments_pruned += 1;
                s.rows_pruned += seg.rows as u64;
                continue;
            }
            self.work.visit[q] = true;
            any = true;
        }
        any
    }

    /// The inline walk of `rows` (within a visited segment): per chunk,
    /// budget checks, one step into slot 0, then the fold of each visiting
    /// question's partial into its running total.
    fn walk_chunks(
        &mut self,
        engine: &ColumnEngine,
        view: MemView<'_>,
        rows: Range<usize>,
        budgets: &[Budget],
        trace: &mut Trace,
    ) {
        let chunk = engine.config().chunk_size;
        let mut row = rows.start;
        while row < rows.end {
            let errors = &mut self.errors;
            if !self.work.check_budgets(budgets, |q, e| errors[q] = Some(e)) {
                break;
            }
            let n = chunk.min(rows.end - row);
            self.work
                .step(engine, &self.block, view.chunk(row, n), n, 0, trace);
            let t0 = trace.begin();
            let mut merged = 0;
            for (q, visit) in self.work.visit.iter_mut().enumerate() {
                if *visit {
                    absorb(&mut self.run, &mut self.errors[q], q, &self.work.parts, q);
                    *visit = self.errors[q].is_none();
                    merged += 1;
                }
            }
            trace.record(Phase::Merge, t0, merged);
            row += n;
        }
    }

    /// A lane's whole pass over `plan` on the calling thread: the threshold
    /// pre-pass, then each segment's chunks folded in order.
    pub(crate) fn walk(
        &mut self,
        engine: &ColumnEngine,
        view: MemView<'_>,
        plan: &SegmentPlan<'_>,
        budgets: &[Budget],
        trace: &mut Trace,
    ) {
        let t0 = trace.begin();
        self.resolve_thresholds(&engine.config(), view, plan.rows(), budgets);
        trace.record(Phase::Skip, t0, 0);
        for seg in plan.segments() {
            if self.enter(seg, plan, budgets) {
                self.walk_chunks(
                    engine,
                    view,
                    seg.start..seg.start + seg.rows,
                    budgets,
                    trace,
                );
                trace.bump(Phase::SegmentMerge, 1);
            }
        }
    }

    /// Folds a chunk split's shares into the running totals, in global
    /// chunk order: shares own contiguous ascending chunk ranges, so
    /// visiting shares in order and their slots in order is exactly the
    /// inline fold. A question whose budget failed in any share fails here
    /// too. Concurrent partials are all live at once, so the per-question
    /// intermediate footprint sums across shares.
    pub(crate) fn fold_shares(&mut self, shares: &[Lane], budgets: &[Budget], trace: &mut Trace) {
        let nq = self.block.nq;
        let t0 = trace.begin();
        let mut merged = 0;
        for (q, budget) in budgets.iter().enumerate() {
            if !self.work.visit[q] || self.errors[q].is_some() {
                continue;
            }
            if let Err(e) = budget.check() {
                self.errors[q] = Some(e);
                continue;
            }
            for work in shares.iter().map(|l| &l.work) {
                for slot in 0..work.used {
                    if self.errors[q].is_none() {
                        absorb(
                            &mut self.run,
                            &mut self.errors[q],
                            q,
                            &work.parts,
                            slot * nq + q,
                        );
                        merged += 1;
                    }
                }
            }
        }
        trace.record(Phase::Merge, t0, merged);
        for q in 0..nq {
            let mut footprint = 0u64;
            for work in shares.iter().map(|l| &l.work) {
                let mut local = work.stats[q];
                footprint += local.intermediate_bytes;
                local.intermediate_bytes = 0;
                self.work.stats[q].merge(&local);
            }
            let s = &mut self.work.stats[q];
            s.intermediate_bytes = s.intermediate_bytes.max(footprint);
        }
    }

    /// Question `q`'s slot: its error, or the single lazy division (`ed`
    /// more for `divided`) and the output guard, the response buffer drawn
    /// from `scratch`'s pool.
    pub(crate) fn finish(
        &mut self,
        q: usize,
        scratch: &mut Scratch,
        divided: &mut u64,
    ) -> Result<ColumnOutput, EngineError> {
        if let Some(e) = self.errors[q].take() {
            return Err(e);
        }
        let ed = self.block.ed;
        let mut o = scratch.take_out(ed);
        self.run.finish_into(q, &mut o);
        *divided += ed as u64;
        if let Err(e) = check_output(&o) {
            scratch.recycle(o);
            return Err(e);
        }
        let mut stats = self.work.stats[q];
        // The lazy division: ed operations, NOT ns (Section 3.1's
        // division-count reduction).
        stats.divisions += ed as u64;
        stats.flops += ed as u64;
        Ok(ColumnOutput {
            o,
            denominator: self.run.denom(q),
            stats,
        })
    }

    /// The dist worker's per-chunk step: chunk `row..row + n` for the one
    /// staged question, returned as its serializable partial instead of
    /// folded.
    pub(crate) fn chunk_partial(
        &mut self,
        engine: &ColumnEngine,
        view: MemView<'_>,
        row: usize,
        n: usize,
        trace: &mut Trace,
    ) -> PartialState {
        self.work
            .step(engine, &self.block, view.chunk(row, n), n, 0, trace);
        self.work.parts.state(0)
    }

    /// The one staged question's counters so far.
    pub(crate) fn stats(&self) -> InferenceStats {
        self.work.stats[0]
    }
}

/// Merges partial `i` of `parts` into running total `q` of `run` and guards
/// its denominator; a fault parks in the question's `error`.
fn absorb(run: &mut Accs, error: &mut Option<EngineError>, q: usize, parts: &Accs, i: usize) {
    parts.merge_into(i, run, q);
    if let Err(e) = check_denom(run.denom(q), "chunk merge") {
        *error = Some(e);
    }
}
