//! The one pass: one or many questions over a questions × chunk-ranges
//! grid, inline or over worker threads.
//!
//! The column-based algorithm makes each chunk independent; the only shared
//! state is the final `O(ed)` merge (Section 3.1's scale-out argument:
//! "synchronization overhead is negligible because the size of output
//! results are proportionate to ed"). So a pass over `nq` questions and
//! `threads` threads splits one of two ways:
//!
//! * **By question range** when `nq >= threads` (one thread is the
//!   one-range case, run inline on the caller with nothing spawned): each
//!   worker walks every chunk for its own questions in its own
//!   [`crate::batch`] lane.
//! * **By chunk range** otherwise: within each visited segment every worker
//!   runs all `nq` questions over its contiguous chunks, keeping one
//!   partial per chunk, and the caller folds every partial in global
//!   chunk-index order — the same fold the inline walk performs.
//!
//! Either way each question's arithmetic is the inline walk's, so the
//! answer is bitwise identical to a plan pinned to
//! [`crate::EngineKind::Column`] at any thread count and batch size, on
//! either plane. The caller runs the first lane
//! itself and the scratch's [`mnn_tensor::Team`] runs the rest, in one
//! place (`fan_out`): its workers start when a pass first splits and then
//! persist, so the hops of a question wake them instead of spawning them.
//! A one-lane pass runs inline and touches no team. Every lane, the
//! caller's included, is contained with `catch_unwind`: a panicking chunk
//! kernel fails the questions its lane owned with
//! [`EngineError::WorkerPanicked`] instead of unwinding through the
//! serving thread, and the worker serves the next pass. Worker phase times
//! are CPU time summed across threads (they can exceed wall time).

use crate::batch::Lane;
use crate::budget::Budget;
use crate::config::MnnFastConfig;
use crate::engine::{ColumnOutput, EngineError};
use crate::exec::{MemView, Phase, Scratch, Trace};
use crate::segment::SegmentPlan;
use mnn_tensor::Team;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// Validates a pass: the configuration, the operand shapes against the
/// first question, and the rows against the view.
pub(crate) fn validate(
    config: &MnnFastConfig,
    view: MemView<'_>,
    u: &[f32],
    rows: usize,
) -> Result<(), EngineError> {
    config.validate().map_err(EngineError::Config)?;
    view.check(u)?;
    view.check_rows(rows)
}

/// Rejects a budget slice that does not pair up with the questions, and
/// ragged question batches.
pub(crate) fn check_batch<Q: AsRef<[f32]>>(
    questions: &[Q],
    budgets: &[Budget],
) -> Result<(), EngineError> {
    if budgets.len() != questions.len() {
        return Err(EngineError::Config(format!(
            "budget count {} != question count {}",
            budgets.len(),
            questions.len()
        )));
    }
    let ed = questions.first().map_or(0, |q| q.as_ref().len());
    match questions.iter().find(|q| q.as_ref().len() != ed) {
        Some(q) => Err(EngineError::Config(format!(
            "ragged question batch: {} vs {}",
            q.as_ref().len(),
            ed
        ))),
        None => Ok(()),
    }
}

/// [`pass`] over one question: its slot by value, with nothing allocated
/// once the scratch is warm.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_one(
    config: &MnnFastConfig,
    threads: usize,
    view: MemView<'_>,
    plan: &SegmentPlan<'_>,
    u: &[f32],
    scratch: &mut Scratch,
    trace: &mut Trace,
    budget: &Budget,
) -> Result<ColumnOutput, EngineError> {
    let mut slot = None;
    let questions = std::slice::from_ref(&u);
    let budgets = std::slice::from_ref(budget);
    pass(
        config,
        threads,
        view,
        plan,
        questions,
        budgets,
        scratch,
        trace,
        |r| slot = Some(r),
    )?;
    slot.expect("one question, one slot")
}

/// The one forward pass: `questions` over `plan`'s rows of `view` on up to
/// `threads` threads, `budgets[q]` governing `questions[q]`. Hands each
/// question's slot to `emit`, in question order: its answer, or the typed
/// error that ended it (deadline, cancellation, numeric fault, contained
/// panic) — batchmates are unaffected.
///
/// Per question: the skip-threshold pre-pass, then per segment {budget
/// check, zone-map prune against its own running max, its chunks folded
/// into its running total}, then the lazy division and the output guard.
///
/// # Errors
///
/// Pass-level problems only: invalid configuration, a ragged batch or a
/// budget count that does not match, bad operand shapes, or a plan
/// reaching past the view's rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pass<Q: AsRef<[f32]>>(
    config: &MnnFastConfig,
    threads: usize,
    view: MemView<'_>,
    plan: &SegmentPlan<'_>,
    questions: &[Q],
    budgets: &[Budget],
    scratch: &mut Scratch,
    trace: &mut Trace,
    mut emit: impl FnMut(Result<ColumnOutput, EngineError>),
) -> Result<(), EngineError> {
    check_batch(questions, budgets)?;
    let Some(first) = questions.first() else {
        return Ok(());
    };
    let rows = plan.rows();
    validate(config, view, first.as_ref(), rows)?;
    let (nq, chunk) = (questions.len(), config.chunk_size);
    let logit_rows = chunk.min(rows.max(1));
    let quant = matches!(view, MemView::Int8 { .. });
    // Nothing to split beyond one thread per chunk.
    let threads = threads.min(rows.div_ceil(chunk)).max(1);

    // The arena leaves the scratch for the pass so the finish loop can
    // draw output buffers from it.
    let mut lanes = std::mem::take(&mut scratch.lanes);
    let abort = &AtomicBool::new(false);
    let owners = if nq >= threads {
        // Question ranges; one thread is the one-range, inline case.
        let per = nq.div_ceil(threads);
        let owners = nq.div_ceil(per);
        if lanes.len() < owners {
            lanes.resize_with(owners, Lane::default);
        }
        for (lane, qs) in lanes.iter_mut().zip(questions.chunks(per)) {
            lane.stage(config.softmax, qs, quant, logit_rows);
        }
        let (team, owned) = (&mut scratch.team, &mut lanes[..owners]);
        fan_out(team, owned, trace, abort, |i, lane, trace| {
            let budgets = &budgets[i * per..i * per + lane.nq()];
            lane.walk(config, view, plan, budgets, trace);
        });
        owners
    } else {
        // Chunk ranges: lane 0 owns the questions, lanes 1..=threads are
        // the shares.
        if lanes.len() <= threads {
            lanes.resize_with(threads + 1, Lane::default);
        }
        let (head, shares) = lanes.split_first_mut().expect("lanes were grown above");
        head.stage(config.softmax, questions, quant, logit_rows);
        let t0 = trace.begin();
        head.resolve_thresholds(config, view, rows, budgets);
        trace.record(Phase::Skip, t0, 0);
        for seg in plan.segments() {
            if !head.enter(seg, plan, budgets) {
                continue;
            }
            let chunks = seg.rows.div_ceil(chunk);
            let per = chunks.div_ceil(threads).max(1) * chunk;
            let used = seg.rows.div_ceil(per).max(1);
            let (block, visit) = (&head.block, &head.work.visit);
            let team = &mut scratch.team;
            fan_out(team, &mut shares[..used], trace, abort, |i, lane, trace| {
                let start = seg.start + (i * per).min(seg.rows);
                let end = seg.start + ((i + 1) * per).min(seg.rows);
                lane.work.share(
                    config,
                    block,
                    visit,
                    view,
                    start..end,
                    budgets,
                    abort,
                    trace,
                );
            });
            // A panicked share leaves its partials undefined.
            if shares[..used].iter().any(|l| l.panicked) {
                head.fail_live(EngineError::WorkerPanicked);
                break;
            }
            head.fold_shares(&shares[..used], budgets, trace);
            trace.bump(Phase::SegmentMerge, 1);
        }
        1
    };

    // A batch slot reports the tile's per-question footprint — one block
    // of logit rows plus its accumulator row — whichever split served it.
    let tile = (nq > 1).then_some(((logit_rows + first.as_ref().len()) * 4) as u64);
    let t0 = trace.begin();
    let mut divided = 0u64;
    for lane in &mut lanes[..owners] {
        if lane.panicked {
            lane.fail_live(EngineError::WorkerPanicked);
        }
        for q in 0..lane.nq() {
            let mut slot = lane.finish(q, scratch, &mut divided);
            if let (Ok(out), Some(bytes)) = (&mut slot, tile) {
                out.stats.intermediate_bytes = bytes;
            }
            emit(slot);
        }
    }
    trace.record(Phase::Divide, t0, divided);
    scratch.lanes = lanes;
    Ok(())
}

/// Runs `work` once per lane — the first on the calling thread, the rest
/// on `team`'s workers: the one place a pass starts or wakes threads.
/// Every run is contained with `catch_unwind`; a panicking run marks its
/// lane [`Lane::panicked`] and raises `abort` so chunk-split peers stop at
/// their next chunk. Each lane of a split records into its own trace slot,
/// which the caller absorbs after the join. A single lane runs inline,
/// touching neither the team nor the slots.
fn fan_out(
    team: &mut Team,
    lanes: &mut [Lane],
    trace: &mut Trace,
    abort: &AtomicBool,
    work: impl Fn(usize, &mut Lane, &mut Trace) + Sync,
) {
    let contained = |i: usize, lane: &mut Lane, trace: &mut Trace| {
        lane.panicked = catch_unwind(AssertUnwindSafe(|| work(i, lane, trace))).is_err();
        if lane.panicked {
            abort.store(true, Ordering::Relaxed);
        }
    };
    if let [lane] = lanes {
        return contained(0, lane, trace);
    }
    let enabled = trace.is_enabled();
    team.split(lanes.iter_mut().enumerate(), |(i, lane)| {
        let mut local = if enabled {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        contained(i, lane, &mut local);
        lane.trace = local;
    });
    for lane in lanes.iter() {
        trace.absorb(&lane.trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Budget, ColumnOutput, EngineKind, ExecPlan, MemView, MnnFastConfig, PlanExecutor, Route,
        Scratch, SegmentPlan, SkipPolicy, SoftmaxMode,
    };
    use mnn_tensor::Matrix;

    /// The plan-built executor pinned to the scale-out walk.
    fn parallel(config: MnnFastConfig) -> PlanExecutor {
        ExecPlan::new(config)
            .with_kind(EngineKind::Parallel)
            .executor()
    }

    /// One pass of `exec` over every row with a fresh scratch.
    fn run(exec: PlanExecutor, m_in: &Matrix, m_out: &Matrix, u: &[f32]) -> ColumnOutput {
        exec.forward(
            MemView::from((m_in, m_out)),
            Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
            u,
            &mut Scratch::new(),
            &mut Trace::disabled(),
            &Budget::unlimited(),
        )
        .unwrap()
    }

    /// One scale-out pass over every row with a fresh scratch.
    fn forward(config: MnnFastConfig, m_in: &Matrix, m_out: &Matrix, u: &[f32]) -> ColumnOutput {
        run(parallel(config), m_in, m_out, u)
    }

    /// One inline pass over every row with a fresh scratch.
    fn inline(config: MnnFastConfig, m_in: &Matrix, m_out: &Matrix, u: &[f32]) -> ColumnOutput {
        let exec = ExecPlan::new(config).with_kind(EngineKind::Column);
        run(exec.executor(), m_in, m_out, u)
    }

    fn memories(ns: usize, ed: usize) -> (Matrix, Matrix, Vec<f32>) {
        let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 5 + c) as f32 * 0.13).sin());
        let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 3 * c) as f32 * 0.19).cos());
        let u: Vec<f32> = (0..ed).map(|i| (i as f32).sin() * 0.4).collect();
        (m_in, m_out, u)
    }

    #[test]
    fn parallel_matches_sequential_for_all_thread_counts() {
        let (m_in, m_out, u) = memories(150, 8);
        let seq = inline(MnnFastConfig::new(16), &m_in, &m_out, &u);
        for threads in [1usize, 2, 3, 4, 8, 32] {
            let par = forward(
                MnnFastConfig::new(16).with_threads(threads),
                &m_in,
                &m_out,
                &u,
            );
            assert_eq!(par.o, seq.o, "threads {threads}: not bitwise identical");
            assert_eq!(par.stats.rows_total, 150, "threads {threads}");
        }
    }

    /// A scratch's team starts with its first split and stays; a clone
    /// starts its own and answers the same bits, and the original keeps
    /// serving on the workers it had.
    #[test]
    fn a_cloned_scratch_gets_its_own_team() {
        let (m_in, m_out, u) = memories(150, 8);
        let exec = parallel(MnnFastConfig::new(16).with_threads(3));
        let run = |scratch: &mut Scratch| {
            exec.forward(
                MemView::from((&m_in, &m_out)),
                Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
                &u,
                scratch,
                &mut Trace::disabled(),
                &Budget::unlimited(),
            )
            .unwrap()
        };
        let mut scratch = Scratch::new();
        assert_eq!(scratch.team.threads(), 1, "nothing starts before a split");
        let first = run(&mut scratch);
        assert_eq!(scratch.team.threads(), 3);
        let mut clone = scratch.clone();
        assert_eq!(clone.team.threads(), 1, "a clone's team is not started");
        assert_eq!(run(&mut clone).o, first.o);
        assert_eq!(clone.team.threads(), 3);
        assert_eq!(run(&mut scratch).o, first.o);
        assert_eq!(scratch.team.threads(), 3);
    }

    #[test]
    fn parallel_is_deterministic() {
        let (m_in, m_out, u) = memories(97, 4);
        let config = MnnFastConfig::new(10).with_threads(4);
        let a = forward(config, &m_in, &m_out, &u);
        let b = forward(config, &m_in, &m_out, &u);
        assert_eq!(a.o, b.o, "merge order must be fixed");
    }

    #[test]
    fn parallel_with_skipping_matches_sequential_counts() {
        let (m_in, m_out, u) = memories(120, 6);
        let config = MnnFastConfig::new(15).with_skip(SkipPolicy::Probability(0.005));
        let seq = inline(config, &m_in, &m_out, &u);
        let par = forward(config.with_threads(3), &m_in, &m_out, &u);
        assert_eq!(seq.stats.rows_skipped, par.stats.rows_skipped);
        assert_eq!(par.o, seq.o, "skip decisions and fold order must match");
    }

    #[test]
    fn online_mode_parallel_merge() {
        let (m_in, m_out, u) = memories(64, 4);
        let config = MnnFastConfig::new(8).with_softmax(SoftmaxMode::Online);
        let seq = inline(config, &m_in, &m_out, &u);
        let par = forward(config.with_threads(4), &m_in, &m_out, &u);
        assert_eq!(par.o, seq.o, "online rescale history must match");
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let (m_in, m_out, u) = memories(3, 4);
        let par = forward(MnnFastConfig::new(2).with_threads(16), &m_in, &m_out, &u);
        assert_eq!(par.stats.rows_total, 3);
    }

    #[test]
    fn concurrent_intermediates_scale_with_threads() {
        let (m_in, m_out, u) = memories(400, 8);
        let one = forward(MnnFastConfig::new(50).with_threads(1), &m_in, &m_out, &u);
        let four = forward(MnnFastConfig::new(50).with_threads(4), &m_in, &m_out, &u);
        assert!(four.stats.intermediate_bytes >= one.stats.intermediate_bytes);
    }

    #[test]
    fn parallel_trace_records_merge_phase() {
        let (m_in, m_out, u) = memories(200, 8);
        let engine = parallel(MnnFastConfig::new(16).with_threads(4));
        let mut scratch = Scratch::new();
        let mut trace = Trace::enabled();
        let out = engine
            .forward(
                MemView::from((&m_in, &m_out)),
                Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
                &u,
                &mut scratch,
                &mut trace,
                &Budget::unlimited(),
            )
            .unwrap();
        assert_eq!(out.stats.rows_total, 200);
        assert_eq!(trace.count(Phase::FusedChunk), 200);
        // One merge per chunk partial: ceil(200 / 16) = 13 chunks.
        assert_eq!(trace.count(Phase::Merge), 13);
        assert_eq!(trace.count(Phase::Divide), 8);
    }

    /// `nq` questions of width `ed`.
    fn questions(nq: usize, ed: usize) -> Vec<Vec<f32>> {
        (0..nq)
            .map(|q| {
                (0..ed)
                    .map(|k| ((q * ed + k) as f32 * 0.21).sin())
                    .collect()
            })
            .collect()
    }

    fn batch(
        exec: &PlanExecutor,
        m_in: &Matrix,
        m_out: &Matrix,
        qs: &[Vec<f32>],
        trace: &mut Trace,
        budgets: &[Budget],
    ) -> Result<Vec<Result<ColumnOutput, EngineError>>, EngineError> {
        exec.forward_batch(
            MemView::from((m_in, m_out)),
            Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
            qs,
            &mut Scratch::new(),
            trace,
            budgets,
        )
    }

    #[test]
    fn batch_level_problems_are_the_outer_error() {
        let (m_in, m_out, _) = memories(10, 4);
        let exec = parallel(MnnFastConfig::new(4));
        let mut trace = Trace::disabled();
        let empty = batch(&exec, &m_in, &m_out, &[], &mut trace, &[]).unwrap();
        assert!(empty.is_empty());
        let mut qs = questions(2, 4);
        let one = [Budget::unlimited()];
        let err = batch(&exec, &m_in, &m_out, &qs, &mut trace, &one);
        assert!(matches!(err, Err(EngineError::Config(_))), "budget count");
        qs[1] = vec![0.0; 3];
        let two = [Budget::unlimited(), Budget::unlimited()];
        let err = batch(&exec, &m_in, &m_out, &qs, &mut trace, &two);
        assert!(matches!(err, Err(EngineError::Config(_))), "ragged batch");
    }

    /// A lane of several f32 questions runs the tile: one `BatchGemm`
    /// record per chunk counting rows × visiting questions, and nothing
    /// through the single-question kernel.
    #[test]
    fn a_batch_lane_traces_the_tile() {
        let (m_in, m_out, _) = memories(83, 8);
        let qs = questions(5, 8);
        let budgets = vec![Budget::unlimited(); 5];
        for threads in [1usize, 2] {
            let exec = parallel(MnnFastConfig::new(16).with_threads(threads));
            let mut trace = Trace::enabled();
            batch(&exec, &m_in, &m_out, &qs, &mut trace, &budgets).unwrap();
            assert_eq!(trace.count(Phase::BatchGemm), 83 * 5, "x{threads}");
            assert!(trace.nanos(Phase::BatchGemm) > 0);
            assert_eq!(trace.count(Phase::FusedChunk), 0);
            assert_eq!(trace.count(Phase::Divide), 5 * 8);
        }
    }

    /// Fewer questions than threads split every segment's chunks: a
    /// cancelled question fails alone and its batchmate answers with the
    /// lone inline pass's bits and work counters.
    #[test]
    fn a_chunk_split_isolates_a_cancelled_question() {
        let (m_in, m_out, _) = memories(150, 8);
        let qs = questions(2, 8);
        let token = crate::CancelToken::new();
        token.cancel();
        let budgets = [Budget::unlimited().with_cancel(token), Budget::unlimited()];
        for skip in [SkipPolicy::None, SkipPolicy::Probability(0.01)] {
            let config = MnnFastConfig::new(16).with_skip(skip);
            let exec = parallel(config.with_threads(3));
            let mut trace = Trace::enabled();
            let slots = batch(&exec, &m_in, &m_out, &qs, &mut trace, &budgets).unwrap();
            assert_eq!(slots[0], Err(EngineError::Cancelled));
            let got = slots[1].as_ref().unwrap();
            let lone = inline(config, &m_in, &m_out, &qs[1]);
            assert_eq!(got.o, lone.o, "{skip:?}");
            let work = |s: &crate::InferenceStats| crate::InferenceStats {
                intermediate_bytes: 0,
                ..*s
            };
            assert_eq!(work(&got.stats), work(&lone.stats), "{skip:?}");
            // Ten chunks, each folded once for the live question.
            assert_eq!(trace.count(Phase::Merge), 10);
        }
    }
}
