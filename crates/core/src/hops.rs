//! Multi-hop inference on top of any [`Executor`].
//!
//! The paper's inference operation can "iterate over several times for
//! better results" (Section 2.1): hop `k` computes
//! `o_k = softmax(u_k · M_INᵀ) · M_OUT` and feeds `u_{k+1} = u_k + o_k`
//! into the next hop. Every MnnFast optimization applies per hop, so this
//! module lifts the single-hop engines to hop chains through the same
//! [`Executor`] trait object the serving layer dispatches on — one seam,
//! no parallel trait hierarchy.

use crate::budget::Budget;
use crate::engine::{ColumnOutput, EngineError};
use crate::exec::{Executor, MemView, Route, Scratch, Trace};
use crate::index::ClusterIndex;
use crate::segment::SegmentPlan;
use crate::stats::InferenceStats;
use mnn_tensor::{Matrix, QuantMatrix};

/// Result of a multi-hop pass.
#[derive(Debug, Clone, PartialEq)]
pub struct HopsOutput {
    /// Response vector of the final hop.
    pub o: Vec<f32>,
    /// Question state *entering* the final hop, so the output layer
    /// computes `W · (o + u_last)` exactly as the baseline does.
    pub u_last: Vec<f32>,
    /// Question state after the final hop (`u_last + o`).
    pub u_final: Vec<f32>,
    /// Per-hop response vectors, in hop order.
    pub per_hop: Vec<Vec<f32>>,
    /// Counters merged over all hops.
    pub stats: InferenceStats,
}

/// Runs `hops` memory hops with `exec` over `route`'s rows of `view`,
/// chaining `u ← u + o`, reusing `scratch` across hops and accumulating
/// per-phase timings into `trace`: [`multi_hop_batch`] over one question.
/// One `budget` covers the whole chain, checked once per chunk inside
/// every hop's pass (a serving layer's per-question deadline spans all
/// hops of the question).
///
/// Matches `mnn-memnn`'s baseline hop semantics exactly (layer-wise tied
/// memories: the same view serves every hop). The question state stays in
/// f32 on either plane: an int8 hop re-quantizes its own query, so per-hop
/// quantization error never compounds through the memories. A routed plan's
/// zone maps prune on each hop independently (a fresh question state has a
/// fresh running max), and a [`Route::TopK`] chain *re-probes the index
/// with each hop's own question state* — hop `k+1`'s query `u + o` attends
/// where *it* points, not where hop `k` pointed, which is what makes sparse
/// multi-hop chains work at all.
///
/// # Errors
///
/// Returns [`EngineError`] from [`Executor::forward_batch`], or a
/// configuration error if `hops == 0`. [`EngineError::IndexDeclined`]
/// aborts the *whole chain* (a half-sparse, half-exact chain would be
/// neither answer); callers rerun it over a [`Route::Plan`].
#[allow(clippy::too_many_arguments)]
pub fn multi_hop(
    exec: &dyn Executor,
    view: MemView<'_>,
    route: Route<'_>,
    u0: &[f32],
    hops: usize,
    scratch: &mut Scratch,
    trace: &mut Trace,
    budget: &Budget,
) -> Result<HopsOutput, EngineError> {
    let questions = std::slice::from_ref(&u0);
    let budgets = std::slice::from_ref(budget);
    hop_chain(questions, hops, scratch, |us, _, scratch| {
        exec.forward_batch(view, route, us, scratch, trace, budgets)
    })?
    .pop()
    .expect("one question, one chain")
}

/// Batched multi-hop: runs every question's hop chain through
/// [`Executor::forward_batch`], so each hop streams the memories once per
/// *batch* instead of once per question (`budgets[q]` governs
/// `questions[q]` across its entire chain); routed plans prune per
/// question per hop, and a [`Route::TopK`] chain re-probes per question
/// per hop.
///
/// Per-question failures are isolated: a question whose budget expires,
/// whose accumulator faults or whose probe is declined in hop `k` carries
/// that typed error in its slot and is dropped from the remaining hops,
/// while its batchmates keep hopping. Slots come back in question order.
///
/// # Errors
///
/// The outer `Err` is batch-level, as [`Executor::forward_batch`], plus a
/// configuration error if `hops == 0`. Per-question errors are in the
/// inner `Result`s.
#[allow(clippy::too_many_arguments)]
pub fn multi_hop_batch(
    exec: &dyn Executor,
    view: MemView<'_>,
    route: Route<'_>,
    questions: &[Vec<f32>],
    hops: usize,
    scratch: &mut Scratch,
    trace: &mut Trace,
    budgets: &[Budget],
) -> Result<Vec<Result<HopsOutput, EngineError>>, EngineError> {
    let mut live_budgets = Vec::new();
    hop_chain(questions, hops, scratch, |us, live, scratch| {
        // Budgets follow their questions only once one has dropped out.
        let budgets = if live.len() == questions.len() {
            budgets
        } else {
            live_budgets.clear();
            live_budgets.extend(live.iter().map(|&q| budgets[q].clone()));
            &live_budgets
        };
        exec.forward_batch(view, route, us, scratch, trace, budgets)
    })
}

/// The one hop loop, over any batched single-hop pass: `hop` maps the
/// still-live question states (and their indices into `questions`) to
/// that hop's outputs, one slot per state in order — a local
/// [`Executor::forward_batch`], or a memory pass fanned out to a worker
/// fleet. A slot's error ends that question's chain, in its slot; the
/// others keep hopping. Each hop's response buffer came from the scratch
/// pool, and the one it replaces goes back, so the next hop (or question)
/// reuses it.
///
/// # Errors
///
/// The first batch-level error `hop` returns, or [`EngineError::Config`]
/// (converted) if `hops == 0`.
#[allow(clippy::type_complexity)]
pub fn hop_chain<Q: AsRef<[f32]>, E: From<EngineError>>(
    questions: &[Q],
    hops: usize,
    scratch: &mut Scratch,
    mut hop: impl FnMut(&[Vec<f32>], &[usize], &mut Scratch) -> Result<Vec<Result<ColumnOutput, E>>, E>,
) -> Result<Vec<Result<HopsOutput, E>>, E> {
    if hops == 0 {
        return Err(EngineError::Config("hops must be positive".into()).into());
    }
    // The live questions' states, compacted as chains end, and their slots.
    let mut us: Vec<Vec<f32>> = questions.iter().map(|u| u.as_ref().to_vec()).collect();
    let mut live: Vec<usize> = (0..questions.len()).collect();
    let mut chains: Vec<Result<HopsOutput, E>> = us
        .iter()
        .map(|u| {
            Ok(HopsOutput {
                o: Vec::new(),
                u_last: u.clone(),
                u_final: Vec::new(),
                per_hop: Vec::with_capacity(hops),
                stats: InferenceStats::default(),
            })
        })
        .collect();

    for _ in 0..hops {
        if live.is_empty() {
            break;
        }
        let outs = hop(&us, &live, scratch)?;
        let mut kept = 0;
        for (i, out) in outs.into_iter().enumerate() {
            let q = live[i];
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    chains[q] = Err(e);
                    continue;
                }
            };
            let Ok(chain) = &mut chains[q] else {
                unreachable!("a live question's chain is Ok");
            };
            // Sequential hops: counters add, peak intermediates take the
            // max (which is what `merge` does).
            chain.stats.merge(&out.stats);
            chain.u_last.clone_from(&us[i]);
            for (ui, oi) in us[i].iter_mut().zip(&out.o) {
                *ui += oi;
            }
            chain.per_hop.push(out.o.clone());
            scratch.recycle(std::mem::replace(&mut chain.o, out.o));
            us.swap(kept, i);
            live[kept] = q;
            kept += 1;
        }
        us.truncate(kept);
        live.truncate(kept);
    }

    for (u, q) in us.into_iter().zip(live) {
        if let Ok(chain) = &mut chains[q] {
            chain.u_final = u;
        }
    }
    Ok(chains)
}

// The six names below are the benchmark's ABI: `perfbench/src/layers.rs`
// imports them and a PR that touches the engines may not edit it. Each is
// one expression over the two entries above; nothing inside the workspace
// calls them, and they go when a `[benchmark]` PR moves perfbench over.

#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn multi_hop_segmented_budgeted(
    exec: &dyn Executor,
    m_in: &Matrix,
    m_out: &Matrix,
    plan: &SegmentPlan<'_>,
    u0: &[f32],
    hops: usize,
    scratch: &mut Scratch,
    trace: &mut Trace,
    budget: &Budget,
) -> Result<HopsOutput, EngineError> {
    multi_hop(
        exec,
        MemView::F32 { m_in, m_out },
        Route::Plan(plan),
        u0,
        hops,
        scratch,
        trace,
        budget,
    )
}

#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn multi_hop_quant_segmented_budgeted(
    exec: &dyn Executor,
    m_in: &QuantMatrix,
    m_out: &QuantMatrix,
    plan: &SegmentPlan<'_>,
    u0: &[f32],
    hops: usize,
    scratch: &mut Scratch,
    trace: &mut Trace,
    budget: &Budget,
) -> Result<HopsOutput, EngineError> {
    multi_hop(
        exec,
        MemView::Int8 { m_in, m_out },
        Route::Plan(plan),
        u0,
        hops,
        scratch,
        trace,
        budget,
    )
}

#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn multi_hop_topk_segmented_budgeted(
    exec: &dyn Executor,
    m_in: &Matrix,
    m_out: &Matrix,
    index: &ClusterIndex,
    u0: &[f32],
    hops: usize,
    topk: usize,
    nprobe: usize,
    scratch: &mut Scratch,
    trace: &mut Trace,
    budget: &Budget,
) -> Result<HopsOutput, EngineError> {
    multi_hop(
        exec,
        MemView::F32 { m_in, m_out },
        Route::TopK {
            index,
            topk,
            nprobe,
        },
        u0,
        hops,
        scratch,
        trace,
        budget,
    )
}

#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn multi_hop_quant_topk_segmented_budgeted(
    exec: &dyn Executor,
    m_in: &QuantMatrix,
    m_out: &QuantMatrix,
    index: &ClusterIndex,
    u0: &[f32],
    hops: usize,
    topk: usize,
    nprobe: usize,
    scratch: &mut Scratch,
    trace: &mut Trace,
    budget: &Budget,
) -> Result<HopsOutput, EngineError> {
    multi_hop(
        exec,
        MemView::Int8 { m_in, m_out },
        Route::TopK {
            index,
            topk,
            nprobe,
        },
        u0,
        hops,
        scratch,
        trace,
        budget,
    )
}

#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn multi_hop_batch_segmented_budgeted(
    exec: &dyn Executor,
    m_in: &Matrix,
    m_out: &Matrix,
    plan: &SegmentPlan<'_>,
    questions: &[Vec<f32>],
    hops: usize,
    scratch: &mut Scratch,
    trace: &mut Trace,
    budgets: &[Budget],
) -> Result<Vec<Result<HopsOutput, EngineError>>, EngineError> {
    multi_hop_batch(
        exec,
        MemView::F32 { m_in, m_out },
        Route::Plan(plan),
        questions,
        hops,
        scratch,
        trace,
        budgets,
    )
}

#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn multi_hop_quant_batch_segmented_budgeted(
    exec: &dyn Executor,
    m_in: &QuantMatrix,
    m_out: &QuantMatrix,
    plan: &SegmentPlan<'_>,
    questions: &[Vec<f32>],
    hops: usize,
    scratch: &mut Scratch,
    trace: &mut Trace,
    budgets: &[Budget],
) -> Result<Vec<Result<HopsOutput, EngineError>>, EngineError> {
    multi_hop_batch(
        exec,
        MemView::Int8 { m_in, m_out },
        Route::Plan(plan),
        questions,
        hops,
        scratch,
        trace,
        budgets,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnEngine, EngineKind, ExecPlan, MnnFastConfig, Phase, SkipPolicy};
    use mnn_tensor::softmax::softmax_in_place;
    use mnn_tensor::{assert_slice_approx_eq, kernels};

    fn memories(ns: usize, ed: usize) -> (Matrix, Matrix, Vec<f32>) {
        let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 3 + c) as f32 * 0.11).sin() * 0.5);
        let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 2 * c) as f32 * 0.07).cos() * 0.5);
        let u: Vec<f32> = (0..ed).map(|i| (i as f32 * 0.4).sin() * 0.3).collect();
        (m_in, m_out, u)
    }

    /// [`multi_hop`] over every row of an f32 memory: fresh scratch, no
    /// trace, no budget.
    fn hops_over(
        exec: &dyn Executor,
        m_in: &Matrix,
        m_out: &Matrix,
        u0: &[f32],
        hops: usize,
    ) -> Result<HopsOutput, EngineError> {
        multi_hop(
            exec,
            MemView::F32 { m_in, m_out },
            Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
            u0,
            hops,
            &mut Scratch::new(),
            &mut Trace::disabled(),
            &Budget::unlimited(),
        )
    }

    /// Reference multi-hop with the textbook dataflow.
    fn reference_hops(m_in: &Matrix, m_out: &Matrix, u0: &[f32], hops: usize) -> Vec<f32> {
        let mut u = u0.to_vec();
        let mut o = vec![0.0f32; m_out.cols()];
        for _ in 0..hops {
            let mut p = vec![0.0f32; m_in.rows()];
            kernels::gemv(m_in, &u, &mut p).unwrap();
            softmax_in_place(&mut p);
            kernels::gevm(&p, m_out, &mut o).unwrap();
            for (ui, &oi) in u.iter_mut().zip(&o) {
                *ui += oi;
            }
        }
        u
    }

    #[test]
    fn multi_hop_matches_reference_for_all_executors() {
        let (m_in, m_out, u) = memories(60, 8);
        let config = MnnFastConfig::new(16);
        let plan_exec = ExecPlan::new(config).with_kind(EngineKind::Auto).executor();
        let parallel = ExecPlan::new(config.with_threads(2))
            .with_kind(EngineKind::Parallel)
            .executor();
        let executors: [&dyn Executor; 3] = [&ColumnEngine::new(config), &parallel, &plan_exec];
        for hops in [1usize, 2, 3] {
            let expect = reference_hops(&m_in, &m_out, &u, hops);
            for exec in executors {
                let out = hops_over(exec, &m_in, &m_out, &u, hops).unwrap();
                assert_slice_approx_eq(&out.u_final, &expect, 1e-3);
                assert_eq!(out.per_hop.len(), hops);
            }
        }
    }

    #[test]
    fn u_last_plus_o_equals_u_final() {
        let (m_in, m_out, u) = memories(30, 4);
        let engine = ColumnEngine::new(MnnFastConfig::new(8));
        let out = hops_over(&engine, &m_in, &m_out, &u, 3).unwrap();
        for ((last, o), fin) in out.u_last.iter().zip(&out.o).zip(&out.u_final) {
            assert!((last + o - fin).abs() < 1e-6);
        }
    }

    #[test]
    fn stats_accumulate_across_hops() {
        let (m_in, m_out, u) = memories(40, 4);
        let engine = ColumnEngine::new(MnnFastConfig::new(10));
        let one = hops_over(&engine, &m_in, &m_out, &u, 1).unwrap();
        let three = hops_over(&engine, &m_in, &m_out, &u, 3).unwrap();
        assert_eq!(three.stats.rows_total, 3 * one.stats.rows_total);
        assert_eq!(three.stats.divisions, 3 * one.stats.divisions);
        // Peak intermediates do not triple: buffers are reused per hop.
        assert_eq!(three.stats.intermediate_bytes, one.stats.intermediate_bytes);
    }

    #[test]
    fn zero_hops_is_an_error() {
        let (m_in, m_out, u) = memories(10, 4);
        let engine = ColumnEngine::new(MnnFastConfig::new(4));
        assert!(matches!(
            hops_over(&engine, &m_in, &m_out, &u, 0),
            Err(EngineError::Config(_))
        ));
    }

    #[test]
    fn skipping_applies_on_every_hop() {
        let (m_in, m_out, u) = memories(50, 4);
        let engine =
            ColumnEngine::new(MnnFastConfig::new(10).with_skip(SkipPolicy::Probability(0.015)));
        let out = hops_over(&engine, &m_in, &m_out, &u, 2).unwrap();
        assert_eq!(out.stats.rows_total, 100);
        assert!(out.stats.rows_skipped > 0);
    }

    #[test]
    fn batched_hops_match_sequential_hops() {
        let (m_in, m_out, _) = memories(60, 8);
        let questions: Vec<Vec<f32>> = (0..4)
            .map(|q| {
                (0..8)
                    .map(|i| ((q * 8 + i) as f32 * 0.17).sin() * 0.3)
                    .collect()
            })
            .collect();
        let exec = ExecPlan::new(MnnFastConfig::new(16)).executor();
        let mut scratch = Scratch::new();
        let mut trace = Trace::enabled();
        let budgets = vec![Budget::unlimited(); questions.len()];
        let batched = multi_hop_batch(
            &exec,
            MemView::from((&m_in, &m_out)),
            Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
            &questions,
            3,
            &mut scratch,
            &mut trace,
            &budgets,
        )
        .unwrap();
        assert_eq!(batched.len(), questions.len());
        for (q, result) in batched.iter().enumerate() {
            let out = result.as_ref().unwrap();
            let single = hops_over(&exec, &m_in, &m_out, &questions[q], 3).unwrap();
            assert_slice_approx_eq(&out.u_final, &single.u_final, 1e-4);
            assert_slice_approx_eq(&out.o, &single.o, 1e-4);
            assert_eq!(out.per_hop.len(), 3);
            assert_eq!(out.stats.rows_total, single.stats.rows_total);
        }
        assert!(trace.count(Phase::BatchGemm) > 0);
    }

    #[test]
    fn batched_hops_isolate_a_cancelled_question() {
        use crate::budget::CancelToken;
        let (m_in, m_out, _) = memories(40, 4);
        let questions: Vec<Vec<f32>> = (0..3)
            .map(|q| (0..4).map(|i| ((q + i) as f32 * 0.2).cos() * 0.4).collect())
            .collect();
        let exec = ExecPlan::new(MnnFastConfig::new(10)).executor();
        let token = CancelToken::new();
        token.cancel();
        let budgets = vec![
            Budget::unlimited(),
            Budget::unlimited().with_cancel(token),
            Budget::unlimited(),
        ];
        let batched = multi_hop_batch(
            &exec,
            MemView::from((&m_in, &m_out)),
            Route::Plan(&SegmentPlan::unsegmented(m_in.rows())),
            &questions,
            2,
            &mut Scratch::new(),
            &mut Trace::disabled(),
            &budgets,
        )
        .unwrap();
        assert!(matches!(batched[1], Err(EngineError::Cancelled)));
        for q in [0usize, 2] {
            let out = batched[q].as_ref().unwrap();
            let single = hops_over(&exec, &m_in, &m_out, &questions[q], 2).unwrap();
            assert_slice_approx_eq(&out.u_final, &single.u_final, 1e-4);
        }
    }

    #[test]
    fn hops_over_prefix_and_traced() {
        let (m_in, m_out, u) = memories(50, 4);
        let engine = ColumnEngine::new(MnnFastConfig::new(10));
        let mut scratch = Scratch::new();
        let mut trace = Trace::enabled();
        let out = multi_hop(
            &engine,
            MemView::from((&m_in, &m_out)),
            Route::Plan(&SegmentPlan::unsegmented(30)),
            &u,
            2,
            &mut scratch,
            &mut trace,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(out.stats.rows_total, 60);
        assert_eq!(trace.count(Phase::FusedChunk), 60);
        assert_eq!(trace.count(Phase::Divide), 8, "two hops of ed divisions");
        // The trailing hop's output buffer was recycled into the pool.
        assert!(scratch.pooled_outputs() >= 1);
    }
}
