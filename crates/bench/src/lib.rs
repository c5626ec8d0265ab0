//! Experiment harness for the MnnFast reproduction.
//!
//! One runner per table/figure of the paper's evaluation section; each
//! binary under `src/bin` is a thin wrapper that calls the corresponding
//! runner and prints its [`table::ExperimentTable`]. The runners accept a
//! [`Scale`] so integration tests can smoke-run them in milliseconds while
//! the binaries default to paper-shaped sizes.
//!
//! | Binary | Paper artifact | Runner |
//! |---|---|---|
//! | `table1` | Table 1 | [`experiments::table1`] |
//! | `fig03_membw_scaling` | Fig 3 | [`experiments::motivation::fig03`] |
//! | `fig04_cache_contention` | Fig 4 | [`experiments::motivation::fig04`] |
//! | `fig06_pvector` | Fig 6 | [`experiments::accuracy::fig06`] |
//! | `fig07_zeroskip_tradeoff` | Fig 7 | [`experiments::accuracy::fig07`] |
//! | `fig09_cpu_perf` | Fig 9 | [`experiments::cpu::fig09_native`] |
//! | `fig10_cpu_scalability` | Fig 10 | [`experiments::cpu::fig10`] |
//! | `fig11_offchip_accesses` | Fig 11 | [`experiments::cpu::fig11`] |
//! | `fig12_gpu_scaling` | Fig 12 | [`experiments::accelerators::fig12`] |
//! | `fig13_fpga_latency` | Fig 13 | [`experiments::accelerators::fig13`] |
//! | `fig14_embedding_cache` | Fig 14 | [`experiments::accelerators::fig14`] |
//! | `sec55_energy` | Section 5.5 | [`experiments::accelerators::sec55`] |
//! | `bench_kernels` | kernel backend (BENCH_kernels.json) | [`kernel_report`] |
//! | `bench_robustness` | budget-check overhead (BENCH_robustness.json) | [`robustness_report`] |
//! | `bench_batch` | batched serving throughput (BENCH_batch.json) | [`batch_report`] |
//! | `bench_embedding` | embedding fast path (BENCH_embedding.json) | [`embedding_report`] |
//! | `bench_segment` | segmented plane overhead + pruning (BENCH_segment.json) | [`segment_report`] |
//! | `bench_quant` | int8 memory plane speedup + parity (BENCH_quant.json) | [`quant_report`] |
//! | `bench_dist` | distributed fleet overhead + hedged p99 (BENCH_dist.json) | [`dist_report`] |
//! | `bench_sparse` | top-K candidate attention crossover + recall (BENCH_sparse.json) | [`sparse_report`] |
//! | `bench_serving` | open-loop network serving, coalesced vs batch-1 (BENCH_serving.json) | [`serving_report`] |

pub mod batch_report;
pub mod dist_report;
pub mod embedding_report;
pub mod engine_report;
pub mod experiments;
pub mod kernel_report;
pub mod quant_report;
pub mod robustness_report;
pub mod segment_report;
pub mod serving_report;
pub mod sparse_report;
pub mod table;

/// One unbudgeted forward pass as every timing loop here runs it: inputs
/// and output behind [`black_box`](std::hint::black_box), the output
/// buffer handed back to `scratch`. Returns the pass's counters.
///
/// # Panics
///
/// Panics if the pass fails (the reports build valid shapes).
pub fn run_pass(
    exec: &mnnfast::PlanExecutor,
    view: mnnfast::MemView<'_>,
    route: mnnfast::Route<'_>,
    u: &[f32],
    scratch: &mut mnnfast::Scratch,
    trace: &mut mnnfast::Trace,
) -> mnnfast::InferenceStats {
    let u = std::hint::black_box(u);
    let out = exec
        .forward(
            view,
            route,
            u,
            scratch,
            trace,
            &mnnfast::Budget::unlimited(),
        )
        .expect("valid shapes");
    let stats = out.stats;
    scratch.recycle(std::hint::black_box(out).o);
    stats
}

/// Wall seconds of one [`run_pass`].
pub fn timed_pass(
    exec: &mnnfast::PlanExecutor,
    view: mnnfast::MemView<'_>,
    route: mnnfast::Route<'_>,
    u: &[f32],
    scratch: &mut mnnfast::Scratch,
    trace: &mut mnnfast::Trace,
) -> f64 {
    let t0 = std::time::Instant::now();
    run_pass(exec, view, route, u, scratch, trace);
    t0.elapsed().as_secs_f64()
}

/// The two-pass column dataflow the fused chunk kernel replaces, on the
/// tensor reference primitives: per `chunk` rows one
/// [`kernels::gemv_chunk`](mnn_tensor::kernels::gemv_chunk) into a
/// chunk-wide logits buffer, then per row `e^x` and
/// [`LazyAccumulator::add_weighted`](mnn_tensor::softmax::LazyAccumulator::add_weighted)
/// into the chunk partial, merged in chunk order, and one lazy division.
/// The baseline of the fusion comparisons (`bench_kernels`'
/// `column_forward_fig09` row, the criterion `column_twopass` case): the
/// same arithmetic as a lazy [`mnnfast::EngineKind::Column`] pass, with the
/// logits spilled once per chunk.
///
/// # Panics
///
/// Panics if `chunk` is 0 or the operands disagree in shape.
pub fn two_pass_forward(
    m_in: &mnn_tensor::Matrix,
    m_out: &mnn_tensor::Matrix,
    u: &[f32],
    chunk: usize,
) -> Vec<f32> {
    use mnn_tensor::softmax::LazyAccumulator;
    let (ns, ed) = (m_in.rows(), u.len());
    let mut logits = vec![0.0f32; chunk];
    let mut total = LazyAccumulator::new(ed);
    let mut part = LazyAccumulator::new(ed);
    for start in (0..ns).step_by(chunk) {
        let n = chunk.min(ns - start);
        let logits = &mut logits[..n];
        mnn_tensor::kernels::gemv_chunk(m_in.rows_slice(start, n), n, u, logits);
        let rows = m_out.rows_slice(start, n);
        part.reset(ed);
        for (row, &x) in rows.chunks_exact(ed).zip(logits.iter()) {
            part.add_weighted(x.exp(), row);
        }
        total.merge(&part);
    }
    total.finish()
}

/// How large an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long, paper-shaped runs (the binaries' default).
    Full,
    /// Milliseconds-long smoke runs for tests.
    Smoke,
}

impl Scale {
    /// Reads the scale from the process arguments (`--smoke` selects
    /// [`Scale::Smoke`]).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    /// Picks `full` or `smoke` by variant.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_pass_forward_computes_the_column_pass() {
        use mnn_tensor::Matrix;
        let (ns, ed) = (203, 12);
        let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 7) as f32 * 0.37).sin() * 0.8);
        let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 5 + c * 11) as f32 * 0.21).cos() * 0.6);
        let u: Vec<f32> = (0..ed).map(|i| (i as f32 * 0.3).sin()).collect();
        for chunk in [1, 16, 64, 500] {
            let exec = mnnfast::ExecPlan::new(mnnfast::MnnFastConfig::new(chunk))
                .with_kind(mnnfast::EngineKind::Column)
                .executor();
            let fused = exec
                .forward(
                    (&m_in, &m_out).into(),
                    mnnfast::Route::Plan(&mnnfast::SegmentPlan::unsegmented(ns)),
                    &u,
                    &mut mnnfast::Scratch::new(),
                    &mut mnnfast::Trace::disabled(),
                    &mnnfast::Budget::unlimited(),
                )
                .unwrap()
                .o;
            let two_pass = two_pass_forward(&m_in, &m_out, &u, chunk);
            mnn_tensor::assert_slice_approx_eq(&two_pass, &fused, 1e-4);
        }
    }

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Full.pick(10, 1), 10);
        assert_eq!(Scale::Smoke.pick(10, 1), 1);
    }
}
