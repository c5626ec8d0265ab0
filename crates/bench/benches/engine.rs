//! Criterion benchmarks of the inference engines: baseline vs column-based
//! vs zero-skipping, plus the chunk-size ablation of
//! DESIGN.md §5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mnn_bench::run_pass;
use mnn_tensor::softmax::softmax_in_place;
use mnn_tensor::{kernels, Matrix};
use mnnfast::{
    Budget, EngineKind, ExecPlan, MemView, MnnFastConfig, PlanExecutor, Route, Scratch,
    SegmentPlan, SkipPolicy, SoftmaxMode, Trace,
};
use std::hint::black_box;

const NS: usize = 50_000;
const ED: usize = 48;

fn memories() -> (Matrix, Matrix, Vec<f32>) {
    let m_in = Matrix::from_fn(NS, ED, |r, c| ((r * 31 + c) as f32 * 0.001).sin() * 0.4);
    let m_out = Matrix::from_fn(NS, ED, |r, c| ((r * 7 + c) as f32 * 0.002).cos() * 0.4);
    let u: Vec<f32> = (0..ED).map(|i| (i as f32 * 0.3).sin()).collect();
    (m_in, m_out, u)
}

/// The inline walk of `config`.
fn column(config: MnnFastConfig) -> PlanExecutor {
    ExecPlan::new(config)
        .with_kind(EngineKind::Column)
        .executor()
}

/// The baseline dataflow: full-length T_IN / P spill between layers.
fn baseline_forward(m_in: &Matrix, m_out: &Matrix, u: &[f32]) -> Vec<f32> {
    let mut p = vec![0.0f32; m_in.rows()];
    kernels::gemv(m_in, u, &mut p).unwrap();
    softmax_in_place(&mut p);
    let mut o = vec![0.0f32; m_out.cols()];
    kernels::gevm(&p, m_out, &mut o).unwrap();
    o
}

fn bench_variants(c: &mut Criterion) {
    let (m_in, m_out, u) = memories();
    let mut g = c.benchmark_group("variants");
    g.throughput(Throughput::Elements((NS * ED) as u64));

    g.bench_function("baseline", |b| {
        b.iter(|| baseline_forward(black_box(&m_in), black_box(&m_out), black_box(&u)))
    });
    let view = MemView::from((&m_in, &m_out));
    let whole = SegmentPlan::unsegmented(NS);
    let mut scratch = Scratch::new();
    let mut pass = |exec: &PlanExecutor| {
        run_pass(
            exec,
            black_box(view),
            Route::Plan(&whole),
            &u,
            &mut scratch,
            &mut Trace::disabled(),
        )
    };
    let exec = column(MnnFastConfig::new(1000));
    g.bench_function("column", |b| b.iter(|| pass(&exec)));
    // The two-pass dataflow the fused kernel replaces, on the tensor
    // reference primitives.
    g.bench_function("column_twopass", |b| {
        b.iter(|| mnn_bench::two_pass_forward(black_box(&m_in), black_box(&m_out), &u, 1000))
    });
    let exec = column(MnnFastConfig::new(1000).with_skip(SkipPolicy::RawWeight(1.0)));
    g.bench_function("column_zero_skip", |b| b.iter(|| pass(&exec)));
    let exec = column(MnnFastConfig::new(1000).with_softmax(SoftmaxMode::Online));
    g.bench_function("column_online_softmax", |b| b.iter(|| pass(&exec)));
    g.finish();
}

/// Disabled tracing must cost nothing measurable: the same executor and
/// scratch run with a disabled and an enabled trace, so any gap between the
/// two bars is the observability overhead.
fn bench_trace_overhead(c: &mut Criterion) {
    let (m_in, m_out, u) = memories();
    let engine = column(MnnFastConfig::new(1000));
    let view = MemView::from((&m_in, &m_out));
    let whole = SegmentPlan::unsegmented(NS);
    let mut g = c.benchmark_group("trace_overhead");
    g.throughput(Throughput::Elements((NS * ED) as u64));

    let mut scratch = Scratch::new();
    g.bench_function("disabled", |b| {
        b.iter(|| {
            let mut trace = Trace::disabled();
            let out = engine
                .forward(
                    black_box(view),
                    Route::Plan(&whole),
                    &u,
                    &mut scratch,
                    &mut trace,
                    &Budget::unlimited(),
                )
                .unwrap();
            scratch.recycle(black_box(out).o);
        })
    });
    g.bench_function("enabled", |b| {
        b.iter(|| {
            let mut trace = Trace::enabled();
            let out = engine
                .forward(
                    black_box(view),
                    Route::Plan(&whole),
                    &u,
                    &mut scratch,
                    &mut trace,
                    &Budget::unlimited(),
                )
                .unwrap();
            scratch.recycle(black_box(out).o);
        })
    });
    g.finish();
}

fn bench_chunk_sweep(c: &mut Criterion) {
    let (m_in, m_out, u) = memories();
    let view = MemView::from((&m_in, &m_out));
    let whole = SegmentPlan::unsegmented(NS);
    let mut scratch = Scratch::new();
    let mut g = c.benchmark_group("chunk_sweep");
    for &chunk in &[64usize, 256, 1024, 4096, 16384] {
        let exec = column(MnnFastConfig::new(chunk));
        g.bench_with_input(BenchmarkId::from_parameter(chunk), &chunk, |b, _| {
            b.iter(|| {
                let route = Route::Plan(&whole);
                run_pass(
                    &exec,
                    black_box(view),
                    route,
                    &u,
                    &mut scratch,
                    &mut Trace::disabled(),
                )
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_variants, bench_trace_overhead, bench_chunk_sweep
}
criterion_main!(benches);
