//! Criterion benchmarks of the simulation substrates themselves: LLC
//! replay throughput, embedding-cache lookups, and the scale-out engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mnn_dataset::zipf::ZipfSampler;
use mnn_memsim::cache::SetAssocCache;
use mnn_memsim::dataflow::{replay, DataflowConfig, Variant};
use mnn_memsim::EmbeddingCache;
use mnn_tensor::Matrix;
use mnnfast::{EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch, SegmentPlan, Trace};
use std::hint::black_box;

fn bench_llc_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("llc_replay");
    let config = DataflowConfig {
        ns: 20_000,
        ed: 48,
        chunk: 1000,
        questions: 2,
        skip_fraction: 0.9,
        hops: 1,
    };
    for v in Variant::ALL {
        g.bench_with_input(BenchmarkId::from_parameter(v), &v, |b, &v| {
            b.iter(|| {
                let mut llc = SetAssocCache::new(256 << 10, 16, 64).unwrap();
                replay(v, black_box(config), &mut llc).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_embedding_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("embedding_cache");
    let mut z = ZipfSampler::new(10_000, 1.1, 7).unwrap();
    let trace = z.trace(100_000);
    g.throughput(Throughput::Elements(trace.len() as u64));
    for ways in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("lookup", ways), &ways, |b, &ways| {
            b.iter(|| {
                let mut cache = EmbeddingCache::set_associative(128 << 10, 256, ways).unwrap();
                cache.run_trace(black_box(&trace))
            })
        });
    }
    g.finish();
}

fn bench_parallel_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("scale_out");
    let ns = 50_000;
    let ed = 48;
    let m_in = Matrix::from_fn(ns, ed, |r, col| ((r + col) as f32 * 1e-3).sin());
    let m_out = Matrix::from_fn(ns, ed, |r, col| ((r * col) as f32 * 1e-3).cos());
    let u: Vec<f32> = (0..ed).map(|i| (i as f32 * 0.2).sin()).collect();
    g.throughput(Throughput::Elements((ns * ed) as u64));
    let view = MemView::from((&m_in, &m_out));
    let whole = SegmentPlan::unsegmented(ns);
    let mut scratch = Scratch::new();
    for threads in [1usize, 2, 4] {
        let engine = ExecPlan::new(MnnFastConfig::new(1000).with_threads(threads))
            .with_kind(EngineKind::Parallel)
            .executor();
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                mnn_bench::run_pass(
                    &engine,
                    black_box(view),
                    Route::Plan(&whole),
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
    targets = bench_llc_replay, bench_embedding_cache, bench_parallel_engine
}
criterion_main!(benches);
