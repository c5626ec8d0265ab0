//! The traced pass: the same workloads, shorter, with the program's own
//! tracing on (`SessionConfig::trace`) and benchmark-side spans around
//! every public call into a layer. Where a `Session` hides its store, the
//! layer below it is replayed on a *twin* — a `SegmentedStore` filled with
//! the same rows through `MemNet::embed_sentence_pair` and driven through
//! the same public `mnnfast` entry points `Session::forward` uses — so a
//! question's time can be split into embed, forward, output and what the
//! session adds on top. End-to-end metrics are never taken from this pass.
//!
//! Bytes are computed from tensor sizes, never measured: an f32 sweep
//! moves `2 * rows * ed * 4` bytes per hop, an int8 sweep
//! `2 * rows * (ed + 4)` (codes plus one f32 scale per row).

use crate::inputs::{Inputs, ED, HOPS, QUESTIONS};
use crate::metrics::{Outcome, PER_LAYER};
use crate::net;
use crate::spans::{Recorder, SpanId};
use crate::stats;
use crate::workloads::{
    self, Kind, Spec, Target, BATCH_NQ, BURST, BURST_GROUP, NET_PACED_QPS, TENANT,
};
use mnn_dataset::WordId;
use mnn_memnn::MemNet;
use mnn_net::{NetClient, NetFrame, Response};
use mnn_serve::{Session, SessionPool};
use mnn_tensor::partial::PartialState;
use mnn_tensor::softmax::{self, LazyAccumulator};
use mnn_tensor::{kernels, quant, reduce, simd, QuantMatrix};
use mnnfast::{
    multi_hop_batch_segmented_budgeted, multi_hop_quant_batch_segmented_budgeted,
    multi_hop_quant_segmented_budgeted, multi_hop_quant_topk_segmented_budgeted,
    multi_hop_segmented_budgeted, multi_hop_topk_segmented_budgeted, Budget, ClusterIndex,
    EngineError, EngineKind, ExecPlan, HopsOutput, PlanExecutor, Precision, Scratch, SegmentPlan,
    SegmentedStore, Trace,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Share of `--seconds` the traced request loop runs for.
const TRACED_SHARE: f64 = 0.5;
/// Share of `--seconds` each `serve_net` load phase runs for.
const NET_PHASE_SHARE: f64 = 0.15;
/// Observes in the traced mini-burst of the append-only workloads, spanned
/// in groups of [`BURST_GROUP`] like the end-to-end burst.
const TRACED_BURST: usize = 512;

/// Per-layer metric values by name; absent means "layer not exercised by
/// this workload" and prints as 0.
type Layers = BTreeMap<&'static str, f64>;

fn median_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

fn median_ns(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

// ---------------------------------------------------------------------
// The twin: the layers under a Session, driven directly.
// ---------------------------------------------------------------------

struct Twin<'a> {
    model: &'a MemNet,
    store: SegmentedStore,
    plan: ExecPlan,
    exec: PlanExecutor,
    scratch: Scratch,
    precision: Precision,
    topk: usize,
    nprobe: usize,
    pair: Vec<f32>,
}

/// Nanoseconds of one replayed ask, by part.
#[derive(Debug, Clone, Copy, Default)]
struct AskParts {
    embed: u64,
    forward: u64,
    output: u64,
}

impl AskParts {
    fn sum(&self) -> u64 {
        self.embed + self.forward + self.output
    }
}

impl<'a> Twin<'a> {
    /// A twin of one memory of `spec`, holding corpus sentences `rows`.
    fn new(spec: &Spec, inputs: &'a Inputs, rows: Range<usize>) -> Self {
        let config = spec.session_config(false);
        // The effective top-K knobs, environment fallbacks included.
        let knobs = Session::new(inputs.model.clone(), config).expect("session");
        let mut twin = Twin {
            model: &inputs.model,
            store: SegmentedStore::new(ED, config.max_sentences),
            plan: config.plan,
            exec: config.plan.executor(),
            scratch: Scratch::new(),
            precision: spec.precision,
            topk: knobs.topk(),
            nprobe: knobs.nprobe(),
            pair: vec![0.0; 2 * ED],
        };
        if spec.precision == Precision::Int8 {
            twin.store.enable_quant();
        }
        for i in rows {
            twin.push_sentence(inputs.sentences.get(i));
        }
        twin
    }

    fn rows(&self) -> usize {
        self.store.len()
    }

    fn push_sentence(&mut self, sentence: &[WordId]) {
        let (a, c) = self.pair.split_at_mut(ED);
        self.model.embed_sentence_pair(sentence, a, c);
        self.store.push(a, c);
    }

    /// Exact attention over the whole memory on the workload's plane.
    fn forward_exact(&mut self, u: &[f32]) -> Result<HopsOutput, EngineError> {
        let plan = SegmentPlan::unsegmented(self.store.len());
        let (mut trace, budget) = (Trace::disabled(), Budget::unlimited());
        if self.precision == Precision::Int8 {
            self.store.enable_quant();
            let (q_in, q_out) = self.store.quant().expect("mirror just synced");
            multi_hop_quant_segmented_budgeted(
                &self.exec,
                q_in,
                q_out,
                &plan,
                u,
                HOPS,
                &mut self.scratch,
                &mut trace,
                &budget,
            )
        } else {
            multi_hop_segmented_budgeted(
                &self.exec,
                self.store.m_in(),
                self.store.m_out(),
                &plan,
                u,
                HOPS,
                &mut self.scratch,
                &mut trace,
                &budget,
            )
        }
    }

    /// What `Session::forward` does: the top-K candidate path when
    /// configured, exact attention when it is not or the index declines.
    fn forward(&mut self, u: &[f32]) -> HopsOutput {
        if self.topk > 0 && self.store.len() > self.topk {
            self.store.enable_index();
            if self.precision == Precision::Int8 {
                self.store.enable_quant();
            }
            let index = self.store.index().expect("index just synced");
            let (mut trace, budget) = (Trace::disabled(), Budget::unlimited());
            let sparse = if self.precision == Precision::Int8 {
                let (q_in, q_out) = self.store.quant().expect("mirror just synced");
                multi_hop_quant_topk_segmented_budgeted(
                    &self.exec,
                    q_in,
                    q_out,
                    index,
                    u,
                    HOPS,
                    self.topk,
                    self.nprobe,
                    &mut self.scratch,
                    &mut trace,
                    &budget,
                )
            } else {
                multi_hop_topk_segmented_budgeted(
                    &self.exec,
                    self.store.m_in(),
                    self.store.m_out(),
                    index,
                    u,
                    HOPS,
                    self.topk,
                    self.nprobe,
                    &mut self.scratch,
                    &mut trace,
                    &budget,
                )
            };
            if let Ok(out) = sparse {
                return out;
            }
        }
        self.forward_exact(u).expect("twin forward")
    }

    /// One exact batched pass (what `Session::ask_many` runs).
    fn forward_batch(&mut self, us: &[Vec<f32>]) -> Vec<HopsOutput> {
        let plan = SegmentPlan::unsegmented(self.store.len());
        let budgets = vec![Budget::unlimited(); us.len()];
        let mut trace = Trace::disabled();
        let out = if self.precision == Precision::Int8 {
            self.store.enable_quant();
            let (q_in, q_out) = self.store.quant().expect("mirror just synced");
            multi_hop_quant_batch_segmented_budgeted(
                &self.exec,
                q_in,
                q_out,
                &plan,
                us,
                HOPS,
                &mut self.scratch,
                &mut trace,
                &budgets,
            )
        } else {
            multi_hop_batch_segmented_budgeted(
                &self.exec,
                self.store.m_in(),
                self.store.m_out(),
                &plan,
                us,
                HOPS,
                &mut self.scratch,
                &mut trace,
                &budgets,
            )
        };
        out.expect("twin batch forward")
            .into_iter()
            .map(|slot| slot.expect("twin batch slot"))
            .collect()
    }

    fn embed_questions(&self, questions: &[Vec<WordId>]) -> Vec<Vec<f32>> {
        questions
            .iter()
            .map(|q| {
                let mut u = vec![0.0f32; ED];
                self.model.embed_question(q, &mut u);
                u
            })
            .collect()
    }

    /// Replays one ask (or one batch) layer by layer under `parent`.
    fn replay_ask(
        &mut self,
        rec: &mut Recorder,
        parent: SpanId,
        request: u64,
        questions: &[Vec<WordId>],
    ) -> AskParts {
        let replay = rec.begin("bench.replay", Some(parent), request);
        let span = rec.begin("memnn.embed_question", Some(replay), request);
        let us = self.embed_questions(questions);
        let embed = rec.end(span);

        let span = rec.begin("core.forward", Some(replay), request);
        let outs = match us.as_slice() {
            [u] => vec![self.forward(u)],
            _ => self.forward_batch(&us),
        };
        let forward = rec.end(span);

        let span = rec.begin("memnn.output_logits", Some(replay), request);
        for out in outs {
            let mut logits = self.model.output_logits(&out.o, &out.u_last);
            black_box(reduce::argmax(&logits));
            softmax::softmax_in_place(&mut logits);
            black_box(&logits);
            self.scratch.recycle(out.o);
        }
        let output = rec.end(span);
        rec.end(replay);
        AskParts {
            embed,
            forward,
            output,
        }
    }

    /// Replays one observe on a `window`-row sliding store: embed, evict (once
    /// the window is full),
    /// push. Returns `(embed, evict, push)` ns.
    fn replay_observe(
        &mut self,
        rec: &mut Recorder,
        parent: SpanId,
        request: u64,
        sentence: &[WordId],
        window: usize,
    ) -> (u64, u64, u64) {
        let replay = rec.begin("bench.replay", Some(parent), request);
        let (a, c) = self.pair.split_at_mut(ED);
        let span = rec.begin("tensor.embed_pair", Some(replay), request);
        self.model.embed_sentence_pair(sentence, a, c);
        let embed = rec.end(span);
        let mut evict = 0;
        if window == self.store.len() {
            let span = rec.begin("core.store_evict", Some(replay), request);
            self.store.evict_front(1);
            evict = rec.end(span);
        }
        let span = rec.begin("core.store_push", Some(replay), request);
        self.store.push(a, c);
        let push = rec.end(span);
        rec.end(replay);
        (embed, evict, push)
    }
}

// ---------------------------------------------------------------------
// Kernel and codec probes.
// ---------------------------------------------------------------------

/// Contiguous chunk-aligned row ranges, one per thread.
fn split_rows(rows: usize, chunk: usize, threads: usize) -> Vec<Range<usize>> {
    let chunks = rows.div_ceil(chunk);
    let per = chunks.div_ceil(threads.max(1)).max(1);
    (0..threads)
        .map(|t| (t * per * chunk).min(rows)..((t + 1) * per * chunk).min(rows))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Runs `work(range)` once per range, in parallel when there are several.
fn on_ranges(ranges: &[Range<usize>], work: impl Fn(Range<usize>) + Sync) {
    if let [only] = ranges {
        work(only.clone());
    } else {
        std::thread::scope(|scope| {
            for r in ranges {
                let work = &work;
                scope.spawn(move || work(r.clone()));
            }
        });
    }
}

/// The row ranges a sweep of the twin's memory runs over: one per thread
/// the engine would use at this size, and the engine's chunk size.
fn sweep_plan(twin: &Twin<'_>) -> (Vec<Range<usize>>, usize) {
    let chunk = twin.plan.config.chunk_size;
    let threads = match twin.plan.resolve(twin.rows(), ED) {
        EngineKind::Parallel => twin.plan.config.threads,
        _ => 1,
    };
    (split_rows(twin.rows(), chunk, threads), chunk)
}

/// One hop's worth of the fused f32 kernel over the whole memory.
fn sweep_f32(ranges: &[Range<usize>], chunk: usize, store: &SegmentedStore, u: &[f32]) {
    let backend = simd::backend();
    on_ranges(ranges, |r| {
        let mut acc = vec![0.0f32; ED];
        let mut denom = 0.0f32;
        for start in r.clone().step_by(chunk) {
            let n = chunk.min(r.end - start);
            let (d, _) = simd::fused_chunk_lazy_with(
                backend,
                store.m_in().rows_slice(start, n),
                store.m_out().rows_slice(start, n),
                n,
                u,
                None,
                &mut acc,
            );
            denom += d;
        }
        black_box((acc, denom));
    })
}

/// One hop's worth of the fused int8 kernel over the whole mirror.
fn sweep_i8(
    ranges: &[Range<usize>],
    chunk: usize,
    (q_in, q_out): (&QuantMatrix, &QuantMatrix),
    u: &[f32],
) {
    let backend = simd::backend();
    let mut uq = vec![0i8; ED];
    let u_scale = quant::quantize_row(u, &mut uq);
    on_ranges(ranges, |r| {
        let mut acc = vec![0.0f32; ED];
        let mut denom = 0.0f32;
        for start in r.clone().step_by(chunk) {
            let n = chunk.min(r.end - start);
            let (d, _) = simd::fused_chunk_lazy_i8_with(
                backend,
                q_in.rows_slice(start, n),
                q_in.scales_slice(start, n),
                q_out.rows_slice(start, n),
                q_out.scales_slice(start, n),
                n,
                &uq,
                u_scale,
                None,
                &mut acc,
            );
            denom += d;
        }
        black_box((acc, denom));
    })
}

/// Seconds for one whole-memory sweep of each kernel, with the thread
/// count the engine would use at this size.
struct Sweeps {
    fused_f32_s: f64,
    fused_i8_s: f64,
    gemm_s: f64,
}

fn sweep_kernels(twin: &Twin<'_>, u: &[f32], us_flat: &[f32]) -> Sweeps {
    let (ranges, chunk) = sweep_plan(twin);
    let store = &twin.store;
    let fused_f32_s = median_of(9, || sweep_f32(&ranges, chunk, store, u));

    let own_mirror;
    let mirror = match store.quant() {
        Some(pair) => pair,
        None => {
            own_mirror = (
                QuantMatrix::from_matrix_prefix(store.m_in(), twin.rows()),
                QuantMatrix::from_matrix_prefix(store.m_out(), twin.rows()),
            );
            (&own_mirror.0, &own_mirror.1)
        }
    };
    let fused_i8_s = median_of(9, || sweep_i8(&ranges, chunk, mirror, u));

    let gemm_s = median_of(5, || {
        on_ranges(&ranges, |r| {
            let mut logits = vec![0.0f32; BATCH_NQ * chunk];
            for start in r.clone().step_by(chunk) {
                let n = chunk.min(r.end - start);
                let out = &mut logits[..BATCH_NQ * n];
                kernels::gemm_chunk(store.m_in().rows_slice(start, n), n, us_flat, BATCH_NQ, out);
                black_box(out);
            }
        })
    });
    Sweeps {
        fused_f32_s,
        fused_i8_s,
        gemm_s,
    }
}

/// Copy bandwidth of this box with `threads` threads: the roofline's
/// denominator. Counts bytes read plus bytes written.
fn stream_copy_gbps(threads: usize) -> f64 {
    const FLOATS: usize = 16 << 20; // 64 MiB each way, past the L2s
    let src = vec![1.0f32; FLOATS];
    let mut dst = vec![0.0f32; FLOATS];
    let per = FLOATS.div_ceil(threads.max(1));
    let secs = median_of(3, || {
        std::thread::scope(|scope| {
            for (d, s) in dst.chunks_mut(per).zip(src.chunks(per)) {
                scope.spawn(move || d.copy_from_slice(s));
            }
        });
        black_box(&dst);
    });
    (2 * FLOATS * 4) as f64 / secs / 1e9
}

fn probe_small_kernels(twin: &Twin<'_>, inputs: &Inputs, layers: &mut Layers) {
    const N: usize = 4096;
    let n = N.min(inputs.sentences.len());
    let (mut a, mut c) = (vec![0.0f32; ED], vec![0.0f32; ED]);
    let tokens: usize = (0..n).map(|i| inputs.sentences.get(i).len()).sum();
    let secs = median_of(5, || {
        for i in 0..n {
            twin.model
                .embed_sentence_pair(inputs.sentences.get(i), &mut a, &mut c);
            black_box((&a, &c));
        }
    });
    layers.insert("tensor.embed_pair_ns_per_token", secs * 1e9 / tokens as f64);

    let rows = N.min(twin.rows());
    let mut codes = vec![0i8; ED];
    let secs = median_of(5, || {
        for r in 0..rows {
            black_box(quant::quantize_row(twin.store.m_in().row(r), &mut codes));
        }
    });
    layers.insert("tensor.quantize_row_ns", secs * 1e9 / rows as f64);

    let mut part = LazyAccumulator::new(ED);
    part.add_weighted(1.5, twin.store.m_out().row(0));
    let part = PartialState::Lazy(part);
    let mut total = PartialState::Lazy(LazyAccumulator::new(ED));
    const MERGES: usize = 100_000;
    let secs = median_of(5, || {
        for _ in 0..MERGES {
            total.merge(black_box(&part)).expect("same mode and dim");
        }
    });
    black_box(&total);
    layers.insert("tensor.partial_merge_ns", secs * 1e9 / MERGES as f64);
}

fn probe_codec(inputs: &Inputs, layers: &mut Layers) {
    const N: usize = 20_000;
    let ask = NetFrame::AskTokens {
        id: 7,
        tokens: inputs.questions[0].clone(),
    };
    let answer = NetFrame::Answer {
        id: 7,
        word: 1234,
        text: "w1234".into(),
        probability: 0.25,
        degraded: false,
    };
    for (frame, enc, dec) in [
        (&ask, "net.encode_ask_ns", "net.decode_ask_ns"),
        (&answer, "net.encode_answer_ns", "net.decode_answer_ns"),
    ] {
        let secs = median_of(5, || {
            for _ in 0..N {
                black_box(black_box(frame).encode());
            }
        });
        layers.insert(enc, secs * 1e9 / N as f64);
        let bytes = frame.encode();
        let secs = median_of(5, || {
            for _ in 0..N {
                black_box(NetFrame::decode(black_box(&bytes)).expect("own encoding"));
            }
        });
        layers.insert(dec, secs * 1e9 / N as f64);
    }
}

/// Kernel, engine and batching metrics every workload reports, from the
/// workload's own rows. `ask_ns` is the workload's per-call p50,
/// `scored_share` the share of rows a question actually scores (1 unless
/// the index prunes), `forward_ns` the replayed forward's p50,
/// `loop_sweep_ns` the workload kernel's sweep time when the request loop
/// measured it itself (beside the calls it is compared with, on the same
/// caches) instead of leaving it to the sweeps here.
#[allow(clippy::too_many_arguments)]
fn probe_engine(
    spec: &Spec,
    twin: &mut Twin<'_>,
    inputs: &Inputs,
    ask_ns: f64,
    forward_ns: f64,
    scored_share: f64,
    loop_sweep_ns: Option<f64>,
    layers: &mut Layers,
) {
    let rows = twin.rows();
    let us = twin.embed_questions(&inputs.questions[..BATCH_NQ]);
    let us_flat: Vec<f32> = us.iter().flatten().copied().collect();
    let sweeps = sweep_kernels(twin, &us[0], &us_flat);
    let threads = twin.plan.config.threads;
    layers.insert("tensor.stream_copy_gbps", stream_copy_gbps(threads));
    let f32_bytes = (2 * rows * ED * 4) as f64;
    let i8_bytes = (2 * rows * (ED + 4)) as f64;
    layers.insert(
        "tensor.fused_f32_gbps",
        f32_bytes / sweeps.fused_f32_s / 1e9,
    );
    layers.insert("tensor.fused_i8_gbps", i8_bytes / sweeps.fused_i8_s / 1e9);
    let gemm_flops = (2 * rows * ED * BATCH_NQ) as f64;
    layers.insert("tensor.gemm_tile_gflops", gemm_flops / sweeps.gemm_s / 1e9);

    // The kernel the workload's calls spend their time in.
    let sweep_s = match (spec.kind, spec.precision) {
        (Kind::Batch, _) => sweeps.gemm_s,
        (_, Precision::Int8) => sweeps.fused_i8_s,
        (_, Precision::F32) => sweeps.fused_f32_s,
    };
    let sweep_ns = loop_sweep_ns.unwrap_or(sweep_s * 1e9);
    let kernel_ns = HOPS as f64 * sweep_ns * scored_share;
    layers.insert("tensor.kernel_share", kernel_ns / ask_ns);
    layers.insert("core.forward_ms", forward_ns / 1e6);
    layers.insert("core.engine_self_ms", (forward_ns - kernel_ns) / 1e6);
    let scored_rows = rows as f64 * scored_share * HOPS as f64;
    layers.insert("core.rows_per_s", scored_rows / (forward_ns / 1e9));

    let single_s = median_of(5, || {
        let out = twin.forward_exact(&us[0]).expect("twin forward");
        twin.scratch.recycle(black_box(out).o);
    });
    for (nq, name) in [
        (8, "core.batch_speedup_nq8"),
        (32, "core.batch_speedup_nq32"),
    ] {
        let batch_s = median_of(3, || {
            for out in black_box(twin.forward_batch(&us[..nq])) {
                twin.scratch.recycle(out.o);
            }
        });
        layers.insert(name, nq as f64 * single_s / batch_s);
    }
}

// ---------------------------------------------------------------------
// The traced passes.
// ---------------------------------------------------------------------

/// What a traced pass counted, for the result line.
#[derive(Debug, Default)]
struct Counts {
    attempted: u64,
    failed: u64,
}

/// Whether the traced copy takes each of request `k`'s two turns: the
/// order flips every request, so neither copy always runs on the caches
/// the other just warmed.
fn turns(k: usize) -> [bool; 2] {
    [!k.is_multiple_of(2), k.is_multiple_of(2)]
}

/// Tracing overhead as a share of closed-loop throughput: the same calls
/// alternate between an untraced and a traced copy of the system, and one
/// caller's throughput is the inverse of its call time.
fn trace_overhead(untraced_ns: &[f64], traced_ns: &[f64], layers: &mut Layers) {
    let share = 1.0 - median_ns(untraced_ns) / median_ns(traced_ns);
    layers.insert("bench.trace_overhead_share", share);
    layers.insert("bench.samples", traced_ns.len() as f64);
}

fn print_reconcile(what: &str, parts: &[(&str, f64)], whole: (&str, f64)) {
    let sum: f64 = parts.iter().map(|p| p.1).sum();
    let terms: Vec<String> = parts
        .iter()
        .map(|(n, v)| format!("{n}={:.1}us", v / 1e3))
        .collect();
    println!(
        "reconcile {what}: {} sum={:.1}us vs {}={:.1}us ratio={:.4}",
        terms.join(" + "),
        sum / 1e3,
        whole.0,
        whole.1 / 1e3,
        sum / whole.1
    );
}

/// Ask-side metrics shared by every pass: the call's p50, its replayed
/// parts, and what the session adds (`self`, the paired median of call
/// minus parts).
fn ask_metrics(nq: usize, ask_ns: &[f64], parts: &[AskParts], layers: &mut Layers) -> (f64, f64) {
    let col = |f: fn(&AskParts) -> u64| -> Vec<f64> { parts.iter().map(|p| f(p) as f64).collect() };
    let (embed, forward, output) = (
        median_ns(&col(|p| p.embed)),
        median_ns(&col(|p| p.forward)),
        median_ns(&col(|p| p.output)),
    );
    let selfs: Vec<f64> = ask_ns
        .iter()
        .zip(parts)
        .map(|(a, p)| a - p.sum() as f64)
        .collect();
    let (ask, self_ns) = (median_ns(ask_ns), median_ns(&selfs));
    layers.insert("serve.session_ask_ms", ask / 1e6);
    layers.insert("serve.session_self_us", self_ns / 1e3);
    layers.insert("memnn.embed_question_us", embed / nq as f64 / 1e3);
    layers.insert("memnn.output_logits_us", output / nq as f64 / 1e3);
    print_reconcile(
        "Session::ask",
        &[
            ("embed", embed),
            ("forward", forward),
            ("output", output),
            ("session_self", self_ns),
        ],
        ("ask_p50", ask),
    );
    (ask, forward)
}

fn session_ratios(session: &Session, nq: usize, layers: &mut Layers) {
    let d = session.degradation_stats();
    let asked = session.questions_answered().max(1) as f64;
    layers.insert("serve.batch_occupancy_mean", nq as f64);
    layers.insert("serve.degraded_share", d.degraded_answers as f64 / asked);
    layers.insert(
        "serve.sparse_fallback_share",
        d.sparse_fallbacks as f64 / asked,
    );
    layers.insert(
        "serve.deadline_miss_share",
        d.deadline_misses as f64 / asked,
    );
}

/// Observe side of an append-only memory (nothing is ever evicted). An
/// append takes well under a microsecond, less than the clock reads a span
/// costs, so spans cover [`BURST_GROUP`] observes each and the metrics
/// are per observe.
fn append_side(
    rec: &mut Recorder,
    inputs: &Inputs,
    first: usize,
    mut observe: impl FnMut(&[WordId]) -> bool,
    twin: &mut Twin<'_>,
    layers: &mut Layers,
    counts: &mut Counts,
) {
    let (mut selfs, mut pushes) = (Vec::new(), Vec::new());
    let mut pairs = vec![0.0f32; BURST_GROUP * 2 * ED];
    for group in (first..first + TRACED_BURST).step_by(BURST_GROUP) {
        let sentences = || (group..group + BURST_GROUP).map(|i| inputs.sentences.get(i));
        let request = (1 << 32) + group as u64;
        let root = rec.begin("bench.request", None, request);
        let span = rec.begin("serve.session_observe", Some(root), request);
        let ok = sentences().filter(|s| observe(s)).count();
        let whole = rec.end(span);
        let replay = rec.begin("bench.replay", Some(root), request);
        let span = rec.begin("tensor.embed_pair", Some(replay), request);
        for (s, pair) in sentences().zip(pairs.chunks_mut(2 * ED)) {
            let (a, c) = pair.split_at_mut(ED);
            twin.model.embed_sentence_pair(s, a, c);
        }
        let embed = rec.end(span);
        let span = rec.begin("core.store_push", Some(replay), request);
        for pair in pairs.chunks(2 * ED) {
            twin.store.push(&pair[..ED], &pair[ED..]);
        }
        let push = rec.end(span);
        rec.end(replay);
        rec.end(root);
        let per_op = |ns: f64| ns / BURST_GROUP as f64;
        selfs.push(per_op(whole as f64 - (embed + push) as f64));
        pushes.push(per_op(push as f64));
        counts.attempted += BURST_GROUP as u64;
        counts.failed += (BURST_GROUP - ok) as u64;
    }
    layers.insert("serve.observe_self_us", median_ns(&selfs) / 1e3);
    layers.insert("core.store_push_us", median_ns(&pushes) / 1e3);
}

/// `scan_f32` and `batch_f32`: a bare `Session`.
fn session_pass(
    spec: &Spec,
    inputs: &Inputs,
    seconds: f64,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> Counts {
    let mut untraced = workloads::build_target(spec, inputs, false);
    let mut target = workloads::build_target(spec, inputs, true);
    let mut twin = Twin::new(spec, inputs, 0..spec.rows);
    let nq = if spec.kind == Kind::Batch {
        BATCH_NQ
    } else {
        1
    };
    let ask = |target: &mut Target, questions: &[Vec<WordId>]| match questions {
        [one] => usize::from(target.ask(one).is_some()),
        many => target.ask_many(many).iter().flatten().count(),
    };
    let mut counts = Counts::default();
    let (mut untraced_ns, mut ask_ns, mut parts) = (Vec::new(), Vec::new(), Vec::new());
    let (ranges, chunk) = sweep_plan(&twin);
    let mut sweep_ns = Vec::new();
    let started = Instant::now();
    let mut k = 0usize;
    while started.elapsed().as_secs_f64() < seconds * TRACED_SHARE {
        let first = (k * nq) % QUESTIONS;
        let questions = &inputs.questions[first..first + nq];
        let request = k as u64;
        let root = rec.begin("bench.request", None, request);
        let mut ok = 0;
        for traced_turn in turns(k) {
            if traced_turn {
                let span = rec.begin("serve.session_ask", Some(root), request);
                ok = ask(&mut target, questions);
                ask_ns.push(rec.end(span) as f64);
            } else {
                let span = rec.begin("serve.session_ask_untraced", Some(root), request);
                ask(&mut untraced, questions);
                untraced_ns.push(rec.end(span) as f64);
            }
        }
        parts.push(twin.replay_ask(rec, root, request, questions));
        if spec.kind == Kind::Scan {
            // One hop's kernel sweep beside the calls it is a share of.
            let u = twin.embed_questions(questions).remove(0);
            let span = rec.begin("tensor.kernel_sweep", Some(root), request);
            match twin.store.quant() {
                Some(mirror) => sweep_i8(&ranges, chunk, mirror, &u),
                None => sweep_f32(&ranges, chunk, &twin.store, &u),
            }
            sweep_ns.push(rec.end(span) as f64);
        }
        rec.end(root);
        counts.attempted += nq as u64;
        counts.failed += (nq - ok) as u64;
        k += 1;
    }
    drop(untraced);
    trace_overhead(&untraced_ns, &ask_ns, layers);
    let (ask, forward) = ask_metrics(nq, &ask_ns, &parts, layers);
    let loop_sweep_ns = (!sweep_ns.is_empty()).then(|| median_ns(&sweep_ns));

    let first = spec.sentences() - BURST;
    append_side(
        rec,
        inputs,
        first,
        |s| target.observe(s),
        &mut twin,
        layers,
        &mut counts,
    );

    let Target::Session(session) = &target else {
        unreachable!("static workloads run on a bare session");
    };
    session_ratios(session, nq, layers);
    drop(target);
    probe_engine(
        spec,
        &mut twin,
        inputs,
        ask,
        forward,
        1.0,
        loop_sweep_ns,
        layers,
    );
    probe_small_kernels(&twin, inputs, layers);
    counts
}

/// `churn_window`: a `SessionPool` tenant over a full sliding window.
fn churn_pass(
    spec: &Spec,
    inputs: &Inputs,
    seconds: f64,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> Counts {
    let mut untraced = workloads::build_target(spec, inputs, false);
    let mut target = workloads::build_target(spec, inputs, true);
    // A bare session beside the pool, so the pool's own cost shows.
    let mut session =
        Session::new(inputs.model.clone(), spec.session_config(true)).expect("session");
    (0..spec.rows).for_each(|i| {
        session.observe(inputs.sentences.get(i)).expect("observe");
    });
    session.ask(&inputs.questions[0]).expect("warm-up ask");
    let mut twin = Twin::new(spec, inputs, 0..spec.rows);
    let chunk = twin.plan.config.chunk_size;

    let mut counts = Counts::default();
    let (mut untraced_ns, mut pool_ask, mut sess_ask, mut parts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut observe_self, mut pushes, mut evicts, mut probes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut k = 0usize;
    while started.elapsed().as_secs_f64() < seconds * TRACED_SHARE {
        let sentence = inputs.sentences.get(spec.churn_sentence(spec.rows + k));
        let request = 2 * k as u64;
        let root = rec.begin("bench.request", None, request);
        rec.time("serve.pool_observe_untraced", Some(root), request, || {
            untraced.observe(sentence)
        });
        let ok = rec.time("serve.pool_observe", Some(root), request, || {
            target.observe(sentence)
        });
        let span = rec.begin("serve.session_observe", Some(root), request);
        session.observe(sentence).expect("observe");
        let observe = rec.end(span);
        let (embed, evict, push) = twin.replay_observe(rec, root, request, sentence, spec.rows);
        rec.end(root);
        observe_self.push(observe as f64 - (embed + evict + push) as f64);
        pushes.push(push as f64);
        evicts.push(evict as f64);
        counts.attempted += 1;
        counts.failed += u64::from(!ok);

        let question = &inputs.questions[k % QUESTIONS];
        let request = request + 1;
        let root = rec.begin("bench.request", None, request);
        let mut ok = false;
        for traced_turn in turns(k) {
            if traced_turn {
                let span = rec.begin("serve.pool_ask", Some(root), request);
                ok = target.ask(question).is_some();
                pool_ask.push(rec.end(span) as f64);
            } else {
                let span = rec.begin("serve.pool_ask_untraced", Some(root), request);
                untraced.ask(question);
                untraced_ns.push(rec.end(span) as f64);
            }
        }
        let span = rec.begin("serve.session_ask", Some(root), request);
        session.ask(question).expect("ask");
        sess_ask.push(rec.end(span) as f64);
        parts.push(twin.replay_ask(rec, root, request, std::slice::from_ref(question)));
        // The index probe alone (the replayed forward repeats it per hop).
        let u = rec.time("memnn.embed_question", Some(root), request, || {
            twin.embed_questions(std::slice::from_ref(question))
                .remove(0)
        });
        twin.store.enable_index();
        let index = twin.store.index().expect("index just synced");
        let span = rec.begin("core.index_probe", Some(root), request);
        black_box(index.probe(&u, twin.topk, twin.nprobe, chunk));
        probes.push(rec.end(span) as f64);
        rec.end(root);
        counts.attempted += 1;
        counts.failed += u64::from(!ok);
        k += 1;
    }
    drop(untraced);
    trace_overhead(&untraced_ns, &pool_ask, layers);
    let (_, forward) = ask_metrics(1, &sess_ask, &parts, layers);
    let pool_self: Vec<f64> = pool_ask.iter().zip(&sess_ask).map(|(p, s)| p - s).collect();
    layers.insert("serve.pool_self_us", median_ns(&pool_self) / 1e3);
    layers.insert("serve.observe_self_us", median_ns(&observe_self) / 1e3);
    layers.insert("core.store_push_us", median_ns(&pushes) / 1e3);
    layers.insert("core.store_evict_us", median_ns(&evicts) / 1e3);
    layers.insert("core.index_probe_us", median_ns(&probes) / 1e3);

    let Target::Pool(pool) = &target else {
        unreachable!("churn_window runs on a pool");
    };
    let stats = pool.stats();
    let asked = stats.questions_answered.max(1) as f64;
    let inf = stats.inference;
    let scored_share = inf.candidates_scored as f64
        / (inf.candidates_scored + inf.rows_skipped_by_index).max(1) as f64;
    layers.insert(
        "core.index_candidates_mean",
        inf.candidates_scored as f64 / asked / HOPS as f64,
    );
    layers.insert("core.index_skip_share", 1.0 - scored_share);
    layers.insert(
        "core.index_decline_share",
        stats.sparse_fallbacks as f64 / asked,
    );
    layers.insert("serve.batch_occupancy_mean", 1.0);
    let lookups = (stats.embed_hits + stats.embed_misses).max(1) as f64;
    layers.insert("serve.embed_hit_share", stats.embed_hits as f64 / lookups);
    layers.insert(
        "serve.degraded_share",
        stats.degraded_answers as f64 / asked,
    );
    layers.insert(
        "serve.sparse_fallback_share",
        stats.sparse_fallbacks as f64 / asked,
    );
    layers.insert("serve.shed_share", stats.shed_questions as f64 / asked);
    layers.insert(
        "serve.deadline_miss_share",
        stats.deadline_misses as f64 / asked,
    );
    drop(target);
    drop(session);

    let version = twin.store.version();
    let rows = twin.rows();
    let build_s = median_of(3, || {
        black_box(ClusterIndex::build(twin.store.m_in(), rows, version));
    });
    layers.insert("core.index_build_ms", build_s * 1e3);
    let mut index = ClusterIndex::build(twin.store.m_in(), rows, version);
    const PUSHES: usize = 256;
    let t = Instant::now();
    for r in 0..PUSHES {
        index.push(twin.store.m_in().row(r), version + 1 + r as u64);
    }
    layers.insert(
        "core.index_push_us",
        t.elapsed().as_secs_f64() * 1e6 / PUSHES as f64,
    );

    let ask = median_ns(&pool_ask);
    probe_engine(
        spec,
        &mut twin,
        inputs,
        ask,
        forward,
        scored_share,
        None,
        layers,
    );
    probe_small_kernels(&twin, inputs, layers);
    counts
}

/// `serve_net`: concurrency-1 round trips against the coalescing server
/// and a batch-of-one server, each replayed in process, then short paced
/// and saturation phases for the server's own counters.
fn net_pass(
    spec: &Spec,
    inputs: &Inputs,
    seconds: f64,
    seed: u64,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> Counts {
    let rig = net::spawn(spec, inputs, true, true);
    let rig_batch1 = net::spawn(spec, inputs, true, false);
    let rig_untraced = net::spawn(spec, inputs, false, false);
    let config = spec.session_config(true);
    let mut pool = SessionPool::new(inputs.model.clone(), config).expect("pool");
    pool.create_tenant(TENANT).expect("tenant");
    let mut session = Session::new(inputs.model.clone(), config).expect("session");
    for i in 0..spec.rows {
        pool.observe(TENANT, inputs.sentences.get(i))
            .expect("observe");
        session.observe(inputs.sentences.get(i)).expect("observe");
    }
    let mut twin = Twin::new(spec, inputs, 0..spec.rows);
    let connect = |addr| NetClient::connect(addr, &net::token(0)).expect("connect").0;
    let (mut client, mut client_batch1, mut client_untraced) = (
        connect(rig.addr),
        connect(rig_batch1.addr),
        connect(rig_untraced.addr),
    );

    let mut counts = Counts::default();
    let (mut trips, mut trips_batch1, mut trips_untraced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pool_ask, mut sess_ask, mut parts) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut k = 0usize;
    while started.elapsed().as_secs_f64() < seconds * TRACED_SHARE {
        let question = &inputs.questions[k % QUESTIONS];
        let request = k as u64;
        let root = rec.begin("bench.request", None, request);
        let span = rec.begin("net.roundtrip", Some(root), request);
        let ok = matches!(client.ask_tokens(question), Ok(Response::Answer(_)));
        trips.push(rec.end(span) as f64);
        let (mut ok1, mut ok2) = (false, false);
        for traced_turn in turns(k) {
            if traced_turn {
                let span = rec.begin("net.roundtrip_batch1", Some(root), request);
                ok1 = matches!(client_batch1.ask_tokens(question), Ok(Response::Answer(_)));
                trips_batch1.push(rec.end(span) as f64);
            } else {
                let span = rec.begin("net.roundtrip_batch1_untraced", Some(root), request);
                ok2 = matches!(
                    client_untraced.ask_tokens(question),
                    Ok(Response::Answer(_))
                );
                trips_untraced.push(rec.end(span) as f64);
            }
        }
        let span = rec.begin("serve.pool_ask", Some(root), request);
        pool.ask(TENANT, question).expect("ask");
        pool_ask.push(rec.end(span) as f64);
        let span = rec.begin("serve.session_ask", Some(root), request);
        session.ask(question).expect("ask");
        sess_ask.push(rec.end(span) as f64);
        parts.push(twin.replay_ask(rec, root, request, std::slice::from_ref(question)));
        rec.end(root);
        counts.attempted += 3;
        counts.failed += u64::from(!ok) + u64::from(!ok1) + u64::from(!ok2);
        k += 1;
    }
    // Batch-of-one servers, so the fixed coalescing wait does not drown it.
    trace_overhead(&trips_untraced, &trips_batch1, layers);
    let (_, forward) = ask_metrics(1, &sess_ask, &parts, layers);
    let pool_self: Vec<f64> = pool_ask.iter().zip(&sess_ask).map(|(p, s)| p - s).collect();
    layers.insert("serve.pool_self_us", median_ns(&pool_self) / 1e3);
    let (trip, trip1, in_process) = (
        median_ns(&trips),
        median_ns(&trips_batch1),
        median_ns(&pool_ask),
    );
    layers.insert("net.roundtrip_c1_us", trip / 1e3);
    layers.insert("net.overhead_us", (trip1 - in_process) / 1e3);
    layers.insert("serve.coalesce_wait_us", (trip - trip1) / 1e3);
    print_reconcile(
        "net round trip",
        &[
            ("pool_ask", in_process),
            ("net_overhead", trip1 - in_process),
            ("coalesce_wait", trip - trip1),
        ],
        ("roundtrip_c1", trip),
    );

    // Observes are never coalesced; one server is enough.
    let first = spec.sentences() - BURST;
    let mut wire = Vec::new();
    for i in first..first + TRACED_BURST {
        let request = (1 << 33) + i as u64;
        let span = rec.begin("net.observe_roundtrip", None, request);
        let ok = client.observe_tokens(inputs.sentences.get(i)).is_ok();
        wire.push(rec.end(span) as f64);
        counts.attempted += 1;
        counts.failed += u64::from(!ok);
    }
    layers.insert("net.observe_roundtrip_us", median_ns(&wire) / 1e3);
    append_side(
        rec,
        inputs,
        first,
        |s| session.observe(s).is_ok(),
        &mut twin,
        layers,
        &mut counts,
    );
    drop((
        client,
        client_batch1,
        client_untraced,
        rig_batch1,
        rig_untraced,
    ));

    // The load phases, for the generator's lateness and the server's own
    // counters (occupancy, sheds, frames).
    let schedule = crate::inputs::poisson_schedule(NET_PACED_QPS, seconds * NET_PHASE_SHARE, seed);
    let mut firsts = net::firsts();
    let paced = net::paced(rig.addr, inputs, &schedule, &mut firsts);
    layers.insert(
        "net.generator_lag_p99_us",
        stats::percentile_of(&paced.lag_us, 99.0),
    );
    let before = net::server_stats(rig.addr);
    let sat = net::saturate(
        rig.addr,
        inputs,
        seconds * NET_PHASE_SHARE,
        &mut firsts,
        &mut Vec::new,
    );
    let after = net::server_stats(rig.addr);
    for phase in [&paced, &sat] {
        counts.attempted += phase.tally.sent;
        counts.failed += phase.tally.failed + phase.inconsistent;
    }
    let asked = (after.questions_answered - before.questions_answered).max(1) as f64;
    let batches = (after.batches_dispatched - before.batches_dispatched).max(1) as f64;
    let batched = (after.batched_questions - before.batched_questions) as f64;
    let frames = (after.net_frames_in - before.net_frames_in)
        + (after.net_frames_out - before.net_frames_out);
    layers.insert("serve.batch_occupancy_mean", batched / batches);
    // Two of the frames are the stats request and its response.
    layers.insert(
        "net.frames_per_ask",
        frames.saturating_sub(2) as f64 / asked,
    );
    layers.insert(
        "serve.shed_share",
        (after.shed_questions - before.shed_questions) as f64 / asked,
    );
    layers.insert(
        "serve.deadline_miss_share",
        (after.deadline_misses - before.deadline_misses) as f64 / asked,
    );
    layers.insert(
        "serve.degraded_share",
        (after.degraded_answers - before.degraded_answers) as f64 / asked,
    );
    // The wire statistics carry no cache counters; the in-process pool saw
    // the same questions and sentences through the same shared cache.
    let stats = pool.stats();
    let lookups = (stats.embed_hits + stats.embed_misses).max(1) as f64;
    layers.insert("serve.embed_hit_share", stats.embed_hits as f64 / lookups);
    drop(rig);

    probe_engine(spec, &mut twin, inputs, trip, forward, 1.0, None, layers);
    probe_small_kernels(&twin, inputs, layers);
    counts
}

/// Runs the traced pass of `spec`, writes the spans beside the executable
/// and returns the per-layer metrics.
pub fn traced(spec: &Spec, inputs: &Inputs, seconds: f64, seed: u64) -> Outcome {
    let mut rec = Recorder::new();
    let mut layers = Layers::new();
    let counts = match spec.kind {
        Kind::Scan | Kind::Batch => session_pass(spec, inputs, seconds, &mut rec, &mut layers),
        Kind::Churn => churn_pass(spec, inputs, seconds, &mut rec, &mut layers),
        Kind::Net => net_pass(spec, inputs, seconds, seed, &mut rec, &mut layers),
    };
    probe_codec(inputs, &mut layers);
    // Time inside a request that no layer span covers: what the span
    // bookkeeping itself costs, to hold against the numbers above.
    layers.insert(
        "bench.span_self_ns",
        median_ns(&rec.self_times("bench.request")),
    );

    // Spans stay in memory until here: one write, at exit.
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-trace")));
    let written = dir.and_then(|dir| {
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, rec.to_json()).ok()?;
        Some(path)
    });
    match &written {
        Some(path) => println!("spans {} written to {}", rec.spans().len(), path.display()),
        None => println!(
            "spans {} NOT written (no writable directory)",
            rec.spans().len()
        ),
    }

    let metrics: Vec<(String, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            (
                name.to_owned(),
                layers.get(name).copied().unwrap_or(0.0),
                unit,
            )
        })
        .collect();
    for (name, value, unit) in &metrics {
        println!("layer {} {} = {} {}", spec.name, name, value, unit);
    }
    let correct =
        counts.failed == 0 && written.is_some() && metrics.iter().all(|m| m.1.is_finite());
    Outcome {
        correct,
        attempted: counts.attempted,
        failed: counts.failed,
        metrics,
    }
}
