//! The generated parity lattice: every cell of
//! engine x threads x [`MemView`] x softmax x skip x route x entry point x
//! batch size must reproduce, bit for bit, what the simplest cell — a plan
//! pinned to [`EngineKind::Column`] on one thread walking an unsegmented
//! plan through [`PlanExecutor::forward`] — answers for the same view,
//! softmax and skip policy. Top-K cells are held to the same oracle over
//! exactly the rows their probe hands to rescoring: a [`Route::Plan`] over
//! the covered chunk runs (plan mode) or a memory holding exactly the
//! candidates (gather mode).
//!
//! That oracle is itself a lattice cell, so on the f32 plane every answer
//! it gives is also held to [`reference_fold`], the two-pass dataflow the
//! fused chunk kernels replace, written with tensor primitives only (see
//! [`check_reference`] for the contract). Int8 answers have no such
//! reference yet.
//!
//! Shared by `crates/core/tests/executor.rs` (the full lattice) and the
//! root `tests/end_to_end.rs` (a sub-second cut that tier-1 runs).

// Each includer runs one of the two axis sets.
#![allow(dead_code)]

use mnn_tensor::simd::{self, Backend};
use mnn_tensor::softmax::{LazyAccumulator, OnlineSoftmax};
use mnn_tensor::{kernels, Matrix, QuantMatrix};
use mnnfast::{
    multi_hop, multi_hop_batch, Budget, ClusterIndex, ColumnOutput, EngineKind, ExecPlan,
    InferenceStats, MemView, MnnFastConfig, PlanExecutor, Route, Scratch, SegmentMap, SegmentPlan,
    SkipPolicy, SoftmaxMode, Trace,
};
use std::cell::Cell;

/// Rows not a multiple of the chunk size, so the last chunk is short.
const ROWS: usize = 203;
const CHUNK: usize = 8;
const HOPS: usize = 3;
const TOPK: usize = 24;
const NPROBE: usize = 2;

/// Which rows a cell attends over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteKind {
    Unsegmented,
    Routed { prune: bool },
    TopKPlan,
    TopKGather,
}

/// Which entry point a cell goes through. The batch and hop entries run
/// every batch size of [`Axes::nqs`]; the single-question entry runs one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Entry {
    Forward,
    Batch,
    Hops,
}

/// The axes of one lattice run.
pub struct Axes {
    pub engines: &'static [EngineKind],
    pub threads: &'static [usize],
    pub eds: &'static [usize],
    pub int8: &'static [bool],
    pub softmax: &'static [SoftmaxMode],
    pub skips: &'static [SkipPolicy],
    pub routes: &'static [RouteKind],
    pub entries: &'static [Entry],
    /// Questions per batch: below, at and above the thread count reach
    /// both splits of the one pass (by chunk range and by question range).
    pub nqs: &'static [usize],
}

/// Every cell.
pub const FULL: Axes = Axes {
    engines: &[EngineKind::Column, EngineKind::Parallel, EngineKind::Auto],
    threads: &[1, 3],
    eds: &[63, 65],
    int8: &[false, true],
    softmax: &[SoftmaxMode::Lazy, SoftmaxMode::Online],
    skips: &[SkipPolicy::None, SkipPolicy::RawWeight(0.9)],
    routes: &[
        RouteKind::Unsegmented,
        RouteKind::Routed { prune: false },
        RouteKind::Routed { prune: true },
        RouteKind::TopKPlan,
        RouteKind::TopKGather,
    ],
    entries: &[Entry::Forward, Entry::Batch, Entry::Hops],
    nqs: &[1, 2, 4],
};

/// The tier-1 cut: one value per axis that every other axis is crossed
/// with, chosen so each walk, each plane, each route and each entry point
/// is exercised at least once.
pub const CUT: Axes = Axes {
    engines: &[EngineKind::Parallel, EngineKind::Auto],
    threads: &[3],
    eds: &[65],
    int8: &[false, true],
    softmax: &[SoftmaxMode::Online],
    skips: &[SkipPolicy::RawWeight(0.9)],
    routes: &[
        RouteKind::Routed { prune: true },
        RouteKind::TopKPlan,
        RouteKind::TopKGather,
    ],
    entries: &[Entry::Forward, Entry::Batch, Entry::Hops],
    nqs: &[1, 2, 4],
};

/// Four lobes of rows pointing in distinct directions (so k-means finds
/// real structure) with a smooth per-row texture. `interleaved` deals the
/// lobes round-robin, scattering every cluster across all chunks (probes
/// gather); otherwise lobes are contiguous blocks (probes cover chunk
/// runs). Magnitudes keep every logit far below the lazy `e^x` overflow.
fn memories(ed: usize, interleaved: bool) -> (Matrix, Matrix) {
    let m_in = Matrix::from_fn(ROWS, ed, |r, c| {
        let lobe = if interleaved { r % 4 } else { r * 4 / ROWS };
        ((lobe as f32 * 1.7 + c as f32) * 0.9).cos() * 0.15
            + ((r / 4) as f32 * 0.05 + c as f32 * 0.5).sin() * 0.01
    });
    let m_out = Matrix::from_fn(ROWS, ed, |r, c| ((r + 2 * c) as f32 * 0.07).cos() * 0.5);
    (m_in, m_out)
}

fn questions(ed: usize) -> Vec<Vec<f32>> {
    (0..4)
        .map(|q| {
            (0..ed)
                .map(|c| ((q as f32 * 1.7 + c as f32) * 0.9).cos() * 0.2 + 0.01)
                .collect()
        })
        .collect()
}

/// What a cell is compared on: response bits, denominator bits, and the
/// row/segment counters.
#[derive(Debug, Default, PartialEq)]
struct Answer {
    o: Vec<u32>,
    denominator: u32,
    rows_covered: u64,
    segments_total: u64,
}

impl Answer {
    fn of(out: &ColumnOutput) -> Self {
        Answer {
            o: out.o.iter().map(|x| x.to_bits()).collect(),
            denominator: out.denominator.to_bits(),
            rows_covered: out.stats.rows_total + out.stats.rows_pruned,
            segments_total: out.stats.segments_total,
        }
    }

    /// Folds hop `next` onto a chain: the bits of every hop's response in
    /// order, counters summed. A hop chain reports no denominator (its
    /// last hop's response bits already pin it).
    fn then(mut self, next: Answer) -> Self {
        self.o.extend(next.o);
        self.denominator = 0;
        self.rows_covered += next.rows_covered;
        self.segments_total += next.segments_total;
        self
    }
}

/// Rows `rows` of `m`, in order, as a memory of their own.
fn pick(m: &Matrix, rows: &[usize]) -> Matrix {
    let rows: Vec<&[f32]> = rows.iter().map(|&r| m.row(r)).collect();
    Matrix::from_rows(&rows).expect("picked rows")
}

/// The inline walk of `config`: the plan pinned to [`EngineKind::Column`].
pub fn column(config: MnnFastConfig) -> PlanExecutor {
    ExecPlan::new(config)
        .with_kind(EngineKind::Column)
        .executor()
}

/// One pass of `exec` over every row of an f32 memory, with a fresh
/// scratch, no trace and no budget: with [`column`], the lone pass the
/// parity suites compare batches, splits and planes against.
pub fn whole(exec: &PlanExecutor, m_in: &Matrix, m_out: &Matrix, u: &[f32]) -> ColumnOutput {
    let rows = SegmentPlan::unsegmented(m_in.rows());
    pass(exec, MemView::from((m_in, m_out)), Route::Plan(&rows), u)
}

/// One pass with a fresh scratch, no trace and no budget.
pub fn pass(exec: &PlanExecutor, view: MemView<'_>, route: Route<'_>, u: &[f32]) -> ColumnOutput {
    let (mut scratch, mut trace) = (Scratch::new(), Trace::disabled());
    exec.forward(
        view,
        route,
        u,
        &mut scratch,
        &mut trace,
        &Budget::unlimited(),
    )
    .expect("lattice pass")
}

/// The two-pass dataflow the fused chunk kernels replace, as the reference
/// the Column walk is held to: per chunk `kernels::gemv_chunk`, then the
/// per-row tensor primitives (`LazyAccumulator::add_weighted` /
/// `OnlineSoftmax::add`, or their `add_skipped` forms) into a fresh chunk
/// partial merged in chunk order. Counters follow the engine's accounting
/// rule, written out here. Probability thresholds are resolved as the
/// pass's pre-pass does (f64 sums over the logits in row order, the max in
/// f32). Returns `(o, denominator, stats)`.
pub fn reference_fold(
    cfg: MnnFastConfig,
    m_in: &Matrix,
    m_out: &Matrix,
    u: &[f32],
) -> (Vec<f32>, f32, InferenceStats) {
    let (ns, ed) = (m_in.rows(), u.len());
    let mut stats = InferenceStats::default();
    let mut all = vec![0.0f32; ns];
    kernels::gemv_chunk(m_in.as_slice(), ns, u, &mut all);
    let threshold = match cfg.skip {
        SkipPolicy::None => None,
        SkipPolicy::RawWeight(th) => Some(th),
        SkipPolicy::Probability(th) => {
            let (mut max, mut rel, mut raw) = (f64::NEG_INFINITY, 0.0f64, 0.0f64);
            for &x in &all {
                if x > max as f32 {
                    rel *= ((max as f32 - x) as f64).exp();
                    max = x as f64;
                }
                rel += ((x - max as f32) as f64).exp();
                raw += (x as f64).exp();
            }
            stats.flops += kernels::gemv_flops(ns, ed) + ns as u64;
            stats.memory_bytes += (ns * ed * 4) as u64;
            let denom = match cfg.softmax {
                SoftmaxMode::Lazy => raw,
                SoftmaxMode::Online => rel,
            };
            Some((th as f64 * denom) as f32)
        }
    };
    let mut lazy = LazyAccumulator::new(ed);
    let mut online = OnlineSoftmax::new(ed);
    for start in (0..ns).step_by(cfg.chunk_size) {
        let n = cfg.chunk_size.min(ns - start);
        let mut logits = vec![0.0f32; n];
        kernels::gemv_chunk(m_in.rows_slice(start, n), n, u, &mut logits);
        let rows = m_out.rows_slice(start, n);
        let row = |i: usize| &rows[i * ed..(i + 1) * ed];
        let mut skipped = 0u64;
        match cfg.softmax {
            SoftmaxMode::Lazy => {
                let mut part = LazyAccumulator::new(ed);
                for (i, &x) in logits.iter().enumerate() {
                    let w = x.exp();
                    match threshold {
                        Some(th) if w < th => {
                            part.add_skipped(w);
                            skipped += 1;
                        }
                        _ => part.add_weighted(w, row(i)),
                    }
                }
                lazy.merge(&part);
            }
            SoftmaxMode::Online => {
                let mut part = OnlineSoftmax::new(ed);
                for (i, &x) in logits.iter().enumerate() {
                    match threshold {
                        Some(th) if part.relative_weight(x) < th => {
                            part.add_skipped(x);
                            skipped += 1;
                        }
                        _ => part.add(x, row(i)),
                    }
                }
                online.merge(&part);
            }
        }
        // Inner products, one exponential per row, the kept weighted sums;
        // every `M_IN` row read and every kept `M_OUT` row accumulated.
        let kept = n as u64 - skipped;
        stats.flops += kernels::gemv_flops(n, ed) + n as u64 + kept * 2 * ed as u64;
        stats.rows_total += n as u64;
        stats.rows_skipped += skipped;
        stats.memory_bytes += ((n as u64 + kept) * ed as u64) * 4;
    }
    stats.divisions += ed as u64;
    stats.flops += ed as u64;
    match cfg.softmax {
        SoftmaxMode::Lazy => (lazy.clone().finish(), lazy.denom(), stats),
        SoftmaxMode::Online => (online.clone().finish(), online.denom(), stats),
    }
}

/// Holds one Column-walk answer over every row of `m_in`/`m_out` to
/// [`reference_fold`]: the work counters always agree; the output and
/// denominator are bitwise in online mode on every backend and in lazy mode
/// on the scalar backend (libm `exp` on both sides), and within 1e-4 in
/// lazy mode on AVX2 (the fused kernel's fast exp).
pub fn check_reference(
    cfg: MnnFastConfig,
    m_in: &Matrix,
    m_out: &Matrix,
    u: &[f32],
    out: &ColumnOutput,
    ctx: &str,
) {
    let (o, denominator, stats) = reference_fold(cfg, m_in, m_out, u);
    let got = &out.stats;
    assert_eq!(got.rows_total, stats.rows_total, "{ctx}: rows_total");
    assert_eq!(got.rows_skipped, stats.rows_skipped, "{ctx}: rows_skipped");
    assert_eq!(got.flops, stats.flops, "{ctx}: flops");
    assert_eq!(got.memory_bytes, stats.memory_bytes, "{ctx}: memory_bytes");
    assert_eq!(got.divisions, stats.divisions, "{ctx}: divisions");
    if simd::backend() == Backend::Scalar || cfg.softmax == SoftmaxMode::Online {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.o), bits(&o), "{ctx}: o");
        assert_eq!(
            out.denominator.to_bits(),
            denominator.to_bits(),
            "{ctx}: denominator"
        );
    } else {
        mnn_tensor::assert_slice_approx_eq(&out.o, &o, 1e-4);
        assert!(
            mnn_tensor::approx_eq(out.denominator, denominator, 1e-4),
            "{ctx}: denominator {} vs {denominator}",
            out.denominator
        );
    }
}

/// One fixture (an `ed`, a layout, a plane) and the oracle over it.
struct Fixture<'a> {
    view: MemView<'a>,
    index: &'a ClusterIndex,
    map: &'a SegmentMap,
    config: MnnFastConfig,
    oracle: PlanExecutor,
    /// Oracle answers held to [`reference_fold`] so far.
    referenced: &'a Cell<usize>,
}

impl Fixture<'_> {
    /// The oracle's pass over `route`'s rows of `view`. On the f32 plane
    /// `held` is those rows back to back — the whole memory, or the rows a
    /// probe handed to rescoring — and the answer is also held to
    /// [`reference_fold`] over them.
    fn oracle_pass(
        &self,
        view: MemView<'_>,
        route: Route<'_>,
        u: &[f32],
        held: Option<(&Matrix, &Matrix)>,
    ) -> Answer {
        let out = pass(&self.oracle, view, route, u);
        if let Some((m_in, m_out)) = held {
            let ctx = format!(
                "oracle vs two-pass reference: {:?} ed={}",
                self.config,
                u.len()
            );
            check_reference(self.config, m_in, m_out, u, &out, &ctx);
            self.referenced.set(self.referenced.get() + 1);
        }
        Answer::of(&out)
    }

    /// What the oracle answers for one question over `route`'s rows: the
    /// unsegmented pass for plan routes (with the segment count the route
    /// must report), the probe's rows walked explicitly for top-K routes.
    fn expect(&self, route: RouteKind, u: &[f32]) -> Answer {
        let whole = SegmentPlan::unsegmented(ROWS);
        let full = match self.view {
            MemView::F32 { m_in, m_out } => Some((m_in, m_out)),
            MemView::Int8 { .. } => None,
        };
        let rows: Vec<usize> = match route {
            RouteKind::Unsegmented => {
                return self.oracle_pass(self.view, Route::Plan(&whole), u, full);
            }
            RouteKind::Routed { .. } => {
                return Answer {
                    segments_total: self.map.len() as u64,
                    ..self.oracle_pass(self.view, Route::Plan(&whole), u, full)
                };
            }
            RouteKind::TopKPlan | RouteKind::TopKGather => {
                let probe = self.index.probe(u, TOPK, NPROBE, CHUNK);
                assert!(!probe.low_margin, "lattice geometry must probe confidently");
                let n = probe.candidates.len();
                let plan_mode = probe.covered.rows() <= 2 * n;
                assert_eq!(
                    plan_mode,
                    route == RouteKind::TopKPlan,
                    "{route:?}: wrong mode"
                );
                if plan_mode {
                    // Covered runs are chunk-aligned and only the memory's
                    // last chunk is short, so the covered rows held back
                    // to back chunk exactly as the routed plan walks them.
                    let covered = SegmentPlan::routed(&probe.covered, false);
                    let held = full.map(|(m_in, m_out)| {
                        let rows: Vec<usize> = probe
                            .covered
                            .segments()
                            .iter()
                            .flat_map(|s| s.start..s.start + s.rows)
                            .collect();
                        (pick(m_in, &rows), pick(m_out, &rows))
                    });
                    let held = held.as_ref().map(|(i, o)| (i, o));
                    return self.oracle_pass(self.view, Route::Plan(&covered), u, held);
                }
                probe.candidates.iter().map(|&r| r as usize).collect()
            }
        };
        let only = SegmentPlan::unsegmented(rows.len());
        match self.view {
            MemView::F32 { m_in, m_out } => {
                let (m_in, m_out) = (&pick(m_in, &rows), &pick(m_out, &rows));
                let held = MemView::F32 { m_in, m_out };
                self.oracle_pass(held, Route::Plan(&only), u, Some((m_in, m_out)))
            }
            MemView::Int8 { m_in, m_out } => {
                let pick = |m: &QuantMatrix| {
                    let mut held = QuantMatrix::new(m.cols());
                    rows.iter()
                        .for_each(|&r| held.push_quantized_row(m.row(r), m.scale(r)));
                    held
                };
                let (m_in, m_out) = (&pick(m_in), &pick(m_out));
                let held = MemView::Int8 { m_in, m_out };
                self.oracle_pass(held, Route::Plan(&only), u, None)
            }
        }
    }

    /// The oracle's answer to every slot of `entry` over `us`.
    fn expect_entry(&self, route: RouteKind, entry: Entry, us: &[Vec<f32>]) -> Vec<Answer> {
        match entry {
            Entry::Forward | Entry::Batch => us.iter().map(|u| self.expect(route, u)).collect(),
            Entry::Hops => us
                .iter()
                .map(|u| {
                    let mut u = u.clone();
                    let mut chain = Answer::default();
                    for _ in 0..HOPS {
                        let hop = self.expect(route, &u);
                        for (ui, oi) in u.iter_mut().zip(&hop.o) {
                            *ui += f32::from_bits(*oi);
                        }
                        chain = chain.then(hop);
                    }
                    chain
                })
                .collect(),
        }
    }

    /// What `exec` answers through `entry` for every question of `us`.
    fn got(
        &self,
        exec: &PlanExecutor,
        route: RouteKind,
        entry: Entry,
        us: &[Vec<f32>],
    ) -> Vec<Answer> {
        let whole = SegmentPlan::unsegmented(ROWS);
        let routed;
        let route = match route {
            RouteKind::Unsegmented => Route::Plan(&whole),
            RouteKind::Routed { prune } => {
                routed = SegmentPlan::routed(self.map, prune);
                Route::Plan(&routed)
            }
            RouteKind::TopKPlan | RouteKind::TopKGather => Route::TopK {
                index: self.index,
                topk: TOPK,
                nprobe: NPROBE,
            },
        };
        let (mut scratch, mut trace) = (Scratch::new(), Trace::disabled());
        let budgets = vec![Budget::unlimited(); us.len()];
        match entry {
            Entry::Forward => vec![Answer::of(&pass(exec, self.view, route, &us[0]))],
            Entry::Batch => exec
                .forward_batch(self.view, route, us, &mut scratch, &mut trace, &budgets)
                .expect("lattice batch")
                .iter()
                .map(|slot| Answer::of(slot.as_ref().expect("lattice batch slot")))
                .collect(),
            Entry::Hops => {
                let out = multi_hop(
                    exec,
                    self.view,
                    route,
                    &us[0],
                    HOPS,
                    &mut scratch,
                    &mut trace,
                    &Budget::unlimited(),
                )
                .expect("lattice hops");
                let batched = multi_hop_batch(
                    exec,
                    self.view,
                    route,
                    us,
                    HOPS,
                    &mut scratch,
                    &mut trace,
                    &budgets,
                )
                .expect("lattice batched hops");
                // A lone chain is the batch's first slot.
                assert_eq!(batched[0].as_ref().expect("hop slot").per_hop, out.per_hop);
                batched
                    .iter()
                    .map(|slot| {
                        let out = slot.as_ref().expect("lattice hop slot");
                        Answer {
                            o: out.per_hop.iter().flatten().map(|x| x.to_bits()).collect(),
                            denominator: 0,
                            rows_covered: out.stats.rows_total + out.stats.rows_pruned,
                            segments_total: out.stats.segments_total,
                        }
                    })
                    .collect()
            }
        }
    }
}

/// Runs every cell of `axes`; returns how many were compared, and how many
/// oracle answers were held to [`reference_fold`].
pub fn run(axes: &Axes) -> (usize, usize) {
    let mut cells = 0;
    let referenced = Cell::new(0);
    for &ed in axes.eds {
        let us = questions(ed);
        for interleaved in [false, true] {
            let (m_in, m_out) = memories(ed, interleaved);
            let (q_in, q_out) = (
                QuantMatrix::from_matrix(&m_in),
                QuantMatrix::from_matrix(&m_out),
            );
            let index = ClusterIndex::build(&m_in, ROWS, 1);
            let map = SegmentMap::from_matrix(&m_in, ROWS, 3, CHUNK);
            for &int8 in axes.int8 {
                let view = if int8 {
                    MemView::from((&q_in, &q_out))
                } else {
                    MemView::from((&m_in, &m_out))
                };
                for (&softmax, &skip) in axes
                    .softmax
                    .iter()
                    .flat_map(|s| axes.skips.iter().map(move |k| (s, k)))
                {
                    let config = MnnFastConfig::new(CHUNK)
                        .with_softmax(softmax)
                        .with_skip(skip);
                    let fixture = Fixture {
                        view,
                        index: &index,
                        map: &map,
                        config,
                        oracle: column(config),
                        referenced: &referenced,
                    };
                    for &route in axes.routes {
                        // Each layout exists to put the probe in one mode.
                        let wanted = match route {
                            RouteKind::TopKPlan => !interleaved,
                            RouteKind::TopKGather => interleaved,
                            _ => !interleaved,
                        };
                        if !wanted {
                            continue;
                        }
                        for &entry in axes.entries {
                            for &nq in axes.nqs {
                                if entry == Entry::Forward && nq > 1 {
                                    continue;
                                }
                                let us = &us[..nq];
                                let mut expected = None;
                                for &kind in axes.engines {
                                    for &threads in axes.threads {
                                        let exec = ExecPlan::new(config.with_threads(threads))
                                            .with_kind(kind)
                                            .executor();
                                        let got = fixture.got(&exec, route, entry, us);
                                        let expected = expected.get_or_insert_with(|| {
                                            fixture.expect_entry(route, entry, us)
                                        });
                                        assert_eq!(
                                            &got, &*expected,
                                            "{kind:?} x{threads} ed={ed} int8={int8} {softmax:?} \
                                             {skip:?} {route:?} {entry:?} nq={nq}"
                                        );
                                        cells += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    (cells, referenced.get())
}
