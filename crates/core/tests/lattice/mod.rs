//! The generated parity lattice: every cell of
//! engine x threads x [`MemView`] x softmax x skip x route x entry point x
//! batch size must reproduce, bit for bit, what the simplest cell — [`ColumnEngine`]
//! (the inline reference `Executor`) on one thread walking an unsegmented
//! plan through [`Executor::forward`] — answers for the same view, softmax and skip policy. Top-K cells are
//! held to the same oracle over exactly the rows their probe hands to
//! rescoring: a [`Route::Plan`] over the covered chunk runs (plan mode) or
//! a memory holding exactly the candidates (gather mode).
//!
//! Shared by `crates/core/tests/executor.rs` (the full lattice) and the
//! root `tests/end_to_end.rs` (a sub-second cut that tier-1 runs).

// Each includer runs one of the two axis sets.
#![allow(dead_code)]

use mnn_tensor::{Matrix, QuantMatrix};
use mnnfast::{
    multi_hop, multi_hop_batch, Budget, ClusterIndex, ColumnEngine, ColumnOutput, EngineKind,
    ExecPlan, Executor, MemView, MnnFastConfig, Route, Scratch, SegmentMap, SegmentPlan,
    SkipPolicy, SoftmaxMode, Trace,
};

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

/// One pass with a fresh scratch, no trace and no budget.
pub fn pass(exec: &dyn Executor, view: MemView<'_>, route: Route<'_>, u: &[f32]) -> ColumnOutput {
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

/// One fixture (an `ed`, a layout, a plane) and the oracle over it.
struct Fixture<'a> {
    view: MemView<'a>,
    index: &'a ClusterIndex,
    map: &'a SegmentMap,
    oracle: &'a dyn Executor,
}

impl Fixture<'_> {
    /// What the oracle answers for one question over `route`'s rows: the
    /// unsegmented pass for plan routes (with the segment count the route
    /// must report), the probe's rows walked explicitly for top-K routes.
    fn expect(&self, route: RouteKind, u: &[f32]) -> Answer {
        let whole = SegmentPlan::unsegmented(ROWS);
        match route {
            RouteKind::Unsegmented => {
                Answer::of(&pass(self.oracle, self.view, Route::Plan(&whole), u))
            }
            RouteKind::Routed { .. } => Answer {
                segments_total: self.map.len() as u64,
                ..Answer::of(&pass(self.oracle, self.view, Route::Plan(&whole), u))
            },
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
                    let covered = SegmentPlan::routed(&probe.covered, false);
                    return Answer::of(&pass(self.oracle, self.view, Route::Plan(&covered), u));
                }
                let rows = probe.candidates.iter().map(|&r| r as usize);
                let only = SegmentPlan::unsegmented(n);
                match self.view {
                    MemView::F32 { m_in, m_out } => {
                        let pick = |m: &Matrix| {
                            let rows: Vec<&[f32]> = rows.clone().map(|r| m.row(r)).collect();
                            Matrix::from_rows(&rows).expect("gathered rows")
                        };
                        let (m_in, m_out) = (&pick(m_in), &pick(m_out));
                        let held = MemView::F32 { m_in, m_out };
                        Answer::of(&pass(self.oracle, held, Route::Plan(&only), u))
                    }
                    MemView::Int8 { m_in, m_out } => {
                        let pick = |m: &QuantMatrix| {
                            let mut held = QuantMatrix::new(m.cols());
                            rows.clone()
                                .for_each(|r| held.push_quantized_row(m.row(r), m.scale(r)));
                            held
                        };
                        let (m_in, m_out) = (&pick(m_in), &pick(m_out));
                        let held = MemView::Int8 { m_in, m_out };
                        Answer::of(&pass(self.oracle, held, Route::Plan(&only), u))
                    }
                }
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
        exec: &dyn Executor,
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

/// Runs every cell of `axes`; returns how many were compared.
pub fn run(axes: &Axes) -> usize {
    let mut cells = 0;
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
                    let oracle = ColumnEngine::new(config);
                    let fixture = Fixture {
                        view,
                        index: &index,
                        map: &map,
                        oracle: &oracle,
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
    cells
}
