//! Serving-path allocation discipline: once a [`Scratch`] has grown to the
//! store's capacity, a forward pass through the unified executor must not
//! touch the heap at all — inline or split over the scratch's worker team,
//! whose threads are counted too — and the recycled output buffer must
//! round-trip by pointer identity.
//!
//! This lives in its own integration binary because the counting global
//! allocator observes the whole process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mnn_tensor::{Matrix, QuantMatrix};
use mnnfast::{
    Budget, ClusterIndex, EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch,
    SegmentPlan, SoftmaxMode, Trace,
};

// The counting allocator tallies per-thread but into one global counter, so
// the tests in this binary must not overlap in time.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Count only the test thread's allocations and those of engine worker
// threads: libtest's main thread stays alive alongside the test and
// allocates at unpredictable times (channel bookkeeping, output
// buffering), which made the zero-allocation assertion flaky.
// Const-initialized thread-locals are plain TLS — reading one in `alloc`
// cannot itself allocate. Each test's scratches (and so their workers) are
// gone before the next test takes the lock.
thread_local! {
    static COUNTED_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    COUNTED_THREAD.try_with(Cell::get).unwrap_or(false) || mnn_tensor::team::on_worker()
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts the current thread's allocations until dropped. Declared after
/// the [`SERIAL`] guard in every test so it is dropped *before* the lock
/// is released: a finished test's thread (still alive while libtest
/// reports its result) must not tally into the next test's window.
struct Counted;

impl Counted {
    fn start() -> Self {
        COUNTED_THREAD.with(|c| c.set(true));
        Counted
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        COUNTED_THREAD.with(|c| c.set(false));
    }
}

#[test]
fn warm_forward_pass_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _counted = Counted::start();
    let ns = 512;
    let ed = 32;
    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 3 + c) as f32 * 0.05).sin());
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 2 * c) as f32 * 0.07).cos());
    let u: Vec<f32> = (0..ed).map(|i| (i as f32 * 0.2).sin()).collect();

    // Inline, and split by chunk range over two threads. A plan pinned to
    // the Column walk stays inline whatever threads it is granted: its team
    // starts no worker.
    let cells = [
        (SoftmaxMode::Lazy, EngineKind::Column, 1, 1),
        (SoftmaxMode::Online, EngineKind::Column, 1, 1),
        (SoftmaxMode::Lazy, EngineKind::Column, 3, 1),
        (SoftmaxMode::Lazy, EngineKind::Parallel, 2, 2),
        (SoftmaxMode::Online, EngineKind::Parallel, 2, 2),
    ];
    for (mode, kind, threads, held) in cells {
        let config = MnnFastConfig::new(64).with_softmax(mode);
        let exec = ExecPlan::new(config.with_threads(threads))
            .with_kind(kind)
            .executor();
        let mut scratch = Scratch::new();
        let mut trace = Trace::enabled();

        // Warm-up: grows the logits buffer, accumulators and output pool,
        // and starts the team's worker.
        let mut expected_ptr = std::ptr::null();
        for _ in 0..2 {
            let out = exec
                .forward(
                    MemView::from((&m_in, &m_out)),
                    Route::Plan(&SegmentPlan::unsegmented(ns)),
                    &u,
                    &mut scratch,
                    &mut trace,
                    &Budget::unlimited(),
                )
                .unwrap();
            expected_ptr = out.o.as_ptr();
            scratch.recycle(out.o);
        }

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..16 {
            let out = exec
                .forward(
                    MemView::from((&m_in, &m_out)),
                    Route::Plan(&SegmentPlan::unsegmented(ns)),
                    &u,
                    &mut scratch,
                    &mut trace,
                    &Budget::unlimited(),
                )
                .unwrap();
            assert_eq!(
                out.o.as_ptr(),
                expected_ptr,
                "{mode:?} {kind:?} x{threads}: output buffer should round-trip through the pool"
            );
            scratch.recycle(out.o);
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            scratch.team().threads(),
            held,
            "{mode:?} {kind:?} x{threads}"
        );
        assert_eq!(
            after - before,
            0,
            "{mode:?} {kind:?} x{threads}: warm forward passes must not allocate"
        );
    }
}

#[test]
fn warm_batched_pass_allocates_only_the_result_vec() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _counted = Counted::start();
    let ns = 512;
    let ed = 32;
    let nq = 4;
    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 3 + c) as f32 * 0.05).sin());
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 2 * c) as f32 * 0.07).cos());
    let questions: Vec<Vec<f32>> = (0..nq)
        .map(|q| (0..ed).map(|i| ((q * ed + i) as f32 * 0.2).sin()).collect())
        .collect();
    let budgets = vec![Budget::unlimited(); nq];

    // Inline, and split by question range over three threads: four
    // questions in ranges of two, so the team holds two threads. The Column
    // pin at three threads starts none.
    let cells = [
        (SoftmaxMode::Lazy, EngineKind::Column, 1, 1),
        (SoftmaxMode::Online, EngineKind::Column, 1, 1),
        (SoftmaxMode::Lazy, EngineKind::Column, 3, 1),
        (SoftmaxMode::Lazy, EngineKind::Parallel, 3, 2),
        (SoftmaxMode::Online, EngineKind::Parallel, 3, 2),
    ];
    for (mode, kind, threads, held) in cells {
        let config = MnnFastConfig::new(64).with_softmax(mode);
        let exec = ExecPlan::new(config.with_threads(threads))
            .with_kind(kind)
            .executor();
        let mut scratch = Scratch::new();
        let mut trace = Trace::enabled();

        // Warm-up: grows the batch arena (logits tile, accumulators,
        // question block) and the output pool, and starts the workers.
        for _ in 0..2 {
            let results = exec
                .forward_batch(
                    MemView::from((&m_in, &m_out)),
                    Route::Plan(&SegmentPlan::unsegmented(ns)),
                    &questions,
                    &mut scratch,
                    &mut trace,
                    &budgets,
                )
                .unwrap();
            for r in results {
                scratch.recycle(r.unwrap().o);
            }
        }

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let calls = 16u64;
        for _ in 0..calls {
            let results = exec
                .forward_batch(
                    MemView::from((&m_in, &m_out)),
                    Route::Plan(&SegmentPlan::unsegmented(ns)),
                    &questions,
                    &mut scratch,
                    &mut trace,
                    &budgets,
                )
                .unwrap();
            for r in results {
                scratch.recycle(r.unwrap().o);
            }
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            scratch.team().threads(),
            held,
            "{mode:?} {kind:?} x{threads}"
        );
        // The only heap touch per warm batched call is the returned result
        // Vec itself — no per-chunk or per-question buffer allocations.
        assert_eq!(
            after - before,
            calls,
            "{mode:?} {kind:?} x{threads}: warm batched passes must allocate only the result vec"
        );
    }
}

/// A warm top-K pass in gather mode stages its candidates in the
/// [`Scratch`]: on either plane the pass allocates exactly what its index
/// probe allocates (the probe returns owned candidate lists) — the gather
/// and the rescoring add nothing.
#[test]
fn warm_topk_gather_adds_no_allocation_to_its_probe() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _counted = Counted::start();
    let (ns, ed, chunk, topk, nprobe) = (512, 32, 16, 24, 2);
    // Lobes dealt round-robin: every cluster is scattered over all chunks,
    // so covering the candidates' chunks would rescore ~4x too many rows.
    let m_in = Matrix::from_fn(ns, ed, |r, c| {
        (((r % 4) as f32 * 1.7 + c as f32) * 0.9).cos() * 0.15
            + ((r / 4) as f32 * 0.05 + c as f32 * 0.5).sin() * 0.01
    });
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 2 * c) as f32 * 0.07).cos());
    let (q_in, q_out) = (
        QuantMatrix::from_matrix(&m_in),
        QuantMatrix::from_matrix(&m_out),
    );
    let index = ClusterIndex::build(&m_in, ns, 1);
    let u: Vec<f32> = (0..ed).map(|c| (c as f32 * 0.9).cos() * 0.2).collect();
    let probe = index.probe(&u, topk, nprobe, chunk);
    assert!(
        !probe.low_margin && probe.covered.rows() > 2 * probe.candidates.len(),
        "fixture must put the probe in gather mode"
    );

    let exec = ExecPlan::new(MnnFastConfig::new(chunk)).executor();
    let route = Route::TopK {
        index: &index,
        topk,
        nprobe,
    };
    let views = [
        MemView::from((&m_in, &m_out)),
        MemView::from((&q_in, &q_out)),
    ];
    for view in views {
        let mut scratch = Scratch::new();
        let mut trace = Trace::enabled();
        let mut ask = |scratch: &mut Scratch| {
            let out = exec
                .forward(view, route, &u, scratch, &mut trace, &Budget::unlimited())
                .unwrap();
            assert_eq!(out.stats.candidates_scored, probe.candidates.len() as u64);
            scratch.recycle(out.o);
        };
        for _ in 0..2 {
            ask(&mut scratch);
        }
        for _ in 0..8 {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            drop(index.probe(&u, topk, nprobe, chunk));
            let probed = ALLOCATIONS.load(Ordering::Relaxed);
            ask(&mut scratch);
            let asked = ALLOCATIONS.load(Ordering::Relaxed);
            assert!(probed > before, "the probe baseline must be real");
            assert_eq!(asked - probed, probed - before, "{view:?}");
        }
    }
}
