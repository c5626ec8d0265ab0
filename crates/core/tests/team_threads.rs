//! Dropping a scratch joins its worker team: fifty scratches that each
//! split a pass over three threads, created and dropped one after another,
//! leave the process with the threads it started with.
//!
//! The only test in its binary, so no other test's threads come and go
//! while it counts.

#![cfg(target_os = "linux")]

use mnn_tensor::Matrix;
use mnnfast::{
    Budget, EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch, SegmentPlan, Trace,
};
use std::time::{Duration, Instant};

/// The process's thread count, from `Threads:` in `/proc/self/status`.
fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Polls until the thread count is `want`. A joined thread has finished
/// running, but the kernel may drop it from the count a moment later.
fn settles_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads_now() != want {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn dropped_scratches_join_their_workers() {
    let (ns, ed) = (96, 8);
    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 3 + c) as f32 * 0.05).sin());
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r + 2 * c) as f32 * 0.07).cos());
    let u: Vec<f32> = (0..ed).map(|i| (i as f32 * 0.2).sin()).collect();
    let exec = ExecPlan::new(MnnFastConfig::new(8).with_threads(3))
        .with_kind(EngineKind::Parallel)
        .executor();
    let before = threads_now();
    for round in 0..50 {
        let mut scratch = Scratch::new();
        exec.forward(
            MemView::from((&m_in, &m_out)),
            Route::Plan(&SegmentPlan::unsegmented(ns)),
            &u,
            &mut scratch,
            &mut Trace::disabled(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(scratch.team().threads(), 3, "round {round}");
        assert!(settles_at(before + 2), "round {round}: two workers run");
        drop(scratch);
        assert!(settles_at(before), "round {round}: workers joined");
    }
}
