//! Segmented execution plane: merge-plane overhead and zone-map pruning.
//!
//! Two questions, one report (`BENCH_segment.json`):
//!
//! 1. **Overhead** — every engine now routes through the segment merge
//!    plane even for the classic prefix pass. Routing a 1-segment plan
//!    must cost within noise of the unsegmented entry point (the
//!    acceptance bound is [`OVERHEAD_LIMIT`], ≤ 2% at full scale).
//! 2. **Pruning win** — on a skewed memory (all the attention mass in the
//!    first rows, tiny norms everywhere else) the online-softmax engines
//!    skip whole segments whose zone-map logit bound cannot survive the
//!    running max, bitwise-identically. The report measures the wall-clock
//!    speedup and the fraction of rows provably skipped.
//!
//! Each repetition times the two flavors back-to-back and the reported
//! ratio is the per-rep median, the same pairing discipline as
//! `BENCH_batch.json`.

use crate::table::{f, ExperimentTable};
use crate::{run_pass, timed_pass, Scale};
use mnn_tensor::Matrix;
use mnnfast::{
    EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch, SegmentMap, SegmentPlan,
    SoftmaxMode, Trace,
};

/// Segment counts measured in the pruning section, smallest first.
pub const PRUNE_SEGMENTS: [usize; 3] = [2, 4, 8];

/// Acceptance bound on the 1-segment routed/unsegmented time ratio at full
/// scale (≤ 2% merge-plane overhead).
pub const OVERHEAD_LIMIT: f64 = 1.02;

/// Required pruning speedup at the largest segment count for a full-scale
/// run on the skewed memory.
pub const PRUNE_SPEEDUP_TARGET: f64 = 1.2;

/// One merge-plane overhead measurement (1-segment routed plan vs the
/// unsegmented prefix entry point, same memory, same softmax mode).
#[derive(Debug, Clone)]
pub struct OverheadEntry {
    /// Softmax mode measured (`"lazy"` = fused fast path, `"online"` =
    /// running-max formulation).
    pub mode: &'static str,
    /// Best observed seconds for the unsegmented prefix pass.
    pub prefix_seconds: f64,
    /// Best observed seconds for the routed 1-segment pass.
    pub routed_seconds: f64,
    /// Median per-rep routed/prefix time ratio (1.00 = free).
    pub overhead: f64,
}

/// One zone-map pruning measurement on the skewed memory (online mode).
#[derive(Debug, Clone)]
pub struct PruneEntry {
    /// Segments the memory is routed over.
    pub n_segments: usize,
    /// Best observed seconds for the unsegmented pass.
    pub unsegmented_seconds: f64,
    /// Best observed seconds for the routed pass with pruning on.
    pub pruned_seconds: f64,
    /// Median per-rep unsegmented/pruned time ratio.
    pub speedup: f64,
    /// Fraction of memory rows skipped by the zone map (0.0–1.0).
    pub rows_pruned_frac: f64,
}

/// A full segmented-plane run.
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// Memory rows.
    pub ns: usize,
    /// Embedding dimension.
    pub ed: usize,
    /// Rows per chunk (segments are chunk-aligned).
    pub chunk: usize,
    /// Acceptance bound on the overhead entries at full scale.
    pub overhead_limit: f64,
    /// Required speedup at the largest segment count at full scale.
    pub prune_speedup_target: f64,
    /// Merge-plane overhead, one entry per softmax mode.
    pub overhead: Vec<OverheadEntry>,
    /// Pruning wins, one entry per [`PRUNE_SEGMENTS`] count.
    pub pruning: Vec<PruneEntry>,
}

/// Runs both measurements on the paper-shaped column path.
pub fn run(scale: Scale) -> SegmentReport {
    let ed = 64;
    let chunk = 1000;
    let ns = scale.pick(200_000, 20_000);
    let reps = scale.pick(9, 5);

    // Uniform memory for the overhead section: nothing is prunable, so the
    // comparison isolates the routing machinery itself.
    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 31 + c * 7) as f32 * 0.001).sin() * 0.3);
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 5) as f32 * 0.002).cos() * 0.3);
    let view = MemView::from((&m_in, &m_out));
    let whole = SegmentPlan::unsegmented(ns);
    let u: Vec<f32> = (0..ed).map(|i| ((i as f32) * 0.013 + 0.4).sin()).collect();

    let mut trace = Trace::disabled();
    let mut overhead = Vec::new();
    for (label, mode) in [("lazy", SoftmaxMode::Lazy), ("online", SoftmaxMode::Online)] {
        let exec = ExecPlan::new(MnnFastConfig::new(chunk).with_softmax(mode))
            .with_kind(EngineKind::Column)
            .executor();
        let map = SegmentMap::from_matrix(&m_in, ns, 1, chunk);
        let plan = SegmentPlan::routed(&map, true);
        let mut scratch = Scratch::new();

        let prefix_pass = |scratch: &mut Scratch, trace: &mut Trace| {
            timed_pass(&exec, view, Route::Plan(&whole), &u, scratch, trace)
        };
        let routed_pass = |scratch: &mut Scratch, trace: &mut Trace| {
            timed_pass(&exec, view, Route::Plan(&plan), &u, scratch, trace)
        };

        prefix_pass(&mut scratch, &mut trace);
        routed_pass(&mut scratch, &mut trace);
        let (mut best_prefix, mut best_routed) = (f64::INFINITY, f64::INFINITY);
        let mut ratios = Vec::with_capacity(reps);
        for _ in 0..reps {
            let p = prefix_pass(&mut scratch, &mut trace);
            let r = routed_pass(&mut scratch, &mut trace);
            best_prefix = best_prefix.min(p);
            best_routed = best_routed.min(r);
            ratios.push(r / p);
        }
        overhead.push(OverheadEntry {
            mode: label,
            prefix_seconds: best_prefix,
            routed_seconds: best_routed,
            overhead: median(&mut ratios),
        });
    }

    // Skewed memory for the pruning section: the first chunk carries all
    // the attention mass (one dominant coordinate aligned with the query),
    // every later row has a tiny norm, so the zone-map gap exceeds the
    // 110-logit prune margin and whole segments skip.
    let m_in_skew = Matrix::from_fn(ns, ed, |r, c| {
        if r < chunk && c == 0 {
            15.0
        } else {
            ((r * 31 + c * 7) as f32 * 0.001).sin() * 1e-3
        }
    });
    let skewed = MemView::from((&m_in_skew, &m_out));
    let mut u_skew = vec![0.0f32; ed];
    u_skew[0] = 15.0;
    let exec = ExecPlan::new(MnnFastConfig::new(chunk).with_softmax(SoftmaxMode::Online))
        .with_kind(EngineKind::Column)
        .executor();
    let mut pruning = Vec::new();
    for n_segments in PRUNE_SEGMENTS {
        let map = SegmentMap::from_matrix(&m_in_skew, ns, n_segments, chunk);
        let plan = SegmentPlan::routed(&map, true);
        let mut scratch = Scratch::new();

        let unsegmented_pass = |scratch: &mut Scratch, trace: &mut Trace| {
            timed_pass(&exec, skewed, Route::Plan(&whole), &u_skew, scratch, trace)
        };
        let pruned_pass = |scratch: &mut Scratch, trace: &mut Trace| {
            timed_pass(&exec, skewed, Route::Plan(&plan), &u_skew, scratch, trace)
        };

        unsegmented_pass(&mut scratch, &mut trace);
        pruned_pass(&mut scratch, &mut trace);
        // One counted pass for the pruned-row fraction.
        let counted = run_pass(
            &exec,
            skewed,
            Route::Plan(&plan),
            &u_skew,
            &mut scratch,
            &mut trace,
        );
        let rows_pruned_frac = counted.rows_pruned as f64 / ns as f64;

        let (mut best_unseg, mut best_pruned) = (f64::INFINITY, f64::INFINITY);
        let mut ratios = Vec::with_capacity(reps);
        for _ in 0..reps {
            let a = unsegmented_pass(&mut scratch, &mut trace);
            let b = pruned_pass(&mut scratch, &mut trace);
            best_unseg = best_unseg.min(a);
            best_pruned = best_pruned.min(b);
            ratios.push(a / b);
        }
        pruning.push(PruneEntry {
            n_segments,
            unsegmented_seconds: best_unseg,
            pruned_seconds: best_pruned,
            speedup: median(&mut ratios),
            rows_pruned_frac,
        });
    }

    SegmentReport {
        ns,
        ed,
        chunk,
        overhead_limit: OVERHEAD_LIMIT,
        prune_speedup_target: PRUNE_SPEEDUP_TARGET,
        overhead,
        pruning,
    }
}

/// Median of a non-empty sample (sorts in place).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

impl SegmentReport {
    /// `true` when the full-scale acceptance bounds hold: every overhead
    /// entry within [`OVERHEAD_LIMIT`] and the largest segment count at or
    /// above [`PRUNE_SPEEDUP_TARGET`] with a real pruned fraction. Only
    /// meaningful for [`Scale::Full`] runs.
    pub fn meets_target(&self) -> bool {
        let overhead_ok = self
            .overhead
            .iter()
            .all(|e| e.overhead <= self.overhead_limit);
        let prune_ok = self
            .pruning
            .last()
            .is_some_and(|e| e.speedup >= self.prune_speedup_target && e.rows_pruned_frac > 0.0);
        overhead_ok && prune_ok
    }

    /// Sanity gate for CI smoke runs: finite positive measurements, the
    /// zone map actually pruned rows at every segment count, and pruning
    /// was not slower than the unsegmented pass at the largest count.
    /// Deliberately looser than [`SegmentReport::meets_target`] — a loaded
    /// CI runner must not flake the job on a noisy ratio.
    pub fn sane(&self) -> bool {
        let overhead_finite = self.overhead.iter().all(|e| {
            e.prefix_seconds > 0.0
                && e.routed_seconds > 0.0
                && e.overhead.is_finite()
                && e.overhead > 0.0
        });
        let prune_finite = self.pruning.iter().all(|e| {
            e.unsegmented_seconds > 0.0
                && e.pruned_seconds > 0.0
                && e.speedup.is_finite()
                && e.speedup > 0.0
                && e.rows_pruned_frac > 0.0
        });
        let last_not_slower = self.pruning.last().is_some_and(|e| e.speedup >= 1.0);
        overhead_finite && prune_finite && last_not_slower
    }

    /// Human-readable companion table.
    pub fn table(&self) -> ExperimentTable {
        let mut t = ExperimentTable::new(
            "Segmented plane: merge-plane overhead and zone-map pruning",
            &[
                "measurement",
                "baseline s",
                "segmented s",
                "ratio",
                "rows pruned",
            ],
        );
        for e in &self.overhead {
            t.row(vec![
                format!("overhead ({}, N=1)", e.mode),
                f(e.prefix_seconds),
                f(e.routed_seconds),
                format!("{:.3}x", e.overhead),
                "-".into(),
            ]);
        }
        for e in &self.pruning {
            t.row(vec![
                format!("pruning (online, N={})", e.n_segments),
                f(e.unsegmented_seconds),
                f(e.pruned_seconds),
                format!("{:.2}x", e.speedup),
                format!("{:.1}%", e.rows_pruned_frac * 100.0),
            ]);
        }
        t.note(format!(
            "ns={}, ed={}, chunk={}: routed plans are bitwise-identical to the prefix pass",
            self.ns, self.ed, self.chunk
        ));
        t.note(format!(
            "targets: overhead <= {:.2}x, pruning >= {:.1}x at N={} — {}",
            self.overhead_limit,
            self.prune_speedup_target,
            PRUNE_SEGMENTS[PRUNE_SEGMENTS.len() - 1],
            if self.meets_target() {
                "met"
            } else {
                "NOT met (expected for smoke shapes)"
            }
        ));
        t
    }

    /// Serializes the report as JSON (hand-rolled: the workspace builds
    /// offline with no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"ns\": {}, \"ed\": {}, \"chunk\": {},\n",
            self.ns, self.ed, self.chunk
        ));
        out.push_str(&format!(
            "  \"overhead_limit\": {:.2}, \"prune_speedup_target\": {:.1}, \"meets_target\": {},\n",
            self.overhead_limit,
            self.prune_speedup_target,
            self.meets_target()
        ));
        out.push_str("  \"overhead\": [\n");
        for (i, e) in self.overhead.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"mode\": \"{}\",\n", e.mode));
            out.push_str(&format!(
                "      \"prefix_seconds\": {:.12},\n",
                e.prefix_seconds
            ));
            out.push_str(&format!(
                "      \"routed_seconds\": {:.12},\n",
                e.routed_seconds
            ));
            out.push_str(&format!("      \"overhead\": {:.4}\n", e.overhead));
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.overhead.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"pruning\": [\n");
        for (i, e) in self.pruning.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"n_segments\": {},\n", e.n_segments));
            out.push_str(&format!(
                "      \"unsegmented_seconds\": {:.12},\n",
                e.unsegmented_seconds
            ));
            out.push_str(&format!(
                "      \"pruned_seconds\": {:.12},\n",
                e.pruned_seconds
            ));
            out.push_str(&format!("      \"speedup\": {:.4},\n", e.speedup));
            out.push_str(&format!(
                "      \"rows_pruned_frac\": {:.6}\n",
                e.rows_pruned_frac
            ));
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.pruning.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`SegmentReport::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message on failure.
    pub fn write_json(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("writing {path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_modes_and_segment_counts() {
        let report = run(Scale::Smoke);
        let modes: Vec<_> = report.overhead.iter().map(|e| e.mode).collect();
        assert_eq!(modes, ["lazy", "online"]);
        let counts: Vec<_> = report.pruning.iter().map(|e| e.n_segments).collect();
        assert_eq!(counts, PRUNE_SEGMENTS);
        assert!(report.sane(), "smoke run failed its own sanity gate");
        for e in &report.pruning {
            // The skewed memory prunes everything outside the hot segment.
            assert!(
                e.rows_pruned_frac > 0.3,
                "N={}: only {:.1}% pruned",
                e.n_segments,
                e.rows_pruned_frac * 100.0
            );
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(Scale::Smoke);
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"overhead\"",
            "\"pruning\"",
            "\"n_segments\": 8",
            "\"rows_pruned_frac\"",
            "\"meets_target\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
