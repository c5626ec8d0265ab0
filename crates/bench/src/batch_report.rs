//! Cross-request batched throughput: questions/sec of the batched tile
//! kernels against answering the same questions sequentially.
//!
//! The batched engine answers `nq` concurrent questions in one streaming
//! pass — every chunk of `M_IN`/`M_OUT` is touched once per *batch*
//! (register tiles shared across questions) instead of once per question,
//! so memory traffic stays flat while arithmetic per loaded byte grows
//! with `nq`. Both flavors run the same kernel family on one thread (the
//! sequential one is its `nq = 1` call), so the ratio isolates the
//! residency win. This report measures that effect on the paper-shaped column path
//! and emits `BENCH_batch.json`. Each repetition times the sequential and
//! batched flavor back-to-back and the speedup is the median per-rep
//! ratio, so shared-machine throughput swings hit both flavors alike
//! (the same pairing discipline as `BENCH_robustness.json`).

use crate::table::{f, ExperimentTable};
use crate::Scale;
use mnn_tensor::Matrix;
use mnnfast::{
    Budget, EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch, SegmentPlan, Trace,
};
use std::hint::black_box;
use std::time::Instant;

/// Batch sizes measured, smallest first.
pub const BATCH_SIZES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Required speedup over the sequential baseline at `nq >= 8` for a
/// full-scale run (the acceptance bound recorded in `BENCH_batch.json`).
pub const SPEEDUP_TARGET_AT_8: f64 = 2.0;

/// Required full-scale speedup at the largest batch size (`nq = 32`).
pub const SPEEDUP_TARGET_AT_32: f64 = 4.0;

/// One batch-size measurement.
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// Questions per batch.
    pub nq: usize,
    /// Best observed seconds to answer all `nq` questions sequentially.
    pub sequential_seconds: f64,
    /// Best observed seconds to answer all `nq` questions in one batched
    /// pass.
    pub batched_seconds: f64,
    /// Questions per second, sequential baseline (from the best rep).
    pub sequential_qps: f64,
    /// Questions per second, batched fast path (from the best rep).
    pub batched_qps: f64,
    /// Median of the per-repetition sequential/batched time ratios.
    pub speedup: f64,
    /// Interquartile range of those ratios: the run's own noise floor for
    /// this entry.
    pub speedup_iqr: f64,
}

/// A full batched-throughput run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Memory rows.
    pub ns: usize,
    /// Embedding dimension.
    pub ed: usize,
    /// Rows per chunk.
    pub chunk: usize,
    /// Acceptance target for entries with `nq >= 8`.
    pub target_speedup: f64,
    /// One entry per batch size, in [`BATCH_SIZES`] order.
    pub entries: Vec<BatchEntry>,
}

/// Runs the batched-vs-sequential measurement on the paper-shaped column
/// path (chunk 1000, ed 64).
pub fn run(scale: Scale) -> BatchReport {
    let ed = 64;
    let chunk = 1000;
    let ns = scale.pick(200_000, 20_000);
    let reps = scale.pick(9, 5);

    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 31 + c * 7) as f32 * 0.001).sin() * 0.3);
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 5) as f32 * 0.002).cos() * 0.3);
    let view = MemView::from((&m_in, &m_out));
    let whole = SegmentPlan::unsegmented(ns);

    let exec = ExecPlan::new(MnnFastConfig::new(chunk))
        .with_kind(EngineKind::Column)
        .executor();
    let mut scratch = Scratch::new();
    let mut trace = Trace::disabled();

    let mut entries = Vec::with_capacity(BATCH_SIZES.len());
    for nq in BATCH_SIZES {
        let questions: Vec<Vec<f32>> = (0..nq)
            .map(|q| {
                (0..ed)
                    .map(|i| ((q * ed + i) as f32 * 0.013 + 0.4).sin())
                    .collect()
            })
            .collect();
        let budgets = vec![Budget::unlimited(); nq];

        let sequential_pass = |scratch: &mut Scratch, trace: &mut Trace| {
            let t0 = Instant::now();
            for u in &questions {
                let out = exec
                    .forward(
                        view,
                        Route::Plan(&whole),
                        black_box(u),
                        scratch,
                        trace,
                        &budgets[0],
                    )
                    .expect("sequential pass");
                scratch.recycle(black_box(out).o);
            }
            t0.elapsed().as_secs_f64()
        };
        let batched_pass = |scratch: &mut Scratch, trace: &mut Trace| {
            let t0 = Instant::now();
            let results = exec
                .forward_batch(
                    view,
                    Route::Plan(&whole),
                    black_box(&questions),
                    scratch,
                    trace,
                    &budgets,
                )
                .expect("batched pass");
            let elapsed = t0.elapsed().as_secs_f64();
            for r in results {
                scratch.recycle(r.expect("fault-free question").o);
            }
            elapsed
        };

        // Warm both flavors: grows the scratch arena (including the batch
        // tile) so timed passes are allocation-free.
        sequential_pass(&mut scratch, &mut trace);
        batched_pass(&mut scratch, &mut trace);

        let (mut best_seq, mut best_batch) = (f64::INFINITY, f64::INFINITY);
        let mut ratios = Vec::with_capacity(reps);
        for _ in 0..reps {
            let s = sequential_pass(&mut scratch, &mut trace);
            let b = batched_pass(&mut scratch, &mut trace);
            best_seq = best_seq.min(s);
            best_batch = best_batch.min(b);
            ratios.push(s / b);
        }

        entries.push(BatchEntry {
            nq,
            sequential_seconds: best_seq,
            batched_seconds: best_batch,
            sequential_qps: nq as f64 / best_seq,
            batched_qps: nq as f64 / best_batch,
            speedup: median(&mut ratios),
            speedup_iqr: quantile(&ratios, 0.75) - quantile(&ratios, 0.25),
        });
    }

    BatchReport {
        ns,
        ed,
        chunk,
        target_speedup: SPEEDUP_TARGET_AT_8,
        entries,
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

/// The `p`-quantile of a non-empty *sorted* sample, linearly interpolated.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let at = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

impl BatchReport {
    /// `true` when every entry with `nq >= 8` meets the full-scale speedup
    /// target. Only meaningful for [`Scale::Full`] runs: smoke shapes are
    /// too small to amortize per-pass overheads.
    pub fn meets_target(&self) -> bool {
        self.entries
            .iter()
            .filter(|e| e.nq >= 8)
            .all(|e| e.speedup >= self.target_speedup)
    }

    /// `true` when batching scales the way the residency argument says it
    /// must on a full-scale run: at least [`SPEEDUP_TARGET_AT_32`] at the
    /// largest batch, and never a smaller speedup at a larger `nq` beyond
    /// the two entries' own recorded noise (their IQRs).
    pub fn scales(&self) -> bool {
        let at_largest = self
            .entries
            .last()
            .is_some_and(|e| e.speedup >= SPEEDUP_TARGET_AT_32);
        let non_decreasing = self
            .entries
            .windows(2)
            .all(|w| w[1].speedup >= w[0].speedup - (w[0].speedup_iqr + w[1].speedup_iqr));
        at_largest && non_decreasing
    }

    /// Sanity gate for CI smoke runs: every measurement is finite and
    /// positive, and at the largest batch size the batched path is at
    /// least not slower than sequential. Deliberately conservative — a
    /// loaded CI runner must not flake the job on a noisy ratio.
    pub fn sane(&self) -> bool {
        let all_finite = self.entries.iter().all(|e| {
            e.sequential_seconds > 0.0
                && e.batched_seconds > 0.0
                && e.speedup.is_finite()
                && e.speedup > 0.0
        });
        let last_not_slower = self.entries.last().is_some_and(|e| e.speedup >= 1.0);
        all_finite && last_not_slower
    }

    /// Human-readable companion table.
    pub fn table(&self) -> ExperimentTable {
        let mut t = ExperimentTable::new(
            "Batched serving: questions/sec on the tiled GEMM fast path",
            &["nq", "seq q/s", "batched q/s", "speedup"],
        );
        for e in &self.entries {
            t.row(vec![
                e.nq.to_string(),
                f(e.sequential_qps),
                f(e.batched_qps),
                format!("{:.2}x", e.speedup),
            ]);
        }
        t.note(format!(
            "ns={}, ed={}, chunk={}: each batched pass streams the memories once for all nq questions",
            self.ns, self.ed, self.chunk
        ));
        let verdict = |met: bool| {
            if met {
                "met"
            } else {
                "NOT met (expected for smoke shapes)"
            }
        };
        t.note(format!(
            "target at nq>=8: {:.1}x — {}",
            self.target_speedup,
            verdict(self.meets_target())
        ));
        t.note(format!(
            "target at nq=32: {SPEEDUP_TARGET_AT_32:.1}x and non-decreasing in nq within noise — {}",
            verdict(self.scales())
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
            "  \"target_speedup\": {:.1}, \"meets_target\": {},\n",
            self.target_speedup,
            self.meets_target()
        ));
        out.push_str(&format!(
            "  \"target_speedup_at_32\": {SPEEDUP_TARGET_AT_32:.1}, \"scales\": {},\n",
            self.scales()
        ));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"nq\": {},\n", e.nq));
            out.push_str(&format!(
                "      \"sequential_seconds\": {:.12},\n",
                e.sequential_seconds
            ));
            out.push_str(&format!(
                "      \"batched_seconds\": {:.12},\n",
                e.batched_seconds
            ));
            out.push_str(&format!(
                "      \"sequential_qps\": {:.3},\n",
                e.sequential_qps
            ));
            out.push_str(&format!("      \"batched_qps\": {:.3},\n", e.batched_qps));
            out.push_str(&format!("      \"speedup\": {:.4},\n", e.speedup));
            out.push_str(&format!("      \"speedup_iqr\": {:.4}\n", e.speedup_iqr));
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`BatchReport::to_json`] to `path`.
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
    fn report_covers_every_batch_size() {
        let report = run(Scale::Smoke);
        let sizes: Vec<_> = report.entries.iter().map(|e| e.nq).collect();
        assert_eq!(sizes, BATCH_SIZES);
        for e in &report.entries {
            assert!(e.sequential_qps > 0.0, "nq={}", e.nq);
            assert!(e.batched_qps > 0.0, "nq={}", e.nq);
            assert!(e.speedup.is_finite() && e.speedup > 0.0, "nq={}", e.nq);
        }
    }

    #[test]
    fn scaling_gate_wants_4x_at_the_top_and_no_dip_beyond_noise() {
        let entry = |nq, speedup, speedup_iqr| BatchEntry {
            nq,
            sequential_seconds: 1.0,
            batched_seconds: 1.0 / speedup,
            sequential_qps: nq as f64,
            batched_qps: nq as f64 * speedup,
            speedup,
            speedup_iqr,
        };
        let report = |entries| BatchReport {
            ns: 1,
            ed: 1,
            chunk: 1,
            target_speedup: SPEEDUP_TARGET_AT_8,
            entries,
        };
        assert!(report(vec![
            entry(8, 3.0, 0.1),
            entry(16, 3.6, 0.1),
            entry(32, 4.2, 0.1)
        ])
        .scales());
        // A dip inside the two entries' IQRs is noise; the shape PR 10 left
        // behind (2.85x at 16, 2.39x at 32) is not, and 3.9x is not 4x.
        assert!(report(vec![entry(16, 4.3, 0.1), entry(32, 4.2, 0.1)]).scales());
        assert!(!report(vec![entry(16, 4.9, 0.1), entry(32, 4.2, 0.1)]).scales());
        assert!(!report(vec![entry(16, 2.85, 0.05), entry(32, 2.39, 0.05)]).scales());
        assert!(!report(vec![entry(16, 3.0, 0.1), entry(32, 3.9, 0.1)]).scales());
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(Scale::Smoke);
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"entries\"",
            "\"nq\": 32",
            "\"target_speedup\"",
            "\"meets_target\"",
            "\"scales\"",
            "\"speedup\"",
            "\"speedup_iqr\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
