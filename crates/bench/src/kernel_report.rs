//! Machine-readable kernel-backend benchmark: scalar vs SIMD for the
//! hot-path kernels, plus the fused column engine vs the two-pass dataflow
//! on the tensor primitives ([`crate::two_pass_forward`]) end-to-end.
//!
//! Companion to [`crate::engine_report`]: the Criterion benches are for
//! interactive exploration; this module produces one structured artifact
//! (`BENCH_kernels.json`) that CI uploads so backend regressions are
//! diffable. All kernel timings go through the explicit
//! [`mnn_tensor::simd`] `_with` entry points, so the report never mutates
//! the process-global backend.

use crate::table::{f, ExperimentTable};
use crate::{run_pass, two_pass_forward, Scale};
use mnn_tensor::simd::{self, Backend};
use mnn_tensor::Matrix;
use mnnfast::{EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch, SegmentPlan, Trace};
use std::hint::black_box;
use std::time::Instant;

/// One baseline-vs-candidate timing pair.
#[derive(Debug, Clone)]
pub struct KernelEntry {
    /// Stable kernel name (`dot_64`, `gemv_chunk_256x64`, ...).
    pub name: &'static str,
    /// What the baseline column measures (e.g. `scalar`).
    pub baseline: String,
    /// What the candidate column measures (e.g. `avx2`, `fused`).
    pub candidate: String,
    /// Mean seconds per operation, baseline implementation.
    pub baseline_seconds: f64,
    /// Mean seconds per operation, candidate implementation.
    pub candidate_seconds: f64,
}

impl KernelEntry {
    /// Baseline time over candidate time (> 1.0 means the candidate wins).
    pub fn speedup(&self) -> f64 {
        self.baseline_seconds / self.candidate_seconds.max(1e-12)
    }
}

/// A full kernel benchmark run.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Embedding dimension the micro-kernels ran at (the paper's BoW dim).
    pub ed: usize,
    /// The SIMD backend the candidate columns used.
    pub backend: Backend,
    /// Memory rows for the end-to-end fused-vs-two-pass comparison.
    pub ns: usize,
    /// One entry per benchmarked kernel.
    pub entries: Vec<KernelEntry>,
}

/// Times `op` over `iters` calls and returns mean seconds per call.
fn per_call(iters: usize, mut op: impl FnMut()) -> f64 {
    // Untimed warm-up settles caches and branch predictors.
    op();
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Best-of-`reps` wrapper around [`per_call`]: on a busy single core the
/// minimum is the least noisy estimator of the kernel's true cost.
fn best_of(reps: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| per_call(iters, &mut op))
        .fold(f64::INFINITY, f64::min)
}

fn deterministic_vec(n: usize, seed: f32) -> Vec<f32> {
    (0..n).map(|i| ((i as f32) * 0.37 + seed).sin()).collect()
}

/// Runs the scalar-vs-SIMD kernel comparison at embedding dim 64 plus the
/// fused-vs-two-pass end-to-end comparison on the fig 9 engine shape.
///
/// The candidate backend is whatever [`simd::backend`] resolved to; when it
/// is [`Backend::Scalar`] (forced, or no AVX2) the kernel speedups are ~1
/// by construction and the JSON records that via the `backend` field.
pub fn run(scale: Scale) -> KernelReport {
    let ed = 64;
    let be = simd::backend();
    let reps = scale.pick(5, 2);
    let mut entries = Vec::new();

    // dot at the paper's embedding dimension.
    {
        let a = deterministic_vec(ed, 0.0);
        let b = deterministic_vec(ed, 1.0);
        let iters = scale.pick(400_000, 4_000);
        let scalar = best_of(reps, iters, || {
            black_box(simd::dot_with(Backend::Scalar, black_box(&a), &b));
        });
        let vector = best_of(reps, iters, || {
            black_box(simd::dot_with(be, black_box(&a), &b));
        });
        entries.push(KernelEntry {
            name: "dot_64",
            baseline: Backend::Scalar.label().to_string(),
            candidate: be.label().to_string(),
            baseline_seconds: scalar,
            candidate_seconds: vector,
        });
    }

    // One chunk of the inner-product phase: 256 rows x 64 cols.
    {
        let rows = 256;
        let chunk = deterministic_vec(rows * ed, 0.3);
        let u = deterministic_vec(ed, 0.7);
        let mut out = vec![0.0f32; rows];
        let iters = scale.pick(4_000, 40);
        let scalar = best_of(reps, iters, || {
            simd::gemv_chunk_with(Backend::Scalar, black_box(&chunk), rows, &u, &mut out);
            black_box(&mut out);
        });
        let vector = best_of(reps, iters, || {
            simd::gemv_chunk_with(be, black_box(&chunk), rows, &u, &mut out);
            black_box(&mut out);
        });
        entries.push(KernelEntry {
            name: "gemv_chunk_256x64",
            baseline: Backend::Scalar.label().to_string(),
            candidate: be.label().to_string(),
            baseline_seconds: scalar,
            candidate_seconds: vector,
        });
    }

    // Exponentiation of a chunk of logits: libm vs the polynomial kernel.
    {
        let n = 4096;
        let logits = deterministic_vec(n, 0.5);
        let mut buf = vec![0.0f32; n];
        let iters = scale.pick(2_000, 20);
        let scalar = best_of(reps, iters, || {
            buf.copy_from_slice(&logits);
            black_box(simd::exp_slice_with(Backend::Scalar, black_box(&mut buf)));
        });
        let vector = best_of(reps, iters, || {
            buf.copy_from_slice(&logits);
            black_box(simd::exp_slice_with(be, black_box(&mut buf)));
        });
        entries.push(KernelEntry {
            name: "exp_slice_4096",
            baseline: "scalar_libm".to_string(),
            candidate: be.label().to_string(),
            baseline_seconds: scalar,
            candidate_seconds: vector,
        });
    }

    // End-to-end: the fig 9 column engine with the fused chunk kernel vs
    // the two-pass reference dataflow (`two_pass_forward`, the tensor
    // primitives), both on the active backend.
    let ns = scale.pick(200_000, 4_000);
    {
        let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 31 + c * 7) as f32 * 0.001).sin() * 0.3);
        let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 5) as f32 * 0.002).cos() * 0.3);
        let view = MemView::from((&m_in, &m_out));
        let whole = SegmentPlan::unsegmented(ns);
        let route = Route::Plan(&whole);
        let u = deterministic_vec(ed, 0.9);
        let questions = scale.pick(4, 2);
        let two_pass = best_of(reps.min(3), questions, || {
            black_box(two_pass_forward(&m_in, &m_out, black_box(&u), 1000));
        });
        let exec = ExecPlan::new(MnnFastConfig::new(1000))
            .with_kind(EngineKind::Column)
            .executor();
        let mut scratch = Scratch::new();
        let mut trace = Trace::disabled();
        let fused = best_of(reps.min(3), questions, || {
            run_pass(&exec, view, route, &u, &mut scratch, &mut trace);
        });
        entries.push(KernelEntry {
            name: "column_forward_fig09",
            baseline: "two_pass".to_string(),
            candidate: "fused".to_string(),
            baseline_seconds: two_pass,
            candidate_seconds: fused,
        });
    }

    KernelReport {
        ed,
        backend: be,
        ns,
        entries,
    }
}

impl KernelReport {
    /// Human-readable companion table.
    pub fn table(&self) -> ExperimentTable {
        let mut t = ExperimentTable::new(
            "Kernel backend: scalar vs SIMD, and fused vs two-pass",
            &[
                "kernel",
                "baseline",
                "candidate",
                "baseline us",
                "candidate us",
                "speedup",
            ],
        );
        for e in &self.entries {
            t.row(vec![
                e.name.to_string(),
                e.baseline.clone(),
                e.candidate.clone(),
                f(e.baseline_seconds * 1e6),
                f(e.candidate_seconds * 1e6),
                format!("{:.2}x", e.speedup()),
            ]);
        }
        t.note(format!(
            "ed={}, ns={}, active backend={}; best-of-N mean per call",
            self.ed,
            self.ns,
            self.backend.label()
        ));
        t.note(format!(
            "fast-exp max relative error bound: {:e}",
            simd::EXP_MAX_REL_ERROR
        ));
        t
    }

    /// Serializes the report as JSON (hand-rolled: the workspace builds
    /// offline with no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"ed\": {}, \"ns\": {}, \"backend\": \"{}\",\n",
            self.ed,
            self.ns,
            self.backend.label()
        ));
        out.push_str(&format!(
            "  \"exp_max_rel_error\": {:e},\n",
            simd::EXP_MAX_REL_ERROR
        ));
        out.push_str("  \"kernels\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", e.name));
            out.push_str(&format!("      \"baseline\": \"{}\",\n", e.baseline));
            out.push_str(&format!("      \"candidate\": \"{}\",\n", e.candidate));
            out.push_str(&format!(
                "      \"baseline_seconds\": {:.12},\n",
                e.baseline_seconds
            ));
            out.push_str(&format!(
                "      \"candidate_seconds\": {:.12},\n",
                e.candidate_seconds
            ));
            out.push_str(&format!("      \"speedup\": {:.4}\n", e.speedup()));
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`KernelReport::to_json`] to `path`.
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
    fn report_covers_every_kernel_with_positive_times() {
        let report = run(Scale::Smoke);
        let names: Vec<_> = report.entries.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "dot_64",
                "gemv_chunk_256x64",
                "exp_slice_4096",
                "column_forward_fig09"
            ]
        );
        for e in &report.entries {
            assert!(e.baseline_seconds > 0.0, "{}", e.name);
            assert!(e.candidate_seconds > 0.0, "{}", e.name);
            assert!(e.speedup().is_finite(), "{}", e.name);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(Scale::Smoke);
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"kernels\"",
            "\"name\": \"dot_64\"",
            "\"name\": \"column_forward_fig09\"",
            "\"exp_max_rel_error\"",
            "\"backend\"",
            "\"speedup\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn table_lists_all_kernels() {
        let report = run(Scale::Smoke);
        let t = report.table();
        assert_eq!(t.headers.len(), 6);
        assert_eq!(t.rows.len(), 4);
    }
}
