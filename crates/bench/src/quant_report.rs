//! Int8 quantized memory plane: inference-phase speedup and accuracy.
//!
//! Three questions, one report (`BENCH_quant.json`):
//!
//! 1. **Speedup** — the inference phase is bandwidth-bound, and the int8
//!    mirror moves `ed + 4` bytes per row against the f32 plane's
//!    `4 * ed`. On the paper-shaped memory the quantized column pass must
//!    beat the f32 pass by [`SPEEDUP_TARGET`] at full scale.
//! 2. **Logit error** — the quantized logits must stay within the bound
//!    the kernel layer publishes ([`mnn_tensor::simd::I8_LOGIT_MAX_REL_ERROR`],
//!    relative to the logit inf-norm). The report measures the worst
//!    observed error on the benchmark memory.
//! 3. **Answer parity** — a trained bAbI model served end-to-end at
//!    [`Precision::Int8`] must answer every test question with the same
//!    word as the f32 session.
//!
//! Each repetition times the two flavors back-to-back and the reported
//! speedup is the per-rep median, the same pairing discipline as
//! `BENCH_segment.json`.

use crate::table::{f, ExperimentTable};
use crate::{timed_pass, Scale};
use mnn_dataset::babi::{BabiGenerator, TaskKind};
use mnn_memnn::{model::ModelConfig, train::Trainer, MemNet};
use mnn_serve::{Session, SessionConfig};
use mnn_tensor::quant::{quantize_row, QuantMatrix};
use mnn_tensor::Matrix;
use mnnfast::{
    EngineKind, ExecPlan, MemView, MnnFastConfig, Precision, Route, Scratch, SegmentPlan,
    SoftmaxMode, Trace,
};

/// Required f32/int8 time ratio on the paper-shaped memory at full scale.
pub const SPEEDUP_TARGET: f64 = 1.5;

/// One paired speedup measurement (f32 plane vs int8 mirror, same memory,
/// same softmax mode, same unsegmented plan).
#[derive(Debug, Clone)]
pub struct SpeedupEntry {
    /// Softmax mode measured (`"lazy"` = fused fast path, `"online"` =
    /// running-max formulation).
    pub mode: &'static str,
    /// Best observed seconds for the f32 pass.
    pub f32_seconds: f64,
    /// Best observed seconds for the quantized pass.
    pub int8_seconds: f64,
    /// Median per-rep f32/int8 time ratio (higher = quant wins).
    pub speedup: f64,
}

/// A full quantized-plane run.
#[derive(Debug, Clone)]
pub struct QuantReport {
    /// Memory rows.
    pub ns: usize,
    /// Embedding dimension.
    pub ed: usize,
    /// Rows per chunk.
    pub chunk: usize,
    /// Required speedup at full scale.
    pub speedup_target: f64,
    /// Published per-logit relative error bound.
    pub error_limit: f64,
    /// Bytes one question streams from both f32 planes (`2 * ns * ed * 4`).
    pub f32_bytes: u64,
    /// Bytes one question streams from both int8 mirrors
    /// (`2 * ns * (ed + 4)`, codes plus one f32 scale per row).
    pub int8_bytes: u64,
    /// `int8_bytes / f32_bytes` (approaches 1/4 as `ed` grows).
    pub bytes_ratio: f64,
    /// Paired timings, one entry per softmax mode.
    pub speedup: Vec<SpeedupEntry>,
    /// Worst observed quantized-logit error relative to the logit
    /// inf-norm on the benchmark memory.
    pub logit_max_rel_error: f64,
    /// bAbI test questions answered by both sessions.
    pub answers_total: usize,
    /// Questions where the int8 session's answer word differed.
    pub answers_changed: usize,
}

/// Runs all three measurements on the paper-shaped column path.
pub fn run(scale: Scale) -> QuantReport {
    let ed = 64;
    let chunk = 1000;
    let ns = scale.pick(200_000, 20_000);
    let reps = scale.pick(9, 5);

    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 31 + c * 7) as f32 * 0.001).sin() * 0.3);
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 5) as f32 * 0.002).cos() * 0.3);
    let u: Vec<f32> = (0..ed).map(|i| ((i as f32) * 0.013 + 0.4).sin()).collect();
    let q_in = QuantMatrix::from_matrix(&m_in);
    let q_out = QuantMatrix::from_matrix(&m_out);
    let plan = SegmentPlan::unsegmented(ns);
    let f32_view = MemView::from((&m_in, &m_out));
    let int8_view = MemView::from((&q_in, &q_out));

    let mut trace = Trace::disabled();
    let mut speedup = Vec::new();
    for (label, mode) in [("lazy", SoftmaxMode::Lazy), ("online", SoftmaxMode::Online)] {
        let exec = ExecPlan::new(MnnFastConfig::new(chunk).with_softmax(mode))
            .with_kind(EngineKind::Column)
            .executor();
        let mut scratch = Scratch::new();

        let f32_pass = |scratch: &mut Scratch, trace: &mut Trace| {
            timed_pass(&exec, f32_view, Route::Plan(&plan), &u, scratch, trace)
        };
        let int8_pass = |scratch: &mut Scratch, trace: &mut Trace| {
            timed_pass(&exec, int8_view, Route::Plan(&plan), &u, scratch, trace)
        };

        f32_pass(&mut scratch, &mut trace);
        int8_pass(&mut scratch, &mut trace);
        let (mut best_f32, mut best_int8) = (f64::INFINITY, f64::INFINITY);
        let mut ratios = Vec::with_capacity(reps);
        for _ in 0..reps {
            let a = f32_pass(&mut scratch, &mut trace);
            let b = int8_pass(&mut scratch, &mut trace);
            best_f32 = best_f32.min(a);
            best_int8 = best_int8.min(b);
            ratios.push(a / b);
        }
        speedup.push(SpeedupEntry {
            mode: label,
            f32_seconds: best_f32,
            int8_seconds: best_int8,
            speedup: median(&mut ratios),
        });
    }

    // Worst quantized-logit error on the benchmark memory, measured against
    // the exact contract the kernels implement: an exact integer dot scaled
    // by `u_scale * row_scale`.
    let mut u_q = vec![0i8; ed];
    let u_scale = quantize_row(&u, &mut u_q);
    let mut z_norm = 0.0f64;
    let mut worst_abs = 0.0f64;
    for r in 0..ns {
        let row = m_in.row(r);
        let z: f64 = row.iter().zip(&u).map(|(a, b)| f64::from(a * b)).sum();
        let acc: i32 = q_in
            .row(r)
            .iter()
            .zip(&u_q)
            .map(|(&a, &b)| i32::from(a) * i32::from(b))
            .sum();
        let zq = f64::from((acc as f32) * (u_scale * q_in.scale(r)));
        z_norm = z_norm.max(z.abs());
        worst_abs = worst_abs.max((zq - z).abs());
    }
    let logit_max_rel_error = worst_abs / z_norm.max(1e-12);

    // End-to-end answer parity on a trained bAbI model.
    let (answers_total, answers_changed) = answer_parity(scale);

    let f32_bytes = (2 * ns * ed * 4) as u64;
    let int8_bytes = (2 * ns * (ed + 4)) as u64;
    QuantReport {
        ns,
        ed,
        chunk,
        speedup_target: SPEEDUP_TARGET,
        error_limit: f64::from(mnn_tensor::simd::I8_LOGIT_MAX_REL_ERROR),
        f32_bytes,
        int8_bytes,
        bytes_ratio: int8_bytes as f64 / f32_bytes as f64,
        speedup,
        logit_max_rel_error,
        answers_total,
        answers_changed,
    }
}

/// Trains a small MemN2N, then replays every test story through an f32
/// session and an int8 session and counts answer-word mismatches.
fn answer_parity(scale: Scale) -> (usize, usize) {
    let ns = scale.pick(50, 8);
    let (train_stories, epochs, ed) = match scale {
        Scale::Full => (240, 60, 40),
        Scale::Smoke => (60, 25, 16),
    };
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 2019);
    let train_set = generator.dataset(train_stories, ns, 3);
    let test_set = generator.dataset(scale.pick(40, 10), ns, 3);
    let config = ModelConfig::for_generator(&generator, ed, ns);
    let mut model = MemNet::new(config, 61);
    Trainer::new()
        .epochs(epochs)
        .momentum(0.5)
        .train(&mut model, &train_set);

    let mut s32 = Session::new(model.clone(), SessionConfig::default()).expect("f32 session");
    let mut s8 = Session::new(
        model,
        SessionConfig {
            precision: Precision::Int8,
            ..SessionConfig::default()
        },
    )
    .expect("int8 session");

    let mut total = 0;
    let mut changed = 0;
    for story in &test_set {
        s32.reset();
        s8.reset();
        for s in &story.sentences {
            s32.observe(s).expect("observe f32");
            s8.observe(s).expect("observe int8");
        }
        for q in &story.questions {
            let a32 = s32.ask(&q.tokens).expect("ask f32");
            let a8 = s8.ask(&q.tokens).expect("ask int8");
            total += 1;
            if a32.word != a8.word {
                changed += 1;
            }
        }
    }
    (total, changed)
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

impl QuantReport {
    /// `true` when the full-scale acceptance bounds hold: every softmax
    /// mode at or above [`SPEEDUP_TARGET`], the worst logit error within
    /// the published bound, and no bAbI answer changed. Only meaningful
    /// for [`Scale::Full`] runs.
    pub fn meets_target(&self) -> bool {
        let speed_ok = self
            .speedup
            .iter()
            .all(|e| e.speedup >= self.speedup_target);
        let error_ok = self.logit_max_rel_error <= self.error_limit;
        let answers_ok = self.answers_total > 0 && self.answers_changed == 0;
        speed_ok && error_ok && answers_ok
    }

    /// Sanity gate for CI smoke runs: finite positive measurements, the
    /// error bound holds (it is shape-independent, unlike the timings),
    /// and answer parity holds. Deliberately ignores the speedup ratio —
    /// a loaded CI runner must not flake the job on a noisy timing.
    pub fn sane(&self) -> bool {
        let timings_finite = self.speedup.iter().all(|e| {
            e.f32_seconds > 0.0 && e.int8_seconds > 0.0 && e.speedup.is_finite() && e.speedup > 0.0
        });
        timings_finite
            && self.logit_max_rel_error.is_finite()
            && self.logit_max_rel_error <= self.error_limit
            && self.answers_total > 0
            && self.answers_changed == 0
    }

    /// Human-readable companion table.
    pub fn table(&self) -> ExperimentTable {
        let mut t = ExperimentTable::new(
            "Int8 quantized memory plane: inference-phase speedup",
            &["measurement", "f32 s", "int8 s", "speedup"],
        );
        for e in &self.speedup {
            t.row(vec![
                format!("column forward ({})", e.mode),
                f(e.f32_seconds),
                f(e.int8_seconds),
                format!("{:.2}x", e.speedup),
            ]);
        }
        t.note(format!(
            "ns={}, ed={}, chunk={}: {} bytes/question f32 vs {} int8 ({:.3}x)",
            self.ns, self.ed, self.chunk, self.f32_bytes, self.int8_bytes, self.bytes_ratio
        ));
        t.note(format!(
            "logit max-rel-error {:.2e} (bound {:.0e}); {} bAbI answers, {} changed",
            self.logit_max_rel_error, self.error_limit, self.answers_total, self.answers_changed
        ));
        t.note(format!(
            "targets: speedup >= {:.1}x per mode, error <= bound, answers unchanged — {}",
            self.speedup_target,
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
            "  \"speedup_target\": {:.1}, \"error_limit\": {:.6}, \"meets_target\": {},\n",
            self.speedup_target,
            self.error_limit,
            self.meets_target()
        ));
        out.push_str(&format!(
            "  \"f32_bytes\": {}, \"int8_bytes\": {}, \"bytes_ratio\": {:.6},\n",
            self.f32_bytes, self.int8_bytes, self.bytes_ratio
        ));
        out.push_str("  \"speedup\": [\n");
        for (i, e) in self.speedup.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"mode\": \"{}\",\n", e.mode));
            out.push_str(&format!("      \"f32_seconds\": {:.12},\n", e.f32_seconds));
            out.push_str(&format!(
                "      \"int8_seconds\": {:.12},\n",
                e.int8_seconds
            ));
            out.push_str(&format!("      \"speedup\": {:.4}\n", e.speedup));
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.speedup.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"logit_max_rel_error\": {:.9},\n",
            self.logit_max_rel_error
        ));
        out.push_str(&format!(
            "  \"answers_total\": {}, \"answers_changed\": {}\n",
            self.answers_total, self.answers_changed
        ));
        out.push_str("}\n");
        out
    }

    /// Writes [`QuantReport::to_json`] to `path`.
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
    fn report_covers_modes_and_holds_its_bounds() {
        let report = run(Scale::Smoke);
        let modes: Vec<_> = report.speedup.iter().map(|e| e.mode).collect();
        assert_eq!(modes, ["lazy", "online"]);
        assert!(report.sane(), "smoke run failed its own sanity gate");
        assert!(
            report.logit_max_rel_error <= report.error_limit,
            "logit error {} above bound {}",
            report.logit_max_rel_error,
            report.error_limit
        );
        assert_eq!(report.answers_changed, 0, "int8 changed a bAbI answer");
        assert!(report.bytes_ratio < 0.5, "ratio {}", report.bytes_ratio);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(Scale::Smoke);
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"speedup\"",
            "\"logit_max_rel_error\"",
            "\"answers_changed\"",
            "\"bytes_ratio\"",
            "\"meets_target\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
