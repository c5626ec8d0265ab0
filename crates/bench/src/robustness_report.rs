//! Fault-free overhead of the robustness layer: how much the per-chunk
//! [`Budget`] checks cost when nothing ever cancels, expires, or faults.
//!
//! The budgeted seam is on the hot path of every engine variant, so the
//! check must be near-free in the common case. This report times the same
//! fault-free column forward pass three ways — unlimited budget (two
//! predicted branches per chunk), armed deadline (one `Instant::now()` per
//! chunk), armed cancellation token (one relaxed atomic load per chunk) —
//! and emits `BENCH_robustness.json` with the measured overhead against a
//! 2% bound. CI smoke-runs it with `--check`, which fails the job when the
//! bound is exceeded.

use crate::table::{f, ExperimentTable};
use crate::Scale;
use mnn_tensor::Matrix;
use mnnfast::{
    Budget, CancelToken, EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch, SegmentPlan,
    Trace,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Overhead the fault-free hot path may pay for per-chunk budget checks,
/// in percent. The acceptance bound for `BENCH_robustness.json`.
pub const OVERHEAD_BOUND_PERCENT: f64 = 2.0;

/// One baseline-vs-budgeted timing pair.
#[derive(Debug, Clone)]
pub struct RobustnessEntry {
    /// Stable entry name (`column_deadline`, ...).
    pub name: &'static str,
    /// What kind of budget the candidate ran under.
    pub budget: &'static str,
    /// Best observed seconds per question, unlimited budget.
    pub baseline_seconds: f64,
    /// Best observed seconds per question, armed budget.
    pub budgeted_seconds: f64,
    /// Median of the per-repetition budgeted/baseline ratios, minus one,
    /// in percent. Each repetition times both flavors back-to-back, so the
    /// ratio is robust against machine-level throughput shifts that dwarf
    /// the per-chunk check itself; negative values mean the check was
    /// below the noise floor.
    pub overhead_percent: f64,
}

/// A full robustness-overhead run.
#[derive(Debug, Clone)]
pub struct RobustnessReport {
    /// Memory rows.
    pub ns: usize,
    /// Embedding dimension.
    pub ed: usize,
    /// Rows per chunk (the granularity of the budget checks).
    pub chunk: usize,
    /// The acceptance bound, percent.
    pub bound_percent: f64,
    /// One entry per budget flavor.
    pub entries: Vec<RobustnessEntry>,
}

/// Times `op` over `iters` calls and returns mean seconds per call.
fn per_call(iters: usize, mut op: impl FnMut()) -> f64 {
    op();
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Runs the fault-free overhead measurement on the paper-shaped column
/// path (chunk 1000, ed 64).
pub fn run(scale: Scale) -> RobustnessReport {
    let ed = 64;
    let chunk = 1000;
    let ns = scale.pick(200_000, 20_000);
    let reps = scale.pick(12, 10);
    let questions = scale.pick(4, 2);

    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 31 + c * 7) as f32 * 0.001).sin() * 0.3);
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 5) as f32 * 0.002).cos() * 0.3);
    let view = MemView::from((&m_in, &m_out));
    let whole = SegmentPlan::unsegmented(ns);
    let u: Vec<f32> = (0..ed).map(|i| ((i as f32) * 0.37 + 0.9).sin()).collect();

    let exec = ExecPlan::new(MnnFastConfig::new(chunk))
        .with_kind(EngineKind::Column)
        .executor();
    let mut scratch = Scratch::new();
    let mut trace = Trace::disabled();
    let mut time_budget = |budget: &Budget, iters: usize| {
        per_call(iters, || {
            let out = exec
                .forward(
                    view,
                    Route::Plan(&whole),
                    &u,
                    &mut scratch,
                    &mut trace,
                    black_box(budget),
                )
                .expect("fault-free run");
            scratch.recycle(black_box(out).o);
        })
    };

    let unlimited = Budget::unlimited();
    let deadline_budget = Budget::with_deadline(Duration::from_secs(3600));
    let cancel_budget = Budget::unlimited().with_cancel(CancelToken::new());

    // Warm the caches, TLBs and the scratch arena before any timed pass.
    time_budget(&unlimited, 2);
    // Each repetition times the three flavors back-to-back and the
    // overhead is taken per pair: shared-machine throughput swings (which
    // can dwarf the check being measured by orders of magnitude) then hit
    // numerator and denominator alike instead of whichever flavor happened
    // to run during the slow spell.
    let (mut baseline, mut deadline, mut cancel) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut deadline_ratios = Vec::with_capacity(reps);
    let mut cancel_ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let b = time_budget(&unlimited, questions);
        let d = time_budget(&deadline_budget, questions);
        let c = time_budget(&cancel_budget, questions);
        baseline = baseline.min(b);
        deadline = deadline.min(d);
        cancel = cancel.min(c);
        deadline_ratios.push(d / b);
        cancel_ratios.push(c / b);
    }

    RobustnessReport {
        ns,
        ed,
        chunk,
        bound_percent: OVERHEAD_BOUND_PERCENT,
        entries: vec![
            RobustnessEntry {
                name: "column_deadline",
                budget: "deadline_1h",
                baseline_seconds: baseline,
                budgeted_seconds: deadline,
                overhead_percent: (median(&mut deadline_ratios) - 1.0) * 100.0,
            },
            RobustnessEntry {
                name: "column_cancel_token",
                budget: "cancel_token",
                baseline_seconds: baseline,
                budgeted_seconds: cancel,
                overhead_percent: (median(&mut cancel_ratios) - 1.0) * 100.0,
            },
        ],
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

impl RobustnessReport {
    /// `true` when every entry's measured overhead is within the bound.
    pub fn within_bound(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.overhead_percent <= self.bound_percent)
    }

    /// Human-readable companion table.
    pub fn table(&self) -> ExperimentTable {
        let mut t = ExperimentTable::new(
            "Robustness layer: fault-free overhead of per-chunk budget checks",
            &["path", "budget", "baseline us", "budgeted us", "overhead %"],
        );
        for e in &self.entries {
            t.row(vec![
                e.name.to_string(),
                e.budget.to_string(),
                f(e.baseline_seconds * 1e6),
                f(e.budgeted_seconds * 1e6),
                format!("{:+.3}", e.overhead_percent),
            ]);
        }
        t.note(format!(
            "ns={}, ed={}, chunk={}: one budget check per chunk ({} checks/question)",
            self.ns,
            self.ed,
            self.chunk,
            self.ns.div_ceil(self.chunk)
        ));
        t.note(format!(
            "bound: {}% — {}",
            self.bound_percent,
            if self.within_bound() {
                "within bound"
            } else {
                "EXCEEDED"
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
            "  \"bound_percent\": {:.1}, \"within_bound\": {},\n",
            self.bound_percent,
            self.within_bound()
        ));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", e.name));
            out.push_str(&format!("      \"budget\": \"{}\",\n", e.budget));
            out.push_str(&format!(
                "      \"baseline_seconds\": {:.12},\n",
                e.baseline_seconds
            ));
            out.push_str(&format!(
                "      \"budgeted_seconds\": {:.12},\n",
                e.budgeted_seconds
            ));
            out.push_str(&format!(
                "      \"overhead_percent\": {:.4}\n",
                e.overhead_percent
            ));
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`RobustnessReport::to_json`] to `path`.
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
    fn report_times_both_budget_flavors() {
        let report = run(Scale::Smoke);
        let names: Vec<_> = report.entries.iter().map(|e| e.name).collect();
        assert_eq!(names, ["column_deadline", "column_cancel_token"]);
        for e in &report.entries {
            assert!(e.baseline_seconds > 0.0, "{}", e.name);
            assert!(e.budgeted_seconds > 0.0, "{}", e.name);
            assert!(e.overhead_percent.is_finite(), "{}", e.name);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(Scale::Smoke);
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"entries\"",
            "\"name\": \"column_deadline\"",
            "\"bound_percent\"",
            "\"within_bound\"",
            "\"overhead_percent\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
