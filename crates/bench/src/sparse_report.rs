//! Sublinear top-K candidate attention: crossover sweep, recall, parity.
//!
//! Three questions, one report (`BENCH_sparse.json`):
//!
//! 1. **Crossover** — at which memory size does probing the clustered
//!    index and exactly rescoring only the candidates beat the tiled
//!    full pass? The sweep times both flavors back-to-back at each `ns`
//!    and reports the per-rep median speedup; at
//!    [`HEADLINE_ROWS`] rows and above the sparse pass must win by
//!    [`SPEEDUP_TARGET`].
//! 2. **Recall@K** — the index only picks *which* rows the exact kernels
//!    see, so its sole failure mode is missing a true top-K row. Each
//!    sweep point compares the probe's candidate set against the
//!    brute-force top-K of the exact logits; every point must reach
//!    [`RECALL_TARGET`] at full scale.
//! 3. **Answer parity** — a trained bAbI model served through a sparse
//!    session must answer every test question with the same word as the
//!    exact session.
//!
//! Pairing and medians follow the `BENCH_quant.json` discipline.

use crate::table::{f, ExperimentTable};
use crate::{run_pass, timed_pass, Scale};
use mnn_dataset::babi::{BabiGenerator, TaskKind};
use mnn_memnn::{model::ModelConfig, train::Trainer, MemNet};
use mnn_serve::{Session, SessionConfig};
use mnn_tensor::Matrix;
use mnnfast::{
    ClusterIndex, EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch, SegmentPlan, Trace,
};

/// Required exact/sparse time ratio at and above [`HEADLINE_ROWS`].
pub const SPEEDUP_TARGET: f64 = 3.0;

/// Required candidate recall against the brute-force top-K, per sweep
/// point, at full scale.
pub const RECALL_TARGET: f64 = 0.99;

/// Memory size from which the speedup target applies (the sweep's
/// large-memory regime; smaller points only locate the crossover).
pub const HEADLINE_ROWS: usize = 65_536;

/// One sweep point: paired exact-vs-sparse timing plus probe quality on
/// the same memory and question.
#[derive(Debug, Clone)]
pub struct CrossoverEntry {
    /// Memory rows.
    pub ns: usize,
    /// Clusters the index trained (`~sqrt(ns)`).
    pub clusters: usize,
    /// Best observed seconds for the exact full pass.
    pub exact_seconds: f64,
    /// Best observed seconds for the probe + exact-rescore pass.
    pub sparse_seconds: f64,
    /// Median per-rep exact/sparse time ratio (higher = sparse wins).
    pub speedup: f64,
    /// Rows the sparse pass exactly rescored (covered rows in plan mode,
    /// candidates in gather mode).
    pub rows_rescored: u64,
    /// Rows the index excluded from the exact pass.
    pub rows_skipped: u64,
    /// `|candidates ∩ true top-K| / K` against the brute-force logits.
    pub recall_at_k: f64,
}

/// A full sparse-attention run.
#[derive(Debug, Clone)]
pub struct SparseReport {
    /// Embedding dimension.
    pub ed: usize,
    /// Rows per chunk (shared by both flavors).
    pub chunk: usize,
    /// Candidate rows requested per question.
    pub topk: usize,
    /// Cluster probe floor per question.
    pub nprobe: usize,
    /// Required speedup at and above [`HEADLINE_ROWS`].
    pub speedup_target: f64,
    /// Required recall per sweep point.
    pub recall_target: f64,
    /// Memory size from which the speedup target applies.
    pub headline_rows: usize,
    /// The sweep, ascending in `ns`.
    pub crossover: Vec<CrossoverEntry>,
    /// Smallest swept `ns` where the sparse pass won (`speedup > 1`).
    pub crossover_ns: Option<usize>,
    /// bAbI test questions answered by both sessions.
    pub answers_total: usize,
    /// Questions where the sparse session's answer word differed.
    pub answers_changed: usize,
}

/// Runs the sweep and the parity measurement on the column path.
pub fn run(scale: Scale) -> SparseReport {
    let ed = 64;
    let chunk = scale.pick(128, 32);
    let topk = scale.pick(64, 8);
    let nprobe = scale.pick(8, 4);
    let reps = scale.pick(9, 5);
    let sweep: &[usize] = scale.pick(&[4_096, 16_384, 65_536, 262_144], &[512, 2_048]);

    let exec = ExecPlan::new(MnnFastConfig::new(chunk))
        .with_kind(EngineKind::Column)
        .executor();
    let mut trace = Trace::disabled();
    let mut scratch = Scratch::new();

    let mut crossover = Vec::with_capacity(sweep.len());
    for &ns in sweep {
        let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 31 + c * 7) as f32 * 0.001).sin() * 0.3);
        let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 5) as f32 * 0.002).cos() * 0.3);
        let u: Vec<f32> = (0..ed).map(|i| ((i as f32) * 0.013 + 0.4).sin()).collect();
        let index = ClusterIndex::build(&m_in, ns, 0);
        let plan = SegmentPlan::unsegmented(ns);
        let view = MemView::from((&m_in, &m_out));

        // Probe quality: the candidate set against the brute-force top-K
        // of the exact logits (ties broken toward the lower row, the same
        // order the kernels use).
        let probe = index.probe(&u, topk, nprobe, chunk);
        let mut ranked: Vec<usize> = (0..ns).collect();
        let score = |r: usize| m_in.row(r).iter().zip(&u).map(|(a, b)| a * b).sum::<f32>();
        ranked.sort_by(|&a, &b| {
            score(b)
                .partial_cmp(&score(a))
                .expect("finite logits")
                .then(a.cmp(&b))
        });
        let hit = ranked[..topk.min(ns)]
            .iter()
            .filter(|&&r| probe.candidates.binary_search(&(r as u32)).is_ok())
            .count();
        let recall_at_k = hit as f64 / topk.min(ns) as f64;

        let exact_pass = |scratch: &mut Scratch, trace: &mut Trace| {
            timed_pass(&exec, view, Route::Plan(&plan), &u, scratch, trace)
        };
        let top = Route::TopK {
            index: &index,
            topk,
            nprobe,
        };
        let sparse_pass = |scratch: &mut Scratch, trace: &mut Trace| {
            timed_pass(&exec, view, top, &u, scratch, trace)
        };

        exact_pass(&mut scratch, &mut trace);
        let sparse = run_pass(&exec, view, top, &u, &mut scratch, &mut trace);
        let (rows_rescored, rows_skipped) =
            (sparse.candidates_scored, sparse.rows_skipped_by_index);
        let (mut best_exact, mut best_sparse) = (f64::INFINITY, f64::INFINITY);
        let mut ratios = Vec::with_capacity(reps);
        for _ in 0..reps {
            let a = exact_pass(&mut scratch, &mut trace);
            let b = sparse_pass(&mut scratch, &mut trace);
            best_exact = best_exact.min(a);
            best_sparse = best_sparse.min(b);
            ratios.push(a / b);
        }
        crossover.push(CrossoverEntry {
            ns,
            clusters: index.k(),
            exact_seconds: best_exact,
            sparse_seconds: best_sparse,
            speedup: median(&mut ratios),
            rows_rescored,
            rows_skipped,
            recall_at_k,
        });
    }
    let crossover_ns = crossover.iter().find(|e| e.speedup > 1.0).map(|e| e.ns);

    let (answers_total, answers_changed) = answer_parity(scale);

    SparseReport {
        ed,
        chunk,
        topk,
        nprobe,
        speedup_target: SPEEDUP_TARGET,
        recall_target: RECALL_TARGET,
        headline_rows: HEADLINE_ROWS,
        crossover,
        crossover_ns,
        answers_total,
        answers_changed,
    }
}

/// Trains a small MemN2N, then replays every test story through an exact
/// session and a sparse (`topk`/`nprobe`) session and counts answer-word
/// mismatches. Stories carry more sentences than `topk`, so the sparse
/// session really serves through the index.
fn answer_parity(scale: Scale) -> (usize, usize) {
    let sentences = 20;
    let (topk, nprobe) = (10, 3);
    let (train_stories, epochs, ed) = match scale {
        Scale::Full => (240, 60, 40),
        Scale::Smoke => (60, 25, 16),
    };
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 2019);
    let train_set = generator.dataset(train_stories, sentences, 3);
    let test_set = generator.dataset(scale.pick(40, 10), sentences, 3);
    let config = ModelConfig::for_generator(&generator, ed, sentences);
    let mut model = MemNet::new(config, 61);
    Trainer::new()
        .epochs(epochs)
        .momentum(0.5)
        .train(&mut model, &train_set);

    let mut exact = Session::new(model.clone(), SessionConfig::default()).expect("exact session");
    let mut sparse = Session::new(
        model,
        SessionConfig {
            topk,
            nprobe,
            ..SessionConfig::default()
        },
    )
    .expect("sparse session");

    let mut total = 0;
    let mut changed = 0;
    for story in &test_set {
        exact.reset();
        sparse.reset();
        for s in &story.sentences {
            exact.observe(s).expect("observe exact");
            sparse.observe(s).expect("observe sparse");
        }
        for q in &story.questions {
            let a = exact.ask(&q.tokens).expect("ask exact");
            let b = sparse.ask(&q.tokens).expect("ask sparse");
            total += 1;
            if a.word != b.word {
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

impl SparseReport {
    /// `true` when the full-scale acceptance bounds hold: every sweep
    /// point at or above [`HEADLINE_ROWS`] beats [`SPEEDUP_TARGET`],
    /// every point reaches [`RECALL_TARGET`], and no bAbI answer changed.
    /// Only meaningful for [`Scale::Full`] runs.
    pub fn meets_target(&self) -> bool {
        let headline = self
            .crossover
            .iter()
            .filter(|e| e.ns >= self.headline_rows)
            .collect::<Vec<_>>();
        let speed_ok =
            !headline.is_empty() && headline.iter().all(|e| e.speedup >= self.speedup_target);
        let recall_ok = self
            .crossover
            .iter()
            .all(|e| e.recall_at_k >= self.recall_target);
        let answers_ok = self.answers_total > 0 && self.answers_changed == 0;
        speed_ok && recall_ok && answers_ok
    }

    /// Sanity gate for CI smoke runs: finite positive measurements, the
    /// sparse pass really excluded rows, the per-question row accounting
    /// conserves (`rescored + skipped = ns`), the probe found at least
    /// most of the true top-K, and answer parity holds. Deliberately
    /// ignores the speedup ratio — a loaded CI runner must not flake the
    /// job on a noisy timing.
    pub fn sane(&self) -> bool {
        let sweep_ok = !self.crossover.is_empty()
            && self.crossover.iter().all(|e| {
                e.exact_seconds > 0.0
                    && e.sparse_seconds > 0.0
                    && e.speedup.is_finite()
                    && e.speedup > 0.0
                    && e.rows_skipped > 0
                    && e.rows_rescored + e.rows_skipped == e.ns as u64
                    && e.recall_at_k > 0.5
                    && e.recall_at_k <= 1.0
            });
        sweep_ok && self.answers_total > 0 && self.answers_changed == 0
    }

    /// Human-readable companion table.
    pub fn table(&self) -> ExperimentTable {
        let mut t = ExperimentTable::new(
            "Sublinear top-K attention: crossover sweep vs exact tiled pass",
            &[
                "ns", "exact s", "sparse s", "speedup", "recall@K", "rescored",
            ],
        );
        for e in &self.crossover {
            t.row(vec![
                format!("{}", e.ns),
                f(e.exact_seconds),
                f(e.sparse_seconds),
                format!("{:.2}x", e.speedup),
                format!("{:.4}", e.recall_at_k),
                format!("{}", e.rows_rescored),
            ]);
        }
        t.note(format!(
            "ed={}, chunk={}, topk={}, nprobe={}; crossover at ns={}",
            self.ed,
            self.chunk,
            self.topk,
            self.nprobe,
            self.crossover_ns
                .map_or_else(|| "none".to_string(), |n| n.to_string())
        ));
        t.note(format!(
            "{} bAbI answers, {} changed (sparse topk=10 nprobe=3 vs exact)",
            self.answers_total, self.answers_changed
        ));
        t.note(format!(
            "targets: speedup >= {:.1}x at ns >= {}, recall >= {:.2} everywhere, answers unchanged — {}",
            self.speedup_target,
            self.headline_rows,
            self.recall_target,
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
            "  \"ed\": {}, \"chunk\": {}, \"topk\": {}, \"nprobe\": {},\n",
            self.ed, self.chunk, self.topk, self.nprobe
        ));
        out.push_str(&format!(
            "  \"speedup_target\": {:.1}, \"recall_target\": {:.2}, \"headline_rows\": {}, \"meets_target\": {},\n",
            self.speedup_target,
            self.recall_target,
            self.headline_rows,
            self.meets_target()
        ));
        out.push_str(&format!(
            "  \"crossover_ns\": {},\n",
            self.crossover_ns
                .map_or_else(|| "null".to_string(), |n| n.to_string())
        ));
        out.push_str("  \"crossover\": [\n");
        for (i, e) in self.crossover.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"ns\": {}, \"clusters\": {},\n",
                e.ns, e.clusters
            ));
            out.push_str(&format!(
                "      \"exact_seconds\": {:.12},\n",
                e.exact_seconds
            ));
            out.push_str(&format!(
                "      \"sparse_seconds\": {:.12},\n",
                e.sparse_seconds
            ));
            out.push_str(&format!("      \"speedup\": {:.4},\n", e.speedup));
            out.push_str(&format!(
                "      \"rows_rescored\": {}, \"rows_skipped\": {},\n",
                e.rows_rescored, e.rows_skipped
            ));
            out.push_str(&format!("      \"recall_at_k\": {:.6}\n", e.recall_at_k));
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.crossover.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"answers_total\": {}, \"answers_changed\": {}\n",
            self.answers_total, self.answers_changed
        ));
        out.push_str("}\n");
        out
    }

    /// Writes [`SparseReport::to_json`] to `path`.
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
    fn report_sweeps_and_holds_its_bounds() {
        let report = run(Scale::Smoke);
        assert_eq!(report.crossover.len(), 2);
        assert!(report.sane(), "smoke run failed its own sanity gate");
        assert_eq!(report.answers_changed, 0, "sparse changed a bAbI answer");
        for e in &report.crossover {
            assert!(e.rows_skipped > 0, "ns={}: index excluded nothing", e.ns);
            assert_eq!(
                e.rows_rescored + e.rows_skipped,
                e.ns as u64,
                "ns={}: rows leaked",
                e.ns
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
            "\"crossover\"",
            "\"recall_at_k\"",
            "\"answers_changed\"",
            "\"crossover_ns\"",
            "\"meets_target\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
