//! Machine-readable engine benchmark: per-[`EngineKind`] latency and
//! per-phase breakdown measured through the [`mnnfast::PlanExecutor`] entry.
//!
//! The human-readable tables (Fig 9 and friends) are for eyeballs; this
//! module produces the same measurements as structured data so dashboards
//! and regression tooling can diff runs. The binaries write it next to
//! their stdout tables as `BENCH_engine.json`.

use crate::table::{f, ExperimentTable};
use crate::{run_pass, Scale};
use mnn_tensor::Matrix;
use mnnfast::{
    EngineKind, ExecPlan, MemView, MnnFastConfig, Phase, Route, Scratch, SegmentPlan, Trace,
};
use std::time::Instant;

/// Measurements for one engine kind.
#[derive(Debug, Clone, Copy)]
pub struct EngineEntry {
    /// The kind requested in the plan.
    pub kind: EngineKind,
    /// What the plan resolved to (differs from `kind` only for `Auto`).
    pub resolved: EngineKind,
    /// Mean untraced wall-clock per question, in seconds.
    pub mean_seconds: f64,
    /// Per-phase timings accumulated over the traced questions.
    pub trace: Trace,
}

/// A full engine benchmark run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Memory rows.
    pub ns: usize,
    /// Embedding dimension.
    pub ed: usize,
    /// Chunk size.
    pub chunk: usize,
    /// Worker threads for the parallel engine.
    pub threads: usize,
    /// Questions timed per engine kind.
    pub questions: usize,
    /// One entry per benchmarked kind.
    pub entries: Vec<EngineEntry>,
}

/// Runs every engine kind over the same synthetic memories, timing an
/// untraced pass (latency) and a traced pass (phase breakdown) per kind.
pub fn run(scale: Scale) -> EngineReport {
    let ns = scale.pick(200_000, 4_000);
    let ed = 48;
    let chunk = 1000;
    let threads = 4;
    let questions = scale.pick(8, 2);

    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 31 + c * 7) as f32 * 0.001).sin() * 0.3);
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 5) as f32 * 0.002).cos() * 0.3);
    let view = MemView::from((&m_in, &m_out));
    let whole = SegmentPlan::unsegmented(ns);
    let route = Route::Plan(&whole);
    let us: Vec<Vec<f32>> = (0..questions)
        .map(|q| {
            (0..ed)
                .map(|i| ((q * ed + i) as f32 * 0.1).sin() * 0.5)
                .collect()
        })
        .collect();

    let config = MnnFastConfig::new(chunk).with_threads(threads);
    let mut entries = Vec::new();
    for kind in [EngineKind::Column, EngineKind::Parallel, EngineKind::Auto] {
        let plan = ExecPlan::new(config).with_kind(kind);
        let exec = plan.executor();
        let mut scratch = Scratch::new();

        // Warm-up grows the scratch buffers so the timed loop reuses them.
        let mut warm = Trace::disabled();
        run_pass(&exec, view, route, &us[0], &mut scratch, &mut warm);

        let mut untraced = Trace::disabled();
        let t0 = Instant::now();
        for u in &us {
            run_pass(&exec, view, route, u, &mut scratch, &mut untraced);
        }
        let mean_seconds = t0.elapsed().as_secs_f64() / questions as f64;

        let mut trace = Trace::enabled();
        for u in &us {
            run_pass(&exec, view, route, u, &mut scratch, &mut trace);
        }

        entries.push(EngineEntry {
            kind,
            resolved: plan.resolve(ns, ed),
            mean_seconds,
            trace,
        });
    }

    EngineReport {
        ns,
        ed,
        chunk,
        threads,
        questions,
        entries,
    }
}

impl EngineReport {
    /// Human-readable companion table: latency plus per-phase time shares.
    pub fn table(&self) -> ExperimentTable {
        let mut headers = vec!["engine", "resolved", "ms/question"];
        for phase in Phase::ALL {
            headers.push(phase.label());
        }
        let mut t = ExperimentTable::new(
            "Engine latency and per-phase time share (PlanExecutor entry)",
            &headers,
        );
        for e in &self.entries {
            let total = e.trace.total_nanos().max(1) as f64;
            let mut row = vec![
                e.kind.label().to_string(),
                e.resolved.label().to_string(),
                f(e.mean_seconds * 1e3),
            ];
            for phase in Phase::ALL {
                row.push(format!(
                    "{:.1}%",
                    e.trace.nanos(phase) as f64 * 100.0 / total
                ));
            }
            t.row(row);
        }
        t.note(format!(
            "ns={}, ed={}, chunk={}, threads={}, {} questions; shares from a separate traced pass",
            self.ns, self.ed, self.chunk, self.threads, self.questions
        ));
        t.note("parallel phase times are summed worker CPU time, so shares describe work, not wall-clock");
        t
    }

    /// Serializes the report as JSON (hand-rolled: the workspace builds
    /// offline with no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"ns\": {}, \"ed\": {}, \"chunk\": {}, \"threads\": {}, \"questions\": {},\n",
            self.ns, self.ed, self.chunk, self.threads, self.questions
        ));
        out.push_str("  \"engines\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"kind\": \"{}\",\n", e.kind.label()));
            out.push_str(&format!(
                "      \"resolved\": \"{}\",\n",
                e.resolved.label()
            ));
            out.push_str(&format!("      \"mean_seconds\": {:.9},\n", e.mean_seconds));
            out.push_str(&format!(
                "      \"traced_total_nanos\": {},\n",
                e.trace.total_nanos()
            ));
            out.push_str("      \"phases\": [\n");
            for (j, phase) in Phase::ALL.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"phase\": \"{}\", \"nanos\": {}, \"count\": {}}}{}\n",
                    phase.label(),
                    e.trace.nanos(*phase),
                    e.trace.count(*phase),
                    if j + 1 < Phase::ALL.len() { "," } else { "" }
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`EngineReport::to_json`] to `path`.
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
    fn report_covers_all_kinds_with_phases() {
        let report = run(Scale::Smoke);
        assert_eq!(report.entries.len(), 3);
        for e in &report.entries {
            assert!(e.mean_seconds > 0.0, "{:?}", e.kind);
            assert!(e.trace.total_nanos() > 0, "{:?}", e.kind);
            // Every question touched every row in the fused-chunk phase.
            assert_eq!(
                e.trace.count(Phase::FusedChunk),
                (report.ns * report.questions) as u64
            );
        }
        assert_ne!(
            report.entries[2].resolved,
            EngineKind::Auto,
            "auto must resolve to a concrete kind"
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(Scale::Smoke);
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"engines\"",
            "\"kind\": \"column\"",
            "\"kind\": \"parallel\"",
            "\"kind\": \"auto\"",
            "\"phase\": \"fused_chunk\"",
            "\"phase\": \"divide\"",
            "\"mean_seconds\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn table_has_phase_columns() {
        let report = run(Scale::Smoke);
        let t = report.table();
        assert_eq!(t.headers.len(), 3 + Phase::ALL.len());
        assert!(t.headers.iter().any(|h| h == "fused_chunk"));
        assert_eq!(t.rows.len(), 3);
    }
}
