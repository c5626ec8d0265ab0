//! The metric catalogue: names, units, directions and regression bounds,
//! the result line a run prints, and BENCHMARK.json itself (generated from
//! this table so the file and the program cannot drift apart; a unit test
//! compares them).

use crate::workloads::SPECS;
use std::fmt::Write as _;

/// One end-to-end metric of BENCHMARK.json.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Every workload reports every one of these, in this order.
///
/// The timing bounds sit at the contract's cap of a quarter. The issue
/// sketched 5–20 %, but on the shared two-vCPU VM this was calibrated on,
/// the same build's run-to-run spread reaches 10–18 % whenever a slow spell
/// of the host catches a few runs of a set (README, "Steadiness"), and a
/// bound below the spread rejects changes at random.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "q/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "observe_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_kq",
        unit: "cpu-s/kq",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "ok_share",
        unit: "share",
        better: "higher",
        bound: 0.002,
    },
    EndToEnd {
        name: "answer_match_share",
        unit: "share",
        better: "higher",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric the traced pass
/// reports; the layer is the crate name before the dot.
pub const PER_LAYER: [(&str, &str, &str); 46] = [
    ("tensor.stream_copy_gbps", "GB/s", "higher"),
    ("tensor.fused_f32_gbps", "GB/s", "higher"),
    ("tensor.fused_i8_gbps", "GB/s", "higher"),
    ("tensor.gemm_tile_gflops", "GFLOP/s", "higher"),
    ("tensor.kernel_share", "share", "higher"),
    ("tensor.embed_pair_ns_per_token", "ns", "lower"),
    ("tensor.quantize_row_ns", "ns", "lower"),
    ("tensor.partial_merge_ns", "ns", "lower"),
    ("memnn.embed_question_us", "us", "lower"),
    ("memnn.output_logits_us", "us", "lower"),
    ("core.forward_ms", "ms", "lower"),
    ("core.engine_self_ms", "ms", "lower"),
    ("core.rows_per_s", "1/s", "higher"),
    ("core.batch_speedup_nq8", "x", "higher"),
    ("core.batch_speedup_nq32", "x", "higher"),
    ("core.index_probe_us", "us", "lower"),
    ("core.index_candidates_mean", "count", "lower"),
    ("core.index_skip_share", "share", "higher"),
    ("core.index_decline_share", "share", "lower"),
    ("core.index_build_ms", "ms", "lower"),
    ("core.index_push_us", "us", "lower"),
    ("core.store_push_us", "us", "lower"),
    ("core.store_evict_us", "us", "lower"),
    ("serve.session_ask_ms", "ms", "lower"),
    ("serve.session_self_us", "us", "lower"),
    ("serve.observe_self_us", "us", "lower"),
    ("serve.pool_self_us", "us", "lower"),
    ("serve.coalesce_wait_us", "us", "lower"),
    ("serve.batch_occupancy_mean", "count", "higher"),
    ("serve.embed_hit_share", "share", "higher"),
    ("serve.degraded_share", "share", "lower"),
    ("serve.sparse_fallback_share", "share", "lower"),
    ("serve.shed_share", "share", "lower"),
    ("serve.deadline_miss_share", "share", "lower"),
    ("net.encode_ask_ns", "ns", "lower"),
    ("net.decode_ask_ns", "ns", "lower"),
    ("net.encode_answer_ns", "ns", "lower"),
    ("net.decode_answer_ns", "ns", "lower"),
    ("net.roundtrip_c1_us", "us", "lower"),
    ("net.overhead_us", "us", "lower"),
    ("net.observe_roundtrip_us", "us", "lower"),
    ("net.frames_per_ask", "count", "lower"),
    ("net.generator_lag_p99_us", "us", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
    ("bench.samples", "count", "higher"),
    ("bench.span_self_ns", "ns", "lower"),
];

/// What one run reports on its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, every value with all its
    /// digits.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            // JSON has no NaN; a run that produced one is already incorrect.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

/// BENCHMARK.json, generated from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    writeln!(out, "  \"run_seconds\": {},", crate::RUN_SECONDS).expect("String");
    out.push_str("  \"workloads\": [\n");
    for (i, spec) in SPECS.iter().enumerate() {
        let sep = if i + 1 < SPECS.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            spec.name, spec.why
        )
        .expect("String");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        )
        .expect("String");
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        )
        .expect("String");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract() {
        let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        assert!(names.iter().all(|n| legal_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((2..=8).contains(&SPECS.len()));
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains(['\n', '"'])));
        assert!(END_TO_END
            .iter()
            .all(|m| legal_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| legal_unit(m.1)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("latency_ms".into(), 1.2034, "ms"),
                ("setup_s".into(), 0.8127, "s"),
            ],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
