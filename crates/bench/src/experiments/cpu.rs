//! CPU-side experiments: Fig 9 (performance of the column-based algorithm),
//! Fig 10 (thread scalability per channel count), Fig 11 (off-chip access
//! counts).

use crate::table::{f, speedup, ExperimentTable};
use crate::{run_pass, Scale};
use mnn_memnn::inference::BaselineCounters;
use mnn_memnn::timing::{OpKind, OpTimes};
use mnn_memnn::{model::EmbeddedStory, MemNet, ModelConfig};
use mnn_memsim::dataflow::DataflowConfig;
use mnn_memsim::roofline::{self, MachineProfile};
use mnn_memsim::{SetAssocCache, Variant};
use mnn_tensor::Matrix;
use mnnfast::{
    Budget, EngineKind, ExecPlan, MemView, MnnFastConfig, Phase, PlanExecutor, Route, Scratch,
    SegmentPlan, SkipPolicy, Trace,
};
use std::time::Instant;

/// Builds synthetic memories shaped like a Table 1 CPU run scaled to `ns`.
fn synthetic_story(ns: usize, ed: usize, nq: usize) -> EmbeddedStory {
    let m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 31 + c * 7) as f32 * 0.001).sin() * 0.3);
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 13 + c * 5) as f32 * 0.002).cos() * 0.3);
    let questions = (0..nq)
        .map(|q| {
            (0..ed)
                .map(|i| ((q * ed + i) as f32 * 0.1).sin() * 0.5)
                .collect()
        })
        .collect();
    EmbeddedStory {
        m_in,
        m_out,
        questions,
        answers: vec![0; nq],
    }
}

/// Fig 9(a): native per-variant wall-clock on this machine, with the
/// baseline's per-operation breakdown.
///
/// Note: this host executes the real kernels; the paper's 20-thread speedups
/// additionally need the multi-channel memory system modelled in
/// [`fig09_modelled`].
pub fn fig09_native(scale: Scale) -> ExperimentTable {
    let ns = scale.pick(400_000, 5_000);
    let ed = 48;
    let nq = scale.pick(5, 2);
    let story = synthetic_story(ns, ed, nq);
    // A throwaway model supplies the FC layer for the baseline path.
    let model_cfg = ModelConfig {
        vocab_size: 64,
        embedding_dim: ed,
        max_sentences: 1,
        hops: 1,
        temporal: false,
        position_encoding: false,
    };
    let model = MemNet::new(model_cfg, 3);

    // Baseline with op breakdown.
    let mut times = OpTimes::new();
    let mut counters = BaselineCounters::default();
    let t0 = Instant::now();
    for q in 0..nq {
        let _ =
            mnn_memnn::inference::baseline_forward(&model, &story, q, &mut times, &mut counters);
    }
    let baseline_s = t0.elapsed().as_secs_f64();

    // Every MnnFast variant runs through the same PlanExecutor entry the
    // serving layer uses: one reused scratch, untraced timing pass, then a traced
    // pass for the per-phase columns.
    let chunk = 1000;
    let view = MemView::from((&story.m_in, &story.m_out));
    let whole = SegmentPlan::unsegmented(ns);
    let route = Route::Plan(&whole);
    let mut scratch = Scratch::new();
    let mut run = |exec: &PlanExecutor| {
        let mut timing = Trace::disabled();
        let t = Instant::now();
        for u in &story.questions {
            run_pass(exec, view, route, u, &mut scratch, &mut timing);
        }
        let secs = t.elapsed().as_secs_f64();
        let mut trace = Trace::enabled();
        for u in &story.questions {
            run_pass(exec, view, route, u, &mut scratch, &mut trace);
        }
        (secs, trace)
    };
    let column = ExecPlan::new(MnnFastConfig::new(chunk))
        .with_kind(EngineKind::Column)
        .executor();
    let (column_s, column_tr) = run(&column);
    let mnnfast =
        ExecPlan::new(MnnFastConfig::new(chunk).with_skip(SkipPolicy::RawWeight(1.0))).executor();
    let (mnnfast_s, mnnfast_tr) = run(&mnnfast);

    // One share column per phase, in `Phase::ALL` order (what
    // `phase_cells` below emits).
    let mut headers = vec!["variant", "seconds", "speedup vs baseline"];
    headers.extend(Phase::ALL.iter().map(|p| p.label()));
    let mut t = ExperimentTable::new(
        "Fig 9(a): native single-thread latency per variant",
        &headers,
    );
    let phase_cells = |trace: Option<&Trace>| -> Vec<String> {
        match trace {
            None => Phase::ALL.iter().map(|_| "-".into()).collect(),
            Some(tr) => {
                let total = tr.total_nanos().max(1) as f64;
                Phase::ALL
                    .iter()
                    .map(|p| format!("{:.1}%", tr.nanos(*p) as f64 * 100.0 / total))
                    .collect()
            }
        }
    };
    for (name, secs, trace) in [
        ("baseline", baseline_s, None),
        ("column", column_s, Some(&column_tr)),
        ("MnnFast", mnnfast_s, Some(&mnnfast_tr)),
    ] {
        let mut row = vec![name.into(), f(secs), speedup(baseline_s / secs)];
        row.extend(phase_cells(trace));
        t.row(row);
    }
    for k in OpKind::ALL {
        t.note(format!(
            "baseline {k}: {:.3} ms",
            times.get(k).as_secs_f64() * 1e3
        ));
    }
    t.note(format!(
        "ns={ns}, ed={ed}, nq={nq}, chunk={chunk}; single host thread"
    ));
    t.note(
        "no native column+S row: the paper's streaming is a DMA/prefetch overlap, modelled in \
         Fig 9(b)/10/11 (mnn-memsim) and Fig 13 (mnn-accel); see EXPERIMENTS.md, \
         \"Why there is no native staged walk\"",
    );

    // Batched comparison (the paper's GEMM formulation): the baseline's
    // nq × ns intermediates exceed the LLC, the column engine's chunk
    // buffers do not — so the cache effect is measurable natively.
    let nq_batch = scale.pick(8, 2);
    let batch_story = synthetic_story(ns, ed, nq_batch);
    let mut bt = OpTimes::new();
    let mut bc = BaselineCounters::default();
    let t0 = Instant::now();
    let _ = mnn_memnn::inference::baseline_forward_batch(&model, &batch_story, &mut bt, &mut bc);
    let base_batch_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let _ = ExecPlan::new(MnnFastConfig::new(chunk))
        .executor()
        .forward_batch(
            MemView::from((&batch_story.m_in, &batch_story.m_out)),
            Route::Plan(&SegmentPlan::unsegmented(batch_story.m_in.rows())),
            &batch_story.questions,
            &mut Scratch::new(),
            &mut Trace::disabled(),
            &vec![Budget::unlimited(); nq_batch],
        )
        .expect("valid shapes");
    let col_batch_s = t1.elapsed().as_secs_f64();
    t.note(format!(
        "batched ({nq_batch} questions): baseline GEMM {base_batch_s:.3}s vs batched column {col_batch_s:.3}s ({:.2}x; baseline spills {} MiB)",
        base_batch_s / col_batch_s,
        bc.intermediate_bytes >> 20,
    ));
    t
}

/// Fig 9(b): modelled MnnFast-vs-baseline speedup as threads grow (4-channel
/// machine) — the paper's 4.02× average / 5.38× at 20 threads.
pub fn fig09_modelled(scale: Scale) -> ExperimentTable {
    // Scaled-proportional simulation: the paper's ns=100M against a 30 MiB
    // LLC keeps the same memory:LLC ratio as ns=1M against 2 MiB, which the
    // trace replay can cover in seconds.
    let ns = scale.pick(1_000_000, 50_000);
    let mut machine = MachineProfile::xeon(4);
    machine.llc_bytes = scale.pick(2 << 20, 1 << 20);
    let config = DataflowConfig {
        ns,
        ed: 48,
        chunk: 1000,
        questions: 4,
        skip_fraction: 0.9,
        hops: 1,
    };
    let workloads: Vec<_> = Variant::ALL
        .iter()
        .map(|&v| roofline::variant_workload(v, config, &machine).expect("valid config"))
        .collect();

    let mut t = ExperimentTable::new(
        "Fig 9(b): modelled speedup over baseline vs thread count (4 channels)",
        &["threads", "column", "column+S", "MnnFast"],
    );
    let mut mnnfast_speedups = Vec::new();
    for threads in [1usize, 2, 4, 8, 12, 16, 20] {
        let base = roofline::throughput(&machine, &workloads[0], threads);
        let mut row = vec![threads.to_string()];
        for w in &workloads[1..] {
            let s = roofline::throughput(&machine, w, threads) / base;
            row.push(speedup(s));
            if std::ptr::eq(w, workloads.last().unwrap()) {
                mnnfast_speedups.push(s);
            }
        }
        t.row(row);
    }
    let avg = mnnfast_speedups.iter().sum::<f64>() / mnnfast_speedups.len() as f64;
    let max = mnnfast_speedups.iter().cloned().fold(0.0, f64::max);
    t.note(format!("MnnFast speedup: avg {avg:.2}x, max {max:.2}x"));
    t.note("paper: 4.02x average, 5.38x at 20 threads");
    t
}

/// Fig 10: speedup-vs-threads for every variant at 1/2/4 memory channels.
pub fn fig10(scale: Scale) -> ExperimentTable {
    let ns = scale.pick(1_000_000, 50_000);
    let config = DataflowConfig {
        ns,
        ed: 48,
        chunk: 1000,
        questions: 4,
        skip_fraction: 0.9,
        hops: 1,
    };
    let mut t = ExperimentTable::new(
        "Fig 10: thread scalability per memory-channel count",
        &["channels", "variant", "S@4", "S@10", "S@20"],
    );
    for ch in [1usize, 2, 4] {
        let mut machine = MachineProfile::xeon(ch);
        machine.llc_bytes = scale.pick(2 << 20, 1 << 20);
        for v in [Variant::Baseline, Variant::Column, Variant::ColumnStreaming] {
            let w = roofline::variant_workload(v, config, &machine).expect("valid config");
            let curve = roofline::speedup_curve(&machine, &w, 20);
            t.row(vec![
                ch.to_string(),
                v.to_string(),
                f(curve[3]),
                f(curve[9]),
                f(curve[19]),
            ]);
        }
    }
    t.note("S@n = speedup at n threads relative to 1 thread of the same variant");
    t.note("paper: baseline saturates ~4 threads, column ~10 (4ch), column+S near-ideal");
    t
}

/// Fig 11: off-chip memory accesses normalized to the baseline.
pub fn fig11(scale: Scale) -> ExperimentTable {
    let ns = scale.pick(400_000, 20_000);
    // The LLC is scaled so the ns-length spill vectors exceed it, as the
    // paper's ns=100M does against a real 30 MiB LLC.
    let llc_bytes = scale.pick(1 << 20, 256 << 10);
    let config = DataflowConfig {
        ns,
        ed: 48,
        chunk: 1000,
        questions: 8,
        skip_fraction: 0.9,
        hops: 1,
    };
    let mut t = ExperimentTable::new(
        "Fig 11: off-chip memory accesses (normalized to baseline)",
        &["variant", "demand misses", "normalized", "DRAM bytes"],
    );
    let mut baseline_misses = 0u64;
    for v in Variant::ALL {
        let mut llc = SetAssocCache::new(llc_bytes, 16, 64).expect("valid LLC geometry");
        let r = mnn_memsim::dataflow::replay(v, config, &mut llc).expect("valid config");
        if v == Variant::Baseline {
            baseline_misses = r.demand_misses.max(1);
        }
        t.row(vec![
            v.to_string(),
            r.demand_misses.to_string(),
            f(r.demand_misses as f64 / baseline_misses as f64),
            r.dram_bytes.to_string(),
        ]);
    }
    t.note("paper: column+streaming eliminates >60% of off-chip accesses");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig09_native_smoke_runs_and_orders() {
        let t = fig09_native(Scale::Smoke);
        assert_eq!(t.rows.len(), 3);
        // MnnFast (skip-everything threshold) should not be slower than
        // plain column by a large factor.
        let col: f64 = t.rows[1][1].parse().unwrap();
        let mf: f64 = t.rows[2][1].parse().unwrap();
        assert!(mf < col * 3.0, "MnnFast {mf} vs column {col}");
    }

    #[test]
    fn fig09_modelled_smoke_has_speedup_above_one() {
        let t = fig09_modelled(Scale::Smoke);
        let last = t.rows.last().unwrap();
        let s: f64 = last[3].trim_end_matches('x').parse().unwrap();
        assert!(s > 1.5, "MnnFast modelled speedup at 20 threads: {s}");
    }

    #[test]
    fn fig10_smoke_streaming_scales_best() {
        let t = fig10(Scale::Smoke);
        // For each channel count, column+S S@20 >= column S@20 >= baseline.
        for ch_rows in t.rows.chunks(3) {
            let s: Vec<f64> = ch_rows.iter().map(|r| r[4].parse().unwrap()).collect();
            assert!(s[2] >= s[1] - 1e-6, "{s:?}");
            assert!(s[1] >= s[0] - 1e-6, "{s:?}");
        }
    }

    #[test]
    fn fig11_smoke_reduction_over_60_percent() {
        let t = fig11(Scale::Smoke);
        let cs_norm: f64 = t.rows[2][2].parse().unwrap();
        assert!(cs_norm < 0.4, "column+S normalized misses {cs_norm}");
        let mf_norm: f64 = t.rows[3][2].parse().unwrap();
        assert!(mf_norm <= cs_norm + 1e-9);
    }
}
