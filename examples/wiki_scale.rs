//! Large-scale serving scenario: a Wikipedia-sized (scaled-down) story
//! memory served by the column-based algorithm with scale-out threads and
//! zero-skipping — the Section 3.1 sizing argument made concrete, plus the
//! simulated off-chip picture.
//!
//! Run with: `cargo run --release --example wiki_scale`

use mnn_memsim::dataflow::{self, DataflowConfig};
use mnn_memsim::{SetAssocCache, Variant};
use mnn_tensor::Matrix;
use mnnfast::{
    Budget, EngineKind, ExecPlan, Executor, MemView, MnnFastConfig, Route, Scratch, SegmentPlan,
    SkipPolicy, Trace,
};
use std::time::Instant;

fn main() {
    // 400k sentences × ed=48 ⇒ two 73 MiB memories (the paper's Wikipedia
    // example is 200M sentences; same algorithm, scaled to this machine).
    let ns = 400_000;
    let ed = 48;
    println!("building {ns}-sentence memories (ed={ed})...");
    let mut m_in = Matrix::from_fn(ns, ed, |r, c| ((r * 31 + c) as f32 * 1e-3).sin() * 0.2);
    let m_out = Matrix::from_fn(ns, ed, |r, c| ((r * 7 + c) as f32 * 2e-3).cos() * 0.4);
    let u: Vec<f32> = (0..ed).map(|i| (i as f32 * 0.3).sin()).collect();
    // A handful of "relevant" sentences align with the query, giving the
    // spiky attention a trained model produces (Fig 6).
    for k in 0..40 {
        let row = m_in.row_mut(k * (ns / 40) + 17);
        row.copy_from_slice(&u);
    }

    // The baseline would spill three ns-length vectors per question:
    let spill = 3 * ns * 4;
    println!(
        "baseline intermediate spill per question: {:.1} MiB",
        spill as f64 / (1 << 20) as f64
    );

    // Every variant goes through the same Executor seam with one shared
    // scratch, exactly like the serving loop.
    let config = MnnFastConfig::new(1000);
    let engines = [
        (
            "column (chunk 1000)",
            ExecPlan::new(config)
                .with_kind(EngineKind::Column)
                .executor(),
        ),
        (
            "column + 4-thread scale-out",
            ExecPlan::new(config.with_threads(4))
                .with_kind(EngineKind::Parallel)
                .executor(),
        ),
        // Raw-weight skipping (the paper's single-pass FPGA policy): skip
        // entries whose unnormalized weight e^{u·m} is below e^{1} — i.e.
        // everything except the strongly aligned "relevant" rows.
        (
            "MnnFast (auto + raw skip)",
            ExecPlan::new(config.with_threads(4).with_skip(SkipPolicy::RawWeight(2.7))).executor(),
        ),
    ];

    let mut scratch = Scratch::new();
    let mut reference: Option<Vec<f32>> = None;
    for (name, exec) in &engines {
        let mut trace = Trace::disabled();
        let t0 = Instant::now();
        let out = exec
            .forward(
                MemView::from((&m_in, &m_out)),
                Route::Plan(&SegmentPlan::unsegmented(ns)),
                &u,
                &mut scratch,
                &mut trace,
                &Budget::unlimited(),
            )
            .unwrap();
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "{name:>30}: {dt:.3}s, peak intermediates {} KiB, skipped {}/{} rows",
            out.stats.intermediate_bytes / 1024,
            out.stats.rows_skipped,
            out.stats.rows_total,
        );
        match &reference {
            None => reference = Some(out.o),
            Some(r) => {
                let max_diff = r
                    .iter()
                    .zip(&out.o)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f32, f32::max);
                // Skipping drops only near-zero-weight contributions.
                assert!(max_diff < 0.05, "{name}: diverged by {max_diff}");
            }
        }
    }

    // Simulated off-chip accesses for the same shape (Fig 11's view).
    println!("\nsimulated off-chip accesses (8 MiB LLC):");
    let df = DataflowConfig {
        ns,
        ed,
        chunk: 1000,
        questions: 1,
        skip_fraction: 0.9,
        hops: 1,
    };
    let mut baseline_misses = 1u64;
    for v in Variant::ALL {
        let mut llc = SetAssocCache::new(8 << 20, 16, 64).unwrap();
        let r = dataflow::replay(v, df, &mut llc).unwrap();
        if v == Variant::Baseline {
            baseline_misses = r.demand_misses.max(1);
        }
        println!(
            "{:>12}: {:>9} demand misses ({:.2}x of baseline)",
            v.to_string(),
            r.demand_misses,
            r.demand_misses as f64 / baseline_misses as f64
        );
    }
}
