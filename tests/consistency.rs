//! Cross-crate consistency: the engine's byte/work counters, the paper's
//! analytical claims, and the simulators must tell one coherent story.

use mnn_memnn::inference::{baseline_forward, BaselineCounters};
use mnn_memnn::model::EmbeddedStory;
use mnn_memnn::timing::OpTimes;
use mnn_memnn::{MemNet, ModelConfig};
use mnn_memsim::dataflow::{replay, DataflowConfig};
use mnn_memsim::{SetAssocCache, Variant};
use mnn_tensor::Matrix;
use mnnfast::{ColumnOutput, MnnFastConfig};

#[path = "../crates/core/tests/lattice/mod.rs"]
mod lattice;

/// The Column walk of `config` over the story's whole memory, for its
/// first question.
fn column_pass(config: MnnFastConfig, story: &EmbeddedStory) -> ColumnOutput {
    let exec = lattice::column(config);
    lattice::whole(&exec, &story.m_in, &story.m_out, &story.questions[0])
}

fn synthetic(ns: usize, ed: usize) -> EmbeddedStory {
    EmbeddedStory {
        m_in: Matrix::from_fn(ns, ed, |r, c| ((r + c) as f32 * 0.01).sin()),
        m_out: Matrix::from_fn(ns, ed, |r, c| ((r * c) as f32 * 0.01).cos()),
        questions: vec![(0..ed).map(|i| i as f32 * 0.05).collect()],
        answers: vec![0],
    }
}

#[test]
fn column_intermediates_are_chunk_sized_not_ns_sized() {
    let ns = 50_000;
    let ed = 48;
    let story = synthetic(ns, ed);
    let model = MemNet::new(
        ModelConfig {
            vocab_size: 8,
            embedding_dim: ed,
            max_sentences: 1,
            hops: 1,
            temporal: false,
            position_encoding: false,
        },
        1,
    );

    let mut times = OpTimes::new();
    let mut counters = BaselineCounters::default();
    let _ = baseline_forward(&model, &story, 0, &mut times, &mut counters);
    // Baseline spills 3 ns-length vectors.
    assert_eq!(counters.intermediate_bytes, (3 * ns * 4) as u64);

    let out = column_pass(MnnFastConfig::new(1000), &story);
    // The column-based engine keeps only a chunk buffer + accumulator.
    assert!(out.stats.intermediate_bytes <= (1000 * 4 + ed * 4) as u64);
    // That is a >30x reduction, the Section 3.1 claim.
    assert!(counters.intermediate_bytes / out.stats.intermediate_bytes > 30);
}

#[test]
fn division_counts_match_section_3_1() {
    let ns = 10_000;
    let ed = 48;
    let story = synthetic(ns, ed);
    let model = MemNet::new(
        ModelConfig {
            vocab_size: 8,
            embedding_dim: ed,
            max_sentences: 1,
            hops: 1,
            temporal: false,
            position_encoding: false,
        },
        1,
    );
    let mut times = OpTimes::new();
    let mut counters = BaselineCounters::default();
    let _ = baseline_forward(&model, &story, 0, &mut times, &mut counters);
    assert_eq!(
        counters.divisions, ns as u64,
        "baseline divides per sentence"
    );

    let out = column_pass(MnnFastConfig::new(1000), &story);
    assert_eq!(
        out.stats.divisions, ed as u64,
        "column divides per dimension"
    );
}

#[test]
fn engine_memory_bytes_match_simulator_traffic_scale() {
    // The native engine's byte accounting and the trace simulator's DRAM
    // bytes describe the same dataflow; they must agree within the
    // granularity difference (cache lines vs exact floats).
    let ns = 100_000;
    let ed = 48;
    let story = synthetic(ns, ed);
    let out = column_pass(MnnFastConfig::new(1000), &story);

    let df = DataflowConfig {
        ns,
        ed,
        chunk: 1000,
        questions: 1,
        skip_fraction: 0.0,
        hops: 1,
    };
    // Tiny LLC: everything the column variant touches goes off-chip once.
    let mut llc = SetAssocCache::new(256 << 10, 16, 64).unwrap();
    let sim = replay(Variant::Column, df, &mut llc).unwrap();

    let native = out.stats.memory_bytes as f64;
    let simulated = sim.dram_bytes as f64;
    let ratio = simulated / native;
    assert!(
        (0.5..2.0).contains(&ratio),
        "native {native} vs simulated {simulated} (ratio {ratio})"
    );
}

#[test]
fn variant_ordering_is_consistent_across_models() {
    // Off-chip misses (memsim) and FPGA latency (accel) must rank the
    // variants identically: baseline ≥ column ≥ column+S ≥ MnnFast.
    let df = DataflowConfig {
        ns: 100_000,
        ed: 48,
        chunk: 1000,
        questions: 1,
        skip_fraction: 0.9,
        hops: 1,
    };
    let mut misses = Vec::new();
    for v in Variant::ALL {
        let mut llc = SetAssocCache::new(1 << 20, 16, 64).unwrap();
        misses.push(replay(v, df, &mut llc).unwrap().demand_misses);
    }
    assert!(misses[0] >= misses[1] && misses[1] >= misses[2] && misses[2] >= misses[3]);

    let cfg = mnn_accel::fpga::FpgaConfig::zedboard();
    let work = mnn_accel::fpga::FpgaWorkload::table1();
    let lat: Vec<u64> = Variant::ALL
        .iter()
        .map(|&v| cfg.latency_cycles(v, &work))
        .collect();
    assert!(lat[0] >= lat[1] && lat[1] >= lat[2] && lat[2] >= lat[3]);
}

#[test]
fn skip_counters_match_true_attention_sparsity() {
    // The engine's skip counter equals the number of probabilities below
    // the threshold computed independently.
    let ns = 5_000;
    let ed = 16;
    let story = synthetic(ns, ed);
    let th = 1e-4f32;

    let mut p = vec![0.0f32; ns];
    mnn_tensor::kernels::gemv(&story.m_in, &story.questions[0], &mut p).unwrap();
    mnn_tensor::softmax::softmax_in_place(&mut p);
    let below = p.iter().filter(|&&x| x < th).count() as u64;

    let config = MnnFastConfig::new(500).with_skip(mnnfast::SkipPolicy::Probability(th));
    let out = column_pass(config, &story);
    assert_eq!(out.stats.rows_skipped, below);
}
