//! A stage-by-stage walkthrough of the paper's Fig 1/Fig 2 pipeline: one
//! story, one question, every intermediate printed — embedding, inner
//! product, softmax attention, weighted sum, and the output calculation —
//! first with the baseline dataflow, then with MnnFast's column-based
//! engine showing the identical result from chunked lazy-softmax passes.
//!
//! Run with: `cargo run --release --example paper_walkthrough`

use mnn_dataset::babi::{BabiGenerator, TaskKind};
use mnn_memnn::inference::{baseline_forward, BaselineCounters};
use mnn_memnn::timing::OpTimes;
use mnn_memnn::train::Trainer;
use mnn_memnn::{MemNet, ModelConfig};
use mnnfast::{
    Budget, EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch, SegmentPlan, Trace,
};

fn norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

fn main() {
    // Train a model so the attention is meaningful.
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 2);
    let train_set = generator.dataset(200, 6, 3);
    let config = ModelConfig::for_generator(&generator, 24, 6);
    let mut model = MemNet::new(config, 10);
    let report = Trainer::new().epochs(60).train(&mut model, &train_set);
    let vocab = generator.vocab().clone();
    println!(
        "model: {} parameters, train accuracy {:.1}%\n",
        model.num_parameters(),
        report.train_accuracy * 100.0
    );

    // One fresh story, in the spirit of the paper's Fig 1.
    let story = generator.story(6, 1);
    let question = &story.questions[0];
    println!("story (the paper's Fig 1 setting):");
    for (i, s) in story.sentences.iter().enumerate() {
        let marker = if question.supporting.contains(&i) {
            "  <- supporting fact"
        } else {
            ""
        };
        println!("  [{i}] {}{marker}", vocab.decode(s));
    }
    println!("question: {}?", vocab.decode(&question.tokens));
    println!("expected: {}\n", vocab.word(question.answer).unwrap_or("?"));

    // --- Fig 2, step by step ---
    println!("== embedding operation ==");
    let emb = model.embed_story(&story);
    for i in 0..emb.m_in.rows() {
        println!(
            "  sentence {i}: |m_in| = {:.3}, |m_out| = {:.3}",
            norm(emb.m_in.row(i)),
            norm(emb.m_out.row(i))
        );
    }
    let u = &emb.questions[0];
    println!("  question state u: |u| = {:.3}\n", norm(u));

    println!("== inference: baseline dataflow (Fig 5a) ==");
    let mut times = OpTimes::new();
    let mut counters = BaselineCounters::default();
    let rec = baseline_forward(&model, &emb, 0, &mut times, &mut counters);
    println!("  inner product T_IN then softmax -> attention p:");
    for (i, p) in rec.p_per_hop[0].iter().enumerate() {
        let bar = "#".repeat((p * 40.0).round() as usize);
        println!("    p[{i}] = {p:.3} {bar}");
    }
    println!("  weighted sum o: |o| = {:.3}", norm(&rec.o));
    println!(
        "  output calculation W(o+u) -> answer: {}",
        vocab.word(rec.answer).unwrap_or("?")
    );
    println!(
        "  spills: {} intermediate bytes; {} softmax divisions\n",
        counters.intermediate_bytes, counters.divisions
    );

    println!("== inference: MnnFast column-based engine (Fig 5b) ==");
    let config = MnnFastConfig::new(2); // 3 chunks of 2
    let exec = ExecPlan::new(config)
        .with_kind(EngineKind::Column)
        .executor();
    let out = exec
        .forward(
            MemView::from((&emb.m_in, &emb.m_out)),
            Route::Plan(&SegmentPlan::unsegmented(emb.m_in.rows())),
            u,
            &mut Scratch::new(),
            &mut Trace::disabled(),
            &Budget::unlimited(),
        )
        .expect("consistent shapes");
    println!(
        "  {} chunks, peak intermediates {} bytes, {} divisions (= ed)",
        out.stats.chunks, out.stats.intermediate_bytes, out.stats.divisions
    );
    println!(
        "  lazy softmax denominator: {:.3}; |o| = {:.3}",
        out.denominator,
        norm(&out.o)
    );
    let logits = model.output_logits(&out.o, u);
    let answer = mnn_tensor::reduce::argmax(&logits).expect("non-empty vocab") as u32;
    println!(
        "  answer: {} (same as baseline: {})",
        vocab.word(answer).unwrap_or("?"),
        answer == rec.answer
    );
    let max_diff = out
        .o
        .iter()
        .zip(&rec.o)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("  max |o_column - o_baseline| = {max_diff:.2e}");
    assert_eq!(answer, rec.answer);
}
