//! Quickstart: train a small memory network on a synthetic bAbI-style task,
//! then answer a question with the baseline dataflow and with MnnFast —
//! same answer, a fraction of the work.
//!
//! Run with: `cargo run --example quickstart`

use mnn_dataset::babi::{BabiGenerator, TaskKind};
use mnn_memnn::inference::{baseline_forward, BaselineCounters};
use mnn_memnn::timing::OpTimes;
use mnn_memnn::train::Trainer;
use mnn_memnn::{MemNet, ModelConfig};
use mnnfast::{
    Budget, EngineKind, ExecPlan, MemView, MnnFastConfig, Route, Scratch, SegmentPlan, SkipPolicy,
    Trace,
};

fn main() {
    // 1. Generate a toy world: stories about people moving between rooms.
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 7);
    let train_set = generator.dataset(80, 10, 3);
    let vocab = generator.vocab().clone();

    // 2. Train an end-to-end memory network (manual-backprop SGD).
    let config = ModelConfig::for_generator(&generator, 24, 10);
    let mut model = MemNet::new(config, 42);
    let report = Trainer::new().epochs(30).train(&mut model, &train_set);
    println!(
        "trained: final loss {:.4}, train accuracy {:.1}%",
        report.final_loss,
        report.train_accuracy * 100.0
    );

    // 3. Ask a fresh question.
    let story = generator.story(10, 1);
    println!("\nstory:");
    for s in &story.sentences {
        println!("  {}", vocab.decode(s));
    }
    let q = &story.questions[0];
    println!("question: {}?", vocab.decode(&q.tokens));
    println!("expected: {}", vocab.word(q.answer).unwrap_or("?"));

    let embedded = model.embed_story(&story);

    // 4a. Baseline inference (Fig 5(a) dataflow).
    let mut times = OpTimes::new();
    let mut counters = BaselineCounters::default();
    let rec = baseline_forward(&model, &embedded, 0, &mut times, &mut counters);
    println!(
        "\nbaseline answer:  {}  ({} intermediate bytes spilled)",
        vocab.word(rec.answer).unwrap_or("?"),
        counters.intermediate_bytes
    );

    // 4b. MnnFast: column-based + zero-skipping (Fig 5(b) dataflow).
    //     A serving loop would keep the scratch and reuse it per question.
    let config = MnnFastConfig::new(4).with_skip(SkipPolicy::Probability(0.05));
    let exec = ExecPlan::new(config)
        .with_kind(EngineKind::Column)
        .executor();
    let mut scratch = Scratch::new();
    let out = exec
        .forward(
            MemView::from((&embedded.m_in, &embedded.m_out)),
            Route::Plan(&SegmentPlan::unsegmented(embedded.m_in.rows())),
            &embedded.questions[0],
            &mut scratch,
            &mut Trace::disabled(),
            &Budget::unlimited(),
        )
        .expect("embedded shapes are consistent");
    let logits = model.output_logits(&out.o, &embedded.questions[0]);
    let answer = mnn_tensor::reduce::argmax(&logits).expect("non-empty vocab") as u32;
    println!(
        "MnnFast answer:   {}  ({} of {} weighted-sum rows skipped, peak intermediates {} bytes)",
        vocab.word(answer).unwrap_or("?"),
        out.stats.rows_skipped,
        out.stats.rows_total,
        out.stats.intermediate_bytes
    );
    assert_eq!(answer, rec.answer, "both dataflows agree");
    println!("\nboth dataflows produced the same answer.");
}
