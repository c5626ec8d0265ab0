//! Online serving: a long-lived session that ingests story sentences as
//! they arrive and answers questions immediately — the paper's deployment
//! scenario (Section 4.1.1: questions are generated on-the-fly by users;
//! Fig 8: new story sentences are appended to the memories).
//!
//! Run with: `cargo run --release --example online_serving`

use mnn_dataset::babi::{BabiGenerator, TaskKind};
use mnn_memnn::train::Trainer;
use mnn_memnn::{MemNet, ModelConfig};
use mnn_serve::{Session, SessionConfig};
use mnnfast::{ExecPlan, MnnFastConfig, Phase, SkipPolicy};

fn main() {
    // Train a serving model (no age-indexed temporal encoding — position
    // encoding carries the order information instead).
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 23);
    let train_set = generator.dataset(150, 10, 3);
    let config = ModelConfig {
        temporal: false,
        ..ModelConfig::for_generator(&generator, 32, 10)
    }
    .with_position_encoding(true);
    let mut model = MemNet::new(config, 9);
    let report = Trainer::new().epochs(35).train(&mut model, &train_set);
    println!(
        "serving model ready (train accuracy {:.1}%)",
        report.train_accuracy * 100.0
    );
    let vocab = generator.vocab().clone();

    // A sliding-window session: at most 6 sentences of context, answered by
    // the auto-selected walk with zero-skipping.
    let session_config = SessionConfig {
        plan: ExecPlan::new(MnnFastConfig::new(4).with_skip(SkipPolicy::Probability(0.01))),
        max_sentences: Some(6),
        trace: true,
        ..SessionConfig::default()
    };
    let mut session = Session::new(model, session_config).expect("serving-compatible model");

    // Interleave facts and questions, as a dialogue would.
    let story = generator.story(10, 0);
    for (i, sentence) in story.sentences.iter().enumerate() {
        let evicted = session.observe(sentence).expect("in-vocabulary sentence");
        println!(
            "observe: {:<40} (memory {} sentences{})",
            vocab.decode(sentence),
            session.memory_len(),
            if evicted > 0 { ", oldest evicted" } else { "" }
        );

        // After every few facts, ask where the most recent mover is.
        if i % 3 == 2 {
            let person = sentence[0];
            let question = vec![
                vocab.id("where").expect("vocab"),
                vocab.id("is").expect("vocab"),
                person,
            ];
            let answer = session.ask(&question).expect("valid question");
            println!(
                "  ask: where is {}? -> {} (p={:.2}, skipped {}/{} rows)",
                vocab.word(person).unwrap_or("?"),
                vocab.word(answer.word).unwrap_or("?"),
                answer.probability,
                answer.stats.rows_skipped,
                answer.stats.rows_total,
            );
        }
    }

    let totals = session.cumulative_stats();
    println!(
        "\nsession totals: {} questions, {} memory rows attended, {:.1}% of output computation skipped",
        session.questions_answered(),
        totals.rows_total,
        totals.computation_reduction() * 100.0
    );

    // The session traced every question; show where the time went and the
    // per-question latency distribution.
    println!("\nper-phase breakdown (all questions):");
    print!("{}", session.cumulative_trace().render());
    let hist = session.phase_histograms();
    println!(
        "question latency: mean {:.1} µs, p95 < {:.1} µs ({} questions, {:.1}% in {})",
        hist.total().mean_nanos() as f64 / 1e3,
        hist.total().quantile_upper_bound(0.95) as f64 / 1e3,
        hist.total().count(),
        session.cumulative_trace().nanos(Phase::FusedChunk) as f64 * 100.0
            / session.cumulative_trace().total_nanos().max(1) as f64,
        Phase::FusedChunk.label(),
    );
}
