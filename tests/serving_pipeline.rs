//! End-to-end serving pipeline: train → persist → reload → serve text
//! questions online, with the answers matching offline inference.

use mnn_dataset::babi::{BabiGenerator, TaskKind};
use mnn_dataset::text;
use mnn_memnn::train::Trainer;
use mnn_memnn::{eval, MemNet, ModelConfig};
use mnn_serve::{Session, SessionConfig};
use mnnfast::{ExecPlan, MnnFastConfig, Precision, SkipPolicy};

#[test]
fn train_save_load_serve_round_trip() {
    // 1. Train a serving model (position encoding instead of temporal).
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 404);
    let train_set = generator.dataset(150, 8, 3);
    let config = ModelConfig {
        temporal: false,
        ..ModelConfig::for_generator(&generator, 24, 8)
    }
    .with_position_encoding(true);
    let mut model = MemNet::new(config, 14);
    let report = Trainer::new().epochs(40).train(&mut model, &train_set);
    assert!(report.train_accuracy > 0.55, "{}", report.train_accuracy);

    // 2. Persist and reload.
    let bytes = model.to_bytes().expect("serializable model");
    let restored = MemNet::from_bytes(&bytes).expect("round-trip");

    // 3. Serve a fresh story through the reloaded model, via the text API.
    let vocab = generator.vocab().clone();
    let story = generator.story(8, 3);
    let offline = eval::accuracy(&restored, std::slice::from_ref(&story));

    let session_config = SessionConfig {
        plan: ExecPlan::new(MnnFastConfig::new(4).with_skip(SkipPolicy::Probability(0.001))),
        max_sentences: None,
        trace: false,
        ..SessionConfig::default()
    };
    let mut session = Session::new(restored, session_config).expect("serving model");
    for sentence in &story.sentences {
        let line = vocab.decode(sentence);
        session.observe_text(&line, &vocab).expect("known words");
    }
    let mut correct = 0;
    for q in &story.questions {
        let line = vocab.decode(&q.tokens);
        let (word, answer) = session.ask_text(&line, &vocab).expect("known words");
        assert_eq!(vocab.id(&word), Some(answer.word));
        correct += usize::from(answer.word == q.answer);
    }
    let online = correct as f32 / story.questions.len() as f32;
    // Mild skipping (th=0.001) must not change answers vs offline baseline.
    assert!(
        (online - offline).abs() < 1e-6,
        "online {online} vs offline {offline}"
    );
}

#[test]
fn a_slid_window_serves_like_a_fresh_session() {
    // Eviction advances a window over the store's planes and compacts
    // them now and then; neither may show. After 3W + 7 observes a
    // W-sentence session answers bit for bit like one that saw only the
    // last W, on the f32 plane and through the int8 mirror.
    const W: usize = 70; // not a multiple of the chunk size; slack 2
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 77);
    let config = ModelConfig {
        temporal: false,
        ..ModelConfig::for_generator(&generator, 24, 8)
    }
    .with_position_encoding(true);
    let model = MemNet::new(config, 5);
    let story = generator.story(3 * W + 7, 6);
    let questions: Vec<_> = story.questions.iter().map(|q| q.tokens.clone()).collect();

    for precision in [Precision::F32, Precision::Int8] {
        let session_config = SessionConfig {
            plan: ExecPlan::new(MnnFastConfig::new(4)),
            max_sentences: Some(W),
            precision,
            ..SessionConfig::default()
        };
        let serve = |sentences: &[Vec<u32>]| {
            let mut session = Session::new(model.clone(), session_config).expect("serving model");
            for sentence in sentences {
                session.observe(sentence).expect("known words");
            }
            let alone = questions.iter().map(|q| session.ask(q).expect("answer"));
            let mut answers: Vec<_> = alone.collect();
            let batch = session.ask_many(&questions).expect("batch");
            answers.extend(batch.into_iter().map(|a| a.expect("answer")));
            assert_eq!(session.memory_len(), W);
            answers
                .iter()
                .map(|a| (a.word, a.probability.to_bits(), a.stats))
                .collect::<Vec<_>>()
        };
        let slid = serve(&story.sentences);
        let fresh = serve(&story.sentences[story.sentences.len() - W..]);
        assert_eq!(slid, fresh, "{precision:?}");
    }
}

#[test]
fn tokenized_text_matches_generator_tokens() {
    // The text pipeline reproduces the generator's own token streams.
    let mut generator = BabiGenerator::new(TaskKind::Negation, 2);
    let vocab = generator.vocab().clone();
    let story = generator.story(10, 2);
    for sentence in story
        .sentences
        .iter()
        .chain(story.questions.iter().map(|q| &q.tokens))
    {
        let rendered = vocab.decode(sentence);
        let re_encoded = text::encode(&rendered, &vocab).expect("round-trip");
        assert_eq!(&re_encoded, sentence, "{rendered}");
    }
}
