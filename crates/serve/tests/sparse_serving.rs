//! Serving-layer behaviour of top-K candidate attention.
//!
//! Sparse sessions answer through the clustered candidate index: probe the
//! nearest clusters, exactly rescore only the candidate rows. These tests
//! drive real trained models through the full `observe`/`ask` surface and
//! check the three serving-level promises: bAbI answers match exact
//! attention, the accounting proves rows were actually skipped, and every
//! low-confidence probe falls back to a full-precision exact answer.

use mnn_dataset::babi::{BabiGenerator, Story, TaskKind};
use mnn_memnn::train::Trainer;
use mnn_memnn::{MemNet, ModelConfig};
use mnn_serve::{Session, SessionConfig};
use mnnfast::{EngineKind, ExecPlan, MnnFastConfig, Phase, Precision, SoftmaxMode};

fn trained_serving_model() -> (BabiGenerator, MemNet) {
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 71);
    let stories = generator.dataset(80, 8, 2);
    let config = ModelConfig {
        temporal: false,
        ..ModelConfig::for_generator(&generator, 24, 8)
    }
    .with_position_encoding(true);
    let mut model = MemNet::new(config, 17);
    Trainer::new().epochs(30).train(&mut model, &stories);
    (generator, model)
}

/// A small chunk size so modest stories span many chunks (and therefore
/// many candidate runs).
fn plan(kind: EngineKind) -> ExecPlan {
    ExecPlan::new(MnnFastConfig::new(4)).with_kind(kind)
}

fn sparse_config(plan: ExecPlan, topk: usize, nprobe: usize) -> SessionConfig {
    SessionConfig {
        plan,
        topk,
        nprobe,
        trace: true,
        ..SessionConfig::default()
    }
}

/// Replays `story` through `session` and returns the answer words.
fn replay_words(session: &mut Session, story: &Story) -> Vec<u32> {
    session.reset();
    for sentence in &story.sentences {
        session.observe(sentence).unwrap();
    }
    story
        .questions
        .iter()
        .map(|q| session.ask(&q.tokens).unwrap().word)
        .collect()
}

/// The headline serving promise: a sparse session answers every bAbI
/// question with the same word as exact attention, while the index really
/// is excluding rows from the rescoring pass.
#[test]
fn sparse_sessions_preserve_babi_answers() {
    let (mut generator, model) = trained_serving_model();
    let stories: Vec<Story> = (0..10).map(|_| generator.story(20, 3)).collect();

    for (kind, segments) in [
        (EngineKind::Column, 1),
        (EngineKind::Auto, 1),
        (EngineKind::Column, 5),
    ] {
        let mut exact = Session::new(
            model.clone(),
            SessionConfig {
                plan: plan(kind),
                segments,
                ..SessionConfig::default()
            },
        )
        .unwrap();
        let sparse_config = SessionConfig {
            segments,
            ..sparse_config(plan(kind), 10, 3)
        };
        let mut sparse = Session::new(model.clone(), sparse_config).unwrap();
        assert_eq!(sparse.topk(), 10);
        assert_eq!(sparse.nprobe(), 3);

        let mut questions = 0usize;
        for story in &stories {
            let expect = replay_words(&mut exact, story);
            let got = replay_words(&mut sparse, story);
            assert_eq!(
                got, expect,
                "sparse attention changed an answer ({kind:?}, {segments} segments)"
            );
            questions += expect.len();
        }
        assert!(questions >= 30, "vacuous run: {questions} questions");
        // The sessions really diverged in work done: the sparse one skipped
        // rows the exact one scored.
        let skipped = sparse.cumulative_stats().rows_skipped_by_index;
        assert!(
            skipped > 0,
            "index never excluded a row across {questions} questions"
        );
        assert_eq!(exact.cumulative_stats().rows_skipped_by_index, 0);
    }
}

/// Per-answer accounting: probes traced and counted, every live row either
/// rescored or excluded by the index, nothing lost.
#[test]
fn sparse_stats_account_for_the_index() {
    let (mut generator, model) = trained_serving_model();
    let story = generator.story(20, 2);
    let hops = model.config().hops as u64;

    // Chunk size 1: the rescoring cover equals the candidate set exactly,
    // so the skip accounting is deterministic.
    let chunk1 = ExecPlan::new(MnnFastConfig::new(1)).with_kind(EngineKind::Column);
    let mut session = Session::new(model, sparse_config(chunk1, 6, 2)).unwrap();
    for sentence in &story.sentences {
        session.observe(sentence).unwrap();
    }
    let answer = session.ask(&story.questions[0].tokens).unwrap();
    assert_eq!(
        session.degradation_stats().sparse_fallbacks,
        0,
        "probe declined on well-spread data"
    );
    assert!(answer.stats.index_probes > 0, "no probes recorded");
    assert!(answer.stats.candidates_scored > 0);
    assert!(answer.stats.rows_skipped_by_index > 0, "nothing skipped");
    // Conservation, per hop: rescored + excluded = resident rows.
    assert_eq!(
        answer.stats.candidates_scored + answer.stats.rows_skipped_by_index,
        hops * session.memory_len() as u64,
        "rows leaked between rescoring and exclusion"
    );
    // The probe phase is traced like any other.
    assert_eq!(
        answer.trace.count(Phase::IndexProbe),
        answer.stats.index_probes
    );
}

/// The degradation promise: a memory of identical rows gives the probe
/// nothing to cut (cluster scores tie up to rounding, and any cascade ends
/// with every row a candidate), so the index declines and the session
/// answers with exact attention — bitwise equal to a session that never
/// had an index.
#[test]
fn collapsed_probe_margins_fall_back_to_exact() {
    let (mut generator, model) = trained_serving_model();
    let story = generator.story(4, 1);
    let sentence = &story.sentences[0];
    let question = &story.questions[0].tokens;

    let mut exact = Session::new(
        model.clone(),
        SessionConfig {
            plan: plan(EngineKind::Column),
            ..SessionConfig::default()
        },
    )
    .unwrap();
    let mut sparse = Session::new(model, sparse_config(plan(EngineKind::Column), 4, 1)).unwrap();

    // 40 identical sentences: every centroid ties, no probe can be
    // confident about which cluster holds the answer.
    for _ in 0..40 {
        exact.observe(sentence).unwrap();
        sparse.observe(sentence).unwrap();
    }
    let a = exact.ask(question).unwrap();
    let b = sparse.ask(question).unwrap();

    let d = sparse.degradation_stats();
    assert!(d.sparse_fallbacks >= 1, "collapsed margin did not decline");
    // The fallback is the exact path: same word, same probability bits.
    assert_eq!(a.word, b.word);
    assert_eq!(a.probability.to_bits(), b.probability.to_bits());
    assert_eq!(
        b.stats.rows_skipped_by_index, 0,
        "declined pass skipped rows"
    );
    // Degradation here is about confidence, not numerics: the answer is
    // full-precision and not marked degraded.
    assert!(!b.degraded);
}

/// Int8 sessions take the sparse path through the quantized mirror; answers
/// stay in parity with an exact int8 session.
#[test]
fn int8_sparse_sessions_answer_in_parity() {
    let (mut generator, model) = trained_serving_model();
    let stories: Vec<Story> = (0..6).map(|_| generator.story(20, 2)).collect();

    let mut exact = Session::new(
        model.clone(),
        SessionConfig {
            plan: plan(EngineKind::Column),
            precision: Precision::Int8,
            ..SessionConfig::default()
        },
    )
    .unwrap();
    let mut sparse = Session::new(
        model,
        SessionConfig {
            precision: Precision::Int8,
            ..sparse_config(plan(EngineKind::Column), 10, 3)
        },
    )
    .unwrap();

    for story in &stories {
        let expect = replay_words(&mut exact, story);
        let got = replay_words(&mut sparse, story);
        assert_eq!(got, expect, "int8 sparse attention changed an answer");
    }
    assert!(sparse.cumulative_stats().rows_skipped_by_index > 0);
    assert!(
        sparse.quant_resident_bytes() > 0,
        "int8 session not quantized"
    );
}

/// Sliding-window sessions maintain the index incrementally through
/// eviction: questions keep flowing as rows enter and leave, the index
/// keeps excluding rows, and every answer is either a confident sparse one
/// or an accounted exact fallback — never an error.
#[test]
fn sparse_index_follows_the_sliding_window() {
    let (mut generator, model) = trained_serving_model();
    let story = generator.story(36, 1);
    let question = &story.questions[0].tokens;
    let window = Some(16);

    // Chunk size 1 keeps the skip accounting deterministic (the rescoring
    // cover equals the candidate set).
    let chunk1 = ExecPlan::new(MnnFastConfig::new(1)).with_kind(EngineKind::Column);
    let mut sparse = Session::new(
        model.clone(),
        SessionConfig {
            max_sentences: window,
            ..sparse_config(chunk1, 6, 2)
        },
    )
    .unwrap();

    let mut asks = 0u64;
    for (i, sentence) in story.sentences.iter().enumerate() {
        sparse.observe(sentence).unwrap();
        if i % 4 == 3 {
            sparse.ask(question).unwrap();
            asks += 1;
        }
    }
    assert_eq!(sparse.memory_len(), 16, "window not enforced");
    let stats = sparse.cumulative_stats();
    let fallbacks = sparse.degradation_stats().sparse_fallbacks;
    assert!(
        stats.rows_skipped_by_index > 0,
        "index never excluded a row across {asks} asks through eviction"
    );
    assert!(fallbacks < asks, "every windowed ask fell back to exact");

    // The lazy softmax is the default plan; one SoftmaxMode::Online pass at
    // the end proves the sparse seam serves both softmax formulations.
    let mode_plan = ExecPlan::new(MnnFastConfig::new(4).with_softmax(SoftmaxMode::Online))
        .with_kind(EngineKind::Column);
    let mut online = Session::new(model, sparse_config(mode_plan, 6, 2)).unwrap();
    for sentence in story.sentences.iter().take(20) {
        online.observe(sentence).unwrap();
    }
    online.ask(question).unwrap();
}
