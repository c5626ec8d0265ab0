//! Degradation-ladder integration tests driven by the `mnn-tensor`
//! fault-injection hook (cargo feature `fault-inject`).
//!
//! Each test arms a process-global fault, so the whole file serializes on
//! one mutex and disarms before releasing it. The Safe rung runs the same
//! fused kernels as the fast pass (in online-softmax mode), so it polls the
//! hook too: a fault armed to fire once is transient — the retry runs
//! clean — while one armed to keep firing reaches the retry as well.

#![cfg(feature = "fault-inject")]

use mnn_dataset::babi::{BabiGenerator, Question, Story, TaskKind};
use mnn_dataset::WordId;
use mnn_memnn::train::Trainer;
use mnn_memnn::{MemNet, ModelConfig};
use mnn_serve::{Answer, ServeError, Session, SessionConfig};
use mnn_tensor::fault::{self, FaultKind};
use mnnfast::engine::EngineError;
use mnnfast::{Budget, EngineKind, ExecPlan, MnnFastConfig, Phase, Precision, SoftmaxMode};
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn trained_model() -> (BabiGenerator, MemNet) {
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

fn observe_story(session: &mut Session, sentences: &[Vec<WordId>]) {
    for s in sentences {
        session.observe(s).unwrap();
    }
}

/// The story a Safe-bits test runs on: the first story drawn whose every
/// clean answer carries different probability bits in lazy and online
/// mode (the f32 plane), so a Safe answer that matches the online bits
/// cannot have come from a lazy retry.
fn safe_story(
    generator: &mut BabiGenerator,
    model: &MemNet,
    sentences: usize,
    questions: usize,
) -> Story {
    for _ in 0..16 {
        let story = generator.story(sentences, questions);
        let probabilities = |config: SessionConfig| {
            let mut session = Session::new(model.clone(), config).unwrap();
            observe_story(&mut session, &story.sentences);
            let ask = |q: &Question| session.ask(&q.tokens).unwrap().probability.to_bits();
            story.questions.iter().map(ask).collect::<Vec<_>>()
        };
        let lazy = probabilities(SessionConfig::default());
        let online = probabilities(SessionConfig {
            plan: ExecPlan::new(MnnFastConfig::new(64).with_softmax(SoftmaxMode::Online)),
            ..SessionConfig::default()
        });
        if lazy.iter().zip(&online).all(|(l, o)| l != o) {
            return story;
        }
    }
    panic!("no story tells lazy from online answers");
}

/// A clean session whose answers a Safe-rung answer of a `config` session
/// must equal bit for bit: the same plan in online-softmax mode over the
/// f32 plane (the Safe rung reads f32 rows whatever the precision).
fn online_twin(model: &MemNet, config: SessionConfig, sentences: &[Vec<WordId>]) -> Session {
    let config = SessionConfig {
        plan: ExecPlan::new(config.plan.config.with_softmax(SoftmaxMode::Online))
            .with_kind(config.plan.kind),
        precision: Precision::F32,
        ..config
    };
    let mut twin = Session::new(model.clone(), config).unwrap();
    observe_story(&mut twin, sentences);
    twin
}

/// `answer` came from the Safe rung and carries `clean`'s word and
/// probability bits (a finite, positive probability).
fn assert_safe_bits(answer: &Answer, clean: &Answer, ctx: &str) {
    assert!(answer.degraded, "{ctx}: the Safe rung answered");
    assert!(!clean.degraded, "{ctx}");
    assert!(
        clean.probability.is_finite() && clean.probability > 0.0,
        "{ctx}"
    );
    assert_eq!(answer.word, clean.word, "{ctx}");
    assert_eq!(
        answer.probability.to_bits(),
        clean.probability.to_bits(),
        "{ctx}: probability {} vs {}",
        answer.probability,
        clean.probability
    );
}

/// A pinned session's ask runs exactly one Online pass: its answer is the
/// clean Online answer's bits, the session's rows grow by that answer's
/// rows, the chunk kernels run that answer's chunks (a zero-length
/// `SlowChunk` fires on every chunk and changes nothing), and no retry is
/// traced.
fn assert_one_online_pass(session: &mut Session, question: &[WordId], clean: &Answer) {
    assert!(session.degradation_stats().pinned_safe);
    let rows = session.cumulative_stats().rows_total;
    let retries = session.cumulative_trace().count(Phase::Retry);
    fault::arm(FaultKind::SlowChunk(Duration::ZERO), 0, u64::MAX);
    let answer = session.ask(question);
    let chunks = fault::fired();
    fault::disarm();
    let answer = answer.unwrap();
    assert_safe_bits(&answer, clean, "pinned ask");
    assert_eq!(
        session.cumulative_stats().rows_total - rows,
        clean.stats.rows_total,
        "one pass of rows"
    );
    assert_eq!(chunks, clean.stats.chunks, "one pass of chunk kernels");
    assert_eq!(
        session.cumulative_trace().count(Phase::Retry),
        retries,
        "a pinned ask starts on the Safe rung: nothing is retried"
    );
}

#[test]
fn injected_nan_recovers_via_the_safe_retry() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = safe_story(&mut generator, &model, 6, 2);
    let q = &story.questions[0].tokens;

    // Reference answers from undisturbed sessions.
    let mut clean = Session::new(model.clone(), SessionConfig::default()).unwrap();
    observe_story(&mut clean, &story.sentences);
    let expected = clean.ask(q).unwrap();
    assert!(!expected.degraded);
    let online = online_twin(&model, SessionConfig::default(), &story.sentences).ask(q);

    let mut session = Session::new(model, SessionConfig::default()).unwrap();
    observe_story(&mut session, &story.sentences);
    // Transient: one fire poisons the fast pass; the retry runs clean.
    fault::arm(FaultKind::NanLogit, 0, 1);
    let answer = session.ask(q).unwrap();
    let fires = fault::fired();
    fault::disarm();

    assert_eq!(fires, 1, "exactly one chunk was poisoned");
    assert_eq!(answer.word, expected.word, "retry reproduces the answer");
    assert_safe_bits(&answer, &online.unwrap(), "lone f32 retry");
    let d = session.degradation_stats();
    assert_eq!(d.numeric_faults, 1);
    assert_eq!(d.degraded_answers, 1);
    assert_eq!(d.deadline_misses, 0);
    assert!(!d.pinned_safe, "one fault must not pin (threshold is 3)");
}

/// A chunk kernel that panics on a one-thread session — the daemon's
/// default, where the pass runs inline on the serving thread — is
/// contained like a worker's: the question moves to the Safe rung and is
/// answered there, for a lone ask and for a coalesced pair alike.
#[test]
fn panicking_chunk_on_a_one_thread_session_answers_through_safe() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = safe_story(&mut generator, &model, 6, 2);
    let questions: Vec<_> = story.questions.iter().map(|q| q.tokens.clone()).collect();

    let mut clean = Session::new(model.clone(), SessionConfig::default()).unwrap();
    observe_story(&mut clean, &story.sentences);
    let expected: Vec<_> = questions.iter().map(|q| clean.ask(q).unwrap()).collect();
    let mut twin = online_twin(&model, SessionConfig::default(), &story.sentences);
    let online: Vec<_> = questions.iter().map(|q| twin.ask(q).unwrap()).collect();

    let config = SessionConfig::default();
    assert_eq!(config.plan.config.threads, 1);
    let mut session = Session::new(model, config).unwrap();
    observe_story(&mut session, &story.sentences);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // Transient: one panicking chunk per ask; the Safe pass runs clean.
    fault::arm(FaultKind::PanicChunk, 0, 1);
    let lone = session.ask(&questions[0]);
    let lone_fires = fault::fired();
    fault::arm(FaultKind::PanicChunk, 0, 1);
    let pair = session.ask_many(&questions);
    let pair_fires = fault::fired();
    fault::disarm();
    std::panic::set_hook(previous);

    assert_eq!((lone_fires, pair_fires), (1, 1));
    let lone = lone.expect("a contained panic is not a lost question");
    assert_eq!(lone.word, expected[0].word);
    assert_safe_bits(&lone, &online[0], "lone");
    // One lane held both questions, so both moved to the Safe rung.
    for (i, a) in pair.unwrap().iter().enumerate() {
        let a = a.as_ref().unwrap();
        assert_eq!(a.word, expected[i].word);
        assert_safe_bits(a, &online[i], &format!("pair slot {i}"));
    }
    let d = session.degradation_stats();
    assert_eq!(d.degraded_answers, 3, "three SafeAnswer events");
    assert_eq!(d.numeric_faults, 3, "a contained panic counts as a fault");
    assert_eq!(session.questions_answered(), 3);
}

#[test]
fn int8_numeric_fault_degrades_to_f32_safe_path() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = safe_story(&mut generator, &model, 6, 2);
    let questions: Vec<_> = story.questions.iter().map(|q| q.tokens.clone()).collect();
    let config = SessionConfig {
        precision: Precision::Int8,
        ..SessionConfig::default()
    };

    let mut clean = Session::new(model.clone(), config).unwrap();
    observe_story(&mut clean, &story.sentences);
    let expected: Vec<_> = questions.iter().map(|q| clean.ask(q).unwrap()).collect();
    assert!(!expected[0].degraded);
    let mut twin = online_twin(&model, config, &story.sentences);
    let online: Vec<_> = questions.iter().map(|q| twin.ask(q).unwrap()).collect();

    let mut session = Session::new(model, config).unwrap();
    observe_story(&mut session, &story.sentences);
    // Transient: one fire on the int8 fast pass, a clean f32 retry.
    fault::arm(FaultKind::NanLogit, 0, 1);
    let answer = session.ask(&questions[0]).unwrap();
    let fires = fault::fired();
    fault::disarm();

    assert_eq!(fires, 1, "the poison must land on the int8 fused path");
    assert_eq!(answer.word, expected[0].word);
    assert_safe_bits(&answer, &online[0], "lone int8 retry on the f32 plane");
    let d = session.degradation_stats();
    assert_eq!(d.numeric_faults, 1);
    assert_eq!(d.degraded_answers, 1);
    assert!(!d.pinned_safe);
    // The safe-path retry read the full-width f32 rows, so the degraded
    // answer's byte count exceeds a clean int8 pass.
    assert!(answer.stats.memory_bytes > expected[0].stats.memory_bytes);

    // A coalesced pair: the int8 plane runs each question's chunk on its
    // own, so the one fire poisons the first question only.
    fault::arm(FaultKind::NanLogit, 0, 1);
    let pair = session.ask_many(&questions).unwrap();
    let fires = fault::fired();
    fault::disarm();
    assert_eq!(fires, 1);
    let (a0, a1) = (pair[0].as_ref().unwrap(), pair[1].as_ref().unwrap());
    assert_safe_bits(a0, &online[0], "pair slot 0 (int8)");
    assert!(
        !a1.degraded,
        "the unpoisoned question stays on the int8 pass"
    );
    assert_eq!(a1.word, expected[1].word);
    assert_eq!(a1.probability.to_bits(), expected[1].probability.to_bits());
    let d = session.degradation_stats();
    assert_eq!((d.numeric_faults, d.degraded_answers), (2, 2));
}

#[test]
fn oversized_logits_overflow_is_caught_and_degraded() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = safe_story(&mut generator, &model, 6, 1);
    let q = &story.questions[0].tokens;

    let mut clean = Session::new(model.clone(), SessionConfig::default()).unwrap();
    observe_story(&mut clean, &story.sentences);
    let expected = clean.ask(q).unwrap();
    let online = online_twin(&model, SessionConfig::default(), &story.sentences).ask(q);

    let mut session = Session::new(model, SessionConfig::default()).unwrap();
    observe_story(&mut session, &story.sentences);
    // Transient: the lazy fast pass overflows once; the retry runs clean.
    fault::arm(FaultKind::OversizedLogit, 0, 1);
    let answer = session.ask(q).unwrap();
    fault::disarm();

    assert_eq!(answer.word, expected.word);
    assert_safe_bits(&answer, &online.unwrap(), "overflow retry");
    assert_eq!(session.degradation_stats().numeric_faults, 1);
}

#[test]
fn repeated_faults_pin_session_to_safe_path() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = safe_story(&mut generator, &model, 6, 2);
    let config = SessionConfig {
        trace: true,
        ..SessionConfig::default()
    };
    let q = &story.questions[0].tokens;
    let clean = online_twin(&model, config, &story.sentences)
        .ask(q)
        .unwrap();
    let mut session = Session::new(model, config).unwrap();
    observe_story(&mut session, &story.sentences);

    // Three transient faults, each cured by its retry, reach the pin.
    for faults in 1..=3 {
        fault::arm(FaultKind::NanLogit, 0, 1);
        let answer = session.ask(q).unwrap();
        let fires = fault::fired();
        fault::disarm();
        assert_eq!(fires, 1);
        assert_safe_bits(&answer, &clean, &format!("retry {faults}"));
        assert_eq!(session.degradation_stats().pinned_safe, faults == 3);
    }
    assert_eq!(session.cumulative_trace().count(Phase::Retry), 3);
    assert_one_online_pass(&mut session, q, &clean);

    let d = session.degradation_stats();
    assert_eq!(d.numeric_faults, 3);
    assert_eq!(d.degraded_answers, 4);
    assert!(d.pinned_safe);
    assert_eq!(session.questions_answered(), 4);
}

#[test]
fn a_fault_that_reaches_the_retry_surfaces() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = generator.story(4, 1);
    let mut session = Session::new(model, SessionConfig::default()).unwrap();
    observe_story(&mut session, &story.sentences);

    // Two fires: the fast pass's first chunk, then the Safe retry's.
    fault::arm(FaultKind::NanLogit, 0, 2);
    let err = session.ask(&story.questions[0].tokens).unwrap_err();
    let fires = fault::fired();
    fault::disarm();

    assert_eq!(fires, 2, "the retry ran and faulted too");
    assert!(matches!(
        err,
        ServeError::Engine(EngineError::NumericFault { .. })
    ));
    let d = session.degradation_stats();
    assert_eq!(d.numeric_faults, 2, "the fast fault and the Safe fault");
    assert_eq!(d.degraded_answers, 0);
    assert!(!d.pinned_safe);
    assert_eq!(session.questions_answered(), 0);
    assert_eq!(session.cumulative_stats().rows_total, 0);
    // The fault left no residue: the next question answers normally.
    let a = session.ask(&story.questions[0].tokens).unwrap();
    assert!(!a.degraded);
}

#[test]
fn surfaced_faults_count_toward_the_pin_too() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = safe_story(&mut generator, &model, 4, 1);
    let config = SessionConfig {
        trace: true,
        ..SessionConfig::default()
    };
    let q = &story.questions[0].tokens;
    let clean = online_twin(&model, config, &story.sentences)
        .ask(q)
        .unwrap();
    let mut session = Session::new(model, config).unwrap();
    observe_story(&mut session, &story.sentences);

    // Every fault counts, retried or not. Persistent: each ask's fast pass
    // and its Safe retry both fault, so the first ask surfaces two faults
    // and the second ask's fast fault is the third, which pins the
    // session (its retry faults too, the fourth).
    fault::arm(FaultKind::NanLogit, 0, u64::MAX);
    assert!(session.ask(q).is_err());
    assert!(!session.degradation_stats().pinned_safe);
    assert!(session.ask(q).is_err());
    fault::disarm();
    assert_eq!(session.degradation_stats().numeric_faults, 4);
    assert_one_online_pass(&mut session, q, &clean);

    let d = session.degradation_stats();
    assert_eq!((d.numeric_faults, d.degraded_answers), (4, 1));
    assert!(d.pinned_safe);
}

#[test]
fn slow_chunk_trips_one_batched_deadline_leaving_batchmates_unaffected() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = generator.story(6, 2);
    // chunk_size 2 gives 3 shared chunks per batched pass: the slow chunk 0
    // burns the tight deadline and the per-question budget check at the
    // head of chunk 1 abandons exactly that question.
    let config = SessionConfig {
        plan: ExecPlan::new(MnnFastConfig::new(2)).with_kind(EngineKind::Column),
        ..SessionConfig::default()
    };

    let mut clean = Session::new(model.clone(), config).unwrap();
    observe_story(&mut clean, &story.sentences);
    let q0 = story.questions[0].tokens.clone();
    let q1 = story.questions[1].tokens.clone();
    let expected = clean.ask(&q0).unwrap();

    let mut session = Session::new(model, config).unwrap();
    observe_story(&mut session, &story.sentences);
    let questions = vec![q0.clone(), q1, q0];
    let budgets = vec![
        Budget::unlimited(),
        Budget::with_deadline(Duration::from_millis(10)),
        Budget::unlimited(),
    ];
    fault::arm(FaultKind::SlowChunk(Duration::from_millis(50)), 0, 1);
    let answers = session.ask_many_budgeted(&questions, &budgets).unwrap();
    fault::disarm();

    // The deadline tripped mid-batch with its typed error...
    assert!(matches!(
        answers[1],
        Err(ServeError::Engine(EngineError::DeadlineExceeded { .. }))
    ));
    // ...while its batchmates finished on the fast path, unperturbed.
    let a0 = answers[0].as_ref().unwrap();
    let a2 = answers[2].as_ref().unwrap();
    assert_eq!(a0.word, expected.word);
    assert_eq!(a2.word, expected.word);
    assert!(!a0.degraded && !a2.degraded);
    let d = session.degradation_stats();
    assert_eq!(d.deadline_misses, 1);
    assert_eq!(d.numeric_faults, 0);
    assert_eq!(session.questions_answered(), 2);
}

#[test]
fn batched_numeric_fault_retries_only_the_faulted_question() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = safe_story(&mut generator, &model, 6, 2);

    let mut clean = Session::new(model.clone(), SessionConfig::default()).unwrap();
    observe_story(&mut clean, &story.sentences);
    let q0 = story.questions[0].tokens.clone();
    let q1 = story.questions[1].tokens.clone();
    let e0 = clean.ask(&q0).unwrap();
    let e1 = clean.ask(&q1).unwrap();
    let mut twin = online_twin(&model, SessionConfig::default(), &story.sentences);
    let online = [twin.ask(&q0).unwrap(), twin.ask(&q1).unwrap()];

    let mut session = Session::new(model, SessionConfig::default()).unwrap();
    observe_story(&mut session, &story.sentences);
    // The poison lands in the first logit slot of the batched chunk, so
    // exactly one question's accumulator goes NaN and only that question
    // takes the safe-path retry (transient: the retry runs clean).
    fault::arm(FaultKind::NanLogit, 0, 1);
    let answers = session.ask_many(&[q0, q1]).unwrap();
    let fires = fault::fired();
    fault::disarm();

    assert_eq!(fires, 1);
    let a0 = answers[0].as_ref().unwrap();
    let a1 = answers[1].as_ref().unwrap();
    assert_eq!(a0.word, e0.word);
    assert_eq!(a1.word, e1.word);
    let degraded = usize::from(a0.degraded) + usize::from(a1.degraded);
    assert_eq!(degraded, 1, "exactly one question took the retry path");
    for (i, (a, e)) in [(a0, &e0), (a1, &e1)].into_iter().enumerate() {
        if a.degraded {
            assert_safe_bits(a, &online[i], &format!("pair slot {i}"));
        } else {
            assert_eq!(a.probability.to_bits(), e.probability.to_bits(), "slot {i}");
        }
    }
    let d = session.degradation_stats();
    assert_eq!(d.numeric_faults, 1);
    assert_eq!(d.degraded_answers, 1);
    assert!(!d.pinned_safe);
    assert_eq!(session.questions_answered(), 2);
}

#[test]
fn slow_chunk_trips_deadline_mid_question_without_corrupting_state() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = generator.story(6, 2);
    // chunk_size 2 gives 3 chunks per question, so the budget check at the
    // head of chunk 2 observes the deadline the slow chunk 1 burned.
    let config = SessionConfig {
        plan: ExecPlan::new(MnnFastConfig::new(2)).with_kind(EngineKind::Column),
        deadline: Some(Duration::from_millis(10)),
        ..SessionConfig::default()
    };
    let mut session = Session::new(model, config).unwrap();
    observe_story(&mut session, &story.sentences);

    fault::arm(FaultKind::SlowChunk(Duration::from_millis(50)), 0, 1);
    let err = session.ask(&story.questions[0].tokens).unwrap_err();
    fault::disarm();

    assert!(matches!(
        err,
        ServeError::Engine(EngineError::DeadlineExceeded { .. })
    ));
    let d = session.degradation_stats();
    assert_eq!(d.deadline_misses, 1);
    assert_eq!(d.numeric_faults, 0);
    assert_eq!(session.questions_answered(), 0);
    assert_eq!(session.cumulative_stats().rows_total, 0);
    assert_eq!(session.memory_len(), 6);
    // Undisturbed, the same 10 ms deadline is plenty for 6 rows.
    let a = session.ask(&story.questions[0].tokens).unwrap();
    assert!(!a.degraded);
    assert_eq!(session.questions_answered(), 1);
}
