//! Degradation-ladder integration tests driven by the `mnn-tensor`
//! fault-injection hook (cargo feature `fault-inject`).
//!
//! Each test arms a process-global fault, so the whole file serializes on
//! one mutex and disarms before releasing it.

#![cfg(feature = "fault-inject")]

use mnn_dataset::babi::{BabiGenerator, TaskKind};
use mnn_memnn::train::Trainer;
use mnn_memnn::{MemNet, ModelConfig};
use mnn_serve::{DegradationPolicy, ServeError, Session, SessionConfig};
use mnn_tensor::fault::{self, FaultKind};
use mnnfast::engine::EngineError;
use mnnfast::{Budget, EngineKind, ExecPlan, MnnFastConfig};
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

fn observe_story(session: &mut Session, sentences: &[Vec<mnn_dataset::WordId>]) {
    for s in sentences {
        session.observe(s).unwrap();
    }
}

#[test]
fn injected_nan_recovers_via_scalar_stable_retry() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = generator.story(6, 2);

    // Reference answer from an undisturbed session.
    let mut clean = Session::new(model.clone(), SessionConfig::default()).unwrap();
    observe_story(&mut clean, &story.sentences);
    let expected = clean.ask(&story.questions[0].tokens).unwrap();
    assert!(!expected.degraded);

    let mut session = Session::new(model, SessionConfig::default()).unwrap();
    observe_story(&mut session, &story.sentences);
    fault::arm(FaultKind::NanLogit, 0, 1);
    let answer = session.ask(&story.questions[0].tokens).unwrap();
    let fires = fault::fired();
    fault::disarm();

    assert_eq!(fires, 1, "exactly one chunk was poisoned");
    assert!(answer.degraded, "answer must come from the safe path");
    assert_eq!(answer.word, expected.word, "retry reproduces the answer");
    assert!(answer.probability.is_finite() && answer.probability > 0.0);
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
    let story = generator.story(6, 2);
    let questions: Vec<_> = story.questions.iter().map(|q| q.tokens.clone()).collect();

    let mut clean = Session::new(model.clone(), SessionConfig::default()).unwrap();
    observe_story(&mut clean, &story.sentences);
    let expected: Vec<_> = questions.iter().map(|q| clean.ask(q).unwrap()).collect();

    let config = SessionConfig::default();
    assert_eq!(config.plan.config.threads, 1);
    let mut session = Session::new(model, config).unwrap();
    observe_story(&mut session, &story.sentences);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
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
    assert!(lone.degraded, "the Safe rung answered");
    assert_eq!(lone.word, expected[0].word);
    // One lane held both questions, so both moved to the Safe rung.
    for (a, e) in pair.unwrap().iter().zip(&expected) {
        let a = a.as_ref().unwrap();
        assert!(a.degraded);
        assert_eq!(a.word, e.word);
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
    let story = generator.story(6, 2);
    let config = SessionConfig {
        precision: mnnfast::Precision::Int8,
        ..SessionConfig::default()
    };

    let mut clean = Session::new(model.clone(), config).unwrap();
    observe_story(&mut clean, &story.sentences);
    let expected = clean.ask(&story.questions[0].tokens).unwrap();
    assert!(!expected.degraded);

    let mut session = Session::new(model, config).unwrap();
    observe_story(&mut session, &story.sentences);
    fault::arm(FaultKind::NanLogit, 0, 1);
    let answer = session.ask(&story.questions[0].tokens).unwrap();
    let fires = fault::fired();
    fault::disarm();

    assert_eq!(fires, 1, "the poison must land on the int8 fused path");
    assert!(
        answer.degraded,
        "the faulted int8 question must retry on the f32 safe path"
    );
    assert_eq!(answer.word, expected.word);
    assert!(answer.probability.is_finite() && answer.probability > 0.0);
    let d = session.degradation_stats();
    assert_eq!(d.numeric_faults, 1);
    assert_eq!(d.degraded_answers, 1);
    assert!(!d.pinned_safe);
    // The safe-path retry read the full-width f32 rows, so the degraded
    // answer's byte count exceeds a clean int8 pass.
    assert!(answer.stats.memory_bytes > expected.stats.memory_bytes);
}

#[test]
fn oversized_logits_overflow_is_caught_and_degraded() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = generator.story(6, 1);

    let mut clean = Session::new(model.clone(), SessionConfig::default()).unwrap();
    observe_story(&mut clean, &story.sentences);
    let expected = clean.ask(&story.questions[0].tokens).unwrap();

    let mut session = Session::new(model, SessionConfig::default()).unwrap();
    observe_story(&mut session, &story.sentences);
    fault::arm(FaultKind::OversizedLogit, 0, 1);
    let answer = session.ask(&story.questions[0].tokens).unwrap();
    fault::disarm();

    assert!(answer.degraded);
    assert_eq!(answer.word, expected.word);
    assert_eq!(session.degradation_stats().numeric_faults, 1);
}

#[test]
fn repeated_faults_pin_session_to_safe_path() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = generator.story(6, 2);
    let config = SessionConfig {
        degradation: DegradationPolicy {
            retry_on_numeric_fault: true,
            pin_after_faults: Some(2),
        },
        ..SessionConfig::default()
    };
    let mut session = Session::new(model, config).unwrap();
    observe_story(&mut session, &story.sentences);

    // Every fused chunk faults until disarmed.
    fault::arm(FaultKind::NanLogit, 0, u64::MAX);
    let q = &story.questions[0].tokens;
    let a1 = session.ask(q).unwrap();
    let a2 = session.ask(q).unwrap();
    // Two faults reached the threshold: this ask runs on the safe path
    // directly and never touches the (still armed) fused kernel.
    let fires_before_pinned = fault::fired();
    let a3 = session.ask(q).unwrap();
    let fires_after_pinned = fault::fired();
    fault::disarm();

    assert!(a1.degraded && a2.degraded && a3.degraded);
    assert_eq!(
        fires_before_pinned, fires_after_pinned,
        "a pinned session must not run the fused kernel"
    );
    let d = session.degradation_stats();
    assert_eq!(d.numeric_faults, 2);
    assert_eq!(d.degraded_answers, 3);
    assert!(d.pinned_safe);
    assert_eq!(session.questions_answered(), 3);
}

#[test]
fn disabled_retry_surfaces_numeric_fault() {
    let _guard = lock();
    let (mut generator, model) = trained_model();
    let story = generator.story(4, 1);
    let config = SessionConfig {
        degradation: DegradationPolicy {
            retry_on_numeric_fault: false,
            pin_after_faults: None,
        },
        ..SessionConfig::default()
    };
    let mut session = Session::new(model, config).unwrap();
    observe_story(&mut session, &story.sentences);

    fault::arm(FaultKind::NanLogit, 0, 1);
    let err = session.ask(&story.questions[0].tokens).unwrap_err();
    fault::disarm();

    assert!(matches!(
        err,
        ServeError::Engine(EngineError::NumericFault { .. })
    ));
    let d = session.degradation_stats();
    assert_eq!(d.numeric_faults, 1);
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
    let story = generator.story(4, 1);
    let config = SessionConfig {
        degradation: DegradationPolicy {
            retry_on_numeric_fault: false,
            pin_after_faults: Some(2),
        },
        ..SessionConfig::default()
    };
    let mut session = Session::new(model, config).unwrap();
    observe_story(&mut session, &story.sentences);

    // Every fault counts, retried or not: two surfaced faults pin the
    // session, and the pinned session answers on the safe path without
    // touching the (still armed) fused kernel.
    fault::arm(FaultKind::NanLogit, 0, u64::MAX);
    let q = &story.questions[0].tokens;
    assert!(session.ask(q).is_err());
    assert!(!session.degradation_stats().pinned_safe);
    assert!(session.ask(q).is_err());
    let fires = fault::fired();
    let a = session.ask(q);
    let fires_pinned = fault::fired();
    fault::disarm();

    assert!(a.unwrap().degraded);
    assert_eq!(
        fires, fires_pinned,
        "a pinned session must not run the fused kernel"
    );
    let d = session.degradation_stats();
    assert_eq!((d.numeric_faults, d.degraded_answers), (2, 1));
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
    let story = generator.story(6, 2);

    let mut clean = Session::new(model.clone(), SessionConfig::default()).unwrap();
    observe_story(&mut clean, &story.sentences);
    let q0 = story.questions[0].tokens.clone();
    let q1 = story.questions[1].tokens.clone();
    let e0 = clean.ask(&q0).unwrap();
    let e1 = clean.ask(&q1).unwrap();

    let mut session = Session::new(model, SessionConfig::default()).unwrap();
    observe_story(&mut session, &story.sentences);
    // The poison lands in the first logit slot of the batched chunk, so
    // exactly one question's accumulator goes NaN and only that question
    // takes the safe-path retry.
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
