//! One ladder, two entry points: `ask_many(qs)[i]` must be bitwise
//! `ask(qs[i])` on every serving configuration, because both entry points
//! drive the same degradation ladder. The cells are generated from one
//! table of axes — precision x top-K x segments x worker fleet x session
//! state — the way `crates/core/tests/lattice` generates engine cells.
//!
//! The pinned-safe state is reached by driving real numeric faults through
//! the ladder, so those cells run only with the `fault-inject` feature; the
//! whole table is one test, because an armed fault is process-global. A
//! pinned cell also checks that each ask ran one Online pass: its answers
//! are bitwise a clean online-softmax session's over the f32 plane, its
//! rows grow by exactly that session's, and no retry is traced.

use mnn_dataset::babi::{BabiGenerator, Story, TaskKind};
use mnn_dataset::WordId;
use mnn_memnn::train::Trainer;
use mnn_memnn::{MemNet, ModelConfig};
use mnn_serve::{Answer, DegradationStats, ServeError, Session, SessionConfig};
use mnnfast::{EngineKind, ExecPlan, MnnFastConfig, Phase, Precision, SoftmaxMode};

/// Candidate rows per top-K question: well under the story's rows, so the
/// index really skips some.
const TOPK: usize = 10;

/// The axes of the table.
const PRECISIONS: [Precision; 2] = [Precision::F32, Precision::Int8];
const TOPKS: [usize; 2] = [0, TOPK];
const SEGMENTS: [usize; 3] = [1, 3, 8];
const WORKERS: [usize; 2] = [1, 2];
const PINNED: [bool; 2] = [false, true];

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

/// One cell's session configuration (traced, so a pinned cell can count
/// retries).
fn config(precision: Precision, topk: usize, segments: usize, workers: usize) -> SessionConfig {
    SessionConfig {
        plan: ExecPlan::new(MnnFastConfig::new(4)).with_kind(EngineKind::Column),
        precision,
        topk,
        nprobe: 3,
        segments,
        workers,
        replicas: 1,
        trace: true,
        ..SessionConfig::default()
    }
}

/// The clean session a pinned `config` session answers like, bit for bit:
/// the same segments on the local f32 plane in online-softmax mode, exact
/// attention.
fn online_twin(config: SessionConfig) -> SessionConfig {
    SessionConfig {
        plan: ExecPlan::new(config.plan.config.with_softmax(SoftmaxMode::Online))
            .with_kind(config.plan.kind),
        precision: Precision::F32,
        topk: 0,
        workers: 1,
        ..config
    }
}

/// Pins `session` to the safe path with real numeric faults: while every
/// chunk faults, an ask's exact pass and its Safe retry both fault (the
/// fleet and top-K rungs, where present, stand down first), so two asks
/// surface their faults and the third fault pins the session.
#[cfg(feature = "fault-inject")]
fn pin(session: &mut Session, question: &[WordId]) {
    use mnn_tensor::fault::{self, FaultKind};
    use mnnfast::engine::EngineError;
    fault::arm(FaultKind::NanLogit, 0, u64::MAX);
    let asks = [session.ask(question), session.ask(question)];
    fault::disarm();
    for ask in asks {
        assert!(
            matches!(
                ask,
                Err(ServeError::Engine(EngineError::NumericFault { .. }))
            ),
            "{ask:?}"
        );
    }
    let d = session.degradation_stats();
    assert!(d.pinned_safe);
    assert_eq!((d.numeric_faults, d.degraded_answers), (4, 0));
}

#[cfg(not(feature = "fault-inject"))]
fn pin(_: &mut Session, _: &[WordId]) {
    unreachable!("pinned cells need the fault-inject feature")
}

/// The ladder counters that count questions (the dist RPC counters are
/// the coordinator's, and a fault-matrix run may move them).
fn ladder_counters(d: DegradationStats) -> [u64; 6] {
    [
        d.numeric_faults,
        d.degraded_answers,
        d.deadline_misses,
        u64::from(d.pinned_safe),
        d.dist_fallbacks,
        d.sparse_fallbacks,
    ]
}

/// What must agree between the two entry points, error slots included.
type Key = Result<(WordId, u32, bool, u64, u64, u64), ServeError>;

fn key(slot: Result<Answer, ServeError>) -> Key {
    slot.map(|a| {
        let s = a.stats;
        let bits = a.probability.to_bits();
        (
            a.word,
            bits,
            a.degraded,
            s.rows_total,
            s.rows_skipped,
            s.rows_skipped_by_index,
        )
    })
}

fn session(model: &MemNet, config: SessionConfig, story: &Story, pinned: bool) -> Session {
    let mut session = Session::new(model.clone(), config).unwrap();
    for sentence in &story.sentences {
        session.observe(sentence).unwrap();
    }
    if pinned {
        pin(&mut session, &story.questions[0].tokens);
    }
    session
}

#[test]
fn ask_many_is_ask_slot_for_slot_on_every_config() {
    let (mut generator, model) = trained_serving_model();
    let story = generator.story(20, 4);
    let mut questions: Vec<Vec<WordId>> =
        story.questions.iter().map(|q| q.tokens.clone()).collect();
    // An out-of-vocabulary question fails its own slot, not its batch.
    questions.insert(2, vec![9999]);
    let mut cells = 0;
    for precision in PRECISIONS {
        for topk in TOPKS {
            for segments in SEGMENTS {
                for workers in WORKERS {
                    for pinned in PINNED {
                        // The worker fleet holds no candidate index.
                        if topk > 0 && workers > 1 || pinned && !cfg!(feature = "fault-inject") {
                            continue;
                        }
                        let cell = format!(
                            "{precision:?} topk {topk} segments {segments} \
                             workers {workers} pinned {pinned}"
                        );
                        let config = config(precision, topk, segments, workers);
                        let mut one = session(&model, config, &story, pinned);
                        let mut many = session(&model, config, &story, pinned);
                        // A pinned cell's clean online twin.
                        let mut twin =
                            pinned.then(|| session(&model, online_twin(config), &story, false));
                        let retries = |s: &Session| s.cumulative_trace().count(Phase::Retry);
                        let retried = retries(&one);
                        let batched = many.ask_many(&questions).unwrap();
                        assert_eq!(
                            batched[2].as_ref().err(),
                            Some(&ServeError::UnknownToken(9999)),
                            "{cell}"
                        );
                        for (q, slot) in questions.iter().zip(batched) {
                            let a = key(one.ask(q));
                            assert_eq!(a, key(slot), "{cell}");
                            if let Ok((.., degraded, _, _, _)) = a {
                                assert_eq!(degraded, pinned, "{cell}");
                            }
                            if let Some(twin) = twin.as_mut() {
                                let online = key(twin.ask(q)).map(|k| (k.0, k.1, true, k.3));
                                assert_eq!(a.map(|k| (k.0, k.1, k.2, k.3)), online, "{cell}");
                            }
                        }
                        let rows = |s: &Session| s.cumulative_stats().rows_total;
                        assert_eq!(rows(&one), rows(&many), "{cell}");
                        if let Some(twin) = &twin {
                            // The pinning asks failed and merged nothing.
                            assert_eq!(rows(&one), rows(twin), "{cell}: one pass per ask");
                            assert_eq!(retries(&one), retried, "{cell}: nothing retried");
                        }
                        assert_eq!(
                            ladder_counters(one.degradation_stats()),
                            ladder_counters(many.degradation_stats()),
                            "{cell}"
                        );
                        // Every in-vocabulary question is answered (the asks
                        // that pinned the session failed); the unknown token
                        // is not.
                        let answered = story.questions.len() as u64;
                        assert_eq!(one.questions_answered(), answered, "{cell}");
                        assert_eq!(many.questions_answered(), answered, "{cell}");
                        if topk > 0 && !pinned {
                            let skipped = many.cumulative_stats().rows_skipped_by_index;
                            assert!(skipped > 0, "{cell}: the index never skipped a row");
                        }
                        cells += 1;
                    }
                }
            }
        }
    }
    let expected = if cfg!(feature = "fault-inject") {
        36
    } else {
        18
    };
    assert_eq!(cells, expected, "cells run");
}
