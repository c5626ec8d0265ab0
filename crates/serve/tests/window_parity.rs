//! Evict-then-ask parity for the sliding-window store.
//!
//! Eviction advances a window over the store's planes instead of moving
//! rows, and the planes compact only now and then. None of that may be
//! observable: a session whose window has slid (and compacted, on the f32
//! planes and on the int8 mirror) must answer exactly — word, probability
//! bits, engine counters — like a fresh session that only ever saw the
//! surviving sentences, on every memory plane and route.

use mnn_dataset::WordId;
use mnn_memnn::{MemNet, ModelConfig};
use mnn_serve::{Session, SessionConfig};
use mnnfast::{EngineKind, ExecPlan, InferenceStats, MnnFastConfig, Precision, SoftmaxMode};

const VOCAB: usize = 40;
const CHUNK: usize = 4;
/// Window bound: not a multiple of `CHUNK`, slack `max(W / 32, 1) = 2`, so
/// the f32 planes compact every third observe once full, and the `2W + 7`
/// evictions cross the int8 mirror's 64-row compaction threshold twice.
const W: usize = 70;

fn model() -> MemNet {
    let config = ModelConfig {
        vocab_size: VOCAB,
        embedding_dim: 24,
        max_sentences: 8,
        hops: 2,
        temporal: false,
        position_encoding: true,
    };
    MemNet::new(config, 9)
}

/// `n` deterministic pseudo-random token lists of 3..=6 words.
fn token_lists(n: usize, seed: u64) -> Vec<Vec<WordId>> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    (0..n)
        .map(|_| {
            let len = 3 + next() % 4;
            (0..len).map(|_| (next() % VOCAB) as WordId).collect()
        })
        .collect()
}

fn session_after(config: SessionConfig, sentences: &[Vec<WordId>]) -> Session {
    let mut session = Session::new(model(), config).unwrap();
    for sentence in sentences {
        session.observe(sentence).unwrap();
    }
    session
}

/// Every question asked alone, then all of them as one batch.
fn answers(session: &mut Session, questions: &[Vec<WordId>]) -> Vec<(WordId, u32, InferenceStats)> {
    let alone = questions.iter().map(|q| session.ask(q).unwrap());
    let mut all: Vec<_> = alone.collect();
    all.extend(
        session
            .ask_many(questions)
            .unwrap()
            .into_iter()
            .map(Result::unwrap),
    );
    all.iter()
        .map(|a| {
            assert!(!a.degraded);
            (a.word, a.probability.to_bits(), a.stats)
        })
        .collect()
}

#[test]
fn a_slid_window_answers_like_a_fresh_session_on_every_plane() {
    let sentences = token_lists(3 * W + 7, 0xfeed);
    let questions = token_lists(6, 0xbeef);
    let plan = |mode, kind, threads| {
        ExecPlan::new(
            MnnFastConfig::new(CHUNK)
                .with_softmax(mode)
                .with_threads(threads),
        )
        .with_kind(kind)
    };
    let lazy = SoftmaxMode::Lazy;
    // (plan, precision, segments); online softmax is the mode that prunes
    // segments through zone maps built from the windowed norms.
    let cases = [
        (plan(lazy, EngineKind::Column, 1), Precision::F32, 1),
        (plan(lazy, EngineKind::Parallel, 2), Precision::F32, 1),
        (plan(lazy, EngineKind::Column, 1), Precision::Int8, 1),
        (
            plan(SoftmaxMode::Online, EngineKind::Column, 1),
            Precision::F32,
            3,
        ),
        (
            plan(SoftmaxMode::Online, EngineKind::Parallel, 2),
            Precision::Int8,
            3,
        ),
    ];
    for (plan, precision, segments) in cases {
        let config = SessionConfig {
            plan,
            precision,
            segments,
            max_sentences: Some(W),
            ..SessionConfig::default()
        };
        let mut slid = session_after(config, &sentences);
        let mut fresh = session_after(config, &sentences[sentences.len() - W..]);
        assert_eq!(slid.memory_len(), W);
        // Accounting reports live rows: no dead prefix, no slack.
        assert_eq!(slid.memory_resident_bytes(), fresh.memory_resident_bytes());
        assert_eq!(slid.quant_resident_bytes(), fresh.quant_resident_bytes());
        assert_eq!(
            answers(&mut slid, &questions),
            answers(&mut fresh, &questions),
            "{:?} {precision:?} segments {segments}",
            plan.kind
        );
    }
}
