//! Parity tests for the shared output stage.
//!
//! [`MemNet::output_answers`] answers a whole batch in one blocked pass
//! over `W`. For every question, whatever else shares its batch and
//! whatever the row block, its answer is the per-question reference
//! below, bit for bit: the word of `output_logits` + `reduce::argmax`,
//! and the probability `softmax::argmax_softmax` gives on those logits.
//! That probability is in turn within `ARGMAX_SOFTMAX_MAX_REL_ERROR` of
//! the textbook `softmax_in_place`. Shapes are the awkward ones: `ed` off
//! the SIMD width, vocabularies that are not a multiple of the row block,
//! and every batch size the serving paths use. The stage splits over a
//! worker team's threads (by question range, or by `W` row range when a
//! batch has fewer questions than lanes); at one, two and three lanes the
//! answers are the inline stage's bits.
//!
//! Every test runs on both kernel backends. The backend is process-global,
//! so the tests of this file take turns behind one lock.

use mnn_memnn::model::{OUTPUT_BLOCK_BYTES, OUTPUT_SPLIT_BLOCKS};
use mnn_memnn::{MemNet, ModelConfig, OutputStage};
use mnn_serve::{Session, SessionConfig};
use mnn_tensor::simd::{self, Backend, ARGMAX_SOFTMAX_MAX_REL_ERROR};
use mnn_tensor::{reduce, softmax, Team};
use proptest::prelude::*;
use std::sync::Mutex;

static BACKEND: Mutex<()> = Mutex::new(());

/// Runs `check` once on the scalar backend and once on the best backend
/// this CPU has (the same one under `MNNFAST_SIMD=scalar`/`force-scalar`).
fn on_each_backend(mut check: impl FnMut(Backend)) {
    let _turn = BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    let original = simd::backend();
    for requested in [Backend::Scalar, Backend::detect()] {
        simd::set_backend(requested);
        check(simd::backend());
    }
    simd::set_backend(original);
}

fn model(vocab_size: usize, ed: usize, seed: u64) -> MemNet {
    let config = ModelConfig {
        vocab_size,
        embedding_dim: ed,
        max_sentences: 4,
        hops: 1,
        temporal: false,
        position_encoding: false,
    };
    MemNet::new(config, seed)
}

/// `nq` deterministic `(o, u)` pairs of width `ed`.
fn responses(nq: usize, ed: usize, seed: u64) -> Vec<(Vec<f32>, Vec<f32>)> {
    let wave = |q: usize, k: usize, phase: f32| {
        ((q * 31 + k * 7) as f32 * 0.137 + seed as f32 * 0.61 + phase).sin() * 2.5
    };
    (0..nq)
        .map(|q| {
            (
                (0..ed).map(|k| wave(q, k, 0.0)).collect(),
                (0..ed).map(|k| wave(q, k, 1.3)).collect(),
            )
        })
        .collect()
}

/// One question's answer from its unblocked logits: the `reduce::argmax`
/// word and the `softmax::argmax_softmax` probability, which is checked
/// against the textbook `softmax_in_place` here.
fn reference(model: &MemNet, o: &[f32], u: &[f32]) -> Option<(u32, f32)> {
    let mut logits = model.output_logits(o, u);
    let word = reduce::argmax(&logits)?;
    let (_, p) = softmax::argmax_softmax(&logits)?;
    softmax::softmax_in_place(&mut logits);
    let textbook = logits[word];
    assert!(
        (p.is_nan() && textbook.is_nan())
            || (p - textbook).abs() <= ARGMAX_SOFTMAX_MAX_REL_ERROR * textbook,
        "word {word}: probability {p} vs softmax_in_place {textbook}"
    );
    Some((word as u32, p))
}

fn staged(model: &MemNet, batch: &[(Vec<f32>, Vec<f32>)]) -> Vec<Option<(u32, f32)>> {
    staged_on(model, batch, &mut Team::new())
}

fn staged_on(
    model: &MemNet,
    batch: &[(Vec<f32>, Vec<f32>)],
    team: &mut Team,
) -> Vec<Option<(u32, f32)>> {
    let mut stage = OutputStage::default();
    model.output_answers(
        batch.iter().map(|(o, u)| (o.as_slice(), u.as_slice())),
        &mut stage,
        team,
    );
    stage.answers().to_vec()
}

/// A team that holds `lanes` threads, the caller's included.
fn team_of(lanes: usize) -> Team {
    let mut team = Team::new();
    team.split(0..lanes, |_| {});
    assert_eq!(team.threads(), lanes);
    team
}

/// Bitwise equality, except that two NaN probabilities agree whatever
/// their payloads.
fn same(a: Option<(u32, f32)>, b: Option<(u32, f32)>) -> bool {
    match (a, b) {
        (Some((wa, pa)), Some((wb, pb))) => {
            wa == wb && (pa.to_bits() == pb.to_bits() || (pa.is_nan() && pb.is_nan()))
        }
        (None, None) => true,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_output_stage_is_bitwise_the_per_question_sequence(
        nq in prop_oneof![Just(1usize), Just(2), Just(7), Just(8), Just(32)],
        ed in prop_oneof![Just(1usize), Just(3), Just(63), Just(65)],
        blocks in 0usize..3 * OUTPUT_SPLIT_BLOCKS + 2,
        ragged in 1usize..40,
        seed in 0u64..1000,
    ) {
        // `blocks` whole row blocks plus a ragged tail: never a multiple.
        // Three lanes split from `3 · OUTPUT_SPLIT_BLOCKS` blocks on.
        let block = OUTPUT_BLOCK_BYTES / (4 * ed);
        let vocab = blocks * block + ragged;
        let model = model(vocab, ed, seed);
        let batch = responses(nq, ed, seed);
        let mut teams = [team_of(1), team_of(2), team_of(3)];
        let mut failure = None;
        on_each_backend(|backend| {
            let got = staged(&model, &batch);
            for (q, (o, u)) in batch.iter().enumerate() {
                let want = reference(&model, o, u);
                // In the batch, and alone: composition changes nothing.
                let alone = staged(&model, &batch[q..=q])[0];
                if !(same(got[q], want) && same(alone, want)) {
                    failure.get_or_insert(format!(
                        "{backend:?} nq={nq} ed={ed} vocab={vocab} q={q}: \
                         batch {:?}, alone {alone:?}, reference {want:?}",
                        got[q]
                    ));
                }
            }
            // Split over a team: every lane count is the inline stage.
            for team in &mut teams {
                let lanes = team.threads();
                let split = staged_on(&model, &batch, team);
                for (q, (a, b)) in split.iter().zip(&got).enumerate() {
                    if !same(*a, *b) {
                        failure.get_or_insert(format!(
                            "{backend:?} lanes={lanes} nq={nq} ed={ed} vocab={vocab} q={q}: \
                             split {a:?}, inline {b:?}"
                        ));
                    }
                }
            }
        });
        prop_assert!(failure.is_none(), "{}", failure.unwrap_or_default());
    }
}

#[test]
fn all_equal_logits_pick_the_first_word() {
    let mut model = model(301, 5, 3);
    model.w.as_mut_slice().fill(0.0);
    let batch = responses(3, 5, 3);
    on_each_backend(|backend| {
        for (got, (o, u)) in staged(&model, &batch).into_iter().zip(&batch) {
            let want = reference(&model, o, u);
            assert_eq!(want.map(|(w, _)| w), Some(0), "reduce::argmax: first wins");
            assert!(same(got, want), "{backend:?}: {got:?} vs {want:?}");
        }
    });
}

#[test]
fn a_nan_logit_poisons_the_probability_but_never_wins_the_word() {
    // A NaN row in the middle, and one as the very last word, where a
    // running arg-max that let the NaN in would have kept it.
    for nan_row in [17usize, 300] {
        let mut model = model(301, 5, 9);
        model.w.row_mut(nan_row)[2] = f32::NAN;
        let batch = responses(4, 5, 9);
        on_each_backend(|backend| {
            for (got, (o, u)) in staged(&model, &batch).into_iter().zip(&batch) {
                let want = reference(&model, o, u);
                assert!(
                    same(got, want),
                    "{backend:?} nan_row={nan_row}: {got:?} vs {want:?}"
                );
                let (word, p) = want.expect("non-empty vocabulary");
                assert!(p.is_nan(), "NaN poisons the sum");
                assert_ne!(
                    word as usize, nan_row,
                    "{backend:?}: a NaN is never the maximum"
                );
            }
        });
    }
}

#[test]
fn sessions_answer_the_same_alone_and_in_any_batch() {
    // End to end through the session: ask (nq = 1) and ask_many (one
    // shared pass over W) agree bit for bit on every question.
    let model = model(523, 13, 21);
    let questions: Vec<Vec<u32>> = (0..9u32).map(|q| vec![q, q + 40, 2 * q + 100]).collect();
    on_each_backend(|backend| {
        let mut session = Session::new(model.clone(), SessionConfig::default()).unwrap();
        for s in 0..6u32 {
            session.observe(&[s, s + 7, 3 * s + 50]).unwrap();
        }
        let batched = session.ask_many(&questions).unwrap();
        for (q, tokens) in questions.iter().enumerate() {
            let alone = session.ask(tokens).unwrap();
            let batched = batched[q].as_ref().unwrap();
            assert_eq!(
                (alone.word, alone.probability.to_bits()),
                (batched.word, batched.probability.to_bits()),
                "{backend:?} question {q}"
            );
        }
    });
}
