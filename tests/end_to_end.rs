//! Integration tests spanning the whole stack: dataset → training →
//! baseline inference → MnnFast engines. Every execution strategy must
//! produce the same answers on a trained model.

use mnn_dataset::babi::{BabiGenerator, Story, TaskKind};
use mnn_memnn::inference::{baseline_forward, BaselineCounters};
use mnn_memnn::timing::OpTimes;
use mnn_memnn::train::Trainer;
use mnn_memnn::{eval, MemNet, ModelConfig};
use mnn_tensor::reduce;
use mnnfast::{
    ColumnEngine, EngineKind, ExecPlan, Executor, MemView, MnnFastConfig, Route, SegmentPlan,
    SkipPolicy, SoftmaxMode,
};

#[path = "../crates/core/tests/lattice/mod.rs"]
mod lattice;

fn trained_model() -> (MemNet, Vec<Story>) {
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 99);
    let train_set = generator.dataset(120, 8, 2);
    let test_set = generator.dataset(12, 8, 2);
    let config = ModelConfig::for_generator(&generator, 24, 8);
    let mut model = MemNet::new(config, 13);
    Trainer::new().epochs(35).train(&mut model, &train_set);
    (model, test_set)
}

#[test]
fn every_engine_agrees_with_the_baseline_on_trained_model() {
    let (model, test_set) = trained_model();
    let config = MnnFastConfig::new(3);
    let column = ColumnEngine::new(config);
    let online = ColumnEngine::new(config.with_softmax(SoftmaxMode::Online));
    let threaded = ExecPlan::new(config.with_threads(3));
    let auto = threaded.executor();
    let parallel = threaded.with_kind(EngineKind::Parallel).executor();

    let mut checked = 0;
    for story in &test_set {
        let emb = model.embed_story(story);
        for q in 0..emb.questions.len() {
            let mut times = OpTimes::new();
            let mut counters = BaselineCounters::default();
            let baseline = baseline_forward(&model, &emb, q, &mut times, &mut counters);

            let u = &emb.questions[q];
            let view = MemView::from((&emb.m_in, &emb.m_out));
            let whole = SegmentPlan::unsegmented(emb.m_in.rows());
            let planned = |exec: &dyn Executor| lattice::pass(exec, view, Route::Plan(&whole), u).o;
            for (name, o) in [
                (
                    "column",
                    column.forward(&emb.m_in, &emb.m_out, u).unwrap().o,
                ),
                (
                    "online",
                    online.forward(&emb.m_in, &emb.m_out, u).unwrap().o,
                ),
                ("auto", planned(&auto)),
                ("parallel", planned(&parallel)),
            ] {
                let logits = model.output_logits(&o, u);
                let answer = reduce::argmax(&logits).unwrap() as u32;
                assert_eq!(answer, baseline.answer, "{name} diverged on q{q}");
                // The response vectors agree numerically, not just argmax.
                for (a, b) in o.iter().zip(&baseline.o) {
                    assert!((a - b).abs() < 1e-3, "{name}: {a} vs {b}");
                }
            }
            checked += 1;
        }
    }
    assert!(checked >= 20, "exercised {checked} questions");
}

#[test]
fn mild_zero_skipping_preserves_accuracy() {
    let (model, test_set) = trained_model();
    let base_acc = eval::accuracy(&model, &test_set);
    assert!(base_acc > 0.4, "trained accuracy {base_acc}");

    let engine = ColumnEngine::new(MnnFastConfig::new(4).with_skip(SkipPolicy::Probability(0.01)));
    let skip_acc = eval::accuracy_with(&model, &test_set, |emb, q| {
        let out = engine
            .forward(&emb.m_in, &emb.m_out, &emb.questions[q])
            .unwrap();
        model.output_logits(&out.o, &emb.questions[q])
    });
    assert!(
        skip_acc >= base_acc - 0.05,
        "skip accuracy {skip_acc} vs baseline {base_acc}"
    );
}

#[test]
fn aggressive_skipping_trades_accuracy_for_computation() {
    let (model, test_set) = trained_model();
    let mut last_reduction = -1.0f64;
    for th in [0.01f32, 0.1, 0.3] {
        let engine =
            ColumnEngine::new(MnnFastConfig::new(4).with_skip(SkipPolicy::Probability(th)));
        let mut stats = mnnfast::InferenceStats::default();
        let _ = eval::accuracy_with(&model, &test_set, |emb, q| {
            let out = engine
                .forward(&emb.m_in, &emb.m_out, &emb.questions[q])
                .unwrap();
            stats.merge(&out.stats);
            model.output_logits(&out.o, &emb.questions[q])
        });
        let reduction = stats.computation_reduction();
        assert!(
            reduction >= last_reduction,
            "reduction not monotone: {reduction} after {last_reduction}"
        );
        last_reduction = reduction;
    }
    assert!(
        last_reduction > 0.3,
        "th=0.3 should cut output work substantially"
    );
}

#[test]
fn multi_hop_model_works_end_to_end() {
    let mut generator = BabiGenerator::new(TaskKind::TwoSupportingFacts, 31);
    let train_set = generator.dataset(60, 10, 2);
    let config = ModelConfig::for_generator(&generator, 16, 10).with_hops(2);
    let mut model = MemNet::new(config, 21);
    let report = Trainer::new().epochs(20).train(&mut model, &train_set);
    assert!(report.final_loss.is_finite());
    assert!(report.final_loss < report.epoch_losses[0]);

    // The MnnFast engine applied hop-by-hop reproduces the baseline.
    let story = generator.story(10, 1);
    let emb = model.embed_story(&story);
    let mut times = OpTimes::new();
    let mut counters = BaselineCounters::default();
    let baseline = baseline_forward(&model, &emb, 0, &mut times, &mut counters);

    let engine = ColumnEngine::new(MnnFastConfig::new(4));
    let mut u = emb.questions[0].clone();
    let mut o = vec![0.0f32; 16];
    let mut u_last = u.clone();
    for _ in 0..2 {
        let out = engine.forward(&emb.m_in, &emb.m_out, &u).unwrap();
        o = out.o;
        u_last = u.clone();
        for (ui, oi) in u.iter_mut().zip(&o) {
            *ui += oi;
        }
    }
    let logits = model.output_logits(&o, &u_last);
    let answer = reduce::argmax(&logits).unwrap() as u32;
    assert_eq!(answer, baseline.answer);
}

#[test]
fn all_task_kinds_train_above_chance() {
    for kind in TaskKind::ALL {
        let mut generator = BabiGenerator::new(kind, 55);
        let train_set = generator.dataset(60, 8, 2);
        let config = ModelConfig::for_generator(&generator, 20, 8);
        let mut model = MemNet::new(config, 8);
        let report = Trainer::new().epochs(25).train(&mut model, &train_set);
        // Chance is at most 1/2 (yes/no task) or 1/8 (locations).
        assert!(
            report.train_accuracy > 0.55,
            "{kind:?}: accuracy {}",
            report.train_accuracy
        );
    }
}

/// A sub-second cut of the engine parity lattice (`crates/core/tests/
/// executor.rs` runs all of it), so tier-1 guards the execution seam: each
/// walk, plane, route and entry point against the column-engine oracle.
#[test]
fn lattice_cut_matches_the_column_oracle() {
    assert!(lattice::run(&lattice::CUT) >= 28);
}
