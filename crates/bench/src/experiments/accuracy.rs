//! Accuracy-side experiments on the trained model: Fig 6 (attention
//! sparsity) and Fig 7 (zero-skipping accuracy/computation tradeoff).

use crate::table::{f, pct, ExperimentTable};
use crate::Scale;
use mnn_dataset::babi::{BabiGenerator, Story, TaskKind};
use mnn_memnn::{eval, model::ModelConfig, train::Trainer, MemNet};
use mnnfast::{
    Budget, EngineKind, ExecPlan, InferenceStats, MemView, MnnFastConfig, Route, Scratch,
    SegmentPlan, SkipPolicy, Trace,
};

/// Trains a MemN2N on the synthetic bAbI task and returns the model with a
/// held-out test set — shared by Fig 6 and Fig 7.
pub fn trained_babi_model(scale: Scale) -> (MemNet, Vec<Story>) {
    let ns = scale.pick(50, 8);
    let (train_stories, epochs, ed) = match scale {
        Scale::Full => (240, 60, 40),
        Scale::Smoke => (60, 25, 16),
    };
    let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 2019);
    let train_set = generator.dataset(train_stories, ns, 3);
    let test_set = generator.dataset(scale.pick(40, 10), ns, 3);
    let config = ModelConfig::for_generator(&generator, ed, ns);
    let mut model = MemNet::new(config, 61);
    Trainer::new()
        .epochs(epochs)
        .momentum(0.5)
        .train(&mut model, &train_set);
    (model, test_set)
}

/// Fig 6: probability-value distribution over the test questions.
///
/// The paper shows a heat map of 100 questions × 50 sentences with only a
/// few activated entries per column; this runner reports the summary
/// statistics plus an ASCII rendering of the first questions.
pub fn fig06(scale: Scale) -> ExperimentTable {
    let (model, test_set) = trained_babi_model(scale);
    let max_q = scale.pick(100, 20);
    let ps = eval::collect_p_vectors(&model, &test_set, max_q);

    let mut t = ExperimentTable::new(
        "Fig 6: probability value distribution (trained model)",
        &["threshold", "mean entries above", "active fraction"],
    );
    for th in [0.5f32, 0.1, 0.01, 0.001] {
        let s = eval::sparsity(&ps, th);
        t.row(vec![
            th.to_string(),
            f(s.mean_active as f64),
            pct(s.active_fraction as f64),
        ]);
    }
    let s01 = eval::sparsity(&ps, 0.1);
    t.note(format!(
        "{} questions x {} sentences; max probability {:.3}",
        ps.len(),
        ps.first().map(Vec::len).unwrap_or(0),
        s01.max_probability
    ));
    // ASCII heat map: rows = sentence index, columns = questions.
    if let Some(ns) = ps.first().map(Vec::len) {
        let q_shown = ps.len().min(40);
        for row in 0..ns.min(50) {
            let mut line = String::with_capacity(q_shown);
            for p in ps.iter().take(q_shown) {
                let v = p[row];
                line.push(match v {
                    v if v > 0.5 => '#',
                    v if v > 0.1 => '+',
                    v if v > 0.01 => '.',
                    _ => ' ',
                });
            }
            t.note(format!("s{row:02} |{line}|"));
        }
    }
    t
}

/// Runs the zero-skipping engine over the test set at `threshold`, returning
/// `(accuracy, merged stats)`.
pub fn zero_skip_eval(model: &MemNet, stories: &[Story], threshold: f32) -> (f32, InferenceStats) {
    let skip = if threshold > 0.0 {
        SkipPolicy::Probability(threshold)
    } else {
        SkipPolicy::None
    };
    let exec = ExecPlan::new(MnnFastConfig::new(16).with_skip(skip))
        .with_kind(EngineKind::Column)
        .executor();
    let mut stats = InferenceStats::default();
    let mut scratch = Scratch::new();
    let accuracy = eval::accuracy_with(model, stories, |emb, q| {
        let out = exec
            .forward(
                MemView::from((&emb.m_in, &emb.m_out)),
                Route::Plan(&SegmentPlan::unsegmented(emb.m_in.rows())),
                &emb.questions[q],
                &mut scratch,
                &mut Trace::disabled(),
                &Budget::unlimited(),
            )
            .expect("shapes from embed_story are consistent");
        stats.merge(&out.stats);
        model.output_logits(&out.o, &emb.questions[q])
    });
    (accuracy, stats)
}

/// Fig 7: accuracy loss and computation reduction vs skip threshold.
///
/// Paper values: 97% output-computation reduction at 0.87% accuracy loss
/// for threshold 0.1; 81% reduction with no loss at threshold 0.01.
pub fn fig07(scale: Scale) -> ExperimentTable {
    let (model, test_set) = trained_babi_model(scale);
    let (base_acc, _) = zero_skip_eval(&model, &test_set, 0.0);

    let mut t = ExperimentTable::new(
        "Fig 7: zero-skipping threshold tradeoff",
        &[
            "threshold",
            "accuracy",
            "accuracy loss",
            "computation reduction",
        ],
    );
    for th in [0.0f32, 0.001, 0.01, 0.05, 0.1, 0.2, 0.5] {
        let (acc, stats) = zero_skip_eval(&model, &test_set, th);
        let loss = ((base_acc - acc) / base_acc.max(1e-6)).max(0.0);
        t.row(vec![
            th.to_string(),
            pct(acc as f64),
            pct(loss as f64),
            pct(stats.computation_reduction()),
        ]);
    }
    t.note(format!("baseline accuracy {}", pct(base_acc as f64)));
    t.note("paper: 97% reduction / 0.87% loss at th=0.1; 81% / 0% at th=0.01");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig06_smoke_attention_is_sparse() {
        let t = fig06(Scale::Smoke);
        // At threshold 0.01 the active fraction should be well below 1.
        let frac = t
            .rows
            .iter()
            .find(|r| r[0] == "0.1")
            .and_then(|r| r[2].trim_end_matches('%').parse::<f64>().ok())
            .unwrap();
        assert!(frac < 90.0, "active fraction {frac}%");
    }

    #[test]
    fn fig07_smoke_tradeoff_is_monotone() {
        let t = fig07(Scale::Smoke);
        // Computation reduction grows with threshold.
        let reductions: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[3].trim_end_matches('%').parse::<f64>().unwrap())
            .collect();
        for pair in reductions.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-9, "{reductions:?}");
        }
        // Threshold 0 has zero reduction and zero loss.
        assert_eq!(reductions[0], 0.0);
        let loss0: f64 = t.rows[0][2].trim_end_matches('%').parse().unwrap();
        assert_eq!(loss0, 0.0);
    }
}
