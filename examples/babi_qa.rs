//! End-to-end question answering on the synthetic bAbI tasks: trains one
//! model per task family, evaluates held-out accuracy, and sweeps the
//! zero-skipping threshold to show the Fig 7 tradeoff live.
//!
//! Run with: `cargo run --release --example babi_qa`

use mnn_dataset::babi::{BabiGenerator, TaskKind};
use mnn_memnn::train::Trainer;
use mnn_memnn::{eval, MemNet, ModelConfig};
use mnnfast::{
    Budget, EngineKind, ExecPlan, InferenceStats, MemView, MnnFastConfig, Route, Scratch,
    SegmentPlan, SkipPolicy, Trace,
};

fn main() {
    for kind in TaskKind::ALL {
        let mut generator = BabiGenerator::new(kind, 11);
        let ns = 12;
        let train_set = generator.dataset(120, ns, 3);
        let test_set = generator.dataset(40, ns, 3);

        let hops = if kind == TaskKind::TwoSupportingFacts {
            2
        } else {
            1
        };
        let config = ModelConfig::for_generator(&generator, 32, ns).with_hops(hops);
        let mut model = MemNet::new(config, 5);
        let report = Trainer::new()
            .epochs(35)
            .momentum(0.5)
            .train(&mut model, &train_set);
        let test_acc = eval::accuracy(&model, &test_set);
        println!(
            "{kind:?}: train acc {:.1}%, test acc {:.1}%",
            report.train_accuracy * 100.0,
            test_acc * 100.0
        );

        // Zero-skipping sweep on the held-out set (hop-aware).
        for th in [0.01f32, 0.1] {
            let config = MnnFastConfig::new(ns).with_skip(SkipPolicy::Probability(th));
            let exec = ExecPlan::new(config)
                .with_kind(EngineKind::Column)
                .executor();
            let mut stats = InferenceStats::default();
            let acc = eval::accuracy_with(&model, &test_set, |emb, q| {
                let out = mnnfast::multi_hop(
                    &exec,
                    MemView::from((&emb.m_in, &emb.m_out)),
                    Route::Plan(&SegmentPlan::unsegmented(emb.m_in.rows())),
                    &emb.questions[q],
                    hops,
                    &mut Scratch::new(),
                    &mut Trace::disabled(),
                    &Budget::unlimited(),
                )
                .expect("embedded shapes are consistent");
                stats.merge(&out.stats);
                model.output_logits(&out.o, &out.u_last)
            });
            println!(
                "  skip th={th}: acc {:.1}% ({:+.2}pp), output computation cut {:.1}%",
                acc * 100.0,
                (acc - test_acc) * 100.0,
                stats.computation_reduction() * 100.0
            );
        }
        println!();
    }
}
