//! Baseline end-to-end memory network (MemN2N) for the MnnFast reproduction.
//!
//! This crate implements the network of Sukhbaatar et al. (2015) — the
//! paper's baseline (reference \[69\]) — from scratch:
//!
//! - [`MemNet`]: the model — embedding matrices `A`/`B`/`C`, temporal
//!   encodings, and the output projection `W`,
//! - [`model::EmbeddedStory`]: the embedding operation (BoW lookup-and-sum),
//!   producing the input/output memories `M_IN`/`M_OUT` and question state
//!   `u` of the paper's Fig 2,
//! - [`inference`]: the baseline inference dataflow of Fig 5(a) — inner
//!   product, softmax, weighted sum, output calculation — with the same
//!   explicit intermediate vectors (`T_IN`, `P_exp`, `P`) whose spills the
//!   paper measures,
//! - [`train`]: SGD with manual backpropagation so the bAbI-style accuracy
//!   experiments (Figs 6/7) run on a *trained* model rather than synthetic
//!   attention,
//! - [`eval`]: accuracy and p-vector collection.
//!
//! # Example
//!
//! ```
//! use mnn_dataset::babi::{BabiGenerator, TaskKind};
//! use mnn_memnn::{MemNet, ModelConfig, train::Trainer};
//!
//! let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 1);
//! let train_set = generator.dataset(30, 8, 2);
//! let config = ModelConfig::for_generator(&generator, 8, 16);
//! let mut model = MemNet::new(config, 7);
//! let report = Trainer::new().epochs(5).train(&mut model, &train_set);
//! assert!(report.final_loss.is_finite());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod eval;
pub mod inference;
pub mod model;
pub mod model_io;
pub mod timing;
pub mod train;

pub use inference::{BaselineCounters, ForwardRecord};
pub use model::{MemNet, ModelConfig, OutputStage};
pub use timing::{OpKind, OpTimes};
