//! Online question answering on top of the MnnFast engines.
//!
//! The paper's serving scenario (Section 4.1.1 and Fig 8): the knowledge
//! database (`M_IN`/`M_OUT`) is long-lived and grows as new story sentences
//! arrive, while questions are submitted on-the-fly in raw bag-of-words
//! form and must be embedded and answered immediately. This crate provides
//! that layer:
//!
//! - [`SegmentedStore`] — capacity-doubled storage for the embedded
//!   memories with O(ed) append *and* sliding-window eviction (a window
//!   over contiguous planes), and incrementally maintained zone-map norms
//!   from which routed segment maps are stamped out,
//! - [`Session`] — a model + store + engine bundle: `observe()` new
//!   sentences, `ask()` questions, collect cumulative statistics. With
//!   [`SessionConfig::segments`] `> 1` questions route over the store's
//!   segment map with zone-map pruning (bitwise-identical answers).
//!
//! # Example
//!
//! ```
//! use mnn_dataset::babi::{BabiGenerator, TaskKind};
//! use mnn_memnn::{MemNet, ModelConfig};
//! use mnn_serve::{Session, SessionConfig};
//!
//! let mut generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 3);
//! let story = generator.story(6, 1);
//! let config = ModelConfig::for_generator(&generator, 16, 8);
//! let model = MemNet::new(config, 1);
//!
//! let mut session = Session::new(model, SessionConfig::default()).unwrap();
//! for sentence in &story.sentences {
//!     session.observe(sentence).unwrap();
//! }
//! let answer = session.ask(&story.questions[0].tokens).unwrap();
//! assert!(answer.probability > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod embed_cache;
mod pool;
mod session;

pub use embed_cache::{EmbedCacheStats, SentenceCache};
pub use mnn_dist::WorkerState;
pub use mnnfast::store::SegmentedStore;
pub use pool::{
    occupancy_bucket, AdmissionConfig, BatchConfig, BatchedAnswer, PoolError, PoolStats,
    SessionPool, OCCUPANCY_BOUNDS, OCCUPANCY_BUCKETS,
};
pub use session::{Answer, DegradationStats, ServeError, Session, SessionConfig};
