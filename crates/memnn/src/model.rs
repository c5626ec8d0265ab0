//! The MemN2N model: embedding matrices and the embedding operation.

use mnn_dataset::babi::{BabiGenerator, Story};
use mnn_dataset::WordId;
use mnn_tensor::{kernels, softmax, Matrix, Team};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Hyper-parameters of a [`MemNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Vocabulary size `V`.
    pub vocab_size: usize,
    /// Embedding dimension `ed`.
    pub embedding_dim: usize,
    /// Maximum story length supported by the temporal encoding.
    pub max_sentences: usize,
    /// Number of memory hops (≥ 1). Hops share `A`/`C` (layer-wise tying).
    pub hops: usize,
    /// Whether to add the learned temporal encoding to memory rows. bAbI
    /// tasks are unsolvable without order information, so this defaults on.
    pub temporal: bool,
    /// Whether to weight word embeddings by position within the sentence
    /// (the paper's footnote 1; Sukhbaatar et al.'s *position encoding*).
    /// Plain BoW when `false`.
    pub position_encoding: bool,
}

impl ModelConfig {
    /// Config sized for the vocabulary of a [`BabiGenerator`].
    pub fn for_generator(generator: &BabiGenerator, embedding_dim: usize, max_ns: usize) -> Self {
        Self {
            vocab_size: generator.vocab_size(),
            embedding_dim,
            max_sentences: max_ns,
            hops: 1,
            temporal: true,
            position_encoding: false,
        }
    }

    /// Returns a copy with position encoding switched on or off.
    pub fn with_position_encoding(mut self, on: bool) -> Self {
        self.position_encoding = on;
        self
    }

    /// Returns a copy with the given hop count (clamped to ≥ 1).
    pub fn with_hops(mut self, hops: usize) -> Self {
        self.hops = hops.max(1);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.vocab_size == 0 {
            return Err("vocab_size must be positive".into());
        }
        if self.embedding_dim == 0 {
            return Err("embedding_dim must be positive".into());
        }
        if self.max_sentences == 0 {
            return Err("max_sentences must be positive".into());
        }
        if self.hops == 0 {
            return Err("hops must be positive".into());
        }
        Ok(())
    }
}

/// Position-encoding weight `l_{kj}` of Sukhbaatar et al. (2015): word at
/// position `j` (0-based) in a sentence of `nw` words contributes to
/// embedding dimension `k` of `ed` with weight
/// `(1 − j/J) − (k/d)(1 − 2j/J)` (1-based `j`, `k`).
///
/// ```
/// // The first word of a 2-word sentence weighs more in low dimensions.
/// let w0 = mnn_memnn::model::position_weight(0, 2, 0, 4);
/// let w1 = mnn_memnn::model::position_weight(1, 2, 0, 4);
/// assert!(w0 > w1);
/// ```
pub fn position_weight(j: usize, nw: usize, k: usize, ed: usize) -> f32 {
    let j = (j + 1) as f32;
    let nw = nw.max(1) as f32;
    let k = (k + 1) as f32;
    let ed = ed.max(1) as f32;
    (1.0 - j / nw) - (k / ed) * (1.0 - 2.0 * j / nw)
}

/// A story after the embedding operation: the paper's `M_IN`, `M_OUT` and
/// question states `U` (Fig 2), ready for the inference operation.
#[derive(Debug, Clone)]
pub struct EmbeddedStory {
    /// Input memory, `ns × ed` (row `i` = embedded sentence `i` through `A`).
    pub m_in: Matrix,
    /// Output memory, `ns × ed` (through `C`).
    pub m_out: Matrix,
    /// One question state vector `u` (length `ed`) per question.
    pub questions: Vec<Vec<f32>>,
    /// Ground-truth answer ids, parallel to `questions`.
    pub answers: Vec<WordId>,
}

/// End-to-end memory network parameters.
///
/// Embedding matrices are stored row-per-word (`V × ed`), so a BoW embedding
/// is a sum of rows; the output projection `W` is also `V × ed` so the final
/// logits are `W · (o + u)` computed as one GEMV.
#[derive(Debug, Clone)]
pub struct MemNet {
    config: ModelConfig,
    /// Input-memory embedding `A`.
    pub a: Matrix,
    /// Question embedding `B`.
    pub b: Matrix,
    /// Output-memory embedding `C`.
    pub c: Matrix,
    /// Temporal encoding for `M_IN` (`max_sentences × ed`, indexed by age).
    pub t_a: Matrix,
    /// Temporal encoding for `M_OUT`.
    pub t_c: Matrix,
    /// Output projection `W` (`V × ed`).
    pub w: Matrix,
}

impl MemNet {
    /// Creates a model with uniform(-0.1, 0.1) initialization (the MemN2N
    /// recipe), deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation — construct configs through
    /// [`ModelConfig`] and validate user input beforehand.
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        config.validate().expect("invalid ModelConfig");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut init = |rows: usize, cols: usize| {
            Matrix::from_fn(rows, cols, |_, _| rng.random_range(-0.1f32..0.1))
        };
        let (v, ed, ns) = (
            config.vocab_size,
            config.embedding_dim,
            config.max_sentences,
        );
        Self {
            config,
            a: init(v, ed),
            b: init(v, ed),
            c: init(v, ed),
            t_a: init(ns, ed),
            t_c: init(ns, ed),
            w: init(v, ed),
        }
    }

    /// The model's hyper-parameters.
    pub fn config(&self) -> ModelConfig {
        self.config
    }

    /// Replaces the behavioural flags of the configuration (temporal /
    /// position encoding / hops). Shape fields must be unchanged because
    /// they size the parameter matrices.
    ///
    /// # Panics
    ///
    /// Panics if `new_config` changes `vocab_size`, `embedding_dim` or
    /// `max_sentences`, or fails validation.
    pub fn set_config(&mut self, new_config: ModelConfig) {
        assert_eq!(
            (
                new_config.vocab_size,
                new_config.embedding_dim,
                new_config.max_sentences
            ),
            (
                self.config.vocab_size,
                self.config.embedding_dim,
                self.config.max_sentences
            ),
            "set_config cannot resize the model"
        );
        new_config.validate().expect("invalid ModelConfig");
        self.config = new_config;
    }

    /// Embedding dimension `ed`.
    pub fn embedding_dim(&self) -> usize {
        self.config.embedding_dim
    }

    /// Total parameter count (for reporting).
    pub fn num_parameters(&self) -> usize {
        self.a.len() + self.b.len() + self.c.len() + self.t_a.len() + self.t_c.len() + self.w.len()
    }

    /// BoW-embeds `tokens` through embedding matrix `emb` into `out`
    /// (sum of the rows selected by the word ids). Runs on the
    /// SIMD-dispatched gather-sum kernel
    /// ([`mnn_tensor::kernels::embed_sum`]); both kernel backends are
    /// bitwise identical, and identical to the pre-kernel scalar loops, so
    /// trained models embed exactly as before.
    ///
    /// # Panics
    ///
    /// Panics if a token is out of vocabulary range or `out` has the wrong
    /// length.
    pub fn embed_tokens(emb: &Matrix, tokens: &[WordId], out: &mut [f32]) {
        mnn_tensor::kernels::embed_sum(emb.as_slice(), emb.cols(), tokens, out);
    }

    /// Position-encoded embedding: like [`MemNet::embed_tokens`] but each
    /// word's vector is weighted element-wise by [`position_weight`]
    /// (via [`mnn_tensor::kernels::embed_sum_pe`], whose weight
    /// computation mirrors [`position_weight`]'s float ops exactly).
    ///
    /// # Panics
    ///
    /// Panics if a token is out of vocabulary range or `out` has the wrong
    /// length.
    pub fn embed_tokens_pe(emb: &Matrix, tokens: &[WordId], out: &mut [f32]) {
        mnn_tensor::kernels::embed_sum_pe(emb.as_slice(), emb.cols(), tokens, out);
    }

    /// Embeds `tokens` through `emb`, dispatching to the plain or
    /// position-encoded gather-sum per this model's configuration. This is
    /// the single PE/non-PE branch point — call sites (serving, training,
    /// offline embedding) route through it instead of duplicating the
    /// `if position_encoding` ladder.
    ///
    /// # Panics
    ///
    /// As [`MemNet::embed_tokens`].
    pub fn embed_into(&self, emb: &Matrix, tokens: &[WordId], out: &mut [f32]) {
        if self.config.position_encoding {
            Self::embed_tokens_pe(emb, tokens, out);
        } else {
            Self::embed_tokens(emb, tokens, out);
        }
    }

    /// Embeds one story sentence through `A` and `C` in a single fused
    /// pass ([`mnn_tensor::kernels::embed_pair`]): each token's row indices
    /// and position weights are computed once for both memory sides.
    /// Bitwise identical to two [`MemNet::embed_into`] calls.
    ///
    /// # Panics
    ///
    /// As [`MemNet::embed_tokens`].
    pub fn embed_sentence_pair(&self, tokens: &[WordId], out_a: &mut [f32], out_c: &mut [f32]) {
        mnn_tensor::kernels::embed_pair(
            self.a.as_slice(),
            self.c.as_slice(),
            self.config.embedding_dim,
            tokens,
            self.config.position_encoding,
            out_a,
            out_c,
        );
    }

    /// Embeds a question through `B` (the question state `u`).
    ///
    /// # Panics
    ///
    /// As [`MemNet::embed_tokens`].
    pub fn embed_question(&self, tokens: &[WordId], out: &mut [f32]) {
        self.embed_into(&self.b, tokens, out);
    }

    /// A 64-bit FNV-1a fingerprint of everything an embedding depends on:
    /// the shape/flag configuration and the `A`/`B`/`C` matrices. Serving
    /// layers key cached embeddings by this value, so a model reload (new
    /// weights, same shapes) can never serve a stale embedding; the output
    /// projection `W` and temporal tables are deliberately excluded because
    /// no cached embedding reads them.
    pub fn weights_fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&(self.config.vocab_size as u64).to_le_bytes());
        eat(&(self.config.embedding_dim as u64).to_le_bytes());
        eat(&[u8::from(self.config.position_encoding)]);
        for m in [&self.a, &self.b, &self.c] {
            for v in m.as_slice() {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// The embedding operation (paper Fig 2): converts a story into
    /// `M_IN`/`M_OUT`/`U`.
    ///
    /// The temporal encoding indexes by *age* (0 = most recent sentence), so
    /// stories shorter than `max_sentences` stay consistent.
    ///
    /// # Panics
    ///
    /// Panics if the story is longer than `max_sentences`.
    pub fn embed_story(&self, story: &Story) -> EmbeddedStory {
        let ns = story.sentences.len();
        let ed = self.config.embedding_dim;
        assert!(
            ns <= self.config.max_sentences,
            "story of {ns} sentences exceeds max_sentences {}",
            self.config.max_sentences
        );
        let mut m_in = Matrix::zeros(ns, ed);
        let mut m_out = Matrix::zeros(ns, ed);
        for (i, sentence) in story.sentences.iter().enumerate() {
            let age = ns - 1 - i;
            self.embed_sentence_pair(sentence, m_in.row_mut(i), m_out.row_mut(i));
            if self.config.temporal {
                for (v, &t) in m_in.row_mut(i).iter_mut().zip(self.t_a.row(age)) {
                    *v += t;
                }
                for (v, &t) in m_out.row_mut(i).iter_mut().zip(self.t_c.row(age)) {
                    *v += t;
                }
            }
        }
        let mut questions = Vec::with_capacity(story.questions.len());
        let mut answers = Vec::with_capacity(story.questions.len());
        for q in &story.questions {
            let mut u = vec![0.0f32; ed];
            self.embed_question(&q.tokens, &mut u);
            questions.push(u);
            answers.push(q.answer);
        }
        EmbeddedStory {
            m_in,
            m_out,
            questions,
            answers,
        }
    }

    /// Output calculation (paper Fig 2, final step): `logits = W · (o + u)`.
    pub fn output_logits(&self, o: &[f32], u: &[f32]) -> Vec<f32> {
        let sum: Vec<f32> = o.iter().zip(u).map(|(a, b)| a + b).collect();
        let mut logits = vec![0.0f32; self.config.vocab_size];
        mnn_tensor::kernels::gemv(&self.w, &sum, &mut logits)
            .expect("output projection shapes are fixed by construction");
        logits
    }

    /// The whole output stage for `nq >= 1` response vectors in one pass
    /// over `W`: for every `(o, u)` pair, the arg-max word of
    /// `W · (o + u)` and its softmax probability, left in
    /// [`OutputStage::answers`] in input order.
    ///
    /// `W` is the layer's memory traffic (`V × ed` floats, megabytes at a
    /// real vocabulary), so its rows are walked in blocks of
    /// [`OUTPUT_BLOCK_BYTES`] and each block is scored for a lane's
    /// questions while it is cache-resident, in one
    /// [`mnn_tensor::kernels::gemm_chunk`] call staged in the lane's tile
    /// (one question goes straight through
    /// [`mnn_tensor::kernels::gemv_chunk`]): a batch streams `W` once
    /// instead of once per question. Row `q` of the tile is bitwise
    /// `gemv_chunk` over question `q`, one `dot` per row on either backend,
    /// so each logit is the same `dot` over the same operands
    /// [`MemNet::output_logits`] computes.
    ///
    /// The stage splits over the threads `team` already holds (it never
    /// starts one) by the engine pass's grid rule: question ranges when
    /// `nq >= lanes`, else ranges of `W` rows, each lane scoring its rows
    /// for every question. `lanes` is capped so that each lane gets at least
    /// [`OUTPUT_SPLIT_BLOCKS`] blocks of `W`; under that the stage runs
    /// inline. Once the split has joined, one [`softmax::argmax_softmax`]
    /// call per question reads its logits: the word is bitwise what
    /// `output_logits` + [`mnn_tensor::reduce::argmax`] give, and the
    /// probability is the canonical answer-softmax kernel's, a function of
    /// the logits alone — so an answer is the same bits whatever else
    /// shares its batch and however many lanes scored it, and within
    /// [`mnn_tensor::simd::ARGMAX_SOFTMAX_MAX_REL_ERROR`] of
    /// `softmax_in_place`.
    ///
    /// # Panics
    ///
    /// Panics if an `o` or `u` is not `ed` long (or `W` has no columns).
    pub fn output_answers<'a>(
        &self,
        responses: impl IntoIterator<Item = (&'a [f32], &'a [f32])>,
        stage: &mut OutputStage,
        team: &mut Team,
    ) {
        let (vocab, ed) = self.w.shape();
        assert!(ed > 0, "output_answers: W has no columns");
        let OutputStage {
            sums,
            logits,
            tiles,
            spare,
            answers,
        } = stage;
        sums.clear();
        for (o, u) in responses {
            assert_eq!((o.len(), u.len()), (ed, ed), "output_answers: bad width");
            sums.extend(o.iter().zip(u).map(|(a, b)| a + b));
        }
        let nq = sums.len() / ed;
        answers.clear();
        if nq == 0 || vocab == 0 {
            answers.resize(nq, None);
            return;
        }
        // Every logit below is overwritten, so only growth is zero-filled.
        logits.resize(nq * vocab, 0.0);
        let block = (OUTPUT_BLOCK_BYTES / (4 * ed)).max(1);
        let lanes = team
            .threads()
            .min(vocab / (OUTPUT_SPLIT_BLOCKS * block))
            .max(1);
        if tiles.len() < lanes {
            tiles.resize_with(lanes, Vec::new);
        }
        let (w, sums) = (&self.w, &sums[..]);
        if nq >= lanes {
            // Question ranges (one lane is the inline stage): each lane
            // scores every row for its questions into their logits.
            let per = nq.div_ceil(lanes);
            let ranges = tiles
                .iter_mut()
                .zip(sums.chunks(per * ed).zip(logits.chunks_mut(per * vocab)));
            team.split(ranges, |(tile, (sums, logits))| {
                score(w, 0..vocab, block, sums, logits, tile)
            });
        } else {
            // Row ranges: lane `j` scores rows `j·per..` for every question
            // into its own `[nq × rows]` stretch of `logits`.
            let per = vocab.div_ceil(block).div_ceil(lanes) * block;
            let ranges = tiles
                .iter_mut()
                .zip(logits.chunks_mut(nq * per).enumerate());
            team.split(ranges, |(tile, (j, logits))| {
                score(
                    w,
                    j * per..vocab.min((j + 1) * per),
                    block,
                    sums,
                    logits,
                    tile,
                )
            });
            if nq > 1 {
                // Regroup the lanes' stretches into one row per question.
                spare.resize(nq * vocab, 0.0);
                for (j, stretch) in logits.chunks(nq * per).enumerate() {
                    let n = stretch.len() / nq;
                    for (q, scores) in stretch.chunks_exact(n).enumerate() {
                        spare[q * vocab + j * per..][..n].copy_from_slice(scores);
                    }
                }
                std::mem::swap(logits, spare);
            }
        }
        answers.extend(
            logits
                .chunks_exact(vocab)
                .map(|logits| softmax::argmax_softmax(logits).map(|(w, p)| (w as WordId, p))),
        );
    }
}

/// Scores rows `rows` of `w` for the questions whose `o + u` sums are
/// `sums` into `logits`, laid out `[q][rows.len()]`: one
/// [`kernels::gemm_chunk`] per block of `block` rows, staged in `tile` and
/// copied into each question's logits (one question is scored straight
/// into them with [`kernels::gemv_chunk`], the tile's `nq = 1` row).
fn score(
    w: &Matrix,
    rows: Range<usize>,
    block: usize,
    sums: &[f32],
    logits: &mut [f32],
    tile: &mut Vec<f32>,
) {
    let nq = sums.len() / w.cols();
    let n = rows.len();
    if nq > 1 && tile.len() < nq * block {
        tile.resize(nq * block, 0.0);
    }
    for start in rows.clone().step_by(block) {
        let take = block.min(rows.end - start);
        let chunk = w.rows_slice(start, take);
        let at = start - rows.start;
        if nq == 1 {
            kernels::gemv_chunk(chunk, take, sums, &mut logits[at..at + take]);
            continue;
        }
        let tile = &mut tile[..nq * take];
        kernels::gemm_chunk(chunk, take, sums, nq, tile);
        for (q, scores) in tile.chunks_exact(take).enumerate() {
            logits[q * n + at..][..take].copy_from_slice(scores);
        }
    }
}

/// Bytes of `W` one block of [`MemNet::output_answers`] holds: small
/// enough to stay in a private cache while every question of a batch
/// scores it, large enough that the per-block loop overhead vanishes.
pub const OUTPUT_BLOCK_BYTES: usize = 32 * 1024;

/// The output stage's parallel floor: it splits over `lanes` threads only
/// while `W` holds at least this many [`OUTPUT_BLOCK_BYTES`] blocks per
/// lane (a 10 000-word, 64-wide `W` is 78 blocks). Under it, waking a
/// worker costs more than scoring the rows it would take. The engine
/// pass's own floor is `mnnfast`'s `clears_parallel_floor`, two chunks per
/// thread.
pub const OUTPUT_SPLIT_BLOCKS: usize = 2;

/// Reusable buffers of [`MemNet::output_answers`] (the `o + u` sums, the
/// `nq × V` logits and one staging tile per lane) plus its result. A
/// serving session keeps one, so the output stage allocates nothing once
/// the buffers have grown.
#[derive(Debug, Clone, Default)]
pub struct OutputStage {
    sums: Vec<f32>,
    logits: Vec<f32>,
    tiles: Vec<Vec<f32>>,
    /// Regrouping space for a row split of several questions.
    spare: Vec<f32>,
    answers: Vec<Option<(WordId, f32)>>,
}

impl OutputStage {
    /// `(word, probability)` per response vector of the last
    /// [`MemNet::output_answers`] call, in input order; `None` only for a
    /// model whose `W` has no rows.
    pub fn answers(&self) -> &[Option<(WordId, f32)>] {
        &self.answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnn_dataset::babi::TaskKind;
    use mnn_tensor::reduce;
    use mnn_tensor::simd::ARGMAX_SOFTMAX_MAX_REL_ERROR;

    fn small_model() -> (BabiGenerator, MemNet) {
        let generator = BabiGenerator::new(TaskKind::SingleSupportingFact, 3);
        let config = ModelConfig::for_generator(&generator, 8, 16);
        let model = MemNet::new(config, 11);
        (generator, model)
    }

    #[test]
    fn config_validation() {
        let (_, model) = small_model();
        assert!(model.config().validate().is_ok());
        let bad = ModelConfig {
            vocab_size: 0,
            embedding_dim: 4,
            max_sentences: 4,
            hops: 1,
            temporal: true,
            position_encoding: false,
        };
        assert!(bad.validate().is_err());
        assert_eq!(bad.with_hops(0).hops, 1);
    }

    #[test]
    fn initialization_is_deterministic_and_bounded() {
        let (generator, _) = small_model();
        let config = ModelConfig::for_generator(&generator, 8, 16);
        let m1 = MemNet::new(config, 5);
        let m2 = MemNet::new(config, 5);
        assert_eq!(m1.a, m2.a);
        assert!(m1.a.as_slice().iter().all(|v| v.abs() <= 0.1));
        let m3 = MemNet::new(config, 6);
        assert_ne!(m1.a, m3.a);
    }

    #[test]
    fn embed_tokens_is_row_sum() {
        let emb = Matrix::from_rows(&[&[1.0, 2.0][..], &[10.0, 20.0][..]]).unwrap();
        let mut out = vec![0.0; 2];
        MemNet::embed_tokens(&emb, &[0, 1, 1], &mut out);
        assert_eq!(out, vec![21.0, 42.0]);
        // Empty token list embeds to zero.
        MemNet::embed_tokens(&emb, &[], &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn embed_story_shapes_match() {
        let (mut generator, model) = small_model();
        let story = generator.story(10, 3);
        let emb = model.embed_story(&story);
        assert_eq!(emb.m_in.shape(), (10, 8));
        assert_eq!(emb.m_out.shape(), (10, 8));
        assert_eq!(emb.questions.len(), 3);
        assert_eq!(emb.answers.len(), 3);
    }

    #[test]
    fn temporal_encoding_differentiates_repeated_sentences() {
        let (mut generator, model) = small_model();
        let mut story = generator.story(2, 1);
        // Force the two sentences to be identical tokens.
        let s0 = story.sentences[0].clone();
        story.sentences[1] = s0;
        let emb = model.embed_story(&story);
        assert_ne!(
            emb.m_in.row(0),
            emb.m_in.row(1),
            "temporal encoding must distinguish identical sentences at different positions"
        );

        // Without temporal encoding they are identical.
        let mut config = model.config();
        config.temporal = false;
        let flat = MemNet::new(config, 11);
        let emb2 = flat.embed_story(&story);
        assert_eq!(emb2.m_in.row(0), emb2.m_in.row(1));
    }

    #[test]
    #[should_panic(expected = "exceeds max_sentences")]
    fn overlong_story_panics() {
        let (mut generator, model) = small_model();
        let story = generator.story(17, 1);
        let _ = model.embed_story(&story);
    }

    #[test]
    fn output_logits_shape_and_linearity() {
        let (_, model) = small_model();
        let ed = model.embedding_dim();
        let o = vec![0.5f32; ed];
        let u = vec![0.25f32; ed];
        let logits = model.output_logits(&o, &u);
        assert_eq!(logits.len(), model.config().vocab_size);
        // W(o+u) == W(o) + W(u)
        let zero = vec![0.0f32; ed];
        let l1 = model.output_logits(&o, &zero);
        let l2 = model.output_logits(&zero, &u);
        for ((a, b), c) in l1.iter().zip(&l2).zip(&logits) {
            assert!((a + b - c).abs() < 1e-5);
        }
    }

    #[test]
    fn output_answers_is_the_per_question_output_stage() {
        let (_, model) = small_model();
        let ed = model.embedding_dim();
        let pairs: Vec<(Vec<f32>, Vec<f32>)> = (0..3)
            .map(|q| {
                let o = (0..ed)
                    .map(|k| ((q * ed + k) as f32 * 0.37).sin())
                    .collect();
                let u = (0..ed).map(|k| ((q + k) as f32 * 0.11).cos()).collect();
                (o, u)
            })
            .collect();
        let mut stage = OutputStage::default();
        model.output_answers(
            pairs.iter().map(|(o, u)| (o.as_slice(), u.as_slice())),
            &mut stage,
            &mut Team::new(),
        );
        assert_eq!(stage.answers().len(), 3);
        for (got, (o, u)) in stage.answers().iter().zip(&pairs) {
            let mut logits = model.output_logits(o, u);
            let word = reduce::argmax(&logits).unwrap();
            let (_, kernel) = softmax::argmax_softmax(&logits).unwrap();
            softmax::softmax_in_place(&mut logits);
            let (w, p) = got.expect("non-empty vocabulary");
            assert_eq!((w as usize, p.to_bits()), (word, kernel.to_bits()));
            assert!((p - logits[word]).abs() <= ARGMAX_SOFTMAX_MAX_REL_ERROR * logits[word]);
        }
        // The stage is reusable, and an empty batch answers nothing.
        model.output_answers(std::iter::empty(), &mut stage, &mut Team::new());
        assert!(stage.answers().is_empty());
    }

    #[test]
    fn num_parameters_counts_everything() {
        let (_, model) = small_model();
        let c = model.config();
        let expect = 4 * c.vocab_size * c.embedding_dim + 2 * c.max_sentences * c.embedding_dim;
        assert_eq!(model.num_parameters(), expect);
    }
}
