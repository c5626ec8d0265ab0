//! Everything a workload feeds the program, derived from `--seed` alone:
//! the model weights, the story sentences, the questions and the open-loop
//! arrival schedule. The same seed gives the same inputs (checked by
//! [`Inputs::hash`]); the program under test only ever sees these values.

use mnn_dataset::zipf::ZipfSampler;
use mnn_dataset::{Vocabulary, WordId};
use mnn_memnn::{MemNet, ModelConfig};

/// Vocabulary size of every workload's model.
pub const VOCAB: usize = 10_000;
/// Embedding dimension.
pub const ED: usize = 64;
/// Memory hops per question.
pub const HOPS: usize = 2;
/// Distinct questions per workload, asked round-robin.
pub const QUESTIONS: usize = 512;
/// Zipf exponent of the word distribution (natural-language-like).
const ZIPF_S: f64 = 1.0;
/// Words per sentence / per question (inclusive ranges; bAbI-like).
const SENTENCE_WORDS: (usize, usize) = (4, 8);
const QUESTION_WORDS: (usize, usize) = (3, 5);
/// The input and question embeddings are multiplied by this. Uniform
/// (-0.1, 0.1) weights give logits of ~0.2 and therefore a flat attention
/// over the whole memory, which no trained MemN2N has; at 4x a shared word
/// is worth ~3.4 in the logit and attention concentrates on the sentences
/// that overlap the question, so int8 and top-K answers can be compared
/// with the exact ones meaningfully. Logits stay far below the lazy
/// softmax's exp overflow (words within a sentence are distinct, so at
/// most five can be shared).
const ATTENTION_SCALE: f32 = 4.0;

/// SplitMix64: the benchmark's own generator for lengths and arrival gaps,
/// so inputs do not depend on the workspace's `rand` stand-in.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`, so `ln` never sees zero.
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn in_range(&mut self, (lo, hi): (usize, usize)) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// Sentences stored back to back (a quarter-million `Vec`s would cost more
/// memory than their tokens).
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    tokens: Vec<WordId>,
    starts: Vec<u32>,
}

impl Corpus {
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    pub fn get(&self, i: usize) -> &[WordId] {
        let lo = self.starts[i] as usize;
        let hi = self
            .starts
            .get(i + 1)
            .map_or(self.tokens.len(), |&s| s as usize);
        &self.tokens[lo..hi]
    }

    fn push(&mut self, words: &[WordId]) {
        self.starts.push(self.tokens.len() as u32);
        self.tokens.extend_from_slice(words);
    }
}

/// One workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub model: MemNet,
    pub sentences: Corpus,
    pub questions: Vec<Vec<WordId>>,
    /// FNV-1a over every generated token and the model's embedding
    /// fingerprint: equal hashes mean equal inputs.
    pub hash: u64,
}

/// Draws `words` distinct Zipf words (a bag of words is a set).
fn draw(zipf: &mut ZipfSampler, words: usize, out: &mut Vec<WordId>) {
    out.clear();
    while out.len() < words {
        let w = zipf.sample();
        if !out.contains(&w) {
            out.push(w);
        }
    }
}

/// Builds the model, `n_sentences` sentences and [`QUESTIONS`] questions
/// from `seed`.
///
/// The model is a random-weight MemN2N with the adjacent weight tying of
/// Sukhbaatar et al. (`B = A`, `W = C`): a question then attends to the
/// sentences it shares words with, as a trained network does, instead of
/// to rows that merely happen to align with an unrelated random matrix.
pub fn build(seed: u64, n_sentences: usize) -> Inputs {
    let config = ModelConfig {
        vocab_size: VOCAB,
        embedding_dim: ED,
        // Only sizes the temporal tables, which serving never reads.
        max_sentences: 1,
        hops: HOPS,
        temporal: false,
        position_encoding: false,
    };
    let mut model = MemNet::new(config, seed);
    for v in model.a.as_mut_slice() {
        *v *= ATTENTION_SCALE;
    }
    model.b = model.a.clone();
    model.w = model.c.clone();

    let mut rng = SplitMix64(seed ^ 0x5EED_1E55);
    let mut zipf = ZipfSampler::new(VOCAB, ZIPF_S, rng.next_u64()).expect("valid Zipf parameters");
    let mut words = Vec::new();
    let mut sentences = Corpus::default();
    for _ in 0..n_sentences {
        draw(&mut zipf, rng.in_range(SENTENCE_WORDS), &mut words);
        sentences.push(&words);
    }
    let questions: Vec<Vec<WordId>> = (0..QUESTIONS)
        .map(|_| {
            draw(&mut zipf, rng.in_range(QUESTION_WORDS), &mut words);
            words.clone()
        })
        .collect();

    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ model.weights_fingerprint();
    let mut eat = |w: WordId| {
        for b in w.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for i in 0..sentences.len() {
        sentences.get(i).iter().copied().for_each(&mut eat);
        eat(WordId::MAX); // sentence boundary
    }
    for q in &questions {
        q.iter().copied().for_each(&mut eat);
        eat(WordId::MAX);
    }
    Inputs {
        model,
        sentences,
        questions,
        hash,
    }
}

/// A vocabulary naming every word id (`w0`..), which the network server
/// needs to put the answer's text on the wire.
pub fn vocabulary() -> Vocabulary {
    let mut vocab = Vocabulary::new();
    for i in 0..VOCAB {
        vocab.intern(&format!("w{i}"));
    }
    vocab
}

/// Poisson arrivals at `rate_qps` over `seconds`: scheduled send offsets
/// in nanoseconds from the phase start, ascending.
pub fn poisson_schedule(rate_qps: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64(seed ^ 0xA221_7A15);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate_qps * seconds * 1.1) as usize + 16);
    loop {
        t += -rng.next_f64().ln() / rate_qps;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = build(7, 300);
        let b = build(7, 300);
        let c = build(8, 300);
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.questions, b.questions);
        assert_eq!(a.sentences.get(299), b.sentences.get(299));
        assert_ne!(a.hash, c.hash);
        assert_eq!(a.sentences.len(), 300);
        assert_eq!(a.questions.len(), QUESTIONS);
    }

    #[test]
    fn sentences_are_word_sets_of_the_stated_length() {
        let inputs = build(3, 500);
        for i in 0..inputs.sentences.len() {
            let s = inputs.sentences.get(i);
            assert!((SENTENCE_WORDS.0..=SENTENCE_WORDS.1).contains(&s.len()));
            let mut sorted = s.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), s.len(), "repeated word in {s:?}");
            assert!(s.iter().all(|&w| (w as usize) < VOCAB));
        }
    }

    #[test]
    fn poisson_schedule_has_the_asked_mean_rate() {
        let schedule = poisson_schedule(2000.0, 10.0, 11);
        let n = schedule.len() as f64;
        // 20000 expected, sd ~141: 5 sd either side.
        assert!((n - 20_000.0).abs() < 710.0, "{n} arrivals");
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
        assert!(*schedule.last().unwrap() < 10_000_000_000);
        assert_eq!(schedule, poisson_schedule(2000.0, 10.0, 11));
        assert_ne!(schedule, poisson_schedule(2000.0, 10.0, 12));
    }
}
