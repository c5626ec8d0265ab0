//! Configuration of the MnnFast inference engine.

/// Which streaming softmax formulation the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SoftmaxMode {
    /// The paper's lazy softmax (Equation 4): accumulate raw `e^{x_i}`
    /// weights, divide once at the end. Exact for trained-model logits;
    /// can overflow `f32` if logits exceed ~88.
    #[default]
    Lazy,
    /// Online softmax (extension): track the running maximum logit and
    /// rescale partial sums, remaining finite for arbitrary logits.
    Online,
}

/// Numeric precision of the memory plane the inference phase reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full-precision f32 memories — the reference path.
    #[default]
    F32,
    /// Int8 quantized memories (symmetric per-row scales): the
    /// bandwidth-bound inference phase moves ~4x fewer bytes and runs on
    /// the exact-integer AVX2 kernels. Logits carry a bounded relative
    /// error ([`mnn_tensor::simd::I8_LOGIT_MAX_REL_ERROR`]); answers on
    /// the bAbI suite are unchanged. Numeric faults on this path degrade
    /// to the f32 safe path.
    Int8,
}

/// Zero-skipping policy (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SkipPolicy {
    /// No skipping — every memory row contributes to the weighted sum.
    #[default]
    None,
    /// Skip rows whose *unnormalized* attention weight is below the
    /// threshold: `e^{x_i} < th` in [`SoftmaxMode::Lazy`] mode, or relative
    /// weight `e^{x_i - max} < th` in [`SoftmaxMode::Online`] mode. This is
    /// what the paper's FPGA pipeline implements — the comparison happens
    /// before the softmax denominator is known.
    RawWeight(f32),
    /// Skip rows whose final *probability* `p_i` is below the threshold,
    /// via a two-pass sweep (first pass accumulates the denominator, second
    /// pass does the weighted sum). This matches the paper's Fig 7 analysis
    /// axis ("skip threshold" on probabilities) exactly.
    Probability(f32),
}

impl SkipPolicy {
    /// The numeric threshold, if any.
    pub fn threshold(&self) -> Option<f32> {
        match self {
            SkipPolicy::None => None,
            SkipPolicy::RawWeight(t) | SkipPolicy::Probability(t) => Some(*t),
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MnnFastConfig {
    /// Rows per chunk (the paper's CPU default is 1000, FPGA 25).
    pub chunk_size: usize,
    /// Zero-skipping policy.
    pub skip: SkipPolicy,
    /// Softmax formulation.
    pub softmax: SoftmaxMode,
    /// Worker threads for the scale-out path (1 = sequential).
    pub threads: usize,
    /// Precision of the memory plane consumed by the inference phase.
    pub precision: Precision,
}

impl MnnFastConfig {
    /// Creates a configuration with the given chunk size, no skipping,
    /// lazy softmax, single-threaded, f32 plane.
    pub fn new(chunk_size: usize) -> Self {
        Self {
            chunk_size,
            skip: SkipPolicy::None,
            softmax: SoftmaxMode::Lazy,
            threads: 1,
            precision: Precision::F32,
        }
    }

    /// Sets the zero-skipping policy.
    pub fn with_skip(mut self, skip: SkipPolicy) -> Self {
        self.skip = skip;
        self
    }

    /// Sets the softmax mode.
    pub fn with_softmax(mut self, mode: SoftmaxMode) -> Self {
        self.softmax = mode;
        self
    }

    /// Sets the number of scale-out worker threads (min 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the memory-plane precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.chunk_size == 0 {
            return Err("chunk_size must be positive".into());
        }
        if self.threads == 0 {
            return Err("threads must be positive".into());
        }
        if let Some(t) = self.skip.threshold() {
            if !t.is_finite() || t < 0.0 {
                return Err(format!("skip threshold must be finite and >= 0, got {t}"));
            }
            if matches!(self.skip, SkipPolicy::Probability(_)) && t >= 1.0 {
                return Err(format!("probability skip threshold must be < 1, got {t}"));
            }
        }
        Ok(())
    }
}

impl Default for MnnFastConfig {
    fn default() -> Self {
        Self::new(1000) // the paper's CPU chunk size (Table 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1_cpu() {
        let c = MnnFastConfig::default();
        assert_eq!(c.chunk_size, 1000);
        assert_eq!(c.skip, SkipPolicy::None);
        assert_eq!(c.softmax, SoftmaxMode::Lazy);
        assert_eq!(c.threads, 1);
        assert_eq!(c.precision, Precision::F32);
        c.validate().unwrap();
    }

    #[test]
    fn builder_chain() {
        let c = MnnFastConfig::new(64)
            .with_skip(SkipPolicy::Probability(0.1))
            .with_softmax(SoftmaxMode::Online)
            .with_threads(4)
            .with_precision(Precision::Int8);
        assert_eq!(c.precision, Precision::Int8);
        assert_eq!(c.chunk_size, 64);
        assert_eq!(c.skip.threshold(), Some(0.1));
        assert_eq!(c.softmax, SoftmaxMode::Online);
        assert_eq!(c.threads, 4);
        c.validate().unwrap();
    }

    #[test]
    fn threads_clamped_to_one() {
        assert_eq!(MnnFastConfig::new(8).with_threads(0).threads, 1);
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(MnnFastConfig::new(0).validate().is_err());
        assert!(MnnFastConfig::new(8)
            .with_skip(SkipPolicy::RawWeight(f32::NAN))
            .validate()
            .is_err());
        assert!(MnnFastConfig::new(8)
            .with_skip(SkipPolicy::RawWeight(-0.5))
            .validate()
            .is_err());
        assert!(MnnFastConfig::new(8)
            .with_skip(SkipPolicy::Probability(1.5))
            .validate()
            .is_err());
        // RawWeight thresholds above 1 are legal (they compare e^x).
        assert!(MnnFastConfig::new(8)
            .with_skip(SkipPolicy::RawWeight(2.0))
            .validate()
            .is_ok());
    }

    #[test]
    fn skip_threshold_accessor() {
        assert_eq!(SkipPolicy::None.threshold(), None);
        assert_eq!(SkipPolicy::RawWeight(0.2).threshold(), Some(0.2));
    }
}
