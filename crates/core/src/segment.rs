//! Segment routing and zone-map pruning for the segmented execution plane.
//!
//! The segmented plane partitions story memory into contiguous,
//! *chunk-aligned* row ranges ([`Segment`]s). Chunk alignment is what keeps
//! segmented execution bitwise identical to the unsegmented engines: every
//! segment boundary coincides with a chunk boundary, so the per-chunk fold
//! order — and therefore the f32 rounding history — is exactly the one the
//! plain prefix pass produces.
//!
//! Each segment carries *zone-map* metadata: an upper bound on the Euclidean
//! norm of its `M_IN` rows. Combined with the query norm this bounds every
//! logit the segment can produce (Cauchy–Schwarz:
//! `u · m ≤ ‖u‖ · ‖m‖ ≤ ‖u‖ · max_in_norm`), which lets the online-softmax
//! engines skip whole segments — the segment-level analogue of zero-skip.
//!
//! # The pruning rule and why it is bitwise-safe
//!
//! A segment with logit upper bound `ub` may be pruned when the running
//! online-softmax max `m` satisfies
//!
//! ```text
//! ub < m − (110 + |m| · 1e-4)        (evaluated in f64)
//! ```
//!
//! with both sides finite. f32 `exp(x)` underflows to exactly `+0.0` for
//! `x < ≈ −103.97`, so with the 110 margin every row of a pruned segment
//! would have contributed a relative weight of exactly `+0.0`: the
//! denominator update is `+= 0.0` (a no-op) and the weighted-sum update adds
//! `±0.0` (a no-op for every value the accumulator can reach under
//! round-to-nearest). The running max cannot rise either, because every
//! logit in the segment is `≤ ub < m`. Skipping the segment therefore
//! leaves the accumulator *bit for bit* in the state the unsegmented pass
//! reaches. The `|m| · 1e-4` term absorbs the f32 rounding of the dot
//! products at large logit magnitudes, and both norms carry a
//! [`NORM_SLACK`] factor on top of an f64 evaluation so the bound itself is
//! conservative.
//!
//! Two structural consequences, both load-bearing:
//!
//! * **Lazy mode never prunes.** The lazy softmax has no running max, so
//!   there is nothing to compare against ([`SegmentPlan::prune`] is simply
//!   inert there) — and its raw weights `e^x` are never exactly zero for
//!   finite `x ≥ 0` bounds anyway.
//! * **The first contributing segment is never pruned.** Before any row is
//!   folded the running max is `−∞`, which fails the finiteness test.

use mnn_tensor::Matrix;

/// Multiplicative slack applied to every norm bound, covering the f32→f64
/// conversion and the final f64→f32 rounding of the stored bounds.
pub const NORM_SLACK: f64 = 1.001;

/// The logit-gap margin of the pruning rule. f32 `exp` returns exactly
/// `+0.0` below ≈ −103.97; 110 leaves headroom on top of the norm slack.
pub const PRUNE_MARGIN: f64 = 110.0;

/// One routed memory segment: a contiguous, chunk-aligned row range plus
/// its zone-map metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First memory row of the segment.
    pub start: usize,
    /// Number of rows in the segment.
    pub rows: usize,
    /// Upper bound on the Euclidean norm of the segment's `M_IN` rows
    /// (`+∞` when unknown or not finite, which disables pruning for the
    /// segment).
    pub max_in_norm: f32,
}

impl Segment {
    /// The segment's logit upper bound for a query with norm bound
    /// `query_norm` (from [`query_norm_upper`]), by Cauchy–Schwarz.
    pub fn logit_upper_bound(&self, query_norm: f64) -> f64 {
        query_norm * self.max_in_norm as f64
    }
}

/// The routed segmentation of a memory prefix: contiguous chunk-aligned
/// [`Segment`]s covering rows `0..rows()`, in row order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SegmentMap {
    segments: Vec<Segment>,
    rows: usize,
}

impl SegmentMap {
    /// Builds a map over `norms.len()` rows (where `norms[i]` is an upper
    /// bound on row `i`'s Euclidean norm, e.g. from [`row_norm_upper`]),
    /// split into at most `n_segments` chunk-aligned segments of near-equal
    /// size.
    ///
    /// `n_segments` is clamped to the number of chunks (a segment never
    /// splits a chunk) and to at least 1. Rows whose norm is NaN poison
    /// their segment's bound to `+∞`, disabling pruning for that segment.
    pub fn from_norms(norms: &[f32], n_segments: usize, chunk_size: usize) -> Self {
        let rows = norms.len();
        let chunk = chunk_size.max(1);
        let chunks_total = rows.div_ceil(chunk);
        let mut segments = Vec::new();
        if chunks_total > 0 {
            let n = n_segments.clamp(1, chunks_total);
            let rows_per_seg = chunks_total.div_ceil(n) * chunk;
            let mut start = 0usize;
            while start < rows {
                let len = rows_per_seg.min(rows - start);
                let mut max_in_norm = 0.0f32;
                for &x in &norms[start..start + len] {
                    if x.is_nan() {
                        max_in_norm = f32::INFINITY;
                        break;
                    }
                    max_in_norm = max_in_norm.max(x);
                }
                segments.push(Segment {
                    start,
                    rows: len,
                    max_in_norm,
                });
                start += len;
            }
        }
        SegmentMap { segments, rows }
    }

    /// Builds a map directly from pre-built segments — the constructor the
    /// clustered top-K index uses for its *gappy* chunk-covering plans.
    ///
    /// Unlike [`SegmentMap::from_norms`], the segments need not tile a
    /// prefix: gaps between segments are allowed (rows in a gap are simply
    /// never visited), which is exactly how the sparse-attention path
    /// expresses "rescore only the covered chunk runs". [`SegmentMap::rows`]
    /// is the number of *covered* rows (the sum of segment lengths), which
    /// is what the engines size their pass over. Every engine's segmented
    /// loop walks `seg.start..seg.start + seg.rows` directly, so gappy maps
    /// execute bitwise-identically to exact attention restricted to the
    /// covered runs — provided the starts are ascending, non-overlapping
    /// and chunk-aligned, which this constructor checks.
    ///
    /// # Panics
    ///
    /// Panics if segments are empty-length, out of order, overlapping, or
    /// start off a `chunk_size` boundary.
    pub fn from_segments(segments: Vec<Segment>, chunk_size: usize) -> Self {
        let chunk = chunk_size.max(1);
        let mut rows = 0usize;
        let mut next_free = 0usize;
        for seg in &segments {
            assert!(seg.rows > 0, "empty segment at row {}", seg.start);
            assert!(
                seg.start >= next_free,
                "segment at {} overlaps or precedes the previous one",
                seg.start
            );
            assert!(
                seg.start % chunk == 0,
                "segment start {} is not aligned to chunk size {chunk}",
                seg.start
            );
            next_free = seg.start + seg.rows;
            rows += seg.rows;
        }
        SegmentMap { segments, rows }
    }

    /// Builds a map over the first `rows` rows of `m_in`, computing the
    /// per-row norm bounds on the fly (convenience for tests and benches;
    /// the serving store maintains the norms incrementally).
    ///
    /// # Panics
    ///
    /// Panics if `rows > m_in.rows()`.
    pub fn from_matrix(m_in: &Matrix, rows: usize, n_segments: usize, chunk_size: usize) -> Self {
        let norms: Vec<f32> = (0..rows).map(|r| row_norm_upper(m_in.row(r))).collect();
        Self::from_norms(&norms, n_segments, chunk_size)
    }

    /// The segments, in row order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total rows covered by the map.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the map covers no rows.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// How a forward pass is routed over segments: either the trivial
/// single-range plan (the classic prefix pass, allocation-free) or a routed
/// [`SegmentMap`], optionally with zone-map pruning enabled.
#[derive(Debug, Clone, Copy)]
pub struct SegmentPlan<'a> {
    source: Source<'a>,
    prune: bool,
}

#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    Unsegmented { rows: usize },
    Routed { map: &'a SegmentMap },
}

impl SegmentPlan<'static> {
    /// The trivial plan: one segment covering rows `0..rows`, no zone map,
    /// no pruning — the classic prefix pass.
    pub fn unsegmented(rows: usize) -> Self {
        SegmentPlan {
            source: Source::Unsegmented { rows },
            prune: false,
        }
    }
}

impl<'a> SegmentPlan<'a> {
    /// A plan routed over `map`, with zone-map pruning on or off.
    pub fn routed(map: &'a SegmentMap, prune: bool) -> Self {
        SegmentPlan {
            source: Source::Routed { map },
            prune,
        }
    }

    /// Total rows the pass covers.
    pub fn rows(&self) -> usize {
        match self.source {
            Source::Unsegmented { rows } => rows,
            Source::Routed { map } => map.rows(),
        }
    }

    /// Whether zone-map pruning is enabled (inert in lazy-softmax mode).
    pub fn prune(&self) -> bool {
        self.prune
    }

    /// Number of segments the pass visits (0 when there are no rows).
    pub fn n_segments(&self) -> usize {
        match self.source {
            Source::Unsegmented { rows } => usize::from(rows > 0),
            Source::Routed { map } => map.len(),
        }
    }

    /// Iterates the segments in row order. The unsegmented plan yields one
    /// all-covering segment with an infinite norm bound (never prunable).
    pub fn segments(&self) -> SegmentIter<'a> {
        match self.source {
            Source::Unsegmented { rows } => SegmentIter::Single(if rows > 0 {
                Some(Segment {
                    start: 0,
                    rows,
                    max_in_norm: f32::INFINITY,
                })
            } else {
                None
            }),
            Source::Routed { map } => SegmentIter::Routed(map.segments().iter()),
        }
    }
}

/// Iterator over a [`SegmentPlan`]'s segments.
#[derive(Debug)]
pub enum SegmentIter<'a> {
    /// The trivial plan's single segment (or nothing for an empty prefix).
    Single(Option<Segment>),
    /// A routed map's segments.
    Routed(std::slice::Iter<'a, Segment>),
}

impl Iterator for SegmentIter<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        match self {
            SegmentIter::Single(s) => s.take(),
            SegmentIter::Routed(it) => it.next().copied(),
        }
    }
}

/// Upper bound on a memory row's Euclidean norm: the f64 norm times
/// [`NORM_SLACK`], rounded to f32. NaN data yields NaN (which disables
/// pruning downstream).
pub fn row_norm_upper(row: &[f32]) -> f32 {
    let sumsq: f64 = row.iter().map(|&x| x as f64 * x as f64).sum();
    (sumsq.sqrt() * NORM_SLACK) as f32
}

/// Upper bound on the query's Euclidean norm, in f64 (computed once per
/// pass).
pub fn query_norm_upper(u: &[f32]) -> f64 {
    let sumsq: f64 = u.iter().map(|&x| x as f64 * x as f64).sum();
    sumsq.sqrt() * NORM_SLACK
}

/// Upper bound on a *quantized* query's Euclidean norm, in f64.
///
/// The quantized path's logits are inner products of the quantized query
/// (`uq[k] * u_scale`) against dequantized memory rows, so Cauchy–Schwarz
/// must be applied to the quantized query, not the original `u` — the
/// rounding that produced `uq` can push individual components either way.
/// `Σ uq[k]²` is exact in f64 (codes are ≤ 127), so this bound is exact up
/// to the one rounding in `u_scale` itself, covered by [`NORM_SLACK`]. A
/// non-finite `u_scale` (non-finite query) yields a non-finite bound, which
/// disables pruning downstream.
///
/// Zone maps are built from the *f32* row norms, but a dequantized row can
/// be longer than its f32 source: per-element rounding adds up to `s/2`,
/// so its norm is at most `‖x‖ + s·√ed/2 ≤ ‖x‖·(1 + √ed/254)` (since
/// `s = maxabs/127 ≤ ‖x‖/127`). That inflation multiplies the *other*
/// side of the Cauchy–Schwarz product, so folding it into the query bound
/// here keeps f32-norm zone maps conservative on the quant plane for any
/// memory, not just ones whose logits sit inside the prune margin's
/// headroom.
pub fn query_norm_upper_i8(uq: &[i8], u_scale: f32) -> f64 {
    let ed = uq.len() as f64;
    let dequant_slack = 1.0 + ed.sqrt() / 254.0;
    let sumsq: f64 = uq.iter().map(|&q| q as f64 * q as f64).sum();
    sumsq.sqrt() * u_scale as f64 * NORM_SLACK * dequant_slack
}

/// The zone-map pruning rule: may a segment whose logit upper bound is `ub`
/// be skipped given the running online-softmax max `running_max`?
///
/// See the module docs for the bitwise-safety argument. Returns `false`
/// whenever either side is not finite — in particular before the first
/// segment contributes (`running_max == −∞`) and for segments with unknown
/// (`+∞`/NaN) bounds.
pub fn can_prune(running_max: f32, ub: f64) -> bool {
    running_max.is_finite()
        && ub.is_finite()
        && ub < running_max as f64 - (PRUNE_MARGIN + (running_max as f64).abs() * 1e-4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_are_chunk_aligned_and_cover_all_rows() {
        for rows in [0usize, 1, 9, 10, 11, 64, 100, 1000] {
            for n_segments in [1usize, 3, 8, 17, 1000] {
                let norms = vec![1.0f32; rows];
                let map = SegmentMap::from_norms(&norms, n_segments, 10);
                let mut next = 0usize;
                for seg in map.segments() {
                    assert_eq!(seg.start, next, "contiguous");
                    assert_eq!(seg.start % 10, 0, "chunk-aligned start");
                    assert!(seg.rows > 0, "no empty segments");
                    next = seg.start + seg.rows;
                }
                assert_eq!(next, rows, "full coverage");
                assert_eq!(map.rows(), rows);
                let max_segments = rows.div_ceil(10);
                assert!(map.len() <= n_segments.max(1).min(max_segments.max(1)));
            }
        }
    }

    #[test]
    fn zone_map_bounds_dominate_row_norms() {
        let m = Matrix::from_fn(37, 5, |r, c| ((r * 3 + c) as f32 * 0.4).sin() * (r as f32));
        let map = SegmentMap::from_matrix(&m, 37, 4, 8);
        for seg in map.segments() {
            for r in seg.start..seg.start + seg.rows {
                let norm: f64 = m
                    .row(r)
                    .iter()
                    .map(|&x| (x as f64).powi(2))
                    .sum::<f64>()
                    .sqrt();
                assert!(
                    seg.max_in_norm as f64 >= norm,
                    "segment bound {} < row {r} norm {norm}",
                    seg.max_in_norm
                );
            }
        }
    }

    #[test]
    fn nan_norms_disable_pruning_for_the_segment() {
        let norms = [1.0f32, f32::NAN, 2.0];
        let map = SegmentMap::from_norms(&norms, 1, 10);
        assert_eq!(map.segments()[0].max_in_norm, f32::INFINITY);
        assert!(!can_prune(1000.0, map.segments()[0].logit_upper_bound(1.0)));
    }

    #[test]
    fn prune_rule_requires_a_deep_finite_gap() {
        // No running max yet: never prune.
        assert!(!can_prune(f32::NEG_INFINITY, -1e6));
        // Unknown bound: never prune.
        assert!(!can_prune(10.0, f64::INFINITY));
        assert!(!can_prune(10.0, f64::NAN));
        // Gap smaller than the margin: keep.
        assert!(!can_prune(10.0, -90.0));
        // Gap beyond the margin: prune.
        assert!(can_prune(10.0, -101.0));
        assert!(can_prune(0.0, -110.5));
        // Exactly at the margin stays (strict inequality).
        assert!(!can_prune(0.0, -110.0));
    }

    #[test]
    fn unsegmented_plan_is_one_unprunable_segment() {
        let plan = SegmentPlan::unsegmented(42);
        assert_eq!(plan.rows(), 42);
        assert!(!plan.prune());
        let segs: Vec<Segment> = plan.segments().collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(plan.n_segments(), 1);
        assert_eq!(segs[0].start, 0);
        assert_eq!(segs[0].rows, 42);
        assert!(!can_prune(1e30, segs[0].logit_upper_bound(1.0)));

        let empty = SegmentPlan::unsegmented(0);
        assert_eq!(empty.segments().count(), 0);
        assert_eq!(empty.n_segments(), 0);
    }

    #[test]
    fn gappy_maps_count_covered_rows_only() {
        let seg = |start: usize, rows: usize| Segment {
            start,
            rows,
            max_in_norm: f32::INFINITY,
        };
        let map = SegmentMap::from_segments(vec![seg(0, 20), seg(40, 10), seg(80, 7)], 10);
        assert_eq!(map.rows(), 37, "rows() is covered rows, not the span");
        assert_eq!(map.len(), 3);
        let plan = SegmentPlan::routed(&map, false);
        assert_eq!(plan.rows(), 37);
        assert_eq!(plan.segments().map(|s| s.rows).sum::<usize>(), 37);

        let empty = SegmentMap::from_segments(Vec::new(), 10);
        assert_eq!(empty.rows(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "overlaps or precedes")]
    fn gappy_maps_reject_overlap() {
        let seg = |start: usize, rows: usize| Segment {
            start,
            rows,
            max_in_norm: f32::INFINITY,
        };
        let _ = SegmentMap::from_segments(vec![seg(0, 20), seg(10, 10)], 10);
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn gappy_maps_reject_misaligned_starts() {
        let seg = |start: usize, rows: usize| Segment {
            start,
            rows,
            max_in_norm: f32::INFINITY,
        };
        let _ = SegmentMap::from_segments(vec![seg(5, 10)], 10);
    }

    #[test]
    fn routed_plan_reflects_its_map() {
        let norms = vec![1.0f32; 50];
        let map = SegmentMap::from_norms(&norms, 3, 10);
        let plan = SegmentPlan::routed(&map, true);
        assert!(plan.prune());
        assert_eq!(plan.rows(), 50);
        assert_eq!(plan.n_segments(), map.len());
        assert_eq!(plan.segments().count(), map.len());
    }
}
