//! Clustered top-K candidate index for sublinear attention.
//!
//! Exact attention is `O(ns)` per hop: every question dots the full `M_IN`
//! even though, on real workloads, almost all of the softmax mass sits on a
//! handful of rows (the observation behind Rae et al.'s sparse reads and
//! Chandar et al.'s MIPS-based hierarchical reader). This module adds the
//! *approximate-first* half of the sparse-attention path: a k-means/IVF
//! index over the memory rows —
//!
//! * `k` **centroids** trained by Lloyd iterations on a deterministic
//!   sample of the rows (no RNG: strided seeding, fixed iteration count,
//!   so the same memory always produces the same index);
//! * one **posting list** per centroid holding the absolute ids of the
//!   rows assigned to it, in ascending id order;
//! * **incremental maintenance** mirroring the serving store's discipline:
//!   `push` assigns the new row to its nearest centroid in `O(k·ed)`,
//!   `evict_front` pops ids in `O(1)` amortized, and every mutation stamps
//!   [`ClusterIndex::synced_at`] with the store version exactly like the
//!   int8 `QuantMirror` — a stale index is never served.
//!
//! [`ClusterIndex::probe`] is the read side: score the query against every
//! centroid with the SIMD [`mnn_tensor::kernels::centroid_scores`] kernel,
//! rank clusters with [`mnn_tensor::reduce::top_k_select`], and gather the
//! candidate rows of the best `nprobe` clusters (continuing down the
//! ranking until at least `topk` candidates are in hand). The *exact-second*
//! half — rescoring candidates with the unchanged fused kernels — lives in
//! the resolution of a [`crate::Route::TopK`] (see there).
//!
//! Ranking clusters by the raw inner product `u · c` (not Euclidean
//! distance) is the standard IVF-for-MIPS heuristic: the attention logit
//! *is* an inner product, and rows clustered around a high-scoring centroid
//! are where the high logits live. The probe also reports its **confidence
//! margin** — the score gap between the last probed and the best unprobed
//! centroid. A vanishing margin means the cluster cut was arbitrary (ties,
//! near-duplicate centroids), and callers degrade to exact attention.

use crate::segment::{Segment, SegmentMap};
use mnn_tensor::kernels::centroid_scores;
use mnn_tensor::reduce::top_k_select;
use mnn_tensor::Matrix;
use std::collections::VecDeque;

/// Lloyd iterations per (re)build. Fixed — determinism over last-mile
/// convergence; the exact rescoring pass forgives imperfect clusters.
const KMEANS_ITERS: usize = 6;

/// Training-sample budget per centroid: Lloyd runs on a strided sample of
/// `SAMPLE_PER_CLUSTER * k` rows, then every row is assigned once. Keeps a
/// rebuild `O(rows · k · ed)` in the final assignment, not the iterations.
const SAMPLE_PER_CLUSTER: usize = 16;

/// Relative score-margin floor for a confident probe: a probe whose
/// last-selected/first-rejected centroid gap is at most this fraction of
/// the largest absolute centroid score is *low-confidence* (ties and
/// near-ties), and callers fall back to exact attention.
pub const PROBE_MARGIN_RTOL: f32 = 1e-5;

/// What a probe found: the candidate rows, their chunk covering, and how
/// confident the cluster cut was.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeResult {
    /// Candidate row indices (live positions in `0..len`), ascending.
    pub candidates: Vec<u32>,
    /// Gappy chunk-aligned covering of the candidates: one [`Segment`] per
    /// maximal run of chunks holding at least one candidate, built via
    /// [`SegmentMap::from_segments`]. Zero-copy rescoring runs the exact
    /// engines over this map when the candidates are spatially clustered.
    pub covered: SegmentMap,
    /// Clusters probed (posting lists gathered).
    pub probes: usize,
    /// Centroid-score gap between the weakest probed cluster and the
    /// strongest unprobed one; `+∞` when every cluster was probed.
    pub margin: f32,
    /// Whether the margin fell below [`PROBE_MARGIN_RTOL`] — the cluster
    /// cut was ambiguous and exact attention should answer instead.
    pub low_margin: bool,
}

/// A k-means/IVF clustered index over the live rows of a memory.
///
/// Rows are identified two ways: by *absolute id* (monotonic over the life
/// of the index; eviction never renumbers) internally, and by *live index*
/// (`absolute id − base`, the row number in today's `M_IN` prefix) at the
/// API surface. Posting lists store absolute ids so front-eviction is a
/// pure `pop_front`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterIndex {
    ed: usize,
    k: usize,
    /// Row-major `k × ed` centroid table.
    centroids: Vec<f32>,
    /// Half squared norm of each centroid (`‖c‖²/2`), for L2 assignment
    /// via `argmax(x·c − ‖c‖²/2)`.
    cnorm_half: Vec<f32>,
    /// Per-cluster absolute row ids, strictly ascending within each list.
    posting: Vec<VecDeque<u64>>,
    /// Cluster of each live row; front is live row 0.
    assign: VecDeque<u32>,
    /// Absolute id of live row 0.
    base: u64,
    /// Store version this index last mirrored.
    synced_at: u64,
    /// Live rows at the last (re)build — the drift yardstick.
    trained_rows: usize,
    /// Reusable centroid-score buffer for `push` assignment.
    score_buf: Vec<f32>,
}

impl ClusterIndex {
    /// Default cluster count for a memory of `rows` rows: `⌈√rows⌉`,
    /// clamped to `[1, rows]`. The classic IVF balance point — probing
    /// `nprobe` of `√n` clusters scans `O(nprobe · √n)` candidates.
    pub fn default_k(rows: usize) -> usize {
        ((rows as f64).sqrt().ceil() as usize).clamp(1, rows.max(1))
    }

    /// Builds an index over the first `rows` rows of `m_in`, stamped with
    /// the store `version` it mirrors. Deterministic: strided centroid
    /// seeding and a fixed Lloyd-iteration count, no RNG.
    ///
    /// # Panics
    ///
    /// Panics if `rows > m_in.rows()` or `m_in.cols() == 0` with nonzero
    /// rows.
    pub fn build(m_in: &Matrix, rows: usize, version: u64) -> Self {
        assert!(
            rows <= m_in.rows(),
            "index rows {} > matrix {}",
            rows,
            m_in.rows()
        );
        let ed = m_in.cols();
        let k = Self::default_k(rows);
        let mut index = ClusterIndex {
            ed,
            k,
            centroids: vec![0.0; k * ed],
            cnorm_half: vec![0.0; k],
            posting: (0..k).map(|_| VecDeque::new()).collect(),
            assign: VecDeque::with_capacity(rows),
            base: 0,
            synced_at: version,
            trained_rows: rows,
            score_buf: vec![0.0; k],
        };
        if rows == 0 {
            return index;
        }

        // Strided seeding: centroid `c` starts as row `c * rows / k`.
        for c in 0..k {
            let r = c * rows / k;
            index.centroids[c * ed..(c + 1) * ed].copy_from_slice(m_in.row(r));
        }
        index.refresh_cnorms();

        // Lloyd on a strided sample (deterministic, bounded work).
        let sample_n = rows.min(k * SAMPLE_PER_CLUSTER);
        let mut scores = vec![0.0f32; k];
        let mut sums = vec![0.0f32; k * ed];
        let mut counts = vec![0u32; k];
        for _ in 0..KMEANS_ITERS {
            sums.iter_mut().for_each(|s| *s = 0.0);
            counts.iter_mut().for_each(|c| *c = 0);
            for s in 0..sample_n {
                let r = s * rows / sample_n;
                let row = m_in.row(r);
                let c = index.nearest_into(row, &mut scores);
                counts[c as usize] += 1;
                let sum = &mut sums[c as usize * ed..(c as usize + 1) * ed];
                for (acc, &x) in sum.iter_mut().zip(row) {
                    *acc += x;
                }
            }
            for c in 0..k {
                // An empty cluster keeps its previous centroid (it can win
                // rows again next iteration); a populated one moves to the
                // sample mean.
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f32;
                    for (dst, &s) in index.centroids[c * ed..(c + 1) * ed]
                        .iter_mut()
                        .zip(&sums[c * ed..(c + 1) * ed])
                    {
                        *dst = s * inv;
                    }
                }
            }
            index.refresh_cnorms();
        }

        // Final pass: assign every live row.
        for r in 0..rows {
            let c = index.nearest_into(m_in.row(r), &mut scores);
            index.posting[c as usize].push_back(r as u64);
            index.assign.push_back(c);
        }
        index
    }

    fn refresh_cnorms(&mut self) {
        for c in 0..self.k {
            let sq: f32 = self.centroids[c * self.ed..(c + 1) * self.ed]
                .iter()
                .map(|&x| x * x)
                .sum();
            self.cnorm_half[c] = 0.5 * sq;
        }
    }

    /// Nearest centroid under L2 (`argmin ‖x − c‖² = argmax x·c − ‖c‖²/2`),
    /// scoring all centroids through the SIMD kernel. Ties go to the lower
    /// cluster id.
    fn nearest_into(&self, row: &[f32], scores: &mut [f32]) -> u32 {
        centroid_scores(&self.centroids, self.k, row, scores);
        let mut best = 0usize;
        let mut best_score = f32::NEG_INFINITY;
        for (c, (&raw, &half)) in scores.iter().zip(&self.cnorm_half).enumerate() {
            let s = raw - half;
            if s > best_score {
                best_score = s;
                best = c;
            }
        }
        best as u32
    }

    /// Assigns a freshly pushed row (the new live row `len()−1` of the
    /// store) to its nearest centroid and stamps the index with the store
    /// version after the push. `O(k·ed)`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != ed` (and the index has clusters).
    pub fn push(&mut self, row: &[f32], version: u64) {
        assert_eq!(row.len(), self.ed, "push: row width mismatch");
        let mut scores = std::mem::take(&mut self.score_buf);
        let c = self.nearest_into(row, &mut scores);
        self.score_buf = scores;
        let id = self.base + self.assign.len() as u64;
        self.posting[c as usize].push_back(id);
        self.assign.push_back(c);
        self.synced_at = version;
    }

    /// Removes the `n` oldest live rows (the store's front eviction) and
    /// stamps the index with the post-eviction store version. `O(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn evict_front(&mut self, n: usize, version: u64) {
        assert!(
            n <= self.assign.len(),
            "evict {} of {} rows",
            n,
            self.assign.len()
        );
        for _ in 0..n {
            let c = self.assign.pop_front().expect("checked length") as usize;
            // The global-oldest id belongs to cluster `c`, and ids are
            // ascending within each list, so it must be that list's front.
            let popped = self.posting[c].pop_front();
            debug_assert_eq!(popped, Some(self.base), "posting front out of order");
            self.base += 1;
        }
        self.synced_at = version;
    }

    /// Live rows the index covers.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// Whether the index covers no rows.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Cluster count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Embedding width the index was built for.
    pub fn ed(&self) -> usize {
        self.ed
    }

    /// The store version this index last mirrored.
    pub fn synced_at(&self) -> u64 {
        self.synced_at
    }

    /// Whether the index mirrors store `version` (the staleness gate —
    /// same contract as the quant mirror's `synced_at`).
    pub fn is_synced(&self, version: u64) -> bool {
        self.synced_at == version
    }

    /// Live rows at the last (re)build.
    pub fn trained_rows(&self) -> usize {
        self.trained_rows
    }

    /// Whether the memory has grown or shrunk past the centroids' training
    /// regime (more than doubled or halved since the last build). A drifted
    /// index is still *coherent* — posting lists mirror the store exactly —
    /// but its clusters no longer reflect the data, so the serving layer
    /// rebuilds before trusting a probe.
    pub fn is_drifted(&self) -> bool {
        let live = self.assign.len();
        let trained = self.trained_rows.max(1);
        live > trained * 2 || live * 2 < trained
    }

    /// The cluster currently holding live row `row` (test/diagnostic
    /// surface).
    ///
    /// # Panics
    ///
    /// Panics if `row >= len()`.
    pub fn cluster_of(&self, row: usize) -> u32 {
        self.assign[row]
    }

    /// Scores every centroid against `u`, ranks clusters by score, and
    /// gathers candidates from the best ones: at least `nprobe` clusters,
    /// continuing down the ranking until `min(topk, len)` candidates are in
    /// hand (so a confident probe always has `topk` rows to rescore).
    ///
    /// Both `topk` and `nprobe` are clamped to sane ranges rather than
    /// rejected — the serving layer validates user input; the index just
    /// answers.
    pub fn probe(&self, u: &[f32], topk: usize, nprobe: usize, chunk_size: usize) -> ProbeResult {
        let len = self.assign.len();
        let chunk = chunk_size.max(1);
        if len == 0 {
            return ProbeResult {
                candidates: Vec::new(),
                covered: SegmentMap::from_segments(Vec::new(), chunk),
                probes: 0,
                margin: f32::INFINITY,
                low_margin: false,
            };
        }
        let target = topk.max(1).min(len);
        let mut scores = vec![0.0f32; self.k];
        centroid_scores(&self.centroids, self.k, u, &mut scores);
        let order = top_k_select(&scores, self.k);

        let mut candidates: Vec<u32> = Vec::with_capacity(target * 2);
        let mut probes = 0usize;
        for &c in &order {
            if probes >= nprobe.max(1) && candidates.len() >= target {
                break;
            }
            for &id in &self.posting[c] {
                candidates.push((id - self.base) as u32);
            }
            probes += 1;
        }
        candidates.sort_unstable();

        // Confidence margin: the gap between the weakest probed cluster and
        // the strongest unprobed one. All-probed means there was no cut to
        // get wrong.
        let (margin, low_margin) = if probes < order.len() {
            let margin = scores[order[probes - 1]] - scores[order[probes]];
            let scale = scores
                .iter()
                .fold(0.0f32, |m, &s| if s.abs() > m { s.abs() } else { m });
            // NaN margins (poisoned scores) count as low-confidence too.
            let confident = matches!(
                margin.partial_cmp(&(scale * PROBE_MARGIN_RTOL)),
                Some(std::cmp::Ordering::Greater)
            );
            (margin, !confident)
        } else {
            (f32::INFINITY, false)
        };

        // Chunk covering: one segment per maximal run of chunks containing
        // a candidate. Norm bounds are +∞ — a top-K plan never prunes (the
        // probe already chose the rows).
        let n_chunks = len.div_ceil(chunk);
        let mut marked = vec![false; n_chunks];
        for &r in &candidates {
            marked[r as usize / chunk] = true;
        }
        let mut segments = Vec::new();
        let mut run_start: Option<usize> = None;
        for (c, hit) in marked
            .iter()
            .copied()
            .chain(std::iter::once(false))
            .enumerate()
        {
            match (run_start, hit) {
                (None, true) => run_start = Some(c),
                (Some(s), false) => {
                    let start = s * chunk;
                    let end = (c * chunk).min(len);
                    segments.push(Segment {
                        start,
                        rows: end - start,
                        max_in_norm: f32::INFINITY,
                    });
                    run_start = None;
                }
                _ => {}
            }
        }
        ProbeResult {
            candidates,
            covered: SegmentMap::from_segments(segments, chunk),
            probes,
            margin,
            low_margin,
        }
    }

    /// Exhaustive coherence check (test/proptest surface): every live row
    /// appears in exactly the posting list its assignment names, lists are
    /// strictly ascending, and the id universe is exactly
    /// `base..base+len()`. Returns a human-readable violation, if any.
    pub fn check_coherence(&self) -> Result<(), String> {
        let len = self.assign.len();
        let mut seen = vec![false; len];
        for (c, list) in self.posting.iter().enumerate() {
            let mut prev: Option<u64> = None;
            for &id in list {
                if let Some(p) = prev {
                    if id <= p {
                        return Err(format!("cluster {c}: ids not ascending ({p} then {id})"));
                    }
                }
                prev = Some(id);
                if id < self.base {
                    return Err(format!("cluster {c}: id {id} below base {}", self.base));
                }
                let live = (id - self.base) as usize;
                if live >= len {
                    return Err(format!("cluster {c}: id {id} beyond live rows"));
                }
                if seen[live] {
                    return Err(format!("row {live} in two posting lists"));
                }
                seen[live] = true;
                if self.assign[live] as usize != c {
                    return Err(format!(
                        "row {live} posted in cluster {c} but assigned {}",
                        self.assign[live]
                    ));
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("row {missing} missing from every posting list"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_memory(rows: usize, ed: usize) -> Matrix {
        // Four well-separated lobes so k-means has real structure to find.
        Matrix::from_fn(rows, ed, |r, c| {
            let lobe = (r * 4 / rows.max(1)) as f32;
            lobe * 2.0 + ((r * 13 + c * 7) as f32 * 0.17).sin() * 0.1
        })
    }

    #[test]
    fn build_covers_every_row_exactly_once() {
        for rows in [1usize, 2, 17, 100, 257] {
            let m = clustered_memory(rows, 8);
            let index = ClusterIndex::build(&m, rows, 42);
            assert_eq!(index.len(), rows);
            assert_eq!(index.k(), ClusterIndex::default_k(rows));
            assert!(index.is_synced(42));
            assert!(!index.is_drifted());
            index.check_coherence().unwrap();
        }
    }

    #[test]
    fn empty_build_probes_to_nothing() {
        let m = Matrix::zeros(0, 8);
        let index = ClusterIndex::build(&m, 0, 7);
        assert!(index.is_empty());
        let probe = index.probe(&[0.5; 8], 4, 2, 16);
        assert!(probe.candidates.is_empty());
        assert_eq!(probe.covered.rows(), 0);
        assert!(!probe.low_margin);
    }

    #[test]
    fn push_assigns_incrementally_and_stays_coherent() {
        let m = clustered_memory(60, 8);
        let mut index = ClusterIndex::build(&m, 40, 1);
        for r in 40..60 {
            index.push(m.row(r), (r + 10) as u64);
            index.check_coherence().unwrap();
        }
        assert_eq!(index.len(), 60);
        assert!(index.is_synced(69));
        // Incremental assignment must match what nearest-centroid says.
        let mut scores = vec![0.0f32; index.k()];
        for r in 40..60 {
            assert_eq!(
                index.cluster_of(r),
                index.nearest_into(m.row(r), &mut scores)
            );
        }
    }

    #[test]
    fn evict_front_pops_oldest_rows() {
        let m = clustered_memory(50, 4);
        let mut index = ClusterIndex::build(&m, 50, 1);
        let tail: Vec<u32> = (5..50).map(|r| index.cluster_of(r)).collect();
        index.evict_front(5, 2);
        assert_eq!(index.len(), 45);
        assert!(index.is_synced(2));
        index.check_coherence().unwrap();
        // Surviving rows keep their clusters, renumbered down by 5.
        for (i, &c) in tail.iter().enumerate() {
            assert_eq!(index.cluster_of(i), c);
        }
    }

    #[test]
    fn drift_trips_after_doubling_or_halving() {
        let m = clustered_memory(200, 4);
        let mut index = ClusterIndex::build(&m, 80, 1);
        assert!(!index.is_drifted());
        for r in 80..161 {
            index.push(m.row(r), r as u64);
        }
        assert!(index.is_drifted(), "161 live > 2 * 80 trained");

        let mut index = ClusterIndex::build(&m, 80, 1);
        index.evict_front(41, 2);
        assert!(index.is_drifted(), "39 live * 2 < 80 trained");
    }

    #[test]
    fn probe_finds_the_hot_lobe() {
        let rows = 256;
        let ed = 8;
        let m = clustered_memory(rows, ed);
        let index = ClusterIndex::build(&m, rows, 1);
        // A query aligned with the hottest lobe (the last quarter of rows).
        let u: Vec<f32> = m.row(rows - 10).to_vec();
        let probe = index.probe(&u, 16, 4, 32);
        assert!(probe.probes >= 4);
        assert!(probe.candidates.len() >= 16);
        assert!(!probe.low_margin, "separated lobes give a clear margin");
        // The exact argmax row must be covered (recall@1 on easy geometry).
        let mut best = 0usize;
        let mut best_score = f32::NEG_INFINITY;
        for r in 0..rows {
            let s: f32 = m.row(r).iter().zip(&u).map(|(a, b)| a * b).sum();
            if s > best_score {
                best_score = s;
                best = r;
            }
        }
        assert!(
            probe.candidates.contains(&(best as u32)),
            "argmax row {best} missing from candidates"
        );
        // Covering invariant: every candidate's chunk run is in the map.
        let covered: Vec<(usize, usize)> = probe
            .covered
            .segments()
            .iter()
            .map(|s| (s.start, s.start + s.rows))
            .collect();
        for &r in &probe.candidates {
            assert!(
                covered
                    .iter()
                    .any(|&(a, b)| (r as usize) >= a && (r as usize) < b),
                "candidate {r} not covered"
            );
        }
    }

    #[test]
    fn duplicate_rows_give_a_low_margin_probe() {
        // Every row identical: centroids collapse, scores tie exactly, and
        // any cluster cut is arbitrary — the probe must say so.
        let m = Matrix::from_fn(64, 4, |_, c| (c as f32 + 1.0) * 0.25);
        let index = ClusterIndex::build(&m, 64, 1);
        let probe = index.probe(&[0.3, 0.1, 0.2, 0.4], 4, 1, 16);
        if probe.probes < index.k() {
            assert!(probe.low_margin, "exact score ties must read as low margin");
        }
    }

    #[test]
    fn probe_continues_past_nprobe_until_topk_candidates() {
        let m = clustered_memory(100, 4);
        let index = ClusterIndex::build(&m, 100, 1);
        // nprobe=1 but topk=90: the probe must keep opening clusters.
        let probe = index.probe(&[1.0, 0.5, -0.5, 0.25], 90, 1, 16);
        assert!(probe.candidates.len() >= 90);
        assert!(probe.probes > 1);
    }
}
