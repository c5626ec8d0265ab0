//! Growable, segment-aware storage for the embedded memories.
//!
//! [`SegmentedStore`] keeps the capacity-doubled `M_IN`/`M_OUT` row store
//! and, alongside it, the *zone-map* metadata the segmented execution plane
//! needs: a per-row upper bound on the `M_IN` embedding norm, maintained
//! incrementally on every push/evict/clear. From those norms the store can
//! stamp out a routed [`SegmentMap`] (chunk-aligned segments, each carrying
//! the max norm of its rows — and therefore, by Cauchy–Schwarz, the max
//! possible logit against any query) without rescanning the matrix. A
//! monotone version counter lets sessions cache the map and rebuild it only
//! when the store has actually changed.
//!
//! # Sliding window: O(ed) writes
//!
//! The paper's serving scenario keeps receiving sentences while questions
//! are answered, so a write must not cost O(memory). The store is a
//! *window over contiguous planes*: logical row `i` lives at physical row
//! `head + i` of `M_IN`, `M_OUT` and the norm vector, and eviction only
//! advances `head` ([`Matrix::drop_front_rows`]) — nothing moves. Because
//! the live rows stay one flat slice starting at logical row 0, a logical
//! chunk is still one `rows_slice` and the **chunk phase never moves**:
//! every engine, segment map and index sees exactly the rows, ids and
//! chunk boundaries a freshly built store holding the same rows would, so
//! answers are bit for bit the same.
//!
//! The planes compact (one memmove of the live rows back to physical row
//! 0, [`Matrix::reclaim_front`]) only in [`SegmentedStore::push`], when
//! the tail reaches the allocation:
//!
//! * A **bounded** store allocates `max_rows + slack` rows with `slack =
//!   max(max_rows / 32, 1)` — derived, not a setting. A full window
//!   therefore compacts once per `slack + 1` pushes: `2 * ed * 4 * 32`
//!   bytes of memmove per push amortised (~16 KiB at `ed = 64`) and none on
//!   the median push. The price is the slack's resident memory, ~3 % of
//!   the f32 planes.
//! * An **unbounded** store evicted by hand compacts instead of growing
//!   when the dead prefix is at least 1/16 of the allocation (amortised
//!   O(16 · ed) per push), and otherwise doubles as before — which also
//!   lands the live rows at physical row 0.
//!
//! The int8 mirror compacts itself on the same amortised terms (see
//! [`QuantMatrix`]); the [`ClusterIndex`] was already O(1) per evicted row.

use crate::index::ClusterIndex;
use crate::segment::row_norm_upper;
use crate::{MemView, Precision, SegmentMap};
use mnn_tensor::{Matrix, QuantMatrix};

/// The int8 mirror of the populated prefix: per-row symmetric codes and
/// scales for both memories, plus the store version it was synchronized
/// at. The mirror is only served while `synced_at` matches the store's
/// version counter — a mirror that missed a mutation is *stale* and must
/// never reach an engine.
#[derive(Debug, Clone)]
struct QuantMirror {
    m_in_q: QuantMatrix,
    m_out_q: QuantMatrix,
    synced_at: u64,
}

/// Capacity-doubled row store for `M_IN`/`M_OUT` with per-row zone-map
/// norms.
///
/// Rows append *and evict* in O(ed) amortized (see the module docs for
/// the window contract); the engines attend over the populated prefix via
/// [`SegmentedStore::view`] (a prefix or a routed segment plan), so no
/// per-question copy is ever made. A bounded store evicts its oldest rows
/// (sliding-window memory) when full.
#[derive(Debug, Clone)]
pub struct SegmentedStore {
    /// Windows whose row 0 is the oldest live row; rows `len..` are
    /// unwritten tail.
    m_in: Matrix,
    m_out: Matrix,
    len: usize,
    max_rows: Option<usize>,
    /// Per-row upper bound on the `M_IN` row norm, maintained on
    /// push/evict/clear, one entry per *physical* row up to the tail: the
    /// last `len` entries are parallel to rows `0..len`, the ones before
    /// them belong to the evicted prefix (see [`Self::head`]).
    norms: Vec<f32>,
    /// Bumped on every mutation; cached [`SegmentMap`]s key on it.
    version: u64,
    /// Optional int8 mirror for [`Precision::Int8`] serving, maintained
    /// incrementally on push/evict/clear once enabled.
    ///
    /// [`Precision::Int8`]: crate::Precision::Int8
    quant: Option<QuantMirror>,
    /// Optional clustered top-K candidate index for sparse attention,
    /// maintained incrementally on push/evict once enabled (a `clear`
    /// drops it — retrained on demand). Version-stamped exactly like the
    /// quant mirror: a stale index is never served.
    index: Option<ClusterIndex>,
}

impl SegmentedStore {
    /// Creates an empty store for `ed`-dimensional rows. `max_rows` bounds
    /// the memory (oldest rows are evicted past the bound); `None` grows
    /// without limit.
    ///
    /// # Panics
    ///
    /// Panics if `ed == 0` or `max_rows == Some(0)`.
    pub fn new(ed: usize, max_rows: Option<usize>) -> Self {
        assert!(ed > 0, "embedding dimension must be positive");
        assert!(max_rows != Some(0), "max_rows must be positive");
        let initial = grown_capacity(0, max_rows);
        Self {
            m_in: Matrix::zeros(initial, ed),
            m_out: Matrix::zeros(initial, ed),
            len: 0,
            max_rows,
            norms: Vec::new(),
            version: 0,
            quant: None,
            index: None,
        }
    }

    /// Number of populated rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Embedding dimension.
    pub fn embedding_dim(&self) -> usize {
        self.m_in.cols()
    }

    /// Allocated rows, evicted-but-not-yet-compacted prefix and (for a
    /// bounded store) slack included: at most `max_rows + max(max_rows /
    /// 32, 1)`.
    pub fn capacity(&self) -> usize {
        self.head() + self.m_in.rows()
    }

    /// Rows evicted since the planes last compacted: the physical row of
    /// logical row 0, in the matrices' allocations and in `norms`.
    fn head(&self) -> usize {
        self.norms.len() - self.len
    }

    /// The input memory (attend over rows `0..len()` only).
    pub fn m_in(&self) -> &Matrix {
        &self.m_in
    }

    /// The output memory (attend over rows `0..len()` only).
    pub fn m_out(&self) -> &Matrix {
        &self.m_out
    }

    /// Per-row `M_IN` norm upper bounds, parallel to rows `0..len()`.
    pub fn norms(&self) -> &[f32] {
        &self.norms[self.head()..]
    }

    /// Monotone mutation counter: two equal versions guarantee the store
    /// (and therefore any [`SegmentMap`] built from it) is unchanged.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the int8 mirror exists and reflects the current version.
    pub fn quant_is_synced(&self) -> bool {
        self.quant
            .as_ref()
            .is_some_and(|q| q.synced_at == self.version)
    }

    /// (Re)builds the int8 mirror of the populated prefix and marks it
    /// synchronized. A no-op when the mirror is already current. After
    /// this call every `push`/`evict_front`/`clear` keeps the mirror in
    /// lockstep (re-quantizing appended rows), so the mirror only goes
    /// stale if the store is mutated through a path that bypasses those
    /// methods — which [`Self::quant`]'s version check still catches.
    pub fn enable_quant(&mut self) {
        if self.quant_is_synced() {
            return;
        }
        let ed = self.embedding_dim();
        let mut m_in_q = QuantMatrix::with_capacity(self.len, ed);
        let mut m_out_q = QuantMatrix::with_capacity(self.len, ed);
        for r in 0..self.len {
            m_in_q.push_row(self.m_in.row(r));
            m_out_q.push_row(self.m_out.row(r));
        }
        self.quant = Some(QuantMirror {
            m_in_q,
            m_out_q,
            synced_at: self.version,
        });
    }

    /// Drops the int8 mirror (e.g. when a session switches back to f32
    /// serving), releasing its memory.
    pub fn disable_quant(&mut self) {
        self.quant = None;
    }

    /// The int8 mirror of `(M_IN, M_OUT)`, or `None` if it was never
    /// enabled *or* is stale (the store mutated since the last sync).
    /// Callers that get `None` must either fall back to the f32 plane or
    /// call [`Self::enable_quant`] to rebuild.
    pub fn quant(&self) -> Option<(&QuantMatrix, &QuantMatrix)> {
        self.quant
            .as_ref()
            .filter(|q| q.synced_at == self.version)
            .map(|q| (&q.m_in_q, &q.m_out_q))
    }

    /// The populated memories as the engines read them on `precision`'s
    /// plane (attend over rows `0..len()` only).
    ///
    /// # Panics
    ///
    /// Panics on [`Precision::Int8`] when the int8 mirror is missing or
    /// stale — call [`Self::enable_quant`] first (a no-op when current).
    pub fn view(&self, precision: Precision) -> MemView<'_> {
        match precision {
            Precision::F32 => MemView::F32 {
                m_in: &self.m_in,
                m_out: &self.m_out,
            },
            Precision::Int8 => {
                let (m_in, m_out) = self.quant().expect("int8 mirror not synced");
                MemView::Int8 { m_in, m_out }
            }
        }
    }

    /// Bytes resident in the int8 mirror (codes + scales, both memories);
    /// 0 when the mirror is disabled.
    pub fn quant_resident_bytes(&self) -> u64 {
        self.quant.as_ref().map_or(0, |q| {
            q.m_in_q.resident_bytes() + q.m_out_q.resident_bytes()
        })
    }

    /// Whether the top-K candidate index exists and reflects the current
    /// store version.
    pub fn index_is_synced(&self) -> bool {
        self.index
            .as_ref()
            .is_some_and(|ix| ix.is_synced(self.version))
    }

    /// Ensures the top-K candidate index exists, is synchronized, and its
    /// centroids still fit the data: an O(1) no-op when the index is
    /// current, a full [`ClusterIndex::build`] when it is missing, stale
    /// (a mutation bypassed the incremental maintenance), or *drifted*
    /// (the memory more than doubled or halved since its centroids were
    /// trained — still coherent, but no longer clustering the data it
    /// sees). After this call every `push`/`evict_front` keeps the index
    /// in lockstep; `clear` drops it entirely (nothing left to cluster).
    pub fn enable_index(&mut self) {
        let current = self
            .index
            .as_ref()
            .is_some_and(|ix| ix.is_synced(self.version) && !ix.is_drifted());
        if current {
            return;
        }
        self.index = Some(ClusterIndex::build(&self.m_in, self.len, self.version));
    }

    /// Drops the top-K candidate index (e.g. when a session leaves sparse
    /// serving), releasing its memory.
    pub fn disable_index(&mut self) {
        self.index = None;
    }

    /// The top-K candidate index, or `None` if it was never enabled *or*
    /// is stale (the store mutated since the last sync). Callers that get
    /// `None` must either serve exact attention or call
    /// [`Self::enable_index`] to rebuild.
    pub fn index(&self) -> Option<&ClusterIndex> {
        self.index.as_ref().filter(|ix| ix.is_synced(self.version))
    }

    /// Builds a routed [`SegmentMap`] over the populated prefix from the
    /// incrementally maintained norms: `n_segments` chunk-aligned segments
    /// (clamped to the chunk count), each stamped with the max row-norm
    /// bound of its rows.
    ///
    /// `chunk_size` must be the executing engine's chunk size so segment
    /// boundaries land on chunk boundaries and the sequential fold order —
    /// and therefore the bitwise answer — is preserved.
    pub fn segment_map(&self, n_segments: usize, chunk_size: usize) -> SegmentMap {
        SegmentMap::from_norms(self.norms(), n_segments, chunk_size)
    }

    /// Appends one embedded sentence (its `A`-side and `C`-side vectors),
    /// evicting the oldest row first if the store is at its bound.
    ///
    /// Returns the number of rows evicted (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if the row lengths differ from the embedding dimension.
    pub fn push(&mut self, in_row: &[f32], out_row: &[f32]) -> usize {
        let ed = self.embedding_dim();
        assert_eq!(in_row.len(), ed, "push: bad in_row length");
        assert_eq!(out_row.len(), ed, "push: bad out_row length");

        let mut evicted = 0;
        if let Some(max) = self.max_rows {
            if self.len == max {
                self.evict_front(1);
                evicted = 1;
            }
        }
        if self.len == self.m_in.rows() {
            self.make_room();
        }
        self.m_in.row_mut(self.len).copy_from_slice(in_row);
        self.m_out.row_mut(self.len).copy_from_slice(out_row);
        let synced = self.quant_is_synced();
        let index_synced = self.index_is_synced();
        self.norms.push(row_norm_upper(in_row));
        self.len += 1;
        self.version += 1;
        if synced {
            let q = self.quant.as_mut().expect("synced implies present");
            q.m_in_q.push_row(in_row);
            q.m_out_q.push_row(out_row);
            q.synced_at = self.version;
        }
        if index_synced {
            let ix = self.index.as_mut().expect("synced implies present");
            ix.push(in_row, self.version);
        }
        evicted
    }

    /// Drops the `n` oldest rows (sliding-window forgetting) by advancing
    /// the window: O(1) on the f32 planes and norms, whatever the memory
    /// size. Row `n` becomes row 0.
    pub fn evict_front(&mut self, n: usize) {
        let n = n.min(self.len);
        if n == 0 {
            return;
        }
        let synced = self.quant_is_synced();
        let index_synced = self.index_is_synced();
        self.m_in.drop_front_rows(n);
        self.m_out.drop_front_rows(n);
        self.len -= n;
        self.version += 1;
        if synced {
            let q = self.quant.as_mut().expect("synced implies present");
            q.m_in_q.evict_front(n);
            q.m_out_q.evict_front(n);
            q.synced_at = self.version;
        }
        if index_synced {
            let ix = self.index.as_mut().expect("synced implies present");
            ix.evict_front(n, self.version);
        }
    }

    /// Removes all rows (capacity is kept) and rewinds the window, so the
    /// next pushes reuse the whole allocation. Drops the top-K candidate
    /// index: with nothing left to cluster, retraining on demand beats
    /// maintaining empty posting lists.
    pub fn clear(&mut self) {
        let synced = self.quant_is_synced();
        self.m_in.reclaim_front(0);
        self.m_out.reclaim_front(0);
        self.norms.clear();
        self.len = 0;
        self.version += 1;
        if synced {
            let q = self.quant.as_mut().expect("synced implies present");
            q.m_in_q.clear();
            q.m_out_q.clear();
            q.synced_at = self.version;
        }
        self.index = None;
    }

    /// Makes room past a tail that has reached the allocation: compacts
    /// (one memmove of the live rows back to physical row 0) when the
    /// allocation is already a bounded store's ceiling or the dead prefix
    /// is at least 1/16 of it, reallocates on the growth schedule
    /// otherwise. Either way the window ends up rewound.
    fn make_room(&mut self) {
        let ed = self.embedding_dim();
        let (head, capacity) = (self.head(), self.capacity());
        let grown = grown_capacity(capacity, self.max_rows);
        let compact = grown == capacity || head * 16 >= capacity;
        for matrix in [&mut self.m_in, &mut self.m_out] {
            if compact {
                matrix.reclaim_front(self.len);
            } else {
                let mut bigger = Matrix::zeros(grown, ed);
                bigger.as_mut_slice()[..self.len * ed]
                    .copy_from_slice(matrix.rows_slice(0, self.len));
                *matrix = bigger;
            }
        }
        self.norms.drain(..head);
    }
}

/// The growth schedule: double (from at least 16 rows), except that a
/// bounded store jumps straight to its ceiling `max_rows + slack`, `slack =
/// max(max_rows / 32, 1)`, as soon as doubling would reach `max_rows` — one
/// final reallocation, never a transient larger than the ceiling. Returns
/// `capacity` itself at the ceiling.
fn grown_capacity(capacity: usize, max_rows: Option<usize>) -> usize {
    let doubled = (capacity * 2).max(16);
    match max_rows {
        Some(max) if doubled >= max => max + (max / 32).max(1),
        _ => doubled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(ed: usize, v: f32) -> Vec<f32> {
        vec![v; ed]
    }

    #[test]
    fn append_grows_capacity_geometrically() {
        let mut store = SegmentedStore::new(4, None);
        let c0 = store.capacity();
        for i in 0..100 {
            store.push(&row(4, i as f32), &row(4, -(i as f32)));
        }
        assert_eq!(store.len(), 100);
        assert!(store.capacity() >= 100);
        assert!(store.capacity() <= 8 * c0.max(16));
        // Data integrity across growth.
        assert_eq!(store.m_in().row(37), &[37.0; 4]);
        assert_eq!(store.m_out().row(99), &[-99.0; 4]);
    }

    #[test]
    fn bounded_store_evicts_oldest() {
        let mut store = SegmentedStore::new(2, Some(3));
        for i in 0..5 {
            let evicted = store.push(&row(2, i as f32), &row(2, i as f32));
            assert_eq!(evicted, usize::from(i >= 3));
        }
        assert_eq!(store.len(), 3);
        assert!(store.capacity() <= 3 + 1, "max_rows + slack");
        // Rows 2, 3, 4 survive in order.
        assert_eq!(store.m_in().row(0), &[2.0; 2]);
        assert_eq!(store.m_in().row(2), &[4.0; 2]);
    }

    #[test]
    fn evict_front_shifts_rows() {
        let mut store = SegmentedStore::new(2, None);
        for i in 0..4 {
            store.push(&row(2, i as f32), &row(2, 10.0 + i as f32));
        }
        store.evict_front(2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.m_in().row(0), &[2.0; 2]);
        assert_eq!(store.m_out().row(1), &[13.0; 2]);
        // Evicting more than len clamps.
        store.evict_front(10);
        assert!(store.is_empty());
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut store = SegmentedStore::new(2, None);
        for i in 0..20 {
            store.push(&row(2, i as f32), &row(2, 0.0));
        }
        let cap = store.capacity();
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.capacity(), cap);
    }

    #[test]
    fn evict_to_empty_then_reuse() {
        let mut store = SegmentedStore::new(3, None);
        for i in 0..5 {
            store.push(&row(3, i as f32), &row(3, -(i as f32)));
        }
        store.evict_front(5);
        assert!(store.is_empty());
        // Evicting an already-empty store is a no-op, not a panic.
        store.evict_front(1);
        assert!(store.is_empty());
        // The emptied store accepts fresh rows at index 0.
        store.push(&row(3, 7.0), &row(3, -7.0));
        assert_eq!(store.len(), 1);
        assert_eq!(store.m_in().row(0), &[7.0; 3]);
        assert_eq!(store.m_out().row(0), &[-7.0; 3]);
    }

    #[test]
    fn capacity_redoubles_after_eviction() {
        let mut store = SegmentedStore::new(2, None);
        for i in 0..40 {
            store.push(&row(2, i as f32), &row(2, i as f32));
        }
        let cap = store.capacity();
        assert!(cap >= 40);
        // Eviction shrinks the populated prefix but keeps the allocation.
        store.evict_front(35);
        assert_eq!(store.len(), 5);
        assert_eq!(store.capacity(), cap);
        assert_eq!(store.m_in().row(0), &[35.0; 2]);
        // Refilling past the old capacity doubles again without losing the
        // surviving rows.
        for i in 0..2 * cap {
            store.push(&row(2, 100.0 + i as f32), &row(2, 0.0));
        }
        assert!(store.capacity() > cap);
        assert_eq!(store.len(), 5 + 2 * cap);
        assert_eq!(store.m_in().row(0), &[35.0; 2]);
        assert_eq!(store.m_in().row(5), &[100.0; 2]);
    }

    #[test]
    fn bounded_store_interleaves_eviction_and_growth() {
        // Bound larger than the initial capacity: growth and eviction
        // interact (grow to the bound, then slide).
        let mut store = SegmentedStore::new(2, Some(20));
        for i in 0..50 {
            store.push(&row(2, i as f32), &row(2, i as f32));
        }
        assert_eq!(store.len(), 20);
        assert!(store.capacity() <= 20 + 1, "max_rows + slack");
        // The window holds exactly the last 20 rows, in order.
        for r in 0..20 {
            assert_eq!(store.m_in().row(r), &[(30 + r) as f32; 2]);
        }
    }

    /// A bounded store of `w` rows of width `ed`, slid `extra` rows past
    /// full, with mirror and index on; row `i` ever pushed is `[i; ed]`.
    fn slid_window(ed: usize, w: usize, extra: usize) -> SegmentedStore {
        let mut store = SegmentedStore::new(ed, Some(w));
        store.enable_quant();
        for i in 0..w + extra {
            store.push(&row(ed, i as f32), &row(ed, -(i as f32)));
        }
        store
    }

    #[test]
    fn a_full_window_slides_by_pointer_and_compacts_once_per_slack() {
        // No clock: a regression to per-push shifting pins row 0's address
        // and fails here deterministically.
        let (ed, w) = (3, 256);
        let slack = w / 32;
        let mut store = slid_window(ed, w, 0);
        let capacity = store.capacity();
        assert_eq!(capacity, w + slack);
        let base = store.m_in().row(0).as_ptr();
        let mut compactions = 0;
        for i in 0..4 * slack + 3 {
            let before = store.m_in().row(0).as_ptr();
            store.push(&row(ed, (w + i) as f32), &row(ed, 0.0));
            let after = store.m_in().row(0).as_ptr();
            if after != before.wrapping_add(ed) {
                assert_eq!(after, base, "anything but one row forward is a compaction");
                compactions += 1;
            }
            assert_eq!(store.capacity(), capacity);
            assert_eq!(store.len(), w);
            assert_eq!(store.m_in().row(0), &[(i + 1) as f32; 3]);
            assert_eq!(store.m_in().row(w - 1), &[(w + i) as f32; 3]);
            assert_eq!(store.norms().len(), w);
        }
        assert!((1..=5).contains(&compactions), "{compactions} compactions");
    }

    #[test]
    fn accounting_and_equality_see_live_rows_only() {
        let (ed, w) = (8, 100);
        let a = slid_window(ed, w, 1); // head 1
        let mut b = slid_window(ed, w + 1, 0);
        b.evict_front(1); // same rows, different allocation and head
        for s in [&a, &b] {
            assert_eq!(s.len(), w);
            assert_eq!(s.quant_resident_bytes(), (2 * w * (ed + 4)) as u64);
        }
        assert_eq!(a.quant().unwrap(), b.quant().unwrap());
        assert_eq!(a.m_in().rows_slice(0, w), b.m_in().rows_slice(0, w));
        assert_eq!(a.m_out().rows_slice(0, w), b.m_out().rows_slice(0, w));
        assert_eq!(a.norms(), b.norms());
        assert_eq!(a.segment_map(3, 16), b.segment_map(3, 16));
    }

    #[test]
    fn a_clone_taken_mid_window_continues_identically() {
        let (ed, w) = (4, 64);
        let mut store = slid_window(ed, w, 1);
        store.enable_index();
        let mut twin = store.clone();
        for i in 0..3 * w {
            for s in [&mut store, &mut twin] {
                s.push(&row(ed, 1000.0 + i as f32), &row(ed, 0.5));
            }
            assert_eq!(store.m_in().rows_slice(0, w), twin.m_in().rows_slice(0, w));
            assert_eq!(store.norms(), twin.norms());
            assert_eq!(store.quant().unwrap(), twin.quant().unwrap());
            twin.index().unwrap().check_coherence().unwrap();
        }
    }

    #[test]
    fn clear_rewinds_the_window_onto_the_whole_allocation() {
        let (ed, w) = (2, 40);
        let mut store = slid_window(ed, w, 0);
        let base = store.m_in().row(0).as_ptr();
        store.push(&row(ed, 1.0), &row(ed, 1.0));
        assert_ne!(store.m_in().row(0).as_ptr(), base, "mid-window");
        let capacity = store.capacity();
        store.clear();
        assert_eq!(store.capacity(), capacity);
        // A window's worth of pushes fits without moving or reallocating.
        for i in 0..w {
            store.push(&row(ed, i as f32), &row(ed, 0.0));
            assert_eq!(store.m_in().row(0).as_ptr(), base);
        }
        assert_eq!((store.len(), store.capacity()), (w, capacity));
        assert_eq!(store.m_in().row(w - 1), &[(w - 1) as f32; 2]);
    }

    #[test]
    fn hand_evicted_unbounded_store_compacts_rather_than_leaking() {
        // One push, one evict, forever: the tail keeps reaching the
        // allocation with a dead prefix far above 1/16 of it.
        let mut store = SegmentedStore::new(2, None);
        let capacity = store.capacity();
        for i in 0..50 * capacity {
            store.push(&row(2, i as f32), &row(2, 0.0));
            if store.len() > 3 {
                store.evict_front(1);
            }
        }
        assert_eq!(store.capacity(), capacity);
        assert_eq!(store.m_in().row(2), &[(50 * capacity - 1) as f32; 2]);
        assert_eq!(store.norms().len(), 3);
    }

    #[test]
    fn norms_track_rows_through_push_evict_clear() {
        let mut store = SegmentedStore::new(2, None);
        for i in 0..6 {
            store.push(&row(2, i as f32), &row(2, 0.0));
        }
        assert_eq!(store.norms().len(), 6);
        // Each norm bound dominates the true row norm.
        for (r, &nb) in store.norms().iter().enumerate() {
            let true_norm = (2.0 * (r as f32).powi(2)).sqrt();
            assert!(nb >= true_norm, "row {r}: {nb} < {true_norm}");
        }
        // Eviction drops the leading norms in lockstep with the rows.
        store.evict_front(2);
        assert_eq!(store.norms().len(), 4);
        let expect = (2.0 * 4.0f32).sqrt();
        assert!(store.norms()[0] >= expect && store.norms()[0] <= expect * 1.01);
        store.clear();
        assert!(store.norms().is_empty());
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let mut store = SegmentedStore::new(2, None);
        let v0 = store.version();
        store.push(&row(2, 1.0), &row(2, 0.0));
        let v1 = store.version();
        assert!(v1 > v0);
        store.evict_front(1);
        let v2 = store.version();
        assert!(v2 > v1);
        store.clear();
        assert!(store.version() > v2);
        // Reads do not bump.
        let _ = store.segment_map(4, 2);
        assert_eq!(store.version(), v2 + 1);
    }

    #[test]
    fn segment_map_covers_the_populated_prefix() {
        let mut store = SegmentedStore::new(3, None);
        for i in 0..70 {
            store.push(&row(3, (i % 7) as f32 * 0.3), &row(3, 0.0));
        }
        let map = store.segment_map(4, 16);
        assert_eq!(map.rows(), 70);
        let covered: usize = map.segments().iter().map(|s| s.rows).sum();
        assert_eq!(covered, 70);
        for s in map.segments() {
            assert_eq!(s.start % 16, 0, "segment starts must be chunk-aligned");
            for r in s.start..s.start + s.rows {
                assert!(s.max_in_norm >= store.norms()[r]);
            }
        }
    }

    #[test]
    fn quant_mirror_tracks_push_evict_clear() {
        let mut store = SegmentedStore::new(3, None);
        for i in 0..10 {
            store.push(&row(3, 0.1 * i as f32), &row(3, -0.1 * i as f32));
        }
        assert!(store.quant().is_none(), "mirror starts disabled");
        store.enable_quant();
        assert!(store.quant_is_synced());
        {
            let (q_in, q_out) = store.quant().unwrap();
            assert_eq!(q_in.rows(), 10);
            assert_eq!(q_out.rows(), 10);
        }
        // Mutations re-quantize incrementally: the mirror never serves
        // stale rows (the regression the version counter guards against).
        store.push(&row(3, 5.0), &row(3, -5.0));
        assert!(store.quant_is_synced());
        {
            let (q_in, _) = store.quant().unwrap();
            assert_eq!(q_in.rows(), 11);
            // Row 10 is [5,5,5] → codes all 127, scale 5/127.
            assert!(q_in.row(10).iter().all(|&c| c == 127));
            assert!((q_in.scale(10) - 5.0 / 127.0).abs() < 1e-7);
        }
        store.evict_front(4);
        assert!(store.quant_is_synced());
        assert_eq!(store.quant().unwrap().0.rows(), 7);
        // Surviving mirror rows line up with the surviving f32 rows.
        let (q_in, _) = store.quant().unwrap();
        for r in 0..7 {
            let mut dq = vec![0.0f32; 3];
            mnn_tensor::quant::dequantize_row(q_in.row(r), q_in.scale(r), &mut dq);
            for (a, b) in dq.iter().zip(store.m_in().row(r)) {
                assert!((a - b).abs() <= q_in.scale(r) * 0.5 + 1e-7);
            }
        }
        store.clear();
        assert!(store.quant_is_synced());
        assert_eq!(store.quant().unwrap().0.rows(), 0);
        assert_eq!(store.quant_resident_bytes(), 0);
    }

    #[test]
    fn stale_quant_mirror_is_never_served() {
        // Force staleness by desynchronizing clones: a mirror whose
        // synced_at no longer matches the store version must vanish from
        // `quant()` until `enable_quant` rebuilds it.
        let mut store = SegmentedStore::new(2, None);
        store.push(&row(2, 1.0), &row(2, 2.0));
        store.enable_quant();
        let mut desynced = store.clone();
        // Simulate a bypassing mutation: poke the version via the only
        // public lever (a mutation after temporarily dropping the mirror).
        desynced.disable_quant();
        desynced.push(&row(2, 9.0), &row(2, 9.0));
        assert!(desynced.quant().is_none());
        desynced.enable_quant();
        let (q_in, _) = desynced.quant().unwrap();
        assert_eq!(q_in.rows(), 2);
        assert!(q_in.row(1).iter().all(|&c| c == 127));
    }

    #[test]
    fn quant_resident_bytes_counts_codes_and_scales() {
        let mut store = SegmentedStore::new(8, None);
        for i in 0..5 {
            store.push(&row(8, 0.3 + i as f32 * 0.1), &row(8, 0.2));
        }
        assert_eq!(store.quant_resident_bytes(), 0);
        store.enable_quant();
        // Two mirrors × 5 rows × (8 code bytes + 4 scale bytes).
        assert_eq!(store.quant_resident_bytes(), 2 * 5 * (8 + 4));
    }

    #[test]
    fn index_tracks_push_evict_and_drops_on_clear() {
        let mut store = SegmentedStore::new(3, None);
        for i in 0..30 {
            store.push(&row(3, 0.1 * i as f32), &row(3, 0.0));
        }
        assert!(store.index().is_none(), "index starts disabled");
        store.enable_index();
        assert!(store.index_is_synced());
        assert_eq!(store.index().unwrap().len(), 30);
        store.index().unwrap().check_coherence().unwrap();

        // Incremental maintenance keeps the index serving across mutations.
        store.push(&row(3, 9.0), &row(3, 0.0));
        assert!(store.index_is_synced());
        assert_eq!(store.index().unwrap().len(), 31);
        store.evict_front(5);
        assert!(store.index_is_synced());
        assert_eq!(store.index().unwrap().len(), 26);
        store.index().unwrap().check_coherence().unwrap();

        store.clear();
        assert!(store.index().is_none(), "clear drops the index");
        assert!(!store.index_is_synced());
    }

    #[test]
    fn enable_index_is_a_noop_when_current_and_rebuilds_on_drift() {
        let mut store = SegmentedStore::new(2, None);
        for i in 0..40 {
            store.push(&row(2, i as f32 * 0.05), &row(2, 0.0));
        }
        store.enable_index();
        let trained = store.index().unwrap().trained_rows();
        store.enable_index();
        assert_eq!(
            store.index().unwrap().trained_rows(),
            trained,
            "no-op while current"
        );
        // Push past double the trained size: the next enable must retrain.
        for i in 0..41 {
            store.push(&row(2, 2.0 + i as f32 * 0.05), &row(2, 0.0));
        }
        assert!(
            store.index_is_synced(),
            "maintenance continued while drifting"
        );
        assert!(store.index().unwrap().is_drifted());
        store.enable_index();
        assert_eq!(store.index().unwrap().trained_rows(), 81, "retrained");
        assert!(!store.index().unwrap().is_drifted());
    }

    #[test]
    fn stale_index_is_never_served() {
        let mut store = SegmentedStore::new(2, None);
        for i in 0..10 {
            store.push(&row(2, i as f32 * 0.1), &row(2, 0.0));
        }
        store.enable_index();
        let mut desynced = store.clone();
        // A mutation while the index is temporarily dropped leaves any
        // later-restored copy stale; `index()`'s version filter catches it.
        desynced.disable_index();
        desynced.push(&row(2, 1.0), &row(2, 0.0));
        assert!(desynced.index().is_none());
        desynced.enable_index();
        assert_eq!(desynced.index().unwrap().len(), 11);
    }

    #[test]
    #[should_panic(expected = "bad in_row length")]
    fn wrong_row_length_panics() {
        let mut store = SegmentedStore::new(4, None);
        store.push(&[1.0, 2.0], &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "max_rows must be positive")]
    fn zero_bound_panics() {
        let _ = SegmentedStore::new(4, Some(0));
    }
}
