//! The dense row-major `f64` tensor used throughout the workspace.

use crate::shape;
use serde::{Deserialize, Serialize};

/// A dense, row-major, heap-allocated `f64` tensor.
///
/// The time axis of a dataset tensor is always the *last* axis, so a single series
/// `X_{k,•}` is the contiguous slice returned by [`Tensor::series`]. Matrices used by
/// the linear-algebra crate are rank-2 tensors `[rows, cols]`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the shape volume.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f64>) -> Self {
        assert_eq!(
            shape::num_elements(&shape),
            data.len(),
            "shape {:?} needs {} elements, got {}",
            shape,
            shape::num_elements(&shape),
            data.len()
        );
        Self { shape, data }
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self { shape: shape.to_vec(), data: vec![0.0; shape::num_elements(shape)] }
    }

    /// Tensor filled with `value`.
    pub fn full(shape: &[usize], value: f64) -> Self {
        Self { shape: shape.to_vec(), data: vec![value; shape::num_elements(shape)] }
    }

    /// Tensor whose element at multi-index `idx` is `f(&idx)`.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut data = Vec::with_capacity(shape::num_elements(shape));
        for idx in shape::indices(shape) {
            data.push(f(&idx));
        }
        Self { shape: shape.to_vec(), data }
    }

    /// Rank-1 tensor wrapping a vector.
    pub fn from_slice(v: &[f64]) -> Self {
        Self { shape: vec![v.len()], data: v.to_vec() }
    }

    /// Scalar (rank-1, single element) tensor — the canonical loss/score shape.
    pub fn scalar(v: f64) -> Self {
        Self { shape: vec![1], data: vec![v] }
    }

    /// The tensor shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements (some axis has extent zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element at a multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[shape::flat_index(&self.shape, idx)]
    }

    /// Element at a flat row-major offset.
    #[inline]
    pub fn at(&self, flat: usize) -> f64 {
        self.data[flat]
    }

    /// Re-shapes the tensor in place for reuse as a scratch buffer, leaving
    /// the element values **unspecified** (whatever the previous use left
    /// behind, zero-extended if the buffer grows). Reuses both the shape and
    /// data allocations, so once a buffer has seen its largest shape this
    /// never touches the heap — the recycling primitive behind the value-only
    /// forward evaluator's slot arena. Callers must overwrite every element
    /// (or use [`Tensor::reset_zeroed`]).
    pub fn reset_for_overwrite(&mut self, shape: &[usize]) {
        let vol = shape::num_elements(shape);
        self.data.resize(vol, 0.0);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Like [`Tensor::reset_for_overwrite`], but leaves the buffer all-zero
    /// (the required starting state for accumulating kernels like GEMM).
    pub fn reset_zeroed(&mut self, shape: &[usize]) {
        self.reset_for_overwrite(shape);
        self.data.fill(0.0);
    }

    /// Reinterprets the tensor under a new shape with the same volume.
    ///
    /// # Panics
    /// Panics if the volumes differ.
    pub fn reshape(mut self, new_shape: &[usize]) -> Self {
        assert_eq!(
            shape::num_elements(new_shape),
            self.data.len(),
            "reshape {:?} -> {:?} changes volume",
            self.shape,
            new_shape
        );
        self.shape = new_shape.to_vec();
        self
    }

    // ------------------------------------------------------------------
    // Time-series access (time = last axis)
    // ------------------------------------------------------------------

    /// Number of series: the product of all axes except the last (time) axis.
    pub fn n_series(&self) -> usize {
        let (series_shape, _) = shape::split_time(&self.shape);
        shape::num_elements(series_shape)
    }

    /// Length of the time axis.
    pub fn t_len(&self) -> usize {
        let (_, t) = shape::split_time(&self.shape);
        t
    }

    /// Grows the time (last) axis to `new_t_len` in place, preserving every
    /// series prefix and filling the appended suffix of each series with
    /// `fill`.
    ///
    /// One call moves every element once (series stay contiguous under the
    /// row-major layout, so they shift toward the back); callers that grow a
    /// stream repeatedly should grow geometrically and track the live length
    /// separately, which makes the per-appended-element cost amortized O(1)
    /// (the serving engine does exactly this).
    ///
    /// # Panics
    /// Panics if `new_t_len` is smaller than the current time axis.
    pub fn extend_time(&mut self, new_t_len: usize, fill: f64) {
        let (series_shape, old_t) = shape::split_time(&self.shape);
        assert!(
            new_t_len >= old_t,
            "extend_time {old_t} -> {new_t_len} would shrink the time axis"
        );
        if new_t_len == old_t {
            return;
        }
        let n = shape::num_elements(series_shape);
        self.data.resize(n * new_t_len, fill);
        // Shift series back-to-front (each new start is at or past the old
        // one, and higher series have already vacated their old slots), then
        // overwrite the per-series gaps left between old payload and the next
        // series' new start.
        for s in (1..n).rev() {
            self.data.copy_within(s * old_t..(s + 1) * old_t, s * new_t_len);
        }
        for s in 0..n {
            self.data[s * new_t_len + old_t..(s + 1) * new_t_len].fill(fill);
        }
        let last = self.shape.len() - 1;
        self.shape[last] = new_t_len;
    }

    /// Drops the *oldest* time steps in place, keeping only the last
    /// `new_t_len` steps of every series — the front-truncation counterpart of
    /// [`Tensor::extend_time`] and the eviction primitive behind the serving
    /// engine's retention ring: advancing the ring origin is
    /// `retain_latest(capacity - drop)` followed by `extend_time(capacity, _)`
    /// to re-open the vacated slack.
    ///
    /// Runs in one backing-buffer pass (series slide front-to-back under the
    /// row-major layout) and reuses the allocation: the buffer shrinks
    /// logically but its capacity is kept, so a later `extend_time` back to
    /// the old length touches no allocator.
    ///
    /// ```
    /// # use mvi_tensor::Tensor;
    /// let mut t = Tensor::from_vec(vec![2, 4], vec![0., 1., 2., 3., 10., 11., 12., 13.]);
    /// t.retain_latest(2); // keep the newest two steps of each series
    /// assert_eq!(t.shape(), &[2, 2]);
    /// assert_eq!(t.data(), &[2., 3., 12., 13.]);
    /// ```
    ///
    /// # Panics
    /// Panics if `new_t_len` exceeds the current time axis.
    pub fn retain_latest(&mut self, new_t_len: usize) {
        let (series_shape, old_t) = shape::split_time(&self.shape);
        assert!(
            new_t_len <= old_t,
            "retain_latest {old_t} -> {new_t_len} would grow the time axis"
        );
        if new_t_len == old_t {
            return;
        }
        let n = shape::num_elements(series_shape);
        let drop = old_t - new_t_len;
        // Front-to-back: each destination start is at or before the source
        // start, and lower series have already vacated their old slots.
        for s in 0..n {
            self.data.copy_within(s * old_t + drop..(s + 1) * old_t, s * new_t_len);
        }
        self.data.truncate(n * new_t_len);
        let last = self.shape.len() - 1;
        self.shape[last] = new_t_len;
    }

    /// A copy truncated along the time (last) axis to its first `new_t_len`
    /// steps — the inverse view of [`Tensor::extend_time`], used to recover
    /// the live prefix from capacity-padded storage.
    ///
    /// # Panics
    /// Panics if `new_t_len` exceeds the current time axis.
    pub fn truncated_time(&self, new_t_len: usize) -> Self {
        let (series_shape, old_t) = shape::split_time(&self.shape);
        assert!(
            new_t_len <= old_t,
            "truncated_time {old_t} -> {new_t_len} would grow the time axis"
        );
        let n = shape::num_elements(series_shape);
        let mut data = Vec::with_capacity(n * new_t_len);
        for s in 0..n {
            data.extend_from_slice(&self.data[s * old_t..s * old_t + new_t_len]);
        }
        let mut new_shape = self.shape.clone();
        let last = new_shape.len() - 1;
        new_shape[last] = new_t_len;
        Self { shape: new_shape, data }
    }

    /// The `s`-th series as a contiguous slice of length [`Tensor::t_len`].
    ///
    /// Series are numbered in row-major order over the non-time axes, i.e. series `s`
    /// corresponds to the multi-index `shape::unflatten(series_shape, s)`.
    #[inline]
    pub fn series(&self, s: usize) -> &[f64] {
        let t = self.t_len();
        &self.data[s * t..(s + 1) * t]
    }

    /// Mutable access to the `s`-th series.
    #[inline]
    pub fn series_mut(&mut self, s: usize) -> &mut [f64] {
        let t = self.t_len();
        &mut self.data[s * t..(s + 1) * t]
    }

    // ------------------------------------------------------------------
    // Rank-2 (matrix) access
    // ------------------------------------------------------------------

    /// Rows of a rank-2 tensor.
    #[inline]
    pub fn rows(&self) -> usize {
        assert_eq!(self.ndim(), 2, "rows() needs a rank-2 tensor, got {:?}", self.shape);
        self.shape[0]
    }

    /// Columns of a rank-2 tensor.
    #[inline]
    pub fn cols(&self) -> usize {
        assert_eq!(self.ndim(), 2, "cols() needs a rank-2 tensor, got {:?}", self.shape);
        self.shape[1]
    }

    /// Row `r` of a rank-2 tensor as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let c = self.cols();
        &self.data[r * c..(r + 1) * c]
    }

    /// Mutable row `r` of a rank-2 tensor.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let c = self.cols();
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Matrix element `(r, c)` of a rank-2 tensor.
    #[inline]
    pub fn m(&self, r: usize, c: usize) -> f64 {
        debug_assert_eq!(self.ndim(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Sets matrix element `(r, c)` of a rank-2 tensor.
    #[inline]
    pub fn set_m(&mut self, r: usize, c: usize, v: f64) {
        debug_assert_eq!(self.ndim(), 2);
        self.data[r * self.shape[1] + c] = v;
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic (allocating and in-place variants)
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Applies `f` in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Elementwise combination of two same-shaped tensors.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f64, f64) -> f64) -> Self {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Self { shape: self.shape.clone(), data }
    }

    /// `self += other` elementwise (fused kernel).
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        mvi_kernels::add_assign(&mut self.data, &other.data);
    }

    /// `self += alpha * other` elementwise (fused axpy kernel).
    pub fn axpy(&mut self, alpha: f64, other: &Self) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        mvi_kernels::axpy(&mut self.data, alpha, &other.data);
    }

    /// `self *= c` elementwise.
    pub fn scale_inplace(&mut self, c: f64) {
        mvi_kernels::scale(&mut self.data, c);
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm (Euclidean norm of the flattened tensor).
    pub fn frobenius_norm(&self) -> f64 {
        mvi_kernels::norm2_sq(&self.data).sqrt()
    }

    /// Largest absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// True when every element is finite (no NaN / ±inf).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.get(&[1, 2]), 12.0);
        assert_eq!(t.m(1, 1), 11.0);
        assert_eq!(t.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn series_layout_is_contiguous() {
        // Shape (2 stores, 3 items, 4 time steps): series 4 = store 1, item 1.
        let t = Tensor::from_fn(&[2, 3, 4], |idx| (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64);
        assert_eq!(t.n_series(), 6);
        assert_eq!(t.t_len(), 4);
        assert_eq!(t.series(4), &[110.0, 111.0, 112.0, 113.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]).reshape(&[2, 2]);
        assert_eq!(t.m(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "changes volume")]
    fn reshape_volume_checked() {
        let _ = Tensor::zeros(&[4]).reshape(&[3]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[3.0, -4.0]);
        assert_eq!(t.sum(), -1.0);
        assert_eq!(t.mean(), -0.5);
        assert!((t.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(t.max_abs(), 4.0);
        assert!(t.all_finite());
        assert!(!Tensor::from_slice(&[f64::NAN]).all_finite());
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale_inplace(2.0);
        assert_eq!(a.data(), &[12.0, 24.0]);
    }

    #[test]
    fn extend_time_preserves_series_and_fills_suffix() {
        // Shape (2, 3, 4): two non-time axes, so series shift non-trivially.
        let t = Tensor::from_fn(&[2, 3, 4], |idx| (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64);
        let mut grown = t.clone();
        grown.extend_time(7, -1.0);
        assert_eq!(grown.shape(), &[2, 3, 7]);
        for s in 0..6 {
            assert_eq!(&grown.series(s)[..4], t.series(s), "series {s} prefix changed");
            assert!(grown.series(s)[4..].iter().all(|&v| v == -1.0), "series {s} suffix not fill");
        }
        // Truncating back recovers the original exactly.
        assert_eq!(grown.truncated_time(4), t);
        // Growing to the same length is a no-op.
        let mut same = t.clone();
        same.extend_time(4, 9.0);
        assert_eq!(same, t);
    }

    #[test]
    #[should_panic(expected = "shrink the time axis")]
    fn extend_time_rejects_shrinking() {
        Tensor::zeros(&[2, 5]).extend_time(3, 0.0);
    }

    #[test]
    fn retain_latest_keeps_the_newest_suffix_of_every_series() {
        let t = Tensor::from_fn(&[2, 3, 5], |idx| (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64);
        let mut ring = t.clone();
        ring.retain_latest(2);
        assert_eq!(ring.shape(), &[2, 3, 2]);
        for s in 0..6 {
            assert_eq!(ring.series(s), &t.series(s)[3..], "series {s} suffix mismatch");
        }
        // Keeping everything is a no-op; keeping zero steps empties the axis.
        let mut same = t.clone();
        same.retain_latest(5);
        assert_eq!(same, t);
        let mut none = t.clone();
        none.retain_latest(0);
        assert_eq!(none.shape(), &[2, 3, 0]);
        assert!(none.is_empty());
        // Growing back re-opens a fill-initialized suffix without realloc.
        none.extend_time(5, 7.0);
        assert!(none.data().iter().all(|&v| v == 7.0));
    }

    #[test]
    #[should_panic(expected = "grow the time axis")]
    fn retain_latest_rejects_growing() {
        Tensor::zeros(&[2, 5]).retain_latest(6);
    }

    proptest! {
        #[test]
        fn prop_retain_latest_matches_suffix_copy(
            n in 1usize..5, t_len in 1usize..12, keep_frac in 0usize..13
        ) {
            let keep = keep_frac.min(t_len);
            let t = Tensor::from_fn(&[n, t_len], |idx| (idx[0] * 1000 + idx[1]) as f64);
            let mut ring = t.clone();
            ring.retain_latest(keep);
            prop_assert_eq!(ring.t_len(), keep);
            for s in 0..n {
                prop_assert_eq!(ring.series(s), &t.series(s)[t_len - keep..]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "grow the time axis")]
    fn truncated_time_rejects_growing() {
        let _ = Tensor::zeros(&[2, 5]).truncated_time(6);
    }

    proptest! {
        #[test]
        fn prop_extend_then_truncate_roundtrips(
            n in 1usize..5, t_len in 1usize..12, extra in 0usize..9
        ) {
            let t = Tensor::from_fn(&[n, t_len], |idx| (idx[0] * 1000 + idx[1]) as f64);
            let mut grown = t.clone();
            grown.extend_time(t_len + extra, 0.5);
            prop_assert_eq!(grown.t_len(), t_len + extra);
            prop_assert_eq!(grown.truncated_time(t_len), t);
        }
    }

    proptest! {
        #[test]
        fn prop_flat_and_multi_index_agree(
            d0 in 1usize..5, d1 in 1usize..5, d2 in 1usize..5, seed in 0u64..1000
        ) {
            let shape = [d0, d1, d2];
            let t = Tensor::from_fn(&shape, |idx| {
                (idx[0] as f64) + 7.0 * idx[1] as f64 + 31.0 * idx[2] as f64 + seed as f64
            });
            for (flat, idx) in crate::shape::indices(&shape).enumerate() {
                prop_assert_eq!(t.at(flat), t.get(&idx));
            }
        }

        #[test]
        fn prop_zip_map_add_commutes(v in proptest::collection::vec(-1e6f64..1e6, 1..64)) {
            let a = Tensor::from_slice(&v);
            let b = a.map(|x| x * 2.0);
            let ab = a.zip_map(&b, |x, y| x + y);
            let ba = b.zip_map(&a, |x, y| x + y);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn prop_series_roundtrip(n in 1usize..6, t_len in 1usize..20) {
            let t = Tensor::from_fn(&[n, t_len], |idx| (idx[0] * t_len + idx[1]) as f64);
            for s in 0..n {
                let series = t.series(s);
                prop_assert_eq!(series.len(), t_len);
                for (j, &v) in series.iter().enumerate() {
                    prop_assert_eq!(v, (s * t_len + j) as f64);
                }
            }
        }
    }
}
