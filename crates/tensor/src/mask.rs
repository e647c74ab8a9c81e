//! Boolean tensors for the availability (`A`) and missing (`M`) indicators of §2.1.

use crate::shape;
use serde::{Deserialize, Serialize};

/// A dense boolean tensor with the same row-major layout as [`crate::Tensor`].
///
/// By convention the workspace uses `true` in an *availability* mask to mean "value is
/// observed" and `true` in a *missing* mask to mean "value is hidden"; the two are
/// complements ([`Mask::complement`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mask {
    shape: Vec<usize>,
    data: Vec<bool>,
}

impl Mask {
    /// Mask of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: bool) -> Self {
        Self { shape: shape.to_vec(), data: vec![value; shape::num_elements(shape)] }
    }

    /// All-`true` mask (everything available / everything missing).
    pub fn trues(shape: &[usize]) -> Self {
        Self::full(shape, true)
    }

    /// All-`false` mask.
    pub fn falses(shape: &[usize]) -> Self {
        Self::full(shape, false)
    }

    /// Re-shapes the mask in place to `shape` with every entry `value`,
    /// reusing the shape and data allocations (no heap traffic once the
    /// buffer has seen its largest shape). Scratch-reuse counterpart of
    /// [`Mask::full`] for the attention availability mask rebuilt on every
    /// window forward pass.
    pub fn reset_full(&mut self, shape: &[usize], value: bool) {
        let vol = shape::num_elements(shape);
        self.data.clear();
        self.data.resize(vol, value);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Mask from a shape and backing data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_vec(shape: Vec<usize>, data: Vec<bool>) -> Self {
        assert_eq!(shape::num_elements(&shape), data.len(), "mask shape/data mismatch");
        Self { shape, data }
    }

    /// The mask shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the mask holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer.
    #[inline]
    pub fn data(&self) -> &[bool] {
        &self.data
    }

    /// Mutable view of the backing buffer (bulk fills on hot paths).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [bool] {
        &mut self.data
    }

    /// Entry at a multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> bool {
        self.data[shape::flat_index(&self.shape, idx)]
    }

    /// Sets the entry at a multi-index.
    #[inline]
    pub fn set(&mut self, idx: &[usize], value: bool) {
        let flat = shape::flat_index(&self.shape, idx);
        self.data[flat] = value;
    }

    /// Entry at a flat offset.
    #[inline]
    pub fn at(&self, flat: usize) -> bool {
        self.data[flat]
    }

    /// Number of `true` entries.
    pub fn count(&self) -> usize {
        self.data.iter().filter(|&&b| b).count()
    }

    /// Fraction of `true` entries (0 for empty masks).
    pub fn fraction(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.count() as f64 / self.data.len() as f64
        }
    }

    /// True when every entry is `true`.
    pub fn all(&self) -> bool {
        self.data.iter().all(|&b| b)
    }

    /// True when at least one entry is `true`.
    pub fn any(&self) -> bool {
        self.data.iter().any(|&b| b)
    }

    /// Logical negation: turns an availability mask into a missing mask and back.
    pub fn complement(&self) -> Self {
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&b| !b).collect() }
    }

    /// Elementwise AND with another same-shaped mask.
    pub fn and(&self, other: &Self) -> Self {
        assert_eq!(self.shape, other.shape, "mask and() shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| a && b).collect();
        Self { shape: self.shape.clone(), data }
    }

    /// Elementwise OR with another same-shaped mask.
    pub fn or(&self, other: &Self) -> Self {
        assert_eq!(self.shape, other.shape, "mask or() shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| a || b).collect();
        Self { shape: self.shape.clone(), data }
    }

    /// Flat offsets of all `true` entries, in row-major order.
    pub fn true_indices(&self) -> Vec<usize> {
        self.data.iter().enumerate().filter_map(|(i, &b)| if b { Some(i) } else { None }).collect()
    }

    // ------------------------------------------------------------------
    // Time-series access (time = last axis), mirroring Tensor.
    // ------------------------------------------------------------------

    /// Length of the time axis.
    pub fn t_len(&self) -> usize {
        let (_, t) = shape::split_time(&self.shape);
        t
    }

    /// Grows the time (last) axis to `new_t_len` in place, preserving every
    /// series prefix and filling the appended suffix of each series with
    /// `value` (mirrors [`crate::Tensor::extend_time`]; callers growing a
    /// stream should grow geometrically for amortized O(1) per element).
    ///
    /// # Panics
    /// Panics if `new_t_len` is smaller than the current time axis.
    pub fn extend_time(&mut self, new_t_len: usize, value: bool) {
        let (series_shape, old_t) = shape::split_time(&self.shape);
        assert!(
            new_t_len >= old_t,
            "extend_time {old_t} -> {new_t_len} would shrink the time axis"
        );
        if new_t_len == old_t {
            return;
        }
        let n = shape::num_elements(series_shape);
        self.data.resize(n * new_t_len, value);
        for s in (1..n).rev() {
            self.data.copy_within(s * old_t..(s + 1) * old_t, s * new_t_len);
        }
        for s in 0..n {
            self.data[s * new_t_len + old_t..(s + 1) * new_t_len].fill(value);
        }
        let last = self.shape.len() - 1;
        self.shape[last] = new_t_len;
    }

    /// Drops the *oldest* time steps in place, keeping only the last
    /// `new_t_len` steps of every series (mirrors
    /// [`crate::Tensor::retain_latest`] — the ring-eviction primitive). The
    /// allocation is reused, so a later `extend_time` back to the old length
    /// touches no allocator.
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
        for s in 0..n {
            self.data.copy_within(s * old_t + drop..(s + 1) * old_t, s * new_t_len);
        }
        self.data.truncate(n * new_t_len);
        let last = self.shape.len() - 1;
        self.shape[last] = new_t_len;
    }

    /// A copy truncated along the time (last) axis to its first `new_t_len`
    /// steps (mirrors [`crate::Tensor::truncated_time`]).
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

    /// The `s`-th series of the mask as a contiguous slice.
    #[inline]
    pub fn series(&self, s: usize) -> &[bool] {
        let t = self.t_len();
        &self.data[s * t..(s + 1) * t]
    }

    /// Sets `[start, end)` of series `s` to `value`.
    pub fn set_range(&mut self, s: usize, start: usize, end: usize, value: bool) {
        let t = self.t_len();
        assert!(start <= end && end <= t, "range {start}..{end} out of series length {t}");
        for x in &mut self.data[s * t + start..s * t + end] {
            *x = value;
        }
    }

    /// Maximal runs of `true` entries in series `s`, as `(start, len)` pairs.
    ///
    /// Used both to enumerate missing blocks for imputation and to build the empirical
    /// block-shape distribution for the synthetic-training-mask sampler (§3).
    pub fn runs(&self, s: usize) -> Vec<(usize, usize)> {
        self.runs_of_in(s, 0, self.t_len(), true)
    }

    /// Maximal runs of `true` entries in series `s` clipped to `[start, end)`,
    /// as `(start, len)` pairs. A run straddling the range boundary is
    /// truncated to the part inside the range.
    ///
    /// This is the windowed view of [`Mask::runs`]: streaming/tail imputation
    /// only needs the runs inside the affected suffix, and a clipped
    /// enumeration avoids rescanning the whole series per update.
    pub fn runs_in(&self, s: usize, start: usize, end: usize) -> Vec<(usize, usize)> {
        self.runs_of_in(s, start, end, true)
    }

    /// Maximal runs of `false` entries in series `s` clipped to `[start, end)`
    /// — the *missing* runs of an availability mask, enumerated directly so
    /// hot read paths need not allocate a full [`Mask::complement`].
    pub fn gap_runs_in(&self, s: usize, start: usize, end: usize) -> Vec<(usize, usize)> {
        self.runs_of_in(s, start, end, false)
    }

    /// Shared scan behind the run enumerations: maximal runs of entries equal
    /// to `target` within `[start, end)` of series `s`.
    fn runs_of_in(&self, s: usize, start: usize, end: usize, target: bool) -> Vec<(usize, usize)> {
        let t = self.t_len();
        assert!(start <= end && end <= t, "range {start}..{end} out of series length {t}");
        let series = &self.series(s)[start..end];
        let mut runs = Vec::new();
        let mut run_start = None;
        for (off, &b) in series.iter().enumerate() {
            match (b == target, run_start) {
                (true, None) => run_start = Some(start + off),
                (false, Some(st)) => {
                    runs.push((st, start + off - st));
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(st) = run_start {
            runs.push((st, end - st));
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn count_and_fraction() {
        let mut m = Mask::falses(&[2, 5]);
        m.set(&[0, 1], true);
        m.set(&[1, 4], true);
        assert_eq!(m.count(), 2);
        assert!((m.fraction() - 0.2).abs() < 1e-12);
        assert!(m.any());
        assert!(!m.all());
    }

    #[test]
    fn complement_is_involution() {
        let mut m = Mask::falses(&[3, 3]);
        m.set(&[1, 1], true);
        assert_eq!(m.complement().complement(), m);
        assert_eq!(m.complement().count(), 8);
    }

    #[test]
    fn and_or() {
        let mut a = Mask::falses(&[4]);
        let mut b = Mask::falses(&[4]);
        a.set(&[0], true);
        a.set(&[1], true);
        b.set(&[1], true);
        b.set(&[2], true);
        assert_eq!(a.and(&b).true_indices(), vec![1]);
        assert_eq!(a.or(&b).true_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn runs_detects_blocks() {
        let mut m = Mask::falses(&[1, 10]);
        m.set_range(0, 2, 5, true);
        m.set_range(0, 8, 10, true);
        assert_eq!(m.runs(0), vec![(2, 3), (8, 2)]);
        assert_eq!(Mask::trues(&[1, 4]).runs(0), vec![(0, 4)]);
        assert_eq!(Mask::falses(&[1, 4]).runs(0), vec![]);
    }

    #[test]
    fn runs_in_clips_to_the_range() {
        let mut m = Mask::falses(&[1, 12]);
        m.set_range(0, 2, 6, true);
        m.set_range(0, 9, 12, true);
        assert_eq!(m.runs_in(0, 0, 12), m.runs(0));
        // Straddling runs are truncated on both sides.
        assert_eq!(m.runs_in(0, 4, 10), vec![(4, 2), (9, 1)]);
        // A range inside one run yields the clipped run.
        assert_eq!(m.runs_in(0, 3, 5), vec![(3, 2)]);
        // Empty and all-false ranges yield nothing.
        assert_eq!(m.runs_in(0, 6, 6), vec![]);
        assert_eq!(m.runs_in(0, 6, 9), vec![]);
    }

    #[test]
    fn gap_runs_are_the_complement_runs() {
        let mut m = Mask::trues(&[1, 12]);
        m.set_range(0, 3, 6, false);
        m.set_range(0, 10, 12, false);
        assert_eq!(m.gap_runs_in(0, 0, 12), m.complement().runs(0));
        assert_eq!(m.gap_runs_in(0, 4, 11), vec![(4, 2), (10, 1)]);
        assert_eq!(m.gap_runs_in(0, 0, 3), vec![]);
    }

    #[test]
    fn extend_time_preserves_series_and_truncate_inverts() {
        let mut m = Mask::falses(&[2, 3, 4]);
        m.set(&[0, 1, 3], true);
        m.set(&[1, 2, 0], true);
        let original = m.clone();
        m.extend_time(6, false);
        assert_eq!(m.shape(), &[2, 3, 6]);
        assert!(m.get(&[0, 1, 3]));
        assert!(m.get(&[1, 2, 0]));
        assert_eq!(m.count(), 2, "extension must not invent entries");
        assert_eq!(m.truncated_time(4), original);
        // Growing with `true` marks only the new suffix.
        let mut t = original.clone();
        t.extend_time(5, true);
        assert_eq!(t.count(), 2 + 6, "one new step per series marked true");
    }

    #[test]
    fn retain_latest_keeps_the_newest_suffix() {
        let mut m = Mask::falses(&[2, 6]);
        m.set_range(0, 0, 2, true); // oldest entries: evicted below
        m.set_range(0, 4, 6, true);
        m.set_range(1, 3, 4, true);
        let original = m.clone();
        m.retain_latest(3);
        assert_eq!(m.shape(), &[2, 3]);
        assert_eq!(m.series(0), &original.series(0)[3..]);
        assert_eq!(m.series(1), &original.series(1)[3..]);
        assert_eq!(m.count(), 3, "only the retained trues survive");
        // Growing back opens an all-`value` suffix.
        m.extend_time(6, false);
        assert_eq!(m.count(), 3);
        assert!(m.series(0)[3..].iter().all(|&b| !b));
    }

    #[test]
    #[should_panic(expected = "grow the time axis")]
    fn retain_latest_rejects_growing() {
        Mask::falses(&[2, 5]).retain_latest(6);
    }

    #[test]
    fn set_range_touches_only_target_series() {
        let mut m = Mask::falses(&[3, 6]);
        m.set_range(1, 0, 6, true);
        assert_eq!(m.series(0).iter().filter(|&&b| b).count(), 0);
        assert_eq!(m.series(1).iter().filter(|&&b| b).count(), 6);
        assert_eq!(m.series(2).iter().filter(|&&b| b).count(), 0);
    }

    proptest! {
        #[test]
        fn prop_runs_reconstruct_mask(bits in proptest::collection::vec(any::<bool>(), 1..64)) {
            let m = Mask::from_vec(vec![1, bits.len()], bits.clone());
            let mut rebuilt = vec![false; bits.len()];
            for (start, len) in m.runs(0) {
                for x in &mut rebuilt[start..start + len] {
                    *x = true;
                }
            }
            prop_assert_eq!(rebuilt, bits);
        }

        #[test]
        fn prop_complement_partitions(bits in proptest::collection::vec(any::<bool>(), 1..64)) {
            let m = Mask::from_vec(vec![bits.len()], bits);
            prop_assert_eq!(m.count() + m.complement().count(), m.len());
            prop_assert!(!m.and(&m.complement()).any());
            prop_assert!(m.or(&m.complement()).all());
        }
    }
}
