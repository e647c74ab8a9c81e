//! The kernels of [`crate::eval::Eval`]'s forward bodies that have a
//! non-obvious iteration order, and the band and key-block iterators that a
//! banded or keyed product's forward body and its gradient rule in
//! [`crate::Graph::backward`] both walk, so backward visits exactly the
//! GEMM blocks forward issued.

use core::ops::Range;
use mvi_tensor::{Mask, Tensor};

/// Row-wise masked softmax (Eq 9/11): entries where `mask` is `false` get
/// weight exactly zero, and fully-masked rows stay all-zero. `out` must
/// arrive zeroed with the same `[m, n]` shape as `scores`.
pub(crate) fn masked_softmax_rows_into(scores: &Tensor, mask: &Mask, out: &mut Tensor) {
    let (m, n) = (scores.rows(), scores.cols());
    assert_eq!(mask.shape(), &[m, n], "mask shape mismatch");
    debug_assert_eq!(out.shape(), &[m, n], "out shape mismatch");
    for i in 0..m {
        let srow = scores.row(i);
        let mrow = &mask.data()[i * n..(i + 1) * n];
        let mut maxv = f64::NEG_INFINITY;
        for (&s, &ok) in srow.iter().zip(mrow) {
            if ok && s > maxv {
                maxv = s;
            }
        }
        if !maxv.is_finite() {
            continue; // fully masked row
        }
        let mut denom = 0.0;
        let orow = out.row_mut(i);
        for (j, (&s, &ok)) in srow.iter().zip(mrow).enumerate() {
            if ok {
                let e = (s - maxv).exp();
                orow[j] = e;
                denom += e;
            }
        }
        for o in orow.iter_mut() {
            *o /= denom;
        }
    }
}

/// Shifts the rows of `a` by `offset` (positive = down), zero-filling rows
/// that fall off either end. `out` must arrive zeroed at `a`'s shape.
pub(crate) fn shift_rows_into(a: &Tensor, offset: i64, out: &mut Tensor) {
    let m = a.rows() as i64;
    debug_assert_eq!(out.shape(), a.shape());
    for j in 0..m {
        let src = j - offset;
        if src >= 0 && src < m {
            out.row_mut(j as usize).copy_from_slice(a.row(src as usize));
        }
    }
}

/// The maximal runs of consecutive rows that share a band start, as
/// `(rows, start)`: the GEMMs a banded `matmul_rows` issues.
pub(crate) fn bands(starts: &[usize]) -> impl Iterator<Item = (Range<usize>, usize)> + '_ {
    let mut i = 0;
    core::iter::from_fn(move || {
        let &s = starts.get(i)?;
        let lo = i;
        while starts.get(i) == Some(&s) {
            i += 1;
        }
        Some((lo..i, s))
    })
}

/// One GEMM of a keyed `matmul_nt_rows`: output rows `rows` all read the
/// same keys, and their output columns `cols` are the consecutive key rows
/// from `first` of key part `part`.
pub(crate) struct KeyBlock {
    pub rows: Range<usize>,
    pub cols: Range<usize>,
    pub part: usize,
    pub first: usize,
}

/// The GEMMs of a keyed `matmul_nt_rows` over `m` output rows whose
/// `(part, row)` keys are `keys` (row-major `[m, c]`): per maximal run of
/// consecutive rows with equal keys, one block per maximal run of their
/// keys that are consecutive rows of one part.
pub(crate) fn key_blocks(keys: &[(usize, usize)], m: usize) -> impl Iterator<Item = KeyBlock> + '_ {
    assert!(
        m > 0 && keys.len().is_multiple_of(m),
        "matmul_nt_rows needs the same key count per row"
    );
    let c = keys.len() / m;
    let row = move |i: usize| &keys[i * c..(i + 1) * c];
    let (mut rows, mut j) = (0..0, c);
    core::iter::from_fn(move || {
        if j == c {
            if rows.end == m || c == 0 {
                return None;
            }
            let lo = rows.end;
            let mut hi = lo + 1;
            while hi < m && row(hi) == row(lo) {
                hi += 1;
            }
            (rows, j) = (lo..hi, 0);
        }
        let own = row(rows.start);
        let (lo, (part, first)) = (j, own[j]);
        j += 1;
        while j < c && own[j] == (part, first + j - lo) {
            j += 1;
        }
        Some(KeyBlock { rows: rows.clone(), cols: lo..j, part, first })
    })
}

/// The forward value of a keyed `matmul_nt_rows`: row `i` of `a[m,k]`
/// against its `c` keys, `(part, row)` pairs into the `[·,k]` parts, added
/// into `out[m,c]`. A block that covers every column writes its rows in
/// place; a narrower one goes through `seg`. `pack` holds the packed `Bᵀ`
/// panel of the large products. Each element is one kernel FMA chain over
/// `k`, whatever the block it falls in.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_nt_keyed_into<'t>(
    m: usize,
    k: usize,
    a: &[f64],
    part: impl Fn(usize) -> &'t [f64],
    keys: &[(usize, usize)],
    out: &mut [f64],
    seg: &mut Vec<f64>,
    pack: &mut Vec<f64>,
) {
    let c = keys.len() / m;
    for b in key_blocks(keys, m) {
        let (nr, w) = (b.rows.len(), b.cols.len());
        let a_rows = &a[b.rows.start * k..b.rows.end * k];
        let key_rows = &part(b.part)[b.first * k..(b.first + w) * k];
        let out_rows = &mut out[b.rows.start * c..b.rows.end * c];
        if w == c {
            mvi_kernels::matmul_nt_packing_into(nr, k, w, a_rows, key_rows, out_rows, pack);
            continue;
        }
        seg.clear();
        seg.resize(nr * w, 0.0);
        mvi_kernels::matmul_nt_packing_into(nr, k, w, a_rows, key_rows, seg, pack);
        for (o, s) in out_rows.chunks_exact_mut(c).zip(seg.chunks_exact(w)) {
            o[b.cols.clone()].copy_from_slice(s);
        }
    }
}
