//! The forward-evaluation backends: the [`Evaluator`] trait and the tape-free
//! value-only [`Eval`] backend.
//!
//! ## The train/infer execution split
//!
//! Training and serving want the same forward pass executed two very
//! different ways:
//!
//! * **Training** needs gradients, so it records a differentiation tape: one
//!   [`crate::Graph`] node per op, each carrying its parents and a boxed
//!   backward closure, plus a fresh heap tensor per intermediate so the
//!   reverse pass can read every value later.
//! * **Serving** needs *values only*. Keeping the tape machinery on that path
//!   means paying — per op, per window, per query — for a node push, a boxed
//!   closure allocation and a heap tensor that nothing will ever read back.
//!
//! The [`Evaluator`] trait abstracts exactly the operator subset the forward
//! pass uses, so model code is written once and executes on either backend:
//! [`crate::Graph`] implements it by recording the tape as before, while
//! [`Eval`] implements it by computing each op **eagerly into recycled
//! scratch buffers** — no nodes, no closures, and (after the first pass has
//! sized the slot pool) **no heap allocation at all**. Parameters are bound
//! by sharing the store's `Arc` (a refcount bump), never by cloning the
//! tensor.
//!
//! ## Bitwise equivalence contract
//!
//! `Eval` is not "approximately" the tape: every op performs the same
//! floating-point operations in the same order as the corresponding
//! [`crate::Graph`] op (elementwise maps use identical expressions,
//! reductions identical iteration order, matmuls the identical
//! `mvi_kernels` GEMMs, and order-sensitive ops like the masked softmax are
//! literally the same function — see \[`crate::vops`\]). Inference through
//! `Eval` is therefore **bitwise identical** to inference through the tape,
//! which is what lets the serving engine switch backends without touching
//! its 1e-9 consistency and determinism guarantees.

use crate::params::{ParamId, ParamStore};
use crate::vops;
use core::ops::Range;
use mvi_tensor::{Mask, Tensor};
use std::sync::Arc;

/// Handle to a value held by an [`Eval`] backend (an index into its slot
/// list, valid until the next [`Eval::recycle`]).
pub type EvalVar = usize;

/// The forward-pass operator set, implemented by both the differentiation
/// tape ([`crate::Graph`], which records ops for a later backward pass) and
/// the value-only evaluator ([`Eval`], which computes eagerly into recycled
/// buffers). Model forward code is generic over this trait; training
/// instantiates it with the tape, serving with the evaluator, and both
/// produce bitwise-identical values (see the module docs).
pub trait Evaluator {
    /// Handle to a value produced by this backend.
    type Var: Copy + core::fmt::Debug;

    /// Binds a parameter from the store by shared reference (no data copy).
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Self::Var;
    /// A leaf of the given shape, zero-initialized and then populated by
    /// `fill` — the allocation-free way to feed per-pass inputs (window
    /// values, positional encodings).
    fn input(&mut self, shape: &[usize], fill: impl FnOnce(&mut Tensor)) -> Self::Var;
    /// `[1]`-shaped scalar leaf.
    fn scalar(&mut self, v: f64) -> Self::Var;
    /// Rank-1 leaf copied from a slice.
    fn constant_slice(&mut self, v: &[f64]) -> Self::Var;

    /// Value of a variable.
    fn value(&self, v: Self::Var) -> &Tensor;
    /// Shape of a variable's value.
    fn shape(&self, v: Self::Var) -> &[usize];

    /// Elementwise `a + b` (same shape).
    fn add(&mut self, a: Self::Var, b: Self::Var) -> Self::Var;
    /// Elementwise `a / b` (same shape); caller keeps `b` away from zero.
    fn div(&mut self, a: Self::Var, b: Self::Var) -> Self::Var;
    /// `a * c` for a scalar `c`.
    fn scale(&mut self, a: Self::Var, c: f64) -> Self::Var;
    /// `a + c` for a scalar `c`.
    fn add_scalar(&mut self, a: Self::Var, c: f64) -> Self::Var;
    /// Broadcast add of a row vector: `a[m,n] + v[n]`.
    fn add_rowvec(&mut self, a: Self::Var, v: Self::Var) -> Self::Var;
    /// Broadcast subtract of a row vector: `a[m,n] - v[n]`.
    fn sub_rowvec(&mut self, a: Self::Var, v: Self::Var) -> Self::Var;
    /// Matrix product `a[m,k] · b[k,n]`.
    fn matmul(&mut self, a: Self::Var, b: Self::Var) -> Self::Var;
    /// `a[m,k] · b[rows]`: the product with the contiguous row range `rows`
    /// of `b[·,n]` (so `k == rows.len()`), read in place. Bitwise equal to
    /// the product with a copy of those rows.
    fn matmul_rows(&mut self, a: Self::Var, b: Self::Var, rows: Range<usize>) -> Self::Var;
    /// `a[m,k] · b[rows]ᵀ` for `b[·,k]`: one output column per row in
    /// `rows`, read in place without materializing a transpose. Bitwise
    /// equal to `matmul` against the transposed copy of those rows: every
    /// kernel path computes an element as the same ordered FMA chain.
    fn matmul_nt_rows(&mut self, a: Self::Var, b: Self::Var, rows: Range<usize>) -> Self::Var;
    /// Dot product of two rank-1 values, `[1]`-shaped.
    fn dot(&mut self, a: Self::Var, b: Self::Var) -> Self::Var;
    /// Rectified linear unit.
    fn relu(&mut self, a: Self::Var) -> Self::Var;
    /// Elementwise exponential.
    fn exp(&mut self, a: Self::Var) -> Self::Var;
    /// Elementwise square.
    fn square(&mut self, a: Self::Var) -> Self::Var;
    /// Sum of all elements, `[1]`-shaped.
    fn sum(&mut self, a: Self::Var) -> Self::Var;
    /// Row sums of `a[m,n]`, yielding `[m]`.
    fn sum_axis1(&mut self, a: Self::Var) -> Self::Var;
    /// Concatenates rank-1 values into one rank-1 value.
    fn concat1d(&mut self, parts: &[Self::Var]) -> Self::Var;
    /// Concatenates rank-2 values with equal row counts along the columns.
    fn concat_cols(&mut self, parts: &[Self::Var]) -> Self::Var;
    /// Row `i` of a rank-2 value, as a rank-1 value.
    fn row(&mut self, a: Self::Var, i: usize) -> Self::Var;
    /// Gathers rows of `table[v,d]` by index (embedding lookup).
    fn gather_rows(&mut self, table: Self::Var, idx: &[usize]) -> Self::Var;
    /// Shifts rows by `offset` (positive = down), zero-filling.
    fn shift_rows(&mut self, a: Self::Var, offset: i64) -> Self::Var;
    /// Reinterprets the value under a new shape (same volume).
    fn reshape(&mut self, a: Self::Var, new_shape: &[usize]) -> Self::Var;
    /// Row-wise softmax with masked entries excluded (weight exactly zero;
    /// fully-masked rows stay all-zero).
    fn masked_softmax_rows(&mut self, scores: Self::Var, mask: &Mask) -> Self::Var;

    // ------------------------------------------------------------------
    // Composite ops. The default bodies ARE the canonical op sequences (the
    // tape records them unchanged); a backend may override with a fused
    // computation only if it reproduces the default's per-element operation
    // order exactly — bitwise, not approximately. `Eval` does so for the two
    // chains that dominate the per-position serving cost.
    // ------------------------------------------------------------------

    /// A dense layer applied to a `[m, in]` value: `x·W + b`, yielding
    /// `[m, out]`.
    fn affine(
        &mut self,
        store: &ParamStore,
        w: ParamId,
        b: Option<ParamId>,
        x: Self::Var,
    ) -> Self::Var {
        let wv = self.param(store, w);
        let y = self.matmul(x, wv);
        match b {
            Some(bid) => {
                let bv = self.param(store, bid);
                self.add_rowvec(y, bv)
            }
            None => y,
        }
    }

    /// A dense layer applied to a rank-1 `[in]` value: `x·W + b`, yielding
    /// `[out]` (the per-position output head, Eq 6).
    fn affine_vec(
        &mut self,
        store: &ParamStore,
        w: ParamId,
        b: Option<ParamId>,
        x: Self::Var,
    ) -> Self::Var {
        let in_dim = self.shape(x)[0];
        let xm = self.reshape(x, &[1, in_dim]);
        let wv = self.param(store, w);
        let y = self.matmul(xm, wv);
        let y = match b {
            Some(bid) => {
                let bv = self.param(store, bid);
                self.add_rowvec(y, bv)
            }
            None => y,
        };
        let out_dim = self.shape(y)[1];
        self.reshape(y, &[out_dim])
    }

    /// RBF kernel similarities of each row of `sib[m,d]` against `own[d]`
    /// (Eq 17): `exp(-γ‖sib_r − own‖²)`, yielding `[m]`.
    fn rbf_similarities(&mut self, sib: Self::Var, own: Self::Var, gamma: f64) -> Self::Var {
        let diff = self.sub_rowvec(sib, own);
        let sq = self.square(diff);
        let dists = self.sum_axis1(sq);
        let scaled = self.scale(dists, -gamma);
        self.exp(scaled)
    }
}

/// A slot either owns a recycled scratch tensor (by pool index) or shares a
/// parameter tensor with the store (refcount bump, zero copy).
enum Slot {
    Pooled(usize),
    Shared(Arc<Tensor>),
}

/// The tape-free, value-only forward backend (see the module docs).
///
/// Internally an arena of recycled tensor slots: [`Eval::recycle`] resets the
/// cursor without freeing, so a long-lived `Eval` (e.g. inside an inference
/// scratch) reaches a steady state where a full window forward pass performs
/// **zero heap allocations** — every intermediate lands in a pre-sized
/// buffer, and every parameter is an `Arc` share of the frozen store.
#[derive(Default)]
pub struct Eval {
    slots: Vec<Slot>,
    pool: Vec<Tensor>,
    pool_used: usize,
}

/// Stack-allocated shape copy (forward values are rank ≤ 2; 4 is headroom),
/// so computing an output shape never borrows the backend.
#[derive(Clone, Copy)]
struct ShapeBuf {
    d: [usize; 4],
    n: usize,
}

impl ShapeBuf {
    fn of(t: &Tensor) -> Self {
        let s = t.shape();
        assert!(s.len() <= 4, "rank {} value in the forward evaluator", s.len());
        let mut d = [0usize; 4];
        d[..s.len()].copy_from_slice(s);
        Self { d, n: s.len() }
    }

    fn as_slice(&self) -> &[usize] {
        &self.d[..self.n]
    }
}

/// Resolves a slot against the pool prefix that precedes the output slot.
/// Inputs always live strictly before the output (slots are written once, in
/// issue order), so splitting the pool at the output index is safe.
fn resolve<'a>(slots: &'a [Slot], pool_head: &'a [Tensor], v: EvalVar) -> &'a Tensor {
    match &slots[v] {
        Slot::Pooled(i) => &pool_head[*i],
        Slot::Shared(t) => t,
    }
}

/// A point in an [`Eval`] pass (see [`Eval::mark`]): rewinding to it frees
/// every var issued after it and keeps the ones issued before.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalMark {
    slots: usize,
    pool: usize,
}

impl Eval {
    /// Ends the current pass: invalidates all issued [`EvalVar`]s and rewinds
    /// the slot arena for reuse. Buffer capacity (and therefore the zero
    /// allocation steady state) is retained.
    pub fn recycle(&mut self) {
        self.rewind(EvalMark::default());
    }

    /// The current end of the pass. Vars issued so far survive a later
    /// [`Eval::rewind`] to this mark, so a pass can compute shared values
    /// once and then evaluate many dependent computations after it, each
    /// reusing the same slots.
    pub fn mark(&self) -> EvalMark {
        EvalMark { slots: self.slots.len(), pool: self.pool_used }
    }

    /// Invalidates every var issued after `mark` and reuses their slots;
    /// the vars issued before it keep their values.
    pub fn rewind(&mut self, mark: EvalMark) {
        debug_assert!(mark.slots <= self.slots.len() && mark.pool <= self.pool_used);
        self.slots.truncate(mark.slots);
        self.pool_used = mark.pool;
    }

    /// Claims the next pooled slot at `shape`; `zeroed` controls whether the
    /// recycled buffer is cleared (required by accumulating kernels and
    /// partial writers) or left for full overwrite. Returns the new var and
    /// its pool index.
    fn out_slot(&mut self, shape: &[usize], zeroed: bool) -> (EvalVar, usize) {
        let p = self.pool_used;
        if p == self.pool.len() {
            self.pool.push(Tensor::zeros(shape));
        } else if zeroed {
            self.pool[p].reset_zeroed(shape);
        } else {
            self.pool[p].reset_for_overwrite(shape);
        }
        self.pool_used = p + 1;
        self.slots.push(Slot::Pooled(p));
        (self.slots.len() - 1, p)
    }

    /// `out = f(value(a))` into a fresh slot of `shape`.
    fn unary(
        &mut self,
        a: EvalVar,
        shape: &[usize],
        zeroed: bool,
        f: impl FnOnce(&Tensor, &mut Tensor),
    ) -> EvalVar {
        let (var, p) = self.out_slot(shape, zeroed);
        let (head, tail) = self.pool.split_at_mut(p);
        f(resolve(&self.slots, head, a), &mut tail[0]);
        var
    }

    /// `out = f(value(a), value(b))` into a fresh slot of `shape`.
    fn binary(
        &mut self,
        a: EvalVar,
        b: EvalVar,
        shape: &[usize],
        zeroed: bool,
        f: impl FnOnce(&Tensor, &Tensor, &mut Tensor),
    ) -> EvalVar {
        let (var, p) = self.out_slot(shape, zeroed);
        let (head, tail) = self.pool.split_at_mut(p);
        f(resolve(&self.slots, head, a), resolve(&self.slots, head, b), &mut tail[0]);
        var
    }

    /// Elementwise map with the same per-element expression as the tape op.
    fn map_op(&mut self, a: EvalVar, f: impl Fn(f64) -> f64) -> EvalVar {
        let shape = ShapeBuf::of(self.value_of(a));
        self.unary(a, shape.as_slice(), false, |av, out| {
            for (o, &x) in out.data_mut().iter_mut().zip(av.data()) {
                *o = f(x);
            }
        })
    }

    /// Elementwise zip with the same per-element expression as the tape op.
    fn zip_op(&mut self, a: EvalVar, b: EvalVar, f: impl Fn(f64, f64) -> f64) -> EvalVar {
        let shape = ShapeBuf::of(self.value_of(a));
        assert_eq!(
            shape.as_slice(),
            self.value_of(b).shape(),
            "elementwise shape mismatch in the evaluator"
        );
        self.binary(a, b, shape.as_slice(), false, |av, bv, out| {
            for ((o, &x), &y) in out.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
                *o = f(x, y);
            }
        })
    }

    #[inline]
    fn value_of(&self, v: EvalVar) -> &Tensor {
        resolve(&self.slots, &self.pool, v)
    }
}

impl Evaluator for Eval {
    type Var = EvalVar;

    fn param(&mut self, store: &ParamStore, id: ParamId) -> EvalVar {
        debug_assert!(
            store.value(id).all_finite(),
            "non-finite parameter `{}` entered the evaluator",
            store.name(id)
        );
        self.slots.push(Slot::Shared(Arc::clone(store.value_arc(id))));
        self.slots.len() - 1
    }

    fn input(&mut self, shape: &[usize], fill: impl FnOnce(&mut Tensor)) -> EvalVar {
        let (var, p) = self.out_slot(shape, true);
        fill(&mut self.pool[p]);
        var
    }

    fn scalar(&mut self, v: f64) -> EvalVar {
        let (var, p) = self.out_slot(&[1], false);
        self.pool[p].data_mut()[0] = v;
        var
    }

    fn constant_slice(&mut self, v: &[f64]) -> EvalVar {
        let (var, p) = self.out_slot(&[v.len()], false);
        self.pool[p].data_mut().copy_from_slice(v);
        var
    }

    fn value(&self, v: EvalVar) -> &Tensor {
        self.value_of(v)
    }

    fn shape(&self, v: EvalVar) -> &[usize] {
        self.value_of(v).shape()
    }

    fn add(&mut self, a: EvalVar, b: EvalVar) -> EvalVar {
        self.zip_op(a, b, |x, y| x + y)
    }

    fn div(&mut self, a: EvalVar, b: EvalVar) -> EvalVar {
        self.zip_op(a, b, |x, y| x / y)
    }

    fn scale(&mut self, a: EvalVar, c: f64) -> EvalVar {
        self.map_op(a, |x| x * c)
    }

    fn add_scalar(&mut self, a: EvalVar, c: f64) -> EvalVar {
        self.map_op(a, |x| x + c)
    }

    fn add_rowvec(&mut self, a: EvalVar, v: EvalVar) -> EvalVar {
        let shape = ShapeBuf::of(self.value_of(a));
        let n = shape.as_slice()[1];
        assert_eq!(self.value_of(v).shape(), &[n], "add_rowvec dim mismatch");
        self.binary(a, v, shape.as_slice(), false, |av, vv, out| {
            let vd = vv.data();
            for (orow, arow) in out.data_mut().chunks_exact_mut(n).zip(av.data().chunks_exact(n)) {
                for ((o, &x), &b) in orow.iter_mut().zip(arow).zip(vd) {
                    *o = x + b;
                }
            }
        })
    }

    fn sub_rowvec(&mut self, a: EvalVar, v: EvalVar) -> EvalVar {
        // The tape lowers this to `a + neg(v)`; `x + (-b)` is bitwise `x - b`
        // under IEEE 754, so one fused pass preserves the equivalence.
        let shape = ShapeBuf::of(self.value_of(a));
        let n = shape.as_slice()[1];
        assert_eq!(self.value_of(v).shape(), &[n], "sub_rowvec dim mismatch");
        self.binary(a, v, shape.as_slice(), false, |av, vv, out| {
            let vd = vv.data();
            for (orow, arow) in out.data_mut().chunks_exact_mut(n).zip(av.data().chunks_exact(n)) {
                for ((o, &x), &b) in orow.iter_mut().zip(arow).zip(vd) {
                    *o = x + (-b);
                }
            }
        })
    }

    fn matmul(&mut self, a: EvalVar, b: EvalVar) -> EvalVar {
        let (m, k) = {
            let av = self.value_of(a);
            (av.rows(), av.cols())
        };
        let (k2, n) = {
            let bv = self.value_of(b);
            (bv.rows(), bv.cols())
        };
        assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
        // Same GEMM kernel as `mvi_linalg::ops::matmul` (zeroed accumulator).
        self.binary(a, b, &[m, n], true, |av, bv, out| {
            mvi_kernels::matmul(m, k, n, av.data(), bv.data(), out.data_mut());
        })
    }

    fn matmul_rows(&mut self, a: EvalVar, b: EvalVar, rows: Range<usize>) -> EvalVar {
        let (m, k) = {
            let av = self.value_of(a);
            (av.rows(), av.cols())
        };
        let n = self.value_of(b).cols();
        assert!(rows.end <= self.value_of(b).rows(), "matmul_rows range {rows:?}");
        assert_eq!(k, rows.len(), "matmul_rows inner dims: {k} vs {rows:?}");
        self.binary(a, b, &[m, n], true, |av, bv, out| {
            let b_rows = &bv.data()[rows.start * n..rows.end * n];
            mvi_kernels::matmul(m, k, n, av.data(), b_rows, out.data_mut());
        })
    }

    fn matmul_nt_rows(&mut self, a: EvalVar, b: EvalVar, rows: Range<usize>) -> EvalVar {
        let (m, k) = {
            let av = self.value_of(a);
            (av.rows(), av.cols())
        };
        assert_eq!(self.value_of(b).cols(), k, "matmul_nt_rows inner dims");
        assert!(rows.end <= self.value_of(b).rows(), "matmul_nt_rows range {rows:?}");
        let n = rows.len();
        self.binary(a, b, &[m, n], true, |av, bv, out| {
            let b_rows = &bv.data()[rows.start * k..rows.end * k];
            mvi_kernels::matmul_nt(m, k, n, av.data(), b_rows, out.data_mut());
        })
    }

    fn dot(&mut self, a: EvalVar, b: EvalVar) -> EvalVar {
        assert_eq!(self.value_of(a).shape(), self.value_of(b).shape(), "dot shape");
        self.binary(a, b, &[1], false, |av, bv, out| {
            out.data_mut()[0] = mvi_linalg::ops::dot(av.data(), bv.data());
        })
    }

    fn relu(&mut self, a: EvalVar) -> EvalVar {
        self.map_op(a, |x| x.max(0.0))
    }

    fn exp(&mut self, a: EvalVar) -> EvalVar {
        self.map_op(a, f64::exp)
    }

    fn square(&mut self, a: EvalVar) -> EvalVar {
        self.map_op(a, |x| x * x)
    }

    fn sum(&mut self, a: EvalVar) -> EvalVar {
        self.unary(a, &[1], false, |av, out| {
            // Same sequential fold as `Tensor::sum` on the tape path.
            out.data_mut()[0] = av.data().iter().sum();
        })
    }

    fn sum_axis1(&mut self, a: EvalVar) -> EvalVar {
        let (m, n) = {
            let av = self.value_of(a);
            (av.rows(), av.cols())
        };
        self.unary(a, &[m], false, |av, out| {
            for (o, row) in out.data_mut().iter_mut().zip(av.data().chunks_exact(n)) {
                *o = row.iter().sum();
            }
        })
    }

    fn concat1d(&mut self, parts: &[EvalVar]) -> EvalVar {
        assert!(!parts.is_empty(), "concat1d of nothing");
        let mut total = 0usize;
        for &part in parts {
            let v = self.value_of(part);
            assert_eq!(v.ndim(), 1, "concat1d needs rank-1 parts");
            total += v.len();
        }
        let (var, p) = self.out_slot(&[total], false);
        let (head, tail) = self.pool.split_at_mut(p);
        let out = tail[0].data_mut();
        let mut off = 0;
        for &part in parts {
            let v = resolve(&self.slots, head, part);
            out[off..off + v.len()].copy_from_slice(v.data());
            off += v.len();
        }
        var
    }

    fn concat_cols(&mut self, parts: &[EvalVar]) -> EvalVar {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let m = self.value_of(parts[0]).rows();
        let mut total = 0usize;
        for &part in parts {
            let v = self.value_of(part);
            assert_eq!(v.rows(), m, "concat_cols row mismatch");
            total += v.cols();
        }
        let (var, p) = self.out_slot(&[m, total], false);
        let (head, tail) = self.pool.split_at_mut(p);
        let out = &mut tail[0];
        for i in 0..m {
            let orow = out.row_mut(i);
            let mut off = 0;
            for &part in parts {
                let v = resolve(&self.slots, head, part);
                let w = v.cols();
                orow[off..off + w].copy_from_slice(v.row(i));
                off += w;
            }
        }
        var
    }

    fn row(&mut self, a: EvalVar, i: usize) -> EvalVar {
        let (m, n) = {
            let av = self.value_of(a);
            (av.rows(), av.cols())
        };
        assert!(i < m, "row {i} out of {m}");
        self.unary(a, &[n], false, |av, out| {
            out.data_mut().copy_from_slice(av.row(i));
        })
    }

    fn gather_rows(&mut self, table: EvalVar, idx: &[usize]) -> EvalVar {
        let (vocab, d) = {
            let tv = self.value_of(table);
            (tv.rows(), tv.cols())
        };
        self.unary(table, &[idx.len(), d], false, |tv, out| {
            for (r, &i) in idx.iter().enumerate() {
                assert!(i < vocab, "gather index {i} out of vocabulary {vocab}");
                out.row_mut(r).copy_from_slice(tv.row(i));
            }
        })
    }

    fn shift_rows(&mut self, a: EvalVar, offset: i64) -> EvalVar {
        let shape = ShapeBuf::of(self.value_of(a));
        self.unary(a, shape.as_slice(), true, |av, out| {
            crate::vops::shift_rows_into(av, offset, out);
        })
    }

    fn reshape(&mut self, a: EvalVar, new_shape: &[usize]) -> EvalVar {
        debug_assert_eq!(
            self.value_of(a).len(),
            new_shape.iter().product::<usize>(),
            "reshape changes volume"
        );
        self.unary(a, new_shape, false, |av, out| {
            out.data_mut().copy_from_slice(av.data());
        })
    }

    fn masked_softmax_rows(&mut self, scores: EvalVar, mask: &Mask) -> EvalVar {
        let shape = ShapeBuf::of(self.value_of(scores));
        self.unary(scores, shape.as_slice(), true, |sv, out| {
            vops::masked_softmax_rows_into(sv, mask, out);
        })
    }

    /// Fused dense layer. Bitwise contract with the default body: the GEMM
    /// runs the identical kernel into the identical zeroed accumulator; the
    /// bias is then added in place, element for element the same addition the
    /// `add_rowvec` op would have performed into a fresh buffer.
    fn affine(
        &mut self,
        store: &ParamStore,
        w: ParamId,
        b: Option<ParamId>,
        x: EvalVar,
    ) -> EvalVar {
        let wt = Arc::clone(store.value_arc(w));
        let (k2, n) = (wt.rows(), wt.cols());
        let (m, k) = {
            let xv = self.value_of(x);
            (xv.rows(), xv.cols())
        };
        assert_eq!(k, k2, "affine inner dims: {k} vs {k2}");
        let bias = b.map(|bid| Arc::clone(store.value_arc(bid)));
        self.unary(x, &[m, n], true, |xv, out| {
            mvi_kernels::matmul(m, k, n, xv.data(), wt.data(), out.data_mut());
            if let Some(bv) = &bias {
                let bd = bv.data();
                for row in out.data_mut().chunks_exact_mut(n) {
                    for (o, &bb) in row.iter_mut().zip(bd) {
                        *o += bb;
                    }
                }
            }
        })
    }

    /// Fused output head. Bitwise contract with the default body: the `m = 1`
    /// GEMM computes each output element as one `mul_add` chain over `k`
    /// ascending from a zeroed accumulator (every kernel path does), then the
    /// bias row is added — reproduced here in the same order, with the
    /// parameters read straight from the store (no slot traffic).
    fn affine_vec(
        &mut self,
        store: &ParamStore,
        w: ParamId,
        b: Option<ParamId>,
        x: EvalVar,
    ) -> EvalVar {
        let wt = Arc::clone(store.value_arc(w));
        let (in_dim, out_dim) = (wt.rows(), wt.cols());
        assert_eq!(self.value_of(x).shape(), &[in_dim], "affine_vec dim mismatch");
        let bias = b.map(|bid| Arc::clone(store.value_arc(bid)));
        self.unary(x, &[out_dim], false, |xv, out| {
            let xd = xv.data();
            let wd = wt.data();
            for (j, o) in out.data_mut().iter_mut().enumerate() {
                let mut acc = 0.0;
                for (kk, &xk) in xd.iter().enumerate() {
                    acc = xk.mul_add(wd[kk * out_dim + j], acc);
                }
                *o = match &bias {
                    Some(bv) => acc + bv.data()[j],
                    None => acc,
                };
            }
        })
    }

    /// Fused RBF similarity. Bitwise contract with the default body:
    /// per row, `d_j = sib_{r,j} + (-own_j)` squared and summed in ascending
    /// `j` from a zero accumulator (the `sub_rowvec → square → sum_axis1`
    /// chain), then `(acc · (-γ)).exp()` — identical expressions, identical
    /// order, one pass.
    fn rbf_similarities(&mut self, sib: EvalVar, own: EvalVar, gamma: f64) -> EvalVar {
        let (m, d) = {
            let sv = self.value_of(sib);
            (sv.rows(), sv.cols())
        };
        assert_eq!(self.value_of(own).shape(), &[d], "rbf_similarities dim mismatch");
        let c = -gamma;
        self.binary(sib, own, &[m], false, |sv, ov, out| {
            let od = ov.data();
            for (row, o) in sv.data().chunks_exact(d).zip(out.data_mut()) {
                let mut acc = 0.0;
                for (&x, &b) in row.iter().zip(od) {
                    let diff = x + (-b);
                    acc += diff * diff;
                }
                *o = (acc * c).exp();
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::nn::{glorot, Linear};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(shape: &[usize], seed: u64) -> Tensor {
        Tensor::from_fn(shape, |idx| {
            let h = idx
                .iter()
                .fold(seed.wrapping_mul(0x9E37_79B9), |a, &i| {
                    a.wrapping_mul(31).wrapping_add(i as u64 + 1)
                })
                .wrapping_mul(0xD1B5_4A32_D192_ED03);
            // The 0.123 offset keeps every value away from exactly zero, so
            // the division case stays finite on the tape.
            ((h >> 32) % 1000) as f64 / 250.0 - 2.0 + 0.123
        })
    }

    /// Runs the same op sequence on both backends and asserts bitwise-equal
    /// results — the per-op equivalence the big property tests build on.
    fn assert_same<GF, EF>(mut gf: GF, mut ef: EF)
    where
        GF: FnMut(&mut Graph) -> crate::VarId,
        EF: FnMut(&mut Eval) -> EvalVar,
    {
        let mut g = Graph::new();
        let gv = gf(&mut g);
        let mut e = Eval::default();
        let ev = ef(&mut e);
        let (gt, et) = (g.value(gv), e.value(ev));
        assert_eq!(gt.shape(), et.shape(), "shape diverged");
        let gb: Vec<u64> = gt.data().iter().map(|x| x.to_bits()).collect();
        let eb: Vec<u64> = et.data().iter().map(|x| x.to_bits()).collect();
        assert_eq!(gb, eb, "values diverged bitwise");
    }

    #[test]
    fn elementwise_and_reductions_match_the_tape_bitwise() {
        let a = t(&[3, 5], 1);
        let b = t(&[3, 5], 2);
        let v = t(&[5], 3);
        type Op = fn(&mut Graph, crate::VarId, crate::VarId, crate::VarId) -> crate::VarId;
        type EvOp = fn(&mut Eval, EvalVar, EvalVar, EvalVar) -> EvalVar;
        let cases: Vec<(Op, EvOp)> = vec![
            (|g, a, b, _| g.add(a, b), |e, a, b, _| e.add(a, b)),
            (|g, a, b, _| g.div(a, b), |e, a, b, _| e.div(a, b)),
            (|g, a, _, _| g.scale(a, -1.7), |e, a, _, _| e.scale(a, -1.7)),
            (|g, a, _, _| g.add_scalar(a, 1e-9), |e, a, _, _| e.add_scalar(a, 1e-9)),
            (|g, a, _, v| g.add_rowvec(a, v), |e, a, _, v| e.add_rowvec(a, v)),
            (|g, a, _, v| g.sub_rowvec(a, v), |e, a, _, v| e.sub_rowvec(a, v)),
            (|g, a, _, _| g.relu(a), |e, a, _, _| e.relu(a)),
            (|g, a, _, _| g.exp(a), |e, a, _, _| e.exp(a)),
            (|g, a, _, _| g.square(a), |e, a, _, _| e.square(a)),
            (|g, a, _, _| g.sum(a), |e, a, _, _| e.sum(a)),
            (|g, a, _, _| g.sum_axis1(a), |e, a, _, _| e.sum_axis1(a)),
            (|g, a, _, _| g.shift_rows(a, 1), |e, a, _, _| e.shift_rows(a, 1)),
            (|g, a, _, _| g.shift_rows(a, -2), |e, a, _, _| e.shift_rows(a, -2)),
            (|g, a, _, _| g.row(a, 2), |e, a, _, _| e.row(a, 2)),
            (|g, a, _, _| g.reshape(a, &[5, 3]), |e, a, _, _| e.reshape(a, &[5, 3])),
            (|g, a, b, _| g.concat_cols(&[a, b]), |e, a, b, _| e.concat_cols(&[a, b])),
        ];
        for (gop, eop) in cases {
            let (ac, bc, vc) = (a.clone(), b.clone(), v.clone());
            assert_same(
                move |g| {
                    let (a, b) = (g.constant(ac.clone()), g.constant(bc.clone()));
                    let v = g.constant(vc.clone());
                    gop(g, a, b, v)
                },
                |e| {
                    let a = e.input(a.shape(), |x| x.data_mut().copy_from_slice(a.data()));
                    let b = e.input(b.shape(), |x| x.data_mut().copy_from_slice(b.data()));
                    let v = e.input(v.shape(), |x| x.data_mut().copy_from_slice(v.data()));
                    eop(e, a, b, v)
                },
            );
        }
    }

    #[test]
    fn matmul_dot_gather_softmax_match_the_tape_bitwise() {
        let a = t(&[4, 6], 7);
        let b = t(&[6, 5], 8);
        let mut mask = Mask::trues(&[4, 4]);
        mask.set(&[0, 3], false);
        mask.set(&[2, 0], false);
        mask.set(&[3, 0], false);
        mask.set(&[3, 1], false);
        mask.set(&[3, 2], false);
        mask.set(&[3, 3], false); // fully masked row
        let sc = t(&[4, 4], 9);
        let r1 = t(&[6], 10);
        let r2 = t(&[6], 11);

        assert_same(
            |g| {
                let (av, bv) = (g.constant(a.clone()), g.constant(b.clone()));
                g.matmul(av, bv)
            },
            |e| {
                let av = e.input(a.shape(), |x| x.data_mut().copy_from_slice(a.data()));
                let bv = e.input(b.shape(), |x| x.data_mut().copy_from_slice(b.data()));
                e.matmul(av, bv)
            },
        );
        // Row ranges against the tape's gather-then-multiply (and
        // transpose-then-multiply for the `nt` form).
        let wide = t(&[9, 6], 13);
        assert_same(
            |g| {
                let (av, bv) = (g.constant(a.clone()), g.constant(wide.clone()));
                let rows = g.gather_rows(bv, &[2, 3, 4, 5, 6, 7]);
                g.matmul(av, rows)
            },
            |e| {
                let av = e.input(a.shape(), |x| x.data_mut().copy_from_slice(a.data()));
                let bv = e.input(wide.shape(), |x| x.data_mut().copy_from_slice(wide.data()));
                e.matmul_rows(av, bv, 2..8)
            },
        );
        let b_t = t(&[9, 6], 14);
        assert_same(
            |g| {
                let (av, bv) = (g.constant(a.clone()), g.constant(b_t.clone()));
                let rows = g.gather_rows(bv, &[1, 2, 3, 4, 5]);
                let rows_t = g.transpose(rows);
                g.matmul(av, rows_t)
            },
            |e| {
                let av = e.input(a.shape(), |x| x.data_mut().copy_from_slice(a.data()));
                let bv = e.input(b_t.shape(), |x| x.data_mut().copy_from_slice(b_t.data()));
                e.matmul_nt_rows(av, bv, 1..6)
            },
        );
        assert_same(
            |g| {
                let (x, y) = (g.constant(r1.clone()), g.constant(r2.clone()));
                g.dot(x, y)
            },
            |e| {
                let x = e.input(r1.shape(), |t| t.data_mut().copy_from_slice(r1.data()));
                let y = e.input(r2.shape(), |t| t.data_mut().copy_from_slice(r2.data()));
                e.dot(x, y)
            },
        );
        assert_same(
            |g| {
                let tb = g.constant(a.clone());
                g.gather_rows(tb, &[3, 0, 0, 2])
            },
            |e| {
                let tb = e.input(a.shape(), |x| x.data_mut().copy_from_slice(a.data()));
                e.gather_rows(tb, &[3, 0, 0, 2])
            },
        );
        assert_same(
            |g| {
                let s = g.constant(sc.clone());
                g.masked_softmax_rows(s, &mask)
            },
            |e| {
                let s = e.input(sc.shape(), |x| x.data_mut().copy_from_slice(sc.data()));
                e.masked_softmax_rows(s, &mask)
            },
        );
    }

    #[test]
    fn params_bind_by_sharing_and_layers_match_across_backends() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Linear::new(&mut store, &mut rng, "l", 6, 4);
        let x = glorot(&mut rng, 3, 6);

        let mut g = Graph::new();
        let xg = g.constant(x.clone());
        let yg = layer.forward(&mut g, &store, xg);

        let mut e = Eval::default();
        let xe = e.input(x.shape(), |t| t.data_mut().copy_from_slice(x.data()));
        let ye = layer.forward(&mut e, &store, xe);

        assert_eq!(
            g.value(yg).data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            e.value(ye).data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        // The bound parameter shares the store's allocation, byte for byte.
        let pw = e.param(&store, layer.w);
        assert!(std::ptr::eq(e.value(pw).data().as_ptr(), store.value(layer.w).data().as_ptr()));
    }

    #[test]
    fn recycle_reaches_a_zero_allocation_steady_state() {
        let mut e = Eval::default();
        for pass in 0..3 {
            e.recycle();
            let a = e.input(&[4, 4], |t| t.data_mut().iter_mut().for_each(|x| *x = 1.5));
            let b = e.scale(a, 1.0);
            let c = e.matmul(a, b);
            let s = e.sum(c);
            assert_eq!(e.value(s).at(0), 4.0 * 4.0 * 4.0 * 1.5 * 1.5, "pass {pass}");
        }
        // The pool holds exactly the four live buffers, reused across passes.
        assert_eq!(e.pool.len(), 4);
        assert_eq!(e.pool_used, 4);
    }

    #[test]
    fn rewind_keeps_the_vars_before_the_mark_and_reuses_the_rest() {
        let mut e = Eval::default();
        let a = e.input(&[2, 3], |t| t.data_mut().iter_mut().for_each(|x| *x = 2.0));
        let mark = e.mark();
        for pass in 0..3 {
            e.rewind(mark);
            let b = e.scale(a, pass as f64);
            let s = e.sum(b);
            assert_eq!(e.value(s).at(0), 12.0 * pass as f64);
            assert_eq!(e.value(a).data(), &[2.0; 6], "a var before the mark changed");
        }
        assert_eq!(e.pool.len(), 3, "passes after the mark reuse the same slots");
    }
}
