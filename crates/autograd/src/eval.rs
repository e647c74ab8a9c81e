//! The forward operator set: the [`Evaluator`] trait and its value-only
//! backend [`Eval`].
//!
//! ## One forward body per op
//!
//! Every op's value is computed in one place, [`Eval`]'s body for it: an
//! eager computation into a slot arena of recycled scratch tensors. Model
//! code is written once against [`Evaluator`] and runs on two backends:
//!
//! * **Serving** runs it on [`Eval`]: values only, and (after the first pass
//!   has sized the slot pool) no heap allocation at all.
//! * **Training** runs it on [`crate::Graph`], which owns an `Eval` arena,
//!   computes each value with the same `Eval` body and records
//!   `(op, inputs, output)`. Its backward pass reads parent and output values
//!   back from the arena.
//!
//! Both bind parameters by sharing the store's `Arc` (a refcount bump), never
//! by cloning the tensor.
//!
//! ## Fused composites
//!
//! The two backends differ only in the composite ops ([`Evaluator::affine`],
//! [`Evaluator::affine_vec`], [`Evaluator::rbf_similarities`]). The tape
//! records the trait's default op chain, whose nodes backward needs; `Eval`
//! overrides each with one fused pass that performs the same floating-point
//! operations in the same order. Inference through `Eval` is therefore
//! **bitwise identical** to the same pass recorded on the tape, which the
//! tests below and `tests/eval_equivalence.rs` hold it to.

use crate::params::{ParamId, ParamStore};
use crate::vops;
use mvi_tensor::{Mask, Tensor};
use std::sync::Arc;

/// Handle to a value held by an [`Eval`] backend (an index into its slot
/// list, valid until the next [`Eval::recycle`]).
pub type EvalVar = usize;

/// The forward-pass operator set, implemented by the value-only evaluator
/// ([`Eval`], which computes eagerly into recycled buffers) and by the
/// differentiation tape ([`crate::Graph`], which computes with `Eval`'s
/// bodies and records each op for a later backward pass). Model forward code
/// is generic over this trait; training instantiates it with the tape,
/// serving with the evaluator (see the module docs).
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
    /// Elementwise `a - b` (same shape).
    fn sub(&mut self, a: Self::Var, b: Self::Var) -> Self::Var;
    /// Elementwise `a * b` (same shape).
    fn mul(&mut self, a: Self::Var, b: Self::Var) -> Self::Var;
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
    /// `a[m,k] · b[bands]`: row `i` of the output is row `i` of `a` times
    /// the band of `k` consecutive rows of `b[·,n]` from `starts[i]`, read in
    /// place (`starts.len() == m`). Bitwise equal to each row's product with
    /// a copy of its band: every kernel path computes a row as the same FMA
    /// chains whatever the row count, so rows that share a band run as one
    /// GEMM.
    fn matmul_rows(&mut self, a: Self::Var, b: Self::Var, starts: &[usize]) -> Self::Var;
    /// `a[m,k]` against per-row keys: row `i` of the `[m, c]` output (with
    /// `c = rows.len() / m`) holds the dot products of row `i` of `a` with
    /// the key rows `rows[i·c..(i+1)·c]`, each a `(part, row)` of `keys`
    /// (rank-2, `[·,k]` each), read in place without a transpose. Bitwise
    /// equal to `matmul` against the transposed copy of each row's keys:
    /// every kernel path computes an element as the same ordered FMA chain
    /// whatever the row and column count, so rows that read the same keys
    /// run as one GEMM per run of consecutive key rows.
    fn matmul_nt_rows(
        &mut self,
        a: Self::Var,
        keys: &[Self::Var],
        rows: &[(usize, usize)],
    ) -> Self::Var;
    /// Transpose of a rank-2 value.
    fn transpose(&mut self, a: Self::Var) -> Self::Var;
    /// Dot product of two rank-1 values, `[1]`-shaped.
    fn dot(&mut self, a: Self::Var, b: Self::Var) -> Self::Var;
    /// Rectified linear unit.
    fn relu(&mut self, a: Self::Var) -> Self::Var;
    /// Logistic sigmoid.
    fn sigmoid(&mut self, a: Self::Var) -> Self::Var;
    /// Hyperbolic tangent.
    fn tanh(&mut self, a: Self::Var) -> Self::Var;
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
    /// Element `i` of a rank-1 value, as a `[1]` scalar.
    fn index1d(&mut self, a: Self::Var, i: usize) -> Self::Var;
    /// Gathers rows of `table[v,d]` by index (embedding lookup).
    fn gather_rows(&mut self, table: Self::Var, idx: &[usize]) -> Self::Var;
    /// Stacks rows of rank-2 values with equal column counts: output row `r`
    /// is row `idx[r].1` of `parts[idx[r].0]` (a gather from several tables).
    fn stack_rows(&mut self, parts: &[Self::Var], idx: &[(usize, usize)]) -> Self::Var;
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
    // order exactly — bitwise, not approximately. `Eval` does so for the
    // chains that dominate the per-position serving cost.
    // ------------------------------------------------------------------

    /// Elementwise negation.
    fn neg(&mut self, a: Self::Var) -> Self::Var {
        self.scale(a, -1.0)
    }

    /// Mean of all elements, `[1]`-shaped.
    fn mean(&mut self, a: Self::Var) -> Self::Var {
        let n = self.value(a).len().max(1) as f64;
        let s = self.sum(a);
        self.scale(s, 1.0 / n)
    }

    /// Mean squared error between a prediction and a constant target,
    /// `[1]`-shaped.
    fn mse(&mut self, pred: Self::Var, target: &Tensor) -> Self::Var {
        let t = self.input(target.shape(), |t| t.data_mut().copy_from_slice(target.data()));
        let d = self.sub(pred, t);
        let sq = self.square(d);
        self.mean(sq)
    }

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
    /// The packed `Bᵀ` panel of a large `matmul_nt_rows`, reused.
    pack: Vec<f64>,
    /// A `matmul_nt_rows` block narrower than its output rows, reused.
    seg: Vec<f64>,
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

    /// `out = f(value(a))` elementwise.
    fn map_op(&mut self, a: EvalVar, f: impl Fn(f64) -> f64) -> EvalVar {
        let shape = ShapeBuf::of(self.value_of(a));
        self.unary(a, shape.as_slice(), false, |av, out| {
            for (o, &x) in out.data_mut().iter_mut().zip(av.data()) {
                *o = f(x);
            }
        })
    }

    /// `out = f(value(a), value(b))` elementwise (same shape).
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

    /// The number of vars issued in the current pass.
    pub(crate) fn vars(&self) -> usize {
        self.slots.len()
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

    fn sub(&mut self, a: EvalVar, b: EvalVar) -> EvalVar {
        self.zip_op(a, b, |x, y| x - y)
    }

    fn mul(&mut self, a: EvalVar, b: EvalVar) -> EvalVar {
        self.zip_op(a, b, |x, y| x * y)
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
        // `x + (-b)`, which is bitwise `x - b` under IEEE 754.
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

    fn matmul_rows(&mut self, a: EvalVar, b: EvalVar, starts: &[usize]) -> EvalVar {
        let (m, k) = {
            let av = self.value_of(a);
            (av.rows(), av.cols())
        };
        let (b_rows, n) = {
            let bv = self.value_of(b);
            (bv.rows(), bv.cols())
        };
        assert_eq!(starts.len(), m, "matmul_rows needs one band start per row");
        self.binary(a, b, &[m, n], true, |av, bv, out| {
            for (rows, s) in vops::bands(starts) {
                assert!(s + k <= b_rows, "matmul_rows band {s}..{} past {b_rows} rows", s + k);
                let (a_rows, c_rows) = (&av.data()[rows.start * k..rows.end * k], rows.len());
                let band = &bv.data()[s * n..(s + k) * n];
                let c = &mut out.data_mut()[rows.start * n..rows.end * n];
                mvi_kernels::matmul(c_rows, k, n, a_rows, band, c);
            }
        })
    }

    fn matmul_nt_rows(&mut self, a: EvalVar, keys: &[EvalVar], rows: &[(usize, usize)]) -> EvalVar {
        let (m, k) = {
            let av = self.value_of(a);
            (av.rows(), av.cols())
        };
        for &key in keys {
            assert_eq!(self.value_of(key).cols(), k, "matmul_nt_rows inner dims");
        }
        assert!(
            rows.iter().all(|&(part, r)| r < self.value_of(keys[part]).rows()),
            "matmul_nt_rows key row out of range"
        );
        let (mut seg, mut pack) = (std::mem::take(&mut self.seg), std::mem::take(&mut self.pack));
        let (var, p) = self.out_slot(&[m, rows.len() / m.max(1)], true);
        let (head, tail) = self.pool.split_at_mut(p);
        let slots = &self.slots;
        let av = resolve(slots, head, a).data();
        let part = |j: usize| resolve(slots, head, keys[j]).data();
        vops::matmul_nt_keyed_into(m, k, av, part, rows, tail[0].data_mut(), &mut seg, &mut pack);
        (self.seg, self.pack) = (seg, pack);
        var
    }

    fn transpose(&mut self, a: EvalVar) -> EvalVar {
        let (m, n) = {
            let av = self.value_of(a);
            (av.rows(), av.cols())
        };
        self.unary(a, &[n, m], false, |av, out| {
            let od = out.data_mut();
            for (i, row) in av.data().chunks_exact(n.max(1)).enumerate() {
                for (j, &x) in row.iter().enumerate() {
                    od[j * m + i] = x;
                }
            }
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

    fn sigmoid(&mut self, a: EvalVar) -> EvalVar {
        self.map_op(a, |x| 1.0 / (1.0 + (-x).exp()))
    }

    fn tanh(&mut self, a: EvalVar) -> EvalVar {
        self.map_op(a, f64::tanh)
    }

    fn exp(&mut self, a: EvalVar) -> EvalVar {
        self.map_op(a, f64::exp)
    }

    fn square(&mut self, a: EvalVar) -> EvalVar {
        self.map_op(a, |x| x * x)
    }

    fn sum(&mut self, a: EvalVar) -> EvalVar {
        self.unary(a, &[1], false, |av, out| {
            // The same sequential fold as `Tensor::sum`.
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

    fn index1d(&mut self, a: EvalVar, i: usize) -> EvalVar {
        let n = self.value_of(a).len();
        assert!(i < n, "index {i} out of {n}");
        self.unary(a, &[1], false, |av, out| out.data_mut()[0] = av.at(i))
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

    fn stack_rows(&mut self, parts: &[EvalVar], idx: &[(usize, usize)]) -> EvalVar {
        assert!(!parts.is_empty(), "stack_rows of nothing");
        let d = self.value_of(parts[0]).cols();
        for &part in parts {
            assert_eq!(self.value_of(part).cols(), d, "stack_rows column mismatch");
        }
        let (var, p) = self.out_slot(&[idx.len(), d], false);
        let (head, tail) = self.pool.split_at_mut(p);
        let out = &mut tail[0];
        for (r, &(part, i)) in idx.iter().enumerate() {
            out.row_mut(r).copy_from_slice(resolve(&self.slots, head, parts[part]).row(i));
        }
        var
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
            ((h >> 32) % 1000) as f64 / 250.0 - 2.0 + 0.123
        })
    }

    fn input<E: Evaluator>(e: &mut E, x: &Tensor) -> E::Var {
        e.input(x.shape(), |t| t.data_mut().copy_from_slice(x.data()))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The row-range products against the gather-then-multiply sequences
    /// they replace (and gather-transpose-multiply for the `nt` form).
    #[test]
    fn row_range_products_match_gathered_products_bitwise() {
        let a = t(&[4, 6], 7);
        let wide = t(&[9, 6], 13);
        let mut e = Eval::default();
        let (av, bv) = (input(&mut e, &a), input(&mut e, &wide));
        let banded = e.matmul_rows(av, bv, &[2; 4]);
        let rows = e.gather_rows(bv, &[2, 3, 4, 5, 6, 7]);
        let gathered = e.matmul(av, rows);
        assert_eq!(bits(e.value(banded).data()), bits(e.value(gathered).data()));

        let b_t = t(&[9, 6], 14);
        let bv = input(&mut e, &b_t);
        let keys: Vec<(usize, usize)> = (1..6).map(|r| (0, r)).collect();
        let keyed = e.matmul_nt_rows(av, &[bv], &keys.repeat(4));
        let rows = e.gather_rows(bv, &[1, 2, 3, 4, 5]);
        let rows_t = e.transpose(rows);
        let gathered = e.matmul(av, rows_t);
        assert_eq!(bits(e.value(keyed).data()), bits(e.value(gathered).data()));
    }

    /// The multi-row ops the stacked attention pass uses: the banded product
    /// against per-row products with copied bands and the keyed scores
    /// against one-element products.
    #[test]
    fn stacked_row_ops_match_per_row_products_bitwise() {
        let a = t(&[5, 3], 15);
        let wide = t(&[7, 4], 16);
        let starts = [0, 0, 3, 1, 1];
        // Each query row reads 3 keys, `(0, r)` from `keys` or `(1, r)` from
        // `edge_k`: two rows with the same keys (one block of a table key
        // between two edge keys), a row of consecutive table keys, and rows
        // mixing runs of both parts.
        let keys = t(&[7, 3], 18);
        let edge_k = t(&[2, 3], 19);
        let key_rows = [
            [(1, 1), (0, 2), (1, 0)],
            [(1, 1), (0, 2), (1, 0)],
            [(0, 4), (0, 5), (0, 6)],
            [(0, 3), (0, 4), (1, 0)],
            [(0, 6), (1, 0), (1, 1)],
        ]
        .concat();
        let mut e = Eval::default();
        let (av, bv) = (input(&mut e, &a), input(&mut e, &wide));
        let banded = e.matmul_rows(av, bv, &starts);
        for (i, &s) in starts.iter().enumerate() {
            let a_row = e.gather_rows(av, &[i]);
            let band: Vec<usize> = (s..s + 3).collect();
            let band = e.gather_rows(bv, &band);
            let row = e.matmul(a_row, band);
            assert_eq!(
                bits(e.value(row).data()),
                bits(e.value(banded).row(i)),
                "row {i} of the banded product"
            );
        }
        // Each score is the one-element product of its query row and key.
        let (kv, ev) = (input(&mut e, &keys), input(&mut e, &edge_k));
        let scores = e.matmul_nt_rows(av, &[kv, ev], &key_rows);
        assert_eq!(e.shape(scores), &[5, 3]);
        for (ij, &(part, r)) in key_rows.iter().enumerate() {
            let key = if part == 0 { keys.row(r) } else { edge_k.row(r) };
            let mut one = [0.0];
            mvi_kernels::matmul_nt(1, 3, 1, a.row(ij / 3), key, &mut one);
            assert_eq!(e.value(scores).data()[ij].to_bits(), one[0].to_bits(), "score {ij}");
        }
    }

    /// `Eval`'s fused `affine`, `affine_vec` and `rbf_similarities` against
    /// the default op chains the tape records, bitwise.
    #[test]
    fn fused_composites_match_the_recorded_chains_bitwise() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Linear::new(&mut store, &mut rng, "l", 6, 4);
        let bare = Linear::new_no_bias(&mut store, &mut rng, "n", 6, 3);
        let head = Linear::new(&mut store, &mut rng, "h", 6, 2);
        let x = glorot(&mut rng, 3, 6);
        let (sib, own) = (t(&[5, 4], 20), t(&[4], 21));

        fn run<E: Evaluator>(
            e: &mut E,
            store: &ParamStore,
            layers: [&Linear; 3],
            inputs: [&Tensor; 3],
        ) -> Vec<E::Var> {
            let xv = input(e, inputs[0]);
            let y = layers[0].forward(e, store, xv);
            let yb = layers[1].forward(e, store, xv);
            let r = e.row(xv, 1);
            let yv = layers[2].forward_vec(e, store, r);
            let (sv, ov) = (input(e, inputs[1]), input(e, inputs[2]));
            let k = e.rbf_similarities(sv, ov, 0.35);
            vec![y, yb, yv, k]
        }
        let (layers, inputs) = ([&layer, &bare, &head], [&x, &sib, &own]);
        let mut g = Graph::new();
        let recorded = run(&mut g, &store, layers, inputs);
        let mut e = Eval::default();
        let fused = run(&mut e, &store, layers, inputs);
        for (which, (&gv, &ev)) in recorded.iter().zip(&fused).enumerate() {
            let (gt, et) = (g.value(gv), e.value(ev));
            assert_eq!(gt.shape(), et.shape(), "composite {which}");
            assert_eq!(bits(gt.data()), bits(et.data()), "composite {which}");
        }
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
