//! The differentiation tape: an [`Eval`] slot arena plus a record of
//! `(op, inputs, output)` per op.
//!
//! Every tape op computes its value with `Eval`'s body for that op (the only
//! forward body in the crate), then pushes one `Op` record carrying the
//! op's non-tensor arguments. [`Graph::backward`] walks the records in
//! reverse; one `match` holds each op's gradient rule, reading parent and
//! output values back from the arena.

use crate::eval::{Eval, Evaluator};
use crate::params::{ParamId, ParamStore};
use crate::vops;
use mvi_linalg::ops as la;
use mvi_tensor::{Mask, Tensor};
use std::ops::Range;

/// Index of a value on the tape (a slot of its arena).
pub type VarId = usize;

/// One recorded op and its non-tensor arguments. Index lists live in the
/// graph's side buffers, addressed by range (`idx` for `usize` lists,
/// `pairs` for `(part, row)` lists); shapes and widths are read back from
/// the arena.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Scale(f64),
    AddScalar,
    AddRowvec,
    SubRowvec,
    Matmul,
    /// Band starts, in `idx`.
    MatmulRows(Range<usize>),
    /// Key rows, in `pairs`.
    MatmulNtRows(Range<usize>),
    Transpose,
    Dot,
    Relu,
    Sigmoid,
    Tanh,
    Exp,
    Square,
    Sum,
    SumAxis1,
    Concat1d,
    ConcatCols,
    Row(usize),
    Index1d(usize),
    /// Gathered rows, in `idx`.
    GatherRows(Range<usize>),
    /// Stacked `(part, row)`s, in `pairs`.
    StackRows(Range<usize>),
    ShiftRows(i64),
    Reshape,
    MaskedSoftmaxRows,
}

struct Record {
    op: Op,
    /// The op's input vars, in `Graph::inputs`.
    inputs: Range<usize>,
    out: VarId,
}

/// Gradients produced by [`Graph::backward`], indexed by [`VarId`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. the given variable, if it was reached.
    pub fn get(&self, id: VarId) -> Option<&Tensor> {
        self.grads.get(id).and_then(|g| g.as_ref())
    }
}

/// A write-once computation tape over a recycled [`Eval`] arena. Build one
/// per worker and [`Graph::recycle`] it between forward passes.
#[derive(Default)]
pub struct Graph {
    eval: Eval,
    records: Vec<Record>,
    inputs: Vec<VarId>,
    idx: Vec<usize>,
    pairs: Vec<(usize, usize)>,
    param_binds: Vec<(VarId, ParamId)>,
}

/// Appends `items` to `buf`, returning where they landed.
fn stash<T: Copy>(buf: &mut Vec<T>, items: &[T]) -> Range<usize> {
    buf.extend_from_slice(items);
    buf.len() - items.len()..buf.len()
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the tape for reuse, keeping the arena's buffers and the record
    /// vectors' capacity, so a recycled tape records a pass of the same shape
    /// without reallocating. All previously issued [`VarId`]s are
    /// invalidated.
    pub fn recycle(&mut self) {
        self.eval.recycle();
        self.records.clear();
        self.inputs.clear();
        self.idx.clear();
        self.pairs.clear();
        self.param_binds.clear();
    }

    /// Leaf holding a constant (no gradient will be requested for it, but one is
    /// still accumulated so constants can be promoted to parameters in tests).
    pub fn constant(&mut self, value: Tensor) -> VarId {
        self.input(value.shape(), |t| t.data_mut().copy_from_slice(value.data()))
    }

    /// Passes a new var through, checking in debug builds that its value is
    /// finite, as every value on the tape must be.
    fn checked(&self, v: VarId) -> VarId {
        debug_assert!(self.eval.value(v).all_finite(), "non-finite value entered the tape");
        v
    }

    /// Computes an op's value with `Eval`'s body and records it.
    fn op(
        &mut self,
        op: Op,
        inputs: impl IntoIterator<Item = VarId>,
        value: impl FnOnce(&mut Eval) -> VarId,
    ) -> VarId {
        let out = value(&mut self.eval);
        let start = self.inputs.len();
        self.inputs.extend(inputs);
        self.records.push(Record { op, inputs: start..self.inputs.len(), out });
        self.checked(out)
    }

    /// Reverse pass from a `[1]`-shaped loss node. Returns all accumulated
    /// gradients; leaves keep theirs so parameters and constants can be inspected.
    pub fn backward(&self, loss: VarId) -> Gradients {
        assert_eq!(self.value(loss).shape(), &[1], "loss must be a [1] scalar");
        let mut grads: Vec<Option<Tensor>> = (0..self.eval.vars()).map(|_| None).collect();
        grads[loss] = Some(Tensor::scalar(1.0));
        for rec in self.records.iter().rev().skip_while(|r| r.out > loss) {
            let Some(g) = grads[rec.out].take() else { continue };
            let mut put = |p: VarId, pg: Tensor| {
                debug_assert_eq!(pg.shape(), self.value(p).shape(), "gradient shape mismatch");
                match &mut grads[p] {
                    Some(acc) => acc.add_assign(&pg),
                    slot => *slot = Some(pg),
                }
            };
            self.backward_op(rec, &g, &mut put);
        }
        Gradients { grads }
    }

    /// One op's gradient rule: hands `put` each input's gradient contribution,
    /// in input order, given the gradient `g` flowing into the op's output.
    fn backward_op(&self, rec: &Record, g: &Tensor, put: &mut impl FnMut(VarId, Tensor)) {
        let ins = &self.inputs[rec.inputs.clone()];
        let a = ins[0];
        let (x, y) = (self.value(a), self.value(rec.out));
        match rec.op {
            Op::Add => {
                put(a, g.clone());
                put(ins[1], g.clone());
            }
            Op::Sub => {
                put(a, g.clone());
                put(ins[1], g.map(|x| -x));
            }
            Op::Mul => {
                put(a, g.zip_map(self.value(ins[1]), |gi, bi| gi * bi));
                put(ins[1], g.zip_map(x, |gi, ai| gi * ai));
            }
            Op::Div => {
                let b = self.value(ins[1]);
                put(a, g.zip_map(b, |gi, bi| gi / bi));
                let mut db = g.zip_map(x, |gi, ai| gi * ai);
                for (d, &bi) in db.data_mut().iter_mut().zip(b.data()) {
                    *d = -*d / (bi * bi);
                }
                put(ins[1], db);
            }
            Op::Scale(c) => put(a, g.map(|x| x * c)),
            Op::AddScalar => put(a, g.clone()),
            Op::AddRowvec | Op::SubRowvec => {
                let n = x.cols();
                let mut gv = vec![0.0; n];
                for i in 0..x.rows() {
                    for (s, &gi) in gv.iter_mut().zip(g.row(i)) {
                        *s += gi;
                    }
                }
                put(a, g.clone());
                let gv = Tensor::from_vec(vec![n], gv);
                put(ins[1], if matches!(rec.op, Op::SubRowvec) { gv.map(|x| -x) } else { gv });
            }
            Op::Matmul => {
                let b = self.value(ins[1]);
                put(a, la::matmul_nt(g, b));
                put(ins[1], la::matmul_tn(x, g));
            }
            Op::MatmulRows(ref starts) => {
                let b = self.value(ins[1]);
                let (k, n) = (x.cols(), b.cols());
                let (mut da, mut db) = (Tensor::zeros(x.shape()), Tensor::zeros(b.shape()));
                for (rows, s) in vops::bands(&self.idx[starts.clone()]) {
                    let g_rows = &g.data()[rows.start * n..rows.end * n];
                    let band = &b.data()[s * n..(s + k) * n];
                    let da_rows = &mut da.data_mut()[rows.start * k..rows.end * k];
                    mvi_kernels::matmul_nt(rows.len(), n, k, g_rows, band, da_rows);
                    let a_rows = &x.data()[rows.start * k..rows.end * k];
                    let db_band = &mut db.data_mut()[s * n..(s + k) * n];
                    mvi_kernels::matmul_tn(rows.len(), k, n, a_rows, g_rows, db_band);
                }
                put(a, da);
                put(ins[1], db);
            }
            Op::MatmulNtRows(ref rows) => {
                let (m, k, c) = (x.rows(), x.cols(), y.cols());
                let mut grads: Vec<Tensor> =
                    ins.iter().map(|&p| Tensor::zeros(self.value(p).shape())).collect();
                let (da, dkeys) = grads.split_first_mut().expect("a has a gradient");
                let mut g_seg = Vec::new();
                for b in vops::key_blocks(&self.pairs[rows.clone()], m) {
                    let (nr, w) = (b.rows.len(), b.cols.len());
                    // This block's columns of the incoming gradient, [nr, w].
                    let g_rows = &g.data()[b.rows.start * c..b.rows.end * c];
                    let g_blk = if w == c {
                        g_rows
                    } else {
                        g_seg.clear();
                        g_rows
                            .chunks_exact(c)
                            .for_each(|r| g_seg.extend_from_slice(&r[b.cols.clone()]));
                        &g_seg[..]
                    };
                    let key_rows =
                        &self.value(ins[1 + b.part]).data()[b.first * k..(b.first + w) * k];
                    let da_rows = &mut da.data_mut()[b.rows.start * k..b.rows.end * k];
                    mvi_kernels::matmul(nr, w, k, g_blk, key_rows, da_rows);
                    let a_rows = &x.data()[b.rows.start * k..b.rows.end * k];
                    let dkey_rows = &mut dkeys[b.part].data_mut()[b.first * k..(b.first + w) * k];
                    mvi_kernels::matmul_tn(nr, w, k, g_blk, a_rows, dkey_rows);
                }
                for (&p, pg) in ins.iter().zip(grads) {
                    put(p, pg);
                }
            }
            Op::Transpose => put(a, la::transpose(g)),
            Op::Dot => {
                let gs = g.at(0);
                put(a, self.value(ins[1]).map(|x| gs * x));
                put(ins[1], x.map(|x| gs * x));
            }
            Op::Relu => put(a, g.zip_map(x, |gi, xi| if xi > 0.0 { gi } else { 0.0 })),
            Op::Sigmoid => put(a, g.zip_map(y, |gi, si| gi * si * (1.0 - si))),
            Op::Tanh => put(a, g.zip_map(y, |gi, ti| gi * (1.0 - ti * ti))),
            Op::Exp => put(a, g.zip_map(y, |gi, ei| gi * ei)),
            Op::Square => put(a, g.zip_map(x, |gi, xi| 2.0 * gi * xi)),
            Op::Sum => put(a, Tensor::full(x.shape(), g.at(0))),
            Op::SumAxis1 => {
                let mut da = Tensor::zeros(x.shape());
                for i in 0..x.rows() {
                    let gi = g.at(i);
                    for d in da.row_mut(i) {
                        *d = gi;
                    }
                }
                put(a, da);
            }
            Op::Concat1d => {
                let mut off = 0;
                for &p in ins {
                    let l = self.value(p).len();
                    put(p, Tensor::from_slice(&g.data()[off..off + l]));
                    off += l;
                }
            }
            Op::ConcatCols => {
                let m = y.rows();
                let mut outs: Vec<Tensor> =
                    ins.iter().map(|&p| Tensor::zeros(&[m, self.value(p).cols()])).collect();
                for i in 0..m {
                    let grow = g.row(i);
                    let mut off = 0;
                    for t in &mut outs {
                        let w = t.cols();
                        t.row_mut(i).copy_from_slice(&grow[off..off + w]);
                        off += w;
                    }
                }
                for (&p, pg) in ins.iter().zip(outs) {
                    put(p, pg);
                }
            }
            Op::Row(i) => {
                let mut da = Tensor::zeros(x.shape());
                da.row_mut(i).copy_from_slice(g.data());
                put(a, da);
            }
            Op::Index1d(i) => {
                let mut da = Tensor::zeros(x.shape());
                da.data_mut()[i] = g.at(0);
                put(a, da);
            }
            Op::GatherRows(ref idx) => {
                let mut dt = Tensor::zeros(x.shape());
                for (r, &i) in self.idx[idx.clone()].iter().enumerate() {
                    for (acc, &gv) in dt.row_mut(i).iter_mut().zip(g.row(r)) {
                        *acc += gv;
                    }
                }
                put(a, dt);
            }
            Op::StackRows(ref idx) => {
                let mut dp: Vec<Tensor> =
                    ins.iter().map(|&p| Tensor::zeros(self.value(p).shape())).collect();
                for (r, &(part, i)) in self.pairs[idx.clone()].iter().enumerate() {
                    for (acc, &gv) in dp[part].row_mut(i).iter_mut().zip(g.row(r)) {
                        *acc += gv;
                    }
                }
                for (&p, pg) in ins.iter().zip(dp) {
                    put(p, pg);
                }
            }
            Op::ShiftRows(offset) => {
                let m = x.rows() as i64;
                let mut da = Tensor::zeros(x.shape());
                for j in 0..m {
                    let src = j - offset;
                    if src >= 0 && src < m {
                        da.row_mut(src as usize).copy_from_slice(g.row(j as usize));
                    }
                }
                put(a, da);
            }
            Op::Reshape => put(a, g.clone().reshape(x.shape())),
            Op::MaskedSoftmaxRows => {
                // d s_j = y_j (g_j - Σ_k g_k y_k) per row; masked entries have y = 0.
                let mut ds = Tensor::zeros(y.shape());
                for i in 0..y.rows() {
                    let (yrow, grow) = (y.row(i), g.row(i));
                    let inner: f64 = yrow.iter().zip(grow).map(|(&y, &gv)| y * gv).sum();
                    for (j, d) in ds.row_mut(i).iter_mut().enumerate() {
                        *d = yrow[j] * (grow[j] - inner);
                    }
                }
                put(a, ds);
            }
        }
    }

    /// Extracts the gradients of all bound parameters as `(ParamId, grad)` pairs.
    /// Parameters bound multiple times (shared weights) appear once per binding;
    /// [`ParamStore::accumulate`] sums them.
    pub fn param_grads(&self, grads: &Gradients) -> Vec<(ParamId, Tensor)> {
        self.param_binds
            .iter()
            .filter_map(|&(vid, pid)| grads.get(vid).map(|g| (pid, g.clone())))
            .collect()
    }

    /// The recorded ops, in issue order.
    #[cfg(test)]
    pub(crate) fn ops(&self) -> impl Iterator<Item = &Op> {
        self.records.iter().map(|r| &r.op)
    }
}

/// The recording backend: each op's value comes from `Eval`'s body, and the
/// composites (`affine`, `affine_vec`, `rbf_similarities`, `neg`, `mean`,
/// `mse`) keep the trait's default op chains, whose records backward needs.
impl Evaluator for Graph {
    type Var = VarId;

    /// Binds a parameter from the store as a leaf (an `Arc` share, no copy),
    /// recording the association so [`Graph::param_grads`] can route its
    /// gradient back after `backward`.
    fn param(&mut self, store: &ParamStore, id: ParamId) -> VarId {
        let v = self.eval.param(store, id);
        self.param_binds.push((v, id));
        v
    }

    fn input(&mut self, shape: &[usize], fill: impl FnOnce(&mut Tensor)) -> VarId {
        let v = self.eval.input(shape, fill);
        self.checked(v)
    }

    fn scalar(&mut self, v: f64) -> VarId {
        let v = self.eval.scalar(v);
        self.checked(v)
    }

    fn constant_slice(&mut self, v: &[f64]) -> VarId {
        let v = self.eval.constant_slice(v);
        self.checked(v)
    }

    fn value(&self, v: VarId) -> &Tensor {
        self.eval.value(v)
    }

    fn shape(&self, v: VarId) -> &[usize] {
        self.eval.shape(v)
    }

    fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.op(Op::Add, [a, b], |e| e.add(a, b))
    }

    fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        self.op(Op::Sub, [a, b], |e| e.sub(a, b))
    }

    fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        self.op(Op::Mul, [a, b], |e| e.mul(a, b))
    }

    fn div(&mut self, a: VarId, b: VarId) -> VarId {
        self.op(Op::Div, [a, b], |e| e.div(a, b))
    }

    fn scale(&mut self, a: VarId, c: f64) -> VarId {
        self.op(Op::Scale(c), [a], |e| e.scale(a, c))
    }

    fn add_scalar(&mut self, a: VarId, c: f64) -> VarId {
        self.op(Op::AddScalar, [a], |e| e.add_scalar(a, c))
    }

    fn add_rowvec(&mut self, a: VarId, v: VarId) -> VarId {
        self.op(Op::AddRowvec, [a, v], |e| e.add_rowvec(a, v))
    }

    fn sub_rowvec(&mut self, a: VarId, v: VarId) -> VarId {
        self.op(Op::SubRowvec, [a, v], |e| e.sub_rowvec(a, v))
    }

    fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        self.op(Op::Matmul, [a, b], |e| e.matmul(a, b))
    }

    fn matmul_rows(&mut self, a: VarId, b: VarId, starts: &[usize]) -> VarId {
        let at = stash(&mut self.idx, starts);
        self.op(Op::MatmulRows(at), [a, b], |e| e.matmul_rows(a, b, starts))
    }

    fn matmul_nt_rows(&mut self, a: VarId, keys: &[VarId], rows: &[(usize, usize)]) -> VarId {
        let at = stash(&mut self.pairs, rows);
        let inputs = std::iter::once(a).chain(keys.iter().copied());
        self.op(Op::MatmulNtRows(at), inputs, |e| e.matmul_nt_rows(a, keys, rows))
    }

    fn transpose(&mut self, a: VarId) -> VarId {
        self.op(Op::Transpose, [a], |e| e.transpose(a))
    }

    fn dot(&mut self, a: VarId, b: VarId) -> VarId {
        self.op(Op::Dot, [a, b], |e| e.dot(a, b))
    }

    fn relu(&mut self, a: VarId) -> VarId {
        self.op(Op::Relu, [a], |e| e.relu(a))
    }

    fn sigmoid(&mut self, a: VarId) -> VarId {
        self.op(Op::Sigmoid, [a], |e| e.sigmoid(a))
    }

    fn tanh(&mut self, a: VarId) -> VarId {
        self.op(Op::Tanh, [a], |e| e.tanh(a))
    }

    fn exp(&mut self, a: VarId) -> VarId {
        self.op(Op::Exp, [a], |e| e.exp(a))
    }

    fn square(&mut self, a: VarId) -> VarId {
        self.op(Op::Square, [a], |e| e.square(a))
    }

    fn sum(&mut self, a: VarId) -> VarId {
        self.op(Op::Sum, [a], |e| e.sum(a))
    }

    fn sum_axis1(&mut self, a: VarId) -> VarId {
        self.op(Op::SumAxis1, [a], |e| e.sum_axis1(a))
    }

    fn concat1d(&mut self, parts: &[VarId]) -> VarId {
        self.op(Op::Concat1d, parts.iter().copied(), |e| e.concat1d(parts))
    }

    fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        self.op(Op::ConcatCols, parts.iter().copied(), |e| e.concat_cols(parts))
    }

    fn row(&mut self, a: VarId, i: usize) -> VarId {
        self.op(Op::Row(i), [a], |e| e.row(a, i))
    }

    fn index1d(&mut self, a: VarId, i: usize) -> VarId {
        self.op(Op::Index1d(i), [a], |e| e.index1d(a, i))
    }

    fn gather_rows(&mut self, table: VarId, idx: &[usize]) -> VarId {
        let at = stash(&mut self.idx, idx);
        self.op(Op::GatherRows(at), [table], |e| e.gather_rows(table, idx))
    }

    fn stack_rows(&mut self, parts: &[VarId], idx: &[(usize, usize)]) -> VarId {
        let at = stash(&mut self.pairs, idx);
        self.op(Op::StackRows(at), parts.iter().copied(), |e| e.stack_rows(parts, idx))
    }

    fn shift_rows(&mut self, a: VarId, offset: i64) -> VarId {
        self.op(Op::ShiftRows(offset), [a], |e| e.shift_rows(a, offset))
    }

    fn reshape(&mut self, a: VarId, new_shape: &[usize]) -> VarId {
        self.op(Op::Reshape, [a], |e| e.reshape(a, new_shape))
    }

    fn masked_softmax_rows(&mut self, scores: VarId, mask: &Mask) -> VarId {
        self.op(Op::MaskedSoftmaxRows, [scores], |e| e.masked_softmax_rows(scores, mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_compose() {
        let mut g = Graph::new();
        let a = g.constant_slice(&[1.0, 2.0, 3.0]);
        let b = g.constant_slice(&[4.0, 5.0, 6.0]);
        let s = g.add(a, b);
        let p = g.mul(s, b);
        assert_eq!(g.value(p).data(), &[20.0, 35.0, 54.0]);
    }

    #[test]
    fn backward_through_chain() {
        // loss = mean((a*b - c)^2), a=[2], b=[3], c=[5] -> pred=6, d=1, loss=1
        let mut g = Graph::new();
        let a = g.constant_slice(&[2.0]);
        let b = g.constant_slice(&[3.0]);
        let p = g.mul(a, b);
        let loss = g.mse(p, &Tensor::scalar(5.0));
        assert!((g.value(loss).at(0) - 1.0).abs() < 1e-12);
        let grads = g.backward(loss);
        // dL/dp = 2(p-c) = 2 ; dL/da = 2*b = 6 ; dL/db = 2*a = 4
        assert!((grads.get(a).unwrap().at(0) - 6.0).abs() < 1e-12);
        assert!((grads.get(b).unwrap().at(0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_backward_shapes() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_fn(&[2, 3], |i| (i[0] + i[1]) as f64));
        let b = g.constant(Tensor::from_fn(&[3, 4], |i| (i[0] * 2 + i[1]) as f64));
        let c = g.matmul(a, b);
        let s = g.sum(c);
        let grads = g.backward(s);
        assert_eq!(grads.get(a).unwrap().shape(), &[2, 3]);
        assert_eq!(grads.get(b).unwrap().shape(), &[3, 4]);
    }

    #[test]
    fn shift_rows_moves_and_zero_fills() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_vec(vec![3, 1], vec![1.0, 2.0, 3.0]));
        let down = g.shift_rows(a, 1);
        assert_eq!(g.value(down).data(), &[0.0, 1.0, 2.0]);
        let up = g.shift_rows(a, -1);
        assert_eq!(g.value(up).data(), &[2.0, 3.0, 0.0]);
    }

    #[test]
    fn masked_softmax_excludes_and_handles_empty_rows() {
        let mut g = Graph::new();
        let s = g.constant(Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0]));
        let mut mask = Mask::trues(&[2, 3]);
        mask.set(&[0, 2], false); // exclude the largest entry of row 0
        mask.set(&[1, 0], false);
        mask.set(&[1, 1], false);
        mask.set(&[1, 2], false); // row 1 fully masked
        let y = g.masked_softmax_rows(s, &mask);
        let v = g.value(y);
        assert_eq!(v.m(0, 2), 0.0);
        assert!((v.m(0, 0) + v.m(0, 1) - 1.0).abs() < 1e-12);
        assert!(v.m(0, 1) > v.m(0, 0));
        assert_eq!(v.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn gather_rows_scatter_adds_duplicates() {
        let mut g = Graph::new();
        let table = g.constant(Tensor::from_fn(&[3, 2], |i| (i[0] * 2 + i[1]) as f64));
        let picked = g.gather_rows(table, &[1, 1, 2]);
        let s = g.sum(picked);
        let grads = g.backward(s);
        let dt = grads.get(table).unwrap();
        assert_eq!(dt.row(0), &[0.0, 0.0]);
        assert_eq!(dt.row(1), &[2.0, 2.0]); // gathered twice
        assert_eq!(dt.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn concat_cols_roundtrip_gradient() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_fn(&[2, 2], |_| 1.0));
        let b = g.constant(Tensor::from_fn(&[2, 3], |_| 2.0));
        let c = g.concat_cols(&[a, b]);
        assert_eq!(g.shape(c), &[2, 5]);
        let s = g.sum(c);
        let grads = g.backward(s);
        assert_eq!(grads.get(a).unwrap().shape(), &[2, 2]);
        assert_eq!(grads.get(b).unwrap().shape(), &[2, 3]);
        assert!(grads.get(a).unwrap().data().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn fan_out_gradients_accumulate() {
        // y = a + a  =>  dy/da = 2
        let mut g = Graph::new();
        let a = g.constant_slice(&[1.5]);
        let y = g.add(a, a);
        let s = g.sum(y);
        let grads = g.backward(s);
        assert_eq!(grads.get(a).unwrap().at(0), 2.0);
    }
}
