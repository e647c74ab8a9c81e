//! The differentiation tape and its operator set.

use crate::params::{ParamId, ParamStore};
use mvi_linalg::ops as la;
use mvi_tensor::{Mask, Tensor};
use std::sync::Arc;

/// Index of a node on the tape.
pub type VarId = usize;

/// Backward closure: given the gradient flowing into this node and the values of its
/// parents, produce the gradient contribution for each parent (same order/shapes).
type BackwardFn = Box<dyn Fn(&Tensor, &[&Tensor]) -> Vec<Tensor>>;

/// A node's value: owned for computed intermediates, shared for parameter
/// leaves (binding a parameter is a refcount bump on the store's `Arc`, not a
/// tensor clone — the store only copies-on-write at the next optimizer step).
enum NodeValue {
    Owned(Tensor),
    Param(Arc<Tensor>),
}

impl NodeValue {
    #[inline]
    fn get(&self) -> &Tensor {
        match self {
            NodeValue::Owned(t) => t,
            NodeValue::Param(t) => t,
        }
    }
}

struct Node {
    value: NodeValue,
    parents: Vec<VarId>,
    backward: Option<BackwardFn>,
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

/// A write-once computation tape. Build one per forward pass.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    param_binds: Vec<(VarId, ParamId)>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the tape for reuse, keeping the node and binding vectors'
    /// capacity. Inference paths that evaluate many small forward passes
    /// (one per window task) recycle one `Graph` instead of reallocating the
    /// tape spine per pass; all previously issued [`VarId`]s are invalidated.
    pub fn recycle(&mut self) {
        self.nodes.clear();
        self.param_binds.clear();
    }

    fn push(&mut self, value: Tensor, parents: Vec<VarId>, backward: Option<BackwardFn>) -> VarId {
        debug_assert!(value.all_finite(), "non-finite value entered the tape");
        let id = self.nodes.len();
        self.nodes.push(Node { value: NodeValue::Owned(value), parents, backward });
        id
    }

    /// Leaf holding a constant (no gradient will be requested for it, but one is
    /// still accumulated so constants can be promoted to parameters in tests).
    pub fn constant(&mut self, value: Tensor) -> VarId {
        self.push(value, vec![], None)
    }

    /// Convenience: rank-1 constant from a slice.
    pub fn constant_slice(&mut self, v: &[f64]) -> VarId {
        self.constant(Tensor::from_slice(v))
    }

    /// Convenience: `[1]`-shaped scalar constant.
    pub fn scalar(&mut self, v: f64) -> VarId {
        self.constant(Tensor::scalar(v))
    }

    /// Binds a parameter from the store as a leaf, recording the association so
    /// [`Graph::param_grads`] can route its gradient back after `backward`.
    /// Binding shares the store's tensor (`Arc` clone) — no data is copied,
    /// no matter how large the parameter or how often it is bound.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> VarId {
        debug_assert!(
            store.value(id).all_finite(),
            "non-finite parameter `{}` entered the tape",
            store.name(id)
        );
        let v = self.nodes.len();
        self.nodes.push(Node {
            value: NodeValue::Param(Arc::clone(store.value_arc(id))),
            parents: vec![],
            backward: None,
        });
        self.param_binds.push((v, id));
        v
    }

    /// Value of a node.
    pub fn value(&self, id: VarId) -> &Tensor {
        self.nodes[id].value.get()
    }

    /// Shape of a node's value.
    pub(crate) fn shape(&self, id: VarId) -> &[usize] {
        self.nodes[id].value.get().shape()
    }

    // ==================================================================
    // Arithmetic
    // ==================================================================

    /// Elementwise `a + b` (same shape).
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a].value.get().zip_map(self.nodes[b].value.get(), |x, y| x + y);
        self.push(v, vec![a, b], Some(Box::new(|g, _| vec![g.clone(), g.clone()])))
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a].value.get().zip_map(self.nodes[b].value.get(), |x, y| x - y);
        self.push(v, vec![a, b], Some(Box::new(|g, _| vec![g.clone(), g.map(|x| -x)])))
    }

    /// Elementwise `a * b` (same shape).
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a].value.get().zip_map(self.nodes[b].value.get(), |x, y| x * y);
        self.push(
            v,
            vec![a, b],
            Some(Box::new(|g, p| {
                vec![g.zip_map(p[1], |gi, bi| gi * bi), g.zip_map(p[0], |gi, ai| gi * ai)]
            })),
        )
    }

    /// Elementwise `a / b` (same shape). The caller is responsible for keeping `b`
    /// away from zero (use [`Graph::add_scalar`] for an epsilon).
    pub fn div(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a].value.get().zip_map(self.nodes[b].value.get(), |x, y| x / y);
        self.push(
            v,
            vec![a, b],
            Some(Box::new(|g, p| {
                let da = g.zip_map(p[1], |gi, bi| gi / bi);
                let mut db = g.zip_map(p[0], |gi, ai| gi * ai);
                for (d, &bi) in db.data_mut().iter_mut().zip(p[1].data()) {
                    *d = -*d / (bi * bi);
                }
                vec![da, db]
            })),
        )
    }

    /// `a * c` for a compile-time scalar `c`.
    pub fn scale(&mut self, a: VarId, c: f64) -> VarId {
        let v = self.nodes[a].value.get().map(|x| x * c);
        self.push(v, vec![a], Some(Box::new(move |g, _| vec![g.map(|x| x * c)])))
    }

    /// `a + c` for a compile-time scalar `c`.
    pub fn add_scalar(&mut self, a: VarId, c: f64) -> VarId {
        let v = self.nodes[a].value.get().map(|x| x + c);
        self.push(v, vec![a], Some(Box::new(|g, _| vec![g.clone()])))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: VarId) -> VarId {
        self.scale(a, -1.0)
    }

    /// Broadcast add of a row vector: `a[m,n] + v[n]`.
    pub fn add_rowvec(&mut self, a: VarId, v: VarId) -> VarId {
        let (m, n) = (self.nodes[a].value.get().rows(), self.nodes[a].value.get().cols());
        assert_eq!(self.nodes[v].value.get().shape(), &[n], "add_rowvec dim mismatch");
        let mut out = self.nodes[a].value.get().clone();
        let vv = self.nodes[v].value.get().data().to_vec();
        for i in 0..m {
            for (o, &b) in out.row_mut(i).iter_mut().zip(&vv) {
                *o += b;
            }
        }
        self.push(
            out,
            vec![a, v],
            Some(Box::new(move |g, _| {
                let mut gv = vec![0.0; n];
                for i in 0..m {
                    for (s, &gi) in gv.iter_mut().zip(g.row(i)) {
                        *s += gi;
                    }
                }
                vec![g.clone(), Tensor::from_vec(vec![n], gv)]
            })),
        )
    }

    /// Broadcast subtract of a row vector: `a[m,n] - v[n]`.
    pub fn sub_rowvec(&mut self, a: VarId, v: VarId) -> VarId {
        let nv = self.neg(v);
        self.add_rowvec(a, nv)
    }

    // ==================================================================
    // Linear algebra
    // ==================================================================

    /// Matrix product `a[m,k] · b[k,n]`.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = la::matmul(self.nodes[a].value.get(), self.nodes[b].value.get());
        self.push(
            v,
            vec![a, b],
            Some(Box::new(|g, p| vec![la::matmul_nt(g, p[1]), la::matmul_tn(p[0], g)])),
        )
    }

    /// `a[m,k] · b[bands]`: row `i` is row `i` of `a` times the `k` rows of
    /// `b[·,n]` from `starts[i]`, one GEMM per run of rows that share a band.
    /// Rows of `b` outside every band get zero gradient.
    pub fn matmul_rows(&mut self, a: VarId, b: VarId, starts: &[usize]) -> VarId {
        let (m, k) = (self.nodes[a].value.get().rows(), self.nodes[a].value.get().cols());
        let (b_rows, n) = (self.nodes[b].value.get().rows(), self.nodes[b].value.get().cols());
        assert_eq!(starts.len(), m, "matmul_rows needs one band start per row");
        assert!(starts.iter().all(|&s| s + k <= b_rows), "matmul_rows band past {b_rows} rows");
        let starts = starts.to_vec();
        let mut v = Tensor::zeros(&[m, n]);
        let (av, bv) = (self.nodes[a].value.get().data(), self.nodes[b].value.get().data());
        for (rows, s) in crate::vops::bands(&starts) {
            let c = &mut v.data_mut()[rows.start * n..rows.end * n];
            let a_rows = &av[rows.start * k..rows.end * k];
            mvi_kernels::matmul(rows.len(), k, n, a_rows, &bv[s * n..(s + k) * n], c);
        }
        self.push(
            v,
            vec![a, b],
            Some(Box::new(move |g, p| {
                let (mut da, mut db) = (Tensor::zeros(p[0].shape()), Tensor::zeros(p[1].shape()));
                for (rows, s) in crate::vops::bands(&starts) {
                    let g_rows = &g.data()[rows.start * n..rows.end * n];
                    let band = &p[1].data()[s * n..(s + k) * n];
                    let da_rows = &mut da.data_mut()[rows.start * k..rows.end * k];
                    mvi_kernels::matmul_nt(rows.len(), n, k, g_rows, band, da_rows);
                    let a_rows = &p[0].data()[rows.start * k..rows.end * k];
                    let db_band = &mut db.data_mut()[s * n..(s + k) * n];
                    mvi_kernels::matmul_tn(rows.len(), k, n, a_rows, g_rows, db_band);
                }
                vec![da, db]
            })),
        )
    }

    /// `a[m,k]` against per-row keys, `(part, row)` pairs into `keys`
    /// ([`crate::eval::Evaluator::matmul_nt_rows`]), yielding `[m, c]`. Key
    /// rows no output reads get zero gradient.
    pub fn matmul_nt_rows(&mut self, a: VarId, keys: &[VarId], rows: &[(usize, usize)]) -> VarId {
        let (m, k) = (self.nodes[a].value.get().rows(), self.nodes[a].value.get().cols());
        for &key in keys {
            assert_eq!(self.nodes[key].value.get().cols(), k, "matmul_nt_rows inner dims");
        }
        assert!(
            rows.iter().all(|&(part, r)| r < self.nodes[keys[part]].value.get().rows()),
            "matmul_nt_rows key row out of range"
        );
        let c = rows.len() / m.max(1);
        let mut v = Tensor::zeros(&[m, c]);
        let part = |j: usize| self.nodes[keys[j]].value.get().data();
        let av = self.nodes[a].value.get().data();
        let (mut seg, mut pack) = (Vec::new(), Vec::new());
        crate::vops::matmul_nt_keyed_into(m, k, av, part, rows, v.data_mut(), &mut seg, &mut pack);
        let rows = rows.to_vec();
        let mut inputs = vec![a];
        inputs.extend_from_slice(keys);
        self.push(
            v,
            inputs,
            Some(Box::new(move |g, p| {
                let mut grads: Vec<Tensor> = p.iter().map(|t| Tensor::zeros(t.shape())).collect();
                let (da, dkeys) = grads.split_first_mut().expect("a has a gradient");
                let mut g_seg = Vec::new();
                for b in crate::vops::key_blocks(&rows, m) {
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
                    let key_rows = &p[1 + b.part].data()[b.first * k..(b.first + w) * k];
                    let da_rows = &mut da.data_mut()[b.rows.start * k..b.rows.end * k];
                    mvi_kernels::matmul(nr, w, k, g_blk, key_rows, da_rows);
                    let a_rows = &p[0].data()[b.rows.start * k..b.rows.end * k];
                    let dkey_rows = &mut dkeys[b.part].data_mut()[b.first * k..(b.first + w) * k];
                    mvi_kernels::matmul_tn(nr, w, k, g_blk, a_rows, dkey_rows);
                }
                grads
            })),
        )
    }

    /// Transpose of a rank-2 value.
    pub fn transpose(&mut self, a: VarId) -> VarId {
        let v = la::transpose(self.nodes[a].value.get());
        self.push(v, vec![a], Some(Box::new(|g, _| vec![la::transpose(g)])))
    }

    /// Dot product of two rank-1 values, yielding a `[1]` scalar.
    pub fn dot(&mut self, a: VarId, b: VarId) -> VarId {
        assert_eq!(
            self.nodes[a].value.get().shape(),
            self.nodes[b].value.get().shape(),
            "dot shape"
        );
        let v: f64 = la::dot(self.nodes[a].value.get().data(), self.nodes[b].value.get().data());
        self.push(
            Tensor::scalar(v),
            vec![a, b],
            Some(Box::new(|g, p| {
                let gs = g.at(0);
                vec![p[1].map(|x| gs * x), p[0].map(|x| gs * x)]
            })),
        )
    }

    // ==================================================================
    // Nonlinearities
    // ==================================================================

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a].value.get().map(|x| x.max(0.0));
        self.push(
            v,
            vec![a],
            Some(Box::new(|g, p| vec![g.zip_map(p[0], |gi, xi| if xi > 0.0 { gi } else { 0.0 })])),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a].value.get().map(|x| 1.0 / (1.0 + (-x).exp()));
        let saved = v.clone();
        self.push(
            v,
            vec![a],
            Some(Box::new(move |g, _| vec![g.zip_map(&saved, |gi, si| gi * si * (1.0 - si))])),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a].value.get().map(f64::tanh);
        let saved = v.clone();
        self.push(
            v,
            vec![a],
            Some(Box::new(move |g, _| vec![g.zip_map(&saved, |gi, ti| gi * (1.0 - ti * ti))])),
        )
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a].value.get().map(f64::exp);
        let saved = v.clone();
        self.push(v, vec![a], Some(Box::new(move |g, _| vec![g.zip_map(&saved, |gi, ei| gi * ei)])))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a].value.get().map(|x| x * x);
        self.push(v, vec![a], Some(Box::new(|g, p| vec![g.zip_map(p[0], |gi, xi| 2.0 * gi * xi)])))
    }

    // ==================================================================
    // Reductions
    // ==================================================================

    /// Sum of all elements, `[1]`-shaped.
    pub fn sum(&mut self, a: VarId) -> VarId {
        let shape = self.nodes[a].value.get().shape().to_vec();
        let v = self.nodes[a].value.get().sum();
        self.push(
            Tensor::scalar(v),
            vec![a],
            Some(Box::new(move |g, _| vec![Tensor::full(&shape, g.at(0))])),
        )
    }

    /// Mean of all elements, `[1]`-shaped.
    pub fn mean(&mut self, a: VarId) -> VarId {
        let n = self.nodes[a].value.get().len().max(1) as f64;
        let s = self.sum(a);
        self.scale(s, 1.0 / n)
    }

    /// Row sums of `a[m,n]`, yielding `[m]`.
    pub fn sum_axis1(&mut self, a: VarId) -> VarId {
        let (m, n) = (self.nodes[a].value.get().rows(), self.nodes[a].value.get().cols());
        let mut out = vec![0.0; m];
        for i in 0..m {
            out[i] = self.nodes[a].value.get().row(i).iter().sum();
        }
        self.push(
            Tensor::from_vec(vec![m], out),
            vec![a],
            Some(Box::new(move |g, _| {
                let mut da = Tensor::zeros(&[m, n]);
                for i in 0..m {
                    let gi = g.at(i);
                    for d in da.row_mut(i) {
                        *d = gi;
                    }
                }
                vec![da]
            })),
        )
    }

    // ==================================================================
    // Structure: concat / slicing / gather / shifting / reshape
    // ==================================================================

    /// Concatenates rank-1 values into one rank-1 value.
    pub fn concat1d(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "concat1d of nothing");
        let mut data = Vec::new();
        let mut lens = Vec::with_capacity(parts.len());
        for &p in parts {
            let v = self.nodes[p].value.get();
            assert_eq!(v.ndim(), 1, "concat1d needs rank-1 parts");
            lens.push(v.len());
            data.extend_from_slice(v.data());
        }
        let total = data.len();
        self.push(
            Tensor::from_vec(vec![total], data),
            parts.to_vec(),
            Some(Box::new(move |g, _| {
                let mut out = Vec::with_capacity(lens.len());
                let mut off = 0;
                for &l in &lens {
                    out.push(Tensor::from_slice(&g.data()[off..off + l]));
                    off += l;
                }
                out
            })),
        )
    }

    /// Concatenates rank-2 values with equal row counts along the column axis.
    pub fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let m = self.nodes[parts[0]].value.get().rows();
        let widths: Vec<usize> = parts
            .iter()
            .map(|&p| {
                assert_eq!(self.nodes[p].value.get().rows(), m, "concat_cols row mismatch");
                self.nodes[p].value.get().cols()
            })
            .collect();
        let total: usize = widths.iter().sum();
        let mut out = Tensor::zeros(&[m, total]);
        for i in 0..m {
            let orow = out.row_mut(i);
            let mut off = 0;
            for (&p, &w) in parts.iter().zip(&widths) {
                orow[off..off + w].copy_from_slice(self.nodes[p].value.get().row(i));
                off += w;
            }
        }
        self.push(
            out,
            parts.to_vec(),
            Some(Box::new(move |g, _| {
                let mut outs: Vec<Tensor> =
                    widths.iter().map(|&w| Tensor::zeros(&[m, w])).collect();
                for i in 0..m {
                    let grow = g.row(i);
                    let mut off = 0;
                    for (t, &w) in outs.iter_mut().zip(&widths) {
                        t.row_mut(i).copy_from_slice(&grow[off..off + w]);
                        off += w;
                    }
                }
                outs
            })),
        )
    }

    /// Row `i` of a rank-2 value, as a rank-1 value.
    pub fn row(&mut self, a: VarId, i: usize) -> VarId {
        let (m, n) = (self.nodes[a].value.get().rows(), self.nodes[a].value.get().cols());
        assert!(i < m, "row {i} out of {m}");
        let v = Tensor::from_slice(self.nodes[a].value.get().row(i));
        self.push(
            v,
            vec![a],
            Some(Box::new(move |g, _| {
                let mut da = Tensor::zeros(&[m, n]);
                da.row_mut(i).copy_from_slice(g.data());
                vec![da]
            })),
        )
    }

    /// Element `i` of a rank-1 value, as a `[1]` scalar.
    pub fn index1d(&mut self, a: VarId, i: usize) -> VarId {
        let n = self.nodes[a].value.get().len();
        assert!(i < n, "index {i} out of {n}");
        let v = Tensor::scalar(self.nodes[a].value.get().at(i));
        self.push(
            v,
            vec![a],
            Some(Box::new(move |g, _| {
                let mut da = Tensor::zeros(&[n]);
                da.data_mut()[i] = g.at(0);
                vec![da]
            })),
        )
    }

    /// Gathers rows of `table[v,d]` by index, yielding `[idx.len(), d]`. Backward
    /// scatter-adds, which makes this the embedding-lookup primitive.
    pub fn gather_rows(&mut self, table: VarId, idx: &[usize]) -> VarId {
        let (vocab, d) =
            (self.nodes[table].value.get().rows(), self.nodes[table].value.get().cols());
        let mut out = Tensor::zeros(&[idx.len(), d]);
        for (r, &i) in idx.iter().enumerate() {
            assert!(i < vocab, "gather index {i} out of vocabulary {vocab}");
            out.row_mut(r).copy_from_slice(self.nodes[table].value.get().row(i));
        }
        let idx = idx.to_vec();
        self.push(
            out,
            vec![table],
            Some(Box::new(move |g, _| {
                let mut dt = Tensor::zeros(&[vocab, d]);
                for (r, &i) in idx.iter().enumerate() {
                    for (acc, &gv) in dt.row_mut(i).iter_mut().zip(g.row(r)) {
                        *acc += gv;
                    }
                }
                vec![dt]
            })),
        )
    }

    /// Stacks rows of rank-2 values with equal column counts: output row `r`
    /// is row `idx[r].1` of `parts[idx[r].0]`. Backward scatter-adds into
    /// each part.
    pub fn stack_rows(&mut self, parts: &[VarId], idx: &[(usize, usize)]) -> VarId {
        assert!(!parts.is_empty(), "stack_rows of nothing");
        let d = self.nodes[parts[0]].value.get().cols();
        let mut out = Tensor::zeros(&[idx.len(), d]);
        for (r, &(part, i)) in idx.iter().enumerate() {
            let src = self.nodes[parts[part]].value.get();
            assert_eq!(src.cols(), d, "stack_rows column mismatch");
            out.row_mut(r).copy_from_slice(src.row(i));
        }
        let idx = idx.to_vec();
        self.push(
            out,
            parts.to_vec(),
            Some(Box::new(move |g, p| {
                let mut dp: Vec<Tensor> = p.iter().map(|t| Tensor::zeros(t.shape())).collect();
                for (r, &(part, i)) in idx.iter().enumerate() {
                    for (acc, &gv) in dp[part].row_mut(i).iter_mut().zip(g.row(r)) {
                        *acc += gv;
                    }
                }
                dp
            })),
        )
    }

    /// Shifts the rows of `a[m,n]` by `offset` (positive = down), zero-filling.
    ///
    /// `shift_rows(Y, 1)` yields `Y_{j-1}` at row `j` — the "left window" of Eq 8;
    /// `shift_rows(Y, -1)` yields `Y_{j+1}` — the "right window".
    pub fn shift_rows(&mut self, a: VarId, offset: i64) -> VarId {
        let (m, n) = (self.nodes[a].value.get().rows(), self.nodes[a].value.get().cols());
        let mut out = Tensor::zeros(&[m, n]);
        crate::vops::shift_rows_into(self.nodes[a].value.get(), offset, &mut out);
        self.push(
            out,
            vec![a],
            Some(Box::new(move |g, _| {
                let mut da = Tensor::zeros(&[m, n]);
                for j in 0..m as i64 {
                    let src = j - offset;
                    if src >= 0 && src < m as i64 {
                        da.row_mut(src as usize).copy_from_slice(g.row(j as usize));
                    }
                }
                vec![da]
            })),
        )
    }

    /// Reinterprets the value under a new shape (same volume).
    pub fn reshape(&mut self, a: VarId, new_shape: &[usize]) -> VarId {
        let old_shape = self.nodes[a].value.get().shape().to_vec();
        let v = self.nodes[a].value.get().clone().reshape(new_shape);
        self.push(v, vec![a], Some(Box::new(move |g, _| vec![g.clone().reshape(&old_shape)])))
    }

    // ==================================================================
    // Attention & losses
    // ==================================================================

    /// Row-wise softmax over `scores[m,n]` with entries where `mask` is `false`
    /// excluded (their output weight is exactly zero). Rows whose mask is entirely
    /// `false` produce an all-zero row (and propagate zero gradient), which encodes
    /// "no available key window" (Eq 9).
    pub fn masked_softmax_rows(&mut self, scores: VarId, mask: &Mask) -> VarId {
        let (m, n) = (self.nodes[scores].value.get().rows(), self.nodes[scores].value.get().cols());
        let mut out = Tensor::zeros(&[m, n]);
        // Shared with the value-only evaluator so the two backends cannot
        // drift (see `crate::vops`).
        crate::vops::masked_softmax_rows_into(self.nodes[scores].value.get(), mask, &mut out);
        let saved = out.clone();
        self.push(
            out,
            vec![scores],
            Some(Box::new(move |g, _| {
                // d s_j = y_j (g_j - Σ_k g_k y_k) per row; masked entries have y = 0.
                let mut ds = Tensor::zeros(&[m, n]);
                for i in 0..m {
                    let yrow = saved.row(i);
                    let grow = g.row(i);
                    let inner: f64 = yrow.iter().zip(grow).map(|(&y, &gv)| y * gv).sum();
                    for (j, d) in ds.row_mut(i).iter_mut().enumerate() {
                        *d = yrow[j] * (grow[j] - inner);
                    }
                }
                vec![ds]
            })),
        )
    }

    /// Mean squared error between a prediction and a constant target, `[1]`-shaped.
    pub fn mse(&mut self, pred: VarId, target: &Tensor) -> VarId {
        let t = self.constant(target.clone());
        let d = self.sub(pred, t);
        let sq = self.square(d);
        self.mean(sq)
    }

    // ==================================================================
    // Backward
    // ==================================================================

    /// Reverse pass from a `[1]`-shaped loss node. Returns all accumulated
    /// gradients; leaves keep theirs so parameters and constants can be inspected.
    pub fn backward(&self, loss: VarId) -> Gradients {
        assert_eq!(self.nodes[loss].value.get().shape(), &[1], "loss must be a [1] scalar");
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        grads[loss] = Some(Tensor::scalar(1.0));
        for id in (0..=loss).rev() {
            let node = &self.nodes[id];
            let Some(backward) = node.backward.as_ref() else { continue };
            let Some(g) = grads[id].take() else { continue };
            let parent_vals: Vec<&Tensor> =
                node.parents.iter().map(|&p| self.nodes[p].value.get()).collect();
            let pgrads = backward(&g, &parent_vals);
            debug_assert_eq!(pgrads.len(), node.parents.len());
            for (&p, pg) in node.parents.iter().zip(pgrads) {
                debug_assert_eq!(
                    pg.shape(),
                    self.nodes[p].value.get().shape(),
                    "gradient shape mismatch"
                );
                match &mut grads[p] {
                    Some(acc) => acc.add_assign(&pg),
                    slot => *slot = Some(pg),
                }
            }
        }
        Gradients { grads }
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
}

/// The tape is one of the two forward backends (the recording one): model
/// forward code written against [`crate::eval::Evaluator`] runs on the tape
/// during training — gaining a backward pass — and on [`crate::eval::Eval`]
/// during inference, with bitwise-identical values.
impl crate::eval::Evaluator for Graph {
    type Var = VarId;

    fn param(&mut self, store: &ParamStore, id: ParamId) -> VarId {
        Graph::param(self, store, id)
    }

    fn input(&mut self, shape: &[usize], fill: impl FnOnce(&mut Tensor)) -> VarId {
        let mut t = Tensor::zeros(shape);
        fill(&mut t);
        Graph::constant(self, t)
    }

    fn scalar(&mut self, v: f64) -> VarId {
        Graph::scalar(self, v)
    }

    fn constant_slice(&mut self, v: &[f64]) -> VarId {
        Graph::constant_slice(self, v)
    }

    fn value(&self, v: VarId) -> &Tensor {
        Graph::value(self, v)
    }

    fn shape(&self, v: VarId) -> &[usize] {
        Graph::shape(self, v)
    }

    fn add(&mut self, a: VarId, b: VarId) -> VarId {
        Graph::add(self, a, b)
    }

    fn div(&mut self, a: VarId, b: VarId) -> VarId {
        Graph::div(self, a, b)
    }

    fn scale(&mut self, a: VarId, c: f64) -> VarId {
        Graph::scale(self, a, c)
    }

    fn add_scalar(&mut self, a: VarId, c: f64) -> VarId {
        Graph::add_scalar(self, a, c)
    }

    fn add_rowvec(&mut self, a: VarId, v: VarId) -> VarId {
        Graph::add_rowvec(self, a, v)
    }

    fn sub_rowvec(&mut self, a: VarId, v: VarId) -> VarId {
        Graph::sub_rowvec(self, a, v)
    }

    fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        Graph::matmul(self, a, b)
    }

    fn matmul_rows(&mut self, a: VarId, b: VarId, starts: &[usize]) -> VarId {
        Graph::matmul_rows(self, a, b, starts)
    }

    fn matmul_nt_rows(&mut self, a: VarId, keys: &[VarId], rows: &[(usize, usize)]) -> VarId {
        Graph::matmul_nt_rows(self, a, keys, rows)
    }

    fn dot(&mut self, a: VarId, b: VarId) -> VarId {
        Graph::dot(self, a, b)
    }

    fn relu(&mut self, a: VarId) -> VarId {
        Graph::relu(self, a)
    }

    fn exp(&mut self, a: VarId) -> VarId {
        Graph::exp(self, a)
    }

    fn square(&mut self, a: VarId) -> VarId {
        Graph::square(self, a)
    }

    fn sum(&mut self, a: VarId) -> VarId {
        Graph::sum(self, a)
    }

    fn sum_axis1(&mut self, a: VarId) -> VarId {
        Graph::sum_axis1(self, a)
    }

    fn concat1d(&mut self, parts: &[VarId]) -> VarId {
        Graph::concat1d(self, parts)
    }

    fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        Graph::concat_cols(self, parts)
    }

    fn row(&mut self, a: VarId, i: usize) -> VarId {
        Graph::row(self, a, i)
    }

    fn gather_rows(&mut self, table: VarId, idx: &[usize]) -> VarId {
        Graph::gather_rows(self, table, idx)
    }

    fn stack_rows(&mut self, parts: &[VarId], idx: &[(usize, usize)]) -> VarId {
        Graph::stack_rows(self, parts, idx)
    }

    fn shift_rows(&mut self, a: VarId, offset: i64) -> VarId {
        Graph::shift_rows(self, a, offset)
    }

    fn reshape(&mut self, a: VarId, new_shape: &[usize]) -> VarId {
        Graph::reshape(self, a, new_shape)
    }

    fn masked_softmax_rows(&mut self, scores: VarId, mask: &Mask) -> VarId {
        Graph::masked_softmax_rows(self, scores, mask)
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
