//! Property-based gradient verification: randomly-shaped compositions of tape
//! operators must always agree with central finite differences. This complements
//! the hand-picked cases in `src/check.rs` with adversarial shapes and values.

use mvi_autograd::{check_gradients, Evaluator, Graph, ParamStore, VarId};
use mvi_tensor::{Mask, Tensor};
use proptest::prelude::*;

/// Strategy: a small matrix with bounded, well-conditioned entries.
fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-1.5f64..1.5, rows * cols)
        .prop_map(move |v| Tensor::from_vec(vec![rows, cols], v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_add_relu_chain(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
        bias in proptest::collection::vec(-1.0f64..1.0, 2),
    ) {
        let mut store = ParamStore::new();
        let pa = store.add("a", a);
        let pb = store.add("b", b);
        let pbias = store.add("bias", Tensor::from_slice(&bias));
        check_gradients(
            &mut store,
            &mut |store, g| {
                let av = g.param(store, pa);
                let bv = g.param(store, pb);
                let biasv = g.param(store, pbias);
                let prod = g.matmul(av, bv);
                let with_bias = g.add_rowvec(prod, biasv);
                let act = g.relu(with_bias);
                let sq = g.square(act);
                g.mean(sq)
            },
            1e-6,
            1e-4,
        ).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn softmax_attention_chain(
        q in small_matrix(3, 3),
        v in small_matrix(3, 2),
        mask_bits in proptest::collection::vec(any::<bool>(), 9),
    ) {
        // Ensure at least one unmasked column so rows aren't all dead.
        let mut bits = mask_bits;
        bits[0] = true;
        bits[3] = true;
        bits[6] = true;
        let mask = Mask::from_vec(vec![3, 3], bits);
        let mut store = ParamStore::new();
        let pq = store.add("q", q);
        let pv = store.add("v", v);
        check_gradients(
            &mut store,
            &mut |store, g| {
                let qv = g.param(store, pq);
                let vv = g.param(store, pv);
                let qt = g.transpose(qv);
                let scores = g.matmul(qv, qt);
                let attn = g.masked_softmax_rows(scores, &mask);
                let out = g.matmul(attn, vv);
                let sq = g.square(out);
                g.sum(sq)
            },
            1e-6,
            1e-4,
        ).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn kernel_regression_shape_chain(
        table in small_matrix(5, 3),
        values in proptest::collection::vec(-1.0f64..1.0, 4),
    ) {
        let mut store = ParamStore::new();
        let pt = store.add("table", table);
        let vals = Tensor::from_slice(&values);
        check_gradients(
            &mut store,
            &mut |store, g| {
                let tv = g.param(store, pt);
                let own = g.gather_rows(tv, &[0]);
                let own_vec = g.reshape(own, &[3]);
                let sibs = g.gather_rows(tv, &[1, 2, 3, 4]);
                let diff = g.sub_rowvec(sibs, own_vec);
                let sq = g.square(diff);
                let dists = g.sum_axis1(sq);
                let neg = g.scale(dists, -1.0);
                let sim = g.exp(neg);
                let valc = g.constant(vals.clone());
                let num = g.dot(sim, valc);
                let den = g.sum(sim);
                let den = g.add_scalar(den, 1e-6);
                let u = g.div(num, den);
                g.square(u)
            },
            1e-6,
            1e-4,
        ).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn shift_concat_mul_chain(
        a in small_matrix(4, 3),
        offset in -2i64..=2,
    ) {
        let mut store = ParamStore::new();
        let pa = store.add("a", a);
        check_gradients(
            &mut store,
            &mut |store, g| {
                let av = g.param(store, pa);
                let shifted = g.shift_rows(av, offset);
                let cat = g.concat_cols(&[av, shifted]);
                let t = g.tanh(cat);
                let s = g.sigmoid(t);
                g.mean(s)
            },
            1e-6,
            1e-4,
        ).map_err(TestCaseError::fail)?;
    }
}

/// Non-proptest structural checks for the tape itself.
#[test]
fn backward_only_visits_ancestors() {
    let mut g = Graph::new();
    let a = g.constant_slice(&[1.0, 2.0]);
    let b = g.constant_slice(&[3.0, 4.0]);
    let used = g.mul(a, a);
    let loss = g.mean(used);
    let _unused: VarId = g.mul(b, b); // after loss; must not disturb backward
    let grads = g.backward(loss);
    assert!(grads.get(a).is_some());
    assert!(grads.get(b).is_none(), "unrelated node received a gradient");
}

#[test]
fn gradient_accumulates_across_many_uses() {
    // y = sum over k uses of the same leaf: dy/da = k.
    let mut g = Graph::new();
    let a = g.constant_slice(&[1.0]);
    let mut acc = a;
    let k = 7;
    for _ in 0..k - 1 {
        acc = g.add(acc, a);
    }
    let loss = g.sum(acc);
    let grads = g.backward(loss);
    assert_eq!(grads.get(a).unwrap().at(0), k as f64);
}
