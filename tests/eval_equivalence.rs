//! Differential tests for the tape-free forward evaluator: the value-only
//! `Eval` backend must be **bitwise identical** to the differentiation-tape
//! path over randomized models, datasets and windows — including windows past
//! the trained length (rolled temporal horizon) — and the batch path's shared
//! K/V tables to the per-window path. CI runs this suite under
//! `MVI_THREADS=1`, `MVI_THREADS=2` and the default thread budget, so the
//! guarantee holds across worker splits too.

use deepmvi::{DeepMviConfig, DeepMviModel, InferScratch, KernelMode, TapeScratch, WindowQuery};
use mvi_data::dataset::ObservedDataset;
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use proptest::prelude::*;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn config_case(
    variant: u8,
    p: usize,
    n_heads: usize,
    ctx_windows: usize,
    seed: u64,
) -> DeepMviConfig {
    let mut cfg = DeepMviConfig {
        p,
        n_heads,
        ctx_windows,
        embed_dim: 4,
        max_siblings: 3, // small enough that the top-L pre-selection triggers
        seed,
        ..DeepMviConfig::tiny()
    };
    // Sweep the ablation space so every forward component (and its absence)
    // is covered: transformer, context window, fine-grained mean, kernel
    // regression in all three modes.
    match variant % 5 {
        0 => {}
        1 => cfg.kernel_mode = KernelMode::Off,
        2 => {
            cfg.use_temporal_transformer = false;
            cfg.kernel_mode = KernelMode::Flattened;
        }
        3 => cfg.use_context_window = false,
        _ => {
            cfg.use_fine_grained = false;
        }
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The core contract of the serving hot path: for every missing-window
    /// query of a random model/dataset, the tape-free evaluator reproduces
    /// the tape's predictions bit for bit — in-range windows, rolled-horizon
    /// windows past the trained length, and scratch reuse across queries.
    #[test]
    fn eval_backend_is_bitwise_identical_to_the_tape(
        n_series in 2usize..5,
        t_len in 6usize..14, // in windows of 10
        variant in 0u8..5,
        p_small in 0u8..2,
        n_heads in 1usize..3,
        ctx_windows in 4usize..12,
        seed in 0u64..500,
    ) {
        let t_len = t_len * 10;
        let p = if p_small == 0 { 4usize } else { 8 };
        let ds = generate_with_shape(DatasetName::Chlorine, &[n_series], t_len, seed);
        let mut obs = Scenario::mcar(1.0).apply(&ds, seed % 17).observed();
        let cfg = config_case(variant, p, n_heads, ctx_windows, seed);
        let model = DeepMviModel::new(&cfg, &obs);
        let w = model.window();

        // Grow the dataset past the trained length so rolled-horizon windows
        // are part of every run: one observed window, one missing window.
        obs.extend_time(t_len + 2 * w);
        for s in 0..n_series {
            let vals: Vec<f64> =
                (0..w).map(|i| ((t_len + i) as f64 / 7.0 + s as f64).sin()).collect();
            obs.record_range(s, t_len, &vals);
        }

        let queries = model.missing_queries(&obs);
        prop_assert!(!queries.is_empty(), "fixture lost its missing values");
        prop_assert!(
            queries.iter().any(|q| q.positions.iter().any(|&t| t >= t_len)),
            "no rolled-horizon queries in the grown region"
        );

        let mut tape = TapeScratch::new();
        let mut eval = InferScratch::new();
        let mut out = Vec::new();
        for q in &queries {
            let expect = model.predict_window_tape(&mut tape, &obs, q);
            out.clear();
            model.predict_window_into(&mut eval, &obs, q, &mut out);
            prop_assert!(
                bits(&expect) == bits(&out),
                "tape and eval diverged on s={} window={}",
                q.s,
                q.window_j
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The batch path's K/V tables: `predict_batch`, which evaluates each
    /// run of same-series queries against one table over the hull of their
    /// contexts, equals a per-query `predict_window_into` loop (each query
    /// against its own context) bitwise, at 1 and 4 workers. Covered: every
    /// ablation variant (the context window off included), rolled-horizon
    /// windows past the trained length, contexts as short as one window,
    /// and a sparse batch that holds only each series' first, middle and
    /// last windows, so the middle query's context lies strictly inside the
    /// table on both sides.
    #[test]
    fn batch_tables_are_bitwise_identical_to_per_window_passes(
        n_series in 2usize..4,
        t_len in 8usize..16, // in windows of 10
        variant in 0u8..5,
        n_heads in 1usize..3,
        seed in 0u64..500,
    ) {
        let t_len = t_len * 10;
        let ds = generate_with_shape(DatasetName::Chlorine, &[n_series], t_len, seed);
        let mut obs = Scenario::mcar(1.0).apply(&ds, seed % 13).observed();
        // Contexts of one and two windows make the target an edge row.
        let models: Vec<DeepMviModel> = [1, 2, 3, 6]
            .into_iter()
            .map(|ctx| DeepMviModel::new(&config_case(variant, 4, n_heads, ctx, seed), &obs))
            .collect();
        let w = models[0].window();
        obs.extend_time(t_len + 2 * w);
        for s in 0..n_series {
            let vals: Vec<f64> =
                (0..w).map(|i| ((t_len + i) as f64 / 5.0 + s as f64).cos()).collect();
            obs.record_range(s, t_len, &vals);
        }
        for model in &models {
            assert_batch_matches_per_window(model, &obs)?;
        }
    }
}

/// `predict_batch` against per-query `predict_window_into`, bitwise, over
/// every missing query of `obs` and over a sparse batch of each series'
/// windows `0`, `n / 2` and `n − 1` (`n` trained windows).
fn assert_batch_matches_per_window(
    model: &DeepMviModel,
    obs: &ObservedDataset,
) -> Result<(), TestCaseError> {
    let w = model.window();
    let n = model.t_len() / w;

    let missing = model.missing_queries(obs);
    prop_assert!(
        missing.iter().any(|q| q.window_j >= n),
        "no rolled-horizon queries in the grown region"
    );
    let sparse: Vec<WindowQuery> = (0..obs.n_series())
        .flat_map(|s| {
            [0, n / 2, n - 1].into_iter().map(move |window_j| WindowQuery {
                s,
                window_j,
                positions: (window_j * w..(window_j + 1) * w).collect(),
            })
        })
        .collect();

    let mut scratch = InferScratch::new();
    let mut out = Vec::new();
    for queries in [&missing, &sparse] {
        let expect: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                out.clear();
                model.predict_window_into(&mut scratch, obs, q, &mut out);
                bits(&out)
            })
            .collect();
        for threads in [1, 4] {
            let batch = model.predict_batch(&mut InferScratch::new(), obs, queries, threads);
            prop_assert_eq!(batch.len(), queries.len());
            for ((q, got), want) in queries.iter().zip(&batch).zip(&expect) {
                prop_assert!(
                    bits(got) == *want,
                    "batch diverged from the per-window pass on s={} window={} at {} threads",
                    q.s,
                    q.window_j,
                    threads
                );
            }
        }
    }
    Ok(())
}
