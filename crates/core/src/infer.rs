//! The inference half of the train/infer split: value-only forward passes over
//! a **frozen** parameter store.
//!
//! Training ([`crate::train`]) records each instance on a recycled
//! differentiation tape and walks it backwards; serving needs neither
//! gradients nor optimizer state. The serving path does not touch the tape:
//! [`InferScratch`] wraps an [`mvi_autograd::Eval`] backend whose recycled
//! slot arena executes the window forward pass with **zero heap allocation**
//! at steady state — no op records, no per-op tensors, parameters read by
//! `Arc` share from the frozen store.
//!
//! * [`WindowQuery`] — one unit of inference work: "impute these positions of
//!   window `j` in series `s`".
//! * [`InferScratch`] — recycled evaluator + forward buffers; one per worker.
//! * [`TapeScratch`] — the same pass recorded on the tape, kept as the
//!   whole-pass oracle for the evaluator's fused composites: differential
//!   tests assert the two are **bitwise identical**, and `infer_bench`
//!   measures what recording costs over the evaluator.
//! * [`FrozenModel`] — a trained [`DeepMviModel`] sealed for inference: built
//!   by [`DeepMviModel::freeze`] or rehydrated from an exported parameter
//!   snapshot with [`FrozenModel::from_snapshot`], shared read-only across
//!   worker threads through [`FrozenModel::model`].
//!
//! [`DeepMviModel::impute`] itself routes through this module, so batch
//! imputation and online serving exercise the same forward path:
//! [`DeepMviModel::predict_batch`] evaluates each run of same-series queries
//! against one shared K/V table, in stacked multi-row transformer passes,
//! fanned out over `mvi-parallel`. Callers hand
//! it at most one query per `(series, window)`: [`DeepMviModel::missing_queries`] emits one per window,
//! and the serving engine deduplicates its batches before evaluating them.

// Every cold-window request runs this module, so it holds the serving path's
// panic surface: no `unwrap`/`expect`/`panic!`-family call outside tests.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::config::DeepMviConfig;
use crate::model::{DeepMviModel, ForwardScratch, WindowTask};
use mvi_autograd::params::StoreSnapshot;
use mvi_autograd::{Eval, EvalVar, Evaluator, Graph, VarId};
use mvi_data::dataset::ObservedDataset;
use mvi_data::windows::WindowGrid;
use mvi_tensor::Tensor;

/// One inference work item: predict the given `positions` (all inside window
/// `window_j`) of series `s`. Positions are time indices into the dataset the
/// query is evaluated against.
///
/// A query carries no notion of absolute stream time: window `j` is simply
/// `positions t with t / w == j` of whatever dataset is handed to the predict
/// call. That indifference is what lets the serving engine's **retention
/// ring** reuse this enumeration unchanged — the engine issues queries in
/// *storage* coordinates (its bounded buffer viewed as a standalone dataset),
/// and because the ring origin is window-aligned and the rolling attention
/// horizon of the forward pass is position-relative, evaluating the retained
/// suffix this way is bitwise identical to evaluating the same windows of
/// the full unbounded stream whenever their context lies inside the ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowQuery {
    /// Flat series id.
    pub s: usize,
    /// Window index (positions satisfy `t / w == window_j`).
    pub window_j: usize,
    /// Absolute time positions to predict, ascending.
    pub positions: Vec<usize>,
}

/// Reusable forward-pass scratch over the tape-free evaluator. One per worker
/// thread. After the first pass has sized its buffers (warm-up), a
/// steady-state [`DeepMviModel::predict_window_into`] performs **zero heap
/// allocations** — every intermediate lands in a recycled evaluator slot and
/// every index/feature buffer is reused.
#[derive(Default)]
pub struct InferScratch {
    ev: Eval,
    fs: ForwardScratch<EvalVar>,
}

impl InferScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The tape-backed forward scratch. [`DeepMviModel::predict_window_tape`]
/// records the window pass on [`mvi_autograd::Graph`], which computes every
/// op with the evaluator's body but runs the composites (dense layer, output
/// head, RBF similarity) as their default op chains where the evaluator runs
/// fused passes. So it is the whole-pass oracle for those fusions: the
/// evaluator path is required (and tested) to match it **bitwise**, and
/// `infer_bench` reports the throughput ratio between the two as
/// `BENCH_4.json`.
#[derive(Default)]
pub struct TapeScratch {
    g: Graph,
    fs: ForwardScratch<VarId>,
}

impl TapeScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DeepMviModel {
    /// The window grid this model computes over.
    pub fn grid(&self) -> WindowGrid {
        WindowGrid::new(self.w, self.t_len)
    }

    /// Seals a trained model for inference.
    pub fn freeze(self) -> FrozenModel {
        FrozenModel { model: self }
    }

    /// Value-only forward pass for one query through the tape-free evaluator,
    /// against a K/V table over the query's own context, appending one
    /// prediction per query position to `out`. With a warm scratch and a
    /// caller-reused `out` this performs no heap allocation.
    pub fn predict_window_into(
        &self,
        scratch: &mut InferScratch,
        obs: &ObservedDataset,
        query: &WindowQuery,
        out: &mut Vec<f64>,
    ) {
        scratch.ev.recycle();
        let task = WindowTask {
            obs,
            s: query.s,
            window_j: query.window_j,
            positions: &query.positions,
            synth: None,
        };
        self.forward_positions(&self.store, &mut scratch.ev, &mut scratch.fs, &task);
        out.extend(scratch.fs.preds.iter().map(|&p| scratch.ev.value(p).at(0)));
    }

    /// Value-only forward pass for one query. Returns one prediction per
    /// query position (see [`DeepMviModel::predict_window_into`] for the
    /// allocation-free form).
    #[cfg(test)]
    pub(crate) fn predict_window(
        &self,
        scratch: &mut InferScratch,
        obs: &ObservedDataset,
        query: &WindowQuery,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(query.positions.len());
        self.predict_window_into(scratch, obs, query, &mut out);
        out
    }

    /// The same forward pass recorded on the differentiation tape — the
    /// reference path the evaluator is differentially tested (bitwise) and
    /// benchmarked against. Not used by any serving path.
    pub fn predict_window_tape(
        &self,
        scratch: &mut TapeScratch,
        obs: &ObservedDataset,
        query: &WindowQuery,
    ) -> Vec<f64> {
        scratch.g.recycle();
        let task = WindowTask {
            obs,
            s: query.s,
            window_j: query.window_j,
            positions: &query.positions,
            synth: None,
        };
        self.forward_positions(&self.store, &mut scratch.g, &mut scratch.fs, &task);
        scratch.fs.preds.iter().map(|&p| scratch.g.value(p).at(0)).collect()
    }

    /// Evaluates a batch of queries: serial on the caller's `scratch`, or
    /// data-parallel over `threads` workers that each warm their own
    /// [`InferScratch`] (the spawn already dwarfs that cost; the parameter
    /// store is shared read only). Results are returned in query order.
    ///
    /// Each run of consecutive queries that share a series and a horizon
    /// start is evaluated against one K/V table over the hull of its
    /// contexts, built once, instead of one per query: for a run of all of a
    /// series' windows that is one table row per window instead of `ctx`.
    /// The run's targets then go through the temporal transformer together,
    /// up to `ctx` of them per stacked multi-row pass, each scored against
    /// its own context's keys only, and only their per-position work runs
    /// one target at a time. Table and stacked pass are bitwise equal to each
    /// query's own one-row pass over its own context
    /// ([`DeepMviModel::predict_window_into`]), so the output does not
    /// depend on the batch's order, its runs or the thread count. One run's
    /// table is resident at a time per worker; on the caller's warm scratch
    /// the serial path allocates only the returned vectors.
    pub fn predict_batch(
        &self,
        scratch: &mut InferScratch,
        obs: &ObservedDataset,
        queries: &[WindowQuery],
        threads: usize,
    ) -> Vec<Vec<f64>> {
        let threads = threads.max(1).min(queries.len().max(1));
        if threads <= 1 {
            return self.predict_runs(scratch, obs, queries);
        }
        mvi_parallel::map_chunks(queries, threads, |chunk| {
            self.predict_runs(&mut InferScratch::new(), obs, chunk)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// [`DeepMviModel::predict_batch`] on one worker: per run of queries
    /// with the same `(series, horizon start)`, one table, then per block
    /// of up to `ctx` of its queries one stacked transformer pass and each
    /// query's positions in slots recycled past it.
    fn predict_runs(
        &self,
        scratch: &mut InferScratch,
        obs: &ObservedDataset,
        queries: &[WindowQuery],
    ) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(queries.len());
        let mut rest = queries;
        while let Some(first) = rest.first() {
            let key = (first.s, self.context(first.window_j).h0);
            let len = rest.iter().take_while(|q| (q.s, self.context(q.window_j).h0) == key).count();
            let (run, tail) = rest.split_at(len);
            rest = tail;
            let (lo, hi) = run.iter().fold((usize::MAX, 0), |(lo, hi), q| {
                let c = self.context(q.window_j);
                (lo.min(c.j_start), hi.max(c.j_start + c.ctx))
            });
            let (ev, fs) = (&mut scratch.ev, &mut scratch.fs);
            ev.recycle();
            let series = WindowTask { obs, s: key.0, window_j: 0, positions: &[], synth: None };
            self.build_table(&self.store, ev, fs, &series, key.1, lo..hi);
            let table = ev.mark();
            // At most `ctx` targets per stacked pass: its buffers then stay
            // the size of a table over one context however many windows of
            // a long series are missing, and the warm scratch keeps no more.
            for block in run.chunks(self.context(0).ctx) {
                ev.rewind(table);
                let windows = block.iter().map(|q| q.window_j);
                self.forward_targets(&self.store, ev, fs, &series, windows);
                let mark = ev.mark();
                for (i, q) in block.iter().enumerate() {
                    ev.rewind(mark);
                    let task = WindowTask {
                        obs,
                        s: q.s,
                        window_j: q.window_j,
                        positions: &q.positions,
                        synth: None,
                    };
                    self.target_preds(&self.store, ev, fs, &task, i);
                    out.push(fs.preds.iter().map(|&p| ev.value(p).at(0)).collect());
                }
            }
        }
        out
    }

    /// Enumerates the missing entries of `obs` as window queries, every
    /// series: one query per window holding missing entries, carrying all of
    /// that window's missing positions in ascending order.
    ///
    /// `obs` may be longer than the trained series length: the grid follows
    /// the dataset's live length, and windows past the trained range are
    /// evaluated with the rolling trained-length horizon (see
    /// [`DeepMviModel::t_len`]).
    pub fn missing_queries(&self, obs: &ObservedDataset) -> Vec<WindowQuery> {
        let grid = WindowGrid::new(self.w, obs.t_len());
        let mut out: Vec<WindowQuery> = Vec::new();
        for s in 0..obs.n_series() {
            for (run_start, run_len) in obs.available.gap_runs_in(s, 0, obs.t_len()) {
                let run_end = run_start + run_len;
                for wj in grid.windows_overlapping(run_start, run_end) {
                    let (lo, hi) = grid.bounds(wj);
                    let span = lo.max(run_start)..hi.min(run_end);
                    // Two missing runs can cross one window: extend its query.
                    match out.last_mut() {
                        Some(q) if (q.s, q.window_j) == (s, wj) => q.positions.extend(span),
                        _ => out.push(WindowQuery { s, window_j: wj, positions: span.collect() }),
                    }
                }
            }
        }
        out
    }

    /// Imputes every missing entry of `obs`, fanning the window queries out
    /// over `self.config().threads` workers. This is the batch path behind
    /// [`DeepMviModel::impute`].
    pub(crate) fn impute_batch(&self, obs: &ObservedDataset) -> Tensor {
        let queries = self.missing_queries(obs);
        let results = self.predict_batch(&mut InferScratch::new(), obs, &queries, self.cfg.threads);
        let mut out = obs.values.clone();
        let t_len = obs.t_len();
        for (q, vals) in queries.iter().zip(&results) {
            let t_off = q.s * t_len;
            for (&t, &v) in q.positions.iter().zip(vals) {
                out.data_mut()[t_off + t] = v;
            }
        }
        out
    }
}

/// A trained DeepMVI model sealed for inference: no optimizer state is
/// reachable, the parameter store is frozen, and every method takes `&self`, so
/// one instance can serve concurrent readers behind an `Arc`.
pub struct FrozenModel {
    model: DeepMviModel,
}

impl FrozenModel {
    /// Rehydrates a frozen model from a configuration and an exported weight
    /// snapshot ([`DeepMviModel::export_params`]). `obs` supplies the dataset
    /// geometry the model was trained for (dimensions, series length); the
    /// weights must match it exactly. `shared_std` is the trained imputation
    /// std-dev, if it was captured. The snapshot's tensors are moved into the
    /// model as its parameters: no initialisation is drawn and nothing is
    /// copied.
    ///
    /// # Errors
    /// Propagates any name/shape mismatch between the snapshot and the
    /// parameters a model of this configuration and geometry would own, and
    /// rejects snapshots carrying NaN/±inf weights — a poisoned model would
    /// silently answer every query with NaN, so it cannot be constructed for
    /// inference at all.
    pub fn from_snapshot(
        cfg: &DeepMviConfig,
        obs: &ObservedDataset,
        snap: StoreSnapshot,
        shared_std: Option<f64>,
    ) -> Result<Self, String> {
        let mut model = DeepMviModel::from_params(cfg, obs, snap)?;
        model.shared_std = shared_std;
        let frozen = model.freeze();
        frozen.validate_finite().map_err(|param| format!("parameter `{param}` is non-finite"))?;
        Ok(frozen)
    }

    /// Checks every frozen weight is finite, returning the first offending
    /// parameter's name otherwise. [`FrozenModel::from_snapshot`] runs this
    /// automatically; callers that freeze a freshly trained model (where a
    /// diverged optimizer could have produced NaN weights) should run it
    /// before serving — the serving engine does so at construction.
    ///
    /// # Errors
    /// The name of the first parameter tensor containing NaN/±inf.
    pub fn validate_finite(&self) -> Result<(), String> {
        match self.model.first_non_finite_param() {
            None => Ok(()),
            Some(param) => Err(param),
        }
    }

    /// The wrapped model, read-only.
    pub fn model(&self) -> &DeepMviModel {
        &self.model
    }

    /// The window grid the model computes over.
    pub fn grid(&self) -> WindowGrid {
        self.model.grid()
    }

    /// Series length the model was trained for. Inference (`impute` here and
    /// the wrapped model's predict methods) also accepts datasets *longer*
    /// than this: windows past the trained range roll the trained temporal
    /// context forward instead of erroring, which is what lets the serving
    /// engine grow series under live appends.
    pub fn t_len(&self) -> usize {
        self.model.t_len
    }

    /// Shape of the non-time axes the model was built for.
    pub fn series_shape(&self) -> &[usize] {
        &self.model.series_shape
    }

    /// Full batch imputation with the frozen weights (identical to
    /// [`DeepMviModel::impute`] on the wrapped model).
    pub fn impute(&self, obs: &ObservedDataset) -> Tensor {
        self.model.impute(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvi_data::generators::{generate_with_shape, DatasetName};
    use mvi_data::scenarios::Scenario;

    fn trained() -> (ObservedDataset, DeepMviModel) {
        let ds = generate_with_shape(DatasetName::Gas, &[4], 160, 5);
        let inst = Scenario::mcar(1.0).apply(&ds, 2);
        let obs = inst.observed();
        let cfg = DeepMviConfig { max_steps: 10, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        (obs, model)
    }

    #[test]
    fn missing_queries_cover_exactly_the_missing_entries() {
        let (obs, model) = trained();
        let queries = model.missing_queries(&obs);
        let w = model.window();
        let mut seen = std::collections::HashSet::new();
        let mut windows = std::collections::HashSet::new();
        for q in &queries {
            assert!(windows.insert((q.s, q.window_j)), "two queries for one window");
            for &t in &q.positions {
                assert_eq!(t / w, q.window_j, "position outside its window");
                assert!(!obs.available.series(q.s)[t], "query covers an observed entry");
                assert!(seen.insert((q.s, t)), "duplicate position in queries");
            }
        }
        let missing_total: usize = obs.available.data().iter().filter(|&&a| !a).count();
        assert_eq!(seen.len(), missing_total, "queries miss some missing entries");
    }

    #[test]
    fn predict_batch_matches_sequential_and_is_thread_invariant() {
        let (obs, model) = trained();
        let queries = model.missing_queries(&obs);
        let seq = model.predict_batch(&mut InferScratch::new(), &obs, &queries, 1);
        let par = model.predict_batch(&mut InferScratch::new(), &obs, &queries, 4);
        assert_eq!(seq, par, "thread count changed inference results");
        // Scratch reuse does not leak state between queries.
        let mut scratch = InferScratch::new();
        for (q, expect) in queries.iter().zip(&seq) {
            assert_eq!(&model.predict_window(&mut scratch, &obs, q), expect);
        }
    }

    #[test]
    fn frozen_snapshot_roundtrip_reproduces_imputation() {
        let (obs, model) = trained();
        let cfg = model.config().clone();
        let expected = model.impute(&obs);
        let snap = model.export_params();
        let std = model.shared_std();
        let frozen = FrozenModel::from_snapshot(&cfg, &obs, snap, std).unwrap();
        assert_eq!(frozen.impute(&obs), expected);
        assert_eq!(frozen.model().shared_std(), std);
        assert_eq!(frozen.grid().window_len(), cfg.resolve_window(10.0));
    }

    #[test]
    fn missing_runs_crossing_one_window_share_one_query() {
        use mvi_data::dataset::{Dataset, DimSpec};
        use mvi_tensor::{Mask, Tensor};
        // One series, w = 10, missing runs [5, 25), [27, 29) and [35, 38):
        // window 2 (t 20..30) holds entries of the first two runs.
        let ds = Dataset::new(
            "runs",
            vec![DimSpec::indexed("series", "s", 1)],
            Tensor::from_fn(&[1, 60], |idx| (idx[1] as f64 / 6.0).sin()),
        );
        let mut missing = Mask::falses(&[1, 60]);
        missing.set_range(0, 5, 25, true);
        missing.set_range(0, 27, 29, true);
        missing.set_range(0, 35, 38, true);
        let obs = ds.with_missing(missing).observed();
        let model = DeepMviModel::new(&DeepMviConfig::tiny(), &obs);
        assert_eq!(model.window(), 10);

        let queries = model.missing_queries(&obs);
        let windows: Vec<_> = queries.iter().map(|q| (q.window_j, q.positions.clone())).collect();
        assert_eq!(
            windows,
            vec![
                (0, (5..10).collect()),
                (1, (10..20).collect()),
                (2, (20..25).chain(27..29).collect()),
                (3, (35..38).collect()),
            ]
        );
    }

    #[test]
    fn inference_rolls_past_the_trained_length() {
        let (obs, model) = trained();
        let trained_t = obs.t_len();
        let baseline = model.impute(&obs);

        // Grow by three windows: observe the first two, leave the last missing.
        let w = model.window();
        let mut grown = obs.clone();
        grown.extend_time(trained_t + 3 * w);
        for s in 0..grown.n_series() {
            let vals: Vec<f64> =
                (0..2 * w).map(|i| ((trained_t + i) as f64 / 9.0 + s as f64).sin()).collect();
            grown.record_range(s, trained_t, &vals);
        }

        // Queries cover exactly the missing entries of the live length.
        let queries = model.missing_queries(&grown);
        let covered: usize = queries.iter().map(|q| q.positions.len()).sum();
        let missing: usize = grown.available.data().iter().filter(|&&a| !a).count();
        assert_eq!(covered, missing, "grown dataset not fully enumerated");
        assert!(
            queries.iter().any(|q| q.positions.iter().any(|&t| t >= trained_t)),
            "no queries in the grown region"
        );

        let out = model.impute(&grown);
        assert_eq!(out.shape(), grown.values.shape());
        assert!(out.all_finite(), "rolled inference produced non-finite values");
        // Positions whose forward inputs cannot reach the grown region — the
        // fine-grained mean reaches w steps forward, and here the trained
        // length is a whole number of windows so no attention row crosses the
        // old end — are bitwise unchanged.
        assert_eq!(trained_t % w, 0, "fixture assumption: trained length is window-aligned");
        for s in 0..obs.n_series() {
            for t in 0..trained_t.saturating_sub(w + 1) {
                assert_eq!(
                    out.series(s)[t].to_bits(),
                    baseline.series(s)[t].to_bits(),
                    "series {s} t={t}: growth changed an unaffected in-range imputation"
                );
            }
        }
        // Thread-count invariance holds for grown windows too.
        let grown_queries = model.missing_queries(&grown);
        assert_eq!(
            model.predict_batch(&mut InferScratch::new(), &grown, &grown_queries, 1),
            model.predict_batch(&mut InferScratch::new(), &grown, &grown_queries, 4),
            "thread count changed rolled-inference results"
        );
    }
}
