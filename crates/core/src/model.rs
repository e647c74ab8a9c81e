//! The DeepMVI network (§4): parameters and the per-window forward pass.

use crate::config::{DeepMviConfig, KernelMode};
use mvi_autograd::params::StoreSnapshot;
use mvi_autograd::{fill_positional_encoding, Embedding, Evaluator, Linear, ParamStore, Restore};
use mvi_data::blocks::BlockSampler;
use mvi_data::dataset::ObservedDataset;
use mvi_tensor::Mask;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// Per-head attention parameters: queries/keys read the concatenated left+right
/// window features (width `2p`), values read the window's own feature (width `p`).
struct HeadParams {
    wq: Linear,
    wk: Linear,
    wv: Linear,
}

/// Temporal-transformer parameters (Eq 7–14).
struct TtParams {
    /// Non-overlapping window convolution `W_f: [w, p]` (Eq 7).
    wf: Linear,
    heads: Vec<HeadParams>,
    /// Decoder feed-forward `W_d1, W_d2` (Eq 13).
    d1: Linear,
    d2: Linear,
    /// Per-position decoder `W_d: [p, w·p]` (Eq 14).
    dec: Linear,
}

/// Kernel-regression parameters: one member-embedding table per dimension (§4.2).
struct KrParams {
    tables: Vec<Embedding>,
    gamma: f64,
}

/// A synthetic missing block applied during training (§3): a time range hidden on
/// the target series plus, per dimension, the sibling members hidden over the same
/// range (so the kernel regression trains under the real missing pattern).
#[derive(Clone, Debug, Default)]
pub(crate) struct SynthMask {
    pub range: (usize, usize),
    pub masked_members: Vec<Vec<usize>>,
}

impl SynthMask {
    fn covers(&self, t: usize) -> bool {
        t >= self.range.0 && t < self.range.1
    }
}

/// The temporal transformer's rows that do not depend on the target window
/// (Eq 7–10), for windows `[lo, lo + rows)` of series `s` under the
/// trained-length horizon that starts at window `h0`: the window features
/// `y`, the positional encoding, the key/query input
/// `[y(j−1), y(j+1)] + pe(j − h0)`, each head's K and V, and each window's
/// key-availability flag. Built by [`DeepMviModel::build_table`]; its vars
/// stay valid until the backend recycles them.
///
/// With `h0` fixed, a context row's K and V depend only on its absolute
/// window, except at a context's first and last row, where the neighbour
/// outside the context is zero-filled. So every target whose context lies
/// inside the table reads its rows from it, and only those edge keys are
/// recomputed where the table reaches past the edge
/// ([`DeepMviModel::forward_targets`]).
struct KvTable<V> {
    s: usize,
    h0: usize,
    lo: usize,
    /// Eq 9: a window with any missing value voids its key.
    keys_ok: Vec<bool>,
    vars: Option<TableVars<V>>,
    /// Per head: K `[rows, 2p]` and V `[rows, p]`.
    k: Vec<V>,
    v: Vec<V>,
}

/// The shared inputs of a [`KvTable`]'s K and V.
#[derive(Clone, Copy)]
struct TableVars<V> {
    /// Window features `y`, `[rows, p]`.
    y: V,
    /// Horizon-relative positional encoding, `[rows, 2p]`.
    pe: V,
    /// Key/query input, `[rows, 2p]`.
    qk: V,
}

impl<V> Default for KvTable<V> {
    fn default() -> Self {
        Self { s: 0, h0: 0, lo: 0, keys_ok: Vec::new(), vars: None, k: Vec::new(), v: Vec::new() }
    }
}

/// A target window's attention context: `ctx` consecutive windows from
/// `j_start`, inside the trained-length horizon that starts at window `h0`.
#[derive(Clone, Copy)]
pub(crate) struct Context {
    pub h0: usize,
    pub j_start: usize,
    pub ctx: usize,
}

/// No edge key (a sentinel in [`Targets::edge_at`]).
const NO_EDGE: usize = usize::MAX;

/// Where the stacked targets' queries, keys and values come from. Rebuilt
/// per [`DeepMviModel::forward_targets`] call in reused buffers.
#[derive(Default)]
struct Targets {
    /// Per target: its context's first table row, where its `ctx` V rows
    /// start.
    starts: Vec<usize>,
    /// Per target: its query's key/query input row, `(0, table row)` or
    /// `(1, edge key)`.
    q_rows: Vec<(usize, usize)>,
    /// Row-major `[m, ctx]`: each target's keys, `(0, table row)` or
    /// `(1, edge key)`.
    keys: Vec<(usize, usize)>,
    /// Per table row: the edge keys of a context that starts there, as
    /// `[first row, last row]` edge indices ([`NO_EDGE`] if none yet).
    edge_at: Vec<[usize; 2]>,
    /// Per edge key: the sources of its zero-filled neighbours, as
    /// `(0, y row)` or `(1, 0)` for the zero row, and its table row.
    edge_prev: Vec<(usize, usize)>,
    edge_next: Vec<(usize, usize)>,
    edge_rows: Vec<usize>,
}

impl Targets {
    /// Empties every buffer for targets against a table of `n_rows` rows.
    fn reset(&mut self, n_rows: usize) {
        self.starts.clear();
        self.q_rows.clear();
        self.keys.clear();
        self.edge_at.clear();
        self.edge_at.resize(n_rows, [NO_EDGE; 2]);
        self.edge_prev.clear();
        self.edge_next.clear();
        self.edge_rows.clear();
    }

    /// The edge key of the context starting at table row `r0` on `side`
    /// (0: its first row, 1: its last), added on first use. The neighbour
    /// outside the `ctx`-row context is zero-filled, as the context's own
    /// `shift_rows` would.
    fn edge(&mut self, r0: usize, ctx: usize, side: usize) -> usize {
        if self.edge_at[r0][side] == NO_EDGE {
            self.edge_at[r0][side] = self.edge_rows.len();
            let (row, zero) = (r0 + side * (ctx - 1), (1, 0));
            self.edge_rows.push(row);
            self.edge_prev.push(if side == 1 { (0, row - 1) } else { zero });
            self.edge_next.push(if side == 0 && ctx > 1 { (0, row + 1) } else { zero });
        }
        self.edge_at[r0][side]
    }
}

/// Reusable buffers for one forward pass, generic over the backend's variable
/// handle (`VarId` on the tape, `EvalVar` on the value-only evaluator). The
/// inference hot path keeps one of these per scratch so a steady-state pass
/// allocates nothing but its results; training creates them freely (a fresh
/// one is just a handful of empty vectors).
///
/// `preds` receives one `[1]`-shaped prediction handle per requested position
/// — it is the output channel of [`DeepMviModel::target_preds`].
pub(crate) struct ForwardScratch<V> {
    /// The K/V table the targets attend against.
    table: KvTable<V>,
    /// The stacked targets' query, key and value sources.
    targets: Targets,
    /// The stacked targets' `[m, ctx]` attention mask, one key-availability
    /// flag per context window of each target (Eq 9).
    mask: Mask,
    /// Per-head attention outputs awaiting concatenation (Eq 12).
    head_outs: Vec<V>,
    /// The stacked decoder output, `[m·w, p]`: rows `i·w..(i+1)·w` are
    /// target `i`'s per-position hidden vectors.
    tt_rows: Option<V>,
    /// Per-position feature parts awaiting concatenation (Eq 6).
    parts: Vec<V>,
    /// Kernel-regression `[U, V, W]` features per dimension (Eq 21).
    kr_parts: Vec<V>,
    /// Candidate sibling members / their values at the target step.
    members: Vec<usize>,
    values: Vec<f64>,
    /// Scratch for the §4.2 "top L" sibling pre-selection.
    order: Vec<usize>,
    sel_members: Vec<usize>,
    sel_values: Vec<f64>,
    /// Multi-index buffers for the target series and its siblings.
    k_index: Vec<usize>,
    kk: Vec<usize>,
    /// Positional encoding of the whole trained horizon, `[n_windows, 2p]`.
    /// A row is a pure function of its horizon-relative window, and the
    /// transcendentals dominate a small table, so a warm scratch copies rows
    /// out of this instead. Same bits either way, so both backends use it.
    pe: Option<mvi_tensor::Tensor>,
    /// One `[1]`-shaped prediction per requested position (the output).
    pub(crate) preds: Vec<V>,
}

impl<V> Default for ForwardScratch<V> {
    fn default() -> Self {
        Self {
            table: KvTable::default(),
            targets: Targets::default(),
            mask: Mask::falses(&[0]),
            head_outs: Vec::new(),
            tt_rows: None,
            parts: Vec::new(),
            kr_parts: Vec::new(),
            members: Vec::new(),
            values: Vec::new(),
            order: Vec::new(),
            sel_members: Vec::new(),
            sel_values: Vec::new(),
            k_index: Vec::new(),
            kk: Vec::new(),
            pe: None,
            preds: Vec::new(),
        }
    }
}

/// One forward-pass work item: predict `positions` of window `window_j` in series
/// `s`, optionally under a synthetic training mask. Borrows its inputs so the
/// inference hot path can issue tasks without per-task allocation.
pub(crate) struct WindowTask<'a> {
    pub obs: &'a ObservedDataset,
    pub s: usize,
    pub window_j: usize,
    pub positions: &'a [usize],
    pub synth: Option<&'a SynthMask>,
}

impl WindowTask<'_> {
    /// Effective availability of the target series at `t`: observed and not hidden
    /// by the synthetic mask.
    fn avail(&self, t: usize) -> bool {
        self.obs.available.series(self.s)[t] && !self.synth.is_some_and(|m| m.covers(t))
    }

    /// Effective availability of a sibling (along `dim`, member `member`, series id
    /// `sib`) at `t`.
    fn sibling_avail(&self, dim: usize, member: usize, sib: usize, t: usize) -> bool {
        if !self.obs.available.series(sib)[t] {
            return false;
        }
        match self.synth {
            Some(m) => !(m.covers(t) && m.masked_members[dim].contains(&member)),
            None => true,
        }
    }
}

/// The DeepMVI model: parameter store plus the forward pass. Construct with
/// [`DeepMviModel::new`], train with [`DeepMviModel::fit`] and fill missing values
/// with [`DeepMviModel::impute`] (`fit`/`impute` live in [`crate::train`]).
pub struct DeepMviModel {
    pub(crate) cfg: DeepMviConfig,
    /// Resolved window size `w`.
    pub(crate) w: usize,
    pub(crate) t_len: usize,
    pub(crate) n_windows: usize,
    pub(crate) series_shape: Vec<usize>,
    pub(crate) store: ParamStore,
    tt: Option<TtParams>,
    kr: Option<KrParams>,
    out: Linear,
    pub(crate) sampler: BlockSampler,
    /// Shared imputation std-dev estimated from validation residuals (§4: the mean
    /// parameterizes a Gaussian with shared variance). Set by `fit`.
    pub(crate) shared_std: Option<f64>,
    /// Runs the full-row transformer block instead of the target row alone
    /// (the reference the one-row path is tested against).
    #[cfg(test)]
    pub(crate) full_row_reference: bool,
}

/// Where [`DeepMviModel::build`] takes parameter values from as it lays out
/// the store: seeded draws for a model about to train, or the tensors of
/// exported weights, moved in after a name and shape check.
enum ParamSource {
    Draw(StdRng),
    Restore(Restore),
}

impl ParamSource {
    fn linear(
        &mut self,
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Result<Linear, String> {
        match self {
            Self::Draw(rng) => Ok(Linear::new(store, rng, name, in_dim, out_dim)),
            Self::Restore(source) => Linear::restored(store, source, name, in_dim, out_dim),
        }
    }

    fn embedding(
        &mut self,
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
    ) -> Result<Embedding, String> {
        match self {
            Self::Draw(rng) => Ok(Embedding::new(store, rng, name, vocab, dim)),
            Self::Restore(source) => Embedding::restored(store, source, name, vocab, dim),
        }
    }
}

impl DeepMviModel {
    /// Builds parameters sized for `obs`, resolving the window size from the mean
    /// observed missing-block length (§4.3).
    pub fn new(cfg: &DeepMviConfig, obs: &ObservedDataset) -> Self {
        match Self::build(cfg, obs, ParamSource::Draw(StdRng::seed_from_u64(cfg.seed))) {
            Ok(model) => model,
            Err(e) => unreachable!("fresh draws always fit the layout they are drawn for: {e}"),
        }
    }

    /// Rebuilds a model from weights exported by
    /// [`DeepMviModel::export_params`], moving each tensor into the store
    /// instead of drawing an initialisation only to overwrite it.
    ///
    /// # Errors
    /// Any name/shape mismatch between `params` and the layout `cfg` and
    /// `obs` imply, or a count mismatch.
    pub(crate) fn from_params(
        cfg: &DeepMviConfig,
        obs: &ObservedDataset,
        params: StoreSnapshot,
    ) -> Result<Self, String> {
        Self::build(cfg, obs, ParamSource::Restore(Restore::new(params)))
    }

    fn build(
        cfg: &DeepMviConfig,
        obs: &ObservedDataset,
        mut src: ParamSource,
    ) -> Result<Self, String> {
        let sampler = BlockSampler::from_observed(obs);
        let w = cfg.resolve_window(sampler.mean_t_len());
        let t_len = obs.t_len();
        let n_windows = t_len.div_ceil(w);
        let mut store = ParamStore::new();
        let p = cfg.p;

        let tt = if cfg.use_temporal_transformer {
            let wf = src.linear(&mut store, "tt.wf", w, p)?;
            let mut heads = Vec::with_capacity(cfg.n_heads);
            for h in 0..cfg.n_heads {
                heads.push(HeadParams {
                    wq: src.linear(&mut store, &format!("tt.h{h}.q"), 2 * p, 2 * p)?,
                    wk: src.linear(&mut store, &format!("tt.h{h}.k"), 2 * p, 2 * p)?,
                    wv: src.linear(&mut store, &format!("tt.h{h}.v"), p, p)?,
                });
            }
            Some(TtParams {
                wf,
                heads,
                d1: src.linear(&mut store, "tt.d1", cfg.n_heads * p, 2 * p)?,
                d2: src.linear(&mut store, "tt.d2", 2 * p, p)?,
                dec: src.linear(&mut store, "tt.dec", p, w * p)?,
            })
        } else {
            None
        };

        let kr = if cfg.kernel_mode != KernelMode::Off {
            // The flattened ablation doubles the embedding width so the single
            // table has the same total capacity as the per-dimension tables (§5.5.4).
            let width = if cfg.kernel_mode == KernelMode::Flattened {
                2 * cfg.embed_dim
            } else {
                cfg.embed_dim
            };
            let mut tables = Vec::with_capacity(obs.dims.len());
            for (i, d) in obs.dims.iter().enumerate() {
                tables.push(src.embedding(&mut store, &format!("kr.dim{i}"), d.len(), width)?);
            }
            Some(KrParams { tables, gamma: cfg.kr_gamma })
        } else {
            None
        };

        let feat_dim = cfg.use_temporal_transformer as usize * p
            + cfg.use_fine_grained as usize
            + if cfg.kernel_mode == KernelMode::Off { 0 } else { 3 * obs.dims.len() };
        let out = src.linear(&mut store, "out", feat_dim.max(1), 1)?;
        match src {
            // Warm-start the output head on the two directly-interpretable
            // estimators — the fine-grained local mean and each dimension's
            // kernel-weighted sibling mean U — so early training refines a
            // sensible imputation instead of spending its budget discovering
            // the linear readout.
            ParamSource::Draw(_) => {
                let wout = store.value_mut(out.w);
                let mut offset = cfg.use_temporal_transformer as usize * p;
                if cfg.use_fine_grained {
                    wout.data_mut()[offset] = 0.5;
                    offset += 1;
                }
                if cfg.kernel_mode != KernelMode::Off {
                    for dim in 0..obs.dims.len() {
                        wout.data_mut()[offset + 3 * dim] = 0.4; // the U component
                    }
                }
            }
            ParamSource::Restore(source) => source.finish()?,
        }

        Ok(Self {
            cfg: cfg.clone(),
            w,
            t_len,
            n_windows,
            series_shape: obs.series_shape(),
            store,
            tt,
            kr,
            out,
            sampler,
            shared_std: None,
            #[cfg(test)]
            full_row_reference: false,
        })
    }

    /// Exports the trained weights for persistence (serde-serializable). Rebuild a
    /// model with the *same configuration and dataset shape* and restore with
    /// [`DeepMviModel::import_params`].
    pub fn export_params(&self) -> StoreSnapshot {
        self.store.export()
    }

    /// Restores weights exported by [`DeepMviModel::export_params`].
    ///
    /// # Errors
    /// Propagates any name/shape mismatch from the parameter store.
    pub fn import_params(&mut self, snap: &StoreSnapshot) -> Result<(), String> {
        self.store.import(snap)
    }

    /// The shared Gaussian std-dev of the imputation distribution (§4), estimated
    /// from validation residuals during [`DeepMviModel::fit`]. `None` before
    /// training.
    pub fn shared_std(&self) -> Option<f64> {
        self.shared_std
    }

    /// Number of trainable scalars (useful for reports).
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Scans every parameter tensor for NaN/±inf and returns the name of the
    /// first offending one, or `None` when all weights are finite. A model
    /// with a non-finite weight answers every query through that weight with
    /// NaN, so serving layers check this **up front** — at
    /// [`crate::FrozenModel::from_snapshot`] and at engine construction —
    /// rather than discovering it one poisoned prediction at a time.
    pub(crate) fn first_non_finite_param(&self) -> Option<String> {
        self.store
            .ids()
            .into_iter()
            .find(|&id| !self.store.value(id).all_finite())
            .map(|id| self.store.name(id).to_string())
    }

    /// Resolved window size `w`.
    pub fn window(&self) -> usize {
        self.w
    }

    /// Series length the model was trained for. Inference accepts datasets at
    /// this length or longer (windows past it are evaluated over a rolling
    /// trained-length horizon); training always runs at exactly this length.
    pub fn t_len(&self) -> usize {
        self.t_len
    }

    /// The model's configuration.
    pub fn config(&self) -> &DeepMviConfig {
        &self.cfg
    }

    /// The attention context of target window `j0`: `ctx_windows` windows
    /// centred on the target, clipped to the trained-length horizon ending
    /// at the target window (which is `[0, n_windows)` itself whenever the
    /// target is inside it).
    pub(crate) fn context(&self, j0: usize) -> Context {
        let ctx = self.cfg.ctx_windows.min(self.n_windows).max(1);
        let h0 = (j0 + 1).saturating_sub(self.n_windows); // horizon start window
        let j_rel = j0 - h0; // target's window position inside the horizon
        let j_start_rel = j_rel.saturating_sub(ctx / 2).min(self.n_windows - ctx);
        Context { h0, j_start: h0 + j_start_rel, ctx }
    }

    /// Forward pass for one window task against an explicit parameter store
    /// view (shared read-only across worker threads): a K/V table over the
    /// target's own context ([`DeepMviModel::build_table`]), the target
    /// against it ([`DeepMviModel::forward_targets`] with one target), then
    /// its positions ([`DeepMviModel::target_preds`]). Writes one
    /// `[1]`-shaped prediction handle per requested position into
    /// `fs.preds`.
    ///
    /// Generic over the execution backend ([`Evaluator`]): training runs it on
    /// the differentiation tape ([`mvi_autograd::Graph`]) and gets a backward
    /// pass; inference runs it on the value-only evaluator
    /// ([`mvi_autograd::Eval`]) — the same op bodies (the tape computes each
    /// value with the evaluator's), bitwise identical values, but no records,
    /// fused composites, and zero heap allocation once the scratch is warm.
    ///
    /// The task's dataset may be *longer* than the series length the model was
    /// trained on (`task.obs.t_len() >= self.t_len`): a window beyond the
    /// trained range is evaluated by **rolling the trained temporal context**
    /// — the attention context slides to the most recent trained-length
    /// horizon of windows ending at the target, and the positional encoding
    /// uses horizon-relative window positions, so the model only ever sees
    /// positions it was trained on. For windows inside the trained range the
    /// horizon starts at 0 and every computation is bitwise identical to the
    /// fixed-length path. The fine-grained local mean (±`w` around the target)
    /// and the kernel regression (sibling values at the target step) are
    /// position-relative already and extend unchanged.
    pub(crate) fn forward_positions<E: Evaluator>(
        &self,
        store: &ParamStore,
        g: &mut E,
        fs: &mut ForwardScratch<E::Var>,
        task: &WindowTask<'_>,
    ) {
        let c = self.context(task.window_j);
        self.build_table(store, g, fs, task, c.h0, c.j_start..c.j_start + c.ctx);
        self.forward_targets(store, g, fs, task, std::iter::once(task.window_j));
        self.target_preds(store, g, fs, task, 0);
    }

    /// Builds the [`KvTable`] of `windows` (absolute window indices) of the
    /// task's series under the horizon starting at `h0` into `fs`. Reads
    /// only the task's dataset, series and synthetic mask. Every context
    /// that lies inside `windows` and shares `h0` can then be evaluated
    /// against it, bitwise equal to a table over that context alone: the
    /// kernels compute each GEMM row as one FMA chain whatever the row count
    /// (see `mvi_kernels`), and every other op here is row-local. A no-op
    /// without the temporal transformer.
    pub(crate) fn build_table<E: Evaluator>(
        &self,
        store: &ParamStore,
        g: &mut E,
        fs: &mut ForwardScratch<E::Var>,
        task: &WindowTask<'_>,
        h0: usize,
        windows: Range<usize>,
    ) {
        if let Some(tt) = self.tt.as_ref() {
            self.fill_table(tt, store, g, &mut fs.table, &mut fs.pe, task, h0, windows);
        }
    }

    /// [`DeepMviModel::build_table`] into `table`, with `pe_cache` holding
    /// the positional encoding of the whole trained horizon.
    #[allow(clippy::too_many_arguments)]
    fn fill_table<E: Evaluator>(
        &self,
        tt: &TtParams,
        store: &ParamStore,
        g: &mut E,
        table: &mut KvTable<E::Var>,
        pe_cache: &mut Option<mvi_tensor::Tensor>,
        task: &WindowTask<'_>,
        h0: usize,
        windows: Range<usize>,
    ) {
        let (p, w) = (self.cfg.p, self.w);
        let live_t = task.obs.t_len();
        let rows = windows.len();
        assert!(
            windows.start >= h0 && windows.end <= h0 + self.n_windows,
            "table windows {windows:?} leave the horizon at {h0}"
        );
        let series_vals = task.obs.values.series(task.s);
        table.s = task.s;
        table.h0 = h0;
        table.lo = windows.start;
        table.keys_ok.clear();
        table.keys_ok.resize(rows, true);
        let keys_ok = &mut table.keys_ok;
        let xv = g.input(&[rows, w], |xw| {
            for (j, key_ok) in keys_ok.iter_mut().enumerate() {
                let wj = windows.start + j;
                for o in 0..w {
                    let t = wj * w + o;
                    if t < live_t && task.avail(t) {
                        xw.set_m(j, o, series_vals[t]);
                    } else {
                        *key_ok = false; // Eq 9: any missing value voids the key
                    }
                }
            }
        });
        let y = tt.wf.forward(g, store, xv); // Eq 7: [rows, p]

        // Horizon-relative window positions: identical to absolute indices
        // inside the trained range (h0 == 0), and rolled back into the
        // trained positional range for grown windows. The shape guard keys
        // the cached horizon to this model: a scratch handed to a
        // differently-shaped model refills it.
        let horizon = [self.n_windows, 2 * p];
        let pe_all = match pe_cache {
            Some(cached) if cached.shape() == horizon => cached,
            slot => {
                let mut t = mvi_tensor::Tensor::zeros(&horizon);
                fill_positional_encoding(&mut t, 0);
                slot.insert(t)
            }
        };
        let first = (windows.start - h0) * 2 * p;
        let pe_rows = &pe_all.data()[first..first + rows * 2 * p];
        let pe = g.input(&[rows, 2 * p], |t| t.data_mut().copy_from_slice(pe_rows));
        // Fig 7's "No Context Window" ablation: keys/queries see only the
        // positional encoding, exactly dropping the contextual information.
        let qk = if self.cfg.use_context_window {
            let yprev = g.shift_rows(y, 1);
            let ynext = g.shift_rows(y, -1);
            let neighbours = g.concat_cols(&[yprev, ynext]); // [rows, 2p]
            g.add(neighbours, pe)
        } else {
            pe
        };
        table.k.clear();
        table.v.clear();
        for head in &tt.heads {
            table.k.push(head.wk.forward(g, store, qk)); // Eq 9 (masking via softmax)
            table.v.push(head.wv.forward(g, store, y)); // Eq 10
        }
        table.vars = Some(TableVars { y, pe, qk });
    }

    /// The temporal transformer of every target window in `windows` at once,
    /// against the table in `fs`, which must cover each target's context
    /// under its horizon (see [`DeepMviModel::build_table`]). `task` names
    /// the series (its window and positions are not read). Leaves the
    /// stacked `[m·w, p]` decoder rows in `fs` for
    /// [`DeepMviModel::target_preds`]; a no-op without the temporal
    /// transformer.
    ///
    /// The `m` query rows stack into `[m, 2p]` and run as one pass: each
    /// head's query projection, one `[edges, 2p]` key projection of the
    /// edge keys (deduplicated per context start and side), `[m, ctx]`
    /// scores of each row against its own context's keys only (one GEMM per
    /// context start and run of consecutive keys), one masked softmax over
    /// `[m, ctx]`, attn·V over each row's own V rows, and the head concat
    /// and `d1`/`d2`/`dec` decoder as `[m, ·]` GEMMs. So the work per
    /// target is that of a one-row pass whatever the table's length. Every
    /// GEMM element is the same FMA chain whatever the row and column count
    /// (see `mvi_kernels`) and every other op is row-local, so each target's
    /// rows are bitwise those of a pass of its own. With one target against
    /// its own context (training, [`DeepMviModel::forward_positions`]) there
    /// is no edge key, and the ops are those of a one-row pass.
    pub(crate) fn forward_targets<E: Evaluator>(
        &self,
        store: &ParamStore,
        g: &mut E,
        fs: &mut ForwardScratch<E::Var>,
        task: &WindowTask<'_>,
        windows: impl ExactSizeIterator<Item = usize>,
    ) {
        fs.tt_rows = None;
        let Some(tt) = self.tt.as_ref() else { return };
        let m = windows.len();
        let dec = self.attend_targets(tt, store, g, fs, task, windows);
        fs.tt_rows = Some(g.reshape(dec, &[m * self.w, self.cfg.p]));
    }

    /// Target `i`'s predictions (its window and positions in `task`) from
    /// the stacked transformer rows of [`DeepMviModel::forward_targets`],
    /// the fine-grained local mean and the kernel regression. Writes one
    /// `[1]`-shaped prediction handle per requested position into
    /// `fs.preds`.
    pub(crate) fn target_preds<E: Evaluator>(
        &self,
        store: &ParamStore,
        g: &mut E,
        fs: &mut ForwardScratch<E::Var>,
        task: &WindowTask<'_>,
        i: usize,
    ) {
        fs.preds.clear();
        let w = self.w;
        let j0 = task.window_j;
        let live_t = task.obs.t_len();

        // Assemble per-position predictions.
        for &t in task.positions {
            debug_assert_eq!(t / w, j0, "position {t} not inside window {j0}");
            fs.parts.clear();
            if let Some(rows) = fs.tt_rows {
                let part = g.row(rows, i * w + t - j0 * w);
                fs.parts.push(part);
            }
            // Fine-grained local signal (Eq 15 / §4.1.1): masked mean over the
            // immediate ±w neighbourhood of t. (A window-local mean would be
            // identically zero whenever the missing block covers the whole window,
            // which is the common case for block misses.)
            if self.cfg.use_fine_grained {
                let series_vals = task.obs.values.series(task.s);
                let lo = t.saturating_sub(w);
                let hi = (t + w + 1).min(live_t);
                let mut sum = 0.0;
                let mut count = 0usize;
                for tt in lo..hi {
                    if task.avail(tt) {
                        sum += series_vals[tt];
                        count += 1;
                    }
                }
                let mean = if count > 0 { sum / count as f64 } else { 0.0 };
                let part = g.scalar(mean);
                fs.parts.push(part);
            }
            if let Some(kr) = &self.kr {
                let part = self.kernel_regression(store, g, fs, kr, task, t);
                fs.parts.push(part);
            }
            let feat = if fs.parts.len() == 1 { fs.parts[0] } else { g.concat1d(&fs.parts) };
            let pred = self.out.forward_vec(g, store, feat); // Eq 6
            fs.preds.push(pred);
        }
    }

    /// The temporal transformer's `[m, w·p]` output for the target windows:
    /// each target's context key mask, keys, V band and query row, and the
    /// edge keys recomputed where the table reaches past a context, then
    /// [`DeepMviModel::attend`].
    fn attend_targets<E: Evaluator>(
        &self,
        tt: &TtParams,
        store: &ParamStore,
        g: &mut E,
        fs: &mut ForwardScratch<E::Var>,
        task: &WindowTask<'_>,
        windows: impl ExactSizeIterator<Item = usize>,
    ) -> E::Var {
        #[cfg(test)]
        if self.full_row_reference {
            return self.full_row_reference_block(tt, store, g, fs, task, windows);
        }

        let ForwardScratch { table, targets: tg, mask, head_outs, .. } = fs;
        let Some(vars) = table.vars else { unreachable!("a covering table has its vars") };
        let n_rows = table.keys_ok.len();
        let ctx = self.context(0).ctx;
        let cw = self.cfg.use_context_window;
        tg.reset(n_rows);
        mask.reset_full(&[windows.len(), ctx], true);
        for (i, j) in windows.enumerate() {
            let c = self.context(j);
            assert!(
                table.s == task.s
                    && table.h0 == c.h0
                    && c.j_start >= table.lo
                    && c.j_start + ctx <= table.lo + n_rows,
                "the K/V table does not cover window {j} of series {}",
                task.s
            );
            let r0 = c.j_start - table.lo; // the context's first table row
            let jc = j - c.j_start; // target window's row inside the context
            mask.data_mut()[i * ctx..(i + 1) * ctx].copy_from_slice(&table.keys_ok[r0..r0 + ctx]);
            tg.starts.push(r0);
            // The context's first and last rows zero-fill the neighbour
            // outside the context; the table has that neighbour wherever it
            // reaches past the edge, so those keys (and the query, if it is
            // one) are recomputed from the row's own inputs.
            let first =
                (cw && (r0 > 0 || (ctx == 1 && r0 + 1 < n_rows))).then(|| tg.edge(r0, ctx, 0));
            let last = (cw && ctx > 1 && r0 + ctx < n_rows).then(|| tg.edge(r0, ctx, 1));
            tg.q_rows.push(match (first, last) {
                (Some(e), _) if jc == 0 => (1, e),
                (_, Some(e)) if jc == ctx - 1 => (1, e),
                _ => (0, r0 + jc),
            });
            let row_keys = tg.keys.len();
            tg.keys.extend((r0..r0 + ctx).map(|r| (0, r)));
            if let Some(e) = first {
                tg.keys[row_keys] = (1, e);
            }
            if let Some(e) = last {
                tg.keys[row_keys + ctx - 1] = (1, e);
            }
        }

        let edge_qk = (!tg.edge_rows.is_empty()).then(|| {
            let zeros = g.input(&[1, self.cfg.p], |_| {});
            let prev = g.stack_rows(&[vars.y, zeros], &tg.edge_prev);
            let next = g.stack_rows(&[vars.y, zeros], &tg.edge_next);
            let neighbours = g.concat_cols(&[prev, next]);
            let pe = g.gather_rows(vars.pe, &tg.edge_rows);
            g.add(neighbours, pe)
        });
        let q_in = match edge_qk {
            Some(edges) => g.stack_rows(&[vars.qk, edges], &tg.q_rows),
            None => g.stack_rows(&[vars.qk], &tg.q_rows),
        };
        self.attend(tt, store, g, head_outs, mask, q_in, table, tg, edge_qk)
    }

    /// The transformer block over every row of each target's own context,
    /// the reference the stacked target rows are tested against: K and V
    /// over the context alone, each context row a query under a
    /// `[ctx, ctx]` broadcast of the key mask, and row `jc` kept.
    #[cfg(test)]
    fn full_row_reference_block<E: Evaluator>(
        &self,
        tt: &TtParams,
        store: &ParamStore,
        g: &mut E,
        fs: &mut ForwardScratch<E::Var>,
        task: &WindowTask<'_>,
        windows: impl ExactSizeIterator<Item = usize>,
    ) -> E::Var {
        let mut decoded = Vec::new();
        let mut picks = Vec::new();
        for (i, j) in windows.enumerate() {
            let c = self.context(j);
            let mut own = KvTable::default();
            let rows = c.j_start..c.j_start + c.ctx;
            self.fill_table(tt, store, g, &mut own, &mut fs.pe, task, c.h0, rows);
            let Some(vars) = own.vars else { unreachable!("a filled table has its vars") };
            let mask = Mask::from_vec(vec![c.ctx, c.ctx], own.keys_ok.repeat(c.ctx));
            // Every context row reads the whole table.
            let tg = Targets {
                starts: vec![0; c.ctx],
                keys: (0..c.ctx * c.ctx).map(|e| (0, e % c.ctx)).collect(),
                ..Targets::default()
            };
            let out = self.attend(tt, store, g, &mut fs.head_outs, &mask, vars.qk, &own, &tg, None);
            decoded.push(out);
            picks.push((i, j - c.j_start));
        }
        g.stack_rows(&decoded, &picks) // [m, w·p]
    }

    /// Attention and decoder (Eq 8–14) for the query rows `q_in` against
    /// their contexts in `table`: `[m, 2p]` queries yield `[m, w·p]`
    /// decoded rows. Each row carries its own context (`targets`): it
    /// scores only its own `ctx` keys, table rows read in place and edge
    /// keys projected from `edge_qk` (`[edges, 2p]`), and attn·V reads its
    /// own band of the table's V in place. Every op is row-local in the
    /// queries, so each output row depends on its own query row and context
    /// alone, and the work is `ctx` keys per row whatever the table's
    /// length. `mask` is `[m, ctx]`; `head_outs` holds the per-head
    /// outputs.
    #[allow(clippy::too_many_arguments)]
    fn attend<E: Evaluator>(
        &self,
        tt: &TtParams,
        store: &ParamStore,
        g: &mut E,
        head_outs: &mut Vec<E::Var>,
        mask: &Mask,
        q_in: E::Var,
        table: &KvTable<E::Var>,
        targets: &Targets,
        edge_qk: Option<E::Var>,
    ) -> E::Var {
        let scale = 1.0 / ((2 * self.cfg.p) as f64).sqrt();
        head_outs.clear();
        for ((head, &k), &v) in tt.heads.iter().zip(&table.k).zip(&table.v) {
            let q = head.wq.forward(g, store, q_in); // Eq 8
            let scores_raw = match edge_qk {
                // Eq 9 (masking via softmax): one score per context row.
                Some(qk) => {
                    let k_edge = head.wk.forward(g, store, qk);
                    g.matmul_nt_rows(q, &[k, k_edge], &targets.keys)
                }
                None => g.matmul_nt_rows(q, &[k], &targets.keys),
            };
            let scores = g.scale(scores_raw, scale);
            let attn = g.masked_softmax_rows(scores, mask); // Eq 11
            let head_out = g.matmul_rows(attn, v, &targets.starts); // Eq 10
            head_outs.push(head_out);
        }
        let h = g.concat_cols(head_outs); // Eq 12: [m, n_heads·p]
        let h = g.relu(h);
        let h = tt.d1.forward(g, store, h);
        let h = g.relu(h);
        let h = tt.d2.forward(g, store, h);
        let hff = g.relu(h); // Eq 13
        let dec = tt.dec.forward(g, store, hff);
        g.relu(dec) // Eq 14: [m, w·p]
    }

    /// The kernel-regression features `[U, V, W]` per dimension at time `t`
    /// (Eq 17–21), concatenated into a `[3n]` vector. Uses (and may clobber)
    /// the sibling and multi-index buffers of `fs`, none of which the
    /// enclosing [`DeepMviModel::target_preds`] holds across the call.
    fn kernel_regression<E: Evaluator>(
        &self,
        store: &ParamStore,
        g: &mut E,
        fs: &mut ForwardScratch<E::Var>,
        kr: &KrParams,
        task: &WindowTask<'_>,
        t: usize,
    ) -> E::Var {
        mvi_tensor::shape::unflatten_into(&self.series_shape, task.s, &mut fs.k_index);
        fs.kr_parts.clear();
        for (dim, &extent) in self.series_shape.iter().enumerate() {
            // Available siblings along this dimension with their values at t.
            fs.members.clear();
            fs.values.clear();
            fs.kk.clear();
            fs.kk.extend_from_slice(&fs.k_index);
            for m in 0..extent {
                if m == fs.k_index[dim] {
                    continue;
                }
                fs.kk[dim] = m;
                let sib = mvi_tensor::shape::flat_index(&self.series_shape, &fs.kk);
                if task.sibling_avail(dim, m, sib, t) {
                    fs.members.push(m);
                    fs.values.push(task.obs.values.series(sib)[t]);
                }
            }

            if fs.members.is_empty() {
                // No cross-series signal at t (e.g. Blackout): zero features.
                let z = g.scalar(0.0);
                fs.kr_parts.extend([z, z, z]);
                continue;
            }

            // §4.2 "top L" pre-selection for large dimensions, by current kernel
            // similarity (computed outside the graph; selection is not differentiated).
            if fs.members.len() > self.cfg.max_siblings {
                let table = store.value(kr.tables[dim].table);
                let own = table.row(fs.k_index[dim]);
                fs.order.clear();
                fs.order.extend(0..fs.members.len());
                let members = &fs.members;
                let dist = |m: usize| -> f64 {
                    table.row(m).iter().zip(own).map(|(&a, &b)| (a - b) * (a - b)).sum()
                };
                fs.order.sort_unstable_by(|&a, &b| {
                    dist(members[a]).partial_cmp(&dist(members[b])).unwrap()
                });
                fs.order.truncate(self.cfg.max_siblings);
                fs.sel_members.clear();
                fs.sel_values.clear();
                for &i in &fs.order {
                    fs.sel_members.push(fs.members[i]);
                    fs.sel_values.push(fs.values[i]);
                }
                std::mem::swap(&mut fs.members, &mut fs.sel_members);
                std::mem::swap(&mut fs.values, &mut fs.sel_values);
            }

            // Kernel weights K(k_i, k'_i) = exp(-γ‖E[k_i] − E[k'_i]‖²) (Eq 17).
            let own_idx = [fs.k_index[dim]];
            let own_e = kr.tables[dim].lookup(g, store, &own_idx);
            let own_vec = {
                let width = g.shape(own_e)[1];
                g.reshape(own_e, &[width])
            };
            let sib_e = kr.tables[dim].lookup(g, store, &fs.members);
            let sim = g.rbf_similarities(sib_e, own_vec, kr.gamma);

            // U: kernel-weighted mean of sibling values (Eq 18).
            let vals = g.constant_slice(&fs.values);
            let num = g.dot(sim, vals);
            let wsum = g.sum(sim); // Eq 19
            let den = g.add_scalar(wsum, 1e-9);
            let u = g.div(num, den);
            // V: variance of the sibling values (Eq 20) — data-only, no gradient.
            let var = {
                let n = fs.values.len() as f64;
                let mean = fs.values.iter().sum::<f64>() / n;
                fs.values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n
            };
            let v = g.scalar(var);
            fs.kr_parts.extend([u, v, wsum]); // Eq 21
        }
        g.concat1d(&fs.kr_parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvi_autograd::Graph;
    use mvi_data::dataset::{Dataset, DimSpec};
    use mvi_data::scenarios::Scenario;
    use mvi_tensor::Tensor;

    fn small_obs() -> ObservedDataset {
        let ds = Dataset::new(
            "toy",
            vec![DimSpec::indexed("series", "s", 4)],
            Tensor::from_fn(&[4, 120], |idx| ((idx[1] as f64) / 9.0 + idx[0] as f64).sin()),
        );
        Scenario::mcar(1.0).apply(&ds, 3).observed()
    }

    #[test]
    fn model_builds_with_paper_defaults() {
        let obs = small_obs();
        let model = DeepMviModel::new(&DeepMviConfig::default(), &obs);
        assert_eq!(model.window(), 10);
        assert!(model.num_parameters() > 1000);
    }

    #[test]
    fn forward_produces_one_prediction_per_position() {
        let obs = small_obs();
        let model = DeepMviModel::new(&DeepMviConfig::tiny(), &obs);
        let task =
            WindowTask { obs: &obs, s: 1, window_j: 4, positions: &[40, 43, 47], synth: None };
        let mut g = Graph::new();
        let mut fs = ForwardScratch::default();
        model.forward_positions(&model.store, &mut g, &mut fs, &task);
        assert_eq!(fs.preds.len(), 3);
        for &p in &fs.preds {
            assert_eq!(g.shape(p), &[1]);
            assert!(g.value(p).all_finite());
        }
    }

    #[test]
    fn synthetic_mask_changes_the_forward_inputs() {
        let obs = small_obs();
        let model = DeepMviModel::new(&DeepMviConfig::tiny(), &obs);
        let base = WindowTask { obs: &obs, s: 0, window_j: 3, positions: &[32], synth: None };
        let synth = SynthMask { range: (30, 40), masked_members: vec![vec![]] };
        let masked =
            WindowTask { obs: &obs, s: 0, window_j: 3, positions: &[32], synth: Some(&synth) };
        let mut g1 = Graph::new();
        let mut fs1 = ForwardScratch::default();
        model.forward_positions(&model.store, &mut g1, &mut fs1, &base);
        let p1 = fs1.preds[0];
        let mut g2 = Graph::new();
        let mut fs2 = ForwardScratch::default();
        model.forward_positions(&model.store, &mut g2, &mut fs2, &masked);
        let p2 = fs2.preds[0];
        // Hiding the target window must change the prediction inputs (the fine
        // grained mean and attention mask change).
        assert_ne!(g1.value(p1).at(0), g2.value(p2).at(0));
    }

    #[test]
    fn ablations_shrink_the_feature_vector() {
        let obs = small_obs();
        let full = DeepMviModel::new(&DeepMviConfig::tiny(), &obs);
        let no_tt = DeepMviModel::new(
            &DeepMviConfig { use_temporal_transformer: false, ..DeepMviConfig::tiny() },
            &obs,
        );
        let no_kr = DeepMviModel::new(
            &DeepMviConfig { kernel_mode: KernelMode::Off, ..DeepMviConfig::tiny() },
            &obs,
        );
        assert!(no_tt.num_parameters() < full.num_parameters());
        assert!(no_kr.num_parameters() < full.num_parameters());
    }

    #[test]
    fn gradients_flow_to_embeddings_and_transformer() {
        let obs = small_obs();
        let model = DeepMviModel::new(&DeepMviConfig::tiny(), &obs);
        let synth = SynthMask { range: (50, 60), masked_members: vec![vec![1]] };
        let task =
            WindowTask { obs: &obs, s: 2, window_j: 5, positions: &[52], synth: Some(&synth) };
        let mut g = Graph::new();
        let mut fs = ForwardScratch::default();
        model.forward_positions(&model.store, &mut g, &mut fs, &task);
        let pred = fs.preds[0];
        let loss = g.mse(pred, &Tensor::scalar(0.7));
        let grads = g.backward(loss);
        let pgrads = g.param_grads(&grads);
        // Every module must receive some gradient signal.
        let touched: std::collections::HashSet<String> =
            pgrads.iter().map(|(pid, _)| model.store.name(*pid).to_string()).collect();
        assert!(touched.iter().any(|n| n.starts_with("tt.")), "no transformer grads");
        assert!(touched.iter().any(|n| n.starts_with("kr.")), "no embedding grads");
        assert!(touched.iter().any(|n| n.starts_with("out")), "no output grads");
        let total: f64 = pgrads.iter().map(|(_, g)| g.max_abs()).sum();
        assert!(total > 0.0, "all gradients vanished");
    }

    mod full_row_reference {
        use super::*;
        use crate::infer::{InferScratch, TapeScratch, WindowQuery};
        use mvi_data::generators::{generate_with_shape, DatasetName};

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        /// 8 series × 300 steps, w = 10: 30 windows against the tiny
        /// config's 16-window context, so the context clips at both ends.
        fn obs() -> ObservedDataset {
            let ds = generate_with_shape(DatasetName::Gas, &[8], 300, 5);
            Scenario::mcar(1.0).apply(&ds, 2).observed()
        }

        fn trained(cfg: DeepMviConfig, obs: &ObservedDataset) -> DeepMviModel {
            let mut model = DeepMviModel::new(&DeepMviConfig { max_steps: 10, ..cfg }, obs);
            model.fit(obs);
            model
        }

        /// Asserts that the one-row path equals the full-row reference,
        /// bitwise, over every window in `windows` of every series, on the
        /// evaluator and on the tape, and that the two backends agree.
        fn assert_matches_reference(
            model: &mut DeepMviModel,
            obs: &ObservedDataset,
            windows: &[usize],
        ) {
            let w = model.window();
            for s in 0..obs.n_series() {
                for &window_j in windows {
                    let q = WindowQuery {
                        s,
                        window_j,
                        positions: (window_j * w..(window_j + 1) * w).collect(),
                    };
                    let run = |model: &mut DeepMviModel, reference: bool| {
                        model.full_row_reference = reference;
                        let eval = model.predict_window(&mut InferScratch::new(), obs, &q);
                        let tape = model.predict_window_tape(&mut TapeScratch::new(), obs, &q);
                        (eval, tape)
                    };
                    let (reference_eval, reference_tape) = run(model, true);
                    let (eval, tape) = run(model, false);
                    assert_eq!(bits(&eval), bits(&tape), "s={s} window {window_j}: backends");
                    assert_eq!(bits(&eval), bits(&reference_eval), "s={s} window {window_j}");
                    assert_eq!(bits(&tape), bits(&reference_tape), "s={s} window {window_j}");
                }
            }
            model.full_row_reference = false;
        }

        #[test]
        fn target_row_matches_the_full_row_reference_at_the_clipped_edges() {
            let obs = obs();
            for use_context_window in [true, false] {
                let cfg = DeepMviConfig { use_context_window, ..DeepMviConfig::tiny() };
                let mut model = trained(cfg, &obs);
                let n = obs.t_len() / model.window();
                assert!(n > model.cfg.ctx_windows, "fixture must clip the context");
                // Window 0 is context row jc = 0, window n−1 is jc = ctx−1,
                // and the middle window is an unclipped centred context.
                assert_matches_reference(&mut model, &obs, &[0, 1, n / 2, n - 2, n - 1]);
            }
        }

        #[test]
        fn rolled_horizon_windows_match_the_full_row_reference() {
            let obs = obs();
            let mut model = trained(DeepMviConfig::tiny(), &obs);
            let (w, n) = (model.window(), model.n_windows);
            let mut grown = obs.clone();
            grown.extend_time(obs.t_len() + 3 * w);
            for s in 0..grown.n_series() {
                let vals: Vec<f64> =
                    (0..2 * w).map(|i| (i as f64 / 7.0 + s as f64).cos()).collect();
                grown.record_range(s, obs.t_len(), &vals);
            }
            assert_matches_reference(&mut model, &grown, &[n, n + 1, n + 2]);
        }

        /// Training differentiates the two forms through different-shaped
        /// GEMMs, but every kernel path is row-invariant and the rows the
        /// one-row form drops carry exact zeros, so a fixed-seed fit is
        /// bitwise the full-row fit: the validation trace, every parameter
        /// (the inert key biases `tt.h*.k.b` included) and `impute`.
        #[test]
        fn fixed_seed_fit_matches_a_full_row_reference_fit() {
            let obs = obs();
            let cfg = DeepMviConfig { max_steps: 30, ..DeepMviConfig::tiny() };
            let mut model = DeepMviModel::new(&cfg, &obs);
            let mut reference = DeepMviModel::new(&cfg, &obs);
            reference.full_row_reference = true;
            let report = model.fit(&obs);
            let reference_report = reference.fit(&obs);
            assert_eq!(report.steps, reference_report.steps);
            assert_eq!(bits(&report.val_trace), bits(&reference_report.val_trace));

            let params = model.export_params();
            let reference_params = reference.export_params();
            assert_eq!(params.params.len(), reference_params.params.len());
            for ((name, a), (reference_name, b)) in
                params.params.iter().zip(&reference_params.params)
            {
                assert_eq!(name, reference_name);
                assert_eq!(bits(a.data()), bits(b.data()), "parameter {name}");
            }
            let imputed = model.impute(&obs);
            let reference_imputed = reference.impute(&obs);
            assert_eq!(bits(imputed.data()), bits(reference_imputed.data()), "impute");
        }
    }
}
