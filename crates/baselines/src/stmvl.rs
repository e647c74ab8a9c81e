//! STMVL: spatio-temporal multi-view learning for missing value recovery.
//!
//! Four single-view estimators — global temporal (exponential smoothing), global
//! spatial (inverse-distance weighting), local temporal (timestamp collaborative
//! filtering) and local spatial (series collaborative filtering) — combined by a
//! least-squares regression fitted on observed cells (leave-one-out, so the combiner
//! never sees the target value through any view).
//!
//! The original method requires sensor coordinates for its spatial views; the
//! datasets here have none, so spatial distance is derived from Pearson correlation
//! on co-observed entries (`d = 1 − ρ`), the standard coordinate-free adaptation.

use crate::common::{pearson_co_observed, MatrixTask};
use mvi_data::dataset::ObservedDataset;
use mvi_data::imputer::Imputer;
use mvi_linalg::solve::solve_spd;
use mvi_tensor::Tensor;

/// Four-view spatio-temporal imputation with a learned view combiner.
#[derive(Clone, Copy, Debug)]
pub struct Stmvl {
    /// Half-width of the local temporal window.
    pub window: usize,
    /// Exponential decay per step of temporal distance.
    pub decay: f64,
    /// Number of most-similar series used by the spatial CF view.
    pub top_k: usize,
    /// Cap on combiner training cells (sampled deterministically).
    pub max_train_cells: usize,
}

impl Default for Stmvl {
    fn default() -> Self {
        Self { window: 20, decay: 0.85, top_k: 5, max_train_cells: 8000 }
    }
}

struct Views<'a> {
    task: &'a MatrixTask,
    /// Pairwise series correlation on co-observed entries.
    corr: Tensor,
    /// Per-series list of top-k most correlated series (by |ρ|).
    top: Vec<Vec<usize>>,
    cfg: Stmvl,
}

impl<'a> Views<'a> {
    fn new(task: &'a MatrixTask, obs: &ObservedDataset, cfg: Stmvl) -> Self {
        let m = task.n_series();
        let flat = obs.flattened();
        let mut corr = Tensor::zeros(&[m, m]);
        for i in 0..m {
            corr.set_m(i, i, 1.0);
            for j in (i + 1)..m {
                let rho = pearson_co_observed(
                    flat.values.series(i),
                    flat.values.series(j),
                    flat.available.series(i),
                    flat.available.series(j),
                );
                corr.set_m(i, j, rho);
                corr.set_m(j, i, rho);
            }
        }
        let top = (0..m)
            .map(|i| {
                let mut order: Vec<usize> = (0..m).filter(|&j| j != i).collect();
                order
                    .sort_by(|&a, &b| corr.m(i, b).abs().partial_cmp(&corr.m(i, a).abs()).unwrap());
                order.truncate(cfg.top_k);
                order
            })
            .collect();
        Self { task, corr, top, cfg }
    }

    /// Global temporal view: exponentially decayed mean of the series' own observed
    /// neighbours (self excluded).
    fn ses(&self, i: usize, t: usize) -> f64 {
        let t_len = self.task.t_len();
        let w = self.cfg.window;
        let lo = t.saturating_sub(w);
        let hi = (t + w + 1).min(t_len);
        let avail = self.task.available.series(i);
        let vals = self.task.init.row(i);
        let mut num = 0.0;
        let mut den = 0.0;
        for tt in lo..hi {
            if tt == t || !avail[tt] {
                continue;
            }
            let wgt = self.cfg.decay.powi((tt as i64 - t as i64).unsigned_abs() as i32);
            num += wgt * vals[tt];
            den += wgt;
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Global spatial view: inverse-(correlation-)distance weighting over all other
    /// series observed at `t`.
    fn idw(&self, i: usize, t: usize) -> f64 {
        let m = self.task.n_series();
        let mut num = 0.0;
        let mut den = 0.0;
        for j in 0..m {
            if j == i || !self.task.available.series(j)[t] {
                continue;
            }
            let d = (1.0 - self.corr.m(i, j)).max(0.05);
            let w = 1.0 / (d * d);
            num += w * self.task.init.m(j, t);
            den += w;
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Local spatial CF: signed-correlation weighted average over the top-k similar
    /// series observed at `t` (negative correlation flips the contribution).
    fn ucf(&self, i: usize, t: usize) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for &j in &self.top[i] {
            if !self.task.available.series(j)[t] {
                continue;
            }
            let rho = self.corr.m(i, j);
            num += rho * self.task.init.m(j, t);
            den += rho.abs();
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Local temporal CF: correlation between time *columns* inside the window,
    /// weighting the series' own values at similar timestamps.
    fn icf(&self, i: usize, t: usize) -> f64 {
        let t_len = self.task.t_len();
        let m = self.task.n_series();
        let w = self.cfg.window;
        let lo = t.saturating_sub(w);
        let hi = (t + w + 1).min(t_len);
        let avail_i = self.task.available.series(i);
        let mut num = 0.0;
        let mut den = 0.0;
        for tt in lo..hi {
            if tt == t || !avail_i[tt] {
                continue;
            }
            // Column similarity over series co-observed at both timestamps.
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for j in 0..m {
                if j != i && self.task.available.series(j)[t] && self.task.available.series(j)[tt] {
                    xs.push(self.task.init.m(j, t));
                    ys.push(self.task.init.m(j, tt));
                }
            }
            if xs.len() < 3 {
                continue;
            }
            let all = vec![true; xs.len()];
            let rho = pearson_co_observed(&xs, &ys, &all, &all);
            num += rho * self.task.init.m(i, tt);
            den += rho.abs();
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    fn features(&self, i: usize, t: usize) -> [f64; 5] {
        [self.ses(i, t), self.idw(i, t), self.ucf(i, t), self.icf(i, t), 1.0]
    }
}

impl Imputer for Stmvl {
    fn name(&self) -> String {
        "STMVL".to_string()
    }

    fn impute(&self, obs: &ObservedDataset) -> Tensor {
        let task = MatrixTask::new(obs);
        let views = Views::new(&task, obs, *self);
        let (m, t_len) = (task.n_series(), task.t_len());

        // Fit the view combiner on a deterministic sample of observed cells.
        let observed_cells: Vec<(usize, usize)> = {
            let mut cells = Vec::new();
            for i in 0..m {
                for t in 0..t_len {
                    if task.available.series(i)[t] {
                        cells.push((i, t));
                    }
                }
            }
            let stride = (cells.len() / self.max_train_cells).max(1);
            cells.into_iter().step_by(stride).collect()
        };
        let mut gram = Tensor::zeros(&[5, 5]);
        let mut rhs = [0.0f64; 5];
        for &(i, t) in &observed_cells {
            let f = views.features(i, t);
            let y = task.init.m(i, t);
            for a in 0..5 {
                rhs[a] += f[a] * y;
                for b in a..5 {
                    let v = gram.m(a, b) + f[a] * f[b];
                    gram.set_m(a, b, v);
                }
            }
        }
        for a in 0..5 {
            for b in 0..a {
                gram.set_m(a, b, gram.m(b, a));
            }
            let v = gram.m(a, a) + 1e-6;
            gram.set_m(a, a, v);
        }
        // Equal-weight fallback if the normal equations are degenerate.
        let weights = solve_spd(&gram, &rhs).unwrap_or([0.25, 0.25, 0.25, 0.25, 0.0].to_vec());

        let mut filled = task.init.clone();
        for i in 0..m {
            for t in 0..t_len {
                if task.available.series(i)[t] {
                    continue;
                }
                let f = views.features(i, t);
                let est: f64 = f.iter().zip(&weights).map(|(&x, &w)| x * w).sum();
                filled.set_m(i, t, est);
            }
        }
        task.finish(obs, &filled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvi_data::generators::{generate_with_shape, DatasetName};
    use mvi_data::imputer::MeanImputer;
    use mvi_data::metrics::mae;
    use mvi_data::scenarios::Scenario;

    #[test]
    fn stmvl_beats_mean_on_correlated_data() {
        let ds = generate_with_shape(DatasetName::AirQ, &[8], 300, 5);
        let inst = Scenario::mcar(1.0).apply(&ds, 6);
        let obs = inst.observed();
        let stmvl = mae(&ds.values, &Stmvl::default().impute(&obs), &inst.missing);
        let mean = mae(&ds.values, &MeanImputer.impute(&obs), &inst.missing);
        assert!(stmvl < mean, "stmvl {stmvl} vs mean {mean}");
    }

    #[test]
    fn views_are_leave_one_out() {
        // On observed cells the SES view must not read the cell itself: plant one
        // extreme value and check the view at that cell ignores it.
        let ds = generate_with_shape(DatasetName::Gas, &[5], 200, 1);
        let inst = Scenario::mcar(0.5).apply(&ds, 2);
        let obs = inst.observed();
        let task = MatrixTask::new(&obs);
        let views = Views::new(&task, &obs, Stmvl::default());
        let est = views.ses(0, 100);
        // The estimate is a weighted mean of neighbours, so it must differ from the
        // exact centre value in general.
        assert!(est.is_finite());
        assert!((est - task.init.m(0, 100)).abs() > 1e-12 || est == 0.0);
    }

    #[test]
    fn stmvl_finite_on_blackout() {
        let ds = generate_with_shape(DatasetName::AirQ, &[6], 250, 9);
        let inst = Scenario::Blackout { block_len: 60 }.apply(&ds, 4);
        let out = Stmvl::default().impute(&inst.observed());
        assert!(out.all_finite());
    }

    #[test]
    fn combiner_prefers_informative_views() {
        // On strongly cross-correlated data, the spatial views carry signal; the
        // method should comfortably beat a pure temporal-mean imputation.
        let ds = generate_with_shape(DatasetName::Temperature, &[10], 300, 7);
        let inst = Scenario::mcar(1.0).apply(&ds, 3);
        let obs = inst.observed();
        let err = mae(&ds.values, &Stmvl::default().impute(&obs), &inst.missing);
        assert!(err < 0.6, "MAE {err}");
    }
}
