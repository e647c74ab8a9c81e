//! Machinery shared by the conventional baselines.

use mvi_data::dataset::ObservedDataset;
use mvi_data::imputer::interpolate_series;
use mvi_tensor::{Mask, Tensor};

/// The flattened `series × time` matrix view used by all matrix-based baselines,
/// with missing entries pre-filled by per-series linear interpolation (the paper
/// notes CDRec "first uses interpolation/extrapolation to initialize the missing
/// values"; the SVD family does the same in the benchmark of \[12\]).
pub struct MatrixTask {
    /// Interpolation-initialized matrix `[n_series, T]`.
    pub init: Tensor,
    /// Availability mask `[n_series, T]`.
    pub available: Mask,
}

impl MatrixTask {
    /// Builds the flattened, interpolation-initialized view of an observed dataset.
    pub fn new(obs: &ObservedDataset) -> Self {
        let flat = obs.flattened();
        let mut init = flat.values.clone();
        for s in 0..flat.n_series() {
            let avail = flat.available.series(s).to_vec();
            interpolate_series(init.series_mut(s), &avail);
        }
        Self { init, available: flat.available }
    }

    /// Number of series (rows).
    pub fn n_series(&self) -> usize {
        self.init.rows()
    }

    /// Series length (columns).
    pub fn t_len(&self) -> usize {
        self.init.cols()
    }

    /// Writes `filled`'s entries at missing positions into a copy of the observed
    /// matrix (observed entries always keep their original values), reshaped back to
    /// the dataset's tensor shape.
    pub fn finish(&self, obs: &ObservedDataset, filled: &Tensor) -> Tensor {
        let mut out = obs.values.clone();
        for (i, (o, &a)) in out.data_mut().iter_mut().zip(self.available.data()).enumerate() {
            if !a {
                *o = filled.at(i);
            }
        }
        out
    }
}

/// Replaces the missing entries of `work` with those of `estimate` (observed
/// entries are restored from `observed`), returning the normalized Frobenius
/// distance between the old and new missing entries — the convergence test the
/// CDRec/SVDImp iterations use.
pub fn refresh_missing(
    work: &mut Tensor,
    estimate: &Tensor,
    observed: &Tensor,
    available: &Mask,
) -> f64 {
    let mut diff2 = 0.0;
    let mut norm2 = 0.0;
    for i in 0..work.len() {
        if available.at(i) {
            work.data_mut()[i] = observed.at(i);
        } else {
            let old = work.at(i);
            let new = estimate.at(i);
            diff2 += (new - old) * (new - old);
            norm2 += new * new;
            work.data_mut()[i] = new;
        }
    }
    if norm2 > 0.0 {
        (diff2 / norm2).sqrt()
    } else {
        0.0
    }
}

/// Pearson correlation between two series restricted to co-observed positions.
/// Returns 0 when fewer than 3 entries are co-observed or a variance vanishes.
pub fn pearson_co_observed(a: &[f64], b: &[f64], avail_a: &[bool], avail_b: &[bool]) -> f64 {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..a.len() {
        if avail_a[i] && avail_b[i] {
            xs.push(a[i]);
            ys.push(b[i]);
        }
    }
    if xs.len() < 3 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let mut num = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(&ys) {
        num += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    let denom = (vx * vy).sqrt();
    if denom < 1e-12 {
        0.0
    } else {
        num / denom
    }
}

/// Default factorization rank used by the SVD/CD family: a third of the smaller
/// matrix dimension, clamped to `[1, 10]` (the regime the benchmark of \[12\] tunes
/// these methods in).
pub fn default_rank(m: usize, n: usize) -> usize {
    (m.min(n) / 3).clamp(1, 10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvi_data::dataset::{Dataset, DimSpec};
    use mvi_data::scenarios::Scenario;

    fn toy_obs() -> ObservedDataset {
        let ds = Dataset::new(
            "t",
            vec![DimSpec::indexed("series", "s", 4)],
            Tensor::from_fn(&[4, 50], |idx| ((idx[0] + 1) * (idx[1] + 1)) as f64 / 50.0),
        );
        Scenario::mcar(1.0).apply(&ds, 5).observed()
    }

    #[test]
    fn matrix_task_interpolates_missing() {
        let obs = toy_obs();
        let task = MatrixTask::new(&obs);
        assert_eq!(task.n_series(), 4);
        assert_eq!(task.t_len(), 50);
        assert!(task.init.all_finite());
        // No zeros left at interior missing positions of a strictly positive series.
        for s in 0..4 {
            for (t, &a) in task.available.series(s).iter().enumerate() {
                if !a {
                    assert!(task.init.series(s)[t] > 0.0, "series {s} t {t} not interpolated");
                }
            }
        }
    }

    #[test]
    fn finish_keeps_observed_entries() {
        let obs = toy_obs();
        let task = MatrixTask::new(&obs);
        let fake = Tensor::full(&[4, 50], -99.0);
        let out = task.finish(&obs, &fake);
        for i in 0..out.len() {
            if obs.available.at(i) {
                assert_eq!(out.at(i), obs.values.at(i));
            } else {
                assert_eq!(out.at(i), -99.0);
            }
        }
    }

    #[test]
    fn refresh_missing_converges_to_zero_on_fixed_point() {
        let obs = toy_obs();
        let task = MatrixTask::new(&obs);
        let mut work = task.init.clone();
        let estimate = work.clone();
        let delta = refresh_missing(&mut work, &estimate, &task.init, &task.available);
        assert!(delta < 1e-12);
    }

    #[test]
    fn pearson_handles_perfect_and_anti_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let c = [4.0, 3.0, 2.0, 1.0];
        let all = [true; 4];
        assert!((pearson_co_observed(&a, &b, &all, &all) - 1.0).abs() < 1e-12);
        assert!((pearson_co_observed(&a, &c, &all, &all) + 1.0).abs() < 1e-12);
        // Too few co-observed points -> 0.
        let sparse = [true, true, false, false];
        assert_eq!(pearson_co_observed(&a, &b, &sparse, &all), 0.0);
    }

    #[test]
    fn default_rank_is_clamped() {
        assert_eq!(default_rank(10, 1000), 3);
        assert_eq!(default_rank(2, 1000), 1);
        assert_eq!(default_rank(100, 1000), 10);
    }
}
