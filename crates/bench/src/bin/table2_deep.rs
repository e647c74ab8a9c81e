//! Regenerates Table 2: the deep-learning method comparison (BRITS, GP-VAE,
//! Transformer, DeepMVI) on the multidimensional datasets and MCAR/Blackout,
//! as an MAE and an RMSE table.

use mvi_bench::BenchArgs;
use mvi_eval::experiments::table2_deep;

fn main() {
    let args = BenchArgs::parse();
    args.emit(&table2_deep(&args.exp));
}
