//! Regenerates Figure 5: MAE and RMSE of the conventional methods and DeepMVI
//! on five datasets under all four missing scenarios (x = 10% incomplete
//! series).

use mvi_bench::BenchArgs;
use mvi_eval::experiments::fig5_conventional;

fn main() {
    let args = BenchArgs::parse();
    args.emit(&fig5_conventional(&args.exp));
}
