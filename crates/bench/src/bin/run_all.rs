//! Runs every table/figure regeneration in sequence (the full evaluation
//! section). With `--csv=DIR` the complete set of CSVs lands in one directory.

use mvi_bench::BenchArgs;
use mvi_eval::experiments as exp;

fn main() {
    let args = BenchArgs::parse();
    let mut tables = Vec::new();
    eprintln!("[1/9] Table 1 (datasets)...");
    tables.push(exp::table1_datasets(&args.exp));
    eprintln!("[2/9] Figure 4 (visual)...");
    tables.extend(exp::fig4_visual(&args.exp));
    eprintln!("[3/9] Figure 5 (conventional)...");
    tables.extend(exp::fig5_conventional(&args.exp));
    eprintln!("[4/9] Figure 6 (sweeps)...");
    tables.extend(exp::fig6_sweeps(&args.exp, &args.pct_points(), &args.blackout_sizes()));
    eprintln!("[5/9] Table 2 (deep methods)...");
    tables.extend(exp::table2_deep(&args.exp));
    eprintln!("[6/9] Figure 7 (ablations)...");
    tables.extend(exp::fig7_ablation(&args.exp, &args.pct_points()));
    eprintln!("[7/9] Figures 8 & 9...");
    let sizes: Vec<usize> =
        if args.exp.scale < 0.15 { vec![1, 5, 10] } else { vec![1, 2, 4, 6, 8, 10] };
    tables.push(exp::fig8_finegrained(&args.exp, &sizes));
    tables.push(exp::fig9_multidim(&args.exp, &args.pct_points()));
    eprintln!("[8/9] Figure 10 (runtime)...");
    let lengths: Vec<usize> = [1000usize, 5000, 10_000, 50_000]
        .iter()
        .map(|&l| ((l as f64 * args.exp.scale) as usize).max(256))
        .collect();
    tables.push(exp::fig10a_runtime(&args.exp));
    tables.push(exp::fig10b_scaling(&args.exp, &lengths));
    eprintln!("[9/9] Figure 11 (analytics)...");
    tables.push(exp::fig11_analytics(&args.exp));
    args.emit(&tables);
}
