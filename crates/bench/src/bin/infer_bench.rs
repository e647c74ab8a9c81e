//! Cold-window forward-throughput harness: the recording tape versus the
//! value-only evaluator, as a machine-readable `BENCH_4.json` artifact.
//!
//! Both arms answer the same cold-window query set (every query re-runs the
//! full window forward pass — no serving cache in either arm, so this
//! isolates exactly the execution backend):
//!
//! * **tape** — `predict_window_tape`: the same window pass recorded on one
//!   recycled autograd `Graph`. Its values come from the evaluator's op
//!   bodies, so this arm measures what recording costs on top of them (one
//!   `(op, inputs, output)` record per op, no fused composites);
//! * **eval** — `predict_window_into`: the value-only evaluator (recycled
//!   slot arena, zero steady-state allocation, params by `Arc` share), one
//!   window at a time, each against a K/V table over its own context;
//! * **batch** — `predict_batch` over the whole query set: the same
//!   evaluator, with one K/V table per series shared by that series' windows
//!   and one stacked multi-row transformer pass over them (the path `impute`
//!   and the serving engine take).
//!
//! The three arms are **bitwise identical** in output (asserted here and
//! property-tested in `tests/eval_equivalence.rs`); the artifact's headline
//! `cold_window_speedup_vs_tape` is eval-to-tape window throughput (the
//! recording overhead plus the fused composites), and each scale's
//! `batch_speedup_vs_eval` is batch-to-eval. `host_cores` is the host's
//! logical CPU count, for comparing artifacts across hosts.
//!
//! ```text
//! cargo run -p mvi-bench --release --bin infer_bench -- \
//!     [--threads=N] [--passes=N] [--out=PATH] [--quick]
//! ```

use deepmvi::{DeepMviConfig, DeepMviModel, InferScratch, TapeScratch};
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use std::fmt::Write as _;
use std::time::Instant;

struct Arm {
    name: &'static str,
    windows: usize,
    wall_secs: f64,
}

impl Arm {
    fn wps(&self) -> f64 {
        self.windows as f64 / self.wall_secs
    }
}

/// The host's logical CPUs whatever this process's affinity (the harness
/// usually runs pinned to one), falling back to the available parallelism.
fn host_cores() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(mvi_parallel::available_threads)
}

fn main() {
    let mut out_path = String::from("BENCH_4.json");
    let mut quick = false;
    let mut passes = 40usize;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--threads=") {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => mvi_parallel::configure_threads(n),
                _ => {
                    eprintln!("--threads needs a positive integer, got `{v}`");
                    std::process::exit(2);
                }
            }
        } else if let Some(v) = arg.strip_prefix("--passes=") {
            passes = match v.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!("--passes needs a positive integer, got `{v}`");
                    std::process::exit(2);
                }
            };
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out_path = v.to_string();
        } else if arg == "--quick" {
            quick = true;
        } else {
            eprintln!("usage: infer_bench [--threads=N] [--passes=N] [--out=PATH] [--quick]");
            std::process::exit(2);
        }
    }
    if quick {
        passes = passes.min(4);
    }
    let threads = mvi_parallel::current_threads();

    // Three model scales, each on its own series count and length: the
    // serving config the engine benches run at, on the serving fixture (same
    // shape as serve_bench); the paper's default sizing (p = 32, 4 heads,
    // 64-window context) on perfbench's series length, so the context is
    // smaller than the 100 windows and the batch arm builds edge keys; and
    // the paper sizing on two 2,000-window series (Meteo is 1,000 windows
    // long, BAFU 5,000), where each series' table is ~30× a context and its
    // targets are scattered over hundreds of context starts. Untrained
    // weights: throughput depends on shapes and control flow, not parameter
    // values.
    let paper = DeepMviConfig { threads: 1, ..DeepMviConfig::default() };
    let scales: [(&str, DeepMviConfig, usize, usize); 3] = [
        ("serving_tiny", DeepMviConfig::tiny(), 8, 400),
        ("paper_default", paper.clone(), 8, 1000),
        ("paper_long_series", paper, 2, 20_000),
    ];

    let mut scale_jsons = Vec::new();
    // Headline = the serving-scale speedup: that is the shape the engine's
    // cold-window path actually runs (the serve_bench fixture). The paper
    // scale is reported alongside: its wider layers do more arithmetic per
    // op, so the per-op overhead the evaluator removes is a smaller share.
    let mut headline_speedup = f64::NAN;
    for (scale_name, cfg, series, t_len) in &scales {
        let ds = generate_with_shape(DatasetName::Electricity, &[*series], *t_len, 7);
        let obs = Scenario::mcar(1.0).apply(&ds, 3).observed();
        let model = DeepMviModel::new(cfg, &obs);
        let queries = model.missing_queries(&obs);
        let positions: usize = queries.iter().map(|q| q.positions.len()).sum();
        eprintln!(
            "infer_bench[{scale_name}]: {series}x{t_len}, {} cold windows ({positions} positions), \
             {passes} passes, {threads} worker threads",
            queries.len()
        );

        // Warm the scratches, and pin down bitwise agreement while at it.
        let mut tape = TapeScratch::new();
        let mut eval = InferScratch::new();
        let mut batch = InferScratch::new();
        let mut out = Vec::new();
        let batched = model.predict_batch(&mut batch, &obs, &queries, threads);
        for (q, from_batch) in queries.iter().zip(&batched) {
            let expect = model.predict_window_tape(&mut tape, &obs, q);
            out.clear();
            model.predict_window_into(&mut eval, &obs, q, &mut out);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&expect) == bits(&out),
                "tape/eval divergence on s={} w={}",
                q.s,
                q.window_j
            );
            assert!(
                bits(&out) == bits(from_batch),
                "eval/batch divergence on s={} w={}",
                q.s,
                q.window_j
            );
        }

        // Best-of-3 repetitions per arm (the same best-of-N wall-clock
        // methodology as the kernel harness) so a noisy neighbour on the
        // shared reference container cannot skew one arm.
        const REPS: usize = 3;
        let mut tape_secs = f64::INFINITY;
        let mut eval_secs = f64::INFINITY;
        let mut batch_secs = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            for _ in 0..passes {
                for q in &queries {
                    std::hint::black_box(model.predict_window_tape(&mut tape, &obs, q));
                }
            }
            tape_secs = tape_secs.min(t0.elapsed().as_secs_f64());

            let t0 = Instant::now();
            for _ in 0..passes {
                for q in &queries {
                    out.clear();
                    model.predict_window_into(&mut eval, &obs, q, &mut out);
                    std::hint::black_box(out.last());
                }
            }
            eval_secs = eval_secs.min(t0.elapsed().as_secs_f64());

            let t0 = Instant::now();
            for _ in 0..passes {
                std::hint::black_box(model.predict_batch(&mut batch, &obs, &queries, threads));
            }
            batch_secs = batch_secs.min(t0.elapsed().as_secs_f64());
        }
        let windows = passes * queries.len();
        let tape_arm = Arm { name: "tape", windows, wall_secs: tape_secs };
        let eval_arm = Arm { name: "eval", windows, wall_secs: eval_secs };
        let batch_arm = Arm { name: "batch", windows, wall_secs: batch_secs };
        let arms = [&tape_arm, &eval_arm, &batch_arm];

        for arm in arms {
            eprintln!(
                "  {:>4}: {} window passes in {:.3}s = {:>9.1} windows/s ({:.1} us/window)",
                arm.name,
                arm.windows,
                arm.wall_secs,
                arm.wps(),
                1e6 * arm.wall_secs / arm.windows as f64
            );
        }
        let speedup = eval_arm.wps() / tape_arm.wps();
        let batch_speedup = batch_arm.wps() / eval_arm.wps();
        eprintln!(
            "  cold-window speedup vs tape: {speedup:.2}x, batch vs eval: {batch_speedup:.2}x"
        );
        if *scale_name == "serving_tiny" {
            headline_speedup = speedup;
        }

        // The context the pass actually ran at: `DeepMviModel::context` clips
        // the configured context to the model's window count.
        let n_windows = model.t_len().div_ceil(model.window());
        let ctx_windows = cfg.ctx_windows.min(n_windows).max(1);
        let mut sj = String::new();
        let _ = writeln!(sj, "    {{\"scale\": \"{scale_name}\",");
        let _ = writeln!(sj, "     \"dataset\": {{\"series\": {series}, \"t_len\": {t_len}}},");
        let _ = writeln!(
            sj,
            "     \"model\": {{\"p\": {}, \"n_heads\": {}, \"ctx_windows\": {}, \"window\": {}}},",
            cfg.p,
            cfg.n_heads,
            ctx_windows,
            model.window()
        );
        let _ =
            writeln!(sj, "     \"cold_windows\": {}, \"positions\": {positions},", queries.len());
        let _ = writeln!(sj, "     \"arms\": [");
        for (i, arm) in arms.into_iter().enumerate() {
            let _ = write!(
                sj,
                "       {{\"name\": \"{}\", \"window_passes\": {}, \"wall_secs\": {:.6}, \
                 \"windows_per_sec\": {:.2}, \"us_per_window\": {:.3}}}",
                arm.name,
                arm.windows,
                arm.wall_secs,
                arm.wps(),
                1e6 * arm.wall_secs / arm.windows as f64
            );
            sj.push_str(if i + 1 == arms.len() { "\n" } else { ",\n" });
        }
        let _ = writeln!(sj, "     ],");
        let _ = writeln!(sj, "     \"batch_speedup_vs_eval\": {batch_speedup:.3},");
        let _ = write!(sj, "     \"cold_window_speedup_vs_tape\": {speedup:.3}}}");
        scale_jsons.push(sj);
    }

    let mut json = String::from("{\n  \"bench\": 4,\n  \"scenario\": \"tape_free_inference\",\n");
    let _ = writeln!(
        json,
        "  \"host_cores\": {},\n  \"threads_used\": {threads},\n  \"passes\": {passes},\n  \
         \"bitwise_identical\": true,",
        host_cores()
    );
    let _ = writeln!(json, "  \"scales\": [\n{}\n  ],", scale_jsons.join(",\n"));
    let _ = writeln!(
        json,
        "  \"headline_scale\": \"serving_tiny\",\n  \"cold_window_speedup_vs_tape\": \
         {headline_speedup:.3}"
    );
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    eprintln!(
        "wrote {out_path} (serving-scale cold-window speedup {headline_speedup:.2}x over the tape)"
    );
}
