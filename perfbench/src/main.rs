//! DeepMVI training and serving benchmark.
//!
//! ```text
//! perfbench --workload <offline_fit|warm_reads|cold_tenants>
//!           --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//! ```
//!
//! Sets the workload up three times (reporting the median set-up time),
//! measures for `--seconds`, checks every output, and prints a run record
//! line followed by one JSON result line. With `--trace 0` the result holds
//! the end-to-end metrics; with `--trace 1` the measured phase runs traced,
//! a per-layer replay follows, and the result holds the per-layer metrics.
//! Exits 1 when an output check or an isolation assertion fails. See
//! `NOTES.md` for the design.

mod common;
mod layers;
mod phases;
mod pins;
mod setup;
mod trace;

use common::{cpu_jiffies, host_vcpus, median, peak_rss_mib, Checks, Hist};
use phases::{Outcome, Spec};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["offline_fit", "warm_reads", "cold_tenants"];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Imputation error relative to per-series mean imputation must stay below
/// this on every seed, pinned or not. Seeds 1–400 reach at most 0.963.
const QUALITY_FLOOR: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad("a number of seconds in (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scratch" => args.scratch = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    mvi_parallel::configure_threads(1);
    let dir = args.scratch.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");

    // Set-up, several times; the last one is kept for the measured phase.
    let mut setup_s = Vec::new();
    let mut setup_stats = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let s = setup::build(&args.workload, args.seed, dir.join(format!("spill-{rep}")));
        setup_s.push(t.elapsed().as_secs_f64());
        setup_stats.push((s.trained.generate_s, s.trained.fit_s, s.trained.steps));
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");

    let mut checks = Checks::default();
    checks.check(s.trained.steps == setup::FIT_STEPS, || {
        format!("training ran {} steps, not the fixed {}", s.trained.steps, setup::FIT_STEPS)
    });
    let tr = Tracer::new(args.trace);
    let spec = Spec { seed: args.seed, seconds: args.seconds };
    let run: fn(&setup::Setup, &Spec, &Tracer, &mut Checks) -> Outcome =
        match args.workload.as_str() {
            "offline_fit" => phases::offline,
            "warm_reads" => phases::warm,
            _ => phases::cold,
        };
    let jiffies = cpu_jiffies();
    let out = run(&s, &spec, &tr, &mut checks);
    let peak_rss = peak_rss_mib();
    let (steal, total) = cpu_jiffies();
    let steal_pct = 100.0 * (steal - jiffies.0) as f64 / (total - jiffies.1).max(1) as f64;

    checks.check(out.hwm_reset, || {
        "cannot reset the memory high-water mark, so peak_rss_mb would include set-up".into()
    });
    let baseline = mean_imputation_mae(&s);
    let pinned = pins::mae(args.seed);
    if let Some(want) = pinned {
        checks.check((out.mae - want).abs() <= 1e-6 * want, || {
            format!("impute_mae {} differs from the pinned {want} for seed {}", out.mae, args.seed)
        });
    }
    checks.check(out.mae < QUALITY_FLOOR * baseline, || {
        format!(
            "impute_mae {} is not below {QUALITY_FLOOR} x mean imputation ({baseline})",
            out.mae
        )
    });

    let layers = args.trace.then(|| {
        let l = layers::replay(&s, args.seed, &dir, &out, &setup_stats, &tr, &mut checks);
        let spans = args.scratch.join(format!("spans-{}.csv", args.workload));
        if let Err(e) = tr.write_csv(&spans) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
        }
        l
    });
    let metrics: Vec<(&str, f64, &str)> = match &layers {
        None => vec![
            ("setup_s", median(&setup_s), "s"),
            ("impute_mae", out.mae, "abs_error"),
            ("op_mean_ms", out.windowed(Hist::mean), "ms"),
            ("op_tail_ms", out.windowed(|h| h.pct(phases::TAIL_Q)), "ms"),
            ("peak_rss_mb", peak_rss, "MiB"),
        ],
        Some(l) => layers::METRICS
            .iter()
            .map(|&(name, unit)| (name, l.get(name).expect("every per-layer metric is set"), unit))
            .collect(),
    };
    for (name, v, _) in &metrics {
        checks.check(v.is_finite(), || format!("metric {name} is not finite"));
    }

    println!("{}", record(&args, &out, &setup_s, baseline, pinned, peak_rss, steal_pct, &tr));
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.passed(),
        out.phase.attempted,
        out.phase.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");
    println!("{json}");
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
    if !checks.passed() {
        std::process::exit(1);
    }
}

/// MAE of per-series mean imputation over the same missing cells: the
/// floor every DeepMVI run must beat.
fn mean_imputation_mae(s: &setup::Setup) -> f64 {
    let inst = &s.trained.inst;
    let mut imputed = inst.truth.values.clone();
    for q in 0..setup::SERIES {
        let avail = s.trained.obs.available.series(q);
        let vals = s.trained.obs.values.series(q);
        let (sum, n) = vals
            .iter()
            .zip(avail)
            .filter(|(_, &a)| a)
            .fold((0.0, 0usize), |(s, n), (v, _)| (s + v, n + 1));
        let m = sum / n.max(1) as f64;
        for (v, &a) in imputed.series_mut(q).iter_mut().zip(avail) {
            if !a {
                *v = m;
            }
        }
    }
    mvi_data::metrics::mae(&inst.truth.values, &imputed, &inst.missing)
}

/// The run record: host, threads, seed, sample counts behind every
/// percentile, failure accounting of the measured phase and the generator's lag.
#[allow(clippy::too_many_arguments)]
fn record(
    args: &Args,
    out: &Outcome,
    setup_s: &[f64],
    baseline: f64,
    pinned: Option<f64>,
    peak_rss: f64,
    steal_pct: f64,
    tr: &Tracer,
) -> String {
    let cpus_allowed = std::thread::available_parallelism().map_or(0, |n| n.get());
    let all = &out.ops;
    let pcts: Vec<String> = [10, 25, 50, 75, 90, 99]
        .iter()
        .map(|&p| format!("\"p{p}_ms\": {:?}", all.pct(f64::from(p) / 100.0)))
        .collect();
    format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_vcpus\": {}, \"cpus_allowed\": {cpus_allowed}, \
         \"host_steal_pct\": {steal_pct:.2}, \"compute_threads\": {}, \
         \"setup_reps\": {SETUP_REPS}, \"setup_s\": {setup_s:?}, \"op\": \"{}\", \
         \"windows\": {}, \"wall_s\": {:?}, \
         \"all_ops\": {{\"samples\": {}, \"mean_ms\": {:?}, {}}}, \
         \"windowed\": {{\"mean\": {:?}, \"p50\": {:?}, \"p90\": {:?}, \"p99\": {:?}, \
         \"window_means\": {:?}}}, \
         \"gen_lag_ms\": {{\"samples\": {}, \"p50\": {:?}, \"p99\": {:?}}}, \
         \"impute_mae\": {:?}, \"mean_imputation_mae\": {baseline:?}, \"pinned_mae\": {}, \
         \"peak_rss_mib\": {peak_rss:?}, \"hwm_reset\": {}, \"spans_kept\": {}, \
         \"spans_dropped\": {}, \"measured_phase\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        host_vcpus(),
        mvi_parallel::current_threads(),
        out.kind,
        out.windows.len(),
        out.wall_s,
        all.len(),
        all.mean(),
        pcts.join(", "),
        out.windowed(Hist::mean),
        out.windowed(|h| h.pct(0.5)),
        out.windowed(|h| h.pct(0.9)),
        out.windowed(|h| h.pct(0.99)),
        out.windows.iter().map(Hist::mean).collect::<Vec<_>>(),
        out.gen_lag.len(),
        out.gen_lag.pct(0.5),
        out.gen_lag.pct(0.99),
        out.mae,
        pinned.map_or("null".to_string(), |v| format!("{v:?}")),
        out.hwm_reset,
        tr.kept(),
        tr.dropped(),
        out.phase.json(),
    )
}
