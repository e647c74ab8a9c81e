//! Machine-readable throughput harness for the `mvi-kernels` layer.
//!
//! Measures GFLOP/s of the seed's naive `ikj` matmul versus the blocked
//! kernels (serial and parallel) across representative shapes, the CRC-32's
//! MB/s on its portable and dispatched paths, plus the end-to-end DeepMVI
//! train-step latency, and writes the results as JSON so
//! the performance trajectory is tracked across PRs (`BENCH_1.json` is this
//! PR's artifact; later PRs append `BENCH_<n>.json`).
//!
//! ```text
//! cargo run -p mvi-bench --release --bin kernel_bench -- [--threads=N] [--out=PATH] [--quick]
//! ```

use deepmvi::{DeepMviConfig, DeepMviModel};
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use std::fmt::Write as _;
use std::time::Instant;

/// Times `f` adaptively: repeats until ~`budget_secs` of samples, returns the
/// minimum wall-clock seconds over the runs (min is robust to scheduler noise).
fn best_secs(budget_secs: f64, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut runs = 0;
    while (spent < budget_secs && runs < 50) || runs < 3 {
        let start = Instant::now();
        f();
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        spent += secs;
        runs += 1;
    }
    best
}

fn pseudo(len: usize, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
            ((h >> 32) % 2000) as f64 / 500.0 - 2.0
        })
        .collect()
}

struct KernelRow {
    kernel: &'static str,
    variant: &'static str,
    m: usize,
    k: usize,
    n: usize,
    secs: f64,
    gflops: f64,
}

#[allow(clippy::type_complexity)]
fn measure_kernel(
    kernel: &'static str,
    variant: &'static str,
    (m, k, n): (usize, usize, usize),
    budget: f64,
    f: &dyn Fn(usize, usize, usize, &[f64], &[f64], &mut [f64]),
) -> KernelRow {
    let (a_len, b_len) = match kernel {
        "matmul" => (m * k, k * n),
        "matmul_tn" => (k * m, k * n),
        "matmul_nt" => (m * k, n * k),
        other => panic!("unknown kernel {other}"),
    };
    let a = pseudo(a_len, 1);
    let b = pseudo(b_len, 2);
    let mut c = vec![0.0; m * n];
    let secs = best_secs(budget, || {
        c.iter_mut().for_each(|x| *x = 0.0);
        f(m, k, n, &a, &b, &mut c);
        std::hint::black_box(&c);
    });
    let gflops = 2.0 * (m * k * n) as f64 / secs / 1e9;
    eprintln!(
        "{kernel:>10}/{variant:<16} {m:>4}x{k:<4}x{n:<4}  {:>9.3} ms  {gflops:>7.2} GFLOP/s",
        secs * 1e3
    );
    KernelRow { kernel, variant, m, k, n, secs, gflops }
}

struct CrcRow {
    variant: &'static str,
    bytes: usize,
    secs: f64,
    mb_per_s: f64,
}

/// CRC-32 throughput of `f` over a `len`-byte buffer. Each sample digests it
/// enough times to cover ~1 MB, so a 640-byte input is not timed at the
/// clock's resolution.
fn measure_crc32(variant: &'static str, len: usize, budget: f64, f: fn(&[u8]) -> u32) -> CrcRow {
    let buf: Vec<u8> =
        (0..len as u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8).collect();
    let reps = (1 << 20) / len.max(1) + 1;
    let secs = best_secs(budget, || {
        for _ in 0..reps {
            std::hint::black_box(f(std::hint::black_box(&buf)));
        }
    }) / reps as f64;
    let mb_per_s = len as f64 / secs / 1e6;
    eprintln!(
        "{:>10}/{variant:<16} {len:>8} B  {:>9.3} us  {mb_per_s:>9.1} MB/s",
        "crc32",
        secs * 1e6
    );
    CrcRow { variant, bytes: len, secs, mb_per_s }
}

/// The host's CPU model, logical CPU count and architecture: the artifact's
/// `host` field (the model is read from `/proc/cpuinfo`, `unknown` elsewhere).
fn host_description() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")?.split_once(':').map(|(_, m)| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{model}, {} logical CPUs, {}",
        mvi_parallel::available_threads(),
        std::env::consts::ARCH
    )
}

/// One DeepMVI training-step latency measurement (quick config, small data).
fn measure_train_step(steps: usize) -> (usize, f64) {
    let ds = generate_with_shape(DatasetName::Chlorine, &[8], 400, 3);
    let inst = Scenario::mcar(1.0).apply(&ds, 5);
    let obs = inst.observed();
    let cfg = DeepMviConfig {
        max_steps: steps,
        val_instances: 0, // pure train-step timing, no eval pauses
        ..DeepMviConfig::tiny()
    };
    let cfg = DeepMviConfig { threads: mvi_parallel::current_threads(), batch_size: 16, ..cfg };
    let mut model = DeepMviModel::new(&cfg, &obs);
    let start = Instant::now();
    let report = model.fit(&obs);
    let secs = start.elapsed().as_secs_f64();
    (report.steps, secs / report.steps.max(1) as f64)
}

fn json_escape_free(rows: &[KernelRow], crc_rows: &[CrcRow], extra: &str) -> String {
    let mut out = String::from("{\n  \"bench\": 1,\n");
    let _ = writeln!(out, "  \"host\": \"{}\",", host_description().replace(['"', '\\'], ""));
    let _ = writeln!(
        out,
        "  \"threads_available\": {},\n  \"threads_used\": {},",
        mvi_parallel::available_threads(),
        mvi_parallel::current_threads()
    );
    out.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kernel\": \"{}\", \"variant\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"secs\": {:.6e}, \"gflops\": {:.4}}}",
            r.kernel, r.variant, r.m, r.k, r.n, r.secs, r.gflops
        );
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n  \"crc32\": [\n");
    for (i, r) in crc_rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"variant\": \"{}\", \"bytes\": {}, \"secs\": {:.6e}, \"mb_per_s\": {:.1}}}",
            r.variant, r.bytes, r.secs, r.mb_per_s
        );
        out.push_str(if i + 1 == crc_rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n");
    out.push_str(extra);
    out.push_str("}\n");
    out
}

/// Pulls the 256³ `seed_ikj` seconds out of a previous kernel_bench JSON
/// (used by `scripts/bench.sh` to compare against a baseline-codegen build).
fn parse_baseline_secs(json: &str) -> Option<f64> {
    for line in json.lines() {
        if line.contains("\"variant\": \"seed_ikj\"") && line.contains("\"m\": 256") {
            let (_, rest) = line.split_once("\"secs\": ")?;
            let num: String = rest.chars().take_while(|c| !matches!(c, ',' | '}' | ' ')).collect();
            return num.parse().ok();
        }
    }
    None
}

fn main() {
    let mut out_path = String::from("BENCH_1.json");
    let mut quick = false;
    let mut baseline_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--threads=") {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => mvi_parallel::configure_threads(n),
                _ => {
                    eprintln!("--threads needs a positive integer, got `{v}`");
                    std::process::exit(2);
                }
            }
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out_path = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--baseline=") {
            baseline_path = Some(v.to_string());
        } else if arg == "--quick" {
            quick = true;
        } else {
            eprintln!("usage: kernel_bench [--threads=N] [--out=PATH] [--baseline=JSON] [--quick]");
            std::process::exit(2);
        }
    }
    let budget = if quick { 0.05 } else { 0.3 };
    let threads = mvi_parallel::current_threads();
    eprintln!("kernel_bench: {threads} worker threads, budget {budget}s/measurement");

    let shapes = [(64, 64, 64), (128, 128, 128), (256, 256, 256), (512, 64, 512)];
    let mut rows = Vec::new();
    for &shape in &shapes {
        rows.push(measure_kernel("matmul", "seed_ikj", shape, budget, &|m, k, n, a, b, c| {
            mvi_kernels::reference::matmul_ikj(m, k, n, a, b, c)
        }));
        // Blocked kernel pinned to one worker: isolates the tiling win.
        mvi_parallel::configure_threads(1);
        rows.push(measure_kernel(
            "matmul",
            "blocked_serial",
            shape,
            budget,
            &|m, k, n, a, b, c| mvi_kernels::matmul(m, k, n, a, b, c),
        ));
        mvi_parallel::configure_threads(threads);
        rows.push(measure_kernel(
            "matmul",
            "blocked_parallel",
            shape,
            budget,
            &|m, k, n, a, b, c| mvi_kernels::matmul(m, k, n, a, b, c),
        ));
    }
    let big = (256, 256, 256);
    rows.push(measure_kernel("matmul_tn", "blocked_parallel", big, budget, &|m, k, n, a, b, c| {
        // measure_kernel passes (m, k, n); the kernel signature is (k, m, n).
        mvi_kernels::matmul_tn(k, m, n, a, b, c)
    }));
    rows.push(measure_kernel("matmul_nt", "blocked_parallel", big, budget, &|m, k, n, a, b, c| {
        mvi_kernels::matmul_nt(m, k, n, a, b, c)
    }));

    // Headline number: blocked+parallel vs the seed kernel at 256^3.
    let seed_256 = rows
        .iter()
        .find(|r| r.kernel == "matmul" && r.variant == "seed_ikj" && r.m == 256)
        .expect("seed 256 row");
    let par_256 = rows
        .iter()
        .find(|r| r.kernel == "matmul" && r.variant == "blocked_parallel" && r.m == 256)
        .expect("parallel 256 row");
    let speedup = seed_256.secs / par_256.secs;

    // A cold tenant's spill file (732,693 bytes in perfbench's cold_tenants)
    // and a warm reply's frame.
    let mut crc_rows = Vec::new();
    for len in [732_693, 640] {
        crc_rows.push(measure_crc32("portable", len, budget, mvi_kernels::crc32::crc32_portable));
        crc_rows.push(measure_crc32("dispatched", len, budget, mvi_kernels::crc32::crc32));
    }
    eprintln!(
        "crc32 dispatched path at 732,693 bytes: {:?}",
        mvi_kernels::crc32::path_for(732_693)
    );

    let (steps, secs_per_step) = measure_train_step(if quick { 8 } else { 30 });
    eprintln!("train_step: {steps} steps, {:.3} ms/step", secs_per_step * 1e3);
    eprintln!("matmul 256^3 speedup over seed ikj (same build): {speedup:.2}x");

    // Optional apples-to-the-seed comparison: the seed kernel measured from a
    // baseline-codegen build (how the repo actually ran before this layer).
    let shipped = baseline_path.and_then(|p| {
        let json = std::fs::read_to_string(&p).ok()?;
        let secs = parse_baseline_secs(&json)?;
        let s = secs / par_256.secs;
        eprintln!("matmul 256^3 speedup over seed ikj (seed's own build): {s:.2}x");
        Some(format!("  \"matmul_256_speedup_vs_seed_shipped\": {s:.3},\n"))
    });

    let extra = format!(
        "  \"matmul_256_speedup_vs_seed_same_build\": {speedup:.3},\n{}  \"train_step\": \
         {{\"steps\": {steps}, \"secs_per_step\": {secs_per_step:.6e}, \"threads\": \
         {threads}}}\n",
        shipped.unwrap_or_default()
    );
    let json = json_escape_free(&rows, &crc_rows, &extra);
    std::fs::write(&out_path, &json).expect("write bench json");
    eprintln!("wrote {out_path}");
}
