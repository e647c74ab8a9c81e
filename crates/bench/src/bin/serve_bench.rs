//! Serving harness: every serving scenario of the `BENCH_<n>.json` trail,
//! run over one trained model in one process.
//!
//! `main` trains one DeepMVI model on an 8×400 electricity-shaped dataset,
//! then runs each scenario of the scenario table and writes its artifact to
//! `<out-dir>/BENCH_<n>.json`:
//!
//! | scenario    | artifact  | measures |
//! |-------------|-----------|----------|
//! | `growth`    | `BENCH_3` | appends streaming past the trained `t_len`, then a tail-query sweep |
//! | `retention` | `BENCH_5` | a stream 20× the retention window through the ring, then a warm restart from a snapshot file vs a cold one |
//! | `faults`    | `BENCH_6` | unguarded vs guarded vs guarded + per-request deadline throughput |
//! | `sharded`   | `BENCH_7` | warm-read scaling at 1/2/4/8 readers, and the blocked-time probe |
//! | `tenancy`   | `BENCH_9` | 1/4/16 tenants behind one door, and a hostile tenant's effect on a victim's p99 |
//!
//! Operations that `perfbench` already measures with repeated runs have no
//! arm here: a full `impute` (`offline_fit`), wire queries against a warm
//! engine (`warm_reads`) and tenant reloads (`cold_tenants`).
//!
//! Every throughput arm — closed-loop client threads replaying the shared
//! request trace, or one client replaying a prefix of it — goes through one
//! runner (`run_arm`), and every artifact through one writer
//! (`write_artifact`). Arm rows are `{name, requests, wall_secs, rps,
//! p50_ms, p99_ms}`, plus `tenants` on `BENCH_9` rows.
//!
//! The harness asserts only what makes its numbers mean something: resident
//! storage never exceeds the ring cap; the warm restart computes zero
//! windows and the cold one more than zero; throughput arms catch no panic;
//! warm reads accumulate zero core-lock wait under mixed traffic; in full
//! mode the guarded arm holds ≥ 95% of unguarded throughput; and a victim
//! tenant's p99 stays bounded while a hostile neighbour panics. The typed-failure behaviour
//! itself (quarantine, NaN refusal, panic isolation, corrupt-snapshot
//! fallback, overload shedding, graceful drain, unknown tenants, bitwise
//! isolation) is proven by `tests/serve_faults.rs`, `tests/net_faults.rs`
//! and `tests/net_tenancy.rs`.
//!
//! All `BENCH_<n>.json` schemas and host-comparability rules are documented
//! in `PERFORMANCE.md`.
//!
//! ```text
//! cargo run -p mvi-bench --release --bin serve_bench -- \
//!     [--threads=N] [--quick] [--only=<scenario>] [--out-dir=DIR]
//! ```

use deepmvi::{DeepMviConfig, DeepMviModel};
use mvi_data::dataset::{Dataset, ObservedDataset};
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_net::{ClientConfig, NetClient, NetServer, RetryPolicy, ServerConfig};
use mvi_serve::{
    BatcherConfig, ImputationEngine, MicroBatcher, ModelRegistry, RegistryConfig, ServeSnapshot,
    ValueGuard,
};
use mvi_tensor::Tensor;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERIES: usize = 8;
const T: usize = 400;
/// Ground truth extends this far past the trained length — the stream source
/// for the growth scenario.
const GROWTH_MAX: usize = 240;
/// Retention window of the bounded-memory scenario (time steps).
const RETENTION: usize = 150;
/// The long-stream scenario appends this many multiples of the retention
/// window past the trained length (the acceptance floor is 20×).
const RETENTION_STREAM_X: usize = 20;
/// Closed-loop client threads of every multi-client arm.
const CLIENTS: usize = 4;
/// Length of the shared request trace (`--quick` caps it at 40).
const REQUESTS: usize = 400;
/// Values per append in the streaming scenarios.
const CHUNK: usize = 9;

/// A scenario's runner: measures, asserts, and returns its artifact.
type Run = fn(&Ctx) -> Artifact;

/// Every scenario: its `--only` name, its artifact number and its runner.
const SCENARIOS: [(&str, usize, Run); 5] = [
    ("growth", 3, growth),
    ("retention", 5, retention),
    ("faults", 6, faults),
    ("sharded", 7, sharded),
    ("tenancy", 9, tenancy),
];

/// A range query `(series, start, end)`.
type Req = (usize, usize, usize);

/// Everything a scenario needs: the one trained model and its data.
struct Ctx {
    obs: ObservedDataset,
    /// Ground truth running `GROWTH_MAX` steps past the trained length.
    full: Tensor,
    snapshot: ServeSnapshot,
    trace: Vec<Req>,
    threads: usize,
    quick: bool,
}

impl Ctx {
    /// A fresh engine over the trained model; `warm` caches every window.
    fn engine(&self, warm: bool) -> Arc<ImputationEngine> {
        let frozen = self.snapshot.restore(&self.obs).expect("restore");
        let engine = Arc::new(ImputationEngine::new(frozen, self.obs.clone()).expect("engine"));
        if warm {
            engine.warm_up();
        }
        engine
    }
}

struct ArmResult {
    name: &'static str,
    /// Tenants the arm's requests spread over (`BENCH_9` rows only).
    tenants: Option<usize>,
    requests: usize,
    wall_secs: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl ArmResult {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.wall_secs
    }

    fn to_json(&self) -> String {
        let mut fields = vec![("name", format!("\"{}\"", self.name))];
        fields.extend(self.tenants.map(|n| ("tenants", n.to_string())));
        fields.extend([
            ("requests", self.requests.to_string()),
            ("wall_secs", fx(self.wall_secs, 6)),
            ("rps", fx(self.rps(), 2)),
            ("p50_ms", fx(self.p50_ms, 4)),
            ("p99_ms", fx(self.p99_ms, 4)),
        ]);
        obj(&fields)
    }
}

/// One scenario's output: the common header is added by `write_artifact`.
struct Artifact {
    scenario: &'static str,
    /// A JSON object describing the data the scenario served.
    dataset: String,
    arms: Vec<ArmResult>,
    /// Scenario-specific fields, values already rendered as JSON.
    extra: Vec<(&'static str, String)>,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

/// Replays `trace` closed-loop over `clients` threads and times it: client
/// `c` takes the `c`-th contiguous slice, opens its handle with
/// `connect(c)` and sends the slice one request at a time through
/// `query(&mut handle, i, request)`, `i` indexing the slice. Wall time runs
/// from before the first connect to the last reply; each latency sample
/// covers one `query` call.
fn run_arm<C>(
    name: &'static str,
    trace: &[Req],
    clients: usize,
    connect: impl Fn(usize) -> C + Sync,
    query: impl Fn(&mut C, usize, Req) + Sync,
) -> ArmResult {
    let per_client = trace.len().div_ceil(clients);
    let t0 = Instant::now();
    let mut lat: Vec<f64> = std::thread::scope(|scope| {
        let (connect, query) = (&connect, &query);
        let handles: Vec<_> = trace
            .chunks(per_client)
            .enumerate()
            .map(|(c, part)| {
                scope.spawn(move || {
                    let mut client = connect(c);
                    let mut lat = Vec::with_capacity(part.len());
                    for (i, &req) in part.iter().enumerate() {
                        let t = Instant::now();
                        query(&mut client, i, req);
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let wall_secs = t0.elapsed().as_secs_f64();
    lat.sort_by(f64::total_cmp);
    let arm = ArmResult {
        name,
        tenants: None,
        requests: lat.len(),
        wall_secs,
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
    };
    eprintln!(
        "{name:>16}: {} requests in {wall_secs:.3}s = {:>9.1} req/s  (p50 {:.3} ms, p99 {:.3} ms)",
        arm.requests,
        arm.rps(),
        arm.p50_ms,
        arm.p99_ms
    );
    arm
}

/// `trace` through `CLIENTS` in-process `BatchClient`s of one micro-batcher
/// (batch 64, queue 1024) over `engine`.
fn batch_arm(
    name: &'static str,
    trace: &[Req],
    engine: &Arc<ImputationEngine>,
    deadline: Option<Duration>,
) -> ArmResult {
    let config = BatcherConfig { max_batch: 64, queue_cap: 1024, deadline };
    let batcher = MicroBatcher::spawn_with(Arc::clone(engine), config);
    let arm = run_arm(
        name,
        trace,
        CLIENTS,
        |_| batcher.client(),
        |client, _, (s, lo, hi)| {
            client.query(s, lo, hi).expect("engine query");
        },
    );
    assert_eq!(batcher.panics_caught(), 0, "the trace must not panic the batcher");
    arm
}

/// One request over the wire.
fn wire_query(client: &mut NetClient, (s, lo, hi): Req) {
    client.query(s as u32, lo as u32, hi as u32).expect("wire query");
}

/// Retries off: an arm measures first replies.
fn no_retry() -> ClientConfig {
    ClientConfig { retry: RetryPolicy::none(), ..ClientConfig::default() }
}

/// Appends `source` into each of `series` in `CHUNK`-value pieces,
/// round-robin, until every one reaches `target`. Returns the sorted append
/// latencies (ms) and the wall time; `after_each` runs untimed after every
/// append.
fn stream_appends(
    engine: &ImputationEngine,
    source: &Tensor,
    series: Range<usize>,
    target: usize,
    mut after_each: impl FnMut(),
) -> (Vec<f64>, f64) {
    let mut lat = Vec::new();
    let t0 = Instant::now();
    loop {
        let mut all_done = true;
        for s in series.clone() {
            let wm = engine.watermark(s).expect("watermark");
            if wm >= target {
                continue;
            }
            all_done = false;
            let end = (wm + CHUNK).min(target);
            let t = Instant::now();
            engine.append(s, &source.series(s)[wm..end]).expect("append");
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            after_each();
        }
        if all_done {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    lat.sort_by(f64::total_cmp);
    (lat, wall)
}

/// `x` with `digits` decimals.
fn fx(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// `fields` as a one-line JSON object; values are already JSON.
fn obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// `rows` as a JSON array, one row per line.
fn rows(items: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = items.into_iter().map(|r| format!("    {r}")).collect();
    format!("[\n{}\n  ]", body.join(",\n"))
}

/// The one artifact writer: the common header (`bench`, `scenario`,
/// `dataset`, `host_cores`, `threads_used`, `client_threads`), the `arms`
/// rows if any, then the scenario's own fields.
fn write_artifact(path: &Path, bench: usize, ctx: &Ctx, art: Artifact) {
    let mut fields = vec![
        ("bench", bench.to_string()),
        ("scenario", format!("\"{}\"", art.scenario)),
        ("dataset", art.dataset),
        ("host_cores", mvi_parallel::available_threads().to_string()),
        ("threads_used", ctx.threads.to_string()),
        ("client_threads", CLIENTS.to_string()),
    ];
    if !art.arms.is_empty() {
        fields.push(("arms", rows(art.arms.iter().map(ArmResult::to_json))));
    }
    fields.extend(art.extra);
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n"))).expect("write bench json");
    eprintln!("wrote {}", path.display());
}

fn usage() -> ! {
    let names: Vec<&str> = SCENARIOS.iter().map(|(name, ..)| *name).collect();
    eprintln!(
        "usage: serve_bench [--threads=N] [--quick] [--only={}] [--out-dir=DIR]",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut only: Option<String> = None;
    let mut out_dir = PathBuf::from(".");
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--threads=") {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => mvi_parallel::configure_threads(n),
                _ => usage(),
            }
        } else if let Some(v) = arg.strip_prefix("--only=") {
            if !SCENARIOS.iter().any(|(name, ..)| *name == v) {
                eprintln!("unknown scenario `{v}`");
                usage();
            }
            only = Some(v.to_string());
        } else if let Some(v) = arg.strip_prefix("--out-dir=") {
            out_dir = PathBuf::from(v);
        } else if arg == "--quick" {
            quick = true;
        } else {
            usage();
        }
    }
    let n_requests = if quick { REQUESTS.min(40) } else { REQUESTS };
    let threads = mvi_parallel::current_threads();
    eprintln!(
        "serve_bench: {SERIES}x{T} dataset, {n_requests} requests, {CLIENTS} client threads, \
         {threads} worker threads"
    );

    // One trained model feeds every scenario. Ground truth runs past the
    // trained length so the growth scenario has a stream source; training
    // only ever sees the truncated prefix.
    let full = generate_with_shape(DatasetName::Electricity, &[SERIES], T + GROWTH_MAX, 7);
    let ds = Dataset::new("electricity-trained", full.dims.clone(), full.values.truncated_time(T));
    let inst = Scenario::mcar(1.0).apply(&ds, 3);
    let obs = inst.observed();
    let cfg =
        DeepMviConfig { max_steps: if quick { 10 } else { 60 }, threads, ..DeepMviConfig::tiny() };
    let mut model = DeepMviModel::new(&cfg, &obs);
    let t_train = Instant::now();
    model.fit(&obs);
    let train_secs = t_train.elapsed().as_secs_f64();
    eprintln!("trained in {train_secs:.2}s; missing fraction {:.3}", inst.missing_fraction());

    // The shared request trace: range queries cycling over series with
    // varying offsets/lengths, so consecutive requests overlap (the
    // coalescing case) but are not identical.
    let trace = (0..n_requests)
        .map(|i| {
            let lo = (i * 13) % (T - 80);
            (i % SERIES, lo, (lo + 40 + (i * 7) % 40).min(T))
        })
        .collect();
    let ctx = Ctx {
        snapshot: ServeSnapshot::capture(&model, &obs),
        obs,
        full: full.values,
        trace,
        threads,
        quick,
    };

    std::fs::create_dir_all(&out_dir).expect("create --out-dir");
    for (name, bench, run) in SCENARIOS {
        if only.as_deref().is_some_and(|o| o != name) {
            continue;
        }
        eprintln!("== {name} (BENCH_{bench}) ==");
        let art = run(&ctx);
        write_artifact(&out_dir.join(format!("BENCH_{bench}.json")), bench, &ctx, art);
    }
}

/// `BENCH_3`: a warm engine takes fixed-size appends round-robin until every
/// series has grown past the trained length (this exact flow was a hard
/// `AppendOverflow` before storage became growable), then answers a
/// tail-query sweep over the grown region.
fn growth(ctx: &Ctx) -> Artifact {
    let growth = if ctx.quick { 60 } else { GROWTH_MAX };
    let engine = ctx.engine(true);
    let base = engine.stats();
    let target = T + growth;
    let (lat, wall) = stream_appends(&engine, &ctx.full, 0..SERIES, target, || {});
    assert_eq!(engine.live_len(), target, "growth scenario must reach its target length");
    let stats = engine.stats();
    let appends = stats.appends - base.appends;
    let values = stats.values_appended - base.values_appended;
    let windows = stats.windows_computed - base.windows_computed;

    let t0 = Instant::now();
    for s in 0..SERIES {
        engine.query(s, T, target).expect("tail query over the grown region");
    }
    let tail_sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
    eprintln!(
        "growth: {SERIES} series {T} -> {target} in {appends} appends over {wall:.3}s = {:.0} \
         values/s (append p50 {p50:.3} ms, p99 {p99:.3} ms, {windows} window passes; tail sweep \
         {tail_sweep_ms:.2} ms)",
        values as f64 / wall
    );
    Artifact {
        scenario: "append_past_capacity",
        dataset: obj(&[
            ("series", SERIES.to_string()),
            ("trained_t_len", T.to_string()),
            ("final_live_len", target.to_string()),
        ]),
        arms: Vec::new(),
        extra: vec![
            ("chunk", CHUNK.to_string()),
            ("appends", appends.to_string()),
            ("values_appended", values.to_string()),
            ("windows_recomputed", windows.to_string()),
            ("wall_secs", fx(wall, 6)),
            ("appends_per_sec", fx(appends as f64 / wall, 2)),
            ("values_per_sec", fx(values as f64 / wall, 2)),
            ("append_p50_ms", fx(p50, 4)),
            ("append_p99_ms", fx(p99, 4)),
            ("tail_sweep_ms", fx(tail_sweep_ms, 4)),
        ],
    }
}

/// `BENCH_5`: a stream ≥ 20× the retention window through a bounded engine
/// (quick mode shortens it but still evicts), asserting resident storage
/// never exceeds the ring cap; then a warm restart through a durable
/// snapshot file, asserted to answer the retained sweep with zero window
/// evaluations, timed against a cold model-only restart that recomputes.
fn retention(ctx: &Ctx) -> Artifact {
    let stream_x = if ctx.quick { 2 } else { RETENTION_STREAM_X };
    let stream_len = stream_x * RETENTION;
    let target = T + stream_len;
    // A fresh ground-truth horizon long enough to feed the whole stream.
    let full = generate_with_shape(DatasetName::Electricity, &[SERIES], target, 7);
    let frozen = ctx.snapshot.restore(&ctx.obs).expect("restore");
    let engine =
        ImputationEngine::with_retention(frozen, ctx.obs.clone(), RETENTION).expect("ring engine");
    let ring_cap = engine.ring_capacity().expect("bounded engine");
    engine.warm_up();
    // One series goes dark at the trained end (a dead sensor): its retained
    // window is pure imputation work forever, so the ring always holds
    // missing entries — the realistic serving shape, and what makes the
    // warm-vs-cold restart comparison non-vacuous.
    let dark = SERIES - 1;
    eprintln!(
        "retention: {SERIES}x{T} trained, retention {RETENTION} (ring cap {ring_cap}), \
         streaming {stream_len} steps ({stream_x}x retention) per series (series {dark} dark)"
    );

    let mut max_capacity = engine.storage_capacity();
    let (lat, stream_wall) = stream_appends(&engine, &full.values, 0..dark, target, || {
        max_capacity = max_capacity.max(engine.storage_capacity())
    });
    assert!(
        max_capacity <= ring_cap,
        "resident storage ({max_capacity}) exceeded the ring cap ({ring_cap})"
    );
    assert_eq!(engine.live_len(), target);
    let stats = engine.stats();
    assert!(stats.evictions > 0, "the long stream must evict");
    let (base, live) = (engine.retained_start(), engine.live_len());
    let (p50, p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
    eprintln!(
        "stream: {} appends ({} values) in {stream_wall:.3}s = {:.0} values/s, p50 {p50:.3} ms \
         p99 {p99:.3} ms; {} evictions ({} steps), storage flat at <= {max_capacity} of cap \
         {ring_cap}, live {live} retained from {base}",
        stats.appends,
        stats.values_appended,
        stats.values_appended as f64 / stream_wall,
        stats.evictions,
        stats.steps_evicted
    );

    // ---- Warm restart: heal the cache, write the file, restore, replay. ----
    for s in 0..SERIES {
        engine.query(s, base, live).expect("healing sweep");
    }
    let path = std::env::temp_dir().join(format!("mvi-bench5-{}.snap", std::process::id()));
    let t_snap = Instant::now();
    engine.snapshot_to_path(&path).expect("durable write");
    let snapshot_secs = t_snap.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&path).expect("stat snapshot").len();
    let t_restore = Instant::now();
    let warm = ImputationEngine::from_snapshot_path(&path).expect("warm restart");
    let warm_restore_secs = t_restore.elapsed().as_secs_f64();
    let t_sweep = Instant::now();
    for s in 0..SERIES {
        warm.query(s, base, live).expect("warm sweep");
    }
    let warm_sweep_secs = t_sweep.elapsed().as_secs_f64();
    let warm_windows = warm.stats().windows_computed;
    assert_eq!(warm_windows, 0, "warm restart evaluated windows it had cached");

    // ---- Cold restart: the same file's model only, recompute. ----
    let snap = ServeSnapshot::from_path(&path).expect("snapshot file reads back");
    let _ = std::fs::remove_file(&path);
    let t_cold = Instant::now();
    let cold_model = snap.restore(&engine.observed()).expect("model-only restore");
    let cold = ImputationEngine::with_retention(cold_model, engine.observed(), RETENTION)
        .expect("cold engine");
    let cold_restore_secs = t_cold.elapsed().as_secs_f64();
    let cold_base = cold.retained_start();
    let t_cold_sweep = Instant::now();
    for s in 0..SERIES {
        // The cold engine's dataset is the retained span standalone, so its
        // logical time starts at zero.
        cold.query(s, cold_base, cold_base + (live - base)).expect("cold sweep");
    }
    let cold_sweep_secs = t_cold_sweep.elapsed().as_secs_f64();
    let cold_windows = cold.stats().windows_computed;
    assert!(cold_windows > 0, "cold restart must recompute (else the comparison is vacuous)");
    let sweep_speedup = cold_sweep_secs / warm_sweep_secs.max(1e-9);
    eprintln!(
        "warm restart: {snapshot_bytes} B snapshot file, restore {warm_restore_secs:.4}s, \
         retained sweep {warm_sweep_secs:.4}s with 0 window passes; cold restart sweep \
         {cold_sweep_secs:.4}s with {cold_windows} passes = {sweep_speedup:.1}x"
    );
    Artifact {
        scenario: "retention_ring_long_stream",
        dataset: obj(&[
            ("series", SERIES.to_string()),
            ("trained_t_len", T.to_string()),
            ("retention_len", RETENTION.to_string()),
            ("ring_cap", ring_cap.to_string()),
            ("stream_multiple_of_retention", stream_x.to_string()),
        ]),
        arms: Vec::new(),
        extra: vec![
            ("chunk", CHUNK.to_string()),
            (
                "stream",
                obj(&[
                    ("final_live_len", live.to_string()),
                    ("retained_start", base.to_string()),
                    ("appends", stats.appends.to_string()),
                    ("values_appended", stats.values_appended.to_string()),
                    ("evictions", stats.evictions.to_string()),
                    ("steps_evicted", stats.steps_evicted.to_string()),
                    ("wall_secs", fx(stream_wall, 6)),
                    ("values_per_sec", fx(stats.values_appended as f64 / stream_wall, 2)),
                    ("append_p50_ms", fx(p50, 4)),
                    ("append_p99_ms", fx(p99, 4)),
                    ("max_storage_capacity", max_capacity.to_string()),
                    ("storage_within_ring_cap", "true".into()),
                ]),
            ),
            (
                "warm_restart",
                obj(&[
                    ("snapshot_bytes", snapshot_bytes.to_string()),
                    ("snapshot_secs", fx(snapshot_secs, 6)),
                    ("restore_secs", fx(warm_restore_secs, 6)),
                    ("sweep_secs", fx(warm_sweep_secs, 6)),
                    ("windows_computed", warm_windows.to_string()),
                    ("cold_restore_secs", fx(cold_restore_secs, 6)),
                    ("cold_sweep_secs", fx(cold_sweep_secs, 6)),
                    ("cold_windows_computed", cold_windows.to_string()),
                    ("warm_sweep_speedup_vs_cold", fx(sweep_speedup, 3)),
                ]),
            ),
        ],
    }
}

/// `BENCH_6`: the price of the fault-tolerance layer. The shared trace runs
/// through an unguarded engine, a guarded one (a `ValueGuard` the trace never
/// trips, so the cost measured is the check) and a guarded one with a
/// per-request deadline, best of `reps` runs per arm in alternating order.
/// In full mode the guarded arm must hold ≥ 95% of unguarded throughput;
/// `--quick` reports the ratio without gating on wall-clock noise. The
/// deadline arm is priced, not gated: a timed wait per request is an opt-in
/// cost.
fn faults(ctx: &Ctx) -> Artifact {
    let guard = Some(ValueGuard { abs_max: Some(1e6), max_jump: None });
    let postures = [
        ("unguarded", None, None),
        ("guarded", guard, None),
        ("guarded_deadline", guard, Some(Duration::from_secs(30))),
    ];
    let arm = |name: &'static str, guard, deadline, trace: &[Req]| {
        let engine = ctx.engine(false);
        engine.set_value_guard(guard);
        batch_arm(name, trace, &engine, deadline)
    };
    // Untimed warmup: page in the code and allocator state so the first
    // timed arm is not penalized for going first.
    arm("warmup", None, None, &ctx.trace[..ctx.trace.len().min(32)]);

    let reps = if ctx.quick { 1 } else { 3 };
    let mut best: [Option<ArmResult>; 3] = [None, None, None];
    for _ in 0..reps {
        for (slot, &(name, guard, deadline)) in best.iter_mut().zip(&postures) {
            let new = arm(name, guard, deadline, &ctx.trace);
            if slot.as_ref().is_none_or(|old| new.rps() > old.rps()) {
                *slot = Some(new);
            }
        }
    }
    let [unguarded, guarded, guarded_deadline] = best.map(Option::unwrap);
    let ratio = guarded.rps() / unguarded.rps();
    let overhead_pct = (1.0 - ratio) * 100.0;
    let deadline_overhead_pct = (1.0 - guarded_deadline.rps() / unguarded.rps()) * 100.0;
    eprintln!(
        "guard overhead: {:.1} vs {:.1} req/s = {overhead_pct:.2}% ({reps} rep(s), best-of); \
         with per-request deadline: {:.1} req/s = {deadline_overhead_pct:.2}%",
        guarded.rps(),
        unguarded.rps(),
        guarded_deadline.rps()
    );
    if !ctx.quick {
        assert!(
            ratio >= 0.95,
            "guarded hot path fell outside the 5% acceptance bound: {:.1} vs {:.1} req/s \
             ({overhead_pct:.2}% overhead)",
            guarded.rps(),
            unguarded.rps()
        );
    }
    Artifact {
        scenario: "guarded_serving",
        dataset: obj(&[("series", SERIES.to_string()), ("t_len", T.to_string())]),
        arms: vec![unguarded, guarded, guarded_deadline],
        extra: vec![
            ("reps_best_of", reps.to_string()),
            ("guard_overhead_pct", fx(overhead_pct, 3)),
            ("within_5pct", (ratio >= 0.95).to_string()),
            ("deadline_overhead_pct", fx(deadline_overhead_pct, 3)),
        ],
    }
}

/// `BENCH_7`: warm-read scaling of the warm read path.
///
/// **Scaling sweep** — the same seeded warm-query trace runs through
/// [`run_arm`] at 1/2/4/8 concurrent reader threads against a warm engine,
/// whose per-series snapshot reads never take the core lock (the scenario
/// name predates the retired health-counter shard map). Reader threads are
/// spawned literally, deliberately ignoring the core count —
/// oversubscription *is* the serving shape being measured.
///
/// **Mixed-traffic probe** — a writer streams appends into series 0 while
/// readers sweep the other series. The engine's `lock_wait_nanos` counter
/// prices every *contended* core-lock acquisition; the harness asserts its
/// delta is exactly zero — warm reads never touch the core lock, so they can
/// neither block the writer nor be blocked by it. This holds on any host,
/// single-core included, so it is asserted unconditionally.
fn sharded(ctx: &Ctx) -> Artifact {
    let ops_per_worker = if ctx.quick { 1_000 } else { 10_000 };
    // The seeded warm trace: pure function of (worker, op) so every point of
    // the sweep answers an identical workload.
    let query_of = |worker: usize, k: usize| {
        let x = worker.wrapping_mul(0x9E37_79B9).wrapping_add(k.wrapping_mul(2_654_435_761));
        let s = x % SERIES;
        let lo = (x / 7) % (T - 80);
        (s, lo, (lo + 40 + (x / 11) % 40).min(T))
    };
    let warm_query = |engine: &ImputationEngine, (s, lo, hi): Req| {
        let got = engine.query(s, lo, hi).expect("warm query");
        assert_eq!(got.len(), hi - lo);
    };

    // ---- Scaling sweep: aggregate warm rps at 1/2/4/8 readers. ----
    let engine = ctx.engine(true);
    let arms = [(1usize, "readers_1"), (2, "readers_2"), (4, "readers_4"), (8, "readers_8")].map(
        |(readers, name)| {
            let trace: Vec<Req> = (0..readers)
                .flat_map(|w| (0..ops_per_worker).map(move |k| query_of(w, k)))
                .collect();
            run_arm(name, &trace, readers, |_| (), |_, _, req| warm_query(&engine, req))
        },
    );

    // ---- Mixed traffic: the blocked-time probe. ----
    let n_appends = if ctx.quick { 20 } else { 60 };
    let engine = ctx.engine(true);
    let wait_before = engine.lock_wait_nanos();
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let reads = std::thread::scope(|scope| {
        let (engine, stop) = (&engine, &stop);
        let readers: Vec<_> = (0..4)
            .map(|r| {
                scope.spawn(move || {
                    let mut n = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        let (s, lo, hi) = query_of(r, n);
                        // Steer clear of the written series: these reads
                        // are the "unrelated" traffic the probe is about.
                        warm_query(engine, (1 + s % (SERIES - 1), lo, hi));
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for _ in 0..n_appends {
            let wm = engine.watermark(0).expect("watermark");
            let payload: Vec<f64> = (0..9).map(|k| (((wm + k) as f64) * 0.01).sin()).collect();
            engine.append(0, &payload).expect("mixed append");
        }
        stop.store(true, Ordering::SeqCst);
        readers.into_iter().map(|h| h.join().expect("reader")).sum::<usize>()
    });
    let wall_secs = t0.elapsed().as_secs_f64();
    let lock_wait_ms = (engine.lock_wait_nanos() - wait_before) as f64 / 1e6;
    eprintln!(
        "mixed: {n_appends} appends + {reads} reads in {wall_secs:.3}s, contended core-lock \
         wait {lock_wait_ms:.3} ms"
    );
    assert_eq!(lock_wait_ms, 0.0, "warm reads touched the core lock under mixed traffic");

    Artifact {
        scenario: "sharded_warm_reads",
        dataset: obj(&[("series", SERIES.to_string()), ("t_len", T.to_string())]),
        arms: arms.into(),
        extra: vec![
            ("ops_per_worker", ops_per_worker.to_string()),
            (
                "mixed_traffic",
                obj(&[
                    ("appends", n_appends.to_string()),
                    ("reads", reads.to_string()),
                    ("wall_secs", fx(wall_secs, 6)),
                    ("lock_wait_ms", fx(lock_wait_ms, 4)),
                ]),
            ),
            ("warm_reads_blocked", "false".into()),
        ],
    }
}

/// `BENCH_9`: the price of multi-model tenancy.
///
/// * **Routing** — the shared trace through one front door over a registry
///   of 1, 4 and 16 tenants, each client round-robining its requests over
///   the tenant ids. Every tenant serves the same trained model, so the arms
///   differ only in routing and per-tenant batcher count.
/// * **Isolation** — a victim tenant's p99 is measured alone, then again
///   while a hostile tenant armed to panic every forward pass is flooded by
///   two clients. The storm arm starts only once panics have landed, and its
///   p99 must stay within `max(50 ms, 25 × baseline p99)`.
fn tenancy(ctx: &Ctx) -> Artifact {
    let spill_root = std::env::temp_dir().join(format!("mvi-bench-tenancy-{}", std::process::id()));
    let bind = |reg: &Arc<ModelRegistry>| {
        let config = ServerConfig::default();
        NetServer::bind_registry("127.0.0.1:0", Arc::clone(reg), config).expect("bind registry")
    };

    let mut arms = Vec::new();
    for (n, name) in [(1usize, "tenants_1"), (4, "tenants_4"), (16, "tenants_16")] {
        let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(n, spill_root.join(name))));
        let tenants: Vec<String> = (0..n).map(|i| format!("tenant-{i}")).collect();
        for tenant in &tenants {
            reg.register(tenant, ctx.engine(true)).expect("register tenant");
        }
        let server = bind(&reg);
        let addr = server.local_addr();
        let arm = run_arm(
            name,
            &ctx.trace,
            CLIENTS,
            |c| (c, NetClient::new(addr, no_retry())),
            |(c, client), i, req| {
                // Round-robin over tenants: every request re-routes.
                client.set_tenant(tenants[(*c + i) % n].as_str());
                wire_query(client, req);
            },
        );
        assert_eq!(server.panics_caught(), 0, "the trace must not panic any tenant");
        assert_eq!(server.stats().requests, ctx.trace.len() as u64);
        server.shutdown();
        arms.push(ArmResult { tenants: Some(n), ..arm });
    }

    // ---- Isolation: the victim's p99 alone, then beside a panic storm. ----
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(4, spill_root.join("hostile"))));
    reg.register("victim", ctx.engine(true)).expect("register victim");
    let mal = ctx.engine(false);
    mal.set_eval_hook(Some(Box::new(|_results| panic!("armed hostile model"))));
    reg.register("mallory", mal).expect("register mallory");
    let server = bind(&reg);
    let addr = server.local_addr();
    let probe_n = if ctx.quick { 12 } else { 60 };
    let victim_arm = |name| {
        run_arm(
            name,
            &ctx.trace[..probe_n],
            1,
            |_| NetClient::with_tenant(addr, "victim", no_retry()),
            |client, _, req| wire_query(client, req),
        )
    };
    let baseline = victim_arm("victim_base");
    let stop = Arc::new(AtomicBool::new(false));
    let hostiles: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = NetClient::with_tenant(addr, "mallory", no_retry());
                while !stop.load(Ordering::Acquire) {
                    let _ = client.query(0, 0, T as u32);
                }
            })
        })
        .collect();
    // Progress gate: the isolation claim is empty until panics actually land.
    let gate_start = Instant::now();
    while server.panics_caught() < 3 {
        assert!(
            gate_start.elapsed() < Duration::from_secs(30),
            "the armed tenant never panicked; the storm proves nothing"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let storm = victim_arm("victim_storm");
    stop.store(true, Ordering::Release);
    for h in hostiles {
        h.join().expect("hostile client thread");
    }
    let panics = server.panics_caught();
    let p99_bound = (25.0 * baseline.p99_ms).max(50.0);
    assert!(
        storm.p99_ms <= p99_bound,
        "victim p99 {:.3} ms exceeds the isolation bound {:.3} ms (baseline {:.3} ms)",
        storm.p99_ms,
        p99_bound,
        baseline.p99_ms
    );
    eprintln!(
        "isolation: victim p99 {:.3} ms under storm (baseline {:.3} ms, bound {p99_bound:.3} ms), \
         {panics} hostile panics caught",
        storm.p99_ms, baseline.p99_ms
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spill_root);

    Artifact {
        scenario: "multi_model_tenancy",
        dataset: obj(&[("series", SERIES.to_string()), ("t_len", T.to_string())]),
        arms,
        extra: vec![(
            "isolation_drill",
            obj(&[
                ("baseline_p99_ms", fx(baseline.p99_ms, 4)),
                ("storm_p99_ms", fx(storm.p99_ms, 4)),
                ("bound_factor", "25.0".into()),
                ("floor_ms", "50.0".into()),
                ("hostile_panics_caught", panics.to_string()),
                ("asserted", "true".into()),
            ]),
        )],
    }
}
