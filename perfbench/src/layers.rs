//! The per-layer replay of a traced run: the same seeded query trace goes
//! through each layer's public API in turn (kernels, infer, engine,
//! batcher, registry, snapshot codec, frame codec, socket), each call
//! wrapped in a span. Layer times come from these spans, so every workload's
//! traced run reports them the same way; the stages inside `NetServer` are
//! the differences between consecutive layers.

use crate::common::{bitwise_eq, mean, median, tiling, Checks, Rng};
use crate::phases::{no_retry, Counters, Outcome};
use crate::setup::{self, Setup, RETENTION, SERIES, T_LEN};
use crate::trace::Tracer;
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_net::frame::{decode, encode};
use mvi_net::{Frame, NetClient, ServerConfig, DEFAULT_MAX_FRAME};
use mvi_serve::{ImputationEngine, MicroBatcher, ServeSnapshot};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// GEMM shapes `(m, k, n)` of the paper-default model's forward pass over a
/// 64-window context (p = 32, 4 heads, w = 10): the window projection,
/// query/key/value projections and attention-times-values, the attention
/// scores, the first feed-forward layer and the decoder.
const GEMM_SHAPES: [(usize, usize, usize); 5] =
    [(64, 10, 32), (64, 64, 32), (64, 32, 64), (64, 128, 64), (64, 32, 320)];
const GEMM_REPS: usize = 100;
const ENGINE_QUERIES: usize = 2000;
const CLIENT_QUERIES: usize = 1000;
const REGISTRY_HITS: usize = 2000;
const REGISTRY_MISSES: usize = 8;
const SNAPSHOT_REPS: usize = 5;
const FRAME_PAIRS: usize = 500;
const APPENDS: usize = 64;
/// Steps per append, and the tail a reader asks for while appends run.
const CHUNK: usize = 5;
const TAIL: usize = 60;
const IMPUTES: usize = 3;

/// Every per-layer metric, with its unit, in output order.
pub const METRICS: [(&str, &str); 51] = [
    ("data.generate_ms", "ms"),
    ("train.fit_ms", "ms"),
    ("train.steps", "count"),
    ("train.step_ms", "ms"),
    ("kernels.matmul_us", "us"),
    ("kernels.matmul_tn_us", "us"),
    ("kernels.matmul_nt_us", "us"),
    ("kernels.matmul_gflops", "GFLOP/s"),
    ("kernels.bytes", "bytes"),
    ("infer.impute_ms", "ms"),
    ("infer.warmup_ms", "ms"),
    ("infer.windows", "count"),
    ("infer.window_us", "us"),
    ("engine.query_us", "us"),
    ("engine.append_us", "us"),
    ("engine.tail_query_us", "us"),
    ("engine.windows_per_append", "count"),
    ("engine.windows_computed", "count"),
    ("engine.window_hits", "count"),
    ("engine.hit_ratio", "ratio"),
    ("engine.lock_wait_ms", "ms"),
    ("engine.evictions", "count"),
    ("batch.query_us", "us"),
    ("batch.wait_us", "us"),
    ("batch.mean_size", "count"),
    ("batch.queue_depth_max", "count"),
    ("registry.get_hit_us", "us"),
    ("registry.get_miss_ms", "ms"),
    ("registry.loads", "count"),
    ("registry.evictions", "count"),
    ("registry.hits", "count"),
    ("registry.load_failures", "count"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.rebuild_ms", "ms"),
    ("durable.write_ms", "ms"),
    ("durable.read_ms", "ms"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.query_us", "us"),
    ("net.overhead_us", "us"),
    ("net.requests", "count"),
    ("net.accepted", "count"),
    ("net.rejected", "count"),
    ("net.bad_frames", "count"),
    ("phase.op_p99_ms", "ms"),
    ("phase.op_rps", "1/s"),
    ("bench.gen_lag_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Per-layer values in `METRICS` order.
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

fn med(tr: &Tracer, name: &str) -> f64 {
    median(&tr.durations_us(name))
}

/// Runs the replay and gathers every per-layer metric: times from the
/// replay's spans, counts from the workload's own measured phase.
pub fn replay(
    s: &Setup,
    seed: u64,
    dir: &Path,
    out: &Outcome,
    setup_stats: &[(f64, f64, usize)],
    tr: &Tracer,
    checks: &mut Checks,
) -> Layers {
    let mut m = Layers(Vec::new());
    let trace = tiling(seed, SERIES, T_LEN, 40, 80);

    // Kernels at the model's GEMM shapes.
    let root = tr.open("replay.kernels", 0, 0);
    let mut rng = Rng::new(seed);
    let (mut flops, mut bytes) = (0.0, 0.0);
    for &(mm, k, n) in &GEMM_SHAPES {
        let a: Vec<f64> = (0..mm * k).map(|_| (rng.below(1000) as f64 - 500.0) * 1e-4).collect();
        let b: Vec<f64> = (0..k * n).map(|_| (rng.below(1000) as f64 - 500.0) * 1e-4).collect();
        let mut c = vec![0.0; mm * n];
        for _ in 0..GEMM_REPS {
            tr.span("kernels.matmul", root.id, 0, || {
                mvi_kernels::matmul(mm, k, n, black_box(&a), black_box(&b), black_box(&mut c))
            });
            tr.span("kernels.matmul_tn", root.id, 0, || {
                mvi_kernels::matmul_tn(k, mm, n, black_box(&a), black_box(&b), black_box(&mut c))
            });
            tr.span("kernels.matmul_nt", root.id, 0, || {
                mvi_kernels::matmul_nt(mm, k, n, black_box(&a), black_box(&b), black_box(&mut c))
            });
        }
        black_box(&c);
        flops += 3.0 * 2.0 * (mm * k * n) as f64;
        bytes += 3.0 * 8.0 * (mm * k + k * n + mm * n) as f64;
    }
    tr.close(root);
    let per_call = |name: &str| mean(&tr.durations_us(name));
    let total_us: f64 = ["kernels.matmul", "kernels.matmul_tn", "kernels.matmul_nt"]
        .iter()
        .map(|n| tr.durations_us(n).iter().sum::<f64>())
        .sum();

    // Infer: full-dataset impute, then warm-up of a cold engine.
    let root = tr.open("replay.infer", 0, 0);
    for _ in 0..IMPUTES {
        black_box(tr.span("infer.impute", root.id, 0, || s.trained.model.impute(&s.trained.obs)));
    }
    let engine = Arc::new(setup::engine(&s.trained, None));
    let windows = tr.span("infer.warm_up", root.id, 0, || engine.warm_up());
    tr.close(root);

    // Engine: the warm read path, in process.
    let root = tr.open("replay.engine", 0, 0);
    let expected: Vec<Vec<f64>> =
        trace.iter().map(|&(q, lo, hi)| engine.query(q, lo, hi).expect("in-range query")).collect();
    for i in 0..ENGINE_QUERIES {
        let (q, lo, hi) = trace[i % trace.len()];
        black_box(tr.span("engine.query", root.id, i as u64, || engine.query(q, lo, hi)))
            .expect("in-range query");
    }
    tr.close(root);

    // Batcher: the same trace from one client, as in `warm_reads`.
    let root = tr.open("replay.batch", 0, 0);
    let before = engine.stats();
    let batcher = MicroBatcher::spawn_with(Arc::clone(&engine), ServerConfig::default().batcher);
    let client = batcher.client();
    let mut depth_max = 0usize;
    let mut wrong = 0usize;
    for i in 0..CLIENT_QUERIES {
        let k = i % trace.len();
        let (q, lo, hi) = trace[k];
        depth_max = depth_max.max(client.queue_depth());
        let got = tr.span("batch.query", root.id, k as u64, || client.query(q, lo, hi));
        wrong += usize::from(!matches!(&got, Ok(v) if bitwise_eq(v, &expected[k])));
    }
    checks.check(wrong == 0, || "batched replies differ from the engine".into());
    drop(client);
    drop(batcher);
    let after = engine.stats();
    tr.close(root);

    // Registry: warm hits, then a capacity-1 registry thrashed by two tenants.
    let root = tr.open("replay.registry", 0, 0);
    let hits_reg = setup::registry(1, &dir.join("replay-hit"));
    hits_reg.register("a", Arc::clone(&engine)).expect("register");
    for i in 0..REGISTRY_HITS {
        black_box(tr.span("registry.get_hit", root.id, i as u64, || hits_reg.get("a")))
            .expect("resident tenant");
    }
    let miss_dir = dir.join("replay-miss");
    std::fs::create_dir_all(&miss_dir).expect("create the spill directory");
    let miss_reg = setup::registry(1, &miss_dir);
    miss_reg.register("a", Arc::new(setup::clone_engine(&engine))).expect("register");
    miss_reg.register("b", Arc::new(setup::clone_engine(&engine))).expect("register");
    for i in 0..REGISTRY_MISSES {
        let t = if i % 2 == 0 { "a" } else { "b" };
        black_box(tr.span("registry.get_miss", root.id, i as u64, || miss_reg.get(t)))
            .expect("spilled tenant reloads");
    }
    checks.check(miss_reg.stats().loads == REGISTRY_MISSES as u64, || {
        "every thrashed registry get must load a snapshot".into()
    });
    drop(miss_reg);
    tr.close(root);

    // Snapshot codec and the durable file format.
    let root = tr.open("replay.snapshot", 0, 0);
    let path = dir.join("replay.snap");
    let mut snapshot_bytes = 0usize;
    for _ in 0..SNAPSHOT_REPS {
        let snap = tr.span("snapshot.capture", root.id, 0, || engine.snapshot());
        let json = tr.span("snapshot.encode", root.id, 0, || snap.to_json());
        snapshot_bytes = json.len();
        let decoded = tr.span("snapshot.decode", root.id, 0, || ServeSnapshot::from_json(&json));
        let decoded = decoded.expect("snapshot round-trips");
        black_box(
            tr.span("snapshot.rebuild", root.id, 0, || ImputationEngine::from_snapshot(&decoded)),
        )
        .expect("rebuild from a decoded snapshot");
        tr.span("durable.write", root.id, 0, || engine.snapshot_to_path(&path))
            .expect("durable write");
        let restored =
            tr.span("durable.read", root.id, 0, || ImputationEngine::from_snapshot_path(&path));
        let restored = restored.expect("durable read");
        let (q, lo, hi) = trace[0];
        checks.check(
            matches!(restored.query(q, lo, hi), Ok(v) if bitwise_eq(&v, &expected[0])),
            || "a durable snapshot restored different values".into(),
        );
    }
    tr.close(root);

    // Frame codec on this trace's Query and Values frames.
    let root = tr.open("replay.frame", 0, 0);
    for (i, (&(q, lo, hi), vals)) in
        trace.iter().zip(&expected).cycle().take(FRAME_PAIRS).enumerate()
    {
        let query =
            Frame::Query { tenant: String::new(), s: q as u32, start: lo as u32, end: hi as u32 };
        let values = Frame::Values { tenant: String::new(), values: vals.clone() };
        let (qb, vb) =
            tr.span("net.encode", root.id, i as u64, || (encode(&query), encode(&values)));
        let decoded = tr.span("net.decode", root.id, i as u64, || {
            (decode(&qb, DEFAULT_MAX_FRAME), decode(&vb, DEFAULT_MAX_FRAME))
        });
        let ok = matches!(&decoded, (Ok((a, _)), Ok((b, _))) if *a == query && *b == values);
        checks.check(ok, || "a frame did not decode to what was encoded".into());
    }
    tr.close(root);

    // Socket: the same trace from one client over loopback, as in `warm_reads`.
    let root = tr.open("replay.net", 0, 0);
    let server = setup::bind(&engine);
    let mut client = NetClient::new(server.local_addr(), no_retry());
    client.query(0, 0, 1).expect("open the connection");
    for i in 0..CLIENT_QUERIES {
        let k = i % trace.len();
        let (q, lo, hi) = trace[k];
        let got = tr
            .span("net.query", root.id, k as u64, || client.query(q as u32, lo as u32, hi as u32));
        checks.check(matches!(&got, Ok(v) if bitwise_eq(v, &expected[k])), || {
            "wire replies differ from the engine".into()
        });
    }
    drop(client);
    server.shutdown();
    tr.close(root);

    // Appends into a retention engine, 5-step chunks round-robin, while a
    // second thread reads the tail of each series in turn: the write path,
    // retention eviction, and the core-lock hand-off between a writer and
    // readers whose windows the writes made stale.
    let root = tr.open("replay.append", 0, 0);
    let stream = setup::engine(&s.trained, Some(RETENTION));
    stream.warm_up();
    let ext = APPENDS * CHUNK / SERIES + CHUNK;
    let source =
        generate_with_shape(DatasetName::Electricity, &[SERIES], T_LEN + ext, seed ^ 0x57AE).values;
    let (wait0, evicted0) = (stream.lock_wait_nanos(), stream.stats().evictions);
    let live = AtomicUsize::new(stream.live_len());
    let done = AtomicBool::new(false);
    let recomputed = std::thread::scope(|scope| {
        let (stream, live, done, parent) = (&stream, &live, &done, root.id);
        scope.spawn(move || {
            for i in 0u64.. {
                if done.load(Ordering::Acquire) {
                    break;
                }
                let hi = live.load(Ordering::Acquire);
                let q = i as usize % SERIES;
                tr.span("engine.tail_query", parent, i, || stream.query(q, hi - TAIL, hi))
                    .expect("tail inside the retained span");
            }
        });
        let mut wm: Vec<usize> =
            (0..SERIES).map(|q| stream.watermark(q).expect("series watermark")).collect();
        let mut recomputed = 0usize;
        for i in 0..APPENDS {
            let q = i % SERIES;
            let vals = &source.series(q)[wm[q]..wm[q] + CHUNK];
            let report = tr.span("engine.append", parent, i as u64, || stream.append(q, vals));
            let report = report.expect("append");
            wm[q] = report.recorded.1;
            live.fetch_max(report.live_len, Ordering::AcqRel);
            recomputed += report.windows_recomputed;
        }
        done.store(true, Ordering::Release);
        recomputed
    });
    let lock_wait_ms = (stream.lock_wait_nanos() - wait0) as f64 / 1e6;
    let evictions = stream.stats().evictions - evicted0;
    tr.close(root);

    let (gen_ms, fit_ms, steps): (Vec<f64>, Vec<f64>, Vec<f64>) = setup_stats.iter().fold(
        (vec![], vec![], vec![]),
        |(mut g, mut f, mut st), &(gs, fs, n)| {
            g.push(gs * 1e3);
            f.push(fs * 1e3);
            st.push(n as f64);
            (g, f, st)
        },
    );
    let c: &Counters = &out.counters;
    let warmup_ms = med(tr, "infer.warm_up") / 1e3;
    let engine_q = med(tr, "engine.query");
    let batch_q = med(tr, "batch.query");
    let hit = med(tr, "registry.get_hit");
    let net_q = med(tr, "net.query");
    let lookups = (c.window_hits + c.windows_computed) as f64;
    m.set("data.generate_ms", median(&gen_ms));
    m.set("train.fit_ms", median(&fit_ms));
    m.set("train.steps", median(&steps));
    let step_ms: Vec<f64> = fit_ms.iter().zip(&steps).map(|(f, n)| f / n.max(1.0)).collect();
    m.set("train.step_ms", median(&step_ms));
    m.set("kernels.matmul_us", per_call("kernels.matmul"));
    m.set("kernels.matmul_tn_us", per_call("kernels.matmul_tn"));
    m.set("kernels.matmul_nt_us", per_call("kernels.matmul_nt"));
    m.set("kernels.matmul_gflops", flops * GEMM_REPS as f64 / (total_us * 1e3));
    m.set("kernels.bytes", bytes);
    m.set("infer.impute_ms", med(tr, "infer.impute") / 1e3);
    m.set("infer.warmup_ms", warmup_ms);
    m.set("infer.windows", windows as f64);
    m.set("infer.window_us", warmup_ms * 1e3 / windows.max(1) as f64);
    m.set("engine.query_us", engine_q);
    m.set("engine.append_us", med(tr, "engine.append"));
    m.set("engine.tail_query_us", med(tr, "engine.tail_query"));
    m.set("engine.windows_per_append", recomputed as f64 / APPENDS as f64);
    m.set("engine.windows_computed", c.windows_computed as f64);
    m.set("engine.window_hits", c.window_hits as f64);
    m.set("engine.hit_ratio", if lookups > 0.0 { c.window_hits as f64 / lookups } else { 0.0 });
    m.set("engine.lock_wait_ms", lock_wait_ms);
    m.set("engine.evictions", evictions as f64);
    m.set("batch.query_us", batch_q);
    m.set("batch.wait_us", batch_q - engine_q);
    m.set(
        "batch.mean_size",
        (after.requests - before.requests) as f64 / (after.batches - before.batches).max(1) as f64,
    );
    m.set("batch.queue_depth_max", depth_max as f64);
    m.set("registry.get_hit_us", hit);
    m.set("registry.get_miss_ms", med(tr, "registry.get_miss") / 1e3);
    m.set("registry.loads", c.reg_loads as f64);
    m.set("registry.evictions", c.reg_evictions as f64);
    m.set("registry.hits", c.reg_hits as f64);
    m.set("registry.load_failures", c.reg_load_failures as f64);
    m.set("snapshot.capture_ms", med(tr, "snapshot.capture") / 1e3);
    m.set("snapshot.encode_ms", med(tr, "snapshot.encode") / 1e3);
    m.set("snapshot.decode_ms", med(tr, "snapshot.decode") / 1e3);
    m.set("snapshot.bytes", snapshot_bytes as f64);
    m.set("snapshot.rebuild_ms", med(tr, "snapshot.rebuild") / 1e3);
    m.set("durable.write_ms", med(tr, "durable.write") / 1e3);
    m.set("durable.read_ms", med(tr, "durable.read") / 1e3);
    m.set("net.encode_us", med(tr, "net.encode"));
    m.set("net.decode_us", med(tr, "net.decode"));
    m.set("net.query_us", net_q);
    m.set("net.overhead_us", net_q - batch_q - hit);
    m.set("net.requests", c.net_requests as f64);
    m.set("net.accepted", c.net_accepted as f64);
    m.set("net.rejected", c.net_rejected as f64);
    m.set("net.bad_frames", c.net_bad_frames as f64);
    m.set("phase.op_p99_ms", out.ops.pct(0.99));
    m.set("phase.op_rps", out.ops.len() as f64 / out.wall_s);
    m.set("bench.gen_lag_ms", out.gen_lag.pct(0.5));
    // The phase wraps each operation in one span; its cost, measured on
    // empty calls, over the mean operation.
    let op_ns = out.ops.mean() * 1e6;
    m.set("bench.trace_overhead_pct", 100.0 * Tracer::span_cost_ns() / op_ns);
    m
}
