//! Online serving: train once, snapshot, then serve queries and a live stream
//! with bounded memory and a warm restart.
//!
//! ```sh
//! cargo run --release --example online_serving
//! ```
//!
//! The batch pipeline retrains per `impute` call; a production deployment
//! trains offline, ships a snapshot, and serves many cheap requests against a
//! warm model. This example walks the full loop: train → `ServeSnapshot` JSON →
//! `ImputationEngine` → concurrent micro-batched queries → streaming `append`s
//! that re-impute only the affected tail windows → a stream that runs past
//! the **retention ring** (the oldest span evicts, resident storage stays
//! flat, evicted time answers with a typed error) → a **warm restart** from a
//! warm-cache snapshot that serves without recomputing a single window.

use deepmvi::{DeepMviConfig, DeepMviModel};
use mvi_data::dataset::Dataset;
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::metrics::mae;
use mvi_data::scenarios::Scenario;
use mvi_serve::{ImputationEngine, MicroBatcher, ServeError, ServeSnapshot};
use std::sync::Arc;
use std::time::Instant;

const SERIES: usize = 6;
const T: usize = 400;
const STREAM_START: usize = 320;
/// The live stream keeps running past the trained length — the engine grows.
const T_STREAM: usize = 480;
/// Retention window of the bounded engine in part 2: resident storage is
/// capped near this many steps per series while the stream runs forever.
const RETENTION: usize = 200;
/// How far the bounded stream runs past everything above.
const T_LONG: usize = 1600;

fn main() {
    // ---- Offline: training over history with a hidden "future" suffix. ----
    let full = generate_with_shape(DatasetName::Electricity, &[SERIES], T_LONG, 21);
    let dataset =
        Dataset::new("electricity-trained", full.dims.clone(), full.values.truncated_time(T));
    let instance = Scenario::mcar(1.0).apply(&dataset, 13);
    let mut observed = instance.observed();
    for s in 0..SERIES {
        observed.hide_range(s, STREAM_START, T);
    }
    let config = DeepMviConfig { max_steps: 150, p: 16, n_heads: 2, ..Default::default() };
    let mut model = DeepMviModel::new(&config, &observed);
    let report = model.fit(&observed);
    println!(
        "trained {} parameters in {} steps (val MSE {:.4})",
        model.num_parameters(),
        report.steps,
        report.best_val
    );

    // ---- Ship: one JSON artifact carries config + geometry + weights. ----
    let json = ServeSnapshot::capture(&model, &observed).to_json();
    println!("snapshot: {} bytes of JSON", json.len());

    // ---- Online: rehydrate into an engine behind a micro-batcher. ----
    let snapshot = ServeSnapshot::from_json(&json).expect("parse snapshot");
    let frozen = snapshot.restore(&observed).expect("geometry-checked restore");
    let engine = Arc::new(ImputationEngine::new(frozen, observed).expect("engine"));
    let warmed = engine.warm_up();
    println!("warm cache: {warmed} windows imputed up front");

    // Concurrent clients: each thread issues point-range queries; the batcher
    // coalesces whatever is pending into deduplicated window batches.
    let batcher = MicroBatcher::spawn(Arc::clone(&engine), 32);
    let start = Instant::now();
    let mut handles = Vec::new();
    for worker in 0..4 {
        let client = batcher.client();
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                let s = (worker + i) % SERIES;
                let lo = (i * 7) % (T - 60);
                client.query(s, lo, lo + 60).expect("query");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = engine.stats();
    println!(
        "served {} requests in {} batches ({:.0} req/s; {} window passes, {} cache hits)",
        stats.requests,
        stats.batches,
        stats.requests as f64 / elapsed,
        stats.windows_computed,
        stats.window_hits
    );

    // ---- Stream: the hidden future arrives; only tail windows recompute. ----
    let mut refreshed = 0usize;
    for s in 0..SERIES {
        let wm = engine.watermark(s).expect("watermark");
        let arriving = &dataset.values.series(s)[wm..T];
        let report = engine.append(s, arriving).expect("append");
        refreshed += report.windows_recomputed;
        println!(
            "append series {s}: {} values at t={wm}, {} tail windows recomputed, {} invalidated",
            arriving.len(),
            report.windows_recomputed,
            report.windows_invalidated
        );
    }
    println!("streaming drain recomputed {refreshed} windows (full tensor would be far more)");

    // ---- Grow: the stream keeps running past the trained length. ----
    // Appends past `t_len` used to hard-fail with a capacity error; the
    // engine now grows the live grid and serves the grown tail through the
    // frozen model's rolling temporal context.
    for s in 0..SERIES {
        let wm = engine.watermark(s).expect("watermark");
        let report =
            engine.append(s, &full.values.series(s)[wm..T_STREAM]).expect("append past capacity");
        println!(
            "append series {s}: grew to {} (trained length {}), {} windows recomputed",
            report.live_len,
            engine.trained_len(),
            report.windows_recomputed
        );
    }
    let tail = engine.query(0, T, T_STREAM).expect("query over the grown region");
    println!("grown tail of series 0 serves {} values past the trained length", tail.len());

    // The served values on the original missing entries stay faithful.
    let served = engine.cached_values().truncated_time(T);
    let err = mae(&dataset.values, &served, &instance.missing);
    println!("MAE on the original hidden entries after streaming: {err:.4}");

    // ---- Bound memory: the same model behind a retention ring. ----
    // The unbounded engine above grows storage forever; a deployment fed
    // real traffic wants the newest RETENTION steps resident and the rest
    // evicted. Build a bounded engine from the same snapshot and stream far
    // past the cap: storage stays flat while logical time keeps advancing.
    let frozen = ServeSnapshot::from_json(&json).expect("parse snapshot");
    let observed = engine.observed().truncated(T); // the trained-era history
    let ring = ImputationEngine::with_retention(
        frozen.restore(&observed).expect("restore"),
        observed,
        RETENTION,
    )
    .expect("bounded engine");
    let cap = ring.ring_capacity().expect("bounded");
    let chunk = 25;
    loop {
        let mut all_done = true;
        for s in 0..SERIES {
            let wm = ring.watermark(s).expect("watermark");
            if wm >= T_LONG {
                continue;
            }
            all_done = false;
            let end = (wm + chunk).min(T_LONG);
            ring.append(s, &full.values.series(s)[wm..end]).expect("append");
            assert!(ring.storage_capacity() <= cap, "resident storage must stay within the cap");
        }
        if all_done {
            break;
        }
    }
    let (start, live) = (ring.retained_start(), ring.live_len());
    let stats = ring.stats();
    println!(
        "retention ring: streamed to t={live} with storage capped at {cap} steps/series \
         ({} evictions, {} steps evicted); retained window starts at {start}",
        stats.evictions, stats.steps_evicted
    );
    // Recent history serves; evicted time is a typed error, not wrong data.
    ring.query(0, start, live).expect("retained query");
    match ring.query(0, 0, 60) {
        Err(ServeError::Evicted { retained_start, .. }) => {
            println!("query before t={retained_start} correctly fails: evicted");
        }
        other => panic!("expected an eviction error, got {other:?}"),
    }

    // ---- Warm restart: persist the cache, restore, serve with no compute. ----
    for s in 0..SERIES {
        ring.query(s, start, live).expect("healing sweep"); // make every window cache-fresh
    }
    let warm_json = ring.snapshot().to_json();
    println!("warm snapshot: {} bytes of JSON (weights + serving cache)", warm_json.len());
    let restarted =
        ImputationEngine::from_snapshot(&ServeSnapshot::from_json(&warm_json).expect("parse"))
            .expect("warm restart");
    for s in 0..SERIES {
        restarted.query(s, start, live).expect("restored query");
    }
    assert_eq!(
        restarted.stats().windows_computed,
        0,
        "a warm restart serves the cached windows without a single forward pass"
    );
    println!(
        "warm restart: {} queries answered with {} window evaluations",
        restarted.stats().requests,
        restarted.stats().windows_computed
    );
}
