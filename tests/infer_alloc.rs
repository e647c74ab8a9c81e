//! Allocation-regression smoke for the serving hot path: once an
//! [`deepmvi::InferScratch`] is warm, `predict_window_into` must perform
//! **zero heap allocations** — the whole window forward pass (attention
//! context, kernel regression, output head) runs in recycled evaluator slots
//! and reused scratch buffers, with parameters read by `Arc` share — and a
//! serial `predict_batch` allocates only the vectors it returns.
//!
//! This lives in its own integration-test binary because it installs a
//! counting global allocator.

use deepmvi::{DeepMviConfig, DeepMviModel, InferScratch};
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, counting allocations while armed.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LAST_SIZE: AtomicUsize = AtomicUsize::new(0);
static MAX_SIZE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Armed per thread, so the test harness's own threads (reporting a
    /// finished test while another runs) are not counted.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation of `size` bytes if this thread is armed.
fn count(size: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LAST_SIZE.store(size, Ordering::Relaxed);
        MAX_SIZE.fetch_max(size, Ordering::Relaxed);
    }
}

/// Arms or disarms counting on this thread.
fn arm(on: bool) {
    ARMED.with(|a| a.set(on));
}

// SAFETY: pure pass-through to `System`; the only added work is on atomics
// and a const-initialised thread-local `Cell`, neither of which allocates,
// so every `GlobalAlloc` contract is inherited intact.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the `GlobalAlloc` contract for `layout`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarding our caller's contract verbatim to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds the `GlobalAlloc` contract for `layout`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarding our caller's contract verbatim to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds the `GlobalAlloc` contract for `ptr`/`layout`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarding our caller's contract verbatim to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds the `GlobalAlloc` contract for `ptr`/`layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarding our caller's contract verbatim to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The counters are process-wide, so the tests here take turns.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn steady_state_predict_window_performs_zero_heap_allocations() {
    let _turn = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Untrained weights are fine: allocation behaviour depends on shapes and
    // control flow, not parameter values. `max_siblings: 2` forces the top-L
    // sibling pre-selection onto the measured path too.
    let ds = generate_with_shape(DatasetName::Electricity, &[5], 120, 3);
    let obs = Scenario::mcar(1.0).apply(&ds, 7).observed();
    let cfg = DeepMviConfig { max_siblings: 2, ..DeepMviConfig::tiny() };
    let model = DeepMviModel::new(&cfg, &obs);
    let queries = model.missing_queries(&obs);
    assert!(queries.len() >= 4, "fixture needs a spread of windows");

    let mut scratch = InferScratch::new();
    let mut out = Vec::new();
    // Warm-up: two full sweeps size every recycled buffer to its steady state.
    let mut warm = Vec::new();
    for sweep in 0..2 {
        for q in &queries {
            out.clear();
            model.predict_window_into(&mut scratch, &obs, q, &mut out);
            assert_eq!(out.len(), q.positions.len());
            if sweep == 0 {
                warm.extend(out.iter().map(|v| v.to_bits()));
            }
        }
    }

    // Measured sweep: same queries, allocator armed strictly around each
    // forward call (the claim under test is the hot call itself; the harness
    // and bookkeeping between calls are not part of it).
    ALLOCS.store(0, Ordering::SeqCst);
    let mut measured = Vec::with_capacity(warm.len());
    let mut per_query = Vec::with_capacity(queries.len());
    for q in &queries {
        out.clear();
        let before = ALLOCS.load(Ordering::SeqCst);
        arm(true);
        model.predict_window_into(&mut scratch, &obs, q, &mut out);
        arm(false);
        per_query.push(ALLOCS.load(Ordering::SeqCst) - before);
        measured.extend(out.iter().map(|v| v.to_bits()));
    }
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(measured, warm, "scratch reuse changed predictions");
    assert!(
        per_query.iter().all(|&n| n == 0) && allocs == 0,
        "steady-state predict_window_into allocated {allocs} times (last size {}); per query: \
         {per_query:?}",
        LAST_SIZE.load(Ordering::SeqCst)
    );
}

#[test]
fn steady_state_serial_predict_batch_allocates_only_its_results() {
    let _turn = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Each series' table reaches past its targets' contexts, so the stacked
    // pass builds edge keys, per-row keys and per-row V bands: 40
    // windows against the tiny config's 16-window context, and 100 against
    // the paper config's 64, whose score products take `matmul_nt`'s
    // packed path.
    let tiny = DeepMviConfig { max_siblings: 2, ..DeepMviConfig::tiny() };
    let paper = DeepMviConfig { threads: 1, ..DeepMviConfig::default() };
    for (cfg, t_len) in [(tiny, 400), (paper, 1000)] {
        let ds = generate_with_shape(DatasetName::Electricity, &[5], t_len, 3);
        let obs = Scenario::mcar(1.0).apply(&ds, 7).observed();
        let model = DeepMviModel::new(&cfg, &obs);
        let queries = model.missing_queries(&obs);
        assert!(queries.len() >= 10, "fixture needs a spread of windows");

        let mut scratch = InferScratch::new();
        let warm = model.predict_batch(&mut scratch, &obs, &queries, 1);
        let _ = model.predict_batch(&mut scratch, &obs, &queries, 1);

        ALLOCS.store(0, Ordering::SeqCst);
        arm(true);
        let measured = model.predict_batch(&mut scratch, &obs, &queries, 1);
        arm(false);
        let allocs = ALLOCS.load(Ordering::SeqCst);

        assert_eq!(measured, warm, "scratch reuse changed predictions");
        // One result vector per query, plus the outer vector.
        assert_eq!(
            allocs,
            queries.len() + 1,
            "steady-state predict_batch (p = {}) allocated {allocs} times for {} queries (last \
             size {})",
            cfg.p,
            queries.len(),
            LAST_SIZE.load(Ordering::SeqCst)
        );
    }
}

/// A series far longer than the context: no buffer of a batch pass is
/// larger than the table's own, however many targets it holds. Series 0
/// misses 1,960 of its 2,000 windows: one run of 1,960 targets against a
/// 2,000-row table, whose largest buffer is its `[2000, 2p]` key/query
/// input (1 MB). Scoring every target against the whole table would take a
/// `[1960, 2000]` buffer (31 MB), and one stacked pass over all 1,960
/// targets a `[1960, w·p]` decoder output (5 MB); the bound leaves room
/// for one doubling of a reused buffer.
#[test]
fn long_series_batch_buffers_do_not_grow_with_the_series() {
    let _turn = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Long gaps would pick 20-step windows (§4.3); pin 10.
    let cfg = DeepMviConfig { threads: 1, window: Some(10), ..DeepMviConfig::default() };
    let t_len = 20_000;
    let ds = generate_with_shape(DatasetName::Electricity, &[2], t_len, 3);
    let mut missing = mvi_tensor::Mask::falses(&[2, t_len]);
    for j in (0..t_len / 10).filter(|j| j % 50 != 0) {
        missing.set_range(0, j * 10, j * 10 + 10, true);
    }
    let obs = ds.with_missing(missing).observed();
    let model = DeepMviModel::new(&cfg, &obs);
    assert_eq!(model.window(), 10, "fixture needs 2,000 windows");
    let queries = model.missing_queries(&obs);
    let m = queries.len();
    assert_eq!(m, 1960);

    MAX_SIZE.store(0, Ordering::SeqCst);
    arm(true);
    let out = model.predict_batch(&mut InferScratch::new(), &obs, &queries, 1);
    arm(false);
    assert_eq!(out.len(), m);
    let largest = MAX_SIZE.load(Ordering::SeqCst);
    let bound = 2 * (t_len / 10) * 2 * cfg.p * std::mem::size_of::<f64>();
    assert!(
        largest <= bound,
        "a {m}-target batch pass allocated {largest} bytes at once (bound {bound})"
    );
}
