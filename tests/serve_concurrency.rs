//! Concurrency stress + linearizability suite for the serving engine:
//! N-thread mixed append/query/fill_range traffic against the warm read path,
//! checked against sequential oracles.
//!
//! What is proven here:
//!
//! * **Linearizability of the warm path** — every committed read must equal
//!   some linearized order's result. Concretely: values a completed append
//!   wrote are visible to every read that starts afterwards (writers
//!   publish their committed watermark *after* `append` returns; readers
//!   sample it *before* querying), originally-observed values pass through
//!   verbatim forever, a committed backfill is visible atomically (all of
//!   it or none of it) and never "un-happens" for a reader that saw it.
//! * **Sequential-oracle equivalence at quiescence** — after all writers
//!   join, the engine's healed cache equals `FrozenModel::impute` over the
//!   final observed state (the same oracle the single-threaded suites use).
//! * **Fault isolation across series** — a panicking evaluator triggered
//!   through series 0 neither stalls nor corrupts reads of the other
//!   series, and poison recovery is counted exactly once.
//! * **Point-in-time health** — under parallel quarantine traffic, every
//!   `health()` report satisfies the sum invariant
//!   `quarantined == Σ quarantined_by_series` and final counts are exact
//!   per series; a concurrent poller sees a multi-series degrade batch
//!   either not at all or whole; and `health()` and the non-finite input
//!   gate answer while another thread holds the core lock.
//!
//! Seeded schedules: iteration counts scale with `MVI_STRESS_READS` (reads
//! per reader thread; default 50). The defaults run 600+ oracle-checked
//! reads across the seeds — the 500+ iteration floor of the PR-7
//! acceptance criteria. The per-series snapshot cell itself is a std
//! `RwLock<Arc<_>>`, so there is no hand-written handoff to test below
//! this level: `warm_path_actually_serves_without_the_core_lock` shows a
//! reader of the very series being written answers from the last published
//! snapshot while the writer's forward pass holds the core lock.

mod common;

use common::Fixture;
use mvi_data::dataset::ObservedDataset;
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_serve::{ImputationEngine, ImputeRequest, ServeError, ValueGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const SERIES: usize = 6;
const T_LEN: usize = 120;
/// The hidden interior gap every series starts with: backfill territory.
const GAP: (usize, usize) = (60, 70);
/// The distinctive constant backfills write — model imputations never land
/// on it exactly, so a reader can tell "filled" from "imputed".
const FILL_VALUE: f64 = 7.77;

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = generate_with_shape(DatasetName::Chlorine, &[SERIES], T_LEN, 13);
        let mut obs = Scenario::mcar(1.0).apply(&ds, 7).observed();
        // A hidden interior gap with an observed tail in every series: the
        // watermark starts at the series end, so the gap is reachable only
        // through `fill_range` — the backfill leg of the mixed traffic.
        for s in 0..SERIES {
            obs.hide_range(s, GAP.0, GAP.1);
            obs.record_range(s, T_LEN - 2, &[0.5, 0.25]);
        }
        Fixture::train(ds.values, obs, 8)
    })
}

fn engine() -> ImputationEngine {
    fixture().engine()
}

/// Reads per reader thread (`MVI_STRESS_READS`, default 50).
fn reads_per_thread() -> usize {
    std::env::var("MVI_STRESS_READS").ok().and_then(|v| v.parse().ok()).unwrap_or(50)
}

/// The deterministic stream each writer appends: a pure function of
/// `(series, offset past the initial watermark)` so any reader can check
/// any committed prefix without coordination.
fn stream_val(s: usize, k: usize) -> f64 {
    (((s * 1000 + k) as f64) / 17.0).sin()
}

/// Tiny deterministic LCG for seeded schedules.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Shared commit journal for the linearizability check: writers publish
/// facts *after* the mutation returns; readers sample *before* querying.
/// Anything published-before-read-start must be visible in the answer.
struct Journal {
    /// Per series: highest watermark a *returned* append reached.
    committed_wm: Vec<AtomicUsize>,
    /// Per series: whether a gap backfill has committed.
    gap_filled: Vec<AtomicBool>,
}

impl Journal {
    fn new(initial_wm: Vec<usize>) -> Self {
        Self {
            committed_wm: initial_wm.into_iter().map(AtomicUsize::new).collect(),
            gap_filled: (0..SERIES).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

/// One oracle-checked read of series `s` over `[a, b)`: asserts every
/// deterministic fact the linearization order implies. `init_wm` is the
/// series' watermark at engine construction (stream offsets count from
/// there); `obs` is the original observed state (pass-through positions).
#[allow(clippy::too_many_arguments)]
fn checked_read(
    eng: &ImputationEngine,
    obs: &ObservedDataset,
    journal: &Journal,
    init_wm: &[usize],
    s: usize,
    a: usize,
    b: usize,
    saw_fill: &mut bool,
) {
    let fill_committed_before = journal.gap_filled[s].load(Ordering::SeqCst);
    let resp = eng.query_flagged(s, a, b).expect("committed-range read failed");
    assert!(!resp.degraded, "no faults injected, nothing may degrade");
    assert_eq!(resp.values.len(), b - a);
    let avail = obs.available.series(s);
    let orig = obs.values.series(s);
    for (off, &v) in resp.values.iter().enumerate() {
        let t = a + off;
        assert!(v.is_finite(), "series {s} t={t}: non-finite served value");
        if t >= init_wm[s] {
            // Committed stream suffix: the read started after the append
            // covering `t` returned, so the exact stream value is required.
            assert_eq!(
                v,
                stream_val(s, t - init_wm[s]),
                "series {s} t={t}: committed append not visible"
            );
        } else if (GAP.0..GAP.1).contains(&t) {
            let filled = v == FILL_VALUE;
            if fill_committed_before || *saw_fill {
                assert!(
                    filled,
                    "series {s} t={t}: committed backfill not visible (or un-happened)"
                );
            }
            if filled {
                *saw_fill = true;
            }
        } else if t < T_LEN && avail[t] {
            assert_eq!(v, orig[t], "series {s} t={t}: observed value not served verbatim");
        }
    }
}

/// After all writers join: heal everything lazily, then the cache must
/// equal a batch re-impute of the final observed state — the sequential
/// oracle (the state any linearized order of the same mutations produces).
fn assert_quiescent_oracle(eng: &ImputationEngine) {
    let live = eng.live_len();
    for s in 0..SERIES {
        eng.query(s, 0, live).expect("healing sweep failed");
    }
    let healed = eng.cached_values();
    let oracle = eng.model().impute(&eng.observed());
    assert_eq!(healed.shape(), oracle.shape());
    for (i, (a, b)) in healed.data().iter().zip(oracle.data()).enumerate() {
        assert!(
            (a - b).abs() < 1e-9,
            "flat index {i}: healed cache {a} diverged from sequential oracle {b}"
        );
    }
}

// ---------------------------------------------------------------------------
// Tentpole stress: mixed append / query / fill_range traffic
// ---------------------------------------------------------------------------

#[test]
fn stress_mixed_traffic_respects_linearizability() {
    let fix = fixture();
    let n_readers = 4;
    let reads = reads_per_thread();
    for seed in [11u64, 29, 47] {
        let eng = Arc::new(engine());
        let init_wm: Vec<usize> =
            (0..SERIES).map(|s| eng.watermark(s).expect("fixture series")).collect();
        let journal = Journal::new(init_wm.clone());
        let writer_series: [Vec<usize>; 2] = [vec![0, 1], vec![2, 3]];

        std::thread::scope(|scope| {
            let (eng, journal, init_wm) = (&eng, &journal, &init_wm);
            for (wi, owned) in writer_series.iter().enumerate() {
                scope.spawn(move || {
                    let mut rng = Lcg(seed.wrapping_mul(101) + wi as u64);
                    let mut appended = [0usize; SERIES];
                    for round in 0..12 {
                        for &s in owned {
                            let chunk = 1 + rng.below(4) as usize;
                            let vals: Vec<f64> =
                                (0..chunk).map(|k| stream_val(s, appended[s] + k)).collect();
                            let report = eng.append(s, &vals).expect("append failed");
                            appended[s] += chunk;
                            assert_eq!(report.recorded.1, init_wm[s] + appended[s]);
                            // Publish the committed watermark only now —
                            // after the append returned — so readers demand
                            // visibility of exactly what has committed.
                            journal.committed_wm[s]
                                .store(init_wm[s] + appended[s], Ordering::SeqCst);
                        }
                        // Midway, backfill the hidden gap (the fill_range
                        // leg): one atomic commit readers can never see
                        // partially or see revert.
                        if round == 5 {
                            for &s in owned {
                                eng.fill_range(s, GAP.0, &[FILL_VALUE; GAP.1 - GAP.0])
                                    .expect("backfill failed");
                                journal.gap_filled[s].store(true, Ordering::SeqCst);
                            }
                        }
                    }
                });
            }
            for r in 0..n_readers {
                scope.spawn(move || {
                    let mut rng = Lcg(seed.wrapping_mul(7919) + 31 + r as u64);
                    let mut saw_fill = [false; SERIES];
                    for _ in 0..reads {
                        let s = rng.below(SERIES as u64) as usize;
                        let committed = journal.committed_wm[s].load(Ordering::SeqCst);
                        let len = 1 + rng.below(40) as usize;
                        let b = (1 + rng.below(committed as u64) as usize).min(committed);
                        let a = b.saturating_sub(len);
                        checked_read(eng, &fix.obs, journal, init_wm, s, a, b, &mut saw_fill[s]);
                    }
                });
            }
        });
        assert_quiescent_oracle(&eng);
        // No fault was injected anywhere: the health surface must be silent.
        let health = eng.health();
        assert_eq!(health.quarantined, 0);
        assert_eq!(health.poison_recoveries, 0);
        assert_eq!(health.degraded_events, 0);
    }
}

#[test]
fn stress_hot_spot_single_series() {
    let fix = fixture();
    let eng = Arc::new(engine());
    let init_wm: Vec<usize> =
        (0..SERIES).map(|s| eng.watermark(s).expect("fixture series")).collect();
    let journal = Journal::new(init_wm.clone());
    let reads = reads_per_thread();

    // Every reader hammers series 0 while its single writer streams into it
    // — the worst case for reader/writer interleaving on one snapshot cell.
    std::thread::scope(|scope| {
        let (eng, journal, init_wm) = (&eng, &journal, &init_wm);
        scope.spawn(move || {
            let mut appended = 0usize;
            for round in 0..30 {
                let chunk = 1 + (round % 3);
                let vals: Vec<f64> = (0..chunk).map(|k| stream_val(0, appended + k)).collect();
                eng.append(0, &vals).expect("append failed");
                appended += chunk;
                journal.committed_wm[0].store(init_wm[0] + appended, Ordering::SeqCst);
            }
        });
        for r in 0..4u64 {
            scope.spawn(move || {
                let mut rng = Lcg(977 + r);
                let mut saw_fill = false;
                for _ in 0..reads {
                    let committed = journal.committed_wm[0].load(Ordering::SeqCst);
                    let len = 1 + rng.below(30) as usize;
                    let b = (1 + rng.below(committed as u64) as usize).min(committed);
                    let a = b.saturating_sub(len);
                    checked_read(eng, &fix.obs, journal, init_wm, 0, a, b, &mut saw_fill);
                }
            });
        }
    });
    assert_quiescent_oracle(&eng);
}

// ---------------------------------------------------------------------------
// Fault isolation under concurrency
// ---------------------------------------------------------------------------

#[test]
fn panicking_evaluator_on_one_shard_does_not_stall_or_corrupt_others() {
    let fix = fixture();
    let eng = Arc::new(engine());
    eng.warm_up();
    let init_wm: Vec<usize> =
        (0..SERIES).map(|s| eng.watermark(s).expect("fixture series")).collect();

    // The hook panics exactly once — armed to fire during the eager
    // recompute of a series-0 mutation.
    let armed = Arc::new(AtomicBool::new(true));
    let armed_hook = Arc::clone(&armed);
    eng.set_eval_hook(Some(Box::new(move |_results| {
        if armed_hook.swap(false, Ordering::SeqCst) {
            panic!("injected series-0 evaluator panic");
        }
    })));

    let stop = AtomicBool::new(false);
    let served: Vec<AtomicUsize> = (1..SERIES).map(|_| AtomicUsize::new(0)).collect();
    let wait_past = |floor: &[usize]| {
        while served.iter().zip(floor).any(|(c, &f)| c.load(Ordering::SeqCst) <= f) {
            std::thread::yield_now();
        }
    };
    std::thread::scope(|scope| {
        let (eng, stop, served) = (&eng, &stop, &served);
        // Readers on series 1..6: warm reads that must keep succeeding
        // before, during and after the series-0 panic.
        for (i, s) in (1..SERIES).enumerate() {
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let resp =
                        eng.query_flagged(s, 0, T_LEN).expect("sibling read failed mid-panic");
                    assert_eq!(resp.values.len(), T_LEN);
                    assert!(resp.values.iter().all(|v| v.is_finite()));
                    served[i].fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        // Every reader is demonstrably serving before the fault lands ...
        wait_past(&[0; SERIES - 1]);

        // Series 0: the panicking mutation, caught like the batcher's
        // supervisor would.
        let result = catch_unwind(AssertUnwindSafe(|| eng.append(0, &[1.0, 2.0, 3.0])));
        assert!(result.is_err(), "armed hook must panic through the append");
        // The engine recovered: an immediate un-hooked mutation succeeds.
        assert!(!armed.load(Ordering::SeqCst));
        eng.append(0, &[4.0]).expect("engine wedged after panic");

        // ... and every reader demonstrably serves *again* after it: a
        // panic on series 0 stalled nobody.
        let floor: Vec<usize> = served.iter().map(|c| c.load(Ordering::SeqCst)).collect();
        wait_past(&floor);
        stop.store(true, Ordering::SeqCst);
    });

    let health = eng.health();
    assert_eq!(health.poison_recoveries, 1, "exactly one poison recovery");
    assert_eq!(health.degraded_events, 0, "a panic is not a degradation");

    // Sibling reads are still exactly right after recovery, and the
    // whole engine converges to the sequential oracle.
    eng.set_eval_hook(None);
    for s in 1..SERIES {
        let got = eng.query(s, 0, T_LEN).expect("post-recovery read");
        let avail = fix.obs.available.series(s);
        let orig = fix.obs.values.series(s);
        for t in 0..T_LEN {
            if avail[t] {
                assert_eq!(got[t], orig[t], "series {s} t={t}: observed value corrupted");
            }
        }
    }
    // The recovered engine still knows the panicked append never committed
    // its tail value and the follow-up did: watermarks moved exactly twice.
    assert_eq!(eng.watermark(0).unwrap(), init_wm[0] + 4);
    assert_quiescent_oracle(&eng);
}

#[test]
fn degraded_and_quarantine_counters_stay_accurate_under_parallel_load() {
    // The fault workload runs concurrently probed by a health reader: no
    // count may be lost or doubled, and every in-flight report must satisfy
    // the sum invariant.
    let eng = Arc::new(engine());
    eng.warm_up();
    eng.set_value_guard(Some(ValueGuard { abs_max: Some(100.0), max_jump: None }));

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (eng, stop) = (&eng, &stop);
        let health_reader = scope.spawn(move || {
            let mut checks = 0usize;
            while !stop.load(Ordering::SeqCst) {
                let h = eng.health();
                assert_eq!(
                    h.quarantined,
                    h.quarantined_by_series.iter().sum::<u64>(),
                    "torn health report"
                );
                checks += 1;
            }
            checks
        });
        // Writers: every series gets 10 appends of [ok, spike, ok] —
        // exactly 10 quarantined values per series.
        let writers: Vec<_> = (0..SERIES)
            .map(|s| {
                scope.spawn(move || {
                    for _ in 0..10 {
                        eng.append(s, &[1.0, 5000.0, 2.0]).expect("guarded append");
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer panicked");
        }
        stop.store(true, Ordering::SeqCst);
        assert!(health_reader.join().expect("health reader panicked") > 0);
    });

    let h = eng.health();
    assert_eq!(h.quarantined_by_series, vec![10u64; SERIES]);
    assert_eq!(h.quarantined, 10 * SERIES as u64);
}

#[test]
fn shard_collisions_and_nonfinite_rejections_stay_per_series_exact() {
    // Concurrent guarded writers on three series: quarantine counts land on
    // exactly the series that produced them, and every rejected non-finite
    // payload is counted once, whichever series it targeted.
    let eng = engine();
    eng.set_value_guard(Some(ValueGuard { abs_max: Some(100.0), max_jump: None }));

    let targets = [0usize, 1, 4];
    std::thread::scope(|scope| {
        let eng = &eng;
        for &s in &targets {
            scope.spawn(move || {
                for k in 0..8 {
                    // One quarantined spike per append + one rejected
                    // non-finite payload per round.
                    eng.append(s, &[0.5, 9000.0, 0.5]).expect("guarded append");
                    let err = eng.append(s, &[f64::NAN]).unwrap_err();
                    assert!(matches!(err, ServeError::NonFiniteInput { .. }), "round {k}");
                }
            });
        }
    });
    let h = eng.health();
    for s in 0..SERIES {
        let want = if targets.contains(&s) { 8 } else { 0 };
        assert_eq!(h.quarantined_by_series[s], want, "series {s}");
    }
    assert_eq!(h.quarantined, 8 * targets.len() as u64);
    assert_eq!(h.nonfinite_input_rejections, 8 * targets.len() as u64);
}

/// Spins until the poller has completed `n` more polls.
fn await_polls(polls: &AtomicUsize, n: usize) {
    let floor = polls.load(Ordering::SeqCst);
    while polls.load(Ordering::SeqCst) < floor + n {
        std::thread::yield_now();
    }
}

#[test]
fn degrade_batch_is_atomic_to_health_readers() {
    // One cold multi-series batch whose every forward result the hook
    // poisons: all of its windows degrade in one recompute. A concurrent
    // poller must see the degraded gauge and the event count either before
    // the batch or after it, never part-way.
    let eng = engine();
    let polls = Arc::new(AtomicUsize::new(0));
    let stop = AtomicBool::new(false);
    let before = eng.health();
    assert_eq!((before.degraded_windows, before.degraded_events), (0, 0));

    let seen = std::thread::scope(|scope| {
        let (eng, polls, stop) = (&eng, &polls, &stop);
        let poller = scope.spawn(move || {
            let mut seen = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let h = eng.health();
                seen.push((h.degraded_windows, h.degraded_events));
                polls.fetch_add(1, Ordering::SeqCst);
            }
            seen
        });
        // The hook waits until the poller is demonstrably running before it
        // poisons, so polling overlaps the batch's health update.
        let hook_polls = Arc::clone(polls);
        eng.set_eval_hook(Some(Box::new(move |results| {
            await_polls(&hook_polls, 8);
            for vals in results.iter_mut() {
                vals.iter_mut().for_each(|v| *v = f64::NAN);
            }
        })));
        let requests: Vec<ImputeRequest> =
            (0..SERIES).map(|s| ImputeRequest { s, start: 0, end: T_LEN }).collect();
        for got in eng.query_batch(&requests) {
            assert!(got.expect("degraded answers are still answers").iter().all(|v| v.is_finite()));
        }
        // Keep polling a little past the batch, then stop.
        await_polls(polls, 8);
        stop.store(true, Ordering::SeqCst);
        poller.join().expect("health poller panicked")
    });
    eng.set_eval_hook(None);

    let after = eng.health();
    // Every series carries the hidden gap, so the batch spans every series.
    assert!(after.degraded_windows >= SERIES as u64, "{after:?}");
    assert_eq!(after.degraded_events, after.degraded_windows, "one event per degraded window");
    let (pre, post) = ((0, 0), (after.degraded_windows, after.degraded_events));
    assert!(seen.contains(&pre) && seen.contains(&post), "poller never saw both sides");
    for &reading in &seen {
        assert!(reading == pre || reading == post, "half-applied degrade batch: {reading:?}");
    }
}

// ---------------------------------------------------------------------------
// Warm-path plumbing
// ---------------------------------------------------------------------------

#[test]
fn warm_path_actually_serves_without_the_core_lock() {
    let eng = Arc::new(engine());
    eng.warm_up();
    // Hold the core lock hostage through a stalled eval hook driven by a
    // mutation on another thread; warm reads must keep answering.
    let release = Arc::new(AtomicBool::new(false));
    let stalled = Arc::new(AtomicBool::new(false));
    let (release_hook, stalled_hook) = (Arc::clone(&release), Arc::clone(&stalled));
    eng.set_eval_hook(Some(Box::new(move |_| {
        stalled_hook.store(true, Ordering::SeqCst);
        while !release_hook.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    })));

    let pre_append = eng.query(0, 0, T_LEN).expect("warm read of series 0");
    std::thread::scope(|scope| {
        let eng_m = Arc::clone(&eng);
        let mutator = scope.spawn(move || {
            // The append's eager recompute enters the hook and parks while
            // holding the core lock.
            eng_m.append(0, &[1.0, 2.0]).expect("stalled append");
        });
        while !stalled.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Core lock is held right now. Warm reads on other series still
        // answer from their published snapshots.
        let wait_before = eng.lock_wait_nanos();
        for s in 1..SERIES {
            let got = eng.query(s, 0, T_LEN).expect("warm read blocked by a held core lock");
            assert_eq!(got.len(), T_LEN);
        }
        // So does a read of series 0, whose own append is parked mid-forward
        // pass, and it sees the last published values, not the uncommitted
        // ones. Health and the non-finite input gate stay off the core lock
        // too. Both run on helper threads, so a regression that routes them
        // through the core lock fails at the deadline instead of hanging.
        let own_series = scope.spawn(|| eng.query(0, 0, T_LEN));
        let gate = scope.spawn(|| {
            let rejected_before = eng.health().nonfinite_input_rejections;
            let err = eng.append(1, &[f64::NAN]).expect_err("non-finite payload accepted");
            (err, rejected_before, eng.health().nonfinite_input_rejections)
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while !(gate.is_finished() && own_series.is_finished()) && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let own_series_answered = own_series.is_finished();
        let answered = gate.is_finished();
        let wait_after = eng.lock_wait_nanos();
        release.store(true, Ordering::SeqCst);
        assert!(own_series_answered, "a read of series 0 waited on its own parked append");
        let during_append = own_series.join().expect("series-0 reader panicked");
        assert_eq!(
            during_append.expect("warm read of series 0 during its append"),
            pre_append,
            "a read during the parked append must see the pre-append snapshot"
        );
        assert!(answered, "health() or the non-finite gate waited on the held core lock");
        let (err, rejected_before, rejected_after) = gate.join().expect("gate thread panicked");
        assert!(matches!(err, ServeError::NonFiniteInput { s: 1, offset: 0 }), "{err:?}");
        assert_eq!(rejected_after, rejected_before + 1, "the rejection must be counted");
        assert_eq!(
            wait_after, wait_before,
            "warm reads, health and the non-finite gate must not touch (let alone wait on) \
             the core lock"
        );
        mutator.join().expect("mutator panicked");
    });
    eng.set_eval_hook(None);
}
