//! Micro-batching front door: concurrent callers funnel requests through a
//! channel to one executor thread, which drains whatever is pending (up to a
//! cap) and serves it as a single coalesced [`ImputationEngine::query_batch`].
//!
//! Requests that arrive while a batch is executing queue up and form the next
//! batch, so under concurrent load the per-request cost amortizes: overlapping
//! query windows are deduplicated into one forward pass, and the forward
//! passes of a batch run data-parallel over `mvi-parallel`.
//!
//! ## Fault tolerance
//!
//! The front door is built to stay answerable when a request misbehaves (see
//! [`BatcherConfig`] for the knobs):
//!
//! * **Supervision** — the worker executes every batch under
//!   [`std::panic::catch_unwind`]. A panicking batch is retried one request at
//!   a time to isolate the culprit: the panicking request(s) get a typed
//!   [`ServeError::Panicked`] reply, innocent batch-mates get their real
//!   answers, and the worker keeps serving (the supervisor respawns the
//!   request loop in place — no thread churn, no lost queue). The engine
//!   itself heals from the unwound lock via its poison-recovering state lock.
//! * **Backpressure** — the pending queue is bounded
//!   ([`BatcherConfig::queue_cap`]); a full queue fails the submit immediately
//!   with [`ServeError::Overloaded`] instead of buffering without limit.
//! * **Deadlines** — with [`BatcherConfig::deadline`] set, a request that is
//!   not answered in time returns [`ServeError::DeadlineExceeded`]: the client
//!   is released even if an evaluation is stuck, and a request that expired
//!   while still queued is dropped by the worker without wasting a forward
//!   pass on it.
//! * **Clean shutdown** — dropping the [`MicroBatcher`] stops the worker and
//!   drains every still-queued request with a [`ServeError::Shutdown`] reply,
//!   so no caller is left hanging. A reply channel that disconnects
//!   *without* a typed answer is reported as the distinct
//!   [`ServeError::Disconnected`]: deliberate drains always answer, so a
//!   silent disconnect means the reply was lost (a crash, or a submission
//!   racing the final drain) and the caller must not assume whether the
//!   evaluation ran.

use crate::engine::{ImputationEngine, ImputeRequest, ServeError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Reply = Result<Vec<f64>, ServeError>;

struct QueryJob {
    req: ImputeRequest,
    reply: mpsc::Sender<Reply>,
    /// When the client stops waiting ([`BatcherConfig::deadline`]); a job
    /// already expired at drain time is answered `DeadlineExceeded` without
    /// spending a forward pass on it.
    deadline: Option<Instant>,
}

enum Job {
    Query(Box<QueryJob>),
    /// Sent by `Drop`: clients may still hold sender clones, so channel
    /// disconnection alone cannot signal shutdown.
    Shutdown,
}

/// Tuning for [`MicroBatcher::spawn_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatcherConfig {
    /// How many pending requests one batch may coalesce (≥ 1).
    pub max_batch: usize,
    /// Bound on the pending-request queue (≥ 1): submissions beyond it fail
    /// fast with [`ServeError::Overloaded`] instead of buffering unboundedly.
    pub queue_cap: usize,
    /// Per-request deadline. `None` waits indefinitely; `Some(d)` makes a
    /// query return [`ServeError::DeadlineExceeded`] if no reply arrived
    /// within `d` of submission (stuck evaluation, or expired while queued).
    pub deadline: Option<Duration>,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self { max_batch: 32, queue_cap: 1024, deadline: None }
    }
}

/// The executor half: owns the worker thread, which holds the engine.
/// Dropping the batcher drains still-queued jobs with [`ServeError::Shutdown`]
/// replies and joins the worker.
pub struct MicroBatcher {
    tx: Option<mpsc::SyncSender<Job>>,
    worker: Option<JoinHandle<()>>,
    config: BatcherConfig,
    stop: Arc<AtomicBool>,
    panics: Arc<AtomicU64>,
    depth: Arc<AtomicUsize>,
}

/// A cloneable handle clients use to submit blocking queries.
#[derive(Clone)]
pub struct BatchClient {
    tx: mpsc::SyncSender<Job>,
    queue_cap: usize,
    deadline: Option<Duration>,
    depth: Arc<AtomicUsize>,
}

impl MicroBatcher {
    /// Spawns the executor thread with default queue bound and no deadline.
    /// `max_batch` caps how many pending requests one batch may coalesce
    /// (≥ 1).
    pub fn spawn(engine: Arc<ImputationEngine>, max_batch: usize) -> Self {
        Self::spawn_with(engine, BatcherConfig { max_batch, ..BatcherConfig::default() })
    }

    /// Spawns the executor thread with explicit fault-tolerance tuning; see
    /// [`BatcherConfig`] and the module docs for the failure semantics.
    pub fn spawn_with(engine: Arc<ImputationEngine>, config: BatcherConfig) -> Self {
        Self::spawn_counting(engine, config, Arc::default())
    }

    /// [`MicroBatcher::spawn_with`], counting caught panics into `panics`:
    /// the registry hands each batcher of a tenant the same cell.
    pub(crate) fn spawn_counting(
        engine: Arc<ImputationEngine>,
        config: BatcherConfig,
        panics: Arc<AtomicU64>,
    ) -> Self {
        let config = BatcherConfig {
            max_batch: config.max_batch.max(1),
            queue_cap: config.queue_cap.max(1),
            ..config
        };
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_cap);
        let stop = Arc::new(AtomicBool::new(false));
        let depth = Arc::new(AtomicUsize::new(0));
        let (worker_stop, worker_panics) = (Arc::clone(&stop), Arc::clone(&panics));
        let worker_depth = Arc::clone(&depth);
        let max_batch = config.max_batch;
        let worker = std::thread::spawn(move || {
            // Queue-depth accounting: clients increment before submitting, the
            // worker decrements as it pops each query job off the channel.
            let pop = |n: usize| {
                worker_depth.fetch_sub(n, Ordering::Relaxed);
            };
            while let Ok(first) = rx.recv() {
                if worker_stop.load(Ordering::Acquire) {
                    // Shutting down: this job and everything behind it gets a
                    // typed reply instead of silence.
                    if let Job::Query(q) = first {
                        pop(1);
                        let _ = q.reply.send(Err(ServeError::Shutdown));
                    }
                    break;
                }
                let mut jobs = Vec::new();
                let mut stop_seen = match first {
                    Job::Shutdown => break,
                    Job::Query(q) => {
                        jobs.push(*q);
                        false
                    }
                };
                while !stop_seen && jobs.len() < max_batch {
                    match rx.try_recv() {
                        Ok(Job::Query(q)) => jobs.push(*q),
                        Ok(Job::Shutdown) => stop_seen = true,
                        Err(_) => break,
                    }
                }
                pop(jobs.len());
                // A job whose client already gave up is answered (the client
                // is gone — the send is a no-op) but not evaluated.
                let now = Instant::now();
                jobs.retain(|job| {
                    let expired = job.deadline.is_some_and(|d| now > d);
                    if expired {
                        let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
                    }
                    !expired
                });
                Self::execute(&engine, jobs, &worker_panics);
                if stop_seen {
                    break;
                }
            }
            // Shutdown drain: everything still queued gets a typed Shutdown
            // reply instead of being dropped on the floor.
            while let Ok(job) = rx.try_recv() {
                if let Job::Query(q) = job {
                    pop(1);
                    let _ = q.reply.send(Err(ServeError::Shutdown));
                }
            }
        });
        Self { tx: Some(tx), worker: Some(worker), config, stop, panics, depth }
    }

    /// Runs one batch under the supervisor: the coalesced fast path first,
    /// and on a panic a one-by-one retry that isolates the culprit — the
    /// panicking request(s) reply [`ServeError::Panicked`], the rest get
    /// their real answers.
    fn execute(exec: &ImputationEngine, jobs: Vec<QueryJob>, panics: &AtomicU64) {
        if jobs.is_empty() {
            return;
        }
        let reqs: Vec<ImputeRequest> = jobs.iter().map(|j| j.req).collect();
        match catch_unwind(AssertUnwindSafe(|| exec.query_batch(&reqs))) {
            Ok(results) => {
                for (job, result) in jobs.into_iter().zip(results) {
                    // A disconnected client (it gave up) is not an executor error.
                    let _ = job.reply.send(result);
                }
            }
            Err(_) => {
                panics.fetch_add(1, Ordering::Relaxed);
                for job in jobs {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        exec.query(job.req.s, job.req.start, job.req.end)
                    }))
                    .unwrap_or_else(|_| {
                        panics.fetch_add(1, Ordering::Relaxed);
                        Err(ServeError::Panicked)
                    });
                    let _ = job.reply.send(result);
                }
            }
        }
    }

    /// A new client handle for this batcher.
    #[expect(
        clippy::expect_used,
        reason = "tx is only taken in Drop, so it is Some for any live &self"
    )]
    pub fn client(&self) -> BatchClient {
        BatchClient {
            tx: self.tx.as_ref().expect("batcher alive").clone(),
            queue_cap: self.config.queue_cap,
            deadline: self.config.deadline,
            depth: Arc::clone(&self.depth),
        }
    }

    /// How many panics the supervisor has caught (batch-level and isolated
    /// retries both count). Stable at `0` in a healthy deployment.
    pub fn panics_caught(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Requests currently pending: queued in the bounded channel or mid
    /// submission. A load-pressure signal for health surfaces — compare
    /// against [`BatcherConfig::queue_cap`] to see how close the door is to
    /// shedding.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(tx) = self.tx.take() {
            // Blocking send: the queue may be full, but the worker is
            // draining it, so space frees up; failure means the worker
            // already exited. The stop flag (set above) guarantees every job
            // the worker sees from now on is answered with `Shutdown`.
            let _ = tx.send(Job::Shutdown);
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl BatchClient {
    /// Submits one request and blocks until its micro-batch executes (or the
    /// configured deadline passes).
    ///
    /// # Errors
    /// Validation errors from the engine pass through per request;
    /// [`ServeError::Overloaded`] when the bounded pending queue is full
    /// (retry with backoff); [`ServeError::DeadlineExceeded`] when a
    /// configured deadline elapsed first; [`ServeError::Panicked`] when this
    /// request's evaluation panicked in the executor;
    /// [`ServeError::Shutdown`] when the batcher shut down before the request
    /// was answered — either the submit found the door already closed, or the
    /// drain answered this queued request with the typed reply;
    /// [`ServeError::Disconnected`] when the reply channel disconnected
    /// *without* a typed answer — the reply was lost (worker crash, or a
    /// submission racing the final shutdown drain), so whether the
    /// evaluation ran is unknown.
    pub fn query(&self, s: usize, start: usize, end: usize) -> Result<Vec<f64>, ServeError> {
        let deadline = self.deadline.map(|d| Instant::now() + d);
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = Job::Query(Box::new(QueryJob {
            req: ImputeRequest { s, start, end },
            reply: reply_tx,
            deadline,
        }));
        // Count the submission before it can be popped, so the worker's
        // decrement never races the increment below zero.
        self.depth.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded { capacity: self.queue_cap });
            }
            Err(TrySendError::Disconnected(_)) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                return Err(ServeError::Shutdown);
            }
        }
        match deadline {
            None => reply_rx.recv().unwrap_or(Err(ServeError::Disconnected)),
            Some(d) => match reply_rx.recv_timeout(d.saturating_duration_since(Instant::now())) {
                Ok(result) => result,
                Err(RecvTimeoutError::Timeout) => Err(ServeError::DeadlineExceeded),
                Err(RecvTimeoutError::Disconnected) => Err(ServeError::Disconnected),
            },
        }
    }

    /// Same pending-request gauge as [`MicroBatcher::queue_depth`], readable
    /// from the client half (the batcher may already be gone while handles
    /// live on — e.g. during a server drain).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmvi::{DeepMviConfig, DeepMviModel};
    use mvi_data::generators::{generate_with_shape, DatasetName};
    use mvi_data::scenarios::Scenario;

    fn engine() -> Arc<ImputationEngine> {
        let ds = generate_with_shape(DatasetName::AirQ, &[3], 120, 4);
        let obs = Scenario::mcar(1.0).apply(&ds, 2).observed();
        let cfg = DeepMviConfig { max_steps: 5, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        Arc::new(ImputationEngine::new(model.freeze(), obs).unwrap())
    }

    #[test]
    fn concurrent_clients_get_the_same_answers_as_direct_queries() {
        let engine = engine();
        let t = engine.grid().t_len();
        let full = engine.model().impute(&engine.observed());
        let batcher = MicroBatcher::spawn(Arc::clone(&engine), 8);
        let mut handles = Vec::new();
        for s in 0..3 {
            for _ in 0..4 {
                let client = batcher.client();
                handles.push(std::thread::spawn(move || (s, client.query(s, 0, t))));
            }
        }
        for h in handles {
            let (s, got) = h.join().unwrap();
            assert_eq!(got.unwrap(), full.series(s), "series {s} diverged through the batcher");
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 12);
        assert!(stats.batches <= stats.requests, "batching never increases batch count");
        assert_eq!(batcher.panics_caught(), 0);
    }

    #[test]
    fn batcher_shutdown_is_clean() {
        let engine = engine();
        let client = {
            let batcher = MicroBatcher::spawn(Arc::clone(&engine), 4);
            let c = batcher.client();
            assert!(c.query(0, 0, 10).is_ok());
            c
            // batcher drops here: worker joins.
        };
        // Requests after shutdown fail with the transient error, not a
        // validation error, and never hang.
        assert_eq!(client.query(0, 0, 10), Err(ServeError::Shutdown));
    }

    #[test]
    fn queries_racing_shutdown_get_answers_or_shutdown_never_hang() {
        // Many clients submit while the batcher is being dropped: every
        // outcome must be a real answer or a typed transient error — no
        // hangs, no dropped-on-the-floor replies, no panics.
        let engine = engine();
        let t = engine.grid().t_len();
        engine.warm_up();
        for _ in 0..5 {
            let batcher = MicroBatcher::spawn(Arc::clone(&engine), 2);
            let mut handles = Vec::new();
            for k in 0..8 {
                let client = batcher.client();
                handles.push(std::thread::spawn(move || client.query(k % 3, 0, t)));
            }
            drop(batcher);
            for h in handles {
                match h.join().unwrap() {
                    Ok(vals) => assert_eq!(vals.len(), t),
                    Err(ServeError::Shutdown) => {}
                    // A submission can slip into the channel after the drain
                    // loop's final sweep but before the receiver drops; its
                    // reply is lost, which is exactly what `Disconnected`
                    // (as opposed to the answered `Shutdown`) reports.
                    Err(ServeError::Disconnected) => {}
                    Err(other) => panic!("unexpected racing-shutdown error: {other}"),
                }
            }
        }
    }
}
