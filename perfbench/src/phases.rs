//! The measured phase of each workload. Every phase checks its outputs as it
//! goes and asserts which layers it kept idle.

use crate::common::{
    bitwise_eq, net_error_code, reset_peak_rss, threads_and_sockets, tiling, Checks, Hist, Phase,
    Query,
};
use crate::setup::{tenant, Setup, World, COLD_TENANTS, SERIES, T_LEN};
use crate::trace::Tracer;
use mvi_net::{ClientConfig, NetClient, RetryPolicy};
use mvi_tensor::Tensor;
use std::time::{Duration, Instant};

/// The tail percentile every workload reports.
pub const TAIL_Q: f64 = 0.9;
/// Latency windows: `warm_reads` completes tens of thousands of queries a
/// second, so one-second windows each hold thousands; the other two
/// workloads complete 100–400 operations a run and use one window.
const WARM_WINDOW_S: f64 = 1.0;
const WHOLE_PHASE: f64 = f64::INFINITY;

/// Seed and length of a measured phase, fixed before it starts.
pub struct Spec {
    pub seed: u64,
    pub seconds: f64,
}

impl Spec {
    /// Starts the measured phase now: resets the memory high-water mark and
    /// fixes the windows latencies are grouped in. Callers allocate
    /// everything they record into before this.
    fn begin(&self, window_s: f64) -> Plan {
        let hwm_reset = reset_peak_rss();
        let start = Instant::now();
        let window = Duration::from_secs_f64(window_s.min(self.seconds));
        Plan { start, end: start + Duration::from_secs_f64(self.seconds), window, hwm_reset }
    }

    /// Windows of `window_s` in the phase; recorders allocate one
    /// histogram each before [`Spec::begin`].
    fn windows(&self, window_s: f64) -> usize {
        (self.seconds / window_s.min(self.seconds)).ceil() as usize
    }
}

/// When the measured phase runs. Latencies are grouped into consecutive
/// windows, so a tail can be reported as the median of per-window tails: a
/// burst of interference from outside the program then moves one window,
/// not the run.
pub struct Plan {
    start: Instant,
    end: Instant,
    window: Duration,
    /// Whether the memory high-water mark was reset at the start.
    hwm_reset: bool,
}

impl Plan {
    fn window(&self, at: Instant) -> usize {
        ((at - self.start).as_secs_f64() / self.window.as_secs_f64()) as usize
    }

    fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Counters the layers keep, read before and after a phase.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub windows_computed: u64,
    pub window_hits: u64,
    pub reg_loads: u64,
    pub reg_evictions: u64,
    pub reg_hits: u64,
    pub reg_load_failures: u64,
    pub net_requests: u64,
    pub net_accepted: u64,
    pub net_rejected: u64,
    pub net_bad_frames: u64,
}

impl Counters {
    pub fn read(world: &World) -> Counters {
        let mut c = Counters::default();
        let (engine, server) = match world {
            World::Offline => return c,
            World::Warm { engine, server } => (Some(engine), server),
            World::Cold { registry, server, .. } => {
                for i in 0..COLD_TENANTS {
                    let s = registry.tenant_stats(&tenant(i)).expect("registered tenant");
                    c.windows_computed += s.windows_computed;
                    c.window_hits += s.window_hits;
                }
                (None, server)
            }
        };
        if let Some(e) = engine {
            let s = e.stats();
            c.windows_computed = s.windows_computed;
            c.window_hits = s.window_hits;
        }
        let r = server.registry().stats();
        (c.reg_loads, c.reg_evictions, c.reg_hits, c.reg_load_failures) =
            (r.loads, r.evictions, r.hits, r.load_failures);
        let n = server.stats();
        (c.net_requests, c.net_accepted, c.net_rejected, c.net_bad_frames) =
            (n.requests, n.accepted, n.rejected, n.bad_frames);
        c
    }

    pub fn since(&self, before: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            windows_computed: d(self.windows_computed, before.windows_computed),
            window_hits: d(self.window_hits, before.window_hits),
            reg_loads: d(self.reg_loads, before.reg_loads),
            reg_evictions: d(self.reg_evictions, before.reg_evictions),
            reg_hits: d(self.reg_hits, before.reg_hits),
            reg_load_failures: d(self.reg_load_failures, before.reg_load_failures),
            net_requests: d(self.net_requests, before.net_requests),
            net_accepted: d(self.net_accepted, before.net_accepted),
            net_rejected: d(self.net_rejected, before.net_rejected),
            net_bad_frames: d(self.net_bad_frames, before.net_bad_frames),
        }
    }
}

/// What the workload's client recorded.
struct Rec {
    /// Latency of every operation.
    all: Hist,
    /// Latency per window of the plan.
    windows: Vec<Hist>,
    /// How late each operation started behind the previous reply on the
    /// same client: the harness's own time between operations.
    lag: Hist,
    phase: Phase,
}

impl Rec {
    fn new(windows: usize) -> Self {
        Rec {
            all: Hist::new(),
            windows: (0..windows).map(|_| Hist::new()).collect(),
            lag: Hist::new(),
            phase: Phase::default(),
        }
    }

    /// Records one latency for an operation that started at `at`.
    fn latency(&mut self, plan: &Plan, at: Instant, ms: f64) {
        self.all.push(ms);
        let w = plan.window(at).min(self.windows.len() - 1);
        self.windows[w].push(ms);
    }
}

/// What one measured phase produced.
pub struct Outcome {
    /// The operation every latency describes.
    pub kind: &'static str,
    /// Latency of every operation.
    pub ops: Hist,
    /// Latency per window.
    pub windows: Vec<Hist>,
    pub wall_s: f64,
    /// Whether `peak_rss_mb` covers the measured phase alone.
    pub hwm_reset: bool,
    pub phase: Phase,
    pub gen_lag: Hist,
    pub counters: Counters,
    pub mae: f64,
}

impl Outcome {
    fn new(kind: &'static str, rec: Rec, plan: &Plan, counters: Counters, mae: f64) -> Self {
        Outcome {
            kind,
            ops: rec.all,
            windows: rec.windows,
            wall_s: plan.elapsed_s(),
            hwm_reset: plan.hwm_reset,
            phase: rec.phase,
            gen_lag: rec.lag,
            counters,
            mae,
        }
    }

    /// Median over the windows of `stat` of each window.
    pub fn windowed(&self, stat: impl Fn(&Hist) -> f64) -> f64 {
        let per: Vec<f64> = self.windows.iter().filter(|h| h.len() > 0).map(stat).collect();
        crate::common::median(&per)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn no_retry() -> ClientConfig {
    ClientConfig { retry: RetryPolicy::none(), ..ClientConfig::default() }
}

/// MAE over the missing cells, with `fill` supplying the imputed ranges.
fn mae_of(s: &Setup, trace: &[Query], values: &[Vec<f64>]) -> f64 {
    let truth = &s.trained.inst.truth.values;
    let mut imputed: Tensor = truth.clone();
    for (&(series, lo, hi), vals) in trace.iter().zip(values) {
        imputed.series_mut(series)[lo..hi].copy_from_slice(vals);
    }
    mvi_data::metrics::mae(truth, &imputed, &s.trained.inst.missing)
}

/// `offline_fit`: repeat a full-dataset `impute` with the trained model. No
/// engine, registry or server exists: the process's threads and sockets
/// must stay as they were before the phase after every call.
pub fn offline(s: &Setup, spec: &Spec, tr: &Tracer, checks: &mut Checks) -> Outcome {
    let (model, obs) = (&s.trained.model, &s.trained.obs);
    let idle = threads_and_sockets();
    let mut rec = Rec::new(spec.windows(WHOLE_PHASE));
    let mut first: Option<Tensor> = None;
    let mut prev_done = None;
    let plan = spec.begin(WHOLE_PHASE);
    for req in 0u64.. {
        let start = Instant::now();
        if start >= plan.end {
            break;
        }
        let out = tr.span("phase.infer.impute", 0, req, || model.impute(obs));
        let done = Instant::now();
        let now = threads_and_sockets();
        checks.check(now == idle, || {
            format!(
                "offline_fit went from {idle:?} to {now:?} (threads, sockets) while measuring: \
                 something started a server, batcher or registry"
            )
        });
        rec.latency(&plan, start, ms(done - start));
        if let Some(p) = prev_done {
            rec.lag.push(ms(start - p));
        }
        prev_done = Some(done);
        rec.phase.ok();
        checks.check(out.data().iter().all(|v| v.is_finite()), || {
            "impute returned a non-finite value".into()
        });
        match &first {
            None => first = Some(out),
            Some(f) => checks.check(bitwise_eq(f.data(), out.data()), || {
                format!("impute #{req} differs bitwise from the first")
            }),
        }
    }
    let imputed = first.expect("at least one impute ran");
    let mae =
        mvi_data::metrics::mae(&s.trained.inst.truth.values, &imputed, &s.trained.inst.missing);
    Outcome::new("impute", rec, &plan, Counters::default(), mae)
}

/// One closed-loop client: sends the next query only after the previous
/// reply arrived and verifies every reply bitwise against `expected`.
/// Returns how many replies differed, and whether the client served the
/// whole trace at least once.
fn closed_loop(
    rec: &mut Rec,
    client: &mut NetClient,
    plan: &Plan,
    tr: &Tracer,
    trace: &[Query],
    expected: &[Vec<f64>],
    tenants: &[String],
) -> (u64, bool) {
    let mut prev_done = None;
    let mut mismatches = 0u64;
    let mut k = 0usize;
    loop {
        let start = Instant::now();
        if start >= plan.end {
            break;
        }
        let idx = k % trace.len();
        let (series, lo, hi) = trace[idx];
        if !tenants.is_empty() {
            client.set_tenant(tenants[k % tenants.len()].as_str());
        }
        let res = tr.span("phase.net.query", 0, k as u64, || {
            client.query(series as u32, lo as u32, hi as u32)
        });
        let done = Instant::now();
        rec.latency(plan, start, ms(done - start));
        if let Some(p) = prev_done {
            rec.lag.push(ms(start - p));
        }
        prev_done = Some(done);
        k += 1;
        match res {
            Ok(values) => {
                rec.phase.ok();
                mismatches += u64::from(!bitwise_eq(&values, &expected[idx]));
            }
            Err(e) => rec.phase.fail(&net_error_code(&e)),
        }
    }
    (mismatches, k >= trace.len())
}

/// `warm_reads`: a closed loop of one client over range queries inside the
/// trained span of a warmed engine. The process runs on one CPU (`run.py`
/// pins it), so the client, its connection thread and the batcher hand each
/// request on without a cross-CPU wake-up.
pub fn warm(s: &Setup, spec: &Spec, tr: &Tracer, checks: &mut Checks) -> Outcome {
    let World::Warm { engine, server } = &s.world else { unreachable!("warm_reads world") };
    let trace = tiling(spec.seed, SERIES, T_LEN, 40, 80);
    let expected: Vec<Vec<f64>> =
        trace.iter().map(|&(q, lo, hi)| engine.query(q, lo, hi).expect("oracle query")).collect();
    checks
        .check(expected.iter().flatten().all(|v| v.is_finite()), || "oracle is not finite".into());
    let mut client = NetClient::new(server.local_addr(), no_retry());
    client.query(0, 0, 1).expect("open the connection");
    let mut rec = Rec::new(spec.windows(WARM_WINDOW_S));
    let before = Counters::read(&s.world);
    let plan = spec.begin(WARM_WINDOW_S);
    let (mismatches, covered) =
        closed_loop(&mut rec, &mut client, &plan, tr, &trace, &expected, &[]);
    let counters = Counters::read(&s.world).since(&before);
    checks.check(mismatches == 0, || format!("{mismatches} replies differ from the oracle"));
    checks.check(covered, || "the client did not serve its whole query list once".into());
    checks.check(counters.windows_computed == 0, || {
        format!("warm_reads computed {} windows while measuring", counters.windows_computed)
    });
    checks.check(counters.reg_loads == 0, || {
        format!("warm_reads loaded {} snapshots while measuring", counters.reg_loads)
    });
    let mae = mae_of(s, &trace, &expected);
    Outcome::new("query", rec, &plan, counters, mae)
}

/// `cold_tenants`: one client asks for the tenants round-robin on a
/// registry that holds one fewer than it serves, so every request evicts a
/// tenant and reloads another from its snapshot.
pub fn cold(s: &Setup, spec: &Spec, tr: &Tracer, checks: &mut Checks) -> Outcome {
    let World::Cold { base, server, .. } = &s.world else { unreachable!("cold_tenants world") };
    let trace: Vec<Query> = (0..SERIES).map(|q| (q, 0, T_LEN)).collect();
    let expected: Vec<Vec<f64>> =
        trace.iter().map(|&(q, lo, hi)| base.query(q, lo, hi).expect("oracle query")).collect();
    let tenants: Vec<String> = (0..COLD_TENANTS).map(tenant).collect();
    let mut client = NetClient::new(server.local_addr(), no_retry());
    let mut rec = Rec::new(spec.windows(WHOLE_PHASE));
    let before = Counters::read(&s.world);
    let plan = spec.begin(WHOLE_PHASE);
    let (mismatches, covered) =
        closed_loop(&mut rec, &mut client, &plan, tr, &trace, &expected, &tenants);
    let counters = Counters::read(&s.world).since(&before);
    checks.check(mismatches == 0, || format!("{mismatches} replies differ from the oracle"));
    checks.check(covered, || "the client did not query every series once".into());
    checks.check(counters.reg_loads == rec.phase.succeeded, || {
        format!("{} snapshot loads for {} served requests", counters.reg_loads, rec.phase.succeeded)
    });
    checks.check(counters.windows_computed == 0, || {
        format!("cold_tenants computed {} windows while measuring", counters.windows_computed)
    });
    let mae = mae_of(s, &trace, &expected);
    Outcome::new("cold_query", rec, &plan, counters, mae)
}
