//! In-memory spans recorded by the benchmark around each call it makes into
//! a layer's public API. Spans stay in memory and are written out once, when
//! the run ends; with tracing off every call is a plain pass-through.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Spans of one name beyond this many are counted but not kept. This bounds
/// the tracer's memory on long runs, and the measured phase's spans cannot
/// crowd out the replay's, which carry the per-layer times.
const MAX_SPANS_PER_NAME: usize = 200_000;
/// Span-cost calibration: rounds of this many empty spans each.
const SPAN_COST_ROUNDS: usize = 21;
const SPAN_COST_BATCH: u64 = 1000;

/// One timed call: its name, interval (relative to the tracer's epoch), the
/// span that caused it (0 = none) and the request it served (0 = none).
#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    dropped: AtomicU64,
    buffer: Mutex<Buffer>,
}

/// Kept spans, and how many of each name were kept.
#[derive(Default)]
struct Buffer {
    spans: Vec<Span>,
    per_name: Vec<(&'static str, usize)>,
}

/// A span that has started; [`Tracer::close`] records it.
pub struct Open {
    pub id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Instant,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            buffer: Mutex::default(),
        }
    }

    pub fn open(&self, name: &'static str, parent: u64, req: u64) -> Open {
        let id = if self.on { self.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
        Open { id, parent, req, name, start: Instant::now() }
    }

    pub fn close(&self, open: Open) {
        if self.on {
            let end = Instant::now();
            let span = Span {
                id: open.id,
                parent: open.parent,
                req: open.req,
                name: open.name,
                start_ns: (open.start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            };
            let mut buf = self.buffer();
            let slot = match buf.per_name.iter().position(|(n, _)| *n == span.name) {
                Some(i) => i,
                None => {
                    buf.per_name.push((span.name, 0));
                    buf.per_name.len() - 1
                }
            };
            if buf.per_name[slot].1 < MAX_SPANS_PER_NAME {
                buf.per_name[slot].1 += 1;
                buf.spans.push(span);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Runs `f` inside a span; with tracing off this is `f()`.
    pub fn span<R>(&self, name: &'static str, parent: u64, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let open = self.open(name, parent, req);
        let out = f();
        self.close(open);
        out
    }

    fn buffer(&self) -> MutexGuard<'_, Buffer> {
        self.buffer.lock().expect("span buffer poisoned by a panicking thread")
    }

    /// Durations (µs) of every kept span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.buffer()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur().as_secs_f64() * 1e6)
            .collect()
    }

    pub fn kept(&self) -> usize {
        self.buffer().spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes every kept span as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let buf = self.buffer();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,req,name,start_ns,end_ns")?;
        for s in &buf.spans {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Median cost in ns of one span around an empty call, measured on a
    /// tracer of its own so the calibration spans are not kept.
    pub fn span_cost_ns() -> f64 {
        let probe = Tracer::new(true);
        let mut per = Vec::with_capacity(SPAN_COST_ROUNDS);
        for _ in 0..SPAN_COST_ROUNDS {
            let t = Instant::now();
            for i in 0..SPAN_COST_BATCH {
                probe.span("bench.noop", 0, i, || std::hint::black_box(i));
            }
            per.push(t.elapsed().as_nanos() as f64 / SPAN_COST_BATCH as f64);
            *probe.buffer() = Buffer::default();
        }
        crate::common::median(&per)
    }
}
