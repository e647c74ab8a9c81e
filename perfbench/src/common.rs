//! Shared measurement plumbing: latency samples, percentiles, memory
//! high-water marks, failure accounting, output checks and the seeded query
//! trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Latency histogram: log-linear buckets with 256 sub-buckets per power of
/// two (0.4 % resolution, interpolated), exact below 256 ns. Its size is fixed, and it is
/// touched before the measured phase starts, so recording neither allocates
/// nor grows the resident set that `peak_rss_mb` reports, however many
/// operations a run completes.
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
    sum_ms: f64,
}

const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the exact range: up to 2^40 ns (about 18 minutes).
const OCTAVES: usize = 32;

impl Hist {
    // `resize` writes every bucket, so the pages are resident before the
    // measured phase; `vec![0; n]` may map zero pages that fault in later.
    #[allow(clippy::slow_vector_initialization)]
    pub fn new() -> Self {
        let mut counts = Vec::with_capacity(SUB * (OCTAVES + 1));
        counts.resize(SUB * (OCTAVES + 1), 0);
        Hist { counts, n: 0, sum_ms: 0.0 }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros();
        let octave = (e - SUB_BITS) as usize;
        if octave >= OCTAVES {
            return SUB * (OCTAVES + 1) - 1;
        }
        SUB + octave * SUB + ((ns >> (e - SUB_BITS)) as usize & (SUB - 1))
    }

    /// Lower bound and width of bucket `i`, in ns.
    fn bounds(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let octave = (i - SUB) / SUB;
        let width = (1u64 << octave) as f64;
        (((SUB + (i - SUB) % SUB) as f64) * width, width)
    }

    pub fn push(&mut self, ms: f64) {
        let i = Self::index((ms * 1e6).max(0.0) as u64);
        self.counts[i] += 1;
        self.n += 1;
        self.sum_ms += ms;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Mean in ms, exact (not from the buckets); 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_ms / self.n as f64
        }
    }

    /// Percentile in ms, `q` in `(0, 1]`, interpolated inside the bucket
    /// that holds the nearest-rank sample; 0 for an empty histogram.
    pub fn pct(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + u64::from(c) >= rank {
                let (lo, width) = Self::bounds(i);
                let within = (rank - seen) as f64 - 0.5;
                return (lo + width * within / f64::from(c)) / 1e6;
            }
            seen += u64::from(c);
        }
        unreachable!("rank {rank} lies within the {} recorded samples", self.n)
    }
}

pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Resets the kernel's resident-set high-water mark to the current RSS, so
/// the next [`peak_rss_mib`] covers only what runs after this call.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The resident-set high-water mark (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Threads and open sockets of this process, from `/proc/self`: a server,
/// batcher or registry left running adds to them.
pub fn threads_and_sockets() -> (u64, usize) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let threads = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let sockets = std::fs::read_dir("/proc/self/fd")
        .map(|dir| {
            dir.filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
                .filter(|target| target.to_string_lossy().starts_with("socket:"))
                .count()
        })
        .unwrap_or(0);
    (threads, sockets)
}

/// vCPUs of the host (the `cpuN` lines of `/proc/stat`), however many of
/// them the process may run on.
pub fn host_vcpus() -> usize {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| {
            l.strip_prefix("cpu").is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
        })
        .count()
}

/// Host-wide `(steal, total)` CPU jiffies from `/proc/stat`: the share of
/// time the hypervisor ran other guests on the host's vCPUs.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Operations attempted, succeeded and failed in one phase, with a count per
/// typed error.
#[derive(Default, Clone)]
pub struct Phase {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub errors: BTreeMap<String, u64>,
}

impl Phase {
    pub fn ok(&mut self) {
        self.attempted += 1;
        self.succeeded += 1;
    }

    pub fn fail(&mut self, code: &str) {
        self.attempted += 1;
        self.failed += 1;
        *self.errors.entry(code.to_string()).or_default() += 1;
    }

    pub fn json(&self) -> String {
        let mut errors = String::new();
        for (i, (k, v)) in self.errors.iter().enumerate() {
            let _ = write!(errors, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " });
        }
        format!(
            "{{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}, \"errors\": {{{errors}}}}}",
            self.attempted, self.succeeded, self.failed
        )
    }
}

/// The typed wire code of a failed client call, or the transport failure
/// class when the server never answered with one.
pub fn net_error_code(e: &mvi_net::NetError) -> String {
    match e.code() {
        Some(code) => code.name().to_string(),
        None => match e {
            mvi_net::NetError::Connect { .. } => "connect".into(),
            mvi_net::NetError::Io { .. } => "io".into(),
            mvi_net::NetError::Frame(_) => "frame".into(),
            mvi_net::NetError::Protocol(_) => "protocol".into(),
            _ => "other".into(),
        },
    }
}

/// Failed output checks and isolation assertions; any entry fails the run.
#[derive(Default)]
pub struct Checks(Vec<String>);

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {msg}");
            self.0.push(msg);
        }
    }

    pub fn passed(&self) -> bool {
        self.0.is_empty()
    }
}

pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// SplitMix64: the benchmark's own seeded generator, so traces do not
/// depend on any library's random stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A range query `(series, start, end)`.
pub type Query = (usize, usize, usize);

/// Range queries of `min_len..max_len` steps that tile every series' span
/// `[0, t_len)` exactly once, in seeded random order. Serving the whole
/// list once covers every cell, so the imputation error over the replies
/// is a fixed value per seed. A series' last tile absorbs the remainder.
pub fn tiling(
    seed: u64,
    n_series: usize,
    t_len: usize,
    min_len: usize,
    max_len: usize,
) -> Vec<Query> {
    let mut rng = Rng::new(seed);
    let mut tiles = Vec::new();
    for s in 0..n_series {
        let mut lo = 0;
        while lo < t_len {
            let mut hi = lo + min_len + rng.below(max_len - min_len);
            if hi + min_len > t_len {
                hi = t_len;
            }
            tiles.push((s, lo, hi));
            lo = hi;
        }
    }
    rng.shuffle(&mut tiles);
    tiles
}
