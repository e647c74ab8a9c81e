//! The blocking network client: framed queries with connect/read/write
//! timeouts and a seeded-deterministic retry loop.
//!
//! ## Retry semantics (the part that matters)
//!
//! The client retries **only** failures the protocol proves are safe to
//! retry:
//!
//! * **connect failures** (refused/timed out — e.g. the server is mid
//!   restart): nothing was ever sent, so retrying cannot double-execute;
//! * **typed [`ErrorCode::Overloaded`] replies**: the server states the
//!   request was shed *before* execution, and carries a `retry_after_ms`
//!   backoff hint the client honors;
//! * **typed [`ErrorCode::TenantLoading`] replies**: the tenant's snapshot
//!   is mid-load server-side; the request was likewise shed before
//!   execution, and the hint covers the expected load time.
//!
//! Everything else is **never retried automatically**. In particular, once
//! the request frame has started onto the wire, any I/O failure is treated
//! as *ambiguous in flight* — the server may or may not have executed the
//! request — and is returned to the caller as a typed [`NetError::Io`]. The
//! caller, who knows whether its request is idempotent, decides. Typed
//! server errors other than the two above (deadline, shutdown, invalid,
//! unknown-tenant, registry-full, …) are likewise surfaced as
//! [`NetError::Server`] for the caller to act on.
//!
//! ## Tenancy
//!
//! A client built with [`NetClient::with_tenant`] stamps every request with
//! its tenant id, routing it to that tenant's model behind the server's
//! registry. [`NetClient::new`] leaves the tenant empty — the server's
//! default tenant.
//!
//! Backoff is exponential with multiplicative jitter drawn from a seeded
//! xorshift generator, so a given [`RetryPolicy`] produces the *same* delay
//! schedule every run — reproducible in tests, well-spread in a fleet when
//! each client seeds differently.

use crate::frame::{
    read_frame, write_frame, ErrorCode, Frame, FrameError, HealthFrame, RecvError, WireError,
    DEFAULT_MAX_FRAME, MAX_TENANT_LEN,
};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How the client retries retry-safe failures; see the module docs for what
/// qualifies. The schedule is deterministic in `seed`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (`1` = never retry).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Multiplier applied per retry (exponential growth).
    pub factor: f64,
    /// Cap on any single delay.
    pub max_delay: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a factor drawn
    /// uniformly from `[1 - jitter, 1]`, de-synchronizing retry herds.
    pub jitter: f64,
    /// Seed for the jitter stream — the whole schedule is a pure function of
    /// the policy, so tests replay it exactly.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base: Duration::from_millis(10),
            factor: 2.0,
            max_delay: Duration::from_millis(500),
            jitter: 0.25,
            seed: 0x006d_7669_5f6e_6574, // "mvi_net"
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt).
    pub fn none() -> Self {
        Self { max_attempts: 1, ..Self::default() }
    }

    /// The deterministic delay schedule this policy produces: an infinite
    /// iterator of backoff delays (element `k` is the pause before retry
    /// `k + 1`).
    pub(crate) fn schedule(&self) -> Backoff {
        Backoff {
            policy: *self,
            attempt: 0,
            // xorshift state must be non-zero; fold the seed onto a constant.
            rng: self.seed | 0x9E37_79B9_0000_0001,
        }
    }
}

/// Iterator over a [`RetryPolicy`]'s backoff delays (seeded, deterministic).
#[derive(Clone, Debug)]
pub(crate) struct Backoff {
    policy: RetryPolicy,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// xorshift64* — tiny, seedable, plenty for jitter.
    fn next_unit(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let out = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (out >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Iterator for Backoff {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        let raw = self.policy.base.as_secs_f64()
            * self.policy.factor.max(1.0).powi(self.attempt.min(62) as i32);
        let raw = raw.min(self.policy.max_delay.as_secs_f64());
        self.attempt = self.attempt.saturating_add(1);
        let jitter = self.policy.jitter.clamp(0.0, 1.0);
        let scale = 1.0 - jitter * self.next_unit();
        Some(Duration::from_secs_f64((raw * scale).max(0.0)))
    }
}

/// Client tuning: per-phase timeouts, frame cap, retry policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientConfig {
    /// Timeout for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Timeout for reading one reply frame (must exceed the server's
    /// request deadline, or the client gives up before the server's typed
    /// deadline reply arrives).
    pub read_timeout: Duration,
    /// Timeout for writing one request frame.
    pub write_timeout: Duration,
    /// Largest reply frame the client will accept.
    pub max_frame: u32,
    /// The retry policy (see the module docs for what is retryable).
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(1),
            max_frame: DEFAULT_MAX_FRAME,
            retry: RetryPolicy::default(),
        }
    }
}

/// Everything a client call can fail with. [`NetError::retryable`] encodes
/// the retry contract; the automatic retry loop uses exactly that predicate.
#[derive(Debug)]
pub enum NetError {
    /// Establishing the connection failed — nothing was sent, retry-safe.
    Connect {
        /// The address the connect targeted.
        addr: SocketAddr,
        /// The underlying I/O error kind.
        kind: io::ErrorKind,
        /// The underlying error text.
        msg: String,
    },
    /// An I/O failure after the request started onto the wire (`during` is
    /// `"write"` or `"read"`). Ambiguous in flight: the server may have
    /// executed the request, so this is never retried automatically.
    Io {
        /// Which phase failed.
        during: &'static str,
        /// The underlying I/O error kind.
        kind: io::ErrorKind,
        /// The underlying error text.
        msg: String,
    },
    /// The reply bytes did not decode as a frame.
    Frame(FrameError),
    /// The server answered with a typed error frame.
    Server(WireError),
    /// An automatic retry sequence used up [`RetryPolicy::max_attempts`];
    /// `last` is the final retryable failure.
    Exhausted {
        /// Attempts made (== the policy's `max_attempts`).
        attempts: u32,
        /// The last failure observed.
        last: Box<NetError>,
    },
    /// The server answered with a frame type that makes no sense for the
    /// request (protocol violation).
    Protocol(&'static str),
}

impl NetError {
    /// Whether the automatic retry loop may re-submit after this failure:
    /// connect failures and typed `Overloaded` replies only.
    pub fn retryable(&self) -> bool {
        match self {
            NetError::Connect { .. } => true,
            NetError::Server(e) => e.code.retryable(),
            _ => false,
        }
    }

    /// The server's backoff hint, when the reply carried one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            NetError::Server(e) if e.retry_after_ms > 0 => {
                Some(Duration::from_millis(u64::from(e.retry_after_ms)))
            }
            _ => None,
        }
    }

    /// The wire error code, when the failure was a typed server reply.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            NetError::Server(e) => Some(e.code),
            NetError::Exhausted { last, .. } => last.code(),
            _ => None,
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Connect { addr, kind, msg } => {
                write!(f, "connect to {addr} failed ({kind:?}): {msg}")
            }
            NetError::Io { during, kind, msg } => {
                write!(
                    f,
                    "i/o failure during {during} ({kind:?}): {msg} (ambiguous in flight — \
                           not retried automatically)"
                )
            }
            NetError::Frame(e) => write!(f, "reply framing error: {e}"),
            NetError::Server(e) => {
                write!(f, "server error [{}]: {}", e.code, e.message)?;
                if e.retry_after_ms > 0 {
                    write!(f, " (retry after {}ms)", e.retry_after_ms)?;
                }
                Ok(())
            }
            NetError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

/// A blocking client for the framed-TCP serving protocol. Holds one
/// connection, reconnecting lazily; not `Sync` — use one client per thread
/// (they are cheap) or clone the config.
#[derive(Debug)]
pub struct NetClient {
    addr: SocketAddr,
    config: ClientConfig,
    tenant: String,
    conn: Option<TcpStream>,
}

impl NetClient {
    /// A client for the server at `addr`, addressing the default tenant. No
    /// I/O happens until the first call — connecting is lazy and
    /// re-established on demand.
    pub fn new(addr: SocketAddr, config: ClientConfig) -> Self {
        Self { addr, config, tenant: String::new(), conn: None }
    }

    /// A client whose every request routes to `tenant`'s model on the
    /// server's registry.
    pub fn with_tenant(addr: SocketAddr, tenant: impl Into<String>, config: ClientConfig) -> Self {
        Self { addr, config, tenant: tenant.into(), conn: None }
    }

    /// Re-points this client at a different tenant (the connection is kept —
    /// tenancy is per-request on the wire, not per-connection).
    pub fn set_tenant(&mut self, tenant: impl Into<String>) {
        self.tenant = tenant.into();
    }

    /// Rejects a tenant id that cannot ride the wire before any I/O happens,
    /// so an oversized id fails loudly instead of being silently truncated
    /// into some *other* tenant's name.
    fn check_tenant(&self) -> Result<(), NetError> {
        if self.tenant.len() > MAX_TENANT_LEN {
            return Err(NetError::Protocol("tenant id exceeds the 64-byte wire cap"));
        }
        Ok(())
    }

    /// Verifies a reply's tenant echo. The server echoes the request's tenant
    /// verbatim, so an echo naming any *other* tenant means the server
    /// cross-wired replies — drop the connection rather than trust its
    /// alignment.
    fn check_echo(&mut self, reply_tenant: &str) -> Result<(), NetError> {
        if reply_tenant != self.tenant {
            self.conn = None;
            return Err(NetError::Protocol("reply names a different tenant than the request"));
        }
        Ok(())
    }

    /// Points the client at a different server (drops any live connection).
    /// Combined with connect-retries this is the failover primitive: a
    /// killed server's clients redirect and back off until the replacement
    /// accepts.
    pub fn redirect(&mut self, addr: SocketAddr) {
        self.addr = addr;
        self.conn = None;
    }

    /// Imputed values of `[start, end)` in series `s`, with automatic
    /// retry/backoff on retry-safe failures (see the module docs).
    ///
    /// # Errors
    /// Any [`NetError`]; only connect failures and typed `Overloaded` replies
    /// are retried before surfacing.
    pub fn query(&mut self, s: u32, start: u32, end: u32) -> Result<Vec<f64>, NetError> {
        self.check_tenant()?;
        let request = Frame::Query { tenant: self.tenant.clone(), s, start, end };
        let reply = self.call_with_retry(&request)?;
        match reply {
            Frame::Values { tenant, values } => {
                self.check_echo(&tenant)?;
                Ok(values)
            }
            Frame::Error(e) => Err(NetError::Server(e)),
            _ => {
                self.conn = None;
                Err(NetError::Protocol("query answered with a non-values, non-error frame"))
            }
        }
    }

    /// The server's health counters (engine faults, queue depth, connection
    /// count, drain flag). Same retry semantics as [`NetClient::query`].
    ///
    /// # Errors
    /// Any [`NetError`], as for [`NetClient::query`].
    pub fn health(&mut self) -> Result<HealthFrame, NetError> {
        self.check_tenant()?;
        let request = Frame::HealthReq { tenant: self.tenant.clone() };
        let reply = self.call_with_retry(&request)?;
        match reply {
            Frame::Health { tenant, health } => {
                self.check_echo(&tenant)?;
                Ok(health)
            }
            Frame::Error(e) => Err(NetError::Server(e)),
            _ => {
                self.conn = None;
                Err(NetError::Protocol("health answered with an unexpected frame type"))
            }
        }
    }

    /// One request/reply exchange under the retry loop. Retryable failures
    /// sleep `max(backoff delay, server retry-after hint)` between attempts.
    fn call_with_retry(&mut self, request: &Frame) -> Result<Frame, NetError> {
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut backoff = self.config.retry.schedule();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match self.call_once(request) {
                Ok(Frame::Error(e)) if e.code.retryable() => NetError::Server(e),
                Err(e) if e.retryable() => e,
                other => return other,
            };
            if attempt >= max_attempts {
                return Err(if attempt > 1 {
                    NetError::Exhausted { attempts: attempt, last: Box::new(err) }
                } else {
                    err
                });
            }
            let delay = backoff.next().unwrap_or(self.config.retry.max_delay);
            let delay = err.retry_after().map_or(delay, |hint| delay.max(hint));
            std::thread::sleep(delay);
        }
    }

    /// One attempt: ensure a connection, write the request, read one reply.
    /// Retry-safe connect failures surface as [`NetError::Connect`]; the
    /// retry loop also re-submits on typed `Overloaded` reply frames (which
    /// this returns as `Ok(Frame::Error(..))` so the loop can distinguish a
    /// still-healthy connection from a transport failure).
    fn call_once(&mut self, request: &Frame) -> Result<Frame, NetError> {
        if self.conn.is_none() {
            let stream =
                TcpStream::connect_timeout(&self.addr, self.config.connect_timeout).map_err(
                    |e| NetError::Connect { addr: self.addr, kind: e.kind(), msg: e.to_string() },
                )?;
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(self.config.read_timeout));
            let _ = stream.set_write_timeout(Some(self.config.write_timeout));
            self.conn = Some(stream);
        }
        let Some(stream) = self.conn.as_mut() else {
            return Err(NetError::Protocol("connection vanished between establish and use"));
        };
        if let Err(e) = write_frame(stream, request) {
            // The frame may have partially left the machine: ambiguous.
            self.conn = None;
            return Err(NetError::Io { during: "write", kind: e.kind(), msg: e.to_string() });
        }
        match read_frame(stream, self.config.max_frame) {
            Ok(frame) => {
                // An over-cap admission refusal and a drain reply both
                // precede a server-side close: drop the cached connection so
                // the next attempt (retry or caller-driven) reconnects fresh
                // instead of writing into a dead socket. A queue-shed
                // `Overloaded` keeps its connection, but reconnecting is
                // cheap and always correct — the protocol is stateless
                // between frames. The tenancy codes (`TenantLoading`,
                // `RegistryFull`, `UnknownTenant`) are deliberately *not* in
                // this set: they are request-level errors on a connection
                // whose framing is intact, and the server keeps it open —
                // same contract as `Invalid` (the loopback hygiene test pins
                // both sides of this).
                if let Frame::Error(e) = &frame {
                    if matches!(e.code, ErrorCode::Overloaded | ErrorCode::Shutdown) {
                        self.conn = None;
                    }
                }
                Ok(frame)
            }
            Err(RecvError::Closed) => {
                self.conn = None;
                Err(NetError::Io {
                    during: "read",
                    kind: io::ErrorKind::UnexpectedEof,
                    msg: "connection closed before a reply frame arrived".into(),
                })
            }
            Err(RecvError::Io(e)) => {
                self.conn = None;
                Err(NetError::Io { during: "read", kind: e.kind(), msg: e.to_string() })
            }
            Err(RecvError::Frame(e)) => {
                // Framing is lost; the connection cannot be reused.
                self.conn = None;
                Err(NetError::Frame(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        let a: Vec<Duration> = policy.schedule().take(8).collect();
        let b: Vec<Duration> = policy.schedule().take(8).collect();
        assert_eq!(a, b, "same policy must replay the same schedule");

        let other = RetryPolicy { seed: 42, ..policy };
        let c: Vec<Duration> = other.schedule().take(8).collect();
        assert_ne!(a, c, "different seeds must jitter differently");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps_without_jitter() {
        let policy = RetryPolicy {
            base: Duration::from_millis(10),
            factor: 2.0,
            max_delay: Duration::from_millis(100),
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let delays: Vec<u128> = policy.schedule().take(6).map(|d| d.as_millis()).collect();
        assert_eq!(delays, [10, 20, 40, 80, 100, 100], "pure exponential with cap");
    }

    #[test]
    fn jitter_only_shrinks_within_its_fraction() {
        let policy = RetryPolicy {
            base: Duration::from_millis(100),
            factor: 1.0,
            max_delay: Duration::from_millis(100),
            jitter: 0.25,
            ..RetryPolicy::default()
        };
        for d in policy.schedule().take(64) {
            let ms = d.as_secs_f64() * 1e3;
            assert!((75.0..=100.0).contains(&ms), "jittered delay {ms}ms outside [75, 100]");
        }
    }

    #[test]
    fn retryability_is_exactly_connect_overloaded_and_tenant_loading() {
        let overloaded = NetError::Server(WireError {
            code: ErrorCode::Overloaded,
            retry_after_ms: 30,
            message: "shed".into(),
        });
        assert!(overloaded.retryable());
        assert_eq!(overloaded.retry_after(), Some(Duration::from_millis(30)));

        let loading = NetError::Server(WireError {
            code: ErrorCode::TenantLoading,
            retry_after_ms: 50,
            message: "loading".into(),
        });
        assert!(loading.retryable(), "a mid-load shed happened before execution");
        assert_eq!(loading.retry_after(), Some(Duration::from_millis(50)));

        let connect = NetError::Connect {
            addr: "127.0.0.1:1".parse().unwrap(),
            kind: io::ErrorKind::ConnectionRefused,
            msg: "refused".into(),
        };
        assert!(connect.retryable());

        for code in [
            ErrorCode::Invalid,
            ErrorCode::Evicted,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Panicked,
            ErrorCode::Shutdown,
            ErrorCode::Disconnected,
            ErrorCode::Internal,
            ErrorCode::BadFrame,
            ErrorCode::UnknownTenant,
            ErrorCode::RegistryFull,
        ] {
            let err =
                NetError::Server(WireError { code, retry_after_ms: 0, message: String::new() });
            assert!(!err.retryable(), "{code} must not be auto-retried");
        }
        let ambiguous =
            NetError::Io { during: "read", kind: io::ErrorKind::UnexpectedEof, msg: "gone".into() };
        assert!(!ambiguous.retryable(), "in-flight i/o failures are ambiguous, never retried");
    }

    #[test]
    fn oversized_tenant_is_refused_before_any_io() {
        // 65 ASCII bytes — one past the wire cap. The target address is a
        // black hole; if the client tried to connect, this test would hang
        // on the timeout instead of failing fast.
        let mut client = NetClient::with_tenant(
            "127.0.0.1:1".parse().unwrap(),
            "x".repeat(MAX_TENANT_LEN + 1),
            ClientConfig { retry: RetryPolicy::none(), ..ClientConfig::default() },
        );
        let err = client.query(0, 0, 10).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "must fail typed pre-I/O: {err}");
        let err = client.health().unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)));
    }
}
