//! The wire format: length-prefixed, CRC-32-checked frames.
//!
//! Every frame is laid out as
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"MVIF"
//! 4       1     protocol version (2)
//! 5       1     frame type
//! 6       4     payload length, u32 LE (capped by the receiver's max frame)
//! 10      4     CRC-32 (IEEE) over bytes 4..10 plus the payload
//! 14      len   payload
//! ```
//!
//! The one protocol version, [`VERSION`] (2), prefixes every payload except
//! `Error` with a tenant id that routes the request through the server's
//! model registry:
//!
//! ```text
//! offset  size        field
//! 0       1           tenant id length in bytes (0..=64)
//! 1       tenant_len  tenant id, UTF-8
//! 1+len   …           the frame type's body
//! ```
//!
//! An empty tenant id means "the default tenant". Any other version byte —
//! including the retired tenant-less version 1 — is
//! [`FrameError::BadVersion`]. The tenant id is capped at
//! [`MAX_TENANT_LEN`] bytes so its length always fits the single prefix
//! byte; a longer or non-UTF-8 id on the wire is
//! [`FrameError::Malformed`], never a desync (the outer length prefix bounds
//! the payload regardless of what the tenant field claims).
//!
//! A receiver can always decide, with bounded memory, whether the bytes in
//! front of it are a well-formed frame *before* acting on them:
//!
//! * a wrong magic or version is rejected immediately ([`FrameError::BadMagic`]
//!   / [`FrameError::BadVersion`]) — the stream is not speaking this protocol;
//! * a length prefix above the configured cap is rejected *before any payload
//!   is read* ([`FrameError::Oversized`]) — a hostile or bit-flipped length
//!   can never make the receiver allocate unbounded memory;
//! * the checksum covers the version, type and length bytes as well as the
//!   payload, so a bit flip anywhere in the frame surfaces as
//!   [`FrameError::Checksum`] instead of silently corrupt data (a flipped
//!   length field shifts the CRC input and fails the same way);
//! * a stream that ends mid-frame is [`FrameError::Truncated`].
//!
//! Decoding is **total**: any byte sequence maps to a frame or a typed
//! [`FrameError`] — never a panic, never an unbounded read. The fuzz suite
//! (`crates/net/tests/frame_fuzz.rs`) pins that contract the same way the
//! snapshot codec's fuzz tests do.

use mvi_kernels::crc32::Crc32;
use mvi_serve::ServeError;
use std::io::{self, Read, Write};

/// Leading magic bytes of every frame.
const MAGIC: [u8; 4] = *b"MVIF";
/// The protocol version: payloads (except `Error`) carry a tenant-id prefix.
pub const VERSION: u8 = 2;
/// Fixed header size (magic + version + type + length + CRC).
pub(crate) const HEADER_LEN: usize = 14;
/// Cap on a tenant id's UTF-8 byte length on the wire. Encoding truncates at
/// a character boundary; decoding rejects longer claims as malformed. The
/// registry refuses to register longer ids, so every registered tenant is
/// reachable.
pub const MAX_TENANT_LEN: usize = mvi_serve::registry::MAX_TENANT_LEN;
/// Default cap on one frame's payload (1 MiB). A `Values` reply of this size
/// carries ~128k points — far above any sane request — while bounding what a
/// hostile length prefix can make either side allocate.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Frame type tags (the byte at offset 5).
const T_QUERY: u8 = 1;
const T_VALUES: u8 = 2;
const T_ERROR: u8 = 3;
const T_HEALTH_REQ: u8 = 4;
const T_HEALTH: u8 = 5;

/// Why a byte sequence failed to decode as a frame. Every variant is a typed,
/// recoverable error: codec failures never panic and never hang.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not `MVIF` — the peer is not speaking this
    /// protocol (or the stream lost frame alignment).
    BadMagic {
        /// The four bytes actually read.
        got: [u8; 4],
    },
    /// A protocol version byte other than [`VERSION`].
    BadVersion {
        /// The version byte actually read.
        got: u8,
    },
    /// Unknown frame-type byte.
    UnknownType {
        /// The type byte actually read.
        got: u8,
    },
    /// The length prefix exceeds the receiver's configured cap; rejected
    /// before any payload is read.
    Oversized {
        /// The declared payload length.
        len: u32,
        /// The receiver's cap.
        max: u32,
    },
    /// The CRC-32 recorded in the header does not match the bytes received —
    /// a bit flip somewhere in version/type/length/payload.
    Checksum {
        /// The checksum the header promised.
        expected: u32,
        /// The checksum of the bytes actually received.
        actual: u32,
    },
    /// The stream ended (or the buffer ran out) in the middle of a frame.
    Truncated {
        /// Which part of the frame was cut short (`"header"` / `"payload"`).
        section: &'static str,
    },
    /// The payload length or contents do not match what the frame type
    /// requires (wrong size, bad UTF-8, oversized tenant id, unknown error
    /// code, …).
    Malformed {
        /// What exactly was malformed.
        what: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { got } => {
                write!(f, "bad frame magic {got:02x?} (expected `MVIF`)")
            }
            FrameError::BadVersion { got } => {
                write!(f, "unsupported protocol version {got} (this build speaks {VERSION})")
            }
            FrameError::UnknownType { got } => write!(f, "unknown frame type {got}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Checksum { expected, actual } => {
                write!(f, "frame checksum mismatch: header says {expected:08x}, got {actual:08x}")
            }
            FrameError::Truncated { section } => write!(f, "stream ended mid-frame ({section})"),
            FrameError::Malformed { what } => write!(f, "malformed frame payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Wire error codes: the protocol-level classification a client can act on
/// without parsing the human-readable message. `Overloaded` and
/// `TenantLoading` are the only codes a client may retry — both guarantee the
/// request was shed *before* execution — everything else is either a
/// permanent request property or ambiguous about whether the request ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request itself is invalid (bad series id, bad range, geometry).
    /// Retrying the identical request can never succeed.
    Invalid = 1,
    /// The range touches time the server's retention ring already evicted.
    Evicted = 2,
    /// Admission control shed the request (full pending queue or connection
    /// cap). The request was **not** executed; retry after the carried
    /// `retry_after_ms` hint.
    Overloaded = 3,
    /// The server-side deadline elapsed before the request's batch replied.
    /// The evaluation may still complete in the background, so a retry is
    /// not known-safe; the typed code lets the caller decide.
    DeadlineExceeded = 4,
    /// The request's micro-batch panicked in the executor (caught; the
    /// server keeps serving).
    Panicked = 5,
    /// The server is draining: the request was answered with the typed
    /// shutdown reply instead of silence. Reconnect after `retry_after_ms`.
    Shutdown = 6,
    /// The executor's reply channel disconnected without an answer — a
    /// crash-shaped loss, distinct from the deliberate [`ErrorCode::Shutdown`]
    /// drain reply.
    Disconnected = 7,
    /// Server-side internal error (snapshot corruption and other faults that
    /// are not a property of this request).
    Internal = 8,
    /// The server could not decode what this connection sent (bad magic,
    /// checksum mismatch, oversized length, …). Sent best-effort before the
    /// server closes the connection, since frame alignment is lost.
    BadFrame = 9,
    /// The tenant id names no registered model. Retrying the identical
    /// request can never succeed until someone registers the tenant.
    UnknownTenant = 10,
    /// The tenant's snapshot is being loaded from disk right now. The
    /// request was **not** executed; retry after the carried
    /// `retry_after_ms` hint — by then the load has usually finished.
    TenantLoading = 11,
    /// The model registry has no evictable slot for this tenant (every
    /// resident slot pinned by an in-flight load, or zero capacity). Not
    /// flagged retryable: it does not resolve on a backoff timescale without
    /// other traffic finishing.
    RegistryFull = 12,
}

impl ErrorCode {
    /// Decodes the wire byte.
    fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(ErrorCode::Invalid),
            2 => Some(ErrorCode::Evicted),
            3 => Some(ErrorCode::Overloaded),
            4 => Some(ErrorCode::DeadlineExceeded),
            5 => Some(ErrorCode::Panicked),
            6 => Some(ErrorCode::Shutdown),
            7 => Some(ErrorCode::Disconnected),
            8 => Some(ErrorCode::Internal),
            9 => Some(ErrorCode::BadFrame),
            10 => Some(ErrorCode::UnknownTenant),
            11 => Some(ErrorCode::TenantLoading),
            12 => Some(ErrorCode::RegistryFull),
            _ => None,
        }
    }

    /// Whether a client may retry the identical request on this code alone.
    /// Only [`ErrorCode::Overloaded`] and [`ErrorCode::TenantLoading`]
    /// qualify: both state the request was shed *before* execution, so a
    /// retry is idempotent-safe.
    pub(crate) fn retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::TenantLoading)
    }

    /// The stable lowercase name used in messages and logs.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Invalid => "invalid",
            ErrorCode::Evicted => "evicted",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Panicked => "panicked",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Disconnected => "disconnected",
            ErrorCode::Internal => "internal",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::UnknownTenant => "unknown-tenant",
            ErrorCode::TenantLoading => "tenant-loading",
            ErrorCode::RegistryFull => "registry-full",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed error reply frame: code + optional retry-after hint + message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Protocol-level classification.
    pub code: ErrorCode,
    /// Backoff hint in milliseconds (`0` = no hint). Carried by shed/drain
    /// replies so clients back off by the server's clock, not a guess.
    pub retry_after_ms: u32,
    /// Human-readable detail (the server-side error's Display text).
    pub message: String,
}

impl WireError {
    /// Maps a serving-layer error onto its wire code. `retry_after_ms` is the
    /// server's backoff hint, attached to the codes where a retry is
    /// meaningful (`Overloaded`, `Shutdown`, `TenantLoading`).
    pub(crate) fn from_serve(err: &ServeError, retry_after_ms: u32) -> Self {
        let (code, hint) = match err {
            ServeError::Overloaded { .. } => (ErrorCode::Overloaded, retry_after_ms),
            ServeError::DeadlineExceeded => (ErrorCode::DeadlineExceeded, 0),
            ServeError::Shutdown => (ErrorCode::Shutdown, retry_after_ms),
            ServeError::Disconnected => (ErrorCode::Disconnected, 0),
            ServeError::Panicked => (ErrorCode::Panicked, 0),
            ServeError::Evicted { .. } => (ErrorCode::Evicted, 0),
            ServeError::UnknownTenant { .. } => (ErrorCode::UnknownTenant, 0),
            ServeError::TenantLoading { .. } => (ErrorCode::TenantLoading, retry_after_ms),
            ServeError::RegistryFull { .. } => (ErrorCode::RegistryFull, 0),
            ServeError::Geometry(_)
            | ServeError::NonFiniteInput { .. }
            | ServeError::Series { .. }
            | ServeError::Range { .. }
            | ServeError::NonFiniteWeights { .. }
            | ServeError::TenantIdTooLong { .. } => (ErrorCode::Invalid, 0),
            ServeError::Corrupt { .. } | ServeError::Snapshot(_) => (ErrorCode::Internal, 0),
        };
        Self { code, retry_after_ms: hint, message: err.to_string() }
    }
}

/// The serving health surface as one binary frame: the engine's
/// [`HealthReport`](mvi_serve::HealthReport) counters plus the front door's
/// own state (queue depth, connection count, drain flag).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthFrame {
    /// Values quarantined by the engine's `ValueGuard`.
    pub quarantined: u64,
    /// Mutations rejected for carrying NaN/±inf.
    pub nonfinite_input_rejections: u64,
    /// Windows that degraded to the mean-baseline fallback (monotonic).
    pub degraded_events: u64,
    /// Windows currently serving the fallback.
    pub degraded_windows: u64,
    /// State-lock poison recoveries.
    pub poison_recoveries: u64,
    /// Panics the micro-batcher supervisors have caught.
    pub panics_caught: u64,
    /// Requests currently queued (or being submitted) at the batchers.
    pub queue_depth: u32,
    /// The per-tenant bounded queue capacity.
    pub queue_cap: u32,
    /// Connections currently served.
    pub active_connections: u32,
    /// Whether the server is draining (shutting down gracefully).
    pub draining: bool,
}

const HEALTH_LEN: usize = 6 * 8 + 3 * 4 + 1;

/// One decoded protocol frame. The `tenant` fields route through the
/// server's model registry; an empty tenant means "the default tenant".
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: impute series `s` over `[start, end)` on `tenant`'s
    /// model.
    Query {
        /// Tenant id (empty = default tenant).
        tenant: String,
        /// Flat series id.
        s: u32,
        /// Range start (inclusive).
        start: u32,
        /// Range end (exclusive).
        end: u32,
    },
    /// Server → client: the fully-imputed values of the requested range,
    /// echoing the tenant that served them.
    Values {
        /// The tenant whose model produced the values.
        tenant: String,
        /// The imputed values.
        values: Vec<f64>,
    },
    /// Server → client: a typed error reply (never carries a tenant — errors
    /// must be expressible even when the tenant field itself is the problem).
    Error(WireError),
    /// Client → server: report serving health — for one tenant, or the
    /// aggregate across all tenants when the tenant is empty.
    HealthReq {
        /// Tenant id (empty = aggregate over the whole registry).
        tenant: String,
    },
    /// Server → client: the health counters, echoing the scope requested.
    Health {
        /// The tenant scope the counters describe (empty = aggregate).
        tenant: String,
        /// The counters.
        health: HealthFrame,
    },
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Query { .. } => T_QUERY,
            Frame::Values { .. } => T_VALUES,
            Frame::Error(_) => T_ERROR,
            Frame::HealthReq { .. } => T_HEALTH_REQ,
            Frame::Health { .. } => T_HEALTH,
        }
    }

    /// The tenant id this frame routes by, if its type carries one.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Frame::Query { tenant, .. }
            | Frame::Values { tenant, .. }
            | Frame::HealthReq { tenant }
            | Frame::Health { tenant, .. } => Some(tenant),
            Frame::Error(_) => None,
        }
    }
}

/// Encodes one frame into its complete byte representation (header +
/// payload). Tenant ids longer than [`MAX_TENANT_LEN`] bytes are truncated
/// at a character boundary, mirroring the error-message cap.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::new();
    if let Some(tenant) = frame.tenant() {
        let mut cut = tenant.len().min(MAX_TENANT_LEN);
        while !tenant.is_char_boundary(cut) {
            cut -= 1;
        }
        payload.push(cut as u8);
        payload.extend_from_slice(&tenant.as_bytes()[..cut]);
    }
    match frame {
        Frame::Query { s, start, end, .. } => {
            payload.extend_from_slice(&s.to_le_bytes());
            payload.extend_from_slice(&start.to_le_bytes());
            payload.extend_from_slice(&end.to_le_bytes());
        }
        Frame::Values { values, .. } => {
            payload.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
        Frame::Error(e) => {
            let msg = e.message.as_bytes();
            let msg = &msg[..msg.len().min(u16::MAX as usize)];
            payload.push(e.code as u8);
            payload.extend_from_slice(&e.retry_after_ms.to_le_bytes());
            payload.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            payload.extend_from_slice(msg);
        }
        Frame::HealthReq { .. } => {}
        Frame::Health { health: h, .. } => {
            for v in [
                h.quarantined,
                h.nonfinite_input_rejections,
                h.degraded_events,
                h.degraded_windows,
                h.poison_recoveries,
                h.panics_caught,
            ] {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            for v in [h.queue_depth, h.queue_cap, h.active_connections] {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            payload.push(h.draining as u8);
        }
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame.type_byte());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_crc(frame.type_byte(), &payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// The frame checksum: CRC-32 over version, type, payload length and the
/// payload bytes (the magic is excluded — it is a constant), digested in
/// place.
fn frame_crc(ftype: u8, payload: &[u8]) -> u32 {
    Crc32::new()
        .update(&[VERSION, ftype])
        .update(&(payload.len() as u32).to_le_bytes())
        .update(payload)
        .finish()
}

/// A validated header: frame type, payload length, expected CRC (the
/// version byte is already checked to be [`VERSION`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Header {
    /// The frame-type byte (already validated as known).
    ftype: u8,
    /// Declared payload length (already validated against the cap).
    pub(crate) len: u32,
    /// The checksum the payload must match.
    crc: u32,
}

/// Validates the fixed-size header: magic, version, known type, capped
/// length. Cheap enough to run before committing to read any payload.
pub(crate) fn decode_header(
    header: &[u8; HEADER_LEN],
    max_frame: u32,
) -> Result<Header, FrameError> {
    if header[0..4] != MAGIC {
        let mut got = [0u8; 4];
        got.copy_from_slice(&header[0..4]);
        return Err(FrameError::BadMagic { got });
    }
    let version = header[4];
    if version != VERSION {
        return Err(FrameError::BadVersion { got: version });
    }
    let ftype = header[5];
    if !(T_QUERY..=T_HEALTH).contains(&ftype) {
        return Err(FrameError::UnknownType { got: ftype });
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > max_frame {
        return Err(FrameError::Oversized { len, max: max_frame });
    }
    let crc = u32::from_le_bytes([header[10], header[11], header[12], header[13]]);
    Ok(Header { ftype, len, crc })
}

/// Splits a payload into its tenant id and the remaining type-specific body.
fn decode_tenant(payload: &[u8]) -> Result<(String, &[u8]), FrameError> {
    let Some(&len) = payload.first() else {
        return Err(malformed("payload missing its tenant length byte"));
    };
    let len = len as usize;
    if len > MAX_TENANT_LEN {
        return Err(malformed(format!(
            "tenant id of {len} bytes exceeds the {MAX_TENANT_LEN}-byte cap"
        )));
    }
    let Some(bytes) = payload.get(1..1 + len) else {
        return Err(malformed("tenant id runs past the payload"));
    };
    let Ok(tenant) = std::str::from_utf8(bytes) else {
        return Err(malformed("tenant id is not UTF-8"));
    };
    Ok((tenant.to_string(), &payload[1 + len..]))
}

/// Decodes a payload against its validated header (checksum first, then the
/// tenant prefix, then the per-type layout).
pub(crate) fn decode_payload(header: Header, payload: &[u8]) -> Result<Frame, FrameError> {
    let actual = frame_crc(header.ftype, payload);
    if actual != header.crc {
        return Err(FrameError::Checksum { expected: header.crc, actual });
    }
    let (tenant, body) =
        if header.ftype != T_ERROR { decode_tenant(payload)? } else { (String::new(), payload) };
    match header.ftype {
        T_QUERY => {
            let [s, start, end] = read_u32s::<3>(body, "query body must be 12 bytes")?;
            Ok(Frame::Query { tenant, s, start, end })
        }
        T_VALUES => {
            if body.len() < 4 {
                return Err(malformed("values body shorter than its count field"));
            }
            let count = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
            let rest = &body[4..];
            if rest.len() != count * 8 {
                return Err(malformed(format!(
                    "values body declares {count} points but carries {} bytes",
                    rest.len()
                )));
            }
            let mut values = Vec::with_capacity(count);
            for chunk in rest.chunks_exact(8) {
                let mut arr = [0u8; 8];
                arr.copy_from_slice(chunk);
                values.push(f64::from_le_bytes(arr));
            }
            Ok(Frame::Values { tenant, values })
        }
        T_ERROR => {
            if body.len() < 7 {
                return Err(malformed("error payload shorter than its fixed fields"));
            }
            let Some(code) = ErrorCode::from_u8(body[0]) else {
                return Err(malformed(format!("unknown error code {}", body[0])));
            };
            let retry_after_ms = u32::from_le_bytes([body[1], body[2], body[3], body[4]]);
            let msg_len = u16::from_le_bytes([body[5], body[6]]) as usize;
            let Some(msg) = body.get(7..7 + msg_len) else {
                return Err(malformed("error message runs past the payload"));
            };
            if body.len() != 7 + msg_len {
                return Err(malformed("error payload longer than its declared message"));
            }
            let Ok(message) = String::from_utf8(msg.to_vec()) else {
                return Err(malformed("error message is not UTF-8"));
            };
            Ok(Frame::Error(WireError { code, retry_after_ms, message }))
        }
        T_HEALTH_REQ => {
            if !body.is_empty() {
                return Err(malformed("health request carries a body"));
            }
            Ok(Frame::HealthReq { tenant })
        }
        T_HEALTH => {
            if body.len() != HEALTH_LEN {
                return Err(malformed(format!(
                    "health body must be {HEALTH_LEN} bytes, got {}",
                    body.len()
                )));
            }
            let u64_at = |i: usize| {
                let mut arr = [0u8; 8];
                arr.copy_from_slice(&body[i..i + 8]);
                u64::from_le_bytes(arr)
            };
            let u32_at = |i: usize| {
                let mut arr = [0u8; 4];
                arr.copy_from_slice(&body[i..i + 4]);
                u32::from_le_bytes(arr)
            };
            Ok(Frame::Health {
                tenant,
                health: HealthFrame {
                    quarantined: u64_at(0),
                    nonfinite_input_rejections: u64_at(8),
                    degraded_events: u64_at(16),
                    degraded_windows: u64_at(24),
                    poison_recoveries: u64_at(32),
                    panics_caught: u64_at(40),
                    queue_depth: u32_at(48),
                    queue_cap: u32_at(52),
                    active_connections: u32_at(56),
                    draining: body[60] != 0,
                },
            })
        }
        // decode_header only admits known types; keep the decoder total anyway.
        other => Err(FrameError::UnknownType { got: other }),
    }
}

fn malformed(what: impl Into<String>) -> FrameError {
    FrameError::Malformed { what: what.into() }
}

/// Reads `N` consecutive u32 fields spanning the whole body.
fn read_u32s<const N: usize>(payload: &[u8], why: &str) -> Result<[u32; N], FrameError> {
    if payload.len() != N * 4 {
        return Err(malformed(why));
    }
    let mut out = [0u32; N];
    for (k, chunk) in payload.chunks_exact(4).enumerate() {
        let mut arr = [0u8; 4];
        arr.copy_from_slice(chunk);
        out[k] = u32::from_le_bytes(arr);
    }
    Ok(out)
}

/// Decodes one frame from the front of `buf`, returning the frame and how
/// many bytes it consumed. Total: every input maps to `Ok` or a typed error.
pub fn decode(buf: &[u8], max_frame: u32) -> Result<(Frame, usize), FrameError> {
    let Some(header_bytes) = buf.get(..HEADER_LEN) else {
        return Err(FrameError::Truncated { section: "header" });
    };
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(header_bytes);
    let h = decode_header(&header, max_frame)?;
    let Some(payload) = buf.get(HEADER_LEN..HEADER_LEN + h.len as usize) else {
        return Err(FrameError::Truncated { section: "payload" });
    };
    let frame = decode_payload(h, payload)?;
    Ok((frame, HEADER_LEN + h.len as usize))
}

/// How receiving one frame from a stream can end.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// An I/O failure (including read timeouts surfacing as
    /// [`io::ErrorKind::WouldBlock`] / [`io::ErrorKind::TimedOut`]).
    Io(io::Error),
    /// The bytes received do not form a valid frame.
    Frame(FrameError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => f.write_str("peer closed the connection"),
            RecvError::Io(e) => write!(f, "i/o error receiving frame: {e}"),
            RecvError::Frame(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Reads exactly one frame from `r` (blocking; the stream's own read timeout
/// governs how long it may take). A clean EOF before any byte of the frame is
/// [`RecvError::Closed`]; EOF mid-frame is a typed truncation error.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Frame, RecvError> {
    let mut header = [0u8; HEADER_LEN];
    fill(r, &mut header, true)?;
    let h = decode_header(&header, max_frame).map_err(RecvError::Frame)?;
    let mut payload = vec![0u8; h.len as usize];
    fill(r, &mut payload, false)?;
    decode_payload(h, &payload).map_err(RecvError::Frame)
}

/// Fills `buf` completely. `clean_eof_ok` marks whether a clean EOF before
/// the first byte means "peer hung up between frames" rather than truncation.
fn fill(r: &mut impl Read, buf: &mut [u8], clean_eof_ok: bool) -> Result<(), RecvError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if clean_eof_ok && filled == 0 {
                    RecvError::Closed
                } else {
                    RecvError::Frame(FrameError::Truncated {
                        section: if filled < HEADER_LEN && clean_eof_ok {
                            "header"
                        } else {
                            "payload"
                        },
                    })
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    Ok(())
}

/// Writes one frame to `w` (blocking; the stream's write timeout governs how
/// long a non-reading peer may stall this).
pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = encode(&frame);
        let (decoded, used) = decode(&bytes, DEFAULT_MAX_FRAME).expect("roundtrip decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn every_frame_type_roundtrips() {
        roundtrip(Frame::Query { tenant: "acme".into(), s: 3, start: 10, end: 90 });
        roundtrip(Frame::Query { tenant: String::new(), s: 3, start: 10, end: 90 });
        roundtrip(Frame::Values {
            tenant: "tenant-βeta".into(),
            values: vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE],
        });
        roundtrip(Frame::Values { tenant: String::new(), values: Vec::new() });
        roundtrip(Frame::Error(WireError {
            code: ErrorCode::Overloaded,
            retry_after_ms: 75,
            message: "serving queue full (64 pending requests); retry with backoff".into(),
        }));
        roundtrip(Frame::HealthReq { tenant: "acme".into() });
        roundtrip(Frame::Health {
            tenant: "acme".into(),
            health: HealthFrame {
                quarantined: 7,
                nonfinite_input_rejections: 1,
                degraded_events: 2,
                degraded_windows: 1,
                poison_recoveries: 0,
                panics_caught: 3,
                queue_depth: 12,
                queue_cap: 1024,
                active_connections: 9,
                draining: true,
            },
        })
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // Deployed peers depend on these exact bytes. A symmetric
        // encode/decode change would pass every roundtrip test; it cannot
        // pass this one.
        let query = Frame::Query { tenant: "acme".into(), s: 3, start: 10, end: 90 };
        assert_eq!(
            hex(&encode(&query)),
            "4d5649460201110000009da157810461636d65030000000a0000005a000000"
        );
        let values = Frame::Values { tenant: "acme".into(), values: vec![1.5, -2.25] };
        assert_eq!(
            hex(&encode(&values)),
            "4d5649460202190000001fb7d25b0461636d6502000000000000000000f83f00000000000002c0"
        );
        let error = Frame::Error(WireError {
            code: ErrorCode::Overloaded,
            retry_after_ms: 75,
            message: "shed".into(),
        });
        assert_eq!(hex(&encode(&error)), "4d56494602030b0000007f04dde3034b000000040073686564");
        let health = Frame::Health {
            tenant: "acme".into(),
            health: HealthFrame {
                quarantined: 7,
                nonfinite_input_rejections: 1,
                degraded_events: 2,
                degraded_windows: 1,
                poison_recoveries: 0,
                panics_caught: 3,
                queue_depth: 12,
                queue_cap: 1024,
                active_connections: 9,
                draining: true,
            },
        };
        assert_eq!(
            hex(&encode(&health)),
            "4d5649460205420000008fe93ab90461636d65070000000000000001000000000000000200000000000000\
             0100000000000000000000000000000003000000000000000c000000000400000900000001"
        );
    }

    #[test]
    fn oversized_tenant_ids_are_truncated_at_a_char_boundary_on_encode() {
        // 32 two-byte characters = 64 bytes, then one more pushes past the
        // cap mid-character; the encoder must cut on a boundary below it.
        let tenant: String = "ß".repeat(33);
        let bytes = encode(&Frame::HealthReq { tenant });
        let (decoded, _) = decode(&bytes, DEFAULT_MAX_FRAME).expect("truncated tenant decodes");
        let Frame::HealthReq { tenant } = decoded else { panic!("wrong frame type") };
        assert_eq!(tenant.len(), 64, "must fill the cap exactly when boundaries allow");
        assert_eq!(tenant.chars().count(), 32);
    }

    #[test]
    fn wire_tenant_longer_than_the_cap_is_malformed_not_a_desync() {
        // Hand-build a health-req whose tenant length byte claims 200.
        let mut payload = vec![200u8];
        payload.extend_from_slice(&[b'x'; 200]);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(4); // T_HEALTH_REQ
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&frame_crc(4, &payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match decode(&bytes, DEFAULT_MAX_FRAME) {
            Err(FrameError::Malformed { what }) => {
                assert!(what.contains("64-byte cap"), "unexpected detail: {what}")
            }
            other => panic!("oversized tenant must be malformed, got {other:?}"),
        }
    }

    #[test]
    fn non_utf8_tenant_is_malformed() {
        let mut payload = vec![2u8, 0xff, 0xfe];
        payload.extend_from_slice(&[0; 12]); // query body
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(1); // T_QUERY
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&frame_crc(1, &payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(decode(&bytes, DEFAULT_MAX_FRAME), Err(FrameError::Malformed { .. })));
    }

    #[test]
    fn bad_magic_version_and_type_are_typed() {
        let mut bytes = encode(&Frame::HealthReq { tenant: String::new() });
        bytes[0] = b'X';
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_FRAME),
            Err(FrameError::BadMagic { got }) if got[0] == b'X'
        ));
        for version in [1, 9] {
            // 1 is the retired tenant-less version: refused like any other.
            let mut bytes = encode(&Frame::HealthReq { tenant: String::new() });
            bytes[4] = version;
            assert_eq!(
                decode(&bytes, DEFAULT_MAX_FRAME),
                Err(FrameError::BadVersion { got: version })
            );
        }
        let mut bytes = encode(&Frame::HealthReq { tenant: String::new() });
        bytes[5] = 77;
        assert_eq!(decode(&bytes, DEFAULT_MAX_FRAME), Err(FrameError::UnknownType { got: 77 }));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_payload() {
        let mut bytes = encode(&Frame::HealthReq { tenant: String::new() });
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode(&bytes, DEFAULT_MAX_FRAME),
            Err(FrameError::Oversized { len: u32::MAX, max: DEFAULT_MAX_FRAME })
        );
    }

    #[test]
    fn any_single_bit_flip_is_detected_or_changes_nothing_semantic() {
        // A flip in magic/version/type/len fails structurally; a flip in CRC
        // or payload fails the checksum. No flip decodes to a *different*
        // valid frame.
        let frame = Frame::Query { tenant: "acme".into(), s: 1, start: 2, end: 3 };
        let clean = encode(&frame);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                match decode(&bytes, DEFAULT_MAX_FRAME) {
                    Err(_) => {}
                    Ok((decoded, _)) => {
                        assert_eq!(decoded, frame, "bit flip at {byte}:{bit} changed the frame")
                    }
                }
            }
        }
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = encode(&Frame::Values { tenant: "t".into(), values: vec![1.0, 2.0, 3.0] });
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    decode(&bytes[..cut], DEFAULT_MAX_FRAME),
                    Err(FrameError::Truncated { .. })
                ),
                "cut at {cut} must be a typed truncation"
            );
        }
    }

    #[test]
    fn values_count_must_match_payload() {
        let mut bytes = encode(&Frame::Values { tenant: String::new(), values: vec![1.0, 2.0] });
        // Claim 3 points while carrying 2. The payload opens with the
        // 1-byte empty tenant prefix, so the count sits one past the header;
        // count is inside the CRC, so fix the CRC up to isolate the
        // malformed-payload check.
        bytes[HEADER_LEN + 1..HEADER_LEN + 5].copy_from_slice(&3u32.to_le_bytes());
        let crc = frame_crc(bytes[5], &bytes[HEADER_LEN..]);
        bytes[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&bytes, DEFAULT_MAX_FRAME), Err(FrameError::Malformed { .. })));
    }

    #[test]
    fn serve_error_mapping_hits_the_distinct_codes() {
        let overloaded = WireError::from_serve(&ServeError::Overloaded { capacity: 8 }, 40);
        assert_eq!(overloaded.code, ErrorCode::Overloaded);
        assert_eq!(overloaded.retry_after_ms, 40);
        assert!(overloaded.code.retryable());

        let deadline = WireError::from_serve(&ServeError::DeadlineExceeded, 40);
        assert_eq!(deadline.code, ErrorCode::DeadlineExceeded);
        assert_eq!(deadline.retry_after_ms, 0, "a deadline reply carries no retry hint");
        assert!(!deadline.code.retryable());

        let shutdown = WireError::from_serve(&ServeError::Shutdown, 40);
        assert_eq!(shutdown.code, ErrorCode::Shutdown);
        assert_eq!(shutdown.retry_after_ms, 40);
        assert!(!shutdown.code.retryable());

        let disconnected = WireError::from_serve(&ServeError::Disconnected, 40);
        assert_eq!(disconnected.code, ErrorCode::Disconnected);

        let invalid = WireError::from_serve(&ServeError::Series { s: 9, n_series: 3 }, 40);
        assert_eq!(invalid.code, ErrorCode::Invalid);
        assert!(invalid.message.contains('9'), "display text rides along: {invalid:?}");

        let unknown =
            WireError::from_serve(&ServeError::UnknownTenant { tenant: "ghost".into() }, 40);
        assert_eq!(unknown.code, ErrorCode::UnknownTenant);
        assert_eq!(unknown.retry_after_ms, 0, "an unknown tenant never resolves by waiting");
        assert!(!unknown.code.retryable());

        let loading =
            WireError::from_serve(&ServeError::TenantLoading { tenant: "acme".into() }, 40);
        assert_eq!(loading.code, ErrorCode::TenantLoading);
        assert_eq!(loading.retry_after_ms, 40, "a loading reply carries the backoff hint");
        assert!(loading.code.retryable(), "the request was shed before execution");

        let full = WireError::from_serve(&ServeError::RegistryFull { capacity: 4 }, 40);
        assert_eq!(full.code, ErrorCode::RegistryFull);
        assert_eq!(full.retry_after_ms, 0);
        assert!(!full.code.retryable());
    }
}
