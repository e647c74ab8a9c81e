//! The framed-TCP server: a thread-per-connection acceptor routing requests
//! through a [`ModelRegistry`] of tenants, built fault-first.
//!
//! ## Tenancy
//!
//! Every request names a tenant (an empty tenant id routes to
//! [`DEFAULT_TENANT`]). The server asks the registry for a client of that
//! tenant's **own** micro-batcher ([`ModelRegistry::client`]) — which may
//! load its snapshot on demand or answer with the typed `UnknownTenant` /
//! `TenantLoading` / `RegistryFull` codes — and submits the query to it. The
//! registry owns each batcher beside its engine, so the server keeps no
//! per-tenant state of its own. Per-tenant batchers are the
//! isolation boundary: one tenant's panic storm, quarantine flood, or
//! deadline stall saturates only its own bounded queue and supervisor;
//! other tenants' queues, threads and latency are untouched. Every reply is
//! written in the one protocol version ([`crate::frame::VERSION`]); a frame
//! in any other version is a bad frame like any other undecodable input.
//!
//! ## Failure posture
//!
//! * **Admission control** — a hard connection cap: connections beyond
//!   [`ServerConfig::max_connections`] are answered with a typed
//!   `Overloaded` error frame (carrying the retry-after hint) and closed,
//!   never silently queued. Requests beyond the batcher's bounded queue shed
//!   the same way through [`ServeError::Overloaded`].
//! * **Hostile input is survivable** — every connection reads through the
//!   total frame decoder: garbage, truncation, bit flips and oversized
//!   length prefixes produce one best-effort `BadFrame` error frame and a
//!   closed connection (framing alignment is gone), never a panic, never an
//!   unbounded allocation, never a wedged thread.
//! * **Idle and half-open connections are reaped** — a connection that
//!   neither completes a frame nor closes within
//!   [`ServerConfig::idle_timeout`] is dropped, whether it is silent
//!   (half-open TCP) or trickling bytes (slow-loris-shaped).
//! * **Deadlines** — [`ServerConfig::batcher`] carries the per-request
//!   deadline into each tenant's batcher; a stalled evaluation frees the
//!   client with a typed `DeadlineExceeded` frame while the connection stays
//!   usable for the next request.
//! * **Graceful drain** — [`NetServer::shutdown`]: stop accepting, let
//!   connection threads finish the request they are on, answer every queued
//!   request with the typed `Shutdown` frame (the batcher's drain), then
//!   close. Zero accepted requests are dropped without a reply frame.
//!
//! The acceptor polls a non-blocking listener and connection reads tick at
//! [`ServerConfig::tick`], so drain and reap latencies are bounded by the
//! tick without any async runtime (the container is `std`-only by design).

use crate::frame::{
    decode_header, decode_payload, write_frame, ErrorCode, Frame, FrameError, HealthFrame,
    WireError, DEFAULT_MAX_FRAME, HEADER_LEN,
};
use mvi_serve::{BatcherConfig, ImputationEngine, ModelRegistry, RegistryConfig, ServeError};
use std::io::{self, Read};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The tenant that frames with an empty tenant id route to.
/// [`NetServer::bind`] registers its single engine under this id.
pub const DEFAULT_TENANT: &str = "default";

/// Tuning for [`NetServer::bind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Hard cap on concurrently served connections; arrivals beyond it get a
    /// typed `Overloaded` frame and are closed (admission control).
    pub max_connections: usize,
    /// Largest frame payload accepted from a client.
    pub max_frame: u32,
    /// Connections with no completed frame for this long are reaped — idle,
    /// half-open, and byte-trickling connections alike.
    pub idle_timeout: Duration,
    /// Poll granularity for connection reads and the acceptor: bounds drain
    /// and reap latency. Keep well under `idle_timeout`.
    pub tick: Duration,
    /// Write timeout per reply frame: a client that stops reading cannot
    /// wedge a connection thread past this.
    pub write_timeout: Duration,
    /// The `retry_after_ms` hint attached to shed (`Overloaded`) and drain
    /// (`Shutdown`) replies.
    pub retry_after_ms: u32,
    /// Micro-batcher tuning: queue bound (load shedding), batch size, and
    /// the per-request deadline. The default sets a 2 s deadline so no wire
    /// request — and no drain — can block unboundedly on a stuck evaluation.
    pub batcher: BatcherConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            max_frame: DEFAULT_MAX_FRAME,
            idle_timeout: Duration::from_secs(30),
            tick: Duration::from_millis(20),
            write_timeout: Duration::from_secs(5),
            retry_after_ms: 50,
            batcher: BatcherConfig {
                deadline: Some(Duration::from_secs(2)),
                ..BatcherConfig::default()
            },
        }
    }
}

/// Point-in-time front-door counters ([`NetServer::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections currently being served.
    pub active_connections: usize,
    /// Connections accepted into service (monotonic).
    pub accepted: u64,
    /// Connections refused by the admission cap (monotonic).
    pub rejected: u64,
    /// Connections dropped for an undecodable frame (monotonic).
    pub bad_frames: u64,
    /// Query frames served (monotonic; health frames not counted).
    pub requests: u64,
}

struct Shared {
    config: ServerConfig,
    registry: Arc<ModelRegistry>,
    draining: AtomicBool,
    conns: AtomicUsize,
    accepted: AtomicU64,
    rejected: AtomicU64,
    bad_frames: AtomicU64,
    requests: AtomicU64,
    /// Clones of live connection streams, for the crash-style [`NetServer::kill`].
    streams: Mutex<Vec<(u64, TcpStream)>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The running server: owns the acceptor thread and the connection threads;
/// the registry it serves owns each tenant's engine and batcher. Dropping it
/// performs a graceful drain (same as [`NetServer::shutdown`]).
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    stopped: bool,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port; see
    /// [`NetServer::local_addr`]) and serves a single `engine`, registered as
    /// [`DEFAULT_TENANT`] in a capacity-1 registry — the one-model deployment
    /// as a special case of [`NetServer::bind_registry`]. The sole tenant can
    /// never be evicted, so the wrapper registry's spill directory is never
    /// written.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<ImputationEngine>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let registry = Arc::new(ModelRegistry::new(RegistryConfig::new(
            1,
            std::env::temp_dir().join("mvi-net-default-spill"),
        )));
        registry.register(DEFAULT_TENANT, engine).map_err(|e| io::Error::other(e.to_string()))?;
        Self::bind_registry(addr, registry, config)
    }

    /// Binds `addr` and serves every tenant in `registry`, each through the
    /// micro-batcher the registry spawns from `config.batcher` on the
    /// tenant's first request of each residency.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind_registry(
        addr: impl ToSocketAddrs,
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            config,
            registry,
            draining: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            bad_frames: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            streams: Mutex::new(Vec::new()),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::spawn(move || accept_loop(listener, acceptor_shared));
        Ok(Self { shared, local_addr, acceptor: Some(acceptor), stopped: false })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Front-door counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            active_connections: self.shared.conns.load(Ordering::Relaxed),
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            bad_frames: self.shared.bad_frames.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
        }
    }

    /// Panics the per-tenant batcher supervisors have caught, summed over
    /// every tenant and residency (`0` while healthy).
    pub fn panics_caught(&self) -> u64 {
        self.shared.registry.batcher_counters(None).map_or(0, |(panics, _)| panics)
    }

    /// The model registry being served.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Graceful drain: stop accepting, finish every in-flight request,
    /// answer everything still queued with the typed `Shutdown` frame, then
    /// close all connections and join every thread. Every request accepted
    /// before the drain gets a reply frame on the wire — none are dropped.
    pub fn shutdown(mut self) {
        self.stop(true);
    }

    /// Crash-style stop: slam every connection shut mid-whatever and tear
    /// down without the drain protocol. Exists to exercise client-side
    /// ambiguous-failure and reconnect paths (a real crash does not drain);
    /// production shutdown is [`NetServer::shutdown`].
    pub fn kill(mut self) {
        self.stop(false);
    }

    fn stop(&mut self, graceful: bool) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        // Phase 1: stop accepting. The acceptor sees the flag within a tick,
        // drops the listener, and returns the connection-thread handles.
        self.shared.draining.store(true, Ordering::Release);
        if !graceful {
            // Crash style: slam the sockets so blocked reads/writes fail now.
            for (_, stream) in lock(&self.shared.streams).iter() {
                let _ = stream.shutdown(SockShutdown::Both);
            }
        }
        // Phase 2: drop every tenant's batcher. Each finishes the batch in
        // flight (real answers), then drains its queue with typed Shutdown
        // replies — connection threads blocked in `query` wake with an
        // answer to write.
        self.shared.registry.close_batchers();
        // Phase 3: join everything. Connection threads exit within a tick of
        // writing their final reply (they see the drain flag between frames).
        if let Some(acceptor) = self.acceptor.take() {
            if let Ok(conn_handles) = acceptor.join() {
                for handle in conn_handles {
                    let _ = handle.join();
                }
            }
        }
        // A request that passed its drain check just before the flag flipped
        // may have spawned a batcher after phase 2; it has been answered by
        // now, so close that one too.
        self.shared.registry.close_batchers();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop(true);
    }
}

/// The acceptor: polls the non-blocking listener, applies the admission cap,
/// spawns one thread per accepted connection. Returns the connection-thread
/// handles so `stop` can join them.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id: u64 = 0;
    loop {
        if shared.draining.load(Ordering::Acquire) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Reap finished handles opportunistically so a long-lived
                // server does not accumulate dead JoinHandles.
                handles.retain(|h| !h.is_finished());
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                let admitted = shared
                    .conns
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                        (n < shared.config.max_connections).then_some(n + 1)
                    })
                    .is_ok();
                if !admitted {
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    refuse(stream, &shared, "connection cap reached; retry after backoff");
                    continue;
                }
                let id = next_id;
                next_id += 1;
                if let Ok(clone) = stream.try_clone() {
                    lock(&shared.streams).push((id, clone));
                }
                let conn_shared = Arc::clone(&shared);
                handles.push(std::thread::spawn(move || {
                    serve_conn(&conn_shared, stream);
                    lock(&conn_shared.streams).retain(|(sid, _)| *sid != id);
                    conn_shared.conns.fetch_sub(1, Ordering::Relaxed);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.config.tick.min(Duration::from_millis(5)));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient accept failures (EMFILE, aborted handshakes): back
            // off a tick rather than spinning or dying.
            Err(_) => std::thread::sleep(shared.config.tick),
        }
    }
    handles
}

/// Best-effort typed refusal for a connection that was never admitted.
fn refuse(mut stream: TcpStream, shared: &Shared, why: &str) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = write_frame(
        &mut stream,
        &Frame::Error(WireError {
            code: ErrorCode::Overloaded,
            retry_after_ms: shared.config.retry_after_ms,
            message: why.to_string(),
        }),
    );
}

/// What one ticked frame read produced.
enum ConnEvent {
    /// A decoded frame.
    Frame(Frame),
    /// The bytes could not form a frame; alignment is lost.
    Bad(FrameError),
    /// Peer closed cleanly between frames.
    Closed,
    /// No completed frame within the idle window (silent or trickling peer).
    IdleReap,
    /// The server is draining and no frame is mid-read.
    Draining,
    /// Transport failure.
    Io,
}

/// One connection's serve loop: read a frame, resolve its tenant, answer it,
/// repeat until the peer closes, misbehaves, idles out, or the server
/// drains. Tenant-resolution failures (unknown / loading / registry-full)
/// are request-level errors: the reply is typed and the connection stays
/// open, exactly like an invalid range.
fn serve_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_read_timeout(Some(shared.config.tick));
    loop {
        match read_frame_ticked(&mut stream, shared) {
            ConnEvent::Frame(Frame::Query { tenant, s, start, end }) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let reply = if shared.draining.load(Ordering::Acquire) {
                    // The batchers are closing; answer with the typed drain
                    // reply instead of racing a submission against them.
                    Err(ServeError::Shutdown)
                } else {
                    let key = if tenant.is_empty() { DEFAULT_TENANT } else { &tenant };
                    shared
                        .registry
                        .client(key, shared.config.batcher)
                        .and_then(|client| client.query(s as usize, start as usize, end as usize))
                };
                let frame = match reply {
                    Ok(values) => Frame::Values { tenant, values },
                    Err(e) => Frame::Error(WireError::from_serve(&e, shared.config.retry_after_ms)),
                };
                if write_frame(&mut stream, &frame).is_err() {
                    break;
                }
            }
            ConnEvent::Frame(Frame::HealthReq { tenant }) => {
                let frame = match health_frame(shared, &tenant) {
                    Ok(health) => Frame::Health { tenant, health },
                    Err(e) => Frame::Error(WireError::from_serve(&e, shared.config.retry_after_ms)),
                };
                if write_frame(&mut stream, &frame).is_err() {
                    break;
                }
            }
            ConnEvent::Frame(_) => {
                // A response-type frame from a client is a protocol error,
                // but framing is still aligned: answer typed and continue.
                let frame = Frame::Error(WireError {
                    code: ErrorCode::BadFrame,
                    retry_after_ms: 0,
                    message: "clients send query/health frames only".to_string(),
                });
                if write_frame(&mut stream, &frame).is_err() {
                    break;
                }
            }
            ConnEvent::Bad(e) => {
                shared.bad_frames.fetch_add(1, Ordering::Relaxed);
                // Frame alignment is lost: one typed reply, then close.
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error(WireError {
                        code: ErrorCode::BadFrame,
                        retry_after_ms: 0,
                        message: e.to_string(),
                    }),
                );
                break;
            }
            ConnEvent::Closed | ConnEvent::IdleReap | ConnEvent::Io => break,
            ConnEvent::Draining => {
                // Between frames during a drain: nothing owed to this peer.
                break;
            }
        }
    }
    let _ = stream.shutdown(SockShutdown::Both);
}

/// Reads one frame with tick-granularity timeouts. Between frames (no byte
/// read yet) it reacts to drain and idle; once a frame has started, it is
/// finished (subject to the same idle budget) so a request already on the
/// wire during a drain still gets its typed answer.
fn read_frame_ticked(stream: &mut TcpStream, shared: &Shared) -> ConnEvent {
    let started = Instant::now();
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match stream.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ConnEvent::Closed
                } else {
                    ConnEvent::Bad(FrameError::Truncated { section: "header" })
                };
            }
            Ok(n) => filled += n,
            Err(e) if timed_out(&e) => {
                if filled == 0 && shared.draining.load(Ordering::Acquire) {
                    return ConnEvent::Draining;
                }
                if started.elapsed() >= shared.config.idle_timeout {
                    return ConnEvent::IdleReap;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ConnEvent::Io,
        }
    }
    let h = match decode_header(&header, shared.config.max_frame) {
        Ok(h) => h,
        Err(e) => return ConnEvent::Bad(e),
    };
    let mut payload = vec![0u8; h.len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => return ConnEvent::Bad(FrameError::Truncated { section: "payload" }),
            Ok(n) => filled += n,
            Err(e) if timed_out(&e) => {
                // Mid-frame the drain flag does not abort the read — the
                // request is already on the wire — but the idle budget still
                // bounds how long a trickling client can hold the thread.
                if started.elapsed() >= shared.config.idle_timeout {
                    return ConnEvent::IdleReap;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ConnEvent::Io,
        }
    }
    match decode_payload(h, &payload) {
        Ok(frame) => ConnEvent::Frame(frame),
        Err(e) => ConnEvent::Bad(e),
    }
}

fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Assembles the health frame: engine fault counters + front-door state.
/// An empty tenant reports the aggregate — every tenant's carried counters
/// plus every resident engine's live ones, with panics and queue depth
/// summed over all tenants. A named tenant reports its own counters (carried
/// + live; never forces a snapshot load) and its own batcher's state.
///
/// # Errors
/// [`ServeError::UnknownTenant`] when the named tenant is not registered.
fn health_frame(shared: &Shared, tenant: &str) -> Result<HealthFrame, ServeError> {
    let registry = &shared.registry;
    let (report, (panics, depth)) = if tenant.is_empty() {
        (registry.aggregate_health(), registry.batcher_counters(None)?)
    } else {
        (registry.tenant_health(tenant)?, registry.batcher_counters(Some(tenant))?)
    };
    Ok(HealthFrame {
        quarantined: report.quarantined,
        nonfinite_input_rejections: report.nonfinite_input_rejections,
        degraded_events: report.degraded_events,
        degraded_windows: report.degraded_windows,
        poison_recoveries: report.poison_recoveries,
        panics_caught: panics,
        queue_depth: depth.min(u32::MAX as usize) as u32,
        queue_cap: shared.config.batcher.queue_cap.min(u32::MAX as usize) as u32,
        active_connections: shared.conns.load(Ordering::Relaxed).min(u32::MAX as usize) as u32,
        draining: shared.draining.load(Ordering::Acquire),
    })
}
