//! Cross-tenant isolation over the wire: many models behind one front door
//! ([`NetServer::bind_registry`]), routed by the frame tenant id.
//!
//! The contracts pinned here:
//!
//! * **routing is bitwise** — each tenant's replies are identical to direct
//!   queries against its own model, and distinct models produce distinct
//!   values (so a routing mixup cannot hide);
//! * **isolation is real** — a hostile tenant armed to panic its model and
//!   flooding its own micro-batcher changes nothing about a victim tenant's
//!   replies (proof is progress-gated: panics must actually land first);
//! * **one protocol version** — a retired version-1 frame on the raw socket
//!   gets exactly one typed `BadFrame` reply and a closed connection;
//! * **counters survive churn** — a tenant's wire `panics_caught` never goes
//!   backwards when the registry evicts and reloads it;
//! * **registry states cross the wire typed** — unknown, mid-load and full
//!   answer with their own error codes on a connection that stays open, and
//!   the client keeps its cached connection through all three (the drop-set
//!   is exactly overload/shutdown).

mod common;

use common::{bitwise_eq, no_retry, wait_until, Fixture, SpillDir};
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_net::frame::{read_frame, RecvError};
use mvi_net::{
    ErrorCode, Frame, NetClient, NetServer, ServerConfig, DEFAULT_MAX_FRAME, DEFAULT_TENANT,
};
use mvi_serve::durable::crc32;
use mvi_serve::{ImputationEngine, ModelRegistry, RegistryConfig, ValueGuard};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

const SERIES: usize = 2;
const T_LEN: usize = 80;
const SEEDS: usize = 2;

fn fixture(seed: usize) -> &'static Fixture {
    static FIX: [OnceLock<Fixture>; SEEDS] = [const { OnceLock::new() }; SEEDS];
    FIX[seed % SEEDS].get_or_init(|| {
        let ds = generate_with_shape(DatasetName::Electricity, &[SERIES], T_LEN, 41 + seed as u64);
        let obs = Scenario::mcar(0.85).apply(&ds, 13 + seed as u64).observed();
        Fixture::train(ds.values, obs, 6)
    })
}

fn engine(seed: usize) -> Arc<ImputationEngine> {
    Arc::new(fixture(seed).engine())
}

fn registry_with(capacity: usize, dir: &SpillDir, tenants: &[(&str, usize)]) -> Arc<ModelRegistry> {
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(capacity, &dir.0)));
    for &(name, seed) in tenants {
        reg.register(name, engine(seed)).expect("fixture tenant registers");
    }
    reg
}

// ---------------------------------------------------------------------------
// Routing: per-tenant replies are bitwise their own model's
// ---------------------------------------------------------------------------

#[test]
fn tenants_route_to_their_own_models_bitwise() {
    let dir = SpillDir::new("route");
    let reg = registry_with(4, &dir, &[("acme", 0), ("globex", 1)]);
    let server = NetServer::bind_registry("127.0.0.1:0", reg, ServerConfig::default()).unwrap();

    let oracles = [engine(0), engine(1)];
    let mut acme = NetClient::with_tenant(server.local_addr(), "acme", no_retry());
    let mut globex = NetClient::with_tenant(server.local_addr(), "globex", no_retry());

    for (s, start, end) in [(0u32, 0u32, 40u32), (1, 10, T_LEN as u32)] {
        let a = acme.query(s, start, end).unwrap();
        let g = globex.query(s, start, end).unwrap();
        let (sa, sb, se) = (s as usize, start as usize, end as usize);
        assert!(bitwise_eq(&a, &oracles[0].query(sa, sb, se).unwrap()), "acme diverged");
        assert!(bitwise_eq(&g, &oracles[1].query(sa, sb, se).unwrap()), "globex diverged");
        // The two models are trained on differently-seeded data: identical
        // replies would mean the router collapsed the tenants.
        assert!(
            !bitwise_eq(&a, &g),
            "distinct tenants answered identically for ({s},{start},{end})"
        );
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Isolation: a hostile tenant cannot touch a victim's replies
// ---------------------------------------------------------------------------

#[test]
fn hostile_tenant_panics_and_floods_without_perturbing_the_victim() {
    let dir = SpillDir::new("hostile");
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(4, &dir.0)));
    reg.register("victim", engine(0)).unwrap();
    // The hostile model is armed: every forward pass panics its worker.
    let mal = engine(1);
    mal.set_eval_hook(Some(Box::new(|_results| panic!("armed hostile model"))));
    reg.register("mallory", mal).unwrap();

    let server = NetServer::bind_registry("127.0.0.1:0", reg, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Baseline: the victim's replies before any hostility.
    let mut victim = NetClient::with_tenant(addr, "victim", no_retry());
    let baseline: Vec<Vec<f64>> =
        (0..SERIES as u32).map(|s| victim.query(s, 0, T_LEN as u32).unwrap()).collect();

    // The storm: two hostile connections hammering the armed model.
    let stop = Arc::new(AtomicBool::new(false));
    let hostiles: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = NetClient::with_tenant(addr, "mallory", no_retry());
                let mut panicked = 0u64;
                while !stop.load(Ordering::Acquire) {
                    match client.query(0, 0, T_LEN as u32) {
                        Err(e) if e.code() == Some(ErrorCode::Panicked) => panicked += 1,
                        _ => {}
                    }
                }
                panicked
            })
        })
        .collect();

    // Progress gate: the drill only proves isolation once panics actually
    // land in mallory's supervisor.
    assert!(
        wait_until(Duration::from_secs(20), || server.panics_caught() >= 3),
        "the armed model must actually panic for the drill to mean anything"
    );

    // Mid-storm, the victim's replies are bitwise the baseline.
    for (s, want) in baseline.iter().enumerate() {
        let got = victim.query(s as u32, 0, T_LEN as u32).unwrap();
        assert!(bitwise_eq(want, &got), "hostile neighbor perturbed victim series {s}");
    }
    let victim_health = server.registry().tenant_health("victim").unwrap();
    assert_eq!(victim_health.poison_recoveries, 0, "victim engine saw the neighbor's panics");

    stop.store(true, Ordering::Release);
    let caught: u64 = hostiles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(caught >= 3, "hostile clients must have seen their own typed Panicked replies");

    // And after the storm the victim is still bitwise stable.
    let after = victim.query(0, 0, T_LEN as u32).unwrap();
    assert!(bitwise_eq(&baseline[0], &after));
    server.shutdown();
}

// ---------------------------------------------------------------------------
// One protocol version: a version-1 peer is a bad frame
// ---------------------------------------------------------------------------

#[test]
fn v1_frames_get_one_typed_bad_frame_reply_and_a_closed_connection() {
    let dir = SpillDir::new("v1");
    let reg = registry_with(1, &dir, &[(DEFAULT_TENANT, 0)]);
    let server = NetServer::bind_registry("127.0.0.1:0", reg, ServerConfig::default()).unwrap();

    // A pre-tenancy peer's query, byte for byte: version 1, no tenant
    // prefix, checksum over the version-1 header — well-formed in every
    // respect except the version.
    let mut payload = Vec::new();
    for field in [0u32, 0, 40] {
        payload.extend_from_slice(&field.to_le_bytes());
    }
    let mut crc_input = vec![1u8, 1]; // version 1, T_QUERY
    crc_input.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    crc_input.extend_from_slice(&payload);
    let mut bytes = b"MVIF".to_vec();
    bytes.extend_from_slice(&crc_input[..6]);
    bytes.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    sock.write_all(&bytes).unwrap();
    match read_frame(&mut sock, DEFAULT_MAX_FRAME) {
        Ok(Frame::Error(e)) => {
            assert_eq!(e.code, ErrorCode::BadFrame, "must be typed: {e:?}");
            assert!(e.message.contains("version 1"), "the reply names the version: {e:?}");
        }
        other => panic!("expected one typed bad-frame reply, got {other:?}"),
    }
    // Exactly one reply, then the server closes (the unread payload may turn
    // the close into a reset; a timeout would mean the connection lingered).
    match read_frame(&mut sock, DEFAULT_MAX_FRAME) {
        Err(RecvError::Closed) => {}
        Err(RecvError::Io(e)) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the connection must close after the bad-frame reply: {other:?}"),
    }
    assert!(
        wait_until(Duration::from_secs(10), || server.stats().bad_frames == 1),
        "the v1 frame must be counted once: {:?}",
        server.stats()
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Monotone counters across evict→reload
// ---------------------------------------------------------------------------

#[test]
fn wire_panics_caught_never_goes_backwards_across_evict_and_reload() {
    let dir = SpillDir::new("panics");
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(2, &dir.0)));
    let mal = engine(1);
    mal.set_eval_hook(Some(Box::new(|_results| panic!("armed model"))));
    reg.register("mallory", mal).unwrap();
    let server = NetServer::bind_registry("127.0.0.1:0", reg, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut tenant = NetClient::with_tenant(addr, "mallory", no_retry());
    let mut aggregate = NetClient::new(addr, no_retry());
    assert!(
        wait_until(Duration::from_secs(20), || {
            let _ = tenant.query(0, 0, T_LEN as u32);
            tenant.health().unwrap().panics_caught >= 1
        }),
        "the armed model must actually panic for the check to mean anything"
    );
    let tenant_before = tenant.health().unwrap().panics_caught;
    let aggregate_before = aggregate.health().unwrap().panics_caught;
    let server_before = server.panics_caught();

    // Evict, then one more query reloads the tenant from its spill file —
    // a new engine, so the registry spawns the tenant a new batcher.
    server.registry().evict("mallory").unwrap();
    assert_eq!(tenant.query(0, 0, 10).unwrap().len(), 10, "the reload serves again");
    assert_eq!(server.registry().stats().loads, 1, "the query must have reloaded the tenant");

    let tenant_after = tenant.health().unwrap().panics_caught;
    let aggregate_after = aggregate.health().unwrap().panics_caught;
    assert!(tenant_after >= tenant_before, "tenant count fell: {tenant_before} → {tenant_after}");
    assert!(
        aggregate_after >= aggregate_before,
        "aggregate count fell: {aggregate_before} → {aggregate_after}"
    );
    assert!(server.panics_caught() >= server_before);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Typed registry states on a live connection
// ---------------------------------------------------------------------------

#[test]
fn unknown_tenants_get_a_typed_reply_and_the_connection_survives() {
    let dir = SpillDir::new("unknown");
    let reg = registry_with(2, &dir, &[("acme", 0)]);
    let server = NetServer::bind_registry("127.0.0.1:0", reg, ServerConfig::default()).unwrap();

    let mut client = NetClient::with_tenant(server.local_addr(), "nobody", no_retry());
    let err = client.query(0, 0, 10).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::UnknownTenant), "must be typed: {err}");
    assert!(!err.retryable(), "an unknown tenant will not appear by retrying");
    let err = client.health().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::UnknownTenant), "health too: {err}");

    // The connection survived both errors: retargeting the same client to a
    // real tenant reuses it (the server accepted exactly one socket).
    client.set_tenant("acme");
    assert_eq!(client.query(0, 0, 10).unwrap().len(), 10);
    assert_eq!(server.stats().accepted, 1, "typed errors must not cost the connection");
    server.shutdown();
}

#[test]
fn loading_and_full_cross_the_wire_typed_while_connections_stay_cached() {
    let dir = SpillDir::new("gate");
    std::fs::create_dir_all(&dir.0).unwrap();
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(1, &dir.0)));
    reg.register("a", engine(0)).unwrap();
    // `b` starts cold on disk; its first request triggers the gated load.
    let cold = dir.0.join("b.mvisnap");
    engine(1).snapshot_to_path(&cold).unwrap();
    reg.register_spilled("b", &cold).unwrap();

    let release = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(Barrier::new(2));
    let (rel, ent) = (Arc::clone(&release), Arc::clone(&entered));
    reg.set_load_hook(Some(Box::new(move |_| {
        ent.wait();
        while !rel.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
    })));

    let server =
        NetServer::bind_registry("127.0.0.1:0", Arc::clone(&reg), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // The first request for `b` runs the load on its connection thread and
    // parks in the hook — with capacity 1 the load's slot evicted `a`.
    let loader =
        std::thread::spawn(move || NetClient::with_tenant(addr, "b", no_retry()).query(0, 0, 10));
    entered.wait();
    assert_eq!(reg.stats().loading, 1);

    // A second client racing `b`'s load: typed, retryable, connection kept.
    let mut racer = NetClient::with_tenant(addr, "b", no_retry());
    let err = racer.query(0, 0, 10).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::TenantLoading), "must be typed: {err}");
    assert!(err.retryable(), "a mid-load tenant is safe to retry");
    assert!(err.retry_after().is_some(), "loading replies carry the backoff hint");

    // `a` was evicted for the load and cannot reload while the only slot is
    // pinned: that is the full signal, typed and not blindly retryable.
    let mut evicted = NetClient::with_tenant(addr, "a", no_retry());
    let err = evicted.query(0, 0, 10).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::RegistryFull), "must be typed: {err}");
    assert!(!err.retryable(), "full is a capacity decision, not a transient");

    release.store(true, Ordering::Release);
    reg.set_load_hook(None);
    assert_eq!(loader.join().unwrap().unwrap().len(), 10, "the gated load must complete");

    // Both refused clients proceed on their cached connections once the
    // load lands (the hygiene contract: the drop-set is overload/shutdown
    // only, so three clients means exactly three accepted sockets).
    assert_eq!(racer.query(0, 0, 10).unwrap().len(), 10);
    assert_eq!(evicted.query(0, 0, 10).unwrap().len(), 10);
    assert_eq!(
        server.stats().accepted,
        3,
        "typed loading/full replies must not cost anyone their connection"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Health: per-tenant and aggregate views over the wire
// ---------------------------------------------------------------------------

#[test]
fn health_frames_are_per_tenant_with_an_aggregate_default_view() {
    let dir = SpillDir::new("health");
    let (a, b) = (engine(0), engine(1));
    for (eng, spikes) in [(&a, 3u64), (&b, 5u64)] {
        eng.set_value_guard(Some(ValueGuard { abs_max: Some(100.0), max_jump: None }));
        for _ in 0..spikes {
            eng.append(0, &[1.0, 5000.0, 2.0]).unwrap();
        }
    }
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(4, &dir.0)));
    reg.register("acme", a).unwrap();
    reg.register("globex", b).unwrap();
    let server = NetServer::bind_registry("127.0.0.1:0", reg, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut acme = NetClient::with_tenant(addr, "acme", no_retry());
    let mut globex = NetClient::with_tenant(addr, "globex", no_retry());
    let mut wildcard = NetClient::new(addr, no_retry());

    assert_eq!(acme.health().unwrap().quarantined, 3, "acme sees only its own counters");
    assert_eq!(globex.health().unwrap().quarantined, 5, "globex sees only its own counters");
    let whole = wildcard.health().unwrap();
    assert_eq!(whole.quarantined, 8, "the default view aggregates every tenant");
    assert_eq!(whole.active_connections, 3);
    assert!(!whole.draining);
    server.shutdown();
}
