//! End-to-end integration for the network front door (`mvi-net`): a real
//! loopback server over a trained engine, exercised through the blocking
//! client. The happy path must be **transparent** — values served over the
//! wire are bitwise identical to direct engine queries — and the front
//! door's contracts (persistent connections, health surface, admission cap,
//! idle reaping) must hold as configured.
//!
//! The trained model is built once per process; every test restores its own
//! engine from the shared snapshot and binds its own ephemeral-port server.

mod common;

use common::{no_retry, wait_until, Fixture};
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_net::{ErrorCode, NetClient, NetServer, ServerConfig};
use mvi_serve::ImputationEngine;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const SERIES: usize = 3;
const T_LEN: usize = 120;

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = generate_with_shape(DatasetName::Electricity, &[SERIES], T_LEN, 17);
        let obs = Scenario::mcar(0.85).apply(&ds, 7).observed();
        Fixture::train(ds.values, obs, 10)
    })
}

fn engine() -> Arc<ImputationEngine> {
    Arc::new(fixture().engine())
}

#[test]
fn wire_values_are_bitwise_identical_to_direct_engine_queries() {
    let eng = engine();
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&eng), ServerConfig::default()).unwrap();
    let mut client = NetClient::new(server.local_addr(), no_retry());

    for (s, start, end) in [(0u32, 0u32, 40u32), (1, 25, 80), (2, 0, T_LEN as u32), (0, 90, 120)] {
        let over_wire = client.query(s, start, end).unwrap();
        let direct = eng.query(s as usize, start as usize, end as usize).unwrap();
        assert_eq!(over_wire.len(), (end - start) as usize);
        assert!(
            over_wire.iter().zip(&direct).all(|(a, b)| a.to_bits() == b.to_bits()),
            "wire values diverged from the engine for ({s}, {start}, {end})"
        );
    }
    server.shutdown();
}

#[test]
fn one_connection_serves_many_requests() {
    let server = NetServer::bind("127.0.0.1:0", engine(), ServerConfig::default()).unwrap();
    let mut client = NetClient::new(server.local_addr(), no_retry());

    for _ in 0..8 {
        assert_eq!(client.query(0, 0, 30).unwrap().len(), 30);
    }
    let stats = server.stats();
    assert_eq!(stats.accepted, 1, "a persistent client must reuse its connection");
    assert_eq!(stats.requests, 8);
    server.shutdown();
}

#[test]
fn bad_requests_come_back_as_typed_wire_errors_on_a_live_connection() {
    let server = NetServer::bind("127.0.0.1:0", engine(), ServerConfig::default()).unwrap();
    let mut client = NetClient::new(server.local_addr(), no_retry());

    // Out-of-range and unknown-series requests map to the Invalid code...
    let err = client.query(0, 50, 10_000).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Invalid), "range error must be typed: {err}");
    let err = client.query(99, 0, 10).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Invalid), "series error must be typed: {err}");
    // ...and the connection survives them: the next good request works.
    assert_eq!(client.query(0, 0, 10).unwrap().len(), 10);
    server.shutdown();
}

#[test]
fn health_frame_reports_engine_and_front_door_state_over_the_wire() {
    let config = ServerConfig::default();
    let queue_cap = config.batcher.queue_cap;
    let server = NetServer::bind("127.0.0.1:0", engine(), config).unwrap();
    let mut client = NetClient::new(server.local_addr(), no_retry());

    client.query(0, 0, 20).unwrap();
    let health = client.health().unwrap();
    assert!(!health.draining);
    assert_eq!(health.panics_caught, 0);
    assert_eq!(health.queue_cap as usize, queue_cap);
    assert_eq!(health.active_connections, 1, "the probing connection itself is active");
    assert_eq!(health.quarantined, 0);
    server.shutdown();
}

#[test]
fn admission_cap_refuses_excess_connections_with_a_typed_overload() {
    let config = ServerConfig { max_connections: 1, ..ServerConfig::default() };
    let retry_after = config.retry_after_ms;
    let server = NetServer::bind("127.0.0.1:0", engine(), config).unwrap();

    // The first client takes the only slot (the connection is established by
    // its first query and then held open)...
    let mut holder = NetClient::new(server.local_addr(), no_retry());
    holder.query(0, 0, 10).unwrap();

    // ...so a second client is refused at the door: typed, with the backoff
    // hint, and marked retryable for the client's retry loop.
    let mut excess = NetClient::new(server.local_addr(), no_retry());
    let err = excess.query(0, 0, 10).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Overloaded), "refusal must be typed: {err}");
    assert!(err.retryable(), "an admission refusal is safe to retry");
    assert_eq!(err.retry_after(), Some(Duration::from_millis(u64::from(retry_after))));
    assert!(server.stats().rejected >= 1);

    // The holder's connection is untouched by the refusal next door.
    assert_eq!(holder.query(1, 0, 10).unwrap().len(), 10);

    // Once the holder leaves, the slot frees and the excess client gets in.
    drop(holder);
    assert!(
        wait_until(Duration::from_secs(5), || server.stats().active_connections == 0),
        "closed connection must be reaped from the active count"
    );
    assert_eq!(excess.query(0, 0, 10).unwrap().len(), 10);
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_without_disturbing_active_ones() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(150),
        tick: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", engine(), config).unwrap();

    // An idle connection: established by a query, then silent.
    let mut idler = NetClient::new(server.local_addr(), no_retry());
    idler.query(0, 0, 10).unwrap();
    assert_eq!(server.stats().active_connections, 1);

    // The server reaps it well within a few idle windows.
    assert!(
        wait_until(Duration::from_secs(5), || server.stats().active_connections == 0),
        "an idle connection must be reaped, not held forever"
    );

    // A connection that keeps talking is never reaped: each completed frame
    // resets its idle budget.
    let mut active = NetClient::new(server.local_addr(), no_retry());
    for _ in 0..5 {
        assert_eq!(active.query(0, 0, 10).unwrap().len(), 10);
        std::thread::sleep(Duration::from_millis(60));
    }
    server.shutdown();
}
