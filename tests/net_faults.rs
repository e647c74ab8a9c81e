//! Fault drills for the network front door: every failure `mvi-net`
//! promises to survive is injected over a real loopback connection and must
//! come back as a **typed wire error or a clean reply — never a panic, a
//! hang, or a silently dropped request**:
//!
//! * a flooded server sheds load with the typed `Overloaded` code and a
//!   retry-after hint, and a client left retrying on that hint eventually
//!   succeeds once the flood passes;
//! * a stalled evaluation (injected through [`mvi_serve::EvalHook`]) frees
//!   the wire client with the typed `DeadlineExceeded` code while the
//!   connection stays usable for the next request;
//! * graceful drain answers **every** accepted request with a reply frame —
//!   real values or typed `Shutdown` — with zero lost replies;
//! * fuzzed garbage thrown at the listener never panics the server: the
//!   batcher's panic count and the fresh-request path are unchanged after
//!   the storm;
//! * a server killed mid-stream surfaces an ambiguous (non-retried) error,
//!   and the client reconnects to the restarted server through its
//!   connect-refused retry loop.
//!
//! The trained model is built once per process; every test restores its own
//! engine from the shared snapshot and binds its own ephemeral-port server.

mod common;

use common::{no_retry, wait_until, Fixture};
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_net::{ClientConfig, ErrorCode, NetClient, NetError, NetServer, RetryPolicy, ServerConfig};
use mvi_serve::{BatcherConfig, ImputationEngine};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const SERIES: usize = 3;
const T_LEN: usize = 120;

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = generate_with_shape(DatasetName::Chlorine, &[SERIES], T_LEN, 29);
        let obs = Scenario::mcar(0.85).apply(&ds, 13).observed();
        Fixture::train(ds.values, obs, 10)
    })
}

fn engine() -> Arc<ImputationEngine> {
    Arc::new(fixture().engine())
}

/// Installs an eval hook that blocks every forward pass until `release` goes
/// true — the stall/flood injection seam.
fn stall_until(eng: &ImputationEngine, release: &Arc<AtomicBool>) {
    let gate = Arc::clone(release);
    eng.set_eval_hook(Some(Box::new(move |_results| {
        while !gate.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(2));
        }
    })));
}

// ---------------------------------------------------------------------------
// Flood: typed shed + retrying client rides it out
// ---------------------------------------------------------------------------

#[test]
fn flooded_server_sheds_typed_and_a_retrying_client_eventually_succeeds() {
    let eng = engine();
    let release = Arc::new(AtomicBool::new(false));
    stall_until(&eng, &release);

    // A tiny queue behind a stalled worker: floods must shed, not buffer.
    let config = ServerConfig {
        batcher: BatcherConfig {
            max_batch: 1,
            queue_cap: 2,
            deadline: Some(Duration::from_secs(30)),
        },
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&eng), config).unwrap();
    let addr = server.local_addr();

    // One request occupies the worker inside the stalled evaluation...
    let stalled =
        std::thread::spawn(move || NetClient::new(addr, no_retry()).query(0, 0, T_LEN as u32));
    assert!(
        wait_until(Duration::from_secs(10), || eng.stats().batches >= 1),
        "the stalling request must reach the worker"
    );

    // ...then a flood over the 2-deep queue: the excess must come back as
    // the typed Overloaded code with the server's retry-after hint.
    let floods: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || NetClient::new(addr, no_retry()).query(1, 0, T_LEN as u32))
        })
        .collect();
    // A patient client retries on that same typed signal. Its first attempts
    // land in the flood and shed; once the stall releases, a retry gets in.
    let retry = RetryPolicy {
        max_attempts: 30,
        base: Duration::from_millis(20),
        max_delay: Duration::from_millis(100),
        ..RetryPolicy::default()
    };
    let patient = std::thread::spawn(move || {
        NetClient::new(addr, ClientConfig { retry, ..ClientConfig::default() }).query(
            2,
            0,
            T_LEN as u32,
        )
    });

    std::thread::sleep(Duration::from_millis(250));
    release.store(true, Ordering::Release);

    let mut shed = 0;
    for h in floods {
        match h.join().unwrap() {
            Ok(vals) => assert_eq!(vals.len(), T_LEN),
            Err(e) => {
                assert_eq!(e.code(), Some(ErrorCode::Overloaded), "flood error must be typed: {e}");
                assert!(e.retry_after().is_some(), "shed replies must carry the backoff hint");
                shed += 1;
            }
        }
    }
    assert!(shed >= 1, "a flood over a 2-deep queue must shed load");
    assert_eq!(stalled.join().unwrap().unwrap().len(), T_LEN);
    assert_eq!(
        patient.join().unwrap().expect("the retrying client must eventually succeed").len(),
        T_LEN
    );
    assert_eq!(server.panics_caught(), 0);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Deadlines: a stalled handler cannot wedge the connection
// ---------------------------------------------------------------------------

#[test]
fn stalled_evaluation_returns_deadline_code_and_the_connection_survives() {
    let eng = engine();
    let release = Arc::new(AtomicBool::new(false));
    stall_until(&eng, &release);

    let config = ServerConfig {
        batcher: BatcherConfig {
            deadline: Some(Duration::from_millis(120)),
            ..BatcherConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&eng), config).unwrap();
    let mut client = NetClient::new(server.local_addr(), no_retry());

    // The stalled evaluation frees the wire client at the deadline, typed —
    // and deadline errors are NOT retryable (the work may still complete).
    let err = client.query(0, 0, T_LEN as u32).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DeadlineExceeded), "stall must be typed: {err}");
    assert!(!err.retryable(), "a deadline expiry is ambiguous and must not auto-retry");

    // Heal the engine; the SAME connection must serve the next request —
    // a stalled handler wedges neither the client nor its socket.
    release.store(true, Ordering::Release);
    eng.set_eval_hook(None); // waits for the stalled evaluation to finish
    let healed = client.query(0, 0, 40).unwrap();
    assert_eq!(healed.len(), 40);
    assert_eq!(server.stats().accepted, 1, "the deadline reply must not cost the connection");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Graceful drain: zero lost replies
// ---------------------------------------------------------------------------

#[test]
fn graceful_drain_answers_every_accepted_request_with_zero_lost_replies() {
    let eng = engine();
    let release = Arc::new(AtomicBool::new(false));
    stall_until(&eng, &release);

    // A 1-wide batcher behind a stall: one request will be mid-evaluation
    // and the rest queued when the drain starts.
    let config = ServerConfig {
        batcher: BatcherConfig {
            max_batch: 1,
            queue_cap: 64,
            deadline: Some(Duration::from_secs(30)),
        },
        ..ServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&eng), config).unwrap();
    let addr = server.local_addr();

    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                NetClient::new(addr, no_retry()).query((i % SERIES) as u32, 0, T_LEN as u32)
            })
        })
        .collect();
    assert!(
        wait_until(Duration::from_secs(10), || eng.stats().batches >= 1),
        "the first request must reach the stalled worker"
    );
    // Give the remaining clients time to be accepted and queued, then start
    // the drain while they are all in flight; release the stall so the
    // mid-evaluation request can finish with its real answer.
    std::thread::sleep(Duration::from_millis(200));
    let unblock = {
        let release = Arc::clone(&release);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            release.store(true, Ordering::Release);
        })
    };
    server.shutdown(); // blocks until every reply is written and every thread joined

    let mut answered = 0usize;
    let mut drained = 0usize;
    for h in clients {
        match h.join().unwrap() {
            // The in-flight request (and any served before the drain) gets
            // its real values...
            Ok(vals) => {
                assert_eq!(vals.len(), T_LEN);
                answered += 1;
            }
            // ...and every queued request gets the typed drain reply. What
            // can NEVER happen is a transport-level loss: an Io/Frame error
            // would mean a request died without a reply frame.
            Err(e) => match e.code() {
                Some(ErrorCode::Shutdown) => drained += 1,
                other => panic!("lost reply: {e} (code {other:?})"),
            },
        }
    }
    unblock.join().unwrap();
    assert_eq!(answered + drained, 8, "every accepted request must be answered");
    assert!(answered >= 1, "the mid-drain evaluation must complete with real values");
    assert!(drained >= 1, "queued requests must receive the typed Shutdown frame");
}

// ---------------------------------------------------------------------------
// Fuzzed frames: the storm leaves no mark
// ---------------------------------------------------------------------------

#[test]
fn fuzzed_garbage_never_panics_the_server_and_leaves_it_serving() {
    let eng = engine();
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&eng), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // A healthy query first, so the post-storm comparison is honest.
    let mut client = NetClient::new(addr, no_retry());
    let before = client.query(0, 0, 60).unwrap();
    assert_eq!(server.panics_caught(), 0);

    // The storm: raw sockets throwing garbage, truncations, bit flips and
    // hostile length prefixes at the listener. A deterministic xorshift
    // drives the payloads so failures replay.
    let mut rng = 0x006e_6574_5f66_757a_u64 | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let valid = mvi_net::frame::encode(&mvi_net::Frame::Query {
        tenant: String::new(),
        s: 0,
        start: 0,
        end: 60,
    });
    for round in 0..40 {
        let mut bytes = match round % 4 {
            // Pure garbage.
            0 => (0..(next() % 64 + 1)).map(|_| (next() & 0xff) as u8).collect::<Vec<u8>>(),
            // A valid frame cut short (the close is the injection).
            1 => valid[..(next() as usize % (valid.len() - 1)) + 1].to_vec(),
            // A valid frame with one flipped bit.
            2 => {
                let mut b = valid.clone();
                let i = next() as usize % b.len();
                b[i] ^= 1 << (next() % 8);
                b
            }
            // A hostile length prefix: header promises ~4 GiB.
            _ => {
                let mut b = Vec::new();
                b.extend_from_slice(b"MVIF\x02\x01");
                b.extend_from_slice(&0xffff_fff0u32.to_le_bytes());
                b.extend_from_slice(&(next() as u32).to_le_bytes());
                b
            }
        };
        if round % 4 == 2 && bytes == valid {
            bytes[0] ^= 0xff; // ensure the flip actually corrupted something
        }
        if let Ok(mut sock) = TcpStream::connect(addr) {
            let _ = sock.write_all(&bytes);
            // Half the storm slams both directions shut instead of closing
            // cleanly (the drop below is the clean path).
            if next() & 1 == 0 {
                let _ = sock.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    // The storm must be fully absorbed: the acceptor works through the
    // backlog (garbage counted as typed bad-frame closures)...
    assert!(
        wait_until(Duration::from_secs(10), || server.stats().bad_frames >= 10),
        "undecodable frames must be counted: {:?}",
        server.stats()
    );
    // ...the attack connections are reaped down to the one healthy client...
    assert!(
        wait_until(Duration::from_secs(10), || server.stats().active_connections == 1),
        "attack connections must be reaped (got {:?})",
        server.stats()
    );
    // ...no panic reached the supervisor, and the healthy connection still
    // serves identical values.
    assert_eq!(server.panics_caught(), 0, "fuzzed frames must never panic the server");
    let after = client.query(0, 0, 60).unwrap();
    assert!(before.iter().zip(&after).all(|(a, b)| a.to_bits() == b.to_bits()));
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Kill mid-stream: ambiguity surfaces, reconnect succeeds
// ---------------------------------------------------------------------------

#[test]
fn killed_server_surfaces_ambiguity_and_the_client_reconnects_through_restart() {
    let eng = engine();
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&eng), ServerConfig::default()).unwrap();

    let retry = RetryPolicy {
        max_attempts: 40,
        base: Duration::from_millis(25),
        max_delay: Duration::from_millis(100),
        ..RetryPolicy::default()
    };
    let mut client =
        NetClient::new(server.local_addr(), ClientConfig { retry, ..ClientConfig::default() });
    let before = client.query(0, 0, 50).unwrap();

    // Kill (crash-style: no drain). The client's next call dies mid-exchange
    // with an AMBIGUOUS error — in-flight work is never auto-retried, so the
    // failure must surface as Io/ambiguity, not spin in the retry loop.
    server.kill();
    match client.query(0, 0, 50) {
        Err(NetError::Io { .. }) => {}
        // If the OS tore the socket down before the write, the attempt never
        // started — that path retries connect until exhaustion, still typed.
        Err(NetError::Exhausted { last, .. }) => {
            assert!(matches!(*last, NetError::Connect { .. }), "exhausted on {last}")
        }
        Err(NetError::Connect { .. }) => {}
        other => panic!("query against a killed server: {other:?}"),
    }

    // Restart elsewhere (std has no SO_REUSEADDR, so the old port may sit in
    // TIME_WAIT — real restarts move behind a load balancer anyway): reserve
    // a port, point the client at it, and bring the server up AFTER the
    // client has started calling. The connect-refused retry loop must carry
    // the client across the gap.
    let parked = TcpListener::bind("127.0.0.1:0").unwrap();
    let new_addr = parked.local_addr().unwrap();
    drop(parked);
    client.redirect(new_addr);

    let restarted = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        NetServer::bind(new_addr, eng, ServerConfig::default())
    });
    let after = client.query(0, 0, 50).expect("retry across the restart gap must succeed");
    assert!(before.iter().zip(&after).all(|(a, b)| a.to_bits() == b.to_bits()));

    let server = restarted.join().unwrap().expect("restart must bind the reserved port");
    assert!(server.stats().accepted >= 1);
    server.shutdown();
}
