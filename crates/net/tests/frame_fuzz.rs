//! Property fuzzing for the wire codec: decoding must be **total**. Every
//! byte sequence — random garbage, truncations of valid frames, single bit
//! flips, hostile length prefixes, arbitrary-UTF-8 tenant ids — maps to
//! either a decoded frame or a typed [`FrameError`]; nothing may panic,
//! hang, or allocate according to an unvalidated length. The tenancy
//! properties additionally pin that an oversized tenant-id claim on the wire
//! is malformed — it can never desync the stream, because the outer length
//! prefix bounds the payload no matter what the tenant field says.

use mvi_net::frame::{decode, encode, read_frame, RecvError, VERSION};
use mvi_net::{ErrorCode, Frame, FrameError, WireError, DEFAULT_MAX_FRAME, MAX_TENANT_LEN};
use proptest::prelude::*;
use std::io::Cursor;

/// A representative frame to mutate, picked by index so every property
/// exercises all payload layouts (with and without a tenant id riding along).
fn sample_frame(which: usize, knob: u32) -> Frame {
    let tenant = match which % 3 {
        0 => String::new(),
        1 => "acme".to_string(),
        _ => "tenant-βeta".repeat((knob % 4) as usize + 1),
    };
    match which % 4 {
        0 => {
            Frame::Query { tenant, s: knob, start: knob.wrapping_mul(3), end: knob.wrapping_mul(7) }
        }
        1 => Frame::Values {
            tenant,
            values: (0..(knob % 17) as usize).map(|i| i as f64 * 0.5 - 3.0).collect(),
        },
        2 => Frame::Error(WireError {
            code: ErrorCode::Overloaded,
            retry_after_ms: knob,
            message: "q".repeat((knob % 40) as usize),
        }),
        _ => Frame::HealthReq { tenant },
    }
}

/// Short ASCII tenant ids (the vendored proptest has no regex strategies).
fn tenant_ascii() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..36, 0..24)
        .prop_map(|v| v.into_iter().map(|d| char::from_digit(d, 36).unwrap_or('x')).collect())
}

/// Arbitrary Unicode tenant ids: code points sampled across the whole
/// scalar-value space (surrogates filtered), lengths well past the wire cap
/// once multi-byte encodings are counted.
fn tenant_unicode() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..40)
        .prop_map(|v| v.into_iter().map(|b| b % 0x11_0000).filter_map(char::from_u32).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Pure garbage: `decode` returns `Ok` or a typed error for every input —
    /// by construction of the test it cannot panic, and the streaming
    /// `read_frame` path must agree (modulo `Closed` for an empty stream).
    #[test]
    fn arbitrary_bytes_decode_totally(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        // Both entry points must survive the same hostile input.
        let _ = decode(&bytes, DEFAULT_MAX_FRAME);
        match read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_FRAME) {
            Ok(_) | Err(RecvError::Closed) | Err(RecvError::Frame(_)) => {}
            Err(RecvError::Io(e)) => prop_assert!(false, "in-memory read cannot fail i/o: {e}"),
        }
    }

    /// Every strict truncation of a valid frame is a typed error — never a
    /// decode of wrong data, never a panic.
    #[test]
    fn truncations_fail_typed(which in 0usize..12, knob in 0u32..1000, cut in 0usize..100) {
        let bytes = encode(&sample_frame(which, knob));
        let keep = cut % bytes.len(); // strictly shorter than the full frame
        match decode(&bytes[..keep], DEFAULT_MAX_FRAME) {
            Err(FrameError::Truncated { .. }) => {}
            Err(other) => prop_assert!(false, "cut at {keep}: unexpected error {other}"),
            Ok(_) => prop_assert!(false, "cut at {keep} must not decode"),
        }
        // The stream path: EOF before any byte is a clean close; EOF
        // mid-frame is typed truncation.
        match read_frame(&mut Cursor::new(&bytes[..keep]), DEFAULT_MAX_FRAME) {
            Err(RecvError::Closed) => prop_assert!(keep == 0, "Closed only before byte 0"),
            Err(RecvError::Frame(FrameError::Truncated { .. })) => prop_assert!(keep > 0),
            other => prop_assert!(false, "cut at {keep}: unexpected outcome {other:?}"),
        }
    }

    /// A single flipped bit anywhere in a valid frame — magic, version,
    /// type, length, checksum, tenant field, or payload — is always caught
    /// as a typed error. The CRC covers everything after the magic,
    /// including the length field and the tenant prefix, so no flip can
    /// smuggle wrong data (or another tenant's id) through.
    #[test]
    fn single_bit_flips_fail_typed(
        which in 0usize..12, knob in 0u32..1000, pos in 0usize..10_000, bit in 0u8..8,
    ) {
        let mut bytes = encode(&sample_frame(which, knob));
        let i = pos % bytes.len();
        bytes[i] ^= 1 << bit;
        match decode(&bytes, DEFAULT_MAX_FRAME) {
            Err(_) => {}
            Ok((frame, _)) => {
                prop_assert!(false, "flip at byte {i} bit {bit} decoded silently: {frame:?}")
            }
        }
    }

    /// Hostile length prefixes beyond the cap are rejected from the header
    /// alone — before any payload-sized buffer exists. A 4 GiB length costs
    /// the attacker 14 bytes and the server a typed `Oversized` error.
    #[test]
    fn oversized_lengths_rejected_before_allocation(
        over in 1u32..0x7fff_0000, fill in any::<u8>(),
    ) {
        let max = 4096u32;
        let len = max.saturating_add(over);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"MVIF");
        bytes.push(VERSION);
        bytes.push(1); // T_QUERY
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&[fill; 4]); // whatever checksum
        match decode(&bytes, max) {
            Err(FrameError::Oversized { len: got, max: m }) => {
                prop_assert!(got == len && m == max);
            }
            other => prop_assert!(false, "declared len {len}: unexpected {other:?}"),
        }
    }

    /// Random query and values frames roundtrip bit-exactly (values compared
    /// by bits so the property holds for every f64, NaN included).
    #[test]
    fn random_frames_roundtrip(
        tenant in tenant_ascii(),
        s in any::<u32>(), start in any::<u32>(), end in any::<u32>(),
        value_bits in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let query = Frame::Query { tenant: tenant.clone(), s, start, end };
        let (decoded, used) = decode(&encode(&query), DEFAULT_MAX_FRAME)
            .map_err(|e| TestCaseError::fail(format!("query roundtrip: {e}")))?;
        prop_assert!(decoded == query && used == encode(&query).len());

        let values: Vec<f64> = value_bits.iter().map(|b| f64::from_bits(*b)).collect();
        let encoded = encode(&Frame::Values { tenant, values: values.clone() });
        let (decoded, used) = decode(&encoded, DEFAULT_MAX_FRAME)
            .map_err(|e| TestCaseError::fail(format!("values roundtrip: {e}")))?;
        prop_assert!(used == encoded.len());
        match decoded {
            Frame::Values { values: out, .. } => {
                prop_assert!(out.len() == values.len());
                for (a, b) in out.iter().zip(&values) {
                    prop_assert!(a.to_bits() == b.to_bits());
                }
            }
            other => prop_assert!(false, "values decoded as {other:?}"),
        }
    }

    /// Arbitrary UTF-8 tenant ids of arbitrary lengths: encoding always
    /// produces a decodable frame whose tenant is a ≤64-byte prefix of the
    /// original, cut at a character boundary — total, no panic, no desync
    /// (the remainder of the payload still parses).
    #[test]
    fn arbitrary_utf8_tenants_encode_totally(
        tenant in tenant_unicode(), which in 0usize..12, knob in 0u32..1000,
    ) {
        let frame = match sample_frame(which, knob) {
            Frame::Query { s, start, end, .. } => {
                Frame::Query { tenant: tenant.clone(), s, start, end }
            }
            Frame::Values { values, .. } => Frame::Values { tenant: tenant.clone(), values },
            Frame::Health { health, .. } => Frame::Health { tenant: tenant.clone(), health },
            _ => Frame::HealthReq { tenant: tenant.clone() },
        };
        let bytes = encode(&frame);
        let (decoded, used) = decode(&bytes, DEFAULT_MAX_FRAME)
            .map_err(|e| TestCaseError::fail(format!("tenant `{tenant:?}`: {e}")))?;
        prop_assert!(used == bytes.len());
        let echoed = decoded.tenant().map(str::to_owned).unwrap_or_default();
        prop_assert!(echoed.len() <= MAX_TENANT_LEN);
        prop_assert!(
            tenant.starts_with(&echoed),
            "decoded tenant {echoed:?} is not a prefix of {tenant:?}"
        );
        if tenant.len() <= MAX_TENANT_LEN {
            prop_assert!(echoed == tenant, "an in-cap tenant must survive unmodified");
        }
    }

    /// A tenant-length byte claiming more than the cap is malformed — and
    /// because the outer header bounds the payload, the bytes after the bad
    /// frame still decode: no desync.
    #[test]
    fn oversized_tenant_claims_are_malformed_never_desync(
        claim in (MAX_TENANT_LEN as u8 + 1)..=u8::MAX, body_len in 0usize..40,
    ) {
        // Hand-build a health-req with a hostile tenant length byte,
        // CRC'd correctly so only the tenant check can reject it.
        let mut payload = vec![claim];
        payload.extend(std::iter::repeat_n(b'x', body_len));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"MVIF");
        bytes.push(VERSION);
        bytes.push(4); // T_HEALTH_REQ
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let mut crc_input = vec![VERSION, 4];
        crc_input.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        crc_input.extend_from_slice(&payload);
        bytes.extend_from_slice(&mvi_serve::durable::crc32(&crc_input).to_le_bytes());
        bytes.extend_from_slice(&payload);
        // The hostile frame itself: typed malformed.
        match decode(&bytes, DEFAULT_MAX_FRAME) {
            Err(FrameError::Malformed { .. }) => {}
            other => prop_assert!(false, "claim {claim}: unexpected {other:?}"),
        }
        // No desync: a clean frame appended after it decodes from the byte
        // right past the hostile frame's declared end.
        let clean = encode(&Frame::HealthReq { tenant: "ok".into() });
        let offset = bytes.len();
        bytes.extend_from_slice(&clean);
        let (frame, used) = decode(&bytes[offset..], DEFAULT_MAX_FRAME)
            .map_err(|e| TestCaseError::fail(format!("resync failed: {e}")))?;
        prop_assert!(used == clean.len());
        prop_assert!(frame == Frame::HealthReq { tenant: "ok".into() });
    }
}
