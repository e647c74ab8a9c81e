//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial, reflected, initial value and
//! final xor `0xffff_ffff`): the digest of every snapshot section and every
//! network frame.
//!
//! Two paths compute the same digest bit for bit:
//!
//! * **Carry-less multiply** (x86-64 with `pclmulqdq` and `sse4.1`, inputs
//!   of at least 128 bytes). Four 128-bit accumulators fold 64 bytes per
//!   step, fold into one, fold the remaining 16-byte blocks, and a Barrett
//!   reduction brings the 64-bit remainder to 32 bits (Gopal et al., "Fast
//!   CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel, 2009). The bytes past the last 16-byte block go through the
//!   table loop.
//! * **Slice-by-8** everywhere else: eight table lookups per eight bytes,
//!   then a bytewise tail. Other hosts (aarch64 included) always take it.
//!
//! The path is picked per call at run time ([`path_for`]); [`Crc32`] streams
//! a digest over several slices, so a caller can cover a header and a
//! payload without first copying them into one buffer.

/// The CRC-32 generator polynomial, normal bit order with the `x^32` term.
const POLY: u64 = 0x1_04c1_1db7;

/// Shortest input the carry-less-multiply path takes: below it, the setup
/// and the reduction cost more than the table loop saves.
const CLMUL_MIN_LEN: usize = 128;

/// Slice-by-8 lookup tables: `[0]` is the classic bytewise table, `[k]`
/// advances a byte through `k` further zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let reflected = (POLY as u32).reverse_bits();
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { reflected ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Which implementation digests an input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// The x86-64 carry-less-multiply folding loop.
    Clmul,
    /// The portable slice-by-8 table loop.
    SliceBy8,
}

/// The path [`Crc32::update`] takes for an input of `len` bytes on this
/// host.
pub fn path_for(len: usize) -> Path {
    #[cfg(target_arch = "x86_64")]
    if len >= CLMUL_MIN_LEN
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        return Path::Clmul;
    }
    let _ = len; // no other host has a length-dependent path
    Path::SliceBy8
}

/// CRC-32 of `bytes`, on the fastest path this host has.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// CRC-32 of `bytes` on the slice-by-8 path whatever the host: the
/// reference the dispatched path is tested and benchmarked against.
pub fn crc32_portable(bytes: &[u8]) -> u32 {
    !slice_by_8(!0, bytes)
}

/// A CRC-32 computed over several slices in turn:
/// `Crc32::new().update(a).update(b).finish()` equals [`crc32`] of `a`
/// followed by `b`.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    /// The shift register before the final xor.
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The digest of no bytes.
    pub const fn new() -> Self {
        Self { state: !0 }
    }

    /// Digests `bytes` after everything digested so far.
    #[must_use]
    pub fn update(self, bytes: &[u8]) -> Self {
        #[cfg(target_arch = "x86_64")]
        if path_for(bytes.len()) == Path::Clmul {
            // SAFETY: `path_for` returns `Clmul` only after detecting
            // `pclmulqdq` and `sse4.1`, the features `clmul::update` enables.
            return Self { state: unsafe { clmul::update(self.state, bytes) } };
        }
        Self { state: slice_by_8(self.state, bytes) }
    }

    /// The CRC-32 of every byte digested.
    pub const fn finish(self) -> u32 {
        !self.state
    }
}

/// Advances the shift register `c` over `bytes`, eight bytes per step.
fn slice_by_8(mut c: u32, bytes: &[u8]) -> u32 {
    let t = |k: usize, v: u32| TABLES[k][(v & 0xff) as usize];
    let (words, tail) = bytes.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ c;
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        c = t(7, lo)
            ^ t(6, lo >> 8)
            ^ t(5, lo >> 16)
            ^ t(4, lo >> 24)
            ^ t(3, hi)
            ^ t(2, hi >> 8)
            ^ t(1, hi >> 16)
            ^ t(0, hi >> 24);
    }
    for &b in tail {
        c = t(0, c ^ u32::from(b)) ^ (c >> 8);
    }
    c
}

/// `x^n mod P(x)`, normal bit order.
const fn x_pow_mod(n: u32) -> u32 {
    let mut r: u64 = 1;
    let mut i = 0;
    while i < n {
        r <<= 1;
        if r & (1 << 32) != 0 {
            r ^= POLY;
        }
        i += 1;
    }
    r as u32
}

/// A folding constant: `x^n mod P(x)`, bit-reflected and shifted left by
/// one, as the reflected carry-less products expect.
const fn fold_key(n: u32) -> u64 {
    (x_pow_mod(n).reverse_bits() as u64) << 1
}

/// `⌊x^64 / P(x)⌋`, the Barrett constant, bit-reflected over its 33 bits.
const fn barrett_mu() -> u64 {
    let mut rem: u128 = 1 << 64;
    let mut quot: u64 = 0;
    let mut bit = 64;
    while bit >= 32 {
        if rem & (1 << bit) != 0 {
            quot |= 1 << (bit - 32);
            rem ^= (POLY as u128) << (bit - 32);
        }
        bit -= 1;
    }
    quot.reverse_bits() >> 31
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::{barrett_mu, fold_key, slice_by_8, POLY};
    use std::arch::x86_64::*;

    /// Folds a 128-bit accumulator across 4 × 128 bits (low, high lane).
    const FOLD_4: (u64, u64) = (fold_key(4 * 128 + 32), fold_key(4 * 128 - 32));
    /// Folds a 128-bit accumulator across 128 bits (low, high lane).
    const FOLD_1: (u64, u64) = (fold_key(128 + 32), fold_key(128 - 32));
    /// Folds the last 32 bits of the 96-bit remainder into 64.
    const FOLD_64: u64 = fold_key(64);
    /// `P(x)` bit-reflected over its 33 bits.
    const P_REFLECTED: u64 = (POLY as u32).reverse_bits() as u64 * 2 + 1;
    /// The Barrett constant μ.
    const MU: u64 = barrett_mu();
    /// The low 32 bits of a lane.
    const LOW_32: i32 = -1;

    /// `(lo, hi)` as one 128-bit register, `lo` in the low lane. Listing
    /// `sse2` is what makes its intrinsics safe to call here, though every
    /// x86-64 CPU has it.
    #[target_feature(enable = "sse2")]
    fn keys((lo, hi): (u64, u64)) -> __m128i {
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// One unaligned 16-byte load.
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `next ^ acc·x^k`: carries `acc` forward past the bits the keys span.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }

    /// Advances the shift register `state` over `bytes`; inputs under 64
    /// bytes go through the table loop whole.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let Some((first, rest)) = blocks.split_first_chunk::<4>() else {
            return slice_by_8(state, bytes);
        };
        let mut acc = first.map(|b| load(&b));
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));

        let fold_4 = keys(FOLD_4);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (a, b) in acc.iter_mut().zip(quad) {
                *a = fold(*a, load(b), fold_4);
            }
        }
        let fold_1 = keys(FOLD_1);
        let mut x = fold(acc[0], acc[1], fold_1);
        x = fold(x, acc[2], fold_1);
        x = fold(x, acc[3], fold_1);
        for b in singles {
            x = fold(x, load(b), fold_1);
        }

        // 128 → 96 bits (the low lane times x^96), then 96 → 64 bits.
        let low_32 = _mm_set_epi32(0, 0, 0, LOW_32);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, fold_1, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low_32), keys((FOLD_64, 0)), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction, reflected: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P, and the CRC is the high half of R ^ T2.
        let p_mu = keys((P_REFLECTED, MU));
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low_32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low_32), p_mu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        slice_by_8(c, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The plain bytewise CRC-32 loop the slice-by-8 version replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_portable(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32_portable(b""), 0);
    }

    #[test]
    fn derived_constants_match_the_published_ones() {
        // The fold and Barrett constants of Gopal et al. for the reflected
        // IEEE polynomial.
        assert_eq!(fold_key(4 * 128 + 32), 0x1_5444_2bd4);
        assert_eq!(fold_key(4 * 128 - 32), 0x1_c6e4_1596);
        assert_eq!(fold_key(128 + 32), 0x1_7519_97d0);
        assert_eq!(fold_key(128 - 32), 0x0_ccaa_009e);
        assert_eq!(fold_key(64), 0x1_63cd_6124);
        assert_eq!(barrett_mu(), 0x1_f701_1641);
    }

    /// On an x86-64 host with the instructions, inputs from the threshold
    /// up take the carry-less-multiply path, so the tests below cover it
    /// and not only the table loop.
    #[test]
    fn the_clmul_path_is_taken_where_the_host_has_it() {
        assert_eq!(path_for(0), Path::SliceBy8);
        assert_eq!(path_for(CLMUL_MIN_LEN - 1), Path::SliceBy8);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            assert_eq!(path_for(CLMUL_MIN_LEN), Path::Clmul);
            assert_eq!(path_for(732_693), Path::Clmul);
            return;
        }
        assert_eq!(path_for(732_693), Path::SliceBy8);
    }

    /// Every way of cutting a buffer into two or three streamed slices
    /// gives the one-shot digest.
    #[test]
    fn streaming_splits_match_the_one_shot_digest() {
        let buf: Vec<u8> =
            (0..700u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        let whole = crc32(&buf);
        for cut in 0..=buf.len() {
            let (a, b) = buf.split_at(cut);
            assert_eq!(Crc32::new().update(a).update(b).finish(), whole, "cut at {cut}");
        }
        for cut in (0..=buf.len()).step_by(7) {
            for second in (cut..=buf.len()).step_by(13) {
                let digest = Crc32::new()
                    .update(&buf[..cut])
                    .update(&buf[cut..second])
                    .update(&buf[second..])
                    .finish();
                assert_eq!(digest, whole, "cuts at {cut} and {second}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slice-by-8 agrees with the bytewise loop on every length and
        /// alignment: the word loop, the tail loop and their seam.
        #[test]
        fn slice_by_8_matches_the_bytewise_loop(
            buf in proptest::collection::vec(any::<u8>(), 0..4104usize),
            start in 0usize..8,
        ) {
            let bytes = buf.get(start.min(buf.len())..).unwrap_or_default();
            prop_assert_eq!(crc32_portable(bytes), crc32_bytewise(bytes));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The dispatched path, the portable path and the bytewise loop
        /// agree on every length from 0 to 4,200 at every start offset
        /// from 0 to 15: the table loop below the threshold, and above it
        /// the 64-byte folding loop, the 16-byte loop and the tail.
        #[test]
        fn every_path_agrees_on_every_length_and_offset(
            buf in proptest::collection::vec(any::<u8>(), 4215..=4215usize),
        ) {
            for start in 0..16 {
                for len in 0..=4200 {
                    let bytes = &buf[start..start + len];
                    let reference = crc32_bytewise(bytes);
                    let portable = crc32_portable(bytes);
                    prop_assert!(portable == reference, "portable: start {start} len {len}");
                    let dispatched = crc32(bytes);
                    prop_assert!(dispatched == reference, "dispatched: start {start} len {len}");
                }
            }
        }

        /// Streaming over random cuts, with both pieces long enough for the
        /// folding loop, matches the one-shot digest.
        #[test]
        fn streamed_long_pieces_match_the_one_shot_digest(
            buf in proptest::collection::vec(any::<u8>(), 0..9000usize),
            cuts in proptest::collection::vec(0usize..9000, 0..4),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(buf.len())).collect();
            cuts.sort_unstable();
            let mut digest = Crc32::new();
            let mut from = 0;
            for &cut in &cuts {
                digest = digest.update(&buf[from..cut]);
                from = cut;
            }
            prop_assert_eq!(digest.update(&buf[from..]).finish(), crc32_bytewise(&buf));
        }
    }
}
