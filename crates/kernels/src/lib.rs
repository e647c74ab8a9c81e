//! Cache-blocked, register-tiled, parallel `f64` compute kernels, and the
//! workspace's CRC-32 ([`crc32`]).
//!
//! This crate is the workspace's performance layer, and the one crate that
//! holds `unsafe` SIMD code behind run-time feature detection: the
//! hand-written AVX-512 GEMM tile below, and the carry-less-multiply CRC-32
//! that checksums every snapshot file and network frame ([`crc32`] documents
//! its two paths). Every dense matmul in the repo — the baselines'
//! factorization inner loops through `mvi_linalg::ops` and the autograd
//! matmul nodes behind DeepMVI's attention — lowers to the slice-level
//! kernels here. The matmul design (see `PERFORMANCE.md`):
//!
//! * **Register tiling.** The GEMM core is a register-accumulator
//!   microkernel: each output tile accumulates in SIMD registers across the
//!   *entire* shared dimension and touches memory once, so the inner loop
//!   issues one `B` vector load plus a handful of `A` scalar loads per tile
//!   of FMAs, instead of the seed `ikj` loop's load+store of the `C` row on
//!   every k step. Two variants dispatch at runtime: a hand-written 8×16
//!   AVX-512 kernel (16 zmm accumulators) when the CPU supports it, else a
//!   portable [`MR`]×[`NR`] (4×8) kernel whose fixed-width unrolled loops
//!   autovectorize without fast-math (each accumulator is an independent
//!   chain).
//! * **Cache blocking.** Column tiles are the outer loop, so the active `B`
//!   panel (`k × NR` ≈ 16 KB at k = 256) stays L1-resident while the row
//!   tiles sweep over it; `A` rows stream sequentially.
//! * **Parallelism.** Above [`PAR_FLOPS_PER_THREAD`] of work, output rows are
//!   split into contiguous spans via `mvi_parallel` — each worker owns a
//!   disjoint `&mut` span of `C`, so the kernels stay safe Rust with no
//!   synchronization in the inner loops. Worker counts are capped at the
//!   machine's available (logical-CPU) parallelism — oversubscribing that
//!   only hurts here.
//! * **Row invariance.** Every path of `matmul`, `matmul_tn` and
//!   `matmul_nt` (the AVX-512 tile, the portable tile, the row and column
//!   tails and `matmul_nt`'s dot tile) computes an output element as one
//!   `f64::mul_add` chain over `k` in ascending order, starting from the
//!   incoming `C` value. A row's bits therefore do
//!   not depend on `m`, `n`, where the row falls in the tiling or how rows
//!   are split across workers: row `i` of a product equals the 1-row
//!   product of row `i` of `A`, bit for bit. The model's K/V tables rely on
//!   this, and so does training's agreement with a full-row reference.
//!
//! All matmul kernels *accumulate* (`C += ...`) into a caller-provided
//! buffer, which lets callers fuse the zero-init or chain updates. Unlike the
//! seed kernels there is no `a == 0.0` skip: dense branch-free loops are
//! faster on the dense matrices these paths see, at the (accepted) cost that
//! a `0 × NaN` product now propagates instead of being skipped.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod crc32;

/// Output rows per register tile.
pub const MR: usize = 4;

/// Output columns per register tile of the portable kernel (MR·NR = 32 f64
/// accumulators — eight AVX2 vectors, leaving registers for the `B` row and
/// the broadcast `A` coefficients; measured faster than both a 6×8 tile and
/// 512-bit *autovectorized* codegen — the AVX-512 win needed the
/// hand-written microkernel in \[`avx512`\]).
pub const NR: usize = 8;

/// Minimum multiply-add flops of work per worker thread before the outer loop
/// parallelizes; below this, spawn overhead would dominate.
pub const PAR_FLOPS_PER_THREAD: usize = 1 << 21;

/// Worker count for a kernel invocation doing `flops` multiply-adds.
#[inline]
fn threads_for(flops: usize) -> usize {
    (flops / PAR_FLOPS_PER_THREAD).clamp(1, mvi_parallel::current_threads())
}

// ---------------------------------------------------------------------------
// GEMM: C += A · B
// ---------------------------------------------------------------------------

/// `C += A · B` for row-major `A: [m,k]`, `B: [k,n]`, `C: [m,n]`.
///
/// # Panics
/// Panics if a slice length does not match its shape.
pub fn matmul(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "matmul: A buffer/shape mismatch");
    assert_eq!(b.len(), k * n, "matmul: B buffer/shape mismatch");
    assert_eq!(c.len(), m * n, "matmul: C buffer/shape mismatch");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let threads = threads_for(m * k * n);
    mvi_parallel::for_row_spans_mut(c, n, threads, |first_row, c_span| {
        let rows = c_span.len() / n;
        let a_span = &a[first_row * k..(first_row + rows) * k];
        serial_matmul_nn(rows, k, n, a_span, b, c_span);
    });
}

/// Serial register-tiled `C += A · B` on a row span (A addressed row-major,
/// coefficient of row `r`, step `kk` at `a[r·k + kk]`).
fn serial_matmul_nn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    serial_gemm(m, k, n, a, k, 1, b, c);
}

/// Tiled GEMM driver dispatch: `C_span += coeff · B` where the `A`
/// coefficient of (local row `r`, k-step `kk`) sits at
/// `a[r·a_row + kk·a_k]`. Uses the hand-written AVX-512 microkernel when the
/// CPU has it and the output is big enough to fill its 8×16 tile; otherwise
/// the portable autovectorized [`MR`]×[`NR`] path.
#[allow(clippy::too_many_arguments)]
fn serial_gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    a_row: usize,
    a_k: usize,
    b: &[f64],
    c: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if m >= avx512::TM && n >= avx512::TN && is_x86_feature_detected!("avx512f") {
        return avx512::gemm_tiled(m, k, n, a, a_row, a_k, b, c);
    }
    serial_gemm_tiled(m, k, n, a, a_row, a_k, b, c)
}

/// The portable tiled driver. Column tiles run outermost so each `B` panel
/// (`k × NR`) stays L1-resident across every row tile; each [`MR`]×[`NR`]
/// output tile accumulates in registers over the *entire* k loop and touches
/// memory once.
#[allow(clippy::too_many_arguments)]
fn serial_gemm_tiled(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    a_row: usize,
    a_k: usize,
    b: &[f64],
    c: &mut [f64],
) {
    let jd = n - n % NR;
    let id = m - m % MR;
    let mut j = 0;
    while j < jd {
        let mut i = 0;
        while i < id {
            micro_tile::<MR>(k, a, i * a_row, a_row, a_k, b, j, n, c, i * n + j);
            i += MR;
        }
        j += NR;
    }
    gemm_tails(m, k, id, jd, n, a, a_row, a_k, b, c);
}

/// Shared remainder handling for the tiled drivers: row tail (`id..m`) over
/// the tiled columns `[0, jd)`, then column tail (`jd..n`) over every row,
/// both as [`fma_row`] updates in ascending `k`.
#[allow(clippy::too_many_arguments)]
fn gemm_tails(
    m: usize,
    k: usize,
    id: usize,
    jd: usize,
    n: usize,
    a: &[f64],
    a_row: usize,
    a_k: usize,
    b: &[f64],
    c: &mut [f64],
) {
    for i in id..m {
        for kk in 0..k {
            let x = a[i * a_row + kk * a_k];
            fma_row(&mut c[i * n..i * n + jd], x, &b[kk * n..kk * n + jd]);
        }
    }
    if jd < n {
        for i in 0..m {
            for kk in 0..k {
                let x = a[i * a_row + kk * a_k];
                fma_row(&mut c[i * n + jd..(i + 1) * n], x, &b[kk * n + jd..(kk + 1) * n]);
            }
        }
    }
}

/// `y[j] = alpha · x[j] + y[j]` with one rounding per element
/// (`f64::mul_add`): the GEMM tails' row update. Unlike the public [`axpy`],
/// it rounds exactly as the tiles' accumulators do, so a tail element is the
/// same FMA chain as a tile element.
#[inline]
fn fma_row(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv = alpha.mul_add(xv, *yv);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! Runtime-dispatched AVX-512 GEMM tile path.
    //!
    //! The autovectorized [`super::micro_tile`] plateaus at ~57% of AVX2 FMA
    //! peak; this hand-written 8×16 microkernel (16 zmm accumulators, two
    //! `B` vector loads + eight broadcasts per 16 FMAs) roughly doubles the
    //! per-core ceiling on AVX-512 hardware. Only reached when
    //! `is_x86_feature_detected!("avx512f")` holds and the output tile fits.

    use core::arch::x86_64::{_mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_storeu_pd};

    /// Tile rows of the AVX-512 microkernel.
    pub const TM: usize = 8;
    /// Tile columns of the AVX-512 microkernel (two zmm registers wide).
    pub const TN: usize = 16;

    /// Tiled driver with the same contract as [`super::serial_gemm_tiled`].
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_tiled(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        a_row: usize,
        a_k: usize,
        b: &[f64],
        c: &mut [f64],
    ) {
        let jd = n - n % TN;
        let id = m - m % TM;
        let mut j = 0;
        while j < jd {
            let mut i = 0;
            while i < id {
                // SAFETY: `avx512f` was detected by the caller; the index
                // invariants below hold by the loop bounds (see micro_8x16).
                unsafe { micro_8x16(k, a, i * a_row, a_row, a_k, b, j, n, c, i * n + j) };
                i += TM;
            }
            j += TN;
        }
        super::gemm_tails(m, k, id, jd, n, a, a_row, a_k, b, c);
    }

    /// 8×16 register-accumulator microkernel:
    /// `C[c_off + r·n + jj] += Σ_kk a[r·a_row + kk·a_k] · B[b_off + kk·n + jj]`
    /// for `r < 8`, `jj < 16`.
    ///
    /// # Safety
    /// Requires the `avx512f` target feature at runtime, and in-bounds
    /// access: `c_off + 7n + 16 ≤ c.len()`, `b_off + (ks-1)·n + 16 ≤
    /// b.len()`, `7·a_row + (ks-1)·a_k < a.len()`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn micro_8x16(
        ks: usize,
        a: &[f64],
        a_base: usize,
        a_row: usize,
        a_k: usize,
        b: &[f64],
        b_off: usize,
        n: usize,
        c: &mut [f64],
        c_off: usize,
    ) {
        debug_assert!(c_off + (TM - 1) * n + TN <= c.len());
        debug_assert!(ks == 0 || b_off + (ks - 1) * n + TN <= b.len());
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut lo = [_mm512_set1_pd(0.0); TM];
        let mut hi = [_mm512_set1_pd(0.0); TM];
        for r in 0..TM {
            // SAFETY: the caller's `c_off + (TM-1)·n + TN ≤ c.len()` bound
            // keeps both unaligned 8-lane loads of output row `r` in bounds.
            unsafe {
                lo[r] = _mm512_loadu_pd(cp.add(c_off + r * n));
                hi[r] = _mm512_loadu_pd(cp.add(c_off + r * n + 8));
            }
        }
        for kk in 0..ks {
            let bs = b_off + kk * n;
            // SAFETY: `kk < ks` and the caller's `b_off + (ks-1)·n + TN ≤
            // b.len()` bound keep this B-panel load in bounds.
            let b0 = unsafe { _mm512_loadu_pd(bp.add(bs)) };
            // SAFETY: `bs + 8 + 8` is within the same B-panel bound as above.
            let b1 = unsafe { _mm512_loadu_pd(bp.add(bs + 8)) };
            let ab = a_base + kk * a_k;
            for r in 0..TM {
                // SAFETY: the caller's `(TM-1)·a_row + (ks-1)·a_k < a.len()`
                // bound covers this scalar A load.
                let x = unsafe { _mm512_set1_pd(*ap.add(ab + r * a_row)) };
                lo[r] = _mm512_fmadd_pd(x, b0, lo[r]);
                hi[r] = _mm512_fmadd_pd(x, b1, hi[r]);
            }
        }
        for r in 0..TM {
            // SAFETY: same output-row bound as the accumulator loads above.
            unsafe {
                _mm512_storeu_pd(cp.add(c_off + r * n), lo[r]);
                _mm512_storeu_pd(cp.add(c_off + r * n + 8), hi[r]);
            }
        }
    }
}

/// The `R`×[`NR`] register-accumulator microkernel:
/// `C[c_off..][tile] += Σ_kk a(r, kk) · B[kk, b_off..b_off+NR]`.
///
/// The R·NR accumulators live in SIMD registers for the whole k loop — per k
/// step the kernel does R scalar `A` loads, one `NR`-wide `B` load, and R·NR
/// FMAs, with no stores; `C` is read and written exactly once. This is what
/// moves the kernel from store-port-bound (~12 GFLOP/s on an axpy-style
/// row update) toward FMA-bound.
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_tile<const R: usize>(
    ks: usize,
    a: &[f64],
    a_base: usize,
    a_row: usize,
    a_k: usize,
    b: &[f64],
    b_off: usize,
    n: usize,
    c: &mut [f64],
    c_off: usize,
) {
    let mut acc = [[0.0f64; NR]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        let base = c_off + r * n;
        row.copy_from_slice(&c[base..base + NR]);
    }
    for kk in 0..ks {
        let bs = b_off + kk * n;
        let bv: &[f64; NR] = b[bs..bs + NR].try_into().expect("B tile width");
        let ab = a_base + kk * a_k;
        let mut x = [0.0f64; R];
        for (r, xv) in x.iter_mut().enumerate() {
            *xv = a[ab + r * a_row];
        }
        for r in 0..R {
            for jj in 0..NR {
                acc[r][jj] = x[r].mul_add(bv[jj], acc[r][jj]);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let base = c_off + r * n;
        c[base..base + NR].copy_from_slice(row);
    }
}

// ---------------------------------------------------------------------------
// GEMM: C += Aᵀ · B
// ---------------------------------------------------------------------------

/// `C += Aᵀ · B` for row-major `A: [k,m]`, `B: [k,n]`, `C: [m,n]`, without
/// materializing `Aᵀ` (the `A` coefficient loads are column-strided).
pub fn matmul_tn(k: usize, m: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), k * m, "matmul_tn: A buffer/shape mismatch");
    assert_eq!(b.len(), k * n, "matmul_tn: B buffer/shape mismatch");
    assert_eq!(c.len(), m * n, "matmul_tn: C buffer/shape mismatch");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let threads = threads_for(m * k * n);
    mvi_parallel::for_row_spans_mut(c, n, threads, |first_row, c_span| {
        let rows = c_span.len() / n;
        serial_matmul_tn(k, first_row, rows, m, n, a, b, c_span);
    });
}

/// Serial register-tiled `C_span += (Aᵀ B)[i0..i0+rows, :]` (`A: [k,m]`, so
/// the coefficient of local row `r`, step `kk` sits at `a[i0 + r + kk·m]` —
/// same tiled driver as the plain kernel with swapped strides).
#[allow(clippy::too_many_arguments)]
fn serial_matmul_tn(
    k: usize,
    i0: usize,
    rows: usize,
    m: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
) {
    serial_gemm(rows, k, n, &a[i0..], 1, m, b, c);
}

// ---------------------------------------------------------------------------
// GEMM: C += A · Bᵀ
// ---------------------------------------------------------------------------

/// Multiply-add flops above which `matmul_nt` packs `Bᵀ` into a scratch panel
/// and runs the register-accumulator NN microkernels instead of the 2×2
/// dot-product tile. The dot-product form cannot keep accumulators in SIMD
/// registers across `k` (each output needs a horizontal reduction), which
/// pinned it near ~10 GFLOP/s while `matmul`/`matmul_tn` ran 4× faster; the
/// O(k·n) transpose pack is noise against O(m·k·n) compute once shapes leave
/// toy territory. Below the threshold (or when the row count cannot fill a
/// tile) the pack + buffer would dominate, so the dot path stays.
pub const NT_PACK_FLOPS: usize = 1 << 15;

/// `C += A · Bᵀ` for row-major `A: [m,k]`, `B: [n,k]`, `C: [m,n]`.
///
/// Large shapes pack `Bᵀ` once ([`NT_PACK_FLOPS`]) and reuse the tiled NN
/// GEMM drivers — including the AVX-512 microkernel — so the backward-pass
/// matmuls that lower here (attention gradients) run at the same per-core
/// throughput as the forward kernels. Small shapes keep the pack-free
/// 2×2 dot tile. The path choice depends only on the shape, so results stay
/// deterministic and thread-count invariant.
pub fn matmul_nt(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    matmul_nt_packing_into(m, k, n, a, b, c, &mut Vec::new());
}

/// [`matmul_nt`] that packs `Bᵀ`, when it does, into the caller's `pack`
/// buffer, so a caller that keeps the buffer allocates nothing once it has
/// seen its largest panel. Same bits as [`matmul_nt`].
pub fn matmul_nt_packing_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    pack: &mut Vec<f64>,
) {
    assert_eq!(a.len(), m * k, "matmul_nt: A buffer/shape mismatch");
    assert_eq!(b.len(), n * k, "matmul_nt: B buffer/shape mismatch");
    assert_eq!(c.len(), m * n, "matmul_nt: C buffer/shape mismatch");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let threads = threads_for(m * k * n);
    if m * k * n >= NT_PACK_FLOPS && m >= MR {
        pack.clear();
        pack.resize(k * n, 0.0);
        pack_transpose(n, k, b, pack);
        let bt = &pack[..];
        mvi_parallel::for_row_spans_mut(c, n, threads, |first_row, c_span| {
            let rows = c_span.len() / n;
            let a_span = &a[first_row * k..(first_row + rows) * k];
            serial_matmul_nn(rows, k, n, a_span, bt, c_span);
        });
        return;
    }
    mvi_parallel::for_row_spans_mut(c, n, threads, |first_row, c_span| {
        let rows = c_span.len() / n;
        let a_span = &a[first_row * k..(first_row + rows) * k];
        serial_matmul_nt(rows, k, n, a_span, b, c_span);
    });
}

/// Writes `Bᵀ` of a row-major `B: [n,k]` into `bt: [k,n]`
/// (`bt[kk·n + j] = b[j·k + kk]`), in 8×8 blocks so both sides stream through
/// cache lines instead of one of them striding.
fn pack_transpose(n: usize, k: usize, b: &[f64], bt: &mut [f64]) {
    const TB: usize = 8;
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + TB).min(n);
        let mut k0 = 0;
        while k0 < k {
            let k1 = (k0 + TB).min(k);
            for j in j0..j1 {
                for kk in k0..k1 {
                    bt[kk * n + j] = b[j * k + kk];
                }
            }
            k0 = k1;
        }
        j0 = j1;
    }
}

/// Serial 2×2-tiled `C += A · Bᵀ` on a row span: each 2×2 output tile shares
/// its two `A`-row and two `B`-row loads across four accumulators. Each
/// accumulator starts from its `C` element and takes one `mul_add` per `k`
/// step, in order — the same chain as the packed path's tiles, so this path
/// is row-invariant too. A last odd row runs four columns at a time, so it
/// still has four independent chains in flight.
fn serial_matmul_nt(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    let mut i = 0;
    while i + 2 <= m {
        let (a0, a1) = (&a[i * k..(i + 1) * k], &a[(i + 1) * k..(i + 2) * k]);
        let block = &mut c[i * n..(i + 2) * n];
        let (c0, c1) = block.split_at_mut(n);
        let mut j = 0;
        while j + 2 <= n {
            let (b0, b1) = (&b[j * k..(j + 1) * k], &b[(j + 1) * k..(j + 2) * k]);
            let (mut s00, mut s01, mut s10, mut s11) = (c0[j], c0[j + 1], c1[j], c1[j + 1]);
            for kk in 0..k {
                let (x0, x1) = (a0[kk], a1[kk]);
                let (y0, y1) = (b0[kk], b1[kk]);
                s00 = x0.mul_add(y0, s00);
                s01 = x0.mul_add(y1, s01);
                s10 = x1.mul_add(y0, s10);
                s11 = x1.mul_add(y1, s11);
            }
            c0[j] = s00;
            c0[j + 1] = s01;
            c1[j] = s10;
            c1[j + 1] = s11;
            j += 2;
        }
        if j < n {
            let brow = &b[j * k..(j + 1) * k];
            c0[j] = fma_dot(a0, brow, c0[j]);
            c1[j] = fma_dot(a1, brow, c1[j]);
        }
        i += 2;
    }
    if i < m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let bs: [&[f64]; 4] = std::array::from_fn(|q| &b[(j + q) * k..(j + q + 1) * k]);
            let mut acc: [f64; 4] = std::array::from_fn(|q| crow[j + q]);
            for (kk, &x) in arow.iter().enumerate() {
                for q in 0..4 {
                    acc[q] = x.mul_add(bs[q][kk], acc[q]);
                }
            }
            crow[j..j + 4].copy_from_slice(&acc);
            j += 4;
        }
        for (jj, cv) in crow.iter_mut().enumerate().skip(j) {
            *cv = fma_dot(arow, &b[jj * k..(jj + 1) * k], *cv);
        }
    }
}

/// `acc + Σ a[kk]·b[kk]` as one `mul_add` chain in ascending `kk`.
#[inline]
fn fma_dot(a: &[f64], b: &[f64], acc: f64) -> f64 {
    a.iter().zip(b).fold(acc, |s, (&x, &y)| x.mul_add(y, s))
}

// ---------------------------------------------------------------------------
// Fused vector primitives
// ---------------------------------------------------------------------------

/// Dot product with four independent partial sums (breaks the reduction
/// dependence chain so the loop can use SIMD/ILP without fast-math).
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let n4 = a.len() / 4 * 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let mut i = 0;
    while i < n4 {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut tail = 0.0;
    while i < a.len() {
        tail += a[i] * b[i];
        i += 1;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Fused `y += alpha · x`.
///
/// # Panics
/// Panics if the lengths differ.
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `y *= alpha`.
pub fn scale(y: &mut [f64], alpha: f64) {
    for yv in y.iter_mut() {
        *yv *= alpha;
    }
}

/// `y += x` elementwise.
///
/// # Panics
/// Panics if the lengths differ.
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    assert_eq!(y.len(), x.len(), "add_assign length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += xv;
    }
}

/// Squared Euclidean norm (4-way unrolled like [`dot`]).
pub fn norm2_sq(a: &[f64]) -> f64 {
    dot(a, a)
}

// ---------------------------------------------------------------------------
// Reference kernels (correctness oracle + benchmark baseline)
// ---------------------------------------------------------------------------

pub mod reference {
    //! The seed's naive kernels, kept verbatim as the correctness oracle for
    //! property tests and the baseline the bench harness measures speedups
    //! against. Not used on any hot path.

    /// The seed's single-threaded `ikj` matmul (`C += A · B`), including its
    /// original `a == 0.0` skip.
    pub fn matmul_ikj(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let crow = &mut c[i * n..(i + 1) * n];
            for (kk, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += aik * bv;
                }
            }
        }
    }

    /// Naive `C += Aᵀ · B` (`A: [k,m]`).
    pub fn matmul_tn(k: usize, m: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        for kk in 0..k {
            for i in 0..m {
                let x = a[kk * m + i];
                for j in 0..n {
                    c[i * n + j] += x * b[kk * n + j];
                }
            }
        }
    }

    /// Naive `C += A · Bᵀ` (`B: [n,k]`).
    pub fn matmul_nt(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a[i * k + kk] * b[j * k + kk];
                }
                c[i * n + j] += s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pseudo(len: usize, seed: u64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
                ((h >> 32) % 2000) as f64 / 500.0 - 2.0
            })
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let tol = 1e-9 * (1.0 + x.abs().max(y.abs()));
            assert!((x - y).abs() <= tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    /// Shapes that stress tile remainders: below/at/above MR and KC edges.
    const EDGE_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 2),
        (4, 4, 4),
        (5, 257, 3),
        (8, 256, 8),
        (9, 255, 7),
        (17, 300, 13),
        (33, 64, 31),
        // Above the AVX-512 8×16 tile with remainders in both dimensions.
        (41, 300, 43),
    ];

    #[test]
    fn matmul_matches_reference_on_edge_shapes() {
        for &(m, k, n) in EDGE_SHAPES {
            let a = pseudo(m * k, 1);
            let b = pseudo(k * n, 2);
            let mut c = vec![0.0; m * n];
            let mut c_ref = vec![0.0; m * n];
            matmul(m, k, n, &a, &b, &mut c);
            reference::matmul_ikj(m, k, n, &a, &b, &mut c_ref);
            assert_close(&c, &c_ref, &format!("matmul {m}x{k}x{n}"));
        }
    }

    #[test]
    fn matmul_tn_matches_reference_on_edge_shapes() {
        for &(m, k, n) in EDGE_SHAPES {
            let a = pseudo(k * m, 3);
            let b = pseudo(k * n, 4);
            let mut c = vec![0.0; m * n];
            let mut c_ref = vec![0.0; m * n];
            matmul_tn(k, m, n, &a, &b, &mut c);
            reference::matmul_tn(k, m, n, &a, &b, &mut c_ref);
            assert_close(&c, &c_ref, &format!("matmul_tn {m}x{k}x{n}"));
        }
    }

    #[test]
    fn matmul_nt_matches_reference_on_edge_shapes() {
        for &(m, k, n) in EDGE_SHAPES {
            let a = pseudo(m * k, 5);
            let b = pseudo(n * k, 6);
            let mut c = vec![0.0; m * n];
            let mut c_ref = vec![0.0; m * n];
            matmul_nt(m, k, n, &a, &b, &mut c);
            reference::matmul_nt(m, k, n, &a, &b, &mut c_ref);
            assert_close(&c, &c_ref, &format!("matmul_nt {m}x{k}x{n}"));
        }
    }

    #[test]
    fn empty_dims_are_noops() {
        for (m, k, n) in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)] {
            let a = pseudo(m * k, 7);
            let b = pseudo(k * n, 8);
            let mut c = vec![0.0; m * n];
            matmul(m, k, n, &a, &b, &mut c);
            assert!(c.iter().all(|&x| x == 0.0));
            let a_t = pseudo(k * m, 7);
            matmul_tn(k, m, n, &a_t, &b, &mut c);
            assert!(c.iter().all(|&x| x == 0.0));
            let b_t = pseudo(n * k, 8);
            matmul_nt(m, k, n, &a, &b_t, &mut c);
            assert!(c.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn accumulation_semantics() {
        let (m, k, n) = (3, 4, 5);
        let a = pseudo(m * k, 9);
        let b = pseudo(k * n, 10);
        let mut c = vec![1.0; m * n];
        let mut fresh = vec![0.0; m * n];
        matmul(m, k, n, &a, &b, &mut c);
        matmul(m, k, n, &a, &b, &mut fresh);
        for (cv, fv) in c.iter().zip(&fresh) {
            assert!((cv - (fv + 1.0)).abs() < 1e-12, "matmul must accumulate into C");
        }
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Big enough that threads_for() > 1 on any multicore machine.
        let (m, k, n) = (192, 160, 144);
        let a = pseudo(m * k, 11);
        let b = pseudo(k * n, 12);
        let mut c_par = vec![0.0; m * n];
        matmul(m, k, n, &a, &b, &mut c_par);
        let mut c_ser = vec![0.0; m * n];
        serial_matmul_nn(m, k, n, &a, &b, &mut c_ser);
        assert_eq!(c_par, c_ser, "parallel split changed results");
    }

    #[test]
    fn vector_primitives() {
        let a = pseudo(1003, 13);
        let b = pseudo(1003, 14);
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-9 * (1.0 + naive.abs()));
        assert!((norm2_sq(&a) - dot(&a, &a)).abs() < 1e-12);

        let mut y = b.clone();
        axpy(&mut y, 0.5, &a);
        for ((yv, bv), av) in y.iter().zip(&b).zip(&a) {
            assert!((yv - (bv + 0.5 * av)).abs() < 1e-12);
        }
        scale(&mut y, 2.0);
        add_assign(&mut y, &a);
    }

    /// Row `i` of `matmul`/`matmul_tn`/`matmul_nt` against the 1-row
    /// product of row `i` of `A`, bitwise, and the three kernels against
    /// each other. `a` is `[m,k]`, `a_t` its transpose; `b` is `[k,n]`, `b_t`
    /// its transpose; `cs` holds the three products.
    fn assert_rows_match_one_row_products(
        (m, k, n): (usize, usize, usize),
        (a, a_t): (&[f64], &[f64]),
        (b, b_t): (&[f64], &[f64]),
        cs: [&[f64]; 3],
    ) -> Result<(), TestCaseError> {
        prop_assert!(bits(cs[0]) == bits(cs[1]), "matmul_tn differs from matmul");
        prop_assert!(bits(cs[0]) == bits(cs[2]), "matmul_nt differs from matmul");
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let col: Vec<f64> = (0..k).map(|kk| a_t[kk * m + i]).collect();
            let mut rows = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
            matmul(1, k, n, a_row, b, &mut rows[0]);
            matmul_tn(k, 1, n, &col, b, &mut rows[1]);
            matmul_nt(1, k, n, a_row, b_t, &mut rows[2]);
            for (c, row) in cs.iter().zip(&rows) {
                let got = &c[i * n..(i + 1) * n];
                prop_assert!(bits(got) == bits(row), "{m}x{k}x{n}: row {i} differs");
            }
        }
        Ok(())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn transposed(m: usize, k: usize, a: &[f64]) -> Vec<f64> {
        let mut a_t = vec![0.0; m * k];
        for i in 0..m {
            for kk in 0..k {
                a_t[kk * m + i] = a[i * k + kk];
            }
        }
        a_t
    }

    #[test]
    fn avx512_tile_and_portable_driver_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            for &(m, k, n) in EDGE_SHAPES {
                let a = pseudo(m * k, 21);
                let b = pseudo(k * n, 22);
                let mut c_tile = pseudo(m * n, 23);
                let mut c_portable = c_tile.clone();
                avx512::gemm_tiled(m, k, n, &a, k, 1, &b, &mut c_tile);
                serial_gemm_tiled(m, k, n, &a, k, 1, &b, &mut c_portable);
                assert_eq!(bits(&c_tile), bits(&c_portable), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn public_axpy_keeps_its_two_roundings() {
        // `axpy` is a separate multiply and add (baselines depend on its
        // bits); only the private GEMM row update is fused.
        let x = pseudo(257, 31).iter().map(|v| v / 3.0).collect::<Vec<_>>();
        let y0 = pseudo(257, 32).iter().map(|v| v / 7.0).collect::<Vec<_>>();
        let alpha = 0.1;
        let mut y = y0.clone();
        axpy(&mut y, alpha, &x);
        let unfused: Vec<f64> = y0.iter().zip(&x).map(|(&yv, &xv)| yv + alpha * xv).collect();
        assert_eq!(bits(&y), bits(&unfused));
        let mut fused = y0.clone();
        fma_row(&mut fused, alpha, &x);
        assert_ne!(bits(&fused), bits(&unfused), "fixture must tell the two roundings apart");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_blocked_matmul_matches_reference(
            m in 1usize..24, k in 1usize..40, n in 1usize..24, seed in 0u64..1000
        ) {
            let a = pseudo(m * k, seed);
            let b = pseudo(k * n, seed ^ 0xABCD);
            let mut c = vec![0.0; m * n];
            let mut c_ref = vec![0.0; m * n];
            matmul(m, k, n, &a, &b, &mut c);
            reference::matmul_ikj(m, k, n, &a, &b, &mut c_ref);
            for (x, y) in c.iter().zip(&c_ref) {
                prop_assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()), "{} vs {}", x, y);
            }
        }

        #[test]
        fn prop_transposed_kernels_agree_with_plain(
            m in 1usize..16, k in 1usize..32, n in 1usize..16, seed in 0u64..1000
        ) {
            let a = pseudo(m * k, seed.wrapping_add(1));
            let b = pseudo(k * n, seed.wrapping_add(2));
            // Materialize Aᵀ ([k,m]) and Bᵀ ([n,k]) by hand.
            let mut a_t = vec![0.0; m * k];
            for i in 0..m {
                for kk in 0..k {
                    a_t[kk * m + i] = a[i * k + kk];
                }
            }
            let mut b_t = vec![0.0; k * n];
            for kk in 0..k {
                for j in 0..n {
                    b_t[j * k + kk] = b[kk * n + j];
                }
            }
            let mut c = vec![0.0; m * n];
            matmul(m, k, n, &a, &b, &mut c);
            let mut c_tn = vec![0.0; m * n];
            matmul_tn(k, m, n, &a_t, &b, &mut c_tn);
            let mut c_nt = vec![0.0; m * n];
            matmul_nt(m, k, n, &a, &b_t, &mut c_nt);
            for ((x, y), z) in c.iter().zip(&c_tn).zip(&c_nt) {
                prop_assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()), "tn: {} vs {}", x, y);
                prop_assert!((x - z).abs() <= 1e-9 * (1.0 + x.abs()), "nt: {} vs {}", x, z);
            }
        }

        /// Row invariance: every row of `matmul`, `matmul_tn` and
        /// `matmul_nt` is bitwise the 1-row product of its `A` row, whether the row lands in a
        /// register tile or a tail, and whether the rows run on one worker,
        /// two, or an explicit two-span split at an arbitrary row. `class`
        /// picks shapes below the 8×16 tile, around it, or big enough
        /// (m·k·n ≥ 2·`PAR_FLOPS_PER_THREAD`) that `matmul` splits rows
        /// across workers.
        #[test]
        fn prop_rows_are_bitwise_their_one_row_products(
            class in 0u8..3, mr in 0usize..1000, kr in 0usize..1000, nr in 0usize..1000,
            split in 0usize..1000, seed in 0u64..1000
        ) {
            let (m, k, n) = match class {
                0 => (1 + mr % 8, 1 + kr % 40, 1 + nr % 16),
                1 => (8 + mr % 33, 1 + kr % 70, 16 + nr % 40),
                _ => (64 + mr % 40, 256 + kr % 40, 256 + nr % 40),
            };
            if class == 2 {
                prop_assert!(m * k * n >= 2 * PAR_FLOPS_PER_THREAD);
            }
            let a = pseudo(m * k, seed);
            let a_t = transposed(m, k, &a);
            let b = pseudo(k * n, seed ^ 0x5EED);
            let b_t = transposed(k, n, &b);
            let c0 = pseudo(m * n, seed ^ 0xC0);
            for threads in [1, 2] {
                mvi_parallel::configure_threads(threads);
                let mut cs = [vec![0.0; m * n], vec![0.0; m * n], vec![0.0; m * n]];
                matmul(m, k, n, &a, &b, &mut cs[0]);
                matmul_tn(k, m, n, &a_t, &b, &mut cs[1]);
                matmul_nt(m, k, n, &a, &b_t, &mut cs[2]);
                mvi_parallel::configure_threads(0);
                assert_rows_match_one_row_products(
                    (m, k, n),
                    (&a, &a_t),
                    (&b, &b_t),
                    [&cs[0], &cs[1], &cs[2]],
                )?;
            }
            // The same rows split by hand into two spans, as a 2-worker
            // `for_row_spans_mut` would, on any host.
            let r = split % (m + 1);
            let mut c_split = c0.clone();
            let (top, bottom) = c_split.split_at_mut(r * n);
            serial_matmul_nn(r, k, n, &a[..r * k], &b, top);
            serial_matmul_nn(m - r, k, n, &a[r * k..], &b, bottom);
            let mut c_whole = c0.clone();
            serial_matmul_nn(m, k, n, &a, &b, &mut c_whole);
            prop_assert!(bits(&c_split) == bits(&c_whole), "split at row {r} changed bits");
            let mut c_tn_split = c0.clone();
            let (top, bottom) = c_tn_split.split_at_mut(r * n);
            serial_matmul_tn(k, 0, r, m, n, &a_t, &b, top);
            serial_matmul_tn(k, r, m - r, m, n, &a_t, &b, bottom);
            prop_assert!(bits(&c_tn_split) == bits(&c_whole), "matmul_tn split at row {r}");
        }

        /// Column-band invariance: columns `lo..hi` of a `matmul` product
        /// are bitwise the product against only those columns of `B`, and
        /// columns `lo..hi` of a `matmul_nt` product the product against
        /// only those rows of `B`, at 1 and 2 workers. The narrower product
        /// may take another path; `class` picks shapes below
        /// `NT_PACK_FLOPS`, past it with `m < MR` (the dot tile) and past
        /// it with `m ≥ MR` (the packed path and, at `m ≥ 8`, `n ≥ 16`, the
        /// 8×16 tile).
        #[test]
        fn prop_column_bands_are_bitwise_their_narrow_products(
            class in 0u8..3, mr in 0usize..1000, kr in 0usize..1000, nr in 0usize..1000,
            lo_r in 0usize..1000, hi_r in 0usize..1000, seed in 0u64..1000
        ) {
            let (m, k, n) = match class {
                0 => (1 + mr % 8, 1 + kr % 40, 1 + nr % 40),
                1 => (1 + mr % (MR - 1), 128 + kr % 64, 256 + nr % 64),
                _ => (8 + mr % 30, 64 + kr % 64, 64 + nr % 64),
            };
            if class > 0 {
                prop_assert!(m * k * n >= NT_PACK_FLOPS);
            }
            let lo = lo_r % n;
            let hi = lo + 1 + hi_r % (n - lo);
            let w = hi - lo;
            let a = pseudo(m * k, seed);
            let b = pseudo(k * n, seed ^ 0xB);
            let b_t = transposed(k, n, &b);
            let b_cols: Vec<f64> = (0..k).flat_map(|kk| b[kk * n + lo..kk * n + hi].to_vec()).collect();
            for threads in [1, 2] {
                mvi_parallel::configure_threads(threads);
                let (mut c, mut c_nt) = (vec![0.0; m * n], vec![0.0; m * n]);
                matmul(m, k, n, &a, &b, &mut c);
                matmul_nt(m, k, n, &a, &b_t, &mut c_nt);
                let (mut band, mut band_nt) = (vec![0.0; m * w], vec![0.0; m * w]);
                matmul(m, k, w, &a, &b_cols, &mut band);
                matmul_nt(m, k, w, &a, &b_t[lo * k..hi * k], &mut band_nt);
                mvi_parallel::configure_threads(0);
                for i in 0..m {
                    let row = &band[i * w..(i + 1) * w];
                    let row_nt = &band_nt[i * w..(i + 1) * w];
                    prop_assert!(bits(&c[i * n + lo..i * n + hi]) == bits(row), "{m}x{k}x{n}: matmul row {i}, columns {lo}..{hi}");
                    prop_assert!(bits(&c_nt[i * n + lo..i * n + hi]) == bits(row_nt), "{m}x{k}x{n}: matmul_nt row {i}, columns {lo}..{hi}");
                }
            }
        }
    }
}
