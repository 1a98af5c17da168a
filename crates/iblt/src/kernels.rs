//! Fixed-width kernels over the flat cell bank.
//!
//! The bulk operations on an IBLT — cell-wise subtract/add of two tables and the
//! XOR of their key-sum and checksum banks — are straight passes over contiguous
//! buffers, so they are written here as explicit chunked loops: four 64-bit lanes
//! (one 256-bit vector) per step, with a scalar tail. On x86_64 a runtime check
//! (`is_x86_feature_detected!("avx2")`) selects a `std::arch` AVX2 path; every
//! other target, and any run with the scalar override engaged, takes the safe
//! chunked-scalar loops, which LLVM auto-vectorizes at whatever width the target
//! baseline allows.
//!
//! Both paths produce bit-identical results (XOR and two's-complement wrapping
//! addition are lane-exact), which `crates/iblt/tests/soa_reference.rs` pins with
//! SIMD-vs-scalar differential tests.
//!
//! # Dispatch policy
//!
//! * The AVX2 path is used iff the CPU reports AVX2 at runtime **and** the scalar
//!   override is off. Detection runs once and is cached.
//! * The override is [`recon_base::config::scalar_kernels_forced`]: the
//!   `RECON_IBLT_FORCE_SCALAR` environment variable (any value but
//!   `0`/`false`/empty, read once per process), or [`force_scalar_kernels`] from
//!   code — a process-global switch for differential tests and for running the
//!   path a CPU without AVX2 takes, not for production tuning.

// The only unsafe code in this crate: `std::arch` intrinsic calls, each gated on
// the runtime AVX2 check and operating strictly in-bounds.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// 64-bit lanes per chunk; one 256-bit vector.
const LANES: usize = 4;
/// Bytes per chunk in the byte-bank kernels.
const BYTE_LANES: usize = 32;

/// Force every bank kernel onto the scalar fallback path (process-global).
///
/// The kernels are bit-identical across paths, so this changes performance only;
/// it exists so differential tests and benchmarks can pin the fallback explicitly.
/// A thin alias for [`recon_base::config::set_force_scalar_kernels`]; the
/// `RECON_IBLT_FORCE_SCALAR` environment variable has the same effect without
/// recompiling.
pub fn force_scalar_kernels(force: bool) {
    recon_base::config::set_force_scalar_kernels(force);
}

#[cfg(target_arch = "x86_64")]
fn avx2_detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| is_x86_feature_detected!("avx2"))
}

#[inline]
fn use_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_detected() && !recon_base::config::scalar_kernels_forced()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Name of the kernel path the next bulk operation will take (`"avx2"` or
/// `"scalar"`), considering CPU detection and the scalar override.
pub fn active_kernel() -> &'static str {
    if use_avx2() {
        "avx2"
    } else {
        "scalar"
    }
}

/// `dst[i] ^= src[i]` over a byte bank. Slices must have equal lengths.
#[inline]
pub(crate) fn xor_bytes(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: reachable only when the running CPU reports AVX2.
        unsafe { xor_bytes_avx2(dst, src) };
        return;
    }
    xor_bytes_scalar(dst, src);
}

fn xor_bytes_scalar(dst: &mut [u8], src: &[u8]) {
    let (dc, dr) = dst.as_chunks_mut::<BYTE_LANES>();
    let (sc, sr) = src.as_chunks::<BYTE_LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for lane in 0..BYTE_LANES {
            d[lane] ^= s[lane];
        }
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d ^= s;
    }
}

/// `dst[i] ^= src[i]` over a `u64` bank. Slices must have equal lengths.
#[inline]
pub(crate) fn xor_u64(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: reachable only when the running CPU reports AVX2.
        unsafe { xor_u64_avx2(dst, src) };
        return;
    }
    xor_u64_scalar(dst, src);
}

fn xor_u64_scalar(dst: &mut [u64], src: &[u64]) {
    let (dc, dr) = dst.as_chunks_mut::<LANES>();
    let (sc, sr) = src.as_chunks::<LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for lane in 0..LANES {
            d[lane] ^= s[lane];
        }
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d ^= s;
    }
}

/// `dst[i] = dst[i].wrapping_add(src[i])` over an `i64` bank (counts never come
/// near the wrap in practice; wrapping keeps the lanes exact on both paths).
#[inline]
pub(crate) fn add_i64(dst: &mut [i64], src: &[i64]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: reachable only when the running CPU reports AVX2.
        unsafe { add_i64_avx2(dst, src) };
        return;
    }
    add_i64_scalar(dst, src);
}

fn add_i64_scalar(dst: &mut [i64], src: &[i64]) {
    let (dc, dr) = dst.as_chunks_mut::<LANES>();
    let (sc, sr) = src.as_chunks::<LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for lane in 0..LANES {
            d[lane] = d[lane].wrapping_add(s[lane]);
        }
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d = d.wrapping_add(*s);
    }
}

/// `dst[i] = dst[i].wrapping_sub(src[i])` over an `i64` bank.
#[inline]
pub(crate) fn sub_i64(dst: &mut [i64], src: &[i64]) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: reachable only when the running CPU reports AVX2.
        unsafe { sub_i64_avx2(dst, src) };
        return;
    }
    sub_i64_scalar(dst, src);
}

fn sub_i64_scalar(dst: &mut [i64], src: &[i64]) {
    let (dc, dr) = dst.as_chunks_mut::<LANES>();
    let (sc, sr) = src.as_chunks::<LANES>();
    for (d, s) in dc.iter_mut().zip(sc) {
        for lane in 0..LANES {
            d[lane] = d[lane].wrapping_sub(s[lane]);
        }
    }
    for (d, s) in dr.iter_mut().zip(sr) {
        *d = d.wrapping_sub(*s);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_loadu_si256, _mm256_storeu_si256, _mm256_sub_epi64,
        _mm256_xor_si256,
    };

    /// Apply `op` to 32-byte chunks of `dst`/`src` in place and return the index
    /// of the first byte the vector loop did not cover.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and `dst.len() == src.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn chunked(
        dst: *mut u8,
        src: *const u8,
        len: usize,
        op: impl Fn(__m256i, __m256i) -> __m256i,
    ) -> usize {
        let chunks = len / 32;
        for i in 0..chunks {
            // SAFETY: `i * 32 + 32 <= len`, so the unaligned loads and store stay
            // inside both buffers.
            unsafe {
                let d = _mm256_loadu_si256(dst.add(i * 32) as *const __m256i);
                let s = _mm256_loadu_si256(src.add(i * 32) as *const __m256i);
                _mm256_storeu_si256(dst.add(i * 32) as *mut __m256i, op(d, s));
            }
        }
        chunks * 32
    }

    /// # Safety
    /// Requires AVX2 (callers gate on runtime detection).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_bytes_avx2(dst: &mut [u8], src: &[u8]) {
        let n = dst.len();
        // SAFETY: pointers and length come from equal-length slices.
        let done =
            unsafe { chunked(dst.as_mut_ptr(), src.as_ptr(), n, |d, s| _mm256_xor_si256(d, s)) };
        for i in done..n {
            dst[i] ^= src[i];
        }
    }

    /// # Safety
    /// Requires AVX2 (callers gate on runtime detection).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_u64_avx2(dst: &mut [u64], src: &[u64]) {
        let n = dst.len();
        // SAFETY: reinterpreting a u64 bank as bytes is lossless for XOR.
        let done = unsafe {
            chunked(dst.as_mut_ptr() as *mut u8, src.as_ptr() as *const u8, n * 8, |d, s| {
                _mm256_xor_si256(d, s)
            })
        } / 8;
        for i in done..n {
            dst[i] ^= src[i];
        }
    }

    /// # Safety
    /// Requires AVX2 (callers gate on runtime detection).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_i64_avx2(dst: &mut [i64], src: &[i64]) {
        let n = dst.len();
        // SAFETY: `_mm256_add_epi64` is lane-wise wrapping addition on 64-bit
        // lanes, exactly the scalar fallback's semantics.
        let done = unsafe {
            chunked(dst.as_mut_ptr() as *mut u8, src.as_ptr() as *const u8, n * 8, |d, s| {
                _mm256_add_epi64(d, s)
            })
        } / 8;
        for i in done..n {
            dst[i] = dst[i].wrapping_add(src[i]);
        }
    }

    /// # Safety
    /// Requires AVX2 (callers gate on runtime detection).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub_i64_avx2(dst: &mut [i64], src: &[i64]) {
        let n = dst.len();
        // SAFETY: `_mm256_sub_epi64` is lane-wise wrapping subtraction.
        let done = unsafe {
            chunked(dst.as_mut_ptr() as *mut u8, src.as_ptr() as *const u8, n * 8, |d, s| {
                _mm256_sub_epi64(d, s)
            })
        } / 8;
        for i in done..n {
            dst[i] = dst[i].wrapping_sub(src[i]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{add_i64_avx2, sub_i64_avx2, xor_bytes_avx2, xor_u64_avx2};

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize, salt: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
    }

    #[test]
    fn xor_bytes_matches_naive_at_odd_lengths() {
        for n in [0usize, 1, 7, 31, 32, 33, 64, 97, 1024, 1037] {
            let mut dst = bytes(n, 3);
            let src = bytes(n, 11);
            let expected: Vec<u8> = dst.iter().zip(&src).map(|(d, s)| d ^ s).collect();
            xor_bytes(&mut dst, &src);
            assert_eq!(dst, expected, "n = {n}");
            // The scalar path agrees byte for byte.
            let mut scalar = bytes(n, 3);
            xor_bytes_scalar(&mut scalar, &src);
            assert_eq!(scalar, dst, "scalar vs dispatched, n = {n}");
        }
    }

    #[test]
    fn u64_and_i64_kernels_match_naive_at_odd_lengths() {
        for n in [0usize, 1, 3, 4, 5, 8, 13, 256, 259] {
            let mut xd: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
            let xs: Vec<u64> = (0..n as u64).map(|i| i.rotate_left(17) ^ 0xABCD).collect();
            let expected: Vec<u64> = xd.iter().zip(&xs).map(|(d, s)| d ^ s).collect();
            xor_u64(&mut xd, &xs);
            assert_eq!(xd, expected, "xor n = {n}");

            let mut ad: Vec<i64> = (0..n as i64).map(|i| i * 7 - 3).collect();
            let asrc: Vec<i64> = (0..n as i64).map(|i| i64::MAX - i * 11).collect();
            let add_expected: Vec<i64> =
                ad.iter().zip(&asrc).map(|(d, s)| d.wrapping_add(*s)).collect();
            let sub_expected: Vec<i64> =
                ad.iter().zip(&asrc).map(|(d, s)| d.wrapping_sub(*s)).collect();
            let mut sd = ad.clone();
            add_i64(&mut ad, &asrc);
            assert_eq!(ad, add_expected, "add n = {n}");
            sub_i64(&mut sd, &asrc);
            assert_eq!(sd, sub_expected, "sub n = {n}");
        }
    }

    #[test]
    fn scalar_override_switches_the_active_kernel() {
        let before = active_kernel();
        force_scalar_kernels(true);
        assert_eq!(active_kernel(), "scalar");
        // Kernels still compute the same results with the override on.
        let mut dst = bytes(100, 1);
        let src = bytes(100, 2);
        let expected: Vec<u8> = dst.iter().zip(&src).map(|(d, s)| d ^ s).collect();
        xor_bytes(&mut dst, &src);
        assert_eq!(dst, expected);
        force_scalar_kernels(false);
        assert_eq!(active_kernel(), before);
    }
}
