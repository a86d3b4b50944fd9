//! Runtime-dispatched delimiter-scan kernels: the tokenizer's memchr.
//!
//! The input window's boundary scanner ([`crate::push`]) spends its time
//! finding where tokens end — the next `<` in character data, the `>` or
//! quote in a tag, the terminator of a comment — and the parser finding
//! the closing quote of an attribute value. Scanning those runs
//! byte-at-a-time leaves most of every cache line on the floor, so this
//! module provides a family of kernels and picks the fastest one the CPU
//! supports, once, at first use:
//!
//! * **`avx2`** — 32 bytes per step via `core::arch::x86_64` intrinsics
//!   (`vpcmpeqb` + `vpmovmskb`), selected when `is_x86_feature_detected!`
//!   reports AVX2.
//! * **`sse2`** — 16 bytes per step; the x86_64 baseline (every x86_64
//!   CPU has SSE2, so on that arch this tier is always available).
//! * **`swar`** — two unrolled `u64` lanes (16 bytes per step) of the
//!   classic "haszero" SIMD-within-a-register trick; portable, the
//!   default on non-x86 targets and under Miri.
//! * **`scalar`** — a plain byte loop; the always-correct reference the
//!   differential tests compare every other tier against.
//!
//! The selected kernel is cached in a function-pointer table
//! (`Vtable`) behind a `OnceLock`, so steady-state dispatch is one
//! indirect call with no feature re-detection. `XSQ_SCAN_KERNEL=scalar|
//! swar|sse2|avx2` overrides selection (CI pins each tier with it); an
//! unknown name panics loudly, a known-but-unavailable tier falls back
//! down the chain (`avx2 → sse2 → swar`) and the active kernel is
//! reported by [`active_kernel`] so benches record what actually ran.
//!
//! # Safety
//!
//! The SSE2/AVX2 implementations are `unsafe fn`s marked
//! `#[target_feature(...)]`. They are sound to call because (a) their
//! safe wrappers are only reachable through a `Vtable` that is
//! installed after `is_x86_feature_detected!` confirms the feature, or
//! through [`Kernel`] methods that assert [`Kernel::is_available`]
//! first, and (b) every pointer they read is derived from the haystack
//! slice and stays in `[ptr, ptr + len)`: the main loop only loads full
//! vectors at `i` with `i + W <= len`, and the tail uses one *overlapped*
//! load at `len - W` (only taken when `len >= W`). Unaligned loads
//! (`loadu`) are used throughout, so alignment is irrelevant. The
//! overlapped tail window re-examines bytes already proven match-free,
//! so the first set bit in its mask is always a genuine first match.
//!
//! SWAR positional correctness: `match_mask` can set spurious high bits,
//! but only at byte positions *above* the first true match (the borrow
//! in `wrapping_sub` propagates low→high), so `trailing_zeros()/8` is
//! exact and OR-combining several needle masks preserves that property.

use std::sync::OnceLock;

/// One tier of the scan-kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Plain byte loop; always available; the differential reference.
    Scalar,
    /// Portable two-lane `u64` SWAR; always available.
    Swar,
    /// 16-byte `core::arch` vectors; x86_64 only (and not under Miri).
    Sse2,
    /// 32-byte `core::arch` vectors; x86_64 with runtime-detected AVX2.
    Avx2,
}

impl Kernel {
    /// The name used by `XSQ_SCAN_KERNEL` and recorded in bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Swar => "swar",
            Kernel::Sse2 => "sse2",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Parse an `XSQ_SCAN_KERNEL` value.
    pub fn from_name(name: &str) -> Option<Kernel> {
        match name {
            "scalar" => Some(Kernel::Scalar),
            "swar" => Some(Kernel::Swar),
            "sse2" => Some(Kernel::Sse2),
            "avx2" => Some(Kernel::Avx2),
            _ => None,
        }
    }

    /// Whether this tier can run on the current CPU / build.
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Scalar | Kernel::Swar => true,
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            Kernel::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            Kernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(all(target_arch = "x86_64", not(miri))))]
            Kernel::Sse2 | Kernel::Avx2 => false,
        }
    }

    fn vtable(self) -> &'static Vtable {
        assert!(
            self.is_available(),
            "scan kernel `{}` is not available on this CPU/build",
            self.name()
        );
        match self {
            Kernel::Scalar => &SCALAR_VT,
            Kernel::Swar => &SWAR_VT,
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            Kernel::Sse2 => &SSE2_VT,
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            Kernel::Avx2 => &AVX2_VT,
            #[cfg(not(all(target_arch = "x86_64", not(miri))))]
            Kernel::Sse2 | Kernel::Avx2 => unreachable!(),
        }
    }

    /// [`find_byte`] forced onto this tier (differential tests).
    pub fn find_byte(self, haystack: &[u8], n1: u8) -> Option<usize> {
        (self.vtable().find1)(haystack, n1)
    }

    /// [`find_byte2`] forced onto this tier.
    pub fn find_byte2(self, haystack: &[u8], n1: u8, n2: u8) -> Option<usize> {
        (self.vtable().find2)(haystack, n1, n2)
    }

    /// [`find_byte3`] forced onto this tier.
    pub fn find_byte3(self, haystack: &[u8], n1: u8, n2: u8, n3: u8) -> Option<usize> {
        (self.vtable().find3)(haystack, n1, n2, n3)
    }

    /// [`find_byte4`] forced onto this tier.
    pub fn find_byte4(self, haystack: &[u8], n1: u8, n2: u8, n3: u8, n4: u8) -> Option<usize> {
        (self.vtable().find4)(haystack, n1, n2, n3, n4)
    }

    /// [`classify_run`] forced onto this tier.
    pub fn classify_run(self, haystack: &[u8]) -> usize {
        let [a, b, c, d] = TEXT_DELIMS;
        self.find_byte4(haystack, a, b, c, d)
            .unwrap_or(haystack.len())
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every tier runnable on this CPU/build, slowest first.
pub fn available_kernels() -> Vec<Kernel> {
    [Kernel::Scalar, Kernel::Swar, Kernel::Sse2, Kernel::Avx2]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

/// The tier the process-wide dispatch table selected (detection plus
/// any `XSQ_SCAN_KERNEL` override).
pub fn active_kernel() -> Kernel {
    table().kernel
}

/// Comma-joined list of scan-relevant CPU features detected at runtime
/// (empty on non-x86 targets) — recorded in bench JSON so throughput
/// numbers are interpretable across containers.
pub fn cpu_features() -> String {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        let mut feats: Vec<&str> = Vec::new();
        if std::arch::is_x86_feature_detected!("sse2") {
            feats.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            feats.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            feats.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        feats.join(",")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        String::new()
    }
}

/// The delimiters that end a clean character-data run: tag open, entity
/// reference, carriage return (line-ending normalization), and `]`
/// (the `]]>`-in-content well-formedness check).
pub const TEXT_DELIMS: [u8; 4] = *b"<&\r]";

struct Vtable {
    kernel: Kernel,
    find1: fn(&[u8], u8) -> Option<usize>,
    find2: fn(&[u8], u8, u8) -> Option<usize>,
    find3: fn(&[u8], u8, u8, u8) -> Option<usize>,
    find4: fn(&[u8], u8, u8, u8, u8) -> Option<usize>,
}

static SCALAR_VT: Vtable = Vtable {
    kernel: Kernel::Scalar,
    find1: scalar::find1,
    find2: scalar::find2,
    find3: scalar::find3,
    find4: scalar::find4,
};

static SWAR_VT: Vtable = Vtable {
    kernel: Kernel::Swar,
    find1: swar::find1,
    find2: swar::find2,
    find3: swar::find3,
    find4: swar::find4,
};

#[cfg(all(target_arch = "x86_64", not(miri)))]
static SSE2_VT: Vtable = Vtable {
    kernel: Kernel::Sse2,
    find1: sse2::find1,
    find2: sse2::find2,
    find3: sse2::find3,
    find4: sse2::find4,
};

#[cfg(all(target_arch = "x86_64", not(miri)))]
static AVX2_VT: Vtable = Vtable {
    kernel: Kernel::Avx2,
    find1: avx2::find1,
    find2: avx2::find2,
    find3: avx2::find3,
    find4: avx2::find4,
};

fn detect_best() -> &'static Vtable {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return &AVX2_VT;
        }
        if std::arch::is_x86_feature_detected!("sse2") {
            return &SSE2_VT;
        }
    }
    &SWAR_VT
}

fn select() -> &'static Vtable {
    match std::env::var("XSQ_SCAN_KERNEL") {
        Ok(name) => {
            let requested = Kernel::from_name(&name).unwrap_or_else(|| {
                panic!(
                    "XSQ_SCAN_KERNEL={name:?} is not a scan kernel \
                     (expected scalar|swar|sse2|avx2)"
                )
            });
            // A requested-but-unavailable vector tier falls back down
            // the chain instead of crashing: the override is a floor
            // on portability, not a promise the CPU can keep.
            let chain: &[Kernel] = match requested {
                Kernel::Avx2 => &[Kernel::Avx2, Kernel::Sse2, Kernel::Swar],
                Kernel::Sse2 => &[Kernel::Sse2, Kernel::Swar],
                Kernel::Swar => &[Kernel::Swar],
                Kernel::Scalar => &[Kernel::Scalar],
            };
            let k = chain.iter().copied().find(|k| k.is_available()).unwrap();
            k.vtable()
        }
        Err(_) => detect_best(),
    }
}

fn table() -> &'static Vtable {
    static TABLE: OnceLock<&'static Vtable> = OnceLock::new();
    TABLE.get_or_init(select)
}

/// Position of the first occurrence of `needle` in `haystack`.
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    (table().find1)(haystack, needle)
}

/// Position of the first occurrence of either `n1` or `n2` in `haystack`.
#[inline]
pub fn find_byte2(haystack: &[u8], n1: u8, n2: u8) -> Option<usize> {
    (table().find2)(haystack, n1, n2)
}

/// Position of the first occurrence of `n1`, `n2`, or `n3`.
#[inline]
pub fn find_byte3(haystack: &[u8], n1: u8, n2: u8, n3: u8) -> Option<usize> {
    (table().find3)(haystack, n1, n2, n3)
}

/// Position of the first occurrence of `n1`, `n2`, `n3`, or `n4`.
#[inline]
pub fn find_byte4(haystack: &[u8], n1: u8, n2: u8, n3: u8, n4: u8) -> Option<usize> {
    (table().find4)(haystack, n1, n2, n3, n4)
}

/// Length of the leading clean character-data run: the number of bytes
/// before the first [`TEXT_DELIMS`] byte (`<`, `&`, `\r`, `]`), or the
/// whole slice when none occurs. The text tokenizer copies this prefix
/// wholesale and only then inspects one delimiter.
#[inline]
pub fn classify_run(haystack: &[u8]) -> usize {
    let [a, b, c, d] = TEXT_DELIMS;
    find_byte4(haystack, a, b, c, d).unwrap_or(haystack.len())
}

mod scalar {
    macro_rules! define_scalar {
        ($name:ident, $($n:ident),+) => {
            pub(super) fn $name(haystack: &[u8], $($n: u8),+) -> Option<usize> {
                haystack.iter().position(|&b| $(b == $n)||+)
            }
        };
    }

    define_scalar!(find1, n1);
    define_scalar!(find2, n1, n2);
    define_scalar!(find3, n1, n2, n3);
    define_scalar!(find4, n1, n2, n3, n4);
}

mod swar {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;

    /// Nonzero iff some byte of `w` equals the broadcast needle; each
    /// matching position has its high bit set, and any spurious bits sit
    /// strictly above the first true match, so `trailing_zeros()/8` is
    /// exact even after OR-combining several needles' masks.
    #[inline(always)]
    fn match_mask(w: u64, broadcast: u64) -> u64 {
        let x = w ^ broadcast;
        x.wrapping_sub(LO) & !x & HI
    }

    #[inline(always)]
    fn broadcast(b: u8) -> u64 {
        LO * b as u64
    }

    #[inline(always)]
    fn word(haystack: &[u8], i: usize) -> u64 {
        u64::from_le_bytes(haystack[i..i + 8].try_into().unwrap())
    }

    #[inline(always)]
    fn lane(mask: u64) -> usize {
        (mask.trailing_zeros() / 8) as usize
    }

    macro_rules! define_swar {
        ($name:ident, $($bc:ident = $n:ident),+) => {
            #[inline]
            pub(super) fn $name(haystack: &[u8], $($n: u8),+) -> Option<usize> {
                $(let $bc = broadcast($n);)+
                let len = haystack.len();
                let mut i = 0;
                // Two independent u64 lanes per iteration: the masks
                // have no data dependency, so both loads and both
                // "haszero" chains overlap in the pipeline.
                while i + 16 <= len {
                    let w0 = word(haystack, i);
                    let w1 = word(haystack, i + 8);
                    let m0 = $(match_mask(w0, $bc))|+;
                    let m1 = $(match_mask(w1, $bc))|+;
                    if m0 | m1 != 0 {
                        return Some(if m0 != 0 {
                            i + lane(m0)
                        } else {
                            i + 8 + lane(m1)
                        });
                    }
                    i += 16;
                }
                if i + 8 <= len {
                    let w = word(haystack, i);
                    let m = $(match_mask(w, $bc))|+;
                    if m != 0 {
                        return Some(i + lane(m));
                    }
                    i += 8;
                }
                haystack[i..]
                    .iter()
                    .position(|&b| $(b == $n)||+)
                    .map(|p| i + p)
            }
        };
    }

    define_swar!(find1, b1 = n1);
    define_swar!(find2, b1 = n1, b2 = n2);
    define_swar!(find3, b1 = n1, b2 = n2, b3 = n3);
    define_swar!(find4, b1 = n1, b2 = n2, b3 = n3, b4 = n4);
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod sse2 {
    use core::arch::x86_64::{
        __m128i, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8,
    };

    // SSE2 is part of the x86_64 baseline ABI, so these need no
    // `#[target_feature]` gate or runtime check: they are plain safe
    // functions that inline freely — including into the AVX2 tier's
    // short-input path — keeping sub-vector scans call-free.
    macro_rules! define_sse2 {
        ($name:ident, $($v:ident = $n:ident),+) => {
            #[inline]
            pub(super) fn $name(haystack: &[u8], $($n: u8),+) -> Option<usize> {
                let len = haystack.len();
                if len < 16 {
                    return super::swar::$name(haystack, $($n),+);
                }
                let ptr = haystack.as_ptr();
                // SAFETY: SSE2 is unconditionally available on x86_64,
                // and every load below is a full 16-byte window inside
                // `haystack` (`i + 16 <= len`, or the overlapped tail at
                // `len - 16` with `len >= 16`).
                unsafe {
                    $(let $v = _mm_set1_epi8($n as i8);)+
                    let mut i = 0usize;
                    while i + 16 <= len {
                        let w = _mm_loadu_si128(ptr.add(i) as *const __m128i);
                        let m = ($(_mm_movemask_epi8(_mm_cmpeq_epi8(w, $v)))|+) as u32;
                        if m != 0 {
                            return Some(i + m.trailing_zeros() as usize);
                        }
                        i += 16;
                    }
                    if i < len {
                        // Overlapped final window: bytes [len-16, i) were
                        // already proven match-free, so the first set bit
                        // is a genuine first match.
                        let j = len - 16;
                        let w = _mm_loadu_si128(ptr.add(j) as *const __m128i);
                        let m = ($(_mm_movemask_epi8(_mm_cmpeq_epi8(w, $v)))|+) as u32;
                        if m != 0 {
                            return Some(j + m.trailing_zeros() as usize);
                        }
                    }
                }
                None
            }
        };
    }

    define_sse2!(find1, v1 = n1);
    define_sse2!(find2, v1 = n1, v2 = n2);
    define_sse2!(find3, v1 = n1, v2 = n2, v3 = n3);
    define_sse2!(find4, v1 = n1, v2 = n2, v3 = n3, v4 = n4);
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx2 {
    use core::arch::x86_64::{
        __m256i, _mm256_cmpeq_epi8, _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_set1_epi8,
    };

    macro_rules! define_avx2 {
        ($name:ident, $imp:ident, $($v:ident = $n:ident),+) => {
            /// # Safety
            /// Caller must ensure the CPU supports AVX2. All loads stay
            /// inside `haystack` (see the module-level safety argument).
            #[target_feature(enable = "avx2")]
            unsafe fn $imp(haystack: &[u8], $($n: u8),+) -> Option<usize> {
                let len = haystack.len();
                if len < 32 {
                    // Short inputs take the SSE2 tier (which itself
                    // hands lengths < 16 to SWAR); AVX2 implies SSE2.
                    return super::sse2::$name(haystack, $($n),+);
                }
                let ptr = haystack.as_ptr();
                $(let $v = _mm256_set1_epi8($n as i8);)+
                let mut i = 0usize;
                while i + 32 <= len {
                    let w = _mm256_loadu_si256(ptr.add(i) as *const __m256i);
                    let m = ($(_mm256_movemask_epi8(_mm256_cmpeq_epi8(w, $v)))|+) as u32;
                    if m != 0 {
                        return Some(i + m.trailing_zeros() as usize);
                    }
                    i += 32;
                }
                if i < len {
                    // Overlapped final window (see sse2): prior bytes in
                    // the window are match-free, first set bit is exact.
                    let j = len - 32;
                    let w = _mm256_loadu_si256(ptr.add(j) as *const __m256i);
                    let m = ($(_mm256_movemask_epi8(_mm256_cmpeq_epi8(w, $v)))|+) as u32;
                    if m != 0 {
                        return Some(j + m.trailing_zeros() as usize);
                    }
                }
                None
            }

            pub(super) fn $name(haystack: &[u8], $($n: u8),+) -> Option<usize> {
                // SAFETY: reachable only via a vtable installed after
                // `is_x86_feature_detected!("avx2")` (or the equivalent
                // `Kernel::is_available` assert); the intrinsic loads
                // are in-bounds per the module safety argument.
                unsafe { $imp(haystack, $($n),+) }
            }
        };
    }

    define_avx2!(find1, find1_impl, v1 = n1);
    define_avx2!(find2, find2_impl, v1 = n1, v2 = n2);
    define_avx2!(find3, find3_impl, v1 = n1, v2 = n2, v3 = n3);
    define_avx2!(find4, find4_impl, v1 = n1, v2 = n2, v3 = n3, v4 = n4);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_byte_matches_naive_scan() {
        let data = b"abcdefghijklmnop<qrstuvwxyz";
        for needle in [b'<', b'a', b'p', b'z', b'!'] {
            assert_eq!(
                find_byte(data, needle),
                data.iter().position(|&b| b == needle),
                "needle {:?}",
                needle as char
            );
        }
    }

    #[test]
    fn find_byte_handles_all_offsets_and_lengths() {
        for len in 0..70 {
            for pos in 0..len {
                let mut v = vec![b'x'; len];
                v[pos] = b'<';
                assert_eq!(find_byte(&v, b'<'), Some(pos), "len={len} pos={pos}");
            }
            let v = vec![b'x'; len];
            assert_eq!(find_byte(&v, b'<'), None, "len={len} absent");
        }
    }

    #[test]
    fn find_byte2_returns_earliest_of_either() {
        let data = b"aaaaaaaaaaaa\"bbb<ccc";
        assert_eq!(find_byte2(data, b'<', b'"'), Some(12));
        assert_eq!(find_byte2(data, b'<', b'!'), Some(16));
        assert_eq!(find_byte2(data, b'!', b'?'), None);
        for len in 0..70 {
            for pos in 0..len {
                let mut v = vec![b'x'; len];
                v[pos] = b'&';
                assert_eq!(find_byte2(&v, b'<', b'&'), Some(pos));
            }
        }
    }

    #[test]
    fn find_byte3_returns_earliest_of_three() {
        let data = b"0123456789'0123<45&67";
        assert_eq!(find_byte3(data, b'<', b'&', b'\''), Some(10));
        assert_eq!(find_byte3(data, b'<', b'&', b'%'), Some(15));
        assert_eq!(find_byte3(data, b'%', b'@', b'~'), None);
    }

    #[test]
    fn find_byte4_returns_earliest_of_four() {
        let data = b"0123456789012345678901234567890123456789]rest";
        assert_eq!(find_byte4(data, b'<', b'&', b'\r', b']'), Some(40));
        assert_eq!(find_byte4(data, b'<', b'&', b'\r', b'%'), None);
        assert_eq!(find_byte4(b"", b'a', b'b', b'c', b'd'), None);
    }

    #[test]
    fn classify_run_stops_at_each_text_delimiter() {
        for (doc, want) in [
            (&b"hello<b"[..], 5),
            (b"hi&amp;", 2),
            (b"a\rb", 1),
            (b"ab]]>", 2),
            (b"plain text with no delims at all.", 33),
            (b"", 0),
        ] {
            assert_eq!(classify_run(doc), want, "doc {:?}", doc);
        }
    }

    #[test]
    fn every_available_kernel_agrees_on_basics() {
        let data = b"some<text&with\rdelims]here and a much longer tail to cross 32 bytes";
        for k in available_kernels() {
            assert_eq!(k.find_byte(data, b'<'), Some(4), "{k}");
            assert_eq!(k.find_byte2(data, b'&', b'\r'), Some(9), "{k}");
            assert_eq!(k.find_byte3(data, b']', b'\r', b'&'), Some(9), "{k}");
            assert_eq!(k.find_byte4(data, b']', b'~', b'^', b'@'), Some(21), "{k}");
            assert_eq!(k.classify_run(data), 4, "{k}");
            assert_eq!(k.find_byte(data, b'!'), None, "{k}");
        }
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in [Kernel::Scalar, Kernel::Swar, Kernel::Sse2, Kernel::Avx2] {
            assert_eq!(Kernel::from_name(k.name()), Some(k));
        }
        assert_eq!(Kernel::from_name("neon"), None);
    }

    #[test]
    fn active_kernel_is_available() {
        assert!(active_kernel().is_available());
        // Scalar and SWAR are available everywhere.
        assert!(available_kernels().contains(&Kernel::Scalar));
        assert!(available_kernels().contains(&Kernel::Swar));
    }
}
