//! Delimiter-scan kernels: the tokenizer's memchr.
//!
//! The input window's boundary scanner ([`crate::push`]) spends its time
//! finding where tokens end — the next `<` in character data, the `>` or
//! quote in a tag, the terminator of a comment — the parser finding the
//! closing quote of an attribute value, and the serializer's escape loop
//! the next byte to escape. Scanning those runs byte-at-a-time leaves
//! most of every cache line on the floor, so the finders here examine 16
//! bytes per step, on one kernel per target that the compiler picks:
//!
//! * **`sse2`** — 16-byte `core::arch::x86_64` vectors (`pcmpeqb` +
//!   `pmovmskb`) on x86_64, where SSE2 is part of the baseline ABI;
//!   inputs shorter than one vector take the SWAR path.
//! * **`swar`** — two unrolled `u64` lanes of the classic "haszero"
//!   SIMD-within-a-register trick; portable, the kernel on every other
//!   target and under Miri (which cannot execute vendor intrinsics).
//!
//! One `cfg`'d `use … as imp` makes the choice, so every finder is a
//! direct call that inlines into its caller: there is no dispatch table,
//! no CPU detection and no override. Wider vectors have nothing to buy
//! here — over DBLP, 92 % of scans end within 16 bytes and the mean is
//! under 10 (EXPERIMENTS.md, *One kernel per target*).
//! [`Kernel`] names the tiers this build compiles so the differential
//! tests can sweep each one, and [`active_kernel`] reports which one the
//! finders call, so benches and STAT replies record what ran.
//!
//! # Safety
//!
//! Every SSE2 load is a full 16-byte window inside the haystack, and a
//! safe SWAR twin, swept by the differential tests, returns the same
//! answers. No runtime detection has to be true for the code to be sound.
//!
//! SWAR positional correctness: `match_mask` can set spurious high bits,
//! but only at byte positions *above* the first true match (the borrow
//! in `wrapping_sub` propagates low→high), so `trailing_zeros()/8` is
//! exact and OR-combining several needle masks preserves that property.

#[cfg(all(target_arch = "x86_64", not(miri)))]
use sse2 as imp;
#[cfg(not(all(target_arch = "x86_64", not(miri))))]
use swar as imp;

/// One tier of the scan-kernel family, as compiled into this build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Portable two-lane `u64` SWAR; every target.
    Swar,
    /// 16-byte `core::arch` vectors; x86_64 outside Miri.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    Sse2,
}

/// Call `$kernel`'s implementation of `$find`.
macro_rules! on_kernel {
    ($kernel:expr, $find:ident($($arg:expr),+)) => {
        match $kernel {
            Kernel::Swar => swar::$find($($arg),+),
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            Kernel::Sse2 => sse2::$find($($arg),+),
        }
    };
}

impl Kernel {
    /// The name recorded in bench JSON, STAT replies and the serve banner.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Swar => "swar",
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            Kernel::Sse2 => "sse2",
        }
    }

    /// [`find_byte`] on this tier (differential tests).
    pub fn find_byte(self, haystack: &[u8], n1: u8) -> Option<usize> {
        on_kernel!(self, find1(haystack, n1))
    }

    /// [`find_byte2`] on this tier.
    pub fn find_byte2(self, haystack: &[u8], n1: u8, n2: u8) -> Option<usize> {
        on_kernel!(self, find2(haystack, n1, n2))
    }

    /// [`find_byte3`] on this tier.
    pub fn find_byte3(self, haystack: &[u8], n1: u8, n2: u8, n3: u8) -> Option<usize> {
        on_kernel!(self, find3(haystack, n1, n2, n3))
    }

    /// [`find_byte4`] on this tier.
    pub fn find_byte4(self, haystack: &[u8], n1: u8, n2: u8, n3: u8, n4: u8) -> Option<usize> {
        on_kernel!(self, find4(haystack, n1, n2, n3, n4))
    }

    /// [`classify_run`] on this tier.
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

/// Every tier this build compiles; the last is the one the finders call.
pub fn available_kernels() -> Vec<Kernel> {
    vec![
        Kernel::Swar,
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Kernel::Sse2,
    ]
}

/// The tier the module-level finders call: SSE2 on x86_64, SWAR on
/// every other target and under Miri.
pub fn active_kernel() -> Kernel {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        Kernel::Sse2
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        Kernel::Swar
    }
}

/// Comma-joined list of scan-relevant CPU features detected at runtime
/// (empty on non-x86 targets) — recorded in bench JSON so throughput
/// numbers are interpretable across containers. Reporting only: no
/// kernel choice depends on it.
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

/// Position of the first occurrence of `needle` in `haystack`.
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    imp::find1(haystack, needle)
}

/// Position of the first occurrence of either `n1` or `n2` in `haystack`.
#[inline]
pub fn find_byte2(haystack: &[u8], n1: u8, n2: u8) -> Option<usize> {
    imp::find2(haystack, n1, n2)
}

/// Position of the first occurrence of `n1`, `n2`, or `n3`.
#[inline]
pub fn find_byte3(haystack: &[u8], n1: u8, n2: u8, n3: u8) -> Option<usize> {
    imp::find3(haystack, n1, n2, n3)
}

/// Position of the first occurrence of `n1`, `n2`, `n3`, or `n4`.
#[inline]
pub fn find_byte4(haystack: &[u8], n1: u8, n2: u8, n3: u8, n4: u8) -> Option<usize> {
    imp::find4(haystack, n1, n2, n3, n4)
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

    // SSE2 is part of the x86_64 baseline ABI, so these are plain safe
    // functions with no feature gate: they inline into every caller.
    macro_rules! define_sse2 {
        ($name:ident, $($v:ident = $n:ident),+) => {
            #[inline]
            pub(super) fn $name(haystack: &[u8], $($n: u8),+) -> Option<usize> {
                let len = haystack.len();
                if len < 16 {
                    return super::swar::$name(haystack, $($n),+);
                }
                let ptr = haystack.as_ptr();
                // SAFETY: every load below is a full 16-byte window
                // inside `haystack` (`i + 16 <= len`, or the overlapped
                // tail at `len - 16` with `len >= 16`), and unaligned
                // (`loadu`), so alignment is irrelevant.
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
    fn active_kernel_is_available() {
        assert!(available_kernels().contains(&active_kernel()));
        // SWAR is compiled everywhere.
        assert!(available_kernels().contains(&Kernel::Swar));
    }
}
