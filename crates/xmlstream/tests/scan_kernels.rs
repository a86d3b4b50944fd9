//! Differential property tests for the scan-kernel family.
//!
//! Every tier this build compiles (SWAR everywhere, SSE2 on x86_64
//! outside Miri) must be byte-identical to a naive reference scan
//! across:
//!
//! - haystack lengths 0–130 (spans the 8-byte SWAR step, the 16-byte
//!   two-lane/SSE2 blocks, and every tail remainder shape);
//! - every needle position within each length, including positions that
//!   land in the final partial block (needle-in-remainder) and the
//!   needle-absent case;
//! - misaligned slice starts (offsets 0–31 into a larger buffer), so
//!   unaligned vector loads are exercised at every phase.
//!
//! SWAR is swept on x86_64 too: it is SSE2's path for inputs under 16
//! bytes there, and the whole path elsewhere. The module-level finders
//! the tokenizer calls are swept the same way
//! (`the_build_picks_one_kernel_per_target`).
//!
//! Under Miri the sweeps shrink (Miri is ~1000× slower) but still cover
//! each block-size boundary; SSE2 is compiled out under Miri, so SWAR —
//! the build's kernel there — is what Miri checks.

use xsq_xml::scan::{self, active_kernel, available_kernels, Kernel, TEXT_DELIMS};

/// The always-correct reference all tiers are measured against.
fn naive(haystack: &[u8], needles: &[u8]) -> Option<usize> {
    haystack.iter().position(|b| needles.contains(b))
}

/// Invoke `kernel`'s finder of matching arity.
fn run(kernel: Kernel, haystack: &[u8], needles: &[u8]) -> Option<usize> {
    match *needles {
        [a] => kernel.find_byte(haystack, a),
        [a, b] => kernel.find_byte2(haystack, a, b),
        [a, b, c] => kernel.find_byte3(haystack, a, b, c),
        [a, b, c, d] => kernel.find_byte4(haystack, a, b, c, d),
        _ => unreachable!("finders are arity 1–4"),
    }
}

/// The module-level finder of matching arity: what the tokenizer calls.
fn run_module(haystack: &[u8], needles: &[u8]) -> Option<usize> {
    match *needles {
        [a] => scan::find_byte(haystack, a),
        [a, b] => scan::find_byte2(haystack, a, b),
        [a, b, c] => scan::find_byte3(haystack, a, b, c),
        [a, b, c, d] => scan::find_byte4(haystack, a, b, c, d),
        _ => unreachable!("finders are arity 1–4"),
    }
}

fn max_len() -> usize {
    if cfg!(miri) {
        40
    } else {
        130
    }
}

fn offsets() -> Vec<usize> {
    if cfg!(miri) {
        vec![0, 1, 7, 15, 31]
    } else {
        (0..32).collect()
    }
}

/// For each tier, each length, and each needle position: exactly one
/// needle planted, the reference and the tier must agree.
#[test]
fn every_position_every_length() {
    let needle_sets: [&[u8]; 4] = [b"<", b"<&", b"<&\r", &TEXT_DELIMS];
    for kernel in available_kernels() {
        for needles in needle_sets {
            for len in 0..=max_len() {
                let mut buf = vec![b'x'; len];
                // Needle-absent case first.
                assert_eq!(
                    run(kernel, &buf, needles),
                    None,
                    "{kernel} len={len} absent"
                );
                for pos in 0..len {
                    buf[pos] = needles[pos % needles.len()];
                    let got = run(kernel, &buf, needles);
                    assert_eq!(
                        got,
                        Some(pos),
                        "{kernel} len={len} pos={pos} needles={needles:?}"
                    );
                    buf[pos] = b'x';
                }
            }
        }
    }
}

/// Misaligned starts: the same sweep but on slices beginning at every
/// offset 0–31 into a page-ish buffer, so vector loads hit every
/// alignment phase.
#[test]
fn misaligned_slice_starts() {
    let lens: Vec<usize> = if cfg!(miri) {
        vec![0, 1, 7, 8, 15, 16, 17, 31, 32, 33]
    } else {
        (0..=66).collect()
    };
    let mut page = [b'x'; 32 + 130 + 32];
    for kernel in available_kernels() {
        for &off in &offsets() {
            for &len in &lens {
                // Plant a needle just past the slice end: must NOT be found.
                page[off + len] = b'<';
                {
                    let slice = &page[off..off + len];
                    assert_eq!(
                        kernel.find_byte(slice, b'<'),
                        None,
                        "{kernel} off={off} len={len} past-end leak"
                    );
                }
                page[off + len] = b'x';
                // And at the last in-slice byte (the remainder): found.
                if len > 0 {
                    page[off + len - 1] = b'<';
                    let slice = &page[off..off + len];
                    assert_eq!(
                        kernel.find_byte(slice, b'<'),
                        Some(len - 1),
                        "{kernel} off={off} len={len} remainder"
                    );
                    page[off + len - 1] = b'x';
                }
            }
        }
    }
}

/// Multiple needles present: the *first* match wins regardless of which
/// needle it is, for every pair of positions.
#[test]
fn first_of_several_matches_wins() {
    let limit = if cfg!(miri) { 24 } else { 70 };
    for kernel in available_kernels() {
        for len in 2..=limit {
            let mut buf = vec![b'x'; len];
            for a in 0..len {
                for b in (a + 1)..len {
                    buf[a] = b'&';
                    buf[b] = b'<';
                    let expect = naive(&buf, b"<&");
                    assert_eq!(expect, Some(a));
                    assert_eq!(
                        run(kernel, &buf, b"<&"),
                        expect,
                        "{kernel} len={len} a={a} b={b}"
                    );
                    buf[a] = b'x';
                    buf[b] = b'x';
                }
            }
        }
    }
}

/// Randomized-ish content: a pseudo-random byte soup compared against
/// the reference for all four arities on every tier.
#[test]
fn byte_soup_differential() {
    let total = if cfg!(miri) { 200 } else { 4096 };
    // xorshift; deterministic so failures reproduce.
    let mut state = 0x2003_c0ffee_u64;
    let mut soup = Vec::with_capacity(total);
    for _ in 0..total {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        soup.push((state >> 33) as u8);
    }
    let needle_sets: [&[u8]; 4] = [b"<", b"<&", b"<&\r", &TEXT_DELIMS];
    for kernel in available_kernels() {
        for needles in needle_sets {
            let mut i = 0;
            while i < soup.len() {
                let window = &soup[i..];
                let expect = naive(window, needles);
                assert_eq!(
                    run(kernel, window, needles),
                    expect,
                    "{kernel} i={i} needles={needles:?}"
                );
                i += expect.map_or(window.len(), |p| p + 1);
            }
        }
    }
}

/// `classify_run` is definitionally `find_byte4` over the text delimiter
/// set, with `len` standing in for "no delimiter".
#[test]
fn classify_run_matches_find_byte4() {
    let limit = if cfg!(miri) { 40 } else { 130 };
    let [d1, d2, d3, d4] = TEXT_DELIMS;
    for kernel in available_kernels() {
        for len in 0..=limit {
            let mut buf = vec![b'a'; len];
            assert_eq!(kernel.classify_run(&buf), len, "{kernel} clean len={len}");
            for pos in 0..len {
                for delim in TEXT_DELIMS {
                    buf[pos] = delim;
                    assert_eq!(
                        kernel.classify_run(&buf),
                        kernel.find_byte4(&buf, d1, d2, d3, d4).unwrap(),
                        "{kernel} len={len} pos={pos} delim={delim}"
                    );
                    assert_eq!(kernel.classify_run(&buf), pos);
                    buf[pos] = b'a';
                }
            }
        }
    }
}

/// The compiler, not the CPU, picks the kernel: SSE2 on x86_64 outside
/// Miri, SWAR everywhere else. The module-level finders are what the
/// tokenizer calls, with no table between them and that kernel, so they
/// take the same length × position × offset sweep as each tier.
#[test]
fn the_build_picks_one_kernel_per_target() {
    let expected = if cfg!(all(target_arch = "x86_64", not(miri))) {
        "sse2"
    } else {
        "swar"
    };
    assert_eq!(active_kernel().name(), expected);
    assert_eq!(available_kernels().last(), Some(&active_kernel()));

    let needle_sets: [&[u8]; 4] = [b"<", b"<&", b"<&\r", &TEXT_DELIMS];
    let mut page = [b'x'; 32 + 130 + 32];
    for needles in needle_sets {
        for &off in &offsets() {
            for len in 0..=max_len() {
                // A needle just past the slice end must not be found.
                page[off + len] = needles[0];
                let slice = &page[off..off + len];
                assert_eq!(
                    run_module(slice, needles),
                    None,
                    "off={off} len={len} absent"
                );
                assert_eq!(scan::classify_run(slice), len, "off={off} len={len} clean");
                page[off + len] = b'x';
                for pos in 0..len {
                    page[off + pos] = needles[pos % needles.len()];
                    let slice = &page[off..off + len];
                    let at = format!("off={off} len={len} pos={pos} needles={needles:?}");
                    assert_eq!(run_module(slice, needles), Some(pos), "{at}");
                    let run = naive(slice, &TEXT_DELIMS).unwrap_or(len);
                    assert_eq!(scan::classify_run(slice), run, "{at}");
                    page[off + pos] = b'x';
                }
            }
        }
    }
}
