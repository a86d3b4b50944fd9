//! Shared by the seeded fuzz suites: no external property-testing crate
//! is available, so generation runs on a small LCG — deterministic, and
//! a failure is reproduced by its seed.

#![allow(dead_code)] // each suite uses its own subset

use std::io::BufRead;

use xsq_xml::{ParsePoll, PushParser, Result, StreamParser};

/// Every event `parser` pulls, each recorded as its `Debug` form (every
/// field; names print as strings), or the first error.
pub fn record<R: BufRead>(mut parser: StreamParser<R>) -> Result<Vec<String>> {
    let mut out = Vec::new();
    while let Some(ev) = parser.next_raw()? {
        out.push(format!("{ev:?}"));
    }
    Ok(out)
}

/// [`record`] of a document held whole in memory.
pub fn record_doc(doc: &[u8]) -> Result<Vec<String>> {
    record(StreamParser::new(doc))
}

/// Record the events a push parser has completed so far; `true` once
/// the document has ended.
pub fn drain(parser: &mut PushParser, out: &mut Vec<String>) -> Result<bool> {
    loop {
        match parser.poll_raw()? {
            ParsePoll::Event(ev) => out.push(format!("{ev:?}")),
            ParsePoll::NeedMore => return Ok(false),
            ParsePoll::End => return Ok(true),
        }
    }
}

/// Minimal deterministic PRNG (Numerical Recipes LCG constants).
pub struct Lcg(pub u64);

impl Lcg {
    /// A generator whose stream differs usefully between small seeds.
    pub fn seeded(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}
