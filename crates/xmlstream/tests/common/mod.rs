//! Shared by the seeded fuzz suites: no external property-testing crate
//! is available, so generation runs on a small LCG — deterministic, and
//! a failure is reproduced by its seed.

#![allow(dead_code)] // each suite uses its own subset

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
