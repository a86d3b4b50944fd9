//! Depth vectors (§4.3), as bitmaps.
//!
//! With closures and recursive data, several paths through the HPDT can
//! lead to the same state. Each runtime configuration carries a *depth
//! vector*: the depths of the begin events that triggered the transitions
//! on its path. Because ancestors of the current stream position have
//! strictly increasing depths, the depth uniquely identifies which open
//! element anchored each step — the depth vector "simulates the stack
//! operations for every possible path" (paper, §4.3).
//!
//! Buffer operations are *scoped* by depth vector: an operation performed
//! by a configuration on the queue of `bpdt(l, k)` affects exactly the
//! buffered items whose depth vector agrees with the configuration's on
//! the first `l + 1` entries (the anchors of layers `0..=l`). This is the
//! paper's "only operate the items with the depth vector that is equal to
//! the depth vector of the current state", generalized to buffers that
//! hold items uploaded from deeper layers.
//!
//! **Representation.** The paper: "the operations on depth vector are
//! implemented using bitmap vectors. All the operations and comparisons
//! are done using integer and bit operations." The entries of a depth
//! vector are strictly increasing (each transition anchors strictly
//! deeper), so the vector *is* a set of depths: bit `d` set ⇔ depth `d`
//! present, and the stack order is the numeric order. For depths ≤ 63 a
//! single `u64` gives O(1) push (set bit), pop (clear the highest bit),
//! top (highest bit), and prefix comparison (XOR + trailing-zeros);
//! deeper documents fall back to an explicit vector. Representations are
//! canonical: any vector whose depths all fit 0..=63 is stored as bits,
//! so equality and ordering are representation-independent.
//!
//! **Order.** Vectors compare as depth sets from the top down: the
//! greater is the one holding the deepest depth the two do not share —
//! which is the bitmap's integer order, extended to wide vectors. Pushing
//! one depth above both of two vectors, or popping a top they share,
//! keeps them in order under it; the runtime relies on that to step a run
//! of configurations anchored at one element as one block (see
//! `runtime.rs`). Lexicographic order on the depth lists would not: it
//! ranks (2,65,70) above (1,66,70), and their pops the other way round.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

const BITS_MAX_DEPTH: u32 = 63;

/// A depth vector: a strictly increasing stack of event depths.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Depths ≤ 63 as a bitmask (the common case; the paper's bitmaps).
    Bits(u64),
    /// Documents nested deeper than 64 levels. Copy-on-write: cloning a
    /// configuration (forking on a nondeterministic arc, tagging a
    /// buffered item) shares the vector; `push_mut`/`pop_mut` only copy
    /// when the storage is actually shared (`Arc::make_mut`).
    Wide(Arc<Vec<u32>>),
}

/// See module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DepthVector(Repr);

impl Ord for DepthVector {
    /// Top-down set order (see the module docs). A wide vector holds a
    /// depth above 63, so it follows every bitmap.
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Bits(a), Repr::Bits(b)) => a.cmp(b),
            (Repr::Wide(a), Repr::Wide(b)) => a.iter().rev().cmp(b.iter().rev()),
            (Repr::Bits(_), Repr::Wide(_)) => Ordering::Less,
            (Repr::Wide(_), Repr::Bits(_)) => Ordering::Greater,
        }
    }
}

impl PartialOrd for DepthVector {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Default for DepthVector {
    fn default() -> Self {
        DepthVector(Repr::Bits(0))
    }
}

impl DepthVector {
    /// The empty vector (every state's vector is initialized empty).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from explicit depths (must be strictly increasing).
    pub fn from_depths(depths: &[u32]) -> Self {
        debug_assert!(
            depths.windows(2).all(|w| w[0] < w[1]),
            "strictly increasing"
        );
        if depths.last().copied().unwrap_or(0) <= BITS_MAX_DEPTH {
            let mut bits = 0u64;
            for &d in depths {
                bits |= 1 << d;
            }
            DepthVector(Repr::Bits(bits))
        } else {
            DepthVector(Repr::Wide(Arc::new(depths.to_vec())))
        }
    }

    /// `s'.dv = s.dv + e.d` — append the depth of a begin event.
    pub fn push(&self, depth: u32) -> Self {
        let mut v = self.clone();
        v.push_mut(depth);
        v
    }

    /// `s'.dv = s.dv − e.d` — remove the last depth at an end event.
    pub fn pop(&self) -> Self {
        let mut v = self.clone();
        v.pop_mut();
        v
    }

    /// In-place push (hot path: a configuration moving, not forking).
    pub fn push_mut(&mut self, depth: u32) {
        debug_assert!(
            self.is_empty() || depth > self.top(),
            "depth-vector entries are strictly increasing: push {depth} on top {}",
            self.top()
        );
        match &mut self.0 {
            Repr::Bits(bits) if depth <= BITS_MAX_DEPTH => *bits |= 1 << depth,
            Repr::Bits(bits) => {
                // Overflow into the wide representation.
                let mut v = depths_of(*bits);
                v.push(depth);
                self.0 = Repr::Wide(Arc::new(v));
            }
            Repr::Wide(v) => Arc::make_mut(v).push(depth),
        }
    }

    /// In-place pop. Falls back to the canonical bitmap when a wide
    /// vector shrinks into range again.
    pub fn pop_mut(&mut self) {
        match &mut self.0 {
            Repr::Bits(bits) => {
                if *bits != 0 {
                    let top = 63 - bits.leading_zeros();
                    *bits &= !(1u64 << top);
                }
            }
            Repr::Wide(v) => {
                let v = Arc::make_mut(v);
                v.pop();
                if v.last().copied().unwrap_or(0) <= BITS_MAX_DEPTH {
                    *self = DepthVector::from_depths(v);
                }
            }
        }
    }

    /// The last depth in the vector (`top` in the paper); 0 when empty so
    /// that the document element (depth 1) satisfies `e.d == top + 1`.
    pub fn top(&self) -> u32 {
        match &self.0 {
            Repr::Bits(0) => 0,
            Repr::Bits(bits) => 63 - bits.leading_zeros(),
            Repr::Wide(v) => v.last().copied().unwrap_or(0),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Bits(bits) => bits.count_ones() as usize,
            Repr::Wide(v) => v.len(),
        }
    }

    /// True when no transition has pushed yet.
    pub fn is_empty(&self) -> bool {
        match &self.0 {
            Repr::Bits(bits) => *bits == 0,
            Repr::Wide(v) => v.is_empty(),
        }
    }

    /// True when the vector is stored as the inline `u64` bitmap. In this
    /// representation `clone()` is a register copy and never touches the
    /// allocator — the guarantee the buffer enqueue path (which takes
    /// `&DepthVector` and clones internally) relies on to keep the
    /// matching steady state allocation-free. Wide vectors (documents
    /// nested deeper than 64 levels) clone by bumping an `Arc` refcount,
    /// which is also allocation-free; only *mutating* a shared wide
    /// vector copies.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Bits(_))
    }

    /// Do the first `n` entries agree? Both vectors must have at least `n`
    /// entries for a scoped buffer operation to apply.
    pub fn prefix_matches(&self, other: &DepthVector, n: usize) -> bool {
        match (&self.0, &other.0) {
            (Repr::Bits(a), Repr::Bits(b)) => {
                // The n smallest set bits must coincide. Below the lowest
                // differing bit the masks agree, so it suffices that each
                // side has ≥ n bits below that point (or the masks are
                // identical with ≥ n bits).
                let x = a ^ b;
                if x == 0 {
                    return a.count_ones() as usize >= n;
                }
                let low_mask = (1u64 << x.trailing_zeros()) - 1;
                (a & low_mask).count_ones() as usize >= n
                    && (b & low_mask).count_ones() as usize >= n
            }
            _ => {
                // Mixed or wide: compare explicit prefixes.
                let a = self.to_depths();
                let b = other.to_depths();
                a.len() >= n && b.len() >= n && a[..n] == b[..n]
            }
        }
    }

    /// The first `n` entries as a vector of their own — the key a scoped
    /// buffer operation addresses — or `None` when there are fewer:
    /// `a.prefix_matches(b, n)` ⇔ `a.prefix(n) == b.prefix(n) ≠ None`.
    /// Canonical like every vector, so the prefix of a wide vector that
    /// fits the bitmap *is* a bitmap.
    pub fn prefix(&self, n: usize) -> Option<DepthVector> {
        match &self.0 {
            Repr::Bits(bits) => {
                // Strip the n lowest set bits; what is left is the rest.
                let mut rest = *bits;
                for _ in 0..n {
                    if rest == 0 {
                        return None;
                    }
                    rest &= rest - 1;
                }
                Some(DepthVector(Repr::Bits(bits ^ rest)))
            }
            Repr::Wide(v) if v.len() == n => Some(self.clone()),
            Repr::Wide(v) => v.get(..n).map(DepthVector::from_depths),
        }
    }

    /// Explicit depths, in stack order (diagnostics, wide-path compares).
    pub fn to_depths(&self) -> Vec<u32> {
        match &self.0 {
            Repr::Bits(bits) => depths_of(*bits),
            Repr::Wide(v) => v.as_ref().clone(),
        }
    }

    /// Raw access for diagnostics (allocates; prefer `to_depths`).
    pub fn as_slice(&self) -> Vec<u32> {
        self.to_depths()
    }
}

fn depths_of(mut bits: u64) -> Vec<u32> {
    let mut v = Vec::with_capacity(bits.count_ones() as usize);
    while bits != 0 {
        let d = bits.trailing_zeros();
        v.push(d);
        bits &= bits - 1;
    }
    v
}

impl fmt::Display for DepthVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.to_depths().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_top() {
        let dv = DepthVector::new();
        assert_eq!(dv.top(), 0);
        assert!(dv.is_empty());
        let dv = dv.push(0).push(1).push(4);
        assert_eq!(dv.top(), 4);
        assert_eq!(dv.len(), 3);
        let dv = dv.pop();
        assert_eq!(dv.top(), 1);
        assert_eq!(dv.as_slice(), &[0, 1]);
    }

    #[test]
    fn push_does_not_mutate_original() {
        let a = DepthVector::from_depths(&[0, 1]);
        let b = a.push(2);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn prefix_matching_scopes_operations() {
        // Example 6 of the paper: clearing with configuration vector
        // (1,9) must not delete an item tagged (1,2,…).
        let config = DepthVector::from_depths(&[1, 9]);
        let item_wrong_pub = DepthVector::from_depths(&[1, 9, 10, 11]);
        let item_right_pub = DepthVector::from_depths(&[1, 2, 10, 11]);
        assert!(config.prefix_matches(&item_wrong_pub, 2));
        assert!(!config.prefix_matches(&item_right_pub, 2));
    }

    #[test]
    fn prefix_requires_enough_entries() {
        let short = DepthVector::from_depths(&[1]);
        let long = DepthVector::from_depths(&[1, 2]);
        assert!(!short.prefix_matches(&long, 2));
        assert!(long.prefix_matches(&long, 2));
    }

    #[test]
    fn display_is_parenthesized() {
        assert_eq!(DepthVector::from_depths(&[1, 2]).to_string(), "(1,2)");
        assert_eq!(DepthVector::new().to_string(), "()");
    }

    #[test]
    fn inline_representation_covers_realistic_depths() {
        let dv = DepthVector::from_depths(&[1, 2, 30, 63]);
        assert!(dv.is_inline(), "depths ≤ 63 stay in the u64 bitmap");
        let mut deep = dv.clone();
        deep.push_mut(64);
        assert!(!deep.is_inline(), "depth 64 overflows into the wide repr");
        deep.pop_mut();
        assert!(deep.is_inline(), "popping back renormalizes to inline");
    }

    #[test]
    fn deep_documents_overflow_into_wide_and_back() {
        let mut dv = DepthVector::new();
        for d in 0..=70 {
            dv.push_mut(d);
        }
        assert_eq!(dv.len(), 71);
        assert_eq!(dv.top(), 70);
        // Pop back below 64: must renormalize to bits and equal a fresh
        // bitmap vector (canonical representation).
        for _ in 0..8 {
            dv.pop_mut();
        }
        assert_eq!(dv.top(), 62);
        let fresh = DepthVector::from_depths(&(0..=62).collect::<Vec<_>>());
        assert_eq!(dv, fresh);
    }

    #[test]
    fn wide_vectors_share_storage_until_mutation() {
        let mut dv = DepthVector::new();
        for d in 0..=70 {
            dv.push_mut(d);
        }
        let copy = dv.clone();
        let (Repr::Wide(a), Repr::Wide(b)) = (&dv.0, &copy.0) else {
            panic!("expected wide representation");
        };
        assert!(Arc::ptr_eq(a, b), "clone must share, not copy");
        // Mutating one side must not disturb the other.
        let mut fork = copy.clone();
        fork.push_mut(71);
        assert_eq!(dv.len(), 71);
        assert_eq!(copy.len(), 71);
        assert_eq!(fork.len(), 72);
        assert_eq!(fork.top(), 71);
    }

    #[test]
    fn prefix_across_representations() {
        let mut deep = DepthVector::new();
        for d in [1, 2, 100] {
            deep.push_mut(d);
        }
        let shallow = DepthVector::from_depths(&[1, 2]);
        assert!(shallow.prefix_matches(&deep, 2));
        assert!(deep.prefix_matches(&shallow, 2));
        assert!(!deep.prefix_matches(&shallow, 3));
    }

    #[test]
    fn prefix_keeps_the_first_entries_or_nothing() {
        let dv = DepthVector::from_depths(&[1, 2, 30, 63]);
        assert_eq!(dv.prefix(0), Some(DepthVector::new()));
        assert_eq!(dv.prefix(2), Some(DepthVector::from_depths(&[1, 2])));
        assert_eq!(dv.prefix(4), Some(dv.clone()));
        assert_eq!(dv.prefix(5), None);
        // A wide vector's prefix is canonical: a bitmap where it fits.
        let wide = DepthVector::from_depths(&[1, 2, 63, 64, 70]);
        assert!(wide.prefix(3).unwrap().is_inline());
        assert_eq!(
            wide.prefix(3),
            DepthVector::from_depths(&[1, 2, 63]).prefix(3)
        );
        assert_eq!(wide.prefix(4).unwrap().to_depths(), [1, 2, 63, 64]);
        assert_eq!(wide.prefix(5), Some(wide.clone()));
        assert_eq!(wide.prefix(6), None);
    }

    /// The order is the model's depth lists compared from the top down,
    /// whichever representation each side is in, and a push above both
    /// sides or a pop of the top they share never reorders them — the
    /// property a lock-step run's successors rely on, across the bitmap
    /// boundary too.
    #[test]
    fn order_is_top_down_and_survives_a_shared_push_or_pop() {
        let model_cmp = |a: &[u32], b: &[u32]| a.iter().rev().cmp(b.iter().rev());
        let mut crossed = 0u32;
        xsq_datagen::rng::cases(0..4096, |rng| {
            let top = rng.gen_range(1..90u32);
            let mut side = || {
                let mut v: Vec<u32> = (0..top).filter(|_| rng.gen_bool(0.3)).collect();
                v.push(top);
                v
            };
            let (a, b) = (side(), side());
            let (da, db) = (DepthVector::from_depths(&a), DepthVector::from_depths(&b));
            assert_eq!(da.cmp(&db), model_cmp(&a, &b), "{a:?} vs {b:?}");
            let d = top + rng.gen_range(1..8u32);
            let (mut pa, mut pb) = (da.clone(), db.clone());
            pa.push_mut(d);
            pb.push_mut(d);
            assert_eq!(pa.cmp(&pb), da.cmp(&db), "push {d} on {a:?} vs {b:?}");
            let (mut qa, mut qb) = (da.clone(), db.clone());
            qa.pop_mut();
            qb.pop_mut();
            assert_eq!(qa.cmp(&qb), da.cmp(&db), "pop of {a:?} vs {b:?}");
            crossed +=
                u32::from(da.is_inline() != pa.is_inline() || da.is_inline() != qa.is_inline());
        });
        assert!(
            crossed >= 64,
            "only {crossed} cases crossed the bitmap boundary"
        );
    }

    /// Model-based check: the bitmap implementation behaves exactly like
    /// a plain vector under arbitrary push/pop sequences, including
    /// around the 64-depth boundary. Seeded; see `datagen::rng::cases`.
    #[test]
    fn matches_the_vec_model() {
        let mut crossed = 0u32;
        xsq_datagen::rng::cases(0..1024, |rng| {
            let probe_n = rng.gen_range(0..6usize);
            let mut dv = DepthVector::new();
            let mut model: Vec<u32> = Vec::new();
            let mut snapshots: Vec<(DepthVector, Vec<u32>)> = Vec::new();
            let mut went_wide = false;
            for _ in 0..rng.gen_range(0..120u32) {
                if rng.gen_bool(0.5) {
                    // Keep entries strictly increasing like real runs.
                    let d = model.last().copied().unwrap_or(0) + rng.gen_range(1..10u32);
                    if d > 200 {
                        continue;
                    }
                    dv.push_mut(d);
                    model.push(d);
                } else {
                    dv.pop_mut();
                    model.pop();
                }
                assert_eq!(dv.len(), model.len());
                assert_eq!(dv.top(), model.last().copied().unwrap_or(0));
                assert_eq!(dv.to_depths(), model);
                // Canonical: the same depths built afresh compare equal,
                // whichever side of the boundary the history visited.
                assert_eq!(dv, DepthVector::from_depths(&model));
                // The scope key is the model's slice, or nothing.
                assert_eq!(
                    dv.prefix(probe_n),
                    model.get(..probe_n).map(DepthVector::from_depths)
                );
                went_wide |= !dv.is_inline();
                snapshots.push((dv.clone(), model.clone()));
            }
            crossed += u32::from(went_wide && dv.is_inline());
            // Cross-compare prefix_matches on saved states against the
            // model definition.
            for (dva, ma) in snapshots.iter().rev().take(8) {
                for (dvb, mb) in snapshots.iter().take(8) {
                    let expect = ma.len() >= probe_n
                        && mb.len() >= probe_n
                        && ma[..probe_n] == mb[..probe_n];
                    assert_eq!(
                        dva.prefix_matches(dvb, probe_n),
                        expect,
                        "prefix {probe_n} of {ma:?} vs {mb:?}"
                    );
                    let (ka, kb) = (dva.prefix(probe_n), dvb.prefix(probe_n));
                    assert_eq!(ka.is_some() && ka == kb, expect);
                }
            }
        });
        // The walk must keep reaching past depth 63 and coming back.
        assert!(
            crossed >= 32,
            "only {crossed} cases crossed the boundary twice"
        );
    }
}
