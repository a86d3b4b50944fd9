//! BPDT identifiers and the positional encoding of predicate results
//! (§4.2).
//!
//! Each BPDT gets an id `(l, k)`: `l` is its layer (location step index;
//! the root BPDT is layer 0) and `k` its sequence number in the layer.
//! Children are assigned so that `bpdt(l−1, k)`'s *right* child (hanging
//! off its NA state) is `bpdt(l, 2k)` and its *left* child (off its TRUE
//! state) is `bpdt(l, 2k+1)`.
//!
//! Writing `k = (b1 b2 … bl)₂`, bit `bi` is 1 **iff the predicate of the
//! layer-(i−1) BPDT on the path is known true** whenever the run is inside
//! this BPDT. (`b1` corresponds to the root BPDT, whose "predicate" is
//! vacuously true, so `b1 = 1` always.) All buffer decisions — flush
//! directly vs. upload, and where to upload — are fixed statically by
//! this position, which is the paper's central trick. The builder carries
//! them down the tree as it expands it (`PredCx` in `build.rs`), which
//! also serves merged trees where the bits no longer apply.

use std::fmt;

/// Identifier of a BPDT in the HPDT: layer and in-layer sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BpdtId {
    pub layer: u16,
    pub seq: u64,
}

impl BpdtId {
    /// The root BPDT `(0, 0)`.
    pub const ROOT: BpdtId = BpdtId { layer: 0, seq: 0 };

    pub fn new(layer: u16, seq: u64) -> Self {
        BpdtId { layer, seq }
    }

    /// Right child `(l+1, 2k)` — attached to this BPDT's NA state.
    pub fn right_child(&self) -> BpdtId {
        BpdtId::new(self.layer + 1, self.seq << 1)
    }

    /// Left child `(l+1, 2k+1)` — attached to this BPDT's TRUE state.
    pub fn left_child(&self) -> BpdtId {
        BpdtId::new(self.layer + 1, (self.seq << 1) | 1)
    }

    /// Parent id (undefined for the root).
    pub fn parent(&self) -> Option<BpdtId> {
        if self.layer == 0 {
            None
        } else {
            Some(BpdtId::new(self.layer - 1, self.seq >> 1))
        }
    }

    /// Is this BPDT the left (TRUE-side) child of its parent?
    pub fn is_left_child(&self) -> bool {
        self.layer > 0 && (self.seq & 1) == 1
    }
}

impl fmt::Display for BpdtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bpdt({},{})", self.layer, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_follow_fig_11() {
        // Root (0,0) → left child (1,1); (1,1) → right (2,2), left (2,3);
        // (2,2) → right (3,4), left (3,5); (2,3) → right (3,6), left (3,7).
        let root = BpdtId::ROOT;
        let pub_ = root.left_child();
        assert_eq!(pub_, BpdtId::new(1, 1));
        assert_eq!(pub_.right_child(), BpdtId::new(2, 2));
        assert_eq!(pub_.left_child(), BpdtId::new(2, 3));
        assert_eq!(BpdtId::new(2, 2).right_child(), BpdtId::new(3, 4));
        assert_eq!(BpdtId::new(2, 2).left_child(), BpdtId::new(3, 5));
        assert_eq!(BpdtId::new(2, 3).right_child(), BpdtId::new(3, 6));
        assert_eq!(BpdtId::new(2, 3).left_child(), BpdtId::new(3, 7));
    }

    #[test]
    fn parent_inverts_children() {
        let id = BpdtId::new(3, 5);
        assert_eq!(id.parent(), Some(BpdtId::new(2, 2)));
        assert!(id.is_left_child());
        assert!(!BpdtId::new(3, 4).is_left_child());
        assert_eq!(BpdtId::ROOT.parent(), None);
    }

    #[test]
    fn display_form() {
        assert_eq!(BpdtId::new(2, 3).to_string(), "bpdt(2,3)");
    }
}
