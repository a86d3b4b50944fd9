//! Shared result items and the output-marking discipline of §4.3.
//!
//! With closures, the same stream element can be matched along several
//! HPDT paths at once. The paper's solution: buffer *references* to one
//! shared item; the first match whose predicates all hold marks the item
//! as **output**; once marked, later `clear` operations cannot retract it,
//! and the item is emitted exactly when it reaches the head of the output
//! queue — giving duplicate-free results in document order.
//!
//! Here the "output queue" is realized as the item store itself: items are
//! created in document order (each is *anchored* at the stream event that
//! produced its value), and an emission cursor advances over them,
//! emitting `Output` items and skipping `Dead` ones (items all of whose
//! buffered references were cleared). An item still `Pending` (or an
//! element item still being serialized) blocks the cursor — exactly the
//! paper's "remain unchanged … until it becomes the first item in the
//! queue".
//!
//! Value bytes live in a [`ByteArena`], not per-item `String`s: an item's
//! value is a chain of arena segments, appended in place when the item is
//! the top allocation (the common case — one element serialized across
//! consecutive events) and chained otherwise. The arena is recycled
//! wholesale at quiescent points ([`ItemStore::recyclable`] /
//! [`ItemStore::recycle`]) and reset per document, so a matching steady
//! state performs no heap allocation once capacities have warmed up.

use crate::arena::{ByteArena, Span};

/// Index of an item in the store.
pub type ItemId = u32;

/// Sentinel for "no next segment" / "no next binding".
const NIL: u32 = u32::MAX;

/// Set in the tag of an item anchored by a leaf at or below a keyed step:
/// the low bits name the leaf (`Hpdt::leaf_tags`), not a query. Such an
/// item is shared by every subscription of the family and reaches the sink
/// once per query tag it was [`ItemStore::bind`]-bound to.
pub const LEAF_BIT: u32 = 1 << 31;

/// Lifecycle of an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemState {
    /// Some match may still make this item a result.
    Pending,
    /// A match with all predicates true claimed it; it will be emitted.
    Output,
    /// Every reference was cleared; it can never be a result.
    Dead,
}

/// One link in an item's value chain.
#[derive(Debug, Clone, Copy)]
struct Seg {
    span: Span,
    next: u32,
}

#[derive(Debug)]
struct Item {
    /// First and last segment of the value chain.
    head: u32,
    tail: u32,
    /// Total value length in bytes (0 once dead).
    len: u32,
    state: ItemState,
    /// Tag of the query that produced the item (0 for a single-query
    /// HPDT; the member index for a merged multi-query HPDT). Carried to
    /// the sink so shared consumers keep attribution.
    tag: u32,
    /// Element items are open while their element is being serialized;
    /// scalar items are created closed.
    closed: bool,
    /// Number of buffer entries referencing this item.
    refs: u32,
    /// Ordinal of the last event appended (deduplicates appends when
    /// several configurations feed the same element item).
    last_append_event: u64,
    /// First link of the bound-tag chain (`NIL`: unbound).
    bind_head: u32,
}

/// The store of result items plus the emission cursor.
#[derive(Debug, Default)]
pub struct ItemStore {
    items: Vec<Item>,
    segs: Vec<Seg>,
    /// `(query tag, next)` links of the items' bound-tag chains.
    binds: Vec<(u32, u32)>,
    data: ByteArena,
    /// Assembly buffer for multi-segment values at emission time.
    emit_buf: String,
    cursor: usize,
    /// Anchor for the event being processed: all value productions of one
    /// query during one input event share one item (duplicate matches,
    /// §4.3). Distinct queries of a merged HPDT anchor distinct items —
    /// their result streams are independent — so the anchor is per tag
    /// (the vector is tiny: at most one entry per query that produced a
    /// value at this very event).
    current_event: u64,
    current_items: Vec<(u32, ItemId)>,
    live_bytes: usize,
    peak_bytes: usize,
    /// Items not yet emitted or dead.
    live_items: usize,
    peak_live_items: usize,
    /// Sum of `refs` across items (buffer entries pointing in here).
    outstanding_refs: usize,
    /// Items ever anchored, across recycles (diagnostics/tests).
    total_created: u64,
}

impl ItemStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start processing a new input event (resets the anchors).
    pub fn begin_event(&mut self, ordinal: u64) {
        self.current_event = ordinal;
        self.current_items.clear();
    }

    /// Get the item anchored at the current event for query `tag`,
    /// creating it with `value` if this is the tag's first production.
    /// `closed` is false for element items that will grow by appends.
    pub fn anchor(&mut self, tag: u32, value: &str, closed: bool) -> ItemId {
        if let Some(&(_, id)) = self.current_items.iter().find(|(t, _)| *t == tag) {
            return id;
        }
        let id = self.items.len() as ItemId;
        let seg = self.segs.len() as u32;
        self.segs.push(Seg {
            span: self.data.alloc(value.as_bytes()),
            next: NIL,
        });
        self.items.push(Item {
            head: seg,
            tail: seg,
            len: value.len() as u32,
            state: ItemState::Pending,
            tag,
            closed,
            refs: 0,
            last_append_event: self.current_event,
            bind_head: NIL,
        });
        self.live_bytes += value.len();
        self.live_items += 1;
        self.total_created += 1;
        self.note_peaks();
        self.current_items.push((tag, id));
        id
    }

    /// A buffer entry now references the item.
    pub fn add_ref(&mut self, id: ItemId) {
        self.items[id as usize].refs += 1;
        self.outstanding_refs += 1;
    }

    /// A buffer entry referencing the item was removed (cleared or
    /// flushed). A pending item with no remaining references is decided:
    /// output under the tags it was bound to, dead if there are none.
    pub fn release_ref(&mut self, id: ItemId) {
        let item = &mut self.items[id as usize];
        debug_assert!(item.refs > 0, "release without ref");
        item.refs -= 1;
        self.outstanding_refs -= 1;
        if item.refs == 0 && item.state == ItemState::Pending {
            if item.bind_head != NIL {
                item.state = ItemState::Output;
                return;
            }
            item.state = ItemState::Dead;
            self.live_bytes -= item.len as usize;
            item.len = 0;
            self.live_items -= 1;
        }
    }

    /// The tag the item was anchored under.
    pub fn tag(&self, id: ItemId) -> u32 {
        self.items[id as usize].tag
    }

    /// Make the item a result of query `tag` as well (idempotent per
    /// tag). It is emitted once per bound tag, in bind order, when its last
    /// reference is released: another open instance of the keyed element
    /// may still bind more. Ignored once the item is decided — the cursor
    /// only ever passes decided items.
    pub fn bind(&mut self, id: ItemId, tag: u32) {
        let item = &mut self.items[id as usize];
        if item.state != ItemState::Pending {
            return;
        }
        let mut last = NIL;
        let mut link = item.bind_head;
        while link != NIL {
            let (bound, next) = self.binds[link as usize];
            if bound == tag {
                return;
            }
            (last, link) = (link, next);
        }
        let new = self.binds.len() as u32;
        self.binds.push((tag, NIL));
        match last {
            NIL => item.bind_head = new,
            last => self.binds[last as usize].1 = new,
        }
    }

    /// Mark the item as output (idempotent; never downgraded).
    pub fn mark_output(&mut self, id: ItemId) {
        let item = &mut self.items[id as usize];
        if item.state == ItemState::Pending {
            item.state = ItemState::Output;
        }
        debug_assert_ne!(item.state, ItemState::Dead, "flush of a dead item");
    }

    /// Append serialized content to an open element item. Appends are
    /// deduplicated per input event, so two configurations feeding the
    /// same item add its content once.
    pub fn append(&mut self, id: ItemId, content: &str) {
        let item = &mut self.items[id as usize];
        if item.last_append_event == self.current_event {
            return;
        }
        item.last_append_event = self.current_event;
        if item.state == ItemState::Dead {
            return;
        }
        let tail = &mut self.segs[item.tail as usize];
        if !self.data.try_extend(&mut tail.span, content.as_bytes()) {
            // Another item allocated above us: chain a new segment.
            let seg = self.segs.len() as u32;
            self.segs.push(Seg {
                span: self.data.alloc(content.as_bytes()),
                next: NIL,
            });
            self.segs[item.tail as usize].next = seg;
            item.tail = seg;
        }
        item.len += content.len() as u32;
        self.live_bytes += content.len();
        self.note_peaks();
    }

    /// Close an open element item (idempotent).
    pub fn close(&mut self, id: ItemId) {
        self.items[id as usize].closed = true;
    }

    /// Is the item already closed? (Used to deduplicate the closing-tag
    /// append across configurations.)
    pub fn is_closed(&self, id: ItemId) -> bool {
        self.items[id as usize].closed
    }

    pub fn state(&self, id: ItemId) -> ItemState {
        self.items[id as usize].state
    }

    /// Advance the emission cursor: emit every resolved item at the head
    /// in document order. `f` receives the tag and value of emitted items.
    pub fn drain(&mut self, mut f: impl FnMut(u32, &str)) {
        let Self {
            items,
            segs,
            binds,
            data,
            emit_buf,
            cursor,
            live_bytes,
            live_items,
            ..
        } = self;
        while let Some(item) = items.get_mut(*cursor) {
            match item.state {
                ItemState::Output if item.closed => {
                    let (tag, head) = (item.tag, item.head);
                    let single = item.head == item.tail;
                    *live_bytes -= item.len as usize;
                    item.len = 0;
                    *live_items -= 1;
                    *cursor += 1;
                    let value = if single {
                        // One segment: emit straight from the arena.
                        data.get_str(segs[head as usize].span)
                    } else {
                        emit_buf.clear();
                        let mut s = head;
                        while s != NIL {
                            let seg = segs[s as usize];
                            emit_buf.push_str(data.get_str(seg.span));
                            s = seg.next;
                        }
                        emit_buf.as_str()
                    };
                    // A bound item goes out once per bound tag; any other
                    // under the tag it was anchored with.
                    let mut link = item.bind_head;
                    if link == NIL {
                        f(tag, value);
                    }
                    while link != NIL {
                        let (bound, next) = binds[link as usize];
                        f(bound, value);
                        link = next;
                    }
                }
                ItemState::Dead => {
                    *cursor += 1;
                }
                _ => break,
            }
        }
    }

    /// End-of-stream cleanup: anything still pending can no longer become
    /// a result (all elements are closed), so it dies; then drain.
    pub fn finish(&mut self, f: impl FnMut(u32, &str)) {
        for item in &mut self.items[self.cursor..] {
            if item.state == ItemState::Pending {
                item.state = ItemState::Dead;
                self.live_bytes -= item.len as usize;
                item.len = 0;
                self.live_items -= 1;
            }
        }
        self.drain(f);
    }

    /// Is the store at a quiescent point where wholesale recycling is
    /// safe? Everything anchored so far has been emitted or died (the
    /// cursor has passed it) and no buffer entry still holds an `ItemId`.
    /// The caller must additionally ensure no *configuration* holds an
    /// item (see `RunnerCore::feed_raw`), since those ids would dangle.
    pub fn recyclable(&self) -> bool {
        self.cursor == self.items.len() && self.outstanding_refs == 0
    }

    /// Wholesale-free every item and all value bytes, keeping the
    /// allocations. Call only when [`Self::recyclable`] (and the caller's
    /// own id-holders are empty); ids handed out before this point must
    /// not be used again.
    pub fn recycle(&mut self) {
        debug_assert!(self.recyclable());
        self.items.clear();
        self.segs.clear();
        self.binds.clear();
        self.data.reset();
        self.cursor = 0;
        self.current_items.clear();
        debug_assert_eq!(self.live_bytes, 0);
        debug_assert_eq!(self.live_items, 0);
    }

    /// Reset for a fresh document, keeping every allocation (multi-doc
    /// `reset_with` reuse). Peaks restart: memory accounting is
    /// per-document.
    pub fn reset(&mut self) {
        self.items.clear();
        self.segs.clear();
        self.binds.clear();
        self.data.reset();
        self.emit_buf.clear();
        self.cursor = 0;
        self.current_event = 0;
        self.current_items.clear();
        self.live_bytes = 0;
        self.peak_bytes = 0;
        self.live_items = 0;
        self.peak_live_items = 0;
        self.outstanding_refs = 0;
    }

    /// Number of items not yet emitted or dead.
    pub fn pending_items(&self) -> usize {
        self.items[self.cursor..]
            .iter()
            .filter(|i| i.state == ItemState::Pending)
            .count()
    }

    fn note_peaks(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        self.peak_live_items = self.peak_live_items.max(self.live_items);
    }

    /// Peak bytes held in item values at any point.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Peak number of live (unemitted, undead) items.
    pub fn peak_live_items(&self) -> usize {
        self.peak_live_items
    }

    /// Total items ever created (across recycles).
    pub fn total_items(&self) -> usize {
        self.total_created as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_shares_one_item_per_event() {
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(0, "x", true);
        let b = s.anchor(0, "ignored", true);
        assert_eq!(a, b);
        s.begin_event(2);
        let c = s.anchor(0, "y", true);
        assert_ne!(a, c);
    }

    #[test]
    fn output_then_drain_in_document_order() {
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(0, "first", true);
        s.add_ref(a);
        s.begin_event(2);
        let b = s.anchor(0, "second", true);
        s.add_ref(b);
        // Second resolves before first: nothing emits until first does.
        s.mark_output(b);
        s.release_ref(b);
        let mut out = Vec::new();
        s.drain(|_, v| out.push(v.to_string()));
        assert!(out.is_empty());
        s.mark_output(a);
        s.release_ref(a);
        s.drain(|_, v| out.push(v.to_string()));
        assert_eq!(out, ["first", "second"]);
    }

    #[test]
    fn cleared_references_kill_pending_items() {
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(0, "dead", true);
        s.add_ref(a);
        s.add_ref(a);
        s.release_ref(a);
        assert_eq!(s.state(a), ItemState::Pending);
        s.release_ref(a);
        assert_eq!(s.state(a), ItemState::Dead);
        let mut out = Vec::new();
        s.drain(|_, v| out.push(v.to_string()));
        assert!(out.is_empty());
    }

    #[test]
    fn output_mark_wins_over_clear() {
        // The crux of §4.3: one match outputs, another clears — the item
        // must survive and be emitted exactly once.
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(0, "kept", true);
        s.add_ref(a); // reference from path 1
        s.add_ref(a); // reference from path 2
        s.mark_output(a); // path 2's predicates all true
        s.release_ref(a); // flush removed path 2's entry
        s.release_ref(a); // path 1 cleared
        assert_eq!(s.state(a), ItemState::Output);
        let mut out = Vec::new();
        s.drain(|_, v| out.push(v.to_string()));
        assert_eq!(out, ["kept"]);
    }

    #[test]
    fn bound_items_emit_once_per_tag_when_the_last_reference_goes() {
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(LEAF_BIT | 3, "shared", true);
        assert_eq!(s.tag(a), LEAF_BIT | 3);
        s.add_ref(a); // inner instance of the keyed element
        s.add_ref(a); // outer instance
        s.bind(a, 7);
        s.bind(a, 2);
        s.bind(a, 7); // idempotent per (item, tag)
        s.release_ref(a);
        let mut out = Vec::new();
        s.drain(|t, v| out.push((t, v.to_string())));
        assert!(out.is_empty(), "the outer instance may still bind more");
        s.bind(a, 5);
        s.release_ref(a);
        assert_eq!(s.state(a), ItemState::Output);
        s.drain(|t, v| out.push((t, v.to_string())));
        // Bind order, each tag once, never the leaf tag itself.
        let shared = |t| (t, "shared".to_string());
        assert_eq!(out, [shared(7), shared(2), shared(5)]);
        // A bind after emission is a no-op.
        s.bind(a, 9);
        s.drain(|t, v| out.push((t, v.to_string())));
        assert_eq!(out.len(), 3);
        assert!(s.recyclable());
    }

    #[test]
    fn an_unbound_item_dies_with_its_last_reference() {
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(LEAF_BIT, "nobody asked", true);
        s.add_ref(a);
        s.release_ref(a);
        assert_eq!(s.state(a), ItemState::Dead);
        s.bind(a, 1); // too late: ignored
        let mut out = Vec::new();
        s.drain(|t, v| out.push((t, v.to_string())));
        assert!(out.is_empty());
        assert_eq!(s.peak_live_items(), 1);
    }

    #[test]
    fn element_items_block_emission_until_closed() {
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(0, "<a>", false);
        s.mark_output(a);
        let mut out = Vec::new();
        s.drain(|_, v| out.push(v.to_string()));
        assert!(out.is_empty());
        s.begin_event(2);
        s.append(a, "text");
        s.begin_event(3);
        s.append(a, "</a>");
        s.close(a);
        s.drain(|_, v| out.push(v.to_string()));
        assert_eq!(out, ["<a>text</a>"]);
    }

    #[test]
    fn appends_are_deduplicated_per_event() {
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(0, "<a>", false);
        s.begin_event(2);
        s.append(a, "x");
        s.append(a, "x"); // second configuration, same event
        s.mark_output(a);
        s.close(a);
        let mut out = Vec::new();
        s.drain(|_, v| out.push(v.to_string()));
        assert_eq!(out, ["<a>x"]);
    }

    #[test]
    fn interleaved_appends_chain_segments() {
        // Two open element items growing turn-about force segment chains
        // (neither stays at the arena top), and both must still emit
        // their full concatenated values.
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(0, "<a>", false);
        s.begin_event(2);
        let b = s.anchor(1, "<b>", false);
        s.begin_event(3);
        s.append(a, "one");
        s.begin_event(4);
        s.append(b, "two");
        s.begin_event(5);
        s.append(a, "</a>");
        s.close(a);
        s.begin_event(6);
        s.append(b, "</b>");
        s.close(b);
        s.mark_output(a);
        s.mark_output(b);
        let mut out = Vec::new();
        s.drain(|t, v| out.push((t, v.to_string())));
        assert_eq!(
            out,
            [(0, "<a>one</a>".to_string()), (1, "<b>two</b>".to_string())]
        );
    }

    #[test]
    fn finish_kills_stragglers() {
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(0, "stuck", true);
        s.add_ref(a);
        s.begin_event(2);
        let b = s.anchor(0, "good", true);
        s.mark_output(b);
        let mut out = Vec::new();
        s.finish(|_, v| out.push(v.to_string()));
        assert_eq!(out, ["good"]);
        assert_eq!(s.pending_items(), 0);
    }

    #[test]
    fn memory_peaks_track_live_values() {
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(0, "aaaa", true);
        s.add_ref(a);
        s.begin_event(2);
        let b = s.anchor(0, "bb", true);
        s.add_ref(b);
        assert_eq!(s.peak_bytes(), 6);
        s.mark_output(a);
        s.release_ref(a);
        s.drain(|_, _| {});
        // Peak stays even after emission.
        assert_eq!(s.peak_bytes(), 6);
        assert_eq!(s.peak_live_items(), 2);
        assert_eq!(s.total_items(), 2);
    }

    #[test]
    fn recycle_at_quiescent_point_reuses_storage() {
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(0, "v1", true);
        s.add_ref(a);
        assert!(!s.recyclable()); // outstanding ref
        s.mark_output(a);
        s.release_ref(a);
        assert!(!s.recyclable()); // not yet drained past
        let mut out = Vec::new();
        s.drain(|_, v| out.push(v.to_string()));
        assert!(s.recyclable());
        s.recycle();
        // The store works identically after recycling.
        s.begin_event(2);
        let b = s.anchor(0, "v2", true);
        s.mark_output(b);
        s.drain(|_, v| out.push(v.to_string()));
        assert_eq!(out, ["v1", "v2"]);
        assert_eq!(s.total_items(), 2);
    }

    #[test]
    fn reset_clears_state_and_peaks() {
        let mut s = ItemStore::new();
        s.begin_event(1);
        let a = s.anchor(0, "value", true);
        s.add_ref(a);
        s.reset();
        assert_eq!(s.peak_bytes(), 0);
        assert_eq!(s.peak_live_items(), 0);
        assert!(s.recyclable());
        s.begin_event(1);
        let b = s.anchor(0, "x", true);
        s.mark_output(b);
        let mut out = Vec::new();
        s.drain(|_, v| out.push(v.to_string()));
        assert_eq!(out, ["x"]);
    }
}
