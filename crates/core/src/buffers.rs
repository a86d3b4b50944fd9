//! The per-BPDT buffers and their depth-scoped operations (§3.3, §4.3).
//!
//! Each BPDT owns a queue of references to shared items. The operations
//! are exactly the paper's: `enqueue`, `clear`, `flush`, and `upload` —
//! all scoped by depth vector, so that a predicate resolving for one
//! match path never disturbs items buffered under a different path
//! (Example 6). There is deliberately no `dequeue`: items leave a queue
//! only wholesale, via flush, clear, or upload.
//!
//! **Queues are bucketed by scope prefix.** Every operation on the queue
//! of `bpdt(l, k)` scopes by the same number of leading depths, `l + 1`
//! (the anchors of layers `0..=l`), so a queue is a short list of
//! *buckets*, one per distinct prefix of that length among its entries:
//! an enqueue files the reference under its vector's prefix, and a
//! scoped operation takes the one bucket its configuration's prefix
//! names, whole — it never looks at an entry it does not take. An upload
//! appends the bucket to the target queue's bucket for the (shorter)
//! prefix of the ancestor. A queue holds at most one bucket per open
//! instance of its step, so buckets are found by a reverse linear scan
//! (the innermost instance is the likeliest), and bucket storage is
//! pooled: the steady state allocates nothing.
//!
//! Emission *order* is handled globally by [`crate::items::ItemStore`]
//! (items are anchored in document order); `flush` marks rather than
//! writes. Within a bucket entries keep insertion order, which is the
//! order a scan of one flat queue would visit them in.

use crate::depth_vector::DepthVector;
use crate::items::{ItemId, ItemStore, LEAF_BIT};

/// [`Entry::bound`] of a plain reference: a flush marks its item output.
const UNBOUND: u32 = u32::MAX;
/// [`Entry::bound`] of a keyed step's *truth* entry: `item` is not an item
/// but the id of a key witnessed under `dv`.
const TRUTH: u32 = u32::MAX - 1;

/// One buffered reference: an item plus the depth vector under which it
/// was enqueued.
#[derive(Debug, Clone)]
pub struct Entry {
    pub item: ItemId,
    /// The query tag a keyed step resolved the item for, once it has
    /// (`UNBOUND` before): a flush then binds the item to that tag
    /// instead of marking it output. Lives in what was padding.
    pub bound: u32,
    pub dv: DepthVector,
}

/// The entries of one queue whose depth vectors share `key`, the queue's
/// scope prefix. Never empty: created by the first push, taken whole.
#[derive(Debug)]
struct Bucket {
    key: DepthVector,
    entries: Vec<Entry>,
}

/// One BPDT's queue: its scope-prefix length and its live buckets.
#[derive(Debug, Default)]
struct Queue {
    prefix: usize,
    buckets: Vec<Bucket>,
}

/// All BPDT queues, indexed densely by queue slot (see
/// [`crate::arcs::QueueRef`]).
#[derive(Debug)]
pub struct QueueSet {
    queues: Vec<Queue>,
    /// Emptied bucket storage, capacity kept.
    pool: Vec<Vec<Entry>>,
    /// The keys one `resolve_keyed` call found witnessed.
    scratch_keys: Vec<u32>,
    live_entries: usize,
    peak_entries: usize,
}

impl QueueSet {
    /// One queue per entry of `prefixes`: the number of leading depths
    /// its operations scope by (`layer + 1` of the owning BPDT).
    pub fn new(prefixes: impl ExactSizeIterator<Item = usize>) -> Self {
        let mut set = QueueSet {
            queues: Vec::new(),
            pool: Vec::new(),
            scratch_keys: Vec::new(),
            live_entries: 0,
            peak_entries: 0,
        };
        set.reset(prefixes);
        set
    }

    /// Reset for a fresh document, keeping every allocation when the
    /// queue count is unchanged (multi-document feeds).
    pub fn reset(&mut self, prefixes: impl ExactSizeIterator<Item = usize>) {
        self.queues.resize_with(prefixes.len(), Queue::default);
        for (queue, prefix) in self.queues.iter_mut().zip(prefixes) {
            queue.prefix = prefix;
            for mut bucket in queue.buckets.drain(..) {
                bucket.entries.clear();
                self.pool.push(bucket.entries);
            }
        }
        self.live_entries = 0;
        self.peak_entries = 0;
    }

    /// Pre-size from a static bound: one pooled bucket of `per_queue`
    /// entries per queue, so a query the analyzer proved `Items(K)` does
    /// not grow its buckets mid-stream.
    pub fn reserve(&mut self, per_queue: usize) {
        let want = self.queues.len();
        self.pool.resize_with(self.pool.len().max(want), Vec::new);
        let spare = self.pool.len() - want;
        for entries in &mut self.pool[spare..] {
            entries.reserve_exact(per_queue);
        }
    }

    /// `Q.enqueue(v)` — add a reference under the given depth vector.
    /// Takes the vector by reference: the entry shares the caller's tail
    /// (inline bits are a plain copy; spilled vectors are copy-on-write),
    /// so enqueueing never deep-copies the vector.
    pub fn enqueue(&mut self, queue: usize, item: ItemId, dv: &DepthVector, items: &mut ItemStore) {
        items.add_ref(item);
        self.push(queue, item, UNBOUND, dv);
    }

    fn push(&mut self, queue: usize, item: u32, bound: u32, dv: &DepthVector) {
        let Some(key) = dv.prefix(self.queues[queue].prefix) else {
            debug_assert!(false, "{dv} is shorter than its queue's scope");
            return;
        };
        self.bucket(queue, key).push(Entry {
            item,
            bound,
            dv: dv.clone(),
        });
        self.live_entries += 1;
        self.peak_entries = self.peak_entries.max(self.live_entries);
    }

    /// The entries of `queue` filed under `key`: a live bucket, or a new
    /// one on pooled storage.
    fn bucket(&mut self, queue: usize, key: DepthVector) -> &mut Vec<Entry> {
        let buckets = &mut self.queues[queue].buckets;
        let at = buckets
            .iter()
            .rposition(|b| b.key == key)
            .unwrap_or_else(|| {
                let entries = self.pool.pop().unwrap_or_default();
                buckets.push(Bucket { key, entries });
                buckets.len() - 1
            });
        &mut buckets[at].entries
    }

    /// Take the bucket `dv` addresses out of `queue`: the entries a
    /// scoped operation applies to, all of them and nothing else. The
    /// caller hands the storage back through [`Self::recycle`].
    fn take(&mut self, queue: usize, dv: &DepthVector) -> Option<Vec<Entry>> {
        let queue = &mut self.queues[queue];
        let key = dv.prefix(queue.prefix)?;
        let at = queue.buckets.iter().rposition(|b| b.key == key)?;
        let bucket = queue.buckets.swap_remove(at);
        self.live_entries -= bucket.entries.len();
        Some(bucket.entries)
    }

    fn recycle(&mut self, mut entries: Vec<Entry>) {
        entries.clear();
        self.pool.push(entries);
    }

    /// A keyed step witnessed `key` for the instance `dv` runs under:
    /// remember it, in the step's own queue, until that instance ends.
    pub fn record_truth(&mut self, queue: usize, key: u32, dv: &DepthVector) {
        self.push(queue, key, TRUTH, dv);
    }

    /// A keyed step's element ends: every depth-matching item is bound to
    /// the tags `leaf_tags[its leaf]` (sorted by key) lists under the
    /// depth-matching truths — directly when `upload` is `None`, else as
    /// one tag-bound entry per tag in the `upload` queue — and the
    /// instance's entries, truths included, leave the queue.
    pub fn resolve_keyed(
        &mut self,
        queue: usize,
        upload: Option<usize>,
        dv: &DepthVector,
        leaf_tags: &[Vec<(u32, u32)>],
        items: &mut ItemStore,
    ) {
        let Some(taken) = self.take(queue, dv) else {
            return;
        };
        let mut keys = std::mem::take(&mut self.scratch_keys);
        keys.extend(taken.iter().filter(|e| e.bound == TRUTH).map(|e| e.item));
        keys.sort_unstable();
        keys.dedup();
        for entry in taken.iter().filter(|e| e.bound != TRUTH) {
            let tags = &leaf_tags[(items.tag(entry.item) & !LEAF_BIT) as usize];
            for &key in &keys {
                let from = tags.partition_point(|&(k, _)| k < key);
                for &(_, tag) in tags[from..].iter().take_while(|&&(k, _)| k == key) {
                    match upload {
                        None => items.bind(entry.item, tag),
                        Some(to) => {
                            items.add_ref(entry.item);
                            self.push(to, entry.item, tag, &entry.dv);
                        }
                    }
                }
            }
            items.release_ref(entry.item);
        }
        keys.clear();
        self.scratch_keys = keys;
        self.recycle(taken);
    }

    /// `Q.flush()` — mark every depth-matching item as output (bind it,
    /// when the entry carries the tag a keyed step resolved it for) and
    /// drop the references (they are "sent to the output", §3.3; actual
    /// emission order is the item store's job).
    pub fn flush_matching(&mut self, queue: usize, dv: &DepthVector, items: &mut ItemStore) {
        let Some(taken) = self.take(queue, dv) else {
            return;
        };
        for entry in &taken {
            match entry.bound {
                UNBOUND => items.mark_output(entry.item),
                tag => items.bind(entry.item, tag),
            }
            items.release_ref(entry.item);
        }
        self.recycle(taken);
    }

    /// `Q.clear()` — drop the depth-matching references; items with no
    /// remaining references die.
    pub fn clear_matching(&mut self, queue: usize, dv: &DepthVector, items: &mut ItemStore) {
        let Some(taken) = self.take(queue, dv) else {
            return;
        };
        for entry in &taken {
            items.release_ref(entry.item);
        }
        self.recycle(taken);
    }

    /// `Q.upload()` — move the depth-matching references to the target
    /// queue (the nearest ancestor BPDT whose predicate is undecided,
    /// §4.3), whose scope is a shorter prefix of the same vector: the
    /// bucket lands in one target bucket. Reference counts are unchanged.
    pub fn upload_matching(&mut self, from: usize, to: usize, dv: &DepthVector) {
        debug_assert!(self.queues[to].prefix < self.queues[from].prefix);
        let Some(mut taken) = self.take(from, dv) else {
            return;
        };
        self.live_entries += taken.len();
        let key = dv
            .prefix(self.queues[to].prefix)
            .expect("a prefix of a prefix");
        self.bucket(to, key).append(&mut taken);
        self.recycle(taken);
    }

    /// Number of references currently buffered across all queues.
    pub fn live_entries(&self) -> usize {
        self.live_entries
    }

    /// Peak simultaneous buffered references.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
    }

    /// Entries in one queue (tests, invariant checks).
    pub fn len(&self, queue: usize) -> usize {
        self.queues[queue]
            .buckets
            .iter()
            .map(|b| b.entries.len())
            .sum()
    }

    /// Are all queues empty? (Must hold at end of document.)
    pub fn all_empty(&self) -> bool {
        self.live_entries == 0
    }

    /// The bucket invariants (debug builds check them after every fired
    /// event): a bucket's entries share its key, a queue holds one bucket
    /// per key and none empty, and `live_entries` counts them all.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn assert_invariants(&self) {
        let mut live = 0;
        for queue in &self.queues {
            for (i, bucket) in queue.buckets.iter().enumerate() {
                assert!(!bucket.entries.is_empty(), "empty bucket {}", bucket.key);
                assert!(
                    queue.buckets[..i].iter().all(|b| b.key != bucket.key),
                    "two buckets keyed {}",
                    bucket.key
                );
                for entry in &bucket.entries {
                    assert_eq!(entry.dv.prefix(queue.prefix).as_ref(), Some(&bucket.key));
                }
                live += bucket.entries.len();
            }
        }
        assert_eq!(live, self.live_entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::LEAF_BIT;

    fn dv(depths: &[u32]) -> DepthVector {
        DepthVector::from_depths(depths)
    }

    fn setup() -> (QueueSet, ItemStore, ItemId, ItemId) {
        // Queue 0 scopes by two depths; queue 1, its upload target, by one.
        let mut qs = QueueSet::new([2, 1].into_iter());
        let mut items = ItemStore::new();
        items.begin_event(1);
        let a = items.anchor(0, "A", true);
        items.begin_event(2);
        let b = items.anchor(0, "B", true);
        qs.enqueue(0, a, &dv(&[0, 1, 3]), &mut items);
        qs.enqueue(0, b, &dv(&[0, 2, 3]), &mut items);
        (qs, items, a, b)
    }

    #[test]
    fn flush_is_depth_scoped() {
        let (mut qs, mut items, a, b) = setup();
        qs.flush_matching(0, &dv(&[0, 1]), &mut items);
        assert_eq!(items.state(a), crate::items::ItemState::Output);
        assert_eq!(items.state(b), crate::items::ItemState::Pending);
        assert_eq!(qs.len(0), 1);
    }

    #[test]
    fn clear_is_depth_scoped_and_kills() {
        let (mut qs, mut items, a, b) = setup();
        qs.clear_matching(0, &dv(&[0, 2]), &mut items);
        assert_eq!(items.state(a), crate::items::ItemState::Pending);
        assert_eq!(items.state(b), crate::items::ItemState::Dead);
        assert_eq!(qs.live_entries(), 1);
    }

    #[test]
    fn upload_moves_without_changing_refs() {
        let (mut qs, mut items, a, _b) = setup();
        qs.upload_matching(0, 1, &dv(&[0, 1]));
        assert_eq!(qs.len(0), 1);
        assert_eq!(qs.len(1), 1);
        assert_eq!(items.state(a), crate::items::ItemState::Pending);
        // Now a flush on the target queue resolves the moved item.
        qs.flush_matching(1, &dv(&[0, 1]), &mut items);
        assert_eq!(items.state(a), crate::items::ItemState::Output);
    }

    #[test]
    fn an_upload_lands_in_the_target_bucket_of_the_shorter_prefix() {
        let (mut qs, mut items, a, b) = setup();
        // Both instances upload: two source buckets, (0,1) and (0,2),
        // become one target bucket keyed (0), in upload order.
        qs.upload_matching(0, 1, &dv(&[0, 2]));
        qs.upload_matching(0, 1, &dv(&[0, 1, 7]));
        assert_eq!((qs.len(0), qs.len(1), qs.live_entries()), (0, 2, 2));
        assert_eq!(qs.queues[1].buckets.len(), 1);
        let bucket = &qs.queues[1].buckets[0];
        assert_eq!(bucket.key, dv(&[0]));
        assert_eq!(
            bucket.entries.iter().map(|e| e.item).collect::<Vec<_>>(),
            [b, a]
        );
        qs.assert_invariants();
        // A vector too short to name a bucket addresses nothing.
        qs.clear_matching(0, &dv(&[0]), &mut items);
        qs.clear_matching(1, &dv(&[0, 5]), &mut items);
        assert!(qs.all_empty());
        assert_eq!(qs.peak_entries(), 2);
    }

    #[test]
    fn reset_after_a_warm_document_performs_no_allocation() {
        // Storage identity stands in for an allocator hook (which
        // `tests/zero_alloc.rs` has): the buckets the second document
        // fills are the first document's, through the pool, and the
        // bucket list kept its capacity.
        let (mut qs, mut items, ..) = setup();
        let storage = |qs: &QueueSet| {
            let q = &qs.queues[0];
            let mut at: Vec<_> = q.buckets.iter().map(|b| b.entries.as_ptr()).collect();
            at.sort_unstable();
            (q.buckets.capacity(), at)
        };
        let warm = storage(&qs);
        qs.reset([2, 1].into_iter());
        assert!(qs.all_empty() && qs.peak_entries() == 0 && qs.len(0) == 0);
        assert_eq!(qs.pool.len(), 2);
        let c = items.anchor(0, "C", true);
        qs.enqueue(0, c, &dv(&[0, 4, 5]), &mut items);
        qs.enqueue(0, c, &dv(&[0, 6, 7]), &mut items);
        assert!(qs.pool.is_empty(), "both buckets came from the pool");
        assert_eq!(storage(&qs), warm);
        qs.assert_invariants();
    }

    #[test]
    fn entries_stay_three_words() {
        // `bound` lives in what was padding between `item` and `dv`.
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    /// Example 6's shape on a keyed step: item Z sits under two open
    /// instances of the keyed element — (1,2) and (1,9) — which witnessed
    /// different keys. Leaf 0 answers tag 10 under key 0, tags 11 and 12
    /// under key 1.
    fn keyed_setup() -> (QueueSet, ItemStore, ItemId) {
        let mut qs = QueueSet::new([2, 2].into_iter());
        let mut items = ItemStore::new();
        items.begin_event(1);
        let z = items.anchor(LEAF_BIT, "Z", true);
        qs.enqueue(0, z, &dv(&[1, 2, 10]), &mut items);
        qs.enqueue(0, z, &dv(&[1, 9, 10]), &mut items);
        qs.record_truth(0, 0, &dv(&[1, 2, 5]));
        qs.record_truth(0, 1, &dv(&[1, 9, 11]));
        qs.record_truth(0, 1, &dv(&[1, 9, 12])); // a repeated witness
        assert_eq!(qs.peak_entries(), 5, "truths count as buffered entries");
        (qs, items, z)
    }

    fn leaf_tags() -> [Vec<(u32, u32)>; 1] {
        [vec![(0, 10), (1, 11), (1, 12)]]
    }

    fn drained(items: &mut ItemStore) -> Vec<u32> {
        let mut tags = Vec::new();
        items.drain(|t, _| tags.push(t));
        tags
    }

    #[test]
    fn resolve_keyed_is_depth_scoped() {
        let (mut qs, mut items, z) = keyed_setup();
        let leaf_tags = leaf_tags();
        // The inner instance (1,9) ends: its truths bind its entry only.
        qs.resolve_keyed(0, None, &dv(&[1, 9]), &leaf_tags, &mut items);
        assert_eq!(qs.len(0), 2, "the other instance keeps entry and truth");
        assert_eq!(items.state(z), crate::items::ItemState::Pending);
        assert!(drained(&mut items).is_empty());
        // The outer instance ends having witnessed key 0 alone.
        qs.resolve_keyed(0, None, &dv(&[1, 2]), &leaf_tags, &mut items);
        assert!(qs.all_empty());
        assert_eq!(drained(&mut items), [11, 12, 10]);
        assert!(items.recyclable());
    }

    #[test]
    fn resolve_keyed_uploads_tag_bound_entries_with_refs_balanced() {
        let (mut qs, mut items, z) = keyed_setup();
        let leaf_tags = leaf_tags();
        qs.resolve_keyed(0, Some(1), &dv(&[1, 9]), &leaf_tags, &mut items);
        qs.resolve_keyed(0, Some(1), &dv(&[1, 2]), &leaf_tags, &mut items);
        // One entry per (item, tag), under the entry's own depth vector.
        assert_eq!((qs.len(0), qs.len(1), qs.live_entries()), (0, 3, 3));
        assert_eq!(items.state(z), crate::items::ItemState::Pending);
        // The ancestor clears one match path and flushes the other: a
        // flush of a bound entry binds instead of marking.
        qs.clear_matching(1, &dv(&[1, 2]), &mut items);
        qs.flush_matching(1, &dv(&[1, 9]), &mut items);
        assert!(qs.all_empty());
        assert_eq!(drained(&mut items), [11, 12]);
        assert!(items.recyclable(), "every reference was released");
    }

    #[test]
    fn an_instance_without_a_witnessed_key_drops_its_entries() {
        let (mut qs, mut items, z) = keyed_setup();
        qs.resolve_keyed(0, None, &dv(&[1, 9]), &[vec![(5, 10)]], &mut items);
        qs.resolve_keyed(0, None, &dv(&[1, 2]), &[vec![]], &mut items);
        assert!(qs.all_empty());
        assert_eq!(items.state(z), crate::items::ItemState::Dead);
    }

    #[test]
    fn peak_entries_track_high_water_mark() {
        let (mut qs, mut items, _, _) = setup();
        assert_eq!(qs.peak_entries(), 2);
        qs.clear_matching(0, &dv(&[0, 1]), &mut items);
        qs.clear_matching(0, &dv(&[0, 2]), &mut items);
        assert!(qs.all_empty());
        assert_eq!(qs.peak_entries(), 2);
    }

    #[test]
    fn example_6_scenario() {
        // Item Z is referenced under two match paths: (1,2,10,11) via the
        // pub on line 2, and (1,9,10,11) via the pub on line 9. Clearing
        // at </pub> of line 9 (config dv (1,9)) must keep the other
        // reference alive.
        let mut qs = QueueSet::new([2].into_iter());
        let mut items = ItemStore::new();
        items.begin_event(1);
        let z = items.anchor(0, "Z", true);
        qs.enqueue(0, z, &dv(&[1, 2, 10, 11]), &mut items);
        qs.enqueue(0, z, &dv(&[1, 9, 10, 11]), &mut items);
        qs.clear_matching(0, &dv(&[1, 9]), &mut items);
        assert_eq!(items.state(z), crate::items::ItemState::Pending);
        // The correct match later flushes with config dv (1,2).
        qs.flush_matching(0, &dv(&[1, 2]), &mut items);
        assert_eq!(items.state(z), crate::items::ItemState::Output);
        assert!(qs.all_empty());
    }
}
