//! LRU queues for the migration policies: a ranked queue with O(log n)
//! recency-rank queries and a plain O(1) linked-list queue.
//!
//! The proposed migration scheme keeps per-page counters only for pages in
//! the *top positions* of the NVM LRU queue (Algorithm 1: `readperc` /
//! `writeperc`). Deciding "is this page within the top k positions?" is a
//! *recency rank* query, which a plain linked-list LRU answers only in
//! O(n). [`RankedLru`] answers it in O(log n) using the classic
//! slot-numbering technique: every touch assigns the page a fresh,
//! monotonically increasing slot number; a Fenwick (binary indexed) tree
//! over slot occupancy then yields both rank queries and the
//! least-recently-used victim in logarithmic time, with periodic O(n log n)
//! compaction when slot space runs out. Its storage is a structure-of-
//! arrays slab (parallel `pages`/`slots`/`metas` vectors), so the
//! touch-heavy hot loop walks dense homogeneous arrays, and
//! [`RankedLru::touch_ranked`] folds Algorithm 1's rank-query-then-touch
//! pair into one lookup. Each entry carries `Copy` metadata: two-LRU keeps
//! its per-page counters there, and the DRAM cache its dirty bits.
//!
//! Queues that never ask for ranks — the DRAM recency queue and the
//! single-tier baselines — don't need any of that machinery:
//! [`LinkedLru`] is an index-linked doubly linked list over a slab, with
//! O(1) touch/insert/evict and a single table lookup per operation. The
//! batched replay path leans on it for its plain-hit fast path.
//!
//! Both queues find a page's slab entry through a [`PageTable`]: an array
//! index for the dense ids of synthetic traces, and a hash lookup only for
//! ids at or above [`PageTable::DENSE_BOUND`].
//!
//! # Examples
//!
//! ```
//! use hybridmem_policy::RankedLru;
//! use hybridmem_types::PageId;
//!
//! let mut lru = RankedLru::new();
//! lru.insert(PageId::new(1), 'a');
//! lru.insert(PageId::new(2), 'b');
//! lru.insert(PageId::new(3), 'c');
//! assert_eq!(lru.rank(PageId::new(3)), Some(0)); // most recently used
//! assert_eq!(lru.rank(PageId::new(1)), Some(2)); // least recently used
//!
//! assert_eq!(lru.touch(PageId::new(1)), Some(&mut 'a'));
//! assert_eq!(lru.rank(PageId::new(1)), Some(0));
//! assert_eq!(lru.evict_lru(), Some((PageId::new(2), 'b')));
//! ```

use hybridmem_types::{PageId, PageTable};

/// Sentinel for "slot unoccupied" in the slot → entry map.
const EMPTY: u32 = u32::MAX;

/// Minimum slot capacity; also the floor after compaction.
const MIN_SLOTS: usize = 16;

/// Fenwick tree over slot occupancy (1-based internally).
#[derive(Debug, Clone, Default)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn with_len(len: usize) -> Self {
        Self {
            tree: vec![0; len + 1],
        }
    }

    #[expect(clippy::indexing_slicing, reason = "loop guard keeps i < tree.len()")]
    fn add(&mut self, index: usize, delta: i32) {
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u32);
            i += i & i.wrapping_neg();
        }
    }

    /// Number of occupied slots in `[0, index]`.
    #[expect(clippy::indexing_slicing, reason = "i <= tree.len() - 1 and falls")]
    fn prefix(&self, index: usize) -> u32 {
        let mut i = (index + 1).min(self.tree.len() - 1);
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Index of the k-th (1-based) occupied slot, if any.
    #[expect(clippy::indexing_slicing, reason = "next < tree.len() is checked")]
    fn select(&self, k: u32) -> Option<usize> {
        if k == 0 {
            return None;
        }
        let mut remaining = k;
        let mut pos = 0usize;
        let mut mask = self.tree.len().next_power_of_two() >> 1;
        while mask > 0 {
            let next = pos + mask;
            if next < self.tree.len() && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            mask >>= 1;
        }
        // pos is now the largest index with prefix < k; the answer is pos
        // (0-based slot pos, since the tree is 1-based).
        if pos < self.tree.len() - 1 {
            Some(pos)
        } else {
            None
        }
    }
}

/// An LRU queue over [`PageId`]s with logarithmic recency-rank queries
/// and `Copy` metadata `M` on every entry.
///
/// Rank 0 is the most recently used page; rank `len() - 1` is the LRU
/// victim. The metadata travels with its page through touches and
/// compactions and leaves with it: [`RankedLru::remove`] and
/// [`RankedLru::evict_lru`] return it. See the module documentation (in
/// the source) for the data-structure sketch and complexity analysis.
#[derive(Debug, Clone)]
pub struct RankedLru<M> {
    /// Page → slab entry.
    index: PageTable,
    /// Slab of pages, parallel to `slots` and `metas` (structure-of-arrays:
    /// the hot touch path reads only `slots` and `metas`, so page ids stay
    /// out of its cache lines).
    pages: Vec<PageId>,
    /// Current slot number of each slab entry, parallel to `pages`.
    slots: Vec<usize>,
    /// Metadata of each slab entry, parallel to `pages`.
    metas: Vec<M>,
    free: Vec<u32>,
    slot_to_entry: Vec<u32>,
    fenwick: Fenwick,
    next_slot: usize,
}

impl<M: Copy> RankedLru<M> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for about `capacity` pages.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity * 4).max(MIN_SLOTS);
        Self {
            index: PageTable::with_capacity(capacity),
            pages: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            metas: Vec::with_capacity(capacity),
            free: Vec::new(),
            slot_to_entry: vec![EMPTY; slots],
            fenwick: Fenwick::with_len(slots),
            next_slot: 0,
        }
    }

    /// Number of pages in the queue.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the queue holds no pages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True when `page` is in the queue.
    #[must_use]
    pub fn contains(&self, page: PageId) -> bool {
        self.index.contains(page)
    }

    /// Inserts `page` with its metadata at the MRU position.
    ///
    /// # Panics
    ///
    /// Panics if `page` is already in the queue; use [`RankedLru::touch`]
    /// for pages that may be present.
    #[expect(clippy::indexing_slicing, reason = "stored entries and slots are live")]
    pub fn insert(&mut self, page: PageId, meta: M) {
        assert!(
            !self.index.contains(page),
            "page {page} is already in the LRU queue"
        );
        let slot = self.take_slot();
        let entry = if let Some(entry) = self.free.pop() {
            let i = entry as usize;
            self.pages[i] = page;
            self.slots[i] = slot;
            self.metas[i] = meta;
            entry
        } else {
            assert!(
                self.pages.len() < EMPTY as usize,
                "RankedLru slab exceeds u32 indexing"
            );
            self.pages.push(page);
            self.slots.push(slot);
            self.metas.push(meta);
            self.pages.len() as u32 - 1
        };
        self.slot_to_entry[slot] = entry;
        self.fenwick.add(slot, 1);
        self.index.insert(page, entry);
    }

    /// Moves `page` to the MRU position and returns its metadata for
    /// updating, or `None` when the page is absent.
    pub fn touch(&mut self, page: PageId) -> Option<&mut M> {
        let entry = self.index.get(page)? as usize;
        self.reslot(entry);
        self.metas.get_mut(entry)
    }

    /// Returns the recency rank `page` held *before* this touch (0 =
    /// MRU) with its metadata, and moves it to the MRU position —
    /// Algorithm 1's rank-query-then-touch pair in a single lookup.
    ///
    /// The rank is the one `rank(page)` gives before `touch(page)`.
    pub fn touch_ranked(&mut self, page: PageId) -> Option<(usize, &mut M)> {
        let entry = self.index.get(page)? as usize;
        let rank = self.rank_of(entry);
        self.reslot(entry);
        Some((rank, self.metas.get_mut(entry)?))
    }

    /// The metadata of `page`, without touching it.
    #[must_use]
    pub fn meta(&self, page: PageId) -> Option<&M> {
        self.metas.get(self.index.get(page)? as usize)
    }

    /// Recency rank of slab entry `entry`: pages with slots *greater* than
    /// its slot are more recent.
    #[expect(clippy::indexing_slicing, reason = "stored entries and slots are live")]
    fn rank_of(&self, entry: usize) -> usize {
        let at_or_before = self.fenwick.prefix(self.slots[entry]);
        self.len() - at_or_before as usize
    }

    /// Moves the slab entry `entry` to a fresh MRU slot in place (no table
    /// traffic). The rank ordering of all other pages is unchanged.
    #[expect(clippy::indexing_slicing, reason = "stored entries and slots are live")]
    fn reslot(&mut self, entry: usize) {
        // Allocate first: a compaction renumbers `slots[entry]` too, so the
        // old slot must be read *after* `take_slot`.
        let new_slot = self.take_slot();
        let old_slot = self.slots[entry];
        self.fenwick.add(old_slot, -1);
        self.slot_to_entry[old_slot] = EMPTY;
        self.slots[entry] = new_slot;
        self.slot_to_entry[new_slot] = entry as u32;
        self.fenwick.add(new_slot, 1);
    }

    /// Removes and returns the least-recently-used page with its metadata.
    pub fn evict_lru(&mut self) -> Option<(PageId, M)> {
        let victim = self.peek_lru()?;
        let meta = self.remove(victim)?;
        Some((victim, meta))
    }

    /// Returns the least-recently-used page without removing it.
    #[must_use]
    pub fn peek_lru(&self) -> Option<PageId> {
        let slot = self.fenwick.select(1)?;
        let entry = *self.slot_to_entry.get(slot)?;
        debug_assert_ne!(entry, EMPTY);
        self.pages.get(entry as usize).copied()
    }

    /// Removes `page` from the queue, returning its metadata when it was
    /// present.
    #[expect(clippy::indexing_slicing, reason = "stored entries and slots are live")]
    pub fn remove(&mut self, page: PageId) -> Option<M> {
        let entry = self.index.remove(page)?;
        let slot = self.slots[entry as usize];
        self.fenwick.add(slot, -1);
        self.slot_to_entry[slot] = EMPTY;
        self.free.push(entry);
        self.metas.get(entry as usize).copied()
    }

    /// Recency rank of `page`: 0 for the MRU page, `len() - 1` for the LRU
    /// page, `None` when absent.
    #[must_use]
    pub fn rank(&self, page: PageId) -> Option<usize> {
        let entry = self.index.get(page)?;
        Some(self.rank_of(entry as usize))
    }

    /// Pages ordered from MRU to LRU: the slot space walked downwards.
    /// O(n); intended for tests, debugging, and snapshots rather than
    /// per-access use.
    #[must_use]
    pub fn pages_by_recency(&self) -> Vec<PageId> {
        self.slot_to_entry
            .iter()
            .rev()
            .filter(|&&entry| entry != EMPTY)
            .filter_map(|&entry| self.pages.get(entry as usize).copied())
            .collect()
    }

    /// Allocates a fresh MRU slot, compacting the slot space when full.
    fn take_slot(&mut self) -> usize {
        if self.next_slot == self.slot_to_entry.len() {
            self.compact();
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        slot
    }

    /// Renumbers all present pages into slots `0..len` (preserving order)
    /// and resizes the slot space to 4× the live population.
    #[expect(clippy::indexing_slicing, reason = "stored entries and slots are live")]
    fn compact(&mut self) {
        self.slot_to_entry.retain(|&entry| entry != EMPTY);
        let live = self.slot_to_entry.len();
        for (slot, &entry) in self.slot_to_entry.iter().enumerate() {
            self.slots[entry as usize] = slot;
        }
        let new_len = (live * 4).max(MIN_SLOTS);
        self.slot_to_entry.resize(new_len, EMPTY);
        self.fenwick = Fenwick::with_len(new_len);
        for slot in 0..live {
            self.fenwick.add(slot, 1);
        }
        self.next_slot = live;
    }
}

impl<M: Copy> Default for RankedLru<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// Sentinel link for "no node" in [`LinkedLru`].
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    page: PageId,
    prev: u32,
    next: u32,
}

/// A plain LRU queue with O(1) touch/insert/evict and exactly one
/// [`PageTable`] lookup per operation.
///
/// The queue is an index-linked doubly linked list over a slab of
/// `Node`s: `head` is the MRU end, `tail` the LRU victim. It answers
/// everything the DRAM recency queue and the single-tier baselines need;
/// use [`RankedLru`] when recency-*rank* queries are required (the NVM
/// counter windows of Algorithm 1).
///
/// # Examples
///
/// ```
/// use hybridmem_policy::LinkedLru;
/// use hybridmem_types::PageId;
///
/// let mut lru = LinkedLru::new();
/// lru.insert(PageId::new(1));
/// lru.insert(PageId::new(2));
/// assert!(lru.touch(PageId::new(1)));
/// assert_eq!(lru.evict_lru(), Some(PageId::new(2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinkedLru {
    /// Page → slab node.
    index: PageTable,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: Option<u32>,
    tail: Option<u32>,
}

impl LinkedLru {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue pre-sized for about `capacity` pages.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            index: PageTable::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: None,
            tail: None,
        }
    }

    /// Number of pages in the queue.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the queue holds no pages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True when `page` is in the queue.
    #[must_use]
    pub fn contains(&self, page: PageId) -> bool {
        self.index.contains(page)
    }

    /// Inserts `page` at the MRU position.
    ///
    /// # Panics
    ///
    /// Panics if `page` is already in the queue; use [`LinkedLru::touch`]
    /// for pages that may be present.
    #[expect(clippy::indexing_slicing, reason = "every stored link names a node")]
    pub fn insert(&mut self, page: PageId) {
        assert!(
            !self.index.contains(page),
            "page {page} is already in the LRU queue"
        );
        let old_head = self.head;
        let node = Node {
            page,
            prev: NIL,
            next: old_head.unwrap_or(NIL),
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            assert!(
                self.nodes.len() < NIL as usize,
                "LinkedLru slab exceeds u32 indexing"
            );
            self.nodes.push(node);
            self.nodes.len() as u32 - 1
        };
        if let Some(head) = old_head {
            self.nodes[head as usize].prev = idx;
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
        self.index.insert(page, idx);
    }

    /// Moves `page` to the MRU position. Returns true when the page was
    /// present (and was therefore moved).
    #[inline]
    pub fn touch(&mut self, page: PageId) -> bool {
        let Some(idx) = self.index.get(page) else {
            return false;
        };
        self.move_to_front(idx);
        true
    }

    /// Removes and returns the least-recently-used page.
    #[expect(clippy::indexing_slicing, reason = "every stored link names a node")]
    pub fn evict_lru(&mut self) -> Option<PageId> {
        let victim = self.tail?;
        let page = self.nodes[victim as usize].page;
        self.unlink(victim);
        self.free.push(victim);
        self.index.remove(page);
        Some(page)
    }

    /// Returns the least-recently-used page without removing it.
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "every stored link names a node")]
    pub fn peek_lru(&self) -> Option<PageId> {
        self.tail.map(|idx| self.nodes[idx as usize].page)
    }

    /// Removes `page` from the queue. Returns true when it was present.
    pub fn remove(&mut self, page: PageId) -> bool {
        let Some(idx) = self.index.remove(page) else {
            return false;
        };
        self.unlink(idx);
        self.free.push(idx);
        true
    }

    /// Pages ordered from MRU to LRU. O(n); intended for tests,
    /// debugging, and snapshots rather than per-access use.
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "every stored link names a node")]
    pub fn pages_by_recency(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.len());
        let mut cursor = self.head;
        while let Some(idx) = cursor {
            let node = self.nodes[idx as usize];
            out.push(node.page);
            cursor = (node.next != NIL).then_some(node.next);
        }
        out
    }

    /// Detaches node `idx` from the list, fixing head/tail.
    #[expect(clippy::indexing_slicing, reason = "every stored link names a node")]
    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev == NIL {
            self.head = (next != NIL).then_some(next);
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = (prev != NIL).then_some(prev);
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    /// Splices node `idx` to the head (MRU) position.
    #[expect(clippy::indexing_slicing, reason = "every stored link names a node")]
    fn move_to_front(&mut self, idx: u32) {
        if self.head == Some(idx) {
            return;
        }
        self.unlink(idx);
        let old_head = self.head.unwrap_or(NIL);
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = old_head;
        if old_head != NIL {
            self.nodes[old_head as usize].prev = idx;
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> PageId {
        PageId::new(n)
    }

    /// A ranked queue over pages `0..n`, inserted in order, each carrying
    /// its own id as metadata.
    fn ranked(n: u64) -> RankedLru<u64> {
        let mut lru = RankedLru::new();
        for p in 0..n {
            lru.insert(page(p), p);
        }
        lru
    }

    #[test]
    fn insert_and_rank_order() {
        let lru = ranked(5);
        assert_eq!(lru.len(), 5);
        for n in 0..5 {
            assert_eq!(lru.rank(page(n)), Some(4 - n as usize));
        }
        assert_eq!(lru.rank(page(99)), None);
    }

    #[test]
    fn touch_moves_to_front() {
        let mut lru = ranked(4);
        assert_eq!(lru.touch(page(0)), Some(&mut 0));
        assert_eq!(lru.rank(page(0)), Some(0));
        assert_eq!(lru.rank(page(1)), Some(3));
        assert_eq!(lru.touch(page(42)), None);
    }

    #[test]
    fn metadata_is_updated_through_touch_and_returned_on_removal() {
        let mut lru = ranked(3);
        *lru.touch(page(1)).unwrap() += 10;
        assert_eq!(lru.meta(page(1)), Some(&11));
        let (rank, meta) = lru.touch_ranked(page(2)).unwrap();
        assert_eq!(rank, 1);
        *meta = 7;
        assert_eq!(lru.remove(page(2)), Some(7));
        assert_eq!(lru.meta(page(2)), None);
        assert_eq!(lru.evict_lru(), Some((page(0), 0)));
        assert_eq!(lru.evict_lru(), Some((page(1), 11)));
    }

    #[test]
    fn evict_returns_lru_order() {
        let mut lru = ranked(4);
        lru.touch(page(0)); // order (MRU..LRU): 0,3,2,1
        assert_eq!(lru.evict_lru(), Some((page(1), 1)));
        assert_eq!(lru.evict_lru(), Some((page(2), 2)));
        assert_eq!(lru.evict_lru(), Some((page(3), 3)));
        assert_eq!(lru.evict_lru(), Some((page(0), 0)));
        assert_eq!(lru.evict_lru(), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let lru = ranked(3);
        assert_eq!(lru.peek_lru(), Some(page(0)));
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn remove_arbitrary_pages() {
        let mut lru = ranked(6);
        assert_eq!(lru.remove(page(3)), Some(3));
        assert_eq!(lru.remove(page(3)), None);
        assert!(!lru.contains(page(3)));
        assert_eq!(lru.len(), 5);
        assert_eq!(
            lru.pages_by_recency(),
            vec![page(5), page(4), page(2), page(1), page(0)]
        );
    }

    #[test]
    #[should_panic(expected = "already in the LRU queue")]
    fn double_insert_panics() {
        let mut lru = ranked(2);
        lru.insert(page(1), 1);
    }

    #[test]
    fn compaction_preserves_order_and_metadata() {
        let mut lru = ranked(8);
        // Force many slot allocations to trigger several compactions.
        for round in 0..100 {
            for n in 0..8 {
                if (n + round) % 3 != 0 {
                    lru.touch(page(n));
                }
            }
        }
        // Replay the same operations on a naive model.
        let mut model: Vec<u64> = Vec::new();
        for n in 0..8 {
            model.retain(|&p| p != n);
            model.push(n);
        }
        for round in 0..100 {
            for n in 0..8 {
                if (n + round) % 3 != 0 {
                    model.retain(|&p| p != n);
                    model.push(n);
                }
            }
        }
        model.reverse(); // MRU first
        let got: Vec<u64> = lru.pages_by_recency().iter().map(|p| p.value()).collect();
        assert_eq!(got, model);
        for n in 0..8 {
            assert_eq!(lru.meta(page(n)), Some(&n));
        }
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a = RankedLru::with_capacity(100);
        let b = ranked(50);
        for n in 0..50 {
            a.insert(page(n), n);
        }
        assert_eq!(a.pages_by_recency(), b.pages_by_recency());
    }

    #[test]
    fn sparse_ids_rank_like_dense_ones() {
        let shift = 1 << 40;
        let mut dense = ranked(12);
        let mut sparse = RankedLru::new();
        for n in 0..12 {
            sparse.insert(page(n + shift * (n % 2)), n);
        }
        for n in [3u64, 8, 3, 11, 0] {
            let want = dense.touch_ranked(page(n)).map(|(r, m)| (r, *m));
            let got = sparse
                .touch_ranked(page(n + shift * (n % 2)))
                .map(|(r, m)| (r, *m));
            assert_eq!(got, want);
        }
        let unshift = |p: &PageId| p.value() % shift;
        let want: Vec<u64> = dense.pages_by_recency().iter().map(unshift).collect();
        let got: Vec<u64> = sparse.pages_by_recency().iter().map(unshift).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn rank_is_dense_and_unique() {
        let mut lru = ranked(32);
        for n in [3u64, 30, 7, 7, 0] {
            lru.touch(page(n));
        }
        let mut ranks: Vec<usize> = (0..32).map(|n| lru.rank(page(n)).unwrap()).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn touch_ranked_equals_rank_then_touch() {
        let mut fused = ranked(16);
        let mut split = ranked(16);
        // A long, slot-space-exhausting sequence so compactions land in
        // the middle of fused touches.
        for round in 0..200u64 {
            let n = (round * 7) % 16;
            let fused_rank = fused.touch_ranked(page(n)).map(|(rank, _)| rank);
            let split_rank = split.rank(page(n));
            split.touch(page(n));
            assert_eq!(fused_rank, split_rank, "round {round}");
            assert_eq!(fused.pages_by_recency(), split.pages_by_recency());
        }
        assert!(fused.touch_ranked(page(99)).is_none());
    }

    #[test]
    fn linked_lru_matches_ranked_lru_order() {
        let mut linked = LinkedLru::new();
        let mut ranked = RankedLru::new();
        for n in 0..12 {
            linked.insert(page(n));
            ranked.insert(page(n), ());
        }
        for round in 0..300u64 {
            match round % 5 {
                0..=2 => {
                    let n = (round * 11) % 12;
                    assert_eq!(linked.touch(page(n)), ranked.touch(page(n)).is_some());
                }
                3 => {
                    assert_eq!(linked.peek_lru(), ranked.peek_lru());
                    assert_eq!(linked.evict_lru(), ranked.evict_lru().map(|(p, ())| p));
                }
                _ => {
                    let n = (round * 13) % 24; // half the ids are absent
                    if !linked.contains(page(n)) {
                        linked.insert(page(n));
                        ranked.insert(page(n), ());
                    } else {
                        assert_eq!(linked.remove(page(n)), ranked.remove(page(n)).is_some());
                    }
                }
            }
            assert_eq!(linked.len(), ranked.len());
            assert_eq!(linked.pages_by_recency(), ranked.pages_by_recency());
        }
    }

    #[test]
    fn linked_lru_basics() {
        let mut lru = LinkedLru::with_capacity(4);
        assert!(lru.is_empty());
        assert_eq!(lru.evict_lru(), None);
        assert_eq!(lru.peek_lru(), None);
        assert!(!lru.touch(page(1)));
        assert!(!lru.remove(page(1)));

        lru.insert(page(1));
        assert_eq!(lru.pages_by_recency(), vec![page(1)]);
        assert!(lru.touch(page(1)), "touching the sole page is a no-op move");
        assert_eq!(lru.evict_lru(), Some(page(1)));
        assert!(lru.is_empty());

        for n in 0..4 {
            lru.insert(page(n));
        }
        lru.touch(page(0)); // order (MRU..LRU): 0,3,2,1
        assert_eq!(
            lru.pages_by_recency(),
            vec![page(0), page(3), page(2), page(1)]
        );
        assert!(lru.remove(page(2)), "unlink from the middle");
        assert_eq!(lru.evict_lru(), Some(page(1)));
        assert_eq!(lru.evict_lru(), Some(page(3)));
        assert_eq!(lru.evict_lru(), Some(page(0)));
        assert_eq!(lru.evict_lru(), None);
    }

    #[test]
    #[should_panic(expected = "already in the LRU queue")]
    fn linked_lru_double_insert_panics() {
        let mut lru = LinkedLru::new();
        lru.insert(page(1));
        lru.insert(page(1));
    }

    #[test]
    fn linked_lru_reuses_slab_slots() {
        let mut lru = LinkedLru::new();
        for n in 0..8 {
            lru.insert(page(n));
        }
        for _ in 0..4 {
            lru.evict_lru();
        }
        for n in 100..104 {
            lru.insert(page(n));
        }
        assert_eq!(lru.len(), 8);
        assert_eq!(lru.nodes.len(), 8, "freed slab nodes are reused");
    }
}
