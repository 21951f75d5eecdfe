//! The LRU queue every LRU-managed tier is built on: one slot-ordered
//! queue, with recency-rank queries only for the tier that asks for them.
//!
//! Every touch gives its page the next slot number, so the queue's
//! recency order *is* slot order: the MRU page holds the highest live
//! slot and the LRU victim the lowest. A touch is one [`PageTable`]
//! lookup and three stores (the old slot emptied, the new slot filled,
//! the entry's slot updated), with no links to follow. The victim is
//! found by a cursor that only moves forward: every slot below it is
//! empty, so each stale slot is skipped once. When the slot space runs
//! out, the live pages are renumbered `0..len` in order and the space is
//! resized to 4× the live population. That compaction is branch-free:
//! it copies every slot down and advances its write position by
//! whether the slot was live, so the stale three slots in four cost no
//! mispredicted branch.
//!
//! The proposed migration scheme keeps per-page counters only for pages
//! in the *top positions* of the NVM queue (Algorithm 1: `readperc` /
//! `writeperc`). "Is this page within the top k positions?" is a recency
//! *rank* query, and only that tier asks it, so the rank index is a type
//! parameter of the queue, chosen at compile time:
//!
//! * [`NoRanks`] is zero-sized and its updates compile to nothing. The
//!   DRAM tiers, the single-tier baselines and the DRAM cache use it.
//! * [`SlotRanks`] keeps one occupancy bit per slot and a Fenwick tree
//!   over the popcounts of the 64-slot words. A page's rank is the live
//!   population minus the occupied slots at or below its own: a Fenwick
//!   prefix over the words before its slot's word plus a popcount of
//!   that word. [`RankedLru`] names this queue.
//!
//! The pages live in a slab of entries (page, slot, metadata), reused
//! through a free list, so a touch reads and writes one entry. The
//! metadata is `Copy`: two-LRU keeps its per-page counters there, and the
//! DRAM cache its dirty bits. [`RankedLru::touch_ranked`] folds
//! Algorithm 1's rank-query-then-touch pair into one lookup.
//!
//! # Examples
//!
//! ```
//! use hybridmem_policy::{LruQueue, RankedLru};
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
//!
//! // The same queue without a rank index.
//! let mut plain: LruQueue = LruQueue::new();
//! plain.insert(PageId::new(1), ());
//! plain.insert(PageId::new(2), ());
//! assert!(plain.touch(PageId::new(1)).is_some());
//! assert_eq!(plain.evict_lru(), Some((PageId::new(2), ())));
//! ```

use hybridmem_types::{PageId, PageTable};

/// Sentinel for "slot unoccupied" in the slot → entry map.
const EMPTY: u32 = u32::MAX;

/// Minimum slot capacity; also the floor after compaction.
const MIN_SLOTS: usize = 16;

/// The most pages one policy queue can hold: an [`LruQueue`] keeps four
/// `u32` slots per page (and a [`ClockRing`](crate::ClockRing) one `u32`
/// frame index), so a larger tier cannot be indexed. Configurations size
/// their tiers at or below it.
pub const MAX_QUEUE_PAGES: u64 = (u32::MAX / 4) as u64;

/// What an [`LruQueue`] keeps beside its slot order to answer rank
/// queries: [`NoRanks`] or [`SlotRanks`].
pub trait RankIndex: Clone + std::fmt::Debug {
    /// An index over `slots` slots of which exactly `0..live` are
    /// occupied.
    fn filled(slots: usize, live: usize) -> Self;

    /// Marks `slot` occupied.
    fn occupy(&mut self, slot: usize);

    /// Marks `slot` empty.
    fn vacate(&mut self, slot: usize);
}

/// The rank index of a queue that never answers rank queries: zero-sized,
/// and every update is a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRanks;

impl RankIndex for NoRanks {
    #[inline]
    fn filled(_slots: usize, _live: usize) -> Self {
        Self
    }

    #[inline]
    fn occupy(&mut self, _slot: usize) {}

    #[inline]
    fn vacate(&mut self, _slot: usize) {}
}

/// The rank index of a [`RankedLru`]: one occupancy bit per slot and a
/// Fenwick (binary indexed) tree over the popcounts of the 64-slot words.
#[derive(Debug, Clone)]
pub struct SlotRanks {
    /// Bit `s % 64` of word `s / 64` is set while slot `s` is occupied.
    words: Vec<u64>,
    /// Fenwick tree over the words' popcounts, 1-based: `tree.len()` is
    /// `words.len() + 1`.
    tree: Vec<u32>,
}

impl SlotRanks {
    /// Occupied slots in `[0, slot]`.
    #[expect(clippy::indexing_slicing, reason = "slot is in the slot space")]
    fn occupied_through(&self, slot: usize) -> usize {
        let word = slot / 64;
        let below = self.words[word] & (u64::MAX >> (63 - slot % 64));
        let mut sum = below.count_ones();
        // Fenwick prefix over words `0..word`.
        let mut i = word;
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum as usize
    }

    /// Adds `delta` to the count of word `word`.
    #[expect(clippy::indexing_slicing, reason = "loop guard keeps i < tree.len()")]
    fn add(&mut self, word: usize, delta: u32) {
        let mut i = word + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }
}

impl RankIndex for SlotRanks {
    #[expect(clippy::indexing_slicing, reason = "bounded by the word count")]
    fn filled(slots: usize, live: usize) -> Self {
        let mut words = vec![0; slots.div_ceil(64)];
        words[..live / 64].fill(u64::MAX);
        if !live.is_multiple_of(64) {
            words[live / 64] = (1 << (live % 64)) - 1;
        }
        // Linear-time Fenwick construction: each node passes its sum on
        // to its parent.
        let mut tree = vec![0; words.len() + 1];
        for i in 1..tree.len() {
            tree[i] += words[i - 1].count_ones();
            let parent = i + (i & i.wrapping_neg());
            if parent < tree.len() {
                tree[parent] += tree[i];
            }
        }
        Self { words, tree }
    }

    #[inline]
    #[expect(clippy::indexing_slicing, reason = "slot is in the slot space")]
    fn occupy(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
        self.add(slot / 64, 1);
    }

    #[inline]
    #[expect(clippy::indexing_slicing, reason = "slot is in the slot space")]
    fn vacate(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
        self.add(slot / 64, u32::MAX);
    }
}

/// An LRU queue over [`PageId`]s with `Copy` metadata `M` on every entry
/// and the rank index `R`.
///
/// The metadata travels with its page through touches and compactions
/// and leaves with it: [`LruQueue::remove`] and [`LruQueue::evict_lru`]
/// return it. See the module documentation (in the source) for the
/// data-structure sketch.
#[derive(Debug, Clone)]
pub struct LruQueue<M = (), R = NoRanks> {
    /// Page → slab entry.
    index: PageTable,
    /// The slab: each page with its current slot and its metadata.
    entries: Vec<Entry<M>>,
    free: Vec<u32>,
    slot_to_entry: Vec<u32>,
    next_slot: usize,
    /// Every slot below this one is empty, so the LRU victim holds the
    /// first occupied slot at or after it.
    cursor: usize,
    ranks: R,
}

/// One slab entry of an [`LruQueue`].
#[derive(Debug, Clone, Copy)]
struct Entry<M> {
    page: PageId,
    slot: usize,
    meta: M,
}

/// An [`LruQueue`] that answers recency-rank queries in O(log n).
///
/// Rank 0 is the most recently used page; rank `len() - 1` is the LRU
/// victim.
pub type RankedLru<M> = LruQueue<M, SlotRanks>;

impl<M: Copy, R: RankIndex> LruQueue<M, R> {
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
            entries: Vec::with_capacity(capacity),
            free: Vec::new(),
            slot_to_entry: vec![EMPTY; slots],
            next_slot: 0,
            cursor: 0,
            ranks: R::filled(slots, 0),
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
    /// Panics if `page` is already in the queue; use [`LruQueue::touch`]
    /// for pages that may be present.
    #[expect(
        clippy::indexing_slicing,
        reason = "free entries and new slots are in range"
    )]
    pub fn insert(&mut self, page: PageId, meta: M) {
        assert!(
            !self.index.contains(page),
            "page {page} is already in the LRU queue"
        );
        let slot = self.take_slot();
        let new = Entry { page, slot, meta };
        let entry = if let Some(entry) = self.free.pop() {
            self.entries[entry as usize] = new;
            entry
        } else {
            assert!(
                self.entries.len() < EMPTY as usize,
                "LRU queue slab exceeds u32 indexing"
            );
            self.entries.push(new);
            self.entries.len() as u32 - 1
        };
        self.slot_to_entry[slot] = entry;
        self.ranks.occupy(slot);
        self.index.insert(page, entry);
    }

    /// Moves `page` to the MRU position and returns its metadata for
    /// updating, or `None` when the page is absent.
    #[inline(always)]
    pub fn touch(&mut self, page: PageId) -> Option<&mut M> {
        let entry = self.index.get(page)? as usize;
        self.reslot(entry);
        self.entries.get_mut(entry).map(|entry| &mut entry.meta)
    }

    /// The metadata of `page`, without touching it.
    #[must_use]
    pub fn meta(&self, page: PageId) -> Option<&M> {
        self.entries
            .get(self.index.get(page)? as usize)
            .map(|entry| &entry.meta)
    }

    /// Moves the slab entry `entry` to a fresh MRU slot in place (no table
    /// traffic). The order of all other pages is unchanged.
    #[inline(always)]
    #[expect(clippy::indexing_slicing, reason = "stored entries and slots are live")]
    fn reslot(&mut self, entry: usize) {
        // Allocate first: a compaction renumbers `slots[entry]` too, so the
        // old slot must be read *after* `take_slot`.
        let new_slot = self.take_slot();
        let old_slot = std::mem::replace(&mut self.entries[entry].slot, new_slot);
        self.slot_to_entry[old_slot] = EMPTY;
        self.ranks.vacate(old_slot);
        self.slot_to_entry[new_slot] = entry as u32;
        self.ranks.occupy(new_slot);
    }

    /// Removes and returns the least-recently-used page with its metadata.
    #[expect(clippy::indexing_slicing, reason = "stored entries and slots are live")]
    pub fn evict_lru(&mut self) -> Option<(PageId, M)> {
        let offset = self.slot_to_entry[self.cursor..self.next_slot]
            .iter()
            .position(|&entry| entry != EMPTY);
        let Some(offset) = offset else {
            self.cursor = self.next_slot;
            return None;
        };
        let slot = self.cursor + offset;
        let entry = self.slot_to_entry[slot];
        let page = self.entries[entry as usize].page;
        self.index.remove(page);
        let meta = self.release(entry);
        self.cursor = slot + 1;
        Some((page, meta))
    }

    /// Removes `page` from the queue, returning its metadata when it was
    /// present.
    pub fn remove(&mut self, page: PageId) -> Option<M> {
        let entry = self.index.remove(page)?;
        Some(self.release(entry))
    }

    /// Empties the slot of the slab entry `entry`, already gone from the
    /// index, and frees the entry.
    #[expect(clippy::indexing_slicing, reason = "stored entries and slots are live")]
    fn release(&mut self, entry: u32) -> M {
        let Entry { slot, meta, .. } = self.entries[entry as usize];
        self.slot_to_entry[slot] = EMPTY;
        self.ranks.vacate(slot);
        self.free.push(entry);
        meta
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
            .filter_map(|&entry| self.entries.get(entry as usize).map(|e| e.page))
            .collect()
    }

    /// Allocates a fresh MRU slot, compacting the slot space when full.
    #[inline(always)]
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
    ///
    /// About three slots in four are stale here, so a test per slot would
    /// mispredict on most of them. Instead every slot's entry is copied
    /// down and the write position advances only past live ones; a second
    /// pass then tells each live entry its new slot.
    #[cold]
    #[inline(never)]
    #[expect(clippy::indexing_slicing, reason = "stored entries and slots are live")]
    fn compact(&mut self) {
        let mut live = 0;
        for slot in self.cursor..self.next_slot {
            // `live <= slot`, so this never overwrites a slot still unread.
            let entry = self.slot_to_entry[slot];
            self.slot_to_entry[live] = entry;
            live += usize::from(entry != EMPTY);
        }
        for (slot, &entry) in self.slot_to_entry[..live].iter().enumerate() {
            self.entries[entry as usize].slot = slot;
        }
        let new_len = (live * 4).max(MIN_SLOTS);
        self.slot_to_entry.truncate(live);
        self.slot_to_entry.resize(new_len, EMPTY);
        self.ranks = R::filled(new_len, live);
        self.next_slot = live;
        self.cursor = 0;
    }
}

impl<M: Copy> RankedLru<M> {
    /// Returns the recency rank `page` held *before* this touch (0 =
    /// MRU) with its metadata, and moves it to the MRU position —
    /// Algorithm 1's rank-query-then-touch pair in a single lookup.
    ///
    /// The rank is the one `rank(page)` gives before `touch(page)`.
    pub fn touch_ranked(&mut self, page: PageId) -> Option<(usize, &mut M)> {
        let entry = self.index.get(page)? as usize;
        let rank = self.rank_of(entry);
        self.reslot(entry);
        Some((rank, &mut self.entries.get_mut(entry)?.meta))
    }

    /// Recency rank of `page`: 0 for the MRU page, `len() - 1` for the LRU
    /// page, `None` when absent.
    #[must_use]
    pub fn rank(&self, page: PageId) -> Option<usize> {
        let entry = self.index.get(page)?;
        Some(self.rank_of(entry as usize))
    }

    /// Recency rank of slab entry `entry`: pages with slots *greater* than
    /// its slot are more recent.
    #[expect(clippy::indexing_slicing, reason = "stored entries and slots are live")]
    fn rank_of(&self, entry: usize) -> usize {
        self.len() - self.ranks.occupied_through(self.entries[entry].slot)
    }
}

impl<M: Copy, R: RankIndex> Default for LruQueue<M, R> {
    fn default() -> Self {
        Self::new()
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
        let sparse_id = |n: u64| page(n + shift * (n % 2));
        let mut dense = ranked(12);
        let mut sparse = RankedLru::new();
        let mut plain = LruQueue::<u64>::new();
        for n in 0..12 {
            sparse.insert(sparse_id(n), n);
            plain.insert(sparse_id(n), n);
        }
        for n in [3u64, 8, 3, 11, 0] {
            let want = dense.touch_ranked(page(n)).map(|(r, m)| (r, *m));
            let got = sparse.touch_ranked(sparse_id(n)).map(|(r, m)| (r, *m));
            assert_eq!(got, want);
            assert_eq!(plain.touch(sparse_id(n)).copied(), want.map(|(_, m)| m));
        }
        let unshift = |p: &PageId| p.value() % shift;
        let want: Vec<u64> = dense.pages_by_recency().iter().map(unshift).collect();
        let got: Vec<u64> = sparse.pages_by_recency().iter().map(unshift).collect();
        assert_eq!(got, want);
        let got: Vec<u64> = plain.pages_by_recency().iter().map(unshift).collect();
        assert_eq!(got, want);
        let evicted = plain.evict_lru().map(|(p, m)| (unshift(&p), m));
        assert_eq!(evicted, dense.evict_lru().map(|(p, m)| (p.value(), m)));
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
    fn unranked_queue_basics() {
        assert_eq!(std::mem::size_of::<NoRanks>(), 0);
        let mut lru: LruQueue = LruQueue::with_capacity(4);
        assert!(lru.is_empty());
        assert_eq!(lru.evict_lru(), None);
        assert!(lru.touch(page(1)).is_none());
        assert_eq!(lru.remove(page(1)), None);

        lru.insert(page(1), ());
        assert_eq!(lru.pages_by_recency(), vec![page(1)]);
        assert!(lru.touch(page(1)).is_some(), "touching the sole page");
        assert_eq!(lru.evict_lru(), Some((page(1), ())));
        assert!(lru.is_empty());

        for n in 0..4 {
            lru.insert(page(n), ());
        }
        lru.touch(page(0)); // order (MRU..LRU): 0,3,2,1
        assert_eq!(
            lru.pages_by_recency(),
            vec![page(0), page(3), page(2), page(1)]
        );
        assert_eq!(lru.remove(page(2)), Some(()), "remove from the middle");
        assert_eq!(lru.evict_lru(), Some((page(1), ())));
        assert_eq!(lru.evict_lru(), Some((page(3), ())));
        assert_eq!(lru.evict_lru(), Some((page(0), ())));
        assert_eq!(lru.evict_lru(), None);
    }

    #[test]
    fn lru_reuses_slab_entries() {
        let mut lru: LruQueue = LruQueue::new();
        for n in 0..8 {
            lru.insert(page(n), ());
        }
        for _ in 0..4 {
            lru.evict_lru();
        }
        for n in 100..104 {
            lru.insert(page(n), ());
        }
        assert_eq!(lru.len(), 8);
        assert_eq!(lru.entries.len(), 8, "freed slab entries are reused");
        assert!(lru.free.is_empty());
    }
}
