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
//! * [`SlotRanks`] counts *stale* slots: those whose page has moved to a
//!   newer slot or left. Every slot below the next free one is live or
//!   stale, so a page's rank is the number of slots above its own minus
//!   the stale ones among them. The index keeps one stale bit per slot
//!   and, for each level *k*, the stale counts of the aligned blocks of
//!   2^k 64-slot words. The stale slots above a slot are those above it
//!   in its own word (a popcount) plus, for each level *k* where bit *k*
//!   of the word's index is 0, the whole next block at level *k*. Each
//!   level stores that count in the entry of the lower block of the pair
//!   and 0 in the upper one's, so a query adds one entry per level with
//!   no test and no chain between the steps, and vacating a slot sets
//!   its bit and adds its block's oddness to one entry per level. A new
//!   slot is live, so filling it costs nothing. The levels sit in one
//!   flat `Vec`, which a compaction zeroes in place. [`RankedLru`] names
//!   this queue.
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
/// slots per page, numbered in a `u32`'s range (and a
/// [`ClockRing`](crate::ClockRing) one `u32` frame index), so a larger
/// tier cannot be indexed. Configurations size their tiers at or below it.
pub const MAX_QUEUE_PAGES: u64 = (u32::MAX / 4) as u64;

/// The most pages a queue or ring allocates for up front. A tier can be
/// configured far larger than the pages a trace brings (a memory fraction
/// of 1e5 sizes one at ~10^8 pages), so the structures pre-size for at
/// most the page table's dense bound and grow as pages arrive.
pub(crate) const PRESIZE_PAGES: usize = PageTable::DENSE_BOUND;

/// What an [`LruQueue`] keeps beside its slot order to answer rank
/// queries: [`NoRanks`] or [`SlotRanks`].
pub trait RankIndex: Clone + std::fmt::Debug + Default {
    /// Empties the index and sizes it for a slot space of `slots` slots,
    /// none of them stale. Buffers are reused, not rebuilt.
    fn reset(&mut self, slots: usize);

    /// Marks `slot` stale: its page moved to a newer slot or left.
    fn vacate(&mut self, slot: usize);
}

/// The rank index of a queue that never answers rank queries: zero-sized,
/// and every update is a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRanks;

impl RankIndex for NoRanks {
    #[inline]
    fn reset(&mut self, _slots: usize) {}

    #[inline]
    fn vacate(&mut self, _slot: usize) {}
}

/// The rank index of a [`RankedLru`]: one stale bit per slot and, for each
/// level *k*, the stale count of every aligned block of 2^k 64-slot words
/// that lies just above its sibling (module docs).
#[derive(Debug, Clone, Default)]
pub struct SlotRanks {
    /// Bit `s % 64` of word `s / 64` is set once slot `s` is stale.
    stale: Vec<u64>,
    /// One entry per block of every level, level after level. The entry
    /// of an even block *b* holds the stale count of block *b* + 1, the
    /// block just above it in their pair; an odd block's entry stays 0.
    /// So the query adds one entry per level with no test, and a vacated
    /// slot adds its block's oddness to its pair's entry. A slot space
    /// holds at most `4 * MAX_QUEUE_PAGES` slots, so a count fits a `u32`.
    counts: Vec<u32>,
    /// Where each level starts in `counts`. Levels run while a block is
    /// smaller than the whole slot space.
    starts: Vec<usize>,
}

impl SlotRanks {
    /// Stale slots above `slot`, which is live: those above it in its own
    /// word, and at each level the upper sibling of the block holding it
    /// when that block is a lower one.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "slot is in the slot space, and a level holds an entry per block"
    )]
    fn stale_above(&self, slot: usize) -> usize {
        let word = slot / 64;
        // The slot's own bit is clear, so the shift may keep it.
        let mut stale = (self.stale[word] >> (slot % 64)).count_ones();
        let mut block = word;
        for &start in &self.starts {
            stale += self.counts[start + block];
            block >>= 1;
        }
        stale as usize
    }
}

impl RankIndex for SlotRanks {
    fn reset(&mut self, slots: usize) {
        let words = slots.div_ceil(64);
        self.stale.clear();
        self.stale.resize(words, 0);
        self.starts.clear();
        let (mut start, mut blocks) = (0, words);
        while blocks > 1 {
            self.starts.push(start);
            start += blocks;
            blocks = blocks.div_ceil(2);
        }
        self.counts.clear();
        self.counts.resize(start, 0);
    }

    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "slot is in the slot space, and a level holds an entry per block"
    )]
    fn vacate(&mut self, slot: usize) {
        let word = slot / 64;
        self.stale[word] |= 1 << (slot % 64);
        let mut block = word;
        for &start in &self.starts {
            // An upper block's count lives in its pair's even entry; a
            // lower block's is counted nowhere at this level.
            self.counts[start + (block & !1)] += (block & 1) as u32;
            block >>= 1;
        }
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

    /// Creates an empty queue pre-sized for about `capacity` pages, or
    /// for [`PageTable::DENSE_BOUND`] pages when `capacity` is larger: the
    /// queue grows as pages arrive.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.min(PRESIZE_PAGES);
        let slots = (capacity * 4).max(MIN_SLOTS);
        let mut ranks = R::default();
        ranks.reset(slots);
        Self {
            index: PageTable::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            free: Vec::new(),
            slot_to_entry: vec![EMPTY; slots],
            next_slot: 0,
            cursor: 0,
            ranks,
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

    /// Size of the slot space: four slots per live page after a
    /// compaction. Exposed for diagnostics and invariant tests.
    #[must_use]
    pub fn slot_space(&self) -> usize {
        self.slot_to_entry.len()
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
                (self.entries.len() as u64) < MAX_QUEUE_PAGES,
                "LRU queue exceeds MAX_QUEUE_PAGES pages"
            );
            self.entries.push(new);
            self.entries.len() as u32 - 1
        };
        self.slot_to_entry[slot] = entry;
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
        self.ranks.reset(new_len);
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

    /// Recency rank of slab entry `entry`: the pages in slots *above* its
    /// slot are more recent. Every slot below `next_slot` is live or
    /// stale, so they are the slots above it less the stale ones.
    #[expect(clippy::indexing_slicing, reason = "stored entries and slots are live")]
    fn rank_of(&self, entry: usize) -> usize {
        let slot = self.entries[entry].slot;
        self.next_slot - 1 - slot - self.ranks.stale_above(slot)
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
    fn a_huge_capacity_presizes_at_most_the_dense_bound() {
        let lru = RankedLru::<u64>::with_capacity(MAX_QUEUE_PAGES as usize);
        assert_eq!(lru.slot_space(), 4 * PageTable::DENSE_BOUND);
        assert_eq!(lru.entries.capacity(), PageTable::DENSE_BOUND);
        assert_eq!(lru.ranks.stale.len(), PageTable::DENSE_BOUND / 16);
        let small = LruQueue::<()>::with_capacity(100);
        assert_eq!(small.slot_space(), 400);
        assert_eq!(small.entries.capacity(), 100);
    }

    #[test]
    fn a_queue_grows_past_its_presize() {
        let mut lru = RankedLru::with_capacity(4);
        for n in 0..1000 {
            lru.insert(page(n), n);
        }
        assert!(lru.slot_space() >= 1000, "{}", lru.slot_space());
        assert_eq!(lru.rank(page(0)), Some(999));
        assert_eq!(lru.evict_lru(), Some((page(0), 0)));
    }

    #[test]
    fn levels_run_until_one_block_covers_the_words() {
        let mut ranks = SlotRanks::default();
        for (slots, starts, entries) in [
            (64, &[][..], 0),
            (128, &[0][..], 2),
            (192, &[0, 3][..], 5),
            (64 * 5, &[0, 5, 8][..], 10),
            (64 * 8, &[0, 8, 12][..], 14),
            (64 * 9, &[0, 9, 14, 17][..], 19),
        ] {
            ranks.reset(slots);
            assert_eq!(ranks.stale.len(), slots / 64, "{slots} slots");
            assert_eq!(ranks.starts, starts, "{slots} slots");
            assert_eq!(ranks.counts.len(), entries, "{slots} slots");
        }
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
