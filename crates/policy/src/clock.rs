//! A generic CLOCK (second-chance) ring with per-frame metadata.
//!
//! CLOCK approximates LRU with a circular scan and one reference bit per
//! frame. CLOCK-DWF builds on two such rings — a plain one for NVM and a
//! write-history-aware one for DRAM — so the ring is generic over a
//! metadata type `M` and takes the extra-chance predicate as a closure at
//! eviction time.
//!
//! An insertion takes the lowest-index free frame. That rule fixes where a
//! page sits relative to the hand, and so the scan order and every later
//! victim. The ring keeps it without scanning: it stores only the frames
//! that have ever held a page (those beyond them, up to the capacity, are
//! empty), and frames freed by [`remove`](ClockRing::remove) or
//! [`evict_with`](ClockRing::evict_with) wait in a min-heap. So the lowest
//! free frame is the heap's minimum when the heap is non-empty, and
//! otherwise a new frame pushed at the end. A ring allocates for at most
//! [`PageTable::DENSE_BOUND`] frames up front and grows as pages arrive,
//! however large its capacity.
//!
//! A [`PageTable`] maps each page to its frame, so finding a page with a
//! dense id is an array index.
//!
//! # Examples
//!
//! ```
//! use hybridmem_policy::ClockRing;
//! use hybridmem_types::PageId;
//!
//! let mut ring: ClockRing<()> = ClockRing::new(2);
//! ring.insert(PageId::new(1), ());
//! ring.insert(PageId::new(2), ());
//! ring.touch(PageId::new(2));
//!
//! // Page 1 was never referenced after insertion cleared its bit round 1;
//! // the scan clears page bits and evicts the first unreferenced frame.
//! let (victim, ()) = ring.evict_with(|_meta| false);
//! assert_eq!(victim, PageId::new(1));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hybridmem_types::{PageId, PageTable};

use crate::lru::PRESIZE_PAGES;

#[derive(Debug, Clone)]
struct Frame<M> {
    page: PageId,
    referenced: bool,
    meta: M,
}

/// A fixed-capacity CLOCK ring mapping pages to frames with metadata `M`.
///
/// Frames freed by [`ClockRing::remove`] are reused by later insertions,
/// lowest index first; the clock hand skips empty slots.
#[derive(Debug, Clone)]
pub struct ClockRing<M> {
    /// The frames that have ever held a page; the rest, up to `capacity`,
    /// are empty.
    frames: Vec<Option<Frame<M>>>,
    /// Page → frame.
    map: PageTable,
    hand: usize,
    capacity: usize,
    /// Frames freed by `remove` and `evict_with`.
    freed: BinaryHeap<Reverse<usize>>,
}

impl<M> ClockRing<M> {
    /// Creates an empty ring with room for `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a `u32` frame index.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "clock ring capacity must be at least 1");
        assert!(
            capacity < u32::MAX as usize,
            "clock ring capacity exceeds u32 indexing"
        );
        Self {
            frames: Vec::with_capacity(capacity.min(PRESIZE_PAGES)),
            map: PageTable::with_capacity(capacity),
            hand: 0,
            capacity,
            freed: BinaryHeap::new(),
        }
    }

    /// Number of resident pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no pages are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True when every frame is occupied.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.map.len() == self.capacity
    }

    /// The configured capacity in pages.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when `page` is resident.
    #[must_use]
    pub fn contains(&self, page: PageId) -> bool {
        self.map.contains(page)
    }

    /// Current position of the clock hand (a frame index in
    /// `0..capacity()`); exposed for diagnostics and invariant tests.
    #[must_use]
    pub const fn hand(&self) -> usize {
        self.hand
    }

    /// Inserts `page` with its metadata into the lowest-index free frame,
    /// with the reference bit set (a newly loaded page counts as
    /// referenced).
    ///
    /// # Panics
    ///
    /// Panics if the ring is full or the page is already resident; callers
    /// must evict first — eviction policy is theirs, not the ring's.
    #[expect(
        clippy::indexing_slicing,
        reason = "a freed frame is an existing frame"
    )]
    pub fn insert(&mut self, page: PageId, meta: M) {
        assert!(
            !self.is_full(),
            "clock ring is full; evict before inserting"
        );
        assert!(
            !self.map.contains(page),
            "page {page} is already in the clock ring"
        );
        let frame = Some(Frame {
            page,
            referenced: true,
            meta,
        });
        // The lowest free frame (module docs).
        let idx = match self.freed.pop() {
            Some(Reverse(idx)) => {
                self.frames[idx] = frame;
                idx
            }
            None => {
                self.frames.push(frame);
                self.frames.len() - 1
            }
        };
        self.map.insert(page, idx as u32);
    }

    /// Sets the reference bit of `page` and returns its metadata for
    /// updating. Returns `None` when the page is not resident.
    #[inline(always)]
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "the map holds exactly the occupied frames"
    )]
    pub fn touch(&mut self, page: PageId) -> Option<&mut M> {
        let idx = self.map.get(page)? as usize;
        let frame = self.frames[idx].as_mut().expect("mapped frame is occupied");
        frame.referenced = true;
        Some(&mut frame.meta)
    }

    /// Reads the metadata of `page` without touching the reference bit.
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "the map holds exactly the occupied frames"
    )]
    pub fn meta(&self, page: PageId) -> Option<&M> {
        let idx = self.map.get(page)? as usize;
        Some(
            &self.frames[idx]
                .as_ref()
                .expect("mapped frame is occupied")
                .meta,
        )
    }

    /// Removes `page` from the ring, returning its metadata.
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "the map holds exactly the occupied frames"
    )]
    pub fn remove(&mut self, page: PageId) -> Option<M> {
        let idx = self.map.remove(page)? as usize;
        let frame = self.frames[idx].take().expect("mapped frame is occupied");
        self.freed.push(Reverse(idx));
        Some(frame.meta)
    }

    /// Runs the CLOCK scan and evicts one page, returning it with its
    /// metadata.
    ///
    /// At each occupied frame under the hand:
    ///
    /// 1. a set reference bit is cleared and the frame skipped (the classic
    ///    second chance);
    /// 2. otherwise `extra_chance(&mut meta)` is consulted — returning
    ///    `true` spares the frame this round (CLOCK-DWF uses this to keep
    ///    write-dominant pages in DRAM, decaying their write history);
    /// 3. otherwise the frame is evicted and the hand advances past it.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[expect(clippy::expect_used, reason = "the frame was checked occupied")]
    pub fn evict_with<F>(&mut self, mut extra_chance: F) -> (PageId, M)
    where
        F: FnMut(&mut M) -> bool,
    {
        assert!(!self.is_empty(), "cannot evict from an empty clock ring");
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.capacity;
            let Some(slot) = self.frames.get_mut(idx) else {
                // Past the last frame every frame is empty: wrap at once.
                self.hand = 0;
                continue;
            };
            let Some(frame) = slot.as_mut() else {
                continue;
            };
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            if extra_chance(&mut frame.meta) {
                continue;
            }
            let frame = slot.take().expect("frame checked above");
            self.map.remove(frame.page);
            self.freed.push(Reverse(idx));
            return (frame.page, frame.meta);
        }
    }

    /// Resident pages in frame order (diagnostics/tests).
    #[must_use]
    pub fn pages(&self) -> Vec<PageId> {
        self.frames
            .iter()
            .filter_map(|f| f.as_ref().map(|f| f.page))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> PageId {
        PageId::new(n)
    }

    #[test]
    fn insert_touch_contains() {
        let mut ring: ClockRing<u32> = ClockRing::new(3);
        ring.insert(page(1), 10);
        ring.insert(page(2), 20);
        assert!(ring.contains(page(1)));
        assert_eq!(ring.len(), 2);
        assert!(!ring.is_full());
        *ring.touch(page(1)).unwrap() += 5;
        assert_eq!(ring.meta(page(1)), Some(&15));
        assert!(ring.touch(page(9)).is_none());
        assert_eq!(ring.meta(page(9)), None);
    }

    #[test]
    fn second_chance_order() {
        let mut ring: ClockRing<()> = ClockRing::new(3);
        for n in 1..=3 {
            ring.insert(page(n), ());
        }
        // All inserted referenced. First scan clears 1,2,3 then evicts 1.
        let (v, ()) = ring.evict_with(|_| false);
        assert_eq!(v, page(1));
        // 2 and 3 now have cleared bits; hand is past frame 1.
        let (v, ()) = ring.evict_with(|_| false);
        assert_eq!(v, page(2));
    }

    #[test]
    fn touch_grants_second_chance() {
        let mut ring: ClockRing<()> = ClockRing::new(3);
        for n in 1..=3 {
            ring.insert(page(n), ());
        }
        let (_, ()) = ring.evict_with(|_| false); // evicts 1, clears 2 and 3
        ring.insert(page(4), ());
        ring.touch(page(2));
        // Hand at frame 1 (page 2): referenced → cleared, skip; page 3
        // unreferenced → evicted.
        let (v, ()) = ring.evict_with(|_| false);
        assert_eq!(v, page(3));
        assert!(ring.contains(page(2)));
    }

    #[test]
    fn extra_chance_spares_frames_once() {
        let mut ring: ClockRing<u32> = ClockRing::new(2);
        ring.insert(page(1), 2);
        ring.insert(page(2), 0);
        // Clear all reference bits with one throwaway scan setup: evict with
        // a predicate that decrements write history and spares while > 0.
        let (victim, meta) = ring.evict_with(|w| {
            if *w > 0 {
                *w -= 1;
                true
            } else {
                false
            }
        });
        // Round 1 clears ref bits; round 2: page 1 spared (2→1), page 2
        // evicted (history 0).
        assert_eq!(victim, page(2));
        assert_eq!(meta, 0);
        assert_eq!(ring.meta(page(1)), Some(&1));
    }

    #[test]
    fn remove_frees_frame_for_reuse() {
        let mut ring: ClockRing<char> = ClockRing::new(2);
        ring.insert(page(1), 'a');
        ring.insert(page(2), 'b');
        assert!(ring.is_full());
        assert_eq!(ring.remove(page(1)), Some('a'));
        assert_eq!(ring.remove(page(1)), None);
        assert!(!ring.is_full());
        ring.insert(page(3), 'c');
        assert!(ring.is_full());
        let mut pages = ring.pages();
        pages.sort();
        assert_eq!(pages, vec![page(2), page(3)]);
    }

    #[test]
    fn hand_skips_holes() {
        let mut ring: ClockRing<()> = ClockRing::new(4);
        for n in 1..=4 {
            ring.insert(page(n), ());
        }
        ring.remove(page(1));
        ring.remove(page(3));
        // Scan must still terminate and evict one of the occupied frames.
        let (v, ()) = ring.evict_with(|_| false);
        assert!(v == page(2) || v == page(4));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn insert_into_full_ring_panics() {
        let mut ring: ClockRing<()> = ClockRing::new(1);
        ring.insert(page(1), ());
        ring.insert(page(2), ());
    }

    #[test]
    #[should_panic(expected = "already in the clock ring")]
    fn double_insert_panics() {
        let mut ring: ClockRing<()> = ClockRing::new(2);
        ring.insert(page(1), ());
        ring.insert(page(1), ());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn evict_from_empty_panics() {
        let mut ring: ClockRing<()> = ClockRing::new(2);
        let _ = ring.evict_with(|_| false);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        let _: ClockRing<()> = ClockRing::new(0);
    }

    #[test]
    fn a_huge_ring_presizes_at_most_the_dense_bound() {
        let mut ring: ClockRing<u32> = ClockRing::new(crate::MAX_QUEUE_PAGES as usize);
        assert!(ring.frames.is_empty());
        assert_eq!(ring.frames.capacity(), PageTable::DENSE_BOUND);
        for n in 1..=3 {
            ring.insert(page(n), 0);
        }
        assert_eq!(ring.frames.len(), 3, "a frame per page that arrived");
        // The first scan clears all three bits, wraps at the last frame
        // rather than at the capacity, and evicts page 1.
        assert_eq!(ring.evict_with(|_| false), (page(1), 0));
        assert_eq!(ring.hand(), 1);
        ring.insert(page(4), 0);
        assert_eq!(ring.pages(), vec![page(4), page(2), page(3)]);
        assert_eq!(ring.evict_with(|_| false), (page(2), 0));
    }

    /// A reference ring that finds the free frame by a linear scan from
    /// frame 0 on every insert. The ring must match it step for step.
    struct ScanRing {
        frames: Vec<Option<(PageId, bool, u32)>>,
        hand: usize,
    }

    impl ScanRing {
        fn insert(&mut self, page: PageId, meta: u32) {
            let idx = self.frames.iter().position(Option::is_none).unwrap();
            self.frames[idx] = Some((page, true, meta));
        }

        fn slot(&mut self, page: PageId) -> Option<&mut (PageId, bool, u32)> {
            self.frames.iter_mut().flatten().find(|f| f.0 == page)
        }

        fn remove(&mut self, page: PageId) -> Option<u32> {
            let idx = self
                .frames
                .iter()
                .position(|f| f.is_some_and(|f| f.0 == page))?;
            self.frames[idx].take().map(|f| f.2)
        }

        fn evict(&mut self) -> (PageId, u32) {
            loop {
                let idx = self.hand;
                self.hand = (self.hand + 1) % self.frames.len();
                let Some(frame) = self.frames[idx].as_mut() else {
                    continue;
                };
                if frame.1 {
                    frame.1 = false;
                    continue;
                }
                if decay(&mut frame.2) {
                    continue;
                }
                let (page, _, meta) = self.frames[idx].take().unwrap();
                return (page, meta);
            }
        }

        fn pages(&self) -> Vec<PageId> {
            self.frames.iter().flatten().map(|f| f.0).collect()
        }
    }

    /// CLOCK-DWF's extra chance: spare a frame with history, halving it.
    fn decay(writes: &mut u32) -> bool {
        if *writes > 0 {
            *writes /= 2;
            true
        } else {
            false
        }
    }

    #[test]
    fn free_frame_tracking_matches_linear_scan() {
        hybridmem_types::for_each_case(256, |rng| {
            let capacity = rng.gen_range(1..24) as usize;
            let universe = 2 * capacity as u64 + 2;
            let mut ring: ClockRing<u32> = ClockRing::new(capacity);
            let mut model = ScanRing {
                frames: vec![None; capacity],
                hand: 0,
            };
            for step in 0..400 {
                let p = page(rng.gen_range(0..universe));
                match rng.gen_range(0..4) {
                    0 if !ring.is_full() && !ring.contains(p) => {
                        let meta = rng.gen_range(0..4) as u32;
                        ring.insert(p, meta);
                        model.insert(p, meta);
                    }
                    1 => {
                        let got = ring.touch(p).map(|m| *m);
                        let want = model.slot(p).map(|f| {
                            f.1 = true;
                            f.2
                        });
                        assert_eq!(got, want, "step {step}: touch {p}");
                    }
                    2 => assert_eq!(ring.remove(p), model.remove(p), "step {step}: remove {p}"),
                    _ if !ring.is_empty() => {
                        assert_eq!(ring.evict_with(decay), model.evict(), "step {step}: victim");
                    }
                    _ => {}
                }
                assert_eq!(ring.pages(), model.pages(), "step {step}: frame order");
                assert_eq!(ring.hand(), model.hand, "step {step}: hand");
            }
        });
    }
}
