//! A single set-associative, write-back/write-allocate cache with LRU sets.

use hybridmem_types::{AccessKind, Address};

use crate::CacheGeometry;

/// A line resident in a set: its tag, dirty bit, and recency stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    dirty: bool,
    /// Value of the cache's access tick when this line was last touched.
    /// Ticks are unique per access, so the resident line with the smallest
    /// stamp is exactly the LRU way — no positional ordering needed.
    last_used: u64,
}

/// What happened on one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheAccessResult {
    /// True when the line was already resident.
    pub hit: bool,
    /// Line address evicted to make room, with its dirty state, when the
    /// access caused an eviction.
    pub evicted: Option<EvictedLine>,
}

/// An evicted cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Base address of the evicted line.
    pub address: Address,
    /// True when the line held modified data that must be written back to
    /// the next level.
    pub dirty: bool,
}

/// Hit/miss counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty evictions (write-backs produced).
    pub writebacks: u64,
    /// Lines invalidated by coherence.
    pub invalidations: u64,
}

impl CacheStats {
    /// Total accesses.
    #[must_use]
    pub const fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; 0 when no accesses were made.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            return 0.0;
        }
        self.hits as f64 / self.accesses() as f64
    }
}

/// A set-associative cache with per-set LRU replacement, write-back and
/// write-allocate semantics.
///
/// # Examples
///
/// ```
/// use hybridmem_cachesim::{CacheGeometry, SetAssociativeCache};
/// use hybridmem_types::{AccessKind, Address};
///
/// let mut cache = SetAssociativeCache::new(CacheGeometry::new(256, 2, 64)?);
/// let miss = cache.access(Address::new(0), AccessKind::Read);
/// assert!(!miss.hit);
/// let hit = cache.access(Address::new(32), AccessKind::Read); // same line
/// assert!(hit.hit);
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssociativeCache {
    geometry: CacheGeometry,
    /// `sets[s]` holds resident lines in arbitrary slot order; recency
    /// lives in each line's `last_used` stamp, so a hit updates one line
    /// in place instead of rotating the whole set (`Vec::remove` +
    /// `insert(0)` was O(associativity) data movement per hit).
    sets: Vec<Vec<Line>>,
    /// Monotonic access counter stamped into `Line::last_used`.
    tick: u64,
    stats: CacheStats,
}

impl SetAssociativeCache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets() as usize;
        Self {
            geometry,
            sets: vec![Vec::with_capacity(geometry.associativity as usize); sets],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub const fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Accumulated statistics.
    #[must_use]
    pub const fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn line_number(&self, address: Address) -> u64 {
        address.value() / u64::from(self.geometry.line_size)
    }

    fn set_and_tag(&self, address: Address) -> (usize, u64) {
        let line = self.line_number(address);
        let sets = self.geometry.sets();
        ((line % sets) as usize, line / sets)
    }

    #[cfg(test)]
    fn line_address(&self, set: usize, tag: u64) -> Address {
        let line = tag * self.geometry.sets() + set as u64;
        Address::new(line * u64::from(self.geometry.line_size))
    }

    /// Performs one access. Writes mark the line dirty; misses allocate the
    /// line (the caller fetches it from the next level) and may evict.
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "set_and_tag bounds set_idx, and a full set has a victim"
    )]
    pub fn access(&mut self, address: Address, kind: AccessKind) -> CacheAccessResult {
        let (set_idx, tag) = self.set_and_tag(address);
        let sets = self.geometry.sets();
        let line_size = u64::from(self.geometry.line_size);
        let associativity = self.geometry.associativity as usize;
        self.tick += 1;
        let tick = self.tick;
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.dirty |= kind.is_write();
            line.last_used = tick;
            self.stats.hits += 1;
            return CacheAccessResult {
                hit: true,
                evicted: None,
            };
        }
        self.stats.misses += 1;
        let incoming = Line {
            tag,
            dirty: kind.is_write(),
            last_used: tick,
        };
        if set.len() < associativity {
            set.push(incoming);
            return CacheAccessResult {
                hit: false,
                evicted: None,
            };
        }
        let victim_pos = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.last_used)
            .map(|(pos, _)| pos)
            .expect("full set has a victim");
        let victim = std::mem::replace(&mut set[victim_pos], incoming);
        if victim.dirty {
            self.stats.writebacks += 1;
        }
        let line = victim.tag * sets + set_idx as u64;
        CacheAccessResult {
            hit: false,
            evicted: Some(EvictedLine {
                address: Address::new(line * line_size),
                dirty: victim.dirty,
            }),
        }
    }

    /// True when the line containing `address` is resident.
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "set_and_tag bounds set_idx")]
    pub fn contains(&self, address: Address) -> bool {
        let (set_idx, tag) = self.set_and_tag(address);
        self.sets[set_idx].iter().any(|l| l.tag == tag)
    }

    /// Invalidates the line containing `address` (coherence), returning the
    /// line's dirty state if it was resident.
    pub fn invalidate(&mut self, address: Address) -> Option<bool> {
        let (set_idx, tag) = self.set_and_tag(address);
        #[expect(clippy::indexing_slicing, reason = "set_and_tag bounds set_idx")]
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|l| l.tag == tag)?;
        // Slot order carries no meaning, so the O(1) removal is safe.
        let line = set.swap_remove(pos);
        self.stats.invalidations += 1;
        Some(line.dirty)
    }

    /// Number of resident lines (diagnostics).
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Empties the cache, returning every line's base address and dirty
    /// state (used to flush outstanding write-backs at end of trace).
    pub fn drain(&mut self) -> Vec<EvictedLine> {
        let sets_count = self.geometry.sets();
        let line_size = u64::from(self.geometry.line_size);
        let mut drained = Vec::with_capacity(self.resident_lines());
        for (set_idx, set) in self.sets.iter_mut().enumerate() {
            // Emit each set MRU-first, matching the positional ordering
            // this cache historically kept, so flush-time write-back
            // streams are unchanged.
            set.sort_unstable_by_key(|line| std::cmp::Reverse(line.last_used));
            for line in set.drain(..) {
                let number = line.tag * sets_count + set_idx as u64;
                drained.push(EvictedLine {
                    address: Address::new(number * line_size),
                    dirty: line.dirty,
                });
            }
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssociativeCache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        SetAssociativeCache::new(CacheGeometry::new(256, 2, 64).unwrap())
    }

    #[test]
    fn same_line_hits() {
        let mut c = tiny();
        assert!(!c.access(Address::new(0), AccessKind::Read).hit);
        assert!(c.access(Address::new(63), AccessKind::Read).hit);
        assert!(
            !c.access(Address::new(64), AccessKind::Read).hit,
            "next line"
        );
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_within_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (line % 2 == 0).
        c.access(Address::new(0), AccessKind::Read);
        c.access(Address::new(128), AccessKind::Read);
        c.access(Address::new(0), AccessKind::Read); // line 0 MRU
        let res = c.access(Address::new(256), AccessKind::Read);
        let evicted = res.evicted.expect("set was full");
        assert_eq!(evicted.address, Address::new(128), "LRU way evicted");
        assert!(!evicted.dirty);
        assert!(c.contains(Address::new(0)));
        assert!(!c.contains(Address::new(128)));
    }

    #[test]
    fn write_back_on_dirty_eviction() {
        let mut c = tiny();
        c.access(Address::new(0), AccessKind::Write);
        c.access(Address::new(128), AccessKind::Read);
        let res = c.access(Address::new(256), AccessKind::Read);
        let evicted = res.evicted.expect("eviction");
        assert_eq!(evicted.address, Address::new(0));
        assert!(evicted.dirty, "written line must be written back");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = tiny();
        c.access(Address::new(0), AccessKind::Read);
        c.access(Address::new(8), AccessKind::Write); // hit, dirties
        c.access(Address::new(128), AccessKind::Read);
        let res = c.access(Address::new(256), AccessKind::Read);
        assert!(res.evicted.expect("eviction").dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(Address::new(0), AccessKind::Write);
        assert_eq!(
            c.invalidate(Address::new(32)),
            Some(true),
            "same line, dirty"
        );
        assert_eq!(c.invalidate(Address::new(0)), None, "already gone");
        assert!(!c.contains(Address::new(0)));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn hit_ratio_math() {
        let mut c = tiny();
        assert_eq!(c.stats().hit_ratio(), 0.0);
        c.access(Address::new(0), AccessKind::Read);
        c.access(Address::new(0), AccessKind::Read);
        c.access(Address::new(0), AccessKind::Read);
        c.access(Address::new(64), AccessKind::Read);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn resident_lines_bounded_by_capacity() {
        let mut c = tiny();
        for i in 0..100u64 {
            c.access(Address::new(i * 64), AccessKind::Read);
            assert!(c.resident_lines() <= 4);
        }
    }

    #[test]
    fn drain_is_mru_first_per_set() {
        let mut c = tiny();
        c.access(Address::new(128), AccessKind::Write); // set 0, older
        c.access(Address::new(0), AccessKind::Read); // set 0, newer
        c.access(Address::new(0), AccessKind::Read);
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].address, Address::new(0), "MRU drains first");
        assert_eq!(drained[1].address, Address::new(128));
        assert!(drained[1].dirty);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn matches_reference_lru_order() {
        // Deterministic pseudo-random stream (LCG) cross-checked against a
        // positional MRU-first reference model: the timestamp scheme must
        // hit, miss, and evict identically.
        let mut c = tiny();
        let mut reference: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        for _ in 0..2_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let line = (state >> 33) % 16;
            let kind = if state & 1 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let res = c.access(Address::new(line * 64), kind);
            let (set, tag) = ((line % 2) as usize, line / 2);
            let model = &mut reference[set];
            if let Some(pos) = model.iter().position(|&t| t == tag) {
                let t = model.remove(pos);
                model.insert(0, t);
                assert!(res.hit);
                assert!(res.evicted.is_none());
            } else {
                assert!(!res.hit);
                if model.len() == 2 {
                    let victim = model.pop().expect("full model set");
                    let evicted = res.evicted.expect("full set evicts");
                    assert_eq!(evicted.address.value(), (victim * 2 + set as u64) * 64);
                } else {
                    assert!(res.evicted.is_none());
                }
                model.insert(0, tag);
            }
        }
    }

    #[test]
    fn set_tag_roundtrip() {
        let c = tiny();
        for addr in [0u64, 64, 128, 4096, 65536 + 192] {
            let (set, tag) = c.set_and_tag(Address::new(addr));
            let base = c.line_address(set, tag);
            assert_eq!(base.value(), addr / 64 * 64);
        }
    }
}
