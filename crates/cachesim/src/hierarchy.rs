//! The multi-core cache hierarchy: private L1 data caches over a shared
//! LLC, with write-invalidate coherence between the L1s.
//!
//! This is the substrate that plays COTSon's role (see `DESIGN.md`): it
//! filters CPU-level accesses into the main-memory accesses that the
//! OS-level migration policies actually see — demand fills on LLC misses
//! and write-backs of dirty LLC victims.
//!
//! Coherence is modelled at the level that matters for trace filtering
//! (a MESI/MOESI substitute): a write by one core invalidates the line in
//! every other core's L1; an invalidated dirty line is folded into the LLC
//! so its eventual write-back is not lost.

use hybridmem_types::{Access, AccessKind, Address, PageAccess};

use crate::{CacheStats, CotsonConfig, SetAssociativeCache};

/// One main-memory transaction produced by the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryEvent {
    /// Demand fill of a line after an LLC miss.
    Fill(Address),
    /// Write-back of a dirty LLC victim.
    WriteBack(Address),
}

impl MemoryEvent {
    /// The byte address of the transaction.
    #[must_use]
    pub const fn address(self) -> Address {
        match self {
            Self::Fill(a) | Self::WriteBack(a) => a,
        }
    }

    /// Converts the transaction into the page-granular access the memory
    /// manager sees (fills are reads of memory; write-backs are writes).
    #[must_use]
    pub fn to_page_access(self) -> PageAccess {
        match self {
            Self::Fill(a) => PageAccess::read(hybridmem_types::page_of(a)),
            Self::WriteBack(a) => PageAccess::write(hybridmem_types::page_of(a)),
        }
    }
}

/// Aggregate statistics of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Summed private-L1 statistics.
    pub l1: CacheStats,
    /// Shared-LLC statistics.
    pub llc: CacheStats,
    /// Demand fills sent to main memory.
    pub memory_fills: u64,
    /// Write-backs sent to main memory.
    pub memory_writebacks: u64,
}

impl HierarchyStats {
    /// Total main-memory transactions.
    #[must_use]
    pub const fn memory_accesses(&self) -> u64 {
        self.memory_fills + self.memory_writebacks
    }
}

/// Private-L1s + shared-LLC hierarchy.
///
/// # Examples
///
/// ```
/// use hybridmem_cachesim::{CacheHierarchy, CotsonConfig};
/// use hybridmem_types::{Access, Address, CoreId};
///
/// let mut hierarchy = CacheHierarchy::new(CotsonConfig::date2016())?;
/// let events = hierarchy.access(Access::read(Address::new(0x1000), CoreId::new(0)));
/// assert_eq!(events.len(), 1, "cold miss reaches memory");
/// let events = hierarchy.access(Access::read(Address::new(0x1000), CoreId::new(0)));
/// assert!(events.is_empty(), "L1 hit is invisible to memory");
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: CotsonConfig,
    l1d: Vec<SetAssociativeCache>,
    llc: SetAssociativeCache,
    fills: u64,
    writebacks: u64,
}

impl CacheHierarchy {
    /// Creates the hierarchy for a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`hybridmem_types::Error::InvalidConfig`] when the
    /// configuration fails [`CotsonConfig::validate`].
    pub fn new(config: CotsonConfig) -> hybridmem_types::Result<Self> {
        config.validate()?;
        Ok(Self {
            l1d: (0..config.cores)
                .map(|_| SetAssociativeCache::new(config.l1d))
                .collect(),
            llc: SetAssociativeCache::new(config.llc),
            config,
            fills: 0,
            writebacks: 0,
        })
    }

    /// The active configuration.
    #[must_use]
    pub const fn config(&self) -> &CotsonConfig {
        &self.config
    }

    /// Runs one CPU access through the hierarchy, returning the
    /// main-memory transactions it caused (possibly none), in order.
    ///
    /// Cores outside the configured range are clamped onto the available
    /// L1s (`core % cores`), so traces generated for a different core count
    /// remain usable.
    pub fn access(&mut self, access: Access) -> Vec<MemoryEvent> {
        let mut events = Vec::new();
        let core = usize::from(access.core.index()) % self.l1d.len();

        // Coherence: a write invalidates every other core's copy; a dirty
        // remote copy is folded into the LLC (dirty) so it is not lost.
        if access.kind.is_write() {
            let mut dirty_remote = false;
            for (i, l1) in self.l1d.iter_mut().enumerate() {
                if i != core {
                    if let Some(dirty) = l1.invalidate(access.address) {
                        dirty_remote |= dirty;
                    }
                }
            }
            if dirty_remote {
                self.merge_dirty_into_llc(access.address, &mut events);
            }
        }

        #[expect(clippy::indexing_slicing, reason = "core is taken modulo l1d.len()")]
        let l1_result = self.l1d[core].access(access.address, access.kind);
        if let Some(evicted) = l1_result.evicted {
            if evicted.dirty {
                // Write-back into the LLC (write-allocate there).
                self.merge_dirty_into_llc(evicted.address, &mut events);
            }
        }
        if !l1_result.hit {
            // Fetch the line through the LLC.
            let llc_result = self.llc.access(access.address, AccessKind::Read);
            if let Some(evicted) = llc_result.evicted {
                if evicted.dirty {
                    self.writebacks += 1;
                    events.push(MemoryEvent::WriteBack(evicted.address));
                }
            }
            if !llc_result.hit {
                self.fills += 1;
                // Memory transactions are line-granular: report the base
                // address of the line being fetched.
                let line = u64::from(self.config.llc.line_size);
                let base = access.address.value() / line * line;
                events.push(MemoryEvent::Fill(Address::new(base)));
            }
        }
        events
    }

    /// Installs/dirties `address` in the LLC, forwarding any dirty victim
    /// to memory.
    fn merge_dirty_into_llc(&mut self, address: Address, events: &mut Vec<MemoryEvent>) {
        let result = self.llc.access(address, AccessKind::Write);
        if let Some(evicted) = result.evicted {
            if evicted.dirty {
                self.writebacks += 1;
                events.push(MemoryEvent::WriteBack(evicted.address));
            }
        }
        // An LLC miss here means the write-back allocated its line in the
        // LLC; no memory fill is needed because the L1 held the only valid
        // copy of the data.
    }

    /// Flushes the whole hierarchy: every dirty L1 line folds into the
    /// LLC, then every dirty LLC line is written back to memory. Returns
    /// the resulting memory transactions; the caches are left empty.
    ///
    /// Call at end of trace so the memory-side trace contains the write
    /// traffic still buffered in the caches — otherwise a write-heavy
    /// workload's final stores silently vanish.
    pub fn flush(&mut self) -> Vec<MemoryEvent> {
        let mut events = Vec::new();
        let drained: Vec<_> = self
            .l1d
            .iter_mut()
            .flat_map(SetAssociativeCache::drain)
            .collect();
        for line in drained {
            if line.dirty {
                self.merge_dirty_into_llc(line.address, &mut events);
            }
        }
        for line in self.llc.drain() {
            if line.dirty {
                self.writebacks += 1;
                events.push(MemoryEvent::WriteBack(line.address));
            }
        }
        events
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        let mut l1 = CacheStats::default();
        for cache in &self.l1d {
            let s = cache.stats();
            l1.hits += s.hits;
            l1.misses += s.misses;
            l1.writebacks += s.writebacks;
            l1.invalidations += s.invalidations;
        }
        HierarchyStats {
            l1,
            llc: *self.llc.stats(),
            memory_fills: self.fills,
            memory_writebacks: self.writebacks,
        }
    }
}

/// Filters a CPU-level access stream into the page-granular main-memory
/// trace the migration policies consume.
///
/// # Examples
///
/// ```
/// use hybridmem_cachesim::{filter_to_memory_trace, CotsonConfig};
/// use hybridmem_trace::{parsec, TraceGenerator};
///
/// let spec = parsec::spec("bodytrack")?.capped(20_000);
/// let cpu_trace = TraceGenerator::new(spec, 1);
/// let (memory_trace, stats) =
///     filter_to_memory_trace(cpu_trace, CotsonConfig::date2016())?;
/// assert_eq!(memory_trace.len() as u64, stats.memory_accesses());
/// assert!(memory_trace.len() < 20_000, "caches absorb most accesses");
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
///
/// # Errors
///
/// Returns [`hybridmem_types::Error::InvalidConfig`] when the configuration
/// is invalid.
pub fn filter_to_memory_trace<I>(
    accesses: I,
    config: CotsonConfig,
) -> hybridmem_types::Result<(Vec<PageAccess>, HierarchyStats)>
where
    I: IntoIterator<Item = Access>,
{
    let mut hierarchy = CacheHierarchy::new(config)?;
    let mut trace = Vec::new();
    for access in accesses {
        for event in hierarchy.access(access) {
            trace.push(event.to_page_access());
        }
    }
    // Final flush: dirty lines still cached must reach memory or the
    // write-back traffic of the trace's tail is lost.
    for event in hierarchy.flush() {
        trace.push(event.to_page_access());
    }
    Ok((trace, hierarchy.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheGeometry;
    use hybridmem_types::CoreId;

    /// A tiny hierarchy: 2 cores, 128 B L1 (2 sets × 1 way), 256 B LLC.
    fn tiny() -> CacheHierarchy {
        let l1 = CacheGeometry::new(128, 1, 64).unwrap();
        let llc = CacheGeometry::new(256, 2, 64).unwrap();
        CacheHierarchy::new(CotsonConfig {
            cores: 2,
            l1d: l1,
            l1i: l1,
            llc,
        })
        .unwrap()
    }

    fn read(addr: u64, core: u16) -> Access {
        Access::read(Address::new(addr), CoreId::new(core))
    }

    fn write(addr: u64, core: u16) -> Access {
        Access::write(Address::new(addr), CoreId::new(core))
    }

    #[test]
    fn cold_miss_fills_from_memory() {
        let mut h = tiny();
        let events = h.access(read(0, 0));
        assert_eq!(events, vec![MemoryEvent::Fill(Address::new(0))]);
        assert!(h.access(read(32, 0)).is_empty(), "L1 hit");
        assert_eq!(h.stats().memory_fills, 1);
    }

    #[test]
    fn llc_absorbs_l1_misses() {
        let mut h = tiny();
        h.access(read(0, 0)); // fill via LLC
                              // Evict line 0 from core 0's L1 (same L1 set: line numbers ≡ 0 mod 2).
        h.access(read(128, 0));
        // Line 0 is gone from L1 but still in the LLC → no memory event.
        let events = h.access(read(0, 0));
        assert!(events.is_empty(), "LLC hit: {events:?}");
    }

    #[test]
    fn dirty_llc_eviction_writes_back_to_memory() {
        let mut h = tiny();
        h.access(write(0, 0));
        // Push the dirty line out of L1 (write-back into LLC)...
        h.access(read(128, 0));
        // ...then out of the LLC: lines 0,128 in LLC set 0; add 256 and 384
        // (set 0) to force eviction of line 0.
        let mut wrote_back = false;
        for addr in [256u64, 384, 512] {
            for e in h.access(read(addr, 0)) {
                if e == MemoryEvent::WriteBack(Address::new(0)) {
                    wrote_back = true;
                }
            }
        }
        assert!(wrote_back, "dirty line 0 must eventually reach memory");
        assert!(h.stats().memory_writebacks >= 1);
    }

    #[test]
    fn write_invalidates_other_cores() {
        let mut h = tiny();
        h.access(read(0, 0));
        h.access(read(0, 1));
        assert_eq!(h.stats().l1.misses, 2);
        h.access(write(0, 1));
        // Core 0's copy is gone: its next read misses L1 (but hits LLC).
        let events = h.access(read(0, 0));
        assert!(events.is_empty(), "LLC still holds the line");
        let stats = h.stats();
        assert_eq!(stats.l1.invalidations, 1);
        assert_eq!(stats.l1.misses, 3);
    }

    #[test]
    fn remote_dirty_copy_survives_invalidation() {
        let mut h = tiny();
        h.access(write(0, 0)); // core 0 holds line 0 dirty
        h.access(write(0, 1)); // invalidates core 0's dirty copy → merged into LLC
                               // Evict line 0 from the LLC and check the data reaches memory.
        let mut wrote_back = false;
        for addr in [256u64, 384, 512, 640] {
            for e in h.access(read(addr, 0)) {
                if matches!(e, MemoryEvent::WriteBack(a) if a == Address::new(0)) {
                    wrote_back = true;
                }
            }
        }
        // Core 1 still holds its own dirty copy in L1; flush it too.
        h.access(read(128, 1));
        assert!(
            wrote_back || h.stats().memory_writebacks > 0,
            "dirty data must not be lost"
        );
    }

    #[test]
    fn events_map_to_page_accesses() {
        assert_eq!(
            MemoryEvent::Fill(Address::new(4096)).to_page_access(),
            PageAccess::read(hybridmem_types::PageId::new(1))
        );
        assert_eq!(
            MemoryEvent::WriteBack(Address::new(8192)).to_page_access(),
            PageAccess::write(hybridmem_types::PageId::new(2))
        );
        assert_eq!(
            MemoryEvent::Fill(Address::new(7)).address(),
            Address::new(7)
        );
    }

    #[test]
    fn core_ids_clamp_onto_available_l1s() {
        let mut h = tiny();
        // Core 5 on a 2-core hierarchy lands on L1 #1.
        h.access(read(0, 5));
        let events = h.access(read(0, 1));
        assert!(events.is_empty(), "same L1, so this is a hit");
    }

    #[test]
    fn flush_emits_buffered_write_backs() {
        let mut h = tiny();
        h.access(write(0, 0));
        h.access(write(64, 1));
        h.access(read(128, 0));
        let before = h.stats().memory_writebacks;
        let events = h.flush();
        assert!(events
            .iter()
            .all(|e| matches!(e, MemoryEvent::WriteBack(_))));
        let dirty_flushed = events.len() as u64;
        assert!(
            dirty_flushed >= 2,
            "both written lines must flush: {events:?}"
        );
        assert_eq!(h.stats().memory_writebacks, before + dirty_flushed);
        // The hierarchy is empty afterwards: everything misses again.
        let refetch = h.access(read(0, 0));
        assert_eq!(refetch, vec![MemoryEvent::Fill(Address::new(0))]);
    }

    #[test]
    fn flush_of_clean_hierarchy_is_empty() {
        let mut h = tiny();
        h.access(read(0, 0));
        h.access(read(64, 1));
        assert!(h.flush().is_empty());
    }

    #[test]
    fn memory_trace_counts_match_stats() {
        let mut h = tiny();
        let mut events = 0u64;
        for i in 0..500u64 {
            let access = if i % 7 == 0 {
                write(i * 64 % 2048, (i % 2) as u16)
            } else {
                read(i * 64 % 2048, (i % 2) as u16)
            };
            events += h.access(access).len() as u64;
        }
        assert_eq!(events, h.stats().memory_accesses());
    }
}
