//! The simulation event stream and the sinks that observe it.
//!
//! Every run emits one [`SimEvent`] per demand access, fault, policy
//! action and counter probe, in execution order, to the [`EventSink`]
//! installed in the simulator (none by default, and then nothing is
//! emitted at all). Two sinks exist. [`RecordingSink`] keeps the raw
//! stream in memory; the simulator and event-stream tests compare against
//! it. [`CellSink`](crate::CellSink) is what every instrumented cell
//! carries: it folds the stream into the windowed metrics, page ledger,
//! audit and flight recorder over one shared access cursor.

use hybridmem_policy::{NvmCounterProbe, PolicyAction};
use hybridmem_types::{MemoryKind, PageAccess};

/// One observable simulation event, emitted in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimEvent {
    /// A demand request was served by a memory module.
    Served {
        /// The request.
        access: PageAccess,
        /// Module that serviced it.
        from: MemoryKind,
    },
    /// A demand request missed main memory (the fill arrives as a
    /// subsequent [`SimEvent::Action`]).
    Fault {
        /// The faulting request.
        access: PageAccess,
    },
    /// A physical consequence decided by the policy (migration, fill,
    /// eviction).
    Action {
        /// The action, exactly as the policy reported it.
        action: PolicyAction,
    },
    /// Counter-state provenance of an NVM demand hit under a
    /// counter-window policy. Emitted immediately after the hit's
    /// [`SimEvent::Served`] and before any of its [`SimEvent::Action`]s,
    /// so a promotion's `Migrate` actions always follow the probe that
    /// explains them.
    CounterProbe {
        /// The NVM hit the probe describes.
        access: PageAccess,
        /// Algorithm 1's counter state at this hit.
        probe: NvmCounterProbe,
    },
}

/// Observer of [`SimEvent`]s. Implementations must be cheap: the sink is
/// called inline on the simulation hot path.
///
/// # Examples
///
/// ```
/// use hybridmem_core::{EventSink, HybridSimulator, RecordingSink, SimEvent};
/// use hybridmem_policy::SingleTierPolicy;
/// use hybridmem_types::{PageAccess, PageCount, PageId};
///
/// let policy = SingleTierPolicy::dram_only(PageCount::new(4))?;
/// let mut sim = HybridSimulator::with_date2016_devices(Box::new(policy));
/// sim.set_event_sink(Box::new(RecordingSink::new()));
/// sim.step(PageAccess::read(PageId::new(1)));
/// sim.step(PageAccess::read(PageId::new(1)));
///
/// let sink = sim.take_event_sink().expect("sink was installed");
/// let events = sink.as_any().downcast_ref::<RecordingSink>().unwrap();
/// assert!(matches!(events.events()[0], SimEvent::Fault { .. }));
/// assert!(matches!(events.events().last(), Some(SimEvent::Served { .. })));
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
pub trait EventSink {
    /// Observes one event.
    fn record(&mut self, event: SimEvent);

    /// Downcast support so callers can recover their concrete sink from
    /// [`HybridSimulator::take_event_sink`](crate::HybridSimulator::take_event_sink).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcast support, for sinks that are drained in place
    /// while still installed (see
    /// [`HybridSimulator::event_sink_mut`](crate::HybridSimulator::event_sink_mut)).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Keeps the newest `capacity` items pushed into it, or every item when
/// unbounded, and counts the ones it drops.
///
/// As [`RecordingSink`] it stores simulation events: [`Ring::new`] grows
/// without bound, which suits tests and small traces, and
/// [`Ring::bounded`] caps memory so an observer can stay attached to a
/// multi-million-access run. The flight recorder keeps its event and
/// snapshot rings in one too.
///
/// # Drop semantics when capacity is exceeded
///
/// A bounded ring drops the **oldest** retained item, one per
/// overflowing push, irrecoverably: it is a "keep the newest `cap`"
/// window, not a sampling scheme. The loss is never silent:
/// [`Ring::dropped`] counts every evicted item (cumulatively; draining
/// does not reset it), so callers can always report
/// `retained + dropped = total observed`. Within the retained window the
/// push order is preserved exactly: [`Ring::iter`], [`Ring::into_events`]
/// and [`Ring::take_events`] all yield the survivors oldest first, and
/// successive drains never reorder items (items pushed after a drain are
/// newer than everything drained before).
#[derive(Debug)]
pub struct Ring<T> {
    events: Vec<T>,
    /// `None` = unbounded; `Some(cap)` = ring buffer of `cap` slots.
    capacity: Option<usize>,
    /// Oldest retained item's position in `events` (always 0 until the
    /// ring wraps).
    start: usize,
    /// Items evicted from the ring since construction (never reset).
    dropped: u64,
}

/// An [`EventSink`] that stores events in memory: a [`Ring`] of
/// [`SimEvent`]s.
pub type RecordingSink = Ring<SimEvent>;

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Self {
            events: Vec::new(),
            capacity: None,
            start: 0,
            dropped: 0,
        }
    }
}

impl<T> Ring<T> {
    /// Creates an empty, unbounded ring.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a ring that retains at most `capacity` items, discarding
    /// the oldest once full (a capacity of 0 is treated as 1).
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            events: Vec::with_capacity(capacity),
            capacity: Some(capacity),
            start: 0,
            dropped: 0,
        }
    }

    /// The retention limit, or `None` when unbounded.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of items currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been pushed (or everything was drained).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Items evicted from the ring since construction. Always 0 when
    /// unbounded. Cumulative: draining with [`Ring::take_events`] does
    /// **not** reset it, so the total number of items ever pushed is
    /// `dropped + len + (items drained earlier)`.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Raw storage slice. Chronological until a bounded ring wraps; after
    /// that the storage order is unspecified, so use [`Ring::iter`] or
    /// [`Ring::into_events`] for oldest-to-newest order.
    #[must_use]
    pub fn events(&self) -> &[T] {
        &self.events
    }

    /// Retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.events.split_at(self.start);
        older.iter().chain(newer.iter())
    }

    /// Consumes the ring, returning the retained items oldest first.
    #[must_use]
    pub fn into_events(mut self) -> Vec<T> {
        self.events.rotate_left(self.start);
        self.events
    }

    /// Drains the retained items oldest first, leaving the ring empty but
    /// reusable (the capacity bound is kept). Useful when the sink is only
    /// reachable behind a `dyn EventSink` downcast, where
    /// [`Ring::into_events`] cannot take ownership.
    #[must_use]
    pub fn take_events(&mut self) -> Vec<T> {
        self.events.rotate_left(self.start);
        self.start = 0;
        std::mem::take(&mut self.events)
    }

    /// Appends `item`, evicting the oldest retained item when a bounded
    /// ring is full.
    pub fn push(&mut self, item: T) {
        match self.capacity {
            Some(capacity) if self.events.len() == capacity => {
                if let Some(slot) = self.events.get_mut(self.start) {
                    *slot = item;
                }
                self.start = (self.start + 1) % capacity;
                self.dropped += 1;
            }
            _ => self.events.push(item),
        }
    }
}

impl EventSink for RecordingSink {
    fn record(&mut self, event: SimEvent) {
        self.push(event);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem_types::PageId;

    fn read_event(page: u64) -> SimEvent {
        SimEvent::Served {
            access: PageAccess::read(PageId::new(page)),
            from: MemoryKind::Dram,
        }
    }

    fn served_page(event: &SimEvent) -> u64 {
        match event {
            SimEvent::Served { access, .. } => access.page.value(),
            other => panic!("expected Served, got {other:?}"),
        }
    }

    #[test]
    fn recording_sink_keeps_order() {
        let mut sink = RecordingSink::new();
        sink.record(SimEvent::Fault {
            access: PageAccess::read(PageId::new(1)),
        });
        sink.record(SimEvent::Served {
            access: PageAccess::read(PageId::new(1)),
            from: MemoryKind::Dram,
        });
        assert_eq!(sink.events().len(), 2);
        assert!(matches!(sink.events()[0], SimEvent::Fault { .. }));
        let events = sink.into_events();
        assert!(matches!(events[1], SimEvent::Served { .. }));
    }

    #[test]
    fn unbounded_sink_has_no_capacity() {
        let sink = RecordingSink::new();
        assert_eq!(sink.capacity(), None);
        assert!(sink.is_empty());
    }

    #[test]
    fn unbounded_sink_never_drops() {
        let mut sink = RecordingSink::new();
        for page in 0..100 {
            sink.record(read_event(page));
        }
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.len(), 100);
    }

    #[test]
    fn bounded_sink_keeps_most_recent_events() {
        let mut sink = RecordingSink::bounded(3);
        assert_eq!(sink.capacity(), Some(3));
        for page in 0..5 {
            sink.record(read_event(page));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2, "5 events through a 3-ring drop 2");
        let pages: Vec<u64> = sink.iter().map(served_page).collect();
        assert_eq!(pages, vec![2, 3, 4], "oldest events were discarded");
        let owned: Vec<u64> = sink.into_events().iter().map(served_page).collect();
        assert_eq!(owned, vec![2, 3, 4]);
    }

    #[test]
    fn bounded_sink_below_capacity_behaves_like_unbounded() {
        let mut sink = RecordingSink::bounded(8);
        for page in 0..3 {
            sink.record(read_event(page));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 0, "nothing evicted below capacity");
        let pages: Vec<u64> = sink.iter().map(served_page).collect();
        assert_eq!(pages, vec![0, 1, 2]);
        assert_eq!(sink.events().len(), 3, "no wrap: storage is chronological");
    }

    #[test]
    fn bounded_sink_capacity_zero_is_clamped_to_one() {
        let mut sink = RecordingSink::bounded(0);
        assert_eq!(sink.capacity(), Some(1));
        sink.record(read_event(1));
        sink.record(read_event(2));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.dropped(), 1);
        assert_eq!(sink.iter().map(served_page).next(), Some(2));
    }

    #[test]
    fn bounded_sink_wraps_repeatedly() {
        let mut sink = RecordingSink::bounded(2);
        for page in 0..7 {
            sink.record(read_event(page));
        }
        let pages: Vec<u64> = sink.iter().map(served_page).collect();
        assert_eq!(pages, vec![5, 6]);
    }

    #[test]
    fn take_events_drains_in_order_and_keeps_the_bound() {
        let mut sink = RecordingSink::bounded(3);
        for page in 0..5 {
            sink.record(read_event(page));
        }
        let drained: Vec<u64> = sink.take_events().iter().map(served_page).collect();
        assert_eq!(drained, vec![2, 3, 4]);
        assert!(sink.is_empty());
        assert_eq!(sink.capacity(), Some(3), "the bound survives the drain");
        assert_eq!(sink.dropped(), 2, "the drop counter survives the drain");

        for page in 10..12 {
            sink.record(read_event(page));
        }
        let refilled: Vec<u64> = sink.take_events().iter().map(served_page).collect();
        assert_eq!(refilled, vec![10, 11], "the recorder is reusable");
        assert_eq!(sink.dropped(), 2, "cumulative, not reset by draining");
    }

    #[test]
    fn take_events_preserves_global_order_across_multiple_drains() {
        // Satellite: a bounded recorder drained repeatedly must never
        // reorder events globally, even when a drain lands mid-wrap.
        let mut sink = RecordingSink::bounded(3);
        let mut drained: Vec<u64> = Vec::new();
        let mut next_page = 0u64;
        // Alternate uneven bursts (some wrap the ring, some don't) with
        // drains; the pages that survive each drain must be strictly
        // increasing across the whole sequence.
        for burst in [1usize, 4, 2, 5, 3, 0, 7] {
            for _ in 0..burst {
                sink.record(read_event(next_page));
                next_page += 1;
            }
            let batch: Vec<u64> = sink.take_events().iter().map(served_page).collect();
            assert!(
                batch.len() <= 3,
                "a drain never yields more than the capacity"
            );
            drained.extend(batch);
        }
        assert!(
            drained.windows(2).all(|pair| pair[0] < pair[1]),
            "drained pages must be globally ordered: {drained:?}"
        );
        // Each burst keeps only its newest min(burst, 3) events.
        let expected: Vec<u64> = {
            let mut pages = Vec::new();
            let mut base = 0u64;
            for burst in [1u64, 4, 2, 5, 3, 0, 7] {
                let kept = burst.min(3);
                pages.extend(base + burst - kept..base + burst);
                base += burst;
            }
            pages
        };
        assert_eq!(drained, expected);
    }

    #[test]
    fn sinks_downcast() {
        let mut sink: Box<dyn EventSink> = Box::new(RecordingSink::new());
        assert!(sink.as_any().downcast_ref::<RecordingSink>().is_some());
        assert!(sink.as_any().downcast_ref::<crate::CellSink>().is_none());
        assert!(sink.as_any_mut().downcast_mut::<RecordingSink>().is_some());
    }
}
