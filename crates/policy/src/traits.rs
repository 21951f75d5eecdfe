//! The policy interface: what a page-management policy tells the simulator.

use hybridmem_json::{Json, ToJson};
use hybridmem_types::{MemoryKind, PageAccess, PageCount, PageId, Residency};

/// One physical consequence of a policy decision, in the order it happens.
///
/// The simulator (`hybridmem-core`) replays these actions against the device
/// models to charge latency, energy, and NVM wear; the policies themselves
/// are pure bookkeeping and never touch the devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// `page` is evicted from `from` to disk (page-out). The paper charges
    /// no memory cost for this: the page leaves via DMA overlapped with the
    /// disk write.
    EvictToDisk {
        /// Page leaving main memory.
        page: PageId,
        /// Module the page leaves.
        from: MemoryKind,
    },
    /// `page` moves between the two memory modules: `PageFactor` reads of
    /// `from` plus `PageFactor` writes of `to` (Eqs. 1–2, migration terms).
    Migrate {
        /// Page being migrated.
        page: PageId,
        /// Source module.
        from: MemoryKind,
        /// Destination module.
        to: MemoryKind,
    },
    /// `page` is filled from disk into `into` after a page fault:
    /// the OS sees the disk latency; the memory side receives `PageFactor`
    /// writes (Eq. 2, page-fault terms).
    FillFromDisk {
        /// Page being brought in.
        page: PageId,
        /// Module receiving the page.
        into: MemoryKind,
    },
}

/// Maximum number of [`PolicyAction`]s one access can trigger.
///
/// The worst case across every policy in the repository is four — a
/// [`DramCachePolicy`](crate::DramCachePolicy) fault on full tiers evicts
/// the NVM victim, fills the page, writes back a dirty cache copy, and
/// admits the new page. Exceeding the bound panics rather than silently
/// truncating.
pub const MAX_ACTIONS_PER_ACCESS: usize = 4;

/// An inline, fixed-capacity list of [`PolicyAction`]s.
///
/// Policies produce an [`AccessOutcome`] for every one of millions of
/// trace accesses; a heap-allocated `Vec` on that path costs an
/// allocation/deallocation pair per access. `ActionList` stores up to
/// [`MAX_ACTIONS_PER_ACCESS`] actions inline (the type is `Copy`) and
/// dereferences to `&[PolicyAction]`, so consumers iterate it exactly like
/// the `Vec` it replaces.
///
/// # Panics
///
/// [`ActionList::push`] panics when the list is full — a policy emitting
/// more than [`MAX_ACTIONS_PER_ACCESS`] actions per access is a logic bug,
/// not a capacity-planning problem.
///
/// # Examples
///
/// ```
/// use hybridmem_policy::{ActionList, PolicyAction};
/// use hybridmem_types::{MemoryKind, PageId};
///
/// let mut actions = ActionList::new();
/// actions.push(PolicyAction::FillFromDisk {
///     page: PageId::new(1),
///     into: MemoryKind::Dram,
/// });
/// assert_eq!(actions.len(), 1);
/// assert!(matches!(actions[0], PolicyAction::FillFromDisk { .. }));
/// ```
#[derive(Clone, Copy)]
pub struct ActionList {
    slots: [PolicyAction; MAX_ACTIONS_PER_ACCESS],
    len: u8,
}

/// Placeholder occupying unused slots; never observable through the public
/// API (every accessor is bounded by `len`).
const UNUSED_SLOT: PolicyAction = PolicyAction::EvictToDisk {
    page: PageId::new(0),
    from: MemoryKind::Dram,
};

impl ActionList {
    /// An empty list.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            slots: [UNUSED_SLOT; MAX_ACTIONS_PER_ACCESS],
            len: 0,
        }
    }

    /// Appends an action, preserving insertion order.
    ///
    /// # Panics
    ///
    /// Panics when the list already holds [`MAX_ACTIONS_PER_ACCESS`]
    /// actions.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "the assert above bounds len")]
    pub fn push(&mut self, action: PolicyAction) {
        assert!(
            (self.len as usize) < MAX_ACTIONS_PER_ACCESS,
            "ActionList overflow: a policy emitted more than \
             {MAX_ACTIONS_PER_ACCESS} actions for one access"
        );
        self.slots[self.len as usize] = action;
        self.len += 1;
    }

    /// The live actions as a slice, in insertion order.
    #[inline]
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "push keeps len within slots")]
    pub fn as_slice(&self) -> &[PolicyAction] {
        &self.slots[..self.len as usize]
    }
}

impl Default for ActionList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for ActionList {
    type Target = [PolicyAction];

    #[inline]
    fn deref(&self) -> &Self::Target {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a ActionList {
    type Item = &'a PolicyAction;
    type IntoIter = std::slice::Iter<'a, PolicyAction>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl std::fmt::Debug for ActionList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for ActionList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ActionList {}

impl PartialEq<[PolicyAction]> for ActionList {
    fn eq(&self, other: &[PolicyAction]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<PolicyAction>> for ActionList {
    fn eq(&self, other: &Vec<PolicyAction>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<ActionList> for Vec<PolicyAction> {
    fn eq(&self, other: &ActionList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[PolicyAction; N]> for ActionList {
    fn eq(&self, other: &[PolicyAction; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl FromIterator<PolicyAction> for ActionList {
    /// Collects actions in order.
    ///
    /// # Panics
    ///
    /// Panics when the iterator yields more than
    /// [`MAX_ACTIONS_PER_ACCESS`] actions.
    fn from_iter<I: IntoIterator<Item = PolicyAction>>(iter: I) -> Self {
        let mut list = Self::new();
        for action in iter {
            list.push(action);
        }
        list
    }
}

impl From<Vec<PolicyAction>> for ActionList {
    /// Converts from a `Vec` (convenience for tests and call sites built
    /// before the inline list existed).
    ///
    /// # Panics
    ///
    /// Panics when the vector holds more than [`MAX_ACTIONS_PER_ACCESS`]
    /// actions.
    fn from(actions: Vec<PolicyAction>) -> Self {
        actions.into_iter().collect()
    }
}

impl<const N: usize> From<[PolicyAction; N]> for ActionList {
    /// Converts from a fixed-size array (panics at runtime when
    /// `N > MAX_ACTIONS_PER_ACCESS`).
    fn from(actions: [PolicyAction; N]) -> Self {
        actions.into_iter().collect()
    }
}

/// Which of Algorithm 1's two per-page counters is meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CounterKind {
    /// The read counter, gated by `read_threshold` inside the
    /// `readperc` window.
    Read,
    /// The write counter, gated by `write_threshold` inside the
    /// `writeperc` window.
    Write,
}

impl ToJson for CounterKind {
    fn to_json(&self) -> Json {
        Json::str(self.name())
    }
}

impl CounterKind {
    /// Stable lowercase name (also its JSON form).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Read => "read",
            Self::Write => "write",
        }
    }
}

/// A snapshot of Algorithm 1's counter state at one NVM hit — the
/// *provenance* of a promotion decision (or non-decision).
///
/// The two-LRU policy attaches one of these to the [`AccessOutcome`] of
/// every NVM demand hit, so observers (the page-lifecycle ledger in
/// `hybridmem-core`) can reconstruct exactly why a page was or was not
/// promoted: its queue position, the counter values after this hit's
/// update, the thresholds in force, and any value lost to a lazy
/// counter-window reset on this access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmCounterProbe {
    /// The page's rank in the NVM LRU queue (0 = MRU) *before* this hit
    /// touched it — the position Algorithm 1 compares against the
    /// `readperc`/`writeperc` window boundaries.
    pub rank: u64,
    /// Read-counter value after this hit's update (post-reset, if one
    /// applied).
    pub reads: u32,
    /// Write-counter value after this hit's update.
    pub writes: u32,
    /// Nonzero read-counter value discarded by a lazy window reset at
    /// this hit (`0` = no lossy read reset happened here).
    pub read_lost: u32,
    /// Nonzero write-counter value discarded by a lazy window reset at
    /// this hit.
    pub write_lost: u32,
    /// The promotion threshold the read counter is compared against.
    pub read_threshold: u32,
    /// The promotion threshold the write counter is compared against.
    pub write_threshold: u32,
    /// `Some(kind)` when this hit pushed that counter past its threshold
    /// and triggered the NVM→DRAM promotion; `None` for a plain hit.
    pub fired: Option<CounterKind>,
}

/// Everything a policy did in response to one page access.
///
/// # Examples
///
/// ```
/// use hybridmem_policy::AccessOutcome;
/// use hybridmem_types::MemoryKind;
///
/// let hit = AccessOutcome::hit(MemoryKind::Dram);
/// assert_eq!(hit.served_from, Some(MemoryKind::Dram));
/// assert!(!hit.fault);
/// assert!(hit.probe.is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Module that serviced the demand access, or `None` on a page fault
    /// (the fill itself satisfies the request; Eq. 1 charges only the disk
    /// latency for misses).
    pub served_from: Option<MemoryKind>,
    /// True when the access missed main memory entirely.
    pub fault: bool,
    /// Physical actions triggered by the access, in execution order.
    pub actions: ActionList,
    /// Counter-state provenance for NVM hits under a counter-window
    /// policy ([`NvmCounterProbe`]); `None` everywhere else.
    pub probe: Option<NvmCounterProbe>,
}

impl AccessOutcome {
    /// An outcome for a plain hit in `kind` with no side effects.
    #[must_use]
    pub fn hit(kind: MemoryKind) -> Self {
        Self {
            served_from: Some(kind),
            fault: false,
            actions: ActionList::new(),
            probe: None,
        }
    }

    /// An outcome for a hit in `kind` followed by `actions`
    /// (e.g. a threshold-triggered migration).
    #[must_use]
    pub fn hit_with(kind: MemoryKind, actions: impl Into<ActionList>) -> Self {
        Self {
            served_from: Some(kind),
            fault: false,
            actions: actions.into(),
            probe: None,
        }
    }

    /// An outcome for a page fault resolved by `actions`.
    #[must_use]
    pub fn fault_with(actions: impl Into<ActionList>) -> Self {
        Self {
            served_from: None,
            fault: true,
            actions: actions.into(),
            probe: None,
        }
    }

    /// Attaches counter-state provenance (builder style; used by the
    /// two-LRU policy on every NVM demand hit).
    #[must_use]
    pub fn with_counter_probe(mut self, probe: NvmCounterProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Count of [`PolicyAction::Migrate`] actions in this outcome.
    #[must_use]
    pub fn migrations(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, PolicyAction::Migrate { .. }))
            .count()
    }
}

/// One entry in a [`BatchOutcomes`] step tape.
///
/// Plain hits — no actions, no fault, no probe — are the overwhelming
/// majority of a steady-state replay, so the batch path records them as
/// a one-byte code instead of a full [`AccessOutcome`]; everything else
/// (faults, promotions, probed NVM hits) is stored in full, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStep {
    /// A plain DRAM hit: exactly `AccessOutcome::hit(MemoryKind::Dram)`.
    DramHit,
    /// A plain NVM hit: exactly `AccessOutcome::hit(MemoryKind::Nvm)`.
    NvmHit,
    /// Anything else; the full outcome is the next entry of
    /// [`BatchOutcomes::detailed`].
    Detailed,
}

/// Outcomes of one [`HybridPolicy::on_access_batch`] call, in access
/// order.
///
/// The steady-state replay loop reuses one `BatchOutcomes` across
/// batches ([`BatchOutcomes::clear`] between calls), so the structure
/// allocates only while its capacity still grows. The `steps` tape has
/// one entry per access; [`BatchStep::Detailed`] entries consume the
/// next element of the `detailed` side table.
///
/// # Examples
///
/// ```
/// use hybridmem_policy::{AccessOutcome, BatchOutcomes, BatchStep};
/// use hybridmem_types::MemoryKind;
///
/// let mut out = BatchOutcomes::new();
/// out.push_dram_hit();
/// out.push_detailed(AccessOutcome::hit(MemoryKind::Nvm));
/// assert_eq!(out.len(), 2);
/// assert_eq!(out.steps()[0], BatchStep::DramHit);
/// assert_eq!(out.detailed().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchOutcomes {
    steps: Vec<BatchStep>,
    detailed: Vec<AccessOutcome>,
}

impl BatchOutcomes {
    /// An empty outcome buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer pre-sized for batches of `capacity` accesses.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            steps: Vec::with_capacity(capacity),
            detailed: Vec::new(),
        }
    }

    /// Records a plain DRAM hit.
    #[inline]
    pub fn push_dram_hit(&mut self) {
        self.steps.push(BatchStep::DramHit);
    }

    /// Records a plain NVM hit.
    #[inline]
    pub fn push_nvm_hit(&mut self) {
        self.steps.push(BatchStep::NvmHit);
    }

    /// Records a full outcome (fault, promotion, probed hit, …).
    #[inline]
    pub fn push_detailed(&mut self, outcome: AccessOutcome) {
        self.steps.push(BatchStep::Detailed);
        self.detailed.push(outcome);
    }

    /// Records `outcome` compactly when it is a plain hit, in full
    /// otherwise — what the default [`HybridPolicy::on_access_batch`]
    /// uses, so any policy's batch path is at worst the serial path.
    #[inline]
    pub fn push_outcome(&mut self, outcome: AccessOutcome) {
        if outcome.actions.is_empty() && !outcome.fault && outcome.probe.is_none() {
            match outcome.served_from {
                Some(MemoryKind::Dram) => return self.push_dram_hit(),
                Some(MemoryKind::Nvm) => return self.push_nvm_hit(),
                None => {}
            }
        }
        self.push_detailed(outcome);
    }

    /// Number of accesses recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The per-access step tape.
    #[must_use]
    pub fn steps(&self) -> &[BatchStep] {
        &self.steps
    }

    /// The detailed outcomes, in the order their [`BatchStep::Detailed`]
    /// entries appear in the tape.
    #[must_use]
    pub fn detailed(&self) -> &[AccessOutcome] {
        &self.detailed
    }

    /// Empties the buffer, retaining capacity for the next batch.
    pub fn clear(&mut self) {
        self.steps.clear();
        self.detailed.clear();
    }

    /// Reconstructs the full [`AccessOutcome`] sequence — the
    /// equivalence oracle batched≡serial tests compare against.
    #[must_use]
    #[expect(clippy::expect_used, reason = "one table entry per Detailed step")]
    pub fn expand(&self) -> Vec<AccessOutcome> {
        let mut detailed = self.detailed.iter();
        self.steps
            .iter()
            .map(|step| match step {
                BatchStep::DramHit => AccessOutcome::hit(MemoryKind::Dram),
                BatchStep::NvmHit => AccessOutcome::hit(MemoryKind::Nvm),
                BatchStep::Detailed => detailed
                    .next()
                    .cloned()
                    .expect("step tape and detailed table agree"),
            })
            .collect()
    }
}

/// A page-placement/migration policy for a (possibly hybrid) main memory.
///
/// Implementations: the paper's proposed two-LRU migration scheme
/// ([`TwoLruPolicy`](crate::TwoLruPolicy)), the CLOCK-DWF baseline
/// ([`ClockDwfPolicy`](crate::ClockDwfPolicy)), single-tier LRU baselines
/// ([`SingleTierPolicy`](crate::SingleTierPolicy)), and the
/// adaptive-threshold extension
/// ([`AdaptiveTwoLruPolicy`](crate::AdaptiveTwoLruPolicy)).
///
/// The trait is object-safe: experiment runners hold policies as
/// `Box<dyn HybridPolicy>`.
pub trait HybridPolicy {
    /// Handles one page-granular access, returning what happened.
    fn on_access(&mut self, access: PageAccess) -> AccessOutcome;

    /// Handles a batch of accesses, appending one outcome per access to
    /// `out` in order.
    ///
    /// The contract is strict equivalence: the recorded outcomes must be
    /// **identical** to calling [`HybridPolicy::on_access`] on each
    /// access in order — the serial path stays the determinism oracle,
    /// and `tests/policy_comparison.rs` compares full reports both ways.
    /// Overriding is purely a throughput lever: it amortizes the virtual
    /// dispatch to one call per batch and lets a policy keep its hot
    /// lookups in registers across accesses (see the two-LRU and
    /// single-tier overrides).
    fn on_access_batch(&mut self, batch: &[PageAccess], out: &mut BatchOutcomes) {
        for access in batch {
            let outcome = self.on_access(*access);
            out.push_outcome(outcome);
        }
    }

    /// Where `page` currently lives.
    fn residency(&self, page: PageId) -> Residency;

    /// Number of pages currently resident in `kind`.
    fn occupancy(&self, kind: MemoryKind) -> u64;

    /// Configured capacity of `kind` (zero for a module the policy does not
    /// use, e.g. NVM under the DRAM-only baseline).
    fn capacity(&self, kind: MemoryKind) -> PageCount;

    /// Short, stable display name (used in reports and figure legends).
    fn name(&self) -> &'static str;

    /// The concrete policy as `Any`, for observability code that wants to
    /// read policy-specific statistics off a `dyn HybridPolicy` (e.g. the
    /// two-LRU counter-window stats). Policies with nothing to expose keep
    /// the default `None`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evict(page: u64) -> PolicyAction {
        PolicyAction::EvictToDisk {
            page: PageId::new(page),
            from: MemoryKind::Nvm,
        }
    }

    #[test]
    fn action_list_preserves_insertion_order() {
        let mut list = ActionList::new();
        assert!(list.is_empty());
        for page in 1..=4u64 {
            list.push(evict(page));
        }
        assert_eq!(list.len(), 4);
        let pages: Vec<u64> = list
            .iter()
            .map(|a| match a {
                PolicyAction::EvictToDisk { page, .. } => page.value(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(pages, vec![1, 2, 3, 4]);
        // Iteration by reference (the simulator's loop shape) sees the
        // same order.
        let mut seen = Vec::new();
        for action in &list {
            seen.push(*action);
        }
        assert_eq!(list, seen);
    }

    #[test]
    #[should_panic(expected = "ActionList overflow")]
    fn action_list_panics_on_overflow() {
        let mut list = ActionList::new();
        for page in 0..=MAX_ACTIONS_PER_ACCESS as u64 {
            list.push(evict(page));
        }
    }

    #[test]
    fn action_list_compares_against_vecs_and_arrays() {
        let list: ActionList = vec![evict(1), evict(2)].into();
        assert_eq!(list, vec![evict(1), evict(2)]);
        assert_eq!(vec![evict(1), evict(2)], list);
        assert_eq!(list, [evict(1), evict(2)]);
        assert_ne!(list, ActionList::new());
        assert_eq!(format!("{list:?}"), format!("{:?}", [evict(1), evict(2)]));
    }

    #[test]
    fn outcome_constructors() {
        let h = AccessOutcome::hit(MemoryKind::Nvm);
        assert_eq!(h.served_from, Some(MemoryKind::Nvm));
        assert!(h.actions.is_empty());

        let m = AccessOutcome::hit_with(
            MemoryKind::Nvm,
            vec![PolicyAction::Migrate {
                page: PageId::new(1),
                from: MemoryKind::Nvm,
                to: MemoryKind::Dram,
            }],
        );
        assert_eq!(m.migrations(), 1);
        assert!(!m.fault);

        let f = AccessOutcome::fault_with(vec![PolicyAction::FillFromDisk {
            page: PageId::new(2),
            into: MemoryKind::Dram,
        }]);
        assert!(f.fault);
        assert_eq!(f.served_from, None);
        assert_eq!(f.migrations(), 0);
    }

    #[test]
    fn counter_kind_json_matches_its_name() {
        for kind in [CounterKind::Read, CounterKind::Write] {
            assert_eq!(
                hybridmem_json::to_string(&kind),
                format!("\"{}\"", kind.name())
            );
        }
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_boxed(_p: Box<dyn HybridPolicy>) {}
    }
}
