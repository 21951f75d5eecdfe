//! The synthetic trace generator: turns a [`WorkloadSpec`] into a
//! deterministic stream of memory accesses.
//!
//! # Model
//!
//! Each access is drawn in three steps:
//!
//! 1. **Page selection.** With probability `reuse_probability` the page is
//!    drawn from a bounded recency buffer of recently touched pages, with
//!    rank `r` weighted ∝ `1/(r+1)^stack_theta` (an LRU-stack-distance
//!    model; the buffer keeps duplicates, so hot pages compound).
//!    Otherwise, with probability `sequential_probability`, a sequential
//!    page walk advances; else a uniform page is drawn. When the workload
//!    has [`PhaseParams`](crate::PhaseParams), each phase confines accesses
//!    to a rotating sub-footprint with the configured intensity.
//! 2. **Direction.** Every page has a deterministic write affinity
//!    (write-hot or cold, per `write_hot_fraction` / `write_hot_multiplier`);
//!    a global deficit controller rescales the per-page write probability so
//!    the whole trace converges to the spec's exact read/write counts.
//! 3. **Byte address.** A uniformly chosen 8-byte-aligned offset inside the
//!    page, and a page-affine core id.
//!
//! The generator is an [`Iterator`]; it is fully deterministic given
//! `(spec, seed)`, which makes every figure in the repository
//! bit-reproducible.
//!
//! # Cost
//!
//! Each access computes only what depends on that access. Everything else
//! is computed once, and each shortcut returns the bits the direct
//! computation returns:
//!
//! * **Per spec**, in [`TraceGenerator::new`]: the hot band
//!   `⌈wss · 0.06⌉`; the four pre-correction write probabilities `p_cold`,
//!   `p_hot = min(m · p_cold, 1)` and each times `cold_write_damping`
//!   (the same products of the same operands, so the same bits); the
//!   fresh-rank factor `wss · popularity_span`, which is the left operand
//!   of the product `wss · span · u^skew` as it associates; and the phase
//!   span and region.
//! * **Per phase**: the phase index advances when the access count reaches
//!   the next phase boundary, instead of dividing on every access, and the
//!   phase base is hashed once. The remap `base + page mod span` needs no
//!   outer `mod wss`: `base ≤ region − span`, so the sum stays below
//!   `region ≤ wss` (asserted in debug builds).
//! * **Per page**: popularity band, write affinity and core are pure
//!   functions of `(spec, seed, page)`. A direct-mapped memo of
//!   `min(wss.next_power_of_two(), 2^17)` slots caches them. Each slot
//!   stores its page, and a slot that holds another page is recomputed and
//!   overwritten, so the memo changes what an access costs, never what it
//!   returns. Every Table III working set fits without a collision, even
//!   at full scale, and a larger spec's memo stays at 2 MiB. Inverting the
//!   popularity permutation needs `(page − perm_b) mod wss`; with both
//!   operands below `wss` that is one conditional subtraction.
//! * **Reuse rank**: a guide table of four buckets per rank-CDF entry
//!   replaces the binary search. Entry `b` counts the CDF entries whose
//!   bucket lies below `b`. Bucketing is monotone, so those entries all
//!   lie below any `u` in bucket `b`, and a short walk from there finds
//!   the exact index. Ties resolve to the last CDF entry equal to `u`,
//!   which is what std's `binary_search_by` returns as of rustc 1.95.
//!   std leaves that choice unspecified, so the rule is written out here
//!   and tested against std.
//! * **Per access**: every `next_u64` draw, in order (a draw costs about
//!   6 ns, and an access makes 4.05–6.33 of them at the 1M cap, about
//!   two for the rejection-sampled word offset), `powf` on the fresh path
//!   (glibc's `pow`, reproduced bit for bit), `next_kind`'s three
//!   divisions, which round the write decision, and the recency push.
//!
//! # Examples
//!
//! ```
//! use hybridmem_trace::{parsec, TraceGenerator};
//!
//! let spec = parsec::spec("bodytrack")?.capped(10_000);
//! let accesses: Vec<_> = TraceGenerator::new(spec.clone(), 42).collect();
//! assert_eq!(accesses.len() as u64, spec.total_accesses());
//! # Ok::<(), hybridmem_types::Error>(())
//! ```

use std::collections::VecDeque;

use hybridmem_types::{
    Access, AccessKind, Address, CoreId, PageId, StdRng, ACCESS_GRANULARITY, PAGE_SIZE,
};

use crate::WorkloadSpec;

/// Upper bound on the recency-buffer depth, bounding per-access cost and
/// memory regardless of the working-set size.
const DEPTH_CAP: usize = 8192;

/// Guide-table buckets per rank-CDF entry: the walk after the table
/// lookup averages a quarter of an entry.
const GUIDE_BUCKETS_PER_RANK: usize = 4;

/// Upper bound on the per-page memo's slots (2 MiB at 16 bytes a slot);
/// every Table III working set, dedup's 128,115 pages included, fits.
const MEMO_SLOTS_MAX: u64 = 1 << 17;

/// The share of the working set (by popularity rank) treated as *hot* for
/// write placement — slightly under the 7.5 % of pages a
/// 75 %-memory/10 %-DRAM configuration keeps in DRAM.
const HOT_BAND: f64 = 0.06;

/// Greatest common divisor (Euclid), for choosing a permutation multiplier
/// coprime with the working-set size.
const fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Modular inverse of `a` modulo `m` (extended Euclid); `a` must be coprime
/// with `m`. Used to invert the popularity permutation so any page can be
/// mapped back to its popularity rank.
fn mod_inverse(a: u64, m: u64) -> u64 {
    debug_assert_eq!(gcd(a, m), 1, "a must be coprime with m");
    if m == 1 {
        return 0;
    }
    let (mut old_r, mut r) = (i128::from(a), i128::from(m));
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    let m = i128::from(m);
    (((old_s % m) + m) % m) as u64
}

/// Splitmix64 — a cheap, high-quality page hash used for deterministic
/// per-page attributes (write affinity, core affinity, phase bases).
const fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The guide-table bucket of a CDF value: monotone non-decreasing in `x`,
/// which is all the exact walk relies on.
fn guide_bucket(x: f64, scale: f64, buckets: usize) -> usize {
    let bucket = (x * scale) as usize;
    bucket.min(buckets - 1)
}

/// Classification of one access by how "recently active" its page is —
/// drives the cold-write damping (see
/// [`LocalityParams::cold_write_damping`](crate::LocalityParams)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessDepth {
    /// Shallow reuse / top popularity / active phase: likely DRAM-resident.
    Hot,
    /// Sequential sweep, deep-stack reuse, or cold popularity draw.
    Deep,
}

/// The attributes of one page, as the memo stores them (16 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageAttrs {
    /// The page these attributes belong to; `u64::MAX` marks an empty
    /// memo slot, since every page id is below the working-set size.
    page: u64,
    core: CoreId,
    depth: AccessDepth,
    write_hot: bool,
}

// The memo's 2 MiB bound assumes this size.
const _: () = assert!(std::mem::size_of::<PageAttrs>() == 16);

impl PageAttrs {
    const EMPTY: Self = Self {
        page: u64::MAX,
        core: CoreId::new(0),
        depth: AccessDepth::Deep,
        write_hot: false,
    };
}

/// The popularity permutation and the per-page attributes that follow
/// from it: everything about a page that depends only on `(spec, seed)`.
#[derive(Debug, Clone)]
struct PageModel {
    wss: u64,
    seed: u64,
    /// Affine popularity permutation `page = (rank·a + b) mod wss`, with
    /// `gcd(a, wss) = 1` so it is a bijection: popularity ranks scatter over
    /// the page-id space instead of clustering at low addresses.
    perm_a: u64,
    /// Below `wss` (or 0 for an empty working set).
    perm_b: u64,
    /// `perm_a⁻¹ mod wss`, for mapping a page back to its popularity rank.
    perm_a_inv: u64,
    /// Ranks below this are in the hot band: `⌈wss · HOT_BAND⌉`.
    hot_band: u64,
    write_hot_fraction: f64,
    cores: u16,
}

impl PageModel {
    fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        let wss = spec.working_set.value();
        // Pick an odd multiplier coprime with the working set. The walk
        // visits ascending odd values and wraps to 1 (always coprime), so
        // it provably terminates — a naive `(a+2) mod wss | 1` can cycle
        // without ever reaching a coprime value (e.g. wss = 3 sticks at 3).
        let mut perm_a = (hash64(seed.wrapping_add(0xa11ce)) % wss.max(1)) | 1;
        while gcd(perm_a, wss.max(1)) != 1 {
            perm_a = if perm_a + 2 <= wss { perm_a + 2 } else { 1 };
        }
        let hot_band = (wss as f64 * HOT_BAND).ceil() as u64;
        Self {
            wss,
            seed,
            perm_a,
            perm_b: hash64(seed.wrapping_add(0xb0b)) % wss.max(1),
            perm_a_inv: mod_inverse(perm_a, wss.max(1)),
            hot_band,
            write_hot_fraction: spec.locality.write_hot_fraction,
            cores: spec.cores,
        }
    }

    /// The page at popularity rank `rank` (below `wss`).
    fn page_of_rank(&self, rank: u64) -> PageId {
        PageId::new((rank.wrapping_mul(self.perm_a) + self.perm_b) % self.wss)
    }

    /// Maps a page back to its popularity rank via the inverse permutation.
    fn popularity_rank(&self, page: PageId) -> u64 {
        // `(page + wss − perm_b) mod wss` with both operands below `wss`.
        let page = page.value();
        let shifted = if page >= self.perm_b {
            page - self.perm_b
        } else {
            page + (self.wss - self.perm_b)
        };
        shifted.wrapping_mul(self.perm_a_inv) % self.wss
    }

    /// Page-based hot/deep classification: a page is *hot* when its
    /// popularity rank falls in the DRAM-sized top band. Unlike a
    /// draw-mechanism classification, this holds regardless of whether the
    /// page arrived via reuse, sweep, or fresh draw — repeat touches of a
    /// mid-band (NVM-resident) page stay damped.
    fn depth_of(&self, page: PageId) -> AccessDepth {
        if self.popularity_rank(page) < self.hot_band {
            AccessDepth::Hot
        } else {
            AccessDepth::Deep
        }
    }

    /// Deterministic write-hot attribute of a page.
    fn is_write_hot(&self, page: PageId) -> bool {
        let f = self.write_hot_fraction;
        if f <= 0.0 {
            return false;
        }
        let u = hash64(page.value() ^ self.seed) as f64 / u64::MAX as f64;
        u < f
    }

    /// Page-affine core assignment.
    fn core_of(&self, page: PageId) -> CoreId {
        CoreId::new((hash64(page.value() ^ 0xc0de) % u64::from(self.cores)) as u16)
    }

    /// All attributes of `page`, computed directly.
    fn attrs(&self, page: PageId) -> PageAttrs {
        PageAttrs {
            page: page.value(),
            core: self.core_of(page),
            depth: self.depth_of(page),
            write_hot: self.is_write_hot(page),
        }
    }
}

/// Phase confinement: the spec's phase constants plus the base of the
/// phase the generator is in.
#[derive(Debug, Clone, Copy)]
struct PhaseState {
    length: u64,
    intensity: f64,
    /// Pages in one phase's window: `max(⌈wss · footprint_fraction⌉, 1)`.
    span: u64,
    /// Possible window bases: `region − span + 1`.
    bases: u64,
    /// The first access index past the phase whose `base` is cached; 0
    /// before the first confined access.
    end: u64,
    base: u64,
}

/// Deterministic trace generator. See the module docs (in the source) for the model.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    spec: WorkloadSpec,
    rng: StdRng,
    /// Recency buffer (MRU at the back), bounded by `depth`; duplicates
    /// intentional.
    recency: VecDeque<PageId>,
    depth: usize,
    /// Cumulative Zipf weights over ranks `0..depth`.
    rank_cdf: Vec<f64>,
    /// Guide table over `rank_cdf`: entry `b` counts the CDF entries whose
    /// guide bucket is below `b`.
    rank_guide: Vec<u32>,
    /// Bucket scale of `rank_guide`: buckets per unit of CDF mass.
    guide_scale: f64,
    seq_cursor: u64,
    emitted: u64,
    emitted_writes: u64,
    /// Running sum/count of pre-correction per-page write probabilities —
    /// normalizes the write-budget controller (see `next_kind`).
    write_prob_sum: f64,
    write_prob_count: u64,
    /// Pre-correction write probabilities `[hot band, deep]` of write-cold
    /// and of write-hot pages.
    p_write_cold: [f64; 2],
    p_write_hot: [f64; 2],
    /// `wss · popularity_span`, the fresh-rank product's left factor.
    fresh_scale: f64,
    phase: Option<PhaseState>,
    page_model: PageModel,
    /// Direct-mapped per-page attribute memo, indexed by the page id's low
    /// bits (`memo_mask`).
    memo: Vec<PageAttrs>,
    memo_mask: u64,
}

impl TraceGenerator {
    /// Creates a generator for `spec`, deterministic in `seed`.
    #[must_use]
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        let wss = spec.working_set.value();
        let loc = spec.locality;
        let depth = ((wss as f64 * loc.stack_depth_fraction).ceil() as usize).clamp(1, DEPTH_CAP);
        let mut rank_cdf = Vec::with_capacity(depth);
        let mut acc = 0.0;
        for r in 0..depth {
            let w = 1.0 / ((r + 1) as f64).powf(loc.stack_theta);
            acc += w;
            rank_cdf.push(acc);
        }
        let buckets = depth * GUIDE_BUCKETS_PER_RANK;
        let guide_scale = buckets as f64 / acc;
        let mut below = 0;
        let rank_guide = (0..buckets)
            .map(|bucket| {
                while rank_cdf
                    .get(below)
                    .is_some_and(|&w| guide_bucket(w, guide_scale, buckets) < bucket)
                {
                    below += 1;
                }
                below as u32 // at most DEPTH_CAP
            })
            .collect();

        let f = loc.write_hot_fraction;
        let m = loc.write_hot_multiplier;
        // Per-page probability with mean `write_ratio` under uniform page
        // visits (the controller in `next_kind` renormalizes against the
        // realized access mix anyway).
        let p_cold = spec.write_ratio() / (1.0 - f + m * f);
        let p_hot = (m * p_cold).min(1.0);
        let damping = loc.cold_write_damping;

        let fresh_scale = wss as f64 * loc.popularity_span;
        let phase = loc.phase.map(|phase| {
            let span = ((wss as f64 * phase.footprint_fraction).ceil() as u64).max(1);
            // Keep the phase region inside the popularity span: those
            // pages are memory-resident in steady state, so phase
            // rotation re-focuses traffic without page faults.
            let region = (fresh_scale as u64).max(span);
            PhaseState {
                length: phase.length,
                intensity: phase.intensity,
                span,
                bases: region - span + 1,
                end: 0,
                base: 0,
            }
        });

        let memo_slots = wss.min(MEMO_SLOTS_MAX).next_power_of_two();
        let memo = vec![PageAttrs::EMPTY; memo_slots as usize];
        Self {
            page_model: PageModel::new(&spec, seed),
            spec,
            rng: StdRng::seed_from_u64(seed ^ 0x68_79_62_72_69_64_6d_65), // "hybridme"
            recency: VecDeque::with_capacity(depth + 1),
            depth,
            rank_cdf,
            rank_guide,
            guide_scale,
            seq_cursor: 0,
            emitted: 0,
            emitted_writes: 0,
            write_prob_sum: 0.0,
            write_prob_count: 0,
            p_write_cold: [p_cold, p_cold * damping],
            p_write_hot: [p_hot, p_hot * damping],
            fresh_scale,
            phase,
            memo,
            memo_mask: memo_slots - 1,
        }
    }

    /// The specification being generated.
    #[must_use]
    pub const fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Number of accesses already produced.
    #[must_use]
    pub const fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The attributes of `page`, through the memo.
    fn attrs(&mut self, page: PageId) -> PageAttrs {
        #[expect(clippy::indexing_slicing, reason = "memo.len() is memo_mask + 1")]
        let slot = &mut self.memo[(page.value() & self.memo_mask) as usize];
        if slot.page != page.value() {
            *slot = self.page_model.attrs(page);
        }
        *slot
    }

    /// The reuse rank `binary_search_by(|w| w.total_cmp(&u))` over
    /// `rank_cdf[..limit]` gives, clamped to `limit − 1`: the last entry
    /// equal to `u` if there is one, else the first entry above `u`.
    fn reuse_rank(&self, u: f64, limit: usize) -> usize {
        let cdf = self.rank_cdf.get(..limit).unwrap_or_default();
        let bucket = guide_bucket(u, self.guide_scale, self.rank_guide.len());
        // Every entry the guide counts is below `u`; walk the rest.
        let mut at_most = self.rank_guide.get(bucket).map_or(0, |&n| n as usize);
        while cdf.get(at_most).is_some_and(|&w| w <= u) {
            at_most += 1;
        }
        match at_most.checked_sub(1) {
            Some(last) if cdf.get(last) == Some(&u) => last,
            _ => at_most.min(limit - 1),
        }
    }

    /// Draws the page for the next access, with the page's attributes; the
    /// depth class marks it *hot* (likely DRAM-resident: shallow reuse, top
    /// popularity) or *deep* (sequential sweep, deep stack reuse, cold
    /// popularity).
    fn next_page(&mut self) -> (PageId, PageAttrs) {
        let wss = self.page_model.wss;
        let loc = &self.spec.locality;

        // Initialization sweep: programs touch their data structures while
        // setting up, so the first `wss` accesses walk the whole footprint
        // once. Compulsory page faults thereby land in the warmup window
        // rather than being smeared over the measured steady state.
        if self.emitted < wss && wss > 1 {
            let page = PageId::new(self.emitted);
            let attrs = self.attrs(page);
            if attrs.depth == AccessDepth::Hot {
                self.push_recency(page);
            }
            return (page, attrs);
        }

        #[expect(
            clippy::indexing_slicing,
            reason = "recency is non-empty, limit <= depth = rank_cdf.len() and rank < limit"
        )]
        let mut page = if !self.recency.is_empty() && self.rng.next_f64() < loc.reuse_probability {
            // Reuse: rank-weighted draw from the recency buffer.
            let limit = self.recency.len().min(self.depth);
            let total = self.rank_cdf[limit - 1];
            let u = self.rng.next_f64() * total;
            let rank = self.reuse_rank(u, limit);
            self.recency[self.recency.len() - 1 - rank]
        } else if self.rng.next_f64() < loc.sequential_probability {
            // Sequential walk.
            self.seq_cursor = (self.seq_cursor + 1) % wss;
            PageId::new(self.seq_cursor)
        } else {
            // Popularity-skewed fresh page: rank ∝ u^skew within the span,
            // scattered over the id space by the affine permutation.
            let u = self.rng.next_f64();
            let rank = ((self.fresh_scale * u.powf(loc.popularity_skew)) as u64).min(wss - 1);
            self.page_model.page_of_rank(rank)
        };

        // Phase confinement: remap the page into the active sub-footprint.
        if let Some(phase) = &mut self.phase {
            if self.rng.next_f64() < phase.intensity {
                if self.emitted >= phase.end {
                    let index = self.emitted / phase.length;
                    phase.end = (index + 1).saturating_mul(phase.length);
                    phase.base = hash64(index ^ self.page_model.seed.rotate_left(17)) % phase.bases;
                }
                let offset = page.value() % phase.span;
                debug_assert!(
                    phase.base + offset < wss,
                    "phase windows stay inside the working set"
                );
                page = PageId::new(phase.base + offset);
            }
        }

        // Classification is purely popularity-rank based — phase pages keep
        // their band's write behaviour, so phase-heavy workloads still damp
        // (or boost) writes according to their profile.
        let attrs = self.attrs(page);
        // Only hot pages enter the recency buffer: deep pages are touched
        // diffusely and not re-touched soon (the low temporal correlation
        // that keeps threshold-gated promotions rare, as in the paper's
        // near-zero proposed-scheme migration rates).
        if attrs.depth == AccessDepth::Hot {
            self.push_recency(page);
        }
        (page, attrs)
    }

    /// Appends a page to the bounded recency buffer.
    fn push_recency(&mut self, page: PageId) {
        self.recency.push_back(page);
        if self.recency.len() > self.depth {
            self.recency.pop_front();
        }
    }

    /// Decides read vs write for a page with attributes `attrs`, honouring
    /// per-page affinity, the hot/deep damping, and the global read/write
    /// budget.
    fn next_kind(&mut self, attrs: PageAttrs) -> AccessKind {
        let remaining = self.spec.total_accesses() - self.emitted;
        let remaining_writes = self.spec.writes - self.emitted_writes;
        if remaining_writes == 0 {
            return AccessKind::Read;
        }
        if remaining_writes == remaining {
            return AccessKind::Write;
        }

        let [hot, deep] = if attrs.write_hot {
            self.p_write_hot
        } else {
            self.p_write_cold
        };
        let p_page = match attrs.depth {
            AccessDepth::Hot => hot,
            AccessDepth::Deep => deep,
        };
        // Deficit controller with online normalization: divide by the
        // running mean of pre-correction probabilities so the *rate* of
        // write emission tracks the remaining budget regardless of how the
        // damping/boost skews the raw values (otherwise a boosted profile
        // exhausts its write budget during warmup and the measured steady
        // state is write-starved).
        self.write_prob_sum += p_page;
        self.write_prob_count += 1;
        let mean_p = (self.write_prob_sum / self.write_prob_count as f64).max(1e-12);
        let remaining_ratio = remaining_writes as f64 / remaining as f64;
        let p = (p_page * remaining_ratio / mean_p).clamp(0.0, 1.0);
        if self.rng.next_f64() < p {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    /// Byte address: page base plus a uniform 8-byte-aligned offset.
    fn address_in(&mut self, page: PageId) -> Address {
        let words = (PAGE_SIZE / ACCESS_GRANULARITY) as u64;
        let offset = self.rng.gen_range(0..words) * ACCESS_GRANULARITY as u64;
        page.base_address().offset(offset)
    }
}

impl Iterator for TraceGenerator {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.emitted >= self.spec.total_accesses() {
            return None;
        }
        let (page, attrs) = self.next_page();
        let kind = self.next_kind(attrs);
        let address = self.address_in(page);
        self.emitted += 1;
        if kind.is_write() {
            self.emitted_writes += 1;
        }
        Some(Access::new(address, kind, attrs.core))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.spec.total_accesses() - self.emitted) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for TraceGenerator {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalityParams;
    use std::collections::BTreeSet;

    fn spec(wss: u64, reads: u64, writes: u64) -> WorkloadSpec {
        WorkloadSpec::new("test", wss, reads, writes, LocalityParams::balanced()).unwrap()
    }

    #[test]
    fn emits_exactly_the_requested_volume_and_mix() {
        let gen = TraceGenerator::new(spec(100, 8_000, 2_000), 1);
        let (mut reads, mut writes) = (0u64, 0u64);
        for a in gen {
            match a.kind {
                AccessKind::Read => reads += 1,
                AccessKind::Write => writes += 1,
            }
        }
        assert_eq!(reads, 8_000, "deficit controller hits the exact budget");
        assert_eq!(writes, 2_000);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a: Vec<_> = TraceGenerator::new(spec(64, 1_000, 500), 7).collect();
        let b: Vec<_> = TraceGenerator::new(spec(64, 1_000, 500), 7).collect();
        assert_eq!(a, b);
        let c: Vec<_> = TraceGenerator::new(spec(64, 1_000, 500), 8).collect();
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn pages_stay_within_working_set() {
        let s = spec(37, 5_000, 1_000);
        for a in TraceGenerator::new(s, 3) {
            assert!(a.page().value() < 37, "page {} outside wss", a.page());
        }
    }

    #[test]
    fn addresses_are_access_aligned() {
        for a in TraceGenerator::new(spec(16, 500, 100), 4) {
            assert_eq!(a.address.value() % ACCESS_GRANULARITY as u64, 0);
        }
    }

    #[test]
    fn cores_are_in_range_and_page_affine() {
        let s = spec(64, 2_000, 0);
        let mut page_core = std::collections::BTreeMap::new();
        for a in TraceGenerator::new(s, 5) {
            assert!(a.core.index() < 4);
            let prev = page_core.insert(a.page(), a.core);
            if let Some(prev) = prev {
                assert_eq!(prev, a.core, "core affinity is per-page stable");
            }
        }
    }

    #[test]
    fn read_only_spec_emits_no_writes() {
        let s = WorkloadSpec::new(
            "ro",
            32,
            1_000,
            0,
            LocalityParams {
                write_hot_fraction: 0.0,
                write_hot_multiplier: 1.0,
                ..LocalityParams::balanced()
            },
        )
        .unwrap();
        assert!(TraceGenerator::new(s, 2).all(|a| a.kind.is_read()));
    }

    #[test]
    fn reuse_concentrates_accesses() {
        // High reuse over the recency buffer concentrates traffic; with a
        // uniform (skew 1) popularity both specs differ only in reuse.
        let hot = WorkloadSpec::new(
            "hot",
            1_000,
            20_000,
            0,
            LocalityParams {
                reuse_probability: 0.95,
                stack_theta: 1.5,
                popularity_skew: 1.0,
                write_hot_fraction: 0.0,
                write_hot_multiplier: 1.0,
                ..LocalityParams::balanced()
            },
        )
        .unwrap();
        let cold = WorkloadSpec::new(
            "cold",
            1_000,
            20_000,
            0,
            LocalityParams {
                reuse_probability: 0.0,
                sequential_probability: 0.0,
                popularity_skew: 1.0,
                write_hot_fraction: 0.0,
                write_hot_multiplier: 1.0,
                ..LocalityParams::balanced()
            },
        )
        .unwrap();
        // Concentration metric: share of accesses landing on the hottest
        // 10% of pages (by access count).
        let concentration = |s: WorkloadSpec| {
            let mut counts = std::collections::BTreeMap::new();
            let mut total = 0u64;
            for a in TraceGenerator::new(s, 9) {
                *counts.entry(a.page()).or_insert(0u64) += 1;
                total += 1;
            }
            let mut sorted: Vec<u64> = counts.values().copied().collect();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let top = sorted.len().div_ceil(10);
            sorted[..top].iter().sum::<u64>() as f64 / total as f64
        };
        let hot_share = concentration(hot);
        let cold_share = concentration(cold);
        assert!(
            hot_share > 1.5 * cold_share,
            "hot {hot_share:.3} vs cold {cold_share:.3}"
        );
    }

    #[test]
    fn phases_restrict_footprint_locally() {
        use crate::PhaseParams;
        let s = WorkloadSpec::new(
            "bursty",
            1_000,
            10_000,
            0,
            LocalityParams {
                reuse_probability: 0.0,
                sequential_probability: 0.0,
                write_hot_fraction: 0.0,
                write_hot_multiplier: 1.0,
                phase: Some(PhaseParams {
                    length: 5_000,
                    footprint_fraction: 0.02,
                    intensity: 1.0,
                }),
                ..LocalityParams::balanced()
            },
        )
        .unwrap();
        let pages: Vec<PageId> = TraceGenerator::new(s, 11).map(|a| a.page()).collect();
        // Skip the initialization sweep (first `wss` accesses walk the whole
        // footprint); the remainder of phase 0 must stay inside the phase
        // region. Intensity 1.0 with 2% footprint: ≤ 20 pages.
        let phase0: BTreeSet<_> = pages[1_000..5_000].iter().collect();
        let phase1: BTreeSet<_> = pages[5_000..].iter().collect();
        assert!(
            phase0.len() <= 20,
            "phase footprint too wide: {}",
            phase0.len()
        );
        assert!(
            phase1.len() <= 20,
            "phase footprint too wide: {}",
            phase1.len()
        );
    }

    #[test]
    fn tiny_working_sets_terminate_for_all_seeds() {
        // Regression: the permutation-multiplier search used to loop
        // forever for some (wss, seed) pairs (wss = 3 with an unlucky
        // hash). Exhaust small working sets over many seeds.
        for wss in 1..=16u64 {
            for seed in 0..64u64 {
                let spec =
                    WorkloadSpec::new("tiny", wss, 20, 5, LocalityParams::balanced()).unwrap();
                let count = TraceGenerator::new(spec, seed).count();
                assert_eq!(count, 25, "wss={wss} seed={seed}");
            }
        }
    }

    #[test]
    fn size_hint_is_exact() {
        let mut gen = TraceGenerator::new(spec(8, 90, 10), 1);
        assert_eq!(gen.len(), 100);
        gen.next();
        assert_eq!(gen.len(), 99);
        assert_eq!(gen.emitted(), 1);
    }

    #[test]
    fn write_hot_pages_receive_disproportionate_writes() {
        let s = WorkloadSpec::new(
            "skewed",
            200,
            40_000,
            10_000,
            LocalityParams {
                write_hot_fraction: 0.1,
                write_hot_multiplier: 8.0,
                ..LocalityParams::balanced()
            },
        )
        .unwrap();
        let gen = TraceGenerator::new(s, 21);
        let hot_check = gen.clone();
        let mut hot_writes = 0u64;
        let mut cold_writes = 0u64;
        let mut hot_total = 0u64;
        let mut cold_total = 0u64;
        for a in gen {
            let hot = hot_check.page_model.is_write_hot(a.page());
            if hot {
                hot_total += 1;
                hot_writes += u64::from(a.kind.is_write());
            } else {
                cold_total += 1;
                cold_writes += u64::from(a.kind.is_write());
            }
        }
        let hot_rate = hot_writes as f64 / hot_total.max(1) as f64;
        let cold_rate = cold_writes as f64 / cold_total.max(1) as f64;
        assert!(
            hot_rate > 2.0 * cold_rate,
            "hot {hot_rate:.3} vs cold {cold_rate:.3}"
        );
    }

    /// The rank `binary_search_by` gives over `rank_cdf[..limit]`, clamped
    /// as the reuse path clamps it: what the guide walk must return.
    fn std_rank(cdf: &[f64], u: f64, limit: usize) -> usize {
        match cdf[..limit].binary_search_by(|w| w.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(limit - 1),
        }
    }

    /// Checks the guide walk against std at `u` = 0, every CDF entry and
    /// its two neighbours, and random values, for `limit` from 1 through
    /// warmup sizes up to the full depth.
    fn assert_guide_matches_std(gen: &TraceGenerator, label: &str) {
        let cdf = &gen.rank_cdf;
        let depth = gen.depth;
        let total = cdf[depth - 1];
        let mut us = vec![0.0];
        for &w in cdf {
            us.extend([w, w.next_up(), w.next_down()]);
        }
        let mut rng = StdRng::seed_from_u64(depth as u64);
        us.extend((0..1_000).map(|_| rng.next_f64() * total));
        // Plateaus repeat one value thousands of times; check it once.
        us.sort_by(f64::total_cmp);
        us.dedup();
        let mut limits = vec![1, 2, 3, 5, 17, 100, depth / 2, depth - 1, depth];
        limits.retain(|&limit| (1..=depth).contains(&limit));
        limits.dedup();
        for limit in limits {
            for &u in &us {
                assert_eq!(
                    gen.reuse_rank(u, limit),
                    std_rank(cdf, u, limit),
                    "{label}: u {u:e}, limit {limit} of depth {depth}"
                );
            }
        }
    }

    #[test]
    fn guide_walk_matches_std_binary_search_on_every_profile() {
        for name in crate::parsec::NAMES {
            let full = crate::parsec::spec(name).unwrap();
            for (scale, spec) in [("1M cap", full.capped(1_000_000)), ("full", full)] {
                let gen = TraceGenerator::new(spec, 42);
                assert_guide_matches_std(&gen, &format!("{name} at {scale}"));
            }
        }
    }

    #[test]
    fn guide_walk_matches_std_binary_search_on_synthetic_cdfs() {
        // At theta 8 the weights vanish below the sum's ulp within a
        // hundred ranks, so most of the CDF is one plateau of equal
        // entries.
        for theta in [0.0, 0.7, 1.0, 1.5, 8.0] {
            for wss in [1, 40, 54_614] {
                let spec = WorkloadSpec::new(
                    "synthetic",
                    wss,
                    10,
                    0,
                    LocalityParams {
                        stack_theta: theta,
                        ..LocalityParams::balanced()
                    },
                )
                .unwrap();
                let gen = TraceGenerator::new(spec, 1);
                assert_guide_matches_std(&gen, &format!("theta {theta}, wss {wss}"));
            }
        }
    }

    /// A page's attributes computed without the memo or `PageModel`'s
    /// shortcuts: two `% wss` for the popularity rank, a fresh hot band.
    fn direct_attrs(gen: &TraceGenerator, page: u64) -> PageAttrs {
        let wss = gen.spec.working_set.value();
        let model = &gen.page_model;
        let rank = ((page + wss - model.perm_b % wss) % wss).wrapping_mul(model.perm_a_inv) % wss;
        let hot_band = (wss as f64 * 0.06).ceil() as u64;
        let f = gen.spec.locality.write_hot_fraction;
        PageAttrs {
            page,
            core: CoreId::new((hash64(page ^ 0xc0de) % u64::from(gen.spec.cores)) as u16),
            depth: if rank < hot_band {
                AccessDepth::Hot
            } else {
                AccessDepth::Deep
            },
            write_hot: f > 0.0 && (hash64(page ^ model.seed) as f64 / u64::MAX as f64) < f,
        }
    }

    #[test]
    fn memo_matches_direct_page_attributes() {
        // wss above the 2^17-slot bound makes pages p and p + 2^17 share
        // a slot; the forward, backward and strided passes evict each
        // other's entries.
        let sizes = (1..=16).chain([37, 1_500, 12_345, 65_537, (1 << 17) + 4_099]);
        for wss in sizes {
            let mut spec = WorkloadSpec::new(
                "memo",
                wss,
                10,
                1,
                LocalityParams {
                    write_hot_fraction: 0.45,
                    ..LocalityParams::balanced()
                },
            )
            .unwrap();
            spec.cores = 3;
            for seed in [3, 42] {
                let mut gen = TraceGenerator::new(spec.clone(), seed);
                let slots = wss.next_power_of_two().min(1 << 17);
                assert_eq!(gen.memo.len() as u64, slots, "wss {wss}");
                let passes = (0..wss).chain((0..wss).rev()).chain((0..wss).step_by(7));
                for page in passes {
                    assert_eq!(
                        gen.attrs(PageId::new(page)),
                        direct_attrs(&gen, page),
                        "wss {wss}, seed {seed}, page {page}"
                    );
                }
            }
        }
    }
}
