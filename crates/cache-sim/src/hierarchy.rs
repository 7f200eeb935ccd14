//! The three-level cache hierarchy with XMem-coordinated cache management
//! and prefetching (use case 1, §5 of the paper).
//!
//! The hierarchy models the Table 3 configuration: L1 (LRU) → L2 (DRRIP) →
//! L3 (DRRIP + multi-stride prefetcher) → DRAM. Three operating modes map
//! to the paper's three evaluated systems:
//!
//! * [`XmemMode::Off`] — the **Baseline**: DRRIP everywhere, multi-stride
//!   prefetcher at L3.
//! * [`XmemMode::PrefetchOnly`] — **XMem-Pref**: DRRIP for cache
//!   management, prefetching driven by the expressed access pattern.
//! * [`XmemMode::Full`] — **XMem**: the greedy pinning algorithm keeps the
//!   high-reuse working set resident (insertion-priority + eviction
//!   protection, aged when the active-atom list changes) *and* misses to
//!   pinned atoms trigger pattern-directed prefetch.
//!
//! The machine is split the way Table 3 shares it: one core's
//! [`PrivateLevels`] (L1, L2, stride prefetcher) in front of the
//! [`SharedLevels`] (L3, DRAM, pinning, guided prefetch). A [`Hierarchy`]
//! is one of each; the co-run machine puts one private part per core in
//! front of a single shared part. Every walk below L1 — timed or
//! functional warming, single-core or co-run — is the one in this module.

use crate::cache::{Cache, CacheStats, InsertPriority};
use crate::config::CacheConfig;
use crate::pin::{select_pinned, PinCandidate};
use crate::prefetch::{MultiStridePrefetcher, PrefetchStats, StrideBurst};
use cpu_sim::batch::OpAttrs;
use dram_sim::{Dram, DramStats};
use std::collections::BTreeSet;
use xmem_core::addr::PhysAddr;
use xmem_core::amu::AtomManagementUnit;
use xmem_core::atom::AtomId;
use xmem_core::pat::Pat;
use xmem_core::translate::{CachePrimitive, PrefetcherPrimitive};

/// Which XMem mechanisms the hierarchy applies (§5.4's three systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum XmemMode {
    /// Baseline: no XMem; DRRIP + multi-stride prefetching.
    #[default]
    Off,
    /// XMem-guided prefetching only; DRRIP for cache management.
    PrefetchOnly,
    /// Pinning + XMem-guided prefetching.
    Full,
}

/// Hierarchy configuration.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// L3 slice.
    pub l3: CacheConfig,
    /// Enable the baseline multi-stride prefetcher at L3 (Table 3). It is
    /// automatically disabled when `xmem` is not `Off` (XMem prefetching
    /// replaces its policy, §5.2(4)).
    pub stride_prefetcher: bool,
    /// Concurrent streams in the stride prefetcher (16 in Table 3).
    pub stride_streams: usize,
    /// Prefetch degree (lines per trigger) for the stride prefetcher.
    pub prefetch_degree: usize,
    /// Prefetch degree for XMem-guided prefetch. Guided prefetch knows the
    /// atom's exact extents, so it can run further ahead without waste
    /// (§5.1: "prefetches the rest based on the expressed access pattern").
    pub xmem_prefetch_degree: usize,
    /// XMem operating mode.
    pub xmem: XmemMode,
}

impl HierarchyConfig {
    /// The Table 3 baseline configuration.
    pub fn westmere_like() -> Self {
        HierarchyConfig {
            l1: CacheConfig::l1_westmere(),
            l2: CacheConfig::l2_westmere(),
            l3: CacheConfig::l3_westmere(),
            stride_prefetcher: true,
            stride_streams: 16,
            prefetch_degree: 2,
            xmem_prefetch_degree: 4,
            xmem: XmemMode::Off,
        }
    }

    /// Same geometry with a different XMem mode.
    pub fn with_xmem(mut self, mode: XmemMode) -> Self {
        self.xmem = mode;
        self
    }

    /// Same configuration with a different L3 capacity (Fig 5 sweep).
    pub fn with_l3_size(mut self, bytes: u64) -> Self {
        self.l3 = self.l3.with_size(bytes);
        self
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::westmere_like()
    }
}

/// Borrowed XMem state the hierarchy consults during an access: the AMU (for
/// `ATOM_LOOKUP`) and the translated per-component primitives.
#[derive(Debug)]
pub struct XmemContext<'a> {
    /// The atom management unit (lookups go through its ALB).
    pub amu: &'a mut AtomManagementUnit,
    /// The cache's private attribute table.
    pub cache_pat: &'a Pat<CachePrimitive>,
    /// The prefetcher's private attribute table.
    pub pf_pat: &'a Pat<PrefetcherPrimitive>,
}

/// One core's private levels: L1, L2, and the stride prefetcher that
/// trains on the core's L3 accesses (its prefetches fill the shared L3).
#[derive(Debug)]
pub struct PrivateLevels {
    /// L1 data cache.
    pub l1: Cache,
    /// Private L2.
    pub l2: Cache,
    /// Baseline multi-stride prefetcher, when enabled.
    pub stride_pf: Option<MultiStridePrefetcher>,
    /// `!(l1.line_bytes - 1)`, precomputed for the per-access line align.
    line_mask: u64,
    /// Cumulative latencies to each private level (L1; L1+L2), hoisted out
    /// of the per-access path.
    l1_lat: u64,
    l2_lat: u64,
}

impl PrivateLevels {
    /// Empty private levels with the geometry and stride prefetcher of
    /// `config` (its L3 fields are not used here).
    pub fn new(config: &HierarchyConfig) -> Self {
        // The hardware stride prefetcher stays present in XMem modes: XMem
        // *supplements* dynamic mechanisms (§2.1) — guided prefetch takes
        // over only for data whose atom expresses a pattern; everything
        // else (unmapped streams) still benefits from the stride engine.
        let stride_pf = config
            .stride_prefetcher
            .then(|| MultiStridePrefetcher::new(config.stride_streams, config.prefetch_degree));
        PrivateLevels {
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            stride_pf,
            line_mask: !(config.l1.line_bytes - 1),
            l1_lat: config.l1.latency,
            l2_lat: config.l1.latency + config.l2.latency,
        }
    }

    /// One demand access through these private levels and `shared`,
    /// returning its latency in cycles.
    ///
    /// `TIMED = false` is the state-only functional-warming walk of
    /// [`Hierarchy::warm_access`]: the same probes, fills, replacement
    /// updates, pinning refresh, ALB lookups, prefetcher training, and
    /// prefetch fills, but no latency, no writeback traffic, and DRAM rows
    /// warmed instead of timed (its return value is meaningless).
    #[inline]
    pub fn serve<const TIMED: bool>(
        &mut self,
        shared: &mut SharedLevels,
        pa: u64,
        is_write: bool,
        now: u64,
        xmem: Option<XmemContext<'_>>,
    ) -> u64 {
        // The dominant outcome by far — keep it inlinable at call sites and
        // push everything below L1 out of line.
        if self.l1.probe(pa, is_write) {
            return self.l1_lat;
        }
        self.serve_l1_miss::<TIMED>(shared, pa, is_write, now, xmem)
    }

    /// The below-L1 continuation of [`PrivateLevels::serve`].
    fn serve_l1_miss<const TIMED: bool>(
        &mut self,
        shared: &mut SharedLevels,
        pa: u64,
        is_write: bool,
        now: u64,
        xmem: Option<XmemContext<'_>>,
    ) -> u64 {
        let line_addr = pa & self.line_mask;
        let PrivateLevels {
            l1, l2, stride_pf, ..
        } = self;
        if l2.probe(pa, false) {
            fill_l1::<TIMED>(l1, l2, shared, line_addr, is_write, now);
            return self.l2_lat;
        }
        let below =
            shared.serve::<TIMED>(pa, now + self.l2_lat, stride_pf.as_mut(), xmem, |shared| {
                if let Some(ev) = l2.fill(line_addr, false, InsertPriority::Normal) {
                    if TIMED && ev.dirty {
                        shared.write_back(ev.addr, now);
                    }
                }
                fill_l1::<TIMED>(l1, l2, shared, line_addr, is_write, now);
            });
        self.l2_lat + below
    }
}

/// Fills `line` into L1; a dirty victim lands in L2 if resident there,
/// else goes on below (timed walk only — the warm walk drops it).
fn fill_l1<const TIMED: bool>(
    l1: &mut Cache,
    l2: &mut Cache,
    shared: &mut SharedLevels,
    line: u64,
    is_write: bool,
    now: u64,
) {
    if let Some(ev) = l1.fill(line, is_write, InsertPriority::Normal) {
        if TIMED && ev.dirty && !l2.set_dirty(ev.addr) {
            shared.write_back(ev.addr, now);
        }
    }
}

/// Everything below the private levels, shared by every core: the L3, the
/// DRAM behind it, the pinned-atom set and its epoch refresh (§5.2(2) runs
/// over the active atoms of *all* cores), XMem-guided prefetch, and the
/// in-flight prefetch set.
#[derive(Debug)]
pub struct SharedLevels {
    mode: XmemMode,
    l3: Cache,
    dram: Dram,
    /// `!(l3.line_bytes - 1)`.
    line_mask: u64,
    l3_lat: u64,
    xmem_prefetch_degree: usize,
    /// Currently pinned atoms (output of the greedy algorithm).
    pinned: Vec<AtomId>,
    /// AMU epoch at the last pinning evaluation.
    last_epoch: u64,
    /// Lines prefetched but not yet demanded (bounded; for accuracy stats).
    inflight_prefetches: InflightSet,
    xmem_pf_stats: PrefetchStats,
}

/// Cap on the prefetch-tracking set (oldest entries are simply forgotten —
/// this only affects the accuracy statistic, not behaviour).
const PF_TRACK_CAP: usize = 1 << 16;

/// Slot count the in-flight table starts with (a power of two).
const INFLIGHT_MIN_SLOTS: usize = 1 << 10;

/// The set of lines prefetched into the L3 and not yet demanded. It is only
/// ever probed, inserted into and removed from — never iterated — so it is
/// an open-addressed table of line numbers (linear probing, Fibonacci
/// hashing, deletion by backward shift) with no per-insert allocation and
/// no hasher state. The table doubles when it would pass three-quarters
/// full, so its memory follows the tracked-line count as the ordered set's
/// did; at [`PF_TRACK_CAP`] lines it is at most half full. Like the ordered
/// set, an insert that finds `PF_TRACK_CAP` lines tracked forgets them all
/// first.
#[derive(Debug)]
struct InflightSet {
    /// `line number + 1` per slot; 0 marks an empty slot.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the Fibonacci-hash shift.
    hash_shift: u32,
    /// Lines whose number does not fit a slot (addresses at or beyond
    /// 2^32 lines); empty unless the physical address space is that large.
    far: BTreeSet<u64>,
    len: usize,
    line_shift: u32,
}

impl InflightSet {
    fn new(line_bytes: u64) -> Self {
        InflightSet {
            slots: vec![0; INFLIGHT_MIN_SLOTS],
            hash_shift: 64 - INFLIGHT_MIN_SLOTS.trailing_zeros(),
            far: BTreeSet::new(),
            len: 0,
            line_shift: line_bytes.trailing_zeros(),
        }
    }

    /// The slot key of `line`, or `None` when its number does not fit.
    #[inline]
    fn key(&self, line: u64) -> Option<u32> {
        u32::try_from((line >> self.line_shift) + 1).ok()
    }

    #[inline]
    fn home(&self, key: u32) -> usize {
        (u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.hash_shift) as usize
    }

    /// The slot holding `key`, or the empty slot ending its probe run.
    #[inline]
    fn find(&self, key: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i] != 0 && self.slots[i] != key {
            i = (i + 1) & mask;
        }
        i
    }

    /// Tracks `line`, first forgetting everything if [`PF_TRACK_CAP`]
    /// lines are already tracked.
    fn insert(&mut self, line: u64) {
        if self.len + self.far.len() >= PF_TRACK_CAP {
            self.slots.fill(0);
            self.far.clear();
            self.len = 0;
        }
        let Some(key) = self.key(line) else {
            self.far.insert(line);
            return;
        };
        let mut i = self.find(key);
        if self.slots[i] != 0 {
            return;
        }
        if 4 * (self.len + 1) > 3 * self.slots.len() {
            self.grow();
            i = self.find(key);
        }
        self.slots[i] = key;
        self.len += 1;
    }

    /// Doubles the table, re-placing every tracked line.
    fn grow(&mut self) {
        let doubled = vec![0; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.hash_shift -= 1;
        for key in old.into_iter().filter(|&k| k != 0) {
            let i = self.find(key);
            self.slots[i] = key;
        }
    }

    /// Stops tracking `line`; returns whether it was tracked.
    #[inline]
    fn remove(&mut self, line: u64) -> bool {
        let Some(key) = self.key(line) else {
            return self.far.remove(&line);
        };
        let mut hole = self.find(key);
        if self.slots[hole] == 0 {
            return false;
        }
        self.len -= 1;
        // Backward-shift deletion: pull later members of the probe run
        // into the hole unless their home lies cyclically in (hole, j].
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.slots[j];
            if k == 0 {
                break;
            }
            let home = self.home(k);
            let stays = if hole <= j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if !stays {
                self.slots[hole] = k;
                hole = j;
            }
        }
        self.slots[hole] = 0;
        true
    }
}

impl SharedLevels {
    /// An empty L3 with `config`'s geometry and XMem mode, in front of
    /// `dram`.
    pub fn new(config: &HierarchyConfig, dram: Dram) -> Self {
        SharedLevels {
            mode: config.xmem,
            l3: Cache::new(config.l3),
            dram,
            line_mask: !(config.l3.line_bytes - 1),
            l3_lat: config.l3.latency,
            xmem_prefetch_degree: config.xmem_prefetch_degree,
            pinned: Vec::new(),
            last_epoch: u64::MAX,
            inflight_prefetches: InflightSet::new(config.l3.line_bytes),
            xmem_pf_stats: PrefetchStats::default(),
        }
    }

    /// L3 statistics.
    pub fn l3_stats(&self) -> CacheStats {
        self.l3.stats()
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// A dirty line leaving the private levels: it lands in the L3 if
    /// resident, else is written to DRAM at `now`.
    pub fn write_back(&mut self, addr: u64, now: u64) {
        if !self.l3.set_dirty(addr) {
            let _ = self.dram.serve(addr, OpAttrs::write(), now);
        }
    }

    /// One demand access that missed a core's private levels and reaches
    /// the L3 at `now`. Returns its latency from there (L3, plus DRAM on a
    /// miss).
    ///
    /// `stride_pf` is the requesting core's prefetcher: it trains on every
    /// L3 access. `fill_private` refills the requester's private levels; it
    /// runs after the L3 has been served and before any prefetch is issued.
    /// `TIMED` is as in [`PrivateLevels::serve`].
    pub fn serve<const TIMED: bool>(
        &mut self,
        pa: u64,
        now: u64,
        mut stride_pf: Option<&mut MultiStridePrefetcher>,
        mut xmem: Option<XmemContext<'_>>,
        fill_private: impl FnOnce(&mut Self),
    ) -> u64 {
        // One ATOM_LOOKUP per L3 access — exactly the query rate the
        // paper's ALB absorbs.
        let atom = match xmem.as_mut() {
            Some(ctx) if self.mode != XmemMode::Off => {
                self.refresh_pinning(ctx);
                ctx.amu.active_atom_at(PhysAddr::new(pa))
            }
            _ => None,
        };
        let line_addr = pa & self.line_mask;
        let t_mem = now + self.l3_lat;
        let l3_hit = self.l3.probe(pa, false);
        let stride_burst = stride_pf
            .as_mut()
            .map(|pf| pf.train(pa))
            .unwrap_or_default();

        if l3_hit {
            if self.inflight_prefetches.remove(line_addr) {
                match stride_pf {
                    Some(pf) => pf.record_useful(),
                    None => self.xmem_pf_stats.useful += 1,
                }
            }
            fill_private(self);
            // The stride engine keeps running ahead on hits too.
            self.issue_stride_prefetches::<TIMED>(stride_burst, t_mem);
            return self.l3_lat;
        }

        // L3 miss: demand fetch from DRAM, then fill the hierarchy.
        let dram_lat = if TIMED {
            self.dram.serve(line_addr, OpAttrs::read(), t_mem)
        } else {
            self.dram.warm_access(line_addr);
            0
        };
        let priority = match atom {
            Some(a) if self.mode == XmemMode::Full && self.pinned.contains(&a) => {
                InsertPriority::Pinned
            }
            _ => InsertPriority::Normal,
        };
        self.fill_l3::<TIMED>(line_addr, priority, t_mem);
        fill_private(self);

        // Prefetching: XMem-guided for data whose atom expresses a pattern
        // (§5.2(4)); the hardware stride engine covers everything else.
        let guided = match (xmem, atom) {
            (Some(ctx), Some(a)) if self.guides(a, &ctx) => {
                self.xmem_prefetch::<TIMED>(pa, a, &ctx, t_mem);
                true
            }
            _ => false,
        };
        if !guided {
            self.issue_stride_prefetches::<TIMED>(stride_burst, t_mem);
        }
        self.l3_lat + dram_lat
    }

    /// Re-evaluates the pinned-atom set when the AMU epoch has changed
    /// (a MAP/UNMAP/ACTIVATE/DEACTIVATE occurred), aging previously pinned
    /// lines per §5.2(3).
    fn refresh_pinning(&mut self, ctx: &mut XmemContext<'_>) {
        let epoch = ctx.amu.epoch();
        if epoch == self.last_epoch {
            return;
        }
        self.last_epoch = epoch;
        if self.mode != XmemMode::Full {
            return;
        }
        let candidates: Vec<PinCandidate> = ctx
            .amu
            .active_atoms()
            .into_iter()
            .filter_map(|atom| {
                let prim = ctx.cache_pat.get(atom)?;
                prim.pin_candidate.then_some(PinCandidate {
                    atom,
                    reuse: prim.reuse,
                    size_bytes: ctx.amu.mapped_bytes(atom),
                })
            })
            .collect();
        // The mapping behind the atoms may have changed even if the pinned
        // ID set did not (a tile moved): age unconditionally on epoch change.
        self.l3.age_pinned();
        self.pinned = select_pinned(&candidates, self.l3.config().size_bytes);
    }

    /// Whether a miss to `atom` drives guided prefetch under this mode.
    fn guides(&self, atom: AtomId, ctx: &XmemContext<'_>) -> bool {
        match self.mode {
            // §5.2(4): accesses to *pinned* atoms drive guided prefetch.
            XmemMode::Full => self.pinned.contains(&atom),
            // XMem-Pref: pattern-directed prefetch for any active atom with
            // expressed reuse (software-prefetch-like, §5.4).
            XmemMode::PrefetchOnly => ctx.cache_pat.get(atom).is_some_and(|p| p.reuse > 0),
            XmemMode::Off => false,
        }
    }

    /// Issues XMem-guided prefetches after a miss on `pa` belonging to
    /// `atom` (§5.2(4)): the next `xmem_prefetch_degree` lines of the
    /// atom's data in the direction of the expressed stride, *bounded to
    /// the atom's extents* (the AMU broadcasts extent information for
    /// exactly this purpose, §4.2(4)). When the walk reaches the end of the
    /// atom it wraps to the beginning — tiles are swept repeatedly, so the
    /// wrap is the right continuation.
    fn xmem_prefetch<const TIMED: bool>(
        &mut self,
        pa: u64,
        atom: AtomId,
        ctx: &XmemContext<'_>,
        t_mem: u64,
    ) {
        let Some(stride) = ctx.pf_pat.get(atom).and_then(|p| p.stride) else {
            return;
        };
        let exts = ctx.amu.extents(atom);
        if exts.is_empty() {
            return;
        }
        let line = !self.line_mask + 1; // the line size
        let priority = if self.pinned.contains(&atom) {
            InsertPriority::Pinned
        } else {
            InsertPriority::Normal
        };
        let mut ei = exts
            .iter()
            .position(|e| pa >= e.start.raw() && pa < e.start.raw() + e.len)
            .unwrap_or(0);
        let mut pos = pa & self.line_mask;
        for _ in 0..self.xmem_prefetch_degree {
            if stride >= 0 {
                pos += line;
                if pos >= exts[ei].start.raw() + exts[ei].len {
                    ei = (ei + 1) % exts.len();
                    pos = exts[ei].start.raw() & self.line_mask;
                }
            } else {
                let ext_start = exts[ei].start.raw() & self.line_mask;
                if pos <= ext_start {
                    ei = (ei + exts.len() - 1) % exts.len();
                    pos = (exts[ei].start.raw() + exts[ei].len - 1) & self.line_mask;
                } else {
                    pos -= line;
                }
            }
            if self.prefetch_line::<TIMED>(pos, priority, t_mem) {
                self.xmem_pf_stats.issued += 1;
            }
        }
    }

    fn issue_stride_prefetches<const TIMED: bool>(&mut self, burst: StrideBurst, t_mem: u64) {
        for addr in burst {
            // Prefetches insert with the default policy priority: distant
            // insertion would make far-ahead prefetches immediate victims.
            self.prefetch_line::<TIMED>(addr & self.line_mask, InsertPriority::Normal, t_mem);
        }
    }

    /// Prefetches `line` into the L3 unless it is already resident;
    /// returns whether a prefetch was issued.
    fn prefetch_line<const TIMED: bool>(
        &mut self,
        line: u64,
        priority: InsertPriority,
        t_mem: u64,
    ) -> bool {
        if self.l3.contains(line) {
            return false;
        }
        if TIMED {
            let _ = self.dram.serve_prefetch(line, t_mem);
        } else {
            self.dram.warm_access(line);
        }
        self.fill_l3::<TIMED>(line, priority, t_mem);
        self.inflight_prefetches.insert(line);
        true
    }

    /// Fills `line` into the L3, writing a dirty victim to DRAM (timed
    /// walk only).
    fn fill_l3<const TIMED: bool>(&mut self, line: u64, priority: InsertPriority, t_mem: u64) {
        if let Some(ev) = self.l3.fill(line, false, priority) {
            if TIMED && ev.dirty {
                let _ = self.dram.serve(ev.addr, OpAttrs::write(), t_mem);
            }
        }
    }
}

/// The single-core cache hierarchy: one core's [`PrivateLevels`] in front
/// of the [`SharedLevels`] and DRAM.
#[derive(Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    core: PrivateLevels,
    shared: SharedLevels,
}

impl Hierarchy {
    /// Creates an empty hierarchy in front of `dram`.
    pub fn new(config: HierarchyConfig, dram: Dram) -> Self {
        Hierarchy {
            core: PrivateLevels::new(&config),
            shared: SharedLevels::new(&config, dram),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.core.l1.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.core.l2.stats()
    }

    /// L3 statistics.
    pub fn l3_stats(&self) -> CacheStats {
        self.shared.l3_stats()
    }

    /// The L2's DRRIP policy-select counter (0 for non-DRRIP configs).
    pub fn l2_psel(&self) -> i32 {
        self.core.l2.psel()
    }

    /// The L3's DRRIP policy-select counter (0 for non-DRRIP configs).
    pub fn l3_psel(&self) -> i32 {
        self.shared.l3.psel()
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> DramStats {
        self.shared.dram_stats()
    }

    /// The DRAM model (e.g. to inspect its mapping).
    pub fn dram(&self) -> &Dram {
        &self.shared.dram
    }

    /// Stride-prefetcher statistics (baseline mode only).
    pub fn stride_prefetch_stats(&self) -> Option<PrefetchStats> {
        self.core.stride_pf.as_ref().map(|p| p.stats())
    }

    /// XMem-guided prefetch statistics.
    pub fn xmem_prefetch_stats(&self) -> PrefetchStats {
        self.shared.xmem_pf_stats
    }

    /// Atoms currently pinned by the greedy algorithm.
    pub fn pinned_atoms(&self) -> &[AtomId] {
        &self.shared.pinned
    }

    /// Performs one demand access, returning its latency in cycles.
    ///
    /// `xmem` supplies the AMU + PATs when the system runs with XMem
    /// enabled; `None` reproduces the baseline exactly (no lookups at all).
    ///
    /// Named `serve` to match the batched memory-path vocabulary
    /// ([`cpu_sim::batch::MemoryPath`]); the extra [`XmemContext`]
    /// parameter keeps this the one signature the whole hierarchy exposes.
    #[inline]
    pub fn serve(
        &mut self,
        pa: u64,
        is_write: bool,
        now: u64,
        xmem: Option<XmemContext<'_>>,
    ) -> u64 {
        self.core
            .serve::<true>(&mut self.shared, pa, is_write, now, xmem)
    }

    /// State-only warmup probe: the [`Hierarchy::serve`] walk with
    /// everything timing-related skipped (see [`PrivateLevels::serve`]).
    ///
    /// This is the functional fast-forward path of sampled execution: it
    /// keeps tags, LRU/DRRIP state, pinned-insertion decisions, the ALB,
    /// DRAM open rows, the stride prefetcher's streams, and the L3's
    /// prefetch-inserted lines (useful coverage *and* pollution) where a
    /// detailed run would have left them, so a detailed window opens
    /// against warm state. Dirty evictions are dropped rather than written
    /// back (writebacks only produce timing and traffic, neither of which
    /// exists here). Cache/ALB/prefetch counters do advance — sampled-mode
    /// raw counters are a warm+detailed mixture, and the per-window metrics
    /// are computed from deltas across detailed windows only.
    pub fn warm_access(&mut self, pa: u64, is_write: bool, xmem: Option<XmemContext<'_>>) {
        let _ = self
            .core
            .serve::<false>(&mut self.shared, pa, is_write, 0, xmem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{AddressMapping, DramConfig};

    fn small_hierarchy(mode: XmemMode) -> Hierarchy {
        let cfg = HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 4 << 10,
                ways: 4,
                line_bytes: 64,
                latency: 4,
                policy: crate::config::ReplacementPolicy::Lru,
            },
            l2: CacheConfig {
                size_bytes: 16 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 8,
                policy: crate::config::ReplacementPolicy::Drrip,
            },
            l3: CacheConfig {
                size_bytes: 64 << 10,
                ways: 16,
                line_bytes: 64,
                latency: 27,
                policy: crate::config::ReplacementPolicy::Drrip,
            },
            stride_prefetcher: true,
            stride_streams: 16,
            prefetch_degree: 2,
            xmem_prefetch_degree: 4,
            xmem: mode,
        };
        Hierarchy::new(
            cfg,
            Dram::new(DramConfig::ddr3_1066(3.6), AddressMapping::scheme1()),
        )
    }

    #[test]
    fn miss_then_hit_latencies() {
        let mut h = small_hierarchy(XmemMode::Off);
        let miss = h.serve(0x1000, false, 0, None);
        assert!(miss > 39, "first access must reach DRAM: {miss}");
        let hit = h.serve(0x1000, false, 100, None);
        assert_eq!(hit, 4, "L1 hit");
    }

    #[test]
    fn l2_and_l3_hit_latencies() {
        let mut h = small_hierarchy(XmemMode::Off);
        h.serve(0x2000, false, 0, None);
        // Evict from L1 by filling its set (L1 = 4 KB, 4 ways, 16 sets).
        for i in 1..=4u64 {
            h.serve(0x2000 + i * 4096, false, i * 1000, None);
        }
        let lat = h.serve(0x2000, false, 100_000, None);
        assert_eq!(lat, 12, "L2 hit latency (4+8)");
    }

    #[test]
    fn writeback_traffic_generated() {
        let mut h = small_hierarchy(XmemMode::Off);
        // Write many distinct lines so dirty evictions cascade to DRAM.
        for i in 0..4096u64 {
            h.serve(i * 64, true, i * 10, None);
        }
        assert!(h.dram_stats().writes > 0, "{:?}", h.dram_stats());
    }

    #[test]
    fn stride_prefetcher_reduces_miss_latency_for_streams() {
        let run = |stride_on: bool| {
            let mut h = small_hierarchy(XmemMode::Off);
            if !stride_on {
                h.core.stride_pf = None;
            }
            let mut total = 0u64;
            for i in 0..2048u64 {
                total += h.serve(i * 64, false, i * 50, None);
            }
            total
        };
        let with_pf = run(true);
        let without = run(false);
        assert!(with_pf < without, "with {with_pf} vs without {without}");
    }

    #[test]
    fn baseline_without_ctx_never_consults_amu() {
        // Smoke test: XmemMode::Off with no context behaves like a plain
        // hierarchy (no panics, no pinning).
        let mut h = small_hierarchy(XmemMode::Off);
        for i in 0..512u64 {
            h.serve(i * 64, false, i, None);
        }
        assert!(h.pinned_atoms().is_empty());
    }

    #[test]
    fn guided_prefetch_follows_negative_stride() {
        use xmem_core::aam::AamConfig;
        use xmem_core::addr::{VaRange, VirtAddr};
        use xmem_core::amu::{AmuConfig, AtomManagementUnit, IdentityMmu};
        use xmem_core::attrs::{AccessPattern, AtomAttributes, Reuse};
        use xmem_core::isa::XmemInst;
        use xmem_core::pat::Pat;
        use xmem_core::translate::AttributeTranslator;

        let mut h = small_hierarchy(XmemMode::PrefetchOnly);
        let mut amu = AtomManagementUnit::new(AmuConfig {
            aam: AamConfig {
                phys_bytes: 1 << 20,
                ..Default::default()
            },
            ..Default::default()
        });
        let mmu = IdentityMmu::new();
        let atom = xmem_core::atom::AtomId::new(0);
        amu.execute(
            &XmemInst::Map {
                atom,
                range: VaRange::new(VirtAddr::new(0x10000), 16 << 10),
            },
            &mmu,
        )
        .unwrap();
        amu.execute(&XmemInst::Activate(atom), &mmu).unwrap();

        let attrs = AtomAttributes::builder()
            .access_pattern(AccessPattern::Regular { stride: -8 })
            .reuse(Reuse(100))
            .build();
        let t = AttributeTranslator::new();
        let mut cache_pat = Pat::new();
        cache_pat.set(atom, t.for_cache(&attrs));
        let mut pf_pat = Pat::new();
        pf_pat.set(atom, t.for_prefetcher(&attrs));

        // Miss in the middle of the atom: the guided engine should fetch
        // the *preceding* lines.
        let miss_at = 0x12000u64;
        h.serve(
            miss_at,
            false,
            0,
            Some(XmemContext {
                amu: &mut amu,
                cache_pat: &cache_pat,
                pf_pat: &pf_pat,
            }),
        );
        assert!(h.xmem_prefetch_stats().issued > 0);
        // The line just *before* the miss is now resident.
        assert!(h.shared.l3.contains(miss_at - 64));
        assert!(!h.shared.l3.contains(miss_at + 4 * 64));
    }

    #[test]
    fn warm_access_fills_caches_without_timing_traffic() {
        let mut h = small_hierarchy(XmemMode::Off);
        h.warm_access(0x3000, false, None);
        // The line is resident all the way up: a detailed access is an L1
        // hit with no DRAM traffic.
        let lat = h.serve(0x3000, false, 0, None);
        assert_eq!(lat, 4, "L1 hit after warm fill");
        assert_eq!(h.dram_stats().accesses(), 0, "warm probes skip DRAM timing");
        // The DRAM row is warmed: the first detailed miss to a neighbouring
        // line in the same row is a row hit. Scheme1 interleaves channels
        // at line granularity (2 channels), so the same-channel, same-row
        // neighbour of 0x100_0000 is two lines over, not one.
        h.warm_access(0x100_0000, false, None);
        h.serve(0x100_0080, false, 0, None);
        assert_eq!(h.dram_stats().row_hits, 1, "{:?}", h.dram_stats());
        // No prefetches were issued by warm probes.
        assert_eq!(h.stride_prefetch_stats().unwrap().issued, 0);
    }

    /// The ordered set [`InflightSet`] replaced, with its cap rule.
    fn reference_insert(set: &mut BTreeSet<u64>, line: u64) {
        if set.len() >= PF_TRACK_CAP {
            set.clear();
        }
        set.insert(line);
    }

    #[test]
    fn inflight_set_clears_at_cap_like_the_ordered_set() {
        let mut set = InflightSet::new(64);
        let lines = (0..PF_TRACK_CAP as u64).map(|i| i * 64);
        for line in lines.clone() {
            set.insert(line);
        }
        assert_eq!(set.len, PF_TRACK_CAP);
        // Re-inserting a tracked line at the cap still forgets the rest.
        set.insert(0);
        assert_eq!(set.len, 1);
        assert!(!set.remove(64));
        assert!(set.remove(0));
        assert!(!set.remove(0));
        for line in lines {
            set.insert(line);
        }
        set.insert(1 << 40); // beyond the slot range, and over the cap
        assert_eq!((set.len, set.far.len()), (0, 1));
        assert!(!set.remove(128));
        assert!(set.remove(1 << 40));
    }

    #[test]
    fn inflight_set_matches_ordered_set() {
        let mut rng = xmem_core::rng::SplitMix64::new(0x1F_11A7);
        // Churn phases draw from a fixed pool of scattered lines, so tracked
        // lines share probe runs and removals must shift their neighbours.
        let pool: Vec<u64> = (0..30_000).map(|_| rng.below(1 << 30) * 64).collect();
        let (mut set, mut reference) = (InflightSet::new(64), BTreeSet::new());
        let (mut clears, mut hits) = (0, 0);
        for step in 0..600_000u64 {
            // Alternate wide phases (distinct lines, so the cap is reached)
            // with churn over the pool, plus rare lines whose number
            // overflows a slot.
            let wide = (step / 100_000) % 2 == 0;
            let line = match rng.below(64) {
                0 => (1 << 38) + rng.below(1 << 20) * 64,
                _ if wide => rng.below(1 << 30) * 64,
                _ => pool[rng.below(pool.len() as u64) as usize],
            };
            if rng.below(10) < if wide { 8 } else { 5 } {
                clears += usize::from(reference.len() >= PF_TRACK_CAP);
                reference_insert(&mut reference, line);
                set.insert(line);
            } else {
                let was = reference.remove(&line);
                hits += usize::from(was);
                assert_eq!(set.remove(line), was, "step {step}");
            }
            assert_eq!(set.len + set.far.len(), reference.len(), "step {step}");
        }
        assert!(clears >= 2, "the cap was reached {clears} times");
        assert!(hits > 40_000, "only {hits} removals found their line");
    }

    #[test]
    fn inflight_set_removes_inside_wrapping_probe_runs() {
        // Lines whose home is one of the last two slots: their probe runs
        // wrap past the end of the table.
        let set = InflightSet::new(64);
        let last = set.slots.len() - 1;
        let lines: Vec<u64> = (0..u64::from(u32::MAX - 1))
            .map(|n| n * 64)
            .filter(|&l| set.home(set.key(l).unwrap()) >= last - 1)
            .take(6)
            .collect();
        for skip in 0..lines.len() {
            let mut set = InflightSet::new(64);
            for &l in &lines {
                set.insert(l);
            }
            assert!(set.remove(lines[skip]));
            for (k, &l) in lines.iter().enumerate() {
                assert_eq!(set.remove(l), k != skip, "skip {skip}, line {k}");
            }
            assert_eq!(set.len, 0);
        }
    }

    #[test]
    fn set_dirty_only_when_resident() {
        let mut c = Cache::new(CacheConfig::l1_westmere());
        assert!(!c.set_dirty(0x40));
        c.fill(0x40, false, InsertPriority::Normal);
        assert!(c.set_dirty(0x40));
    }
}
