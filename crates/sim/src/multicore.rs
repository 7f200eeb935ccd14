//! Multi-core simulation: private L1/L2 per core, shared L3 and DRAM —
//! the Table 3 machine shape, and the setting both use cases presume
//! (§5.1: cache space changes "as a result of co-running applications";
//! §5.2(2): the pinning algorithm "takes the active atoms in *all the
//! cores*"; §6.2: placement considers "the program semantics of *all
//! co-running applications*").
//!
//! Each core replays a pre-recorded workload log
//! ([`workloads::sink::LogSink`]); the driver advances whichever core is
//! earliest in simulated time, so accesses from different cores interleave
//! at the shared L3 and memory controller in timestamp order.
//!
//! # Renaming and shared segments
//!
//! Atom IDs and virtual addresses from different workloads are renamed
//! into one shared space (one AMU serves the machine, as in the paper).
//! By default the renaming is *disjoint*: every `Create`/`Alloc` in every
//! log gets its own global atom and physical allocation, so co-runners
//! never touch each other's data. Workloads opt into sharing explicitly
//! through [`workloads::sink::TraceSink::create_atom_shared`] and
//! [`workloads::sink::TraceSink::alloc_shared`]: events carrying the same
//! `key` resolve to *one* global atom / one physical segment across all
//! cores (the first replayed event creates it, later ones alias it, and
//! their XMem map/activate hints are reference-counted so the shared atom
//! is mapped once and stays active while any core uses it). Shared atoms
//! must use linear (1-D) maps.
//!
//! # Coherence
//!
//! Under [`CoherenceMode::None`] (the default) the private hierarchies
//! never observe each other's writes — only correct for disjoint data,
//! and byte-identical to the original co-run model. Shared-data scenarios
//! require [`CoherenceMode::Mesi`], which routes every access through the
//! MESI snooping engine ([`crate::coherence`]) before falling through to
//! the shared L3/DRAM; coherence writebacks and invalidations surface in
//! [`CorunReport::bus`] and the per-cache snoop counters.

use crate::coherence::{mesi_access, MesiDomains};
use crate::config::{CoherenceMode, MultiCoreConfig};
use crate::machine::{LoadedSystem, TranslateCache};
use cache_sim::cache::CacheStats;
use cache_sim::coherence::{BusStats, SnoopBus};
use cache_sim::hierarchy::{PrivateLevels, SharedLevels};
use cache_sim::XmemMode;
use cpu_sim::batch::{MemoryPath, OpAttrs};
use cpu_sim::core::{Core, CoreStats};
use dram_sim::{Dram, DramStats};
use os_sim::vm::PageTable;
use std::collections::{BTreeMap, BTreeSet};
use workloads::sink::TraceEvent;
use xmem_core::addr::VirtAddr;
use xmem_core::alb::AlbStats;
use xmem_core::amu::Mmu as _;
use xmem_core::atom::{AtomId, StaticAtom};
use xmem_core::attrs::{DataProps, RwChar};
use xmem_core::segment::AtomSegment;
use xmem_core::translate::CachePrimitive;
use xmem_core::xmemlib::{CallSite, XMemLib};

/// Result of a co-run: per-core core statistics plus the shared components.
#[derive(Debug, Clone)]
pub struct CorunReport {
    /// Per-core execution statistics, in core order.
    pub cores: Vec<CoreStats>,
    /// Per-core L1 statistics (private caches; includes snoop counters
    /// under MESI).
    pub l1s: Vec<CacheStats>,
    /// Per-core L2 statistics (private caches).
    pub l2s: Vec<CacheStats>,
    /// The shared L3.
    pub l3: CacheStats,
    /// The shared memory controller/DRAM.
    pub dram: DramStats,
    /// The shared AMU's lookaside buffer.
    pub alb: AlbStats,
    /// Snooping-bus traffic (all zero under [`CoherenceMode::None`]).
    pub bus: BusStats,
}

impl CorunReport {
    /// Cycles of core `i` (its private finish time).
    pub fn cycles(&self, core: usize) -> u64 {
        self.cores[core].cycles
    }
}

/// The co-run memory system: one [`PrivateLevels`] per core in front of
/// the [`SharedLevels`] every core's misses flow into, plus the machine's
/// one OS/AMU/PAT set and the snooping bus.
#[derive(Debug)]
struct SharedMem {
    cores: Vec<PrivateLevels>,
    shared: SharedLevels,
    sys: LoadedSystem,
    coherence: CoherenceMode,
    bus: SnoopBus,
    l1_lat: u64,
    l2_lat: u64,
    line_bytes: u64,
}

/// Adapter giving one core's `Core::step` a view of the shared memory.
struct CoreMemView<'a> {
    mem: &'a mut SharedMem,
    core: usize,
    xlat: &'a mut CoreXlat,
}

/// One core's recorded-VA → PA translation: its (recorded base, len,
/// actual base) ranges, sorted by recorded base, and a recorded-VPN → PFN
/// [`TranslateCache`] in front of the range lookup plus page-table walk.
///
/// The cache is exact. A recorded page is cached only when every address
/// in it resolves through the same range to the same actual page: the
/// range covers the whole page, no other range base lies inside it, and
/// the range moves addresses by a page multiple (recorded bases need not
/// be page-aligned). A new range can change which range covers a page, so
/// [`CoreXlat::add_range`] empties the cache; nothing else in a co-run
/// rebinds a mapped page.
#[derive(Debug)]
struct CoreXlat {
    ranges: Vec<(u64, u64, u64)>,
    page_size: u64,
    tc: TranslateCache,
}

impl CoreXlat {
    fn new(page_size: u64) -> Self {
        CoreXlat {
            ranges: Vec::new(),
            page_size,
            tc: TranslateCache::new(page_size),
        }
    }

    /// Records an allocation of `bytes` recorded at `base` and placed at
    /// `actual`.
    fn add_range(&mut self, base: u64, bytes: u64, actual: u64) {
        self.ranges
            .push((base, bytes.next_multiple_of(4096).max(4096), actual));
        self.ranges.sort_unstable();
        self.tc.clear();
    }

    /// Translates recorded `va` to a physical address through the cache,
    /// falling back to the range lookup and the page table.
    #[inline]
    fn translate(&mut self, pt: &PageTable, va: u64, core: usize) -> u64 {
        if let Some(pa) = self.tc.lookup(va) {
            return pa;
        }
        let range = covering_range(&self.ranges, va);
        let actual = range.map_or(va, |i| {
            let (base, _, actual) = self.ranges[i];
            actual + (va - base)
        });
        let pa = pt
            .translate(VirtAddr::new(actual))
            .unwrap_or_else(|| panic!("core {core}: unallocated VA {va:#x}"))
            .raw();
        if range.is_some_and(|i| self.maps_whole_page(i, va)) {
            self.tc.insert(va, pa);
        }
        pa
    }

    /// Whether range `i` alone resolves every address of the recorded page
    /// holding `va`, onto a single actual page.
    fn maps_whole_page(&self, i: usize, va: u64) -> bool {
        let offset_mask = self.page_size - 1;
        let (page, last) = (va & !offset_mask, va | offset_mask);
        let (base, len, actual) = self.ranges[i];
        base <= page
            && last < base + len
            && (i == 0 || self.ranges[i - 1].0 < base)
            && self.ranges.get(i + 1).is_none_or(|next| next.0 > last)
            && actual.wrapping_sub(base) & offset_mask == 0
    }
}

/// Index of the range a recorded VA resolves through, if any. Callers use
/// an uncovered VA as an actual VA, untranslated.
fn covering_range(ranges: &[(u64, u64, u64)], va: u64) -> Option<usize> {
    match ranges.binary_search_by(|&(base, _, _)| base.cmp(&va)) {
        Ok(i) => Some(i),
        Err(0) => None,
        Err(i) => {
            let (base, len, _) = ranges[i - 1];
            (va < base + len).then_some(i - 1)
        }
    }
}

/// Translates a recorded VA through a core's (recorded → actual) ranges.
fn translate_va(ranges: &[(u64, u64, u64)], va: u64) -> u64 {
    covering_range(ranges, va).map_or(va, |i| {
        let (base, _, actual) = ranges[i];
        actual + (va - base)
    })
}

impl MemoryPath for CoreMemView<'_> {
    /// One access from this core, through the same private/shared walk as
    /// the single-core [`cache_sim::Hierarchy`].
    ///
    /// Under MESI the coherence engine owns the private levels and the bus
    /// instead; its writebacks sink into the shared levels, and only
    /// accesses the peers could not supply reach the L3. Cache-to-cache
    /// transfers bypass the L3 entirely, and the stride prefetchers train
    /// only on the memory path (bus-satisfied accesses carry no locality
    /// the L3 could exploit).
    fn serve(&mut self, va: u64, attrs: OpAttrs, now: u64) -> u64 {
        let (mem, core, is_write) = (&mut *self.mem, self.core, attrs.write);
        let pa = self.xlat.translate(mem.sys.os.page_table(), va, core);
        let xmem = mem.sys.xmem();
        if mem.coherence == CoherenceMode::None {
            return mem.cores[core].serve::<true>(&mut mem.shared, pa, is_write, now, xmem);
        }
        let mut domains = MesiDomains {
            cores: &mut mem.cores,
            bus: &mut mem.bus,
            l1_lat: mem.l1_lat,
            l2_lat: mem.l2_lat,
            line_bytes: mem.line_bytes,
        };
        let acc = mesi_access(&mut domains, core, pa, is_write, now);
        for &(_, wb) in &acc.writebacks {
            mem.shared.write_back(wb, now);
        }
        if !acc.from_memory {
            return acc.latency;
        }
        let stride_pf = mem.cores[core].stride_pf.as_mut();
        acc.latency
            + mem
                .shared
                .serve::<true>(pa, now + acc.latency, stride_pf, xmem, |_| {})
    }
}

/// Runs one pre-recorded workload log per core on the shared machine.
///
/// Cores advance in simulated-time order (the earliest core processes its
/// next event), so shared-resource contention emerges naturally. Returns
/// per-core and shared statistics.
///
/// # Panics
///
/// Panics if `logs.len() != config.cores`, if the combined workloads create
/// more than 255 atoms, or if physical memory is exhausted.
pub fn run_corun(config: &MultiCoreConfig, logs: &[Vec<TraceEvent>]) -> CorunReport {
    assert_eq!(logs.len(), config.cores, "one workload log per core");

    // ── pass 1: merge every core's atoms into one shared ID space ───────
    // Private `Create`s get a fresh global atom each; `CreateShared`s with
    // the same key resolve to one global atom for all cores. `atom_maps`
    // records each core's (local creation index → global id) renaming.
    let mut lib = XMemLib::new();
    let mut segment = AtomSegment::new();
    let mut atom_maps: Vec<BTreeMap<u8, AtomId>> = vec![BTreeMap::new(); config.cores];
    let mut shared_atoms: BTreeMap<u64, AtomId> = BTreeMap::new();
    let mut shared_ids: BTreeSet<AtomId> = BTreeSet::new();
    let coherence_aware = config.coherence == CoherenceMode::Mesi && config.coherence_aware_pinning;
    let mut migratory: Vec<AtomId> = Vec::new();
    for (core, log) in logs.iter().enumerate() {
        let mut count = 0u8;
        for ev in log {
            match ev {
                TraceEvent::Create { label, attrs } => {
                    let id = lib
                        .create_atom(
                            CallSite {
                                file: "<corun>",
                                line: (core as u32) << 16 | count as u32,
                            },
                            format!("c{core}:{label}"),
                            attrs.clone(),
                        )
                        // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
                        .expect("combined atom space exhausted");
                    atom_maps[core].insert(count, id);
                    segment.push(StaticAtom::new(
                        id,
                        format!("c{core}:{label}"),
                        attrs.clone(),
                    ));
                    count += 1;
                }
                TraceEvent::CreateShared { key, label, attrs } => {
                    let id = match shared_atoms.get(key) {
                        Some(&id) => id,
                        None => {
                            let id = lib
                                .create_atom(
                                    CallSite {
                                        file: "<corun-shared>",
                                        line: *key as u32,
                                    },
                                    format!("shared:{label}"),
                                    attrs.clone(),
                                )
                                // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
                                .expect("combined atom space exhausted");
                            shared_atoms.insert(*key, id);
                            shared_ids.insert(id);
                            segment.push(StaticAtom::new(
                                id,
                                format!("shared:{label}"),
                                attrs.clone(),
                            ));
                            // Coherence-aware placement: a read-write shared
                            // atom is migratory — its lines ping-pong between
                            // private caches, so L3 pin budget spent on it is
                            // wasted. Read-only shared tables stay pinnable.
                            if coherence_aware
                                && attrs.props().contains(DataProps::SHARED)
                                && attrs.rw() != RwChar::ReadOnly
                            {
                                migratory.push(id);
                            }
                            id
                        }
                    };
                    atom_maps[core].insert(count, id);
                    count += 1;
                }
                _ => {}
            }
        }
    }

    // ── load time: GAT + PATs + frame policy over the merged atom set ───
    let mut sys = LoadedSystem::load(
        &segment,
        config.frame_policy,
        config.mapping,
        config.dram,
        config.phys_bytes,
        config.xmem != XmemMode::Off,
    );
    // Migratory atoms are withdrawn from pinning through the cache's PAT,
    // so the shared levels' pinning needs no co-run special case.
    for atom in migratory {
        if let Some(&prim) = sys.cache_pat.get(atom) {
            sys.cache_pat.set(
                atom,
                CachePrimitive {
                    pin_candidate: false,
                    ..prim
                },
            );
        }
    }
    let xmem_enabled = sys.xmem_enabled;
    let hierarchy = config.hierarchy();
    let mut mem = SharedMem {
        cores: (0..config.cores)
            .map(|_| PrivateLevels::new(&hierarchy))
            .collect(),
        shared: SharedLevels::new(&hierarchy, Dram::new(config.dram, config.mapping)),
        sys,
        coherence: config.coherence,
        bus: SnoopBus::new(config.bus),
        l1_lat: config.l1.latency,
        l2_lat: config.l2.latency,
        line_bytes: config.l1.line_bytes,
    };

    // ── replay ───────────────────────────────────────────────────────────
    let mut cores: Vec<Core> = (0..config.cores).map(|_| Core::new(config.core)).collect();
    let mut pos = vec![0usize; config.cores];
    let page_size = mem.sys.os.page_table().page_size();
    let mut xlats: Vec<CoreXlat> = (0..config.cores)
        .map(|_| CoreXlat::new(page_size))
        .collect();
    // Shared-segment replay state: one physical allocation per key, and
    // reference counts so only the first mapper/activator (and last
    // unmapper/deactivator) touches the AMU for a shared atom.
    let mut shared_bases: BTreeMap<u64, u64> = BTreeMap::new();
    let mut shared_map_rc: BTreeMap<(u64, u64), u32> = BTreeMap::new();
    let mut act_rc: BTreeMap<AtomId, u32> = BTreeMap::new();
    let rename = |core: usize, id: AtomId| {
        *atom_maps[core]
            .get(&id.raw())
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("atom referenced before creation")
    };

    loop {
        // The live core earliest in simulated time, ties to the lowest
        // index, steps next. Only the stepping core's `(now, index)` key
        // moves, so it keeps the turn until its key passes the smallest
        // key among the other live cores: the same interleaving as picking
        // again after every op, with one pick per switch.
        let (mut first, mut rival) = (None, None);
        for j in (0..config.cores).filter(|&j| pos[j] < logs[j].len()) {
            let key = (cores[j].now(), j);
            if first.is_none_or(|f| key < f) {
                rival = first;
                first = Some(key);
            } else if rival.is_none_or(|r| key < r) {
                rival = Some(key);
            }
        }
        let Some((_, i)) = first else { break };

        while pos[i] < logs[i].len() && rival.is_none_or(|r| (cores[i].now(), i) < r) {
            // Apply hint events until the next op (hints are "free" in time).
            while pos[i] < logs[i].len() {
                let ev = &logs[i][pos[i]];
                pos[i] += 1;
                match *ev {
                    TraceEvent::Op(op) => {
                        let mut view = CoreMemView {
                            mem: &mut mem,
                            core: i,
                            xlat: &mut xlats[i],
                        };
                        cores[i].step(op, &mut view);
                        break;
                    }
                    // Already merged in pass 1.
                    TraceEvent::Create { .. } | TraceEvent::CreateShared { .. } => {}
                    TraceEvent::Alloc { bytes, atom, base } => {
                        let global_atom = atom.map(|a| rename(i, a));
                        let actual = mem
                            .sys
                            .os
                            .malloc(bytes, global_atom)
                            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
                            .expect("physical memory exhausted")
                            .raw();
                        xlats[i].add_range(base, bytes, actual);
                    }
                    TraceEvent::AllocShared {
                        key,
                        bytes,
                        atom,
                        base,
                    } => {
                        // One physical allocation per key; every core's local
                        // VA range for it translates to the same frames.
                        let actual = match shared_bases.get(&key) {
                            Some(&pa) => pa,
                            None => {
                                let global_atom = atom.map(|a| rename(i, a));
                                let pa = mem
                                    .sys
                                    .os
                                    .malloc(bytes, global_atom)
                                    // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
                                    .expect("physical memory exhausted")
                                    .raw();
                                shared_bases.insert(key, pa);
                                pa
                            }
                        };
                        xlats[i].add_range(base, bytes, actual);
                    }
                    TraceEvent::Map { atom, start, len } => {
                        if xmem_enabled {
                            let global = rename(i, atom);
                            let actual = translate_va(&xlats[i].ranges, start);
                            if shared_ids.contains(&global) {
                                let rc = shared_map_rc.entry((actual, len)).or_insert(0);
                                *rc += 1;
                                if *rc > 1 {
                                    continue; // later mappers: range already live
                                }
                            }
                            lib.atom_map(
                                &mut mem.sys.amu,
                                mem.sys.os.page_table(),
                                global,
                                VirtAddr::new(actual),
                                len,
                            )
                            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
                            .expect("map");
                        }
                    }
                    TraceEvent::Unmap { start, len } => {
                        if xmem_enabled {
                            let actual = translate_va(&xlats[i].ranges, start);
                            if let Some(rc) = shared_map_rc.get_mut(&(actual, len)) {
                                *rc -= 1;
                                if *rc > 0 {
                                    continue; // other cores still map this range
                                }
                            }
                            lib.atom_unmap(
                                &mut mem.sys.amu,
                                mem.sys.os.page_table(),
                                VirtAddr::new(actual),
                                len,
                            )
                            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
                            .expect("unmap");
                        }
                    }
                    TraceEvent::Map2d {
                        atom,
                        base,
                        size_x,
                        size_y,
                        len_x,
                    } => {
                        if xmem_enabled {
                            let actual = translate_va(&xlats[i].ranges, base);
                            lib.atom_map_2d(
                                &mut mem.sys.amu,
                                mem.sys.os.page_table(),
                                rename(i, atom),
                                VirtAddr::new(actual),
                                size_x,
                                size_y,
                                len_x,
                            )
                            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
                            .expect("map2d");
                        }
                    }
                    TraceEvent::Unmap2d {
                        base,
                        size_x,
                        size_y,
                        len_x,
                    } => {
                        if xmem_enabled {
                            let actual = translate_va(&xlats[i].ranges, base);
                            lib.atom_unmap_2d(
                                &mut mem.sys.amu,
                                mem.sys.os.page_table(),
                                VirtAddr::new(actual),
                                size_x,
                                size_y,
                                len_x,
                            )
                            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
                            .expect("unmap2d");
                        }
                    }
                    TraceEvent::Activate(atom) => {
                        if xmem_enabled {
                            let global = rename(i, atom);
                            if shared_ids.contains(&global) {
                                let rc = act_rc.entry(global).or_insert(0);
                                *rc += 1;
                                if *rc > 1 {
                                    continue; // already active on another core's behalf
                                }
                            }
                            lib.atom_activate(&mut mem.sys.amu, mem.sys.os.page_table(), global)
                                // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
                                .expect("activate");
                        }
                    }
                    TraceEvent::Deactivate(atom) => {
                        if xmem_enabled {
                            let global = rename(i, atom);
                            if let Some(rc) = act_rc.get_mut(&global) {
                                *rc -= 1;
                                if *rc > 0 {
                                    continue; // other cores still want it active
                                }
                            }
                            lib.atom_deactivate(&mut mem.sys.amu, mem.sys.os.page_table(), global)
                                // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
                                .expect("deactivate");
                        }
                    }
                }
            }
        }
    }

    CorunReport {
        cores: cores.iter().map(|c| c.stats()).collect(),
        l1s: mem.cores.iter().map(|c| c.l1.stats()).collect(),
        l2s: mem.cores.iter().map(|c| c.l2.stats()).collect(),
        l3: mem.shared.l3_stats(),
        dram: mem.shared.dram_stats(),
        alb: mem.sys.amu.alb_stats(),
        bus: mem.bus.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::polybench::{KernelParams, PolybenchKernel};
    use workloads::sink::{LogSink, TraceSink};

    fn record(f: impl Fn(&mut dyn TraceSink)) -> Vec<TraceEvent> {
        let mut log = LogSink::new();
        f(&mut log);
        log.into_events()
    }

    fn kernel_log(n: usize, tile: u64) -> Vec<TraceEvent> {
        record(|s| {
            PolybenchKernel::Gemm.generate(
                &KernelParams {
                    n,
                    tile_bytes: tile,
                    steps: 1,
                    reuse: 200,
                },
                s,
            )
        })
    }

    fn hog_log(lines: u64) -> Vec<TraceEvent> {
        record(|s| {
            let base = s.alloc(lines * 64, None);
            for i in 0..lines * 4 {
                s.load(base + (i % lines) * 64);
                s.compute(2);
            }
        })
    }

    #[test]
    fn single_core_corun_matches_shape() {
        let cfg = MultiCoreConfig::scaled_corun(1, 32 << 10, crate::SystemKind::Baseline);
        let report = run_corun(&cfg, &[kernel_log(32, 4 << 10)]);
        assert_eq!(report.cores.len(), 1);
        assert!(report.cores[0].cycles > 0);
        assert!(report.dram.accesses() > 0);
    }

    #[test]
    fn corun_is_deterministic() {
        let cfg = MultiCoreConfig::scaled_corun(2, 32 << 10, crate::SystemKind::Xmem);
        let logs = vec![kernel_log(24, 2 << 10), hog_log(512)];
        let a = run_corun(&cfg, &logs);
        let b = run_corun(&cfg, &logs);
        assert_eq!(a.cores, b.cores);
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    fn interference_slows_the_victim() {
        let solo_cfg = MultiCoreConfig::scaled_corun(1, 32 << 10, crate::SystemKind::Baseline);
        let solo = run_corun(&solo_cfg, &[kernel_log(32, 8 << 10)]);
        let corun_cfg = MultiCoreConfig::scaled_corun(3, 32 << 10, crate::SystemKind::Baseline);
        let corun = run_corun(
            &corun_cfg,
            &[kernel_log(32, 8 << 10), hog_log(2048), hog_log(2048)],
        );
        assert!(
            corun.cycles(0) > solo.cycles(0),
            "co-runners must interfere: solo {} vs corun {}",
            solo.cycles(0),
            corun.cycles(0)
        );
    }

    #[test]
    fn xmem_protects_victim_under_corun() {
        // The §5 premise: the kernel tuned for the whole L3 loses cache to
        // streaming co-runners; XMem pins its tile and suffers less.
        let logs = vec![kernel_log(48, 16 << 10), hog_log(4096), hog_log(4096)];
        let base_cfg = MultiCoreConfig::scaled_corun(3, 32 << 10, crate::SystemKind::Baseline);
        let xmem_cfg = MultiCoreConfig::scaled_corun(3, 32 << 10, crate::SystemKind::Xmem);
        let base = run_corun(&base_cfg, &logs);
        let xmem = run_corun(&xmem_cfg, &logs);
        assert!(
            xmem.cycles(0) < base.cycles(0),
            "xmem {} vs baseline {}",
            xmem.cycles(0),
            base.cycles(0)
        );
    }

    #[test]
    fn atom_ids_disjoint_across_cores() {
        // Two copies of the same workload: their atoms must not collide.
        let cfg = MultiCoreConfig::scaled_corun(2, 32 << 10, crate::SystemKind::Xmem);
        let logs = vec![kernel_log(24, 2 << 10), kernel_log(24, 2 << 10)];
        let report = run_corun(&cfg, &logs);
        // Both kernels complete the same work.
        assert_eq!(report.cores[0].instructions, report.cores[1].instructions);
    }
}
