//! The full-system machine: core + hierarchy + DRAM + OS + XMem, driven by
//! a workload generator through the [`TraceSink`] interface.
//!
//! A run has two passes, mirroring the paper's compile/load/execute flow:
//!
//! 1. **Scan** ([`ScanSink`]): the workload's `CreateAtom` calls are
//!    collected — this is the *compiler summarization* that produces the
//!    binary's atom segment (§3.5.2).
//! 2. **Load + execute** ([`Machine`]): the OS loads the segment into the
//!    GAT, the attribute translator fills each component's PAT, the frame
//!    policy is constructed (for XMem placement, from the atoms' placement
//!    primitives), and then the trace runs for real — ops through the core
//!    model, XMem calls through `XMemLib` into the AMU.

use crate::config::{FramePolicyKind, SystemConfig};
use crate::report::RunReport;
use crate::sampling::{SamplePhase, SamplingSpec, SamplingSummary, WindowFeatures};
use crate::telemetry::{TelemetrySample, TelemetrySeries};
use cache_sim::hierarchy::{Hierarchy, XmemContext};
use cpu_sim::batch::{MemoryPath, OpAttrs, OpBatch, OpKind};
use cpu_sim::core::Core;
use cpu_sim::trace::Op;
use dram_sim::{AddressMapping, Dram, DramConfig};
use os_sim::loader::load_segment;
use os_sim::os::{Os, OsError};
use os_sim::placement::FramePolicy;
use os_sim::tlb::Tlb;
use std::collections::BTreeMap;
use workloads::sink::{BatchEmitter, TraceSink};
use xmem_core::aam::AamConfig;
use xmem_core::addr::{addr_to_index, VirtAddr};
use xmem_core::amu::{AmuConfig, AtomManagementUnit, Mmu};
use xmem_core::atom::{AtomId, StaticAtom};
use xmem_core::attrs::AtomAttributes;
use xmem_core::pat::Pat;
use xmem_core::process::ProcessId;
use xmem_core::segment::AtomSegment;
use xmem_core::translate::{AttributeTranslator, CachePrimitive, PrefetcherPrimitive};
use xmem_core::xmemlib::{CallSite, XMemLib};

/// Pass-1 sink: records atom creation only (everything else is dropped).
#[derive(Debug, Default)]
pub struct ScanSink {
    atoms: Vec<(String, AtomAttributes)>,
    next_va: u64,
}

impl ScanSink {
    /// Creates an empty scan sink.
    pub fn new() -> Self {
        ScanSink {
            atoms: Vec::new(),
            next_va: 4096,
        }
    }

    /// The atom segment summarizing the scanned program.
    pub fn segment(&self) -> AtomSegment {
        let mut seg = AtomSegment::new();
        for (i, (label, attrs)) in self.atoms.iter().enumerate() {
            seg.push(StaticAtom::new(
                AtomId::new(i as u8),
                label.clone(),
                attrs.clone(),
            ));
        }
        seg
    }
}

impl TraceSink for ScanSink {
    fn op(&mut self, _op: Op) {}

    fn alloc(&mut self, bytes: u64, _atom: Option<AtomId>) -> u64 {
        let base = self.next_va;
        self.next_va += bytes.next_multiple_of(4096).max(4096);
        base
    }

    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId {
        if let Some(i) = self.atoms.iter().position(|(l, _)| l == label) {
            return AtomId::new(i as u8);
        }
        let id = AtomId::new(self.atoms.len() as u8);
        self.atoms.push((label.to_owned(), attrs));
        id
    }

    fn map(&mut self, _atom: AtomId, _start: u64, _len: u64) {}
    fn unmap(&mut self, _start: u64, _len: u64) {}
    fn map_2d(&mut self, _atom: AtomId, _base: u64, _sx: u64, _sy: u64, _lx: u64) {}
    fn unmap_2d(&mut self, _base: u64, _sx: u64, _sy: u64, _lx: u64) {}
    fn activate(&mut self, _atom: AtomId) {}
    fn deactivate(&mut self, _atom: AtomId) {}
}

/// The OS and XMem state a machine runs its program against, built at
/// load time.
#[derive(Debug)]
pub(crate) struct LoadedSystem {
    pub(crate) os: Os,
    pub(crate) amu: AtomManagementUnit,
    pub(crate) cache_pat: Pat<CachePrimitive>,
    pub(crate) pf_pat: Pat<PrefetcherPrimitive>,
    pub(crate) xmem_enabled: bool,
}

impl LoadedSystem {
    /// Load time (§3.5.2): loads `segment` into the GAT, keeps the
    /// translated cache and prefetcher PATs when XMem is enabled (they stay
    /// empty otherwise), and builds the OS with the configured frame
    /// policy — XMem placement allocates from the atoms' placement
    /// primitives.
    pub(crate) fn load(
        segment: &AtomSegment,
        frame_policy: FramePolicyKind,
        mapping: AddressMapping,
        dram: DramConfig,
        phys_bytes: u64,
        xmem_enabled: bool,
    ) -> Self {
        let translator = AttributeTranslator::with_row_bytes(dram.row_bytes);
        // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
        let loaded = load_segment(ProcessId(0), segment, &translator).expect("program load failed");
        let policy = match frame_policy {
            FramePolicyKind::Sequential => FramePolicy::Sequential,
            FramePolicyKind::Randomized { seed } => FramePolicy::Randomized { seed },
            FramePolicyKind::XmemPlacement => FramePolicy::Xmem {
                atoms: loaded.placement,
                mapping,
                dram,
            },
        };
        let (cache_pat, pf_pat) = if xmem_enabled {
            (loaded.cache_pat, loaded.pf_pat)
        } else {
            (Pat::new(), Pat::new())
        };
        LoadedSystem {
            os: Os::new(phys_bytes, 4096, policy),
            amu: AtomManagementUnit::new(AmuConfig {
                aam: AamConfig {
                    phys_bytes,
                    ..AamConfig::default()
                },
                alb_entries: 256,
                page_size: 4096,
            }),
            cache_pat,
            pf_pat,
            xmem_enabled,
        }
    }

    /// The XMem state the cache hierarchy consults, when XMem is enabled.
    pub(crate) fn xmem(&mut self) -> Option<XmemContext<'_>> {
        self.xmem_enabled.then_some(XmemContext {
            amu: &mut self.amu,
            cache_pat: &self.cache_pat,
            pf_pat: &self.pf_pat,
        })
    }
}

/// The memory side of the machine (everything the core's loads/stores see).
#[derive(Debug)]
struct MemSystem {
    hierarchy: Hierarchy,
    sys: LoadedSystem,
    tlb: Option<Tlb>,
    /// Translate cache over the OS page table. It is *exact* (never
    /// changes a translation): [`Machine::alloc`] — the only path that
    /// grows the page table — clears it, and a page migration drops the
    /// one stale entry.
    tc: TranslateCache,
    /// Recently-warmed lines, direct-mapped by line index (the warm-path
    /// filter); `u64::MAX` means "slot empty".
    warm_lines: [u64; WARM_FILTER_ENTRIES],
    /// Whether the matching `warm_lines` entry has been warmed by a store
    /// (so the line's dirty bit is already set).
    warm_dirty: [bool; WARM_FILTER_ENTRIES],
}

/// `log2` of the warm-filter line granularity. Matches the hierarchy's
/// 64 B lines; a coarser value would skip real state changes.
const WARM_LINE_SHIFT: u32 = 6;

/// Warm-filter slots (power of two; covers the handful of interleaved
/// streams a kernel's inner loop cycles through).
const WARM_FILTER_ENTRIES: usize = 256;

/// Translate-cache slots (power of two; covers the handful of distinct
/// pages a kernel's inner loop cycles through).
const TC_ENTRIES: usize = 16;

/// `vpn` value meaning "translate cache entry empty".
const TC_EMPTY: u64 = u64::MAX;

/// Small direct-mapped VPN→PFN translate cache (indexed by the VPN's low
/// bits). Workloads alternate between a few data structures on different
/// pages — gemm touches three arrays per inner iteration — so a single
/// entry thrashes; [`TC_ENTRIES`] slots take the page-table binary search
/// off the hot path. Its owner decides what it may cache and when the
/// entries go stale.
#[derive(Debug)]
pub(crate) struct TranslateCache {
    vpn: [u64; TC_ENTRIES],
    pfn: [u64; TC_ENTRIES],
    /// `log2(page_size)`; translation caching assumes power-of-two pages.
    page_shift: u32,
}

impl TranslateCache {
    /// An empty cache for pages of `page_size` bytes (a power of two).
    pub(crate) fn new(page_size: u64) -> Self {
        TranslateCache {
            vpn: [TC_EMPTY; TC_ENTRIES],
            pfn: [0; TC_ENTRIES],
            page_shift: page_size.trailing_zeros(),
        }
    }

    #[inline]
    fn slot(&self, va: u64) -> (usize, u64) {
        let vpn = va >> self.page_shift;
        (addr_to_index(vpn & (TC_ENTRIES as u64 - 1)), vpn)
    }

    /// The cached translation of `va`, if its page is cached.
    #[inline]
    pub(crate) fn lookup(&self, va: u64) -> Option<u64> {
        let (slot, vpn) = self.slot(va);
        (self.vpn[slot] == vpn)
            .then(|| (self.pfn[slot] << self.page_shift) | (va & ((1 << self.page_shift) - 1)))
    }

    /// Caches the page of `va` as translating to the frame of `pa`.
    #[inline]
    pub(crate) fn insert(&mut self, va: u64, pa: u64) {
        let (slot, vpn) = self.slot(va);
        self.vpn[slot] = vpn;
        self.pfn[slot] = pa >> self.page_shift;
    }

    /// Drops the entry for `va`'s page, if cached. The cache is
    /// direct-mapped by VPN, so only that one slot can hold it.
    pub(crate) fn invalidate(&mut self, va: u64) {
        let (slot, vpn) = self.slot(va);
        if self.vpn[slot] == vpn {
            self.vpn[slot] = TC_EMPTY;
        }
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.vpn = [TC_EMPTY; TC_ENTRIES];
    }
}

impl MemSystem {
    /// Translates `va`, consulting the direct-mapped cache first.
    #[inline]
    fn translate(&mut self, va: u64) -> u64 {
        if let Some(pa) = self.tc.lookup(va) {
            return pa;
        }
        let pa = self
            .sys
            .os
            .page_table()
            .translate(VirtAddr::new(va))
            .unwrap_or_else(|| panic!("access to unallocated VA {va:#x}"))
            .raw();
        self.tc.insert(va, pa);
        pa
    }

    /// Drops any translate-cache entry covering `va`'s page. Must be
    /// called whenever the page table *rebinds* an existing VPN (page
    /// migration): the cache is direct-mapped by VPN, so only the one
    /// slot can be stale. Wholesale growth ([`Machine::alloc`]) wipes the
    /// whole array instead.
    #[inline]
    fn invalidate_translation(&mut self, va: u64) {
        self.tc.invalidate(va);
        // The warm-path filter may cover lines of this page; after a
        // rebind their physical homes change, so force re-walks.
        self.warm_lines = [u64::MAX; WARM_FILTER_ENTRIES];
    }

    /// Functional warmup access: touches the TLB (LRU/residency), the
    /// translate cache, cache tags/LRU/pinning, ALB/AMU state, and DRAM
    /// open rows — but produces no latency and no core-visible timing.
    /// Used by the sampled machine's warm phase so detailed windows do not
    /// open on cold state.
    fn warm_access(&mut self, va: u64, is_write: bool) {
        // Recently-warmed-line filter: kernels touch each 64 B line several
        // times in short order (8 doubles per line, interleaved across a
        // few arrays), and a repeat access can only refresh LRU stamps that
        // are already near-freshest. A small direct-mapped filter over the
        // last lines warmed skips the full hierarchy walk for those
        // repeats, which is most of the functional-warming cost on
        // sequential streams. The approximation is bounded: only lines
        // warmed since the last filter wipe are skipped, and a store after
        // a clean access still walks, to set the dirty bit the first
        // access did not.
        let line = va >> WARM_LINE_SHIFT;
        let slot = addr_to_index(line & (WARM_FILTER_ENTRIES as u64 - 1));
        if self.warm_lines[slot] == line && (!is_write || self.warm_dirty[slot]) {
            return;
        }
        self.warm_lines[slot] = line;
        self.warm_dirty[slot] = is_write;
        if let Some(tlb) = self.tlb.as_mut() {
            let _ = tlb.translate_cost(VirtAddr::new(va));
        }
        let pa = self.translate(va);
        self.hierarchy.warm_access(pa, is_write, self.sys.xmem());
    }
}

impl MemoryPath for MemSystem {
    #[inline]
    fn serve(&mut self, va: u64, attrs: OpAttrs, now: u64) -> u64 {
        let walk = self
            .tlb
            .as_mut()
            .map(|t| t.translate_cost(VirtAddr::new(va)))
            .unwrap_or(0);
        let pa = self.translate(va);
        walk + self
            .hierarchy
            .serve(pa, attrs.write, now + walk, self.sys.xmem())
    }
}

/// Cumulative counter values captured at an epoch boundary. Each telemetry
/// sample reports the deltas between two consecutive snapshots, so rates
/// (IPC, MPKI, row-hit rate) describe *that epoch*, not the run so far.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    instructions: u64,
    cycles: u64,
    l1_misses: u64,
    l2_misses: u64,
    l3_misses: u64,
    prefetch_issued: u64,
    prefetch_useful: u64,
    row_hits: u64,
    dram_accesses: u64,
    busy_bank_cycles: u64,
    alb_hits: u64,
    alb_lookups: u64,
    amu_invalidations: u64,
}

/// Live telemetry state: the series under construction plus the snapshot
/// taken at the previous epoch boundary.
#[derive(Debug)]
struct TelemetryState {
    series: TelemetrySeries,
    prev: Snapshot,
}

/// Live sampling state: the schedule, the op/phase accounting, and the
/// per-window feature measurements.
///
/// Window metrics are deltas between the snapshot taken once the window's
/// detailed *ramp* has run (see below) and the snapshot at the window's
/// *close* (on the first non-detailed op), so warm-phase counter pollution
/// never enters a window's features. The run's raw cumulative counters, by
/// contrast, are a documented warm+detailed mixture under partial coverage
/// — the [`SamplingSummary`] metrics are the sampled estimates to read.
///
/// The ramp exists because the core's clock (`Core::now`) includes the
/// completion time of the latest outstanding miss: a window measured from
/// its very first detailed op opens with a drained pipeline (functional
/// warmup retires everything at the L1 latency) but closes mid-flight,
/// so the close-side overhang — up to a full DRAM latency — would bias
/// every window's cycle delta upward (the classic SMARTS end-of-window
/// drain bias). Running the first `window_ops / 2` detailed ops unmeasured
/// puts the clock's standing overhang in steady state before the open
/// snapshot — the ramp must span several DRAM latencies' worth of cycles,
/// which is why it scales with the window rather than the ROB — so the
/// in-flight overhang at open and close cancel to first order.
#[derive(Debug)]
struct SamplingState {
    spec: SamplingSpec,
    /// Global op index: how many sink ops the schedule has classified.
    ops_seen: u64,
    /// Ops executed through the detailed path.
    detailed_ops: u64,
    /// Ops executed through the functional-warmup path.
    warm_ops: u64,
    /// Detailed ops each window runs before the open snapshot is taken.
    ramp: u64,
    /// A detailed window is in progress (some detailed op has run since
    /// the last close).
    window_active: bool,
    /// Detailed ops executed in the current window so far.
    window_detailed: u64,
    /// Snapshot at the end of the current window's ramp, once taken.
    window_start: Option<Snapshot>,
    /// One feature vector per closed detailed window, in time order.
    windows: Vec<WindowFeatures>,
}

/// The executing machine (pass 2). Implements [`TraceSink`] so the workload
/// generator drives it directly.
#[derive(Debug)]
pub struct Machine {
    core: Core,
    mem: MemSystem,
    lib: XMemLib,
    labels: BTreeMap<String, AtomId>,
    next_site: u32,
    /// Instruction count at which the next telemetry sample fires.
    /// `u64::MAX` when telemetry is disabled, so the per-op cost of the
    /// feature is one always-false integer compare.
    next_sample_at: u64,
    telemetry: Option<TelemetryState>,
    /// Interval-sampling state; `None` (full detail everywhere) unless
    /// [`Machine::enable_sampling`] armed a schedule.
    sampling: Option<SamplingState>,
    /// Fixed latency warm-phase loads retire with (the L1 hit latency):
    /// cheap, deterministic, and close enough for functional warmup.
    warm_load_latency: u64,
}

/// Synthetic call-site file for atoms created through the sink interface.
const SINK_SITE_FILE: &str = "<workload>";

impl Machine {
    /// Builds the machine for `config`, loading `segment` (the scanned
    /// program's atoms) into the OS/XMem tables.
    fn new(config: &SystemConfig, segment: &AtomSegment) -> Self {
        let sys = LoadedSystem::load(
            segment,
            config.frame_policy,
            config.mapping,
            config.dram,
            config.phys_bytes,
            config.hierarchy.xmem != cache_sim::XmemMode::Off,
        );
        let dram = if config.ideal_rbl {
            Dram::new_ideal_rbl(config.dram, config.mapping)
        } else {
            Dram::new(config.dram, config.mapping)
        };
        Machine {
            core: Core::new(config.core),
            mem: MemSystem {
                hierarchy: Hierarchy::new(config.hierarchy, dram),
                tlb: config.tlb.map(Tlb::new),
                tc: TranslateCache::new(sys.os.page_table().page_size()),
                warm_lines: [u64::MAX; WARM_FILTER_ENTRIES],
                warm_dirty: [false; WARM_FILTER_ENTRIES],
                sys,
            },
            lib: XMemLib::new(),
            labels: BTreeMap::new(),
            next_site: 0,
            next_sample_at: u64::MAX,
            telemetry: None,
            sampling: None,
            warm_load_latency: config.hierarchy.l1.latency,
        }
    }

    /// Turns on epoch sampling: one [`TelemetrySample`] per
    /// `epoch_instructions` retired (clamped to at least 1).
    fn enable_telemetry(&mut self, epoch_instructions: u64) {
        let series = TelemetrySeries::new(epoch_instructions);
        self.next_sample_at = series.epoch_instructions;
        self.telemetry = Some(TelemetryState {
            series,
            prev: Snapshot::default(),
        });
    }

    /// Arms interval sampling: ops execute per `spec`'s fast-forward /
    /// warmup / detailed schedule and every detailed window is measured.
    fn enable_sampling(&mut self, spec: SamplingSpec) {
        // Ramp < window_ops always (the /2 guarantees it), so every window
        // longer than 1 op measures something.
        let ramp = spec.window_ops / 2;
        self.sampling = Some(SamplingState {
            spec,
            ops_seen: 0,
            detailed_ops: 0,
            warm_ops: 0,
            ramp,
            window_active: false,
            window_detailed: 0,
            window_start: None,
            windows: Vec::new(),
        });
    }

    /// Marks a detailed window in progress and, once its ramp has run,
    /// snapshots the cumulative counters so the window's features are pure
    /// steady-state deltas. Idempotent within a window.
    fn open_window(&mut self) {
        let need_snap = match self.sampling.as_mut() {
            Some(st) => {
                st.window_active = true;
                st.window_start.is_none() && st.window_detailed >= st.ramp
            }
            None => false,
        };
        if need_snap {
            let snap = self.snapshot();
            if let Some(st) = self.sampling.as_mut() {
                st.window_start = Some(snap);
            }
        }
    }

    /// Closes the in-progress detailed window (no-op when none is),
    /// recording its feature vector if the ramp completed and a measured
    /// segment exists.
    fn close_window(&mut self) {
        let start = match self.sampling.as_mut() {
            Some(st) if st.window_active => {
                st.window_active = false;
                st.window_detailed = 0;
                st.window_start.take()
            }
            _ => return,
        };
        let Some(start) = start else {
            // The window ended inside its ramp: nothing measured.
            return;
        };
        let cur = self.snapshot();
        let features = WindowFeatures {
            instructions: cur.instructions - start.instructions,
            cycles: cur.cycles.saturating_sub(start.cycles),
            l1_misses: cur.l1_misses - start.l1_misses,
            l2_misses: cur.l2_misses - start.l2_misses,
            l3_misses: cur.l3_misses - start.l3_misses,
            dram_accesses: cur.dram_accesses - start.dram_accesses,
            row_hits: cur.row_hits - start.row_hits,
            alb_lookups: cur.alb_lookups - start.alb_lookups,
            alb_hits: cur.alb_hits - start.alb_hits,
        };
        // simlint: allow(nondet-taint, reason = "debug gate: the env var only toggles an eprintln window dump and never changes the report contents")
        if std::env::var("XMEM_DUMP_WINDOWS").is_ok() {
            eprintln!(
                "WINDOW instr={} cycles={} ipc={:.3} l1m={} l2m={} l3m={} dram={} rowhit={}",
                features.instructions,
                features.cycles,
                features.instructions as f64 / features.cycles.max(1) as f64,
                features.l1_misses,
                features.l2_misses,
                features.l3_misses,
                features.dram_accesses,
                features.row_hits
            );
        }
        // simlint: allow(unwrap, reason = "guarded by the window_active match above: sampling state is present")
        let st = self.sampling.as_mut().expect("sampling state present");
        st.windows.push(features);
    }

    /// Executes one op under the sampling schedule.
    fn sampled_op(&mut self, op: Op) {
        // simlint: allow(unwrap, reason = "only called from the sampled dispatch, which checked sampling.is_some()")
        let st = self.sampling.as_ref().expect("sampling state present");
        let spec = st.spec;
        let phase = spec.phase_of(st.ops_seen);
        let window_active = st.window_active;
        match phase {
            SamplePhase::Detailed => {
                self.open_window();
                self.core.step(op, &mut self.mem);
                if let Some(st) = self.sampling.as_mut() {
                    st.detailed_ops += 1;
                    st.window_detailed += 1;
                }
            }
            SamplePhase::Warm => {
                if window_active {
                    self.close_window();
                }
                match op {
                    Op::Load { addr, .. } => self.mem.warm_access(addr, false),
                    Op::Store { addr, .. } => self.mem.warm_access(addr, true),
                    Op::Compute(_) => {}
                }
                self.core.step_fixed(op, self.warm_load_latency);
                if let Some(st) = self.sampling.as_mut() {
                    st.warm_ops += 1;
                }
            }
            SamplePhase::FastForward => {
                if window_active {
                    self.close_window();
                }
                // Functional warming: caches, TLB, DRAM rows and AMU stats
                // stay live through the fast-forward, or every window would
                // open on partially-cold state and over-count misses
                // (cold-state bias dwarfs every other sampling error).
                // Only the core's timing is skipped.
                match op {
                    Op::Load { addr, .. } => self.mem.warm_access(addr, false),
                    Op::Store { addr, .. } => self.mem.warm_access(addr, true),
                    Op::Compute(_) => {}
                }
                self.core.skip(op);
            }
        }
        if let Some(st) = self.sampling.as_mut() {
            st.ops_seen += 1;
        }
        if self.core.instructions() >= self.next_sample_at {
            self.take_sample();
        }
    }

    /// Executes a whole batch under the sampling schedule, one tight loop
    /// per same-phase run (the schedule is deterministic in the op index,
    /// so run boundaries are known up front). Observably identical to
    /// calling [`Machine::sampled_op`] per op — same state mutations in
    /// the same order, same window snapshot boundaries — only the per-op
    /// phase/bookkeeping overhead is hoisted out of the loops. Callers
    /// must have telemetry disarmed (`next_sample_at == u64::MAX`); the
    /// per-op epoch boundary check is skipped here.
    fn sampled_batch(&mut self, batch: &OpBatch) {
        let len = batch.len();
        let mut i = 0usize;
        while i < len {
            // simlint: allow(unwrap, reason = "only called from the sampled dispatch, which checked sampling.is_some()")
            let st = self.sampling.as_ref().expect("sampling state present");
            let spec = st.spec;
            let pos = st.ops_seen;
            let window_active = st.window_active;
            let run = spec.phase_run(pos).min((len - i) as u64) as usize;
            match spec.phase_of(pos) {
                SamplePhase::Detailed => {
                    // Split the run at the ramp snapshot so batched windows
                    // measure exactly what scalar ones would.
                    let mut done = 0usize;
                    while done < run {
                        self.open_window();
                        // simlint: allow(unwrap, reason = "sampling state checked at loop entry; open_window does not clear it")
                        let st = self.sampling.as_ref().expect("sampling state present");
                        let sub = match st.window_start {
                            // open_window just declined to snapshot, so the
                            // ramp still has `ramp - window_detailed` ops
                            // to run before the next snapshot point.
                            None => ((st.ramp - st.window_detailed) as usize).min(run - done),
                            Some(_) => run - done,
                        };
                        let begin = i + done;
                        self.core
                            .step_batch_range(batch, begin, begin + sub, &mut self.mem);
                        // simlint: allow(unwrap, reason = "sampling state checked at loop entry; stepping ops does not clear it")
                        let st = self.sampling.as_mut().expect("sampling state present");
                        st.detailed_ops += sub as u64;
                        st.window_detailed += sub as u64;
                        st.ops_seen += sub as u64;
                        done += sub;
                    }
                }
                SamplePhase::Warm => {
                    if window_active {
                        self.close_window();
                    }
                    for j in i..i + run {
                        match batch.kind(j) {
                            OpKind::Load => self.mem.warm_access(batch.addr(j), false),
                            OpKind::Store => self.mem.warm_access(batch.addr(j), true),
                            OpKind::Compute => {}
                        }
                        self.core.step_fixed(batch.op(j), self.warm_load_latency);
                    }
                    // simlint: allow(unwrap, reason = "sampling state checked at loop entry; warming ops does not clear it")
                    let st = self.sampling.as_mut().expect("sampling state present");
                    st.warm_ops += run as u64;
                    st.ops_seen += run as u64;
                }
                SamplePhase::FastForward => {
                    if window_active {
                        self.close_window();
                    }
                    // Functional warming, as in `sampled_op`: memory state
                    // stays live through the fast-forward; only the core's
                    // timing is skipped. Loads/stores tally into one bulk
                    // skip (instant-retiring skips are order-free), so the
                    // loop's only per-op work is the warm access itself.
                    let mut loads = 0u64;
                    let mut stores = 0u64;
                    for j in i..i + run {
                        match batch.kind(j) {
                            OpKind::Load => {
                                self.mem.warm_access(batch.addr(j), false);
                                loads += 1;
                            }
                            OpKind::Store => {
                                self.mem.warm_access(batch.addr(j), true);
                                stores += 1;
                            }
                            OpKind::Compute => self.core.skip(batch.op(j)),
                        }
                    }
                    self.core.skip_bulk(loads, stores);
                    // simlint: allow(unwrap, reason = "sampling state checked at loop entry; skipping ops does not clear it")
                    let st = self.sampling.as_mut().expect("sampling state present");
                    st.ops_seen += run as u64;
                }
            }
            i += run;
        }
    }

    /// Migrates the page containing `va` to a fresh frame (see
    /// [`Os::migrate_page`]) and invalidates the machine's translate-cache
    /// entry for it, so the next access observes the new binding. The TLB
    /// needs no hook: it models walk *cost* only and stores no frame
    /// numbers, so a migration cannot make it wrong.
    pub fn migrate_page(&mut self, va: u64, atom: Option<AtomId>) -> Result<u64, OsError> {
        let pfn = self.mem.sys.os.migrate_page(VirtAddr::new(va), atom)?;
        self.mem.invalidate_translation(va);
        Ok(pfn)
    }

    /// Captures the current cumulative counters across all layers.
    fn snapshot(&self) -> Snapshot {
        let core = self.core.stats();
        let dram = self.mem.hierarchy.dram_stats();
        let alb = self.mem.sys.amu.alb_stats();
        let stride = self
            .mem
            .hierarchy
            .stride_prefetch_stats()
            .unwrap_or_default();
        let xmem_pf = self.mem.hierarchy.xmem_prefetch_stats();
        Snapshot {
            instructions: core.instructions,
            cycles: core.cycles,
            l1_misses: self.mem.hierarchy.l1_stats().misses(),
            l2_misses: self.mem.hierarchy.l2_stats().misses(),
            l3_misses: self.mem.hierarchy.l3_stats().misses(),
            prefetch_issued: stride.issued + xmem_pf.issued,
            prefetch_useful: stride.useful + xmem_pf.useful,
            row_hits: dram.row_hits,
            dram_accesses: dram.accesses(),
            busy_bank_cycles: self.mem.hierarchy.dram().busy_bank_cycles(),
            alb_hits: alb.hits,
            alb_lookups: alb.lookups(),
            amu_invalidations: self.mem.sys.amu.alb_invalidations(),
        }
    }

    /// Closes the current epoch: records per-epoch deltas plus
    /// instantaneous gauges, then arms the next boundary.
    fn take_sample(&mut self) {
        let Some(prev) = self.telemetry.as_ref().map(|t| t.prev) else {
            // Not enabled — only reachable if `next_sample_at` was armed
            // without state; disarm so the per-op check stays cold.
            self.next_sample_at = u64::MAX;
            return;
        };
        let cur = self.snapshot();
        let d_instr = cur.instructions - prev.instructions;
        let d_cycles = cur.cycles.saturating_sub(prev.cycles);
        let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let per_kilo = |n: u64| ratio(n, d_instr) * 1000.0;
        let now = self.core.now();
        let dram = self.mem.hierarchy.dram();
        let total_banks = dram.config().total_banks() as u64;
        let sample = TelemetrySample {
            instructions: cur.instructions,
            cycles: cur.cycles,
            ipc: ratio(d_instr, d_cycles),
            rob_load_occupancy: self.core.rob_load_occupancy() as u64,
            outstanding_loads: self.core.outstanding_loads() as u64,
            l1_mpki: per_kilo(cur.l1_misses - prev.l1_misses),
            l2_mpki: per_kilo(cur.l2_misses - prev.l2_misses),
            l3_mpki: per_kilo(cur.l3_misses - prev.l3_misses),
            l2_psel: self.mem.hierarchy.l2_psel() as f64,
            l3_psel: self.mem.hierarchy.l3_psel() as f64,
            prefetch_issued: cur.prefetch_issued - prev.prefetch_issued,
            prefetch_useful: cur.prefetch_useful - prev.prefetch_useful,
            row_hit_rate: ratio(
                cur.row_hits - prev.row_hits,
                cur.dram_accesses - prev.dram_accesses,
            ),
            bank_busy_fraction: ratio(
                cur.busy_bank_cycles - prev.busy_bank_cycles,
                d_cycles * total_banks,
            ),
            queue_depth: dram.queued_requests(now) as f64,
            alb_hit_rate: ratio(
                cur.alb_hits - prev.alb_hits,
                cur.alb_lookups - prev.alb_lookups,
            ),
            amu_invalidations: cur.amu_invalidations - prev.amu_invalidations,
        };
        // simlint: allow(unwrap, reason = "sample() is only called when next_sample_at is armed, which implies telemetry state")
        let state = self.telemetry.as_mut().expect("telemetry state present");
        let epoch = state.series.epoch_instructions;
        state.series.samples.push(sample);
        state.prev = cur;
        self.next_sample_at = (cur.instructions / epoch + 1) * epoch;
    }

    /// Final statistics plus the sampled telemetry series (when enabled).
    /// Flushes the trailing partial epoch first, so the series always
    /// covers the whole run.
    fn report_with_telemetry(mut self) -> (RunReport, Option<TelemetrySeries>) {
        if let Some(state) = &self.telemetry {
            if self.core.instructions() > state.prev.instructions {
                self.take_sample();
            }
        }
        let series = self.telemetry.take().map(|t| t.series);
        (self.report(), series)
    }

    /// Everything the run produced: report, telemetry series, and (for
    /// sampled runs) the sampling summary. Closes any detailed window
    /// still open at generator end (a run ending mid-window is measured,
    /// not dropped).
    fn finish(mut self) -> RunOutput {
        self.close_window();
        let sampling = self.sampling.take().map(|st| {
            SamplingSummary::from_windows(
                st.spec,
                st.ops_seen,
                st.detailed_ops,
                st.warm_ops,
                &st.windows,
            )
        });
        let (report, telemetry) = self.report_with_telemetry();
        RunOutput {
            report,
            telemetry,
            sampling,
        }
    }

    /// Final statistics for the run.
    fn report(mut self) -> RunReport {
        let core = self.core.stats();
        self.lib.counter_mut().count_program(core.instructions);
        RunReport {
            core,
            l1: self.mem.hierarchy.l1_stats(),
            l2: self.mem.hierarchy.l2_stats(),
            l3: self.mem.hierarchy.l3_stats(),
            dram: self.mem.hierarchy.dram_stats(),
            alb: self.mem.sys.amu.alb_stats(),
            xmem_instructions: self.lib.counter().xmem_instructions(),
            instruction_overhead: self.lib.counter().overhead_fraction(),
            xmem_prefetch: self.mem.hierarchy.xmem_prefetch_stats(),
            stride_prefetch: self.mem.hierarchy.stride_prefetch_stats(),
        }
    }
}

impl TraceSink for Machine {
    fn op(&mut self, op: Op) {
        if self.sampling.is_some() {
            self.sampled_op(op);
            return;
        }
        self.core.step(op, &mut self.mem);
        if self.core.instructions() >= self.next_sample_at {
            self.take_sample();
        }
    }

    fn op_batch(&mut self, batch: &OpBatch) {
        if self.sampling.is_some() {
            if self.next_sample_at == u64::MAX {
                // Telemetry disarmed: run the batched sampled dispatch. An
                // all-detailed batch degenerates to a single
                // `step_batch_range` over the whole buffer (plus at most one
                // ramp-snapshot split), which is why a 100%-coverage spec
                // stays byte-identical to an unsampled run.
                self.sampled_batch(batch);
            } else {
                for i in 0..batch.len() {
                    self.sampled_op(batch.op(i));
                }
            }
            return;
        }
        if self.next_sample_at == u64::MAX {
            // Telemetry disarmed: the per-op boundary check is always
            // false, so the tight batch loop is observably identical.
            self.core.step_batch(batch, &mut self.mem);
        } else {
            for i in 0..batch.len() {
                self.core.step(batch.op(i), &mut self.mem);
                if self.core.instructions() >= self.next_sample_at {
                    self.take_sample();
                }
            }
        }
    }

    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64 {
        // The page table is about to grow: drop the translate cache.
        self.mem.tc.clear();
        self.mem
            .sys
            .os
            .malloc(bytes, atom)
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("simulated physical memory exhausted")
            .raw()
    }

    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId {
        if let Some(&id) = self.labels.get(label) {
            return id;
        }
        let site = CallSite {
            file: SINK_SITE_FILE,
            line: self.next_site,
        };
        self.next_site += 1;
        let id = self
            .lib
            .create_atom(site, label, attrs)
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("atom limit exceeded");
        self.labels.insert(label.to_owned(), id);
        id
    }

    fn map(&mut self, atom: AtomId, start: u64, len: u64) {
        if !self.mem.sys.xmem_enabled {
            return;
        }
        self.lib
            .atom_map(
                &mut self.mem.sys.amu,
                self.mem.sys.os.page_table(),
                atom,
                VirtAddr::new(start),
                len,
            )
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("ATOM_MAP failed");
    }

    fn unmap(&mut self, start: u64, len: u64) {
        if !self.mem.sys.xmem_enabled {
            return;
        }
        self.lib
            .atom_unmap(
                &mut self.mem.sys.amu,
                self.mem.sys.os.page_table(),
                VirtAddr::new(start),
                len,
            )
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("ATOM_UNMAP failed");
    }

    fn map_2d(&mut self, atom: AtomId, base: u64, size_x: u64, size_y: u64, len_x: u64) {
        if !self.mem.sys.xmem_enabled {
            return;
        }
        self.lib
            .atom_map_2d(
                &mut self.mem.sys.amu,
                self.mem.sys.os.page_table(),
                atom,
                VirtAddr::new(base),
                size_x,
                size_y,
                len_x,
            )
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("ATOM_MAP2D failed");
    }

    fn unmap_2d(&mut self, base: u64, size_x: u64, size_y: u64, len_x: u64) {
        if !self.mem.sys.xmem_enabled {
            return;
        }
        self.lib
            .atom_unmap_2d(
                &mut self.mem.sys.amu,
                self.mem.sys.os.page_table(),
                VirtAddr::new(base),
                size_x,
                size_y,
                len_x,
            )
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("ATOM_UNMAP2D failed");
    }

    fn activate(&mut self, atom: AtomId) {
        if !self.mem.sys.xmem_enabled {
            return;
        }
        self.lib
            .atom_activate(&mut self.mem.sys.amu, self.mem.sys.os.page_table(), atom)
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("ATOM_ACTIVATE failed");
    }

    fn deactivate(&mut self, atom: AtomId) {
        if !self.mem.sys.xmem_enabled {
            return;
        }
        self.lib
            .atom_deactivate(&mut self.mem.sys.amu, self.mem.sys.os.page_table(), atom)
            // simlint: allow(unwrap, reason = "workload-invariant violation; the sweep's catch_unwind surfaces it as RunOutcome::Failed")
            .expect("ATOM_DEACTIVATE failed");
    }
}

/// Runs `generate` on a machine configured by `config`, returning run
/// statistics. Deterministic: identical inputs give identical reports.
///
/// # Examples
///
/// ```
/// use xmem_sim::{run_workload, SystemConfig, SystemKind};
/// use workloads::polybench::{KernelParams, PolybenchKernel};
///
/// let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
/// let p = KernelParams { n: 24, tile_bytes: 2048, steps: 2, reuse: 200 };
/// let report = run_workload(&cfg, |sink| PolybenchKernel::Gemm.generate(&p, sink));
/// assert!(report.core.cycles > 0);
/// ```
pub fn run_workload(config: &SystemConfig, generate: impl Fn(&mut dyn TraceSink)) -> RunReport {
    run_workload_with_telemetry(config, None, generate).0
}

/// Like [`run_workload`], additionally sampling a [`TelemetrySeries`] every
/// `epoch_instructions` retired instructions when `Some`. Telemetry is
/// observational only: the returned [`RunReport`] is identical whether or
/// not sampling is enabled, and a disabled run costs one integer compare
/// per op.
///
/// # Examples
///
/// ```
/// use xmem_sim::{run_workload_with_telemetry, SystemConfig, SystemKind};
/// use workloads::polybench::{KernelParams, PolybenchKernel};
///
/// let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
/// let p = KernelParams { n: 24, tile_bytes: 2048, steps: 2, reuse: 200 };
/// let (report, series) = run_workload_with_telemetry(&cfg, Some(1_000), |sink| {
///     PolybenchKernel::Gemm.generate(&p, sink)
/// });
/// let series = series.expect("telemetry was enabled");
/// assert_eq!(
///     series.samples.last().map(|s| s.instructions),
///     Some(report.core.instructions)
/// );
/// ```
pub fn run_workload_with_telemetry(
    config: &SystemConfig,
    epoch_instructions: Option<u64>,
    generate: impl Fn(&mut dyn TraceSink),
) -> (RunReport, Option<TelemetrySeries>) {
    let out = run_generator_sampled(config, epoch_instructions, None, &ClosureGen(generate));
    (out.report, out.telemetry)
}

/// A workload generator the two-pass runner can replay into any sink type.
///
/// The generic method is the point: implementors written against a concrete
/// `S` monomorphize, so the executing pass inlines generator → batch
/// emitter → machine with no per-op virtual dispatch. `dyn TraceSink` still
/// satisfies `S` (it is `?Sized`), which is how the closure-based
/// [`run_workload`] entry points reuse the same flow.
pub trait Generator {
    /// Replays the workload into `sink`. Must be deterministic: the runner
    /// calls this twice (scan pass, then execute pass) and the two replays
    /// must emit the same trace.
    fn emit<S: TraceSink + ?Sized>(&self, sink: &mut S);
}

/// Adapts a `Fn(&mut dyn TraceSink)` closure to [`Generator`] for the
/// dyn-dispatch entry points ([`run_workload`] and friends).
struct ClosureGen<F: Fn(&mut dyn TraceSink)>(F);

impl<F: Fn(&mut dyn TraceSink)> Generator for ClosureGen<F> {
    fn emit<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        // `S` may itself be unsized, so it can't coerce to `dyn TraceSink`
        // directly; the Sized forwarder below can.
        (self.0)(&mut ForwardSink(sink));
    }
}

/// Sized shim forwarding every [`TraceSink`] method to a possibly-unsized
/// inner sink, so `&mut S` can be handed to a `&mut dyn TraceSink` closure.
struct ForwardSink<'a, S: TraceSink + ?Sized>(&'a mut S);

impl<S: TraceSink + ?Sized> TraceSink for ForwardSink<'_, S> {
    fn op(&mut self, op: Op) {
        self.0.op(op);
    }
    fn op_batch(&mut self, batch: &OpBatch) {
        self.0.op_batch(batch);
    }
    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64 {
        self.0.alloc(bytes, atom)
    }
    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId {
        self.0.create_atom(label, attrs)
    }
    fn map(&mut self, atom: AtomId, start: u64, len: u64) {
        self.0.map(atom, start, len);
    }
    fn unmap(&mut self, start: u64, len: u64) {
        self.0.unmap(start, len);
    }
    fn map_2d(&mut self, atom: AtomId, base: u64, size_x: u64, size_y: u64, len_x: u64) {
        self.0.map_2d(atom, base, size_x, size_y, len_x);
    }
    fn unmap_2d(&mut self, base: u64, size_x: u64, size_y: u64, len_x: u64) {
        self.0.unmap_2d(base, size_x, size_y, len_x);
    }
    fn activate(&mut self, atom: AtomId) {
        self.0.activate(atom);
    }
    fn deactivate(&mut self, atom: AtomId) {
        self.0.deactivate(atom);
    }
}

/// Everything one simulated run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Final cumulative statistics. Under partial-coverage sampling these
    /// are a warm+detailed mixture — read the sampled estimates from
    /// [`RunOutput::sampling`] instead.
    pub report: RunReport,
    /// Epoch-sampled telemetry series, when enabled.
    pub telemetry: Option<TelemetrySeries>,
    /// Interval-sampling summary, when a [`SamplingSpec`] was set.
    pub sampling: Option<SamplingSummary>,
}

/// Runs the two-pass simulation for a [`Generator`], monomorphized over the
/// concrete sink type of each pass. [`RunSpec::execute`] routes here, so
/// sweep runs pay zero per-op virtual dispatch on the generation side.
///
/// With a [`SamplingSpec`] the run executes under interval sampling.
/// `None` runs fully detailed; a 100%-coverage spec
/// ([`SamplingSpec::full_coverage`]) produces a report byte-identical to
/// `None` (the byte-identity suite pins this).
///
/// [`RunSpec::execute`]: crate::harness::RunSpec::execute
pub fn run_generator_sampled<G: Generator>(
    config: &SystemConfig,
    epoch_instructions: Option<u64>,
    sampling: Option<SamplingSpec>,
    generator: &G,
) -> RunOutput {
    // Pass 1: compile-time summarization.
    let mut scan = ScanSink::new();
    generator.emit(&mut scan);
    let segment = scan.segment();
    // Load time: GAT + translator + PATs + placement primitives.
    let mut machine = Machine::new(config, &segment);
    if let Some(epoch) = epoch_instructions {
        machine.enable_telemetry(epoch);
    }
    if let Some(spec) = sampling {
        machine.enable_sampling(spec);
    }
    // Execution: generators emit per-op; the BatchEmitter buffers ops into
    // OpBatches and the machine executes them through the batched path.
    {
        let mut emitter = BatchEmitter::new(&mut machine);
        generator.emit(&mut emitter);
        // Explicit tail flush: drop-without-flush is a debug assertion on
        // the emitter, so the trailing partial batch is always accounted.
        emitter.flush();
    }
    machine.finish()
}

/// Scalar reference arm for the byte-identity suite: identical to
/// [`run_workload`] except the generator drives the machine one op at a
/// time — no [`BatchEmitter`], the pre-batching execution shape. Exists so
/// tests can prove the batched path changes nothing; not part of the
/// supported API.
#[doc(hidden)]
pub fn run_workload_scalar(
    config: &SystemConfig,
    generate: impl Fn(&mut dyn TraceSink),
) -> RunReport {
    let mut scan = ScanSink::new();
    generate(&mut scan);
    let segment = scan.segment();
    let mut machine = Machine::new(config, &segment);
    generate(&mut machine);
    machine.report()
}

/// Scalar reference arm for *sampled* execution: identical to
/// [`run_generator_sampled`] (without telemetry) except the generator
/// drives the machine one op at a time, so every op takes the scalar
/// [`Machine::sampled_op`] dispatch. Exists so tests can prove the
/// batched sampled dispatch — phase-run loops, bulk skip accounting,
/// ramp-split snapshots — changes nothing; not part of the supported API.
#[doc(hidden)]
pub fn run_workload_sampled_scalar(
    config: &SystemConfig,
    spec: SamplingSpec,
    generate: impl Fn(&mut dyn TraceSink),
) -> RunOutput {
    let mut scan = ScanSink::new();
    generate(&mut scan);
    let segment = scan.segment();
    let mut machine = Machine::new(config, &segment);
    machine.enable_sampling(spec);
    generate(&mut machine);
    machine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use workloads::polybench::{KernelParams, PolybenchKernel};

    fn params() -> KernelParams {
        KernelParams {
            n: 24,
            tile_bytes: 2048,
            steps: 2,
            reuse: 200,
        }
    }

    #[test]
    fn baseline_and_xmem_run_same_work() {
        let p = params();
        let base = run_workload(
            &SystemConfig::scaled_use_case1(64 << 10, SystemKind::Baseline),
            |s| PolybenchKernel::Gemm.generate(&p, s),
        );
        let xmem = run_workload(
            &SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem),
            |s| PolybenchKernel::Gemm.generate(&p, s),
        );
        assert_eq!(base.core.instructions, xmem.core.instructions);
        assert_eq!(base.core.loads, xmem.core.loads);
        assert_eq!(base.xmem_instructions, 0);
        assert!(xmem.xmem_instructions > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let p = params();
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
        let a = run_workload(&cfg, |s| PolybenchKernel::Syrk.generate(&p, s));
        let b = run_workload(&cfg, |s| PolybenchKernel::Syrk.generate(&p, s));
        assert_eq!(a.core, b.core);
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    fn alb_sees_traffic_with_xmem() {
        let p = params();
        let cfg = SystemConfig::scaled_use_case1(32 << 10, SystemKind::Xmem);
        let r = run_workload(&cfg, |s| PolybenchKernel::Gemm.generate(&p, s));
        assert!(r.alb.lookups() > 0);
        assert!(r.alb.hit_rate() > 0.5, "ALB hit rate {}", r.alb.hit_rate());
    }

    #[test]
    fn tlb_adds_walk_cost_but_preserves_work() {
        let p = params();
        let base_cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Baseline);
        let tlb_cfg = base_cfg.with_tlb();
        let without = run_workload(&base_cfg, |s| PolybenchKernel::Gemm.generate(&p, s));
        let with = run_workload(&tlb_cfg, |s| PolybenchKernel::Gemm.generate(&p, s));
        assert_eq!(without.core.instructions, with.core.instructions);
        assert!(
            with.core.cycles > without.core.cycles,
            "page walks must cost time: {} vs {}",
            with.core.cycles,
            without.core.cycles
        );
        // Small footprint → high TLB hit rate → bounded overhead.
        assert!((with.core.cycles as f64) < without.core.cycles as f64 * 1.5);
    }

    #[test]
    fn telemetry_does_not_perturb_the_run() {
        let p = params();
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
        let plain = run_workload(&cfg, |s| PolybenchKernel::Gemm.generate(&p, s));
        let (sampled, series) =
            run_workload_with_telemetry(&cfg, Some(500), |s| PolybenchKernel::Gemm.generate(&p, s));
        assert_eq!(plain, sampled, "sampling must be observational only");
        assert!(series.is_some());
        let (unsampled, none) =
            run_workload_with_telemetry(&cfg, None, |s| PolybenchKernel::Gemm.generate(&p, s));
        assert_eq!(plain, unsampled);
        assert!(none.is_none());
    }

    #[test]
    fn telemetry_covers_the_whole_run_in_epoch_order() {
        let p = params();
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
        let epoch = 1_000;
        let (report, series) = run_workload_with_telemetry(&cfg, Some(epoch), |s| {
            PolybenchKernel::Gemm.generate(&p, s)
        });
        let series = series.expect("telemetry enabled");
        assert_eq!(series.epoch_instructions, epoch);
        assert!(
            series.samples.len() as u64 >= report.core.instructions / epoch,
            "one sample per epoch at minimum: {} samples for {} instructions",
            series.samples.len(),
            report.core.instructions
        );
        // The final (possibly partial) epoch is flushed at report time.
        assert_eq!(
            series.samples.last().map(|s| s.instructions),
            Some(report.core.instructions)
        );
        for pair in series.samples.windows(2) {
            assert!(pair[0].instructions < pair[1].instructions);
            assert!(pair[0].cycles <= pair[1].cycles);
        }
        // Epochs with work in them report sane rates.
        let first = &series.samples[0];
        assert!(first.ipc > 0.0 && first.ipc <= cfg.core.issue_width as f64);
        assert!(first.l1_mpki >= 0.0);
        // Each sample closes a distinct epoch. A multi-instruction op can
        // overshoot the boundary slightly, but never by a full epoch, and
        // two samples never land in the same epoch.
        for (i, s) in series.samples.iter().enumerate() {
            assert!(s.instructions > i as u64 * epoch, "sample {i}: {s:?}");
        }
        for pair in series.samples.windows(2) {
            assert!(
                pair[0].instructions / epoch < pair[1].instructions.div_ceil(epoch),
                "samples share an epoch: {pair:?}"
            );
        }
    }

    #[test]
    fn telemetry_sees_xmem_activity() {
        let p = params();
        let cfg = SystemConfig::scaled_use_case1(32 << 10, SystemKind::Xmem);
        let (report, series) = run_workload_with_telemetry(&cfg, Some(2_000), |s| {
            PolybenchKernel::Gemm.generate(&p, s)
        });
        let series = series.expect("telemetry enabled");
        let sampled_lookup_hits: f64 = series.samples.iter().map(|s| s.alb_hit_rate).sum();
        assert!(
            sampled_lookup_hits > 0.0,
            "ALB activity must appear in the series"
        );
        assert!(report.alb.lookups() > 0);
    }

    /// A bare machine over an empty program, for tests that drive the
    /// sink interface directly.
    fn bare_machine(cfg: &SystemConfig) -> Machine {
        Machine::new(cfg, &ScanSink::new().segment())
    }

    #[test]
    fn translate_cache_invalidated_on_page_migration() {
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Baseline);
        let mut m = bare_machine(&cfg);
        let va = m.alloc(4096, None);
        // Make the page's translate-cache entry hot.
        m.op(Op::load(va + 8));
        let old_pa = m.mem.translate(va + 8);
        let new_pfn = m.migrate_page(va, None).expect("mapped page migrates");
        // The regression: before the invalidation hook, the stale cached
        // PFN survived the remap and this still returned `old_pa`.
        let new_pa = m.mem.translate(va + 8);
        assert_ne!(new_pa, old_pa, "stale translation served after migration");
        assert_eq!(new_pa, (new_pfn << 12) | 8, "offset preserved in new frame");
        // Accesses keep flowing through the migrated page.
        m.op(Op::load(va + 64));
        m.op(Op::store(va + 128));
        assert!(m.core.stats().loads == 2 && m.core.stats().stores == 1);
    }

    #[test]
    fn migrating_an_unmapped_page_is_an_error() {
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Baseline);
        let mut m = bare_machine(&cfg);
        assert_eq!(m.migrate_page(0x7000_0000, None), Err(OsError::NotMapped));
    }

    #[test]
    fn final_epoch_on_exact_boundary_emits_no_degenerate_sample() {
        // 1000 single-instruction compute ops with epoch 500: the run ends
        // exactly on an epoch boundary, so the second sample *is* the final
        // epoch — no empty trailing flush, no zero-delta division.
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Baseline);
        let (report, series) = run_workload_with_telemetry(&cfg, Some(500), |s| {
            for _ in 0..1000 {
                s.compute(1);
            }
        });
        assert_eq!(report.core.instructions, 1000);
        let series = series.expect("telemetry enabled");
        assert_eq!(
            series.samples.len(),
            2,
            "one sample per epoch, nothing extra"
        );
        let last = &series.samples[1];
        assert_eq!(last.instructions, 1000);
        assert!(last.ipc.is_finite() && last.ipc > 0.0);
        for s in &series.samples {
            for v in [
                s.ipc,
                s.l1_mpki,
                s.l2_mpki,
                s.l3_mpki,
                s.row_hit_rate,
                s.alb_hit_rate,
                s.bank_busy_fraction,
                s.queue_depth,
            ] {
                assert!(v.is_finite(), "rate field must stay finite: {s:?}");
            }
            // A compute-only run has zero activations/lookups: the rate
            // guards must pin these to exactly 0, never NaN.
            assert!(s.row_hit_rate.abs() < 1e-12, "{s:?}");
            assert!(s.alb_hit_rate.abs() < 1e-12, "{s:?}");
            assert!(s.l1_mpki.abs() < 1e-12, "{s:?}");
        }
    }

    #[test]
    fn zero_cycle_epoch_reports_zero_ipc_not_nan() {
        // Epoch of 1 instruction with a wide issue core: several epochs
        // close within the same cycle, so their cycle delta is zero and
        // the IPC guard must return 0.0 rather than dividing.
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Baseline);
        let (_, series) = run_workload_with_telemetry(&cfg, Some(1), |s| {
            for _ in 0..8 {
                s.compute(1);
            }
        });
        let series = series.expect("telemetry enabled");
        assert!(series.samples.len() >= 4);
        assert!(series.samples.iter().all(|s| s.ipc.is_finite()));
        assert!(
            series.samples.iter().any(|s| s.ipc.abs() < 1e-12),
            "a zero-cycle epoch must hit the guard: {:?}",
            series.samples
        );
    }

    #[test]
    fn full_coverage_sampling_is_byte_identical_to_full_execution() {
        let p = params();
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
        let generator = ClosureGen(|s: &mut dyn TraceSink| PolybenchKernel::Gemm.generate(&p, s));
        let plain = run_generator_sampled(&cfg, None, None, &generator).report;
        let sampled = run_generator_sampled(
            &cfg,
            None,
            Some(crate::sampling::SamplingSpec::full_coverage()),
            &generator,
        );
        assert_eq!(plain, sampled.report, "100% coverage must change nothing");
        let summary = sampled.sampling.expect("sampled run carries a summary");
        assert_eq!(summary.detailed_ops, summary.total_ops);
        assert_eq!(summary.warm_ops, 0);
        assert!(summary.total_ops > 0);
        assert!((summary.coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_sampling_is_deterministic_and_tracks_the_full_run() {
        let p = params();
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
        let generator = ClosureGen(|s: &mut dyn TraceSink| PolybenchKernel::Gemm.generate(&p, s));
        // The measured half of each window (window/2, after the ramp) must
        // span several DRAM latencies of cycles for the open/close overhang
        // to cancel, so the windows here are deliberately sizeable.
        let spec = SamplingSpec {
            warmup_ops: 1_000,
            window_ops: 4_000,
            interval: 20_000,
        };
        let out = run_generator_sampled(&cfg, None, Some(spec), &generator);
        let again = run_generator_sampled(&cfg, None, Some(spec), &generator);
        assert_eq!(out.report, again.report, "sampled runs are deterministic");
        assert_eq!(out.sampling, again.sampling);
        let summary = out.sampling.expect("summary present");
        assert!(
            summary.windows > 0,
            "the run is long enough to open windows"
        );
        assert!(summary.detailed_ops < summary.total_ops);
        assert!(summary.coverage < 0.5);
        assert_eq!(summary.spec, spec);
        assert!(!summary.clusters.is_empty());
        // The sampled IPC estimate lands near the full run's IPC.
        let full = run_generator_sampled(&cfg, None, None, &generator).report;
        let full_ipc = full.core.instructions as f64 / full.core.cycles as f64;
        let est = summary.metric("ipc").expect("ipc metric present");
        assert!(est.mean > 0.0 && est.min <= est.mean && est.mean <= est.max);
        let err = (est.mean - full_ipc).abs() / full_ipc;
        assert!(
            err < 0.25,
            "sampled IPC {} vs full {full_ipc} (err {err})",
            est.mean
        );
    }

    #[test]
    fn instruction_overhead_is_tiny() {
        let p = params();
        let cfg = SystemConfig::scaled_use_case1(64 << 10, SystemKind::Xmem);
        let r = run_workload(&cfg, |s| PolybenchKernel::Gemm.generate(&p, s));
        assert!(
            r.instruction_overhead < 0.005,
            "overhead {}",
            r.instruction_overhead
        );
    }
}
