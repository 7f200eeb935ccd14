//! Isolated layer replays: a recorded op stream run through one layer at a
//! time, outside the machine. These are cost estimates per layer, not an
//! attribution of the real run's time: the replayed layer sees the same
//! addresses but none of the other layers' feedback.

use crate::stats::Counts;
use cache_sim::{CacheStats, Hierarchy, HierarchyConfig, XmemMode};
use cpu_sim::trace::Op;
use cpu_sim::{Core, CoreConfig, CoreStats, FixedLatency, OpBatch};
use dram_sim::{AddressMapping, Dram, DramConfig, DramStats};
use os_sim::{PageTable, Tlb, TlbConfig, TlbStats};
use std::hint::black_box;
use std::time::Instant;
use xmem_core::addr::VirtAddr;
use xmem_core::amu::Mmu;

const PAGE: u64 = 4096;

/// The machine a replay stands in for.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    pub core: CoreConfig,
    pub hierarchy: HierarchyConfig,
    pub dram: DramConfig,
    pub mapping: AddressMapping,
}

/// One point's replay through each layer.
#[derive(Debug, Clone)]
pub struct Replay {
    pub ops: u64,
    pub mem_ops: u64,
    pub core_ns: u64,
    pub core: CoreStats,
    pub cache_ns: u64,
    pub l1: CacheStats,
    pub l2: CacheStats,
    pub l3: CacheStats,
    pub dram: DramStats,
    pub translate_ns: u64,
    pub tlb: TlbStats,
    pub pages: usize,
}

/// Replays `ops` through:
/// * `Core::step_batch` against a `FixedLatency` memory of `load_latency`
///   cycles (the real run's average load latency);
/// * `PageTable::translate` plus `Tlb::translate_cost` (frames handed out
///   in first-touch order);
/// * `Hierarchy::serve` with its `Dram`, in Baseline mode (no AMU), one
///   access at a time with the clock advanced by each access's latency.
pub fn replay(ops: &[Op], machine: &Machine, load_latency: u64) -> Replay {
    let mut batches = Vec::new();
    let mut batch = OpBatch::new();
    let mut accesses = Vec::new();
    let mut table = PageTable::new(PAGE);
    let mut next_frame = 0u64;
    for &op in ops {
        batch.push_op(op, 0);
        if batch.is_full() {
            batches.push(std::mem::take(&mut batch));
        }
        let (va, write) = match op {
            Op::Compute(_) => continue,
            Op::Load { addr, .. } => (addr, false),
            Op::Store { addr } => (addr, true),
        };
        if table.frame_of(va / PAGE).is_none() {
            table.map_page(va / PAGE, next_frame);
            next_frame += 1;
        }
        accesses.push((va, write));
    }
    if !batch.is_empty() {
        batches.push(batch);
    }

    let mut core = Core::new(machine.core);
    let mut mem = FixedLatency {
        latency: load_latency.max(1),
    };
    let t = Instant::now();
    for b in &batches {
        core.step_batch(b, &mut mem);
    }
    let core_ns = t.elapsed().as_nanos() as u64;

    let mut tlb = Tlb::new(TlbConfig::default());
    let mut pas = Vec::with_capacity(accesses.len());
    let t = Instant::now();
    let mut walk_cycles = 0u64;
    for &(va, _) in &accesses {
        let va = VirtAddr::new(va);
        walk_cycles += tlb.translate_cost(va);
        let pa = table.translate(va).expect("every replayed page is mapped");
        pas.push(pa.raw());
    }
    let translate_ns = t.elapsed().as_nanos() as u64;
    black_box(walk_cycles);

    let hierarchy = HierarchyConfig {
        xmem: XmemMode::Off,
        ..machine.hierarchy
    };
    let mut caches = Hierarchy::new(hierarchy, Dram::new(machine.dram, machine.mapping));
    let mut now = 0u64;
    let t = Instant::now();
    for (&pa, &(_, write)) in pas.iter().zip(&accesses) {
        now += caches.serve(pa, write, now, None).max(1);
    }
    let cache_ns = t.elapsed().as_nanos() as u64;

    Replay {
        ops: ops.len() as u64,
        mem_ops: accesses.len() as u64,
        core_ns,
        core: core.stats(),
        cache_ns,
        l1: caches.l1_stats(),
        l2: caches.l2_stats(),
        l3: caches.l3_stats(),
        dram: caches.dram_stats(),
        translate_ns,
        tlb: tlb.stats(),
        pages: table.mapped_pages(),
    }
}

/// A side-by-side table of a replay's simulated counts and the real run's.
/// The replay covers a prefix of the point; `real_ops` is the whole
/// point's op count.
pub fn compare(label: &str, r: &Replay, real: &Counts, real_ops: u64) -> String {
    let row = |name: &str, replay: String, real: String| {
        format!("    {name:<22} {replay:>14} {real:>14}\n")
    };
    let mut s = format!(
        "  replay of {label}\n    {:<22} {:>14} {:>14}\n",
        "", "replay", "real run"
    );
    s += &row("ops", r.ops.to_string(), real_ops.to_string());
    s += &row("mem ops", r.mem_ops.to_string(), real.mem_ops().to_string());
    s += &row(
        "ipc",
        format!("{:.3}", r.core.ipc()),
        format!("{:.3}", crate::stats::ratio(real.instructions, real.cycles)),
    );
    for (name, a, b) in [
        ("l1", &r.l1, &real.l1),
        ("l2", &r.l2, &real.l2),
        ("l3", &r.l3, &real.l3),
    ] {
        s += &row(
            &format!("{name} accesses / hit"),
            format!("{} / {:.3}", a.accesses, a.hit_rate()),
            format!("{} / {:.3}", b.accesses, b.hit_rate()),
        );
    }
    s += &row(
        "dram accesses / rowhit",
        format!("{} / {:.3}", r.dram.accesses(), r.dram.row_hit_rate()),
        format!(
            "{} / {:.3}",
            real.dram_accesses(),
            crate::stats::ratio(real.dram_row_hits, real.dram_accesses())
        ),
    );
    s += &row(
        "tlb hit rate / pages",
        format!("{:.3} / {}", r.tlb.hit_rate(), r.pages),
        "no TLB".to_string(),
    );
    s
}
