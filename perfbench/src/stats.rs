//! Simulated counters summed per workload, order statistics, and the host
//! fingerprint.

use cache_sim::{CacheStats, PrefetchStats};
use cpu_sim::CoreStats;
use dram_sim::DramStats;
use xmem_core::alb::AlbStats;
use xmem_sim::{CorunReport, RunReport, SamplingSummary};

/// Simulated counters of one point, or summed over many. Every field is an
/// exact count, so sums repeat bit for bit and ratios are ratios of sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub cycles: u64,
    pub instructions: u64,
    pub loads: u64,
    pub stores: u64,
    pub load_latency: u64,
    pub l1: CacheStats,
    pub l2: CacheStats,
    pub l3: CacheStats,
    pub stride_pf: PrefetchStats,
    pub xmem_pf: PrefetchStats,
    pub alb: AlbStats,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub dram_row_hits: u64,
    pub dram_read_latency: u64,
    pub detailed_ops: u64,
    pub warm_ops: u64,
    pub total_ops: u64,
    pub bus_transactions: u64,
    /// `bus_rd + bus_rdx + bus_upgr`, kept apart for the identity check.
    pub bus_parts: u64,
    pub c2c_transfers: u64,
    pub invalidations: u64,
    pub stall_cycles: u64,
}

fn add_cache(a: &mut CacheStats, b: &CacheStats) {
    a.accesses += b.accesses;
    a.hits += b.hits;
    a.fills += b.fills;
    a.evictions += b.evictions;
    a.writebacks += b.writebacks;
    a.snoop_invalidations += b.snoop_invalidations;
    a.snoop_writebacks += b.snoop_writebacks;
}

fn add_pf(a: &mut PrefetchStats, b: &PrefetchStats) {
    a.issued += b.issued;
    a.useful += b.useful;
}

impl Counts {
    fn add_core(&mut self, c: &CoreStats) {
        self.cycles += c.cycles;
        self.instructions += c.instructions;
        self.loads += c.loads;
        self.stores += c.stores;
        self.load_latency += c.total_load_latency;
    }

    fn add_dram(&mut self, d: &DramStats) {
        self.dram_reads += d.reads;
        self.dram_writes += d.writes;
        self.dram_row_hits += d.row_hits;
        self.dram_read_latency += d.total_read_latency;
    }

    fn add_alb(&mut self, a: &AlbStats) {
        self.alb.hits += a.hits;
        self.alb.misses += a.misses;
    }

    /// The counters of one single-core point.
    pub fn of_run(r: &RunReport, sampling: Option<&SamplingSummary>) -> Counts {
        let mut c = Counts::default();
        c.add_core(&r.core);
        add_cache(&mut c.l1, &r.l1);
        add_cache(&mut c.l2, &r.l2);
        add_cache(&mut c.l3, &r.l3);
        if let Some(pf) = &r.stride_prefetch {
            add_pf(&mut c.stride_pf, pf);
        }
        add_pf(&mut c.xmem_pf, &r.xmem_prefetch);
        c.add_alb(&r.alb);
        c.add_dram(&r.dram);
        if let Some(s) = sampling {
            c.detailed_ops = s.detailed_ops;
            c.warm_ops = s.warm_ops;
            c.total_ops = s.total_ops;
        }
        c
    }

    /// The counters of one co-run point, summed over its cores.
    pub fn of_corun(r: &CorunReport) -> Counts {
        let mut c = Counts::default();
        for core in &r.cores {
            c.add_core(core);
        }
        for l1 in &r.l1s {
            add_cache(&mut c.l1, l1);
        }
        for l2 in &r.l2s {
            add_cache(&mut c.l2, l2);
        }
        add_cache(&mut c.l3, &r.l3);
        c.add_alb(&r.alb);
        c.add_dram(&r.dram);
        c.bus_transactions = r.bus.transactions();
        c.bus_parts = r.bus.bus_rd + r.bus.bus_rdx + r.bus.bus_upgr;
        c.c2c_transfers = r.bus.c2c_transfers;
        c.invalidations = r.bus.invalidations;
        c.stall_cycles = r.bus.stall_cycles;
        c
    }

    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.instructions += o.instructions;
        self.loads += o.loads;
        self.stores += o.stores;
        self.load_latency += o.load_latency;
        add_cache(&mut self.l1, &o.l1);
        add_cache(&mut self.l2, &o.l2);
        add_cache(&mut self.l3, &o.l3);
        add_pf(&mut self.stride_pf, &o.stride_pf);
        add_pf(&mut self.xmem_pf, &o.xmem_pf);
        self.add_alb(&o.alb);
        self.dram_reads += o.dram_reads;
        self.dram_writes += o.dram_writes;
        self.dram_row_hits += o.dram_row_hits;
        self.dram_read_latency += o.dram_read_latency;
        self.detailed_ops += o.detailed_ops;
        self.warm_ops += o.warm_ops;
        self.total_ops += o.total_ops;
        self.bus_transactions += o.bus_transactions;
        self.bus_parts += o.bus_parts;
        self.c2c_transfers += o.c2c_transfers;
        self.invalidations += o.invalidations;
        self.stall_cycles += o.stall_cycles;
    }

    /// Simulated loads plus stores.
    pub fn mem_ops(&self) -> u64 {
        self.loads + self.stores
    }

    /// DRAM reads plus writes.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_reads + self.dram_writes
    }

    /// The simulated per-layer metrics, named as in `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let hit = |c: &CacheStats| c.hit_rate();
        vec![
            ("cpu-sim.instructions", self.instructions as f64),
            ("cpu-sim.mem_ops", self.mem_ops() as f64),
            ("cpu-sim.ipc", ratio(self.instructions, self.cycles)),
            (
                "cpu-sim.avg_load_latency",
                ratio(self.load_latency, self.loads),
            ),
            ("cache-sim.l1.accesses", self.l1.accesses as f64),
            ("cache-sim.l1.hit_rate", hit(&self.l1)),
            ("cache-sim.l1.writebacks", self.l1.writebacks as f64),
            ("cache-sim.l2.accesses", self.l2.accesses as f64),
            ("cache-sim.l2.hit_rate", hit(&self.l2)),
            ("cache-sim.l2.writebacks", self.l2.writebacks as f64),
            ("cache-sim.l3.accesses", self.l3.accesses as f64),
            ("cache-sim.l3.hit_rate", hit(&self.l3)),
            ("cache-sim.l3.writebacks", self.l3.writebacks as f64),
            ("cache-sim.stride_pf.issued", self.stride_pf.issued as f64),
            ("cache-sim.stride_pf.accuracy", self.stride_pf.accuracy()),
            ("cache-sim.xmem_pf.issued", self.xmem_pf.issued as f64),
            ("cache-sim.xmem_pf.accuracy", self.xmem_pf.accuracy()),
            ("xmem-core.alb.lookups", self.alb.lookups() as f64),
            ("xmem-core.alb.hit_rate", self.alb.hit_rate()),
            ("dram-sim.accesses", self.dram_accesses() as f64),
            (
                "dram-sim.row_hit_rate",
                ratio(self.dram_row_hits, self.dram_accesses()),
            ),
            (
                "dram-sim.avg_read_latency",
                ratio(self.dram_read_latency, self.dram_reads),
            ),
            ("sim.sampling.detailed_ops", self.detailed_ops as f64),
            ("sim.sampling.warm_ops", self.warm_ops as f64),
            (
                "sim.sampling.coverage",
                ratio(self.detailed_ops, self.total_ops),
            ),
            (
                "cache-sim.coherence.bus_transactions",
                self.bus_transactions as f64,
            ),
            (
                "cache-sim.coherence.c2c_transfers",
                self.c2c_transfers as f64,
            ),
            (
                "cache-sim.coherence.invalidations",
                self.invalidations as f64,
            ),
            ("cache-sim.coherence.stall_cycles", self.stall_cycles as f64),
        ]
    }
}

/// `n / d`, 0 when `d` is 0.
pub fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Order statistics of a sample: the quartiles, p90, and the tail — the
/// highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    /// `(percentile, value)`; `None` with fewer than 11 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `xs` (not empty).
    pub fn of(xs: &[f64]) -> Summary {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let tail = (n >= 11).then(|| {
            let i = n - 11;
            (100.0 * (i + 1) as f64 / n as f64, v[i])
        });
        Summary {
            n,
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            p90: quantile(&v, 0.9),
            tail,
        }
    }
}

/// Linear-interpolated quantile of sorted `v` (not empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, CPU model and kernel release of the host.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    format!("nproc={nproc} cpu=\"{cpu}\" kernel={kernel}")
}
