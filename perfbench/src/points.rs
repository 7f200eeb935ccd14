//! The four workloads as lists of simulation points, built from the seed.
//!
//! The simulator only ever sees what is built here: run specs for the
//! single-core workloads and recorded `LogSink` logs for the co-runs.

use cpu_sim::trace::Op;
use workloads::hog::stream_hog;
use workloads::placement::PlacementWorkload;
use workloads::polybench::PolybenchKernel;
use workloads::shared::{lock_counter, producer_consumer, read_mostly_reader, PcRole};
use workloads::sink::{LogSink, TraceEvent, TraceSink};
use xmem_bench::{fmt_bytes, uc1_params, FIG5_L3, UC1_N};
use xmem_core::atom::AtomId;
use xmem_core::attrs::{AtomAttributes, Reuse};
use xmem_sim::{
    placement_specs, CoherenceMode, FramePolicyKind, KernelRun, MultiCoreConfig, RunSpec,
    SamplingSpec, ScanSink, SystemKind, Uc2System,
};

/// The seed whose outputs the committed goldens describe. It reproduces the
/// figure binaries' own inputs (fig7's frame seed, corun_shared's streams).
pub const DEFAULT_SEED: u64 = 0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The fig5 grid: cache-friendly, generator/core/L1/L2 bound.
    Uc1Kernels,
    /// The fig7 placement mixes: DRAM bound.
    Uc2Placement,
    /// The shared-data co-run scenarios: the multicore/bus path.
    CorunMesi,
    /// The fig5 grid under interval sampling: the warming path.
    Uc1Sampled,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 4] = [
        Workload::Uc1Kernels,
        Workload::Uc2Placement,
        Workload::CorunMesi,
        Workload::Uc1Sampled,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Uc1Kernels => "uc1_kernels",
            Workload::Uc2Placement => "uc2_placement",
            Workload::CorunMesi => "corun_mesi",
            Workload::Uc1Sampled => "uc1_sampled",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The interval-sampling schedule the workload runs under.
    pub fn sampling(self) -> Option<SamplingSpec> {
        (self == Workload::Uc1Sampled).then_some(SamplingSpec::DEFAULT)
    }
}

/// One co-run scenario: a recorded log per core.
#[derive(Debug)]
pub struct Scenario {
    /// Scenario name (`pc`, `readers`, `lock`, `mixed`).
    pub name: &'static str,
    /// One log per core.
    pub logs: Vec<Vec<TraceEvent>>,
}

/// One co-run point: a scenario on one machine variant.
#[derive(Debug)]
pub struct CorunJob {
    /// `<scenario>/<variant>`.
    pub label: String,
    /// The multicore machine.
    pub config: MultiCoreConfig,
    /// Index into [`Points::Corun::scenarios`].
    pub scenario: usize,
}

/// A workload's points.
#[derive(Debug)]
pub enum Points {
    /// Single-core points, run through the sweep engine.
    Single {
        /// One spec per point.
        specs: Vec<RunSpec>,
        /// The sampling schedule (`None` = fully detailed).
        sampling: Option<SamplingSpec>,
    },
    /// Co-run points, run through `run_corun`.
    Corun {
        /// The recorded scenarios.
        scenarios: Vec<Scenario>,
        /// One job per (scenario, machine variant).
        jobs: Vec<CorunJob>,
    },
}

/// Everything set-up produces for one workload.
#[derive(Debug)]
pub struct Setup {
    /// The points.
    pub points: Points,
    /// Per point: the memory ops (loads + stores) its generator emits,
    /// counted outside the simulator for the cross-layer identity check.
    pub mem_ops: Vec<u64>,
    /// Per point: all ops its generator emits.
    pub ops: Vec<u64>,
}

impl Setup {
    /// Point labels, in execution order.
    pub fn labels(&self) -> Vec<String> {
        match &self.points {
            Points::Single { specs, .. } => specs.iter().map(|s| s.label.clone()).collect(),
            Points::Corun { jobs, .. } => jobs.iter().map(|j| j.label.clone()).collect(),
        }
    }

    /// Number of points in one pass.
    pub fn len(&self) -> usize {
        self.mem_ops.len()
    }
}

/// The UC2 Baseline's randomized frame-policy seed. Seed 0 gives fig7's.
fn frame_seed(seed: u64) -> u64 {
    0xA70 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The table reader's stream selector for `core`. Seed 0 gives
/// corun_shared's streams.
fn reader_stream(core: u64, seed: u64) -> u64 {
    core ^ seed.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Builds a workload's points. `tiny` shrinks every problem to a
/// self-test size.
pub fn build(workload: Workload, seed: u64, tiny: bool) -> Setup {
    match workload {
        Workload::Uc1Kernels | Workload::Uc1Sampled => single(uc1_specs(tiny), workload.sampling()),
        Workload::Uc2Placement => single(uc2_specs(seed, tiny), None),
        Workload::CorunMesi => corun(seed, tiny),
    }
}

/// The fig5 grid: 12 kernels × {Baseline, XMem} × L3 {64, 32, 16} KB, the
/// tile tuned for the 64 KB L3 (the largest fig4 tile that fits it).
fn uc1_specs(tiny: bool) -> Vec<RunSpec> {
    let n = if tiny { 16 } else { UC1_N };
    let tile = FIG5_L3;
    let mut specs = Vec::new();
    for kernel in PolybenchKernel::all() {
        for kind in [SystemKind::Baseline, SystemKind::Xmem] {
            for l3 in [FIG5_L3, FIG5_L3 / 2, FIG5_L3 / 4] {
                let mut spec = KernelRun::new(kernel, uc1_params(n, tile))
                    .l3_bytes(l3)
                    .system(kind)
                    .spec();
                spec.label = format!("{}/{kind}/L3={}", kernel.name(), fmt_bytes(l3));
                specs.push(spec);
            }
        }
    }
    specs
}

/// The 27 fig7 mixes under the seeded randomized-frame Baseline and under
/// XMem placement, each on its first grid configuration.
fn uc2_specs(seed: u64, tiny: bool) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for mut w in PlacementWorkload::all() {
        if tiny {
            w.accesses = 2_000;
        }
        for system in [Uc2System::Baseline, Uc2System::Xmem] {
            let mut spec = placement_specs(&w, system).swap_remove(0);
            if let FramePolicyKind::Randomized { .. } = spec.config.frame_policy {
                spec.config.frame_policy = FramePolicyKind::Randomized {
                    seed: frame_seed(seed),
                };
            }
            specs.push(spec);
        }
    }
    specs
}

fn single(specs: Vec<RunSpec>, sampling: Option<SamplingSpec>) -> Setup {
    // Baseline and XMem points of one workload emit the same op stream, so
    // each distinct generator is counted once.
    let mut counted: Vec<(String, (u64, u64))> = Vec::new();
    let mut mem_ops = Vec::with_capacity(specs.len());
    let mut ops = Vec::with_capacity(specs.len());
    for spec in &specs {
        let key = format!(
            "{}{}",
            spec.workload.name(),
            spec.workload.params_json().render()
        );
        let (m, o) = match counted.iter().find(|(k, _)| *k == key) {
            Some((_, c)) => *c,
            None => {
                let mut sink = CountSink {
                    scan: ScanSink::new(),
                    ops: 0,
                    mem_ops: 0,
                };
                spec.workload.generate(&mut sink);
                let c = (sink.mem_ops, sink.ops);
                counted.push((key, c));
                c
            }
        };
        mem_ops.push(m);
        ops.push(o);
    }
    Setup {
        points: Points::Single { specs, sampling },
        mem_ops,
        ops,
    }
}

fn record(f: impl FnOnce(&mut LogSink)) -> Vec<TraceEvent> {
    let mut log = LogSink::new();
    f(&mut log);
    log.into_events()
}

/// The corun_shared scenarios (same sizes and pin-budget staging) with the
/// table readers' streams drawn from the seed.
fn corun(seed: u64, tiny: bool) -> Setup {
    let (passes, lookups, rounds, hog_accesses) = if tiny {
        (20, 600, 200, 1_000)
    } else {
        (600, 20_000, 8_000, 40_000)
    };
    let buffer = 16 << 10;
    let table = 24 << 10;
    let producer = record(|s| {
        producer_consumer(s, PcRole::Producer, buffer, passes, 2, Reuse(230));
    });
    let consumer = record(|s| {
        producer_consumer(s, PcRole::Consumer, buffer, passes, 2, Reuse(230));
    });
    let reader = |core: u64| {
        record(|s| {
            read_mostly_reader(s, reader_stream(core, seed), table, lookups, 2, Reuse(200));
        })
    };
    let lock = record(|s| lock_counter(s, rounds, 6));
    let hog = record(|s| stream_hog(s, 64 << 10, hog_accesses, 8));
    let scenarios = vec![
        Scenario {
            name: "pc",
            logs: vec![producer.clone(), consumer.clone()],
        },
        Scenario {
            name: "readers",
            logs: vec![reader(0), reader(1), hog.clone()],
        },
        Scenario {
            name: "lock",
            logs: vec![lock.clone(), lock],
        },
        Scenario {
            name: "mixed",
            logs: vec![producer, consumer, reader(2), hog],
        },
    ];
    const VARIANTS: [(&str, CoherenceMode, bool); 3] = [
        ("none", CoherenceMode::None, true),
        ("mesi", CoherenceMode::Mesi, true),
        ("mesi-naive", CoherenceMode::Mesi, false),
    ];
    let mut jobs = Vec::new();
    let mut mem_ops = Vec::new();
    let mut ops = Vec::new();
    for (si, sc) in scenarios.iter().enumerate() {
        let (m, o) = sc
            .logs
            .iter()
            .flatten()
            .fold((0, 0), |(m, o), ev| match ev {
                TraceEvent::Op(Op::Compute(_)) => (m, o + 1),
                TraceEvent::Op(_) => (m + 1, o + 1),
                _ => (m, o),
            });
        for (vname, mode, aware) in VARIANTS {
            let mut config =
                MultiCoreConfig::scaled_corun(sc.logs.len(), 32 << 10, SystemKind::Xmem)
                    .with_coherence(mode);
            config.coherence_aware_pinning = aware;
            jobs.push(CorunJob {
                label: format!("{}/{vname}", sc.name),
                config,
                scenario: si,
            });
            mem_ops.push(m);
            ops.push(o);
        }
    }
    Setup {
        points: Points::Corun { scenarios, jobs },
        mem_ops,
        ops,
    }
}

/// Counts a generator's ops; allocation and atoms go through the
/// simulator's own pass-1 sink, so generators see valid addresses and IDs.
#[derive(Debug)]
struct CountSink {
    scan: ScanSink,
    ops: u64,
    mem_ops: u64,
}

impl TraceSink for CountSink {
    fn op(&mut self, op: Op) {
        self.ops += 1;
        if !matches!(op, Op::Compute(_)) {
            self.mem_ops += 1;
        }
    }
    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64 {
        self.scan.alloc(bytes, atom)
    }
    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId {
        self.scan.create_atom(label, attrs)
    }
    fn map(&mut self, _atom: AtomId, _start: u64, _len: u64) {}
    fn unmap(&mut self, _start: u64, _len: u64) {}
    fn map_2d(&mut self, _atom: AtomId, _base: u64, _sx: u64, _sy: u64, _lx: u64) {}
    fn unmap_2d(&mut self, _base: u64, _sx: u64, _sy: u64, _lx: u64) {}
    fn activate(&mut self, _atom: AtomId) {}
    fn deactivate(&mut self, _atom: AtomId) {}
}
