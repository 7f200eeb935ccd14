//! Exact-output gate for the memory system below L1.
//!
//! The single-core machine, the sampled machine's functional-warming path
//! and both co-run coherence modes all walk the same L2 → L3 → DRAM code.
//! These tests pin that walk from the outside:
//!
//! * golden counters for one fig5 point per use-case-1 system, one fig7
//!   placement point, one `SamplingSpec::DEFAULT` sampled point, and one
//!   MESI co-run scenario (coherence-aware and naive pinning). Each golden
//!   ends in an FNV-1a digest of the full `Debug` rendering, so a drift in
//!   any field fails even where no counter is spelled out;
//! * a 1-core `run_corun` under `CoherenceMode::None` must report the same
//!   core, cache, DRAM and ALB counters as `run_workload` on the same
//!   workload;
//! * golden counters for the co-run interleaving itself, under both
//!   coherence modes: two identical lock-counter logs (clock ties decided
//!   by core index), two table readers beside a streaming hog, and a
//!   hand-built log whose allocation bases are not page-aligned (recorded
//!   pages straddle ranges and a later allocation lands inside an already
//!   touched page).

use cpu_sim::trace::Op;
use std::fmt::Write as _;
use workloads::hog::stream_hog;
use workloads::placement::PlacementWorkload;
use workloads::polybench::{KernelParams, PolybenchKernel};
use workloads::shared::{lock_counter, producer_consumer, read_mostly_reader, PcRole};
use workloads::sink::{LogSink, TraceEvent, TraceSink};
use xmem_core::attrs::Reuse;
use xmem_sim::{
    placement_specs, run_corun, run_workload, CoherenceMode, CorunReport, KernelRun,
    MultiCoreConfig, RunReport, SamplingSpec, SystemConfig, SystemKind, Uc2System,
};

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn cache_line(out: &mut String, name: &str, c: &cache_sim::CacheStats) {
    let _ = writeln!(
        out,
        "{name} acc={} hits={} fills={} ev={} wb={} snoop_inv={} snoop_wb={}",
        c.accesses,
        c.hits,
        c.fills,
        c.evictions,
        c.writebacks,
        c.snoop_invalidations,
        c.snoop_writebacks
    );
}

fn dram_line(out: &mut String, d: &dram_sim::DramStats) {
    let _ = writeln!(
        out,
        "dram reads={} demand={} writes={} row_hits={} row_misses={} row_conflicts={} read_lat={} write_lat={}",
        d.reads,
        d.demand_reads,
        d.writes,
        d.row_hits,
        d.row_misses,
        d.row_conflicts,
        d.total_read_latency,
        d.total_write_latency
    );
}

fn core_line(out: &mut String, name: &str, c: &cpu_sim::CoreStats) {
    let _ = writeln!(
        out,
        "{name} cycles={} instr={} loads={} stores={} load_lat={}",
        c.cycles, c.instructions, c.loads, c.stores, c.total_load_latency
    );
}

/// The counters a single-core report is pinned on, one line per layer.
fn report_digest(r: &RunReport) -> String {
    let mut out = String::new();
    core_line(&mut out, "core", &r.core);
    cache_line(&mut out, "l1", &r.l1);
    cache_line(&mut out, "l2", &r.l2);
    cache_line(&mut out, "l3", &r.l3);
    dram_line(&mut out, &r.dram);
    let _ = writeln!(out, "alb hits={} misses={}", r.alb.hits, r.alb.misses);
    let _ = writeln!(
        out,
        "xmem_pf issued={} useful={}",
        r.xmem_prefetch.issued, r.xmem_prefetch.useful
    );
    match r.stride_prefetch {
        Some(s) => {
            let _ = writeln!(out, "stride_pf issued={} useful={}", s.issued, s.useful);
        }
        None => out.push_str("stride_pf off\n"),
    }
    let _ = writeln!(out, "xmem_instr={}", r.xmem_instructions);
    let _ = write!(out, "debug_fnv={:016x}", fnv1a(&format!("{r:?}")));
    out
}

fn corun_digest(r: &CorunReport) -> String {
    let mut out = String::new();
    for (i, c) in r.cores.iter().enumerate() {
        core_line(&mut out, &format!("core{i}"), c);
    }
    for (i, c) in r.l1s.iter().enumerate() {
        cache_line(&mut out, &format!("l1[{i}]"), c);
    }
    for (i, c) in r.l2s.iter().enumerate() {
        cache_line(&mut out, &format!("l2[{i}]"), c);
    }
    cache_line(&mut out, "l3", &r.l3);
    dram_line(&mut out, &r.dram);
    let _ = writeln!(out, "alb hits={} misses={}", r.alb.hits, r.alb.misses);
    let b = &r.bus;
    let _ = writeln!(
        out,
        "bus rd={} rdx={} upgr={} c2c={} wb={} inval={} stall={}",
        b.bus_rd,
        b.bus_rdx,
        b.bus_upgr,
        b.c2c_transfers,
        b.writebacks,
        b.invalidations,
        b.stall_cycles
    );
    let _ = write!(out, "debug_fnv={:016x}", fnv1a(&format!("{r:?}")));
    out
}

// Goldens captured at the revision before the below-L1 paths were merged.

const FIG5_BASELINE: &str = "\
core cycles=160400 instr=555264 loads=223488 stores=110592 load_lat=1144457
l1 acc=334080 hits=319680 fills=14400 ev=14272 wb=282 snoop_inv=0 snoop_wb=0
l2 acc=14400 hits=10125 fills=4275 ev=4019 wb=5 snoop_inv=0 snoop_wb=0
l3 acc=4275 hits=4222 fills=951 ev=439 wb=75 snoop_inv=0 snoop_wb=0
dram reads=951 demand=53 writes=76 row_hits=943 row_misses=8 row_conflicts=0 read_lat=461203 write_lat=29486
alb hits=0 misses=0
xmem_pf issued=0 useful=0
stride_pf issued=6226 useful=846
xmem_instr=0
debug_fnv=a39f24d59e18afbe";
const FIG5_XMEM_PREF: &str = "\
core cycles=160542 instr=555264 loads=223488 stores=110592 load_lat=1144604
l1 acc=334080 hits=319680 fills=14400 ev=14272 wb=282 snoop_inv=0 snoop_wb=0
l2 acc=14400 hits=10125 fills=4275 ev=4019 wb=5 snoop_inv=0 snoop_wb=0
l3 acc=4275 hits=4226 fills=952 ev=440 wb=68 snoop_inv=0 snoop_wb=0
dram reads=952 demand=49 writes=75 row_hits=944 row_misses=8 row_conflicts=0 read_lat=474057 write_lat=27978
alb hits=4260 misses=15
xmem_pf issued=29 useful=0
stride_pf issued=6226 useful=853
xmem_instr=4
debug_fnv=e6210f461c7385c1";
const FIG5_XMEM: &str = "\
core cycles=163051 instr=555264 loads=223488 stores=110592 load_lat=1146486
l1 acc=334080 hits=319680 fills=14400 ev=14272 wb=282 snoop_inv=0 snoop_wb=0
l2 acc=14400 hits=10125 fills=4275 ev=4019 wb=5 snoop_inv=0 snoop_wb=0
l3 acc=4275 hits=4220 fills=980 ev=468 wb=85 snoop_inv=0 snoop_wb=0
dram reads=980 demand=55 writes=92 row_hits=972 row_misses=8 row_conflicts=0 read_lat=478681 write_lat=30344
alb hits=4260 misses=15
xmem_pf issued=28 useful=0
stride_pf issued=6226 useful=835
xmem_instr=4
debug_fnv=b2085f2353469f1d";
const FIG7_XMEM_PLACEMENT: &str = "\
core cycles=530012 instr=2120000 loads=15136 stores=4864 load_lat=618551
l1 acc=20000 hits=0 fills=20000 ev=19488 wb=4743 snoop_inv=0 snoop_wb=0
l2 acc=20000 hits=0 fills=20000 ev=17952 wb=590 snoop_inv=0 snoop_wb=0
l3 acc=20000 hits=19523 fills=20166 ev=5566 wb=955 snoop_inv=0 snoop_wb=0
dram reads=20166 demand=477 writes=1020 row_hits=19998 row_misses=16 row_conflicts=152 read_lat=3201132 write_lat=293796
alb hits=0 misses=0
xmem_pf issued=0 useful=0
stride_pf issued=38748 useful=19523
xmem_instr=0
debug_fnv=b499f157600ab923";
const SAMPLED_XMEM: &str = "\
core cycles=139392 instr=557568 loads=225792 stores=110592 load_lat=397557
l1 acc=112019 hits=109817 fills=2202 ev=2074 wb=516 snoop_inv=0 snoop_wb=0
l2 acc=2202 hits=875 fills=1327 ev=1071 wb=57 snoop_inv=0 snoop_wb=0
l3 acc=1327 hits=625 fills=1336 ev=824 wb=17 snoop_inv=0 snoop_wb=0
dram reads=492 demand=245 writes=71 row_hits=491 row_misses=1 row_conflicts=0 read_lat=125227 write_lat=19428
alb hits=1307 misses=20
xmem_pf issued=225 useful=0
stride_pf issued=798 useful=389
xmem_instr=13
debug_fnv=729064ac68cb87cc
sampling total=446976 detailed=144000 warm=18000 windows=18 summary_fnv=40dd8a865e0ff687";
const MESI_AWARE: &str = "\
core0 cycles=576 instr=2304 loads=0 stores=768 load_lat=0
core1 cycles=11204 instr=2304 loads=768 stores=0 load_lat=11204
core2 cycles=39465 instr=3675 loads=1200 stores=75 load_lat=39465
core3 cycles=8983 instr=2800 loads=800 stores=400 load_lat=142115
l1[0] acc=768 hits=640 fills=128 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l1[1] acc=768 hits=638 fills=130 ev=0 wb=0 snoop_inv=2 snoop_wb=0
l1[2] acc=1275 hits=1011 fills=264 ev=136 wb=49 snoop_inv=0 snoop_wb=0
l1[3] acc=1200 hits=1167 fills=33 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l2[0] acc=128 hits=0 fills=128 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l2[1] acc=130 hits=0 fills=130 ev=0 wb=0 snoop_inv=2 snoop_wb=0
l2[2] acc=264 hits=93 fills=171 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l2[3] acc=33 hits=0 fills=33 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l3 acc=332 hits=157 fills=334 ev=0 wb=0 snoop_inv=0 snoop_wb=0
dram reads=334 demand=175 writes=0 row_hits=330 row_misses=4 row_conflicts=0 read_lat=470511 write_lat=0
alb hits=325 misses=7
bus rd=291 rdx=171 upgr=2 c2c=130 wb=130 inval=2 stall=299401
debug_fnv=0a638ef69a93c1a9";
const MESI_NAIVE: &str = "\
core0 cycles=576 instr=2304 loads=0 stores=768 load_lat=0
core1 cycles=11207 instr=2304 loads=768 stores=0 load_lat=11207
core2 cycles=39465 instr=3675 loads=1200 stores=75 load_lat=39465
core3 cycles=8986 instr=2800 loads=800 stores=400 load_lat=142383
l1[0] acc=768 hits=640 fills=128 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l1[1] acc=768 hits=638 fills=130 ev=0 wb=0 snoop_inv=2 snoop_wb=0
l1[2] acc=1275 hits=1011 fills=264 ev=136 wb=49 snoop_inv=0 snoop_wb=0
l1[3] acc=1200 hits=1167 fills=33 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l2[0] acc=128 hits=0 fills=128 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l2[1] acc=130 hits=0 fills=130 ev=0 wb=0 snoop_inv=2 snoop_wb=0
l2[2] acc=264 hits=93 fills=171 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l2[3] acc=33 hits=0 fills=33 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l3 acc=332 hits=159 fills=334 ev=0 wb=0 snoop_inv=0 snoop_wb=0
dram reads=334 demand=173 writes=0 row_hits=330 row_misses=4 row_conflicts=0 read_lat=466314 write_lat=0
alb hits=325 misses=7
bus rd=291 rdx=171 upgr=2 c2c=130 wb=130 inval=2 stall=299286
debug_fnv=4b38ce8e0f5c09ef";

/// A quick-sized fig5 point: gemm with a tile tuned for 64 KB of L3, run
/// on half of it.
fn fig5_point(kind: SystemKind) -> RunReport {
    let p = KernelParams {
        n: 48,
        tile_bytes: 32 << 10,
        steps: 12,
        reuse: 200,
    };
    KernelRun::new(PolybenchKernel::Gemm, p)
        .l3_bytes(32 << 10)
        .system(kind)
        .spec()
        .execute()
}

#[test]
fn fig5_baseline_point_matches_golden() {
    assert_eq!(
        report_digest(&fig5_point(SystemKind::Baseline)),
        FIG5_BASELINE
    );
}

#[test]
fn fig5_xmem_pref_point_matches_golden() {
    assert_eq!(
        report_digest(&fig5_point(SystemKind::XmemPref)),
        FIG5_XMEM_PREF
    );
}

#[test]
fn fig5_xmem_point_matches_golden() {
    assert_eq!(report_digest(&fig5_point(SystemKind::Xmem)), FIG5_XMEM);
}

#[test]
fn fig7_placement_point_matches_golden() {
    let mut w = PlacementWorkload::all()
        .into_iter()
        .next()
        .expect("placement mixes exist");
    w.accesses = 20_000;
    let spec = placement_specs(&w, Uc2System::Xmem)
        .into_iter()
        .next()
        .expect("XMem placement has a grid point");
    assert_eq!(report_digest(&spec.execute()), FIG7_XMEM_PLACEMENT);
}

#[test]
fn sampled_point_matches_golden() {
    let p = KernelParams {
        n: 48,
        tile_bytes: 8 << 10,
        steps: 12,
        reuse: 200,
    };
    let spec = KernelRun::new(PolybenchKernel::Gemm, p)
        .l3_bytes(32 << 10)
        .system(SystemKind::Xmem)
        .spec();
    let out = spec.execute_sampled(None, Some(SamplingSpec::DEFAULT));
    let s = out.sampling.expect("sampled run carries a summary");
    assert!(s.warm_ops > 0, "the point must exercise the warm path");
    let mut got = report_digest(&out.report);
    let _ = write!(
        got,
        "\nsampling total={} detailed={} warm={} windows={} summary_fnv={:016x}",
        s.total_ops,
        s.detailed_ops,
        s.warm_ops,
        s.windows,
        fnv1a(&format!("{s:?}"))
    );
    assert_eq!(got, SAMPLED_XMEM);
}

fn record(f: impl FnOnce(&mut dyn TraceSink)) -> Vec<TraceEvent> {
    let mut log = LogSink::new();
    f(&mut log);
    log.into_events()
}

#[test]
fn mesi_corun_matches_golden() {
    let logs = vec![
        record(|s| producer_consumer(s, PcRole::Producer, 8 << 10, 6, 2, Reuse(230))),
        record(|s| producer_consumer(s, PcRole::Consumer, 8 << 10, 6, 2, Reuse(230))),
        record(|s| read_mostly_reader(s, 2, 8 << 10, 1_200, 2, Reuse(200))),
        record(|s| lock_counter(s, 400, 4)),
    ];
    let run = |aware: bool| {
        let mut cfg = MultiCoreConfig::scaled_corun(4, 32 << 10, SystemKind::Xmem)
            .with_coherence(CoherenceMode::Mesi);
        cfg.coherence_aware_pinning = aware;
        corun_digest(&run_corun(&cfg, &logs))
    };
    assert_eq!(run(true), MESI_AWARE);
    assert_eq!(run(false), MESI_NAIVE);
}

/// The counters a 1-core co-run and a single-core run share.
fn shared_counters(
    core: &cpu_sim::CoreStats,
    caches: [&cache_sim::CacheStats; 3],
    dram: &dram_sim::DramStats,
    alb: &xmem_core::alb::AlbStats,
) -> String {
    let mut out = String::new();
    core_line(&mut out, "core", core);
    for (name, c) in ["l1", "l2", "l3"].into_iter().zip(caches) {
        cache_line(&mut out, name, c);
    }
    dram_line(&mut out, dram);
    let _ = write!(
        out,
        "alb hits={} misses={} dram_fnv={:016x}",
        alb.hits,
        alb.misses,
        fnv1a(&format!("{dram:?}"))
    );
    out
}

#[test]
fn one_core_corun_matches_single_core_run() {
    let kernels = [
        PolybenchKernel::Gemm,
        PolybenchKernel::Jacobi2d,
        PolybenchKernel::Syrk,
        PolybenchKernel::Seidel2d,
    ];
    let p = KernelParams {
        n: 32,
        tile_bytes: 4 << 10,
        steps: 2,
        reuse: 200,
    };
    let mut checked = 0;
    for kernel in kernels {
        let log = record(|s| kernel.generate(&p, s));
        for kind in [SystemKind::Baseline, SystemKind::XmemPref, SystemKind::Xmem] {
            for l3 in [16 << 10, 64 << 10] {
                let single = run_workload(&SystemConfig::scaled_use_case1(l3, kind), |s| {
                    kernel.generate(&p, s)
                });
                let corun = run_corun(
                    &MultiCoreConfig::scaled_corun(1, l3, kind),
                    std::slice::from_ref(&log),
                );
                assert_eq!(
                    shared_counters(
                        &corun.cores[0],
                        [&corun.l1s[0], &corun.l2s[0], &corun.l3],
                        &corun.dram,
                        &corun.alb
                    ),
                    shared_counters(
                        &single.core,
                        [&single.l1, &single.l2, &single.l3],
                        &single.dram,
                        &single.alb
                    ),
                    "{}/{kind}/L3={l3}: co-run and single-core paths disagree",
                    kernel.name()
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 24);
}

// Co-run interleaving goldens, captured at the revision before the co-run
// scheduler picked the next core once per switch instead of once per op.

const LOCK_PAIR_NONE: &str = "\
core0 cycles=858 instr=1800 loads=600 stores=300 load_lat=4403
core1 cycles=528 instr=1800 loads=600 stores=300 load_lat=3869
l1[0] acc=900 hits=867 fills=33 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l1[1] acc=900 hits=867 fills=33 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l2[0] acc=33 hits=0 fills=33 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l2[1] acc=33 hits=0 fills=33 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l3 acc=66 hits=63 fills=69 ev=0 wb=0 snoop_inv=0 snoop_wb=0
dram reads=69 demand=3 writes=0 row_hits=67 row_misses=2 row_conflicts=0 read_lat=124182 write_lat=0
alb hits=63 misses=3
bus rd=0 rdx=0 upgr=0 c2c=0 wb=0 inval=0 stall=0
debug_fnv=04289ea2ecade031";
const LOCK_PAIR_MESI: &str = "\
core0 cycles=2706 instr=1800 loads=600 stores=300 load_lat=42692
core1 cycles=2189 instr=1800 loads=600 stores=300 load_lat=21630
l1[0] acc=900 hits=851 fills=49 ev=0 wb=0 snoop_inv=16 snoop_wb=7
l1[1] acc=900 hits=853 fills=47 ev=0 wb=0 snoop_inv=15 snoop_wb=8
l2[0] acc=49 hits=0 fills=49 ev=0 wb=0 snoop_inv=16 snoop_wb=7
l2[1] acc=47 hits=0 fills=47 ev=0 wb=0 snoop_inv=15 snoop_wb=8
l3 acc=65 hits=62 fills=69 ev=0 wb=0 snoop_inv=0 snoop_wb=0
dram reads=69 demand=3 writes=0 row_hits=67 row_misses=2 row_conflicts=0 read_lat=56130 write_lat=0
alb hits=62 misses=3
bus rd=81 rdx=15 upgr=16 c2c=31 wb=30 inval=31 stall=86577
debug_fnv=e6367375e270007a";
const READERS_HOG_NONE: &str = "\
core0 cycles=113621 instr=2756 loads=900 stores=56 load_lat=113621
core1 cycles=113662 instr=3656 loads=900 stores=56 load_lat=113662
core2 cycles=107181 instr=4000 loads=2000 stores=0 load_lat=209548
l1[0] acc=956 hits=740 fills=216 ev=88 wb=28 snoop_inv=0 snoop_wb=0
l1[1] acc=956 hits=711 fills=245 ev=117 wb=35 snoop_inv=0 snoop_wb=0
l1[2] acc=2000 hits=0 fills=2000 ev=1872 wb=0 snoop_inv=0 snoop_wb=0
l2[0] acc=216 hits=54 fills=162 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l2[1] acc=245 hits=79 fills=166 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l2[2] acc=2000 hits=214 fills=1786 ev=1530 wb=0 snoop_inv=0 snoop_wb=0
l3 acc=2114 hits=1852 fills=1999 ev=1487 wb=0 snoop_inv=0 snoop_wb=0
dram reads=1999 demand=262 writes=0 row_hits=1987 row_misses=12 row_conflicts=0 read_lat=7105502 write_lat=0
alb hits=2094 misses=20
bus rd=0 rdx=0 upgr=0 c2c=0 wb=0 inval=0 stall=0
debug_fnv=921126fe0cb9f79d";
const READERS_HOG_MESI: &str = "\
core0 cycles=90027 instr=2756 loads=900 stores=56 load_lat=90027
core1 cycles=89631 instr=3656 loads=900 stores=56 load_lat=89631
core2 cycles=111791 instr=4000 loads=2000 stores=0 load_lat=2488729
l1[0] acc=956 hits=740 fills=216 ev=88 wb=28 snoop_inv=0 snoop_wb=0
l1[1] acc=956 hits=711 fills=245 ev=117 wb=35 snoop_inv=0 snoop_wb=0
l1[2] acc=2000 hits=0 fills=2000 ev=1872 wb=0 snoop_inv=0 snoop_wb=0
l2[0] acc=216 hits=54 fills=162 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l2[1] acc=245 hits=79 fills=166 ev=0 wb=0 snoop_inv=0 snoop_wb=0
l2[2] acc=2000 hits=214 fills=1786 ev=1530 wb=0 snoop_inv=0 snoop_wb=0
l3 acc=1986 hits=1731 fills=1997 ev=1485 wb=0 snoop_inv=0 snoop_wb=0
dram reads=1997 demand=255 writes=0 row_hits=1985 row_misses=12 row_conflicts=0 read_lat=4216952 write_lat=0
alb hits=1966 misses=20
bus rd=2042 rdx=72 upgr=0 c2c=128 wb=0 inval=0 stall=2619145
debug_fnv=6cdfdf27180c66a3";
const UNALIGNED_NONE: &str = "\
core0 cycles=46313 instr=11440 loads=2400 stores=600 load_lat=401286
core1 cycles=43643 instr=11326 loads=2400 stores=600 load_lat=373769
l1[0] acc=3000 hits=1889 fills=1111 ev=983 wb=280 snoop_inv=0 snoop_wb=0
l1[1] acc=3000 hits=1921 fills=1079 ev=951 wb=295 snoop_inv=0 snoop_wb=0
l2[0] acc=1111 hits=554 fills=557 ev=301 wb=26 snoop_inv=0 snoop_wb=0
l2[1] acc=1079 hits=544 fills=535 ev=279 wb=77 snoop_inv=0 snoop_wb=0
l3 acc=1092 hits=396 fills=696 ev=184 wb=9 snoop_inv=0 snoop_wb=0
dram reads=696 demand=696 writes=38 row_hits=688 row_misses=8 row_conflicts=0 read_lat=865823 write_lat=27473
alb hits=0 misses=0
bus rd=0 rdx=0 upgr=0 c2c=0 wb=0 inval=0 stall=0
debug_fnv=ba4320d682bd4479";
const UNALIGNED_MESI: &str = "\
core0 cycles=47294 instr=11440 loads=2400 stores=600 load_lat=455751
core1 cycles=42975 instr=11326 loads=2400 stores=600 load_lat=406179
l1[0] acc=3000 hits=1884 fills=1116 ev=964 wb=384 snoop_inv=24 snoop_wb=3
l1[1] acc=3000 hits=1919 fills=1081 ev=928 wb=375 snoop_inv=25 snoop_wb=5
l2[0] acc=1116 hits=544 fills=572 ev=277 wb=85 snoop_inv=39 snoop_wb=5
l2[1] acc=1081 hits=533 fills=548 ev=247 wb=91 snoop_inv=45 snoop_wb=10
l3 acc=967 hits=282 fills=686 ev=174 wb=25 snoop_inv=0 snoop_wb=0
dram reads=686 demand=685 writes=43 row_hits=678 row_misses=8 row_conflicts=0 read_lat=677630 write_lat=20848
alb hits=0 misses=0
bus rd=905 rdx=215 upgr=58 c2c=153 wb=229 inval=84 stall=290440
debug_fnv=c5f72b359b92dfe5";

fn corun_golden(cores: usize, kind: SystemKind, logs: &[Vec<TraceEvent>]) -> [String; 2] {
    [CoherenceMode::None, CoherenceMode::Mesi].map(|mode| {
        let cfg = MultiCoreConfig::scaled_corun(cores, 32 << 10, kind).with_coherence(mode);
        corun_digest(&run_corun(&cfg, logs))
    })
}

#[test]
fn identical_lock_counters_match_golden() {
    let log = record(|s| lock_counter(s, 300, 3));
    let [none, mesi] = corun_golden(2, SystemKind::Xmem, &[log.clone(), log]);
    assert_eq!(none, LOCK_PAIR_NONE);
    assert_eq!(mesi, LOCK_PAIR_MESI);
}

#[test]
fn readers_beside_stream_hog_match_golden() {
    let logs = vec![
        record(|s| read_mostly_reader(s, 0, 8 << 10, 900, 2, Reuse(200))),
        record(|s| read_mostly_reader(s, 1, 8 << 10, 900, 3, Reuse(200))),
        record(|s| stream_hog(s, 64 << 10, 2_000, 1)),
    ];
    let [none, mesi] = corun_golden(3, SystemKind::Xmem, &logs);
    assert_eq!(none, READERS_HOG_NONE);
    assert_eq!(mesi, READERS_HOG_MESI);
}

/// A log with allocation bases that are not page-aligned: recorded pages
/// straddle two ranges (the first range's page-rounded length overlaps the
/// second's base), and a mid-run allocation lands inside a page that has
/// already been touched, so the page's later accesses resolve through the
/// new range.
fn unaligned_log(core: u64) -> Vec<TraceEvent> {
    let alloc = |bytes, base| TraceEvent::Alloc {
        bytes,
        atom: None,
        base,
    };
    let a = 0x1000_0100 + core * 0x40;
    let b = a + 0x2900; // inside `a`'s page-rounded range
    let c = 0x3000_0000;
    let late = c + 0x400; // lands inside `c`'s first page
    let shared = 0x5000_0a80 + core * 0x100;
    let mut log = vec![
        alloc(10_000, a),
        alloc(3_000, b),
        alloc(100, c),
        TraceEvent::AllocShared {
            key: 7,
            bytes: 6_000,
            atom: None,
            base: shared,
        },
    ];
    // Every target lies inside the range the replay resolves it to.
    let spans = [(a, 0x2900), (b, 0x1000), (c, 0x400), (shared, 6_000)];
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ core;
    let mut ops = |log: &mut Vec<TraceEvent>, spans: &[(u64, u64)], n: usize| {
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (base, len) = spans[(x >> 33) as usize % spans.len()];
            let addr = (base + (x >> 13) % len) & !7;
            log.push(TraceEvent::Op(if i % 5 == 4 {
                Op::store(addr)
            } else {
                Op::load(addr)
            }));
            if i % 3 == 0 {
                log.push(TraceEvent::Op(Op::Compute(1 + (x >> 60) as u32)));
            }
        }
    };
    ops(&mut log, &spans, 1_500);
    log.push(alloc(2_000, late));
    ops(&mut log, &[(c, 0x400), (late, 2_000), (a, 0x2900)], 1_500);
    log
}

#[test]
fn unaligned_allocations_match_golden() {
    let logs = vec![unaligned_log(0), unaligned_log(1)];
    let [none, mesi] = corun_golden(2, SystemKind::Baseline, &logs);
    assert_eq!(none, UNALIGNED_NONE);
    assert_eq!(mesi, UNALIGNED_MESI);
}
