//! Host-time benchmark of the XMem simulator, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <uc1_kernels|uc2_placement|corun_mesi|uc1_sampled> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --bless --workload <name>
//! ```
//!
//! A run builds the workload's points from the seed (set-up), runs one
//! untimed warm-up pass, then repeats passes for `--seconds`, all on one
//! worker thread. Every pass is checked (see `check`). The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod check;
mod pass;
mod points;
mod replay;
mod stats;
mod trace;

use check::Goldens;
use cpu_sim::trace::Op;
use pass::{Layers, Pass};
use points::{Points, Setup, Workload, DEFAULT_SEED};
use stats::{ratio, Counts, Summary};
use std::time::Instant;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <uc1_kernels|uc2_placement|corun_mesi|uc1_sampled> \
[--seed N] [--seconds S] [--trace 0|1] | --selftest | --bless --workload <name>";

/// Set-up repetitions per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;

/// Fewest measured passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

/// Ops recorded per replayed point in the traced run.
const RECORD_CAP: usize = 1 << 20;

/// The end-to-end metrics, printed with `--trace 0`: (name, unit).
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("ns_per_mem_op", "ns"),
    ("point_ms_p50", "ms"),
    ("point_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed with `--trace 1`: (name, unit).
const PER_LAYER: [(&str, &str); 52] = [
    ("workloads.gen_s", "s"),
    ("workloads.gen_ns_per_op", "ns"),
    ("workloads.gen_share", "ratio"),
    ("sim.scan_s", "s"),
    ("sim.load_s", "s"),
    ("sim.machine_ops_s", "s"),
    ("sim.machine_ns_per_op", "ns"),
    ("sim.machine_batches", "count"),
    ("sim.machine_hints_s", "s"),
    ("sim.machine_hints", "count"),
    ("sim.multicore.corun_s", "s"),
    ("sim.multicore.ns_per_op", "ns"),
    ("sim.harness.overhead_s", "s"),
    ("sim.report_sink.render_s", "s"),
    ("sim.ns_per_l3_access", "ns"),
    ("sim.ns_per_dram_access", "ns"),
    ("cpu-sim.instructions", "count"),
    ("cpu-sim.mem_ops", "count"),
    ("cpu-sim.ipc", "instr/cycle"),
    ("cpu-sim.avg_load_latency", "cycles"),
    ("cache-sim.l1.accesses", "count"),
    ("cache-sim.l1.hit_rate", "ratio"),
    ("cache-sim.l1.writebacks", "count"),
    ("cache-sim.l2.accesses", "count"),
    ("cache-sim.l2.hit_rate", "ratio"),
    ("cache-sim.l2.writebacks", "count"),
    ("cache-sim.l3.accesses", "count"),
    ("cache-sim.l3.hit_rate", "ratio"),
    ("cache-sim.l3.writebacks", "count"),
    ("cache-sim.stride_pf.issued", "count"),
    ("cache-sim.stride_pf.accuracy", "ratio"),
    ("cache-sim.xmem_pf.issued", "count"),
    ("cache-sim.xmem_pf.accuracy", "ratio"),
    ("xmem-core.alb.lookups", "count"),
    ("xmem-core.alb.hit_rate", "ratio"),
    ("dram-sim.accesses", "count"),
    ("dram-sim.row_hit_rate", "ratio"),
    ("dram-sim.avg_read_latency", "cycles"),
    ("sim.sampling.detailed_ops", "count"),
    ("sim.sampling.warm_ops", "count"),
    ("sim.sampling.coverage", "ratio"),
    ("cache-sim.coherence.bus_transactions", "count"),
    ("cache-sim.coherence.c2c_transfers", "count"),
    ("cache-sim.coherence.invalidations", "count"),
    ("cache-sim.coherence.stall_cycles", "cycles"),
    ("cpu-sim.replay_ns_per_op", "ns"),
    ("cache-sim.replay_ns_per_access", "ns"),
    ("os-sim.replay_translate_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.span_coverage", "ratio"),
    ("fail_ratio", "ratio"),
    ("ipc_err_pct", "%"),
];

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        selftest: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--selftest" => args.selftest = true,
            "--bless" => args.bless = true,
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if !args.selftest && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One run's result.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            // A non-finite value only arises when every point failed, which
            // `correct` already reports; keep the line valid JSON.
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `xs`, or `[0.0]` when empty (every point failed).
fn or_zero(xs: Vec<f64>) -> Vec<f64> {
    if xs.is_empty() {
        vec![0.0]
    } else {
        xs
    }
}

/// A pass's own time: its wall time minus its points' (result collection
/// and report rendering).
fn harness(p: &Pass) -> f64 {
    let points: u64 = p.points.iter().map(|q| q.wall_ns).sum();
    secs(p.wall_ns.saturating_sub(points))
}

fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).median
}

fn print_summary(name: &str, unit: &str, xs: &[f64]) {
    let s = Summary::of(xs);
    let tail = s
        .tail
        .map_or("tail n/a".to_string(), |(p, v)| format!("p{p:.1} {v:.6}"));
    println!(
        "  {name:<24} median {:.6} {unit:<9} q1 {:.6}  q3 {:.6}  p90 {:.6}  {tail}  n={}",
        s.median, s.q1, s.q3, s.p90, s.n
    );
}

/// Runs one workload and reports its metrics.
fn run(workload: Workload, args: &Args, tiny: bool) -> Result<Outcome, String> {
    let mut goldens = Goldens::load()?;
    println!(
        "# perfbench {} seed={} seconds={} trace={} {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::fingerprint()
    );

    // Set-up: build the points (specs, recorded logs, generator op counts)
    // several times, then one untimed warm-up pass.
    let mut build_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        built = Some(points::build(workload, args.seed, tiny));
        build_s.push(t.elapsed().as_secs_f64());
    }
    let setup: Setup = built.expect("SETUP_REPS > 0");
    let labels = setup.labels();
    let warm = pass::untraced(&setup);
    let setup_s = median(&build_s) + secs(warm.wall_ns);
    println!(
        "setup: {} points, build {:.4} s (median of {SETUP_REPS}), warm-up pass {:.4} s",
        setup.len(),
        median(&build_s),
        secs(warm.wall_ns)
    );

    if args.bless {
        if tiny || args.seed != DEFAULT_SEED {
            return Err("--bless records the full-size default-seed run only".into());
        }
        goldens.bless(workload.name(), &labels, &warm)?;
        println!("blessed {} goldens for {}", labels.len(), workload.name());
    }

    // Reference digests: the goldens at the default seed, otherwise the
    // warm-up pass (so later passes must repeat it exactly).
    let golden_ref = !tiny && args.seed == DEFAULT_SEED;
    let reference: Vec<Option<u64>> = if golden_ref {
        labels
            .iter()
            .map(|l| {
                goldens
                    .entries
                    .get(&(workload.name().to_string(), l.clone()))
                    .map(|g| g.0)
            })
            .collect()
    } else {
        warm.points
            .iter()
            .map(|p| p.out.as_ref().ok().map(|o| o.digest))
            .collect()
    };

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut shown = 0;
    let mut tally = |what: &str, p: &Pass| {
        for (i, problems) in check::check(&setup, p, &reference).iter().enumerate() {
            attempted += 1;
            if !problems.is_empty() {
                failed += 1;
                if shown < 20 {
                    shown += 1;
                    println!("FAIL {what} {}: {}", labels[i], problems.join("; "));
                }
            }
        }
    };
    tally("warm-up", &warm);

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Layers)> = Vec::new();
    let mut tracer = Tracer::new();
    let mut recorded = Vec::new();
    let record_points = replay_points(setup.len());
    let start = Instant::now();
    loop {
        if args.trace {
            let cap = if traced.is_empty() { RECORD_CAP } else { 0 };
            let (p, l) = pass::traced(&setup, &mut tracer, cap, &mut recorded, &record_points);
            tally("traced pass", &p);
            traced.push((p, l));
        } else {
            let p = pass::untraced(&setup);
            tally("pass", &p);
            untraced.push(p);
        }
        let rounds = untraced.len() + traced.len();
        let per_round = start.elapsed().as_secs_f64() / rounds as f64;
        let enough = if args.trace { 1 } else { MIN_PASSES };
        if rounds >= enough && start.elapsed().as_secs_f64() + per_round > args.seconds {
            break;
        }
    }
    let correct = failed == 0;

    let mut total = Counts::default();
    for o in warm.points.iter().filter_map(|p| p.out.as_ref().ok()) {
        total.add(&o.counts);
    }
    println!(
        "simulated per pass: {} instructions, {} memory ops, {} L3 accesses, {} DRAM accesses",
        total.instructions,
        total.mem_ops(),
        total.l3.accesses,
        total.dram_accesses()
    );
    let fail_ratio = ratio(failed, attempted);
    println!("fail_ratio {fail_ratio} ({failed}/{attempted}); correct {correct}");
    let metrics = if args.trace {
        let ipc_err = ipc_error(workload, &setup, &traced[0].0, &goldens, tiny);
        let mut m = layer_metrics(&setup, &warm, &traced, recorded, &total);
        m.push(("fail_ratio", fail_ratio));
        m.push(("ipc_err_pct", ipc_err));
        write_spans(workload, args.seed, &tracer);
        m
    } else {
        end_to_end(&untraced, &total, setup_s)
    };
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: metrics
            .into_iter()
            .map(|(n, v)| (n, v, unit_of(n)))
            .collect(),
    })
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(untraced: &[Pass], total: &Counts, setup_s: f64) -> Vec<(&'static str, f64)> {
    let pass_s: Vec<f64> = untraced.iter().map(|p| secs(p.wall_ns)).collect();
    let point_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| &p.points)
        .filter(|p| p.out.is_ok())
        .map(|p| p.wall_ns as f64 / 1e6)
        .collect();
    println!("untraced passes as measured (one worker):");
    print_summary("pass_s", "s", &pass_s);
    print_summary("point_ms", "ms", &or_zero(point_ms));

    // Host noise only ever slows a point down, and it comes in bursts of
    // a few seconds. A point's fastest time over the run's passes is a
    // much steadier estimate of its cost than any single pass; the
    // end-to-end timings are built from those.
    let mut best_ms = vec![f64::INFINITY; untraced[0].points.len()];
    for p in untraced {
        for (best, q) in best_ms.iter_mut().zip(&p.points) {
            if q.out.is_ok() {
                *best = best.min(q.wall_ns as f64 / 1e6);
            }
        }
    }
    let best_ms = or_zero(best_ms.into_iter().filter(|b| b.is_finite()).collect());
    let harness_s = median(&untraced.iter().map(harness).collect::<Vec<_>>());
    let pass_est = best_ms.iter().sum::<f64>() / 1e3 + harness_s;
    let best = Summary::of(&best_ms);
    println!(
        "estimate over {} passes: pass {pass_est:.6} s = Σ fastest point times + median harness {harness_s:.6} s",
        untraced.len()
    );
    print_summary("point_ms (fastest)", "ms", &best_ms);
    let rss = stats::peak_rss_mb();
    println!("setup_s {setup_s:.6} s; peak_rss_mb {rss:.3} MB");
    vec![
        ("setup_s", setup_s),
        ("pass_s", pass_est),
        ("sim_mips", total.instructions as f64 / pass_est / 1e6),
        (
            "ns_per_mem_op",
            pass_est * 1e9 / total.mem_ops().max(1) as f64,
        ),
        ("point_ms_p50", best.median),
        ("point_ms_tail", best.p90),
        ("peak_rss_mb", rss),
    ]
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .chain(&END_TO_END)
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| u)
}

/// The per-layer metrics of a traced run. Layer times are medians over the
/// traced passes; the harness overhead and render time come from the
/// warm-up pass, which goes through the sweep engine.
fn layer_metrics(
    setup: &Setup,
    warm: &Pass,
    traced: &[(Pass, Layers)],
    recorded: Vec<(usize, Vec<Op>)>,
    total: &Counts,
) -> Vec<(&'static str, f64)> {
    let med = |f: &dyn Fn(&Layers) -> f64| -> f64 {
        median(&traced.iter().map(|(_, l)| f(l)).collect::<Vec<_>>())
    };
    let machine_ns = |l: &Layers| l.ops_ns + l.corun_ns;
    // Each point ran untraced right before its traced run, so the median
    // per-point ratio cancels the host's speed swings.
    let ratios: Vec<f64> = traced
        .iter()
        .flat_map(|(_, l)| l.overhead.clone())
        .collect();
    let overhead_pct = (median(&ratios) - 1.0) * 100.0;
    let (plain_ns, traced_ns) = traced
        .iter()
        .fold((0, 0), |(a, b), (_, l)| (a + l.plain_ns, b + l.point_ns));

    let mut m: Vec<(&'static str, f64)> = vec![
        ("workloads.gen_s", med(&|l| secs(l.gen_ns()))),
        (
            "workloads.gen_ns_per_op",
            med(&|l| ratio(l.gen_ns(), l.ops)),
        ),
        (
            "workloads.gen_share",
            med(&|l| ratio(l.gen_ns(), l.point_ns)),
        ),
        ("sim.scan_s", med(&|l| secs(l.scan_ns))),
        ("sim.load_s", med(&|l| secs(l.load_ns))),
        ("sim.machine_ops_s", med(&|l| secs(l.ops_ns))),
        ("sim.machine_ns_per_op", med(&|l| ratio(l.ops_ns, l.ops))),
        ("sim.machine_batches", traced[0].1.batches as f64),
        ("sim.machine_hints_s", med(&|l| secs(l.hints_ns))),
        ("sim.machine_hints", traced[0].1.hints as f64),
        ("sim.multicore.corun_s", med(&|l| secs(l.corun_ns))),
        (
            "sim.multicore.ns_per_op",
            med(&|l| ratio(l.corun_ns, l.corun_ops)),
        ),
        ("sim.harness.overhead_s", harness(warm)),
        ("sim.report_sink.render_s", secs(warm.render_ns)),
        (
            "sim.ns_per_l3_access",
            med(&|l| ratio(machine_ns(l), total.l3.accesses)),
        ),
        (
            "sim.ns_per_dram_access",
            med(&|l| ratio(machine_ns(l), total.dram_accesses())),
        ),
    ];
    m.extend(total.metrics());

    let (core_ns, cache_ns, translate_ns, ops, mem_ops) = replays(setup, traced, recorded);
    m.push(("cpu-sim.replay_ns_per_op", ratio(core_ns, ops)));
    m.push(("cache-sim.replay_ns_per_access", ratio(cache_ns, mem_ops)));
    m.push(("os-sim.replay_translate_ns", ratio(translate_ns, mem_ops)));
    m.push(("trace.overhead_pct", overhead_pct));
    m.push((
        "trace.span_coverage",
        med(&|l| ratio(l.covered_ns(), l.point_ns)),
    ));

    let l = &traced[0].1;
    println!(
        "traced run: {} passes; each point ran untraced, then traced",
        traced.len()
    );
    println!(
        "  trace overhead: median per-point traced/untraced {overhead_pct:+.2}% over {} points \
         (totals: traced {:.4} s vs untraced {:.4} s)",
        ratios.len(),
        secs(traced_ns),
        secs(plain_ns)
    );
    println!(
        "  span coverage: point children cover {:.2}% of point wall; exec self time (generator) {:.2}% of point wall",
        100.0 * ratio(l.covered_ns(), l.point_ns),
        100.0 * ratio(l.gen_ns(), l.point_ns)
    );
    println!(
        "  generator ops seen by the trace: {} ({} memory); identity with setup count: {}",
        l.ops,
        l.mem_ops,
        match &setup.points {
            Points::Single { .. } => (l.mem_ops == setup.mem_ops.iter().sum::<u64>()).to_string(),
            Points::Corun { .. } => "n/a (co-run logs)".to_string(),
        }
    );
    m
}

/// The points whose op streams the traced run replays: three spread over
/// the pass.
fn replay_points(n: usize) -> [usize; 3] {
    [0, n / 3, 2 * n / 3]
}

/// Replays the recorded streams through each layer in isolation, printing
/// each replay's simulated counts next to the real run's.
fn replays(
    setup: &Setup,
    traced: &[(Pass, Layers)],
    mut streams: Vec<(usize, Vec<Op>)>,
) -> (u64, u64, u64, u64, u64) {
    let machine = |i: usize| -> replay::Machine {
        match &setup.points {
            Points::Single { specs, .. } => {
                let c = &specs[i].config;
                replay::Machine {
                    core: c.core,
                    hierarchy: c.hierarchy,
                    dram: c.dram,
                    mapping: c.mapping,
                }
            }
            Points::Corun { jobs, .. } => {
                let c = &jobs[i].config;
                replay::Machine {
                    core: c.core,
                    hierarchy: cache_sim::HierarchyConfig {
                        l1: c.l1,
                        l2: c.l2,
                        l3: c.l3,
                        stride_prefetcher: c.stride_prefetcher,
                        stride_streams: c.stride_streams,
                        prefetch_degree: c.prefetch_degree,
                        xmem_prefetch_degree: c.xmem_prefetch_degree,
                        xmem: c.xmem,
                    },
                    dram: c.dram,
                    mapping: c.mapping,
                }
            }
        }
    };
    if let Points::Corun { scenarios, jobs } = &setup.points {
        // Co-run logs were recorded in set-up: replay every core's ops back
        // to back, as one time-sliced core would see them.
        for i in replay_points(jobs.len()) {
            let ops = scenarios[jobs[i].scenario]
                .logs
                .iter()
                .flatten()
                .filter_map(|e| match e {
                    workloads::sink::TraceEvent::Op(op) => Some(*op),
                    _ => None,
                })
                .take(RECORD_CAP)
                .collect();
            streams.push((i, ops));
        }
    }
    println!("layer replays (isolated cost estimates, not attribution):");
    let (mut core_ns, mut cache_ns, mut tr_ns, mut ops, mut mem) = (0, 0, 0, 0, 0);
    let labels = setup.labels();
    for (i, stream) in &streams {
        let Ok(real) = &traced[0].0.points[*i].out else {
            continue;
        };
        let latency = ratio(real.counts.load_latency, real.counts.loads).round() as u64;
        let r = replay::replay(stream, &machine(*i), latency);
        print!(
            "{}",
            replay::compare(&labels[*i], &r, &real.counts, setup.ops[*i])
        );
        println!(
            "    host: core {:.2} ns/op, caches+dram {:.2} ns/access, translate {:.2} ns/access",
            ratio(r.core_ns, r.ops),
            ratio(r.cache_ns, r.mem_ops),
            ratio(r.translate_ns, r.mem_ops)
        );
        core_ns += r.core_ns;
        cache_ns += r.cache_ns;
        tr_ns += r.translate_ns;
        ops += r.ops;
        mem += r.mem_ops;
    }
    (core_ns, cache_ns, tr_ns, ops, mem)
}

/// Median |sampled IPC − full-detail IPC| / full-detail IPC across points,
/// in percent; 0 on fully detailed workloads. The full-detail IPCs come
/// from the `uc1_kernels` goldens (the kernels do not depend on the
/// seed), or, at self-test size, from running each spec in full detail.
fn ipc_error(workload: Workload, setup: &Setup, p: &Pass, goldens: &Goldens, tiny: bool) -> f64 {
    let Points::Single {
        specs,
        sampling: Some(_),
    } = &setup.points
    else {
        return 0.0;
    };
    let mut errs = Vec::new();
    for (spec, point) in specs.iter().zip(&p.points) {
        let Some(sampled) = point.out.as_ref().ok().and_then(|o| o.sampled_ipc) else {
            continue;
        };
        let full = if tiny {
            Some(spec.execute().core.ipc())
        } else {
            goldens
                .entries
                .get(&(Workload::Uc1Kernels.name().to_string(), spec.label.clone()))
                .map(|g| g.1)
        };
        if let Some(full) = full.filter(|f| *f > 0.0) {
            errs.push((sampled - full).abs() / full * 100.0);
        }
    }
    if errs.is_empty() {
        println!(
            "ipc_err_pct: no full-detail reference for {}",
            workload.name()
        );
        return 0.0;
    }
    let s = Summary::of(&errs);
    println!(
        "sampling fidelity vs the full-detail model: |IPC error| median {:.3}% q1 {:.3}% q3 {:.3}% max-tail {:.3}% over {} points",
        s.median,
        s.q1,
        s.q3,
        s.tail.map_or(s.q3, |t| t.1),
        s.n
    );
    s.median
}

/// Writes the traced run's spans as JSON lines under `.bench_build/`.
fn write_spans(workload: Workload, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".bench_build")
        .join("perfbench");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tracer.render())) {
        Ok(()) => println!("spans: {} ({} spans)", path.display(), tracer.spans.len()),
        Err(e) => println!("spans: cannot write {}: {e}", path.display()),
    }
}

/// Runs every workload once at self-test size, untraced and traced, and
/// checks that every printed metric is declared in `BENCHMARK.json` with
/// its unit and a direction, and that nothing failed.
fn selftest() -> Result<(), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = xmem_sim::JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared = |key: &str| -> Result<Vec<(String, String)>, String> {
        let list = doc
            .get(key)
            .and_then(|v| v.as_array())
            .ok_or(format!("BENCHMARK.json: no '{key}' list"))?;
        list.iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_string);
                let name = field("name").ok_or(format!("{key}: entry without a name"))?;
                let unit = field("unit").ok_or(format!("{key}/{name}: no unit"))?;
                match field("better").as_deref() {
                    Some("higher" | "lower") => Ok((name, unit)),
                    _ => Err(format!("{key}/{name}: 'better' must be higher or lower")),
                }
            })
            .collect()
    };
    let e2e = declared("end_to_end")?;
    let layer = declared("per_layer")?;
    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(|v| v.as_array())
        .map(|ws| ws.iter().filter_map(|w| w.get("name")?.as_str()).collect())
        .unwrap_or_default();
    let mut problems = Vec::new();
    for w in Workload::ALL {
        if !listed.contains(&w.name()) {
            problems.push(format!("workload {} is not in BENCHMARK.json", w.name()));
        }
        for trace in [false, true] {
            let args = Args {
                workload: Some(w),
                seed: DEFAULT_SEED,
                seconds: 0.0,
                trace,
                selftest: false,
                bless: false,
            };
            let out = run(w, &args, true)?;
            let expected = if trace { &layer } else { &e2e };
            let printed: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            for (n, u) in &printed {
                if !expected.contains(&(n.clone(), u.clone())) {
                    problems.push(format!("{}: metric {n} [{u}] not declared", w.name()));
                }
            }
            for (n, _) in expected {
                if !printed.iter().any(|(p, _)| p == n) {
                    problems.push(format!("{}: declared metric {n} not printed", w.name()));
                }
            }
            if let Some((n, v, _)) = out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
                problems.push(format!("{}: metric {n} is {v}", w.name()));
            }
            if out.failed != 0 || !out.correct {
                problems.push(format!(
                    "{} (trace {}): fail_ratio {}",
                    w.name(),
                    u8::from(trace),
                    ratio(out.failed, out.attempted)
                ));
            }
        }
    }
    if problems.is_empty() {
        println!("selftest: ok — {} workloads × 2 modes", Workload::ALL.len());
        Ok(())
    } else {
        Err(format!("selftest failed:\n  {}", problems.join("\n  ")))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.selftest {
        if let Err(e) = selftest() {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    let workload = args.workload.expect("parse_args requires --workload");
    match run(workload, &args, false) {
        Ok(out) => {
            for (n, v, u) in &out.metrics {
                println!("  {n:<38} {v:.6} {u}");
            }
            println!("{}", out.json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
