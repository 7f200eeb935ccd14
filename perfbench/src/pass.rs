//! One pass over a workload's points: untraced through the sweep engine
//! (or `run_jobs` for co-runs), or traced through [`TracedGen`].

use crate::points::{Points, Setup};
use crate::stats::{ratio, Counts};
use crate::trace::{TracedGen, Tracer};
use cpu_sim::trace::Op;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use xmem_sim::{
    run_corun, run_generator_sampled, run_jobs, CorunReport, JsonValue, RunOutcome, RunRecord,
    Sweep, JSON_SCHEMA,
};

/// What one point produced.
#[derive(Debug, Clone)]
pub struct PointOut {
    /// FNV-1a 64 of the point's rendered record: every simulated counter,
    /// the configuration and, when sampled, the sampling summary.
    pub digest: u64,
    pub counts: Counts,
    /// The sampled IPC estimate, on sampled points.
    pub sampled_ipc: Option<f64>,
}

/// One point of a pass.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Host wall time of the point (0 when it panicked).
    pub wall_ns: u64,
    /// The output, or the panic message.
    pub out: Result<PointOut, String>,
}

/// One pass.
#[derive(Debug)]
pub struct Pass {
    pub wall_ns: u64,
    /// Rendering the pass's report document.
    pub render_ns: u64,
    pub points: Vec<PointResult>,
}

/// Layer times of one traced pass, summed over its points.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub point_ns: u64,
    /// The same points run untraced, each right before its traced run.
    pub plain_ns: u64,
    /// Per point: traced wall time ÷ untraced wall time.
    pub overhead: Vec<f64>,
    pub scan_ns: u64,
    pub load_ns: u64,
    pub exec_ns: u64,
    pub finish_ns: u64,
    pub ops_ns: u64,
    pub batches: u64,
    pub ops: u64,
    pub mem_ops: u64,
    pub hints_ns: u64,
    pub hints: u64,
    pub corun_ns: u64,
    pub corun_ops: u64,
}

impl Layers {
    /// Generator time: the execute pass minus the machine calls in it.
    pub fn gen_ns(&self) -> u64 {
        self.exec_ns.saturating_sub(self.ops_ns + self.hints_ns)
    }

    /// Time covered by the point's direct child spans.
    pub fn covered_ns(&self) -> u64 {
        self.scan_ns + self.load_ns + self.exec_ns + self.finish_ns + self.corun_ns
    }
}

/// FNV-1a 64.
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Renders the pass's records into one `xmem-report-v1` document, digesting
/// each record as it is rendered.
fn render<T>(
    results: Vec<(u64, Result<T, String>)>,
    to_json: impl Fn(&T) -> JsonValue,
    out: impl Fn(&T, u64) -> PointOut,
) -> (Vec<PointResult>, u64) {
    let start = Instant::now();
    let mut doc = format!("{{\"schema\":\"{JSON_SCHEMA}\",\"records\":[");
    let mut points = Vec::with_capacity(results.len());
    for (wall_ns, res) in results {
        let out = res.map(|r| {
            let text = to_json(&r).render();
            if !doc.ends_with('[') {
                doc.push(',');
            }
            doc.push_str(&text);
            out(&r, fnv64(&text))
        });
        points.push(PointResult { wall_ns, out });
    }
    doc.push_str("]}");
    black_box(&doc);
    (points, start.elapsed().as_nanos() as u64)
}

fn single_out(r: &RunRecord, digest: u64) -> PointOut {
    PointOut {
        digest,
        counts: Counts::of_run(&r.report, r.sampling.as_ref()),
        sampled_ipc: r
            .sampling
            .as_ref()
            .and_then(|s| s.metric("ipc"))
            .map(|m| m.mean),
    }
}

fn corun_json(label: &str, r: &CorunReport) -> JsonValue {
    let each = |kvs: Vec<cpu_sim::KvPairs>| {
        JsonValue::Array(kvs.into_iter().map(JsonValue::from_kv).collect())
    };
    JsonValue::object([
        ("label", JsonValue::Str(label.to_string())),
        ("cores", each(r.cores.iter().map(|c| c.kv()).collect())),
        ("l1s", each(r.l1s.iter().map(|c| c.kv()).collect())),
        ("l2s", each(r.l2s.iter().map(|c| c.kv()).collect())),
        ("l3", JsonValue::from_kv(r.l3.kv())),
        ("dram", JsonValue::from_kv(r.dram.kv())),
        (
            "alb",
            JsonValue::object([
                ("hits", JsonValue::U64(r.alb.hits)),
                ("misses", JsonValue::U64(r.alb.misses)),
            ]),
        ),
        ("bus", JsonValue::from_kv(r.bus.kv())),
    ])
}

/// One untraced pass: the single-core points through [`Sweep`] on one
/// worker, co-runs through `run_jobs` on one worker.
pub fn untraced(setup: &Setup) -> Pass {
    let start = Instant::now();
    let (points, render_ns) = match &setup.points {
        Points::Single { specs, sampling } => {
            let outcomes = Sweep::new(specs.clone())
                .workers(1)
                .sampling(*sampling)
                .run_outcomes();
            let results = outcomes
                .into_iter()
                .map(|o| match o {
                    RunOutcome::Completed(mut r) | RunOutcome::Resumed(mut r) => {
                        let wall = r.run.take().map_or(0, |m| m.wall_nanos);
                        (wall, Ok(r))
                    }
                    RunOutcome::Failed(f) => (0, Err(f.message)),
                })
                .collect();
            render(results, RunRecord::to_json, single_out)
        }
        Points::Corun { scenarios, jobs } => {
            let results = run_jobs(jobs.len(), 1, |i| {
                let job = &jobs[i];
                let t = Instant::now();
                let r = catch_unwind(AssertUnwindSafe(|| {
                    run_corun(&job.config, &scenarios[job.scenario].logs)
                }));
                (
                    t.elapsed().as_nanos() as u64,
                    r.map(|r| (i, r)).map_err(panic_message),
                )
            });
            render(
                results,
                |(i, r)| corun_json(&jobs[*i].label, r),
                |(_, r), digest| PointOut {
                    digest,
                    counts: Counts::of_corun(r),
                    sampled_ipc: None,
                },
            )
        }
    };
    Pass {
        wall_ns: start.elapsed().as_nanos() as u64,
        render_ns,
        points,
    }
}

/// One traced pass. Each point runs untraced (`RunSpec::execute_sampled`,
/// or `run_corun`) and then traced right after it, so the tracing overhead
/// is measured point by point under the same host conditions. Spans go to
/// `tracer`; the first `record_cap` ops each point in `record_points`
/// forwards to the machine are copied into `recorded` for the layer
/// replays (0 records nothing).
pub fn traced(
    setup: &Setup,
    tracer: &mut Tracer,
    record_cap: usize,
    recorded: &mut Vec<(usize, Vec<Op>)>,
    record_points: &[usize],
) -> (Pass, Layers) {
    let start = Instant::now();
    let mut layers = Layers::default();
    let pass_span = tracer.span("harness.pass", u32::MAX, None, start, start);
    let (points, render_ns) = match &setup.points {
        Points::Single { specs, sampling } => {
            let mut results = Vec::with_capacity(specs.len());
            for (i, spec) in specs.iter().enumerate() {
                let cap = if record_points.contains(&i) {
                    record_cap
                } else {
                    0
                };
                let gen = TracedGen::new(&spec.workload, cap);
                let plain = Instant::now();
                let _ = catch_unwind(AssertUnwindSafe(|| spec.execute_sampled(None, *sampling)));
                let t0 = Instant::now();
                tracer.span("untraced", i as u32, Some(pass_span), plain, t0);
                let res = catch_unwind(AssertUnwindSafe(|| {
                    run_generator_sampled(&spec.config, None, *sampling, &gen)
                }));
                let t1 = Instant::now();
                let point = tracer.span("point", i as u32, Some(pass_span), t0, t1);
                gen.spans(tracer, i as u32, point, t1);
                let wall = (t1 - t0).as_nanos() as u64;
                layers.point_ns += wall;
                layers.plain_ns += (t0 - plain).as_nanos() as u64;
                layers
                    .overhead
                    .push(ratio(wall, (t0 - plain).as_nanos() as u64));
                let (marks, mut fwd) = (gen.marks.borrow(), gen.fwd.borrow_mut());
                if let (Some((s0, s1)), Some((e0, e1))) = (marks.scan, marks.exec) {
                    layers.scan_ns += (s1 - s0).as_nanos() as u64;
                    layers.load_ns += (e0 - s1).as_nanos() as u64;
                    layers.exec_ns += (e1 - e0).as_nanos() as u64;
                    layers.finish_ns += (t1 - e1).as_nanos() as u64;
                }
                layers.ops_ns += fwd.ops_ns;
                layers.batches += fwd.batches;
                layers.ops += fwd.ops;
                layers.mem_ops += fwd.mem_ops;
                layers.hints_ns += fwd.hints_ns;
                layers.hints += fwd.hints;
                if let Some(ops) = fwd.record.take().filter(|o| !o.is_empty()) {
                    recorded.push((i, ops));
                }
                let res = res
                    .map(|out| RunRecord {
                        label: spec.label.clone(),
                        config: spec.config,
                        workload: spec.workload.name(),
                        workload_params: spec.workload.params_json(),
                        report: out.report,
                        telemetry: out.telemetry,
                        sampling: out.sampling,
                        run: None,
                    })
                    .map_err(panic_message);
                results.push((wall, res));
            }
            render(results, RunRecord::to_json, single_out)
        }
        Points::Corun { scenarios, jobs } => {
            let mut results = Vec::with_capacity(jobs.len());
            for (i, job) in jobs.iter().enumerate() {
                let logs = &scenarios[job.scenario].logs;
                let plain = Instant::now();
                let _ = catch_unwind(AssertUnwindSafe(|| run_corun(&job.config, logs)));
                let t0 = Instant::now();
                tracer.span("untraced", i as u32, Some(pass_span), plain, t0);
                let res = catch_unwind(AssertUnwindSafe(|| run_corun(&job.config, logs)));
                let t1 = Instant::now();
                let point = tracer.span("point", i as u32, Some(pass_span), t0, t1);
                tracer.span("sim.multicore.run_corun", i as u32, Some(point), t0, t1);
                let wall = (t1 - t0).as_nanos() as u64;
                layers.point_ns += wall;
                layers.plain_ns += (t0 - plain).as_nanos() as u64;
                layers
                    .overhead
                    .push(ratio(wall, (t0 - plain).as_nanos() as u64));
                layers.corun_ns += wall;
                layers.corun_ops += setup.ops[i];
                results.push((wall, res.map(|r| (i, r)).map_err(panic_message)));
            }
            render(
                results,
                |(i, r)| corun_json(&jobs[*i].label, r),
                |(_, r), digest| PointOut {
                    digest,
                    counts: Counts::of_corun(r),
                    sampled_ipc: None,
                },
            )
        }
    };
    let end = Instant::now();
    let render_start = end - std::time::Duration::from_nanos(render_ns);
    tracer.span(
        "sim.report_sink.render",
        u32::MAX,
        Some(pass_span),
        render_start,
        end,
    );
    let (s, e) = (tracer.rel(start), tracer.rel(end));
    tracer.spans[pass_span].end_ns = e;
    tracer.spans[pass_span].busy_ns = e - s;
    (
        Pass {
            wall_ns: (end - start).as_nanos() as u64,
            render_ns,
            points,
        },
        layers,
    )
}
