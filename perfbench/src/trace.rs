//! Outside-in spans for the traced run.
//!
//! Every span is recorded from this crate, around calls into the
//! simulator's public API: nothing inside the simulator is instrumented.
//! [`TracedGen`] wraps a workload generator. The two-pass runner calls it
//! twice: the first call is pass 1 (scan), the second is pass 2 (execute).
//! In pass 2 it batches the generator's ops itself and timestamps each
//! forwarded `op_batch` and hint call — two clock reads per 256 ops.

use cpu_sim::trace::Op;
use cpu_sim::{OpBatch, OpKind};
use std::cell::{Cell, RefCell};
use std::time::Instant;
use workloads::sink::{BatchEmitter, TraceSink};
use xmem_core::atom::AtomId;
use xmem_core::attrs::AtomAttributes;
use xmem_sim::{Generator, WorkloadSpec};

/// One span. Spans that cover many short calls (`op_batch`, hints) are
/// kept as one aggregate per point: `start`..`end` spans the first to the
/// last call, `busy_ns` sums the calls and `calls` counts them.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub point: u32,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
}

/// Keeps spans in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the run's start to `t`.
    pub fn rel(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span from `start` to `end`, returning its index.
    pub fn span(
        &mut self,
        name: &'static str,
        point: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start_ns, end_ns) = (self.rel(start), self.rel(end));
        self.push(Span {
            name,
            point,
            parent,
            start_ns,
            end_ns,
            busy_ns: end_ns - start_ns,
            calls: 1,
        })
    }

    /// Records `span`, returning its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The spans as JSON lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"point\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}\n",
                s.name, s.point, s.start_ns, s.end_ns, s.busy_ns, s.calls
            ));
        }
        out
    }
}

/// Busy time and call counts of the machine calls forwarded in pass 2.
#[derive(Debug, Default)]
pub struct Forwarded {
    pub ops_ns: u64,
    pub batches: u64,
    pub ops: u64,
    pub mem_ops: u64,
    pub hints_ns: u64,
    pub hints: u64,
    first: Option<Instant>,
    last: Option<Instant>,
    /// When set, every forwarded op is copied here (for the layer replays)
    /// until the vector reaches `record_cap`.
    pub record: Option<Vec<Op>>,
    pub record_cap: usize,
}

/// The phases of one traced point, as seen from the generator.
#[derive(Debug, Default)]
pub struct Marks {
    pub scan: Option<(Instant, Instant)>,
    pub exec: Option<(Instant, Instant)>,
}

/// A generator wrapper that tells the scan pass from the execute pass and
/// times the execute pass's calls into the machine.
pub struct TracedGen<'a> {
    inner: &'a WorkloadSpec,
    calls: Cell<u32>,
    pub marks: RefCell<Marks>,
    pub fwd: RefCell<Forwarded>,
}

impl<'a> TracedGen<'a> {
    pub fn new(inner: &'a WorkloadSpec, record_cap: usize) -> TracedGen<'a> {
        TracedGen {
            inner,
            calls: Cell::new(0),
            marks: RefCell::default(),
            fwd: RefCell::new(Forwarded {
                record: (record_cap > 0).then(Vec::new),
                record_cap,
                ..Forwarded::default()
            }),
        }
    }

    /// Records this point's spans under `parent`: scan, load (between the
    /// passes), exec with its machine-call aggregates, and finish (from the
    /// end of exec to `end`).
    pub fn spans(&self, tracer: &mut Tracer, point: u32, parent: usize, end: Instant) {
        let marks = self.marks.borrow();
        let fwd = self.fwd.borrow();
        let (Some((s0, s1)), Some((e0, e1))) = (marks.scan, marks.exec) else {
            return;
        };
        tracer.span("sim.scan", point, Some(parent), s0, s1);
        tracer.span("sim.load", point, Some(parent), s1, e0);
        let exec = tracer.span("sim.exec", point, Some(parent), e0, e1);
        let (start_ns, end_ns) = (
            fwd.first.map_or(0, |t| tracer.rel(t)),
            fwd.last.map_or(0, |t| tracer.rel(t)),
        );
        for (name, busy_ns, calls) in [
            ("sim.machine.op_batch", fwd.ops_ns, fwd.batches),
            ("sim.machine.hints", fwd.hints_ns, fwd.hints),
        ] {
            tracer.push(Span {
                name,
                point,
                parent: Some(exec),
                start_ns,
                end_ns,
                busy_ns,
                calls,
            });
        }
        tracer.span("sim.finish", point, Some(parent), e1, end);
    }
}

impl Generator for TracedGen<'_> {
    fn emit<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        let pass = self.calls.get();
        self.calls.set(pass + 1);
        let start = Instant::now();
        if pass == 0 {
            self.inner.generate(sink);
            self.marks.borrow_mut().scan = Some((start, Instant::now()));
            return;
        }
        {
            let mut fwd = self.fwd.borrow_mut();
            let mut timed = Timed {
                sink,
                fwd: &mut fwd,
            };
            let mut batcher = BatchEmitter::new(&mut timed);
            self.inner.generate(&mut batcher);
            batcher.flush();
        }
        self.marks.borrow_mut().exec = Some((start, Instant::now()));
    }
}

/// Forwards batches and hints to the machine's sink, timing each call.
struct Timed<'a, S: TraceSink + ?Sized> {
    sink: &'a mut S,
    fwd: &'a mut Forwarded,
}

impl<S: TraceSink + ?Sized> Timed<'_, S> {
    #[inline]
    fn hint<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.sink);
        let t1 = Instant::now();
        self.fwd.hints_ns += (t1 - t0).as_nanos() as u64;
        self.fwd.hints += 1;
        self.fwd.first.get_or_insert(t0);
        self.fwd.last = Some(t1);
        out
    }
}

impl<S: TraceSink + ?Sized> TraceSink for Timed<'_, S> {
    fn op(&mut self, op: Op) {
        // The batcher in front only ever forwards whole batches.
        let mut batch = OpBatch::new();
        batch.push_op(op, 0);
        self.op_batch(&batch);
    }

    fn op_batch(&mut self, batch: &OpBatch) {
        if let Some(rec) = self.fwd.record.as_mut() {
            let room = self.fwd.record_cap.saturating_sub(rec.len());
            rec.extend(batch.ops().take(room));
        }
        let t0 = Instant::now();
        self.sink.op_batch(batch);
        let t1 = Instant::now();
        let f = &mut *self.fwd;
        f.ops_ns += (t1 - t0).as_nanos() as u64;
        f.batches += 1;
        f.ops += batch.len() as u64;
        f.mem_ops += (0..batch.len())
            .filter(|&i| !matches!(batch.kind(i), OpKind::Compute))
            .count() as u64;
        f.first.get_or_insert(t0);
        f.last = Some(t1);
    }

    fn alloc(&mut self, bytes: u64, atom: Option<AtomId>) -> u64 {
        self.hint(|s| s.alloc(bytes, atom))
    }
    fn create_atom(&mut self, label: &str, attrs: AtomAttributes) -> AtomId {
        self.hint(|s| s.create_atom(label, attrs))
    }
    fn create_atom_shared(&mut self, key: u64, label: &str, attrs: AtomAttributes) -> AtomId {
        self.hint(|s| s.create_atom_shared(key, label, attrs))
    }
    fn alloc_shared(&mut self, key: u64, bytes: u64, atom: Option<AtomId>) -> u64 {
        self.hint(|s| s.alloc_shared(key, bytes, atom))
    }
    fn map(&mut self, atom: AtomId, start: u64, len: u64) {
        self.hint(|s| s.map(atom, start, len));
    }
    fn unmap(&mut self, start: u64, len: u64) {
        self.hint(|s| s.unmap(start, len));
    }
    fn map_2d(&mut self, atom: AtomId, base: u64, size_x: u64, size_y: u64, len_x: u64) {
        self.hint(|s| s.map_2d(atom, base, size_x, size_y, len_x));
    }
    fn unmap_2d(&mut self, base: u64, size_x: u64, size_y: u64, len_x: u64) {
        self.hint(|s| s.unmap_2d(base, size_x, size_y, len_x));
    }
    fn activate(&mut self, atom: AtomId) {
        self.hint(|s| s.activate(atom));
    }
    fn deactivate(&mut self, atom: AtomId) {
        self.hint(|s| s.deactivate(atom));
    }
}
