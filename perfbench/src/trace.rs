//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, its parent span and the id of
//! the request it belongs to. Spans are opened around calls into the
//! library's public functions from the benchmark's own code, kept in
//! memory, and written out as JSON lines when the run ends. A disabled
//! tracer records nothing and costs one branch per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl Agg {
    pub fn median_ns(&self) -> f64 {
        crate::util::median_u64(&self.durations_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct Guard<'t> {
    tracer: Option<&'t Tracer>,
    index: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            let end = t.origin.elapsed().as_nanos() as u64;
            t.spans.borrow_mut()[self.index].end = end;
            t.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Open a span; it closes when the returned guard drops.
    pub fn span(&self, name: &'static str, req: u64) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: None,
                index: 0,
            };
        }
        let parent = self.stack.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            start: self.origin.elapsed().as_nanos() as u64,
            end: 0,
            parent,
            req,
        });
        self.stack.borrow_mut().push(index);
        Guard {
            tracer: Some(self),
            index,
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name, req);
        f()
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Aggregate spans by name. Self time is a span's duration minus
    /// the time its children cover (children of one span never overlap:
    /// spans are recorded on a single thread).
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let d = s.end - s.start;
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += d;
            a.self_ns += d.saturating_sub(child_ns[i]);
            a.durations_ns.push(d);
        }
        out
    }

    /// Sum of every span's self time (equal to the total duration of
    /// the root spans).
    pub fn self_time_sum_ns(&self) -> u64 {
        self.aggregate().values().map(|a| a.self_ns).sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}
