//! Spans recorded from the benchmark's side of each layer's public API.
//!
//! A span is (op id, name, parent, start, end). Spans stay in memory and
//! are written out when the run ends. A layer's self time is its span's
//! duration minus the part its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single-threaded span recorder.
pub struct Tracer {
    epoch: Instant,
    op: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Tracer {
    /// A tracer sharing `epoch` with its siblings on other threads.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Tag the spans that follow with op id `op`.
    pub fn set_op(&self, op: u32) {
        self.op.set(op);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { op: self.op.get(), name, parent, start_ns: self.now(), end_ns: 0 });
            (spans.len() - 1) as u32
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now();
        self.spans.borrow_mut()[idx as usize].end_ns = end;
        out
    }

    /// All spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Per-name self time (ns) and span count over `spans`. Parent indices
/// refer to positions in `spans`, so merge per-thread lists with
/// [`merge`] before calling this.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += (s.end_ns - s.start_ns).saturating_sub(c);
        e.1 += 1;
    }
    out
}

/// Concatenate per-thread span lists, rebasing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len() as u32;
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Tab-separated span dump: `id op name parent start_ns end_ns`.
pub fn dump(spans: &[Span]) -> String {
    let mut out = String::from("id\top\tname\tparent\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(out, "{i}\t{}\t{}\t{parent}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns);
    }
    out
}
