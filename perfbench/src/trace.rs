//! In-memory spans for the traced run.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the request it belongs to (a plan run or a tenant job is one
//! request). Spans are recorded from the benchmark's own code, around the
//! calls it makes into each layer and from a bench-owned event sink, kept
//! in memory, and read once when the run ends.
//!
//! Calls into `compute_output` and `matches_any` are too many to keep one
//! span each, so they are *leaves*: each thread adds their count and time
//! to its own counters, and to the open span on its stack, whose self time
//! then excludes them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span marks.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to the start while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 = none).
    pub request: u64,
    /// Time covered by leaf calls made while this span was the innermost
    /// open span of its thread.
    pub leaf_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover, minus its leaf time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            s.duration_ns()
                .saturating_sub(covered)
                .saturating_sub(s.leaf_ns)
        })
        .collect()
}

/// Per span name: (count, total duration ns, total self time ns).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// Kinds of leaf call.
#[derive(Debug, Clone, Copy)]
pub enum Leaf {
    /// `compute_output` in original code.
    Kernel = 0,
    /// `compute_output` in auxiliary code (`ctx.is_auxiliary()`).
    Aux = 1,
    /// `matches_any` that returned true.
    ValidateMatch = 2,
    /// `matches_any` that returned false.
    ValidateMiss = 3,
}

const LEAF_KINDS: usize = 4;

/// Leaf counters written only by their owning thread.
#[derive(Default)]
struct LeafCounters {
    calls: [AtomicU64; LEAF_KINDS],
    ns: [AtomicU64; LEAF_KINDS],
}

/// Totals of one leaf kind over all threads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LeafTotals {
    /// Calls made.
    pub calls: u64,
    /// Time spent in them, ns.
    pub ns: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<Vec<Arc<LeafCounters>>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    /// Open spans of this thread, innermost last: (span index, leaf ns).
    static STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
    static LEAVES: Arc<LeafCounters> = {
        let counters = Arc::new(LeafCounters::default());
        tracer()
            .threads
            .lock()
            .expect("tracer registry lock")
            .push(Arc::clone(&counters));
        counters
    };
}

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        threads: Mutex::new(Vec::new()),
    })
}

/// Nanoseconds since the tracer's epoch.
pub fn now_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

/// Open a span on this thread. Its parent is `parent` if given, else the
/// innermost open span of this thread. Returns its index.
pub fn begin(name: &'static str, request: u64, parent: Option<usize>) -> usize {
    let parent = parent.or_else(|| STACK.with(|s| s.borrow().last().map(|(i, _)| *i)));
    let start_ns = now_ns();
    let idx = {
        let mut spans = tracer().spans.lock().expect("span store lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            leaf_ns: 0,
        });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push((idx, 0)));
    idx
}

/// Close span `idx`, which must be the innermost open span of this thread.
pub fn end(idx: usize) {
    let end_ns = now_ns();
    let (top, leaf_ns) = STACK
        .with(|s| s.borrow_mut().pop())
        .expect("end() without an open span");
    assert_eq!(top, idx, "spans must close innermost first");
    let mut spans = tracer().spans.lock().expect("span store lock");
    spans[idx].end_ns = end_ns;
    spans[idx].leaf_ns = leaf_ns;
}

/// Record a span that starts at `start_ns` but is not on any thread's
/// stack, such as a tenant job that one thread opens and another closes.
/// Close it with [`close_detached`].
pub fn open_detached(name: &'static str, request: u64, start_ns: u64) -> usize {
    let mut spans = tracer().spans.lock().expect("span store lock");
    spans.push(Span {
        name,
        start_ns,
        end_ns: start_ns,
        parent: None,
        request,
        leaf_ns: 0,
    });
    spans.len() - 1
}

/// Close a span made by [`open_detached`] at `end_ns`.
pub fn close_detached(idx: usize, end_ns: u64) {
    tracer().spans.lock().expect("span store lock")[idx].end_ns = end_ns;
}

/// Close the innermost open span of this thread.
pub fn end_innermost() {
    if let Some(idx) = STACK.with(|s| s.borrow().last().map(|(i, _)| *i)) {
        end(idx);
    }
}

/// Record one leaf call of `kind` that started at `start`.
pub fn leaf(kind: Leaf, start: Instant) {
    let ns = start.elapsed().as_nanos() as u64;
    LEAVES.with(|c| {
        c.calls[kind as usize].fetch_add(1, Ordering::Relaxed);
        c.ns[kind as usize].fetch_add(ns, Ordering::Relaxed);
    });
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.1 += ns;
        }
    });
}

/// Leaf totals of `kind` over every thread so far.
pub fn leaf_totals(kind: Leaf) -> LeafTotals {
    let threads = tracer().threads.lock().expect("tracer registry lock");
    threads
        .iter()
        .fold(LeafTotals::default(), |acc, c| LeafTotals {
            calls: acc.calls + c.calls[kind as usize].load(Ordering::Relaxed),
            ns: acc.ns + c.ns[kind as usize].load(Ordering::Relaxed),
        })
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    tracer().spans.lock().expect("span store lock").clone()
}
