//! In-memory span recorder for the traced replay.
//!
//! Every call into a layer is wrapped in a span: name, start, end, the
//! parent span (on the same thread, or an explicit cross-thread parent
//! for pool workers) and the thread it ran on. All spans of one run
//! share the run id. Spans stay in memory until the run ends, when
//! [`Tracer::write_jsonl`] writes them out. A disabled tracer records
//! nothing and just calls the wrapped closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> u64 {
    THREAD.with(|t| *t)
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub run_id: String,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new(on: bool, run_id: String) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            run_id,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The innermost open span on this thread (0 when none).
    pub fn current(&self) -> u64 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// How many spans are open on this thread.
    pub fn depth(&self) -> usize {
        STACK.with(|s| s.borrow().len())
    }

    /// Drops spans left open on this thread by a panic caught below
    /// `depth` (they are never recorded).
    pub fn unwind_to(&self, depth: usize) {
        STACK.with(|s| s.borrow_mut().truncate(depth));
    }

    /// Runs `f` inside a span whose parent is this thread's innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let parent = self.current();
        self.span_under(parent, name, f)
    }

    /// Runs `f` inside a span with an explicit parent (used by pool
    /// workers, whose parent span lives on the spawning thread).
    pub fn span_under<T>(&self, parent: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans.lock().expect("span list").push(Span {
            id,
            parent,
            name,
            thread: thread_id(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Adds `value` to a per-run counter (recorded only when tracing).
    pub fn count(&self, name: &'static str, value: f64) {
        if self.on {
            *self
                .counters
                .lock()
                .expect("counter map")
                .entry(name)
                .or_insert(0.0) += value;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list").clone()
    }

    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        self.counters.lock().expect("counter map").clone()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list").iter() {
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name: a span's duration minus the durations of
/// its children on the same thread. Children on other threads (pool
/// workers) run concurrently and are not subtracted.
///
/// Also returns the traced thread time: the summed durations of every
/// span that has no parent on its own thread; when spans nest properly
/// (the caller checks that they do), the self times sum to it.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let mut thread_ns = 0u64;
    for s in spans {
        match by_id.get(&s.parent) {
            Some(p) if p.thread == s.thread => {
                *child_ns.entry(p.id).or_insert(0) += s.end_ns - s.start_ns;
            }
            _ => thread_ns += s.end_ns - s.start_ns,
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns) as i128 - *child_ns.get(&s.id).unwrap_or(&0) as i128;
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    (out, thread_ns as f64 / 1e9)
}

/// Total duration per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0.0, 0));
        e.0 += s.secs();
        e.1 += 1;
    }
    out
}

/// The most spans named `name` open at any one instant.
pub fn max_concurrent(spans: &[Span], name: &str) -> u64 {
    let mut edges: Vec<(u64, i64)> = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        edges.push((s.start_ns, 1));
        edges.push((s.end_ns, -1));
    }
    // Ends sort before starts at the same instant.
    edges.sort();
    let (mut open, mut most) = (0i64, 0i64);
    for (_, d) in edges {
        open += d;
        most = most.max(open);
    }
    most as u64
}
