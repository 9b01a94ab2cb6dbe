//! In-memory spans around the benchmark's calls into each layer, and the
//! per-layer waterfall built from them.
//!
//! A span is `(id, parent, layer, name, start, end)`. Spans nest through a
//! per-thread stack; a thread with an empty stack (the TCP server's worker)
//! parents its spans to the client request in flight, published through
//! [`shared`]. Recording is off unless [`enable`] was called, and then costs
//! two clock reads and one mutex push per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The benchmark's own glue: input handling, checks, bookkeeping.
pub const BENCH: &str = "bench";
/// The bench-side journal and snapshot stores standing in for the disk.
pub const IO_SINK: &str = "io-sink";
// One layer per crate of the workspace.
pub const TRACE: &str = "mris-trace";
pub const TYPES: &str = "mris-types";
pub const SIM: &str = "mris-sim";
pub const SCHEDULERS: &str = "mris-schedulers";
pub const CORE: &str = "mris-core";
pub const KNAPSACK: &str = "mris-knapsack";
pub const SERVICE: &str = "mris-service";
pub const NET: &str = "mris-net";
pub const OBS: &str = "mris-obs";

/// One recorded span; `parent == 0` means a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
/// Id of the cross-thread request in flight. It publishes no other data,
/// so `Relaxed` suffices.
static SHARED_PARENT: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts recording into an empty span buffer.
pub fn enable() {
    SPANS.lock().expect("span buffer lock").clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and hands back every span recorded since [`enable`].
pub fn disable() -> Vec<Span> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *SPANS.lock().expect("span buffer lock"))
}

fn record<T>(layer: &'static str, name: &'static str, shared: bool, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| SHARED_PARENT.load(Ordering::Relaxed));
        s.push(id);
        parent
    });
    let previous = shared.then(|| SHARED_PARENT.swap(id, Ordering::Relaxed));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    if let Some(previous) = previous {
        SHARED_PARENT.store(previous, Ordering::Relaxed);
    }
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.lock().expect("span buffer lock").push(Span {
        id,
        parent,
        layer,
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Runs `f` inside a span of `layer`.
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    record(layer, name, false, f)
}

/// [`span`] for a request served on another thread: spans that thread
/// records while `f` runs become children of this one.
pub fn shared<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    record(layer, name, true, f)
}

/// Durations in seconds of the spans with this layer and name.
pub fn durations(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(Span::secs)
        .collect()
}

/// Total seconds of the spans with this layer (and name, when given).
pub fn total(spans: &[Span], layer: &str, name: Option<&str>) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer && name.is_none_or(|n| s.name == n))
        .map(Span::secs)
        .sum()
}

/// A stage time the program records itself (an `mris_*` obs family),
/// moved out of the layer whose spans enclose it.
#[derive(Debug, Clone, Copy)]
pub struct Carve {
    pub family: &'static str,
    pub from: &'static str,
    pub to: &'static str,
    pub secs: f64,
}

/// Per-layer self time of one traced pass.
#[derive(Debug, Clone)]
pub struct Waterfall {
    /// Duration of the root span.
    pub wall_s: f64,
    /// Self time per layer: span duration minus its children's durations,
    /// after the program-recorded carves. `bench` is the root's self time.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Spans whose parent was not recorded (none are expected).
    pub orphans: usize,
}

impl Waterfall {
    /// The waterfall under the one root span of `layer` [`BENCH`].
    pub fn build(spans: &[Span], carves: &[Carve]) -> Waterfall {
        let roots: Vec<u32> = spans
            .iter()
            .filter(|s| s.parent == 0 && s.layer == BENCH)
            .map(|s| s.id)
            .collect();
        assert_eq!(roots.len(), 1, "a traced pass has exactly one root span");
        let root = roots[0];
        let mut child_s: BTreeMap<u32, f64> = BTreeMap::new();
        for s in spans {
            if s.parent != 0 {
                *child_s.entry(s.parent).or_default() += s.secs();
            }
        }
        let known: std::collections::HashSet<u32> = spans.iter().map(|s| s.id).collect();
        let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut wall_s = 0.0;
        let mut orphans = 0;
        for s in spans {
            if s.id == root {
                wall_s = s.secs();
            } else if s.parent == 0 || !known.contains(&s.parent) {
                orphans += 1;
                continue;
            }
            let own = s.secs() - child_s.get(&s.id).copied().unwrap_or(0.0);
            *self_s.entry(s.layer).or_default() += own;
        }
        for c in carves {
            *self_s.entry(c.from).or_default() -= c.secs;
            *self_s.entry(c.to).or_default() += c.secs;
        }
        Waterfall {
            wall_s,
            self_s,
            orphans,
        }
    }

    /// Share of the traced wall spent inside the program's layers (every
    /// layer but the benchmark's own glue).
    pub fn coverage(&self) -> f64 {
        let covered: f64 = self
            .self_s
            .iter()
            .filter(|(layer, _)| **layer != BENCH)
            .map(|(_, s)| s)
            .sum();
        covered / self.wall_s.max(1e-12)
    }
}

/// Writes the spans (one CSV line each) and the program-recorded carves to
/// `path`.
pub fn write(path: &std::path::Path, spans: &[Span], carves: &[Carve]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,layer,name,start_ns,end_ns,source")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{},bench",
            s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    for c in carves {
        // Program-recorded totals carry a duration but no interval.
        writeln!(
            out,
            ",,{},{},0,{},program(from {})",
            c.to,
            c.family,
            (c.secs * 1e9) as u64,
            c.from
        )?;
    }
    out.flush()
}
