//! Outside-in tracing: spans recorded by the benchmark around its own calls
//! into the repository's public API, never inside the program.
//!
//! A span carries a name, start and end, the span that caused it, the
//! recording thread and an optional request id. Spans are kept in memory
//! and written out once, when a traced repetition ends. [`breakdown`] turns
//! a span tree into per-stage self times that add up to the root's wall
//! time exactly, with the root's own uncovered time reported as `other`.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use lightnas_predictor::Predictor;
use lightnas_space::Architecture;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u32,
    /// The causing span's id; 0 for a root.
    pub parent: u32,
    /// Stage name, e.g. `predictor.query`.
    pub name: &'static str,
    /// Recording thread (benchmark-assigned, starting at 1).
    pub thread: u32,
    /// Start, ns since the process's trace epoch.
    pub start_ns: u64,
    /// End, ns since the process's trace epoch.
    pub end_ns: u64,
    /// Request id for per-request spans; 0 otherwise.
    pub request: u64,
    /// How many threads may run this span's children at once. A blocking
    /// call that waits on its children has 1; a sweep on `w` workers has
    /// `w`. See [`breakdown`].
    pub lanes: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Reserves a span id before the span's children run (0 when disabled).
pub fn reserve() -> u32 {
    if enabled() {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// Records a finished span under a reserved `id`.
pub fn record(id: u32, name: &'static str, parent: u32, start_ns: u64, lanes: u32, request: u64) {
    if id == 0 {
        return;
    }
    let span = Span {
        id,
        parent,
        name,
        thread: THREAD.with(|t| *t),
        start_ns,
        end_ns: now_ns(),
        request,
        lanes,
    };
    SPANS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(span);
}

/// Runs `f` inside a span; `f` receives the span's id to parent children
/// on. A no-op wrapper when tracing is off.
pub fn span<R>(name: &'static str, parent: u32, lanes: u32, f: impl FnOnce(u32) -> R) -> R {
    let id = reserve();
    if id == 0 {
        return f(0);
    }
    let start = now_ns();
    let out = f(id);
    record(id, name, parent, start, lanes, 0);
    out
}

/// Drains every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(PoisonError::into_inner))
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    SPANS.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Writes spans as JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
            s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns, s.request
        )?;
    }
    w.flush()
}

/// Wall time of the root span, split into per-stage self times.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// The root span's duration, s.
    pub wall_s: f64,
    /// Self time per stage name, s (root excluded).
    pub stages: BTreeMap<&'static str, f64>,
    /// The root's own uncovered time, s.
    pub other_s: f64,
}

impl Breakdown {
    /// Sum of every stage plus `other`: equals `wall_s` up to rounding.
    pub fn total_s(&self) -> f64 {
        self.stages.values().sum::<f64>() + self.other_s
    }
}

/// A weight over a time interval: `(from_ns, to_ns, share of wall)`.
type Segment = (u64, u64, f64);

fn push_merged(segs: &mut Vec<Segment>, from: u64, to: u64, w: f64) {
    if let Some(last) = segs.last_mut() {
        if last.1 == from && last.2 == w {
            last.1 = to;
            return;
        }
    }
    segs.push((from, to, w));
}

/// Attributes the wall time of span `root` to the spans beneath it.
///
/// A span's self time is its duration minus the part its children cover.
/// Children running concurrently share their parent's time: at each
/// instant, with `k` children active on a parent of `lanes` lanes, each
/// child receives `1 / max(lanes, k)` of it and the parent keeps
/// `max(lanes - k, 0) / lanes` (a sweep on two workers with one busy
/// worker keeps half the instant as its own idle time). The weights
/// cascade down the tree, so the self times of all spans sum to the root's
/// wall time exactly; the root's own share is reported as `other`.
///
/// # Panics
///
/// Panics if `root` is not among `spans`.
pub fn breakdown(spans: &[Span], root: u32) -> Breakdown {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut kids: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 && s.end_ns > s.start_ns {
            kids.entry(s.parent).or_default().push(i);
        }
    }
    let r = index[&root];
    let top = &spans[r];
    let mut stages = BTreeMap::new();
    let mut other_ns = 0.0;
    let mut stack: Vec<(usize, Vec<Segment>)> = vec![(r, vec![(top.start_ns, top.end_ns, 1.0)])];
    while let Some((i, segs)) = stack.pop() {
        let s = &spans[i];
        let children = kids.get(&s.id).map_or(&[][..], Vec::as_slice);
        let (lo, hi) = (segs[0].0, segs[segs.len() - 1].1);
        let mut points: Vec<u64> = segs.iter().flat_map(|g| [g.0, g.1]).collect();
        // (time, entering?, child slot); leaves sort before entries.
        let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * children.len());
        for (k, &c) in children.iter().enumerate() {
            let (a, b) = (spans[c].start_ns.max(lo), spans[c].end_ns.min(hi));
            if a < b {
                points.extend([a, b]);
                events.push((a, true, k));
                events.push((b, false, k));
            }
        }
        points.sort_unstable();
        points.dedup();
        events.sort_unstable_by_key(|&(t, entering, _)| (t, entering));
        let lanes = f64::from(s.lanes.max(1));
        let mut child_segs: Vec<Vec<Segment>> = vec![Vec::new(); children.len()];
        let mut active: Vec<usize> = Vec::new();
        let (mut e, mut g) = (0, 0);
        let mut self_ns = 0.0;
        for w in points.windows(2) {
            let (x, y) = (w[0], w[1]);
            while e < events.len() && events[e].0 <= x {
                let (_, entering, k) = events[e];
                if entering {
                    active.push(k);
                } else if let Some(p) = active.iter().position(|&a| a == k) {
                    active.swap_remove(p);
                }
                e += 1;
            }
            while g < segs.len() && segs[g].1 <= x {
                g += 1;
            }
            let weight = match segs.get(g) {
                Some(seg) if seg.0 <= x => seg.2,
                _ => continue,
            };
            let dt = (y - x) as f64;
            let k = active.len() as f64;
            self_ns += weight * dt * (lanes - k).max(0.0) / lanes;
            for &a in &active {
                push_merged(&mut child_segs[a], x, y, weight / lanes.max(k));
            }
        }
        if i == r {
            other_ns += self_ns;
        } else {
            *stages.entry(s.name).or_insert(0.0) += self_ns * 1e-9;
        }
        for (k, segs) in child_segs.into_iter().enumerate() {
            if !segs.is_empty() {
                stack.push((children[k], segs));
            }
        }
    }
    Breakdown {
        wall_s: (top.end_ns - top.start_ns) as f64 * 1e-9,
        stages,
        other_s: other_ns * 1e-9,
    }
}

/// Durations (µs) of the spans named `name`, grouped per thread in start
/// order — the call sequences a per-thread growth ratio is read from.
pub fn per_thread_us(spans: &[Span], name: &str) -> BTreeMap<u32, Vec<f64>> {
    let mut by_thread: BTreeMap<u32, Vec<(u64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        by_thread
            .entry(s.thread)
            .or_default()
            .push((s.start_ns, (s.end_ns - s.start_ns) as f64 * 1e-3));
    }
    by_thread
        .into_iter()
        .map(|(t, mut v)| {
            v.sort_by_key(|&(start, _)| start);
            (t, v.into_iter().map(|(_, d)| d).collect())
        })
        .collect()
}

/// A pass-through [`Predictor`] that records one span
/// per call while tracing is on. Placed directly over the trained model it
/// times exactly the queries that reach the model (below any cache).
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    name: &'static str,
    parent: AtomicU32,
}

impl<P> Timed<P> {
    /// Wraps `inner`, naming its spans `name`.
    pub fn new(inner: P, name: &'static str) -> Self {
        Self {
            inner,
            name,
            parent: AtomicU32::new(0),
        }
    }

    /// Parents later spans on `id` (the call that drives this predictor).
    pub fn set_parent(&self, id: u32) {
        self.parent.store(id, Ordering::Relaxed);
    }

    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        span(self.name, self.parent.load(Ordering::Relaxed), 1, |_| f())
    }
}

impl<P: Predictor> Predictor for Timed<P> {
    fn predict_encoding(&self, encoding: &[f32]) -> f64 {
        self.time(|| self.inner.predict_encoding(encoding))
    }

    fn gradient(&self, encoding: &[f32]) -> Vec<f32> {
        self.time(|| self.inner.gradient(encoding))
    }

    fn predict(&self, arch: &Architecture) -> f64 {
        self.time(|| self.inner.predict(arch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u32, parent: u32, name: &'static str, start: u64, end: u64, lanes: u32) -> Span {
        Span {
            id,
            parent,
            name,
            thread: 1,
            start_ns: start,
            end_ns: end,
            request: 0,
            lanes,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        // root [0,100) ─ a [10,60) ─ c [20,30)
        //             └ b [50,90)            (overlaps a on [50,60))
        let spans = [
            s(1, 0, "root", 0, 100, 1),
            s(2, 1, "a", 10, 60, 1),
            s(3, 1, "b", 50, 90, 1),
            s(4, 2, "c", 20, 30, 1),
        ];
        let b = breakdown(&spans, 1);
        // Uncovered root time: [0,10) and [90,100).
        assert!((b.other_s - 20e-9).abs() < 1e-15);
        // a: [10,50) alone minus c's 10 → 30, plus half of [50,60) → 35.
        assert!((b.stages["a"] - 35e-9).abs() < 1e-15);
        assert!((b.stages["b"] - 35e-9).abs() < 1e-15);
        assert!((b.stages["c"] - 10e-9).abs() < 1e-15);
        assert!((b.total_s() - b.wall_s).abs() < 1e-15);
    }

    #[test]
    fn lanes_split_parallel_children_and_keep_idle_capacity() {
        // A sweep on 2 lanes: one worker busy on [0,100), the other on
        // [0,40). The sweep keeps half of [40,100) as its own idle time.
        let spans = [
            s(1, 0, "root", 0, 100, 1),
            s(2, 1, "sweep", 0, 100, 2),
            s(3, 2, "job", 0, 100, 1),
            s(4, 2, "job", 0, 40, 1),
        ];
        let b = breakdown(&spans, 1);
        assert_eq!(b.other_s, 0.0);
        assert!((b.stages["sweep"] - 30e-9).abs() < 1e-15);
        assert!((b.stages["job"] - 70e-9).abs() < 1e-15);
        assert!((b.total_s() - b.wall_s).abs() < 1e-15);
    }

    #[test]
    fn children_outside_their_parent_are_clipped() {
        let spans = [s(1, 0, "root", 10, 20, 1), s(2, 1, "late", 15, 40, 1)];
        let b = breakdown(&spans, 1);
        assert!((b.stages["late"] - 5e-9).abs() < 1e-15);
        assert!((b.other_s - 5e-9).abs() < 1e-15);
    }

    #[test]
    fn per_thread_sequences_are_in_start_order() {
        let mut a = s(1, 0, "q", 50, 52, 1);
        let mut b = s(2, 0, "q", 10, 13, 1);
        let c = s(3, 0, "other", 0, 1, 1);
        a.thread = 7;
        b.thread = 7;
        let seq = per_thread_us(&[a, b, c], "q");
        assert_eq!(seq[&7], vec![0.003, 0.002]);
    }
}
