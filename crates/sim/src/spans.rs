//! Hierarchical host-side span profiler: where does a sweep's host
//! time go, kernel by kernel?
//!
//! [`hostperf`](crate::hostperf) answers the coarse question (alloc vs
//! simulate vs setup/report, per-worker busy/idle). This module splits
//! each pool cell by kernel layer: RAII scoped timers ([`span`]) form a
//! per-thread stack whose closed frames accumulate into collapsed call
//! paths (`"pool.cell;kernel.timing"`), each with a call count and
//! inclusive nanoseconds. [`snapshot`] merges every thread's totals,
//! derives exclusive time (inclusive minus direct children) and returns
//! the spans sorted by path; [`collapsed_stacks`] renders the standard
//! `stack value` text that flamegraph tooling consumes directly.
//!
//! Cost model: recording is always on, so span sites sit at kernel
//! granularity only (`pool.cell`, `kernel.functional`, `kernel.timing`,
//! `kernel.absorb`, `sweep.slow_cell_injection`) — a few per cell,
//! never per epoch or per simulated event. Each span costs two
//! `Instant` reads, a hash-map bump on a thread-local table and a copy
//! of the open path into the thread's [`live_stacks`] slot; the
//! collapsed path is maintained incrementally, so steady-state spans
//! allocate nothing. Costs below kernel level are the benchmark's
//! per-layer ledger.
//!
//! Like `hostPerf`, everything here is host-side wall-clock telemetry:
//! it never touches simulated [`Stats`](crate::Stats) or stdout, and
//! the emitted `gvf.hostprofile` artifact is excluded from the
//! serial-vs-parallel determinism diff by construction (it is a
//! separate file, not a manifest section).
//!
//! Thread lifecycle: [`SimPool`](crate::SimPool) workers flush their
//! local tables into the global collector when the thread exits, via
//! the thread-local's `Drop`. The calling thread is flushed explicitly
//! by [`snapshot`], so harness binaries need no manual bookkeeping.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Separator between frames of a collapsed path (the flamegraph
/// convention).
pub const PATH_SEPARATOR: char = ';';

/// One thread's published live state: a stable label plus the currently
/// open collapsed path (kept allocation-free in steady state — the
/// buffer's capacity is reused on every update).
#[derive(Debug)]
struct LiveSlot {
    label: String,
    path: Mutex<String>,
}

type LiveRegistry = Mutex<Vec<(u64, Arc<LiveSlot>)>>;

fn live_registry() -> &'static LiveRegistry {
    static REGISTRY: OnceLock<LiveRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// The current open span path of every live thread that has opened a
/// span, as `(thread label, collapsed path)` pairs sorted by label;
/// threads with no open span are omitted. This is the stall watchdog's
/// view into what a stuck worker is doing right now (a stuck thread
/// cannot flush or report on itself). Labels are thread names
/// (`pool-worker-N`, …) or `thread-<seq>` for unnamed threads.
pub fn live_stacks() -> Vec<(String, String)> {
    let registry = live_registry().lock().expect("live stack registry");
    let mut out: Vec<(String, String)> = registry
        .iter()
        .filter_map(|(_, slot)| {
            let path = slot.path.lock().expect("live stack slot").clone();
            if path.is_empty() {
                None
            } else {
                Some((slot.label.clone(), path))
            }
        })
        .collect();
    drop(registry);
    out.sort();
    out
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Totals {
    count: u64,
    total_ns: u64,
}

/// One merged span in a [`snapshot`]: a collapsed call path with its
/// call count, inclusive nanoseconds, and exclusive nanoseconds
/// (inclusive minus the inclusive time of direct children).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// `;`-joined path from the outermost enclosing span to this one.
    pub path: String,
    /// Times this exact path was entered and closed.
    pub count: u64,
    /// Inclusive wall nanoseconds across all entries.
    pub total_ns: u64,
    /// `total_ns` minus the `total_ns` of direct children — the time
    /// spent in this frame itself.
    pub exclusive_ns: u64,
}

struct ThreadSpans {
    /// The collapsed path of the currently open span stack, maintained
    /// incrementally (`"a;b;c"` when three spans are open).
    path: String,
    /// One mark per open span: the path length to truncate back to on
    /// close, and the start instant.
    marks: Vec<(usize, Instant)>,
    totals: HashMap<String, Totals>,
    /// This thread's slot in the live-stack registry, registered lazily
    /// on the first span opened; the id keys the registry entry for
    /// removal on thread exit.
    live: Option<(u64, Arc<LiveSlot>)>,
}

impl ThreadSpans {
    fn new() -> Self {
        ThreadSpans {
            path: String::new(),
            marks: Vec::new(),
            totals: HashMap::new(),
            live: None,
        }
    }

    /// Mirrors the current open path into this thread's registry slot
    /// (registering on first use). Steady-state cost: one uncontended
    /// lock plus a copy into a reused buffer.
    fn publish_live(&mut self) {
        if self.live.is_none() {
            static NEXT_ID: AtomicU64 = AtomicU64::new(0);
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            let label = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{id}"));
            let slot = Arc::new(LiveSlot {
                label,
                path: Mutex::new(String::new()),
            });
            live_registry()
                .lock()
                .expect("live stack registry")
                .push((id, Arc::clone(&slot)));
            self.live = Some((id, slot));
        }
        if let Some((_, slot)) = &self.live {
            let mut published = slot.path.lock().expect("live stack slot");
            published.clear();
            published.push_str(&self.path);
        }
    }

    fn open(&mut self, name: &'static str) {
        let prev_len = self.path.len();
        if prev_len > 0 {
            self.path.push(PATH_SEPARATOR);
        }
        self.path.push_str(name);
        self.marks.push((prev_len, Instant::now()));
        self.publish_live();
    }

    fn close(&mut self) {
        let Some((prev_len, start)) = self.marks.pop() else {
            return; // unbalanced close; drop silently rather than panic
        };
        let ns = start.elapsed().as_nanos() as u64;
        // Steady state allocates nothing: the owned key is only cloned
        // the first time a path is seen.
        match self.totals.get_mut(self.path.as_str()) {
            Some(t) => {
                t.count += 1;
                t.total_ns += ns;
            }
            None => {
                self.totals.insert(
                    self.path.clone(),
                    Totals {
                        count: 1,
                        total_ns: ns,
                    },
                );
            }
        }
        self.path.truncate(prev_len);
        self.publish_live();
    }

    fn flush(&mut self) {
        if self.totals.is_empty() {
            return;
        }
        let mut global = collector().lock().expect("span collector mutex");
        for (path, t) in self.totals.drain() {
            let e = global.entry(path).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
        }
    }
}

impl Drop for ThreadSpans {
    fn drop(&mut self) {
        // Worker threads (SimPool workers) merge their tables here when
        // they exit.
        self.flush();
        if let Some((id, _)) = self.live.take() {
            live_registry()
                .lock()
                .expect("live stack registry")
                .retain(|(slot_id, _)| *slot_id != id);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::new());
}

fn collector() -> &'static Mutex<HashMap<String, Totals>> {
    static COLLECTOR: OnceLock<Mutex<HashMap<String, Totals>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(HashMap::new()))
}

/// RAII guard returned by [`span`]; closes the span on drop.
#[derive(Debug)]
pub struct SpanGuard(());

impl Drop for SpanGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| l.borrow_mut().close());
    }
}

/// Opens a named span on this thread's stack; the returned guard closes
/// it when dropped.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    LOCAL.with(|l| l.borrow_mut().open(name));
    SpanGuard(())
}

/// Merges this thread's local table into the global collector. Worker
/// threads do this automatically on exit; [`snapshot`] calls it for the
/// snapshotting thread.
pub fn flush_current_thread() {
    LOCAL.with(|l| l.borrow_mut().flush());
}

/// Direct-parent path of a collapsed path, or `None` for roots.
fn parent(path: &str) -> Option<&str> {
    path.rfind(PATH_SEPARATOR).map(|i| &path[..i])
}

/// A merged view of every flushed thread's spans, sorted by path, with
/// exclusive time derived. Open (unclosed) spans are not included.
pub fn snapshot() -> Vec<SpanStat> {
    flush_current_thread();
    let global = collector().lock().expect("span collector mutex");
    let mut stats: Vec<SpanStat> = global
        .iter()
        .map(|(path, t)| SpanStat {
            path: path.clone(),
            count: t.count,
            total_ns: t.total_ns,
            exclusive_ns: t.total_ns,
        })
        .collect();
    drop(global);
    stats.sort_by(|a, b| a.path.cmp(&b.path));
    // Exclusive = inclusive − Σ direct children, computed over the
    // merged table (a path's totals can come from several threads) and
    // saturating when a child outlives its parent's measured window.
    let child_ns: HashMap<String, u64> = {
        let mut acc: HashMap<String, u64> = HashMap::new();
        for s in &stats {
            if let Some(p) = parent(&s.path) {
                *acc.entry(p.to_string()).or_default() += s.total_ns;
            }
        }
        acc
    };
    for s in &mut stats {
        if let Some(ns) = child_ns.get(&s.path) {
            s.exclusive_ns = s.total_ns.saturating_sub(*ns);
        }
    }
    stats
}

/// One aligned span path across two profiles: its exclusive time on
/// each side, zero-filled where the path is missing. Produced by
/// [`align_exclusive`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanDelta {
    /// Collapsed span path (`;`-separated).
    pub path: String,
    /// Exclusive nanoseconds in the baseline profile (0 if absent).
    pub baseline_ns: u64,
    /// Exclusive nanoseconds in the current profile (0 if absent).
    pub current_ns: u64,
}

impl SpanDelta {
    /// `current − baseline`, signed.
    pub fn delta_ns(&self) -> i128 {
        self.current_ns as i128 - self.baseline_ns as i128
    }
}

/// Aligns two `(path, exclusive_ns)` profiles — e.g. two runs' span
/// snapshots read back from `gvf.hostprofile` artifacts — into per-path
/// exclusive-time deltas. Paths present on one side only are zero-filled
/// on the other; paths whose exclusive time is identical on both sides
/// are omitted (so diffing a profile against itself yields an empty
/// list). Sorted by |delta| descending, ties by path, so the top-K
/// movers are a prefix. Duplicate paths on a side are summed.
pub fn align_exclusive(baseline: &[(String, u64)], current: &[(String, u64)]) -> Vec<SpanDelta> {
    let mut merged: HashMap<&str, (u64, u64)> = HashMap::new();
    for (path, ns) in baseline {
        merged.entry(path.as_str()).or_default().0 += ns;
    }
    for (path, ns) in current {
        merged.entry(path.as_str()).or_default().1 += ns;
    }
    let mut deltas: Vec<SpanDelta> = merged
        .into_iter()
        .filter(|(_, (b, c))| b != c)
        .map(|(path, (baseline_ns, current_ns))| SpanDelta {
            path: path.to_string(),
            baseline_ns,
            current_ns,
        })
        .collect();
    deltas.sort_by(|a, b| {
        b.delta_ns()
            .abs()
            .cmp(&a.delta_ns().abs())
            .then_with(|| a.path.cmp(&b.path))
    });
    deltas
}

/// Renders spans as collapsed-stack text (`path value` per line, values
/// in exclusive nanoseconds) — the input format of standard flamegraph
/// generators.
pub fn collapsed_stacks(stats: &[SpanStat]) -> String {
    let mut out = String::new();
    for s in stats {
        out.push_str(&s.path);
        out.push(' ');
        out.push_str(&s.exclusive_ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global and tests share a process, so
    // every test uses unique span names and filters its snapshot.

    #[test]
    fn nested_spans_accumulate_and_derive_exclusive() {
        {
            let _outer = span("spans_test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("spans_test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let snap = snapshot();
        let outer = snap
            .iter()
            .find(|s| s.path == "spans_test.outer")
            .expect("outer span recorded");
        let inner = snap
            .iter()
            .find(|s| s.path == "spans_test.outer;spans_test.inner")
            .expect("inner span recorded under outer");
        assert!(outer.count >= 1 && inner.count >= 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.exclusive_ns <= outer.total_ns.saturating_sub(inner.total_ns) + 1);
        assert_eq!(inner.exclusive_ns, inner.total_ns);
    }

    #[test]
    fn worker_thread_flushes_on_exit() {
        std::thread::spawn(|| {
            let _g = span("spans_test.worker_root");
        })
        .join()
        .unwrap();
        let snap = snapshot();
        assert!(snap.iter().any(|s| s.path == "spans_test.worker_root"));
    }

    #[test]
    fn live_stacks_show_open_spans_and_clear_on_close() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::Builder::new()
            .name("spans-test-live".into())
            .spawn(move || {
                let _outer = span("spans_test.live_outer");
                let _inner = span("spans_test.live_inner");
                tx.send(()).unwrap();
                done_rx.recv().unwrap(); // hold the spans open
            })
            .unwrap();
        rx.recv().unwrap();
        let stacks = live_stacks();
        let mine = stacks
            .iter()
            .find(|(label, _)| label == "spans-test-live")
            .expect("worker published a live stack");
        assert_eq!(mine.1, "spans_test.live_outer;spans_test.live_inner");
        done_tx.send(()).unwrap();
        worker.join().unwrap();
        // The thread exited: its registry slot is gone.
        assert!(!live_stacks()
            .iter()
            .any(|(label, _)| label == "spans-test-live"));
    }

    #[test]
    fn collapsed_stack_lines_are_flamegraph_shaped() {
        {
            let _g = span("spans_test.collapse_me");
        }
        let snap = snapshot();
        let text = collapsed_stacks(&snap);
        let line = text
            .lines()
            .find(|l| l.starts_with("spans_test.collapse_me "))
            .expect("collapsed line present");
        let (path, value) = line.rsplit_once(' ').unwrap();
        assert_eq!(path, "spans_test.collapse_me");
        assert!(value.parse::<u64>().is_ok());
    }

    fn profile(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(p, ns)| (p.to_string(), *ns)).collect()
    }

    #[test]
    fn align_exclusive_self_diff_is_empty() {
        let p = profile(&[("a", 100), ("a;b", 50), ("c", 0)]);
        assert!(align_exclusive(&p, &p).is_empty());
    }

    #[test]
    fn align_exclusive_zero_fills_and_ranks_by_absolute_delta() {
        let base = profile(&[("kernel.timing", 1_000), ("report", 200)]);
        let cur = profile(&[
            ("kernel.timing", 1_100),
            ("report", 200),
            ("sweep.slow_cell_injection", 9_000),
        ]);
        let deltas = align_exclusive(&base, &cur);
        assert_eq!(deltas.len(), 2); // "report" is unchanged → omitted
        assert_eq!(deltas[0].path, "sweep.slow_cell_injection");
        assert_eq!(deltas[0].baseline_ns, 0);
        assert_eq!(deltas[0].current_ns, 9_000);
        assert_eq!(deltas[0].delta_ns(), 9_000);
        assert_eq!(deltas[1].path, "kernel.timing");
        assert_eq!(deltas[1].delta_ns(), 100);
    }

    #[test]
    fn align_exclusive_ranks_shrinkage_too() {
        let base = profile(&[("x", 5_000), ("y", 100)]);
        let cur = profile(&[("y", 250)]);
        let deltas = align_exclusive(&base, &cur);
        assert_eq!(deltas[0].path, "x");
        assert_eq!(deltas[0].delta_ns(), -5_000);
        assert_eq!(deltas[1].path, "y");
        assert_eq!(deltas[1].delta_ns(), 150);
    }
}
