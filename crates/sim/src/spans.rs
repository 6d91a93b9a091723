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
//! `kernel.absorb`) — a few per cell, never per epoch or per simulated
//! event. Each span costs two
//! `Instant` reads and a hash-map bump on a thread-local table; the
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
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Separator between frames of a collapsed path (the flamegraph
/// convention).
pub const PATH_SEPARATOR: char = ';';

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
}

impl ThreadSpans {
    fn new() -> Self {
        ThreadSpans {
            path: String::new(),
            marks: Vec::new(),
            totals: HashMap::new(),
        }
    }

    fn open(&mut self, name: &'static str) {
        let prev_len = self.path.len();
        if prev_len > 0 {
            self.path.push(PATH_SEPARATOR);
        }
        self.path.push_str(name);
        self.marks.push((prev_len, Instant::now()));
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
}
