//! Host-performance telemetry: where does the *simulator's* wall-clock
//! time go?
//!
//! PR 2 made the simulated machine observable; this module observes the
//! machine running the simulation. It is a process-wide collector that
//! accumulates, with negligible overhead (a handful of clock reads and
//! atomic adds per simulation cell, never per simulated event):
//!
//! - **phase time** — host nanoseconds attributed to the
//!   [`Phase::Alloc`] (object construction, range finalization, host
//!   frame prep) and [`Phase::Simulate`] (functional trace generation +
//!   timing replay) phases, fed by `gvf-workloads`' `Rig`; the
//!   setup/report phases are derived from the sweep bounds recorded by
//!   the harness ([`record_sweep`]);
//! - **pool telemetry** — per-worker busy / queue-wait / idle time and
//!   cell counts from [`crate::SimPool::run_timed`], one
//!   [`SweepTelemetry`] per sweep;
//! - **peak RSS** — `VmHWM` from `/proc/self/status`
//!   ([`peak_rss_bytes`]), `None` off Linux.
//!
//! Everything here is **host-side only**: nothing feeds back into
//! simulated timing, nothing prints to stdout (the stderr-only rule of
//! the determinism contract), and the harness excludes the emitted
//! `hostPerf` manifest section from the serial-vs-parallel determinism
//! diff — wall-clock numbers differ run to run by design.
//!
//! The collector is global because its producers live in three crates
//! (`gvf-sim`'s pool, `gvf-workloads`' rig, `gvf-bench`'s harness) and
//! threading a context handle through every workload entry point would
//! put a telemetry parameter in each of the eleven apps' signatures.
//! Accumulation is monotonic and thread-safe; [`snapshot`] reads a
//! consistent view at emission time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A host phase that accumulates attributed nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Object construction, allocator work, host-side frame prep.
    Alloc,
    /// Functional kernel execution plus timing-model replay.
    Simulate,
}

/// Busy/wait accounting for one pool worker over one sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerTelemetry {
    /// Nanoseconds spent inside simulation cells.
    pub busy_ns: u64,
    /// Nanoseconds spent acquiring work (cursor fetch + the final
    /// empty-queue probe). Scheduling overhead, not simulation.
    pub queue_wait_ns: u64,
    /// Cells this worker completed.
    pub cells: u64,
}

/// What one [`crate::SimPool`] run measured about itself.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolTelemetry {
    /// Wall nanoseconds from first cell dispatched to last joined.
    pub wall_ns: u64,
    /// Resolved worker count.
    pub jobs: usize,
    /// Per-worker accounting, indexed by worker id. A worker's idle
    /// time is `wall_ns - busy_ns - queue_wait_ns` (it exists because
    /// the pool only joins once every cell is done).
    pub workers: Vec<WorkerTelemetry>,
}

/// One harness sweep: a labelled [`PoolTelemetry`] plus the cell count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepTelemetry {
    /// The sweep's label (usually the figure binary's name).
    pub label: String,
    /// Grid cells executed.
    pub cells: u64,
    /// The pool's self-measurement.
    pub pool: PoolTelemetry,
}

/// A consistent read of the collector, taken at emission time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostPerfSnapshot {
    /// Wall nanoseconds since [`process_start`] was first anchored.
    pub wall_ns: u64,
    /// Wall nanoseconds from anchor to the first sweep's start (flag
    /// parsing, binary startup); equals `wall_ns` when nothing swept.
    pub setup_ns: u64,
    /// Wall nanoseconds from the last sweep's end to this snapshot
    /// (table formatting, artifact emission); `0` when nothing swept.
    pub report_ns: u64,
    /// Attributed [`Phase::Alloc`] nanoseconds, summed across workers
    /// (CPU time, so it can exceed the sweep's wall time).
    pub alloc_ns: u64,
    /// Attributed [`Phase::Simulate`] nanoseconds, summed across
    /// workers.
    pub simulate_ns: u64,
    /// One entry per harness sweep, in execution order.
    pub sweeps: Vec<SweepTelemetry>,
    /// Peak resident set size in bytes (`VmHWM`), `None` when the
    /// platform does not expose it.
    pub peak_rss_bytes: Option<u64>,
}

struct Collector {
    start: Instant,
    phase_ns: [AtomicU64; 2],
    first_sweep_start_ns: AtomicU64,
    last_sweep_end_ns: AtomicU64,
    sweeps: Mutex<Vec<SweepTelemetry>>,
}

/// Sentinel for "no sweep start recorded yet" (the end-bound sentinel
/// is `0`, so it can grow through `fetch_max`).
const UNSET: u64 = u64::MAX;

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        start: Instant::now(),
        phase_ns: [AtomicU64::new(0), AtomicU64::new(0)],
        first_sweep_start_ns: AtomicU64::new(UNSET),
        last_sweep_end_ns: AtomicU64::new(0),
        sweeps: Mutex::new(Vec::new()),
    })
}

/// Anchors (on first call) and returns the process-wide start instant
/// all wall-clock figures are measured from. Harness binaries call this
/// as their first statement so `setup` covers flag parsing.
pub fn process_start() -> Instant {
    collector().start
}

/// Nanoseconds elapsed since [`process_start`].
pub fn elapsed_ns() -> u64 {
    collector().start.elapsed().as_nanos() as u64
}

/// Adds attributed nanoseconds to a phase (called by the workload rig
/// once per kernel launch / rig teardown, never per simulated event).
pub fn add_phase_ns(phase: Phase, ns: u64) {
    collector().phase_ns[phase as usize].fetch_add(ns, Ordering::Relaxed);
}

/// Records one finished sweep and extends the sweep bounds that define
/// the derived setup/report phases. `started_ns_ago` is how long before
/// *now* the sweep began (its wall time plus any heartbeat tail).
pub fn record_sweep(sweep: SweepTelemetry, started_ns_ago: u64) {
    let c = collector();
    let now = elapsed_ns();
    let start = now.saturating_sub(started_ns_ago);
    // First writer wins for the sweep start; last writer wins for the
    // end. Both are monotone under concurrent sweeps.
    let _ = c
        .first_sweep_start_ns
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |prev| {
            if prev == UNSET || start < prev {
                Some(start)
            } else {
                None
            }
        });
    c.last_sweep_end_ns.fetch_max(now, Ordering::Relaxed);
    c.sweeps.lock().expect("sweep telemetry mutex").push(sweep);
}

/// Peak resident set size of this process in bytes, from
/// `/proc/self/status` (`VmHWM`, recorded by the kernel in kilobytes).
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_vm_hwm(&status)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` document, whose
/// value is in kilobytes, into bytes.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vm_hwm(status: &str) -> Option<u64> {
    const KEY: &str = "VmHWM:";
    let line = status.lines().find(|l| l.starts_with(KEY))?;
    let kb: u64 = line
        .trim_start_matches(KEY)
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// A consistent view of everything collected so far. Cheap enough to
/// call once per artifact emission; not meant for hot loops.
pub fn snapshot() -> HostPerfSnapshot {
    let c = collector();
    let wall_ns = elapsed_ns();
    let first = c.first_sweep_start_ns.load(Ordering::Relaxed);
    let last = c.last_sweep_end_ns.load(Ordering::Relaxed);
    HostPerfSnapshot {
        wall_ns,
        setup_ns: if first == UNSET { wall_ns } else { first },
        report_ns: if last == 0 {
            0
        } else {
            wall_ns.saturating_sub(last)
        },
        alloc_ns: c.phase_ns[Phase::Alloc as usize].load(Ordering::Relaxed),
        simulate_ns: c.phase_ns[Phase::Simulate as usize].load(Ordering::Relaxed),
        sweeps: c.sweeps.lock().expect("sweep telemetry mutex").clone(),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_snapshot_is_monotone() {
        let before = snapshot();
        add_phase_ns(Phase::Alloc, 1_000);
        add_phase_ns(Phase::Simulate, 2_000);
        let after = snapshot();
        assert!(after.alloc_ns >= before.alloc_ns + 1_000);
        assert!(after.simulate_ns >= before.simulate_ns + 2_000);
        assert!(after.wall_ns >= before.wall_ns);
    }

    #[test]
    fn sweep_bounds_shape_setup_and_report() {
        record_sweep(
            SweepTelemetry {
                label: "test".into(),
                cells: 3,
                pool: PoolTelemetry::default(),
            },
            0,
        );
        let snap = snapshot();
        assert!(snap.sweeps.iter().any(|s| s.label == "test"));
        // A sweep exists, so setup must end at (or before) now and the
        // report tail starts counting.
        assert!(snap.setup_ns <= snap.wall_ns);
    }

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tfig6\nVmPeak:\t  999 kB\nVmHWM:\t  1234 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm(status), Some(1234 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_readable_on_linux() {
        let rss = peak_rss_bytes().expect("VmHWM present");
        assert!(rss > 0);
    }
}
