//! Host-performance telemetry: where does the *simulator's* wall-clock
//! time go?
//!
//! This is the one host-time collector. It is process-wide and
//! accumulates, with negligible overhead (a handful of clock reads and
//! atomic adds per simulation cell, never per simulated event):
//!
//! - **rig time** — host nanoseconds of `gvf-workloads`' `Rig`: the
//!   alloc time (object construction, range finalization, host frame
//!   prep) and, per kernel launch, three consecutive [`KernelLayers`]
//!   (functional pass, timing replay, probe absorption), flushed by
//!   each rig on drop ([`add_rig`]). Each rig reads [`Instant`], so
//!   these are per-rig wall time summed across pool workers;
//! - **pool telemetry** — per-worker busy / queue-wait time and cell
//!   counts from [`crate::SimPool::run_timed`], one [`SweepTelemetry`]
//!   per sweep ([`record_sweep`]);
//! - **peak RSS** — `VmHWM` from `/proc/self/status`
//!   ([`peak_rss_bytes`]), `None` off Linux.
//!
//! The run manifest's `hostPerf` section and the `gvf.hostprofile`
//! document (`pool.cell` → `kernel.functional` / `kernel.timing` /
//! `kernel.absorb`) are both renderings of one [`snapshot`].
//!
//! Everything here is **host-side only**: nothing feeds back into
//! simulated timing, nothing prints to stdout (the stderr-only rule of
//! the determinism contract), and the harness excludes both renderings
//! from the serial-vs-parallel determinism diff — wall-clock numbers
//! differ run to run by design.
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

/// Host time of one kernel layer: how many launches ran it and their
/// summed nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Kernel launches that ran this layer.
    pub count: u64,
    /// Summed wall nanoseconds.
    pub ns: u64,
}

impl LayerTime {
    /// Adds one launch that ran this layer from `from` to `to`.
    pub fn add(&mut self, from: Instant, to: Instant) {
        self.count += 1;
        self.ns += to.saturating_duration_since(from).as_nanos() as u64;
    }
}

/// The three consecutive layers a rig splits each kernel launch into.
/// Their sum is the launch's whole host time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelLayers {
    /// Per-launch setup plus the functional pass that records the
    /// trace.
    pub functional: LayerTime,
    /// The timing engine's replay of the trace.
    pub timing: LayerTime,
    /// Folding the probes' reports into the rig's (probed launches
    /// only), plus the statistics add.
    pub absorb: LayerTime,
}

impl KernelLayers {
    /// Summed nanoseconds of the three layers.
    pub fn total_ns(&self) -> u64 {
        self.functional.ns + self.timing.ns + self.absorb.ns
    }
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
    /// Per-worker accounting, indexed by worker id.
    pub workers: Vec<WorkerTelemetry>,
}

impl PoolTelemetry {
    /// Cells the pool ran: every cell is credited to exactly one worker.
    pub fn cells(&self) -> u64 {
        self.workers.iter().map(|w| w.cells).sum()
    }
}

/// One harness sweep: a labelled [`PoolTelemetry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepTelemetry {
    /// The sweep's label (usually the figure binary's name).
    pub label: String,
    /// The pool's self-measurement.
    pub pool: PoolTelemetry,
}

/// A consistent read of the collector, taken at emission time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostPerfSnapshot {
    /// Wall nanoseconds since [`process_start`] was first anchored.
    pub wall_ns: u64,
    /// Rig nanoseconds outside kernel launches (object construction,
    /// host work between and after kernels), summed across workers, so
    /// it can exceed the sweep's wall time.
    pub alloc_ns: u64,
    /// Rig nanoseconds inside kernel launches, summed across workers:
    /// the sum of the three [`layers`](Self::layers).
    pub simulate_ns: u64,
    /// The kernel launches' host time, layer by layer.
    pub layers: KernelLayers,
    /// One entry per harness sweep, in execution order.
    pub sweeps: Vec<SweepTelemetry>,
    /// Peak resident set size in bytes (`VmHWM`), `None` when the
    /// platform does not expose it.
    pub peak_rss_bytes: Option<u64>,
}

/// A [`LayerTime`] of atomics, so rigs on every worker can add to it.
#[derive(Default)]
struct LayerCell {
    count: AtomicU64,
    ns: AtomicU64,
}

impl LayerCell {
    fn add(&self, t: LayerTime) {
        self.count.fetch_add(t.count, Ordering::Relaxed);
        self.ns.fetch_add(t.ns, Ordering::Relaxed);
    }

    fn load(&self) -> LayerTime {
        LayerTime {
            count: self.count.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

struct Collector {
    start: Instant,
    alloc_ns: AtomicU64,
    functional: LayerCell,
    timing: LayerCell,
    absorb: LayerCell,
    sweeps: Mutex<Vec<SweepTelemetry>>,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        start: Instant::now(),
        alloc_ns: AtomicU64::new(0),
        functional: LayerCell::default(),
        timing: LayerCell::default(),
        absorb: LayerCell::default(),
        sweeps: Mutex::new(Vec::new()),
    })
}

/// Anchors (on first call) and returns the process-wide start instant
/// all wall-clock figures are measured from. Harness binaries call this
/// as their first statement so `wall_ns` covers flag parsing.
pub fn process_start() -> Instant {
    collector().start
}

/// Nanoseconds elapsed since [`process_start`].
pub fn elapsed_ns() -> u64 {
    collector().start.elapsed().as_nanos() as u64
}

/// Adds one rig's host time: its alloc nanoseconds and its kernel
/// launches' layers (called by the workload rig once, on drop, never
/// per simulated event).
pub fn add_rig(alloc_ns: u64, layers: &KernelLayers) {
    let c = collector();
    c.alloc_ns.fetch_add(alloc_ns, Ordering::Relaxed);
    c.functional.add(layers.functional);
    c.timing.add(layers.timing);
    c.absorb.add(layers.absorb);
}

/// Records one finished sweep.
pub fn record_sweep(sweep: SweepTelemetry) {
    collector()
        .sweeps
        .lock()
        .expect("sweep telemetry mutex")
        .push(sweep);
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
    let layers = KernelLayers {
        functional: c.functional.load(),
        timing: c.timing.load(),
        absorb: c.absorb.load(),
    };
    HostPerfSnapshot {
        wall_ns: elapsed_ns(),
        alloc_ns: c.alloc_ns.load(Ordering::Relaxed),
        simulate_ns: layers.total_ns(),
        layers,
        sweeps: c.sweeps.lock().expect("sweep telemetry mutex").clone(),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rig_time_accumulates_and_snapshot_is_monotone() {
        let before = snapshot();
        let layer = |ns| LayerTime { count: 1, ns };
        add_rig(
            1_000,
            &KernelLayers {
                functional: layer(2_000),
                timing: layer(3_000),
                absorb: LayerTime::default(),
            },
        );
        let after = snapshot();
        assert!(after.alloc_ns >= before.alloc_ns + 1_000);
        assert!(after.simulate_ns >= before.simulate_ns + 5_000);
        assert!(after.layers.functional.count > before.layers.functional.count);
        assert_eq!(after.simulate_ns, after.layers.total_ns());
        assert!(after.wall_ns >= before.wall_ns);
    }

    #[test]
    fn recorded_sweeps_reach_the_snapshot() {
        record_sweep(SweepTelemetry {
            label: "test".into(),
            pool: PoolTelemetry::default(),
        });
        assert!(snapshot().sweeps.iter().any(|s| s.label == "test"));
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
