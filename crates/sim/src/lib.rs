//! # gvf-sim — a cycle-approximate SIMT GPU timing simulator
//!
//! The GPU substrate for the `gvf` reproduction of *"Judging a Type by
//! Its Pointer"* (ASPLOS 2021). The paper measures on a silicon V100 and
//! on Accel-Sim; this crate replaces both with a trace-driven timing
//! model that captures the mechanisms the paper's results hinge on:
//!
//! - **memory coalescing** — a warp's 32 lane addresses collapse into
//!   unique 32-byte sector transactions, so a *diverged* per-object load
//!   (CUDA's vTable-pointer load, operation A of Fig. 1) costs up to 32
//!   transactions while a *converged* one costs 1;
//! - **sectored L1/L2 caches and DRAM bandwidth**, so thousands of
//!   threads thrash caches and contend for channels;
//! - **latency hiding by multithreading** — warps stall individually on
//!   loads, but other resident warps keep issuing;
//! - **hardware counters** matching the NVProf metrics the paper reports
//!   (warp instruction mix, global load transactions, L1 hit rate) plus
//!   the PC-sampling-style stall attribution behind Fig. 1b.
//!
//! Workloads execute *functionally* through [`WarpCtx`]/[`run_kernel`],
//! producing a [`KernelTrace`] that [`Gpu::execute`] replays for timing.
//!
//! ```
//! use gvf_mem::DeviceMemory;
//! use gvf_sim::{lanes_from_fn, run_kernel, AccessTag, Gpu, GpuConfig};
//!
//! let mut mem = DeviceMemory::with_capacity(1 << 20);
//! let data = mem.reserve(32 * 8, 8);
//! let kernel = run_kernel(&mut mem, 32, |w| {
//!     let addrs = lanes_from_fn(|i| Some(data.offset(i as u64 * 8)));
//!     w.ld(AccessTag::Field, 8, &addrs); // coalesces into 8 sectors
//!     w.alu(4);
//! });
//! let stats = Gpu::new(GpuConfig::small()).execute(&kernel);
//! assert_eq!(stats.global_load_transactions, 8);
//! ```

// Lane-indexed loops over parallel per-lane arrays are the natural way
// to write SIMT-style code; iterator adaptors obscure the lane index.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::manual_is_multiple_of)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attrib;
mod cache;
mod config;
mod engine;
mod exec;
pub mod hostperf;
mod instr;
mod pool;
pub mod probe;
pub mod simt;
mod stats;
pub mod timeline;
mod trace;

pub use attrib::{
    AttribReport, AttributionProbe, LineClass, LogHist, PcLoadStats, LOG_HIST_BUCKETS,
};
pub use cache::{CacheProbe, SectoredCache};
pub use config::GpuConfig;
pub use engine::Gpu;
pub use exec::{lanes_from_fn, lanes_none, run_kernel, Lanes, WarpCtx, WARP_SIZE};
pub use hostperf::{
    HostPerfSnapshot, KernelLayers, LayerTime, PoolTelemetry, SweepTelemetry, WorkerTelemetry,
};
pub use instr::{AccessTag, InstrClass, LaneAddrs, MemOp, Op, Space, UNKNOWN_CALL_TARGET};
pub use pool::{CellFailure, CellHooks, CellObservation, SimPool};
pub use probe::{
    recording_probe, CallSiteClass, CallSiteStats, CountingProbe, CycleAuditProbe,
    CycleAuditReport, EpochClass, EpochMetricsProbe, EpochSeries, MetricsBucket, NopProbe,
    ObsReport, Probe, ProbeSpec, RecordingProbe, StallCause, CALL_SITE_TARGET_CAP,
    CYCLE_CLASS_LABELS, STALL_CAUSES,
};
pub use stats::{Stats, STALL_INDIRECT_CALL};
pub use timeline::{
    write_chrome_trace, TimelineProbe, TraceEvent, TraceEventKind, TIMELINE_SCHEMA,
    TIMELINE_SCHEMA_VERSION,
};
pub use trace::{KernelTrace, WarpTrace};
