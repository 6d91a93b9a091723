//! Workload identification, configuration, and results.

use gvf_alloc::{AllocStats, AllocatorKind, SharedOa, TypeRegionStats};
use gvf_core::{LookupAttrib, LookupKind, TagAttrib, TagMode};
use gvf_sim::{AttribReport, CycleAuditReport, GpuConfig, ObsReport, ProbeSpec, Stats};
use std::fmt;

/// The eleven evaluated applications (paper Table 2) plus the §8.3
/// scalability microbenchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadKind {
    /// DynaSOAr: Nagel–Schreckenberg traffic simulation (TRAF).
    Traffic,
    /// DynaSOAr: Conway's Game of Life (GOL).
    GameOfLife,
    /// DynaSOAr: finite-element fracture simulation (STUT).
    Structure,
    /// DynaSOAr: Game of Life with intermediate states (GEN).
    Generation,
    /// GraphChi-vE breadth-first search (virtual edges).
    VeBfs,
    /// GraphChi-vE connected components.
    VeCc,
    /// GraphChi-vE PageRank.
    VePr,
    /// GraphChi-vEN breadth-first search (virtual edges *and* nodes).
    VenBfs,
    /// GraphChi-vEN connected components.
    VenCc,
    /// GraphChi-vEN PageRank.
    VenPr,
    /// Shirley-style ray tracer (RAY).
    Raytrace,
    /// §8.3 scalability microbenchmark (high vFuncPKI).
    Micro,
}

impl WorkloadKind {
    /// The eleven applications of Table 2, in the paper's order.
    pub const EVALUATED: [WorkloadKind; 11] = [
        WorkloadKind::Traffic,
        WorkloadKind::GameOfLife,
        WorkloadKind::Structure,
        WorkloadKind::Generation,
        WorkloadKind::VeBfs,
        WorkloadKind::VeCc,
        WorkloadKind::VePr,
        WorkloadKind::VenBfs,
        WorkloadKind::VenCc,
        WorkloadKind::VenPr,
        WorkloadKind::Raytrace,
    ];

    /// The paper's short label (Table 2).
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Traffic => "TRAF",
            WorkloadKind::GameOfLife => "GOL",
            WorkloadKind::Structure => "STUT",
            WorkloadKind::Generation => "GEN",
            WorkloadKind::VeBfs => "vE-BFS",
            WorkloadKind::VeCc => "vE-CC",
            WorkloadKind::VePr => "vE-PR",
            WorkloadKind::VenBfs => "vEN-BFS",
            WorkloadKind::VenCc => "vEN-CC",
            WorkloadKind::VenPr => "vEN-PR",
            WorkloadKind::Raytrace => "RAY",
            WorkloadKind::Micro => "MICRO",
        }
    }

    /// The suite grouping used in the figures.
    pub fn suite(self) -> &'static str {
        match self {
            WorkloadKind::Traffic
            | WorkloadKind::GameOfLife
            | WorkloadKind::Structure
            | WorkloadKind::Generation => "Dynasoar",
            WorkloadKind::VeBfs | WorkloadKind::VeCc | WorkloadKind::VePr => "GraphChi-vE",
            WorkloadKind::VenBfs | WorkloadKind::VenCc | WorkloadKind::VenPr => "GraphChi-vEN",
            WorkloadKind::Raytrace => "RAY",
            WorkloadKind::Micro => "Micro",
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for WorkloadKind {
    type Err = ParseWorkloadError;

    /// Parses a Table 2 label, case-insensitively; accepts long aliases
    /// (`traffic`, `gameoflife`, `structure`, `generation`, `raytrace`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        WorkloadKind::EVALUATED
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(s))
            .or(match lower.as_str() {
                "traffic" => Some(WorkloadKind::Traffic),
                "gameoflife" | "gol" => Some(WorkloadKind::GameOfLife),
                "structure" | "stut" => Some(WorkloadKind::Structure),
                "generation" | "gen" => Some(WorkloadKind::Generation),
                "raytrace" | "ray" => Some(WorkloadKind::Raytrace),
                "micro" => Some(WorkloadKind::Micro),
                _ => None,
            })
            .ok_or(ParseWorkloadError)
    }
}

/// Error returned when a workload label cannot be parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseWorkloadError;

impl fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("unknown workload name")
    }
}

impl std::error::Error for ParseWorkloadError {}

/// Size, seed and machine knobs for one workload run.
///
/// Paper-scale inputs (0.5–5.6 M objects) are reachable by raising
/// [`scale`](WorkloadConfig::scale); the defaults are ~16× smaller so the
/// whole figure suite finishes in minutes on a CPU (DESIGN.md §6).
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Linear size multiplier on the workload's base population.
    pub scale: u32,
    /// Compute-kernel iterations to run and measure.
    pub iterations: u32,
    /// RNG seed (inputs are synthetic and fully deterministic).
    pub seed: u64,
    /// GPU model.
    pub gpu: GpuConfig,
    /// SharedOA's initial chunk size, in objects (Fig. 10 knob).
    pub initial_chunk_objs: u64,
    /// Force a specific allocator regardless of strategy (Fig. 11 runs
    /// TypePointer over [`AllocatorKind::Cuda`]).
    pub allocator_override: Option<AllocatorKind>,
    /// TypePointer tag mode (§6.2).
    pub tag_mode: TagMode,
    /// COAL range-lookup structure (§5 ablation knob).
    pub coal_lookup: LookupKind,
    /// TypePointer tag-encoding budget in bytes (`None` = unbounded).
    /// Types whose vTable falls outside it take the §6.1 fallback path.
    pub tag_budget: Option<u64>,
    /// Simulated DRAM capacity in bytes.
    pub device_memory_bytes: u64,
    /// Per-SM event-driven fast-forward in the timing engine (on by
    /// default; see [`Gpu::with_fast_forward`](gvf_sim::Gpu::with_fast_forward)).
    /// Off forces plain epoch ticking, the reference that tests compare
    /// fast-forward against: stats, probe streams and artifacts are
    /// bit-identical either way. No binary turns it off.
    pub fast_forward: bool,
    /// Observability recording for this run ([`ProbeSpec::OFF`] by
    /// default, which keeps the engine on the zero-overhead
    /// `NopProbe` path). Probes observe without feeding back into
    /// timing, so enabling them never changes [`Stats`] or stdout.
    pub probe: ProbeSpec,
}

impl WorkloadConfig {
    /// Evaluation default: ~60–260 k objects per app on a V100 scaled to
    /// 8 SMs (machine shrinks with the workload so occupancy and cache
    /// pressure stay paper-like; see [`GpuConfig::v100_scaled`]).
    pub fn eval() -> Self {
        WorkloadConfig {
            scale: 8,
            iterations: 3,
            seed: 0x5eed,
            gpu: GpuConfig::v100_scaled(8),
            initial_chunk_objs: SharedOa::DEFAULT_INITIAL_CHUNK_OBJS,
            allocator_override: None,
            tag_mode: TagMode::Offset,
            coal_lookup: LookupKind::SegmentTree,
            tag_budget: None,
            device_memory_bytes: 4 << 30,
            fast_forward: true,
            probe: ProbeSpec::OFF,
        }
    }

    /// Tiny configuration for unit tests: a few thousand objects on a
    /// small GPU.
    pub fn tiny() -> Self {
        WorkloadConfig {
            scale: 1,
            iterations: 2,
            seed: 7,
            gpu: GpuConfig::small(),
            initial_chunk_objs: 256,
            allocator_override: None,
            tag_mode: TagMode::Offset,
            coal_lookup: LookupKind::SegmentTree,
            tag_budget: None,
            device_memory_bytes: 512 << 20,
            fast_forward: true,
            probe: ProbeSpec::OFF,
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::eval()
    }
}

/// Table 2 characteristics of one run, measured on our ports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Table2Row {
    /// Object instances created.
    pub objects: u64,
    /// Concrete types in the program.
    pub types: u32,
    /// Virtual-function pointers across all vTables.
    pub vfunc_entries: u32,
    /// Dynamic virtual calls per thousand warp instructions.
    pub vfunc_pki: f64,
}

/// Allocator-side attribution: a read-only snapshot of SharedOA's
/// per-type region accounting at the end of a run. `None` for the CUDA
/// baseline, which keeps no per-type state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocAttribSnapshot {
    /// Adjacent same-type chunk merges performed.
    pub merges: u64,
    /// Configured initial chunk size, in objects.
    pub initial_chunk_objs: u64,
    /// Per-type region stats, sorted by type key.
    pub types: Vec<TypeRegionStats>,
}

/// The complete mechanism-attribution evidence of one run: cache-level
/// per-PC access attribution from the probes, plus host-side allocator,
/// lookup and tag introspection. Collected by
/// [`Rig::take_attrib`](crate::Rig::take_attrib) when
/// [`WorkloadConfig::probe`] enables attribution.
#[derive(Clone, Debug, PartialEq)]
pub struct AttribBundle {
    /// Merged per-PC / per-set / reuse evidence from the engine probes.
    pub probe: AttribReport,
    /// SharedOA region snapshot (when the run used SharedOA).
    pub alloc: Option<AllocAttribSnapshot>,
    /// COAL lookup-walk attribution (when a lookup structure was built).
    pub lookup: Option<LookupAttrib>,
    /// TypePointer tag decode/mask attribution (tagged strategies only).
    pub tags: Option<TagAttrib>,
}

/// The outcome of one workload × strategy run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Timing and counter statistics summed over the compute kernels.
    pub stats: Stats,
    /// Digest of the functional output — identical across strategies.
    pub checksum: u64,
    /// Allocator statistics after the build phase.
    pub alloc_stats: AllocStats,
    /// Modeled object-initialization cost (§8.2 comparison).
    pub init_cycles: u64,
    /// Table 2 characteristics.
    pub table2: Table2Row,
    /// Domain-level quantities for validation against host reference
    /// implementations (e.g. `("alive", …)` for GOL, `("level_sum", …)`
    /// for BFS). Exact integers are representable losslessly below 2^53.
    pub metrics: Vec<(&'static str, f64)>,
    /// Observability artifacts (timeline events, per-kernel metrics
    /// series) when [`WorkloadConfig::probe`] requested recording;
    /// `None` on the default zero-overhead path.
    pub obs: Option<ObsReport>,
    /// Mechanism-attribution evidence when
    /// [`WorkloadConfig::probe`] enabled attribution; `None` otherwise.
    pub attrib: Option<AttribBundle>,
    /// Deterministic cycle audit when [`WorkloadConfig::probe`] enabled
    /// it; `None` otherwise.
    pub audit: Option<CycleAuditReport>,
}
