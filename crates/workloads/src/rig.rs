//! Shared experiment rig: memory + program + allocator + GPU plumbing.

use crate::config::{AllocAttribSnapshot, AttribBundle, WorkloadConfig};
use gvf_alloc::{AllocatorKind, CudaHeapAllocator, DeviceAllocator, SharedOa};
use gvf_core::{DeviceProgram, Strategy, TypeId, TypeRegistry};
use gvf_mem::{DeviceMemory, VirtAddr};
use gvf_sim::hostperf::{self, Phase};
use gvf_sim::{recording_probe, Gpu, KernelTrace, ObsReport, ProbeSpec, Stats, WarpCtx};
use std::time::Instant;

/// Everything a workload needs to build objects and run kernels.
#[derive(Debug)]
pub struct Rig {
    /// The CPU–GPU shared memory space.
    pub mem: DeviceMemory,
    /// The materialized program (vTables, tags, dispatch).
    pub prog: DeviceProgram,
    /// The object allocator in use.
    pub alloc: Box<dyn DeviceAllocator>,
    gpu: Gpu,
    stats: Stats,
    objects_built: u64,
    probe_spec: ProbeSpec,
    obs: ObsReport,
    // Host-phase attribution (wall time of this rig, split between the
    // alloc/build phase and kernel execution). Two clock reads per
    // kernel launch, never per object — see gvf_sim::hostperf.
    last_mark: Instant,
    alloc_ns: u64,
    simulate_ns: u64,
}

impl Rig {
    /// Builds a rig for `strategy` under `cfg`: chooses the allocator
    /// (honouring [`WorkloadConfig::allocator_override`], the Fig. 11
    /// knob), materializes the program, and registers object sizes.
    pub fn new(registry: &TypeRegistry, strategy: Strategy, cfg: &WorkloadConfig) -> Self {
        let mut mem = DeviceMemory::with_capacity(cfg.device_memory_bytes);
        let mut prog = match cfg.tag_budget {
            Some(budget) => {
                DeviceProgram::with_tag_budget(&mut mem, registry, strategy, cfg.tag_mode, budget)
            }
            None => DeviceProgram::with_tag_mode(&mut mem, registry, strategy, cfg.tag_mode),
        };
        prog.set_lookup_kind(cfg.coal_lookup);
        let kind = cfg
            .allocator_override
            .unwrap_or_else(|| strategy.default_allocator());
        let mut alloc: Box<dyn DeviceAllocator> = match kind {
            AllocatorKind::Cuda => Box::new(CudaHeapAllocator::new()),
            AllocatorKind::SharedOa => {
                Box::new(SharedOa::with_initial_chunk(cfg.initial_chunk_objs))
            }
        };
        prog.register_types(alloc.as_mut());
        Rig {
            mem,
            prog,
            alloc,
            gpu: Gpu::new(cfg.gpu.clone()).with_fast_forward(cfg.fast_forward),
            stats: Stats::new(),
            objects_built: 0,
            probe_spec: cfg.probe,
            obs: ObsReport::default(),
            last_mark: Instant::now(),
            alloc_ns: 0,
            simulate_ns: 0,
        }
    }

    /// Constructs one object of `t` (tagged pointer under TypePointer).
    pub fn construct(&mut self, t: TypeId) -> VirtAddr {
        self.objects_built += 1;
        self.prog.construct(&mut self.mem, self.alloc.as_mut(), t)
    }

    /// Snapshots the range table into COAL's segment tree. Call after
    /// the allocation phase, before the first kernel.
    pub fn finalize(&mut self) {
        self.prog
            .finalize_ranges(&mut self.mem, self.alloc.as_ref());
    }

    /// Reserves raw device memory outside any object (arrays, frame
    /// buffers, CSR offsets...).
    pub fn reserve(&mut self, len: u64, align: u64) -> VirtAddr {
        self.mem.reserve(len, align)
    }

    /// Runs one compute kernel of `n_threads`, accumulating its timing
    /// into the rig's statistics, and returns the raw trace.
    ///
    /// Each launch gets its own constant-memory function table
    /// ([`DeviceProgram::begin_kernel`]): virtual-function code lives at
    /// different addresses in every kernel, as on real CUDA (§2).
    pub fn run_kernel(
        &mut self,
        n_threads: usize,
        mut body: impl FnMut(&DeviceProgram, &mut WarpCtx<'_>),
    ) -> KernelTrace {
        // Everything since the last kernel (object construction, range
        // finalization, host frame prep) belongs to the alloc phase;
        // the kernel call itself — functional execution plus timing
        // replay — is the simulate phase.
        let kernel_start = Instant::now();
        self.alloc_ns += kernel_start
            .saturating_duration_since(self.last_mark)
            .as_nanos() as u64;
        self.prog.begin_kernel(&mut self.mem);
        let prog = &self.prog;
        let trace = {
            let _fx = gvf_sim::spans::span("kernel.functional");
            gvf_sim::run_kernel(&mut self.mem, n_threads, |w| body(prog, w))
        };
        let s = if self.probe_spec.is_off() {
            // Zero-overhead default: the NopProbe monomorphization.
            let _tm = gvf_sim::spans::span("kernel.timing");
            self.gpu.execute(&trace)
        } else {
            let spec = self.probe_spec;
            let (s, probes) = {
                let _tm = gvf_sim::spans::span("kernel.timing");
                self.gpu
                    .execute_probed(&trace, |sm| recording_probe(sm, spec))
            };
            // Offset this launch's timeline by the cycles already
            // simulated, so back-to-back kernels read as one run; the
            // launch's own cycle count closes the cycle audit's books.
            // The absorb span measures the probe overhead itself.
            let _ab = gvf_sim::spans::span("kernel.absorb");
            self.obs.absorb(self.stats.cycles, s.cycles, probes);
            s
        };
        self.stats += &s;
        let kernel_end = Instant::now();
        self.simulate_ns += kernel_end
            .saturating_duration_since(kernel_start)
            .as_nanos() as u64;
        self.last_mark = kernel_end;
        trace
    }

    /// Host nanoseconds this rig has attributed so far as
    /// `(alloc, simulate)` — flushed to [`gvf_sim::hostperf`] on drop.
    pub fn host_phase_ns(&self) -> (u64, u64) {
        (self.alloc_ns, self.simulate_ns)
    }

    /// Accumulated statistics over every kernel run so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Takes the observability artifacts recorded so far; `None` when
    /// probes were off (or nothing fired). Leaves the rig's report
    /// empty.
    pub fn take_obs(&mut self) -> Option<ObsReport> {
        if self.obs.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut self.obs))
        }
    }

    /// Takes the mechanism-attribution bundle: the probes' cache-level
    /// evidence joined with the allocator, lookup and tag introspection
    /// snapshots. `None` when attribution was off (or no kernel ran).
    /// Call before [`take_obs`](Self::take_obs) — this removes the
    /// attribution half of the observability report.
    pub fn take_attrib(&mut self) -> Option<AttribBundle> {
        let probe = self.obs.attribution.take()?;
        Some(AttribBundle {
            probe,
            alloc: self.alloc.shared_oa().map(|soa| AllocAttribSnapshot {
                merges: soa.merges(),
                initial_chunk_objs: soa.initial_chunk_objs(),
                types: soa.region_stats(),
            }),
            lookup: self.prog.lookup_attrib(),
            tags: self.prog.tag_attrib(),
        })
    }

    /// Takes the cycle-audit report accumulated across this rig's
    /// kernel launches; `None` when the audit was off (or no kernel
    /// ran). Like [`take_attrib`](Self::take_attrib), call before
    /// [`take_obs`](Self::take_obs) — this removes the audit half of
    /// the observability report.
    pub fn take_audit(&mut self) -> Option<gvf_sim::CycleAuditReport> {
        self.obs.audit.take()
    }

    /// Number of objects constructed.
    pub fn objects_built(&self) -> u64 {
        self.objects_built
    }

    /// Modeled object-initialization cost (the §8.2 "80×" comparison):
    /// objects × the allocator's per-object init cycles.
    pub fn init_cycles_model(&self) -> u64 {
        self.objects_built * self.alloc.kind().init_cycles_per_object()
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        // Trailing host work after the last kernel (checksum readback,
        // metric extraction) counts as alloc/build time — this also
        // covers rigs that never launch a kernel, like the §8.2
        // allocation-only comparison.
        self.alloc_ns += self.last_mark.elapsed().as_nanos() as u64;
        hostperf::add_phase_ns(Phase::Alloc, self.alloc_ns);
        hostperf::add_phase_ns(Phase::Simulate, self.simulate_ns);
    }
}

/// Order-insensitive FNV-1a style folding for functional checksums.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checksum(u64);

impl Checksum {
    /// Fresh checksum.
    pub fn new() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one value in (order-sensitive).
    pub fn push(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }

    /// Folds a float in via its bit pattern, quantized to survive the
    /// associativity differences of per-strategy execution order.
    pub fn push_f32_quantized(&mut self, v: f32) {
        self.push((v as f64 * 1024.0).round() as i64 as u64);
    }

    /// The digest.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}
