//! Minimal flag parsing shared by the harness binaries.

use gvf_workloads::WorkloadConfig;

/// Default timeline event cap per SM when `--trace-out` is given.
pub const DEFAULT_TRACE_EVENTS_PER_SM: usize = 4096;
/// Default metrics bucket width when `--metrics-out` is given.
pub const DEFAULT_METRICS_BUCKET_CYCLES: u64 = 256;

/// Common harness options: `--scale N`, `--iters N`, `--seed N`,
/// `--jobs N`, `--smoke`, `--quiet`, plus the observability outputs
/// `--json-out PATH`, `--trace-out PATH`, `--metrics-out PATH`,
/// `--attrib-out PATH`, `--profile-out PATH`, `--audit-out PATH`,
/// `--events-out PATH`.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Workload configuration assembled from the flags.
    pub cfg: WorkloadConfig,
    /// Concurrent (workload × strategy) simulations (`--jobs`, default
    /// 1; `0` = all cores). Feeds [`gvf_sim::SimPool`]; results are
    /// bit-identical for any value.
    pub jobs: usize,
    /// CI smoke mode (`--smoke`): shrink to the test-sized config so
    /// the binary finishes in seconds while still exercising the full
    /// pipeline.
    pub smoke: bool,
    /// Suppress stderr progress heartbeats and sweep summaries
    /// (`--quiet`) — for scripted runs whose stderr is part of a log.
    /// Stdout is unaffected (it is already identical either way).
    pub quiet: bool,
    /// Write the versioned run manifest here (`--json-out`).
    pub json_out: Option<String>,
    /// Write a Chrome trace-event timeline of the grid's first cell
    /// here (`--trace-out`).
    pub trace_out: Option<String>,
    /// Write the first cell's per-epoch metrics series here
    /// (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Write the mechanism-attribution report (`gvf.attribution` v1)
    /// here (`--attrib-out`).
    pub attrib_out: Option<String>,
    /// Write the host-side span profile (`gvf.hostprofile` v2) here
    /// (`--profile-out`): the [`gvf_sim::spans`] the process recorded.
    /// Wall-clock data: excluded from determinism diffs.
    pub profile_out: Option<String>,
    /// Write the deterministic cycle-audit report (`gvf.cycleaudit` v1)
    /// here (`--audit-out`). Byte-identical for any `--jobs` value.
    pub audit_out: Option<String>,
    /// Disable the cell cache entirely (`--no-cache`): no reads, no
    /// writes; every cell simulates.
    pub no_cache: bool,
    /// Cell-cache directory override (`--cache-dir`). Defaults to
    /// `.cellcache/` next to the `--json-out` artifact. Cells found
    /// there are read back instead of re-simulated, so re-running an
    /// interrupted command resumes it (see [`crate::cellcache`]).
    pub cache_dir: Option<String>,
    /// Write the live `gvf.events` v3 JSONL telemetry stream here
    /// (`--events-out`). Wall-clock data, excluded from the determinism
    /// view; see [`crate::events`].
    pub events_out: Option<String>,
    /// Panic injection for telemetry/fault-isolation testing
    /// (`--fail-cell N`): grid cell `N` panics instead of simulating.
    /// The failure takes the real per-cell isolation path, so CI can
    /// assert that failure manifests carry flight-recorder context.
    pub fail_cell: Option<usize>,
}

/// Prints a usage error and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg} (try --help)");
    std::process::exit(2);
}

impl HarnessOpts {
    /// Parses `std::env::args`, starting from the evaluation defaults.
    /// Exits with status 2 and a usage message on malformed flags.
    pub fn from_args() -> Self {
        // Anchor the host-perf wall clock before any work, so the
        // manifest's `setup` phase covers flag parsing and startup.
        gvf_sim::hostperf::process_start();
        let mut cfg = WorkloadConfig::eval();
        let mut jobs = 1usize;
        let mut smoke = false;
        let mut quiet = false;
        let mut json_out = None;
        let mut trace_out = None;
        let mut metrics_out = None;
        let mut attrib_out = None;
        let mut profile_out = None;
        let mut audit_out = None;
        let mut no_cache = false;
        let mut cache_dir = None;
        let mut events_out = None;
        let mut fail_cell = None;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let need = |i: usize| {
                args.get(i + 1)
                    .unwrap_or_else(|| usage_error(&format!("flag {} needs a value", args[i])))
            };
            let int = |i: usize, what: &str| -> usize {
                need(i)
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("{what} takes an integer")))
            };
            // A positive `u32`: `0` would build an empty workload and a
            // wider value must not wrap into a different run.
            let count = |i: usize, what: &str| -> u32 {
                match need(i).parse::<u32>() {
                    Ok(n) if n > 0 => n,
                    _ => usage_error(&format!("{what} takes an integer in 1..={}", u32::MAX)),
                }
            };
            match args[i].as_str() {
                "--scale" => {
                    cfg.scale = count(i, "--scale");
                    i += 2;
                }
                "--iters" => {
                    cfg.iterations = count(i, "--iters");
                    i += 2;
                }
                "--seed" => {
                    cfg.seed = int(i, "--seed") as u64;
                    i += 2;
                }
                "--jobs" => {
                    jobs = int(i, "--jobs (0 = all cores)");
                    i += 2;
                }
                "--smoke" => {
                    smoke = true;
                    i += 1;
                }
                "--quiet" => {
                    quiet = true;
                    i += 1;
                }
                "--json-out" => {
                    json_out = Some(need(i).clone());
                    i += 2;
                }
                "--trace-out" => {
                    trace_out = Some(need(i).clone());
                    i += 2;
                }
                "--metrics-out" => {
                    metrics_out = Some(need(i).clone());
                    i += 2;
                }
                "--attrib-out" => {
                    attrib_out = Some(need(i).clone());
                    i += 2;
                }
                "--profile-out" => {
                    profile_out = Some(need(i).clone());
                    i += 2;
                }
                "--audit-out" => {
                    audit_out = Some(need(i).clone());
                    i += 2;
                }
                "--no-cache" => {
                    no_cache = true;
                    i += 1;
                }
                "--cache-dir" => {
                    cache_dir = Some(need(i).clone());
                    i += 2;
                }
                "--events-out" => {
                    events_out = Some(need(i).clone());
                    i += 2;
                }
                "--fail-cell" => {
                    fail_cell = Some(int(i, "--fail-cell"));
                    i += 2;
                }
                "--help" | "-h" => {
                    println!(
                        "options: --scale N (default 8)  --iters N  --seed N  \
                         --jobs N (0 = all cores)  --smoke  --quiet  \
                         --json-out PATH  --trace-out PATH  --metrics-out PATH  \
                         --attrib-out PATH  --profile-out PATH  --audit-out PATH  \
                         --no-cache  --cache-dir DIR  --events-out PATH  \
                         --fail-cell N (panic injection)"
                    );
                    std::process::exit(0);
                }
                other => usage_error(&format!("unknown flag {other}")),
            }
        }
        if smoke {
            // Keep the smoke config derived from tiny() in one place so
            // CI and local `--smoke` runs agree.
            let seed = cfg.seed;
            cfg = WorkloadConfig::tiny();
            cfg.seed = seed;
        }
        if let Some(path) = &events_out {
            let bin = std::env::args()
                .next()
                .as_deref()
                .map(|p| {
                    std::path::Path::new(p)
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| p.to_string())
                })
                .unwrap_or_else(|| "unknown".to_string());
            crate::events::init(
                path,
                &crate::events::RunInfo {
                    bin,
                    fingerprint: crate::cellcache::config_fingerprint(&cfg),
                    jobs,
                    smoke,
                },
            );
        }
        HarnessOpts {
            cfg,
            jobs,
            smoke,
            quiet,
            json_out,
            trace_out,
            metrics_out,
            attrib_out,
            profile_out,
            audit_out,
            no_cache,
            cache_dir,
            events_out,
            fail_cell,
        }
    }
}
