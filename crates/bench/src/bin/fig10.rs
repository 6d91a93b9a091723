//! Figure 10: effect of SharedOA's initial region size.
//!
//! (a) COAL performance normalized to CUDA as the initial chunk sweeps
//!     4 K → 4 M objects (paper: stable, one outlier at 2 M);
//! (b) SharedOA external fragmentation over the same sweep (paper:
//!     17% → 27%).
//!
//! The sweep is scaled with `--scale` relative to the paper's absolute
//! chunk sizes, since default workload populations are ~16× smaller.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::print_table;
use gvf_bench::sweep::{grid, Cell};
use gvf_core::Strategy;
use gvf_workloads::WorkloadKind;

fn main() {
    let opts = HarnessOpts::from_args();
    // Paper sweep: 4k, 16k, 64k, 256k, 1M, 4M objects at full scale
    // (scale ≈ 128 for paper-sized populations). Scale proportionally.
    let chunk_sizes: Vec<u64> = (0..6)
        .map(|i| (4096u64 << (2 * i)) * opts.cfg.scale as u64 / 128)
        .map(|c| c.max(64))
        .collect();

    // Grid per workload: one CUDA baseline, then COAL per chunk size.
    let mut cells = Vec::new();
    for kind in WorkloadKind::EVALUATED {
        cells.push(Cell::workload(kind, Strategy::Cuda));
        for &chunk in &chunk_sizes {
            cells.push(Cell {
                initial_chunk_objs: Some(chunk),
                ..Cell::workload(kind, Strategy::Coal)
            });
        }
    }
    let mut results = grid("fig10", &opts, &cells).into_results(&opts);

    let stride = 1 + chunk_sizes.len();
    let mut records = Vec::new();
    let mut perf_rows = Vec::new();
    let mut frag_rows = Vec::new();
    let mut frag_sums = vec![0.0f64; chunk_sizes.len()];
    for (ki, kind) in WorkloadKind::EVALUATED.into_iter().enumerate() {
        let cuda = &results[ki * stride];
        records.push(
            CellRecord::of(kind.label(), Strategy::Cuda.label(), cuda)
                .with("chunk_objs", Json::num_u64(opts.cfg.initial_chunk_objs)),
        );
        let mut prow = vec![kind.label().to_string()];
        let mut frow = vec![kind.label().to_string()];
        for ci in 0..chunk_sizes.len() {
            let r = &results[ki * stride + 1 + ci];
            prow.push(format!("{:.2}", r.stats.speedup_vs(&cuda.stats)));
            let frag = r.alloc_stats.external_fragmentation();
            frag_sums[ci] += frag;
            frow.push(format!("{:.0}%", frag * 100.0));
            records.push(
                CellRecord::of(kind.label(), Strategy::Coal.label(), r)
                    .with("chunk_objs", Json::num_u64(chunk_sizes[ci]))
                    .with("external_fragmentation", Json::Num(frag)),
            );
        }
        perf_rows.push(prow);
        frag_rows.push(frow);
    }
    let n = WorkloadKind::EVALUATED.len() as f64;
    let mut avg = vec!["AVG".to_string()];
    for s in &frag_sums {
        avg.push(format!("{:.0}%", s / n * 100.0));
    }
    frag_rows.push(avg);

    let headers: Vec<String> = std::iter::once("Workload".to_string())
        .chain(chunk_sizes.iter().map(|c| format!("{c}")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();

    println!("\nFig. 10a — COAL performance vs initial chunk size, normalized to CUDA");
    println!("paper: stable across sizes, always well above CUDA (1.0)\n");
    print_table(&headers_ref, &perf_rows);

    println!("\nFig. 10b — SharedOA external fragmentation vs initial chunk size");
    println!("paper AVG: 17% (small chunks) -> 27% (4M-object chunks)\n");
    print_table(&headers_ref, &frag_rows);

    manifest::emit_grid(&opts, "fig10", &records, &mut results);
}
