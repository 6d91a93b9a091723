//! Figure 9: L1 data-cache hit rate per strategy.
//!
//! Paper averages: CUDA 31%, Concord 31%, SharedOA 44%, COAL 47%,
//! TypePointer 45% — COAL's range-walk loads all hit in L1, which is the
//! crux of why its extra loads are cheap.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::print_table;
use gvf_bench::sweep::{eval_grid, eval_rows, grid};
use gvf_core::Strategy;
use gvf_workloads::WorkloadKind;

fn main() {
    let opts = HarnessOpts::from_args();
    let strategies = Strategy::EVALUATED;
    let mut results = grid("fig9", &opts, &eval_grid()).into_results(&opts);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut sums = vec![0.0f64; strategies.len()];
    for (kind, cells) in eval_rows(&results) {
        let mut row = vec![kind.label().to_string()];
        for (si, (s, r)) in strategies.into_iter().zip(cells).enumerate() {
            let hr = r.stats.l1_hit_rate();
            sums[si] += hr;
            row.push(format!("{:.1}%", hr * 100.0));
            records.push(CellRecord::of(kind.label(), s.label(), r));
        }
        rows.push(row);
    }
    let n = WorkloadKind::EVALUATED.len() as f64;
    let mut avg = vec!["AVG".to_string()];
    for s in &sums {
        avg.push(format!("{:.1}%", s / n * 100.0));
    }
    rows.push(avg);

    println!("\nFig. 9 — L1 hit rate per strategy");
    println!("paper AVG: CUDA 31%, Concord 31%, SharedOA 44%, COAL 47%, TypePointer 45%\n");
    let headers: Vec<&str> = std::iter::once("Workload")
        .chain(strategies.iter().map(|s| s.label()))
        .collect();
    print_table(&headers, &rows);

    manifest::emit_grid(&opts, "fig9", &records, &mut results);
}
