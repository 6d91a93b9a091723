//! Figure 6: kernel performance of CUDA, Concord, COAL and TypePointer,
//! normalized to SharedOA, across the eleven workloads.
//!
//! Paper geomeans (silicon V100): CUDA 0.59, Concord 0.72,
//! COAL 1.06, TypePointer 1.12.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::{geomean, print_table};
use gvf_bench::sweep::{eval_grid, eval_rows, grid, EVAL_BASELINE};
use gvf_core::Strategy;

fn main() {
    let opts = HarnessOpts::from_args();
    let strategies = Strategy::EVALUATED;
    let mut results = grid("fig6", &opts, &eval_grid()).into_results(&opts);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut per_strategy: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    for (kind, cells) in eval_rows(&results) {
        let base = &cells[EVAL_BASELINE];
        let mut row = vec![format!("{} {}", kind.suite(), kind)];
        for (si, (s, r)) in strategies.into_iter().zip(cells).enumerate() {
            assert_eq!(r.checksum, base.checksum, "{kind}: {s} functional mismatch");
            let norm = r.stats.speedup_vs(&base.stats);
            per_strategy[si].push(norm);
            row.push(format!("{norm:.2}"));
            records.push(
                CellRecord::of(kind.label(), s.label(), r)
                    .with("norm_vs_sharedoa", Json::Num(norm)),
            );
        }
        rows.push(row);
    }

    let mut gm_row = vec!["GM".to_string()];
    for v in &per_strategy {
        gm_row.push(format!("{:.2}", geomean(v)));
    }
    rows.push(gm_row);

    println!("\nFig. 6 — Performance normalized to SharedOA (higher is better)");
    println!("paper GM: CUDA 0.59, Concord 0.72, SharedOA 1.00, COAL 1.06, TypePointer 1.12\n");
    let headers: Vec<&str> = std::iter::once("Workload")
        .chain(strategies.iter().map(|s| s.label()))
        .collect();
    print_table(&headers, &rows);

    manifest::emit_grid(&opts, "fig6", &records, &mut results);
}
