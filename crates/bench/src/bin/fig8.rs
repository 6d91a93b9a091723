//! Figure 8: global load transactions, normalized to SharedOA.
//!
//! Paper geomeans: CUDA 1.00, Concord 0.82, COAL 0.86, TypePointer 0.81.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::{geomean, print_table};
use gvf_bench::sweep::{eval_grid, eval_rows, grid, EVAL_BASELINE};
use gvf_core::Strategy;

fn main() {
    let opts = HarnessOpts::from_args();
    let strategies = Strategy::EVALUATED;
    let mut results = grid("fig8", &opts, &eval_grid()).into_results(&opts);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut per_strategy: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    for (kind, cells) in eval_rows(&results) {
        let base = &cells[EVAL_BASELINE];
        let mut row = vec![kind.label().to_string()];
        for (si, (s, r)) in strategies.into_iter().zip(cells).enumerate() {
            let norm = r.stats.load_transactions_vs(&base.stats);
            per_strategy[si].push(norm);
            row.push(format!("{norm:.2}"));
            records.push(
                CellRecord::of(kind.label(), s.label(), r)
                    .with("load_tx_vs_sharedoa", Json::Num(norm)),
            );
        }
        rows.push(row);
    }
    let mut gm = vec!["GM".to_string()];
    for v in &per_strategy {
        gm.push(format!("{:.2}", geomean(v)));
    }
    rows.push(gm);

    println!("\nFig. 8 — Global load transactions normalized to SharedOA (lower is better)");
    println!("paper GM: CUDA 1.00, Concord 0.82, SharedOA 1.00, COAL 0.86, TypePointer 0.81\n");
    let headers: Vec<&str> = std::iter::once("Workload")
        .chain(strategies.iter().map(|s| s.label()))
        .collect();
    print_table(&headers, &rows);

    manifest::emit_grid(&opts, "fig8", &records, &mut results);
}
