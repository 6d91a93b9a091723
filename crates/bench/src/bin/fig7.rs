//! Figure 7: dynamic warp instruction breakdown (MEM / COMPUTE / CTRL)
//! normalized to SharedOA.
//!
//! Paper: Concord, COAL and TypePointer increase total instructions by
//! 28%, 83% and 19% respectively; Concord halves memory instructions.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::print_table;
use gvf_bench::sweep::{eval_grid, eval_rows, grid, EVAL_BASELINE};
use gvf_core::Strategy;
use gvf_workloads::WorkloadKind;

fn main() {
    let opts = HarnessOpts::from_args();
    let strategies = Strategy::EVALUATED;
    let mut results = grid("fig7", &opts, &eval_grid()).into_results(&opts);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    // Unweighted per-app ratios, as the paper averages them.
    let mut sums = vec![(0.0f64, 0.0f64, 0.0f64, 0.0f64); strategies.len()];
    for (kind, cells) in eval_rows(&results) {
        let base_total = cells[EVAL_BASELINE].stats.total_instrs() as f64;
        for (si, (s, r)) in strategies.into_iter().zip(cells).enumerate() {
            let (m, c, x) = (
                r.stats.instrs_mem as f64 / base_total,
                r.stats.instrs_compute as f64 / base_total,
                r.stats.instrs_ctrl as f64 / base_total,
            );
            sums[si].0 += m;
            sums[si].1 += c;
            sums[si].2 += x;
            sums[si].3 += m + c + x;
            rows.push(vec![
                format!("{} {}", kind.label(), s.label()),
                format!("{m:.2}"),
                format!("{c:.2}"),
                format!("{x:.2}"),
                format!("{:.2}", m + c + x),
            ]);
            records.push(
                CellRecord::of(kind.label(), s.label(), r)
                    .with("instrs_vs_sharedoa", Json::Num(m + c + x)),
            );
        }
    }
    let n = WorkloadKind::EVALUATED.len() as f64;
    for (si, s) in strategies.into_iter().enumerate() {
        let (m, c, x, t) = sums[si];
        rows.push(vec![
            format!("AVG {}", s.label()),
            format!("{:.2}", m / n),
            format!("{:.2}", c / n),
            format!("{:.2}", x / n),
            format!("{:.2}", t / n),
        ]);
    }

    println!("\nFig. 7 — Dynamic warp instructions normalized to SharedOA");
    println!("paper AVG totals: Concord 1.28, COAL 1.83, TypePointer 1.19\n");
    print_table(
        &["Workload/Strategy", "MEM", "COMPUTE", "CTRL", "TOTAL"],
        &rows,
    );

    manifest::emit_grid(&opts, "fig7", &records, &mut results);
}
