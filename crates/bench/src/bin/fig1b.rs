//! Figure 1b: breakdown of the virtual-function direct cost under
//! contemporary CUDA, averaged over the object-oriented apps.
//!
//! Paper (PC sampling on a V100): ~87% of the added latency comes from
//! the vTable-pointer load (A), the rest split between the vFunc load
//! (B) and the indirect call (C).

use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::print_table;
use gvf_bench::sweep::{grid, Cell};
use gvf_core::Strategy;
use gvf_workloads::WorkloadKind;

fn main() {
    let opts = HarnessOpts::from_args();
    let cells: Vec<Cell> = WorkloadKind::EVALUATED
        .map(|k| Cell::workload(k, Strategy::Cuda))
        .to_vec();
    let mut results = grid("fig1b", &opts, &cells).into_results(&opts);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let (mut sa, mut sb, mut sc) = (0.0, 0.0, 0.0);
    for (kind, r) in WorkloadKind::EVALUATED.iter().zip(&results) {
        let (a, b, c) = r.stats.dispatch_latency_breakdown();
        sa += a;
        sb += b;
        sc += c;
        rows.push(vec![
            kind.label().to_string(),
            format!("{:.1}%", a * 100.0),
            format!("{:.1}%", b * 100.0),
            format!("{:.1}%", c * 100.0),
        ]);
        records.push(
            CellRecord::of(kind.label(), Strategy::Cuda.label(), r)
                .with("vtable_load_share", Json::Num(a))
                .with("vfunc_load_share", Json::Num(b))
                .with("indirect_call_share", Json::Num(c)),
        );
    }
    let n = WorkloadKind::EVALUATED.len() as f64;
    rows.push(vec![
        "AVG".to_string(),
        format!("{:.1}%", sa / n * 100.0),
        format!("{:.1}%", sb / n * 100.0),
        format!("{:.1}%", sc / n * 100.0),
    ]);

    println!("\nFig. 1b — Virtual-function direct-cost latency breakdown (CUDA)");
    println!("paper AVG: A (load vTable*) ~87%, remainder split between B and C\n");
    print_table(
        &[
            "Workload",
            "A: load vTable*",
            "B: load vFunc*",
            "C: indirect call",
        ],
        &rows,
    );

    manifest::emit_grid(&opts, "fig1b", &records, &mut results);
}
