//! Figure 11: TypePointer applied to the **default CUDA allocator**
//! (the paper's simulation-only experiment), normalized to CUDA.
//!
//! Paper geomean: 1.18 — TypePointer helps even without SharedOA,
//! demonstrating allocator independence (§6.1).

use gvf_alloc::AllocatorKind;
use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::{geomean, print_table};
use gvf_bench::sweep::{grid, Cell};
use gvf_core::Strategy;
use gvf_workloads::WorkloadKind;

fn main() {
    let opts = HarnessOpts::from_args();

    // The hardware variant: Fig. 11 is an Accel-Sim experiment with the
    // MMU change, so no software masking overhead; both cells pin the
    // CUDA heap allocator via the override.
    let cells: Vec<Cell> = WorkloadKind::EVALUATED
        .into_iter()
        .flat_map(|k| {
            [
                Cell::workload(k, Strategy::Cuda),
                Cell {
                    allocator_override: Some(AllocatorKind::Cuda),
                    ..Cell::workload(k, Strategy::TypePointerHw)
                },
            ]
        })
        .collect();
    let mut results = grid("fig11", &opts, &cells).into_results(&opts);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut norms = Vec::new();
    for (ki, kind) in WorkloadKind::EVALUATED.into_iter().enumerate() {
        let cuda = &results[ki * 2];
        let tp = &results[ki * 2 + 1];
        assert_eq!(tp.checksum, cuda.checksum, "{kind}: functional mismatch");
        let norm = tp.stats.speedup_vs(&cuda.stats);
        norms.push(norm);
        rows.push(vec![
            kind.label().to_string(),
            "1.00".to_string(),
            format!("{norm:.2}"),
        ]);
        records.push(CellRecord::of(kind.label(), Strategy::Cuda.label(), cuda));
        records.push(
            CellRecord::of(kind.label(), Strategy::TypePointerHw.label(), tp)
                .with("norm_vs_cuda", Json::Num(norm)),
        );
    }
    rows.push(vec![
        "GM".to_string(),
        "1.00".to_string(),
        format!("{:.2}", geomean(&norms)),
    ]);

    println!("\nFig. 11 — TypePointer on the CUDA allocator (simulation), normalized to CUDA");
    println!("paper GM: 1.18\n");
    print_table(&["Workload", "CUDA", "TypePointer on CUDA"], &rows);

    manifest::emit_grid(&opts, "fig11", &records, &mut results);
}
