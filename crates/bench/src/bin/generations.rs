//! Robustness check across GPU generations (§2: the paper "examined
//! code from several different GPU generations and observe[d] similar
//! behavior"): the strategy ordering of Fig. 6 must hold on P100-,
//! V100- and A100-like machines, each scaled to the workload size.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::print_table;
use gvf_bench::sweep::{grid, Cell};
use gvf_core::Strategy;
use gvf_sim::GpuConfig;
use gvf_workloads::WorkloadKind;

const STRATEGIES: [Strategy; 4] = [
    Strategy::SharedOa,
    Strategy::Cuda,
    Strategy::Coal,
    Strategy::TypePointerProto,
];

fn main() {
    let opts = HarnessOpts::from_args();
    let machines: [(&str, GpuConfig); 3] = [
        ("P100", GpuConfig::p100().scaled_to(8)),
        ("V100", GpuConfig::v100().scaled_to(8)),
        ("A100", GpuConfig::a100().scaled_to(8)),
    ];

    // Grid: workload × machine × strategy, SharedOA first as baseline.
    let mut rows_of: Vec<(WorkloadKind, &str)> = Vec::new();
    let mut cells: Vec<Cell> = Vec::new();
    for kind in [WorkloadKind::GameOfLife, WorkloadKind::VeBfs] {
        for (name, gpu) in &machines {
            rows_of.push((kind, name));
            cells.extend(STRATEGIES.map(|s| Cell {
                gpu: Some(gpu.clone()),
                ..Cell::workload(kind, s)
            }));
        }
    }
    let mut results = grid("generations", &opts, &cells).into_results(&opts);

    let stride = STRATEGIES.len();
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (&(kind, name), row_results) in rows_of.iter().zip(results.chunks(stride)) {
        let base = &row_results[0];
        records.push(
            CellRecord::of(kind.label(), Strategy::SharedOa.label(), base)
                .with("gpu", Json::str(name)),
        );
        let mut row = vec![format!("{} {}", kind.label(), name)];
        for (s, r) in STRATEGIES.iter().zip(row_results).skip(1) {
            let norm = r.stats.speedup_vs(&base.stats);
            row.push(format!("{norm:.2}"));
            records.push(
                CellRecord::of(kind.label(), s.label(), r)
                    .with("gpu", Json::str(name))
                    .with("norm_vs_sharedoa", Json::Num(norm)),
            );
        }
        rows.push(row);
    }
    println!("\nRobustness — Fig. 6 ordering across GPU generations");
    println!("(normalized to SharedOA on each machine; expect CUDA < 1 < COAL ≤ TP everywhere)\n");
    print_table(&["Workload/GPU", "CUDA", "COAL", "TypePointer"], &rows);

    manifest::emit_grid(&opts, "generations", &records, &mut results);
}
