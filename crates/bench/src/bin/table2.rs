//! Table 2: workload characteristics — object instances, concrete types,
//! vTable entries, and dynamic virtual calls per thousand instructions.
//!
//! Paper values (full-scale CUDA inputs): 0.5–5.6 M objects, 3–6 types,
//! 3–74 vFuncs, vFuncPKI 15–54. Ours are the same ports at the harness
//! scale; object counts shrink with `--scale`, the rest should land in
//! the same ballpark.

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
        .map(|k| Cell::workload(k, Strategy::SharedOa))
        .to_vec();
    let mut results = grid("table2", &opts, &cells).into_results(&opts);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (kind, r) in WorkloadKind::EVALUATED.iter().zip(&results) {
        rows.push(vec![
            format!("{} {}", kind.suite(), kind.label()),
            format!("{}", r.table2.objects),
            format!("{}", r.table2.types),
            format!("{}", r.table2.vfunc_entries),
            format!("{:.1}", r.table2.vfunc_pki),
        ]);
        records.push(
            CellRecord::of(kind.label(), Strategy::SharedOa.label(), r)
                .with("objects", Json::num_u64(r.table2.objects))
                .with("types", Json::num_u64(r.table2.types as u64))
                .with(
                    "vfunc_entries",
                    Json::num_u64(r.table2.vfunc_entries as u64),
                )
                .with("vfunc_pki", Json::Num(r.table2.vfunc_pki)),
        );
    }
    println!(
        "\nTable 2 — workload characteristics (at --scale {})",
        opts.cfg.scale
    );
    println!("paper: 0.5-5.6M objects, 3-6 types, 3-74 vFuncs, vFuncPKI 15-54\n");
    print_table(
        &["Workload", "# Objects", "# Types", "# vFuncs", "vFuncPKI"],
        &rows,
    );

    manifest::emit_grid(&opts, "table2", &records, &mut results);
}
