//! §8.2 object-initialization comparison: SharedOA's host-side
//! allocation vs device-side CUDA `new`.
//!
//! Paper: SharedOA outperforms the default CUDA allocator by a geomean
//! of **80×** on the initialization phase, because host-side bump
//! allocation avoids the device-side heap-lock serialization. Our
//! allocators model that per-object cost (`AllocatorKind::
//! init_cycles_per_object`); this harness reports the resulting modeled
//! speedups plus the measured packing statistics.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::{geomean, print_table};
use gvf_bench::sweep::{grid, Cell};
use gvf_core::Strategy;
use gvf_workloads::WorkloadKind;

fn main() {
    let opts = HarnessOpts::from_args();
    let cells: Vec<Cell> = WorkloadKind::EVALUATED
        .into_iter()
        .flat_map(|k| [Strategy::Cuda, Strategy::SharedOa].map(|s| Cell::workload(k, s)))
        .collect();
    let mut results = grid("alloc_init", &opts, &cells).into_results(&opts);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut speedups = Vec::new();
    for (ki, kind) in WorkloadKind::EVALUATED.into_iter().enumerate() {
        let cuda = &results[ki * 2];
        let soa = &results[ki * 2 + 1];
        let speedup = cuda.init_cycles as f64 / soa.init_cycles.max(1) as f64;
        speedups.push(speedup);
        rows.push(vec![
            kind.label().to_string(),
            format!("{}", cuda.table2.objects),
            format!("{}", cuda.init_cycles),
            format!("{}", soa.init_cycles),
            format!("{speedup:.0}x"),
            format!("{:.0}%", cuda.alloc_stats.external_fragmentation() * 100.0),
            format!("{:.0}%", soa.alloc_stats.external_fragmentation() * 100.0),
        ]);
        for (s, r) in [(Strategy::Cuda, cuda), (Strategy::SharedOa, soa)] {
            records.push(
                CellRecord::of(kind.label(), s.label(), r)
                    .with("init_cycles", Json::num_u64(r.init_cycles))
                    .with(
                        "external_fragmentation",
                        Json::Num(r.alloc_stats.external_fragmentation()),
                    ),
            );
        }
    }
    rows.push(vec![
        "GM".to_string(),
        String::new(),
        String::new(),
        String::new(),
        format!("{:.0}x", geomean(&speedups)),
        String::new(),
        String::new(),
    ]);

    println!("\n§8.2 — Object initialization: SharedOA vs device-side CUDA new");
    println!("paper: 80x geomean speedup\n");
    print_table(
        &[
            "Workload",
            "# Objects",
            "CUDA init cyc",
            "SharedOA init cyc",
            "Speedup",
            "CUDA frag",
            "SharedOA frag",
        ],
        &rows,
    );

    manifest::emit_grid(&opts, "alloc_init", &records, &mut results);
}
