//! Figure 12: scalability microbenchmarks (§8.3).
//!
//! (a) Execution time vs object count at 4 types, normalized to BRANCH
//!     with the smallest count. Paper @32M objects: CUDA 5.6× slower
//!     than BRANCH, COAL 3.3×, TypePointer 2.0×.
//! (b) Execution time vs types-per-warp at a fixed object count,
//!     normalized to BRANCH with 1 type. Paper: all converge as
//!     divergence dominates at 32 types.
//!
//! Counts scale with `--scale` (paper's 1M–32M at scale 128).

use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::print_table;
use gvf_bench::sweep::{grid, Cell};
use gvf_core::Strategy;
use gvf_workloads::MicroParams;

const STRATEGIES: [Strategy; 4] = [
    Strategy::Branch,
    Strategy::Cuda,
    Strategy::Coal,
    Strategy::TypePointerProto,
];

const STEPS: [usize; 6] = [1, 2, 4, 8, 16, 32];

fn main() {
    let opts = HarnessOpts::from_args();
    let unit = 8192 * opts.cfg.scale as usize; // "1M" at paper scale 128

    // Both sweeps form one flat grid so a single pool keeps every core
    // busy across the (a)/(b) boundary.
    let mut points: Vec<(MicroParams, Strategy)> = Vec::new();
    for step in STEPS {
        let params = MicroParams {
            n_objects: unit * step,
            n_types: 4,
        };
        points.extend(STRATEGIES.map(|s| (params, s)));
    }
    for types in STEPS {
        let params = MicroParams {
            n_objects: unit * 16,
            n_types: types,
        };
        points.extend(STRATEGIES.map(|s| (params, s)));
    }
    let cells: Vec<Cell> = points.iter().map(|&(p, s)| Cell::micro(p, s)).collect();
    let mut results = grid("fig12", &opts, &cells).into_results(&opts);

    let records: Vec<CellRecord> = points
        .iter()
        .zip(&results)
        .map(|(&(p, s), r)| {
            CellRecord::of("micro", s.label(), r)
                .with("n_objects", Json::num_u64(p.n_objects as u64))
                .with("n_types", Json::num_u64(p.n_types as u64))
        })
        .collect();

    let stride = STRATEGIES.len();
    let report = |title: &str, note: &str, col: &str, offset: usize| {
        // Normalize to BRANCH in the sweep's first row.
        let baseline = results[offset * stride].stats.cycles as f64;
        let mut rows = Vec::new();
        for (row_i, &step) in STEPS.iter().enumerate() {
            let mut row = vec![format!("{step}{}", if col == "objects" { "x" } else { "" })];
            for si in 0..stride {
                let r = &results[(offset + row_i) * stride + si];
                row.push(format!("{:.1}", r.stats.cycles as f64 / baseline));
            }
            rows.push(row);
        }
        println!("\n{title}");
        println!("{note}\n");
        let headers: Vec<&str> = std::iter::once(col)
            .chain(STRATEGIES.iter().map(|s| s.label()))
            .collect();
        print_table(&headers, &rows);
    };

    report(
        "Fig. 12a — Execution time vs object count (4 types), normalized to BRANCH at 1x.",
        "paper @32x: CUDA 5.6x, COAL 3.3x, TypePointer 2.0x of BRANCH",
        "objects",
        0,
    );
    report(
        "Fig. 12b — Execution time vs types-per-warp (16x objects), normalized to BRANCH at 1 type.",
        "paper: gaps shrink as divergence dominates",
        "types",
        STEPS.len(),
    );

    manifest::emit_grid(&opts, "fig12", &records, &mut results);
}
