//! Table 1: global memory accesses per dispatch operation, measured.
//!
//! The paper's claim, per virtual call:
//!
//! | op | CUDA | COAL | TypePointer |
//! |---|---|---|---|
//! | A (get vTable*) | Acc ∝ #objects | Acc ∝ #types (converged walk) | **0** |
//! | B (get vFunc*)  | Acc ∝ #types | Acc ∝ #types | Acc ∝ #types |
//! | C (call)        | indirect | indirect | indirect |
//!
//! This harness measures actual 32-byte transactions per call on the
//! microbenchmark while sweeping objects and types: A's traffic scales
//! with distinct objects per warp under CUDA, stays near the (tiny) walk
//! cost under COAL, and is exactly zero under TypePointer.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::print_table;
use gvf_bench::sweep::{grid, Cell};
use gvf_core::Strategy;
use gvf_sim::AccessTag;
use gvf_workloads::MicroParams;

const STRATEGIES: [Strategy; 3] = [Strategy::SharedOa, Strategy::Coal, Strategy::TypePointerHw];

fn main() {
    let mut opts = HarnessOpts::from_args();
    opts.cfg.iterations = 1;

    let points: Vec<(MicroParams, Strategy)> =
        [(16384usize, 2usize), (16384, 8), (65536, 2), (65536, 8)]
            .into_iter()
            .flat_map(|(n_objects, n_types)| {
                STRATEGIES.map(|s| (MicroParams { n_objects, n_types }, s))
            })
            .collect();
    let cells: Vec<Cell> = points.iter().map(|&(p, s)| Cell::micro(p, s)).collect();
    let mut results = grid("table1", &opts, &cells).into_results(&opts);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (&(params, s), r) in points.iter().zip(&results) {
        let a = r.stats.load_transactions_per_call(AccessTag::VtablePtr);
        let walk = r.stats.load_transactions_per_call(AccessTag::RangeWalk);
        let b = r.stats.load_transactions_per_call(AccessTag::VfuncPtr);
        rows.push(vec![
            format!(
                "{}k objs, {} types",
                params.n_objects / 1024,
                params.n_types
            ),
            s.label().to_string(),
            format!("{a:.1}"),
            format!("{walk:.1}"),
            format!("{b:.1}"),
        ]);
        records.push(
            CellRecord::of("micro", s.label(), r)
                .with("n_objects", Json::num_u64(params.n_objects as u64))
                .with("n_types", Json::num_u64(params.n_types as u64))
                .with("vtable_tx_per_call", Json::Num(a))
                .with("walk_tx_per_call", Json::Num(walk))
                .with("vfunc_tx_per_call", Json::Num(b)),
        );
    }

    println!("\nTable 1 — measured 32B transactions per virtual call");
    println!("CUDA-style A grows with objects-per-warp; COAL replaces it with a");
    println!("small converged walk; TypePointer eliminates it entirely.\n");
    print_table(
        &[
            "Configuration",
            "Strategy",
            "A: vTable* tx",
            "walk tx",
            "B: vFunc* tx",
        ],
        &rows,
    );

    manifest::emit_grid(&opts, "table1", &records, &mut results);
}
