//! Diagnostic: raw hardware-counter dump for one workload across all
//! strategies (cycles, instruction mix, transactions, cache rates,
//! per-tag latency attribution). Useful when calibrating the timing
//! model; not itself a paper figure.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::sweep::{grid, Cell};
use gvf_core::Strategy;
use gvf_sim::AccessTag;
use gvf_workloads::WorkloadKind;

const KINDS: [WorkloadKind; 2] = [WorkloadKind::VeBfs, WorkloadKind::GameOfLife];

fn main() {
    let opts = HarnessOpts::from_args();
    let cells: Vec<Cell> = KINDS
        .into_iter()
        .flat_map(|k| Strategy::EVALUATED.map(|s| Cell::workload(k, s)))
        .collect();
    let mut results = grid("counters", &opts, &cells).into_results(&opts);

    let stride = Strategy::EVALUATED.len();
    let mut records = Vec::new();
    for (ki, kind) in KINDS.into_iter().enumerate() {
        println!("\n== {kind} ==");
        for (si, s) in Strategy::EVALUATED.into_iter().enumerate() {
            let r = &results[ki * stride + si];
            println!(
                "{:>12}: cyc={:>9} M/C/X={}/{}/{} ldtx={} l1={:.2} l2={:.2} dram={} A={} B={} walk={}",
                s.label(),
                r.stats.cycles,
                r.stats.instrs_mem,
                r.stats.instrs_compute,
                r.stats.instrs_ctrl,
                r.stats.global_load_transactions,
                r.stats.l1_hit_rate(),
                r.stats.l2_hit_rate(),
                r.stats.dram_accesses,
                r.stats.stall(AccessTag::VtablePtr),
                r.stats.stall(AccessTag::VfuncPtr),
                r.stats.stall(AccessTag::RangeWalk),
            );
            records.push(CellRecord::of(kind.label(), s.label(), r));
        }
    }

    manifest::emit_grid(&opts, "counters", &records, &mut results);
}
