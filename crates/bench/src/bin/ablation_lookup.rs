//! Ablation (§5 design choice): COAL's segment tree vs a linear scan of
//! the virtual range table, end-to-end on the real workloads, and the
//! §6.1 tag-budget fallback sweep for TypePointer.
//!
//! Not a paper figure — it backs the paper's *argument* for organizing
//! the ranges as a tree and for the overflow fallback being viable.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::json::Json;
use gvf_bench::manifest::{self, CellRecord};
use gvf_bench::report::{geomean, print_table};
use gvf_bench::sweep::{grid, Cell};
use gvf_core::{LookupKind, Strategy};
use gvf_workloads::WorkloadKind;

const KINDS: [WorkloadKind; 4] = [
    WorkloadKind::GameOfLife,
    WorkloadKind::Structure,
    WorkloadKind::VeBfs,
    WorkloadKind::VenPr,
];

fn main() {
    let opts = HarnessOpts::from_args();

    // Part 1: COAL lookup structure, normalized to SharedOA. Per
    // workload: the SharedOA baseline, COAL with the paper's segment
    // tree, COAL with a linear range scan.
    let cells: Vec<Cell> = KINDS
        .into_iter()
        .flat_map(|k| {
            [
                Cell::workload(k, Strategy::SharedOa),
                Cell::workload(k, Strategy::Coal),
                Cell {
                    coal_lookup: Some(LookupKind::LinearScan),
                    ..Cell::workload(k, Strategy::Coal)
                },
            ]
        })
        .collect();
    let mut results = grid("ablation_lookup", &opts, &cells).into_results(&opts);

    let mut records = Vec::new();
    let mut rows = Vec::new();
    let mut tree_norm = Vec::new();
    let mut lin_norm = Vec::new();
    for (ki, kind) in KINDS.into_iter().enumerate() {
        let base = &results[ki * 3];
        let tree = &results[ki * 3 + 1];
        let lin = &results[ki * 3 + 2];
        assert_eq!(tree.checksum, lin.checksum, "{kind}: lookup kinds disagree");
        let t = tree.stats.speedup_vs(&base.stats);
        let l = lin.stats.speedup_vs(&base.stats);
        tree_norm.push(t);
        lin_norm.push(l);
        rows.push(vec![
            kind.label().to_string(),
            format!("{t:.2}"),
            format!("{l:.2}"),
            format!("{}", tree.stats.total_instrs()),
            format!("{}", lin.stats.total_instrs()),
        ]);
        records.push(CellRecord::of(kind.label(), "sharedoa", base));
        records.push(
            CellRecord::of(kind.label(), "coal-tree", tree).with("norm_vs_sharedoa", Json::Num(t)),
        );
        records.push(
            CellRecord::of(kind.label(), "coal-linear", lin).with("norm_vs_sharedoa", Json::Num(l)),
        );
    }
    rows.push(vec![
        "GM".to_string(),
        format!("{:.2}", geomean(&tree_norm)),
        format!("{:.2}", geomean(&lin_norm)),
        String::new(),
        String::new(),
    ]);
    println!("\nAblation — COAL lookup: segment tree (paper Algorithm 1) vs linear scan");
    println!("(performance normalized to SharedOA; instrs = dynamic warp instructions)\n");
    print_table(
        &[
            "Workload",
            "tree perf",
            "linear perf",
            "tree instrs",
            "linear instrs",
        ],
        &rows,
    );

    // Part 2: TypePointer tag-budget sweep. vE has four single-slot
    // edge types = 32 bytes of vTables; shrinking the budget pushes
    // types one by one onto the classic fallback path, converging on
    // SharedOA-like behaviour.
    println!("\nExtension — TypePointer §6.1 fallback: shrinking tag budget (vE-BFS)");
    println!("(normalized to unbounded-budget TypePointer)\n");
    let budgets: [(Option<u64>, u32); 4] = [(None, 4), (Some(24), 3), (Some(16), 2), (Some(8), 1)];
    let budget_cells: Vec<Cell> = budgets
        .iter()
        .map(|&(tag_budget, _)| Cell {
            tag_budget,
            ..Cell::workload(WorkloadKind::VeBfs, Strategy::TypePointerHw)
        })
        .collect();
    // The budget sweep runs unprobed: its records carry no attribution
    // or audit, and the attribution and audit documents list them as
    // null.
    let unprobed = HarnessOpts {
        trace_out: None,
        metrics_out: None,
        attrib_out: None,
        audit_out: None,
        ..opts.clone()
    };
    let sweep = grid("ablation_budget", &unprobed, &budget_cells).into_results(&unprobed);
    let full = &sweep[0];
    let mut rows = vec![vec![
        "unbounded (4/4 tagged)".to_string(),
        "1.00".to_string(),
        format!("{}", full.stats.global_load_transactions),
    ]];
    records.push(
        CellRecord::of(WorkloadKind::VeBfs.label(), "typepointer-hw", full)
            .with("tag_budget", Json::Null),
    );
    for (&(budget, tagged), r) in budgets.iter().zip(&sweep).skip(1) {
        let budget = budget.expect("swept budgets are bounded");
        assert_eq!(r.checksum, full.checksum, "fallback changed results");
        rows.push(vec![
            format!("{budget} B ({tagged}/4 tagged)"),
            format!("{:.2}", r.stats.speedup_vs(&full.stats)),
            format!("{}", r.stats.global_load_transactions),
        ]);
        records.push(
            CellRecord::of(WorkloadKind::VeBfs.label(), "typepointer-hw", r)
                .with("tag_budget", Json::num_u64(budget)),
        );
    }
    print_table(&["tag budget", "norm perf", "ld transactions"], &rows);
    println!("(fewer tagged types ⇒ more classic vTable loads ⇒ more transactions)");

    manifest::emit_grid(&opts, "ablation_lookup", &records, &mut results);
}
