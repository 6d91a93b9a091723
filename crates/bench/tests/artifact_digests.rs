//! Pinned digests of the rendered `gvf.attribution` and `gvf.cycleaudit`
//! documents for three tiny cells.
//!
//! CI's serial-vs-parallel `--det-diff` compares two runs of one build,
//! so a change that alters both sides the same way (a collector folding
//! differently, an emitter formatting a number differently) passes it.
//! These digests were computed before the collectors moved to dense
//! per-`pc` tables and the emitter to borrowed keys; any byte that
//! changes in either document fails here. Update a pin only for an
//! intended change of the evidence or of its format.

use gvf_bench::cli::HarnessOpts;
use gvf_bench::manifest::{attribution_doc, cycleaudit_doc, CellRecord};
use gvf_core::Strategy;
use gvf_sim::ProbeSpec;
use gvf_workloads::{run_workload, WorkloadConfig, WorkloadKind};

/// The probes `run_all.sh` turns on for every cell.
const PROBES: ProbeSpec = ProbeSpec {
    attribution: true,
    cycle_audit: true,
    ..ProbeSpec::OFF
};

fn opts() -> HarnessOpts {
    HarnessOpts {
        cfg: WorkloadConfig::tiny(),
        jobs: 1,
        smoke: true,
        quiet: true,
        json_out: None,
        trace_out: None,
        metrics_out: None,
        attrib_out: None,
        profile_out: None,
        audit_out: None,
        no_cache: true,
        cache_dir: None,
        events_out: None,
        fail_cell: None,
    }
}

/// FNV-1a, 64 bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Three cells that reach every part of both documents: plain CUDA
/// dispatch, COAL's range lookup, and TypePointer on the SharedOA
/// allocator (region snapshot and tag attribution).
fn cells() -> Vec<CellRecord> {
    let mut cfg = WorkloadConfig::tiny();
    cfg.probe = PROBES;
    [
        (WorkloadKind::Traffic, Strategy::Cuda),
        (WorkloadKind::GameOfLife, Strategy::Coal),
        (WorkloadKind::Structure, Strategy::TypePointerProto),
    ]
    .into_iter()
    .map(|(kind, strategy)| {
        let r = run_workload(kind, strategy, &cfg);
        CellRecord::of(kind.label(), strategy.label(), &r)
    })
    .collect()
}

#[test]
fn rendered_attribution_and_audit_documents_are_pinned() {
    let (opts, cells) = (opts(), cells());
    let bundle = |i: usize| cells[i].attrib.as_ref().expect("attribution recorded");
    assert!(bundle(1).lookup.is_some() && bundle(2).alloc.is_some() && bundle(2).tags.is_some());
    assert!(cells.iter().all(|c| !c
        .audit
        .as_ref()
        .expect("audit recorded")
        .call_sites
        .is_empty()));
    let attrib = attribution_doc("pins", &opts, &cells).render();
    let audit = cycleaudit_doc("pins", &opts, &cells).render();
    let got = (fnv1a64(attrib.as_bytes()), fnv1a64(audit.as_bytes()));
    assert_eq!(
        got,
        (0x80cd_f222_bf28_0b94, 0x09fe_2f4c_9624_0670),
        "rendered documents changed: attribution {:#018x}, cycle audit {:#018x}",
        got.0,
        got.1
    );
}
