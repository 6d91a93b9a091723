//! The engine's fast-forward checked end-to-end through real
//! workloads rather than synthetic traces: every evaluated workload
//! produces bit-identical results — counters, checksum, domain metrics,
//! init cost, attribution evidence and cycle audit — whether the timing
//! engine fast-forwards quiet epochs (the default) or ticks every epoch
//! (the reference path). Repeated runs also agree with each other.

use gvf_core::Strategy;
use gvf_sim::ProbeSpec;
use gvf_workloads::{run_workload, RunResult, WorkloadConfig, WorkloadKind};

fn run(kind: WorkloadKind, strategy: Strategy, fast_forward: bool) -> RunResult {
    let mut cfg = WorkloadConfig::tiny();
    cfg.fast_forward = fast_forward;
    cfg.probe = ProbeSpec {
        attribution: true,
        cycle_audit: true,
        ..ProbeSpec::OFF
    };
    run_workload(kind, strategy, &cfg)
}

fn assert_ff_matches_tick(kind: WorkloadKind, strategy: Strategy) {
    let ff = run(kind, strategy, true);
    let tick = run(kind, strategy, false);
    let cell = format!("{kind}/{strategy}");
    assert_eq!(ff.stats, tick.stats, "{cell}: stats diverged");
    assert_eq!(ff.checksum, tick.checksum, "{cell}: checksum diverged");
    assert_eq!(ff.metrics, tick.metrics, "{cell}: metrics diverged");
    assert_eq!(ff.init_cycles, tick.init_cycles, "{cell}: init diverged");
    assert!(
        ff.attrib.is_some() && ff.audit.is_some(),
        "{cell}: probes off"
    );
    assert_eq!(ff.attrib, tick.attrib, "{cell}: attribution diverged");
    assert_eq!(ff.audit, tick.audit, "{cell}: cycle audit diverged");
}

/// All eleven evaluated workloads under SharedOA.
#[test]
fn all_workloads_fast_forward_matches_tick() {
    for kind in WorkloadKind::EVALUATED {
        assert_ff_matches_tick(kind, Strategy::SharedOa);
    }
}

/// The strategy under study must not affect the contract: spot-check the
/// non-baseline dispatch paths (COAL's range walk, TypePointer's tagged
/// loads) on a representative workload each.
#[test]
fn strategies_fast_forward_matches_tick() {
    for (kind, strategy) in [
        (WorkloadKind::Traffic, Strategy::Cuda),
        (WorkloadKind::VeBfs, Strategy::Coal),
        (WorkloadKind::Raytrace, Strategy::TypePointerProto),
        (WorkloadKind::GameOfLife, Strategy::TypePointerHw),
        (WorkloadKind::VenPr, Strategy::Concord),
    ] {
        assert_ff_matches_tick(kind, strategy);
    }
}

/// Two runs agree with each other (no hidden iteration-order
/// dependence).
#[test]
fn runs_repeatable() {
    let cfg = WorkloadConfig::tiny();
    let a = run_workload(WorkloadKind::Structure, Strategy::Coal, &cfg);
    let b = run_workload(WorkloadKind::Structure, Strategy::Coal, &cfg);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.checksum, b.checksum);
}
