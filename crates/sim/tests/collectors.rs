//! The `run_all.sh` collectors against a plain oracle.
//!
//! [`AttributionProbe`](gvf_sim::AttributionProbe) and
//! [`CycleAuditProbe`](gvf_sim::CycleAuditProbe) keep their evidence in
//! dense per-`pc` tables, per-set front tables and a line map with a
//! multiplicative hash, and reuse those tables across launches. None of
//! that may show in the reports. This suite feeds random hook streams,
//! split across SMs and launches, through [`recording_probe`] and
//! [`ObsReport::absorb`], and folds the same streams into a reference
//! built from ordered maps and a plain hash map. The two must be equal.

use gvf_prop::{props, Rng};
use gvf_sim::{
    recording_probe, AccessTag, AttribReport, CycleAuditReport, LineClass, ObsReport, Op, Probe,
    ProbeSpec, SectoredCache, CALL_SITE_TARGET_CAP, UNKNOWN_CALL_TARGET,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One hook call of a stream.
#[derive(Clone, Debug)]
enum Event {
    /// `load_coalesced(pc, tag, lanes)` followed by one `l1_sector` per
    /// `(line, hit)`.
    Load {
        pc: usize,
        tag: AccessTag,
        lanes: u64,
        sectors: Vec<(u64, bool)>,
    },
    /// `issue` of an indirect call.
    Call { pc: usize, target: u64 },
    /// `epoch` then `epoch_end` at `cycle`.
    Epoch {
        cycle: u64,
        live: bool,
        issued: bool,
        min_next: u64,
    },
}

/// One launch: per SM, its events and the addresses its L1 holds at the
/// end (for `cache_final`); plus the launch's cycle count.
struct Launch {
    sms: Vec<(Vec<Event>, Vec<u64>)>,
    cycles: u64,
}

const SPEC: ProbeSpec = ProbeSpec {
    timeline_events_per_sm: 0,
    metrics_bucket_cycles: 0,
    attribution: true,
    cycle_audit: true,
};

/// The L1 whose final state `cache_final` snapshots; `SETS` sets.
fn l1() -> SectoredCache {
    SectoredCache::new(SETS as u64 * 2 * 128, 2, 128, 32)
}

const SETS: usize = 8;

/// The set a line maps to: a function of the line, as the engine's
/// `SectoredCache::set_of` is.
fn set_of(line: u64, sets: usize) -> usize {
    (line.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as usize % sets
}

fn arb_stream(rng: &mut Rng) -> (Vec<Event>, u64) {
    // Few distinct positions and lines, so rows, front entries and map
    // entries are hit again; a few far positions and lines as well.
    let pcs: Vec<usize> = (0..rng.range_usize(1, 12))
        .map(|_| rng.range_usize(0, 3000))
        .collect();
    let lines: Vec<u64> = (0..rng.range_usize(1, 40))
        .map(|_| {
            if rng.bool(0.8) {
                rng.range_u64(0, 64)
            } else {
                rng.range_u64(0, 1 << 40)
            }
        })
        .collect();
    // Calls come from a few of the positions, and many distinct targets
    // at one site overflow its cap.
    let call_pcs = &pcs[..pcs.len().min(3)];
    let targets: Vec<u64> = (0..rng.range_usize(1, CALL_SITE_TARGET_CAP + 12))
        .map(|t| {
            if t == 0 {
                UNKNOWN_CALL_TARGET
            } else {
                t as u64 * 7
            }
        })
        .collect();
    // Every SM's timeline starts at cycle 0, as the engine's epochs do.
    let mut cycle = None;
    let mut events = Vec::new();
    for _ in 0..rng.range_usize(0, 400) {
        let ev = match rng.range_usize(0, 4) {
            0 | 1 => Event::Load {
                pc: *rng.pick(&pcs),
                tag: *rng.pick(&AccessTag::ALL),
                lanes: rng.range_u64(1, 33),
                sectors: (0..rng.range_usize(0, 6))
                    .map(|_| (*rng.pick(&lines), rng.bool(0.5)))
                    .collect(),
            },
            2 => Event::Call {
                pc: *rng.pick(call_pcs),
                target: *rng.pick(&targets),
            },
            _ => {
                let cycle = *cycle.insert(cycle.map_or(0, |c: u64| c + rng.range_u64(1, 20)));
                Event::Epoch {
                    cycle,
                    live: rng.bool(0.8),
                    issued: rng.bool(0.5),
                    min_next: if rng.bool(0.3) {
                        u64::MAX
                    } else {
                        cycle + rng.range_u64(0, 100)
                    },
                }
            }
        };
        events.push(ev);
    }
    (events, cycle.unwrap_or(0))
}

/// One to three launches on one to four SMs (the SM count is fixed for
/// a run, as on one GPU).
fn arb_launches(rng: &mut Rng) -> Vec<Launch> {
    let sms = rng.range_usize(1, 5);
    (0..rng.range_usize(1, 4))
        .map(|_| {
            let mut last = 0;
            let sms = (0..sms)
                .map(|_| {
                    let (events, c) = arb_stream(rng);
                    last = last.max(c);
                    let resident = (0..rng.range_usize(0, 12))
                        .map(|_| rng.range_u64(0, 1 << 20) * 32)
                        .collect();
                    (events, resident)
                })
                .collect();
            Launch {
                sms,
                cycles: last + rng.range_u64(0, 50),
            }
        })
        .collect()
}

/// The collectors under test: `recording_probe` stacks folded by
/// `ObsReport::absorb`.
fn collected(launches: &[Launch], sets: usize) -> (AttribReport, CycleAuditReport) {
    let mut obs = ObsReport::default();
    let mut base = 0;
    for launch in launches {
        let probes = launch
            .sms
            .iter()
            .enumerate()
            .map(|(sm, (events, resident))| {
                let mut p = recording_probe(sm, SPEC);
                for e in events {
                    match e {
                        Event::Load {
                            pc,
                            tag,
                            lanes,
                            sectors,
                        } => {
                            p.load_coalesced(0, *pc, *tag, *lanes, sectors.len() as u64);
                            for &(line, hit) in sectors {
                                p.l1_sector(0, *pc, *tag, line, set_of(line, sets), hit);
                            }
                        }
                        Event::Call { pc, target } => {
                            p.issue(0, 0, *pc, &Op::IndirectCall { target: *target });
                        }
                        &Event::Epoch {
                            cycle,
                            live,
                            issued,
                            min_next,
                        } => {
                            p.epoch(cycle);
                            p.epoch_end(cycle, live, issued, min_next);
                        }
                    }
                }
                let mut cache = l1();
                for &a in resident {
                    cache.access(a);
                }
                p.cache_final(&cache);
                p
            })
            .collect();
        obs.absorb(base, launch.cycles, probes);
        base += launch.cycles;
    }
    (
        obs.attribution.expect("attribution recorded"),
        obs.audit.expect("audit recorded"),
    )
}

/// One call site of the reference: the resolved targets admitted
/// before the cap, and whether one was turned away.
#[derive(Default)]
struct RefSite {
    calls: u64,
    unknown: u64,
    targets: BTreeSet<u64>,
    overflowed: bool,
}

/// The same streams folded with ordered maps and a plain `HashMap`: one
/// last-touch map per SM and launch, every site's targets in a set.
fn reference(launches: &[Launch], sets: usize) -> (AttribReport, CycleAuditReport) {
    let mut a = AttribReport::default();
    let mut au = CycleAuditReport::default();
    let mut sites: BTreeMap<usize, RefSite> = BTreeMap::new();
    let bump = |v: &mut Vec<u64>, i: usize, by: u64| {
        if v.len() <= i {
            v.resize(i + 1, 0);
        }
        v[i] += by;
    };
    for launch in launches {
        for (events, resident) in &launch.sms {
            a.sms += 1;
            let mut last_touch: HashMap<u64, u64> = HashMap::new();
            let mut clock = 0u64;
            let mut epochs: Vec<(u64, usize)> = Vec::new();
            let mut sm_sites: BTreeMap<usize, RefSite> = BTreeMap::new();
            for e in events {
                match e {
                    Event::Load {
                        pc,
                        tag,
                        lanes,
                        sectors,
                    } => {
                        let row = a.per_pc.entry((*pc, tag.index())).or_default();
                        row.instructions += 1;
                        row.lanes += lanes;
                        for &(line, hit) in sectors {
                            let row = a.per_pc.entry((*pc, tag.index())).or_default();
                            row.transactions += 1;
                            row.l1_hits += hit as u64;
                            let set = set_of(line, sets);
                            bump(&mut a.set_accesses, set, 1);
                            bump(&mut a.set_hits, set, hit as u64);
                            let class = LineClass::of(*tag).index();
                            match last_touch.insert(line, clock) {
                                Some(prev) => a.reuse[class].record(clock - prev),
                                None => a.cold_lines[class] += 1,
                            }
                            clock += 1;
                        }
                    }
                    Event::Call { pc, target } => {
                        let s = sm_sites.entry(*pc).or_default();
                        s.calls += 1;
                        if *target == UNKNOWN_CALL_TARGET {
                            s.unknown += 1;
                        } else if !s.targets.contains(target) {
                            if s.targets.len() < CALL_SITE_TARGET_CAP {
                                s.targets.insert(*target);
                            } else {
                                s.overflowed = true;
                            }
                        }
                    }
                    &Event::Epoch {
                        cycle,
                        live,
                        issued,
                        min_next,
                    } => {
                        let class = if issued {
                            0
                        } else if !live {
                            3
                        } else if min_next != u64::MAX {
                            au.gap_hist.record(min_next - cycle);
                            1
                        } else {
                            2
                        };
                        epochs.push((cycle, class));
                    }
                }
            }
            let mut cache = l1();
            for &r in resident {
                cache.access(r);
            }
            for (i, &n) in cache.per_set_valid_sectors().iter().enumerate() {
                bump(&mut a.final_set_sectors, i, n as u64);
            }
            // Every epoch but the last is committed with the gap to the
            // next; the last one's coverage is tail.
            for w in epochs.windows(2) {
                let ((c0, class), (c1, _)) = (w[0], w[1]);
                *[
                    &mut au.active,
                    &mut au.stalled_known,
                    &mut au.stalled_other,
                    &mut au.drained,
                ][class] += 1;
                au.skipped += c1 - c0 - 1;
            }
            au.tail += match epochs.last() {
                Some(&(c, _)) => launch.cycles - c,
                None => launch.cycles,
            };
            // Fold the SM's sites in, in target order, as reports merge.
            for (pc, s) in sm_sites {
                let acc = sites.entry(pc).or_default();
                acc.calls += s.calls;
                acc.unknown += s.unknown;
                acc.overflowed |= s.overflowed;
                for t in s.targets {
                    if acc.targets.len() < CALL_SITE_TARGET_CAP {
                        acc.targets.insert(t);
                    } else if !acc.targets.contains(&t) {
                        acc.overflowed = true;
                    }
                }
            }
        }
        au.sms = launch.sms.len() as u64;
        au.audited_cycles += launch.cycles;
    }
    for (pc, s) in sites {
        let stats = au.call_sites.entry(pc).or_default();
        stats.calls = s.calls;
        stats.unknown_calls = s.unknown;
        stats.targets = s.targets;
        stats.overflowed = s.overflowed;
    }
    (a, au)
}

#[test]
fn collectors_match_the_plain_oracle() {
    props!(96, |rng| {
        let sets = rng.range_usize(1, SETS + 1);
        let launches = arb_launches(rng);
        let (attrib, audit) = collected(&launches, sets);
        let (want_attrib, want_audit) = reference(&launches, sets);
        assert_eq!(attrib, want_attrib, "attribution diverged from the oracle");
        assert_eq!(audit, want_audit, "cycle audit diverged from the oracle");
        assert!(audit.reconciles());
    });
}

/// The oracle itself is not vacuous: streams reach every tag, reuse a
/// line, and overflow a call site.
#[test]
fn oracle_streams_exercise_every_path() {
    let (mut tags, mut reused, mut overflowed) = (BTreeSet::new(), false, false);
    let mut rng = Rng::new(11);
    for _ in 0..64 {
        let sets = rng.range_usize(1, SETS + 1);
        let launches = arb_launches(&mut rng);
        let (a, au) = reference(&launches, sets);
        tags.extend(a.per_pc.keys().map(|&(_, t)| t));
        reused |= a.reuse.iter().any(|h| !h.is_empty());
        overflowed |= au.call_sites.values().any(|s| s.overflowed);
    }
    assert_eq!(tags.len(), AccessTag::ALL.len());
    assert!(reused && overflowed);
}
