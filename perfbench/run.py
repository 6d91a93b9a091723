#!/usr/bin/env python3
"""The repository benchmark: one command that runs a workload, checks its
outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload suite|eval-grid|micro-dispatch \
        --seed N --seconds S --trace 0|1 [--pin]

It builds the figure binaries and the in-process driver (`perfbench/src`)
from the source tree it sits in, into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the workload as a closed loop for `--seconds`
(at least one pass of the suite, at least three passes of the others).
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
the per-layer ones. Each run also leaves a record with the host load
beside its metrics in `.bench_out/runs/`, and a traced run its spans in
`.bench_out/spans/`. `--pin` runs one pass and stores its output digests
in `pins.json` for the given seed instead of checking them. README.md in
this directory explains the workloads and metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ("suite", "eval-grid", "micro-dispatch")

# The figure/table binaries in the order run_all.sh runs them.
SUITE_BINS = (
    "fig1b", "table1", "table2", "fig6", "fig7", "fig8", "fig9", "fig11",
    "fig12", "alloc_init", "fig10", "ablation_lookup", "generations",
    "counters",
)
# The evaluation GPU at the smallest population the flags allow; not
# --smoke, whose GPU no figure reports.
SUITE_SIZE = ("--scale", "1", "--iters", "1")

# In traced micro-dispatch, the build, functional and engine spans must
# account for at least this share of the CPU time.
LEDGER_MIN_SHARE = 0.95


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def median(values):
    return statistics.median(values)


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def nproc():
    return len(os.sched_getaffinity(0))


def host_load():
    """Load average and the cumulative CPU tick counters, for the noise
    record: a run with high load or steal time was disturbed."""
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return {"loadavg": load, "steal_ticks": ticks[7], "total_ticks": sum(ticks)}


def noise_record(before, after):
    total = after["total_ticks"] - before["total_ticks"]
    steal = after["steal_ticks"] - before["steal_ticks"]
    return {
        "loadavg_before": before["loadavg"],
        "loadavg_after": after["loadavg"],
        "steal_share": steal / total if total > 0 else 0.0,
    }


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the figure binaries and the in-process driver; cargo's own
    output goes to stderr so the result stays the last stdout line."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        die(f"no gvf source tree next to {HERE} (crates/bench/Cargo.toml missing)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "gvf-bench"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    return os.path.join(target_dir(), "release")


def load_pins():
    if not os.path.isfile(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def save_pins(pins):
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def check_pins(workload, seed, digests, pins, pin):
    """Stores `digests` (name -> digest) as the pins of this workload and
    seed with `pin`; otherwise returns the names whose digest differs from
    the pinned one."""
    # The micro-dispatch population is fixed; its seed only orders it.
    key = "any" if workload == "micro-dispatch" else str(seed)
    if pin:
        pins.setdefault(workload, {})[key] = digests
        return set()
    pinned = pins.get(workload, {}).get(key)
    if pinned is None:
        print(f"run.py: no pinned digests for {workload} seed {seed}; "
              "the other output checks still ran", file=sys.stderr)
        return set()
    return {k for k in set(pinned) | set(digests) if pinned.get(k) != digests.get(k)}


# ---------------------------------------------------------------- in-process


def perfbench(bindir, *args):
    p = subprocess.run([os.path.join(bindir, "perfbench"), *args],
                       capture_output=True, text=True)
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        die(f"perfbench {' '.join(args)} exited with {p.returncode}")
    return json.loads(p.stdout)


def check_cells(workload, seed, report, pins, pin):
    """The output check of eval-grid and micro-dispatch. Returns the cell
    keys that failed and the attempted/failed counts over all passes."""
    passes = report["passes"] + ([report["probe_pass"]] if report["probe_pass"] else [])
    first = {c["key"]: c for c in report["passes"][0]["cells"]}
    bad = set(report["oracle_mismatches"])
    for p in passes:
        for c in p["cells"]:
            # Every pass, traced or probed, must reproduce the first.
            if c["failed"] or c["digest"] != first[c["key"]]["digest"]:
                bad.add(c["key"])
    # Checksums agree across strategies of one application/type count.
    groups = {}
    for c in first.values():
        groups.setdefault(c["key"].split("/")[0], set()).add(c["checksum"])
    bad |= {k for k in first if len(groups[k.split("/")[0]]) > 1}
    bad |= check_pins(workload, seed, {k: c["digest"] for k, c in first.items()}, pins, pin)
    attempted = sum(len(p["cells"]) for p in passes)
    failed = sum(1 for p in passes for c in p["cells"] if c["key"] in bad)
    return bad, attempted, failed


def work_counts(cells, objects, walks, simulations):
    """The work.* counts of one pass; `cells` carry the Stats counters
    under perfbench's names."""
    return {
        "work.warp_instrs": sum(c["instrs"] for c in cells),
        "work.sim_cycles": sum(c["cycles"] for c in cells),
        "work.l1_accesses": sum(c["l1_accesses"] for c in cells),
        "work.l2_accesses": sum(c["l2_accesses"] for c in cells),
        "work.dram_accesses": sum(c["dram_accesses"] for c in cells),
        "work.objects": objects,
        "work.segtree_walks": walks,
        "work.simulations": simulations,
        "work.cells": len(cells),
    }


def layer_costs(bindir, seed):
    """Functional, engine and probe cost per instruction, from one
    micro-dispatch pass that replays every trace with and without the
    run_all.sh probes (`perfbench layers`)."""
    p = perfbench(bindir, "layers", "--seed", str(seed), "--seconds", "0")["probe_pass"]
    instrs = sum(c["instrs"] for c in p["cells"])
    return {
        "functional.ns_per_instr": p["functional_s"] * 1e9 / sum(c["dyn_instrs"] for c in p["cells"]),
        "engine.ns_per_instr": p["engine_s"] * 1e9 / instrs,
        "probe.ns_per_instr": p["probe_s"] * 1e9 / instrs,
    }


def run_in_process(workload, bindir, seed, seconds, trace, pins, pin):
    args = [workload, "--seed", str(seed), "--seconds", str(0 if pin else seconds)]
    report = perfbench(bindir, *args, *(["--trace"] if trace else []))
    _, attempted, failed = check_cells(workload, seed, report, pins, pin)
    problems = []
    passes = report["passes"]
    plain = [p for p in passes if not p["traced"]]
    instrs = sum(c["instrs"] for c in passes[0]["cells"])
    if not trace:
        metrics = {
            "cpu_s": (median(p["cpu_s"] for p in plain), "s"),
            "wall_s": (median(p["wall_s"] for p in plain), "s"),
            "minstr_per_cpu_s": (median(instrs / 1e6 / p["cpu_s"] for p in plain), "Minstr/s"),
            "setup_s": (median(p["setup_s"] for p in plain), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
        return metrics, attempted, failed, problems, []

    traced = [p for p in passes if p["traced"]]
    cells = passes[0]["cells"]
    objects = sum(c["objects"] for c in cells)
    kcycles = sum(c["cycles"] for c in cells) / 1e3
    if workload == "micro-dispatch":
        accounted = [(p["setup_s"] + p["kernel_s"]) / p["cpu_s"] for p in traced]
    else:
        # The rigs' phases are wall time; the cells' thread CPU is what
        # compares with the pass's CPU time.
        accounted = [sum(c["cpu_s"] for c in p["cells"]) / p["cpu_s"] for p in traced]
    if workload == "micro-dispatch" and min(accounted) < LEDGER_MIN_SHARE:
        problems.append(f"build+functional+engine spans cover only {min(accounted):.3f} of cpu_s")
    cell_cpu = [c["cpu_s"] for p in traced for c in p["cells"]]
    # Lookup walks are only counted with attribution on: on the grid
    # they come from the probed pass.
    walks_from = report["probe_pass"]["cells"] if report["probe_pass"] else cells
    work = work_counts(cells, objects, sum(c["segtree_walks"] for c in walks_from), len(cells))
    metrics = {
        "build.ns_per_object": (median(p["setup_s"] for p in traced) * 1e9 / objects, "ns"),
        "kernel.ns_per_instr": (median(p["kernel_s"] for p in traced) * 1e9 / instrs, "ns"),
        "kernel.ns_per_kcycle": (median(p["kernel_s"] for p in traced) * 1e9 / kcycles, "ns"),
        "cell.cpu_s_p50": (median(cell_cpu), "s"),
        "cell.cpu_s_p90": (p90(cell_cpu), "s"),
        "pool.busy_share": (median(p["busy_s"] / (p["pool_wall_s"] * p["jobs"]) for p in traced), "ratio"),
        "pool.queue_wait_s": (median(p["queue_wait_s"] for p in traced), "s"),
        "harness.sims_per_result": (1.0, "ratio"),
        "harness.overhead_share": (1 - median(accounted), "ratio"),
        "trace.overhead_cpu_s": (median(p["cpu_s"] for p in traced) - median(p["cpu_s"] for p in plain), "s"),
    }
    metrics.update({k: (v, "count") for k, v in work.items()})
    return metrics, attempted, failed, problems, report["spans"]


# --------------------------------------------------------------------- suite


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def suite_pass(bindir, seed, out):
    """Runs the 14 binaries the way run_all.sh's primary step does, into
    one fresh output tree; returns one row per binary."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    rows = []
    origin = time.perf_counter()
    for b in SUITE_BINS:
        args = [os.path.join(bindir, b), "--jobs", str(nproc()), *SUITE_SIZE, "--seed", str(seed),
                "--json-out", f"{out}/{b}.json", "--attrib-out", f"{out}/{b}.attrib.json",
                "--profile-out", f"{out}/{b}.profile.json", "--audit-out", f"{out}/{b}.audit.json",
                "--events-out", f"{out}/{b}.events.jsonl"]
        if b == "fig6":
            args += ["--trace-out", f"{out}/fig6.trace.json", "--metrics-out", f"{out}/fig6.metrics.json"]
        with open(f"{out}/{b}.stdout", "wb") as so, open(f"{out}/{b}.stderr", "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=so, stderr=se, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            end = time.perf_counter()
        rows.append({
            "bin": b,
            "rc": proc.returncode,
            "start_s": start - origin,
            "end_s": end - origin,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "stdout_sha256": sha256_file(f"{out}/{b}.stdout"),
        })
    return rows, time.perf_counter() - origin


def validate_tree(bindir, out):
    # The artifacts and cell-cache entries, as run_all.sh validates them.
    # The event streams are left out: a resource sample can land after
    # runEnd (a race in the emitter), which fails validation in about
    # one run in twenty although the run itself is sound.
    files = sorted(glob.glob(f"{out}/*.json") + glob.glob(f"{out}/.cellcache/*.json"))
    p = subprocess.run([os.path.join(bindir, "validate_json"), *files],
                       capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
    return p.returncode == 0


def counters(stats):
    """A manifest cell's Stats under perfbench's names."""
    return {
        "instrs": stats["instrs_mem"] + stats["instrs_compute"] + stats["instrs_ctrl"],
        "cycles": stats["cycles"],
        "l1_accesses": stats["l1_accesses"],
        "l2_accesses": stats["l2_accesses"],
        "dram_accesses": stats["dram_accesses"],
    }


def load_manifests(out, rows):
    mans = {}
    for r in rows:
        path = f"{out}/{r['bin']}.json"
        if r["rc"] == 0 and os.path.isfile(path):
            with open(path) as f:
                mans[r["bin"]] = json.load(f)
    return mans


def suite_ledger(out, mans):
    """The per-layer numbers of a suite pass, read from the artifacts the
    binaries already write: manifests (cells, hostPerf), attribution
    reports (segment-tree walks) and event streams (per-cell times)."""
    cells = [(m["config"].get("configFingerprint"), c) for m in mans.values() for c in m["cells"]]
    hp = [m["hostPerf"] for m in mans.values()]
    alloc = sum(h["phases"]["alloc_s"] for h in hp)
    simulate = sum(h["phases"]["simulate_s"] for h in hp)
    sweeps = [s for h in hp for s in h["sweeps"]]
    # Objects per application come from Table 2; micro cells carry theirs.
    objects_of = {c["workload"]: c["objects"] for c in mans.get("table2", {}).get("cells", [])}
    walks = 0
    for b in mans:
        with open(f"{out}/{b}.attrib.json") as f:
            for c in json.load(f)["cells"]:
                lookup = (c.get("attribution") or {}).get("lookup")
                walks += lookup["dispatches"] if lookup else 0
    durations = []
    for b in mans:
        with open(f"{out}/{b}.events.jsonl") as f:
            for line in f:
                ev = json.loads(line)
                if ev.get("ev") == "cellFinished":
                    durations.append(ev["durationMs"] / 1e3)
    distinct = {(fp, c["workload"], c["strategy"], json.dumps(c["stats"], sort_keys=True))
                for fp, c in cells}
    artifact_bytes = sum(os.path.getsize(p) for p in glob.glob(f"{out}/**", recursive=True)
                         + glob.glob(f"{out}/.cellcache/*") if os.path.isfile(p))
    objects = sum(c.get("n_objects", objects_of.get(c["workload"], 0)) for _, c in cells)
    simulations = sum(h["cellCache"]["simulatedCells"] for h in hp)
    return {
        "alloc_s": alloc,
        "simulate_s": simulate,
        "busy_s": sum(w["busy_s"] for s in sweeps for w in s["workers"]),
        "capacity_s": sum(s["wall_s"] * s["jobs"] for s in sweeps),
        "queue_wait_s": sum(w["queue_wait_s"] for s in sweeps for w in s["workers"]),
        "durations": durations,
        "distinct": len(distinct),
        "artifact_mb": artifact_bytes / 1e6,
        "work": work_counts([counters(c["stats"]) for _, c in cells], objects, walks, simulations),
    }


def run_suite(bindir, seed, seconds, trace, pins, pin):
    out = os.path.join(OUT, "suite")
    passes = []
    start = time.perf_counter()
    while not passes or (not pin and time.perf_counter() - start < seconds):
        rows, wall = suite_pass(bindir, seed, out)
        digests = {r["bin"]: r["stdout_sha256"] for r in rows}
        bad = {r["bin"] for r in rows if r["rc"] != 0}
        if passes:
            bad |= {b for b, d in digests.items() if d != passes[0]["digests"][b]}
        valid = validate_tree(bindir, out)
        passes.append({"rows": rows, "wall": wall, "digests": digests, "bad": bad, "valid": valid})

    # Later passes must match the first, so pinning the first checks all.
    passes[0]["bad"] |= check_pins("suite", seed, passes[0]["digests"], pins, pin)
    # Each pass attempts the 14 binaries and the validation of its tree.
    attempted = sum(len(SUITE_BINS) + 1 for _ in passes)
    failed = sum(len(p["bad"]) + (0 if p["valid"] else 1) for p in passes)

    # The ledger of the last pass, whose tree is still on disk.
    last = passes[-1]
    trace_cpu0 = time.process_time()
    mans = load_manifests(out, last["rows"])
    if len(mans) != len(SUITE_BINS):
        return {}, attempted, max(failed, 1), ["a binary left no manifest"], []
    ledger = suite_ledger(out, mans) if trace else None
    cpu = [sum(r["cpu_s"] for r in p["rows"]) for p in passes]
    if not trace:
        hp = [m["hostPerf"] for m in mans.values()]
        instrs = sum(counters(c["stats"])["instrs"] for m in mans.values() for c in m["cells"])
        metrics = {
            "cpu_s": (median(cpu), "s"),
            "wall_s": (median(p["wall"] for p in passes), "s"),
            "minstr_per_cpu_s": (instrs / 1e6 / median(cpu), "Minstr/s"),
            "setup_s": (sum(h["phases"]["alloc_s"] for h in hp), "s"),
            "peak_rss_mb": (max(r["rss_mb"] for p in passes for r in p["rows"]), "MB"),
        }
        return metrics, attempted, failed, [], []

    spans = [{"name": r["bin"], "parent": "pass", "cell": "", "start_ns": int(r["start_s"] * 1e9),
              "end_ns": int(r["end_s"] * 1e9), "cpu_ns": int(r["cpu_s"] * 1e9)} for r in last["rows"]]
    trace_cpu = time.process_time() - trace_cpu0
    work = ledger["work"]
    metrics = {
        "build.ns_per_object": (ledger["alloc_s"] * 1e9 / work["work.objects"], "ns"),
        "kernel.ns_per_instr": (ledger["simulate_s"] * 1e9 / work["work.warp_instrs"], "ns"),
        "kernel.ns_per_kcycle": (ledger["simulate_s"] * 1e9 / (work["work.sim_cycles"] / 1e3), "ns"),
        "cell.cpu_s_p50": (median(ledger["durations"]), "s"),
        "cell.cpu_s_p90": (p90(ledger["durations"]), "s"),
        "pool.busy_share": (ledger["busy_s"] / ledger["capacity_s"], "ratio"),
        "pool.queue_wait_s": (ledger["queue_wait_s"], "s"),
        "harness.sims_per_result": (work["work.simulations"] / ledger["distinct"], "ratio"),
        "harness.overhead_share": (1 - (ledger["alloc_s"] + ledger["simulate_s"]) / cpu[-1], "ratio"),
        "harness.artifact_mb": (ledger["artifact_mb"], "MB"),
        "trace.overhead_cpu_s": (trace_cpu, "s"),
    }
    metrics.update({k: (v, "count") for k, v in work.items()})
    return metrics, attempted, failed, [], spans


# ---------------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="store this seed's output digests in pins.json instead of checking them")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 0:
        ap.error("--seed and --seconds must not be negative")

    bindir = build()
    pins = load_pins()
    load0 = host_load()
    if a.workload == "suite":
        metrics, attempted, failed, problems, spans = run_suite(
            bindir, a.seed, a.seconds, a.trace, pins, a.pin)
    else:
        metrics, attempted, failed, problems, spans = run_in_process(
            a.workload, bindir, a.seed, a.seconds, a.trace, pins, a.pin)
    if a.trace:
        metrics.update({k: (v, "ns") for k, v in layer_costs(bindir, a.seed).items()})
        if a.workload != "suite":
            metrics["harness.artifact_mb"] = (len(json.dumps(spans)) / 1e6, "MB")
    else:
        metrics["pass_ratio"] = (1 - failed / attempted, "ratio")
    noise = noise_record(load0, host_load())
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    if a.pin:
        save_pins(pins)

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    with open(os.path.join(OUT, "runs", f"{tag}.json"), "w") as f:
        json.dump({"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                   "noise": noise, **result}, f, indent=1)
    if a.trace:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        with open(os.path.join(OUT, "spans", f"{tag}.json"), "w") as f:
            json.dump(spans, f)
    print(f"host: loadavg {noise['loadavg_before']} -> {noise['loadavg_after']}, "
          f"steal {noise['steal_share']:.4f}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
