#!/bin/bash
# Regenerate every paper figure/table plus the test and bench suites,
# collecting a machine-readable artifact tree under results/.
#
#   ./run_all.sh [--jobs N] [--out DIR] [--keep-going] [--smoke]
#                [--quiet] [--no-cache] [--samples N] [--baseline DIR]
#
# --jobs N is passed through to every harness binary: N concurrent
# simulations, 0 = all cores, default = all cores. Results are
# bit-identical for any value (the engine's determinism contract); only
# wall-clock changes.
# --out DIR redirects the artifact tree (default: results/).
# --keep-going runs every step even after a failure and prints a
# failure summary at the end (exit stays non-zero) — useful for seeing
# the full damage of a broken change in one pass. Fault isolation
# inside each binary is finer still: a panicking grid cell produces a
# v2 failure manifest and a non-zero exit, without losing the other
# cells' work.
# --smoke shrinks every binary to the CI-sized config (seconds, not
# minutes) — the interrupted-run CI job uses this.
# --quiet trims the tooling chatter: perf_gate PASS/SKIP lines,
# perf_record append lines and the report progress line are silenced
# (failures still print, exit codes are unchanged).
# The binaries share one cell cache, $OUT/.cellcache/, keyed on what
# each cell simulates: a cell that an earlier binary already simulated
# (fig7 after fig6, say) is read back instead of re-simulated, and
# manifests come out byte-identical apart from hostPerf. Entries of
# another build of the model are misses, so the cache is never stale.
# An interrupted or failed run resumes by re-running the same command.
# --no-cache disables the cell cache entirely.
# --samples N records N wall-clock samples per binary into the
# trajectory: after the primary sweep, each binary reruns N times
# (manifest-only, cache disabled) into $OUT/samples/. The primary
# manifests carry cache hits, so perf_gate judges the first sample of
# each binary and perf_record folds all N into one median entry.
# Default: 3 for benchmark-grade runs, 1 under --smoke (smoke samples
# never enter the baseline anyway); 0 skips the samples, the gate and
# the recording.
# --baseline DIR diffs this run against a previous artifact tree: after
# validation, diffrun writes $OUT/rundiff.json (gvf.rundiff — semantic /
# performance / coverage drift, every regression attributed), the
# validator checks it, and the report renders it under "What changed
# since the baseline".
#
# Artifacts: $OUT/<bin>.json is each binary's gvf.run-manifest (with an
# embedded gvf.hostperf section), $OUT/<bin>.attrib.json its
# mechanism-attribution report (gvf.attribution), $OUT/<bin>.profile.json
# its host-side span profile (gvf.hostprofile — where the wall-clock
# time went, per cell and kernel layer; spans are recorded in every run,
# so writing the profile costs nothing extra), $OUT/<bin>.audit.json its cycle audit (gvf.cycleaudit —
# how much simulated time was skippable) and $OUT/<bin>.events.jsonl its
# live telemetry stream (gvf.events — sweep/cell lifecycle, heartbeats,
# resource samples; watch a live run with `status --follow`); fig6
# additionally records $OUT/fig6.trace.json (Chrome trace-event /
# Perfetto timeline) and $OUT/fig6.metrics.json (per-epoch metrics).
# Every artifact is re-parsed by the in-repo validator before the run
# counts as green, and each events stream is reconciled 1:1 against its
# binary's manifest.
# After the sweep, perf_gate judges the first --no-cache sample of each
# binary against the recorded BENCH_gvf.json baseline (the primary
# manifests carry cache hits, which the gate and the trajectory skip);
# only a run that passes the gate is folded
# into the trajectory by perf_record (so a regressed run can never
# become part of its own — or any future — baseline). The report
# binary then collates everything into $OUT/REPORT.md.
set -euo pipefail
cd "$(dirname "$0")"

JOBS=0
OUT=results
KEEP_GOING=0
CACHE_FLAGS=()
SMOKE_FLAGS=()
QUIET_FLAGS=()
SAMPLES=""
BASELINE=""
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs)
      [ $# -ge 2 ] || { echo "error: --jobs needs a value" >&2; exit 2; }
      JOBS="$2"; shift 2 ;;
    --out)
      [ $# -ge 2 ] || { echo "error: --out needs a value" >&2; exit 2; }
      OUT="$2"; shift 2 ;;
    --samples)
      [ $# -ge 2 ] || { echo "error: --samples needs a value" >&2; exit 2; }
      SAMPLES="$2"; shift 2 ;;
    --baseline)
      [ $# -ge 2 ] || { echo "error: --baseline needs a value" >&2; exit 2; }
      BASELINE="$2"; shift 2 ;;
    --keep-going)
      KEEP_GOING=1; shift ;;
    --smoke)
      SMOKE_FLAGS=(--smoke); shift ;;
    --quiet)
      QUIET_FLAGS=(--quiet); shift ;;
    --no-cache)
      CACHE_FLAGS=(--no-cache); shift ;;
    *)
      echo "error: unknown argument '$1' (usage: $0 [--jobs N] [--out DIR] [--keep-going] [--smoke] [--quiet] [--no-cache] [--samples N] [--baseline DIR])" >&2; exit 2 ;;
  esac
done
# Benchmark-grade (non-smoke) runs default to the trajectory's
# recommended sample count; smoke samples never enter the baseline, so
# one is enough.
if [ -z "$SAMPLES" ]; then
  if [ "${#SMOKE_FLAGS[@]}" -gt 0 ]; then SAMPLES=1; else SAMPLES=3; fi
fi

# The benchmark block below runs inside a pipe subshell (tee), so
# failures are collected in a file rather than a shell variable.
FAILURES_FILE="$(mktemp)"
trap 'rm -f "$FAILURES_FILE"' EXIT

fail() {
  echo >&2
  echo "run_all.sh: FAILED at step '$1' — see output above." >&2
  echo "Re-run just that step with: $2" >&2
  if [ "$KEEP_GOING" = 1 ]; then
    echo "$1" >> "$FAILURES_FILE"
  else
    exit 1
  fi
}

run_step() {
  local name="$1"; shift
  echo; echo "########## $name ##########"
  "$@" || fail "$name" "$*"
}

mkdir -p "$OUT"

run_step "cargo test" cargo test --workspace 2>&1 | tee test_output.txt

{
  run_step "cargo bench" cargo bench --workspace
  echo
  echo "================================================================"
  echo "  PAPER FIGURE / TABLE HARNESS (cargo run -p gvf-bench --bin <x>)"
  echo "================================================================"
  # Every binary sweeps its grid on --jobs threads and drops its run
  # manifest, mechanism-attribution report, host span profile and
  # cycle audit into $OUT/; fig6 also records the observability
  # artifacts from its first grid cell.
  for b in fig1b table1 table2 fig6 fig7 fig8 fig9 fig11 fig12 alloc_init fig10 ablation_lookup generations counters; do
    extra=()
    if [ "$b" = fig6 ]; then
      extra=(--trace-out "$OUT/fig6.trace.json" --metrics-out "$OUT/fig6.metrics.json")
    fi
    run_step "$b" cargo run --release -p gvf-bench --bin "$b" -- \
      --jobs "$JOBS" --json-out "$OUT/$b.json" \
      --attrib-out "$OUT/$b.attrib.json" \
      --profile-out "$OUT/$b.profile.json" \
      --audit-out "$OUT/$b.audit.json" \
      --events-out "$OUT/$b.events.jsonl" \
      "${SMOKE_FLAGS[@]}" "${CACHE_FLAGS[@]}" "${extra[@]}"
  done
  # Wall-clock samples for the gate and the trajectory: N manifest-only
  # reruns per binary into $OUT/samples/ (a subdirectory, so the
  # validator glob and the report's scan of $OUT never mix them in with
  # the primary artifacts). Cache disabled — a cache-hit sample takes
  # near-zero wall time and perf_gate/perf_record would rightly skip it.
  if [ "$SAMPLES" -gt 0 ]; then
    mkdir -p "$OUT/samples"
    for s in $(seq 1 "$SAMPLES"); do
      for b in fig1b table1 table2 fig6 fig7 fig8 fig9 fig11 fig12 alloc_init fig10 ablation_lookup generations counters; do
        run_step "$b sample $s" cargo run --release -p gvf-bench --bin "$b" -- \
          --jobs "$JOBS" --json-out "$OUT/samples/$b.s$s.json" --no-cache \
          "${SMOKE_FLAGS[@]}"
      done
    done
  fi
  # The glob picks up every per-binary artifact family: .json manifest,
  # .attrib.json, .profile.json, .audit.json (plus fig6's trace and
  # metrics) — the validator dispatches on each file's schema header
  # and, for gvf.cycleaudit, re-checks the epoch accounting invariant.
  run_step "validate artifacts" cargo run --release -p gvf-bench --bin validate_json -- "$OUT"/*.json
  if compgen -G "$OUT/samples/*.json" > /dev/null; then
    run_step "validate samples" cargo run --release -p gvf-bench --bin validate_json -- "$OUT"/samples/*.json
  fi
  # Cell-cache entries are artifacts too: each carries a content hash
  # that the validator recomputes, so a corrupted or hand-edited entry
  # is caught here rather than silently read into a future manifest.
  if compgen -G "$OUT/.cellcache/*.json" > /dev/null; then
    run_step "validate cell cache" cargo run --release -p gvf-bench --bin validate_json -- "$OUT"/.cellcache/*.json
  fi
  # Telemetry streams are artifacts too: validate each against the
  # gvf.events lifecycle invariants, reconcile it 1:1 with its binary's
  # manifest, and print the status console's roll-up (also asserting
  # that `status --summary` sees a cleanly finished run).
  if compgen -G "$OUT/*.events.jsonl" > /dev/null; then
    run_step "validate events" cargo run --release -p gvf-bench --bin validate_json -- "$OUT"/*.events.jsonl
    for ev in "$OUT"/*.events.jsonl; do
      mf="${ev%.events.jsonl}.json"
      [ -f "$mf" ] || continue
      run_step "reconcile $(basename "$ev")" cargo run --release -p gvf-bench --bin validate_json -- --events-reconcile "$ev" "$mf"
    done
    run_step "status" cargo run --release -p gvf-bench --bin status -- --summary "$OUT/fig7.events.jsonl"
  fi

  # Judge this run's first --no-cache samples against the recorded
  # baseline FIRST, and fold the samples into the trajectory only once
  # they pass. Recording first would put
  # the gated sample inside its own baseline (with one prior entry per
  # bin the median becomes the midpoint and the gate mathematically
  # cannot fail), and appending unconditionally would let a persistent
  # regression rewrite the baseline into the new normal. A fresh
  # checkout still bootstraps cleanly: with no matching baseline the
  # gate skips (never fails) and the first recording stands it up.
  manifests=()
  for b in fig1b table1 table2 fig6 fig7 fig8 fig9 fig11 fig12 alloc_init fig10 ablation_lookup generations counters; do
    [ -f "$OUT/samples/$b.s1.json" ] && manifests+=("$OUT/samples/$b.s1.json")
  done
  if [ "${#manifests[@]}" -gt 0 ]; then
    run_step "perf_gate" cargo run --release -p gvf-bench --bin perf_gate -- "${QUIET_FLAGS[@]}" "${manifests[@]}"
    # Under --keep-going a gate failure lands in FAILURES_FILE instead
    # of exiting; either way, a run that failed the gate is not
    # recorded.
    if grep -qx "perf_gate" "$FAILURES_FILE" 2>/dev/null; then
      echo "run_all.sh: perf_gate failed — not folding this run into BENCH_gvf.json" >&2
    else
      # perf_record groups the samples by (generator, config) and
      # records one median entry per group.
      run_step "perf_record" cargo run --release -p gvf-bench --bin perf_record -- "${QUIET_FLAGS[@]}" "$OUT"/samples/*.json
      run_step "validate trajectory" cargo run --release -p gvf-bench --bin validate_json -- BENCH_gvf.json
    fi
  fi

  # Differential observability: diff this tree against the provided
  # baseline tree and validate the artifact. Runs before the report so
  # $OUT/rundiff.json lands in its "What changed since the baseline"
  # section.
  if [ -n "$BASELINE" ]; then
    run_step "diffrun" cargo run --release -p gvf-bench --bin diffrun -- \
      --out "$OUT/rundiff.json" "${QUIET_FLAGS[@]}" "$BASELINE" "$OUT"
    run_step "validate rundiff" cargo run --release -p gvf-bench --bin validate_json -- "$OUT/rundiff.json"
  fi

  # Collate everything into the human-readable reproduction report.
  run_step "report" cargo run --release -p gvf-bench --bin report -- --results "$OUT" "${QUIET_FLAGS[@]}"
} 2>&1 | tee bench_output.txt

if [ -s "$FAILURES_FILE" ]; then
  echo
  echo "run_all.sh: $(wc -l < "$FAILURES_FILE") step(s) FAILED:"
  sed 's/^/  - /' "$FAILURES_FILE"
  exit 1
fi
echo ALL_DONE
