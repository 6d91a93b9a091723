#!/bin/bash
# Regenerate every paper figure/table plus the test suite, collecting a
# machine-readable artifact tree under results/, then measure host
# performance with the repository benchmark and record it.
#
#   ./run_all.sh [--jobs N] [--out DIR] [--keep-going] [--smoke]
#                [--quiet] [--no-cache]
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
# minutes) and skips the benchmark, its gate and the recording.
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
# To see what changed against an earlier tree, compare artifacts with
# `validate_json --det-diff OLD/<bin>.json $OUT/<bin>.json` (it names
# every counter path that moved; attribution and audit files too); a
# host-time regression is perf_gate's FAIL line, which names the layer.
#
# Artifacts: $OUT/<bin>.json is each binary's gvf.run-manifest (with an
# embedded gvf.hostperf section), $OUT/<bin>.attrib.json its
# mechanism-attribution report (gvf.attribution), $OUT/<bin>.profile.json
# its host-side span profile (gvf.hostprofile — where the wall-clock
# time went, per cell and kernel layer; spans are recorded in every run,
# so writing the profile costs nothing extra), $OUT/<bin>.audit.json its cycle audit (gvf.cycleaudit —
# how much simulated time was skippable) and $OUT/<bin>.events.jsonl its
# live telemetry stream (gvf.events — sweep/cell lifecycle, heartbeats,
# stall diagnostics; watch a live run on the binary's stderr or with
# `tail -f` on the stream); fig6
# additionally records $OUT/fig6.trace.json (Chrome trace-event /
# Perfetto timeline) and $OUT/fig6.metrics.json (per-epoch metrics).
# Every artifact is re-parsed by the in-repo validator before the run
# counts as green, and each events stream is reconciled 1:1 against its
# binary's manifest, which also requires it to close with runEnd "ok".
# Host performance (skipped under --smoke): `python3 perfbench/run.py
# --workload W --seed 24301 --seconds 0 --trace T` runs three times for
# each W in eval-grid, micro-dispatch and T in 0 (end-to-end: cpu_s) and
# 1 (per layer: ns per object or instruction, on the thread CPU clock);
# see perfbench/README.md. Each run record is copied to
# $OUT/bench/W-traceT.i.json. perf_gate judges them against the
# recorded BENCH_gvf.json baseline, and only records that pass the gate
# are folded into the trajectory by perf_record (so a regressed run can
# never become part of its own — or any future — baseline). The report
# binary then collates everything into $OUT/REPORT.md.
set -euo pipefail
cd "$(dirname "$0")"

JOBS=0
OUT=results
KEEP_GOING=0
CACHE_FLAGS=()
SMOKE_FLAGS=()
QUIET_FLAGS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs)
      [ $# -ge 2 ] || { echo "error: --jobs needs a value" >&2; exit 2; }
      JOBS="$2"; shift 2 ;;
    --out)
      [ $# -ge 2 ] || { echo "error: --out needs a value" >&2; exit 2; }
      OUT="$2"; shift 2 ;;
    --keep-going)
      KEEP_GOING=1; shift ;;
    --smoke)
      SMOKE_FLAGS=(--smoke); shift ;;
    --quiet)
      QUIET_FLAGS=(--quiet); shift ;;
    --no-cache)
      CACHE_FLAGS=(--no-cache); shift ;;
    *)
      echo "error: unknown argument '$1' (usage: $0 [--jobs N] [--out DIR] [--keep-going] [--smoke] [--quiet] [--no-cache])" >&2; exit 2 ;;
  esac
done
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
  # The glob picks up every per-binary artifact family: .json manifest,
  # .attrib.json, .profile.json, .audit.json (plus fig6's trace and
  # metrics) — the validator dispatches on each file's schema header
  # and, for gvf.cycleaudit, re-checks the epoch accounting invariant.
  run_step "validate artifacts" cargo run --release -p gvf-bench --bin validate_json -- "$OUT"/*.json
  # Cell-cache entries are artifacts too: each carries a content hash
  # that the validator recomputes, so a corrupted or hand-edited entry
  # is caught here rather than silently read into a future manifest.
  if compgen -G "$OUT/.cellcache/*.json" > /dev/null; then
    run_step "validate cell cache" cargo run --release -p gvf-bench --bin validate_json -- "$OUT"/.cellcache/*.json
  fi
  # Telemetry streams are artifacts too: validate each against the
  # gvf.events lifecycle invariants and reconcile it 1:1 with its
  # binary's manifest (a green manifest needs a stream that ends with
  # runEnd "ok", so this is also the finished-cleanly check).
  if compgen -G "$OUT/*.events.jsonl" > /dev/null; then
    run_step "validate events" cargo run --release -p gvf-bench --bin validate_json -- "$OUT"/*.events.jsonl
    for ev in "$OUT"/*.events.jsonl; do
      mf="${ev%.events.jsonl}.json"
      [ -f "$mf" ] || continue
      run_step "reconcile $(basename "$ev")" cargo run --release -p gvf-bench --bin validate_json -- --events-reconcile "$ev" "$mf"
    done
  fi

  # Host performance: the repository benchmark's run records, three per
  # workload and trace level. run.py overwrites one record per
  # (workload, seed, trace) in .bench_out/runs/, so each is removed
  # before its run (a failed run must not leave a stale record to copy)
  # and copied out after it.
  records=()
  if [ "${#SMOKE_FLAGS[@]}" -eq 0 ]; then
    mkdir -p "$OUT/bench"
    for w in eval-grid micro-dispatch; do
      for t in 0 1; do
        for i in 1 2 3; do
          rec=".bench_out/runs/$w-seed24301-trace$t.json"
          rm -f "$rec"
          run_step "perfbench $w trace $t run $i" python3 perfbench/run.py \
            --workload "$w" --seed 24301 --seconds 0 --trace "$t"
          if [ -f "$rec" ]; then
            cp "$rec" "$OUT/bench/$w-trace$t.$i.json"
            records+=("$OUT/bench/$w-trace$t.$i.json")
          fi
        done
      done
    done
  fi

  # Judge this run's records against the recorded baseline FIRST, and
  # fold them into the trajectory only once they pass. Recording first
  # would put the gated records inside their own baseline (their
  # slowdown then widens the median and MAD enough that the gate
  # cannot fail), and appending unconditionally would let a persistent
  # regression rewrite the baseline into the new normal. A fresh
  # checkout still bootstraps cleanly: with fewer than three matching
  # entries the gate skips (never fails) and the first recordings stand
  # it up.
  if [ "${#records[@]}" -gt 0 ]; then
    run_step "perf_gate" cargo run --release -p gvf-bench --bin perf_gate -- "${QUIET_FLAGS[@]}" "${records[@]}"
    # Under --keep-going a gate failure lands in FAILURES_FILE instead
    # of exiting; either way, a run that failed the gate is not
    # recorded.
    if grep -qx "perf_gate" "$FAILURES_FILE" 2>/dev/null; then
      echo "run_all.sh: perf_gate failed — not folding this run into BENCH_gvf.json" >&2
    else
      run_step "perf_record" cargo run --release -p gvf-bench --bin perf_record -- "${QUIET_FLAGS[@]}" "${records[@]}"
      run_step "validate trajectory" cargo run --release -p gvf-bench --bin validate_json -- BENCH_gvf.json
    fi
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
