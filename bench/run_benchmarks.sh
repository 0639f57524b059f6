#!/usr/bin/env bash
# Run the benchmark suite: the progressive-refinement, chaos, control-plane
# and service benches → BENCH_progressive, BENCH_chaos, BENCH_control and
# BENCH_service.json, so the perf trajectory is tracked across changes.
# BENCH_refactor.json is the --check gate's baseline, so this mode leaves it
# alone: only --record (below) writes it.
#
# Usage: bench/run_benchmarks.sh [build_dir] [output_dir]
#   build_dir    defaults to ./build
#   output_dir   defaults to . (the repository root, where the records live)
#
# Regression gate:
#   bench/run_benchmarks.sh --check [build_dir] [baseline.json]
# re-runs the refactor-kernels bench into temp files and compares speedups
# measured within one run against the same speedups in the committed
# BENCH_refactor.json: each kernel's dispatched/scalar, the transform's
# dispatched/seed, the codec's new/seed over the whole plane set, and the
# Rice decoder's and encoder's new/seed over every Rice segment of one
# field. Both sides of a speedup are timed as interleaved pairs on the run's
# host (median of per-rep ratios), so a faster or slower machine moves
# neither. The bench runs three times; each speedup is judged at its median
# over the three, and every run's value and the spread ((max - min) /
# median) are printed. A median >15% below baseline fails, as does a
# baseline row the runs no longer have.
# RAPIDS_BENCH_TOL overrides the 0.15 tolerance for hosts whose ambient noise
# exceeds it (shared boxes under neighbor load).
#
# Baseline record:
#   bench/run_benchmarks.sh --record [build_dir] [output.json]
# runs the refactor-kernels bench three times and writes every number of
# every row at its median over the three (output defaults to
# BENCH_refactor.json; the context is the first run's). It prints each gated
# speedup's three values and spread, as --check does, and refuses to write
# (exit 1, naming the rows) when any gated spread exceeds the tolerance: a
# row that is bimodal across processes could otherwise put its rarer mode
# into the baseline, which the median of three does not prevent when two of
# the three processes land in that mode.
set -euo pipefail

# The gated in-run speedups and both verdicts, shared by --record and
# --check: python3 -c "$GATE_PY" record|check <output|baseline> <runs...>
read -r -d '' GATE_PY <<'PY' || true
import json, os, statistics, sys


def ratios(doc):
    """In-run speedups keyed by row (median paired ratios, both operands
    timed in the same run)."""
    out = {}
    for e in doc.get("kernels", []):
        out[f"kernels/{e['name']}.speedup"] = e.get("speedup")
    for op in ("decompose", "recompose"):
        out[f"transform/dispatched_vs_seed.{op}"] = doc.get(
            f"speedup_{op}_vs_seed")
    # Codec: the whole plane set only. The single-segment rows swing up to
    # 1.4x between identical runs on a shared host; all_segments covers
    # every segment and holds within ~7%.
    for e in doc.get("codec", []):
        if e["name"] != "all_segments":
            continue
        for op in ("encode", "decode"):
            out[f"codec/{e['name']}.{op}_speedup"] = e.get(f"{op}_speedup")
    # Rice decode and encode: every Rice segment of one generator field, all
    # k at once.
    for table in ("rice_decode", "rice_encode"):
        for e in doc.get(table, []):
            if e["name"] == "all":
                out[f"{table}/all.speedup"] = e.get("speedup")
    return {k: v for k, v in out.items() if v}


def summary(got):
    """Per-run values, median and spread ((max - min) / median)."""
    med = statistics.median(got)
    each = " ".join(f"{g:6.3f}" for g in got)
    return each, med, (max(got) - min(got)) / med


mode, target = sys.argv[1], sys.argv[2]
docs = [json.load(open(p)) for p in sys.argv[3:]]
runs = [ratios(d) for d in docs]
TOL = float(os.environ.get("RAPIDS_BENCH_TOL", "0.15"))


def record():
    wide = []
    for name in sorted(set().union(*runs)):
        got = [r[name] for r in runs if name in r]
        if len(got) < len(runs):
            print(f"{name:44s} missing from {len(runs) - len(got)} run(s)  "
                  "MISSING")
            wide.append(name)
            continue
        each, med, spread = summary(got)
        ok = spread <= TOL
        wide += [] if ok else [name]
        print(f"{name:44s} runs {each}  median {med:6.3f}  "
              f"spread {spread:4.0%}  {'ok' if ok else 'SPREAD'}")
    if wide:
        print(f"\nrecord REFUSED: {len(wide)} gated ratio(s) spread more than "
              f"{TOL:.0%} across the runs or went missing, so their median "
              f"need not be the common mode: {', '.join(wide)}. Nothing "
              f"written; rerun --record.")
        sys.exit(1)

    def merge(vals):
        """Median of numbers, element-wise over rows and keys; the first
        run's value for anything else (names, the host context, which also
        records how many runs the medians are over)."""
        first = vals[0]
        if isinstance(first, (bool, str)):
            return first
        if isinstance(first, (int, float)):
            return statistics.median(vals)
        if isinstance(first, list):
            return [merge([v[i] for v in vals]) for i in range(len(first))]
        return {k: {**first[k], "runs": len(vals)} if k == "context"
                else merge([v[k] for v in vals]) for k in first}

    # Same layout as the bench writes: one row per line.
    items = []
    for key, val in merge(docs).items():
        if key == "context":
            body = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}"
                              for k, v in val.items())
            items.append(f'  "context": {{\n{body}\n  }}')
        elif isinstance(val, list):
            body = ",\n".join(f"    {json.dumps(r)}" for r in val)
            items.append(f'  "{key}": [\n{body}\n  ]')
        else:
            items.append(f'  "{key}": {json.dumps(val)}')
    with open(target, "w") as f:
        f.write("{\n" + ",\n".join(items) + "\n}\n")
    print(f"\nwrote {target} (every number the median of {len(runs)} runs)")


def check():
    base = ratios(json.load(open(target)))
    bad = 0
    for name, bv in base.items():
        got = [r[name] for r in runs if name in r]
        if not got:
            print(f"{name:44s} missing from fresh runs  MISSING")
            bad += 1
            continue
        each, med, spread = summary(got)
        ok = med >= bv * (1 - TOL)
        bad += not ok
        print(f"{name:44s} base {bv:6.3f}  runs {each}  median {med:6.3f}  "
              f"spread {spread:4.0%}  {med / bv:5.2f}x  "
              f"{'ok' if ok else 'REGRESSION'}")
    if bad:
        print(f"\ncheck FAILED: {bad} ratio(s) regressed more than {TOL:.0%} "
              "or went missing")
        sys.exit(1)
    print(f"\ncheck passed: no in-run ratio regressed more than {TOL:.0%}")


if mode == "record":
    record()
else:
    check()
PY

if [[ "${1:-}" == "--record" ]]; then
  BUILD_DIR="${2:-build}"
  OUT="${3:-BENCH_refactor.json}"
  RK_BIN="$BUILD_DIR/bench/refactor_kernels"
  if [[ ! -x "$RK_BIN" ]]; then
    echo "error: $RK_BIN not found — build first" >&2
    exit 1
  fi
  RUNS=()
  trap 'rm -f "${RUNS[@]}"' EXIT
  for _ in 1 2 3; do
    RUNS+=("$(mktemp --suffix=.json)")
    "$RK_BIN" "${RUNS[-1]}" >/dev/null
  done
  echo "refactor-kernels baseline record into $OUT (median of 3 runs)"
  python3 -c "$GATE_PY" record "$OUT" "${RUNS[@]}"
  exit $?
fi

if [[ "${1:-}" == "--check" ]]; then
  BUILD_DIR="${2:-build}"
  BASELINE="${3:-BENCH_refactor.json}"
  RK_BIN="$BUILD_DIR/bench/refactor_kernels"
  if [[ ! -x "$RK_BIN" ]]; then
    echo "error: $RK_BIN not found — build first" >&2
    exit 1
  fi
  if [[ ! -f "$BASELINE" ]]; then
    echo "error: baseline $BASELINE not found" >&2
    exit 1
  fi
  FRESH=()
  trap 'rm -f "${FRESH[@]}"' EXIT
  for _ in 1 2 3; do FRESH+=("$(mktemp --suffix=.json)"); done
  echo "refactor-kernels regression check vs $BASELINE (median of 3 runs)"
  # Three fresh runs, each speedup taken at its median: on a shared host a
  # load burst can sink or lift any one run, but a real regression moves the
  # middle one.
  for f in "${FRESH[@]}"; do "$RK_BIN" "$f" >/dev/null; done
  python3 -c "$GATE_PY" check "$BASELINE" "${FRESH[@]}"
  exit $?
fi

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"

if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "error: $BUILD_DIR/bench not found — build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

# Progressive refinement: repeated from-scratch restores at tightening bounds
# vs one incremental refine() session over the same 4-rung ladder.
PROG_BIN="$BUILD_DIR/bench/progressive_refinement"
PROG_OUT="$OUT_DIR/BENCH_progressive.json"
if [[ -x "$PROG_BIN" ]]; then
  "$PROG_BIN" "$PROG_OUT"
else
  echo "warning: $PROG_BIN not found — skipping progressive refinement" >&2
fi

# Chaos resilience: restore throughput, simulated gather-latency p50/p99, and
# achieved-vs-reported error bound at 0/5/15% transient get-failure rates and
# under a straggler profile that the always-on hedged reads absorb.
CHAOS_BIN="$BUILD_DIR/bench/chaos_resilience"
CHAOS_OUT="$OUT_DIR/BENCH_chaos.json"
if [[ -x "$CHAOS_BIN" ]]; then
  "$CHAOS_BIN" "$CHAOS_OUT"
else
  echo "warning: $CHAOS_BIN not found — skipping chaos resilience" >&2
fi

# Refactor kernels: their BENCH_refactor.json is the gate's baseline, which
# one run must not overwrite (--record takes the median of three and refuses
# a bimodal row).
echo "skipping refactor kernels: bench/run_benchmarks.sh --record $BUILD_DIR" \
     "writes their baseline, BENCH_refactor.json"

# Control plane: availability-drift re-optimization drill (per-object
# evaluated error and availability before/after the controller converges,
# zero tolerated bound violations) plus foreground restore p99 with a
# rate-limited background migration on vs off.
CTL_BIN="$BUILD_DIR/bench/control_plane"
CTL_OUT="$OUT_DIR/BENCH_control.json"
if [[ -x "$CTL_BIN" ]]; then
  "$CTL_BIN" "$CTL_OUT"
else
  echo "warning: $CTL_BIN not found — skipping control plane" >&2
fi

# Service load: open-loop 8-tenant 4x overload drill against the multi-tenant
# object service — per-tenant p50/p99 and shed rate, zero accepted-then-
# expired, brownout accuracy accounting, and same-seed schedule-hash
# reproducibility.
SVC_BIN="$BUILD_DIR/bench/service_load"
SVC_OUT="$OUT_DIR/BENCH_service.json"
if [[ -x "$SVC_BIN" ]]; then
  "$SVC_BIN" "$SVC_OUT"
else
  echo "warning: $SVC_BIN not found — skipping service load" >&2
fi
