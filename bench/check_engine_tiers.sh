#!/usr/bin/env sh
# CI bench gate: the interpreter-vs-compiled ladder on native marshaling.
#
#   bench/check_engine_tiers.sh <bench_marshal_wire binary>
#
# Runs the E4 telemetry workload three ways with min-of-3 repetitions —
# BM_MarshalTwoPhaseFromHeap (read_image -> Converter -> wire::encode),
# BM_MarshalNativeThreaded (the PlanIR engine's zero-copy native marshal)
# and BM_MarshalNativeCompiled (a dlopen'd C stub over the same program) —
# and fails unless each rung holds >= 3x over the one below it:
#
#   * compiled >= 3x threaded: generated code must keep paying for its
#     toolchain dependency;
#   * threaded >= 3x two-phase: the engine's fused, pre-decoded stream
#     must keep beating materialize-convert-encode.
#
# Committed bench/BENCH_native.json numbers: 2.6 / 39.7 / 4354 ns. A
# missing or errored row fails too — the compiled row needs a host `cc`,
# which CI has, so a silently skipped stub is a regression here.
set -eu

bench="${1:?usage: check_engine_tiers.sh <bench_marshal_wire>}"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

"$bench" \
  --benchmark_filter='BM_MarshalTwoPhaseFromHeap|BM_MarshalNativeThreaded|BM_MarshalNativeCompiled' \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=false \
  --benchmark_format=json \
  --benchmark_out="$out" \
  --benchmark_out_format=json

python3 - "$out" <<'EOF'
import json, sys

data = json.load(open(sys.argv[1]))
best = {}
unit = "ns"
for b in data["benchmarks"]:
    if b.get("run_type") != "iteration" or b.get("error_occurred"):
        continue
    name = b["run_name"]
    unit = b["time_unit"]
    t = b["real_time"]
    best[name] = min(best.get(name, t), t)

ladder = ["BM_MarshalNativeCompiled", "BM_MarshalNativeThreaded",
          "BM_MarshalTwoPhaseFromHeap"]
missing = [name for name in ladder if name not in best]
if missing:
    sys.exit("FAIL: gated rows missing or errored: " + ", ".join(missing))

for name in ladder:
    print(f"{name}: {best[name]:.1f}{unit}")
failures = []
for fast, slow in zip(ladder, ladder[1:]):
    ratio = best[slow] / best[fast]
    print(f"{fast} vs {slow}: {ratio:.1f}x (floor 3x)")
    if ratio < 3.0:
        failures.append(f"{fast} is only {ratio:.2f}x {slow}")
if failures:
    sys.exit("FAIL: " + "; ".join(failures))
print("OK: compiled >= 3x threaded >= 3x two-phase")
EOF
