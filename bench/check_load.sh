#!/usr/bin/env sh
# CI load gate: the reactor-hosted serve path must survive concurrent
# clients without losing a single call.
#
#   bench/check_load.sh <bench_load binary>
#
# Two runs against the embedded reactor server:
#
#   clean  - 8 clients x 125 calls (1k aggregate) at 0% loss, concurrent.
#            Gate: zero timeouts, zero reply mismatches, p99 call latency
#            under a deliberately generous 2s budget — this is a liveness
#            gate (nothing wedged, nothing dropped), not a performance
#            gate; the committed BENCH_load.json numbers come from a quiet
#            host via the default bench_load run — and zero client and
#            zero server retransmits: stream links run no retransmit
#            machinery, so a clean run has nothing to resend.
#   lossy  - 8 clients x 25 calls over a 5%-drop lossy link. Gate: zero
#            lost replies — every call must complete via cumulative-ack
#            retransmission, proving loss recovery end to end (including
#            chunked 128 KiB payloads reassembled across retransmits).
#
# bench_load itself exits nonzero on any timeout or mismatch, so a wedged
# run fails fast even before the JSON checks.
set -eu

bench="${1:?usage: check_load.sh <bench_load>}"
clean="$(mktemp)"
lossy="$(mktemp)"
trap 'rm -f "$clean" "$lossy"' EXIT

echo "load gate: clean run (8 clients x 125 calls, 0% loss)"
"$bench" --clients 8 --calls 125 --rate 50 --mode concurrent > "$clean"

echo "load gate: lossy run (8 clients x 25 calls, 5% loss)"
"$bench" --clients 8 --calls 25 --rate 25 --loss 0.05 --mode concurrent \
  > "$lossy"

python3 - "$clean" "$lossy" <<'EOF'
import json, sys

P99_BUDGET_US = 2_000_000  # generous: liveness, not performance

clean = json.load(open(sys.argv[1]))
lossy = json.load(open(sys.argv[2]))

cc = clean["concurrent"]
print(f"clean: {cc['ok']} ok, {cc['timeouts']} timeouts, "
      f"{cc['mismatches']} mismatches, "
      f"p50 {cc['latency_us']['p50']}us p99 {cc['latency_us']['p99']}us, "
      f"{cc['throughput_calls_per_s']:.1f} calls/s")
if cc["timeouts"] or cc["mismatches"]:
    sys.exit("FAIL: clean run lost or corrupted calls")
if cc["latency_us"]["p99"] > P99_BUDGET_US:
    sys.exit(f"FAIL: clean p99 {cc['latency_us']['p99']}us exceeds "
             f"{P99_BUDGET_US}us budget")
clean_srv = clean.get("server_stats", {})
print(f"clean: client retransmits {cc['client_retransmits']}, "
      f"server retransmits {clean_srv.get('retransmits', '?')}")
if cc["client_retransmits"] != 0 or clean_srv.get("retransmits") != 0:
    sys.exit("FAIL: retransmits at 0% loss")

lc = lossy["concurrent"]
srv = lossy.get("server_stats", {})
print(f"lossy: {lc['ok']} ok, {lc['timeouts']} timeouts, "
      f"{lc['mismatches']} mismatches, "
      f"client retransmits {lc['client_retransmits']}, "
      f"server retransmits {srv.get('retransmits', '?')}")
if lc["timeouts"] or lc["mismatches"]:
    sys.exit("FAIL: lossy run lost replies — retransmission did not recover")

print("OK: reactor serve path survives concurrent load and 5% frame loss")
EOF
