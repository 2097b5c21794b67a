#!/usr/bin/env bash
# CLI-level soak smoke:
#
#   1. `spnhbm soak` with the mixed device+network chaos plan must run
#      two virtual minutes, pass the full assertion stack (conservation,
#      convergence, zero leaks) and write a bench-style JSON report,
#   2. the same seed + the same plan must reproduce the stdout summary
#      byte for byte,
#   3. a --disarm run must be byte-identical to running with no plan at
#      all (the injection sites cost nothing when disarmed), and the
#      chaos run's result digest must equal the calm run's,
#   4. loadgen must exit non-zero when the failed fraction exceeds
#      --max-failure-rate, and its report must carry the give-up
#      histogram.
#
# Usage: soak_smoke.sh <spnhbm-cli> <model.spn> <samples.csv> <work-dir> \
#                      <model2.spn> <samples2.csv> <fault-plan.json>
set -euo pipefail

CLI=$1
MODEL=$2
SAMPLES=$3
WORK=$4
MODEL2=$5
SAMPLES2=$6
PLAN=$7

mkdir -p "$WORK"

SOAK_ARGS=(--model a="$MODEL" --model b="$MODEL2"
           --requests a="$SAMPLES" --requests b="$SAMPLES2"
           --seed 42 --minutes 2)

# 1. Chaos soak: two virtual minutes under the mixed fault plan.
"$CLI" soak "${SOAK_ARGS[@]}" --fault-plan "$PLAN" \
  --report-out "$WORK/soak_report.json" \
  > "$WORK/soak_chaos.out" 2> "$WORK/soak_chaos.err"
cat "$WORK/soak_chaos.out"
grep -q "soak verdict: PASS" "$WORK/soak_chaos.out"
grep -q "faults injected:" "$WORK/soak_chaos.err"
grep -q '"bench":"soak"' "$WORK/soak_report.json"
grep -q '"passed":1' "$WORK/soak_report.json"
echo "chaos soak: PASS + report"

# 2. Reproducibility: same seed, same plan => identical summary.
"$CLI" soak "${SOAK_ARGS[@]}" --fault-plan "$PLAN" \
  > "$WORK/soak_chaos2.out" 2>/dev/null
diff "$WORK/soak_chaos.out" "$WORK/soak_chaos2.out"
echo "chaos soak reproduces by seed"

# 3. Disarm identity: an armed-then-disarmed plan must leave no trace.
"$CLI" soak "${SOAK_ARGS[@]}" > "$WORK/soak_calm.out" 2>/dev/null
"$CLI" soak "${SOAK_ARGS[@]}" --fault-plan "$PLAN" --disarm \
  > "$WORK/soak_disarmed.out" 2>/dev/null
diff "$WORK/soak_calm.out" "$WORK/soak_disarmed.out"
echo "disarmed plan is byte-identical to no plan"

# Faults delay work, they never corrupt it: the chaos run's result
# digest equals the calm run's.
diff <(grep "digest=" "$WORK/soak_chaos.out") \
     <(grep "digest=" "$WORK/soak_calm.out")
echo "chaos digest equals calm digest"

# 4. loadgen --max-failure-rate: a 1-microsecond deadline fails every
# request; without the flag that is still exit 0 (rate gate off), with
# a 50% gate it must exit non-zero and report the give-up histogram.
PORT_FILE=$WORK/soak_smoke.port
rm -f "$PORT_FILE"
"$CLI" serve "$MODEL" --engines cpu --batch 8 --max-latency-us 500 \
  --listen 0 --port-file "$PORT_FILE" > "$WORK/soak_smoke.server.out" 2>&1 &
SERVER_PID=$!
cleanup() { kill "$SERVER_PID" 2>/dev/null || true; }
trap cleanup EXIT
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "server died before binding:"; cat "$WORK/soak_smoke.server.out"
    exit 1; }
  sleep 0.1
done
PORT=$(cat "$PORT_FILE")

"$CLI" loadgen --connect "127.0.0.1:$PORT" --requests "$SAMPLES" \
  --count 50 --rate 5000 --seed 7 --deadline-us 1 \
  > "$WORK/soak_smoke.loadgen_ok.out"
grep -q "give-up" "$WORK/soak_smoke.loadgen_ok.out"
echo "all-failing loadgen without a gate exits 0 and logs give-ups"

if "$CLI" loadgen --connect "127.0.0.1:$PORT" --requests "$SAMPLES" \
     --count 50 --rate 5000 --seed 7 --deadline-us 1 \
     --max-failure-rate 0.5 > "$WORK/soak_smoke.loadgen_gate.out"; then
  echo "loadgen ignored --max-failure-rate"; exit 1
fi
echo "loadgen exits non-zero past --max-failure-rate"

"$CLI" loadgen --connect "127.0.0.1:$PORT" --requests "$SAMPLES" \
  --count 10 --rate 5000 --seed 7 --max-failure-rate 0.0 --shutdown \
  > "$WORK/soak_smoke.loadgen_drain.out"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
wait "$SERVER_PID" || {
  echo "server exited non-zero:"; cat "$WORK/soak_smoke.server.out"; exit 1; }
trap - EXIT

echo "soak smoke: OK"
