#!/usr/bin/env bash
# Loopback end-to-end smoke for fleet serving:
#
#   1. `spnhbm resources --pes 100` must fail placement with the
#      structured per-resource deficit table (not a bare boolean),
#   2. start `spnhbm serve --fleet-devices 2` with two models, two
#      replicas each, behind one RPC endpoint; read the ephemeral port,
#   3. remote inference through the fleet must be byte-identical to the
#      local engine path, for both models,
#   4. replay a weighted mixed-model open-loop load (a:3, b:1) while the
#      telemetry-driven rebalancer runs, check the client conservation
#      summary and the per-model split in the report,
#   5. shut down via the wire frame; the report of the fleet's one server
#      must list the tenants of both devices as engines,
#   6. a fleet without --listen replays a CSV locally, byte-identical to
#      the local engine path.
#
# Usage: fleet_smoke.sh <spnhbm-cli> <model.spn> <samples.csv> <work-dir> \
#                       <model2.spn> <samples2.csv>
set -euo pipefail

CLI=$1
MODEL=$2
SAMPLES=$3
WORK=$4
MODEL2=$5
SAMPLES2=$6

mkdir -p "$WORK"
PORT_FILE=$WORK/fleet_smoke.port
SERVER_OUT=$WORK/fleet_smoke.server.out
rm -f "$PORT_FILE"

# Placement failures carry the per-resource deficit table.
"$CLI" resources "$MODEL" --pes 32 --platform hbm \
  > "$WORK/fleet_smoke.resources.out"
grep -q "placement: FAILS" "$WORK/fleet_smoke.resources.out"
grep -q "required" "$WORK/fleet_smoke.resources.out"
grep -q "PE slots" "$WORK/fleet_smoke.resources.out"
echo "resources reports structured deficits"

"$CLI" serve --model a="$MODEL" --model b="$MODEL2" \
  --fleet-devices 2 --fleet-replicas 2 --rebalance-ms 100 \
  --batch 8 --max-latency-us 500 --listen 0 --port-file "$PORT_FILE" \
  --trace-out "$WORK/fleet_smoke.server_trace.json" \
  > "$SERVER_OUT" 2>&1 &
SERVER_PID=$!
cleanup() { kill "$SERVER_PID" 2>/dev/null || true; }
trap cleanup EXIT

for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "fleet server died before binding:"; cat "$SERVER_OUT"; exit 1; }
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "fleet server never wrote the port file"; exit 1; }
PORT=$(cat "$PORT_FILE")
echo "fleet listening on port $PORT"

# Remote inference through the fleet vs the local single-tenant FPGA
# path: the spatial tenants must be byte-identical to it.
"$CLI" infer "$MODEL" "$SAMPLES" --engine fpga > "$WORK/fleet_smoke.local_a.out"
"$CLI" infer "$MODEL2" "$SAMPLES2" --engine fpga > "$WORK/fleet_smoke.local_b.out"
"$CLI" infer --connect "127.0.0.1:$PORT" "$SAMPLES" --model a \
  > "$WORK/fleet_smoke.remote_a.out"
"$CLI" infer --connect "127.0.0.1:$PORT" "$SAMPLES2" --model b \
  > "$WORK/fleet_smoke.remote_b.out"
diff "$WORK/fleet_smoke.local_a.out" "$WORK/fleet_smoke.remote_a.out"
diff "$WORK/fleet_smoke.local_b.out" "$WORK/fleet_smoke.remote_b.out"
echo "fleet remote inference matches local inference"

# Live introspection over the same endpoint: one ADMIN snapshot showing
# the tenant engines of both devices and the fleet replica map.
"$CLI" top --connect "127.0.0.1:$PORT" --once > "$WORK/fleet_smoke.top.out"
cat "$WORK/fleet_smoke.top.out"
grep -q "\[fpga0/" "$WORK/fleet_smoke.top.out"
grep -q "\[fpga1/" "$WORK/fleet_smoke.top.out"
grep -q "replicas" "$WORK/fleet_smoke.top.out"
grep -q -- "-> member" "$WORK/fleet_smoke.top.out"
echo "top renders the fleet ADMIN snapshot"

# Weighted mixed-model load through the one endpoint, then drain. The
# traced run links fleet-routed requests across both member devices.
"$CLI" loadgen --connect "127.0.0.1:$PORT" \
  --model a:3 --model b:1 \
  --requests a="$SAMPLES" --requests b="$SAMPLES2" \
  --count 300 --rate 2000 --arrival poisson --connections 4 --seed 7 \
  --trace-out "$WORK/fleet_smoke.client_trace.json" \
  --report-out "$WORK/fleet_smoke.report.json" \
  --shutdown > "$WORK/fleet_smoke.loadgen.out"
cat "$WORK/fleet_smoke.loadgen.out"
grep -q "conservation (sent == sum over statuses): ok" \
  "$WORK/fleet_smoke.loadgen.out"
grep -q "model a " "$WORK/fleet_smoke.loadgen.out"
grep -q "model b " "$WORK/fleet_smoke.loadgen.out"
# The per-model latency breakdown rides in the report and the JSON.
grep -q "latency_us " "$WORK/fleet_smoke.loadgen.out"
grep -q '"name":"a"' "$WORK/fleet_smoke.report.json"
grep -q '"name":"b"' "$WORK/fleet_smoke.report.json"

for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "fleet ignored the shutdown frame:"; cat "$SERVER_OUT"; exit 1
fi
wait "$SERVER_PID" || { echo "fleet exited non-zero:"; cat "$SERVER_OUT"; exit 1; }
trap - EXIT

# The fleet report: placement header, then the one server's books and
# one engine line per tenant of each device.
grep -q "fleet: 2 device(s)" "$SERVER_OUT"
grep -Eq "^server: [0-9]+ requests" "$SERVER_OUT"
grep -q "^rpc: " "$SERVER_OUT"
grep -Eq "^engine .*@fpga0/" "$SERVER_OUT"
grep -Eq "^engine .*@fpga1/" "$SERVER_OUT"

# A fleet needs no RPC front end: a local CSV replay through two devices
# is byte-identical to the local single-tenant FPGA path.
"$CLI" serve --model a="$MODEL" --fleet-devices 2 --fleet-replicas 2 \
  --requests a="$SAMPLES" --batch 8 --max-latency-us 500 \
  > "$WORK/fleet_smoke.replay.out" 2> "$WORK/fleet_smoke.replay.err"
sed -n '/^== model/,/^fleet: /p' "$WORK/fleet_smoke.replay.out" \
  | grep -Ev '^(== model|fleet: )' > "$WORK/fleet_smoke.replay_a.out"
diff "$WORK/fleet_smoke.local_a.out" "$WORK/fleet_smoke.replay_a.out"
grep -Eq "^engine .*@fpga0/" "$WORK/fleet_smoke.replay.out"
grep -Eq "^engine .*@fpga1/" "$WORK/fleet_smoke.replay.out"
echo "fleet local replay matches local inference"

# Both sides of the traced run left Chrome-trace artifacts behind.
[ -s "$WORK/fleet_smoke.server_trace.json" ]
[ -s "$WORK/fleet_smoke.client_trace.json" ]
echo "fleet smoke: OK"
