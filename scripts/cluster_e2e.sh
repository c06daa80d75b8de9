#!/usr/bin/env bash
# Cluster differential e2e: proves the distributed invariant from the
# outside, with real processes and real kill -9.
#
#   1. Standalone reference: one sadprouted routes the job set.
#   2. Worker-kill scenario: coordinator + worker A; A is killed -9
#      mid-run; worker B joins; every job must finish with results
#      byte-identical to the standalone run (leases expired, jobs
#      re-placed, nothing lost or double-completed).
#   3. Coordinator-crash scenario: the coordinator itself is killed -9
#      while a job is leased, restarted on the same address and
#      journal; the job must replay and finish identically.
#   4. Network-chaos sweep: for each preset in CHAOS_PRESETS (latency,
#      corrupt, slow, spool) the worker runs with -chaos <preset>, and
#      the coordinator fully re-checks every upload, as it always does;
#      corrupted uploads must be rejected and re-placed, stragglers
#      hedged, spooled results replayed — always byte-identical to
#      standalone.
#
# SCENARIOS selects which fault sections run (the standalone reference
# always does): any of "kill crash chaos". The CI matrix uses this to
# run each chaos preset as its own job.
#
# Results are compared as jq projections of {wl, vias, dv, uv,
# solution}: the solution payload is the full routed geometry and is
# required byte-identical; CPU-time fields are excluded by
# construction. On failure the projections are left in $WORK for
# artifact upload.
set -euo pipefail

BIN=${BIN:-/tmp/sadprouted}
BENCHGEN=${BENCHGEN:-/tmp/benchgen}
WORK=${WORK:-$(mktemp -d /tmp/cluster-e2e.XXXXXX)}
# div-s is the job the fault scenarios kill mid-flight; the other -s
# circuits are fillers that make the re-placement shuffle non-trivial.
# No circuit is slow enough to be caught running by polling alone, so
# both kill scenarios hold their leases with a fault site (see
# SLOW_SEED).
CIRCUITS=${CIRCUITS:-"ecc-s efc-s ctl-s div-s"}
# Worker A (worker-kill scenario) and worker C (coordinator-crash
# scenario) run with -chaos slow at this seed. The preset stalls a job
# for 2 s before running it with probability 1/2 per job; seed 65 makes
# its first six draws all stall (cmd/sadprouted's
# TestSlowChaosSeedStallsEveryJob pins that), so every job they take is
# leased and idle for 2 s.
SLOW_SEED=65
SCENARIOS=${SCENARIOS:-"kill crash chaos"}
CHAOS_CIRCUITS=${CHAOS_CIRCUITS:-"ecc-s efc-s ctl-s"}
CHAOS_PRESETS=${CHAOS_PRESETS:-"latency corrupt slow spool"}

run_scenario() { case " $SCENARIOS " in *" $1 "*) return 0;; *) return 1;; esac; }

echo "== cluster e2e: workdir $WORK"
# Always rebuild: a stale binary from an earlier checkout silently
# rejects newer RunSpec fields. Incremental builds make this cheap.
go build -o "$BIN" ./cmd/sadprouted
go build -o "$BENCHGEN" ./cmd/benchgen

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

mkdir -p "$WORK/nets"
"$BENCHGEN" -scale 4 -out "$WORK/nets" > /dev/null

SPEC='{scheme: "sim", consider_dvi: true, consider_tpl: true, method: "heur", verify: true, include_solution: true}'
for c in $CIRCUITS; do
  jq -Rs "{netlist: ., spec: $SPEC}" "$WORK/nets/$c.net" > "$WORK/$c.job.json"
done

wait_addr() { # $1=addr-file
  for _ in $(seq 100); do [ -s "$1" ] && { cat "$1"; return 0; }; sleep 0.1; done
  echo "no listen address in $1" >&2; return 1
}

submit() { # $1=addr $2=circuit -> job id
  curl -sf -d @"$WORK/$2.job.json" "http://$1/v1/jobs" | jq -r .id
}

job_status() { # $1=addr $2=job-id
  curl -sf "http://$1/v1/jobs/$2" | jq -r .status
}

poll_projection() { # $1=addr $2=job-id $3=output-file
  local status=queued
  for _ in $(seq 600); do
    status=$(job_status "$1" "$2")
    [ "$status" = done ] && break
    [ "$status" = failed ] && { curl -s "http://$1/v1/jobs/$2" | jq .; return 1; }
    sleep 0.2
  done
  [ "$status" = done ] || { echo "job $2 stuck in $status" >&2; return 1; }
  curl -sf "http://$1/v1/jobs/$2" | jq -e '.result.verify.ok == true' > /dev/null
  curl -sf "http://$1/v1/jobs/$2" | \
    jq '{wl: .result.row.wl, vias: .result.row.vias, dv: .result.row.dv, uv: .result.row.uv, solution: .result.solution}' > "$3"
}

# ---- 1. Standalone reference -------------------------------------
echo "== standalone reference"
rm -f "$WORK/ref.addr"
"$BIN" -addr 127.0.0.1:0 -addr-file "$WORK/ref.addr" -workers 2 -quiet > "$WORK/ref.log" 2>&1 &
REF_PID=$!; PIDS+=("$REF_PID")
ADDR=$(wait_addr "$WORK/ref.addr")
declare -A REF_JOB
for c in $CIRCUITS; do REF_JOB[$c]=$(submit "$ADDR" "$c"); done
for c in $CIRCUITS; do poll_projection "$ADDR" "${REF_JOB[$c]}" "$WORK/ref.$c.json"; done
kill -TERM $REF_PID; wait $REF_PID

# ---- 2. Coordinator + 2 workers, one killed mid-run --------------
if run_scenario kill; then
echo "== cluster: worker killed -9 mid-run"
rm -f "$WORK/coord.addr"
"$BIN" -mode coordinator -addr 127.0.0.1:0 -addr-file "$WORK/coord.addr" \
  -data-dir "$WORK/coord-data" -lease-ttl 2s -quiet > "$WORK/coord.log" 2>&1 &
COORD_PID=$!; PIDS+=("$COORD_PID")
ADDR=$(wait_addr "$WORK/coord.addr")
"$BIN" -mode worker -coordinator-addr "http://$ADDR" -worker-id wA -workers 1 \
  -chaos slow -chaos-seed "$SLOW_SEED" -quiet > "$WORK/wA.log" 2>&1 &
WA_PID=$!; PIDS+=("$WA_PID")

declare -A CL_JOB
for c in $CIRCUITS; do CL_JOB[$c]=$(submit "$ADDR" "$c"); done
# Kill worker A once div-s is running on it. A stalls every job for
# 2 s before routing it, so the kill lands while A holds the lease,
# however fast the routing is.
for _ in $(seq 300); do
  [ "$(job_status "$ADDR" "${CL_JOB[div-s]}")" = running ] && break
  sleep 0.05
done
kill -9 $WA_PID; wait $WA_PID 2>/dev/null || true
echo "   worker A killed while div-s was $(job_status "$ADDR" "${CL_JOB[div-s]}")"
"$BIN" -mode worker -coordinator-addr "http://$ADDR" -worker-id wB -workers 2 -quiet > "$WORK/wB.log" 2>&1 &
WB_PID=$!; PIDS+=("$WB_PID")

for c in $CIRCUITS; do poll_projection "$ADDR" "${CL_JOB[$c]}" "$WORK/cluster.$c.json"; done
curl -sf "http://$ADDR/metrics" | grep -E '^sadprouted_cluster_requeues_total [1-9]' > /dev/null \
  || { echo "expected at least one cluster requeue" >&2; exit 1; }
# Exactly one completion per job: nothing lost, nothing duplicated.
COMPLETED=$(curl -sf "http://$ADDR/metrics" | awk '/^sadprouted_jobs_completed_total /{print $2}')
[ "$COMPLETED" = "$(echo $CIRCUITS | wc -w)" ] \
  || { echo "completed=$COMPLETED, want $(echo $CIRCUITS | wc -w)" >&2; exit 1; }
kill -TERM $WB_PID; wait $WB_PID 2>/dev/null || true
kill -TERM $COORD_PID; wait $COORD_PID

for c in $CIRCUITS; do
  diff "$WORK/ref.$c.json" "$WORK/cluster.$c.json" \
    || { echo "worker-kill scenario: $c diverged from standalone" >&2; exit 1; }
done
echo "   worker-kill scenario byte-identical to standalone"
fi

# ---- 3. Coordinator killed -9 mid-dispatch, journal replay -------
if run_scenario crash; then
echo "== cluster: coordinator killed -9 mid-dispatch"
rm -f "$WORK/coord2.addr"
"$BIN" -mode coordinator -addr 127.0.0.1:0 -addr-file "$WORK/coord2.addr" \
  -data-dir "$WORK/coord2-data" -lease-ttl 2s -quiet > "$WORK/coord2.log" 2>&1 &
COORD_PID=$!; PIDS+=("$COORD_PID")
ADDR=$(wait_addr "$WORK/coord2.addr")
"$BIN" -mode worker -coordinator-addr "http://$ADDR" -worker-id wC -workers 1 \
  -chaos slow -chaos-seed "$SLOW_SEED" -quiet > "$WORK/wC.log" 2>&1 &
WC_PID=$!; PIDS+=("$WC_PID")

JOB=$(submit "$ADDR" div-s)
# wC stalls the job 2 s before routing it, so the kill lands before
# any result is journaled: replay must run the job again, and the
# completion counter below reads 1.
for _ in $(seq 300); do
  [ "$(job_status "$ADDR" "$JOB")" = running ] && break
  sleep 0.05
done
kill -9 $COORD_PID; wait $COORD_PID 2>/dev/null || true
echo "   coordinator killed while $JOB was leased to wC"
# Restart on the SAME address and journal: the leased-but-unfinished
# job replays as queued; the surviving worker reconnects (its pull
# loop retries) and the job completes exactly once.
"$BIN" -mode coordinator -addr "$ADDR" -data-dir "$WORK/coord2-data" -lease-ttl 2s -quiet > "$WORK/coord2b.log" 2>&1 &
COORD_PID=$!; PIDS+=("$COORD_PID")
for _ in $(seq 100); do curl -sf "http://$ADDR/healthz" > /dev/null 2>&1 && break; sleep 0.1; done

poll_projection "$ADDR" "$JOB" "$WORK/replayed.div-s.json"
diff "$WORK/ref.div-s.json" "$WORK/replayed.div-s.json" \
  || { echo "coordinator-crash scenario: div-s diverged from standalone" >&2; exit 1; }
COMPLETED=$(curl -sf "http://$ADDR/metrics" | awk '/^sadprouted_jobs_completed_total /{print $2}')
[ "$COMPLETED" = 1 ] || { echo "completed=$COMPLETED after replay, want 1" >&2; exit 1; }
echo "   coordinator-crash scenario byte-identical to standalone"

kill -TERM $WC_PID; wait $WC_PID 2>/dev/null || true
kill -TERM $COORD_PID; wait $COORD_PID
fi

# ---- 4. Network-chaos sweep --------------------------------------
chaos_run() { # $1=preset
  local preset=$1
  echo "== chaos preset: $preset"
  rm -f "$WORK/chaos.addr"
  local coord_flags=(-mode coordinator -addr 127.0.0.1:0 -addr-file "$WORK/chaos.addr"
    -data-dir "$WORK/chaos-$preset-data" -lease-ttl 2s -max-attempts 4 -quiet)
  if [ "$preset" = slow ]; then
    coord_flags+=(-hedge-multiple 4 -hedge-min-samples 2)
  fi
  "$BIN" "${coord_flags[@]}" > "$WORK/chaos-$preset-coord.log" 2>&1 &
  local coord_pid=$!; PIDS+=("$coord_pid")
  local addr; addr=$(wait_addr "$WORK/chaos.addr")

  local worker_flags=(-mode worker -coordinator-addr "http://$addr" -worker-id cw1 -workers 1
    -chaos "$preset" -chaos-seed 11 -quiet)
  if [ "$preset" = spool ]; then
    worker_flags+=(-spool-dir "$WORK/chaos-$preset-spool")
  fi
  "$BIN" "${worker_flags[@]}" > "$WORK/chaos-$preset-w1.log" 2>&1 &
  local w1_pid=$!; PIDS+=("$w1_pid")
  local w2_pid=""
  if [ "$preset" = slow ]; then
    # The hedge needs a healthy peer to land on.
    "$BIN" -mode worker -coordinator-addr "http://$addr" -worker-id cw2 -workers 2 -quiet \
      > "$WORK/chaos-$preset-w2.log" 2>&1 &
    w2_pid=$!; PIDS+=("$w2_pid")
  fi

  local -A JOB
  local c
  for c in $CHAOS_CIRCUITS; do JOB[$c]=$(submit "$addr" "$c"); done

  if [ "$preset" = spool ]; then
    # The chaos site kills the worker right after it spools its first
    # result; restart it (same identity, same spool) and let the
    # replay confirm the result without recomputing.
    wait "$w1_pid" 2>/dev/null || true
    echo "   worker cw1 died post-spool, restarting for replay"
    "$BIN" -mode worker -coordinator-addr "http://$addr" -worker-id cw1 -workers 1 \
      -spool-dir "$WORK/chaos-$preset-spool" -quiet > "$WORK/chaos-$preset-w1b.log" 2>&1 &
    w1_pid=$!; PIDS+=("$w1_pid")
  fi

  for c in $CHAOS_CIRCUITS; do
    poll_projection "$addr" "${JOB[$c]}" "$WORK/chaos-$preset.$c.json"
    diff "$WORK/ref.$c.json" "$WORK/chaos-$preset.$c.json" \
      || { echo "chaos $preset: $c diverged from standalone" >&2; exit 1; }
  done
  local completed
  completed=$(curl -sf "http://$addr/metrics" | awk '/^sadprouted_jobs_completed_total /{print $2}')
  [ "$completed" = "$(echo $CHAOS_CIRCUITS | wc -w)" ] \
    || { echo "chaos $preset: completed=$completed, want $(echo $CHAOS_CIRCUITS | wc -w)" >&2; exit 1; }
  if [ "$preset" = corrupt ]; then
    # Both wire flips must have forced a re-placement (validator
    # reject or dropped envelope + lease expiry — either way the job
    # was re-placed, never stored corrupted).
    curl -sf "http://$addr/metrics" | grep -E '^sadprouted_cluster_requeues_total [1-9]' > /dev/null \
      || { echo "chaos $preset: corrupted uploads never forced a re-placement" >&2; exit 1; }
  fi
  if [ "$preset" = spool ]; then
    curl -sf "http://$addr/metrics" | grep -E '^sadprouted_cluster_spool_replays_total [1-9]' > /dev/null \
      || { echo "chaos $preset: no spool replay recorded" >&2; exit 1; }
  fi
  kill -TERM "$w1_pid" 2>/dev/null || true; wait "$w1_pid" 2>/dev/null || true
  if [ -n "$w2_pid" ]; then
    kill -TERM "$w2_pid" 2>/dev/null || true; wait "$w2_pid" 2>/dev/null || true
  fi
  kill -TERM "$coord_pid"; wait "$coord_pid"
  echo "   chaos $preset byte-identical to standalone"
}

if run_scenario chaos; then
  for preset in $CHAOS_PRESETS; do chaos_run "$preset"; done
fi

echo "== cluster e2e OK"
