#!/usr/bin/env bash
# Sharded end-to-end on localhost: three prio_server processes, each running
# FOUR shard lanes over the one peer mesh (--shards 4), with durable
# per-shard --data-dirs. Two client processes submit concurrently (their
# ids hash across all four shards), then server 2 is kill -9'ed MID-EPOCH
# -- before the epoch quota is exhausted, so every lane still has work in
# flight -- and restarted from the same --data-dir. All four of its shard
# stores must recover, the mesh re-establishes, every lane re-syncs its own
# position, and the epoch's published aggregate (the lane-summed sigma)
# must be EXACTLY the plaintext reference over all 40 clients' untampered
# inputs -- the bit-identical acceptance gate lives in prio_client's
# --expect-clients check.
#
# Observability gates ride along: every server exposes --stats-port
# (base+200+id). After wave A, server 0's /metrics must be valid
# Prometheus text with non-zero intake/batch/WAL counters and stage
# histograms; during wave B, /stats.json is polled until its totals equal
# the client-side ground truth (40 intake, 32 verify-accepted, 8
# verify-rejected), and server 0's --trace-log must contain
# batch_committed events.
#
# Usage: e2e_sharded.sh <prio_server> <prio_client>
set -u

SERVER_BIN=$1
CLIENT_BIN=$2
source "$(dirname "${BASH_SOURCE[0]}")/e2e_common.sh"

LEN=12
EPOCH_SIZE=40
SHARDS=4
TAMPER=5          # every 5th client's ciphertext is flipped -> rejected
MASTER_SEED=11

# This script's port range: 41000-48999 (see the range map in
# e2e_common.sh -- disjoint per consumer, so concurrent ctest runs can
# never collide).
PORT_RANGE_START=41000
PORT_RANGE_SPAN=8000

pids=()
datadir=""
trap e2e_cleanup EXIT

run_attempt() {
  local base=$1
  local servers
  servers=$(servers_list "$base" 3)
  local common=(--servers "$servers" --len "$LEN" --master-seed "$MASTER_SEED")
  local sflags=(--epoch-size "$EPOCH_SIZE" --batch 8 --epochs 1
                --shards "$SHARDS"
                --announce-wait-ms 30000 --rejoin-timeout-ms 60000
                --fsync epoch)

  datadir=$(mktemp -d)
  pids=()
  local spid=()
  for id in 0 1 2; do
    local extra=()
    [[ "$id" -eq 0 ]] && extra=(--trace-log "$datadir/trace0.jsonl")
    "$SERVER_BIN" --id "$id" "${common[@]}" "${sflags[@]}" \
      --stats-port "$((base + 200 + id))" "${extra[@]}" \
      --data-dir "$datadir/s$id" &
    spid[$id]=$!
    pids+=("${spid[$id]}")
  done

  # Wave A: 24 of the epoch's 40 submissions, from two CONCURRENT client
  # processes whose ids hash across all four shards.
  "$CLIENT_BIN" "${common[@]}" --first-client 0 --clients 12 \
    --tamper-every "$TAMPER" &
  local c1=$!
  pids+=("$c1")
  "$CLIENT_BIN" "${common[@]}" --first-client 12 --clients 12 \
    --tamper-every "$TAMPER" &
  local c2=$!
  pids+=("$c2")
  local rc=0
  wait "$c1" || rc=$?
  wait "$c2" || rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "e2e_sharded: wave-A clients failed" >&2
    return 1
  fi

  # Observability gate 1: server 0's /metrics is valid Prometheus text with
  # non-zero intake/batch/WAL counters and stage histograms. Wave A's 24
  # submissions are all acked, but batch verification may still be in
  # flight, so poll briefly for the counters to catch up.
  local stats0=$((base + 200))
  local metrics="" tries
  for tries in $(seq 1 50); do
    metrics=$(http_get "$stats0" /metrics) || metrics=""
    if echo "$metrics" | grep -q '^# TYPE prio_intake_accepted_total counter$' \
       && echo "$metrics" | grep -q '^# TYPE prio_stage_rounds_seconds histogram$' \
       && echo "$metrics" | grep -Eq '^prio_stage_rounds_seconds_bucket\{shard="[0-9]+",le="\+Inf"\} [1-9]' \
       && echo "$metrics" | grep -Eq '^prio_batches_committed_total\{shard="[0-9]+"\} [1-9]' \
       && echo "$metrics" | grep -Eq '^prio_wal_append_seconds_count\{shard="[0-9]+"\} [1-9]' \
       && [[ "$(echo "$metrics" | awk '/^prio_intake_accepted_total/ {s += $2} END {print s+0}')" -eq 24 ]]; then
      break
    fi
    metrics=""
    sleep 0.2
  done
  if [[ -z "$metrics" ]]; then
    echo "e2e_sharded: /metrics gate failed (no valid scrape after wave A)" >&2
    return 1
  fi
  echo "e2e_sharded: /metrics gate passed (24 intake, committed batches, WAL appends)" >&2

  # Let the lanes work through (most of) the announced batches, then kill
  # server 2 mid-epoch. The quota is at 24/40, so no lane has closed its
  # epoch yet: every lane on the survivors trips its broken link, all lanes
  # park on the repair barrier, and after the restart every lane re-syncs
  # (catching the victim up by at most one batch per lane).
  sleep 0.4
  kill -9 "${spid[2]}" 2>/dev/null
  wait "${spid[2]}" 2>/dev/null
  echo "e2e_sharded: killed server 2 mid-epoch" >&2

  # Sanity: the victim really was sharded (one store per lane).
  local nshards
  nshards=$(ls -d "$datadir/s2"/shard-* 2>/dev/null | wc -l)
  if [[ "$nshards" -ne "$SHARDS" ]]; then
    echo "e2e_sharded: expected $SHARDS shard dirs, found $nshards" >&2
    return 1
  fi

  # Restart from the same data dir; per-shard recovery + rejoin are
  # automatic.
  "$SERVER_BIN" --id 2 "${common[@]}" "${sflags[@]}" \
    --data-dir "$datadir/s2" &
  spid[2]=$!
  pids+=("${spid[2]}")

  # Wave B: the remaining 16 submissions, then fetch the published epoch-0
  # aggregate from server 0 and compare against the plaintext reference
  # over ALL 40 clients -- identical sigma and accepted count required.
  # Concurrently, observability gate 2: poll server 0's /stats.json until
  # its totals equal the client-side ground truth -- 40 intake-accepted, 32
  # verify-accepted, 8 verify-rejected (every 5th of 40 clients tampers).
  # The totals are final strictly before the aggregate is published, so the
  # poller must succeed before the wave-B client exits.
  rc=0
  "$CLIENT_BIN" "${common[@]}" --first-client 24 --clients 16 \
    --tamper-every "$TAMPER" --expect-clients "$EPOCH_SIZE" &
  local cb=$!
  pids+=("$cb")
  local stats_ok=0 body=""
  for tries in $(seq 1 300); do
    body=$(http_get "$stats0" /stats.json) || body=""
    if echo "$body" | grep -q '"intake_accepted": 40[,}]' \
       && echo "$body" | grep -q '"verify_accepted": 32[,}]' \
       && echo "$body" | grep -q '"verify_rejected": 8[,}]'; then
      stats_ok=1
      break
    fi
    # Stop polling once the client is done: the totals were final before
    # the publish it just fetched, so more polling cannot help.
    kill -0 "$cb" 2>/dev/null || break
    sleep 0.1
  done
  wait "$cb" || rc=$?
  if [[ "$stats_ok" -ne 1 ]]; then
    echo "e2e_sharded: /stats.json totals never matched client-side counts" >&2
    echo "$body" | head -20 >&2
    rc=1
  else
    echo "e2e_sharded: /stats.json gate passed (40/32/8 totals)" >&2
  fi

  for id in 0 1 2; do
    wait "${spid[$id]}" || rc=$?
  done
  pids=()

  # Observability gate 3: the trace log recorded committed batches.
  if ! grep -q '"event":"batch_committed"' "$datadir/trace0.jsonl" 2>/dev/null; then
    echo "e2e_sharded: trace log missing batch_committed events" >&2
    rc=1
  fi
  return "$rc"
}

if run_with_port_retries e2e_sharded \
    "$PORT_RANGE_START" "$PORT_RANGE_SPAN" 3 run_attempt; then
  exit 0
fi
echo "e2e_sharded: FAIL"
exit 1
