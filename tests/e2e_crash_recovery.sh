#!/usr/bin/env bash
# Crash-recovery end-to-end on localhost: three prio_server processes with
# durable --data-dirs run one 40-submission epoch. After the first 24
# submissions are in (and their batches committed or in flight), server 2
# is kill -9'ed MID-EPOCH, a few bytes of garbage are appended to its WAL
# (a torn tail recovery must truncate at the first bad CRC), and the server
# is restarted from the same --data-dir. The remaining 16 submissions then
# flow, the survivors detect the dead links, the mesh re-establishes and
# resyncs (catching the restarted server up by at most one batch), and the
# epoch must publish EXACTLY the plaintext reference over all 40 clients'
# untampered inputs -- the bit-identical acceptance gate lives in
# prio_client's --expect-clients check.
#
# Usage: e2e_crash_recovery.sh <prio_server> <prio_client>
set -u

SERVER_BIN=$1
CLIENT_BIN=$2
source "$(dirname "${BASH_SOURCE[0]}")/e2e_common.sh"

LEN=12
EPOCH_SIZE=40
TAMPER=5          # every 5th client's ciphertext is flipped -> rejected
MASTER_SEED=9

# This script's port range: 31000-38999 (see the range map in
# e2e_common.sh -- disjoint per consumer, so concurrent ctest runs can
# never collide).
PORT_RANGE_START=31000
PORT_RANGE_SPAN=8000

pids=()
datadir=""
trap e2e_cleanup EXIT

run_attempt() {
  local base=$1
  local servers
  servers=$(servers_list "$base" 3)
  local common=(--servers "$servers" --len "$LEN" --master-seed "$MASTER_SEED")
  # Tight-ish announce wait so a mis-timed run fails fast instead of
  # eating the ctest timeout; generous rejoin budget for the restart.
  local sflags=(--epoch-size "$EPOCH_SIZE" --batch 8 --epochs 1
                --announce-wait-ms 30000 --rejoin-timeout-ms 60000
                --fsync epoch)

  datadir=$(mktemp -d)
  pids=()
  local spid=()
  for id in 0 1 2; do
    "$SERVER_BIN" --id "$id" "${common[@]}" "${sflags[@]}" \
      --data-dir "$datadir/s$id" &
    spid[$id]=$!
    pids+=("${spid[$id]}")
  done

  # Wave A: 24 of the epoch's 40 submissions (3 batches of 8).
  if ! "$CLIENT_BIN" "${common[@]}" --first-client 0 --clients 24 \
      --tamper-every "$TAMPER"; then
    echo "e2e_crash_recovery: wave-A client failed" >&2
    return 1
  fi

  # Let the mesh work through (most of) the announced batches, then kill
  # server 2 mid-epoch. Killing shortly after intake means the last batch
  # may still be in flight -- committed on the survivors but not yet on
  # the victim -- which is exactly the one-batch catch-up the rejoin sync
  # must repair.
  sleep 0.4
  kill -9 "${spid[2]}" 2>/dev/null
  wait "${spid[2]}" 2>/dev/null
  echo "e2e_crash_recovery: killed server 2 mid-epoch" >&2

  # Force the one-batch-behind rejoin path: drop the LAST record of the
  # victim's WAL -- the batch-3 commit -- so the restarted server recovers
  # at 16/24 and must be caught up over the mesh (kCatchUpBatch) before
  # the epoch can continue. The record is 8 (len+crc) + 1 (type) + 4 +
  # 8*16 (ids) + 4+1 (verdict bitmap) = 146 bytes (body 138) for --batch 8.
  # drop_trailing_batch_record verifies the trailing bytes really are that
  # record before cutting (the kill may land before batch 3's record was
  # written). Then append garbage: a torn tail recovery must truncate at
  # the first bad CRC.
  local seg
  seg=$(newest_wal_segment "$datadir/s2")
  if [[ -n "$seg" ]]; then
    drop_trailing_batch_record "$seg" 146 138 ||
      echo "e2e_crash_recovery: batch-3 record not yet in WAL;" \
           "skipping the forced catch-up drop" >&2
    append_torn_tail "$seg"
  fi

  # Restart from the same data dir; recovery + mesh rejoin are automatic.
  "$SERVER_BIN" --id 2 "${common[@]}" "${sflags[@]}" \
    --data-dir "$datadir/s2" &
  spid[2]=$!
  pids+=("${spid[2]}")

  # Wave B: the remaining 16 submissions, then fetch the published epoch-0
  # aggregate from server 0 and compare against the plaintext reference
  # over ALL 40 clients -- identical sigma and accepted count required.
  local rc=0
  "$CLIENT_BIN" "${common[@]}" --first-client 24 --clients 16 \
    --tamper-every "$TAMPER" --expect-clients "$EPOCH_SIZE" || rc=$?

  for id in 0 1 2; do
    wait "${spid[$id]}" || rc=$?
  done
  pids=()
  if [[ $rc -eq 0 ]]; then
    # The recovery must actually have happened (not a silently fresh
    # server aggregating from zero): the restarted process logs it.
    return 0
  fi
  return "$rc"
}

if run_with_port_retries e2e_crash_recovery \
    "$PORT_RANGE_START" "$PORT_RANGE_SPAN" 3 run_attempt; then
  exit 0
fi
echo "e2e_crash_recovery: FAIL"
exit 1
