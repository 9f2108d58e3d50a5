#!/usr/bin/env bash
# End-to-end multi-process runs on localhost, one leg per AFE spec: three
# prio_server processes, two concurrent prio_client processes covering
# disjoint client-id ranges (the second also tampers some ciphertexts and
# verifies the published typed aggregate against the plaintext reference:
# the summed encodings of ALL clients' untampered inputs).
#
# The legs exercise the runtime AFE-spec API end to end: the first leg
# drives the deprecated --len sugar through the whole pipeline, the rest
# select catalogue AFEs with --afe spec strings. One leg additionally runs
# the client's wrong-spec probe, checking that an aggregate query with a
# mismatched AFE identity is rejected loudly (kAggregateReject) instead of
# returning a misinterpretable byte blob.
#
# Usage: e2e_localhost.sh <prio_server> <prio_client>
set -u

SERVER_BIN=$1
CLIENT_BIN=$2
source "$(dirname "${BASH_SOURCE[0]}")/e2e_common.sh"

EPOCH_SIZE=40
TAMPER=5          # every 5th client's ciphertext is flipped -> rejected
MASTER_SEED=7

# This script's port range: 21000-28999 (see the range map in
# e2e_common.sh -- disjoint per consumer, so concurrent ctest runs can
# never collide).
PORT_RANGE_START=21000
PORT_RANGE_SPAN=8000

# Each leg: "<afe flags ...>" -- the first is the deprecated sugar for
# bitvec_sum:len=12 and must keep working verbatim.
LEGS=(
  "--len 12"
  "--afe sum:bits=8"
  "--afe countmin:w=32,d=3"
  "--afe linreg:dims=3,bits=8"
  "--afe popular:bits=16"
)

pids=()
trap e2e_cleanup EXIT

# run_attempt <port_base> <probe_flag_or_empty> <afe flag tokens...>
run_attempt() {
  local base=$1 probe=$2
  shift 2
  local servers
  servers=$(servers_list "$base" 3)
  local common=(--servers "$servers" "$@" --master-seed "$MASTER_SEED")

  pids=()
  for id in 0 1 2; do
    "$SERVER_BIN" --id "$id" "${common[@]}" \
      --epoch-size "$EPOCH_SIZE" --batch 16 --epochs 1 &
    pids+=($!)
  done

  # Two client processes submit concurrently; ids 0..24 and 25..39. The
  # second one carries the wrong-spec probe when the leg asks for it (the
  # probe runs before its submissions, so it cannot stall the epoch).
  "$CLIENT_BIN" "${common[@]}" --first-client 0 --clients 25 \
    --tamper-every "$TAMPER" &
  local c1=$!
  pids+=("$c1")
  "$CLIENT_BIN" "${common[@]}" --first-client 25 --clients 15 \
    --tamper-every "$TAMPER" --expect-clients "$EPOCH_SIZE" $probe &
  local c2=$!
  pids+=("$c2")

  local rc=0
  wait "$c1" || rc=$?
  wait "$c2" || rc=$?
  for pid in "${pids[@]:0:3}"; do
    wait "$pid" || rc=$?
  done
  pids=()
  return "$rc"
}

leg_idx=0
for leg in "${LEGS[@]}"; do
  # shellcheck disable=SC2086 -- legs are intentionally word-split flags
  set -- $leg
  probe=""
  # The countmin leg doubles as the spec-mismatch coverage: its client
  # probes with a different AFE identity first and expects the reject.
  [[ $leg_idx -eq 2 ]] && probe="--probe-wrong-spec"

  if ! run_with_port_retries "e2e_localhost[$leg]" \
      "$PORT_RANGE_START" "$PORT_RANGE_SPAN" 3 run_attempt "$probe" "$@"; then
    echo "e2e_localhost: FAIL (leg: $leg)"
    exit 1
  fi
  leg_idx=$((leg_idx + 1))
done
echo "e2e_localhost: PASS (${#LEGS[@]} AFE legs)"
exit 0
