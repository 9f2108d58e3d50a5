#!/usr/bin/env bash
# End-to-end multi-process runs on localhost, one leg per AFE spec: three
# prio_server processes, two concurrent prio_client processes covering
# disjoint client-id ranges (the second also tampers some ciphertexts and
# verifies the published typed aggregate against the plaintext reference:
# the summed encodings of ALL clients' untampered inputs).
#
# The legs exercise the runtime AFE-spec API end to end: each selects a
# catalogue AFE with an --afe spec string. One leg additionally runs the
# client's wrong-spec probe, checking that an aggregate query with a
# mismatched AFE identity is rejected loudly (kAggregateReject) instead of
# returning a misinterpretable byte blob.
#
# Kill -9, restart and rejoin are not scripted here: the pinned prio_chaos
# seeds (chaos_seed_* ctests) cover them.
#
# Usage: e2e_localhost.sh <prio_server> <prio_client>
set -u

SERVER_BIN=$1
CLIENT_BIN=$2

EPOCH_SIZE=40
TAMPER=5          # every 5th client's ciphertext is flipped -> rejected
MASTER_SEED=7

# Port bases are drawn from 21000-28999 (ports up to 29101), disjoint from
# prio_chaos's 29200-32701, so concurrent ctest runs can never collide.
PORT_RANGE_START=21000
PORT_RANGE_SPAN=8000

LEGS=(
  "--afe bitvec_sum:len=12"
  "--afe sum:bits=8"
  "--afe countmin:w=32,d=3"
  "--afe linreg:dims=3,bits=8"
  "--afe popular:bits=16"
)

# pick_port_base <num_servers>
# Echoes a base port whose peer ports (base+i) and client ports
# (base+100+i) all probed free, or returns 1 after several attempts, so
# collisions with unrelated services are caught before a server ever
# fails to bind.
pick_port_base() {
  local servers=$1
  local attempt base i off
  for attempt in 1 2 3 4 5 6 7 8; do
    base=$((PORT_RANGE_START + RANDOM % PORT_RANGE_SPAN))
    local busy=0
    for ((i = 0; i < servers; ++i)); do
      for off in "$i" "$((100 + i))"; do
        # A successful connect means something already listens there.
        if (exec 3<>"/dev/tcp/127.0.0.1/$((base + off))") 2>/dev/null; then
          busy=1
          break 2
        fi
      done
    done
    if [[ $busy -eq 0 ]]; then
      echo "$base"
      return 0
    fi
  done
  return 1
}

# servers_list <base> <num_servers>
# Echoes the --servers value for a localhost deployment at <base>.
servers_list() {
  local base=$1 servers=$2
  local out="" i
  for ((i = 0; i < servers; ++i)); do
    out+="${out:+,}127.0.0.1:$((base + i)):$((base + 100 + i))"
  done
  echo "$out"
}

# EXIT-trap body: kills every pid in $pids and reaps.
pids=()
e2e_cleanup() {
  local pid
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null
  done
  wait 2>/dev/null
  return 0
}
trap e2e_cleanup EXIT

# run_with_port_retries <name> <fn> [arg...]
# Picks a probed-free port base and calls `fn <base> [arg...]`, retrying
# once on a fresh base (probed ports can still race an unrelated service
# binding between the probe and the server's bind). Prints
# "<name>: PASS (port base N)" on success; returns 1 when both attempts
# fail.
run_with_port_retries() {
  local name=$1 fn=$2
  shift 2
  local attempt base
  for attempt in 1 2; do
    base=$(pick_port_base 3) || {
      echo "$name: no free port base found" >&2
      continue
    }
    if "$fn" "$base" "$@"; then
      echo "$name: PASS (port base $base)"
      return 0
    fi
    echo "$name: attempt on port base $base failed; retrying" >&2
    e2e_cleanup
  done
  return 1
}

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
      run_attempt "$probe" "$@"; then
    echo "e2e_localhost: FAIL (leg: $leg)"
    exit 1
  fi
  leg_idx=$((leg_idx + 1))
done
echo "e2e_localhost: PASS (${#LEGS[@]} AFE legs)"
exit 0
