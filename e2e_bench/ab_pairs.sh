#!/usr/bin/env bash
# A/B comparison of two builds with the end-to-end benchmark.
#
#   ab_pairs.sh PARENT_BUILD CHANGE_BUILD [PAIRS] [WORKLOAD...]
#
# Each build directory holds bench_e2e and prio_server (the output of
# `cmake -S e2e_bench -B DIR && cmake --build DIR --target bench_e2e` in
# each checkout). For every workload (default: bulk small steady) it runs
# PAIRS (default 10, at least 10) pairs, each pair one run of each build on
# the same seed, alternating which build runs first. Every run lasts
# BENCHMARK.json's run_seconds, the length its bounds were set for. It then
# prints, per (workload, end-to-end metric): each side's median and
# quartiles, the fraction of pairs the change won (ties count for neither
# side), and the verdict of the choosing-metrics rule, using the bounds and
# directions in BENCHMARK.json:
#   improved    the change wins >= 90% of pairs and the medians differ, in
#               the better direction, by more than the parent's quartile
#               spread;
#   unresolved  otherwise, if the parent's quartile spread is wider than the
#               bound and not every change run beats every parent run;
#   regressed   otherwise, if the change's median is worse than the
#               parent's by more than the bound;
#   unchanged   otherwise.
# Reports are kept under .bench_build/ab.* in the current directory.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,24p' "$0" >&2
  exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${3:-10}
shift $(($# < 3 ? $# : 3))
workloads=("$@")
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$here/../BENCHMARK.json")
[[ ${#workloads[@]} -gt 0 ]] || workloads=(bulk small steady)
if [[ $pairs -lt 10 ]]; then
  echo "ab_pairs.sh: at least 10 pairs are needed for a verdict" >&2
  exit 2
fi

mkdir -p .bench_build
out=$(mktemp -d .bench_build/ab.XXXXXX)
echo "ab_pairs.sh: reports in $out" >&2

run_side() {  # run_side <side> <bin_dir> <workload> <pair> <seed>
  "$2/bench_e2e" --workload "$3" --seed "$5" --seconds "$seconds" \
      --out "$out/$3.$1.$4.json" --work-dir "$out/work" > "$out/$3.$1.$4.log" 2>&1
}

for w in "${workloads[@]}"; do
  for ((p = 0; p < pairs; ++p)); do
    seed=$((7000 + p))
    if ((p % 2 == 0)); then
      run_side parent "$parent" "$w" "$p" "$seed"
      run_side change "$change" "$w" "$p" "$seed"
    else
      run_side change "$change" "$w" "$p" "$seed"
      run_side parent "$parent" "$w" "$p" "$seed"
    fi
    echo "ab_pairs.sh: $w pair $((p + 1))/$pairs done" >&2
  done
done

python3 - "$out" "$here/../BENCHMARK.json" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, spec_path, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
spec = json.load(open(spec_path))

def load(w, side, p):
    return json.load(open("%s/%s.%s.%d.json" % (out, w, side, p)))["metrics"]

print("%-8s %-24s %12s %23s %12s %23s %5s  %s" % (
    "workload", "metric", "parent", "parent q1..q3", "change", "change q1..q3", "wins", "verdict"))
for w in workloads:
    par = [load(w, "parent", p) for p in range(pairs)]
    chg = [load(w, "change", p) for p in range(pairs)]
    for m in spec["end_to_end"]:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        a = [r[name]["value"] for r in par]
        b = [r[name]["value"] for r in chg]
        better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
        wins = sum(better(y, x) for x, y in zip(a, b)) / pairs
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        ma, mb = statistics.median(a), statistics.median(b)
        iqr = qa[2] - qa[0]
        worse = (ma - mb if higher else mb - ma) / abs(ma) if ma else 0.0
        if wins >= 0.9 and better(mb, ma) and abs(mb - ma) > iqr:
            verdict = "improved"
        elif ma and iqr / abs(ma) > bound and not all(better(y, x) for x in a for y in b):
            verdict = "unresolved"
        elif worse > bound:
            verdict = "regressed"
        else:
            verdict = "unchanged"
        print("%-8s %-24s %12.4g %11.4g..%-11.4g %12.4g %11.4g..%-11.4g %4.0f%%  %s" % (
            w, name, ma, qa[0], qa[2], mb, qb[0], qb[2], 100 * wins, verdict))
EOF
