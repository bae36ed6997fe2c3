#!/usr/bin/env sh
# Thread-scaling sweep of the megascale tier.
#
# Usage:
#   tools/bench.sh --threads <list> [--smoke]
#
# Builds the bench preset, runs the megascale tier once per thread count
# in <list> (comma-separated, e.g. 1,2,4,8) with the shard decomposition
# pinned (--sim-shards 64), and prints a speedup/efficiency table (events/s
# per scale per thread count, baseline = the sweep's own 1-thread run).
# --smoke sweeps the bounded 10k smoke slice instead of the full
# 10k/50k/100k tier. Nothing is written to the repository; for a
# comparison of two revisions use tools/ab.py.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"

if [ "${1:-}" != "--threads" ] || [ $# -lt 2 ]; then
  echo "usage: tools/bench.sh --threads <list> [--smoke]" >&2
  exit 2
fi
threads_list="$2"
sweep_smoke=""
if [ "${3:-}" = "--smoke" ]; then
  sweep_smoke="--smoke"
fi

cd "$repo"  # presets are read from the working directory
cmake --preset bench >/dev/null
cmake --build --preset bench -j "$(nproc)" --target megascale >/dev/null

sweep_raw="${TMPDIR:-/tmp}/bench_sweep_$$.jsonl"
trap 'rm -f "$sweep_raw"' EXIT
: > "$sweep_raw"
# Every sweep run pins --sim-shards 64: the shard decomposition is a
# model parameter, so the whole sweep (the 1-thread baseline included)
# replays ONE event history and differs only in who executes it — the
# speedups below are pure execution scaling, and every counter column
# is bit-identical across rows by construction.
for t in $(echo "$threads_list" | tr ',' ' '); do
  echo "== megascale sweep: sim_threads=$t =="
  "$repo/build-bench/bench/megascale" --label sweep \
    --sim-threads "$t" --sim-shards 64 $sweep_smoke \
    --out "$sweep_raw"
done

echo
echo "thread scaling (sim_shards=64, host: $(nproc) core(s))"
awk '
  {
    bench = ""; rate = ""; t = 1
    if (match($0, /"bench":"[^"]*"/)) {
      bench = substr($0, RSTART + 9, RLENGTH - 10)
    }
    if (match($0, /"events_per_sec":[0-9.]+/)) {
      rate = substr($0, RSTART + 17, RLENGTH - 17) + 0
    }
    if (match($0, /"threads":[0-9]+/)) {
      t = substr($0, RSTART + 10, RLENGTH - 10) + 0
    }
    if (bench == "" || rate == "") next
    rates[bench, t] = rate
    if (!(bench in seen)) { seen[bench] = 1; order[++n] = bench }
    if (!((t, "t") in tseen)) { tseen[t, "t"] = 1; tlist[++tn] = t }
  }
  END {
    for (i = 2; i <= tn; ++i) {
      for (j = i; j > 1 && tlist[j] < tlist[j-1]; --j) {
        x = tlist[j]; tlist[j] = tlist[j-1]; tlist[j-1] = x
      }
    }
    printf "%-22s %8s %14s %9s %11s\n",
           "bench", "threads", "events_per_s", "speedup", "efficiency"
    for (i = 1; i <= n; ++i) {
      bench = order[i]
      base = rates[bench, 1]
      for (k = 1; k <= tn; ++k) {
        t = tlist[k]
        if (!((bench, t) in rates)) continue
        r = rates[bench, t]
        if (base > 0) {
          printf "%-22s %8d %14.0f %8.2fx %10.0f%%\n",
                 bench, t, r, r / base, r / base / t * 100.0
        } else {
          printf "%-22s %8d %14.0f %9s %11s\n", bench, t, r, "-", "-"
        }
      }
    }
  }
' "$sweep_raw"
