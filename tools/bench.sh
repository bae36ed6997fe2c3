#!/usr/bin/env sh
# Record a perf snapshot, or compare two recorded labels.
#
# Record mode: build the bench preset, run the harness suites (hotpath's
# kernel + wireless storms, the aodv_storm route-discovery storm, the
# overlay_storm full-stack tier, the megascale 10k-100k tier, and the
# serve_smoke daemon front-end tier), and append one JSON record per
# benchmark to BENCH_kernel.json, BENCH_hotpath.json, BENCH_overlay.json,
# BENCH_megascale.json and BENCH_serve.json at the repo root (JSON Lines;
# see docs/performance.md).
#
# Compare mode: read those JSONL files back and print per-bench throughput
# deltas between two labels, failing when anything regressed — so a perf
# regression is caught when the records land, not by a later PR's
# archaeology. Benches recorded under only one of the two labels (e.g. a
# freshly added tier with no older record) are reported as
# "(only in <label>)" instead of being silently skipped.
#
# Usage:
#   tools/bench.sh [label]
#       label  tag stored in each record (default: current git short hash)
#   tools/bench.sh --compare <label-a> <label-b> [--threshold PCT]
#       Compare the headline throughput (ops/frames/queries _per_sec) of
#       label-b against label-a for every bench that has records under both
#       labels (the most recent record per label wins). Records made with
#       different sim_threads counts are never paired: a record's "threads"
#       field (absent = 1) is part of the comparison key, so a 4-thread
#       run only ever compares against another 4-thread run — parallel
#       speedup must not masquerade as (or mask) a hot-path change.
#       Exit 1 if any bench is more than PCT slower in label-b (default 5),
#       or if any paired bench's peak_queue counter differs between the
#       labels: peak_queue is a fixed-seed determinism counter (identical
#       on every queue layout and every thread count), so drift means the
#       event history changed — a correctness failure, not a perf delta.
#   tools/bench.sh --threads <list> [label] [--smoke]
#       Thread-scaling sweep: run the megascale tier once per thread count
#       in <list> (comma-separated, e.g. 1,2,4,8) with the shard
#       decomposition pinned (--sim-shards 64), append every record under
#       the single given label to BENCH_megascale.json, and print a
#       speedup/efficiency table (events/s per scale per thread count,
#       baseline = the sweep's own 1-thread run). --smoke sweeps the
#       bounded 10k smoke slice instead of the full 10k/50k/100k tier.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"

if [ "${1:-}" = "--compare" ]; then
  shift
  if [ $# -lt 2 ]; then
    echo "usage: tools/bench.sh --compare <label-a> <label-b> [--threshold PCT]" >&2
    exit 2
  fi
  label_a="$1"
  label_b="$2"
  shift 2
  threshold=5
  if [ "${1:-}" = "--threshold" ]; then
    if [ $# -lt 2 ]; then
      echo "--threshold needs a value" >&2
      exit 2
    fi
    threshold="$2"
  fi
  # Only feed awk the record files that exist (BENCH_overlay.json appears
  # the first time the overlay tier is recorded).
  set --
  for f in "$repo/BENCH_kernel.json" "$repo/BENCH_hotpath.json" \
           "$repo/BENCH_overlay.json" "$repo/BENCH_megascale.json" \
           "$repo/BENCH_serve.json"; do
    [ -f "$f" ] && set -- "$@" "$f"
  done
  if [ $# -eq 0 ]; then
    echo "no BENCH_*.json records found in $repo" >&2
    exit 2
  fi
  awk -v A="$label_a" -v B="$label_b" -v THR="$threshold" '
    {
      bench = ""; label = ""; rate = ""
      if (match($0, /"bench":"[^"]*"/)) {
        bench = substr($0, RSTART + 9, RLENGTH - 10)
      }
      if (match($0, /"label":"[^"]*"/)) {
        label = substr($0, RSTART + 9, RLENGTH - 10)
      }
      # Thread count is part of the identity of a record: a parallel run
      # and a sequential run of the same bench are different experiments
      # ("threads" is emitted only when > 1; absent means 1). Suffixing
      # the key pairs like with like and reports unmatched thread counts
      # as one-sided records instead of comparing apples to oranges.
      if (match($0, /"threads":[0-9]+/)) {
        t = substr($0, RSTART + 10, RLENGTH - 10) + 0
        if (t > 1) bench = bench "@t" t
      }
      # Headline throughput: the suite-specific <unit>_per_sec field
      # (kernel: ops_per_sec, wireless storms: frames_per_sec, overlay
      # storms: queries_per_sec). Secondary rates (msgs_per_sec) are
      # deliberately not headline material.
      if (match($0, /"(ops|frames|queries)_per_sec":[0-9.]+/)) {
        pair = substr($0, RSTART, RLENGTH)
        sub(/^"[a-z]+_per_sec":/, "", pair)
        rate = pair + 0
      }
      # peak_queue is a fixed-seed counter (live high-water mark of the
      # event queue), not a throughput: identical workload => identical
      # value, on any queue layout and any thread count. Track it per
      # (bench, label) so the END block can flag drift as determinism
      # breakage, not as a perf delta.
      pq = ""
      if (match($0, /"peak_queue":[0-9]+/)) {
        pq = substr($0, RSTART + 13, RLENGTH - 13) + 0
      }
      if (bench == "" || label == "" || rate == "") next
      # Later records override earlier ones: compare the freshest snapshot
      # recorded under each label.
      if (label == A) { a[bench] = rate; seen[bench] = 1
                        if (pq != "") { pa[bench] = pq } else { delete pa[bench] } }
      if (label == B) { b[bench] = rate; seen[bench] = 1
                        if (pq != "") { pb[bench] = pq } else { delete pb[bench] } }
    }
    END {
      n = 0; fail = 0
      printf "%-34s %14s %14s %9s\n", "bench", A, B, "delta"
      for (bench in seen) order[++n] = bench
      # Stable output order (asort is gawk-only; insertion sort is fine
      # at this scale).
      for (i = 2; i <= n; ++i) {
        for (j = i; j > 1 && order[j] < order[j-1]; --j) {
          t = order[j]; order[j] = order[j-1]; order[j-1] = t
        }
      }
      for (i = 1; i <= n; ++i) {
        bench = order[i]
        if (!(bench in a) || !(bench in b)) {
          # One-sided record: a bench only present under one label (new
          # tier, renamed bench, retired workload). Say so explicitly —
          # a silent skip would hide a bench that stopped being recorded.
          printf "%-34s %14s %14s  (only in %s)\n", bench,
                 (bench in a) ? sprintf("%.0f", a[bench]) : "-",
                 (bench in b) ? sprintf("%.0f", b[bench]) : "-",
                 (bench in a) ? A : B
          continue
        }
        if (a[bench] == 0 || b[bench] == 0) {
          # A zero headline rate (wall time too coarse to resolve, or a
          # workload that completed zero units) carries no signal — and
          # dividing by it would abort the whole comparison. Report, do
          # not fail: only a real measured regression may exit non-zero.
          printf "%-34s %14.0f %14.0f  (no data)\n", bench, a[bench],
                 b[bench]
          continue
        }
        delta = (b[bench] - a[bench]) / a[bench] * 100.0
        flag = ""
        if (delta < -THR) { flag = "  << REGRESSION"; fail = 1 }
        # peak_queue drift between labels of the same workload means the
        # event history itself changed — a determinism break (or an
        # unflagged model change), never a legitimate perf delta. Hard
        # failure: a queue or parallelism change must reproduce the
        # pending-set high-water mark exactly.
        if ((bench in pa) && (bench in pb) && pa[bench] != pb[bench]) {
          flag = flag sprintf("  << PEAK_QUEUE DRIFT (%d -> %d)",
                              pa[bench], pb[bench])
          drift = 1
        }
        printf "%-34s %14.0f %14.0f %+8.1f%%%s\n", bench, a[bench], b[bench],
               delta, flag
      }
      if (n == 0) {
        printf "no records found for labels %s / %s\n", A, B
        exit 2
      }
      if (drift) {
        printf "FAIL: peak_queue drifted between %s and %s — same workload must\n", A, B
        printf "      reproduce the same pending-set high-water mark (determinism)\n"
      }
      if (fail) {
        printf "FAIL: at least one bench regressed more than %s%% (%s -> %s)\n",
               THR, A, B
      }
      if (fail || drift) exit 1
    }
  ' "$@"
  exit $?
fi

if [ "${1:-}" = "--threads" ]; then
  shift
  if [ $# -lt 1 ]; then
    echo "usage: tools/bench.sh --threads <list> [label] [--smoke]" >&2
    exit 2
  fi
  threads_list="$1"
  shift
  sweep_label=""
  sweep_smoke=""
  while [ $# -gt 0 ]; do
    case "$1" in
      --smoke) sweep_smoke="--smoke" ;;
      *) sweep_label="$1" ;;
    esac
    shift
  done
  [ -n "$sweep_label" ] || \
    sweep_label="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo dev)"

  cmake --preset bench -S "$repo" >/dev/null
  cmake --build --preset bench -j --target megascale >/dev/null

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
    "$repo/build-bench/bench/megascale" --label "$sweep_label" \
      --sim-threads "$t" --sim-shards 64 $sweep_smoke \
      --out "$repo/BENCH_megascale.json" | tee -a "$sweep_raw"
  done

  echo
  echo "thread scaling (label '$sweep_label', sim_shards=64, host: $(nproc) core(s))"
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
  exit 0
fi

label="${1:-$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo dev)}"

cmake --preset bench -S "$repo" >/dev/null
cmake --build --preset bench -j --target hotpath --target aodv_storm \
  --target overlay_storm --target megascale --target serve_smoke >/dev/null

"$repo/build-bench/bench/hotpath" --suite kernel --label "$label" \
  --out "$repo/BENCH_kernel.json"
"$repo/build-bench/bench/hotpath" --suite hotpath --label "$label" \
  --out "$repo/BENCH_hotpath.json"
"$repo/build-bench/bench/aodv_storm" --label "$label" \
  --out "$repo/BENCH_hotpath.json"
"$repo/build-bench/bench/overlay_storm" --label "$label" \
  --out "$repo/BENCH_overlay.json"
"$repo/build-bench/bench/megascale" --label "$label" \
  --out "$repo/BENCH_megascale.json"
# Serving tier: requests/s through the daemon front end against a warm
# cache (a throwaway cache dir keeps the record independent of whatever
# the figure benches have cached).
serve_cache="$(mktemp -d)"
P2P_BENCH_CACHE="$serve_cache" "$repo/build-bench/bench/serve_smoke" \
  --label "$label" --out "$repo/BENCH_serve.json"
rm -rf "$serve_cache"
echo "appended records labeled '$label' to BENCH_kernel.json / BENCH_hotpath.json / BENCH_overlay.json / BENCH_megascale.json / BENCH_serve.json"
