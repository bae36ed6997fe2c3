#!/usr/bin/env sh
# Report contract of tools/ab.py, on two checked-in raw files:
#   ab_regression.jsonl  the change loses 10/10 pairs of serve_warm_cache
#                        (requests_per_sec) by more than the parent's IQR:
#                        exit 1, and the bench is named;
#   ab_noise.jsonl       equal medians, overlapping runs, one informational
#                        counter difference: exit 0, every bench reported.
#
# Usage: ab_report_test.sh <python3> <ab.py> <fixture-dir>
set -u
python="$1"
ab="$2"
dir="$3"

fail() {
  echo "ab_report_test: $*" >&2
  exit 1
}

out="$("$python" "$ab" --report "$dir/ab_regression.jsonl")"
rc=$?
printf '%s\n' "$out"
[ "$rc" -eq 1 ] || fail "regression fixture exited $rc, want 1"
printf '%s\n' "$out" | grep -q '^REGRESSION: serve_warm_cache requests_per_sec' ||
  fail "regression fixture: serve_warm_cache not named"

out="$("$python" "$ab" --report "$dir/ab_noise.jsonl")"
rc=$?
printf '%s\n' "$out"
[ "$rc" -eq 0 ] || fail "noise fixture exited $rc, want 0"
for row in 'serve_warm_cache  *requests_per_sec' \
           'hotpath.broadcast_storm .*counters differ' \
           'perfbench.serve_mixed  *latency_p99_ms'; do
  printf '%s\n' "$out" | grep -q "^$row" || fail "noise fixture: no row /$row/"
done
echo "ab_report_test: ok"
