#!/usr/bin/env sh
# p2pmanet_sim rejects --trace where it cannot hook one sequential network,
# before building the world: exit 2 and a message naming the conflict.
#   --trace with --seeds N > 1   (no single network to trace)
#   --trace on a sharded run     (sim_threads=2 implies sim_shards > 1)
#
# Usage: cli_trace_test.sh <p2pmanet_sim> <output-dir>
set -u
sim="$1"
out="$2/cli_trace_test.tr"

fail() {
  echo "cli_trace_test: $*" >&2
  exit 1
}

expect_rejected() {
  want="$1"
  shift
  err="$("$sim" --trace "$out" "$@" 2>&1 >/dev/null)"
  rc=$?
  printf '%s\n' "$err"
  [ "$rc" -eq 2 ] || fail "'$*' exited $rc, want 2"
  printf '%s\n' "$err" | grep -qF -- "$want" || fail "'$*': no '$want'"
}

expect_rejected "--trace requires single-run mode" \
  --seeds 2 num_nodes=30 duration_s=20
expect_rejected "--trace requires sequential execution" \
  num_nodes=30 duration_s=20 sim_threads=2
[ ! -e "$out" ] || fail "a rejected run created $out"
echo "cli_trace_test: ok"
