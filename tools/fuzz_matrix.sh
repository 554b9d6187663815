#!/usr/bin/env bash
# The nightly fuzz matrix, defined once: runs every chtread_fuzz leg of one
# nemesis profile, each over all four protocol stacks (--protocol=all).
#
#   tools/fuzz_matrix.sh CHTREAD_FUZZ PROFILE [FLAG...]
#
# The legs:
#   client path          500 seeds; operations travel through networked
#                        client sessions (retries, redirects, dedup)
#   direct path          200 seeds, --client-path=0: the legacy
#                        direct-submit path old repro artifacts replay
#   clock guard off      200 seeds, --clock-guard=0, on clock-storm and
#                        degraded-reads: the legacy accounting (stale reads
#                        tolerated, RMW sub-history checked) on the same
#                        schedules the guard-on legs hold to full
#                        linearizability
#   key loss 1.0 / 0.0   200 seeds each, on power-cycle and crash-loop: both
#                        unsynced-key-loss extremes, which the 0.5 default
#                        can mask
#
# FLAGs pass through to every leg after its own, so --threads=4 or
# --artifact-dir=DIR apply everywhere and --seeds=N shortens every leg.
# Prints one line per leg, followed by chtread_fuzz's output if the leg
# failed; runs every leg even after a failure; exits 1 if any leg failed.
# The CI fuzz job runs it once per profile; locally, the whole matrix is
#
#   for p in calm rolling-partitions leader-hunter clock-storm power-cycle \
#            crash-loop degraded-reads; do
#     tools/fuzz_matrix.sh build/tools/chtread_fuzz "$p" --threads=4
#   done

if [ $# -lt 2 ]; then
  echo "usage: $0 CHTREAD_FUZZ PROFILE [FLAG...]" >&2
  exit 2
fi
fuzz=$1
profile=$2
shift 2
flags=("$@")
out=$(mktemp)
trap 'rm -f "$out"' EXIT
failed=0

# leg NAME FLAG...: runs one leg and reports it with the flags it ran.
leg() {
  local name=$1
  shift
  local args=(--protocol=all --profile="$profile" "$@" "${flags[@]}")
  if "$fuzz" "${args[@]}" >"$out" 2>&1; then
    echo "pass  $name: ${args[*]}"
  else
    echo "FAIL  $name (exit $?): ${args[*]}"
    cat "$out"
    failed=1
  fi
}

leg "client path" --seeds=500
leg "direct path" --seeds=200 --client-path=0
case $profile in
  clock-storm | degraded-reads)
    leg "clock guard off" --seeds=200 --clock-guard=0
    ;;
  power-cycle | crash-loop)
    leg "key loss 1.0" --seeds=200 --key-loss=1.0
    leg "key loss 0.0" --seeds=200 --key-loss=0.0
    ;;
esac
exit $failed
