#!/usr/bin/env bash
# The benchmark's own test.  Each workload, run briefly, must pass its
# checks; run again with --corrupt (one output value or served digest
# altered before the checks) it must fail, with exit code 1 and
# "correct":false on its last line.  A count that differs from the
# stored result of an earlier run of the same build and seed must fail
# the run too.  Run from the root of a checkout:
#
#   bash perfbench/selftest.sh
set -u -o pipefail
status=0
for w in kernels-sim kernels-machine deep-compile serve-mixed; do
  last=$(bash perfbench/run.sh --workload "$w" --seed 7 --seconds 1 --trace 0 2>/dev/null | tail -n 1)
  code=$?
  if [ $code -ne 0 ] || [[ "$last" != '{"correct":true,'* ]]; then
    echo "FAIL $w: clean run exited $code: $last"; status=1
  else
    echo "ok   $w: clean run passes its checks"
  fi
  last=$(bash perfbench/run.sh --workload "$w" --seed 7 --seconds 1 --trace 0 --corrupt 2>/dev/null | tail -n 1)
  code=$?
  if [ $code -ne 1 ] || [[ "$last" != '{"correct":false,'* ]]; then
    echo "FAIL $w: corrupted run exited $code: $last"; status=1
  else
    echo "ok   $w: corrupted output fails the run"
  fi
done
# an exact count that does not repeat: alter the stored simulated_time
stored=.perfbench_out/kernels-sim-seed7-trace0.json
sed -i 's/"simulated_time":{"value":/&1/' "$stored"
last=$(bash perfbench/run.sh --workload kernels-sim --seed 7 --seconds 1 --trace 0 2>/dev/null | tail -n 1)
code=$?
if [ $code -ne 1 ] || [[ "$last" != '{"correct":false,'* ]]; then
  echo "FAIL kernels-sim: a count unlike the stored one exited $code: $last"; status=1
else
  echo "ok   kernels-sim: a count unlike the stored one fails the run"
fi
rm -f "$stored"
exit $status
