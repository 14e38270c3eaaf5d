#!/usr/bin/env bash
# Checks that the benchmark's answers have not changed: runs every
# perfbench workload at reduced size and compares its `# digest` lines —
# digests of every answer of every defense, and the UNBIASED-EST estimates —
# with tools/perfbench_digests.txt. A change meant only to speed things up
# must leave every line identical; a change that alters answers on purpose
# regenerates the file (the command below) and says why.
#
# Usage: tools/check_answer_digests.sh [path/to/asup_perfbench]
#   The binary defaults to the one `python3 perfbench/run.py` builds:
#   ${CARGO_TARGET_DIR:-.bench_build}/perfbench/asup_perfbench.
# Regenerate: tools/check_answer_digests.sh --print > tools/perfbench_digests.txt
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
expected="$root/tools/perfbench_digests.txt"

print_only=0
if [ "${1:-}" = "--print" ]; then
  print_only=1
  shift
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
binary="${1:-$target/perfbench/asup_perfbench}"
if [ ! -x "$binary" ]; then
  echo "FAIL: no perfbench binary at $binary (run python3 perfbench/run.py --selftest first)" >&2
  exit 1
fi

actual="$(mktemp)"
trap 'rm -f "$actual"' EXIT
# These arguments must stay the ones `selftest()` in perfbench/run.py passes
# (its `args` list): the recorded digests are that run's digests, and
# nothing else ties the two lists together.
for workload in aol_fresh aol_churn adversary; do
  "$binary" --workload "$workload" --seed 11 --seconds 0 --trace 1 \
    --small --rounds 3 | grep '^# digest' >>"$actual"
done

if [ "$print_only" = 1 ]; then
  cat "$actual"
  exit 0
fi
if ! diff -u "$expected" "$actual"; then
  echo "FAIL: answer digests differ from tools/perfbench_digests.txt" >&2
  exit 1
fi
echo "answer digests match ($(wc -l <"$actual") lines)"
