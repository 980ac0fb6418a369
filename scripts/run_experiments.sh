#!/usr/bin/env bash
# Regenerate results/<figure>.txt (stdout only) for every entry of
# `bench --list`. Pass --full for paper-scale runs.
set -uo pipefail
cd "$(dirname "$0")/.."
cargo build --release -q -p iluvatar-bench || exit 1
mkdir -p results
failed=""
for f in $(./target/release/bench --list); do
  echo "=== $f ===" >&2
  ./target/release/bench --figure "$f" "$@" >"results/$f.txt" || failed="$failed $f"
done
if [[ -n "$failed" ]]; then
  echo "gate failed or figure crashed:$failed" >&2
  exit 1
fi
echo "all experiment outputs in results/" >&2
