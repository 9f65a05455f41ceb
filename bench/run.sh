#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root. Everything it
# writes stays under bench/out/: the binary, the Go build cache, results,
# traces, temp files.
#
#   bash bench/run.sh -workload NAME -seed N [-seconds S] [-trace 0|1]   one run
#   bash bench/run.sh -agree                                             two sets, two seeds
#   bash bench/run.sh [-seed N] [-scale F] ...                           every workload,
#       one result-NAME.json each under bench/out/, a merged summary last
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/out"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/bin/unilog-bench" .)

cd "$(dirname "$here")"
bench=("$out/bin/unilog-bench" -out bench/out)

for arg in "$@"; do
  case "$arg" in
    -workload|--workload|-workload=*|--workload=*|-agree|--agree|-manifest|--manifest|-h|-help|--help)
      exec "${bench[@]}" "$@" ;;
  esac
done

status=0
summary=''
for w in deliver-day batch-sealed batch-rows-spill realtime-mixed cluster-scatter; do
  if line=$("${bench[@]}" -workload "$w" "$@" | tail -n 1); then
    summary+="${summary:+, }\"$w\": $line"
  else
    status=1
    summary+="${summary:+, }\"$w\": null"
  fi
done
# The merged summary: one object, one key per workload.
printf '{%s}\n' "$summary"
exit "$status"
