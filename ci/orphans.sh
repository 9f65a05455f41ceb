#!/usr/bin/env bash
# orphans: every internal package is on the pipeline, or out of the repository.
#
# A package under internal/ must be reachable (go list -deps) from a binary
# in cmd/, a program in examples/ or the benchmark module in bench/. A
# package that only its own tests or a root test import is code every sweep
# (fuzz, leak check, telemetry) has to cover or knowingly skip, so it is
# either wired in where the paper puts it or deleted. The allow-list below
# is the exception: a package kept for one named paper-section test.
#
# Prints the offenders and exits nonzero. Run from the repo root; needs
# nothing but the Go toolchain.
set -euo pipefail

# unilog/internal/legacy is held by the root TestSessionReconstructionCosts (§3.1/§4.1).
ALLOW="unilog/internal/legacy"

reached="$({ go list -deps ./cmd/... ./examples/...; (cd bench && go list -deps ./...); } | sort -u)"
orphans="$(comm -23 <(go list ./internal/... | sort) <(printf '%s\n%s\n' "$reached" "$ALLOW" | sort -u))"

if [ -n "$orphans" ]; then
  echo "internal packages reached from none of cmd/, examples/, bench/:" >&2
  echo "$orphans" >&2
  exit 1
fi
echo "orphans: every internal package is reachable from cmd/, examples/ or bench/ (allow-listed: $ALLOW)"
