#!/usr/bin/env bash
# metrics-smoke: prove the telemetry endpoint works end to end.
#
# Runs unilog-demo with the /debug/unilog endpoint up and a post-run hold,
# scrapes the endpoint while the process is alive, and asserts that the
# JSON parses and that the ten load-bearing series are present and nonzero:
#
#   realtime.ingest.events — the streaming path counted events
#   events.names.entries   — the process-wide event-name table numbered names
#                            (a gauge func, so it survives telemetry.Reset)
#   realtime.snapshot.bytes — the durable counters cut a snapshot (the demo
#                             does at hour 10, ahead of its kill) and sized it
#   dataflow.spill.bytes   — the budgeted rollup job actually spilled
#   logmover.records       — the log mover published hours into the warehouse
#   columnar.seal.rows     — the mover sealed those hours into column chunks,
#                            re-cut from the chunk images the aggregators
#                            staged, as it read them back
#   logmover.files.sealed  — the staged client-events files took the sealed
#                            path, the one path the mover has for them
#   chunk.manifest.reads   — the demo's delivery count read the sealed hours'
#                            row counts back from their manifests
#   realtime.hours.rows    — the live counter's whole-hour reads summed hour
#                            cells into the rows SumPaths reads: the demo's
#                            mid-run TopK over the day so far (its -live
#                            print at hours 8 and 16, on by default)
#   realtime.wal.bytes     — the demo's durable counters logged their batches
#                            to the WAL, in the record layout that logs each
#                            country as its geo index
#
# Once the demo has finished its day (its "holding" line), the script also
# requires the demo's three verdict lines in its log:
#
#   reconcile <day>: OK — the live counter, killed and recovered mid-run,
#                         agrees exactly with the batch rollups
#   exactly once: true  — the warehouse holds every accepted event once
#   jump-free: true     — the lambda handover at midnight moved no number
#
# This is the guard against the classic observability failure mode: the
# metrics endpoint serves 200 OK forever while every counter silently
# reads zero. Run from the repo root; needs curl and jq (present on
# ubuntu-latest).
set -euo pipefail

PORT="${METRICS_SMOKE_PORT:-18472}"
POLL_SECONDS="${METRICS_SMOKE_TIMEOUT:-120}"
URL="http://127.0.0.1:${PORT}/debug/unilog?format=json"

# DEMO_PID is set before the demo starts so the trap is safe under set -u
# on every exit path, including failures before the launch.
DEMO_PID=""
OUT="$(mktemp -d)"
cleanup() {
  if [ -n "$DEMO_PID" ]; then
    kill "$DEMO_PID" 2>/dev/null || true
    wait "$DEMO_PID" 2>/dev/null || true
  fi
  rm -rf "$OUT"
}
trap cleanup EXIT

# Build first, run the binary directly: killing a `go run` wrapper can
# orphan the compiled child, which would then hold the port for the whole
# -hold window and wedge any retry.
echo "metrics-smoke: building unilog-demo"
go build -o "$OUT/unilog-demo" ./cmd/unilog-demo

echo "metrics-smoke: starting unilog-demo with telemetry on :${PORT}"
"$OUT/unilog-demo" -users 20 \
  -http "127.0.0.1:${PORT}" -hold 90s >"$OUT/demo.log" 2>&1 &
DEMO_PID=$!

# Poll until the endpoint answers with nonzero values for all ten series
# and the demo has finished its day, or time out with a clear error. The
# demo takes a few seconds to build its day of traffic and run the budgeted
# rollup; POLL_SECONDS x 1s is generous for a cold CI box.
for i in $(seq 1 "$POLL_SECONDS"); do
  if ! kill -0 "$DEMO_PID" 2>/dev/null; then
    echo "metrics-smoke: demo exited before the endpoint was scraped" >&2
    cat "$OUT/demo.log" >&2
    exit 1
  fi
  if curl -fsS "$URL" -o "$OUT/snap.json" 2>/dev/null &&
    jq -e '.series["realtime.ingest.events"] > 0 and .series["realtime.snapshot.bytes"] > 0
           and .series["events.names.entries"] > 0
           and .series["dataflow.spill.bytes"] > 0
           and .series["logmover.records"] > 0 and .series["columnar.seal.rows"] > 0
           and .series["logmover.files.sealed"] > 0
           and .series["chunk.manifest.reads"] > 0
           and .series["realtime.hours.rows"] > 0
           and .series["realtime.wal.bytes"] > 0' \
      "$OUT/snap.json" >/dev/null 2>&1 && grep -q '^holding ' "$OUT/demo.log"; then
    for verdict in '^reconcile .*: OK' 'exactly once: true' 'jump-free: true'; do
      if ! grep -q "$verdict" "$OUT/demo.log"; then
        echo "metrics-smoke: demo.log has no line matching '$verdict'" >&2
        cat "$OUT/demo.log" >&2
        exit 1
      fi
    done
    echo "metrics-smoke: OK after ${i}s"
    grep -E '^reconcile |exactly once: |jump-free: ' "$OUT/demo.log"
    jq '{ "realtime.ingest.events": .series["realtime.ingest.events"],
          "events.names.entries": .series["events.names.entries"],
          "realtime.snapshot.bytes": .series["realtime.snapshot.bytes"],
          "dataflow.spill.bytes": .series["dataflow.spill.bytes"],
          "logmover.records": .series["logmover.records"],
          "columnar.seal.rows": .series["columnar.seal.rows"],
          "logmover.files.sealed": .series["logmover.files.sealed"],
          "chunk.manifest.reads": .series["chunk.manifest.reads"],
          "realtime.hours.rows": .series["realtime.hours.rows"],
          "realtime.wal.bytes": .series["realtime.wal.bytes"],
          series_total: (.series | length),
          histograms_total: (.histograms | length) }' "$OUT/snap.json"
    exit 0
  fi
  sleep 1
done

echo "metrics-smoke: timed out after ${POLL_SECONDS}s waiting for nonzero telemetry at $URL" >&2
echo "--- last scrape (if any) ---" >&2
cat "$OUT/snap.json" >&2 2>/dev/null || true
echo "--- demo log ---" >&2
cat "$OUT/demo.log" >&2
exit 1
