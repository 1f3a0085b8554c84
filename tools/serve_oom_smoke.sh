#!/bin/sh
# serve_oom_smoke.sh — a request that cannot fit in memory is refused, not
# fatal: the daemon answers it with a typed response and still drains.
#
#   tools/serve_oom_smoke.sh <rfidsched_serve> [vmem-kib]
#
# Runs rfidsched_serve under `ulimit -v` (default 1000000 KiB, about 1 GB)
# and feeds it one request inside every value cap whose coverage index is
# far larger than that: 20000 readers and 500000 tags on a 20x20 side.
# Once the response is out the daemon gets SIGTERM.
#
# Assertions:
#   * exactly one response line, status "failed", code "too-large";
#   * the daemon exits 6 (signal + clean drain), not 134 (std::terminate).
#
# Exit codes: 0 passed; 1 an assertion failed; 2 bad usage.
set -eu

SERVE=${1:?usage: serve_oom_smoke.sh <rfidsched_serve> [vmem-kib]}
VMEM=${2:-1000000}
[ -x "$SERVE" ] || { echo "missing $SERVE"; exit 2; }

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
FIFO="$TMP/req.fifo"
mkfifo "$FIFO"

(
  ulimit -v "$VMEM"
  exec "$SERVE" --workers 1 --retries 0 --mask-wall \
    < "$FIFO" > "$TMP/resp.jsonl" 2> "$TMP/serve.err"
) &
SERVE_PID=$!

# Hold the write end open so the daemon never sees EOF; it must be stopped
# by the signal.
exec 9> "$FIFO"
printf 'request dense\n  readers 20000\n  tags 500000\n  side 20\nend\n' >&9

# The build runs until the allocator gives up; allow it two minutes.
waited=0
while [ ! -s "$TMP/resp.jsonl" ] && kill -0 "$SERVE_PID" 2> /dev/null &&
      [ "$waited" -lt 1200 ]; do
  sleep 0.1
  waited=$((waited + 1))
done

kill -TERM "$SERVE_PID" 2> /dev/null || true
rc=0
wait "$SERVE_PID" || rc=$?
exec 9>&-

echo "serve_oom_smoke: daemon exited $rc"
cat "$TMP/serve.err"
cat "$TMP/resp.jsonl"

fail=0
if [ "$rc" -ne 6 ]; then
  echo "FAIL: expected exit 6 (signal + clean drain), got $rc"
  fail=1
fi
lines=$(wc -l < "$TMP/resp.jsonl")
if [ "$lines" -ne 1 ]; then
  echo "FAIL: expected exactly one response line, got $lines"
  fail=1
fi
if ! grep -q '"status":"failed","code":"too-large"' "$TMP/resp.jsonl"; then
  echo "FAIL: expected a failed/too-large response"
  fail=1
fi
exit "$fail"
