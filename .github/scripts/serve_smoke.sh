#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke for `cedr serve`.
#
# Proves the server is a faithful network skin over the engine:
#
#   1. Run a late-arrival stream through the batch CLI (in-process
#      reference): one optimistic detection, one compensating
#      retraction, one surviving detection.
#   2. Start `cedr serve` with a WAL, register the same query over
#      HTTP, push a prefix of the stream over loopback, sync.
#   3. kill -9 the server (no shutdown, no drain).
#   4. Restart from the same WAL, assert the query was recovered,
#      push the rest of the stream, finish.
#   5. Assert the server's text results are byte-identical to the
#      in-process run — including the retraction emitted before the
#      crash — and that the surviving-alert count matches.
#   6. Assert a /stream subscription replays the same events, in order,
#      through the subscription egress.
#   7. Assert /metrics counted at least the streamed lines as egress
#      frames, and no overflow; and that the history counters' items
#      plus sync points are the query's stream, replayed from the WAL
#      and pushed since.
set -euo pipefail

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/cedr" ./cmd/cedr

cat >"$workdir/q.cedr" <<'EOF'
EVENT StuckHot
WHEN UNLESS(HOT h, COOL c, 10 seconds)
WHERE {h.sensor = c.sensor}
CONSISTENCY middle
EOF

# Prefix: HOT A, then HOT B — B's arrival advances the optimistic
# frontier past A's window, so middle consistency emits StuckHot(A).
cat >"$workdir/part1.csv" <<'EOF'
insert,1,HOT,1000,inf,sensor=A
insert,2,HOT,15000,inf,sensor=B
EOF
# Suffix: COOL A arrives late (out of arrival order) — the monitor
# repairs with a retraction of StuckHot(A); the CTI then finalizes
# StuckHot(B) as the only surviving detection.
cat >"$workdir/part2.csv" <<'EOF'
insert,3,COOL,4000,inf,sensor=A
cti,40000
EOF
cat "$workdir/part1.csv" "$workdir/part2.csv" >"$workdir/full.csv"

echo "== in-process reference run"
"$workdir/cedr" -query "$workdir/q.cedr" -events "$workdir/full.csv" \
    >"$workdir/batch.out"
# Batch output = one line per output event (inserts AND retractions,
# in delivery order) + a trailing summary line.
grep -v '^-- ' "$workdir/batch.out" >"$workdir/expected.txt"
expected_alerts=$(sed -n 's/^-- \([0-9]*\) surviving detection(s)$/\1/p' "$workdir/batch.out")
echo "reference: $(wc -l <"$workdir/expected.txt") output events, $expected_alerts surviving"
grep -q '^retract#' "$workdir/expected.txt" \
    || { echo "FAIL: reference run produced no retraction"; cat "$workdir/batch.out"; exit 1; }

http=127.0.0.1:4680
wal="$workdir/smoke.wal"

start_server() {
    "$workdir/cedr" serve -listen 127.0.0.1:4617 -http "$http" \
        -wal "$wal" -sync-every 1 >"$workdir/serve.log" 2>&1 &
    server_pid=$!
    disown "$server_pid" # keep kill -9 out of the job-control log
    for _ in $(seq 1 100); do
        curl -sf "http://$http/healthz" >/dev/null 2>&1 && return 0
        kill -0 "$server_pid" 2>/dev/null \
            || { echo "FAIL: server died on startup"; cat "$workdir/serve.log"; exit 1; }
        sleep 0.1
    done
    echo "FAIL: server did not come up"; cat "$workdir/serve.log"; exit 1
}

echo "== start server (WAL at $wal)"
start_server

echo "== register query over HTTP"
qid=$(curl -sf -X POST "http://$http/v1/queries" \
    -H 'Content-Type: application/json' \
    --data '{"src":"EVENT StuckHot\nWHEN UNLESS(HOT h, COOL c, 10 seconds)\nWHERE {h.sensor = c.sensor}\nCONSISTENCY middle"}' \
    | sed -n 's/.*"id": \([0-9]*\).*/\1/p')
[ -n "$qid" ] || { echo "FAIL: register returned no id"; exit 1; }
echo "registered query id=$qid"

echo "== push prefix over loopback (durable sync)"
curl -sf -X POST "http://$http/v1/events?sync=1" \
    -H 'Content-Type: text/csv' --data-binary @"$workdir/part1.csv" >/dev/null

echo "== kill -9"
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "== restart from WAL"
start_server
grep -q 'recovered 1 query' "$workdir/serve.log" \
    || { echo "FAIL: restart did not report recovery"; cat "$workdir/serve.log"; exit 1; }

echo "== push suffix, finish"
curl -sf -X POST "http://$http/v1/events?sync=1" \
    -H 'Content-Type: text/csv' --data-binary @"$workdir/part2.csv" >/dev/null
curl -sf -X POST "http://$http/v1/finish" >/dev/null

echo "== differential: server results vs in-process run"
curl -sf "http://$http/v1/queries/$qid/results?format=text" >"$workdir/server.txt"
if ! diff -u "$workdir/expected.txt" "$workdir/server.txt"; then
    echo "FAIL: server output diverges from in-process run"
    exit 1
fi
got_alerts=$(curl -sf "http://$http/v1/queries/$qid/results?format=text&alerts=1" | wc -l)
[ "$got_alerts" = "$expected_alerts" ] \
    || { echo "FAIL: $got_alerts surviving alerts, want $expected_alerts"; exit 1; }

echo "== /stream: the same history through the subscription egress"
# The stream stays open after replaying the history; --max-time ends it
# (curl exit 28).
rc=0
curl -sN --max-time 2 "http://$http/v1/queries/$qid/stream" >"$workdir/stream.ndjson" || rc=$?
[ "$rc" = 0 ] || [ "$rc" = 28 ] || { echo "FAIL: stream request failed ($rc)"; exit 1; }
# Tags count 0, 1, 2, ... in line order.
awk -F'[:,]' '$2 != NR - 1 { exit 1 }' "$workdir/stream.ndjson" \
    || { echo "FAIL: stream tags out of order"; cat "$workdir/stream.ndjson"; exit 1; }
# Its data lines, CTIs elided, are the text results' events in order...
sed -n 's/^{"tag":[0-9]*,"event":{"kind":"\([a-z]*\)","id":\([0-9]*\),"type":"\([^"]*\)".*/\1#\2 \3/p' \
    "$workdir/stream.ndjson" >"$workdir/stream.ids"
cut -d' ' -f1,2 "$workdir/server.txt" >"$workdir/text.ids"
if ! diff -u "$workdir/text.ids" "$workdir/stream.ids"; then
    echo "FAIL: stream events differ from the text results"
    exit 1
fi
# ...and every line's event, CTIs included, is byte-identical to the JSON
# results' element at its position.
sed 's/^{"tag":[0-9]*,"event":\(.*\)}$/\1/' "$workdir/stream.ndjson" >"$workdir/stream.events"
curl -sf "http://$http/v1/queries/$qid/results" \
    | sed -e 's/^\[//' -e 's/^ //' -e 's/\]$//' -e 's/,$//' >"$workdir/results.events"
if ! diff -u "$workdir/results.events" "$workdir/stream.events"; then
    echo "FAIL: stream events differ from the JSON results"
    exit 1
fi

echo "== /metrics: the egress counted what it streamed"
curl -sf "http://$http/metrics" >"$workdir/metrics.txt"
frames=$(sed -n 's/^cedr_egress_frames_total \([0-9]*\)$/\1/p' "$workdir/metrics.txt")
overflows=$(sed -n 's/^cedr_egress_overflows_total \([0-9]*\)$/\1/p' "$workdir/metrics.txt")
streamed=$(wc -l <"$workdir/stream.ndjson")
[ -n "$frames" ] && [ "$frames" -ge "$streamed" ] && [ "$overflows" = 0 ] \
    || { echo "FAIL: egress counted ${frames:-no} frames for $streamed streamed lines, ${overflows:-no} overflows"; cat "$workdir/metrics.txt"; exit 1; }
# The restarted process rebuilt the one chain's history by replaying the
# WAL: its history counters hold exactly the streamed lines.
items=$(sed -n 's/^cedr_history_items_total \([0-9]*\)$/\1/p' "$workdir/metrics.txt")
syncs=$(sed -n 's/^cedr_history_sync_points_total \([0-9]*\)$/\1/p' "$workdir/metrics.txt")
chunk_bytes=$(sed -n 's/^cedr_history_chunk_bytes_total \([0-9]*\)$/\1/p' "$workdir/metrics.txt")
[ -n "$items" ] && [ -n "$syncs" ] && [ -n "$chunk_bytes" ] && [ $((items + syncs)) = "$streamed" ] \
    || { echo "FAIL: history counted ${items:-no} items + ${syncs:-no} sync points for $streamed streamed lines"; cat "$workdir/metrics.txt"; exit 1; }
echo "history: $items items + $syncs sync points in $chunk_bytes chunk bytes"

echo "PASS: $(wc -l <"$workdir/server.txt") output events byte-identical across kill -9 + WAL restart, in the results and on /stream; $got_alerts surviving alert(s)"
