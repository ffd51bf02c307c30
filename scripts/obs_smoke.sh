#!/usr/bin/env sh
# scripts/obs_smoke.sh — end-to-end smoke test of the observability layer.
#
# Builds the tool chain, replays a small synthetic trace through the TCP
# cluster with a live metrics endpoint and rate-1 span tracing, then proves
# the whole loop works from the outside, over the listener's five endpoints
# (/metrics, /metrics.json, /timeseries.json, /healthz, /debug/pprof):
#
#   1. /healthz answers with its JSON body (200, or 503 if the first recorder
#      epoch has already found the armed hit-rate SLO burning on cold caches)
#   2. /metrics exposes source-labelled replay counters, server-side hit-rate
#      gauges, and client retry counters in Prometheus text format
#   3. /metrics.json carries the same counters as JSON
#   4. /debug/pprof/profile returns a non-empty CPU profile
#   5. /timeseries.json answers 200 while the flight recorder is live (1s
#      wall epochs), serves the served counter as per-epoch deltas, and
#      records the armed hit-rate SLO's burn rate
#   6. starcdn-trace summarises the emitted spans (per-source latency table)
#   7. /metrics.json exposes the streaming-sketch hot set (-sketches):
#      top-K object popularity with per-entry trace exemplars and a
#      wall-latency quantile sketch
#   8. cross-process trace round trip: with -trace-propagate the server's
#      spans join the client's traces; starcdn-trace -assemble stitches the
#      two span files into exactly one rooted tree per sampled request with
#      zero orphan spans
#   9. performance observability (-phases + the always-on runtime bridge):
#      /metrics exposes starcdn_phase_stage_seconds histograms and
#      starcdn_go_* runtime gauges, /healthz carries the compact runtime
#      line, and the replay prints its end-of-run phase breakdown
#
# Usage: scripts/obs_smoke.sh   (or `make obs`)
set -eu

cd "$(dirname "$0")/.."

step() {
	printf '== %s\n' "$*"
}

WORK=$(mktemp -d "${TMPDIR:-/tmp}/starcdn-obs.XXXXXX")
REPLAY_PID=""
cleanup() {
	if [ -n "$REPLAY_PID" ] && kill -0 "$REPLAY_PID" 2>/dev/null; then
		kill "$REPLAY_PID" 2>/dev/null || true
		wait "$REPLAY_PID" 2>/dev/null || true
	fi
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

step "build tools"
go build -o "$WORK/spacegen" ./cmd/spacegen
go build -o "$WORK/starcdn-replay" ./cmd/starcdn-replay
go build -o "$WORK/starcdn-trace" ./cmd/starcdn-trace

step "generate trace (4000 web requests)"
"$WORK/spacegen" -synthesize-production -class web -requests 4000 \
	-duration 600 -seed 7 -out "$WORK/web.sctr" >/dev/null

step "replay with metrics + recorder + sketches + phases + propagated tracing"
"$WORK/starcdn-replay" -in "$WORK/web.sctr" -cache-mb 64 -buckets 4 -fault \
	-metrics-addr 127.0.0.1:0 -metrics-linger 30s -sketches -phases \
	-record-epoch 1s -slo-hit-rate 0.1 -slo-window 10s \
	-trace-out "$WORK/spans.jsonl" -trace-sample 1 \
	-trace-propagate -server-trace-out "$WORK/server-spans.jsonl" \
	>"$WORK/replay.out" 2>&1 &
REPLAY_PID=$!

# The replay prints the resolved listen address on stdout; poll for it.
ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR=$(sed -n 's/^metrics: listening on //p' "$WORK/replay.out" | head -n1)
	[ -n "$ADDR" ] && break
	if ! kill -0 "$REPLAY_PID" 2>/dev/null; then
		echo "replay exited before publishing the metrics address:" >&2
		cat "$WORK/replay.out" >&2
		exit 1
	fi
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$ADDR" ]; then
	echo "metrics address never appeared in replay output" >&2
	cat "$WORK/replay.out" >&2
	exit 1
fi
echo "   metrics endpoint: $ADDR"

step "scrape /healthz"
# No -f: a short replay can seal its first epoch before this scrape, and the
# cold-cache hit rate sits below the armed SLO, which turns /healthz to 503.
curl -sS "http://$ADDR/healthz" >"$WORK/healthz.json"
grep -q '"ok"' "$WORK/healthz.json" || {
	echo "healthz body missing ok field" >&2
	exit 1
}
# The runtime bridge feeds /healthz its compact one-line summary.
grep -q '"runtime":"goroutines=' "$WORK/healthz.json" || {
	echo "healthz missing the runtime bridge line" >&2
	cat "$WORK/healthz.json" >&2
	exit 1
}

step "scrape /debug/pprof/profile (1s CPU profile during replay)"
curl -fsS "http://$ADDR/debug/pprof/profile?seconds=1" -o "$WORK/cpu.pb.gz"
[ -s "$WORK/cpu.pb.gz" ] || { echo "empty CPU profile" >&2; exit 1; }

# Wait for the replay itself to finish (the endpoint lingers afterwards) so
# the final scrape sees complete counters.
j=0
while ! grep -q '^wall time:' "$WORK/replay.out"; do
	if ! kill -0 "$REPLAY_PID" 2>/dev/null; then
		echo "replay died before finishing:" >&2
		cat "$WORK/replay.out" >&2
		exit 1
	fi
	j=$((j + 1))
	[ $j -gt 600 ] && { echo "replay did not finish in 60s" >&2; exit 1; }
	sleep 0.1
done

step "scrape /metrics (final counters)"
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.txt"
for series in \
	'starcdn_replay_requests_total{source="' \
	'starcdn_server_hit_rate{' \
	'starcdn_client_attempts_total' \
	'starcdn_phase_stage_seconds' \
	'starcdn_go_goroutines'; do
	grep -q "$series" "$WORK/metrics.txt" || {
		echo "metrics exposition missing $series" >&2
		head -50 "$WORK/metrics.txt" >&2
		exit 1
	}
done

step "scrape /metrics.json (counters, hot-set sketches + exemplars)"
curl -fsS "http://$ADDR/metrics.json" >"$WORK/metrics.json"
for want in \
	'"starcdn_replay_requests_total{source=' \
	'"starcdn_popularity_objects": {' \
	'"starcdn_sketch_replay_wall_ms": {' \
	'"kind": "topk"' \
	'"kind": "sketch"'; do
	grep -q "$want" "$WORK/metrics.json" || {
		echo "json exposition missing $want" >&2
		head -40 "$WORK/metrics.json" >&2
		exit 1
	}
done
# Rate-1 tracing means every top-K entry and quantile bucket carries a trace
# exemplar — the "give me a trace of a hot request" handle.
grep -q '"trace": "[0-9a-f]' "$WORK/metrics.json" || {
	echo "top-K entries carry no trace exemplars" >&2
	head -40 "$WORK/metrics.json" >&2
	exit 1
}

step "scrape /timeseries.json (flight recorder)"
curl -fsS "http://$ADDR/timeseries.json" | grep -q '"epoch_sec"' || {
	echo "timeseries response missing epoch_sec" >&2
	exit 1
}
curl -fsS "http://$ADDR/timeseries.json?match=starcdn_replay_served_total&form=delta" \
	| grep -q 'starcdn_replay_served_total' || {
	echo "timeseries missing the recorded served counter" >&2
	exit 1
}

# The armed SLO exports its burn rate back into the registry, so the
# recorder carries it like any other series.
curl -fsS "http://$ADDR/timeseries.json?match=starcdn_slo_burn_rate" \
	| grep -q 'starcdn_slo_burn_rate{slo=\\"hit-rate\\"}' || {
	echo "timeseries missing the armed SLO's burn rate" >&2
	exit 1
}

kill "$REPLAY_PID" 2>/dev/null || true
wait "$REPLAY_PID" 2>/dev/null || true
REPLAY_PID=""

# The replay's own stdout summarises the hot set when -sketches is on and
# the round-trip stage attribution when -phases is on.
for line in '^hot objects:' '^wire latency:' '^phase breakdown (replay):'; do
	grep -q "$line" "$WORK/replay.out" || {
		echo "replay output missing \"$line\" summary" >&2
		grep -v '^metrics:' "$WORK/replay.out" >&2
		exit 1
	}
done

step "summarise spans with starcdn-trace"
[ -s "$WORK/spans.jsonl" ] || { echo "no spans were written" >&2; exit 1; }
"$WORK/starcdn-trace" -in "$WORK/spans.jsonl" -top 5 >"$WORK/trace.out"
grep -q 'per-source latency' "$WORK/trace.out" || {
	echo "trace summary missing per-source latency table" >&2
	cat "$WORK/trace.out" >&2
	exit 1
}
sed 's/^/   /' "$WORK/trace.out" | head -20

step "assemble cross-process trace trees"
[ -s "$WORK/server-spans.jsonl" ] || { echo "no server spans were written" >&2; exit 1; }
"$WORK/starcdn-trace" -assemble -top 3 \
	-in "$WORK/spans.jsonl,$WORK/server-spans.jsonl" >"$WORK/assemble.out"
# Every request was sampled (rate 1), so each request must assemble into
# exactly one rooted tree, and every server span must find its parent
# (adopted relay probes included): zero orphans, zero untraced.
REQS=$(sed -n 's/^requests:[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$WORK/replay.out" | head -n1)
[ -n "$REQS" ] || { echo "request count not found in replay output" >&2; exit 1; }
for want in \
	"rooted trees:  $REQS" \
	'orphan spans:  0'; do
	grep -q "$want" "$WORK/assemble.out" || {
		echo "assembly summary missing \"$want\":" >&2
		head -20 "$WORK/assemble.out" >&2
		exit 1
	}
done
# The untraced line only prints when spans lacked a trace ID; with
# propagation on, its presence is a failure.
if grep -q '^untraced:' "$WORK/assemble.out"; then
	echo "assembly found untraced spans despite propagation:" >&2
	head -20 "$WORK/assemble.out" >&2
	exit 1
fi
sed 's/^/   /' "$WORK/assemble.out" | head -15

step "obs smoke passed"
