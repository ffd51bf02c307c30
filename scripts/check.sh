#!/usr/bin/env sh
# scripts/check.sh — the repository's single CI gate.
#
# Steps are grouped into phases: steps inside a phase are independent of
# each other and run concurrently (the go build cache is safe under
# concurrent invocations); phases run in order because later ones consume
# what earlier ones prove (no point racing tests against a broken build).
# Every step reports its wall-clock time so budget regressions show up in
# the CI output itself.
#
#   phase 1 (static):  gofmt, go vet, starcdn-lint, starcdn-lint -waivers
#   phase 2 (build):   go build
#   phase 3 (test):    go test -race
#   phase 4 (smoke):   chaos pass, obs smoke, bench smoke, report goldens
#   phase 5 (perf):    starcdn-bench regression gate (the hard allocs/op
#                      budgets — the tree's single allocation gate)
#
# Usage: scripts/check.sh   (or `make check`)
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d "${TMPDIR:-/tmp}/starcdn-check.XXXXXX")
trap 'rm -rf "$TMP"' EXIT INT TERM

TOTAL_START=$(date +%s.%N)

# --- step bodies ------------------------------------------------------

step_gofmt() {
	unformatted=$(gofmt -l . | grep -v '^cmd/starcdn-lint/testdata/' || true)
	if [ -n "$unformatted" ]; then
		echo "gofmt: the following files need formatting:"
		echo "$unformatted"
		return 1
	fi
}

step_vet() { go vet ./...; }

step_lint() { go run ./cmd/starcdn-lint ./...; }

# The waiver ledger: every //lint:ignore must carry a reason and still
# suppress something; stale waivers fail the gate (DESIGN.md §7).
step_waivers() { go run ./cmd/starcdn-lint -waivers ./...; }

step_build() { go build ./...; }

step_test_race() { go test -race ./...; }

# Seeded fault schedules + injected network faults through the TCP
# replayer and the overload-control smoke, under the race detector
# (DESIGN.md §8). The test list is `make chaos`'s.
step_chaos() { make -s chaos; }

# Live /metrics + /healthz + pprof scrape during a TCP replay, then span
# summarisation with starcdn-trace (DESIGN.md §9). Binds only ephemeral
# ports, so it is safe next to the chaos pass.
step_obs() { sh scripts/obs_smoke.sh; }

step_bench() { go test -run='^$' -bench=. -benchtime=1x ./... >/dev/null; }

# The experiment reports are a gated artifact: `starcdn-sim -experiment all`
# is byte-deterministic per seed, so both runs must equal the committed
# goldens (testdata/reports). An intended change regenerates them with
# `make reports` in the same commit, and the golden diff is the review.
step_reports() {
	go build -o "$TMP/starcdn-sim" ./cmd/starcdn-sim || return 1
	for seed in 42 107; do
		"$TMP/starcdn-sim" -experiment all -seed "$seed" >"$TMP/report-$seed.txt" 2>/dev/null || return 1
		diff -u "testdata/reports/small-seed$seed.txt" "$TMP/report-$seed.txt" || return 1
	done
}

# The statistical benchmark harness in CI smoke mode: one cheap run per
# smoke-capable benchmark against the committed BENCH_*.json baselines,
# enforcing the hard allocs/op budgets (seeded, so exact at one run) and
# nothing else — a single run's wall time is printed, not judged. Wall-clock
# comparisons need the 8-run mode (`make bench-check`, DESIGN.md §11).
step_benchgate() { go run ./cmd/starcdn-bench -check -smoke; }

# --- phase driver -----------------------------------------------------

# spawn <id> <fn>: run a step body in the background, capturing its output
# and wall-clock time under $TMP/<id>.*.
spawn() {
	s_id=$1
	s_fn=$2
	(
		start=$(date +%s.%N)
		rc=0
		"$s_fn" >"$TMP/$s_id.log" 2>&1 || rc=$?
		end=$(date +%s.%N)
		awk -v s="$start" -v e="$end" 'BEGIN { printf "%.1f", e - s }' >"$TMP/$s_id.time"
		exit "$rc"
	) &
	eval "pid_$s_id=\$!"
}

# reap <id> <label>: wait for a spawned step, then print its status line
# (with timing) followed by whatever it wrote.
FAILED=0
reap() {
	r_id=$1
	r_label=$2
	rc=0
	eval "wait \"\$pid_$r_id\"" || rc=$?
	secs=$(cat "$TMP/$r_id.time" 2>/dev/null || echo '?')
	if [ "$rc" -eq 0 ]; then
		printf '== ok   %6ss  %s\n' "$secs" "$r_label"
	else
		printf '== FAIL %6ss  %s (exit %d)\n' "$secs" "$r_label" "$rc"
		FAILED=1
	fi
	cat "$TMP/$r_id.log" 2>/dev/null || true
}

# gate <phase>: stop at a phase boundary if anything in it failed.
gate() {
	if [ "$FAILED" -ne 0 ]; then
		echo "check FAILED in $1 phase" >&2
		exit 1
	fi
}

# --- phases -----------------------------------------------------------

spawn fmt step_gofmt
spawn vet step_vet
spawn lint step_lint
spawn waivers step_waivers
reap fmt "gofmt"
reap vet "go vet ./..."
reap lint "starcdn-lint ./..."
reap waivers "starcdn-lint -waivers ./... (waiver audit)"
gate static

spawn build step_build
reap build "go build ./..."
gate build

spawn trace step_test_race
reap trace "go test -race ./..."
gate test

spawn chaos step_chaos
spawn obs step_obs
spawn bench step_bench
spawn reports step_reports
reap chaos "chaos pass (-race)"
reap obs "obs smoke (metrics endpoint + span tracing)"
reap bench "bench smoke (-bench=. -benchtime=1x)"
reap reports "report goldens (starcdn-sim -experiment all, seeds 42 and 107)"
gate smoke

spawn benchgate step_benchgate
reap benchgate "starcdn-bench -check -smoke (BENCH_core.json gate)"
gate perf

TOTAL_END=$(date +%s.%N)
awk -v s="$TOTAL_START" -v e="$TOTAL_END" \
	'BEGIN { printf "== check passed in %.1fs\n", e - s }'
