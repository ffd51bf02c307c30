# StarCDN build/verify entry points. `make check` is the single CI gate:
# every PR must leave it green (see scripts/check.sh for the steps).

GO ?= go

.PHONY: all build test check lint waivers fmt bench bench-check bench-update race chaos obs reports fuzz clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## check: the repository's CI gate — fmt, vet, starcdn-lint + waiver audit,
## build, race tests, a chaos pass, an obs smoke, a bench smoke, the report
## goldens, and the starcdn-bench regression gate (the hard allocs/op budgets). Independent
## steps run concurrently and each reports its wall-clock time
## (scripts/check.sh).
check:
	sh scripts/check.sh

## lint: run only the StarCDN static-analysis suite (type-checked engine,
## see cmd/starcdn-lint and DESIGN.md §7).
lint:
	$(GO) run ./cmd/starcdn-lint ./...

## waivers: audit every //lint:ignore directive — rule, reason, position —
## and fail on stale waivers (lines that no longer trigger the rule).
waivers:
	$(GO) run ./cmd/starcdn-lint -waivers ./...

fmt:
	gofmt -w $(shell gofmt -l . | grep -v '^cmd/starcdn-lint/testdata/')

## bench: full benchmark run (figures regenerate; see bench_test.go).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

## bench-check: the statistical regression harness — rerun the recorded
## per-operation suite at -count=8 and compare against the committed
## BENCH_*.json with Mann-Whitney U at the medians, plus the allocs/op budgets
## (67-71 s on a 2-vCPU Xeon host; DESIGN.md §11). `make check` runs the
## cheap smoke mode of the same gate.
bench-check:
	$(GO) run ./cmd/starcdn-bench -check

## bench-update: refresh the BENCH_*.json baselines in place from a full
## statistical run; commit the diff alongside the change that explains it.
bench-update:
	$(GO) run ./cmd/starcdn-bench -update

race:
	$(GO) test -race ./...

## chaos: the fault-injection and failure-schedule suites under the race
## detector (DESIGN.md §8); `make check` runs this target as its chaos pass,
## so the list lives here only. TestDifferential is the sim-vs-replay oracle,
## whose hashing-off cases under a kill schedule put a dead first contact
## through the §3.4 rule in both pipelines. The TestShed
## matches are the overload-control smoke: a kill schedule with shedding on
## recovers to stage 0 holding the latency SLO (sim), sheds in a sequential
## TCP replay exactly the requests sim.Run sheds (replayer parity), and an
## idle controller leaves every meter byte-identical; ./internal/shed runs
## the stage-machine unit suite under the race detector too. The last line repeats sim.Run's pipeline
## tests twenty times: the consumer's lifecycle with the fold on either
## goroutine (no obs fold, tracer only, shorter than a batch, recorder
## barriers) and the pinned obs artifacts. A handoff race shows only under
## repetition. The next line repeats the lock-free replay client's tests ten
## times: the pipelined window, whose flushes run on whichever worker blocks
## last, against the sequential replay, and eight clients each with its own
## pool.
chaos:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestDifferential|TestGenerateChaos|TestFault|TestClientRetries|TestClientExhausts|TestClientDeadline|TestServerSide|TestReplayDeadServer|TestFailureSchedule|TestShed' \
		./internal/replayer/ ./internal/sim/
	$(GO) test -race -count=1 ./internal/shed/
	$(GO) test -race -count=20 -run 'TestRunPipelineLifecycle|TestObsArtifactsPinned' ./internal/sim/
	$(GO) test -race -count=10 -run 'TestReplayConcurrentEqualsSequential|TestConcurrentClients' ./internal/replayer/

## obs: end-to-end observability smoke — live /metrics + pprof scrape during
## a TCP replay, then span summarisation with starcdn-trace (DESIGN.md §9).
obs:
	sh scripts/obs_smoke.sh

## reports: regenerate the experiment-report goldens that `make check` diffs
## against (`starcdn-sim -experiment all` at seeds 42 and 107, ~20 s each);
## commit the diff alongside the change that explains it.
reports:
	$(GO) run ./cmd/starcdn-sim -experiment all -seed 42 > testdata/reports/small-seed42.txt
	$(GO) run ./cmd/starcdn-sim -experiment all -seed 107 > testdata/reports/small-seed107.txt

## fuzz: run every fuzz target in the tree for FUZZTIME each, one at a time
## (`go test -fuzz` takes one target per run) — the wire-fuzzing gate: a change
## to the frame format or the server's handler runs the two replayer targets
## for 60 s each. Not part of `make check`: `go test` already replays the seed
## corpora.
## A finding lands in the package's testdata/fuzz; fix it and commit the file.
## FuzzServerHandle's execs are loopback dials with scheduler-dependent
## coverage, so the default 60 s shrink of every new input stalls it at 0
## execs/s; 100 shrink attempts keep it exploring.
FUZZTIME ?= 60s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParseTLE$$' -fuzztime=$(FUZZTIME) ./internal/orbit/
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run='^$$' -fuzz='^FuzzSort$$' -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run='^$$' -fuzz='^FuzzServerHandle$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x ./internal/replayer/
	$(GO) test -run='^$$' -fuzz='^FuzzFrameRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/replayer/

clean:
	$(GO) clean ./...
