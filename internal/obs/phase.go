package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// PhaseProfiler is the deterministic per-stage timer for a request pipeline:
// it attributes wall-clock cost to the named stages of the sim hot path
// (scheduler lookup, hash ownership, cache op, relay/ground path, shed tick,
// obs emit) or the replayer round trip (dial, frame-write, frame-read,
// retry), and exposes the attribution two ways — per-epoch seconds
// histograms under starcdn_phase_stage_seconds{pipeline,stage} and a
// whole-run Breakdown for reports.
//
// The measurement discipline mirrors Metrics/Tracer: marks only *read* the
// monotonic clock and add into write-only atomic accumulators — they never
// touch a seeded RNG stream, the request, or any simulation state — so
// results are byte-identical with phases on or off. A nil *PhaseProfiler is
// the disabled configuration: Clock returns an inert clock whose marks cost
// one pointer test and never read the clock.
//
// Per-request cost when enabled is one monotonic-clock read and one atomic
// add per stage boundary (a mark chain: each Mark both closes the previous
// stage and opens the next, and sim.Run begins the chain once per run, not
// once per request). A mark measures ~50 ns on the 2.10 GHz host
// (BenchmarkPhaseMark in BENCH_obs.json), and sim.Run makes five per cache
// hit and six per miss: 250–300 ns per request, next to the ~350 ns a dense
// request costs with observability off. Nearly all of it is the clock read.
//
// Aggregation is epoch-based: marks accumulate nanoseconds per stage;
// FlushEpoch drains the accumulators into the histograms (one observation =
// one epoch's seconds in that stage). Bind the profiler to a flight recorder
// with BindRecorder so flushes ride the recorder's epoch cadence and the
// per-epoch stage costs land in the same /timeseries.json epochs as every
// other series.
type PhaseProfiler struct {
	pipeline string
	stages   []string
	hists    []*Histogram
	accum    []atomic.Int64 // ns per stage since the last flush
	flushed  []atomic.Int64 // ns per stage drained by past flushes
	epochs   atomic.Int64   // flushes that recorded at least one stage
}

// DefPhaseBucketsSec is the default bucket geometry of the per-epoch stage
// histograms: an epoch's time in one stage ranges from microseconds (an idle
// stage over a short epoch) to whole seconds (the dominant stage of a busy
// wall-clock epoch).
var DefPhaseBucketsSec = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Sim pipeline stage indices, aligned with SimPhaseStages. The runner marks
// shed/sched/obs; the StarCDN policy marks hash/cache/relay as the request
// traverses Serve (policies without internal marks leave their serve time
// attributed to the obs stage).
const (
	PhaseSimShed  = iota // failure cursor, shed-controller tick, recorder tick
	PhaseSimSched        // first-contact lookup through pre-serve setup
	PhaseSimHash         // bucket ownership, shed checks, ISL route latency
	PhaseSimCache        // owner cache get
	PhaseSimRelay        // relay probes, neighbour serve, ground fetch, admits
	PhaseSimObs          // user link, meters, instruments, span emit
)

// Replay pipeline stage indices, aligned with ReplayPhaseStages.
const (
	PhaseReplayDial  = iota // dial plus the per-connection hello negotiation
	PhaseReplayWrite        // deadline arm, trace-context and request frames
	PhaseReplayRead         // response frame read
	PhaseReplayRetry        // backoff sleeps between attempts
)

// SimPhaseStages and ReplayPhaseStages are the canonical stage vocabularies
// of the two instrumented pipelines, indexed by the PhaseSim*/PhaseReplay*
// constants.
var (
	SimPhaseStages    = []string{"shed", "sched", "hash", "cache", "relay", "obs"}
	ReplayPhaseStages = []string{"dial", "frame-write", "frame-read", "retry"}
)

// NewPhaseProfiler builds a profiler for a pipeline with the given stage
// names. A nil registry is allowed: the profiler still accumulates (Breakdown
// works, e.g. for a CLI run without a metrics endpoint) but registers no
// histogram series. Use NewSimPhases/NewReplayPhases for the canonical
// pipelines — their stage indices are what sim.Run and the replay client
// mark.
func NewPhaseProfiler(reg *Registry, pipeline string, stages ...string) *PhaseProfiler {
	p := &PhaseProfiler{
		pipeline: pipeline,
		stages:   append([]string(nil), stages...),
		hists:    make([]*Histogram, len(stages)),
		accum:    make([]atomic.Int64, len(stages)),
		flushed:  make([]atomic.Int64, len(stages)),
	}
	if reg != nil {
		for i, st := range p.stages {
			p.hists[i] = reg.Histogram("starcdn_phase_stage_seconds",
				DefPhaseBucketsSec, L("pipeline", pipeline), L("stage", st))
		}
	}
	return p
}

// NewSimPhases builds the sim-pipeline profiler (stage indices PhaseSim*).
// Pass it as sim.Config.Phases.
func NewSimPhases(reg *Registry) *PhaseProfiler {
	return NewPhaseProfiler(reg, "sim", SimPhaseStages...)
}

// NewReplayPhases builds the replay-pipeline profiler (stage indices
// PhaseReplay*). Pass it as replayer Options.Phases.
func NewReplayPhases(reg *Registry) *PhaseProfiler {
	return NewPhaseProfiler(reg, "replay", ReplayPhaseStages...)
}

// Pipeline returns the profiler's pipeline label ("" on nil).
func (p *PhaseProfiler) Pipeline() string {
	if p == nil {
		return ""
	}
	return p.pipeline
}

// Stages returns a copy of the stage vocabulary (nil on nil).
func (p *PhaseProfiler) Stages() []string {
	if p == nil {
		return nil
	}
	return append([]string(nil), p.stages...)
}

// phaseBase anchors the profiler's clock: reading it via time.Since stays on
// the runtime's monotonic clock (immune to wall-clock steps), which is the
// cheapest portable nanotime the stdlib offers.
var phaseBase = time.Now()

// phaseNowNs reads the monotonic clock in nanoseconds.
func phaseNowNs() int64 {
	//lint:ignore simtime phase timers measure wall-clock cost by design; durations feed write-only accumulators and exposition histograms, never simulation state or a seeded RNG stream
	return int64(time.Since(phaseBase))
}

// PhaseClock is one execution strand's mark chain: Begin stamps the chain's
// start, and each Mark closes the stage that just ran (crediting the time
// since the previous mark) while opening the next. Clocks are cheap values —
// take one per request loop or per round trip; concurrent strands each hold
// their own clock and meet only at the profiler's atomic accumulators.
//
// All methods are safe on a clock obtained from a nil profiler: they cost a
// pointer test and never read the clock, preserving the obs-off fast path.
type PhaseClock struct {
	p    *PhaseProfiler
	last int64
}

// Clock returns a mark-chain clock feeding p (inert when p is nil).
func (p *PhaseProfiler) Clock() PhaseClock { return PhaseClock{p: p} }

// Begin stamps the start of a mark chain.
func (c *PhaseClock) Begin() {
	if c == nil || c.p == nil {
		return
	}
	c.last = phaseNowNs()
}

// Mark credits the time since the previous mark (or Begin) to stage and
// advances the chain. Out-of-range stages advance the chain without
// crediting, so a mismatched profiler degrades to missing attribution rather
// than a panic on the hot path.
func (c *PhaseClock) Mark(stage int) {
	if c == nil || c.p == nil {
		return
	}
	now := phaseNowNs()
	if uint(stage) < uint(len(c.p.accum)) {
		c.p.accum[stage].Add(now - c.last)
	}
	c.last = now
}

// FlushEpoch drains the per-stage accumulators into the histograms: each
// stage with nonzero time this epoch records one observation of its seconds.
// Idle stages observe nothing (a zero would pollute the lowest bucket), and
// an all-idle flush is free. Nil-safe.
//
// Callers either bind the profiler to a flight recorder (BindRecorder), in
// which case flushes ride the recorder's epochs, or flush once at the end of
// a run — sim.Run does the latter unconditionally, which is a no-op when the
// recorder's Seal already drained the tail.
func (p *PhaseProfiler) FlushEpoch() {
	if p == nil {
		return
	}
	any := false
	for i := range p.accum {
		ns := p.accum[i].Swap(0)
		if ns <= 0 {
			continue
		}
		any = true
		p.flushed[i].Add(ns)
		p.hists[i].Observe(float64(ns) / 1e9)
	}
	if any {
		p.epochs.Add(1)
	}
}

// BindRecorder flushes the profiler on every recorder epoch, inside the
// snapshot, so the per-epoch stage seconds land in the same epoch's rings as
// every other series. Nil-safe on both sides.
func (p *PhaseProfiler) BindRecorder(rec *Recorder) {
	if p == nil || rec == nil {
		return
	}
	rec.OnEpochPre(func(float64) { p.FlushEpoch() })
}

// Epochs returns how many flushes recorded at least one stage (0 on nil).
func (p *PhaseProfiler) Epochs() int64 {
	if p == nil {
		return 0
	}
	return p.epochs.Load()
}

// PhaseStageSeconds is one stage's share of a Breakdown.
type PhaseStageSeconds struct {
	Stage    string
	Seconds  float64
	Fraction float64 // of the pipeline total (0 when the total is 0)
}

// Breakdown returns the cumulative per-stage attribution — flushed epochs
// plus the un-flushed residue — in stage order. Nil profilers return nil.
func (p *PhaseProfiler) Breakdown() []PhaseStageSeconds {
	if p == nil {
		return nil
	}
	out := make([]PhaseStageSeconds, len(p.stages))
	total := 0.0
	for i, st := range p.stages {
		ns := p.flushed[i].Load() + p.accum[i].Load()
		out[i] = PhaseStageSeconds{Stage: st, Seconds: float64(ns) / 1e9}
		total += out[i].Seconds
	}
	if total > 0 {
		for i := range out {
			out[i].Fraction = out[i].Seconds / total
		}
	}
	return out
}

// String renders the breakdown as a fixed-width table, dominant stage first
// ("" on nil) — the end-of-run report starcdn-sim and starcdn-replay print
// with -phases.
func (p *PhaseProfiler) String() string {
	if p == nil {
		return ""
	}
	bd := p.Breakdown()
	sort.SliceStable(bd, func(i, j int) bool { return bd[i].Seconds > bd[j].Seconds })
	var b strings.Builder
	fmt.Fprintf(&b, "phase breakdown (%s):\n", p.pipeline)
	fmt.Fprintf(&b, "  %-12s %12s %8s\n", "stage", "seconds", "share")
	total := 0.0
	for _, s := range bd {
		fmt.Fprintf(&b, "  %-12s %12.6f %7.1f%%\n", s.Stage, s.Seconds, s.Fraction*100)
		total += s.Seconds
	}
	fmt.Fprintf(&b, "  %-12s %12.6f\n", "total", total)
	return b.String()
}
