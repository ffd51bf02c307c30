package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// PhaseProfiler is the deterministic per-stage timer for a request pipeline:
// it attributes wall-clock cost to the named stages of the sim hot path
// (failure cursor and recorder tick, scheduler lookup, hash ownership, cache
// op, relay/ground path, obs emit) or the replayer round trip (dial, frame-write, frame-read,
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
// A lit mark is one monotonic-clock read and one atomic add per stage
// boundary (a mark chain: each Mark both closes the previous stage and opens
// the next, and sim.Run begins the chain once per run, not once per
// request); nearly all of it is the clock read. A loop that also tells its
// clock where a request ends (PhaseClock.Lap, which sim.Run calls) runs a
// strided chain: one request in phaseStride is lit and pays those marks, the
// rest are dark — a dark Mark is one branch — and the dark stretch is timed
// by the single clock read that ends it. What that buys and what it costs:
//
//   - Totals are exact. Lit nanoseconds plus dark nanoseconds is the wall
//     time from Begin to the last lit mark; only the run's final dark stretch
//     (under phaseStride requests), which no clock read closes, is left out.
//   - The split is sampled. Each flush spreads its dark time over the stages
//     in the proportions its own lit requests measured, so a stage's seconds
//     are an estimate from every phaseStride-th request. A stage that costs
//     about the same on every request is estimated well; one whose cost sits
//     in a few dozen requests per flush (a cold scheduler epoch, the recorder
//     snapshot inside the shed stage) is estimated noisily — it is seen at
//     full size when one of those requests is lit and not at all otherwise.
//   - A chain that never calls Lap (the replayer's per-round-trip clocks)
//     stays fully lit and is measured exactly, as before.
//
// BenchmarkPhaseMark in BENCH_obs.json prices the three cases (sim, sim/dark,
// sim/strided).
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
	accum    []atomic.Int64 // lit ns per stage since the last flush
	dark     atomic.Int64   // ns of closed dark stretches not yet spread over the stages
	flushed  []atomic.Int64 // ns per stage drained by past flushes
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
	PhaseSimShed  = iota // failure cursor, recorder tick
	PhaseSimSched        // first-contact lookup through pre-serve setup
	PhaseSimHash         // bucket ownership, ISL route latency
	PhaseSimCache        // owner cache get
	PhaseSimRelay        // relay probes, neighbour serve, ground fetch, admits
	PhaseSimObs          // user link, meters, instruments, span emit
)

// Replay pipeline stage indices, aligned with ReplayPhaseStages.
const (
	PhaseReplayDial  = iota // dial of a fresh pooled connection
	PhaseReplayWrite        // deadline arm, trace-context and request frames
	PhaseReplayRead         // response frame read
	PhaseReplayRetry        // backoff sleeps between attempts
)

// SimPhaseStages and ReplayPhaseStages are the canonical stage vocabularies
// of the two instrumented pipelines, indexed by the PhaseSim*/PhaseReplay*
// constants. The first sim stage keeps the label "shed" although it times
// only the failure cursor and the recorder tick: the benchmark reports it as
// sim.phase.shed_share, and a rename waits for a change to the benchmark.
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

// phaseBase anchors the profiler's clock: reading it via time.Since stays on
// the runtime's monotonic clock (immune to wall-clock steps), which is the
// cheapest portable nanotime the stdlib offers.
var phaseBase = time.Now()

// phaseNowNs reads the monotonic clock in nanoseconds.
func phaseNowNs() int64 {
	//lint:ignore simtime phase timers measure wall-clock cost by design; durations feed write-only accumulators and exposition histograms, never simulation state or a seeded RNG stream
	return int64(time.Since(phaseBase))
}

// phaseStride is how many requests share one lit request on a chain that
// calls Lap: request i is lit iff i%phaseStride == 0. Measured on the 2.10 GHz
// host, BenchmarkPhaseMark/sim/strided (six marks and a lap) reads 250 ns per
// request fully lit, 75 at stride 4, 41 at 8, 24 at 16, 16 at 32 and 11 at
// 64, against a dense request's ~650 ns with the stack on: past sixteen or so
// the chain is under 4 % of the request and a wider stride buys single
// nanoseconds while thinning the sample of the rare, expensive requests.
//
// It is odd on purpose. The loop has power-of-two rhythms of its own — every
// eighth request's 8-byte appends (the latency samples) open a new cache
// line — and a stride sharing a factor with them lights only the requests
// that pay for it: on sim_dense_obs strides 16 and 64 put the obs stage at
// 0.51 and 0.59 of the loop where the fully lit chain and strides 15, 17 and
// 61 all say 0.45-0.47.
const phaseStride = 17

// PhaseClock is one execution strand's mark chain: Begin stamps the chain's
// start, and each Mark closes the stage that just ran (crediting the time
// since the previous mark) while opening the next. Clocks are cheap values —
// take one per request loop or per round trip; concurrent strands each hold
// their own clock and meet only at the profiler's atomic accumulators.
//
// A loop that calls Lap at the end of each request runs the chain strided
// (see PhaseProfiler); without Lap every mark is lit.
//
// All methods are safe on a clock obtained from a nil profiler: they cost a
// pointer test and never read the clock, preserving the obs-off fast path.
type PhaseClock struct {
	p    *PhaseProfiler
	last int64  // stamp of the latest lit mark; a dark stretch runs from it
	laps uint64 // requests ended: the index of the request now running
	lit  bool   // marks read the clock; false before Begin and on a nil profiler
}

// Clock returns a mark-chain clock feeding p (inert when p is nil).
func (p *PhaseProfiler) Clock() PhaseClock { return PhaseClock{p: p} }

// Begin stamps the start of a mark chain; request 0 is lit.
func (c *PhaseClock) Begin() {
	if c == nil || c.p == nil {
		return
	}
	c.last, c.laps, c.lit = phaseNowNs(), 0, true
}

// Mark credits the time since the previous mark (or Begin) to stage and
// advances the chain; on a dark request it is this one branch. Out-of-range
// stages advance the chain without crediting, so a mismatched profiler
// degrades to missing attribution rather than a panic on the hot path.
func (c *PhaseClock) Mark(stage int) {
	if c == nil || !c.lit {
		return
	}
	c.mark(stage)
}

// mark is the lit half of Mark, kept out of line so the dark half inlines.
func (c *PhaseClock) mark(stage int) {
	now := phaseNowNs()
	if uint(stage) < uint(len(c.p.accum)) {
		c.p.accum[stage].Add(now - c.last)
	}
	c.last = now
}

// Lap ends a request: call it after the request's last Mark. Which requests
// are lit is a pure function of how many Laps came before. Going dark is
// free (the stretch starts at the last lit mark); lighting up reads the
// clock once and banks the whole dark stretch for the next flush to spread.
func (c *PhaseClock) Lap() {
	if c == nil || c.p == nil {
		return
	}
	c.lap()
}

// lap is Lap on a live profiler, kept out of line so the nil test inlines.
func (c *PhaseClock) lap() {
	c.laps++
	if c.laps%phaseStride != 0 {
		c.lit = false
		return
	}
	if !c.lit {
		now := phaseNowNs()
		c.p.dark.Add(now - c.last)
		c.last, c.lit = now, true
	}
}

// spreadDark adds to each stage's lit nanoseconds its share of a dark
// stretch, in the lit proportions, by cumulative rounding so the shares sum
// to dark exactly. With nothing lit there are no proportions: it reports
// false and leaves ns alone.
func spreadDark(ns []int64, dark int64) bool {
	var total int64
	for _, lit := range ns {
		total += lit
	}
	if total <= 0 {
		return false
	}
	var cum, given int64
	for i, lit := range ns {
		cum += lit
		// dark*cum/total without overflow: ten seconds of each is 10^20.
		hi, lo := bits.Mul64(uint64(dark), uint64(cum))
		upto, _ := bits.Div64(hi, lo, uint64(total))
		ns[i] += int64(upto) - given
		given = int64(upto)
	}
	return true
}

// FlushEpoch drains the per-stage accumulators into the histograms: each
// stage with nonzero time this epoch records one observation of its seconds
// — its lit time plus its share of the epoch's dark time (spreadDark). Idle
// stages observe nothing (a zero would pollute the lowest bucket), and an
// all-idle flush is free; dark time banked in an epoch with no lit request
// is carried to the next flush rather than dropped. Nil-safe.
//
// Callers either bind the profiler to a flight recorder (BindRecorder), in
// which case flushes ride the recorder's epochs, or flush once at the end of
// a run — sim.Run does the latter unconditionally, which is a no-op when the
// recorder's Seal already drained the tail.
func (p *PhaseProfiler) FlushEpoch() {
	if p == nil {
		return
	}
	var buf [8]int64 // both canonical pipelines fit, so a flush allocates nothing
	ns := buf[:0]
	for i := range p.accum {
		ns = append(ns, p.accum[i].Swap(0))
	}
	dark := p.dark.Swap(0)
	if !spreadDark(ns, dark) {
		if dark != 0 {
			p.dark.Add(dark)
		}
		return
	}
	for i, v := range ns {
		if v <= 0 {
			continue
		}
		p.flushed[i].Add(v)
		p.hists[i].Observe(float64(v) / 1e9)
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

// PhaseStageSeconds is one stage's share of a Breakdown.
type PhaseStageSeconds struct {
	Stage    string
	Seconds  float64
	Fraction float64 // of the pipeline total (0 when the total is 0)
}

// Breakdown returns the cumulative per-stage attribution — flushed epochs
// plus the un-flushed residue, spread exactly as a flush now would spread it
// — in stage order. Nil profilers return nil.
func (p *PhaseProfiler) Breakdown() []PhaseStageSeconds {
	if p == nil {
		return nil
	}
	residue := make([]int64, len(p.stages))
	for i := range p.accum {
		residue[i] = p.accum[i].Load()
	}
	spreadDark(residue, p.dark.Load())
	out := make([]PhaseStageSeconds, len(p.stages))
	total := 0.0
	for i, st := range p.stages {
		ns := p.flushed[i].Load() + residue[i]
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
