package obs

import (
	"strings"
	"testing"
)

// TestPhaseClockMarkChain: each Mark credits the time since the previous
// mark to its stage and advances the chain. The elapsed intervals are
// injected by rewinding the chain's last stamp, keeping the test
// deterministic on any machine.
func TestPhaseClockMarkChain(t *testing.T) {
	p := NewSimPhases(NewRegistry())
	c := p.Clock()
	c.Begin()
	c.last -= 5e6 // pretend 5ms elapsed in the hash stage
	c.Mark(PhaseSimHash)
	if got := p.accum[PhaseSimHash].Load(); got < 5e6 {
		t.Errorf("hash accum = %dns, want >= 5e6", got)
	}
	c.last -= 2e6
	c.Mark(PhaseSimCache)
	if got := p.accum[PhaseSimCache].Load(); got < 2e6 {
		t.Errorf("cache accum = %dns, want >= 2e6", got)
	}
	// An out-of-range stage advances the chain without crediting or panicking.
	c.last -= 1e6
	c.Mark(97)
	before := p.accum[PhaseSimRelay].Load()
	c.Mark(PhaseSimRelay) // immediate: the lost 1ms went nowhere
	if got := p.accum[PhaseSimRelay].Load() - before; got >= 1e6 {
		t.Errorf("out-of-range mark leaked %dns into the next stage", got)
	}
}

// TestPhaseFlushEpoch: flushes drain accumulators into the histograms as one
// observation per active stage, skip idle stages, and count epochs only when
// something flushed.
func TestPhaseFlushEpoch(t *testing.T) {
	reg := NewRegistry()
	p := NewSimPhases(reg)
	p.accum[PhaseSimCache].Store(2e9) // 2s in cache this epoch
	p.FlushEpoch()
	h := reg.Histogram("starcdn_phase_stage_seconds", DefPhaseBucketsSec,
		L("pipeline", "sim"), L("stage", "cache"))
	if h.Count() != 1 || h.Sum() != 2 {
		t.Errorf("cache hist after flush: count=%d sum=%v, want 1 observation of 2s", h.Count(), h.Sum())
	}
	idle := reg.Histogram("starcdn_phase_stage_seconds", DefPhaseBucketsSec,
		L("pipeline", "sim"), L("stage", "shed"))
	if idle.Count() != 0 {
		t.Errorf("idle stage observed %d times, want 0", idle.Count())
	}
	if p.Epochs() != 1 {
		t.Errorf("epochs = %d, want 1", p.Epochs())
	}
	// An all-idle flush records nothing and does not count as an epoch.
	p.FlushEpoch()
	if h.Count() != 1 || p.Epochs() != 1 {
		t.Errorf("idle flush changed state: count=%d epochs=%d", h.Count(), p.Epochs())
	}
}

// TestPhaseBreakdown: Breakdown sums flushed epochs plus un-flushed residue
// and computes pipeline fractions; String leads with the dominant stage.
func TestPhaseBreakdown(t *testing.T) {
	p := NewSimPhases(nil) // nil registry: accumulation without exposition
	p.accum[PhaseSimCache].Store(3e9)
	p.FlushEpoch()
	p.accum[PhaseSimRelay].Store(1e9) // residue, not yet flushed
	bd := p.Breakdown()
	if len(bd) != len(SimPhaseStages) {
		t.Fatalf("breakdown has %d stages, want %d", len(bd), len(SimPhaseStages))
	}
	byStage := map[string]PhaseStageSeconds{}
	total := 0.0
	for _, s := range bd {
		byStage[s.Stage] = s
		total += s.Fraction
	}
	if byStage["cache"].Seconds != 3 || byStage["relay"].Seconds != 1 {
		t.Errorf("cache=%v relay=%v, want 3s and 1s", byStage["cache"].Seconds, byStage["relay"].Seconds)
	}
	if byStage["cache"].Fraction != 0.75 {
		t.Errorf("cache fraction = %v, want 0.75", byStage["cache"].Fraction)
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("fractions sum to %v, want 1", total)
	}
	s := p.String()
	if !strings.HasPrefix(s, "phase breakdown (sim):") {
		t.Errorf("String header wrong: %q", s)
	}
	cacheIdx := strings.Index(s, "cache")
	relayIdx := strings.Index(s, "relay")
	if cacheIdx < 0 || relayIdx < 0 || cacheIdx > relayIdx {
		t.Errorf("dominant stage not first in:\n%s", s)
	}
	if !strings.Contains(s, "75.0%") {
		t.Errorf("String missing share column:\n%s", s)
	}
}

// TestPhaseNilDiscipline: every method on a nil profiler (and the clock it
// hands out) is an inert no-op — the obs-off configuration.
func TestPhaseNilDiscipline(t *testing.T) {
	var p *PhaseProfiler
	c := p.Clock()
	c.Begin()
	c.Mark(PhaseSimCache)
	c.Lap()
	p.FlushEpoch()
	p.BindRecorder(nil)
	if p.Breakdown() != nil || p.String() != "" || p.Epochs() != 0 {
		t.Error("nil profiler leaked state")
	}
	if p.Pipeline() != "" || p.Stages() != nil {
		t.Error("nil profiler reported a pipeline")
	}
	if c.last != 0 || c.lit {
		t.Error("inert clock read the clock")
	}
	var np *PhaseClock
	np.Begin()
	np.Mark(PhaseSimCache)
	np.Lap()
}

// TestPhaseBindRecorder: a bound profiler flushes inside the recorder's
// snapshot, so the epoch's stage seconds land in that epoch's ring slot
// (visible through the histogram fan-out's _sum series).
func TestPhaseBindRecorder(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg, RecorderOptions{EpochSec: 1})
	p := NewSimPhases(reg)
	p.BindRecorder(rec)

	p.accum[PhaseSimCache].Store(1e9)
	rec.TickAt(1)
	if p.Epochs() != 1 {
		t.Fatalf("bound profiler did not flush on the recorder epoch: epochs=%d", p.Epochs())
	}
	key := `starcdn_phase_stage_seconds{pipeline="sim",stage="cache"}_sum`
	pts := rec.Window(key, 0)
	if len(pts) != 1 || pts[0].T != 1 || pts[0].V != 1 {
		t.Fatalf("ring slot for epoch 1 = %v, want one point (t=1, v=1); series=%v", pts, rec.Series())
	}

	// The next epoch's flush is cumulative in the fan-out (histogram sums
	// grow), and the ring records the post-flush value per epoch.
	p.accum[PhaseSimCache].Store(2e9)
	rec.TickAt(2)
	pts = rec.Window(key, 0)
	if len(pts) != 2 || pts[1].V != 3 {
		t.Fatalf("epoch 2 cumulative sum = %v, want 3", pts)
	}
}

// phaseTotals sums what a profiler holds: lit nanoseconds not yet flushed,
// banked dark nanoseconds, and everything past flushes made permanent.
func phaseTotals(p *PhaseProfiler) (lit, dark, flushed int64) {
	for i := range p.accum {
		lit += p.accum[i].Load()
		flushed += p.flushed[i].Load()
	}
	return lit, p.dark.Load(), flushed
}

// TestPhaseStridedChain drives a clock that calls Lap into its third stride
// of requests, injecting time by rewinding the chain's stamp: request i is
// lit iff i%phaseStride == 0, a dark Mark touches neither the clock nor an
// accumulator, the Lap that ends a dark stretch banks all of it, and a flush
// conserves every nanosecond — the stage seconds sum to lit plus dark.
func TestPhaseStridedChain(t *testing.T) {
	p := NewSimPhases(nil)
	c := p.Clock()
	c.Begin()
	const perStage, perDarkReq = int64(1e6), int64(7e6)
	var wantLit, wantDark int64
	const requests = 3*phaseStride - 2 // stops inside the third dark stretch
	for req := 0; req < requests; req++ {
		if lit := req%phaseStride == 0; c.lit != lit {
			t.Fatalf("request %d: lit = %v, want %v", req, c.lit, lit)
		}
		litBefore, _, _ := phaseTotals(p)
		stamp := c.last
		for stage := range SimPhaseStages {
			if c.lit {
				c.last -= perStage
				wantLit += perStage
			}
			c.Mark(stage)
		}
		if !c.lit {
			if litNow, _, _ := phaseTotals(p); litNow != litBefore || c.last != stamp {
				t.Fatalf("request %d: a dark Mark moved the chain (lit %d -> %d, stamp %d -> %d)",
					req, litBefore, litNow, stamp, c.last)
			}
			c.last -= perDarkReq // this request's share of the dark stretch
			wantDark += perDarkReq
		}
		c.Lap()
	}
	// The third dark stretch is still open: only two were closed and banked.
	wantDark -= (requests - 2*phaseStride - 1) * perDarkReq
	lit, dark, _ := phaseTotals(p)
	if lit < wantLit || dark < wantDark {
		t.Fatalf("lit = %dns, dark = %dns; injected %d and %d", lit, dark, wantLit, wantDark)
	}
	// The real clock reads add a little on top of what was injected, nowhere
	// near another dark request's worth.
	if dark >= wantDark+perDarkReq {
		t.Errorf("dark = %dns with %d injected: an open stretch was banked", dark, wantDark)
	}

	bd := p.Breakdown()
	p.FlushEpoch()
	if _, darkLeft, flushed := phaseTotals(p); flushed != lit+dark || darkLeft != 0 {
		t.Errorf("flush made %dns permanent and left %dns dark, want %d (lit %d + dark %d) and 0",
			flushed, darkLeft, lit+dark, lit, dark)
	}
	// A Breakdown reports the residue as the flush then records it.
	for i, s := range p.Breakdown() {
		if s != bd[i] {
			t.Errorf("stage %q: %+v before the flush, %+v after", s.Stage, bd[i], s)
		}
		if s.Seconds <= 0 {
			t.Errorf("stage %q attributed no time", s.Stage)
		}
	}
}

// TestPhaseDarkSplit: a flush spreads its dark time over the stages in the
// proportions its own lit requests measured, the shares sum to it exactly
// whatever the rounding, and idle stages get none.
func TestPhaseDarkSplit(t *testing.T) {
	reg := NewRegistry()
	p := NewSimPhases(reg)
	p.accum[PhaseSimCache].Store(3e9)
	p.accum[PhaseSimRelay].Store(1e9)
	p.dark.Store(8e9)
	p.FlushEpoch()
	if c, r := p.flushed[PhaseSimCache].Load(), p.flushed[PhaseSimRelay].Load(); c != 9e9 || r != 3e9 {
		t.Errorf("cache = %dns, relay = %dns, want 3:1 of 8s on top of 3s and 1s", c, r)
	}
	h := reg.Histogram("starcdn_phase_stage_seconds", DefPhaseBucketsSec,
		L("pipeline", "sim"), L("stage", "cache"))
	if h.Count() != 1 || h.Sum() != 9 {
		t.Errorf("cache hist: count=%d sum=%v, want one observation of 9s", h.Count(), h.Sum())
	}
	if p.flushed[PhaseSimShed].Load() != 0 || p.dark.Load() != 0 {
		t.Errorf("idle stage got %dns, %dns left dark", p.flushed[PhaseSimShed].Load(), p.dark.Load())
	}

	// Thirds of ten do not divide: 3, 3 and 4, never 9 or 11 in all. Past
	// 2^63 in the product, the split still holds.
	for _, dark := range []int64{10, 1 << 40} {
		q := NewSimPhases(nil)
		for _, st := range []int{PhaseSimShed, PhaseSimHash, PhaseSimObs} {
			q.accum[st].Store(1 << 30)
		}
		q.dark.Store(dark)
		q.FlushEpoch()
		_, _, flushed := phaseTotals(q)
		if flushed != 3<<30+dark {
			t.Errorf("dark %d: stages sum to %d, want %d", dark, flushed, 3<<30+dark)
		}
		if a, b := q.flushed[PhaseSimShed].Load(), q.flushed[PhaseSimObs].Load(); b-a < 0 || b-a > 1 {
			t.Errorf("dark %d: equal stages got %d and %d", dark, a, b)
		}
	}
}

// TestPhaseDarkCarry: dark time banked in a flush with no lit request has no
// proportions to follow; it waits for the next flush that has some instead
// of being dropped, and the empty flush counts no epoch.
func TestPhaseDarkCarry(t *testing.T) {
	p := NewSimPhases(nil)
	p.dark.Store(4e9)
	p.FlushEpoch()
	if _, dark, flushed := phaseTotals(p); dark != 4e9 || flushed != 0 || p.Epochs() != 0 {
		t.Fatalf("unlit flush: dark=%d flushed=%d epochs=%d, want 4e9 carried", dark, flushed, p.Epochs())
	}
	for _, s := range p.Breakdown() {
		if s.Seconds != 0 {
			t.Errorf("stage %q reports %vs of time no lit request has placed", s.Stage, s.Seconds)
		}
	}
	p.accum[PhaseSimSched].Store(1e9)
	p.dark.Add(1e9)
	p.FlushEpoch()
	if got := p.flushed[PhaseSimSched].Load(); got != 6e9 || p.dark.Load() != 0 || p.Epochs() != 1 {
		t.Errorf("sched = %dns, dark left %d, epochs %d; want 1s lit + 5s dark in one epoch",
			got, p.dark.Load(), p.Epochs())
	}
}

// TestPhaseShortRun: request 0 is lit, so a loop shorter than the stride
// still attributes every stage it ran.
func TestPhaseShortRun(t *testing.T) {
	p := NewSimPhases(nil)
	c := p.Clock()
	c.Begin()
	for req := 0; req < 3; req++ {
		for stage := range SimPhaseStages {
			c.last -= 1e6
			c.Mark(stage)
		}
		c.Lap()
	}
	p.FlushEpoch()
	for i, s := range p.Breakdown() {
		if ns := p.flushed[i].Load(); ns < 1e6 || ns >= 2e6 {
			t.Errorf("stage %q = %dns, want request 0's 1ms and nothing from the dark two", s.Stage, ns)
		}
	}
}

// TestPhaseClockWithoutLap: a chain that never calls Lap — the replayer's
// per-round-trip clocks — stays lit however long it runs and banks no dark
// time.
func TestPhaseClockWithoutLap(t *testing.T) {
	p := NewReplayPhases(nil)
	c := p.Clock()
	c.Begin()
	for i := 0; i < 4*phaseStride; i++ {
		c.last -= 1e6
		c.Mark(PhaseReplayRead)
	}
	if got := p.accum[PhaseReplayRead].Load(); got < 4*phaseStride*1e6 || !c.lit || p.dark.Load() != 0 {
		t.Errorf("read = %dns, lit = %v, dark = %d; want every mark credited", got, c.lit, p.dark.Load())
	}
}
