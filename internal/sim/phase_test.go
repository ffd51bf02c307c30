package sim

import (
	"fmt"
	"testing"

	"starcdn/internal/obs"
)

// TestRunPhasesDoNotChangeResults: the phase profiler only reads the
// monotonic clock — attaching it (with or without metrics) must leave every
// simulation result byte-identical to the un-instrumented run.
func TestRunPhasesDoNotChangeResults(t *testing.T) {
	e := newEnv(t, 3000, 900)
	mk := func() Policy {
		return e.starcdn(t, 9, 64<<20, StarCDNOptions{Hashing: true, Relay: true})
	}
	cfg := Config{Seed: 5, CollectLatency: true}
	plain, err := Run(e.c, e.users, e.tr, mk(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := cfg
	pcfg.Phases = obs.NewSimPhases(obs.NewRegistry())
	profiled, err := Run(e.c, e.users, e.tr, mk(), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Meter != profiled.Meter {
		t.Errorf("meters diverged: plain=%+v profiled=%+v", plain.Meter, profiled.Meter)
	}
	if plain.UplinkBytes != profiled.UplinkBytes || plain.ISLBytes != profiled.ISLBytes {
		t.Errorf("byte accounting diverged: uplink %d vs %d, isl %d vs %d",
			plain.UplinkBytes, profiled.UplinkBytes, plain.ISLBytes, profiled.ISLBytes)
	}
	if fmt.Sprintf("%v", plain.BySource) != fmt.Sprintf("%v", profiled.BySource) {
		t.Errorf("source mix diverged: %v vs %v", plain.BySource, profiled.BySource)
	}
	if pa, pr := plain.Latency.Quantile(0.5), profiled.Latency.Quantile(0.5); pa != pr {
		t.Errorf("median latency diverged: %v vs %v", pa, pr)
	}
}

// TestRunPhaseBreakdownCoversStages: a StarCDN run with hashing and relay
// exercises every stage of the sim pipeline, so the breakdown attributes
// nonzero time to each and the fractions account for the whole pipeline.
func TestRunPhaseBreakdownCoversStages(t *testing.T) {
	e := newEnv(t, 3000, 900)
	p := e.starcdn(t, 9, 64<<20, StarCDNOptions{Hashing: true, Relay: true})
	reg := obs.NewRegistry()
	phases := obs.NewSimPhases(reg)
	if _, err := Run(e.c, e.users, e.tr, p, Config{Seed: 5, Phases: phases}); err != nil {
		t.Fatal(err)
	}
	bd := phases.Breakdown()
	if len(bd) != len(obs.SimPhaseStages) {
		t.Fatalf("breakdown has %d stages, want %d", len(bd), len(obs.SimPhaseStages))
	}
	totalFrac := 0.0
	for _, s := range bd {
		if s.Seconds <= 0 {
			t.Errorf("stage %q attributed no time", s.Stage)
		}
		totalFrac += s.Fraction
	}
	if totalFrac < 0.999 || totalFrac > 1.001 {
		t.Errorf("stage fractions sum to %v, want ~1 (stages must cover the pipeline)", totalFrac)
	}
	// The tail flush ran (sim.Run's own end-of-run drain), so the
	// accumulators are not the only copy: the stage histograms observed it.
	var flushed int64
	for _, s := range reg.Snapshot() {
		if s.Name == "starcdn_phase_stage_seconds" {
			flushed += s.HistCount
		}
	}
	if flushed < 1 {
		t.Errorf("stage histograms hold %d observations, want >= 1 after the end-of-run flush", flushed)
	}
}

// TestRunPhasesWithRecorder: with the profiler bound to a flight recorder,
// per-epoch stage seconds land in the recorder's rings during the run.
func TestRunPhasesWithRecorder(t *testing.T) {
	e := newEnv(t, 3000, 900)
	p := e.starcdn(t, 9, 64<<20, StarCDNOptions{Hashing: true, Relay: true})
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, obs.RecorderOptions{EpochSec: 60})
	phases := obs.NewSimPhases(reg)
	phases.BindRecorder(rec)
	if _, err := Run(e.c, e.users, e.tr, p, Config{Seed: 5, Recorder: rec, Phases: phases}); err != nil {
		t.Fatal(err)
	}
	key := `starcdn_phase_stage_seconds{pipeline="sim",stage="cache"}_count`
	pts := rec.Window(key, 0)
	if len(pts) == 0 {
		t.Fatalf("no ring points for %q; recorder saw %d series", key, len(rec.Series()))
	}
	last := pts[len(pts)-1]
	if last.V < 1 {
		t.Errorf("cache stage observed %v epochs in the ring, want >= 1", last.V)
	}
}
