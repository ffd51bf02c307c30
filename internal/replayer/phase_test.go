package replayer

import (
	"testing"
	"time"

	"starcdn/internal/cache"
	"starcdn/internal/obs"
)

// TestReplayPhases: a sequential replay with a phase profiler attributes
// time to the round-trip stages — dial (once per connection), frame-write
// and frame-read (per request) — without changing the replay's results.
func TestReplayPhases(t *testing.T) {
	h, users, tr := obsEnv(t, 2000, 17)

	run := func(phases *obs.PhaseProfiler) cache.Meter {
		t.Helper()
		cluster, err := NewClusterOpts(cache.LRU, 64<<20, ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		m, err := Replay(h, cluster, users, tr, Options{
			Hashing: true, Relay: true, Seed: 23, Phases: phases,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	plain := run(nil)
	phases := obs.NewReplayPhases(obs.NewRegistry())
	start := time.Now()
	profiled := run(phases)
	wall := time.Since(start).Seconds()

	if plain != profiled {
		t.Errorf("meters diverged: plain=%+v profiled=%+v", plain, profiled)
	}

	phases.FlushEpoch() // drain the tail; Replay has no recorder here
	bd := phases.Breakdown()
	byStage := map[string]obs.PhaseStageSeconds{}
	sum := 0.0
	for _, s := range bd {
		byStage[s.Stage] = s
		sum += s.Seconds
	}
	for _, stage := range []string{"dial", "frame-write", "frame-read"} {
		if byStage[stage].Seconds <= 0 {
			t.Errorf("stage %q attributed no time: %+v", stage, bd)
		}
	}
	// A clean replay performs no retries; the stage exists but stays idle.
	if byStage["retry"].Seconds != 0 {
		t.Errorf("retry stage charged %v seconds on a clean replay", byStage["retry"].Seconds)
	}
	// The stages are disjoint intervals of one sequential replay, so together
	// they fit inside its wall time. Which stage is largest depends on how
	// loaded the host is and is the bench harness's business, not tier-1's.
	if sum > wall {
		t.Errorf("stages sum to %vs, more than the run's %vs wall time: %+v", sum, wall, bd)
	}
}
