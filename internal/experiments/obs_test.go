package experiments

import (
	"bytes"
	"testing"

	"starcdn/internal/obs"
	"starcdn/internal/sim"
)

// TestObsDoesNotChangeReports is the central contract of the observability
// layer: attaching a metrics registry and a rate-1 tracer to the experiment
// environment must leave every emitted report byte-identical to an
// uninstrumented run. The instruments are write-only side channels — the
// sampling decision hashes (seed, request index) and never consumes the
// simulation's seeded RNG streams.
func TestObsDoesNotChangeReports(t *testing.T) {
	if testing.Short() {
		t.Skip("instrumented sweep in short mode")
	}
	names := []string{"fig6", "fig10-l4"}

	run := func(reg *obs.Registry, tracer *obs.Tracer) map[string]string {
		e := NewEnv(tinyScale())
		e.Obs = reg
		e.Tracer = tracer
		out := make(map[string]string, len(names))
		for _, name := range names {
			s, err := Run(e, name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = s
		}
		return out
	}

	plain := run(nil, nil)

	reg := obs.NewRegistry()
	var spanBuf bytes.Buffer
	tracer := obs.NewTracer(&spanBuf, 1, 3)
	instrumented := run(reg, tracer)
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, name := range names {
		if plain[name] != instrumented[name] {
			t.Errorf("%s: instrumented run changed the report\n--- plain ---\n%s\n--- instrumented ---\n%s",
				name, plain[name], instrumented[name])
		}
	}

	// The side channels actually carried data: simulation counters for every
	// run that executed, and one parseable span per simulated request.
	var simReqs int64
	for _, s := range reg.Snapshot() {
		if s.Name == "starcdn_sim_requests_total" {
			simReqs += int64(s.Value)
		}
	}
	if simReqs == 0 {
		t.Error("instrumented experiments registered no starcdn_sim_requests_total")
	}
	if tracer.Emitted() == 0 {
		t.Error("rate-1 tracer emitted no spans")
	}
	spans, err := obs.ReadSpans(&spanBuf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(spans)) != tracer.Emitted() {
		t.Errorf("read %d spans, tracer says %d emitted", len(spans), tracer.Emitted())
	}
	for i := range spans {
		var src sim.Source
		if err := src.UnmarshalText([]byte(spans[i].Source)); err != nil {
			t.Fatalf("span %d: %v", spans[i].Req, err)
		}
	}
}
