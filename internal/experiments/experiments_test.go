package experiments

import (
	"strings"
	"testing"

	"starcdn/internal/sim"
)

// tinyScale keeps experiment tests fast; the benches run the real Small().
func tinyScale() Scale {
	return Scale{
		Requests:         25_000,
		DurationSec:      2700,
		Objects:          3000,
		CacheSizes:       []int64{16 << 20, 64 << 20},
		LatencyCacheSize: 64 << 20,
		Seed:             5,
	}
}

func TestTable1(t *testing.T) {
	out := Table1()
	for _, want := range []string{"8.03", "2.15", "2.94", "100", "20"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in short mode")
	}
	e := NewEnv(tinyScale())
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			out, err := Run(e, name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !strings.Contains(out, "==") {
				t.Errorf("%s: report missing header:\n%s", name, out)
			}
			if !strings.Contains(out, "paper:") && name != "table1" {
				t.Errorf("%s: report missing paper reference", name)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	e := NewEnv(tinyScale())
	if _, err := Run(e, "fig99"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestNamesComplete(t *testing.T) {
	names := Names()
	// Every table and figure in the paper's evaluation must be present.
	want := []string{
		"table1", "table2", "table3", "fig2", "fig3", "fig5b", "fig6",
		"fig7-l4", "fig7-l9", "fig8", "fig9", "fig10-l4", "fig10-l9",
		"fig11", "fig12-web", "fig12-download", "fig13",
		"ablation-eviction", "ablation-prefetch", "ablation-failure",
		"ablation-groundedge", "extra-uplink", "extra-session",
		"ablation-admission", "extra-congestion", "extra-mixed", "extra-coloring",
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("registry missing %s", w)
		}
	}
	if len(names) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(names), len(want))
	}
}

func TestEnvCaching(t *testing.T) {
	e := NewEnv(tinyScale())
	t1, err := e.ProductionTrace("video")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.ProductionTrace("video")
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("traces should be cached")
	}
	if e.Constellation("a") != e.Constellation("a") {
		t.Error("constellations should be cached per key")
	}
	if e.Constellation("a") == e.Constellation("b") {
		t.Error("different keys should get different constellations")
	}
	if _, err := e.ProductionTrace("bogus"); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestRunSchemeMemoization(t *testing.T) {
	e := NewEnv(tinyScale())
	tr, err := e.ProductionTrace("video")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := e.runScheme("memo", "lru", 0, 16<<20, tr, sim.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := e.runScheme("memo", "lru", 0, 16<<20, tr, sim.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("identical runs should be memoised")
	}
	m3, err := e.runScheme("memo", "lru", 0, 32<<20, tr, sim.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m3 {
		t.Error("different cache sizes must not share memo entries")
	}
	if _, err := e.runScheme("memo", "nope", 0, 1, tr, sim.Config{Seed: 5}); err == nil {
		t.Error("unknown scheme should fail")
	}
}

func TestScalePresets(t *testing.T) {
	for name, s := range map[string]Scale{"small": Small(), "medium": Medium()} {
		if s.Requests <= 0 || s.DurationSec <= 0 || len(s.CacheSizes) == 0 {
			t.Errorf("bad scale %s: %+v", name, s)
		}
		for i := 1; i < len(s.CacheSizes); i++ {
			if s.CacheSizes[i] <= s.CacheSizes[i-1] {
				t.Errorf("scale %s cache sizes not increasing", name)
			}
		}
	}
	if Medium().Requests <= Small().Requests {
		t.Error("medium should exceed small")
	}
}
