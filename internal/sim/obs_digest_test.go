package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"starcdn/internal/obs"
)

// obsArtifactsDigest pins every deterministic observability artifact of one
// seeded full-stack run (Metrics + Sketches + Recorder + Phases + a sampling
// tracer for exemplars): the JSON exposition, whose top-K and sketch objects
// carry the full keyed entries and exemplars, and every recorder ring. It was
// re-pinned when the top-K entries lost their Count-Min "refined" estimate,
// after checking that the exposition equals the previous one with those keys
// removed and every ring is unchanged, so a change to bucket indices,
// eviction order, the exemplar rule or a ring value shows here as a digest
// mismatch.
const obsArtifactsDigest = "001be32ec51e2f02fdcba7d8f6965f0c1b77cbc6716a8caaaab21657d1ebd4b2"

// wallClockSeries reports the families whose values are wall-clock
// measurements and therefore differ run to run.
func wallClockSeries(key string) bool {
	return strings.HasPrefix(key, "starcdn_phase_") || strings.HasPrefix(key, "starcdn_go_")
}

func TestObsArtifactsPinned(t *testing.T) {
	e := newEnv(t, 6000, 900)
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, obs.RecorderOptions{EpochSec: 15, Capacity: 128})
	ph := obs.NewSimPhases(reg)
	ph.BindRecorder(rec)
	var spans bytes.Buffer
	cfg := Config{Seed: 5, Metrics: reg, Sketches: true, Recorder: rec, Phases: ph,
		Tracer: obs.NewTracer(&spans, 0.2, 42)}
	p := e.starcdn(t, 9, 16<<20, StarCDNOptions{Hashing: true, Relay: true})
	if _, err := Run(e.c, e.users, e.tr, p, cfg); err != nil {
		t.Fatal(err)
	}

	h := sha256.New()

	// Registry JSON exposition, wall-clock families dropped. encoding/json
	// sorts map keys, so the re-encoding is deterministic.
	var expo bytes.Buffer
	if err := reg.WriteJSON(&expo); err != nil {
		t.Fatal(err)
	}
	var series map[string]json.RawMessage
	if err := json.Unmarshal(expo.Bytes(), &series); err != nil {
		t.Fatal(err)
	}
	for k := range series {
		if wallClockSeries(k) {
			delete(series, k)
		}
	}
	if len(series) < 100 {
		t.Fatalf("only %d series in the exposition; the run did not exercise the per-satellite gauges", len(series))
	}
	if !bytes.Contains(expo.Bytes(), []byte(`"exemplars"`)) {
		t.Fatal("exposition carries no exemplars; the tracer did not sample")
	}
	b, err := json.Marshal(series)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)

	// Every recorder ring, bit for bit.
	rings := 0
	for _, key := range rec.Series() {
		if wallClockSeries(key) {
			continue
		}
		rings++
		fmt.Fprintf(h, "%s\n", key)
		for _, pt := range rec.Window(key, 0) {
			fmt.Fprintf(h, "%x %x\n", math.Float64bits(pt.T), math.Float64bits(pt.V))
		}
	}
	if rings < 100 {
		t.Fatalf("only %d recorder rings", rings)
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != obsArtifactsDigest {
		t.Errorf("obs artifacts digest = %s, want %s (%d series, %d rings)",
			got, obsArtifactsDigest, len(series), rings)
	}
}
