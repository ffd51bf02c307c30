package workload

import (
	"math"
	"math/rand"
	"testing"

	"starcdn/internal/geo"
	"starcdn/internal/trace"
)

// smallVideo returns a shrunken video class for fast tests.
func smallVideo() Class {
	c := Video()
	c.NumObjects = 8000
	return c
}

func genTrace(t *testing.T, class Class, n int, durSec float64) (*Generator, *trace.Trace) {
	t.Helper()
	g, err := NewGenerator(class, geo.PaperCities(), 7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Generate(n, durSec)
	if err != nil {
		t.Fatal(err)
	}
	return g, tr
}

func TestClassByName(t *testing.T) {
	for _, name := range []string{"video", "web", "download"} {
		c, err := ClassByName(name)
		if err != nil || c.Name != name {
			t.Errorf("ClassByName(%s): %v, %v", name, c.Name, err)
		}
	}
	if _, err := ClassByName("cat-videos"); err == nil {
		t.Error("unknown class should fail")
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(smallVideo(), nil, 1); err == nil {
		t.Error("no cities should fail")
	}
	bad := smallVideo()
	bad.NumObjects = 0
	if _, err := NewGenerator(bad, geo.PaperCities(), 1); err == nil {
		t.Error("zero objects should fail")
	}
	g, _ := NewGenerator(smallVideo(), geo.PaperCities(), 1)
	if _, err := g.Generate(0, 100); err == nil {
		t.Error("zero requests should fail")
	}
	if _, err := g.Generate(100, 0); err == nil {
		t.Error("zero duration should fail")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	g, tr := genTrace(t, smallVideo(), 30000, 3600)
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if got := tr.Len(); got < 29000 || got > 31000 {
		t.Errorf("requests = %d, want ~30000", got)
	}
	if len(tr.Locations) != 9 {
		t.Errorf("locations = %d", len(tr.Locations))
	}
	if tr.DurationSec() > 3600 {
		t.Errorf("duration = %v", tr.DurationSec())
	}
	nObj, _ := tr.UniqueObjects()
	if nObj < 1000 || nObj > len(g.objects) {
		t.Errorf("unique objects = %d (catalogue %d)", nObj, len(g.objects))
	}
	// All cities receive traffic.
	counts := make([]int, len(tr.Locations))
	for _, r := range tr.Requests {
		counts[r.Location]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("location %s received no requests", tr.Locations[i])
		}
	}
}

func TestDeterminism(t *testing.T) {
	g1, _ := NewGenerator(smallVideo(), geo.PaperCities(), 42)
	g2, _ := NewGenerator(smallVideo(), geo.PaperCities(), 42)
	t1, _ := g1.Generate(5000, 600)
	t2, _ := g2.Generate(5000, 600)
	if t1.Len() != t2.Len() {
		t.Fatalf("lengths differ: %d vs %d", t1.Len(), t2.Len())
	}
	for i := range t1.Requests {
		if t1.Requests[i] != t2.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestPopularitySkew(t *testing.T) {
	_, tr := genTrace(t, smallVideo(), 50000, 3600)
	counts := map[uint64]int{}
	for _, r := range tr.Requests {
		counts[uint64(r.Object)]++
	}
	// Top 10% of objects should carry well over half the requests under a
	// Zipf-like distribution.
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sortInts(freqs)
	top := 0
	cut := len(freqs) / 10
	for i := len(freqs) - 1; i >= len(freqs)-cut && i >= 0; i-- {
		top += freqs[i]
	}
	if frac := float64(top) / float64(tr.Len()); frac < 0.5 {
		t.Errorf("top-10%% objects carry %.0f%% of requests, want >= 50%%", 100*frac)
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestOverlapMatchesPaperShape(t *testing.T) {
	// The paper's two headline observations (§3.1):
	// (1) nearby same-language cities share most traffic volume (~90%) but
	//     only ~half the objects;
	// (2) cross-language pairs share little, even within Europe.
	_, tr := genTrace(t, smallVideo(), 120000, 3600)
	cities := geo.PaperCities()
	idx := func(name string) int {
		for i, n := range tr.Locations {
			if n == name {
				return i
			}
		}
		t.Fatalf("missing %s", name)
		return -1
	}
	all := MeasureOverlap(tr)
	nyc, dc := idx("New York"), idx("Washington DC")
	ldn, fra, ist := idx("London"), idx("Frankfurt"), idx("Istanbul")

	// (1) NY <-> DC: traffic overlap much higher than object overlap.
	o := all[nyc][dc]
	if o.TrafficFrac < 0.6 {
		t.Errorf("NY->DC traffic overlap = %.2f, want >= 0.6 (paper ~0.9)", o.TrafficFrac)
	}
	if o.ObjectFrac > 0.85 {
		t.Errorf("NY->DC object overlap = %.2f, should stay well below 1", o.ObjectFrac)
	}
	if o.TrafficFrac <= o.ObjectFrac {
		t.Errorf("traffic overlap (%.2f) should exceed object overlap (%.2f)",
			o.TrafficFrac, o.ObjectFrac)
	}

	// (2) London -> Frankfurt / Istanbul: low object overlap (Table 2:
	// 11% and 2%), with Istanbul lower than Frankfurt... the paper's
	// Table 2 rows put cross-language object overlap under ~35%.
	if got := all[ldn][fra].ObjectFrac; got > 0.4 {
		t.Errorf("London->Frankfurt object overlap = %.2f, want < 0.4", got)
	}
	if got := all[ldn][ist].ObjectFrac; got > 0.35 {
		t.Errorf("London->Istanbul object overlap = %.2f, want < 0.35", got)
	}
	// Cross-language traffic overlap exceeds object overlap (shared head).
	if all[ldn][fra].TrafficFrac <= all[ldn][fra].ObjectFrac {
		t.Error("London->Frankfurt traffic overlap should exceed object overlap")
	}
	// Diagonal is 1.
	if all[nyc][nyc].ObjectFrac != 1 || all[nyc][nyc].TrafficFrac != 1 {
		t.Error("diagonal overlap must be 1")
	}
	_ = cities
}

func TestOverlapVsDistanceDecreases(t *testing.T) {
	// Fig. 2: overlap decays with distance from New York.
	_, tr := genTrace(t, smallVideo(), 120000, 3600)
	rows, err := MeasureOverlapFrom(tr, geo.PaperCities(), "New York")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Average overlap among <3000 km cities exceeds that among >3000 km.
	var nearSum, farSum float64
	var nearN, farN int
	for _, r := range rows {
		if r.DistanceKm < 3000 {
			nearSum += r.Overlap.TrafficFrac
			nearN++
		} else {
			farSum += r.Overlap.TrafficFrac
			farN++
		}
	}
	if nearN == 0 || farN == 0 {
		t.Fatal("expected both near and far cities")
	}
	if nearSum/float64(nearN) <= farSum/float64(farN) {
		t.Errorf("near overlap (%.2f) should exceed far overlap (%.2f)",
			nearSum/float64(nearN), farSum/float64(farN))
	}
	// Rows are distance-sorted.
	for i := 1; i < len(rows); i++ {
		if rows[i].DistanceKm < rows[i-1].DistanceKm {
			t.Error("rows not sorted by distance")
		}
	}
	if _, err := MeasureOverlapFrom(tr, geo.PaperCities(), "Atlantis"); err == nil {
		t.Error("unknown origin should fail")
	}
}

func TestSpreadDistributions(t *testing.T) {
	_, tr := genTrace(t, smallVideo(), 60000, 3600)
	objSpread, trafSpread := SpreadDistributions(tr)
	if len(objSpread) != 10 || len(trafSpread) != 10 {
		t.Fatalf("spread lengths = %d/%d", len(objSpread), len(trafSpread))
	}
	sumO, sumT := 0.0, 0.0
	for k := 0; k <= 9; k++ {
		sumO += objSpread[k]
		sumT += trafSpread[k]
	}
	if math.Abs(sumO-1) > 1e-9 || math.Abs(sumT-1) > 1e-9 {
		t.Errorf("spreads must sum to 1: %v / %v", sumO, sumT)
	}
	if objSpread[0] != 0 {
		t.Error("no object can be accessed from zero locations")
	}
	// Most objects are local (spread 1) but traffic mass shifts to higher
	// spreads via the shared popular head — the core Fig. 6a/6b shape.
	if objSpread[1] < 0.3 {
		t.Errorf("objects with spread 1 = %.2f, want >= 0.3", objSpread[1])
	}
	if trafSpread[9] <= objSpread[9] {
		t.Errorf("traffic spread at 9 locations (%.3f) should exceed object spread (%.3f)",
			trafSpread[9], objSpread[9])
	}
}

func TestDiurnalModulation(t *testing.T) {
	c := smallVideo()
	c.DiurnalAmplitude = 0.9
	g, err := NewGenerator(c, geo.PaperCities(), 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Generate(40000, 86400)
	if err != nil {
		t.Fatal(err)
	}
	// Hourly request counts should vary substantially across the day.
	var hours [24]int
	for _, r := range tr.Requests {
		hours[int(r.TimeSec/3600)%24]++
	}
	minH, maxH := hours[0], hours[0]
	for _, h := range hours {
		if h < minH {
			minH = h
		}
		if h > maxH {
			maxH = h
		}
	}
	if maxH < minH*11/10 {
		t.Errorf("diurnal variation too weak: min=%d max=%d", minH, maxH)
	}
}

func TestAliasSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	idx := []int32{10, 20, 30}
	weights := []float64{1, 2, 7}
	s := newAliasSampler(idx, weights)
	counts := map[int32]int{}
	n := 100000
	for i := 0; i < n; i++ {
		counts[s.sample(rng)]++
	}
	if got := float64(counts[30]) / float64(n); math.Abs(got-0.7) > 0.02 {
		t.Errorf("P(30) = %v, want 0.7", got)
	}
	if got := float64(counts[10]) / float64(n); math.Abs(got-0.1) > 0.02 {
		t.Errorf("P(10) = %v, want 0.1", got)
	}
	empty := newAliasSampler(nil, nil)
	if empty.sample(rng) != -1 {
		t.Error("empty sampler should return -1")
	}
	single := newAliasSampler([]int32{5}, []float64{3})
	if single.sample(rng) != 5 {
		t.Error("single-entry sampler should return its entry")
	}
}
