package spacegen

import (
	"math"
	"math/rand"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/geo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

// productionTrace builds a small "production" trace from the workload
// package, as the benches do at full scale.
func productionTrace(t *testing.T, requests int) *trace.Trace {
	t.Helper()
	cls := workload.Video()
	cls.NumObjects = 6000
	// Trim the size tail: byte-weighted comparisons at test scale would
	// otherwise be dominated by a handful of multi-hundred-MB objects.
	cls.SizeSigma = 0.6
	cls.MaxSizeBytes = 32 << 20
	g, err := workload.NewGenerator(cls, geo.PaperCities(), 11)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Generate(requests, 3600)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(&trace.Trace{}); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := Fit(&trace.Trace{Locations: []string{"x"}}); err == nil {
		t.Error("no requests should fail")
	}
	bad := &trace.Trace{Locations: []string{"x"},
		Requests: []trace.Request{{TimeSec: 0, Object: 1, Size: 0, Location: 0}}}
	if _, err := Fit(bad); err == nil {
		t.Error("invalid trace should fail")
	}
}

func TestFitBasics(t *testing.T) {
	tr := productionTrace(t, 40000)
	m, err := Fit(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.GPD.Locations) != 9 || len(m.PFDs) != 9 {
		t.Fatalf("model shape: %d locations, %d pFDs", len(m.GPD.Locations), len(m.PFDs))
	}
	nObj, _ := tr.UniqueObjects()
	if len(m.GPD.Tuples) != nObj {
		t.Errorf("GPD tuples = %d, want %d unique objects", len(m.GPD.Tuples), nObj)
	}
	// Tuple popularities must sum to the trace's request count.
	var totalPop int64
	for _, tup := range m.GPD.Tuples {
		if tup.Size <= 0 {
			t.Fatalf("tuple with non-positive size: %+v", tup)
		}
		for _, p := range tup.Pops {
			totalPop += p
		}
	}
	if totalPop != int64(tr.Len()) {
		t.Errorf("GPD popularity mass = %d, want %d", totalPop, tr.Len())
	}
	// Request rates are positive and consistent with volumes.
	dur := tr.DurationSec()
	perLoc := tr.SplitByLocation()
	for i, p := range m.PFDs {
		if p.ReqRate <= 0 {
			t.Errorf("pFD %s rate = %v", p.Location, p.ReqRate)
		}
		want := float64(perLoc[i].Len()) / dur
		if math.Abs(p.ReqRate-want) > 1e-9 {
			t.Errorf("pFD %s rate = %v, want %v", p.Location, p.ReqRate, want)
		}
		if p.MaxStackDist <= 0 {
			t.Errorf("pFD %s max stack distance = %d", p.Location, p.MaxStackDist)
		}
		if len(p.fallback) == 0 {
			t.Errorf("pFD %s has no stack distances", p.Location)
		}
	}
	if err := m.ValidateRates(); err != nil {
		t.Errorf("rates should validate: %v", err)
	}
}

// TestStackDistanceHandComputed verifies the Fenwick-based stack distance on
// a trace small enough to compute by hand.
func TestStackDistanceHandComputed(t *testing.T) {
	// Sequence (single location): A(10) B(20) C(30) A(10) B(20) A(10)
	// Stack distance of 2nd A: unique bytes of {B, C} = 50.
	// Stack distance of 2nd B: unique bytes of {C, A} = 40.
	// Stack distance of 3rd A: unique bytes of {B} = 20.
	tr := &trace.Trace{Locations: []string{"x"}}
	seq := []struct {
		obj  cache.ObjectID
		size int64
	}{{1, 10}, {2, 20}, {3, 30}, {1, 10}, {2, 20}, {1, 10}}
	for i, s := range seq {
		tr.Append(trace.Request{TimeSec: float64(i), Object: s.obj, Size: s.size, Location: 0})
	}
	m, err := Fit(tr)
	if err != nil {
		t.Fatal(err)
	}
	ds := m.PFDs[0].fallback
	want := map[int64]int{50: 1, 40: 1, 20: 1}
	if len(ds) != 3 {
		t.Fatalf("stack distances = %v, want 3 values", ds)
	}
	got := map[int64]int{}
	for _, d := range ds {
		got[d]++
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("stack distances = %v, want one each of 50/40/20", ds)
			break
		}
	}
	if m.PFDs[0].MaxStackDist != 50 {
		t.Errorf("max stack distance = %d, want 50", m.PFDs[0].MaxStackDist)
	}
}

func TestSampleStackDistanceFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := &PFD{MaxStackDist: 12345, bins: map[binKey][]int64{}}
	// Empty pFD falls back to MaxStackDist.
	if got := p.SampleStackDistance(rng, 5, 1000); got != 12345 {
		t.Errorf("empty pFD sample = %d", got)
	}
	// Marginal fallback.
	p.fallback = []int64{7}
	if got := p.SampleStackDistance(rng, 5, 1000); got != 7 {
		t.Errorf("marginal fallback = %d", got)
	}
	// Exact bin takes precedence.
	k := keyFor(5, 1000)
	p.bins[k] = []int64{42}
	if got := p.SampleStackDistance(rng, 5, 1000); got != 42 {
		t.Errorf("exact bin = %d", got)
	}
	// Neighbouring popularity bucket is used when exact is missing.
	p2 := &PFD{MaxStackDist: 1, bins: map[binKey][]int64{
		{p: log2Bucket(16), s: keyFor(1, 1000).s}: {99},
	}, fallback: []int64{1}}
	if got := p2.SampleStackDistance(rng, 8, 1000); got != 99 {
		t.Errorf("neighbour bin = %d", got)
	}
}

func TestLog2Bucket(t *testing.T) {
	cases := map[int64]uint8{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1 << 20: 20}
	for v, want := range cases {
		if got := log2Bucket(v); got != want {
			t.Errorf("log2Bucket(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(nil, 1); err == nil {
		t.Error("nil models should fail")
	}
	if _, err := NewGenerator(&Models{GPD: &GPD{}}, 1); err == nil {
		t.Error("empty GPD should fail")
	}
	m := &Models{GPD: &GPD{Locations: []string{"a", "b"},
		Tuples: []GPDTuple{{Pops: []int64{1, 0}, Size: 10}}}}
	if _, err := NewGenerator(m, 1); err == nil {
		t.Error("mismatched pFD count should fail")
	}
}

func TestGenerateRoundTrip(t *testing.T) {
	prod := productionTrace(t, 40000)
	m, err := Fit(prod)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(m, 99)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Generate(0); err == nil {
		t.Error("zero requests should fail")
	}
	syn, err := g.Generate(40000)
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Validate(); err != nil {
		t.Fatalf("synthetic trace invalid: %v", err)
	}
	if syn.Len() != 40000 {
		t.Fatalf("synthetic length = %d", syn.Len())
	}

	// Per-location volume shares match production within a few percent
	// (rates are fitted, so this checks the phase-2 emission logic).
	prodShare := locationShares(prod)
	synShare := locationShares(syn)
	for i := range prodShare {
		if math.Abs(prodShare[i]-synShare[i]) > 0.03 {
			t.Errorf("location %d share: prod %.3f vs syn %.3f",
				i, prodShare[i], synShare[i])
		}
	}

	// Fig. 6a/6b: object and traffic spread distributions are similar.
	prodObj, prodTraf := workload.SpreadDistributions(prod)
	synObj, synTraf := workload.SpreadDistributions(syn)
	if d := l1(prodObj, synObj); d > 0.35 {
		t.Errorf("object spread L1 distance = %.3f\nprod=%v\nsyn=%v", d, prodObj, synObj)
	}
	if d := l1(prodTraf, synTraf); d > 0.5 {
		t.Errorf("traffic spread L1 distance = %.3f\nprod=%v\nsyn=%v", d, prodTraf, synTraf)
	}

	// Fig. 6c/6d: LRU hit rates of a traditional (per-location) CDN server
	// are close between the production and synthetic traces across sizes.
	prodParts, synParts := prod.SplitByLocation(), syn.SplitByLocation()
	for _, capMB := range []int64{64, 256, 1024} {
		var ph, sh float64
		for i := range prodParts {
			ph += lruHitRate(t, prodParts[i], capMB<<20)
			sh += lruHitRate(t, synParts[i], capMB<<20)
		}
		ph /= float64(len(prodParts))
		sh /= float64(len(synParts))
		if math.Abs(ph-sh) > 0.12 {
			t.Errorf("cache %dMB: LRU hit rate prod %.3f vs syn %.3f", capMB, ph, sh)
		}
	}
}

func locationShares(tr *trace.Trace) []float64 {
	counts := make([]float64, len(tr.Locations))
	for _, r := range tr.Requests {
		counts[r.Location]++
	}
	for i := range counts {
		counts[i] /= float64(tr.Len())
	}
	return counts
}

func l1(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// lruHitRate replays a trace through a single shared LRU cache.
func lruHitRate(t *testing.T, tr *trace.Trace, capacity int64) float64 {
	t.Helper()
	p := cache.MustNew(cache.LRU, capacity)
	var m cache.Meter
	for i := range tr.Requests {
		r := &tr.Requests[i]
		size := r.Size
		if size > capacity {
			continue
		}
		hit := p.Get(r.Object)
		m.Record(size, hit)
		if !hit {
			if err := p.Admit(r.Object, size); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m.RequestHitRate()
}

func TestGenerateLongerThanProduction(t *testing.T) {
	// SpaceGEN's purpose: extend limited production traces into long
	// synthetic ones (5 days from 1 day in the paper).
	prod := productionTrace(t, 15000)
	m, err := Fit(prod)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := g.Generate(60000) // 4x the production volume
	if err != nil {
		t.Fatal(err)
	}
	if syn.Len() != 60000 {
		t.Fatalf("len = %d", syn.Len())
	}
	// Duration should scale roughly 4x the production duration.
	ratio := syn.DurationSec() / prod.DurationSec()
	if ratio < 3 || ratio > 5 {
		t.Errorf("duration ratio = %.2f, want ~4", ratio)
	}
	// Synthetic trace must exercise many distinct objects, not loop a few.
	n, _ := syn.UniqueObjects()
	if n < 1000 {
		t.Errorf("unique objects = %d, too few", n)
	}
}

func TestRateProfilePreservesDiurnalShape(t *testing.T) {
	// Build a production trace with a strong diurnal swing and verify the
	// synthetic trace reproduces hourly rate variation (the paper's
	// "fine-grained data rate" timestamp option, §4.2).
	cls := workload.Video()
	cls.NumObjects = 4000
	cls.SizeSigma = 0.5
	cls.MaxSizeBytes = 8 << 20
	cls.DiurnalAmplitude = 0.9
	g, err := workload.NewGenerator(cls, geo.PaperCities(), 17)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := g.Generate(60000, 86400)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(prod)
	if err != nil {
		t.Fatal(err)
	}
	// Profiles must be normalised (mean 1) and show real variation.
	for _, p := range m.PFDs {
		if len(p.RateProfile) == 0 {
			t.Fatalf("pFD %s has no rate profile", p.Location)
		}
		sum := 0.0
		minV, maxV := math.Inf(1), math.Inf(-1)
		for _, v := range p.RateProfile {
			sum += v
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
		if mean := sum / float64(len(p.RateProfile)); math.Abs(mean-1) > 1e-9 {
			t.Errorf("pFD %s profile mean = %v", p.Location, mean)
		}
		if maxV < minV*1.2 {
			t.Errorf("pFD %s profile flat despite diurnal workload", p.Location)
		}
		if p.RateAt(-0.5) <= 0 || p.RateAt(1.5) <= 0 {
			t.Errorf("RateAt out-of-range should clamp, got %v/%v",
				p.RateAt(-0.5), p.RateAt(1.5))
		}
	}
	gen, err := NewGenerator(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := gen.Generate(60000)
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic trace's busiest hour should comfortably exceed its
	// quietest hour, mirroring the production swing.
	hours := map[int]int{}
	for _, r := range syn.Requests {
		hours[int(r.TimeSec/3600)]++
	}
	minH, maxH := 1<<60, 0
	for h := 0; h < int(syn.DurationSec()/3600); h++ {
		c := hours[h]
		if c < minH {
			minH = c
		}
		if c > maxH {
			maxH = c
		}
	}
	if maxH < minH*13/10 {
		t.Errorf("synthetic diurnal swing too weak: min=%d max=%d", minH, maxH)
	}
}
