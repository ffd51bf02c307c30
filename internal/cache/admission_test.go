package cache

import (
	"math/rand"
	"strings"
	"testing"
)

func TestAdmitAll(t *testing.T) {
	f := AdmitAll{}
	if !f.Admit(1, 1<<40) || f.Name() == "" {
		t.Error("AdmitAll must admit everything")
	}
	p := WithAdmission(MustNew(LRU, 100), nil)
	if _, ok := p.(*filtered); ok {
		t.Error("nil filter should not wrap")
	}
}

func TestSizeThreshold(t *testing.T) {
	p := WithAdmission(MustNew(LRU, 1000), SizeThreshold{MaxBytes: 100})
	if !strings.Contains(p.Name(), "size-threshold") {
		t.Errorf("name = %s", p.Name())
	}
	if err := p.Admit(1, 50); err != nil {
		t.Fatal(err)
	}
	if !p.Contains(1) {
		t.Error("small object should be cached")
	}
	if err := p.Admit(2, 500); err != nil {
		t.Fatal(err) // bypass is not an error
	}
	if p.Contains(2) {
		t.Error("oversize object should be bypassed")
	}
	if used := storeOf(p).used; used != 50 {
		t.Errorf("used = %d", used)
	}
}

func TestProbabilisticSizeShape(t *testing.T) {
	f := ProbabilisticSize{C: 1000}
	// Deterministic per object.
	for obj := ObjectID(1); obj < 50; obj++ {
		if f.Admit(obj, 500) != f.Admit(obj, 500) {
			t.Fatal("admission not deterministic")
		}
	}
	// Small objects admitted far more often than huge ones.
	admitRate := func(size int64) float64 {
		n, yes := 5000, 0
		for i := 0; i < n; i++ {
			if f.Admit(ObjectID(i+1), size) {
				yes++
			}
		}
		return float64(yes) / float64(n)
	}
	small := admitRate(10)   // exp(-0.01) ~ 0.99
	large := admitRate(5000) // exp(-5) ~ 0.007
	if small < 0.95 {
		t.Errorf("small-object admit rate = %v", small)
	}
	if large > 0.05 {
		t.Errorf("large-object admit rate = %v", large)
	}
	// C <= 0 admits everything.
	if !(ProbabilisticSize{C: 0}).Admit(1, 1<<40) {
		t.Error("C=0 must admit all")
	}
}

func TestAdmissionImprovesByteHitRateOnHeavyTail(t *testing.T) {
	// A workload where a few huge objects (requested once) would flush many
	// small hot objects: admission control should raise the hit rate.
	rng := rand.New(rand.NewSource(4))
	zipf := rand.NewZipf(rng, 1.2, 1, 199)
	type req struct {
		obj  ObjectID
		size int64
	}
	var reqs []req
	for i := 0; i < 30000; i++ {
		if rng.Intn(20) == 0 {
			// One-shot scan objects half the cache size.
			reqs = append(reqs, req{obj: ObjectID(100000 + i), size: 500})
		} else {
			reqs = append(reqs, req{obj: ObjectID(zipf.Uint64() + 1), size: 10})
		}
	}
	run := func(p Policy) float64 {
		var m Meter
		for _, r := range reqs {
			hit := p.Get(r.obj)
			m.Record(r.size, hit)
			if !hit {
				if err := p.Admit(r.obj, r.size); err != nil {
					t.Fatal(err)
				}
			}
		}
		return m.RequestHitRate()
	}
	plain := run(MustNew(LRU, 1000))
	guarded := run(WithAdmission(MustNew(LRU, 1000), SizeThreshold{MaxBytes: 100}))
	if guarded <= plain {
		t.Errorf("admission control did not help: plain %.3f vs guarded %.3f", plain, guarded)
	}
}
