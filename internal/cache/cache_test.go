package cache

import (
	"math/rand"
	"testing"
)

var allKinds = []Kind{LRU, LFU, FIFO, SIEVE}

func TestNewValidation(t *testing.T) {
	if _, err := New(LRU, 0); err == nil {
		t.Error("capacity 0 should fail")
	}
	if _, err := New(LRU, -5); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := New(Kind("bogus"), 10); err == nil {
		t.Error("unknown kind should fail")
	}
	for _, k := range allKinds {
		p, err := New(k, 100)
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
		if p.Name() != string(k) {
			t.Errorf("Name() = %s, want %s", p.Name(), k)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad kind")
		}
	}()
	MustNew(Kind("nope"), 10)
}

func TestAdmitValidation(t *testing.T) {
	for _, k := range allKinds {
		p := MustNew(k, 100)
		if err := p.Admit(1, 0); err == nil {
			t.Errorf("%s: zero size should fail", k)
		}
		if err := p.Admit(1, -1); err == nil {
			t.Errorf("%s: negative size should fail", k)
		}
		if err := p.Admit(1, 101); err != ErrTooLarge {
			t.Errorf("%s: oversize = %v, want ErrTooLarge", k, err)
		}
		if p.Len() != 0 || storeOf(p).used != 0 {
			t.Errorf("%s: failed admits must not mutate state", k)
		}
	}
}

func TestBasicHitMiss(t *testing.T) {
	for _, k := range allKinds {
		p := MustNew(k, 100)
		if p.Get(1) {
			t.Errorf("%s: hit on empty cache", k)
		}
		if err := p.Admit(1, 40); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if !p.Get(1) || !p.Contains(1) {
			t.Errorf("%s: miss after admit", k)
		}
		if sz, ok := p.SizeOf(1); !ok || sz != 40 {
			t.Errorf("%s: SizeOf = %d,%v", k, sz, ok)
		}
		if _, ok := p.SizeOf(2); ok {
			t.Errorf("%s: SizeOf of absent object", k)
		}
		if used := storeOf(p).used; used != 40 || p.Len() != 1 {
			t.Errorf("%s: used=%d len=%d", k, used, p.Len())
		}
	}
}

func TestResizeExistingObject(t *testing.T) {
	for _, k := range allKinds {
		p := MustNew(k, 100)
		mustAdmit(t, p, 1, 40)
		mustAdmit(t, p, 1, 60) // same object, larger now
		if used := storeOf(p).used; used != 60 || p.Len() != 1 {
			t.Errorf("%s: resize: used=%d len=%d", k, used, p.Len())
		}
		mustAdmit(t, p, 1, 10)
		if used := storeOf(p).used; used != 10 {
			t.Errorf("%s: shrink: used=%d", k, used)
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p := MustNew(LRU, 100)
	mustAdmit(t, p, 1, 40)
	mustAdmit(t, p, 2, 40)
	p.Get(1) // 1 is now MRU
	mustAdmit(t, p, 3, 40)
	if p.Contains(2) {
		t.Error("LRU should have evicted 2")
	}
	if !p.Contains(1) || !p.Contains(3) {
		t.Error("LRU evicted the wrong object")
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	p := MustNew(FIFO, 100)
	mustAdmit(t, p, 1, 40)
	mustAdmit(t, p, 2, 40)
	p.Get(1) // must not rescue 1
	mustAdmit(t, p, 3, 40)
	if p.Contains(1) {
		t.Error("FIFO should have evicted 1 despite the hit")
	}
	if !p.Contains(2) || !p.Contains(3) {
		t.Error("FIFO evicted the wrong object")
	}
}

func TestLFUEvictionOrder(t *testing.T) {
	p := MustNew(LFU, 100)
	mustAdmit(t, p, 1, 40)
	mustAdmit(t, p, 2, 40)
	p.Get(1)
	p.Get(1) // freq(1)=3, freq(2)=1
	mustAdmit(t, p, 3, 40)
	if p.Contains(2) {
		t.Error("LFU should evict the low-frequency object 2")
	}
	if !p.Contains(1) {
		t.Error("LFU evicted the hot object")
	}
	// The fresh object 3 has freq 1 and is evicted next over hot 1.
	mustAdmit(t, p, 4, 40)
	if p.Contains(3) {
		t.Error("LFU should evict coldest first")
	}
	if !p.Contains(1) {
		t.Error("LFU evicted hot object on second round")
	}
}

func TestSieveKeepsVisited(t *testing.T) {
	p := MustNew(SIEVE, 100)
	mustAdmit(t, p, 1, 40)
	mustAdmit(t, p, 2, 40)
	p.Get(1) // mark visited
	mustAdmit(t, p, 3, 40)
	// Hand sweeps from tail: 1 is visited (spared, bit cleared), 2 evicted.
	if p.Contains(2) {
		t.Error("SIEVE should have evicted unvisited 2")
	}
	if !p.Contains(1) {
		t.Error("SIEVE should retain visited 1")
	}
}

func TestSieveAllVisitedStillEvicts(t *testing.T) {
	p := MustNew(SIEVE, 100)
	for id := ObjectID(1); id <= 2; id++ {
		mustAdmit(t, p, id, 50)
		p.Get(id)
	}
	mustAdmit(t, p, 3, 50) // everything visited: sweep clears bits then evicts
	if s := storeOf(p); s.used > s.capacity {
		t.Errorf("over capacity: %d > %d", s.used, s.capacity)
	}
	if !p.Contains(3) {
		t.Error("fresh object should be cached")
	}
	if p.Len() != 2 {
		t.Errorf("len = %d, want 2", p.Len())
	}
}

func TestMeter(t *testing.T) {
	var m Meter
	if m.RequestHitRate() != 0 || m.ByteHitRate() != 0 {
		t.Error("empty meter should report zeros")
	}
	m.Record(100, true)
	m.Record(300, false)
	if m.Requests != 2 || m.Hits != 1 {
		t.Errorf("counters: %+v", m)
	}
	if m.RequestHitRate() != 0.5 {
		t.Errorf("RHR = %v", m.RequestHitRate())
	}
	if m.ByteHitRate() != 0.25 {
		t.Errorf("BHR = %v", m.ByteHitRate())
	}
	if m.BytesMissed != 300 {
		t.Errorf("missed = %d", m.BytesMissed)
	}
	var other Meter
	other.Record(100, true)
	m.Merge(other)
	if m.Requests != 3 || m.Hits != 2 || m.BytesTotal != 500 {
		t.Errorf("after merge: %+v", m)
	}
	if m.String() == "" {
		t.Error("String empty")
	}
}

// TestPolicyHitRateOrdering checks the qualitative behaviour the simulator
// relies on: under a Zipf-like skewed workload, LRU and SIEVE comfortably
// beat FIFO-free random admission order at equal capacity.
func TestPolicyHitRateOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Zipf over 1000 objects; cache fits ~100 unit-size objects.
	zipf := rand.NewZipf(rng, 1.2, 1, 999)
	workload := make([]ObjectID, 50000)
	for i := range workload {
		workload[i] = ObjectID(zipf.Uint64())
	}
	run := func(k Kind) float64 {
		p := MustNew(k, 100)
		var m Meter
		for _, id := range workload {
			hit := p.Get(id)
			m.Record(1, hit)
			if !hit {
				if err := p.Admit(id, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		return m.RequestHitRate()
	}
	rates := map[Kind]float64{}
	for _, k := range allKinds {
		rates[k] = run(k)
		if rates[k] < 0.3 {
			t.Errorf("%s hit rate suspiciously low: %v", k, rates[k])
		}
	}
	if rates[LRU] <= rates[FIFO]-0.05 {
		t.Errorf("LRU (%v) should not trail FIFO (%v) badly on skewed workload", rates[LRU], rates[FIFO])
	}
	if rates[SIEVE] < rates[FIFO] {
		t.Errorf("SIEVE (%v) should beat FIFO (%v) on skewed workload", rates[SIEVE], rates[FIFO])
	}
}

// storeOf returns the store behind p, unwrapping an admission filter, so a
// test can read its byte count and capacity.
func storeOf(p Policy) *store {
	if f, ok := p.(*filtered); ok {
		p = f.Policy
	}
	return p.(*store)
}

func mustAdmit(t *testing.T, p Policy, id ObjectID, size int64) {
	t.Helper()
	if err := p.Admit(id, size); err != nil {
		t.Fatalf("admit %d: %v", id, err)
	}
}

// TestPolicySteadyStateAllocs requires a full cache to serve a Get hit, a
// Contains miss and an Admit that evicts without allocating: once the cache
// has filled, its nodes, index and LFU frequency records are all recycled.
func TestPolicySteadyStateAllocs(t *testing.T) {
	const capacity = 1 << 10
	for _, k := range allKinds {
		p := MustNew(k, capacity)
		for id := ObjectID(0); id < capacity; id++ {
			mustAdmit(t, p, id, 1)
		}
		next, wrong := ObjectID(capacity), 0
		allocs := testing.AllocsPerRun(100, func() {
			if !p.Get(next-1) || p.Contains(1<<40) || p.Admit(next, 1) != nil {
				wrong++
			}
			next++
		})
		if wrong != 0 || p.Len() != capacity {
			t.Errorf("%s: %d wrong answers, len %d", k, wrong, p.Len())
		}
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per Get hit, Contains miss and evicting Admit, want 0", k, allocs)
		}
	}
}
