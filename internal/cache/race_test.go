package cache

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentAccounting hammers every eviction policy from multiple
// goroutines through a mutex — the exact usage pattern of the multi-process
// replayer's Server, which serialises cache access per satellite. Under
// `go test -race` this catches (a) any internal state that would need more
// than the caller's lock and (b) byte-accounting drift under concurrent
// Get/Admit/SizeOf/evict interleavings. The final used-bytes figure is
// recomputed from surviving entries and must match exactly.
func TestConcurrentAccounting(t *testing.T) {
	const (
		workers  = 8
		opsEach  = 4000
		capacity = 1 << 14
		objects  = 512
	)
	for _, kind := range []Kind{LRU, LFU, FIFO, SIEVE} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			p := MustNew(kind, capacity)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < opsEach; i++ {
						obj := ObjectID(rng.Intn(objects))
						size := int64(1 + rng.Intn(512))
						mu.Lock()
						switch rng.Intn(4) {
						case 0:
							p.Get(obj)
						case 1:
							if err := p.Admit(obj, size); err != nil {
								mu.Unlock()
								t.Errorf("%s: admit(%d, %d): %v", kind, obj, size, err)
								return
							}
						case 2:
							p.SizeOf(obj)
						case 3:
							p.Contains(obj)
						}
						used, n := storeOf(p).used, p.Len()
						mu.Unlock()
						if used < 0 || used > capacity {
							t.Errorf("%s: used bytes %d outside [0,%d]", kind, used, capacity)
							return
						}
						if n == 0 && used != 0 {
							t.Errorf("%s: empty cache accounts %d bytes", kind, used)
							return
						}
					}
				}(int64(1000*w + 7))
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// Recompute used bytes from the surviving population; any drift
			// means an eviction path leaked or double-freed accounting.
			var recomputed int64
			for obj := ObjectID(0); obj < objects; obj++ {
				if size, ok := p.SizeOf(obj); ok {
					recomputed += size
				}
			}
			if got := storeOf(p).used; got != recomputed {
				t.Fatalf("%s: used bytes %d but entries sum to %d", kind, got, recomputed)
			}
		})
	}
}

// TestConcurrentMeterMerge exercises the replayer's meter aggregation shape:
// per-worker meters recorded independently, then merged. Run under -race.
func TestConcurrentMeterMerge(t *testing.T) {
	const workers = 8
	meters := make([]Meter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 10000; i++ {
				meters[w].Record(int64(1+rng.Intn(100)), rng.Intn(2) == 0)
			}
		}(w)
	}
	wg.Wait()
	var total Meter
	for i := range meters {
		total.Merge(meters[i])
	}
	if total.Requests != workers*10000 {
		t.Fatalf("merged %d requests, want %d", total.Requests, workers*10000)
	}
	if total.BytesHit+total.BytesMissed != total.BytesTotal {
		t.Fatalf("byte accounting drift: hit %d + missed %d != total %d",
			total.BytesHit, total.BytesMissed, total.BytesTotal)
	}
}
