package replayer

import (
	"sync"
	"testing"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/orbit"
	"starcdn/internal/topo"
	"starcdn/internal/trace"
	"starcdn/internal/workload"
)

func TestServerBasicOps(t *testing.T) {
	s, err := NewServer(7, cache.LRU, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.id != 7 {
		t.Errorf("id = %d", s.id)
	}
	cl := NewClient()
	defer cl.Close()
	addr := s.Addr()

	if hit, err := cl.Get(addr, 1, 100); err != nil || hit {
		t.Fatalf("empty get: hit=%v err=%v", hit, err)
	}
	if err := cl.Admit(addr, 1, 100); err != nil {
		t.Fatal(err)
	}
	if hit, err := cl.Get(addr, 1, 100); err != nil || !hit {
		t.Fatalf("get after admit: hit=%v err=%v", hit, err)
	}
	if has, err := cl.Contains(addr, 1); err != nil || !has {
		t.Fatalf("contains: %v %v", has, err)
	}
	if has, err := cl.Contains(addr, 2); err != nil || has {
		t.Fatalf("contains absent: %v %v", has, err)
	}
	// Oversize admit is accepted (bypasses cache) per CDN practice.
	if err := cl.Admit(addr, 3, 10000); err != nil {
		t.Fatalf("oversize admit: %v", err)
	}
	m := s.Meter()
	if m.Requests != 2 || m.Hits != 1 {
		t.Fatalf("server meter: %+v", m)
	}
}

func TestServerEvictsLikeLocalLRU(t *testing.T) {
	s, err := NewServer(1, cache.LRU, 250)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := NewClient()
	defer cl.Close()
	addr := s.Addr()
	// Three 100-byte objects in a 250-byte cache: first should evict.
	for obj := cache.ObjectID(1); obj <= 3; obj++ {
		if err := cl.Admit(addr, obj, 100); err != nil {
			t.Fatal(err)
		}
	}
	if hit, _ := cl.Get(addr, 1, 100); hit {
		t.Error("object 1 should have been evicted")
	}
	if hit, _ := cl.Get(addr, 3, 100); !hit {
		t.Error("object 3 should be cached")
	}
}

func TestConcurrentClients(t *testing.T) {
	s, err := NewServer(1, cache.LRU, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := NewClient()
			defer cl.Close()
			for i := 0; i < 200; i++ {
				obj := cache.ObjectID(w*1000 + i)
				if err := cl.Admit(s.Addr(), obj, 64); err != nil {
					errs <- err
					return
				}
				if hit, err := cl.Get(s.Addr(), obj, 64); err != nil || !hit {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m := s.Meter()
	if m.Requests != 8*200 {
		t.Errorf("requests = %d, want 1600", m.Requests)
	}
}

func TestClusterLazyServers(t *testing.T) {
	cl, err := NewCluster(cache.LRU, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Len() != 0 {
		t.Errorf("fresh cluster has %d servers", cl.Len())
	}
	a1, err := cl.Addr(5)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cl.Addr(5)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("same satellite should reuse its server")
	}
	if _, err := cl.Addr(9); err != nil {
		t.Fatal(err)
	}
	if cl.Len() != 2 {
		t.Errorf("servers = %d", cl.Len())
	}
	if _, err := NewCluster(cache.LRU, 0); err == nil {
		t.Error("zero capacity should fail")
	}
}

// TestReplaySequentialServesOverTCP: a plain sequential replay (no fault
// policy) completes, hits, and starts servers lazily. That it agrees with the
// in-process simulator request for request is the oracle's claim
// (TestDifferentialSimVsSequentialReplay).
func TestReplaySequentialServesOverTCP(t *testing.T) {
	h, users, tr := newReplayFixture(t, 8000, 31)
	cluster, err := NewCluster(cache.LRU, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	m, err := Replay(h, cluster, users, tr, Options{Hashing: true, Relay: true, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != int64(len(tr.Requests)) {
		t.Errorf("meter recorded %d of %d requests", m.Requests, len(tr.Requests))
	}
	if m.RequestHitRate() <= 0 {
		t.Error("TCP replay produced zero hit rate")
	}
	if cluster.Len() == 0 {
		t.Error("no servers were spun up")
	}
}

// TestCheckMeter: the replay's closing accounting check refuses a meter that
// lost a request or leaks bytes between hits and misses.
func TestCheckMeter(t *testing.T) {
	var m cache.Meter
	m.Record(100, true)
	m.Record(50, false)
	if err := checkMeter(m, 2); err != nil {
		t.Fatal(err)
	}
	if err := checkMeter(m, 3); err == nil {
		t.Error("a lost request passed")
	}
	m.BytesMissed++
	if err := checkMeter(m, 2); err == nil {
		t.Error("a byte leak passed")
	}
}

func TestReplayValidation(t *testing.T) {
	cluster, _ := NewCluster(cache.LRU, 1000)
	defer cluster.Close()
	tr := &trace.Trace{Locations: []string{"a"}}
	if _, err := Replay(nil, cluster, nil, tr, Options{}); err == nil {
		t.Error("nil hash should fail")
	}
	c, _ := orbit.New(orbit.DefaultStarlinkShell())
	h, _ := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), 4)
	if _, err := Replay(h, cluster, []geo.Point{{}, {}}, tr, Options{}); err == nil {
		t.Error("user/location mismatch should fail")
	}
}

func TestBadFrameStatus(t *testing.T) {
	s, err := NewServer(1, cache.LRU, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cl := NewClient()
	defer cl.Close()
	// An unknown op yields StatusError.
	st, err := cl.roundTrip(s.Addr(), Op(200), 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusError {
		t.Errorf("status = %d, want error", st)
	}
}

// TestReplayConcurrentEqualsSequential: the pipelined window and the
// sequential replay of one trace decide every request alike and contact the
// same satellites.
func TestReplayConcurrentEqualsSequential(t *testing.T) {
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), 4)
	if err != nil {
		t.Fatal(err)
	}
	cities := geo.PaperCities()
	users := make([]geo.Point, len(cities))
	for i, city := range cities {
		users[i] = city.Point
	}
	cls := workload.Video()
	cls.NumObjects = 2000
	cls.SizeSigma = 0.5
	cls.MaxSizeBytes = 4 << 20
	g, err := workload.NewGenerator(cls, cities, 13)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.Generate(10000, 1200)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 64 << 20
	opts := Options{Hashing: true, Relay: true, Seed: 3}

	seqCluster, err := NewCluster(cache.LRU, capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer seqCluster.Close()
	seq, err := Replay(h, seqCluster, users, tr, opts)
	if err != nil {
		t.Fatal(err)
	}

	conCluster, err := NewCluster(cache.LRU, capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer conCluster.Close()
	con, err := ReplayConcurrent(h, conCluster, users, tr, opts)
	if err != nil {
		t.Fatal(err)
	}

	if con != seq {
		t.Errorf("meters differ:\n concurrent %+v\n sequential %+v", con, seq)
	}
	if con.RequestHitRate() <= 0 {
		t.Error("concurrent replay produced no hits")
	}
	if seqCluster.Len() != conCluster.Len() {
		t.Errorf("%d servers started sequentially, %d concurrently", seqCluster.Len(), conCluster.Len())
	}
}

func TestReplayConcurrentValidation(t *testing.T) {
	cluster, _ := NewCluster(cache.LRU, 1000)
	defer cluster.Close()
	tr := &trace.Trace{Locations: []string{"a"}}
	if _, err := ReplayConcurrent(nil, cluster, nil, tr, Options{}); err == nil {
		t.Error("nil hash accepted")
	}
	c, _ := orbit.New(orbit.DefaultStarlinkShell())
	h, _ := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), 4)
	if _, err := ReplayConcurrent(h, cluster, []geo.Point{{}, {}}, tr, Options{}); err == nil {
		t.Error("user/location mismatch accepted")
	}
}
