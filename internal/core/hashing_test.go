package core

import (
	"math"
	"testing"
	"testing/quick"

	"starcdn/internal/cache"
	"starcdn/internal/orbit"
	"starcdn/internal/topo"
)

func testGrid(t *testing.T) *topo.Grid {
	t.Helper()
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	return topo.NewGrid(c, topo.StarlinkTable1())
}

// oddGrid is a 7×5 shell: no tile edge above 1 divides either ring, so every
// L > 1 has seams on both axes.
func oddGrid(t *testing.T) *topo.Grid {
	t.Helper()
	c, err := orbit.New(orbit.Config{Planes: 7, SatsPerPlane: 5,
		InclinationDeg: 53, AltitudeKm: 550, MinElevDeg: 25})
	if err != nil {
		t.Fatal(err)
	}
	return topo.NewGrid(c, topo.StarlinkTable1())
}

func schemeOn(t *testing.T, g *topo.Grid, l int) *HashScheme {
	t.Helper()
	h, err := NewHashScheme(g, l)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func scheme(t *testing.T, l int) *HashScheme {
	t.Helper()
	return schemeOn(t, testGrid(t), l)
}

func TestNewHashSchemeValidation(t *testing.T) {
	g := testGrid(t)
	if _, err := NewHashScheme(nil, 4); err == nil {
		t.Error("nil grid should fail")
	}
	for _, l := range []int{0, -1, 2, 3, 5, 8} {
		if _, err := NewHashScheme(g, l); err == nil {
			t.Errorf("non-square L=%d should fail", l)
		}
	}
	for _, l := range []int{1, 4, 9, 16, 25} {
		h, err := NewHashScheme(g, l)
		if err != nil {
			t.Errorf("L=%d: %v", l, err)
			continue
		}
		if h.Buckets() != l || h.Root()*h.Root() != l {
			t.Errorf("L=%d: buckets=%d root=%d", l, h.Buckets(), h.Root())
		}
	}
	// A tile larger than the grid must be rejected.
	small, err := orbit.New(orbit.Config{Planes: 4, SatsPerPlane: 2,
		InclinationDeg: 53, AltitudeKm: 550, MinElevDeg: 25})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHashScheme(topo.NewGrid(small, topo.StarlinkTable1()), 9); err == nil {
		t.Error("3x3 tile on a 4x2 grid should fail")
	}
}

func TestBucketOfUniform(t *testing.T) {
	h := scheme(t, 4)
	counts := make([]int, 4)
	n := 100000
	for i := 0; i < n; i++ {
		b := h.BucketOf(cache.ObjectID(i + 1))
		if b < 0 || int(b) >= 4 {
			t.Fatalf("bucket out of range: %d", b)
		}
		counts[b]++
	}
	for b, c := range counts {
		frac := float64(c) / float64(n)
		if math.Abs(frac-0.25) > 0.01 {
			t.Errorf("bucket %d gets %.3f of objects, want 0.25", b, frac)
		}
	}
	// Deterministic.
	if h.BucketOf(12345) != h.BucketOf(12345) {
		t.Error("BucketOf not deterministic")
	}
}

func TestBucketTiling(t *testing.T) {
	h := scheme(t, 4)
	c := h.Grid().Constellation()
	// Every 2x2 tile holds all 4 distinct buckets (Fig. 5a).
	for _, base := range [][2]int{{0, 0}, {10, 4}, {70, 16}} {
		seen := map[BucketID]bool{}
		for dp := 0; dp < 2; dp++ {
			for ds := 0; ds < 2; ds++ {
				seen[h.BucketAt(c.SatAt(base[0]+dp, base[1]+ds))] = true
			}
		}
		if len(seen) != 4 {
			t.Errorf("tile at %v has %d distinct buckets, want 4", base, len(seen))
		}
	}
	// The pattern repeats with period root in both axes.
	if h.BucketAt(c.SatAt(3, 5)) != h.BucketAt(c.SatAt(5, 7)) {
		t.Error("tiling should repeat every root planes/slots")
	}
	// Every slot owns a bucket in [0, L), seams included.
	for _, l := range []int{1, 4, 9, 16} {
		h := scheme(t, l)
		for i := 0; i < c.NumSlots(); i++ {
			if b := h.BucketAt(orbit.SatID(i)); b < 0 || int(b) >= l {
				t.Fatalf("L=%d: BucketAt(%d) = %d outside [0,%d)", l, i, b, l)
			}
		}
	}
}

func TestNearestOwnerWithinBound(t *testing.T) {
	// §3.2: every bucket reachable within 2*floor(sqrt(L)/2) hops.
	for _, l := range []int{4, 9} {
		h := scheme(t, l)
		c := h.Grid().Constellation()
		bound := topo.WorstCaseBucketHops(l)
		worst := 0
		for i := 0; i < c.NumSlots(); i += 7 {
			first := orbit.SatID(i)
			for b := BucketID(0); int(b) < l; b++ {
				owner := h.NearestOwner(first, b)
				if h.BucketAt(owner) != b {
					t.Fatalf("L=%d: owner of bucket %d has bucket %d", l, b, h.BucketAt(owner))
				}
				if hops := h.Grid().TotalHops(first, owner); hops > worst {
					worst = hops
				}
			}
		}
		if worst > bound {
			t.Errorf("L=%d: worst-case hops %d exceeds paper bound %d", l, worst, bound)
		}
		// Own bucket is served locally.
		for i := 0; i < c.NumSlots(); i += 131 {
			id := orbit.SatID(i)
			if h.NearestOwner(id, h.BucketAt(id)) != id {
				t.Errorf("L=%d: sat %d should own its own bucket", l, id)
			}
		}
	}
}

func TestServingOwnerRemapsAroundDeadOwner(t *testing.T) {
	h := scheme(t, 4)
	c := h.Grid().Constellation()
	first := c.SatAt(10, 5)
	b := BucketID(3)
	owner := h.NearestOwner(first, b)
	got, ok := h.ServingOwner(first, b, nil)
	if !ok || got != owner {
		t.Fatalf("healthy: serving owner = %d, want owner %d", got, owner)
	}
	c.SetActive(owner, false)
	got, ok = h.ServingOwner(first, b, nil)
	if !ok {
		t.Fatal("remap failed with one dead satellite")
	}
	if got == owner {
		t.Error("dead owner still serving")
	}
	if !c.Active(got) {
		t.Error("remap target is dead")
	}
	// Remap is deterministic.
	got2, _ := h.ServingOwner(first, b, nil)
	if got2 != got {
		t.Error("remap not deterministic")
	}
	c.SetActive(owner, true)
}

func TestRemapAllDead(t *testing.T) {
	h := scheme(t, 4)
	c := h.Grid().Constellation()
	c.ApplyOutageMask(c.NumSlots(), 1) // kill everything
	if _, ok := h.Remap(orbit.SatID(0)); ok {
		t.Error("remap should fail with no active satellites")
	}
	c.ApplyOutageMask(0, 1)
}

func TestDuties(t *testing.T) {
	h := scheme(t, 9)
	c := h.Grid().Constellation()
	// Healthy constellation: every active satellite serves exactly 1 bucket.
	duties := h.Duties()
	if len(duties) != c.NumSlots() {
		t.Fatalf("duties for %d sats, want %d", len(duties), c.NumSlots())
	}
	for id, list := range duties {
		if len(list) != 1 || list[0] != h.BucketAt(id) {
			t.Fatalf("healthy sat %d duties = %v", id, list)
		}
	}
	// With the paper's outage (126 dead), some satellites inherit extra
	// buckets; totals must conserve: every dead satellite's bucket lands
	// somewhere, and only active satellites hold duties (Fig. 11 setup).
	c.ApplyOutageMask(126, 42)
	duties = h.Duties()
	multi := 0
	total := 0
	for id, list := range duties {
		if !c.Active(id) {
			t.Fatalf("dead satellite %d has duties %v", id, list)
		}
		if len(list) == 0 {
			t.Fatalf("active satellite %d has no duties", id)
		}
		if len(list) > 1 {
			multi++
		}
		total += len(list)
	}
	if len(duties) != c.NumActive() {
		t.Errorf("duty holders = %d, active = %d", len(duties), c.NumActive())
	}
	if multi == 0 {
		t.Error("outage should create multi-bucket satellites")
	}
	c.ApplyOutageMask(0, 42)
}

func TestRelayNeighbor(t *testing.T) {
	for _, l := range []int{4, 9} {
		h := scheme(t, l)
		c := h.Grid().Constellation()
		sat := c.SatAt(20, 7)
		east, ok := h.RelayNeighbor(sat, topo.East)
		if !ok {
			t.Fatalf("L=%d: no east relay neighbour", l)
		}
		west, ok := h.RelayNeighbor(sat, topo.West)
		if !ok {
			t.Fatalf("L=%d: no west relay neighbour", l)
		}
		// Relay neighbours share the bucket (§3.3: same bucket ID).
		if h.BucketAt(east) != h.BucketAt(sat) || h.BucketAt(west) != h.BucketAt(sat) {
			t.Errorf("L=%d: relay neighbours must share the bucket", l)
		}
		// They are root planes away at the same slot.
		pe, se := c.PlaneSlot(east)
		ps, ss := c.PlaneSlot(sat)
		if se != ss || (pe-ps+72)%72 != h.Root() {
			t.Errorf("L=%d: east neighbour at plane %d slot %d from %d/%d", l, pe, se, ps, ss)
		}
		if h.RelayHops() != h.Root() {
			t.Errorf("RelayHops = %d", h.RelayHops())
		}
		// North/south are not relay directions.
		if _, ok := h.RelayNeighbor(sat, topo.North); ok {
			t.Error("north must not be a relay direction")
		}
		// Dead neighbour is unusable.
		c.SetActive(east, false)
		if _, ok := h.RelayNeighbor(sat, topo.East); ok {
			t.Error("dead relay neighbour should be unavailable")
		}
		c.SetActive(east, true)
	}
}

// TestOneBucketIsFirstContactPlacement pins what lets the no-hashing ablation
// be a value: at L = 1 every slot is its own nearest owner at zero routing
// hops, and the relay neighbours are the grid's own east/west neighbours one
// plane away — on the Starlink shell and on a shell whose rings no tile edge
// above 1 divides.
func TestOneBucketIsFirstContactPlacement(t *testing.T) {
	for _, g := range []*topo.Grid{testGrid(t), oddGrid(t)} {
		h := OneBucket(g)
		c := g.Constellation()
		if h.Buckets() != 1 || h.RelayHops() != 1 {
			t.Fatalf("buckets=%d relay hops=%d, want 1 and 1", h.Buckets(), h.RelayHops())
		}
		dead := g.Neighbor(c.SatAt(3, 2), topo.East)
		c.SetActive(dead, false)
		for i := 0; i < c.NumSlots(); i++ {
			s := orbit.SatID(i)
			if b := h.BucketOf(cache.ObjectID(i) * 7919); b != 0 {
				t.Fatalf("BucketOf = %d, want 0", b)
			}
			if owner := h.NearestOwner(s, 0); owner != s {
				t.Fatalf("NearestOwner(%d, 0) = %d", s, owner)
			}
			if ph, sh := h.RoutingHops(s, h.NearestOwner(s, 0)); ph != 0 || sh != 0 {
				t.Fatalf("RoutingHops(%d) = (%d, %d)", s, ph, sh)
			}
			for _, d := range []topo.Direction{topo.West, topo.East} {
				nb, ok := h.RelayNeighbor(s, d)
				if want := g.Neighbor(s, d); nb != want || ok != c.Active(want) {
					t.Fatalf("RelayNeighbor(%d, %v) = (%d, %v), want (%d, %v)",
						s, d, nb, ok, want, c.Active(want))
				}
			}
		}
		if _, ok := h.RelayNeighbor(c.SatAt(3, 2), topo.East); ok {
			t.Error("dead relay neighbour should be unavailable")
		}
	}
}

func TestWorstCaseRoutingLatency(t *testing.T) {
	// Fig. 9 anchor points: L=4 and L=9 share the same worst-case routing
	// latency; L=16 roughly doubles it (paper: ~40 ms round trip).
	h4, h9, h16 := scheme(t, 4), scheme(t, 9), scheme(t, 16)
	l4 := h4.WorstCaseRoutingLatencyMs()
	l9 := h9.WorstCaseRoutingLatencyMs()
	l16 := h16.WorstCaseRoutingLatencyMs()
	if math.Abs(l4-l9) > 1e-9 {
		t.Errorf("L=4 (%v) and L=9 (%v) should have equal worst-case latency", l4, l9)
	}
	if math.Abs(l16-2*l4) > 1e-9 {
		t.Errorf("L=16 (%v) should double L=4 (%v)", l16, l4)
	}
	// 2*(2.15+8.03) = 20.36 ms round trip for L=4.
	if math.Abs(l4-20.36) > 0.01 {
		t.Errorf("L=4 worst-case latency = %v, want 20.36", l4)
	}
	if l16 < 40 || l16 > 41 {
		t.Errorf("L=16 worst-case latency = %v, want ~40.7 (paper: ~40 ms)", l16)
	}
	if h1 := scheme(t, 1); h1.WorstCaseRoutingLatencyMs() != 0 {
		t.Error("L=1 has no routing overhead")
	}
}

func TestRoutingConsistencyProperty(t *testing.T) {
	// Any two satellites looking up the same object reach satellites with
	// the same bucket — the property that fixes the redundancy problem of
	// Fig. 4 (user-1 and user-2 reaching different caches).
	h := scheme(t, 9)
	c := h.Grid().Constellation()
	n := c.NumSlots()
	f := func(obj uint32, s1, s2 uint16) bool {
		b := h.BucketOf(cache.ObjectID(obj))
		o1 := h.NearestOwner(orbit.SatID(int(s1)%n), b)
		o2 := h.NearestOwner(orbit.SatID(int(s2)%n), b)
		return h.BucketAt(o1) == b && h.BucketAt(o2) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestServingOwnerFailurePolicy covers the §3.4 decision table: an active
// owner serves; a transiently-down owner degrades to a ground miss (serve
// false); a long-term-down owner is remapped to an active heir; and when no
// remap target exists the first contact serves as a last resort.
func TestServingOwnerFailurePolicy(t *testing.T) {
	h := scheme(t, 4)
	c := h.Grid().Constellation()
	first := c.SatAt(10, 5)
	b := BucketID(2)
	owner := h.NearestOwner(first, b)

	// Healthy: the nearest owner serves, regardless of the transient set.
	if got, serve := h.ServingOwner(first, b, nil); !serve || got != owner {
		t.Fatalf("healthy: (%d,%v), want (%d,true)", got, serve, owner)
	}
	always := func(orbit.SatID) bool { return true }
	if got, serve := h.ServingOwner(first, b, always); !serve || got != owner {
		t.Errorf("active owner must serve even if flagged transient: (%d,%v)", got, serve)
	}

	// Transient outage: degrade to a ground miss, still naming the owner.
	c.SetActive(owner, false)
	transient := func(id orbit.SatID) bool { return id == owner }
	if got, serve := h.ServingOwner(first, b, transient); serve || got != owner {
		t.Errorf("transient: (%d,%v), want (%d,false)", got, serve, owner)
	}

	// Long-term outage: remapped to the deterministic active heir.
	heir, ok := h.Remap(owner)
	if !ok {
		t.Fatal("remap failed with one dead satellite")
	}
	if got, serve := h.ServingOwner(first, b, nil); !serve || got != heir {
		t.Errorf("long-term: (%d,%v), want heir (%d,true)", got, serve, heir)
	}
	// A nil-safe variant of "not transient": same remap.
	notDown := func(orbit.SatID) bool { return false }
	if got, serve := h.ServingOwner(first, b, notDown); !serve || got != heir {
		t.Errorf("long-term with callback: (%d,%v), want (%d,true)", got, serve, heir)
	}
	c.SetActive(owner, true)

	// No remap target at all: fall back to the first contact.
	c.ApplyOutageMask(c.NumSlots(), 1)
	if got, serve := h.ServingOwner(first, b, nil); !serve || got != first {
		t.Errorf("all dead: (%d,%v), want first contact (%d,true)", got, serve, first)
	}
	c.ApplyOutageMask(0, 1)
}
