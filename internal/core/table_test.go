package core

import (
	"slices"
	"testing"

	"starcdn/internal/orbit"
	"starcdn/internal/topo"
)

// mod is a modulo n, in [0, n) for negative a too.
func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// signedOffset is the shorter way around a ring of n from 0 to d: positive
// east/north, negative west/south, the half-ring tie counted positive.
func signedOffset(d, n int) int {
	m := mod(d, n)
	if m > n/2 {
		m -= n
	}
	return m
}

// oracleOwner scans every slot for the owner of bucket b nearest to first:
// fewest total hops, then fewest plane hops, then east, then north.
func oracleOwner(h *HashScheme, first orbit.SatID, b BucketID) orbit.SatID {
	c := h.Grid().Constellation()
	cfg := c.Config()
	pf, sf := c.PlaneSlot(first)
	best := orbit.SatID(-1)
	var bestKey []int
	for i := 0; i < c.NumSlots(); i++ {
		s := orbit.SatID(i)
		if h.BucketAt(s) != b {
			continue
		}
		p, q := c.PlaneSlot(s)
		dp := signedOffset(p-pf, cfg.Planes)
		ds := signedOffset(q-sf, cfg.SatsPerPlane)
		west, south := 0, 0
		if dp < 0 {
			west = 1
		}
		if ds < 0 {
			south = 1
		}
		key := []int{abs(dp) + abs(ds), abs(dp), west, south}
		if best < 0 || slices.Compare(key, bestKey) < 0 {
			best, bestKey = s, key
		}
	}
	return best
}

// TestOwnerTable checks the owner and relay tables against references that
// share no code with the fill: a scan of every slot for the nearest owner, and
// the tiling's own definition of a relay neighbour. Health must stay out of the
// tables, so a scheme built before an outage mask answers exactly as one built
// after it.
func TestOwnerTable(t *testing.T) {
	shells := []struct {
		name  string
		grid  func(*testing.T) *topo.Grid
		exact []int // L at which the table must equal the oracle
	}{
		{"72x18", testGrid, []int{1, 4, 9, 16, 25}},
		{"7x5", oddGrid, []int{1, 4, 9, 16, 25}},
	}
	for _, sh := range shells {
		t.Run(sh.name+"/oracle", func(t *testing.T) {
			g := sh.grid(t)
			n := g.Constellation().NumSlots()
			for _, l := range sh.exact {
				h := schemeOn(t, g, l)
				for i := 0; i < n; i++ {
					first := orbit.SatID(i)
					for b := BucketID(0); int(b) < l; b++ {
						if got, want := h.NearestOwner(first, b), oracleOwner(h, first, b); got != want {
							t.Fatalf("L=%d: NearestOwner(%d, %d) = %d, oracle %d", l, first, b, got, want)
						}
					}
				}
			}
		})
		t.Run(sh.name+"/owns", func(t *testing.T) {
			g := sh.grid(t)
			c := g.Constellation()
			for _, l := range []int{1, 4, 9, 16, 25} {
				h := schemeOn(t, g, l)
				for i := 0; i < c.NumSlots(); i++ {
					first := orbit.SatID(i)
					for b := BucketID(0); int(b) < l; b++ {
						if owner := h.NearestOwner(first, b); h.BucketAt(owner) != b {
							t.Fatalf("L=%d: NearestOwner(%d, %d) = %d owns bucket %d",
								l, first, b, owner, h.BucketAt(owner))
						}
					}
				}
			}
		})
		t.Run(sh.name+"/relay", func(t *testing.T) {
			g := sh.grid(t)
			c := g.Constellation()
			for _, l := range []int{1, 4, 9, 16, 25} {
				h := schemeOn(t, g, l)
				for i := 0; i < c.NumSlots(); i++ {
					sat := orbit.SatID(i)
					plane, slot := c.PlaneSlot(sat)
					for _, d := range []topo.Direction{topo.West, topo.East} {
						step := h.Root()
						if d == topo.West {
							step = -step
						}
						want := c.SatAt(plane+step, slot)
						if nb, ok := h.RelayNeighbor(sat, d); nb != want || ok != (want != sat) {
							t.Fatalf("L=%d: RelayNeighbor(%d, %v) = (%d, %v), want (%d, %v)",
								l, sat, d, nb, ok, want, want != sat)
						}
					}
				}
			}
		})
	}
	t.Run("mask-after-build", func(t *testing.T) {
		transient := func(id orbit.SatID) bool { return id%3 == 0 }
		for _, l := range []int{1, 4, 9} {
			g := testGrid(t)
			c := g.Constellation()
			before := schemeOn(t, g, l)
			c.ApplyOutageMask(126, 42)
			after := schemeOn(t, g, l)
			for i := 0; i < c.NumSlots(); i++ {
				first := orbit.SatID(i)
				for b := BucketID(0); int(b) < l; b++ {
					for _, td := range []func(orbit.SatID) bool{nil, transient} {
						o1, s1 := before.ServingOwner(first, b, td)
						o2, s2 := after.ServingOwner(first, b, td)
						if o1 != o2 || s1 != s2 {
							t.Fatalf("L=%d: ServingOwner(%d, %d) built before the mask (%d, %v), after (%d, %v)",
								l, first, b, o1, s1, o2, s2)
						}
					}
				}
				for _, d := range []topo.Direction{topo.West, topo.East} {
					n1, ok1 := before.RelayNeighbor(first, d)
					n2, ok2 := after.RelayNeighbor(first, d)
					if n1 != n2 || ok1 != ok2 {
						t.Fatalf("L=%d: RelayNeighbor(%d, %v) built before the mask (%d, %v), after (%d, %v)",
							l, first, d, n1, ok1, n2, ok2)
					}
				}
			}
		}
	})
	// The seams of the 72×18 shell, as the package doc states them: 4 does
	// not divide 18, and 5 divides neither ring, so even the nearest owner
	// can lie beyond the paper's 2⌊√L/2⌋ = 4 hops.
	t.Run("seam", func(t *testing.T) {
		g := testGrid(t)
		c := g.Constellation()
		for _, tc := range []struct{ l, worst int }{{l: 16, worst: 5}, {l: 25, worst: 7}} {
			h := schemeOn(t, g, tc.l)
			worst := 0
			for i := 0; i < c.NumSlots(); i++ {
				first := orbit.SatID(i)
				for b := BucketID(0); int(b) < tc.l; b++ {
					worst = max(worst, g.TotalHops(first, h.NearestOwner(first, b)))
				}
			}
			if worst != tc.worst {
				t.Errorf("L=%d: worst route %d hops, want %d", tc.l, worst, tc.worst)
			}
		}
	})
}
