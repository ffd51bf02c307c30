package topo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"starcdn/internal/orbit"
)

// directions lists the four ISL directions.
var directions = []Direction{North, South, East, West}

func testGrid(t *testing.T) *Grid {
	t.Helper()
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	return NewGrid(c, StarlinkTable1())
}

func TestTable1Values(t *testing.T) {
	m := StarlinkTable1()
	if m.IntraOrbitISL.AvgMs != 8.03 || m.IntraOrbitISL.BandwidthGbps != 100 {
		t.Errorf("intra-orbit spec wrong: %+v", m.IntraOrbitISL)
	}
	if m.InterOrbitISL.AvgMs != 2.15 || m.InterOrbitISL.MinMs != 1.32 {
		t.Errorf("inter-orbit spec wrong: %+v", m.InterOrbitISL)
	}
	if m.GSL.AvgMs != 2.94 || m.GSL.BandwidthGbps != 20 {
		t.Errorf("GSL spec wrong: %+v", m.GSL)
	}
}

func TestDelaySample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spec := StarlinkTable1().GSL
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		v := spec.Sample(rng)
		if v < spec.MinMs {
			t.Fatalf("sample %v below min %v", v, spec.MinMs)
		}
		sum += v
	}
	mean := sum / float64(n)
	// Clipping pulls the mean slightly above AvgMs.
	if mean < spec.AvgMs-0.1 || mean > spec.AvgMs+0.5 {
		t.Errorf("sample mean = %v, want near %v", mean, spec.AvgMs)
	}
}

func TestNeighborsFormTorus(t *testing.T) {
	small, err := orbit.New(orbit.Config{Planes: 7, SatsPerPlane: 5,
		InclinationDeg: 53, AltitudeKm: 550, MinElevDeg: 25})
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid(t)
	c := g.Constellation()
	opposite := map[Direction]Direction{North: South, South: North, East: West, West: East}
	// Every slot and direction of the 72×18 shell and of a small odd one:
	// a neighbour is never the slot itself, and the opposite direction
	// returns home, seams included.
	for _, grid := range []*Grid{g, NewGrid(small, StarlinkTable1())} {
		for i := 0; i < grid.Constellation().NumSlots(); i++ {
			id := orbit.SatID(i)
			for _, d := range directions {
				nb := grid.Neighbor(id, d)
				if nb == id {
					t.Fatalf("%d slots: neighbor(%d,%s) = self", grid.Constellation().NumSlots(), id, d)
				}
				if back := grid.Neighbor(nb, opposite[d]); back != id {
					t.Fatalf("%d slots: neighbor(%d,%s)=%d, back=%d",
						grid.Constellation().NumSlots(), id, d, nb, back)
				}
			}
		}
	}
	// East/west change plane only; north/south change slot only.
	p0, s0 := c.PlaneSlot(100)
	pe, se := c.PlaneSlot(g.Neighbor(100, East))
	if se != s0 || pe != p0+1 {
		t.Errorf("east neighbor plane/slot = %d/%d", pe, se)
	}
	pn, sn := c.PlaneSlot(g.Neighbor(100, North))
	if pn != p0 || sn != s0+1 {
		t.Errorf("north neighbor plane/slot = %d/%d", pn, sn)
	}
}

func TestDirectionString(t *testing.T) {
	for _, d := range directions {
		if d.String() == "" {
			t.Error("empty direction name")
		}
	}
	if Direction(99).String() != "Direction(99)" {
		t.Errorf("unknown direction = %q", Direction(99).String())
	}
}

func TestBrokenISLCount(t *testing.T) {
	g := testGrid(t)
	if got := g.BrokenISLCount(); got != 0 {
		t.Fatalf("healthy constellation has %d broken ISLs", got)
	}
	// One dead satellite breaks exactly its 4 links.
	g.Constellation().SetActive(500, false)
	if got := g.BrokenISLCount(); got != 4 {
		t.Errorf("one dead sat: broken = %d, want 4", got)
	}
	// Paper §5.4: 126 dead of 1296 => 438 broken ISLs among available
	// satellites. With a random mask the count varies around
	// 4*126*(1170/1296) ~ 455; verify the order of magnitude and that
	// adjacent dead satellites reduce the count below the 504 ceiling.
	g.Constellation().ApplyOutageMask(126, 42)
	got := g.BrokenISLCount()
	if got < 380 || got > 504 {
		t.Errorf("126 dead sats: broken = %d, want ~400-504 (paper: 438)", got)
	}
}

func TestHopDistance(t *testing.T) {
	g := testGrid(t)
	c := g.Constellation()
	a := c.SatAt(0, 0)
	if p, s := g.HopDistance(a, a); p != 0 || s != 0 {
		t.Errorf("self distance = %d,%d", p, s)
	}
	if p, s := g.HopDistance(a, c.SatAt(3, 0)); p != 3 || s != 0 {
		t.Errorf("plane distance = %d,%d", p, s)
	}
	if p, s := g.HopDistance(a, c.SatAt(0, 4)); p != 0 || s != 4 {
		t.Errorf("slot distance = %d,%d", p, s)
	}
	// Torus wrap: plane 71 is 1 away from plane 0, slot 17 is 1 from slot 0.
	if p, s := g.HopDistance(a, c.SatAt(71, 17)); p != 1 || s != 1 {
		t.Errorf("wrap distance = %d,%d", p, s)
	}
}

func TestHopDistanceProperties(t *testing.T) {
	g := testGrid(t)
	c := g.Constellation()
	n := c.NumSlots()
	f := func(x, y uint16) bool {
		a := orbit.SatID(int(x) % n)
		b := orbit.SatID(int(y) % n)
		pa, sa := g.HopDistance(a, b)
		pb, sb := g.HopDistance(b, a)
		if pa != pb || sa != sb {
			return false // symmetry
		}
		if pa < 0 || sa < 0 {
			return false
		}
		// Bounded by half the ring in each axis.
		cfg := c.Config()
		return pa <= cfg.Planes/2 && sa <= cfg.SatsPerPlane/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorstCaseBucketHops(t *testing.T) {
	// §3.2 / §5.3: 2*ceil(sqrt(L)/2); L=4 and L=9 both give 2.
	cases := map[int]int{1: 0, 4: 2, 9: 2, 16: 4, 25: 4, 36: 6}
	for l, want := range cases {
		if got := WorstCaseBucketHops(l); got != want {
			t.Errorf("WorstCaseBucketHops(%d) = %d, want %d", l, got, want)
		}
	}
}
