package orbit

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"starcdn/internal/geo"
)

// naiveVisible is the reference the prefilter must reproduce element for
// element: every active slot, propagated and put to the exact test.
func naiveVisible(c *Constellation, p geo.Point, tSec float64) []SatID {
	var out []SatID
	for i := 0; i < c.NumSlots(); i++ {
		id := SatID(i)
		if c.Active(id) && geo.CentralAngleRad(p, c.SubSatellitePoint(id, tSec)) <= c.CoverageAngleRad() {
			out = append(out, id)
		}
	}
	return out
}

// polarShell puts satellites over the poles, where the longitude band must
// switch itself off; the paper's 53° shell never gets there.
func polarShell() Config {
	return Config{Planes: 12, SatsPerPlane: 20, InclinationDeg: 87.9, AltitudeKm: 1200, PhasingF: 1, MinElevDeg: 10}
}

// forcedPoints are the ground points where a band is most likely to be wrong:
// the date line, the polar caps, latitudes off the sphere, and points placed
// on, one slack inside and one slack outside each band edge of satellite sp.
func forcedPoints(c *Constellation, sp geo.Point) []geo.Point {
	cov := geo.Degrees(c.CoverageAngleRad())
	pts := []geo.Point{
		{LatDeg: 10, LonDeg: 180}, {LatDeg: 10, LonDeg: -180}, {LatDeg: -47, LonDeg: 179.9999999},
		{LatDeg: sp.LatDeg, LonDeg: sp.LonDeg + 360}, {LatDeg: sp.LatDeg, LonDeg: sp.LonDeg - 720},
		{LatDeg: 90, LonDeg: 0}, {LatDeg: -90, LonDeg: 77}, {LatDeg: 89.9, LonDeg: sp.LonDeg + 180},
		{LatDeg: 90 - cov, LonDeg: sp.LonDeg}, {LatDeg: 90 - cov - bandSlackDeg, LonDeg: sp.LonDeg},
		{LatDeg: cov + bandSlackDeg - 90, LonDeg: sp.LonDeg + 90}, {LatDeg: 90 - cov/2, LonDeg: -sp.LonDeg},
		{LatDeg: 95, LonDeg: sp.LonDeg + 180}, {LatDeg: -91, LonDeg: sp.LonDeg + 170}, {LatDeg: math.NaN(), LonDeg: 0},
		{LatDeg: sp.LatDeg, LonDeg: math.NaN()}, {LatDeg: sp.LatDeg, LonDeg: math.Inf(1)},
	}
	for _, k := range []float64{-2, -1, 0, 1, 2} {
		edge := cov + k*bandSlackDeg
		pts = append(pts,
			geo.Point{LatDeg: sp.LatDeg - edge, LonDeg: sp.LonDeg},
			geo.Point{LatDeg: sp.LatDeg + edge, LonDeg: sp.LonDeg})
		for _, lat := range []float64{sp.LatDeg, sp.LatDeg - 0.999*cov, sp.LatDeg + 0.999*cov} {
			v := c.viewFrom(geo.Point{LatDeg: lat})
			edge := v.lonBand + (k-1)*bandSlackDeg // v.lonBand already carries one slack
			pts = append(pts,
				geo.Point{LatDeg: lat, LonDeg: sp.LonDeg - edge},
				geo.NewPoint(lat, sp.LonDeg+edge))
		}
	}
	return pts
}

// sweepPoints is the ground-point generator of the visibility tests: the
// forced points around satellite sp plus n random ones.
func sweepPoints(rng *rand.Rand, c *Constellation, sp geo.Point, n int) []geo.Point {
	pts := forcedPoints(c, sp)
	for j := 0; j < n; j++ {
		p := geo.Point{LatDeg: rng.Float64()*180 - 90, LonDeg: rng.Float64()*360 - 180}
		if j%8 == 0 { // callers may pass longitudes nobody normalised
			p.LonDeg = rng.Float64()*1440 - 720
		}
		pts = append(pts, p)
	}
	return pts
}

// TestSnapshotMatchesNaiveSweep is the byte-identity contract of the
// prefilter: over random instants across four days, random outage masks and
// random and forced ground points, Snapshot.VisibleFrom and the one-shot
// VisibleFrom return exactly the naive sweep's satellites in its order.
func TestSnapshotMatchesNaiveSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20250927))
	instants, perInstant := 120, 40
	if testing.Short() {
		instants = 20
	}
	for _, cfg := range []Config{DefaultStarlinkShell(), polarShell()} {
		c := MustNew(cfg)
		snap := c.NewSnapshot()
		var got []SatID
		queries, seen := 0, 0
		for i := 0; i < instants; i++ {
			tSec := rng.Float64() * 4 * 86400
			if i%3 == 0 {
				c.ApplyOutageMask(rng.Intn(c.NumSlots()/3), rng.Int63())
			}
			c.SetActive(SatID(rng.Intn(c.NumSlots())), rng.Intn(2) == 0)
			snap.Update(tSec)
			anySat := snap.pts[rng.Intn(len(snap.pts))]
			for _, p := range sweepPoints(rng, c, anySat, perInstant) {
				want := naiveVisible(c, p, tSec)
				if got = snap.VisibleFrom(got[:0], p); !slices.Equal(got, want) {
					t.Fatalf("%v° shell, t=%v, p=%v: snapshot sees %v, naive sweep %v", cfg.InclinationDeg, tSec, p, got, want)
				}
				if got = c.VisibleFrom(got[:0], p, tSec); !slices.Equal(got, want) {
					t.Fatalf("%v° shell, t=%v, p=%v: one-shot sees %v, naive sweep %v", cfg.InclinationDeg, tSec, p, got, want)
				}
				queries++
				seen += len(want)
			}
		}
		if seen == 0 {
			t.Errorf("%v° shell: %d queries saw no satellite at all; the test compares nothing", cfg.InclinationDeg, queries)
		}
	}
}

// TestViewBands: the bands are on at the paper's latitudes and off where they
// cannot be trusted — an equality test alone would pass with both bands
// disabled everywhere.
func TestViewBands(t *testing.T) {
	c := MustNew(testShell())
	cov := geo.Degrees(c.CoverageAngleRad())
	if v := c.viewFrom(geo.NewPoint(40.713, -74.006)); v.latBand > cov+2*bandSlackDeg || v.lonBand > 3*cov {
		t.Errorf("New York: bands ±%v° lat, ±%v° lon for a %v° footprint", v.latBand, v.lonBand, cov)
	}
	if v := c.viewFrom(geo.NewPoint(85, 10)); v.lonBand != 180 {
		t.Errorf("85°N: longitude band %v°, want off (180)", v.lonBand)
	}
	if v := c.viewFrom(geo.Point{LatDeg: 95}); !math.IsInf(v.latBand, 1) || v.lonBand != 180 {
		t.Errorf("95°N: bands %v° / %v°, want both off", v.latBand, v.lonBand)
	}
}

// TestSnapshotFollowsActivityMask: a reused snapshot reports the mask in
// force at its latest Update and nothing from earlier ones.
func TestSnapshotFollowsActivityMask(t *testing.T) {
	c := MustNew(testShell())
	ny := geo.NewPoint(40.713, -74.006)
	snap := c.NewSnapshot()
	if got := snap.VisibleFrom(nil, ny); len(got) != 0 {
		t.Errorf("snapshot never updated, yet sees %v", got)
	}
	snap.Update(0)
	before := snap.VisibleFrom(nil, ny)
	if len(before) < 2 {
		t.Fatalf("New York sees %d satellites at t=0", len(before))
	}
	c.SetActive(before[0], false)
	if got := snap.VisibleFrom(nil, ny); !slices.Equal(got, before) {
		t.Errorf("snapshot changed without Update: %v -> %v", before, got)
	}
	snap.Update(0)
	if got := snap.VisibleFrom(nil, ny); !slices.Equal(got, before[1:]) {
		t.Errorf("after downing %d: sees %v, want %v", before[0], got, before[1:])
	}
	c.ApplyOutageMask(c.NumSlots(), 1)
	snap.Update(0)
	if got := snap.VisibleFrom(nil, ny); len(got) != 0 {
		t.Errorf("all satellites down, yet sees %v", got)
	}
	c.ApplyOutageMask(0, 1)
	snap.Update(0)
	if got := snap.VisibleFrom(nil, ny); !slices.Equal(got, before) {
		t.Errorf("all satellites back: sees %v, want %v", got, before)
	}
}
