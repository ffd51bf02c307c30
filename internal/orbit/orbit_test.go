package orbit

import (
	"math"
	"testing"

	"starcdn/internal/geo"
)

func testShell() Config {
	return DefaultStarlinkShell()
}

func TestConfigValidate(t *testing.T) {
	good := testShell()
	if err := good.Validate(); err != nil {
		t.Fatalf("default shell invalid: %v", err)
	}
	bad := []Config{
		{Planes: 0, SatsPerPlane: 18, InclinationDeg: 53, AltitudeKm: 550},
		{Planes: 72, SatsPerPlane: 0, InclinationDeg: 53, AltitudeKm: 550},
		{Planes: 72, SatsPerPlane: 18, InclinationDeg: 0, AltitudeKm: 550},
		{Planes: 72, SatsPerPlane: 18, InclinationDeg: 53, AltitudeKm: 0},
		{Planes: 72, SatsPerPlane: 18, InclinationDeg: 53, AltitudeKm: 550, MinElevDeg: 95},
		{Planes: 72, SatsPerPlane: 18, InclinationDeg: 53, AltitudeKm: 550, PhasingF: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New with config %d should fail", i)
		}
	}
}

func TestPeriodMatchesStarlink(t *testing.T) {
	// 550 km circular orbit: ~95.5 minutes ("approximately every 90 minutes"
	// in the paper's phrasing).
	p := testShell().PeriodSec()
	if p < 90*60 || p > 100*60 {
		t.Errorf("period = %.1f min, want ~95", p/60)
	}
}

func TestShellCounts(t *testing.T) {
	c := MustNew(testShell())
	if c.NumSlots() != 1296 {
		t.Errorf("slots = %d, want 1296", c.NumSlots())
	}
	if c.NumActive() != 1296 {
		t.Errorf("active = %d, want 1296", c.NumActive())
	}
	c.ApplyOutageMask(126, 7)
	if c.NumActive() != 1170 {
		t.Errorf("after outage: active = %d, want 1170 (paper §5.1)", c.NumActive())
	}
	// Idempotent for the same parameters.
	c.ApplyOutageMask(126, 7)
	if c.NumActive() != 1170 {
		t.Errorf("outage mask not idempotent: %d", c.NumActive())
	}
	// Resets fully with n=0.
	c.ApplyOutageMask(0, 7)
	if c.NumActive() != 1296 {
		t.Errorf("reset failed: %d", c.NumActive())
	}
	// Clamp n > slots.
	c.ApplyOutageMask(5000, 7)
	if c.NumActive() != 0 {
		t.Errorf("full outage: active = %d", c.NumActive())
	}
}

func TestSetActiveBounds(t *testing.T) {
	c := MustNew(testShell())
	c.SetActive(-1, false)
	c.SetActive(SatID(c.NumSlots()), false)
	if c.NumActive() != c.NumSlots() {
		t.Error("out-of-range SetActive must be a no-op")
	}
	c.SetActive(5, false)
	c.SetActive(5, false) // double-disable must not double-count
	if c.NumActive() != c.NumSlots()-1 {
		t.Errorf("active = %d", c.NumActive())
	}
	if c.Active(5) {
		t.Error("sat 5 should be inactive")
	}
	if c.Active(-1) || c.Active(SatID(c.NumSlots())) {
		t.Error("out-of-range Active must be false")
	}
}

func TestPlaneSlotRoundTrip(t *testing.T) {
	c := MustNew(testShell())
	for _, id := range []SatID{0, 17, 18, 500, 1295} {
		p, s := c.PlaneSlot(id)
		if got := c.SatAt(p, s); got != id {
			t.Errorf("round trip %d -> (%d,%d) -> %d", id, p, s, got)
		}
	}
	// Wrapping.
	if c.SatAt(-1, 0) != c.SatAt(71, 0) {
		t.Error("negative plane should wrap")
	}
	if c.SatAt(0, -1) != c.SatAt(0, 17) {
		t.Error("negative slot should wrap")
	}
	if c.SatAt(72, 5) != c.SatAt(0, 5) {
		t.Error("plane overflow should wrap")
	}
}

func TestSubSatellitePointBounds(t *testing.T) {
	c := MustNew(testShell())
	maxLat := 0.0
	for id := SatID(0); int(id) < c.NumSlots(); id += 37 {
		for _, tSec := range []float64{0, 100, 1000, 5000, 86400} {
			p := c.SubSatellitePoint(id, tSec)
			if math.IsNaN(p.LatDeg) || math.IsNaN(p.LonDeg) || p.LonDeg < -180 || p.LonDeg >= 180 {
				t.Fatalf("invalid point %v for sat %d t=%v", p, id, tSec)
			}
			if a := math.Abs(p.LatDeg); a > maxLat {
				maxLat = a
			}
		}
	}
	// Latitude never exceeds inclination for a circular orbit.
	if maxLat > 53.0001 {
		t.Errorf("max |lat| = %v, must be <= inclination 53", maxLat)
	}
	// And the shell actually reaches high latitudes.
	if maxLat < 45 {
		t.Errorf("max |lat| = %v, expected coverage close to 53", maxLat)
	}
}

func TestOrbitClosesAfterOnePeriod(t *testing.T) {
	c := MustNew(testShell())
	period := c.Config().PeriodSec()
	id := SatID(123)
	p0 := c.SubSatellitePoint(id, 0)
	p1 := c.SubSatellitePoint(id, period)
	// After one period the satellite returns to the same latitude; the
	// longitude shifts west by the Earth's rotation during one period.
	if math.Abs(p0.LatDeg-p1.LatDeg) > 0.01 {
		t.Errorf("latitude after one period: %v vs %v", p0.LatDeg, p1.LatDeg)
	}
	wantShift := geo.Degrees(EarthRotationRadPerSec * period)
	gotShift := geo.NormalizeLonDeg(p0.LonDeg - p1.LonDeg)
	if math.Abs(gotShift-wantShift) > 0.01 {
		t.Errorf("westward shift = %v, want %v", gotShift, wantShift)
	}
}

func TestGroundSpeed(t *testing.T) {
	// Sub-satellite point moves at roughly 2*pi*(R)/period ~ 7 km/s
	// (paper: "around 8 km per second" for the orbital velocity).
	c := MustNew(testShell())
	p0 := c.SubSatellitePoint(0, 0)
	p1 := c.SubSatellitePoint(0, 10)
	speed := geo.DistanceKm(p0, p1) / 10
	if speed < 6 || speed > 8.5 {
		t.Errorf("ground speed = %.2f km/s, want ~7", speed)
	}
}

func TestWestNeighborRetracesTrack(t *testing.T) {
	// §3.3 / Fig. 3: a satellite's west inter-orbital neighbour travels a
	// path very similar to the one this satellite traveled one inter-plane
	// time-offset earlier. Verify the constellation reproduces the effect
	// that relayed fetch exploits: the west neighbour's current footprint
	// overlaps this satellite's recent footprint.
	c := MustNew(testShell())
	id := c.SatAt(10, 5)
	west := c.SatAt(9, 5)
	// Find the time lag that minimises the distance between west's position
	// at t and id's position at t-lag, scanning a coarse grid.
	// The west neighbour passed over this satellite's current position
	// raanStep/earthRate ~ 1197 s ago: find the lag minimising
	// |west(tNow-lag) - id(tNow)|.
	const tNow = 3000.0
	pNow := c.SubSatellitePoint(id, tNow)
	best := math.Inf(1)
	bestLag := 0.0
	for lag := 0.0; lag <= 2400; lag += 5 {
		p := c.SubSatellitePoint(west, tNow-lag)
		if d := geo.DistanceKm(pNow, p); d < best {
			best, bestLag = d, lag
		}
	}
	if best > 300 {
		t.Errorf("west neighbour does not retrace track: min distance %.0f km", best)
	}
	if bestLag < 900 || bestLag > 1500 {
		t.Errorf("retrace lag = %.0f s, want ~1197", bestLag)
	}
}

func TestVisibleFrom(t *testing.T) {
	c := MustNew(testShell())
	ny := geo.NewPoint(40.713, -74.006)
	counts := 0
	samples := 0
	for tSec := 0.0; tSec < 5700; tSec += 300 {
		sats := c.VisibleFrom(nil, ny, tSec)
		if len(sats) == 0 {
			t.Errorf("no visible satellites over New York at t=%v", tSec)
		}
		for _, id := range sats {
			sp := c.SubSatellitePoint(id, tSec)
			if e := geo.ElevationDeg(geo.CentralAngleRad(ny, sp), c.Config().AltitudeKm); e < c.Config().MinElevDeg-0.01 {
				t.Errorf("sat %d visible below mask: elev=%v", id, e)
			}
		}
		counts += len(sats)
		samples++
	}
	avg := float64(counts) / float64(samples)
	// Paper: "a Starlink user can connect to 10+ satellites". With the
	// 1296-slot shell and a 25° mask the average is somewhat lower; accept a
	// broad band but require meaningful multi-coverage at 40° latitude.
	if avg < 3 {
		t.Errorf("average visible sats = %.1f, want >= 3", avg)
	}
	// Inactive satellites must never be reported.
	c.ApplyOutageMask(c.NumSlots(), 1)
	if got := c.VisibleFrom(nil, ny, 0); len(got) != 0 {
		t.Errorf("all sats inactive but %d visible", len(got))
	}
}

func TestVisibleFromReuseBuffer(t *testing.T) {
	c := MustNew(testShell())
	ny := geo.NewPoint(40.713, -74.006)
	buf := make([]SatID, 0, 64)
	a := c.VisibleFrom(buf, ny, 0)
	b := c.VisibleFrom(a[:0], ny, 0)
	if len(a) != len(b) {
		t.Errorf("buffer reuse changed result: %d vs %d", len(a), len(b))
	}
}

func TestSlantRange(t *testing.T) {
	c := MustNew(testShell())
	ny := geo.NewPoint(40.713, -74.006)
	sats := c.VisibleFrom(nil, ny, 0)
	if len(sats) == 0 {
		t.Skip("no visible satellite in this geometry")
	}
	for _, id := range sats {
		d := c.SlantRangeKm(id, ny, 0)
		// Visible satellites are between altitude (overhead) and the
		// slant range at the mask elevation (~1120 km for 550 km / 25°).
		if d < 549 || d > 1200 {
			t.Errorf("slant range %v km out of visible band", d)
		}
	}
}

func TestGroundTrack(t *testing.T) {
	c := MustNew(testShell())
	pts := c.GroundTrack(0, 0, 600, 60)
	if len(pts) != 11 {
		t.Errorf("track points = %d, want 11", len(pts))
	}
	if c.GroundTrack(0, 0, 100, 0) != nil {
		t.Error("zero step should return nil")
	}
	if c.GroundTrack(0, 100, 0, 10) != nil {
		t.Error("reversed range should return nil")
	}
	// Consecutive points are ~420 km apart (7 km/s * 60 s).
	for i := 1; i < len(pts); i++ {
		d := geo.DistanceKm(pts[i-1], pts[i])
		if d < 300 || d > 520 {
			t.Errorf("track segment %d length %v km", i, d)
		}
	}
}

func TestPhaseOffsetBetweenPlanes(t *testing.T) {
	// Walker phasing: adjacent planes are offset in phase; satellites with
	// the same slot in adjacent planes must not be at identical latitudes
	// (unless F=0).
	cfg := testShell()
	c := MustNew(cfg)
	a := c.SubSatellitePoint(c.SatAt(0, 0), 0)
	b := c.SubSatellitePoint(c.SatAt(1, 0), 0)
	if cfg.PhasingF != 0 && math.Abs(a.LatDeg-b.LatDeg) < 1e-9 {
		t.Error("expected inter-plane phase offset")
	}
}
