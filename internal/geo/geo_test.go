package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalizeLonDeg(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {180, -180}, {-180, -180}, {190, -170}, {-190, 170},
		{360, 0}, {540, -180}, {720, 0}, {-360, 0}, {359.5, -0.5},
	}
	for _, c := range cases {
		if got := NormalizeLonDeg(c.in); !almostEq(got, c.want, 1e-9) {
			t.Errorf("NormalizeLonDeg(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalizeLonDegPropertyRange(t *testing.T) {
	f := func(lon float64) bool {
		if math.IsNaN(lon) || math.IsInf(lon, 0) {
			return true
		}
		got := NormalizeLonDeg(lon)
		return got >= -180 && got < 180
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceKmKnownPairs(t *testing.T) {
	ny := NewPoint(40.713, -74.006)
	london := NewPoint(51.507, -0.128)
	d := DistanceKm(ny, london)
	// Widely published great-circle distance ~5570 km.
	if !almostEq(d, 5570, 30) {
		t.Errorf("NY-London distance = %.1f km, want ~5570", d)
	}
	if got := DistanceKm(ny, ny); !almostEq(got, 0, 1e-9) {
		t.Errorf("self distance = %v, want 0", got)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := NewPoint(clampLat(lat1), lon1)
		b := NewPoint(clampLat(lat2), lon2)
		return almostEq(DistanceKm(a, b), DistanceKm(b, a), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2, lat3, lon3 float64) bool {
		a := NewPoint(clampLat(lat1), lon1)
		b := NewPoint(clampLat(lat2), lon2)
		c := NewPoint(clampLat(lat3), lon3)
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 90)
}

func TestElevationAndCoverage(t *testing.T) {
	// Directly overhead: elevation 90.
	if e := ElevationDeg(0, 550); !almostEq(e, 90, 1e-6) {
		t.Errorf("overhead elevation = %v, want 90", e)
	}
	// At the coverage edge the elevation equals the mask.
	for _, mask := range []float64{10, 25, 40} {
		gamma := CoverageAngleRad(550, mask)
		if e := ElevationDeg(gamma, 550); !almostEq(e, mask, 1e-6) {
			t.Errorf("elevation at coverage edge (mask %v) = %v", mask, e)
		}
	}
	// Coverage shrinks as the mask grows.
	if CoverageAngleRad(550, 40) >= CoverageAngleRad(550, 25) {
		t.Error("coverage should shrink with higher elevation mask")
	}
	// For Starlink (550 km, 25°) footprint radius should be ~900-1000 km.
	radius := CoverageAngleRad(550, 25) * EarthRadiusKm
	if radius < 800 || radius > 1100 {
		t.Errorf("Starlink footprint radius = %.0f km, want 800-1100", radius)
	}
}

func TestSlantRange(t *testing.T) {
	// Overhead slant range equals altitude.
	if d := SlantRangeKm(0, 550); !almostEq(d, 550, 1e-6) {
		t.Errorf("overhead slant = %v", d)
	}
	// Slant range grows monotonically with central angle.
	prev := 0.0
	for g := 0.0; g < 0.3; g += 0.01 {
		d := SlantRangeKm(g, 550)
		if d < prev {
			t.Fatalf("slant range not monotonic at gamma=%v", g)
		}
		prev = d
	}
}

func TestPropagationDelayMs(t *testing.T) {
	// 550 km overhead: ~1.83 ms (matches GSL min delay in Table 1).
	if d := PropagationDelayMs(550); !almostEq(d, 1.834, 0.01) {
		t.Errorf("550 km delay = %v ms", d)
	}
	if d := PropagationDelayMs(0); d != 0 {
		t.Errorf("zero distance delay = %v", d)
	}
}

func TestPaperCities(t *testing.T) {
	cities := PaperCities()
	if len(cities) != 9 {
		t.Fatalf("want 9 paper cities, got %d", len(cities))
	}
	seen := map[string]bool{}
	for _, c := range cities {
		if math.Abs(c.Point.LatDeg) > 90 || math.Abs(c.Point.LonDeg) > 180 {
			t.Errorf("city %s has invalid point %v", c.Name, c.Point)
		}
		if c.Weight <= 0 {
			t.Errorf("city %s has non-positive weight", c.Name)
		}
		if seen[c.Name] {
			t.Errorf("duplicate city %s", c.Name)
		}
		seen[c.Name] = true
	}
	// Table 2 pairs must exist.
	for _, name := range []string{"London", "Frankfurt", "Istanbul", "New York"} {
		if _, err := CityByName(cities, name); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
	if _, err := CityByName(cities, "Atlantis"); err == nil {
		t.Error("expected error for unknown city")
	}
}

func TestExtendedCitiesSuperset(t *testing.T) {
	ext := ExtendedCities()
	if len(ext) <= 9 {
		t.Fatalf("extended cities should exceed 9, got %d", len(ext))
	}
	for _, c := range PaperCities() {
		if _, err := CityByName(ext, c.Name); err != nil {
			t.Errorf("extended set missing paper city %s", c.Name)
		}
	}
}

func TestNearestGroundStation(t *testing.T) {
	gs := DefaultGroundStations()
	ny := NewPoint(40.713, -74.006)
	idx, d := NearestGroundStation(gs, ny)
	if idx < 0 || idx >= len(gs) {
		t.Fatalf("bad index %d", idx)
	}
	if gs[idx].Name != "Greenville PA" {
		t.Errorf("nearest GS to NY = %s", gs[idx].Name)
	}
	if d <= 0 || d > 1000 {
		t.Errorf("distance to nearest GS = %v", d)
	}
	if idx, _ := NearestGroundStation(nil, ny); idx != -1 {
		t.Errorf("empty GS list should return -1, got %d", idx)
	}
}
