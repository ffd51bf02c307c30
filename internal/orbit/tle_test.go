package orbit

import (
	"math"
	"strings"
	"testing"
)

// A real ISS element set (checksums valid) for format validation.
const (
	issLine1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927"
	issLine2 = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537"
)

func TestParseTLEKnownSet(t *testing.T) {
	tle, err := ParseTLE(issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	if tle.CatalogNumber != 25544 {
		t.Errorf("catalog = %d", tle.CatalogNumber)
	}
	if math.Abs(tle.InclinationDeg-51.6416) > 1e-9 {
		t.Errorf("inclination = %v", tle.InclinationDeg)
	}
	if math.Abs(tle.RAANDeg-247.4627) > 1e-9 {
		t.Errorf("raan = %v", tle.RAANDeg)
	}
	if math.Abs(tle.Eccentricity-0.0006703) > 1e-12 {
		t.Errorf("ecc = %v", tle.Eccentricity)
	}
	if math.Abs(tle.MeanMotionRevPerDay-15.72125391) > 1e-6 {
		t.Errorf("mean motion = %v", tle.MeanMotionRevPerDay)
	}
	if tle.EpochYear != 8 || math.Abs(tle.EpochDay-264.51782528) > 1e-9 {
		t.Errorf("epoch = %d / %v", tle.EpochYear, tle.EpochDay)
	}
	// ISS altitude ~350 km in 2008.
	if alt := altitudeKm(tle); alt < 300 || alt > 400 {
		t.Errorf("altitude = %v", alt)
	}
}

// altitudeKm derives a circular orbit's altitude from its mean motion.
func altitudeKm(t TLE) float64 {
	n := t.MeanMotionRevPerDay * 2 * math.Pi / 86400 // rad/s
	return math.Cbrt(MuEarth/(n*n)) - 6371.0
}

func TestParseTLERejectsCorruption(t *testing.T) {
	cases := []struct {
		name         string
		line1, line2 string
	}{
		{"short", "1 25544U", issLine2},
		{"bad line number", strings.Replace(issLine1, "1 ", "3 ", 1), issLine2},
		{"bad checksum", issLine1[:68] + "0", issLine2},
		{"corrupt field", issLine1, issLine2[:8] + "xx.governor" + issLine2[19:]},
	}
	for _, c := range cases {
		if _, err := ParseTLE(c.line1, c.line2); err == nil {
			t.Errorf("%s: corruption accepted", c.name)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	orig := TLE{
		CatalogNumber:       40123,
		EpochYear:           26,
		EpochDay:            185.25,
		InclinationDeg:      53,
		RAANDeg:             125.5,
		Eccentricity:        0.0001234,
		ArgPerigeeDeg:       90.1,
		MeanAnomalyDeg:      200.2,
		MeanMotionRevPerDay: 15.05,
	}
	l1, l2 := orig.Format()
	if len(l1) != 69 || len(l2) != 69 {
		t.Fatalf("line lengths = %d/%d", len(l1), len(l2))
	}
	got, err := ParseTLE(l1, l2)
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s\n%s", err, l1, l2)
	}
	if got.CatalogNumber != orig.CatalogNumber ||
		math.Abs(got.InclinationDeg-orig.InclinationDeg) > 1e-4 ||
		math.Abs(got.RAANDeg-orig.RAANDeg) > 1e-4 ||
		math.Abs(got.Eccentricity-orig.Eccentricity) > 1e-7 ||
		math.Abs(got.MeanAnomalyDeg-orig.MeanAnomalyDeg) > 1e-4 ||
		math.Abs(got.MeanMotionRevPerDay-orig.MeanMotionRevPerDay) > 1e-7 {
		t.Errorf("round trip mismatch: %+v vs %+v", got, orig)
	}
}

func TestParseTLESetFormats(t *testing.T) {
	l1, l2 := (TLE{CatalogNumber: 1, EpochYear: 26, EpochDay: 1,
		InclinationDeg: 53, MeanMotionRevPerDay: 15.05}).Format()
	// 3-line format with names and blank lines.
	input := "SAT-ONE\n" + l1 + "\n" + l2 + "\n\nSAT-TWO\n" + l1 + "\n" + l2 + "\n"
	tles, err := ParseTLESet(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(tles) != 2 {
		t.Fatalf("parsed %d sets", len(tles))
	}
	if tles[0].Name != "SAT-ONE" || tles[1].Name != "SAT-TWO" {
		t.Errorf("names = %q, %q", tles[0].Name, tles[1].Name)
	}
	// 2-line format without names.
	tles, err = ParseTLESet(strings.NewReader(l1 + "\n" + l2 + "\n"))
	if err != nil || len(tles) != 1 || tles[0].Name != "" {
		t.Errorf("2-line parse: %v, %d sets", err, len(tles))
	}
	// Orphan line 2.
	if _, err := ParseTLESet(strings.NewReader(l2 + "\n")); err == nil {
		t.Error("orphan line 2 accepted")
	}
	// Trailing line 1.
	if _, err := ParseTLESet(strings.NewReader(l1 + "\n")); err == nil {
		t.Error("trailing line 1 accepted")
	}
}

func TestSyntheticTLEsMatchShell(t *testing.T) {
	c := MustNew(DefaultStarlinkShell())
	c.ApplyOutageMask(126, 7)
	tles := c.SyntheticTLEs(26, 100)
	if len(tles) != c.NumActive() {
		t.Fatalf("emitted %d sets for %d active satellites", len(tles), c.NumActive())
	}
	for _, tle := range tles[:20] {
		if math.Abs(tle.InclinationDeg-53) > 1e-9 {
			t.Errorf("inclination = %v", tle.InclinationDeg)
		}
		if alt := altitudeKm(tle); math.Abs(alt-550) > 5 {
			t.Errorf("altitude = %v, want ~550", alt)
		}
		l1, l2 := tle.Format()
		if _, err := ParseTLE(l1, l2); err != nil {
			t.Errorf("emitted TLE does not parse: %v", err)
		}
	}
}

func TestReconstructShellRoundTrip(t *testing.T) {
	// The §5.1 pipeline: emit ephemerides from a shell with 126 out-of-slot
	// satellites, reconstruct, and recover exactly the same activity mask.
	src := MustNew(DefaultStarlinkShell())
	src.ApplyOutageMask(126, 42)
	tles := src.SyntheticTLEs(26, 50)

	got, err := ReconstructShell(tles, DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumActive() != src.NumActive() {
		t.Fatalf("reconstructed %d active, want %d", got.NumActive(), src.NumActive())
	}
	for i := 0; i < src.NumSlots(); i++ {
		if src.Active(SatID(i)) != got.Active(SatID(i)) {
			t.Fatalf("slot %d activity mismatch", i)
		}
	}
}

func TestReconstructShellFiltersOtherShells(t *testing.T) {
	src := MustNew(DefaultStarlinkShell())
	tles := src.SyntheticTLEs(26, 50)[:100]
	// Pollute with a polar-shell satellite; it must be ignored.
	polar := tles[0]
	polar.InclinationDeg = 97.6
	tles = append(tles, polar)
	got, err := ReconstructShell(tles, DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumActive() != 100 {
		t.Errorf("active = %d, want 100", got.NumActive())
	}
	// All sets filtered, or none given => error.
	if _, err := ReconstructShell([]TLE{polar}, DefaultStarlinkShell()); err == nil {
		t.Error("all-foreign feed accepted")
	}
	if _, err := ReconstructShell(nil, DefaultStarlinkShell()); err == nil {
		t.Error("empty feed accepted")
	}
}
