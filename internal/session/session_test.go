package session

import (
	"testing"

	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/orbit"
	"starcdn/internal/topo"
)

func testHash(t *testing.T, l int) *core.HashScheme {
	t.Helper()
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHashScheme(topo.NewGrid(c, topo.StarlinkTable1()), l)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func testUsers() []geo.Point {
	var pts []geo.Point
	for _, c := range geo.PaperCities() {
		pts = append(pts, c.Point)
	}
	return pts
}

func TestRunValidation(t *testing.T) {
	h := testHash(t, 4)
	users := testUsers()
	if _, err := Run(nil, users, Config{StateBytes: 1, DurationSec: 1}); err == nil {
		t.Error("nil hash accepted")
	}
	if _, err := Run(h, nil, Config{StateBytes: 1, DurationSec: 1}); err == nil {
		t.Error("no users accepted")
	}
	if _, err := Run(h, users, Config{StateBytes: 0, DurationSec: 1}); err == nil {
		t.Error("zero state accepted")
	}
	if _, err := Run(h, users, Config{StateBytes: 1, DurationSec: 0}); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestStrategyString(t *testing.T) {
	for _, s := range []Strategy{FollowSatellite, GroundAnchor, BucketAnchor} {
		if s.String() == "" {
			t.Error("empty strategy name")
		}
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Error("unknown strategy format")
	}
}

func TestStrategiesCompareAsDesigned(t *testing.T) {
	h := testHash(t, 9)
	users := testUsers()
	const hour = 3600.0
	run := func(s Strategy) *Stats {
		st, err := Run(h, users, Config{
			Strategy: s, StateBytes: 1 << 20, DurationSec: 2 * hour, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Strategy != s || st.Epochs == 0 {
			t.Errorf("%v: stats report strategy %v over %d epochs", s, st.Strategy, st.Epochs)
		}
		return st
	}
	follow := run(FollowSatellite)
	ground := run(GroundAnchor)
	bucket := run(BucketAnchor)

	// Handovers are strategy-independent (same scheduler seed).
	if follow.Handovers != ground.Handovers || follow.Handovers != bucket.Handovers {
		t.Errorf("handovers differ: %d/%d/%d",
			follow.Handovers, ground.Handovers, bucket.Handovers)
	}
	if follow.Handovers == 0 {
		t.Fatal("no handovers over two hours of orbital motion")
	}
	// Follow-satellite migrates at every handover.
	if follow.Migrations != follow.Handovers {
		t.Errorf("follow: migrations %d != handovers %d",
			follow.Migrations, follow.Handovers)
	}
	// Bucket anchoring migrates strictly less: nearby serving satellites
	// often share a bucket owner.
	if bucket.Migrations >= follow.Migrations {
		t.Errorf("bucket migrations (%d) should undercut follow (%d)",
			bucket.Migrations, follow.Migrations)
	}
	// Ground anchoring moves no ISL bytes but pays the bent pipe every time.
	if ground.MigrationByteHops != 0 {
		t.Errorf("ground anchor moved %d ISL byte-hops", ground.MigrationByteHops)
	}
	// Note: follow-satellite reattach can exceed the bent-pipe re-fetch
	// because handovers often cross between the ascending and descending
	// pass families, which are tens of planes apart on the ISL grid — one
	// of the effects that makes naive state-following unattractive.
	// Bucket anchoring has the cheapest reattach (mostly zero, thanks to
	// hysteresis) and must beat both alternatives at the median.
	if bucket.ReattachMs.Median() > follow.ReattachMs.Median() {
		t.Errorf("bucket reattach median (%.1f) should not exceed follow (%.1f)",
			bucket.ReattachMs.Median(), follow.ReattachMs.Median())
	}
	if bucket.ReattachMs.Median() > ground.ReattachMs.Median() {
		t.Errorf("bucket reattach median (%.1f) should not exceed ground (%.1f)",
			bucket.ReattachMs.Median(), ground.ReattachMs.Median())
	}
	if follow.Migrations <= 0 {
		t.Errorf("follow-satellite migrations = %d", follow.Migrations)
	}
	t.Logf("handovers=%d follow-mig=%d bucket-mig=%d ground-reattach-p50=%.1fms",
		follow.Handovers, follow.Migrations, bucket.Migrations, ground.ReattachMs.Median())
}
