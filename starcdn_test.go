package starcdn

import (
	"testing"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(SystemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.constellation.NumSlots() != 1296 {
		t.Errorf("slots = %d", sys.constellation.NumSlots())
	}
	if sys.hash.Buckets() != 4 {
		t.Errorf("buckets = %d", sys.hash.Buckets())
	}
	if len(sys.Cities) != 9 {
		t.Errorf("cities = %d", len(sys.Cities))
	}
	if len(sys.userPoints()) != 9 {
		t.Errorf("user points = %d", len(sys.userPoints()))
	}
	// A trace over other locations than the system's cities is rejected.
	cls := VideoClass()
	cls.NumObjects = 100
	tr, err := GenerateWorkload(cls, sys.Cities[:3], 1, 100, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Simulate(tr, sys.StarCDN(CacheConfig{Kind: LRU, Bytes: 1 << 20}), SimConfig{}); err == nil {
		t.Error("location/city mismatch should fail")
	}
}

func TestNewSystemOutageAndBuckets(t *testing.T) {
	sys, err := NewSystem(SystemOptions{Buckets: 9, Outage: 126, OutageSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if sys.constellation.NumActive() != 1170 {
		t.Errorf("active = %d, want 1170", sys.constellation.NumActive())
	}
	if sys.hash.Buckets() != 9 {
		t.Errorf("buckets = %d", sys.hash.Buckets())
	}
	if _, err := NewSystem(SystemOptions{Buckets: 5}); err == nil {
		t.Error("non-square bucket count should fail")
	}
}

func TestTrafficClassConstructors(t *testing.T) {
	if c := VideoClass(); c.NumObjects <= 0 || c.Name == "" {
		t.Errorf("bad class: %+v", c.Name)
	}
}
