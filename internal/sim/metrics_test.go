package sim

import "testing"

// TestSourcesEnumeration: Sources() lists every defined source exactly once,
// in declaration order, and each has a stable non-fallback name.
func TestSourcesEnumeration(t *testing.T) {
	srcs := Sources()
	if len(srcs) != numSources {
		t.Fatalf("Sources() returned %d entries, want %d", len(srcs), numSources)
	}
	seen := make(map[string]Source, len(srcs))
	for i, s := range srcs {
		if int(s) != i {
			t.Errorf("Sources()[%d] = %v, want declaration order", i, s)
		}
		if !s.Valid() {
			t.Errorf("source %d reported invalid", i)
		}
		name := s.String()
		if name == "" {
			t.Errorf("source %d has empty name", i)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("sources %v and %v share name %q", prev, s, name)
		}
		seen[name] = s
	}
	if Source(-1).Valid() || Source(numSources).Valid() {
		t.Error("out-of-range sources reported valid")
	}
}

// TestSourceTextRoundTrip: MarshalText/UnmarshalText invert each other for
// every defined source and reject unknowns in both directions.
func TestSourceTextRoundTrip(t *testing.T) {
	for _, s := range Sources() {
		text, err := s.MarshalText()
		if err != nil {
			t.Fatalf("%v MarshalText: %v", s, err)
		}
		var back Source
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != s {
			t.Errorf("round trip %v -> %q -> %v", s, text, back)
		}
	}
	if _, err := Source(99).MarshalText(); err == nil {
		t.Error("marshalling unknown source did not fail")
	}
	var s Source
	if err := s.UnmarshalText([]byte("nonsense")); err == nil {
		t.Error("unmarshalling unknown name did not fail")
	}
}

// TestSourceHit: the hit set is exactly the satellite-cache (and ground-edge)
// sources; ground fetches and uncovered requests are misses. The uplink set is
// every source whose bytes come up from the ground: ground fetches, uncovered
// requests and ground-edge hits.
func TestSourceHit(t *testing.T) {
	want := map[Source]struct{ hit, uplink bool }{
		SourceLocal:      {hit: true},
		SourceBucket:     {hit: true},
		SourceRelayWest:  {hit: true},
		SourceRelayEast:  {hit: true},
		SourceGround:     {uplink: true},
		SourceNoCover:    {uplink: true},
		SourceGroundEdge: {hit: true, uplink: true},
	}
	for _, s := range Sources() {
		if s.Hit() != want[s].hit || s.Uplink() != want[s].uplink {
			t.Errorf("%v: Hit() = %v, Uplink() = %v, want %v, %v",
				s, s.Hit(), s.Uplink(), want[s].hit, want[s].uplink)
		}
	}
}
