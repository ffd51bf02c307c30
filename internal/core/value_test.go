package core

import "testing"

// TestValueClassOrdering pins the cheapest-to-lose ordering the shed stage
// ladder is built on: relay probes < remote fetches < new sessions < miss
// fetches < hits.
func TestValueClassOrdering(t *testing.T) {
	order := []ValueClass{ValueRelayProbe, ValueRemoteFetch, ValueSessionNew, ValueMissFetch, ValueHit}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("%v >= %v: value ordering broken", order[i-1], order[i])
		}
	}
	if len(order) != numValueClasses {
		t.Fatalf("order lists %d classes, want %d", len(order), numValueClasses)
	}
}

func TestValueClassString(t *testing.T) {
	want := map[ValueClass]string{
		ValueRelayProbe:  "relay-probe",
		ValueRemoteFetch: "remote-fetch",
		ValueSessionNew:  "session-new",
		ValueMissFetch:   "miss-fetch",
		ValueHit:         "hit",
	}
	for v, s := range want {
		if !v.Valid() || v.String() != s {
			t.Errorf("%d: Valid=%v String=%q, want %q", int(v), v.Valid(), v.String(), s)
		}
	}
	if ValueClass(-1).Valid() || ValueClass(99).Valid() {
		t.Error("out-of-range classes reported Valid")
	}
	if ValueClass(99).String() != "ValueClass(?)" {
		t.Errorf("out-of-range String = %q", ValueClass(99).String())
	}
}
