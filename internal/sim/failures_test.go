package sim

import (
	"errors"
	"reflect"
	"testing"

	"starcdn/internal/orbit"
)

func smallConstellation(t *testing.T) *orbit.Constellation {
	t.Helper()
	c, err := orbit.New(orbit.Config{Planes: 6, SatsPerPlane: 4,
		InclinationDeg: 53, AltitudeKm: 550, MinElevDeg: 25})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewFailureScheduleValidation(t *testing.T) {
	c := smallConstellation(t)
	if _, err := NewFailureSchedule(nil, nil); err == nil {
		t.Error("nil constellation accepted")
	}
	// Out-of-order events would never fire past the forward cursor.
	bad := []FailureEvent{{TimeSec: 10, Sat: 0, Down: true}, {TimeSec: 5, Sat: 1, Down: true}}
	if _, err := NewFailureSchedule(c, bad); err == nil {
		t.Error("out-of-order schedule accepted")
	}
	// Equal times are fine (simultaneous events).
	ok := []FailureEvent{{TimeSec: 5, Sat: 0, Down: true}, {TimeSec: 5, Sat: 1, Down: true}}
	if _, err := NewFailureSchedule(c, ok); err != nil {
		t.Errorf("tied times rejected: %v", err)
	}
}

func TestFailureScheduleAdvance(t *testing.T) {
	c := smallConstellation(t)
	events := []FailureEvent{
		{TimeSec: 10, Sat: 2, Down: true, Transient: true},
		{TimeSec: 20, Sat: 3, Down: true}, // long-term
		{TimeSec: 30, Sat: 2, Down: false},
	}
	fs, err := NewFailureSchedule(c, events)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.events) != 3 || len(fs.events)-fs.next != 3 {
		t.Fatalf("len=%d remaining=%d", len(fs.events), len(fs.events)-fs.next)
	}
	if tm, ok := fs.NextEventTime(); !ok || tm != 10 {
		t.Fatalf("next = (%v,%v)", tm, ok)
	}

	// Nothing fires before its time.
	if err := fs.Advance(9.99); err != nil {
		t.Fatal(err)
	}
	if !c.Active(2) || len(fs.events)-fs.next != 3 {
		t.Fatal("event fired early")
	}

	// Event at exactly t fires; transient bookkeeping updates.
	if err := fs.Advance(10); err != nil {
		t.Fatal(err)
	}
	if c.Active(2) {
		t.Error("sat 2 should be down")
	}
	if !fs.TransientDown(2) {
		t.Error("sat 2 should be transiently down")
	}
	if fs.TransientDown(3) {
		t.Error("sat 3 is not down yet")
	}

	// Advance is monotone: an earlier now applies nothing and undoes nothing.
	if err := fs.Advance(0); err != nil {
		t.Fatal(err)
	}
	if c.Active(2) || len(fs.events)-fs.next != 2 {
		t.Error("rewinding the clock mutated the schedule")
	}

	// A long-term kill is not in the transient set.
	if err := fs.Advance(20); err != nil {
		t.Fatal(err)
	}
	if c.Active(3) {
		t.Error("sat 3 should be down")
	}
	if fs.TransientDown(3) {
		t.Error("long-term kill flagged transient")
	}

	// Revival clears both availability and the transient flag.
	if err := fs.Advance(1e9); err != nil {
		t.Fatal(err)
	}
	if !c.Active(2) {
		t.Error("sat 2 should be revived")
	}
	if fs.TransientDown(2) {
		t.Error("revived sat still flagged transient")
	}
	if len(fs.events)-fs.next != 0 {
		t.Errorf("remaining = %d", len(fs.events)-fs.next)
	}
	if _, ok := fs.NextEventTime(); ok {
		t.Error("exhausted schedule still reports a next event")
	}
	// Restore for other tests sharing the constellation value semantics.
	c.SetActive(3, true)
}

func TestFailureScheduleOnApplyHook(t *testing.T) {
	c := smallConstellation(t)
	events := []FailureEvent{
		{TimeSec: 1, Sat: 0, Down: true, Transient: true},
		{TimeSec: 2, Sat: 1, Down: true},
		{TimeSec: 3, Sat: 0, Down: false},
	}
	fs, err := NewFailureSchedule(c, events)
	if err != nil {
		t.Fatal(err)
	}
	var seen []FailureEvent
	fs.OnApply(func(ev FailureEvent) error {
		seen = append(seen, ev)
		return nil
	})
	if err := fs.Advance(10); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("hook fired %d times, want 3", len(seen))
	}
	for i, ev := range seen {
		if ev != events[i] {
			t.Errorf("hook event %d = %+v, want %+v", i, ev, events[i])
		}
	}

	// A hook error aborts Advance mid-application and surfaces to the caller.
	c2 := smallConstellation(t)
	fs2, err := NewFailureSchedule(c2, events)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("kill failed")
	calls := 0
	fs2.OnApply(func(FailureEvent) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if err := fs2.Advance(10); !errors.Is(err, boom) {
		t.Fatalf("hook error not propagated: %v", err)
	}
	// The failing event was consumed; the remaining one is still pending.
	if len(fs2.events)-fs2.next != 1 {
		t.Errorf("remaining after hook error = %d, want 1", len(fs2.events)-fs2.next)
	}
}

func TestGenerateChaosProperties(t *testing.T) {
	var sats []orbit.SatID
	for i := 0; i < 40; i++ {
		sats = append(sats, orbit.SatID(i))
	}
	o := ChaosOptions{StartSec: 100, EndSec: 500, KillFraction: 0.25,
		TransientFraction: 1, ReviveAfterSec: 50, Seed: 9}
	events := GenerateChaos(sats, o)

	kills, revives := 0, 0
	killTime := make(map[orbit.SatID]float64)
	for i, ev := range events {
		if i > 0 && ev.TimeSec < events[i-1].TimeSec {
			t.Fatalf("events out of order at %d", i)
		}
		if ev.Down {
			kills++
			if !ev.Transient {
				t.Errorf("TransientFraction=1 produced a permanent kill: %+v", ev)
			}
			if ev.TimeSec < o.StartSec || ev.TimeSec >= o.EndSec {
				t.Errorf("kill outside window: %+v", ev)
			}
			killTime[ev.Sat] = ev.TimeSec
		} else {
			revives++
			if tk, ok := killTime[ev.Sat]; !ok || ev.TimeSec != tk+o.ReviveAfterSec {
				t.Errorf("revival not ReviveAfterSec after the kill: %+v", ev)
			}
		}
	}
	if kills != 10 {
		t.Errorf("killed %d of 40 at fraction 0.25, want 10", kills)
	}
	if revives != kills {
		t.Errorf("%d revives for %d transient kills", revives, kills)
	}
	// No sat is killed twice.
	if len(killTime) != kills {
		t.Errorf("%d distinct sats for %d kills", len(killTime), kills)
	}

	// The schedule feeds NewFailureSchedule without error.
	c := smallConstellation(t)
	if _, err := NewFailureSchedule(c, GenerateChaos(sats[:c.NumSlots()], o)); err != nil {
		t.Errorf("generated schedule rejected: %v", err)
	}

	// Degenerate inputs yield an empty schedule.
	if ev := GenerateChaos(nil, o); ev != nil {
		t.Error("no candidates should yield nil")
	}
	if ev := GenerateChaos(sats, ChaosOptions{KillFraction: 0, StartSec: 0, EndSec: 10}); ev != nil {
		t.Error("zero fraction should yield nil")
	}
	if ev := GenerateChaos(sats, ChaosOptions{KillFraction: 0.5, StartSec: 10, EndSec: 10}); ev != nil {
		t.Error("empty window should yield nil")
	}
	// KillFraction 1 caps at every candidate, TransientFraction 0 is all
	// permanent (no revives even with ReviveAfterSec set).
	all := GenerateChaos(sats, ChaosOptions{StartSec: 0, EndSec: 10,
		KillFraction: 1, TransientFraction: 0, ReviveAfterSec: 5, Seed: 1})
	if len(all) != len(sats) {
		t.Errorf("fraction 1 produced %d events for %d sats", len(all), len(sats))
	}
	for _, ev := range all {
		if !ev.Down || ev.Transient {
			t.Errorf("permanent-kill schedule contains %+v", ev)
		}
	}
}

// TestRunAppliesFailureScheduleTransients pins the §3.4 behaviour end to end
// in the simulator: a transient outage turns the victim's requests into
// ground misses while the schedule says it is down, and a long-term outage
// remaps them — both without perturbing request accounting.
func TestRunTransientOutageDegradesToGround(t *testing.T) {
	e := newEnv(t, 4000, 1200)
	pol := e.starcdn(t, 4, 64<<20, StarCDNOptions{Hashing: true, Relay: true})

	// Healthy baseline.
	base, err := Run(e.c, e.users, e.tr, pol, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Meter.Requests != int64(len(e.tr.Requests)) {
		t.Fatalf("baseline accounting: %d of %d", base.Meter.Requests, len(e.tr.Requests))
	}

	// Fresh policy + constellation for the chaos run.
	e2 := newEnv(t, 4000, 1200)
	pol2 := e2.starcdn(t, 4, 64<<20, StarCDNOptions{Hashing: true, Relay: true})
	events := GenerateChaos(contactedIDs(e2.c), ChaosOptions{
		StartSec: 100, EndSec: 1000, KillFraction: 0.05,
		TransientFraction: 0.5, ReviveAfterSec: 200, Seed: 6})
	m, err := Run(e2.c, e2.users, e2.tr, pol2, Config{Seed: 1, Failures: events})
	if err != nil {
		t.Fatal(err)
	}
	if m.Meter.Requests != int64(len(e2.tr.Requests)) {
		t.Errorf("chaos accounting: %d of %d", m.Meter.Requests, len(e2.tr.Requests))
	}
	if m.Meter.BytesHit+m.Meter.BytesMissed != m.Meter.BytesTotal {
		t.Errorf("byte accounting leak under chaos")
	}
	// A 5% kill schedule perturbs but does not demolish the hit rate.
	// (Remapping occasionally *improves* locality, so this is a band, not
	// a one-sided bound.)
	d := m.Meter.RequestHitRate() - base.Meter.RequestHitRate()
	if d < -0.05 || d > 0.05 {
		t.Errorf("chaos hit rate %.4f far from healthy %.4f",
			m.Meter.RequestHitRate(), base.Meter.RequestHitRate())
	}
	if m.Meter.RequestHitRate() <= 0 {
		t.Error("chaos run produced no hits")
	}
}

// contactedIDs lists every slot of the constellation (candidates for chaos).
func contactedIDs(c *orbit.Constellation) []orbit.SatID {
	ids := make([]orbit.SatID, c.NumSlots())
	for i := range ids {
		ids[i] = orbit.SatID(i)
	}
	return ids
}

// TestChaosRunOnWarmConstellationMatchesFresh: the constellation remembers
// which slots each city could see at each epoch start, and a failure schedule
// changes which of them work while the run is under way. A chaos run on a
// constellation that an earlier run swept under another mask, seed and
// schedule must report Metrics equal field for field to the same run on a
// constellation nobody used — which it does not if the activity mask is ever
// stored with the remembered visibility.
func TestChaosRunOnWarmConstellationMatchesFresh(t *testing.T) {
	opts := StarCDNOptions{Hashing: true, Relay: true}
	chaos := ChaosOptions{StartSec: 100, EndSec: 1000, KillFraction: 0.15,
		TransientFraction: 0.5, ReviveAfterSec: 200, Seed: 6}
	cfg := Config{Seed: 1, CollectLatency: true, CollectPerSat: true}
	run := func(e *testEnv) *Metrics {
		t.Helper()
		e.c.ApplyOutageMask(126, 42)
		cfg.Failures = GenerateChaos(contactedIDs(e.c), chaos)
		m, err := Run(e.c, e.users, e.tr, e.starcdn(t, 4, 64<<20, opts), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	want := run(newEnv(t, 4000, 1200))
	if want.BySource[SourceGround] == want.Meter.Requests || want.Meter.Hits == 0 {
		t.Fatalf("the reference run is degenerate: %+v", want.Meter)
	}

	warm := newEnv(t, 4000, 1200)
	warm.c.ApplyOutageMask(400, 7)
	other, err := Run(warm.c, warm.users, warm.tr, warm.starcdn(t, 4, 64<<20, opts), Config{Seed: 99,
		Failures: GenerateChaos(contactedIDs(warm.c), ChaosOptions{StartSec: 0, EndSec: 1200, KillFraction: 0.3, Seed: 8})})
	if err != nil {
		t.Fatal(err)
	}
	if other.Meter == want.Meter {
		t.Fatal("the warming run metered exactly what the run under test does; it proves nothing")
	}
	if got := run(warm); !reflect.DeepEqual(got, want) {
		t.Errorf("chaos run on a warm constellation differs from a fresh one:\nwarm  %+v %v\nfresh %+v %v",
			got.Meter, got.BySource, want.Meter, want.BySource)
	}
}
