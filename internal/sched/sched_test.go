package sched

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"starcdn/internal/geo"
	"starcdn/internal/orbit"
)

func setup(t testing.TB) (*orbit.Constellation, []geo.Point) {
	t.Helper()
	c, err := orbit.New(orbit.DefaultStarlinkShell())
	if err != nil {
		t.Fatal(err)
	}
	var pts []geo.Point
	for _, city := range geo.PaperCities() {
		pts = append(pts, city.Point)
	}
	return c, pts
}

func TestNewValidation(t *testing.T) {
	c, users := setup(t)
	if _, err := New(nil, users, 15, 1); err == nil {
		t.Error("nil constellation should fail")
	}
	if _, err := New(c, nil, 15, 1); err == nil {
		t.Error("no users should fail")
	}
	// NaN <= 0 is false: a non-finite epoch length used to pass, put every
	// recompute at t = NaN and report "no coverage" for the whole run.
	for _, epochSec := range []float64{math.NaN(), math.Inf(1)} {
		if s, err := New(c, users, epochSec, 1); err == nil {
			_, ok := s.FirstContact(4, 0)
			t.Errorf("epochSec %v accepted (New York in view at t=0: %v)", epochSec, ok)
		}
	}
	for _, epochSec := range []float64{0, -1, math.Inf(-1)} {
		if s, err := New(c, users, epochSec, 1); err != nil || s.EpochSec() != DefaultEpochSec {
			t.Errorf("epochSec %v: scheduler %v, error %v; want the default epoch", epochSec, s, err)
		}
	}
	s, err := New(c, users, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.EpochSec() != DefaultEpochSec {
		t.Errorf("default epoch = %v", s.EpochSec())
	}
	if len(s.assignments) != len(users) {
		t.Errorf("users = %d", len(s.assignments))
	}
}

func TestFirstContactStableWithinEpoch(t *testing.T) {
	c, users := setup(t)
	s, err := New(c, users, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	for u := range users {
		a, okA := s.FirstContact(u, 100)
		b, okB := s.FirstContact(u, 114.9) // same epoch [90, 105)? no: epoch 6=90-105, 114.9 is epoch 7
		_ = b
		_ = okB
		c2, okC := s.FirstContact(u, 104.9) // same epoch as t=100 ([90,105))
		if okA != okC || a != c2 {
			t.Errorf("user %d: assignment changed within epoch: %d vs %d", u, a, c2)
		}
		if okA {
			// Assigned satellite must actually be visible.
			found := false
			for _, v := range c.VisibleFrom(nil, users[u], 90) {
				if v == a {
					found = true
				}
			}
			if !found {
				t.Errorf("user %d assigned non-visible satellite %d", u, a)
			}
		}
	}
}

func TestAssignmentsChangeOverTime(t *testing.T) {
	c, users := setup(t)
	s, err := New(c, users, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	checks := 0
	for u := range users {
		prev, ok := s.FirstContact(u, 0)
		if !ok {
			continue
		}
		// Over 40 epochs (10 minutes) the orbital motion forces handovers.
		for e := int64(1); e < 40; e++ {
			cur, ok := s.FirstContact(u, float64(e)*15)
			if !ok {
				continue
			}
			checks++
			if cur != prev {
				changes++
			}
			prev = cur
		}
	}
	if checks == 0 {
		t.Fatal("no assignments at all")
	}
	if changes == 0 {
		t.Error("assignments never changed across 10 minutes of orbital motion")
	}
}

func TestDeterminism(t *testing.T) {
	c1, users := setup(t)
	s1, _ := New(c1, users, 15, 42)
	c2, _ := setup(t)
	s2, _ := New(c2, users, 15, 42)
	for _, tm := range []float64{0, 15, 300, 4000} {
		for u := range users {
			a, okA := s1.FirstContact(u, tm)
			b, okB := s2.FirstContact(u, tm)
			if okA != okB || a != b {
				t.Fatalf("user %d t=%v: %d/%v vs %d/%v", u, tm, a, okA, b, okB)
			}
		}
	}
}

func TestOutOfRangeUser(t *testing.T) {
	c, users := setup(t)
	s, _ := New(c, users, 15, 1)
	if _, ok := s.FirstContact(-1, 0); ok {
		t.Error("negative user index should fail")
	}
	if _, ok := s.FirstContact(len(users), 0); ok {
		t.Error("user index past end should fail")
	}
}

func TestNoVisibleSatellites(t *testing.T) {
	c, _ := setup(t)
	// A user at the pole is outside a 53-degree shell's coverage.
	s, err := New(c, []geo.Point{geo.NewPoint(89.9, 0)}, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.FirstContact(0, 0); ok {
		t.Error("polar user should see no satellites in a 53-degree shell")
	}
}

func TestUniformSpreadAcrossVisible(t *testing.T) {
	// Over many epochs a user's picks should spread across multiple
	// satellites, not collapse onto one (the scheduler re-randomises).
	c, users := setup(t)
	s, _ := New(c, users, 15, 9)
	seen := map[orbit.SatID]bool{}
	for e := 0; e < 30; e++ {
		if id, ok := s.FirstContact(4, float64(e)*15); ok { // New York
			seen[id] = true
		}
	}
	if len(seen) < 3 {
		t.Errorf("NY user stuck on %d satellites over 30 epochs", len(seen))
	}
}

// TestFirstContactDigest pins every assignment of 9 cities × 720 epochs under
// the paper's 126-slot outage mask, for three seeds, to digests recorded from
// the per-user brute-force sweep that preceded orbit.Snapshot (commit
// 0165c18). Any change to which satellites count as visible, or to their
// order, moves the seeded pick and so the digest.
func TestFirstContactDigest(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want uint64
	}{
		{7, 0x3da3b8730573f3ca},
		{42, 0x823b2dda9cfee940},
		{107, 0x709e5284415692b6},
	} {
		c, users := setup(t)
		c.ApplyOutageMask(126, tc.seed)
		h := fnv.New64a()
		var b [8]byte
		for _, id := range firstContacts(t, c, users, tc.seed) {
			binary.LittleEndian.PutUint64(b[:], uint64(id))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("seed %d: digest %#x, want %#x", tc.seed, got, tc.want)
		}
	}
}

// TestNegativeTimeOnFreshScheduler: epoch -1 used to double as the "nothing
// computed yet" sentinel and times were truncated toward zero, so a fresh
// scheduler asked about t in [-2·epoch, -epoch) skipped recompute and returned
// the zero-valued assignment (satellite 0, visible), and (-epoch, 0) aliased
// epoch 0.
func TestNegativeTimeOnFreshScheduler(t *testing.T) {
	c, users := setup(t)
	polar, err := New(c, []geo.Point{geo.NewPoint(89.9, 0)}, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := polar.FirstContact(0, -20); ok {
		t.Errorf("polar user at t=-20 on a fresh scheduler got satellite %d; it sees %d", id, len(c.VisibleFrom(nil, geo.NewPoint(89.9, 0), -20)))
	}
	for _, tSec := range []float64{-20, -7.5} {
		fresh, _ := New(c, users, 15, 3)
		warm, _ := New(c, users, 15, 3)
		warm.FirstContact(0, 600)
		for u := range users {
			a, okA := fresh.FirstContact(u, tSec)
			b, okB := warm.FirstContact(u, tSec)
			if a != b || okA != okB {
				t.Errorf("t=%v user %d: fresh scheduler %d/%v, warm scheduler %d/%v", tSec, u, a, okA, b, okB)
			}
		}
	}
	// (-epoch, 0) is epoch -1, not epoch 0: its assignments are computed at
	// t=-15, where at least one city's pick differs from t=0's.
	s, _ := New(c, users, 15, 3)
	same := true
	for u := range users {
		a, _ := s.FirstContact(u, -7.5)
		b, _ := s.FirstContact(u, 0)
		same = same && a == b
	}
	if same {
		t.Error("t=-7.5 and t=0 returned identical assignments for all users: epoch -1 aliases epoch 0")
	}
}

// TestActivityChangeBetweenEpochs: the chaos schedules flip satellites
// mid-run, and the scheduler must see the mask in force at each epoch
// boundary, not the one the timeline row was first filled under.
func TestActivityChangeBetweenEpochs(t *testing.T) {
	c, users := setup(t)
	s, _ := New(c, users, 15, 5)
	first, ok := s.FirstContact(4, 0)
	if !ok {
		t.Fatal("New York sees nothing at t=0")
	}
	for _, id := range c.VisibleFrom(nil, users[4], 15) {
		c.SetActive(id, false)
	}
	if got, _ := s.FirstContact(4, 14.9); got != first {
		t.Errorf("assignment changed within the epoch: %d -> %d", first, got)
	}
	if id, ok := s.FirstContact(4, 15); ok {
		t.Errorf("every satellite in view at t=15 is down, yet user got %d", id)
	}
	c.ApplyOutageMask(0, 0)
	if _, ok := s.FirstContact(4, 30); !ok {
		t.Error("all satellites restored, yet user sees nothing at t=30")
	}
	fresh, _ := New(c, users, 15, 5)
	for u := range users {
		a, _ := s.FirstContact(u, 45)
		b, _ := fresh.FirstContact(u, 45)
		if a != b {
			t.Errorf("user %d: reused scheduler picked %d, fresh one %d", u, a, b)
		}
	}
}

// firstContacts is every assignment of 720 epochs, epoch-major.
func firstContacts(t *testing.T, c *orbit.Constellation, users []geo.Point, seed int64) []orbit.SatID {
	t.Helper()
	s, err := New(c, users, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]orbit.SatID, 0, 720*len(users))
	for e := 0; e < 720; e++ {
		for u := range users {
			id, _ := s.FirstContact(u, float64(e)*DefaultEpochSec)
			out = append(out, id)
		}
	}
	return out
}

// TestWarmConstellationMatchesFresh: the constellation's timeline outlives a
// scheduler, and nothing of the run that filled it may show in the next one.
// A scheduler on a constellation swept under another outage mask and seed
// returns the 720 × 9 first contacts of one on a constellation nobody used.
func TestWarmConstellationMatchesFresh(t *testing.T) {
	fresh, users := setup(t)
	fresh.ApplyOutageMask(126, 42)
	want := firstContacts(t, fresh, users, 42)

	warm, _ := setup(t)
	warm.ApplyOutageMask(400, 7)
	if other := firstContacts(t, warm, users, 7); slices.Equal(other, want) {
		t.Fatal("the warming run made the same picks as the run under test; it proves nothing")
	}
	warm.ApplyOutageMask(126, 42)
	if got := firstContacts(t, warm, users, 42); !slices.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("epoch %d user %d: warm constellation picked %d, fresh one %d", i/len(users), i%len(users), got[i], want[i])
			}
		}
	}
}

// TestSchedulersShareConstellation: a Scheduler is single-goroutine, the
// constellation under it is not — two schedulers with their own seeds fill
// and read its timeline at once and each gets what it gets alone. Run under
// -race.
func TestSchedulersShareConstellation(t *testing.T) {
	alone, users := setup(t)
	alone.ApplyOutageMask(126, 42)
	shared, _ := setup(t)
	shared.ApplyOutageMask(126, 42)
	var wg sync.WaitGroup
	for _, seed := range []int64{42, 107} {
		want := firstContacts(t, alone, users, seed)
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s, err := New(shared, users, 0, seed)
			if err != nil {
				t.Error(err)
				return
			}
			for e := 0; e < 720; e++ {
				for u := range users {
					if id, _ := s.FirstContact(u, float64(e)*DefaultEpochSec); id != want[e*len(users)+u] {
						t.Errorf("seed %d epoch %d user %d: picked %d beside another scheduler, %d alone", seed, e, u, id, want[e*len(users)+u])
						return
					}
				}
			}
		}(seed)
	}
	wg.Wait()
}
