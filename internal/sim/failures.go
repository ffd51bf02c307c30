package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"starcdn/internal/orbit"
)

// FailureSchedule applies a time-ordered list of FailureEvents to a
// constellation with a single forward cursor, tracking which satellites are
// in a *transient* outage (served as plain misses, §3.4) versus a long-term
// one (remapped by consistent hashing).
//
// The schedule is shared infrastructure: sim.Run advances it per simulated
// request, and the distributed TCP replayer advances an identical schedule
// while killing/reviving real cache servers through the OnApply hook, so the
// two pipelines can be cross-checked under the same failure workload.
//
// A FailureSchedule is not safe for concurrent use; callers advance it from
// the (single-threaded) event loop that owns the trace clock.
type FailureSchedule struct {
	c         *orbit.Constellation
	events    []FailureEvent
	next      int
	transient map[orbit.SatID]bool
	onApply   func(FailureEvent) error
}

// NewFailureSchedule validates that events are sorted by TimeSec and binds
// them to the constellation whose availability they will mutate. The events
// slice is not copied; callers must not mutate it afterwards.
func NewFailureSchedule(c *orbit.Constellation, events []FailureEvent) (*FailureSchedule, error) {
	if c == nil {
		return nil, fmt.Errorf("sim: failure schedule needs a constellation")
	}
	// The schedule is consumed with a single forward cursor, so an
	// out-of-order event would silently never fire.
	for i := 1; i < len(events); i++ {
		if events[i].TimeSec < events[i-1].TimeSec {
			return nil, fmt.Errorf("sim: failure schedule out of order at %d (%v < %v)",
				i, events[i].TimeSec, events[i-1].TimeSec)
		}
	}
	return &FailureSchedule{
		c:         c,
		events:    events,
		transient: make(map[orbit.SatID]bool),
	}, nil
}

// OnApply registers a hook invoked for every applied event — the TCP
// replayer uses it to kill/revive cache servers in lockstep with the
// constellation state. A non-nil error aborts Advance and is returned.
func (s *FailureSchedule) OnApply(fn func(FailureEvent) error) { s.onApply = fn }

// Advance applies every pending event with TimeSec <= now: the satellite's
// availability flips and the transient set is updated. Advance is monotone;
// calling it with an earlier time than a previous call applies nothing.
func (s *FailureSchedule) Advance(now float64) error {
	for s.next < len(s.events) && s.events[s.next].TimeSec <= now {
		ev := s.events[s.next]
		s.next++
		s.c.SetActive(ev.Sat, !ev.Down)
		if ev.Down && ev.Transient {
			s.transient[ev.Sat] = true
		} else {
			delete(s.transient, ev.Sat)
		}
		if s.onApply != nil {
			if err := s.onApply(ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// NextEventTime returns the time of the next unapplied event; ok is false
// when the schedule is exhausted.
func (s *FailureSchedule) NextEventTime() (t float64, ok bool) {
	if s.next >= len(s.events) {
		return 0, false
	}
	return s.events[s.next].TimeSec, true
}

// TransientDown reports whether a satellite is currently in a transient
// outage (serve the request from the ground rather than remapping, §3.4).
// The method value is what ServeContext.TransientDown and the replayer's
// degradation path consume.
func (s *FailureSchedule) TransientDown(id orbit.SatID) bool { return s.transient[id] }

// ChaosOptions configures GenerateChaos.
type ChaosOptions struct {
	// StartSec/EndSec bound the window in which failures strike.
	StartSec, EndSec float64
	// KillFraction is the fraction of candidate satellites to kill
	// (rounded up, so any positive fraction kills at least one).
	KillFraction float64
	// TransientFraction is the fraction of kills that are transient
	// (§3.4 reboot — served as misses); the rest are long-term losses
	// (remapped). 1 makes every kill transient, 0 every kill permanent.
	TransientFraction float64
	// ReviveAfterSec, when positive, schedules a revival this long after
	// every transient kill (long-term losses never revive).
	ReviveAfterSec float64
	// Seed drives every random choice; equal inputs yield byte-identical
	// schedules.
	Seed int64
}

// GenerateChaos builds a deterministic §3.4 failure schedule over the
// candidate satellites: a seeded sample of KillFraction of them is killed at
// uniformly drawn times inside [StartSec, EndSec), each kill independently
// marked transient with probability TransientFraction, and transient kills
// optionally revived ReviveAfterSec later. The result is sorted by time
// (ties broken by satellite, then direction) and is a pure function of the
// inputs — the same candidates and options produce a byte-identical
// schedule, which is what makes chaos runs replayable.
func GenerateChaos(candidates []orbit.SatID, o ChaosOptions) []FailureEvent {
	if len(candidates) == 0 || o.KillFraction <= 0 || o.EndSec <= o.StartSec {
		return nil
	}
	// Work on a sorted copy so the schedule does not depend on the caller's
	// slice order (e.g. an order harvested from map iteration).
	sats := append([]orbit.SatID(nil), candidates...)
	sort.Slice(sats, func(i, j int) bool { return sats[i] < sats[j] })

	rng := rand.New(rand.NewSource(o.Seed))
	rng.Shuffle(len(sats), func(i, j int) { sats[i], sats[j] = sats[j], sats[i] })
	kills := int(o.KillFraction*float64(len(sats)) + 0.999999)
	if kills > len(sats) {
		kills = len(sats)
	}

	var events []FailureEvent
	window := o.EndSec - o.StartSec
	for i := 0; i < kills; i++ {
		t := o.StartSec + rng.Float64()*window
		transient := rng.Float64() < o.TransientFraction
		events = append(events, FailureEvent{
			TimeSec: t, Sat: sats[i], Down: true, Transient: transient,
		})
		if transient && o.ReviveAfterSec > 0 {
			events = append(events, FailureEvent{
				TimeSec: t + o.ReviveAfterSec, Sat: sats[i], Down: false,
			})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.TimeSec != b.TimeSec {
			return a.TimeSec < b.TimeSec
		}
		if a.Sat != b.Sat {
			return a.Sat < b.Sat
		}
		return a.Down && !b.Down
	})
	return events
}
