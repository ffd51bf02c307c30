// Package sched models the Starlink user-link scheduler: every user terminal
// is assigned a first-contact satellite among the satellites in view, and the
// assignment is reconfigured every 15 seconds — the global scheduler interval
// the paper adopts from Starlink's ETC filing (§5.1). StarCDN cannot control
// this assignment (§3.2); the simulator treats it as an external input.
package sched

import (
	"fmt"
	"math"

	"starcdn/internal/geo"
	"starcdn/internal/orbit"
)

// DefaultEpochSec is the Starlink global scheduler reconfiguration interval.
const DefaultEpochSec = 15.0

// Scheduler assigns first-contact satellites to users per epoch. It is not
// safe for concurrent use: callers that share a Scheduler across goroutines
// (e.g. network servers) must serialise access.
type Scheduler struct {
	epochSec float64
	seed     uint64
	// cache of the current epoch's assignments
	haveEpoch   bool // false until the first recompute: every int64 is a real epoch
	epochIdx    int64
	assignments []orbit.SatID   // -1 when no satellite is visible
	timeline    *orbit.Timeline // who is in view of whom per epoch, shared through the constellation
	visBuf      []orbit.SatID
}

// New creates a scheduler for the given user terminals. epochSec <= 0 selects
// DefaultEpochSec; NaN and +Inf are errors.
func New(c *orbit.Constellation, users []geo.Point, epochSec float64, seed int64) (*Scheduler, error) {
	if c == nil {
		return nil, fmt.Errorf("sched: nil constellation")
	}
	if len(users) == 0 {
		return nil, fmt.Errorf("sched: no users")
	}
	if math.IsNaN(epochSec) || math.IsInf(epochSec, 1) {
		return nil, fmt.Errorf("sched: epochSec must be finite, got %v", epochSec)
	}
	if epochSec <= 0 {
		epochSec = DefaultEpochSec
	}
	s := &Scheduler{
		epochSec:    epochSec,
		seed:        uint64(seed),
		assignments: make([]orbit.SatID, len(users)),
		timeline:    c.Timeline(users, epochSec),
		visBuf:      make([]orbit.SatID, 0, 64), // a few dozen in view at most; append grows it if a shell shows more
	}
	return s, nil
}

// EpochSec returns the scheduling interval.
func (s *Scheduler) EpochSec() float64 { return s.epochSec }

// FirstContact returns the satellite assigned to user u at time tSec, and
// whether any satellite is in view. Assignments are stable within an epoch
// and deterministic in (seed, user, epoch).
func (s *Scheduler) FirstContact(u int, tSec float64) (orbit.SatID, bool) {
	if u < 0 || u >= len(s.assignments) {
		return -1, false
	}
	epoch := int64(math.Floor(tSec / s.epochSec))
	if !s.haveEpoch || epoch != s.epochIdx {
		s.recompute(epoch)
	}
	id := s.assignments[u]
	return id, id >= 0
}

// recompute reassigns every user for the new epoch. Per §5.1 the scheduler
// "splits all requests within the discrete time step to different
// satellites": each user picks uniformly among its visible satellites,
// re-randomised each epoch. The timeline row is geometry only and reads the
// activity mask when asked, so the candidates are what orbit.VisibleFrom
// returns at the epoch start under whatever mask is in force at this call.
func (s *Scheduler) recompute(epoch int64) {
	s.haveEpoch, s.epochIdx = true, epoch
	row := s.timeline.Epoch(epoch)
	for u := range s.assignments {
		s.visBuf = row.VisibleFrom(s.visBuf[:0], u)
		if len(s.visBuf) == 0 {
			s.assignments[u] = -1
			continue
		}
		pick := int(mix(s.seed, uint64(u)+1, uint64(epoch)+1) % uint64(len(s.visBuf)))
		s.assignments[u] = s.visBuf[pick]
	}
}

// mix is a splitmix64-style hash of three words.
func mix(a, b, c uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 + b*0xBF58476D1CE4E5B9 + c*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
