// Package session models the future-work challenge the paper raises for
// direct-to-cell services (§7 "New Applications"): per-user session state
// (radio bearer context, TLS sessions, player buffers) must stay reachable
// while the satellites that hold it sweep overhead. It simulates three
// anchoring strategies over the constellation and link scheduler:
//
//   - FollowSatellite: state lives on the serving satellite and migrates
//     over ISLs at every handover (the naive design).
//   - GroundAnchor: state lives at the nearest ground station; every
//     handover re-fetches it over the bent pipe (today's fallback).
//   - BucketAnchor: state lives at the StarCDN bucket owner for the user's
//     session key — handovers between satellites that share a bucket owner
//     move no state at all, reusing the consistent-hashing machinery as a
//     stable rendezvous point.
package session

import (
	"fmt"
	"math/rand"

	"starcdn/internal/cache"
	"starcdn/internal/core"
	"starcdn/internal/geo"
	"starcdn/internal/orbit"
	"starcdn/internal/sched"
	"starcdn/internal/sim"
	"starcdn/internal/stats"
)

// Strategy selects a state-anchoring design.
type Strategy int

// Anchoring strategies.
const (
	FollowSatellite Strategy = iota
	GroundAnchor
	BucketAnchor
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case FollowSatellite:
		return "follow-satellite"
	case GroundAnchor:
		return "ground-anchor"
	case BucketAnchor:
		return "bucket-anchor"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config parameterises a session simulation.
type Config struct {
	Strategy    Strategy
	StateBytes  int64   // session state size per user
	DurationSec float64 // simulated span
	EpochSec    float64 // scheduler interval (default 15 s)
	Seed        int64
}

// Stats aggregates a session simulation.
type Stats struct {
	Strategy  Strategy
	Users     int
	Epochs    int64
	EpochSec  float64
	Handovers int64 // first-contact satellite changes
	// Migrations counts state moves (FollowSatellite: every handover;
	// BucketAnchor: only when the anchor satellite changes; GroundAnchor:
	// a re-fetch per handover).
	Migrations int64
	// MigrationByteHops is the ISL traffic in byte-hops spent moving state.
	MigrationByteHops int64
	// ReattachMs is the distribution of state-unavailability time at each
	// handover (the time to move or re-fetch the state).
	ReattachMs stats.CDF
	// AccessHops summarises the grid distance between the serving satellite
	// and the state's anchor each epoch (0 for FollowSatellite by design;
	// the price BucketAnchor pays for fewer migrations).
	AccessHops stats.Summary
}

// Run simulates the strategy for the given user terminals.
func Run(h *core.HashScheme, users []geo.Point, cfg Config) (*Stats, error) {
	if h == nil {
		return nil, fmt.Errorf("session: nil hash scheme")
	}
	if len(users) == 0 {
		return nil, fmt.Errorf("session: no users")
	}
	if cfg.StateBytes <= 0 || cfg.DurationSec <= 0 {
		return nil, fmt.Errorf("session: StateBytes and DurationSec must be positive")
	}
	c := h.Grid().Constellation()
	scheduler, err := sched.New(c, users, cfg.EpochSec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	lat := sim.DefaultLatencyModel()
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	st := &Stats{Strategy: cfg.Strategy, Users: len(users), EpochSec: scheduler.EpochSec()}

	// Per-user anchor state. -1 = not yet attached.
	anchor := make([]orbit.SatID, len(users))
	firstPrev := make([]orbit.SatID, len(users))
	for i := range anchor {
		anchor[i] = -1
		firstPrev[i] = -1
	}
	epochSec := scheduler.EpochSec()
	g := h.Grid()
	for t := 0.0; t < cfg.DurationSec; t += epochSec {
		st.Epochs++
		for u := range users {
			first, ok := scheduler.FirstContact(u, t)
			if !ok {
				continue
			}
			if firstPrev[u] == first {
				continue // no handover this epoch
			}
			if firstPrev[u] != -1 {
				st.Handovers++
			}
			prevFirst := firstPrev[u]
			firstPrev[u] = first

			switch cfg.Strategy {
			case FollowSatellite:
				// State rides with the serving satellite: migrate from the
				// previous satellite over ISLs.
				if prevFirst != -1 {
					hops := g.TotalHops(prevFirst, first)
					st.Migrations++
					st.MigrationByteHops += cfg.StateBytes * int64(hops)
					ph, sh := g.HopDistance(prevFirst, first)
					st.ReattachMs.Add(lat.ISLPathRTTMs(ph, sh, rng) / 2) // one way
				}
				anchor[u] = first
			case GroundAnchor:
				// State is re-fetched from the ground at every handover.
				if prevFirst != -1 {
					st.Migrations++
					st.ReattachMs.Add(lat.GroundFetchRTTMs(rng))
				}
			case BucketAnchor:
				// State lives at a bucket-owner satellite for the user's
				// session key and stays put (hysteresis) while it remains
				// within the routing budget of the new first contact; only
				// when the old anchor drifts out of range does the state
				// migrate to the owner nearest the new first contact.
				key := cache.ObjectID(uint64(u)*2654435761 + 1)
				// The hysteresis budget bounds state-access latency: with
				// ~2.15 ms per inter-orbit hop, 4*sqrt(L) hops keeps access
				// under ~25 ms round trip while absorbing the large grid
				// distances between ascending and descending pass families.
				budget := 4 * h.Root()
				if anchor[u] != -1 && c.Active(anchor[u]) &&
					g.TotalHops(first, anchor[u]) <= budget {
					st.ReattachMs.Add(0) // state already reachable in place
					st.AccessHops.Add(float64(g.TotalHops(first, anchor[u])))
					continue
				}
				owner, ok := h.Responsible(first, h.BucketOf(key))
				if !ok {
					continue
				}
				if anchor[u] != -1 && anchor[u] != owner {
					hops := g.TotalHops(anchor[u], owner)
					st.Migrations++
					st.MigrationByteHops += cfg.StateBytes * int64(hops)
					ph, sh := g.HopDistance(anchor[u], owner)
					st.ReattachMs.Add(lat.ISLPathRTTMs(ph, sh, rng) / 2)
				}
				anchor[u] = owner
				st.AccessHops.Add(float64(g.TotalHops(first, owner)))
			}
		}
	}
	return st, nil
}
