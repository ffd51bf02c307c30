package sim

import (
	"fmt"

	"starcdn/internal/cache"
	"starcdn/internal/geo"
)

// GroundEdgeCDN is the intermediate design the paper discusses in §7
// ("Co-optimizing CDNs and LSNs"): edge caches co-located with Starlink
// ground stations. A hit avoids the terrestrial origin round trip — good for
// QoE — but the content still crosses the ground-satellite uplink on every
// request, so the LSN's scarce uplink spectrum is not saved. The experiment
// harness uses it to quantify exactly that trade-off against StarCDN.
type GroundEdgeCDN struct {
	cfg      CacheConfig
	stations []geo.Point
	users    []geo.Point
	caches   map[int]cache.Policy // keyed by ground-station index
	// nearest[l] is the ground station serving trace location l.
	nearest map[int]int
}

// NewGroundEdgeCDN builds the baseline. users[i] must be the terminal
// position of trace location i (the same slice passed to Run).
func NewGroundEdgeCDN(cfg CacheConfig, stations []geo.Point, users []geo.Point) (*GroundEdgeCDN, error) {
	if len(stations) == 0 {
		return nil, fmt.Errorf("sim: ground-edge CDN needs at least one ground station")
	}
	return &GroundEdgeCDN{
		cfg:      cfg,
		stations: stations,
		users:    append([]geo.Point(nil), users...),
		caches:   make(map[int]cache.Policy),
		nearest:  make(map[int]int),
	}, nil
}

// Name implements Policy.
func (p *GroundEdgeCDN) Name() string { return "ground-edge" }

// Serve implements Policy.
func (p *GroundEdgeCDN) Serve(ctx *ServeContext) Outcome {
	loc := ctx.Req.Location
	gsIdx, ok := p.nearest[loc]
	if !ok {
		var u geo.Point
		if loc >= 0 && loc < len(p.users) {
			u = p.users[loc]
		}
		gsIdx, _ = geo.NearestGroundStation(p.stations, u)
		p.nearest[loc] = gsIdx
	}
	c, ok := p.caches[gsIdx]
	if !ok {
		c = p.cfg.build()
		p.caches[gsIdx] = c
	}
	// The request always traverses the bent pipe down to the ground station.
	if c.Get(ctx.Req.Object) {
		// Served from the GS-colocated edge: no origin round trip, but the
		// bytes still climb the uplink to reach the user.
		return Outcome{Source: SourceGroundEdge, ServerSat: ctx.First, Legs: Legs{Tail: TailGSLPair}}
	}
	admit(c, ctx.Req.Object, ctx.Req.Size)
	// The bent pipe and the origin: a ground fetch's draws, in its order.
	return Outcome{Source: SourceGround, ServerSat: ctx.First, Legs: Legs{Tail: TailGround}}
}
